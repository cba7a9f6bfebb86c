//! Edge-disjoint graph partitioning for Rnet formation.
//!
//! Section 3.3 of the paper: an ideal partitioning produces equal-sized
//! Rnets while minimising border nodes, which is NP-complete \[15\]; the
//! authors adopt the *geometric approach* of Huang et al. \[8\] to coarsely
//! split the edge set in two, then the *Kernighan–Lin algorithm* \[12\] to
//! exchange edges between the halves until border nodes stop decreasing.
//! With partition fanout `p = 2^x`, binary partitioning is applied
//! recursively `x` times.
//!
//! Partitions here are over **edges** (Definition 4: the edge sets of
//! sibling Rnets are disjoint; nodes shared between parts become border
//! nodes). The unit moved by KL is therefore an edge, and the cost function
//! is the number of *internal border nodes*: nodes incident to edges of
//! both halves.
//!
//! # Flat arrays
//!
//! One bisection renumbers its nodes to dense local ids and keeps all KL
//! state in flat arrays over them: an `[la, lb]` endpoint pair per edge, a
//! CSR index of each node's incident edges (in edge order) and a
//! `Vec<[u32; 2]>` of per-side edge counts, refilled each pass. The only
//! hashed structures are the global → local id map, built once per
//! bisection, and the set of current border nodes.
//!
//! # Tie order, kept on purpose
//!
//! The move loop scans the border set in hash order and keeps the *first*
//! edge of best gain, so equal-gain ties follow that order, and the order
//! is part of the partition. The border set is a `FastMap<global id, local
//! id>` driven by a fixed insert/remove sequence: each pass seeds it in the
//! iteration order of a map fed every edge's endpoints `a` then `b` in edge
//! order, and each flip updates `a` before `b`. Hash-table iteration order
//! depends only on the hasher and that key sequence. Changing the sequence,
//! the container's key, or breaking ties by lowest index instead would
//! change every partition and every pinned store digest over one.
//!
//! # The parallel bisection tree
//!
//! A bisection reads only its own edge list, kept in input order, so the
//! recursion is a binary tree whose nodes are independent once their parent
//! has split. [`bisection_leaves`] runs it with the right half on a scoped
//! worker (while workers remain) and the left half inline, each writing its
//! leaves into its own index-addressed half of the slot array, and joins
//! the worker in spawn order. Which thread ran a subtree never reaches its
//! leaves, so the result is identical at any worker count.

use crate::graph::RoadNetwork;
use crate::hash::FastMap;
use crate::ids::EdgeId;

/// Tuning knobs for the bisection.
#[derive(Clone, Debug)]
pub struct PartitionOptions {
    /// Number of Kernighan–Lin improvement passes over the cut.
    pub kl_passes: usize,
    /// Each side must keep at least this fraction of the edges.
    pub min_balance: f64,
    /// Upper bound on tentative moves per KL pass (0 = automatic).
    pub move_cap: usize,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions { kl_passes: 3, min_balance: 0.40, move_cap: 0 }
    }
}

/// Splits `edges` into `parts` (a power of two) groups by recursive
/// geometric bisection + KL refinement. Returns one part index per input
/// edge, in input order.
///
/// # Panics
/// Panics if `parts` is zero, not a power of two, or above `2^16`. This is
/// a caller precondition: the hierarchy builder never gets here with a bad
/// fanout, because `HierarchyConfig` validation rejects it first.
pub fn partition_edges(
    g: &RoadNetwork,
    edges: &[EdgeId],
    parts: usize,
    opts: &PartitionOptions,
) -> Vec<u16> {
    assert!(parts > 0 && parts.is_power_of_two(), "fanout must be a power of two, got {parts}");
    assert!(parts <= u16::MAX as usize + 1, "fanout too large");
    let mut assignment = vec![0u16; edges.len()];
    for (part, group) in
        bisection_leaves(g, edges, parts.trailing_zeros(), opts, 0).iter().enumerate()
    {
        for &idx in group {
            assignment[idx as usize] = part as u16;
        }
    }
    assignment
}

/// Splits `edges` into `2^depth` leaf groups by recursive bisection. Leaf
/// `i` is reached by the binary digits of `i`, most significant first
/// (`0` = left half); each leaf lists positions in `edges`, ascending. A
/// group of at most one edge is not split: it stays in the leftmost leaf of
/// its subtree and the others stay empty.
///
/// `workers` caps the threads used (`0` = `available_parallelism`); the
/// result does not depend on it.
#[doc(hidden)]
pub fn bisection_leaves(
    g: &RoadNetwork,
    edges: &[EdgeId],
    depth: u32,
    opts: &PartitionOptions,
    workers: usize,
) -> Vec<Vec<u32>> {
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    };
    let mut leaves = vec![Vec::new(); 1usize << depth];
    split_into(g, edges, (0..edges.len() as u32).collect(), &mut leaves, opts, workers);
    leaves
}

/// Recursively bisects `group` (positions in `edges`) down to one group per
/// slot, writing each leaf into its slot. With more than one worker the
/// right half runs on a scoped thread owning the upper half of `slots`, the
/// left half inline on the lower half; the worker is then joined, and a
/// panic in it is re-raised here.
fn split_into(
    g: &RoadNetwork,
    edges: &[EdgeId],
    group: Vec<u32>,
    slots: &mut [Vec<u32>],
    opts: &PartitionOptions,
    workers: usize,
) {
    if slots.len() == 1 || group.len() <= 1 {
        slots[0] = group;
        return;
    }
    let subset: Vec<EdgeId> = group.iter().map(|&i| edges[i as usize]).collect();
    let side = bisect(g, &subset, opts);
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for (&idx, &s) in group.iter().zip(&side) {
        if s {
            right.push(idx);
        } else {
            left.push(idx);
        }
    }
    let (lo, hi) = slots.split_at_mut(slots.len() / 2);
    if workers < 2 {
        split_into(g, edges, left, lo, opts, 1);
        split_into(g, edges, right, hi, opts, 1);
        return;
    }
    let right_workers = workers / 2;
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || split_into(g, edges, right, hi, opts, right_workers));
        split_into(g, edges, left, lo, opts, workers - right_workers);
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Bisects an edge set: `false` = left half, `true` = right half.
pub fn bisect(g: &RoadNetwork, edges: &[EdgeId], opts: &PartitionOptions) -> Vec<bool> {
    let mut side = geometric_split(g, edges);
    kl_refine(g, edges, &mut side, opts);
    side
}

/// The geometric half: order edges by their midpoint along the wider axis
/// of the bounding box and cut the sorted order in the middle, giving two
/// spatially coherent halves with equal edge counts.
fn geometric_split(g: &RoadNetwork, edges: &[EdgeId]) -> Vec<bool> {
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    let mids: Vec<(f64, f64)> = edges
        .iter()
        .map(|&e| {
            let (a, b) = g.edge(e).endpoints();
            let m = g.coord(a).midpoint(g.coord(b));
            min_x = min_x.min(m.x);
            max_x = max_x.max(m.x);
            min_y = min_y.min(m.y);
            max_y = max_y.max(m.y);
            (m.x, m.y)
        })
        .collect();
    let use_x = (max_x - min_x) >= (max_y - min_y);
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    order.sort_by(|&i, &j| {
        let a = if use_x { mids[i as usize].0 } else { mids[i as usize].1 };
        let b = if use_x { mids[j as usize].0 } else { mids[j as usize].1 };
        a.total_cmp(&b).then(i.cmp(&j))
    });
    let mut side = vec![false; edges.len()];
    for &i in &order[edges.len() / 2..] {
        side[i as usize] = true;
    }
    side
}

/// An edge set renumbered to dense local node ids. The graph rejects
/// self-loops, so an edge's two endpoints are always distinct nodes.
struct LocalGraph {
    /// `[la, lb]` local endpoints per edge, in input order.
    ends: Vec<[u32; 2]>,
    /// Global node id per local id.
    global: Vec<u32>,
    /// Local ids in the iteration order of the global → local id map,
    /// whose keys arrived as `a` then `b` for each edge in order.
    hash_order: Vec<u32>,
    /// CSR incident index: local node `l`'s edges are
    /// `incident[offsets[l]..offsets[l + 1]]`, in edge order.
    offsets: Vec<u32>,
    incident: Vec<u32>,
}

impl LocalGraph {
    fn new(g: &RoadNetwork, edges: &[EdgeId]) -> Self {
        let mut ids: FastMap<u32, u32> = FastMap::default();
        let mut global = Vec::new();
        let mut local = |n: u32| {
            *ids.entry(n).or_insert_with(|| {
                global.push(n);
                global.len() as u32 - 1
            })
        };
        let ends: Vec<[u32; 2]> = edges
            .iter()
            .map(|&e| {
                let (a, b) = g.edge(e).endpoints();
                [local(a.0), local(b.0)]
            })
            .collect();
        let hash_order = ids.values().copied().collect();
        let mut offsets = vec![0u32; global.len() + 1];
        for &[a, b] in &ends {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for l in 0..global.len() {
            offsets[l + 1] += offsets[l];
        }
        let mut fill = offsets.clone();
        let mut incident = vec![0u32; 2 * ends.len()];
        for (i, &[a, b]) in ends.iter().enumerate() {
            for n in [a, b] {
                incident[fill[n as usize] as usize] = i as u32;
                fill[n as usize] += 1;
            }
        }
        LocalGraph { ends, global, hash_order, offsets, incident }
    }

    fn edges_of(&self, l: u32) -> &[u32] {
        &self.incident[self.offsets[l as usize] as usize..self.offsets[l as usize + 1] as usize]
    }

    /// Per-node edge counts on each side.
    fn fill_counts(&self, side: &[bool], counts: &mut Vec<[u32; 2]>) {
        counts.clear();
        counts.resize(self.global.len(), [0, 0]);
        for (&[a, b], &s) in self.ends.iter().zip(side) {
            counts[a as usize][s as usize] += 1;
            counts[b as usize][s as usize] += 1;
        }
    }
}

#[inline]
fn is_border(c: [u32; 2]) -> bool {
    c[0] > 0 && c[1] > 0
}

/// Border-count delta caused by flipping one incident edge of a node with
/// side counts `c` from side `s` to side `1 - s`.
#[inline]
fn flip_delta(c: [u32; 2], s: usize) -> i64 {
    let mut after = c;
    after[s] -= 1;
    after[1 - s] += 1;
    is_border(after) as i64 - is_border(c) as i64
}

/// Kernighan–Lin refinement: repeatedly build a chain of tentative
/// best-gain edge moves (allowing interim losses), then keep the prefix
/// with the highest cumulative gain. Stops when a pass yields no
/// improvement, i.e. "until further exchanges do not reduce the number of
/// border nodes".
fn kl_refine(g: &RoadNetwork, edges: &[EdgeId], side: &mut [bool], opts: &PartitionOptions) {
    if edges.len() < 4 {
        return;
    }
    let move_cap = if opts.move_cap > 0 {
        opts.move_cap
    } else {
        ((edges.len() as f64).sqrt() as usize) * 4 + 64
    };
    let min_side = ((edges.len() as f64) * opts.min_balance).floor() as i64;

    let lg = LocalGraph::new(g, edges);
    let mut counts: Vec<[u32; 2]> = Vec::new();
    let mut locked = vec![false; edges.len()];
    let mut moved: Vec<u32> = Vec::new();
    for _pass in 0..opts.kl_passes {
        lg.fill_counts(side, &mut counts);
        // Current border nodes, global id → local id; the candidate scan
        // walks only their incident edges, keeping each move O(border).
        let mut border: FastMap<u32, u32> = FastMap::default();
        for &l in &lg.hash_order {
            if is_border(counts[l as usize]) {
                border.insert(lg.global[l as usize], l);
            }
        }
        locked.fill(false);
        moved.clear();
        let mut side_sizes = [0i64; 2];
        for &s in side.iter() {
            side_sizes[s as usize] += 1;
        }

        // Chain of tentative moves.
        let mut cumulative = 0i64;
        let mut best_cumulative = 0i64;
        let mut best_len = 0usize;

        for _step in 0..move_cap {
            // Candidates: unlocked edges touching a current border node;
            // the first edge of best gain wins.
            let mut best: Option<(i64, usize)> = None;
            for &l in border.values() {
                for &iu in lg.edges_of(l) {
                    let i = iu as usize;
                    if locked[i] {
                        continue;
                    }
                    let s = side[i] as usize;
                    if side_sizes[s] - 1 < min_side {
                        continue; // would unbalance
                    }
                    let [a, b] = lg.ends[i];
                    let gain =
                        -(flip_delta(counts[a as usize], s) + flip_delta(counts[b as usize], s));
                    if best.map(|(bg, _)| gain > bg).unwrap_or(true) {
                        best = Some((gain, i));
                    }
                }
            }
            let Some((gain, i)) = best else { break };
            // Apply tentatively, updating `a` before `b`.
            let s = side[i] as usize;
            for n in lg.ends[i] {
                let c = &mut counts[n as usize];
                c[s] -= 1;
                c[1 - s] += 1;
                if is_border(*c) {
                    border.insert(lg.global[n as usize], n);
                } else {
                    border.remove(&lg.global[n as usize]);
                }
            }
            side[i] = !side[i];
            side_sizes[s] -= 1;
            side_sizes[1 - s] += 1;
            locked[i] = true;
            moved.push(i as u32);
            cumulative += gain;
            if cumulative > best_cumulative {
                best_cumulative = cumulative;
                best_len = moved.len();
            }
            // Heuristic early stop: deep negative chains rarely recover.
            if cumulative < best_cumulative - 8 {
                break;
            }
        }

        // Roll back past the best prefix.
        for &i in moved[best_len..].iter() {
            side[i as usize] = !side[i as usize];
        }
        if best_cumulative <= 0 {
            break; // pass did not improve the cut
        }
    }
}

/// Number of nodes incident to edges on both sides — the KL objective.
pub fn internal_border_count(g: &RoadNetwork, edges: &[EdgeId], side: &[bool]) -> usize {
    let lg = LocalGraph::new(g, edges);
    let mut counts = Vec::new();
    lg.fill_counts(side, &mut counts);
    counts.into_iter().filter(|&c| is_border(c)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::simple;

    fn all_edges(g: &RoadNetwork) -> Vec<EdgeId> {
        g.edge_ids().collect()
    }

    #[test]
    fn bisection_balances_edge_counts() {
        let g = simple::grid(8, 8, 1.0);
        let edges = all_edges(&g);
        let side = bisect(&g, &edges, &PartitionOptions::default());
        let right = side.iter().filter(|&&s| s).count();
        let left = side.len() - right;
        let min = (side.len() as f64 * 0.40) as usize;
        assert!(left >= min && right >= min, "unbalanced: {left}/{right}");
    }

    #[test]
    fn kl_does_not_worsen_geometric_cut() {
        let g = simple::grid(10, 10, 1.0);
        let edges = all_edges(&g);
        let geo = geometric_split(&g, &edges);
        let geo_cost = internal_border_count(&g, &edges, &geo);
        let refined = bisect(&g, &edges, &PartitionOptions::default());
        let refined_cost = internal_border_count(&g, &edges, &refined);
        assert!(refined_cost <= geo_cost, "KL worsened the cut: {refined_cost} > {geo_cost}");
    }

    #[test]
    fn grid_bisection_border_is_roughly_one_column() {
        // A 12x12 unit grid cut in half should have a border close to one
        // grid line (12 nodes), certainly far less than half the nodes.
        let g = simple::grid(12, 12, 1.0);
        let edges = all_edges(&g);
        let side = bisect(&g, &edges, &PartitionOptions::default());
        let cost = internal_border_count(&g, &edges, &side);
        assert!(cost <= 24, "border too fat: {cost}");
        assert!(cost >= 12 - 4, "suspiciously thin border: {cost}");
    }

    #[test]
    fn partition_into_four_covers_all_edges_disjointly() {
        let g = simple::grid(9, 9, 1.0);
        let edges = all_edges(&g);
        let parts = partition_edges(&g, &edges, 4, &PartitionOptions::default());
        assert_eq!(parts.len(), edges.len());
        let mut counts = [0usize; 4];
        for &p in &parts {
            assert!(p < 4);
            counts[p as usize] += 1;
        }
        // Every part holds a reasonable share (Definition 4: non-empty, and
        // the paper aims at equal-sized Rnets).
        let min = edges.len() / 8;
        for (i, &c) in counts.iter().enumerate() {
            assert!(c >= min, "part {i} too small: {c} of {}", edges.len());
        }
    }

    #[test]
    fn chain_partition_cuts_at_articulation_points() {
        // A 16-node chain has 15 edges; a perfect bisection has exactly one
        // border node in the middle.
        let g = simple::chain(16, 1.0);
        let edges = all_edges(&g);
        let side = bisect(&g, &edges, &PartitionOptions::default());
        let cost = internal_border_count(&g, &edges, &side);
        assert_eq!(cost, 1, "chain bisection should meet at a single node");
    }

    #[test]
    fn degenerate_inputs() {
        let g = simple::chain(2, 1.0);
        let edges = all_edges(&g); // one edge
        let parts = partition_edges(&g, &edges, 4, &PartitionOptions::default());
        assert_eq!(parts, vec![0]);
        let empty: Vec<EdgeId> = Vec::new();
        let parts = partition_edges(&g, &empty, 2, &PartitionOptions::default());
        assert!(parts.is_empty());
    }

    fn bits(side: &[bool]) -> String {
        side.iter().map(|&s| if s { '1' } else { '0' }).collect()
    }

    /// Pins `bisect` side vectors (`1` = right half) and `partition_edges`
    /// outputs on shapes that exercise the KL edge cases: a chain, parallel
    /// edges, random worlds where KL moves edges off the geometric cut, and
    /// the group sizes 1–4 (below 4 KL is skipped; a group of at most one
    /// edge leaves its right part empty). A change here is a change of
    /// partition, not of speed.
    #[test]
    fn kl_edge_cases_are_pinned() {
        let opts = PartitionOptions::default();
        let g = simple::chain(16, 1.0);
        assert_eq!(bits(&bisect(&g, &all_edges(&g), &opts)), "000000011111111");

        let g = grid_with_parallel_edges();
        let edges = all_edges(&g);
        assert_eq!(bits(&bisect(&g, &edges, &opts)), "000000111111000000111111000000111111000111");
        assert_eq!(
            partition_edges(&g, &edges, 4, &opts),
            [
                0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 1, 1, 1, 1,
                1, 1, 3, 3, 3, 3, 3, 3, 1, 1, 1, 3, 3, 3
            ]
        );

        let g = simple::random_connected(60, 20, 1);
        assert_eq!(
            bits(&bisect(&g, &all_edges(&g), &opts)),
            "0010000110110111110011101010010110110010000000001111000111100110001101111010110"
        );
        let g = simple::random_connected(40, 12, 7);
        assert_eq!(
            bits(&bisect(&g, &all_edges(&g), &opts)),
            "111100011101001010111110110110011100101111011100010"
        );

        let g = simple::grid(3, 3, 1.0);
        let edges = all_edges(&g);
        let want: [(&str, &[u16]); 4] =
            [("1", &[0]), ("10", &[2, 0]), ("101", &[2, 0, 3]), ("0011", &[1, 0, 3, 2])];
        for (k, (side, parts)) in want.into_iter().enumerate() {
            let group = &edges[..=k];
            assert_eq!(bits(&bisect(&g, group, &opts)), side, "group of {}", k + 1);
            assert_eq!(partition_edges(&g, group, 4, &opts), parts, "group of {}", k + 1);
        }
    }

    /// A 5x4 grid whose every third edge is doubled by a parallel edge.
    fn grid_with_parallel_edges() -> RoadNetwork {
        use crate::geometry::Point;
        use crate::graph::NetworkBuilder;
        let base = simple::grid(5, 4, 1.0);
        let mut b = NetworkBuilder::with_capacity(base.num_nodes(), 2 * base.num_edges());
        for n in base.node_ids() {
            let p = base.coord(n);
            b.add_node(Point::new(p.x, p.y));
        }
        for (i, e) in base.edge_ids().enumerate() {
            let (a, c) = base.edge(e).endpoints();
            b.add_edge(a, c, 1.0).unwrap();
            if i % 3 == 0 {
                b.add_edge(c, a, 2.0).unwrap();
            }
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fanout_must_be_power_of_two() {
        let g = simple::chain(4, 1.0);
        let edges = all_edges(&g);
        let _ = partition_edges(&g, &edges, 3, &PartitionOptions::default());
    }
}
