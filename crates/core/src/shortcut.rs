//! Shortcuts (Definition 3) and their bottom-up construction (Lemma 2).
//!
//! For every Rnet, shortcuts connect its border nodes along shortest paths
//! *restricted to the Rnet* — the compositional variant Lemma 2 computes:
//! finest-level shortcuts come from Dijkstra runs confined to the Rnet's
//! physical edges, and level-`i` shortcuts run over an overlay graph whose
//! edges are the level-`i+1` shortcuts of the Rnet's children. (Any global
//! shortest path decomposes at border nodes into intra-Rnet segments, so
//! this preserves all network distances; see ARCHITECTURE.md, Design
//! notes §1.)
//!
//! Lemma 4 pruning: a shortcut whose path passes through *another border of
//! the same Rnet* is transitively reachable via that border's own shortcuts
//! at equal total distance, so it is dropped. This keeps the overlay graphs
//! and Route Overlay sparse without losing correctness. The canonical form
//! used here is the *matrix rule*: with `dmat` the all-pairs border distance
//! matrix of the Rnet's local graph, the pair `(b, t)` is kept iff
//! `dmat[b][t]` is finite and no third border `m` satisfies
//! `dmat[b][m] + dmat[m][t] <= dmat[b][t] * (1 + TIE_REL)` (ties drop — by
//! the triangle inequality a covering pair splits at *exactly* the original
//! distance, so chaining kept shortcuts reconstructs every border distance
//! as long as edge weights are strictly positive, which road networks
//! guarantee).
//!
//! The tolerance `TIE_REL` (`1e-12`, a constant, not an option) makes the
//! rule robust to rounding: with float weights the covering sum
//! `d(b,m) + d(m,t)` of a true tie can round one ulp *above* `d(b,t)`, and
//! an exact `<=` would then keep a redundant shortcut whose every shortest
//! path crosses `m`. Sums within `TIE_REL` of `d` count as ties.
//!
//! Construction is a per-border sweep: `dmat` is filled by one Dijkstra per
//! border over the Rnet's local CSR arena ([`LocalDijkstra::run_csr`],
//! stopping once every border is settled). Kept pairs are then materialised
//! by one *sealed* Dijkstra per source border (`seal_below` = the border
//! count): border nodes are settled but never expanded, so the predecessor
//! chains are border-free — Lemma 4's path shape — in a single pass. The
//! golden digests in `tests/store_digests.rs` pin the resulting store bytes
//! on every network preset.
//!
//! Each shortcut stores its intermediate *waypoints* — physical nodes at
//! the finest level, child border nodes above — which is exactly the
//! paper's representation `S(n1,n3) = (S(n1,nd), S(nd,n3))`; the recursive
//! [`ShortcutStore::expand`] turns a shortcut back into a full physical
//! [`Path`].
//!
//! Each Rnet's shortcut map sits behind its own [`Arc`], so cloning the
//! store is an `O(#Rnets)` pointer copy and a refresh of one Rnet leaves
//! every other Rnet's map physically shared with prior clones. This is
//! what makes snapshot publication in [`crate::live`] cheap: an update
//! clones only the affected Rnets' shortcut data.

use crate::hierarchy::{RnetHierarchy, RnetId};
use road_network::csr::{CsrBuilder, CsrGraph};
use road_network::dijkstra::LocalDijkstra;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::hash::FastMap;
use road_network::path::Path;
use road_network::{NodeId, Weight};
use std::sync::Arc;

/// Relative tolerance of the Lemma-4 tie test: a covering sum
/// `d(b,m) + d(m,t)` within `d(b,t) * TIE_REL` above `d(b,t)` is a tie, so
/// the pair `(b, t)` drops. Absorbs the one-ulp rounding of float sums;
/// any value from `1e-15` to `1e-9` yields the same stores on every
/// generator preset.
const TIE_REL: f64 = 1e-12;

/// One directed shortcut out of a border node.
#[derive(Clone, Debug)]
pub struct ShortcutEdge {
    /// Target border node.
    pub to: NodeId,
    /// Shortest-path distance within the Rnet.
    pub dist: Weight,
    /// Intermediate waypoints: physical nodes (finest level) or child
    /// border nodes (upper levels); endpoints excluded.
    pub via: Vec<NodeId>,
}

/// Shortcut construction options.
#[derive(Clone, Copy, Debug)]
pub struct ShortcutOptions {
    /// Apply Lemma 4: drop shortcuts covered by other shortcuts of the
    /// same Rnet. On by default; the ablation benchmark switches it off.
    pub prune_transitive: bool,
    /// Worker threads for construction and multi-Rnet repair: Rnets of the
    /// same level are independent (Lemma 2 — a level reads only the level
    /// below), so each level fans out over scoped workers. `0` means "use
    /// [`std::thread::available_parallelism`]", `1` runs fully inline.
    /// The thread count never changes a single output byte: every worker
    /// writes its Rnet's map into a per-Rnet indexed slot and the slots are
    /// committed in hierarchy order, so scheduling cannot reorder anything
    /// observable (differential tests sweep 1/2/4/8 threads to prove it).
    pub threads: usize,
}

impl Default for ShortcutOptions {
    fn default() -> Self {
        ShortcutOptions { prune_transitive: true, threads: 0 }
    }
}

/// Resolves the `threads` option: `0` asks the OS for the available
/// parallelism (falling back to 1 when that is unknowable).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        threads
    }
}

/// All shortcuts of the hierarchy, grouped per Rnet and source node.
///
/// Cloning the store is cheap (`O(#Rnets)` [`Arc`] bumps) and shares every
/// per-Rnet map with the original; a refresh then replaces only the
/// refreshed Rnet's map, which is the structural-sharing contract the
/// live engine's snapshots rely on.
#[derive(Clone)]
pub struct ShortcutStore {
    /// `per_rnet[r]` maps a border-node id to its outgoing shortcuts in `r`.
    per_rnet: Vec<Arc<FastMap<u32, Vec<ShortcutEdge>>>>,
    num_shortcuts: usize,
    /// Modelled serialized bytes of every stored shortcut, maintained
    /// incrementally by [`ShortcutStore::replace_rnet`] exactly like
    /// `num_shortcuts` — [`ShortcutStore::size_bytes`] must not re-walk
    /// every list on each call (the index-size reports sum it per build,
    /// and parallel construction makes full walks costlier still).
    num_bytes: usize,
}

impl ShortcutStore {
    /// Builds every Rnet's shortcuts bottom-up (finest level first).
    ///
    /// Rnets of the same level are independent — a level's maps read only
    /// the level below — so each level fans out over
    /// [`ShortcutOptions::threads`] scoped workers, every worker owning its
    /// own `BuildScratch`. Workers deposit maps into per-Rnet indexed
    /// slots which are then committed in hierarchy order, so the store is
    /// **byte-identical** to a single-threaded build regardless of
    /// scheduling (pinned by `tests/parallel_build.rs`).
    pub fn build(
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        opts: &ShortcutOptions,
    ) -> Self {
        let mut store = ShortcutStore {
            per_rnet: (0..hier.num_rnets()).map(|_| Arc::new(FastMap::default())).collect(),
            num_shortcuts: 0,
            num_bytes: 0,
        };
        let mut scratch = BuildScratch::default();
        for level in (1..=hier.levels()).rev() {
            let rnets: Vec<RnetId> = hier.rnets_at_level(level).collect();
            let maps = store.compute_level_maps(g, hier, kind, &rnets, opts, &mut scratch);
            for (&r, map) in rnets.iter().zip(maps) {
                store.replace_rnet(r, map);
            }
        }
        store
    }

    /// Computes the shortcut maps of one level's (or more generally, of
    /// mutually independent) Rnets, fanned out over scoped worker threads.
    /// Workers own contiguous chunks of `rnets` and one [`BuildScratch`]
    /// each; every map lands in the slot indexed by its Rnet's position, so
    /// the result is independent of scheduling. `self` is only read (the
    /// children's maps), never written — commits happen afterwards, in
    /// order, on the caller's thread.
    fn compute_level_maps(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        rnets: &[RnetId],
        opts: &ShortcutOptions,
        scratch: &mut BuildScratch,
    ) -> Vec<FastMap<u32, Vec<ShortcutEdge>>> {
        let threads = resolve_threads(opts.threads).min(rnets.len().max(1));
        let mut maps: Vec<FastMap<u32, Vec<ShortcutEdge>>> = Vec::new();
        maps.resize_with(rnets.len(), FastMap::default);
        if threads <= 1 {
            for (&r, slot) in rnets.iter().zip(maps.iter_mut()) {
                *slot = self.compute_rnet_map(g, hier, kind, r, opts, scratch);
            }
            return maps;
        }
        let chunk_len = rnets.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk, out) in rnets.chunks(chunk_len).zip(maps.chunks_mut(chunk_len)) {
                scope.spawn(move || {
                    let mut scratch = BuildScratch::default();
                    for (&r, slot) in chunk.iter().zip(out.iter_mut()) {
                        *slot = self.compute_rnet_map(g, hier, kind, r, opts, &mut scratch);
                    }
                });
            }
        });
        maps
    }

    /// Outgoing shortcuts of node `n` within Rnet `r`.
    #[inline]
    pub fn from(&self, r: RnetId, n: NodeId) -> &[ShortcutEdge] {
        self.per_rnet[r.0 as usize].get(&n.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The stored shortcut `from -> to` within `r`, if kept.
    pub fn between(&self, r: RnetId, from: NodeId, to: NodeId) -> Option<&ShortcutEdge> {
        self.from(r, from).iter().find(|sc| sc.to == to)
    }

    /// Total number of stored (directed) shortcuts.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Modelled serialized size: 16 bytes per shortcut header plus 4 bytes
    /// per waypoint. O(1) — maintained incrementally by the private
    /// `replace_rnet` commit step, never recomputed by walking every
    /// shortcut list.
    pub fn size_bytes(&self) -> usize {
        self.num_bytes
    }

    /// Shortcut count and modelled bytes of one Rnet's map — the per-Rnet
    /// delta [`ShortcutStore::replace_rnet`] applies to the store totals.
    fn map_stats(map: &FastMap<u32, Vec<ShortcutEdge>>) -> (usize, usize) {
        let mut count = 0;
        let mut bytes = 0;
        for list in map.values() {
            count += list.len();
            for sc in list {
                bytes += 16 + 4 * sc.via.len();
            }
        }
        (count, bytes)
    }

    fn replace_rnet(&mut self, r: RnetId, map: FastMap<u32, Vec<ShortcutEdge>>) {
        let slot = &mut self.per_rnet[r.0 as usize];
        let (old, old_bytes) = Self::map_stats(slot);
        let (new, new_bytes) = Self::map_stats(&map);
        *slot = Arc::new(map);
        self.num_shortcuts = self.num_shortcuts - old + new;
        self.num_bytes = self.num_bytes - old_bytes + new_bytes;
    }

    /// How many Rnets' shortcut maps this store physically shares with
    /// `other` (same allocation, not merely equal contents). Two stores
    /// related by snapshot forks share every Rnet that no intervening
    /// maintenance refreshed — the quantity the live-serving tests and
    /// `exp_live` use to prove updates never fall back to full rebuilds.
    pub fn shared_rnet_count(&self, other: &ShortcutStore) -> usize {
        self.per_rnet.iter().zip(&other.per_rnet).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Recomputes one Rnet's shortcuts in place; returns `true` when the
    /// shortcut set changed (the signal that drives upward propagation in
    /// the filter-and-refresh maintenance of Section 5.2).
    pub(crate) fn refresh_rnet(
        &mut self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        opts: &ShortcutOptions,
        scratch: &mut BuildScratch,
    ) -> bool {
        let new = self.compute_rnet_map(g, hier, kind, r, opts, scratch);
        let changed = !Self::maps_equivalent(&self.per_rnet[r.0 as usize], &new);
        self.replace_rnet(r, new);
        changed
    }

    /// Recomputes several Rnets' shortcuts, fanning out within each level:
    /// `rnets` must be sorted finest level first (ties in any order — Rnets
    /// of one level are independent). Runs of equal level are computed
    /// concurrently via [`ShortcutStore::compute_level_maps`] and committed
    /// in input order before the next (coarser) run starts, so parents
    /// always read fully repaired children and the outcome is byte-equal
    /// to refreshing every Rnet sequentially in the same order. Returns the
    /// per-Rnet "shortcut set changed" flags, aligned with `rnets`.
    // roadlint: order-sink
    pub(crate) fn refresh_rnets(
        &mut self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        rnets: &[RnetId],
        opts: &ShortcutOptions,
        scratch: &mut BuildScratch,
    ) -> Vec<bool> {
        debug_assert!(
            rnets.windows(2).all(|w| hier.level_of(w[0]) >= hier.level_of(w[1])),
            "refresh_rnets input must be sorted finest level first"
        );
        let mut changed = Vec::with_capacity(rnets.len());
        let mut start = 0;
        while start < rnets.len() {
            let level = hier.level_of(rnets[start]);
            let mut end = start + 1;
            while end < rnets.len() && hier.level_of(rnets[end]) == level {
                end += 1;
            }
            let run = &rnets[start..end];
            if let [r] = *run {
                // Single-Rnet run (the common ancestor-chain repair): skip
                // the per-level slot vector entirely.
                changed.push(self.refresh_rnet(g, hier, kind, r, opts, scratch));
            } else {
                let maps = self.compute_level_maps(g, hier, kind, run, opts, scratch);
                for (&r, map) in run.iter().zip(maps) {
                    changed.push(!Self::maps_equivalent(&self.per_rnet[r.0 as usize], &map));
                    self.replace_rnet(r, map);
                }
            }
            start = end;
        }
        changed
    }

    fn maps_equivalent(
        a: &FastMap<u32, Vec<ShortcutEdge>>,
        b: &FastMap<u32, Vec<ShortcutEdge>>,
    ) -> bool {
        let flatten = |m: &FastMap<u32, Vec<ShortcutEdge>>| {
            let mut v: Vec<(u32, u32, Weight)> = m
                .iter()
                .flat_map(|(&from, list)| list.iter().map(move |sc| (from, sc.to.0, sc.dist)))
                .collect();
            v.sort_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.cmp(&y.2)));
            v
        };
        let (fa, fb) = (flatten(a), flatten(b));
        fa.len() == fb.len()
            && fa.iter().zip(&fb).all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.approx_eq(y.2))
    }

    /// Computes the shortcut map of one Rnet from the network (finest
    /// level) or from its children's current shortcuts (upper levels).
    ///
    /// Pruned builds (the default) sweep one Dijkstra per border into the
    /// border-distance matrix and finalise it under the matrix rule;
    /// unpruned builds (the ablation baseline) materialise every reachable
    /// pair straight from the sweep.
    fn compute_rnet_map(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        opts: &ShortcutOptions,
        scratch: &mut BuildScratch,
    ) -> FastMap<u32, Vec<ShortcutEdge>> {
        let borders = hier.borders(r);
        let mut out: FastMap<u32, Vec<ShortcutEdge>> = FastMap::default();
        if borders.len() < 2 {
            return out;
        }
        self.assemble_local(g, hier, kind, r, scratch, borders);
        if !opts.prune_transitive {
            self.sweep_unpruned(scratch, borders, &mut out);
            return out;
        }
        let nb = borders.len();
        scratch.dmat.clear();
        scratch.dmat.resize(nb * nb, Weight::INFINITY);
        // Per-worker inner loop of the parallel build: everything below runs
        // against this worker's own `BuildScratch` buffers (sized by the
        // clear/resize above), so the sweep must stay allocation-free.
        // roadlint: hot-path
        for bi in 0..nb {
            scratch.dij.run_csr(&scratch.csr, bi as u32, &scratch.border_locals, 0);
            for ti in 0..nb {
                scratch.dmat[bi * nb + ti] = scratch.dij.dist(ti as u32);
            }
        }
        // roadlint: end hot-path
        self.finalize_from_matrix(scratch, borders, &mut out);
        out
    }

    /// Assembles Rnet `r`'s local graph into `scratch.csr` under the
    /// *canonical numbering*: every border of `r` gets local id `0..nb` in
    /// `hier.borders(r)` order first (reachable or not), interiors follow in
    /// first-appearance order. Upper levels iterate children's borders in
    /// hierarchy order and look the lists up by key, so the assembly — and
    /// with it everything downstream — depends only on map *contents*,
    /// never on map iteration order.
    fn assemble_local(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        scratch: &mut BuildScratch,
        borders: &[NodeId],
    ) {
        scratch.clear();
        for &b in borders {
            scratch.local(b.0);
        }
        scratch.border_locals.extend(0..borders.len() as u32);
        if hier.is_leaf(r) {
            for &e in hier.leaf_edge_list(r) {
                let w = g.weight(e, kind);
                let (a, b) = g.edge(e).endpoints();
                let (la, lb) = (scratch.local(a.0), scratch.local(b.0));
                scratch.builder.push(la, lb, w, e.0);
                scratch.builder.push(lb, la, w, e.0);
            }
        } else {
            for child in hier.children(r) {
                for &from in hier.borders(child) {
                    let Some(list) = self.per_rnet[child.0 as usize].get(&from.0) else {
                        continue;
                    };
                    let lf = scratch.local(from.0);
                    for sc in list {
                        let lt = scratch.local(sc.to.0);
                        scratch.builder.push(lf, lt, sc.dist, 0);
                    }
                }
            }
        }
        let (builder, csr) = (&mut scratch.builder, &mut scratch.csr);
        builder.finish_into(scratch.global.len(), csr);
    }

    /// Unpruned construction: one full Dijkstra per border, keeping every
    /// reachable pair with its full waypoint chain (borders included).
    fn sweep_unpruned(
        &self,
        scratch: &mut BuildScratch,
        borders: &[NodeId],
        out: &mut FastMap<u32, Vec<ShortcutEdge>>,
    ) {
        for (bi, &b) in borders.iter().enumerate() {
            scratch.dij.run_csr(&scratch.csr, bi as u32, &scratch.border_locals, 0);
            let mut list: Vec<ShortcutEdge> = Vec::new();
            for (ti, &t) in borders.iter().enumerate() {
                if ti == bi {
                    continue;
                }
                let dist = scratch.dij.dist(ti as u32);
                if dist.is_infinite() {
                    continue; // internally disconnected Rnet: no shortcut
                }
                let mut via: Vec<NodeId> = Vec::new();
                let mut cur = ti as u32;
                while let Some((prev, _label)) = scratch.dij.pred(cur) {
                    if prev == bi as u32 {
                        break;
                    }
                    via.push(NodeId(scratch.global[prev as usize]));
                    cur = prev;
                }
                via.reverse();
                list.push(ShortcutEdge { to: t, dist, via });
            }
            if !list.is_empty() {
                out.insert(b.0, list);
            }
        }
    }

    /// Finalisation of a pruned build: apply the matrix keep rule to
    /// `scratch.dmat`, then materialise each source border's kept shortcuts
    /// with one *sealed* Dijkstra over the local CSR (borders settle but
    /// never expand), whose predecessor chains are border-free by
    /// construction.
    fn finalize_from_matrix(
        &self,
        scratch: &mut BuildScratch,
        borders: &[NodeId],
        out: &mut FastMap<u32, Vec<ShortcutEdge>>,
    ) {
        let nb = borders.len();
        for (bi, &b) in borders.iter().enumerate() {
            scratch.kept.clear();
            for ti in 0..nb {
                if ti == bi {
                    continue;
                }
                let d = scratch.dmat[bi * nb + ti];
                if d.is_infinite() {
                    continue; // internally disconnected Rnet: no shortcut
                }
                // Lemma 4 (matrix form): covered through any third border,
                // ties (up to rounding) drop.
                let tie = Weight::new(d.get() * (1.0 + TIE_REL));
                let covered = (0..nb).any(|mi| {
                    mi != bi
                        && mi != ti
                        && scratch.dmat[bi * nb + mi] + scratch.dmat[mi * nb + ti] <= tie
                });
                if !covered {
                    scratch.kept.push(ti as u32);
                }
            }
            if scratch.kept.is_empty() {
                continue;
            }
            scratch.dij.run_csr(&scratch.csr, bi as u32, &scratch.kept, nb as u32);
            let mut list: Vec<ShortcutEdge> = Vec::with_capacity(scratch.kept.len());
            for &t in &scratch.kept {
                let dist = scratch.dij.dist(t);
                if dist.is_infinite() {
                    // Every shortest path for this pair runs through another
                    // border, yet the covering sum missed `d` by more than
                    // `TIE_REL`. No interior-only path exists and the
                    // through-border shortcuts already cover the pair —
                    // drop it rather than materialise an infinite shortcut.
                    // Under exact arithmetic this branch is unreachable.
                    continue;
                }
                let mut via: Vec<NodeId> = Vec::new();
                let mut cur = t;
                while let Some((prev, _label)) = scratch.dij.pred(cur) {
                    if prev == bi as u32 {
                        break;
                    }
                    via.push(NodeId(scratch.global[prev as usize]));
                    cur = prev;
                }
                via.reverse();
                list.push(ShortcutEdge { to: NodeId(scratch.global[t as usize]), dist, via });
            }
            if !list.is_empty() {
                out.insert(b.0, list);
            }
        }
    }

    /// Per-Rnet source-key *iteration* order of the underlying hash maps —
    /// exposed so determinism tests can pin not just serialized bytes
    /// (which sort sources) but the in-memory traversal order two builds
    /// produce.
    #[doc(hidden)]
    pub fn rnet_source_orders(&self) -> Vec<Vec<u32>> {
        self.per_rnet.iter().map(|m| m.keys().copied().collect()).collect()
    }

    /// Expands a shortcut of Rnet `r` starting at `from` into the full
    /// physical path, weighted under `kind` (the metric the store was
    /// built with). Returns `None` only on store inconsistency.
    pub fn expand(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        from: NodeId,
        sc: &ShortcutEdge,
    ) -> Option<Path> {
        let mut seq = Vec::with_capacity(sc.via.len() + 2);
        seq.push(from);
        seq.extend_from_slice(&sc.via);
        seq.push(sc.to);
        let mut path = Path::trivial(from);
        if hier.is_leaf(r) {
            for hop in seq.windows(2) {
                let e = g.edge_between(hop[0], hop[1])?;
                let seg = Path::from_parts(vec![hop[0], hop[1]], vec![e], g.weight(e, kind));
                path.extend(&seg);
            }
        } else {
            let children = hier.children(r);
            for hop in seq.windows(2) {
                // Pick the child providing the cheapest (u, v) shortcut.
                let mut best: Option<(RnetId, &ShortcutEdge)> = None;
                for &c in &children {
                    if let Some(s) = self.between(c, hop[0], hop[1]) {
                        if best.map(|(_, bs)| s.dist < bs.dist).unwrap_or(true) {
                            best = Some((c, s));
                        }
                    }
                }
                let (c, s) = best?;
                let seg = self.expand(g, hier, kind, c, hop[0], s)?;
                path.extend(&seg);
            }
        }
        Some(path)
    }

    /// Appends a flat binary encoding of the store to `out` (see
    /// [`crate::persist`] for the enclosing format). Public so tests can
    /// locate the store section inside a full image byte-for-byte.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.per_rnet.len() as u32).to_le_bytes());
        for map in &self.per_rnet {
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            // Deterministic order for reproducible files.
            let mut sources: Vec<_> = map.keys().copied().collect();
            sources.sort_unstable();
            for from in sources {
                let list = &map[&from];
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for sc in list {
                    out.extend_from_slice(&sc.to.0.to_le_bytes());
                    out.extend_from_slice(&sc.dist.get().to_le_bytes());
                    out.extend_from_slice(&(sc.via.len() as u32).to_le_bytes());
                    for w in &sc.via {
                        out.extend_from_slice(&w.0.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decodes a store previously written by
    /// [`ShortcutStore::serialize_into`]; `pos` is advanced past it.
    ///
    /// Every count is validated against the bytes that remain and every
    /// node id against `num_nodes`, so a truncated or bit-flipped buffer
    /// fails with an error instead of panicking, over-allocating, or
    /// producing a store that panics at query time.
    // roadlint: decode-fn
    pub(crate) fn deserialize(
        buf: &[u8],
        pos: &mut usize,
        num_nodes: u32,
        expected_rnets: usize,
    ) -> Result<Self, String> {
        let num_rnets = Self::read_store_header(buf, pos, expected_rnets)?;
        let mut per_rnet = Vec::with_capacity(num_rnets.min(buf.len() / 4 + 1));
        let mut num_shortcuts = 0usize;
        let mut num_bytes = 0usize;
        for _ in 0..num_rnets {
            let map = Self::decode_rnet_section(buf, pos, num_nodes)?;
            let (count, bytes) = Self::map_stats(&map);
            num_shortcuts += count;
            num_bytes += bytes;
            per_rnet.push(Arc::new(map));
        }
        Ok(ShortcutStore { per_rnet, num_shortcuts, num_bytes })
    }

    /// Reads and validates the store header (the Rnet-section count)
    /// against the hierarchy — shared by the monolithic decode and the
    /// page-granular open so the two paths cannot drift.
    pub(crate) fn read_store_header(
        buf: &[u8],
        pos: &mut usize,
        expected_rnets: usize,
    ) -> Result<usize, String> {
        let num_rnets = read_u32(buf, pos)? as usize;
        if num_rnets != expected_rnets {
            return Err(format!(
                "shortcut store describes {num_rnets} Rnets, hierarchy has {expected_rnets}"
            ));
        }
        Ok(num_rnets)
    }

    /// Assembles a store from already-decoded per-Rnet maps (the lazy
    /// image's "materialize everything" path).
    pub(crate) fn from_rnet_maps(maps: Vec<FastMap<u32, Vec<ShortcutEdge>>>) -> Self {
        let (mut num_shortcuts, mut num_bytes) = (0, 0);
        for m in &maps {
            let (count, bytes) = Self::map_stats(m);
            num_shortcuts += count;
            num_bytes += bytes;
        }
        ShortcutStore {
            per_rnet: maps.into_iter().map(Arc::new).collect(),
            num_shortcuts,
            num_bytes,
        }
    }

    /// Decodes one Rnet's section of a serialized store, validating counts
    /// against the remaining bytes and node ids against `num_nodes`.
    // roadlint: decode-fn
    pub(crate) fn decode_rnet_section(
        buf: &[u8],
        pos: &mut usize,
        num_nodes: u32,
    ) -> Result<FastMap<u32, Vec<ShortcutEdge>>, String> {
        let check_node = |id: u32| -> Result<NodeId, String> {
            if id >= num_nodes {
                return Err(format!("shortcut references node {id} outside 0..{num_nodes}"));
            }
            Ok(NodeId(id))
        };
        let num_sources = read_u32(buf, pos)? as usize;
        // A source costs at least 8 bytes (node id + edge count); reject an
        // over-claimed count before looping on it.
        if num_sources > (buf.len() - *pos) / 8 {
            return Err("truncated shortcut store (source count exceeds buffer)".into());
        }
        let mut map: FastMap<u32, Vec<ShortcutEdge>> = FastMap::default();
        for _ in 0..num_sources {
            let from = check_node(read_u32(buf, pos)?)?.0;
            let num_edges = read_u32(buf, pos)? as usize;
            // A shortcut costs at least 16 bytes; an over-claimed count
            // must not drive a huge allocation.
            if num_edges > (buf.len() - *pos) / 16 {
                return Err("truncated shortcut store (edge count exceeds buffer)".into());
            }
            let mut list = Vec::with_capacity(num_edges);
            for _ in 0..num_edges {
                let to = check_node(read_u32(buf, pos)?)?;
                let dist = read_f64(buf, pos)?;
                if dist.is_nan() || dist < 0.0 {
                    return Err(format!("corrupt shortcut distance {dist}"));
                }
                let via_len = read_u32(buf, pos)? as usize;
                if via_len > (buf.len() - *pos) / 4 {
                    return Err("truncated shortcut store (via count exceeds buffer)".into());
                }
                let mut via = Vec::with_capacity(via_len);
                for _ in 0..via_len {
                    via.push(check_node(read_u32(buf, pos)?)?);
                }
                list.push(ShortcutEdge { to, dist: Weight::new(dist), via });
            }
            if map.insert(from, list).is_some() {
                return Err(format!("duplicate shortcut source node {from}"));
            }
        }
        Ok(map)
    }

    /// Walks (and fully validates) one Rnet's section without building the
    /// map — how a lazily-opened image records per-Rnet byte ranges up
    /// front at a fraction of the decode cost. Must reject everything
    /// [`ShortcutStore::decode_rnet_section`] rejects (including duplicate
    /// source nodes), so a section that passes here can never fail to
    /// decode later.
    pub(crate) fn skip_rnet_section(
        buf: &[u8],
        pos: &mut usize,
        num_nodes: u32,
    ) -> Result<(), String> {
        let check_node = |id: u32| -> Result<(), String> {
            if id >= num_nodes {
                return Err(format!("shortcut references node {id} outside 0..{num_nodes}"));
            }
            Ok(())
        };
        let num_sources = read_u32(buf, pos)? as usize;
        // Same fail-fast bound as decode_rnet_section: at least 8 bytes per
        // source.
        if num_sources > (buf.len() - *pos) / 8 {
            return Err("truncated shortcut store (source count exceeds buffer)".into());
        }
        let mut seen_sources: road_network::hash::FastSet<u32> = Default::default();
        for _ in 0..num_sources {
            let from = read_u32(buf, pos)?;
            check_node(from)?;
            if !seen_sources.insert(from) {
                return Err(format!("duplicate shortcut source node {from}"));
            }
            let num_edges = read_u32(buf, pos)? as usize;
            if num_edges > (buf.len() - *pos) / 16 {
                return Err("truncated shortcut store (edge count exceeds buffer)".into());
            }
            for _ in 0..num_edges {
                check_node(read_u32(buf, pos)?)?;
                let dist = read_f64(buf, pos)?;
                if dist.is_nan() || dist < 0.0 {
                    return Err(format!("corrupt shortcut distance {dist}"));
                }
                let via_len = read_u32(buf, pos)? as usize;
                if via_len > (buf.len() - *pos) / 4 {
                    return Err("truncated shortcut store (via run exceeds buffer)".into());
                }
                let end = *pos + via_len * 4;
                for _ in 0..via_len {
                    check_node(read_u32(buf, pos)?)?;
                }
                debug_assert_eq!(*pos, end);
            }
        }
        Ok(())
    }

    /// Rebuilds from scratch and verifies this store describes the same
    /// distances — the maintenance tests' ground truth.
    pub fn verify_against_rebuild(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        opts: &ShortcutOptions,
    ) -> Result<(), String> {
        let fresh = ShortcutStore::build(g, hier, kind, opts);
        for (i, (a, b)) in self.per_rnet.iter().zip(&fresh.per_rnet).enumerate() {
            if !Self::maps_equivalent(a, b) {
                return Err(format!("Rnet R{i} shortcuts diverge from a fresh rebuild"));
            }
        }
        Ok(())
    }
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos.checked_add(4).ok_or("truncated shortcut store")?;
    let b = buf.get(*pos..end).and_then(|b| b.first_chunk::<4>());
    let b = *b.ok_or("truncated shortcut store")?;
    *pos = end;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64, String> {
    let end = pos.checked_add(8).ok_or("truncated shortcut store")?;
    let b = buf.get(*pos..end).and_then(|b| b.first_chunk::<8>());
    let b = *b.ok_or("truncated shortcut store")?;
    *pos = end;
    Ok(f64::from_le_bytes(b))
}

/// Reusable allocations for shortcut computation: the local-id interner,
/// the CSR arena of the Rnet being built, the border-distance matrix and
/// the shared Dijkstra.
#[derive(Default)]
pub(crate) struct BuildScratch {
    local_of: FastMap<u32, u32>,
    global: Vec<u32>,
    builder: CsrBuilder,
    csr: CsrGraph,
    dij: LocalDijkstra,
    /// The identity list `0..nb` (borders own the first local ids) — the
    /// target set handed to each matrix Dijkstra.
    border_locals: Vec<u32>,
    /// Row-major `nb x nb` all-pairs border distances of the current Rnet.
    dmat: Vec<Weight>,
    /// Kept target locals of the current source border (matrix rule).
    kept: Vec<u32>,
}

impl BuildScratch {
    fn clear(&mut self) {
        self.local_of.clear();
        self.global.clear();
        self.builder.clear();
        self.border_locals.clear();
    }

    fn local(&mut self, global: u32) -> u32 {
        if let Some(&l) = self.local_of.get(&global) {
            return l;
        }
        let l = self.global.len() as u32;
        self.local_of.insert(global, l);
        self.global.push(global);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use road_network::dijkstra::Dijkstra;
    use road_network::generator::simple;

    fn build(
        g: &RoadNetwork,
        fanout: usize,
        levels: u32,
        prune: bool,
    ) -> (RnetHierarchy, ShortcutStore) {
        let cfg = HierarchyConfig { fanout, levels, ..Default::default() };
        let hier = RnetHierarchy::build(g, &cfg).unwrap();
        let store = ShortcutStore::build(
            g,
            &hier,
            WeightKind::Distance,
            &ShortcutOptions { prune_transitive: prune, ..Default::default() },
        );
        (hier, store)
    }

    /// Every stored shortcut must equal the Rnet-restricted shortest-path
    /// distance between its endpoints.
    fn assert_shortcuts_exact(g: &RoadNetwork, hier: &RnetHierarchy, store: &ShortcutStore) {
        let mut dij = Dijkstra::for_network(g);
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                for &b in hier.borders(r) {
                    for sc in store.from(r, b) {
                        let want = {
                            let mut found = None;
                            dij.expand_filtered_multi(
                                g,
                                WeightKind::Distance,
                                &[(b, Weight::ZERO)],
                                |e| hier.rnet_of_edge_at(e, lv) == r,
                                &mut |n, d| {
                                    if n == sc.to {
                                        found = Some(d);
                                        road_network::dijkstra::Control::Break
                                    } else {
                                        road_network::dijkstra::Control::Continue
                                    }
                                },
                            );
                            found
                        };
                        let want = want.unwrap_or(Weight::INFINITY);
                        assert!(
                            sc.dist.approx_eq(want),
                            "{r:?} shortcut {b}->{} = {} but restricted SP = {}",
                            sc.to,
                            sc.dist,
                            want
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chain_shortcuts_bridge_segments() {
        let g = simple::chain(16, 1.0);
        let (hier, store) = build(&g, 2, 2, true);
        assert!(store.num_shortcuts() > 0);
        assert_shortcuts_exact(&g, &hier, &store);
    }

    #[test]
    fn grid_shortcuts_match_restricted_dijkstra() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, store) = build(&g, 4, 2, true);
        assert!(store.num_shortcuts() > 0);
        assert_shortcuts_exact(&g, &hier, &store);
    }

    #[test]
    fn unpruned_store_is_superset_of_pruned() {
        let g = simple::grid(9, 7, 1.0);
        let (_, pruned) = build(&g, 4, 2, true);
        let (hier, full) = build(&g, 4, 2, false);
        assert!(full.num_shortcuts() >= pruned.num_shortcuts());
        assert_shortcuts_exact(&g, &hier, &full);
        // Pruning must actually remove something on a grid this size.
        assert!(
            full.num_shortcuts() > pruned.num_shortcuts(),
            "Lemma 4 pruning had no effect: {} vs {}",
            full.num_shortcuts(),
            pruned.num_shortcuts()
        );
    }

    #[test]
    fn expansion_yields_valid_physical_paths() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, store) = build(&g, 4, 2, true);
        let mut expanded = 0;
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                for &b in hier.borders(r) {
                    for sc in store.from(r, b) {
                        let p = store
                            .expand(&g, &hier, WeightKind::Distance, r, b, sc)
                            .expect("expandable");
                        assert_eq!(p.source(), b);
                        assert_eq!(p.target(), sc.to);
                        assert!(p.validate(&g, WeightKind::Distance), "invalid path");
                        assert!(
                            p.total().approx_eq(sc.dist),
                            "expanded dist {} != shortcut dist {}",
                            p.total(),
                            sc.dist
                        );
                        expanded += 1;
                    }
                }
            }
        }
        assert!(expanded > 0);
    }

    #[test]
    fn pruned_shortcut_paths_avoid_other_borders() {
        let g = simple::grid(10, 10, 1.0);
        let (hier, store) = build(&g, 4, 2, true);
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                let borders = hier.borders(r);
                for &b in borders {
                    for sc in store.from(r, b) {
                        for w in &sc.via {
                            assert!(
                                !borders.contains(w),
                                "{r:?}: kept shortcut {b}->{} passes border {w}",
                                sc.to
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_detects_weight_changes() {
        let mut g = simple::grid(6, 6, 1.0);
        let (hier, mut store) = build(&g, 4, 2, true);
        let mut scratch = BuildScratch::default();
        // Pick an edge inside some leaf Rnet with shortcuts.
        let e = g.edge_ids().next().unwrap();
        let leaf = hier.leaf_of_edge(e);
        // No-op refresh: nothing changed.
        let changed = store.refresh_rnet(
            &g,
            &hier,
            WeightKind::Distance,
            leaf,
            &Default::default(),
            &mut scratch,
        );
        assert!(!changed, "refresh without a weight change must be a no-op");
        // Make the edge very expensive and refresh.
        g.set_weight(e, WeightKind::Distance, Weight::new(100.0)).unwrap();
        store.refresh_rnet(
            &g,
            &hier,
            WeightKind::Distance,
            leaf,
            &Default::default(),
            &mut scratch,
        );
        // Full rebuild equivalence after refreshing every ancestor chain.
        let mut r = leaf;
        while r.is_valid() {
            store.refresh_rnet(
                &g,
                &hier,
                WeightKind::Distance,
                r,
                &Default::default(),
                &mut scratch,
            );
            r = hier.parent(r);
        }
        store.verify_against_rebuild(&g, &hier, WeightKind::Distance, &Default::default()).unwrap();
    }

    /// The skip-scan must reject everything the decode rejects — a
    /// section passing `skip_rnet_section` can never fail to decode later
    /// (the lazy image relies on this to keep per-Rnet decodes
    /// infallible). Duplicate source nodes are the one structural error
    /// the byte-walk could otherwise miss.
    #[test]
    fn skip_scan_rejects_duplicate_sources_like_decode() {
        // A hand-built section: 2 sources, both node 0, each with one
        // shortcut to node 1 at distance 1.0 and no waypoints.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes()); // num_sources
        for _ in 0..2 {
            buf.extend_from_slice(&0u32.to_le_bytes()); // from = 0 (duplicate)
            buf.extend_from_slice(&1u32.to_le_bytes()); // num_edges
            buf.extend_from_slice(&1u32.to_le_bytes()); // to
            buf.extend_from_slice(&1.0f64.to_le_bytes()); // dist
            buf.extend_from_slice(&0u32.to_le_bytes()); // via_len
        }
        let mut pos = 0;
        let decode = ShortcutStore::decode_rnet_section(&buf, &mut pos, 4);
        let mut pos = 0;
        let skip = ShortcutStore::skip_rnet_section(&buf, &mut pos, 4);
        assert!(decode.is_err(), "decode must reject duplicate sources");
        assert!(skip.is_err(), "skip-scan must reject exactly what decode rejects");
    }

    #[test]
    fn travel_time_metric_builds_distinct_shortcuts() {
        let g = road_network::generator::Dataset::CaHighways.generate_scaled(0.02, 5).unwrap();
        let cfg = HierarchyConfig { fanout: 4, levels: 2, ..Default::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        let dist_store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        let time_store =
            ShortcutStore::build(&g, &hier, WeightKind::TravelTime, &Default::default());
        // Same topology, different weights.
        let mut diverged = false;
        for r in hier.rnets_at_level(hier.levels()) {
            for &b in hier.borders(r) {
                for sc in dist_store.from(r, b) {
                    if let Some(t) = time_store.between(r, b, sc.to) {
                        if !t.dist.approx_eq(sc.dist) {
                            diverged = true;
                        }
                    }
                }
            }
        }
        assert!(diverged, "time-metric shortcuts should differ from distance-metric ones");
    }

    /// Checks the pruning rule post hoc against restricted shortest-path
    /// distances from an independent Dijkstra per border: the store holds
    /// `(b, t)` **iff** the restricted distance is finite and no third
    /// border `m` covers it with `d(b,m) + d(m,t) <= d(b,t) * (1 + TIE_REL)`.
    /// Returns `(exact_ties, rounded_ties)`: covered pairs whose covering
    /// sum is `<= d` exactly, and those covered only through the tolerance
    /// (the sum rounded above `d`).
    fn check_matrix_rule(
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        store: &ShortcutStore,
    ) -> (usize, usize) {
        let mut dij = Dijkstra::for_network(g);
        let (mut exact_ties, mut rounded_ties) = (0, 0);
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                let borders = hier.borders(r);
                let nb = borders.len();
                let mut dmat = vec![Weight::INFINITY; nb * nb];
                for (bi, &b) in borders.iter().enumerate() {
                    dij.expand_filtered_multi(
                        g,
                        WeightKind::Distance,
                        &[(b, Weight::ZERO)],
                        |e| hier.rnet_of_edge_at(e, lv) == r,
                        &mut |n, d| {
                            if let Some(ti) = borders.iter().position(|&t| t == n) {
                                dmat[bi * nb + ti] = d;
                            }
                            road_network::dijkstra::Control::Continue
                        },
                    );
                }
                for bi in 0..nb {
                    for ti in 0..nb {
                        if ti == bi {
                            continue;
                        }
                        let d = dmat[bi * nb + ti];
                        let cover = |limit: Weight| {
                            (0..nb).any(|mi| {
                                mi != bi
                                    && mi != ti
                                    && dmat[bi * nb + mi] + dmat[mi * nb + ti] <= limit
                            })
                        };
                        let covered = cover(Weight::new(d.get() * (1.0 + TIE_REL)));
                        let keep = d.is_finite() && !covered;
                        let present = store.between(r, borders[bi], borders[ti]).is_some();
                        assert_eq!(
                            present, keep,
                            "{r:?}: membership of {}->{} disagrees with the matrix rule \
                             (d = {d}, covered = {covered})",
                            borders[bi], borders[ti]
                        );
                        if d.is_finite() && covered {
                            if cover(d) {
                                exact_ties += 1;
                            } else {
                                rounded_ties += 1;
                            }
                        }
                    }
                }
            }
        }
        (exact_ties, rounded_ties)
    }

    /// The pruning rule on two inputs. A unit grid is heavy with
    /// equal-weight ties: since `d` is a shortest-path distance, a covering
    /// split can only be *exactly equal* (triangle inequality), so every
    /// covered pair is a tie — pinning that ties drop the shortcut rather
    /// than keep it. The SF generator preset has float weights, whose
    /// covering sums can round one ulp above `d`: those rounded ties must
    /// drop too, under the same `TIE_REL` the builder uses.
    #[test]
    fn matrix_rule_governs_membership_and_ties_drop() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, store) = build(&g, 4, 2, true);
        let (exact_ties, _) = check_matrix_rule(&g, &hier, &store);
        assert!(exact_ties > 0, "unit grid produced no equal-weight tie to pin");

        let ds = road_network::generator::Dataset::SfStreets;
        let g = ds.generate_scaled(0.012, 0xEDB7_2009).unwrap();
        let (hier, store) = build(&g, 4, ds.suggested_levels(g.num_edges(), 4), true);
        let (_, rounded_ties) = check_matrix_rule(&g, &hier, &store);
        assert!(rounded_ties > 0, "SF float weights produced no rounded tie to pin");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Random worlds with decimal weights `k/10`, which are inexact in
        /// binary, so equal-length splits often round apart: the matrix
        /// rule still governs membership at every level.
        #[test]
        fn matrix_rule_holds_on_random_decimal_worlds(
            n in 16usize..60,
            extra in 0usize..20,
            seed in 0u64..1000,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut g = simple::random_connected(n, extra, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let edges: Vec<_> = g.edge_ids().collect();
            for e in edges {
                let w = Weight::new(f64::from(rng.random_range(1..=9u32)) / 10.0);
                g.set_weight(e, WeightKind::Distance, w).unwrap();
            }
            let (hier, store) = build(&g, 2, 3, true);
            check_matrix_rule(&g, &hier, &store);
        }
    }

    /// Builds a triangle `b-m-t` (leaf 0) whose corners are borders because
    /// each also has a pendant edge in leaf 1, and returns the network, the
    /// hierarchy, the store and the triangle's leaf.
    fn triangle_leaf(
        bm: f64,
        mt: f64,
        bt: f64,
    ) -> (RoadNetwork, RnetHierarchy, ShortcutStore, RnetId) {
        let mut nb = road_network::NetworkBuilder::default();
        let p = |x: f64, y: f64| road_network::Point::new(x, y);
        let (b, m, t) =
            (nb.add_node(p(0.0, 0.0)), nb.add_node(p(1.0, 1.0)), nb.add_node(p(2.0, 0.0)));
        let triangle = [
            nb.add_edge(b, m, bm).unwrap(),
            nb.add_edge(m, t, mt).unwrap(),
            nb.add_edge(b, t, bt).unwrap(),
        ];
        for (i, corner) in [b, m, t].into_iter().enumerate() {
            let x = nb.add_node(p(i as f64, -3.0));
            nb.add_edge(corner, x, 1.0).unwrap();
        }
        let g = nb.build();
        let hier =
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(!triangle.contains(&e)))
                .unwrap();
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        let leaf = hier.leaf_of_edge(triangle[0]);
        (g, hier, store, leaf)
    }

    /// `0.1 + 0.2` rounds to `0.30000000000000004`, one ulp above `0.3`:
    /// the direct `b-t` edge and the split through `m` tie in exact
    /// arithmetic, so the direct shortcut must drop like any other tie. A
    /// cover that is genuinely longer — far beyond rounding, yet only a
    /// millionth above `d` — keeps it: the tolerance absorbs rounding, not
    /// real detours.
    #[test]
    fn rounded_ties_drop_and_real_detours_keep() {
        let (b, m, t) = (NodeId(0), NodeId(1), NodeId(2));
        let (bm, mt, bt) = (0.1, 0.2, 0.3);
        assert!(bm + mt > bt, "the premise: the covering sum rounds above d");
        let (_, _, store, leaf) = triangle_leaf(bm, mt, bt);
        assert!(store.between(leaf, b, t).is_none(), "rounded tie b->t was kept");
        assert!(store.between(leaf, t, b).is_none(), "rounded tie t->b was kept");
        assert!(store.between(leaf, b, m).is_some());
        assert!(store.between(leaf, m, t).is_some());

        let (_, _, store, leaf) = triangle_leaf(bm, mt, bt * (1.0 - 1e-6));
        let sc = store.between(leaf, b, t).expect("strictly shorter direct arc");
        assert!(sc.via.is_empty());
    }

    /// Closed (infinite-weight) edges are never part of a shortcut: with the
    /// direct edge closed the shortcut detours through `m`, and a pair whose
    /// only connections are closed has no shortcut at all.
    #[test]
    fn closed_edges_are_not_shortcut_paths() {
        let (mut g, hier, _, leaf) = triangle_leaf(1.0, 1.0, 1.0);
        let (b, m, t) = (NodeId(0), NodeId(1), NodeId(2));
        let bt = g.edge_between(b, t).unwrap();
        g.set_weight(bt, WeightKind::Distance, Weight::INFINITY).unwrap();
        let unpruned = ShortcutOptions { prune_transitive: false, ..Default::default() };
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &unpruned);
        let sc = store.between(leaf, b, t).expect("detour through m");
        assert_eq!(sc.dist, Weight::new(2.0));
        assert_eq!(sc.via, vec![m]);

        let mt = g.edge_between(m, t).unwrap();
        g.set_weight(mt, WeightKind::Distance, Weight::INFINITY).unwrap();
        for prune in [true, false] {
            let opts = ShortcutOptions { prune_transitive: prune, ..Default::default() };
            let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &opts);
            assert!(store.between(leaf, b, t).is_none(), "prune={prune}: t is cut off");
            assert!(store.between(leaf, m, t).is_none(), "prune={prune}: t is cut off");
            assert!(store.between(leaf, b, m).is_some(), "prune={prune}");
        }
    }

    /// Degenerate leaves: a single-border Rnet keeps no shortcuts at all,
    /// and a zero-interior Rnet keeps exactly the direct border-to-border
    /// arc with an empty via list.  Border pairs disconnected *within*
    /// their Rnet stay absent from the store, not stored as infinity.
    #[test]
    fn degenerate_leaves_single_border_and_zero_interior() {
        // Path a-b-c-d; leaf 1 owns only the middle edge b-c, so it has
        // borders {b, c} and zero interior nodes, while b and c fall in two
        // different components of leaf 0 (a-b and c-d).
        let g = simple::chain(4, 1.0);
        let edges: Vec<_> = g.edge_ids().collect();
        let hier =
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(e == edges[1])).unwrap();
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        let (b, c) = (NodeId(1), NodeId(2));
        let middle = hier.leaf_of_edge(edges[1]);
        let outer = hier.leaf_of_edge(edges[0]);
        let sc = store.between(middle, b, c).expect("zero-interior leaf keeps the direct arc");
        assert_eq!(sc.dist, Weight::new(1.0));
        assert!(sc.via.is_empty(), "direct border-to-border arc must have no waypoints");
        assert!(store.between(middle, c, b).is_some(), "shortcuts are stored per direction");
        // b and c are disconnected inside leaf 0: absent, not infinite.
        assert!(store.between(outer, b, c).is_none());
        assert!(store.between(outer, c, b).is_none());

        // Path a-b-c split at b: every leaf sees exactly one border, so the
        // whole store is empty.
        let g = simple::chain(3, 1.0);
        let edges: Vec<_> = g.edge_ids().collect();
        let hier =
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(e == edges[1])).unwrap();
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        assert_eq!(store.num_shortcuts(), 0, "single-border Rnets keep no shortcuts");
    }
}
