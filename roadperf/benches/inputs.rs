//! Input fabrication: networks, objects, query streams and the live update
//! feed. Nothing here is timed.
//!
//! The networks are the repository's synthetic presets of the paper's
//! datasets, always generated with the evaluation seed [`NETWORK_SEED`], so
//! every run of a workload serves the same road network. The workload seed
//! draws everything that runs on it: object positions and categories,
//! query nodes, the range radius calibration sample and the update feed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::model::{CategoryId, Object, ObjectFilter, ObjectId};
use road_core::search::AggregateKnnQuery;
use road_core::{KnnQuery, RangeQuery};
use road_network::generator::Dataset;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, NodeId, Weight};

/// Generator seed of every network (the repository's evaluation seed).
pub const NETWORK_SEED: u64 = 0xEDB7_2009;
/// Partition fanout `p` (the paper's default).
pub const FANOUT: usize = 4;
/// Neighbours asked for by every kNN and aggregate kNN query.
pub const K: usize = 5;
/// Object categories.
pub const CATEGORIES: u16 = 10;
/// Members of an aggregate kNN query group.
pub const AGG_SOURCES: usize = 3;
/// The metric every workload searches under.
pub const METRIC: WeightKind = WeightKind::Distance;

/// A network preset with its hierarchy depth.
pub struct Network {
    /// The generated road network.
    pub graph: RoadNetwork,
    /// Hierarchy depth `l`: the paper's at full size, size-adjusted below.
    pub levels: u32,
}

/// Generates `ds` at `scale` of its paper size.
pub fn network(ds: Dataset, scale: f64) -> Result<Network, String> {
    let graph = ds
        .generate_scaled(scale, NETWORK_SEED)
        .map_err(|e| format!("cannot generate {} at scale {scale}: {e}", ds.name()))?;
    let levels = if scale >= 1.0 {
        ds.default_levels()
    } else {
        ds.suggested_levels(graph.num_edges(), FANOUT)
    };
    Ok(Network { graph, levels })
}

/// A deterministic generator for one workload seed and purpose.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Spatially uniform objects: an edge drawn with probability proportional
/// to its length, a uniform position along it, a uniform category.
pub fn uniform_objects(g: &RoadNetwork, count: usize, rng: &mut StdRng) -> Vec<Object> {
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    let mut cumulative = Vec::with_capacity(edges.len());
    let mut total = 0.0;
    for &e in &edges {
        total += g.weight(e, WeightKind::Distance).get();
        cumulative.push(total);
    }
    (0..count)
        .map(|i| {
            let target = rng.random_range(0.0..total);
            let idx = cumulative.partition_point(|&c| c <= target).min(edges.len() - 1);
            Object::new(
                ObjectId(i as u64),
                edges[idx],
                rng.random_range(0.0..=1.0),
                CategoryId(rng.random_range(0..CATEGORIES)),
            )
        })
        .collect()
}

/// A uniformly random node.
pub fn random_node(g: &RoadNetwork, rng: &mut StdRng) -> NodeId {
    NodeId(rng.random_range(0..g.num_nodes() as u32))
}

/// The three query types the workloads mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// kNN, unfiltered or filtered to one category.
    Knn,
    /// Range.
    Range,
    /// Sum-aggregate kNN over a query group.
    Agg,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 3] = [Kind::Knn, Kind::Range, Kind::Agg];

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        match self {
            Kind::Knn => 0,
            Kind::Range => 1,
            Kind::Agg => 2,
        }
    }

    /// Metric-name stem.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Knn => "knn",
            Kind::Range => "range",
            Kind::Agg => "aggknn",
        }
    }
}

/// One query a client sends.
#[derive(Clone, Debug)]
pub enum Op {
    /// kNN query.
    Knn(KnnQuery),
    /// Range query.
    Range(RangeQuery),
    /// Aggregate kNN query.
    Agg(AggregateKnnQuery),
}

impl Op {
    /// The query type.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Knn(_) => Kind::Knn,
            Op::Range(_) => Kind::Range,
            Op::Agg(_) => Kind::Agg,
        }
    }
}

/// What one slot of a mix draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Unfiltered kNN.
    Knn,
    /// kNN filtered to one random category.
    KnnCategory,
    /// Range with the calibrated radius.
    Range,
    /// Range in one random category.
    RangeCategory,
    /// Sum-aggregate kNN over [`AGG_SOURCES`] random nodes.
    Agg,
}

/// A query mix as ten slots, each worth 10% of the operations. Slot order
/// is the order queries are issued in, so the mix holds over any window.
pub type Mix = [Slot; 10];

/// `ca-mem-mix`: 50% kNN, 20% filtered kNN, 20% range, 10% aggregate kNN.
pub const MEM_MIX: Mix = [
    Slot::Knn,
    Slot::Range,
    Slot::KnnCategory,
    Slot::Knn,
    Slot::Agg,
    Slot::Knn,
    Slot::Range,
    Slot::KnnCategory,
    Slot::Knn,
    Slot::Knn,
];

/// `sf-paged`: 80% kNN, 20% range.
pub const SF_MIX: Mix = [
    Slot::Knn,
    Slot::Knn,
    Slot::Range,
    Slot::Knn,
    Slot::Knn,
    Slot::Knn,
    Slot::Knn,
    Slot::Range,
    Slot::Knn,
    Slot::Knn,
];

/// The `sf-live` reader, asking for vehicles of one of the fleet's
/// [`CATEGORIES`] types: 80% kNN and 20% range, both in one category.
pub const LIVE_MIX: Mix = [
    Slot::KnnCategory,
    Slot::KnnCategory,
    Slot::RangeCategory,
    Slot::KnnCategory,
    Slot::KnnCategory,
    Slot::KnnCategory,
    Slot::KnnCategory,
    Slot::RangeCategory,
    Slot::KnnCategory,
    Slot::KnnCategory,
];

/// Human-readable form of a mix, e.g. `knn=50% knn_cat=20% range=20% aggknn=10%`.
pub fn describe(mix: &Mix) -> String {
    let count = |s: Slot| mix.iter().filter(|&&m| m == s).count() * 10;
    [
        ("knn", Slot::Knn),
        ("knn_cat", Slot::KnnCategory),
        ("range", Slot::Range),
        ("range_cat", Slot::RangeCategory),
        ("aggknn", Slot::Agg),
    ]
    .iter()
    .filter(|(_, s)| count(*s) > 0)
    .map(|(name, s)| format!("{name}={}%", count(*s)))
    .collect::<Vec<_>>()
    .join(" ")
}

/// `len` distinct queries following `mix`, every range query with `radius`.
pub fn ops(g: &RoadNetwork, mix: &Mix, len: usize, radius: Weight, rng: &mut StdRng) -> Vec<Op> {
    (0..len)
        .map(|i| match mix[i % mix.len()] {
            Slot::Knn => Op::Knn(KnnQuery::new(random_node(g, rng), K)),
            Slot::KnnCategory => {
                let category = CategoryId(rng.random_range(0..CATEGORIES));
                Op::Knn(
                    KnnQuery::new(random_node(g, rng), K)
                        .with_filter(ObjectFilter::Category(category)),
                )
            }
            Slot::Range => Op::Range(RangeQuery::new(random_node(g, rng), radius)),
            Slot::RangeCategory => {
                let category = ObjectFilter::Category(CategoryId(rng.random_range(0..CATEGORIES)));
                Op::Range(RangeQuery::new(random_node(g, rng), radius).with_filter(category))
            }
            Slot::Agg => Op::Agg(AggregateKnnQuery::new(
                (0..AGG_SOURCES).map(|_| random_node(g, rng)).collect(),
                K,
            )),
        })
        .collect()
}

/// One batch of the live feed: edge-weight changes and object moves.
#[derive(Clone, Debug)]
pub struct Batch {
    /// New weights, each the edge's generated weight times a factor in
    /// `[0.5, 2]` (traffic slows or clears relative to free flow).
    pub weights: Vec<(EdgeId, Weight)>,
    /// Objects moved to (edge, fraction).
    pub moves: Vec<(ObjectId, EdgeId, f64)>,
}

/// `count` batches of `per_batch` weight changes and `per_batch` moves of
/// objects `0..objects`.
pub fn feed(
    g: &RoadNetwork,
    objects: usize,
    count: usize,
    per_batch: usize,
    rng: &mut StdRng,
) -> Vec<Batch> {
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    let pick = |rng: &mut StdRng| edges[rng.random_range(0..edges.len())];
    (0..count)
        .map(|_| Batch {
            weights: (0..per_batch)
                .map(|_| {
                    let e = pick(rng);
                    let factor = rng.random_range(0.5..=2.0);
                    (e, Weight::new((g.weight(e, METRIC).get() * factor).max(1e-6)))
                })
                .collect(),
            moves: (0..per_batch)
                .map(|_| {
                    let id = ObjectId(rng.random_range(0..objects as u64));
                    (id, pick(rng), rng.random_range(0.0..=1.0))
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::generator::simple;

    #[test]
    fn inputs_repeat_for_a_seed() {
        let g = simple::grid(8, 8, 1.0);
        let a = uniform_objects(&g, 30, &mut rng(7, 1));
        assert_eq!(a, uniform_objects(&g, 30, &mut rng(7, 1)));
        assert_ne!(a, uniform_objects(&g, 30, &mut rng(8, 1)));
        let o = ops(&g, &MEM_MIX, 20, Weight::new(2.0), &mut rng(7, 2));
        assert_eq!(o.iter().filter(|op| op.kind() == Kind::Agg).count(), 2);
        assert_eq!(o.iter().filter(|op| op.kind() == Kind::Range).count(), 4);
    }

    #[test]
    fn mixes_describe_their_shares() {
        assert_eq!(describe(&MEM_MIX), "knn=50% knn_cat=20% range=20% aggknn=10%");
        assert_eq!(describe(&SF_MIX), "knn=80% range=20%");
        assert_eq!(describe(&LIVE_MIX), "knn_cat=80% range_cat=20%");
    }
}
