//! Engine agreement over random worlds: the three engines built from one
//! framework — the in-memory [`QueryEngine`], an eagerly laid-out
//! [`PagedEngine`] and one opened lazily from the persisted image — must
//! answer kNN / range / aggregate queries identically. Worlds are random
//! connected networks with closed (infinite-weight) edges and genuinely
//! two-component networks, whose cross-component border pairs must stay
//! *absent* from the shortcut store rather than be stored as infinite arcs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::paged::{PagedEngine, PagedOptions};
use road_core::prelude::*;
use road_core::search::{Aggregate, AggregateKnnQuery};
use road_network::generator::simple;
use road_network::graph::{NetworkBuilder, RoadNetwork};
use road_network::Point;

/// Rewrites every edge's Distance weight deterministically from `seed` as a
/// small integer, then closes up to `closed` edges with `Weight::INFINITY`.
fn reweight(g: &mut RoadNetwork, seed: u64, closed: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_AD1C);
    let edges: Vec<_> = g.edge_ids().collect();
    for &e in &edges {
        let w = Weight::new(rng.random_range(1..=16u32) as f64);
        g.set_weight(e, WeightKind::Distance, w).unwrap();
    }
    for _ in 0..closed {
        let e = edges[rng.random_range(0..edges.len())];
        g.set_weight(e, WeightKind::Distance, Weight::INFINITY).unwrap();
    }
}

/// Two disjoint components in one network: a 10-node path and a 4x3 snake.
fn two_component_net(seed: u64) -> RoadNetwork {
    let mut b = NetworkBuilder::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let first: Vec<_> = (0..10).map(|i| b.add_node(Point::new(i as f64, 0.0))).collect();
    for w in first.windows(2) {
        b.add_edge(w[0], w[1], rng.random_range(1..=9u32) as f64).unwrap();
    }
    let second: Vec<_> =
        (0..12).map(|i| b.add_node(Point::new((i % 4) as f64, 4.0 + (i / 4) as f64))).collect();
    for w in second.windows(2) {
        b.add_edge(w[0], w[1], rng.random_range(1..=9u32) as f64).unwrap();
    }
    b.build()
}

/// Places `objects` objects on open (finite-weight) edges — an object on a
/// closed edge is unreachable by definition.
fn place_objects(fw: &RoadFramework, objects: usize, rng: &mut StdRng) -> AssociationDirectory {
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let open_edges: Vec<_> = fw
        .network()
        .edge_ids()
        .filter(|&e| fw.network().weight(e, WeightKind::Distance).is_finite())
        .collect();
    for i in 0..objects {
        let e = open_edges[rng.random_range(0..open_edges.len())];
        let o = Object::new(
            ObjectId(i as u64),
            e,
            rng.random_range(0.0..=1.0),
            CategoryId(rng.random_range(0..4)),
        );
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    ad
}

/// Asks `queries` random kNN / range / aggregate queries of all three
/// engines and asserts identical answers.
fn assert_engines_agree(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    queries: usize,
    rng: &mut StdRng,
) {
    let num_nodes = fw.network().num_nodes() as u32;
    let engine = QueryEngine::new(fw.clone(), ad.clone());
    let opts = PagedOptions::with_buffer_pages(4);
    let eager = PagedEngine::new(fw, ad, opts).unwrap();
    let objs: Vec<Object> = ad.objects().cloned().collect();
    let image = PagedImage::open(fw.to_bytes()).unwrap();
    let lazy = PagedEngine::open(image, objs, opts).unwrap();

    for i in 0..queries {
        let node = NodeId(rng.random_range(0..num_nodes));
        match i % 3 {
            0 => {
                let q = KnnQuery::new(node, rng.random_range(1..6));
                let mem = engine.knn(&q).unwrap().hits;
                assert_eq!(mem, eager.knn(&q).unwrap().hits, "eager kNN #{i}");
                assert_eq!(mem, lazy.knn(&q).unwrap().hits, "lazy kNN #{i}");
            }
            1 => {
                let q = RangeQuery::new(node, Weight::new(rng.random_range(1.0..25.0)));
                let mem = engine.range(&q).unwrap().hits;
                assert_eq!(mem, eager.range(&q).unwrap().hits, "eager range #{i}");
                assert_eq!(mem, lazy.range(&q).unwrap().hits, "lazy range #{i}");
            }
            _ => {
                let other = NodeId(rng.random_range(0..num_nodes));
                let agg = if i % 2 == 0 { Aggregate::Sum } else { Aggregate::Max };
                let q = AggregateKnnQuery::new(vec![node, other], rng.random_range(1..5))
                    .with_aggregate(agg);
                let mem = engine.aggregate_knn(&q).unwrap();
                assert_eq!(mem, eager.aggregate_knn(&q).unwrap(), "eager agg #{i}");
                assert_eq!(mem, lazy.aggregate_knn(&q).unwrap(), "lazy agg #{i}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random connected worlds with one closed edge: all three engines
    /// answer identically.
    #[test]
    fn engines_agree_on_random_worlds(
        n in 16usize..50,
        extra in 0usize..15,
        objects in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut net = simple::random_connected(n, extra, seed);
        reweight(&mut net, seed, 1);
        let fw = RoadFramework::builder(net).fanout(2).levels(2).build().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000B_7EC7);
        let ad = place_objects(&fw, objects, &mut rng);
        assert_engines_agree(&fw, &ad, 12, &mut rng);
    }

    /// Unpruned (ablation) stores keep every pruned shortcut at the same
    /// distance, survive the persisted image, and answer exactly as the
    /// pruned build does.
    #[test]
    fn unpruned_builds_agree_with_pruned(
        n in 16usize..50,
        extra in 0usize..15,
        objects in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut net = simple::random_connected(n, extra, seed);
        reweight(&mut net, seed, 1);
        let pruned = RoadFramework::builder(net.clone()).fanout(2).levels(2).build().unwrap();
        let unpruned = RoadFramework::builder(net)
            .fanout(2)
            .levels(2)
            .prune_transitive_shortcuts(false)
            .build()
            .unwrap();
        let hier = pruned.hierarchy();
        for r in (1..=hier.levels()).flat_map(|lv| hier.rnets_at_level(lv)) {
            for &b in hier.borders(r) {
                for sc in pruned.shortcuts().from(r, b) {
                    let kept = unpruned.shortcuts().from(r, b).iter().find(|u| u.to == sc.to);
                    prop_assert_eq!(kept.map(|u| u.dist), Some(sc.dist), "{:?} {}->{}", r, b, sc.to);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A4B_1A7E);
        let ad = place_objects(&unpruned, objects, &mut rng);
        assert_engines_agree(&unpruned, &ad, 12, &mut rng);
        let engine = QueryEngine::new(pruned.clone(), ad.clone());
        let ablated = QueryEngine::new(unpruned.clone(), ad);
        for _ in 0..12 {
            let q = KnnQuery::new(NodeId(rng.random_range(0..n as u32)), rng.random_range(1..6));
            prop_assert_eq!(engine.knn(&q).unwrap().hits, ablated.knn(&q).unwrap().hits);
        }
    }
}

/// Two-component worlds: no shortcut joins the components, and the
/// engines still agree (queries from one component see only its objects).
#[test]
fn engines_agree_on_two_component_worlds() {
    for seed in [3u64, 17, 99] {
        let net = two_component_net(seed);
        // Nodes 0..10 form the path, 10..22 the snake.
        let component = |n: NodeId| n.0 < 10;
        for fanout in [2usize, 4] {
            let fw = RoadFramework::builder(net.clone()).fanout(fanout).levels(2).build().unwrap();
            let hier = fw.hierarchy();
            for r in (1..=hier.levels()).flat_map(|lv| hier.rnets_at_level(lv)) {
                for &b in hier.borders(r) {
                    for sc in fw.shortcuts().from(r, b) {
                        assert_eq!(
                            component(b),
                            component(sc.to),
                            "seed={seed} fanout={fanout}: {r:?} shortcut {b}->{} \
                             crosses components",
                            sc.to
                        );
                        assert!(sc.dist.is_finite());
                    }
                }
            }
            let mut rng = StdRng::seed_from_u64(seed ^ fanout as u64);
            let ad = place_objects(&fw, 8, &mut rng);
            assert_engines_agree(&fw, &ad, 24, &mut rng);
        }
    }
}
