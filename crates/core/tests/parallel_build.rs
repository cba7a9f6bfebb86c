//! Parallel-construction determinism harness: [`ShortcutStore::build`]
//! with any worker-thread count must be **byte-identical** — same
//! serialized bytes, same per-Rnet iteration order — to the fully
//! sequential build, across random worlds and fanouts.  The scheduler
//! owns *when* an Rnet's map is computed, never *what* it contains or
//! *where* it lands: workers write into per-Rnet indexed slots and the
//! caller commits them in hierarchy order, which is the whole
//! byte-equality argument (see ARCHITECTURE.md, "Parallel construction").
//!
//! The same must hold for maintenance: a batched, level-parallel repair
//! ([`RoadFramework::set_edge_weights`]) has to leave the framework
//! byte-identical to applying the same updates one at a time through the
//! sequential per-Rnet refresh chain.
//!
//! The hierarchy obeys the same rule: the partitioner's bisection tree
//! with any worker count must assign every edge to the same leaf, give every
//! Rnet the same border list, and so lead to the same store bytes.
//!
//! Weights are exact in f64 (small integers / dyadic rationals), so
//! "equivalent" and "bit-identical" coincide — any scheduling leak shows
//! up as a byte diff, not as an approx-eq near miss.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::shortcut::{ShortcutOptions, ShortcutStore};
use road_core::{HierarchyConfig, RnetHierarchy, RnetId, UpdateOutcome};
use road_network::generator::{simple, Dataset};
use road_network::graph::RoadNetwork;
use road_network::ids::{EdgeId, NodeId};

/// Rewrites every edge's Distance weight deterministically from `seed` —
/// small integers or dyadic rationals `k/64`, both exact in f64.
fn reweight(g: &mut RoadNetwork, seed: u64, dyadic: bool) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_AD1C);
    let edges: Vec<_> = g.edge_ids().collect();
    for &e in &edges {
        let w = if dyadic {
            Weight::new(rng.random_range(1..=1024u32) as f64 / 64.0)
        } else {
            Weight::new(rng.random_range(1..=16u32) as f64)
        };
        g.set_weight(e, WeightKind::Distance, w).unwrap();
    }
}

fn serialize(store: &ShortcutStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.serialize_into(&mut out);
    out
}

fn hier_for(g: &RoadNetwork, fanout: usize, levels: u32) -> RnetHierarchy {
    RnetHierarchy::build(g, &HierarchyConfig { fanout, levels, ..Default::default() }).unwrap()
}

/// Builds sequentially, then with 2/4/8 workers, and diffs the bytes.
fn assert_thread_counts_byte_identical(
    g: &RoadNetwork,
    hier: &RnetHierarchy,
    opts: &ShortcutOptions,
    label: &str,
) {
    let seq_opts = ShortcutOptions { threads: 1, ..*opts };
    let reference = ShortcutStore::build(g, hier, WeightKind::Distance, &seq_opts);
    let ref_bytes = serialize(&reference);
    for threads in [2usize, 4, 8] {
        let par_opts = ShortcutOptions { threads, ..*opts };
        let store = ShortcutStore::build(g, hier, WeightKind::Distance, &par_opts);
        assert_eq!(
            store.rnet_source_orders(),
            reference.rnet_source_orders(),
            "{label}: iteration order diverged at {threads} threads"
        );
        assert_eq!(
            serialize(&store),
            ref_bytes,
            "{label}: serialized bytes diverged at {threads} threads"
        );
        assert_eq!(
            store.size_bytes(),
            reference.size_bytes(),
            "{label}: incremental byte accounting diverged at {threads} threads"
        );
    }
}

/// Builds the hierarchy with 1 partition worker, then with 2/4/8, and
/// diffs the leaf of every edge, the borders of every Rnet and the
/// serialized store over each.
fn assert_partition_workers_agree(g: &RoadNetwork, cfg: &HierarchyConfig, label: &str) {
    let leaves = |h: &RnetHierarchy| -> Vec<Option<u32>> {
        g.edge_ids().map(|e| h.leaf_index_of_edge(e)).collect()
    };
    let borders = |h: &RnetHierarchy| -> Vec<Vec<NodeId>> {
        (0..h.num_rnets() as u32).map(|r| h.borders(RnetId(r)).to_vec()).collect()
    };
    let store = |h: &RnetHierarchy| {
        let opts = ShortcutOptions { threads: 1, ..Default::default() };
        serialize(&ShortcutStore::build(g, h, WeightKind::Distance, &opts))
    };
    let reference = RnetHierarchy::build_with_workers(g, cfg, 1).unwrap();
    let (ref_leaves, ref_borders, ref_store) =
        (leaves(&reference), borders(&reference), store(&reference));
    for workers in [2usize, 4, 8] {
        let hier = RnetHierarchy::build_with_workers(g, cfg, workers).unwrap();
        assert_eq!(leaves(&hier), ref_leaves, "{label}: leaves diverged at {workers} workers");
        assert_eq!(borders(&hier), ref_borders, "{label}: borders diverged at {workers} workers");
        assert_eq!(store(&hier), ref_store, "{label}: store bytes diverged at {workers} workers");
    }
}

/// The partition thread sweep on the small evaluation presets.
#[test]
fn partition_workers_agree_on_presets() {
    for (ds, scale) in [(Dataset::CaHighways, 0.04), (Dataset::SfStreets, 0.012)] {
        let g = ds.generate_scaled(scale, 0xEDB7_2009).unwrap();
        let levels = ds.suggested_levels(g.num_edges(), 4);
        let cfg = HierarchyConfig { fanout: 4, levels, ..Default::default() };
        assert_partition_workers_agree(&g, &cfg, &format!("{ds} x{scale}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random connected worlds, both fanouts: the hierarchy and the store
    /// over it are the same at 1/2/4/8 partition workers.
    #[test]
    fn partition_workers_agree(
        n in 16usize..160,
        extra in 0usize..40,
        seed in 0u64..1000,
        fanout in (1u32..3).prop_map(|p| 1usize << p),
    ) {
        let mut g = simple::random_connected(n, extra, seed);
        reweight(&mut g, seed, false);
        let levels = if fanout >= 4 { 2 } else { 4 };
        let cfg = HierarchyConfig { fanout, levels, ..Default::default() };
        assert_partition_workers_agree(&g, &cfg,
            &format!("n={n} extra={extra} seed={seed} fanout={fanout}"));
    }

    /// Random connected worlds, both fanouts: thread counts 1/2/4/8 all
    /// serialize to the same bytes.
    #[test]
    fn parallel_build_is_byte_identical(
        n in 16usize..70,
        extra in 0usize..25,
        seed in 0u64..1000,
        dyadic in (0u8..2).prop_map(|b| b == 1),
        fanout in (1u32..3).prop_map(|p| 1usize << p),
    ) {
        let mut g = simple::random_connected(n, extra, seed);
        reweight(&mut g, seed, dyadic);
        let levels = if fanout >= 4 { 2 } else { 3 };
        let hier = hier_for(&g, fanout, levels);
        assert_thread_counts_byte_identical(&g, &hier, &ShortcutOptions::default(),
            &format!("n={n} extra={extra} seed={seed} dyadic={dyadic} fanout={fanout}"));
    }

    /// Repair parity: a weight-update storm applied as one batched,
    /// level-parallel repair leaves the framework byte-identical to the
    /// same updates applied one edge at a time through the sequential
    /// refresh chain — and both frameworks still verify against a fresh
    /// rebuild.
    #[test]
    fn batched_parallel_repair_matches_sequential(
        n in 20usize..60,
        extra in 2usize..20,
        seed in 0u64..1000,
        storm in 3usize..24,
    ) {
        let mut g = simple::random_connected(n, extra, seed);
        reweight(&mut g, seed, false);

        let build = |threads: usize, g: RoadNetwork| {
            RoadFramework::builder(g)
                .fanout(2)
                .levels(3)
                .shortcut_threads(threads)
                .build()
                .unwrap()
        };
        let mut fw_seq = build(1, g.clone());
        let mut fw_par = build(4, g.clone());
        prop_assert_eq!(fw_seq.to_bytes(), fw_par.to_bytes(), "parallel construction diverged");

        // Distinct edges, fresh exact integer weights.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5708_4EED);
        let edges: Vec<_> = g.edge_ids().collect();
        let mut updates: Vec<(EdgeId, Weight)> = Vec::new();
        let mut picked = std::collections::HashSet::new();
        while updates.len() < storm.min(edges.len()) {
            let e = edges[rng.random_range(0..edges.len())];
            if picked.insert(e) {
                updates.push((e, Weight::new(rng.random_range(1..=16u32) as f64)));
            }
        }

        let mut seq_outcome = UpdateOutcome::default();
        for &(e, w) in &updates {
            seq_outcome.absorb(&fw_seq.set_edge_weight(e, w).unwrap());
        }
        let par_outcome = fw_par.set_edge_weights(&updates).unwrap();

        prop_assert_eq!(fw_seq.to_bytes(), fw_par.to_bytes(), "repair bytes diverged");
        // The batch repairs each affected Rnet at most once per update
        // wave; edge-at-a-time repair can only do more work.
        prop_assert!(par_outcome.rnets_refreshed <= seq_outcome.rnets_refreshed);
        fw_seq.verify().unwrap();
        fw_par.verify().unwrap();
    }
}

/// Thread counts agree on a fixed world, pruned and unpruned — the
/// deterministic cousin of the proptest above, cheap enough to run on
/// every push.
#[test]
fn thread_counts_agree_on_a_fixed_grid() {
    let mut g = simple::grid(9, 8, 1.0);
    reweight(&mut g, 42, false);
    let hier = hier_for(&g, 2, 3);
    for prune_transitive in [true, false] {
        let opts = ShortcutOptions { prune_transitive, ..Default::default() };
        assert_thread_counts_byte_identical(
            &g,
            &hier,
            &opts,
            &format!("grid 9x8 prune={prune_transitive}"),
        );
    }
}

/// `size_bytes` is maintained incrementally through build and repair;
/// round-tripping through the serialized form (which recounts from the
/// decoded maps) must land on the same number.
#[test]
fn size_bytes_survives_maintenance_and_roundtrip() {
    let mut g = simple::grid(8, 8, 1.0);
    reweight(&mut g, 7, false);
    let mut fw = RoadFramework::builder(g.clone()).fanout(2).levels(3).build().unwrap();
    let fresh = RoadFramework::from_bytes(&fw.to_bytes()).unwrap();
    assert_eq!(fw.shortcuts().size_bytes(), fresh.shortcuts().size_bytes());

    let mut rng = StdRng::seed_from_u64(0xB17E);
    let edges: Vec<_> = g.edge_ids().collect();
    let updates: Vec<(EdgeId, Weight)> = (0..10)
        .map(|_| {
            let e = edges[rng.random_range(0..edges.len())];
            (e, Weight::new(rng.random_range(1..=16u32) as f64))
        })
        .collect();
    fw.set_edge_weights(&updates).unwrap();
    let fresh = RoadFramework::from_bytes(&fw.to_bytes()).unwrap();
    assert_eq!(
        fw.shortcuts().size_bytes(),
        fresh.shortcuts().size_bytes(),
        "incrementally maintained byte count drifted from a recount"
    );
    assert_eq!(fw.shortcuts().num_shortcuts(), fresh.shortcuts().num_shortcuts());
}

/// Oversubscription smoke: more workers than Rnets (and than cores) must
/// neither wedge nor change bytes.
#[test]
fn oversubscribed_threads_are_harmless() {
    let mut g = simple::grid(6, 6, 1.0);
    reweight(&mut g, 3, true);
    let hier = hier_for(&g, 2, 2);
    let seq = ShortcutStore::build(
        &g,
        &hier,
        WeightKind::Distance,
        &ShortcutOptions { threads: 1, ..Default::default() },
    );
    let over = ShortcutStore::build(
        &g,
        &hier,
        WeightKind::Distance,
        &ShortcutOptions { threads: 64, ..Default::default() },
    );
    assert_eq!(serialize(&seq), serialize(&over));
}
