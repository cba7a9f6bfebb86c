//! Golden digests of the serialized shortcut store.
//!
//! Each case generates a preset network at the evaluation seed, builds an
//! Rnet hierarchy (fanout 4; the paper's depth at full size, the suggested
//! depth for scaled-down networks) and pins the FNV-1a-64 digest of
//! `ShortcutStore::serialize_into` under both metrics, single-threaded and
//! with automatic parallelism. A changed digest means a changed production
//! store: different shortcuts, distances, waypoints or byte layout.
//!
//! Two hierarchies are pinned. The production partitioner's
//! Kernighan–Lin refinement breaks equal-gain ties in hash-set iteration
//! order, so its hierarchy (and every digest over it) changes under the
//! `shuffle-hasher` feature. The quadtree cases assign edges to leaves by
//! geometry alone, so their digests must also hold under `shuffle-hasher`:
//! they pin that the shortcut builder itself is independent of hash order.
//!
//! The small cases run in tier-1; the paper-scale ones are `#[ignore]`d
//! stress cases (`cargo test --release -- --include-ignored`).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use road_core::hierarchy::{HierarchyConfig, RnetHierarchy};
use road_core::shortcut::{ShortcutOptions, ShortcutStore};
use road_network::generator::Dataset;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::Rect;

const SEED: u64 = 0xEDB7_2009;
const FANOUT: usize = 4;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The preset network and its hierarchy depth.
fn network(ds: Dataset, scale: f64) -> (RoadNetwork, u32) {
    let g = ds.generate_scaled(scale, SEED).unwrap();
    let levels =
        if scale >= 1.0 { ds.default_levels() } else { ds.suggested_levels(g.num_edges(), FANOUT) };
    (g, levels)
}

/// A quadtree hierarchy: each edge goes to the leaf whose cell, in a
/// `2^levels x 2^levels` grid over the network's bounding box, holds the
/// edge's midpoint. Cells are numbered in Morton order, so a leaf's parent
/// is its index divided by 4 — the hierarchy's own numbering.
fn quadtree(g: &RoadNetwork, levels: u32) -> RnetHierarchy {
    let bb = Rect::covering(g.node_ids().map(|n| g.coord(n)));
    let side = 1u32 << levels;
    let cell = |v: f64, lo: f64, len: f64| (((v - lo) / len * side as f64) as u32).min(side - 1);
    RnetHierarchy::from_leaf_assignment(g, FANOUT, levels, |e| {
        let (a, b) = g.edge(e).endpoints();
        let m = g.coord(a).midpoint(g.coord(b));
        let (x, y) = (cell(m.x, bb.min.x, bb.width()), cell(m.y, bb.min.y, bb.height()));
        (0..levels).fold(0, |idx, bit| {
            idx | ((x >> bit) & 1) << (2 * bit) | ((y >> bit) & 1) << (2 * bit + 1)
        })
    })
    .unwrap()
}

/// Asserts the store digests over `hier`: `want` is `[Distance,
/// TravelTime]`, each checked at threads 1 and 0 (auto).
fn check_store(g: &RoadNetwork, hier: &RnetHierarchy, label: &str, want: [u64; 2]) {
    for (kind, want) in [WeightKind::Distance, WeightKind::TravelTime].into_iter().zip(want) {
        for threads in [1, 0] {
            let opts = ShortcutOptions { threads, ..Default::default() };
            let store = ShortcutStore::build(g, hier, kind, &opts);
            let mut bytes = Vec::new();
            store.serialize_into(&mut bytes);
            let got = fnv1a64(&bytes);
            assert_eq!(
                got, want,
                "{label} {kind:?} threads={threads}: store digest {got:016x}, pinned {want:016x}"
            );
        }
    }
}

/// Digests over the production partitioner's hierarchy.
fn check(ds: Dataset, scale: f64, want: [u64; 2]) {
    let (g, levels) = network(ds, scale);
    let cfg = HierarchyConfig { fanout: FANOUT, levels, ..Default::default() };
    let hier = RnetHierarchy::build(&g, &cfg).unwrap();
    check_store(&g, &hier, &format!("{ds} x{scale}"), want);
}

/// Digests over the quadtree hierarchy.
fn check_quadtree(ds: Dataset, scale: f64, want: [u64; 2]) {
    let (g, levels) = network(ds, scale);
    check_store(&g, &quadtree(&g, levels), &format!("{ds} x{scale} quadtree"), want);
}

#[test]
fn fnv1a64_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn ca_small_store_digest() {
    check(Dataset::CaHighways, 0.04, [0xe503e45e6f4ed19e, 0x0d480fd8d050ae9e]);
}

#[test]
fn sf_small_store_digest() {
    check(Dataset::SfStreets, 0.012, [0xdb076fc1abf2f38d, 0xd1cefd9d464ea573]);
}

#[test]
fn na_small_store_digest() {
    check(Dataset::NaHighways, 0.012, [0x1b4bfc8cea9fa09f, 0x9fb3776ba854095a]);
}

#[test]
fn cont_small_store_digest() {
    check(Dataset::Continent, 0.004, [0x957ea6fa626cb550, 0x453faead5547ca07]);
}

#[test]
#[ignore = "paper-scale stress; run with --include-ignored"]
fn ca_full_store_digest() {
    check(Dataset::CaHighways, 1.0, [0x5e7698731e8db798, 0xe468a260667bbb34]);
}

#[test]
#[ignore = "paper-scale stress; run with --include-ignored"]
fn sf_quarter_store_digest() {
    check(Dataset::SfStreets, 0.25, [0x89a2d0dcb9899b5a, 0x8388aea6525fa897]);
}

#[test]
#[ignore = "paper-scale stress; run with --include-ignored"]
fn na_quarter_store_digest() {
    check(Dataset::NaHighways, 0.25, [0x82235b98ae60c605, 0x1d90a7812391dcfe]);
}

#[test]
#[ignore = "paper-scale stress; run with --include-ignored"]
fn cont_stress_store_digest() {
    check(Dataset::Continent, 0.05, [0xb2faa3c22fe49f5c, 0xaee3e5eecf184a24]);
}

#[test]
fn ca_small_quadtree_store_digest() {
    check_quadtree(Dataset::CaHighways, 0.04, [0xac74074bc2f2e467, 0xa2858b9c26e7f6b9]);
}

#[test]
fn sf_small_quadtree_store_digest() {
    check_quadtree(Dataset::SfStreets, 0.012, [0x9aefaacfb2f9700a, 0x4f61307f06b5dfe5]);
}

#[test]
#[ignore = "paper-scale stress; run with --include-ignored"]
fn sf_quarter_quadtree_store_digest() {
    check_quadtree(Dataset::SfStreets, 0.25, [0x920f99d343e2f621, 0xda738361b2d06e13]);
}
