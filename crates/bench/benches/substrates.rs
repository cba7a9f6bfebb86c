//! Criterion microbenches for the substrates: Dijkstra expansion, the
//! paged B+-tree, the R-tree, and the LRU buffer — the components whose
//! constants sit under every figure.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_network::dijkstra::Dijkstra;
use road_network::generator::Dataset;
use road_network::graph::WeightKind;
use road_network::NodeId;
use road_spatial::RTree;
use road_storage::{BPlusTree, IoTally, LruCache, PageStore, StripedBufferPool, TalliedPool};
use std::hint::black_box;

fn bench_dijkstra(c: &mut Criterion) {
    let g = Dataset::CaHighways.generate_scaled(0.1, 3).unwrap();
    let mut dij = Dijkstra::for_network(&g);
    let mut rng = StdRng::seed_from_u64(4);
    let n = g.num_nodes() as u32;
    c.bench_function("dijkstra_p2p_ca10pct", |b| {
        b.iter(|| {
            let a = NodeId(rng.random_range(0..n));
            let z = NodeId(rng.random_range(0..n));
            black_box(dij.one_to_one(&g, WeightKind::Distance, a, z))
        })
    });
}

fn bench_bptree(c: &mut Criterion) {
    let (pool, mut tally) = (StripedBufferPool::new(PageStore::new(), 256, 1), IoTally::default());
    let mut pool = TalliedPool { pool: &pool, tally: &mut tally };
    let mut tree = BPlusTree::new(&mut pool).unwrap();
    for k in 0..100_000u64 {
        tree.insert(&mut pool, k * 7 % 100_000, k).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("bptree_get_100k", |b| {
        b.iter(|| black_box(tree.get(&mut pool, rng.random_range(0..100_000)).unwrap()))
    });
    c.bench_function("bptree_insert_remove", |b| {
        b.iter(|| {
            let k = rng.random_range(100_000..200_000u64);
            tree.insert(&mut pool, k, k).unwrap();
            black_box(tree.remove(&mut pool, k).unwrap())
        })
    });
}

fn bench_rtree(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let pts: Vec<(road_network::Point, u64)> = (0..10_000)
        .map(|i| {
            (
                road_network::Point::new(
                    rng.random_range(0.0..1000.0),
                    rng.random_range(0.0..1000.0),
                ),
                i,
            )
        })
        .collect();
    let tree = RTree::bulk_load(&pts, 64);
    c.bench_function("rtree_knn10_of_10k", |b| {
        b.iter(|| {
            let p = road_network::Point::new(
                rng.random_range(0.0..1000.0),
                rng.random_range(0.0..1000.0),
            );
            black_box(tree.nearest(p).take(10).count())
        })
    });
}

fn bench_lru(c: &mut Criterion) {
    let mut lru: LruCache<u64, u64> = LruCache::new(50);
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("lru50_mixed_ops", |b| {
        b.iter(|| {
            let k = rng.random_range(0..200u64);
            if lru.get(&k).is_none() {
                lru.put(k, k);
            }
            black_box(lru.len())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dijkstra, bench_bptree, bench_rtree, bench_lru
);
criterion_main!(benches);
