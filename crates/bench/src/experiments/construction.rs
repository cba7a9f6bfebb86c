//! Construction time by phase, one worker against all: the Rnet hierarchy
//! (`RnetHierarchy::build`, the partitioner's bisection tree) and then the
//! shortcut store (`ShortcutStore::build` with one thread against
//! `ShortcutOptions::threads`). Every worker count produces byte-identical
//! hierarchies and stores — the parallel-determinism suite in road-core
//! pins that — so the only thing this table can show is time. At medium
//! scale and above, on hosts with at least 4 hardware threads, the shortcut
//! builder's parallel speedup is asserted `>= 1.5` on the aggregate.

use super::Ctx;
use crate::config;
use crate::table::{fmt_f, fmt_secs, print_table};
use road_core::{HierarchyConfig, RnetHierarchy, ShortcutOptions, ShortcutStore};
use road_network::graph::RoadNetwork;
use std::time::Instant;

/// Minimum wall-clock over `reps` runs of `f` (min, not mean: build time
/// is noise-above-floor, and the floor is the honest number).
fn min_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The hierarchy built with `workers` partition workers (0 = all).
fn hierarchy(g: &RoadNetwork, fanout: usize, levels: u32, workers: usize) -> RnetHierarchy {
    let cfg = HierarchyConfig { fanout, levels, ..Default::default() };
    RnetHierarchy::build_with_workers(g, &cfg, workers).expect("bench hierarchy")
}

/// Runs the experiment and prints the construction table.
pub fn run(ctx: &Ctx) {
    let reps = if ctx.scale.name == "small" { 5 } else { 2 };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows = Vec::new();
    let (mut hier_seq_total, mut hier_par_total) = (0.0f64, 0.0f64);
    let (mut seq_total, mut par_total) = (0.0f64, 0.0f64);
    for &ds in ctx.scale.datasets() {
        let g = config::network(ds, &ctx.scale, &ctx.params);
        let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
        let fanout = ctx.params.fanout;
        let hier_seq = min_seconds(reps, || {
            std::hint::black_box(hierarchy(&g, fanout, levels, 1));
        });
        let hier_par = min_seconds(reps, || {
            std::hint::black_box(hierarchy(&g, fanout, levels, 0));
        });
        hier_seq_total += hier_seq;
        hier_par_total += hier_par;
        let hier = hierarchy(&g, fanout, levels, 0);
        let seq_opts = ShortcutOptions { threads: 1, ..Default::default() };
        let par_opts = ShortcutOptions { threads: 0, ..Default::default() };
        let seq = min_seconds(reps, || {
            std::hint::black_box(ShortcutStore::build(&g, &hier, ctx.params.metric, &seq_opts));
        });
        let par = min_seconds(reps, || {
            std::hint::black_box(ShortcutStore::build(&g, &hier, ctx.params.metric, &par_opts));
        });
        seq_total += seq;
        par_total += par;
        rows.push(vec![
            format!("{} ({}n/{}e, l={levels})", ds.name(), g.num_nodes(), g.num_edges()),
            fmt_secs(hier_seq),
            fmt_secs(hier_par),
            fmt_secs(seq),
            fmt_secs(par),
            format!("{}x", fmt_f(seq / par)),
        ]);
    }
    let parallel_speedup = seq_total / par_total;
    rows.push(vec![
        "all datasets".to_string(),
        fmt_secs(hier_seq_total),
        fmt_secs(hier_par_total),
        fmt_secs(seq_total),
        fmt_secs(par_total),
        format!("{}x", fmt_f(parallel_speedup)),
    ]);
    // Same-level Rnets are independent, so with real networks and real
    // hardware the level fan-out must pay for its scoped-thread overhead.
    // Asserted only at the paper-sized scales: at small scale builds are
    // sub-millisecond and thread spawn costs are the measurement, and
    // ad-hoc shrunken scales (e.g. the ignored `large` CI smoke) are in
    // the same regime.
    if matches!(ctx.scale.name, "medium" | "full") && threads >= 4 {
        assert!(
            parallel_speedup >= 1.5,
            "parallel construction speedup {parallel_speedup:.2}x < 1.5x on {threads} threads \
             ({seq_total:.4}s sequential vs {par_total:.4}s parallel)"
        );
    }
    let hier_par_col = format!("hierarchy x{threads}");
    let par_col = format!("shortcuts x{threads}");
    print_table(
        "Construction — hierarchy then shortcuts, sequential vs parallel",
        &[
            "network",
            "hierarchy x1",
            hier_par_col.as_str(),
            "shortcuts x1",
            par_col.as_str(),
            "shortcut speedup",
        ],
        &rows,
    );
}
