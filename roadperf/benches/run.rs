//! The three workloads: set-up, verification, serving and the metrics they
//! report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use road_core::hierarchy::HierarchyConfig;
use road_core::persist;
use road_core::ObjectFilter;
use road_core::{
    AssociationDirectory, LiveEngine, Object, PagedEngine, PagedImage, PagedOptions, QueryEngine,
    RnetHierarchy, RnetId, RoadConfig, RoadFramework, SearchHit, SearchStats, SearchWorkspace,
    ShortcutOptions, ShortcutStore,
};
use road_network::generator::Dataset;
use road_network::{RoadNetwork, Weight};

use crate::check;
use crate::inputs::{self, Kind, Mix, Network, Op, K, METRIC};
use crate::report::Metrics;
use crate::serve::{self, Server, Tally, WriterTally};
use crate::stats::{median, Samples};
use crate::trace::Trace;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper-size CA served in memory by one client.
    CaMemMix,
    /// Quarter-size SF served from pages by one client.
    SfPaged,
    /// Quarter-size SF under live updates, one reader and one writer.
    SfLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::CaMemMix, Workload::SfPaged, Workload::SfLive];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CaMemMix => "ca-mem-mix",
            Workload::SfPaged => "sf-paged",
            Workload::SfLive => "sf-live",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`FULL`] is what the benchmark runs; the benchmark's own
/// tests use [`TINY`].
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// CA scale (1.0 = the paper's 21,048 nodes).
    pub ca_scale: f64,
    /// SF scale (0.25 = 43,739 nodes).
    pub sf_scale: f64,
    /// Objects on `ca-mem-mix` and `sf-paged`.
    pub objects: usize,
    /// Moving objects on `sf-live`.
    pub fleet: usize,
    /// Distinct queries per workload; the client cycles through them.
    pub queries: usize,
    /// Set-up repetitions on CA (the median is reported).
    pub ca_setups: usize,
    /// Set-up repetitions on SF.
    pub sf_setups: usize,
    /// Buffer-pool pages of the paged engine.
    pub pool_pages: usize,
    /// Interval between live update batches.
    pub batch_period: Duration,
    /// Weight changes, and separately object moves, per batch.
    pub per_batch: usize,
}

/// The benchmark's sizes.
pub const FULL: Size = Size {
    ca_scale: 1.0,
    sf_scale: 0.25,
    objects: 1_000,
    fleet: 10_000,
    queries: 2_000,
    ca_setups: 5,
    sf_setups: 3,
    pool_pages: 50,
    batch_period: Duration::from_millis(250),
    per_batch: 8,
};

/// A seconds-long run on small networks, for tests.
pub const TINY: Size = Size {
    ca_scale: 0.04,
    sf_scale: 0.012,
    objects: 80,
    fleet: 200,
    queries: 60,
    ca_setups: 1,
    sf_setups: 1,
    pool_pages: 8,
    batch_period: Duration::from_millis(40),
    per_batch: 4,
};

/// Shortcut build and repair threads on `sf-live`.
const LIVE_REPAIR_THREADS: usize = 1;
/// Unfiltered kNN answers the range radius is calibrated on.
const CALIBRATION_QUERIES: usize = 200;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every input the workload draws.
    pub seed: u64,
    /// Length of the serving window.
    pub seconds: f64,
    /// `false`: report end-to-end metrics. `true`: record spans and report
    /// per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Fault injection for the benchmark's own tests: alter one engine
    /// answer before it is checked.
    pub corrupt_one_answer: bool,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No operation failed and every metric is a finite number.
    pub correct: bool,
    /// Operations attempted: verified queries, served queries and update
    /// batches.
    pub attempted: u64,
    /// Operations that returned `Err`, gave a wrong answer, or (updates)
    /// never published.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable facts about the run: sizes, mix, radius, samples.
    pub notes: Vec<String>,
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut trace = Trace::new(cfg.trace, Instant::now(), 0);
    let mut out = match cfg.workload {
        Workload::CaMemMix => ca_mem_mix(cfg, &mut trace)?,
        Workload::SfPaged => sf_paged(cfg, &mut trace)?,
        Workload::SfLive => sf_live(cfg, &mut trace)?,
    };
    if cfg.trace {
        let kept = trace.spans().len();
        let basis = format!("{kept} kept, {} over the per-thread cap", trace.dropped());
        out.metrics.put("trace.spans", kept as f64 + trace.dropped() as f64, "count", basis);
        if let Some(path) = &cfg.trace_out {
            trace.save(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            out.notes.push(format!("spans written to {}", path.display()));
        }
    }
    let finite = out.metrics.0.iter().all(|m| m.value.is_finite());
    out.correct = out.failed == 0 && out.attempted > 0 && finite;
    for m in &out.metrics.0 {
        out.notes.push(format!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.basis));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Set-up
// ----------------------------------------------------------------------

/// Per-phase set-up timings (seconds, one entry per repetition) and the
/// sizes of what was built.
#[derive(Debug, Default)]
struct Phases {
    setup: Vec<f64>,
    hierarchy: Vec<f64>,
    shortcut: Vec<f64>,
    framework: Vec<f64>,
    load: Vec<f64>,
    to_bytes: Vec<f64>,
    image_open: Vec<f64>,
    paged_open: Vec<f64>,
    rnets: usize,
    borders: usize,
    shortcuts: usize,
    shortcut_bytes: usize,
    directory_bytes: usize,
    image_bytes: usize,
}

/// The framework configuration of a workload: the paper's fanout, the
/// network's depth, and `shortcut_threads` workers for shortcut builds and
/// repairs (`0` = every hardware thread).
fn road_config(net: &Network, shortcut_threads: usize) -> RoadConfig {
    RoadConfig {
        metric: METRIC,
        hierarchy: HierarchyConfig {
            fanout: inputs::FANOUT,
            levels: net.levels,
            ..HierarchyConfig::default()
        },
        shortcuts: ShortcutOptions { threads: shortcut_threads, ..ShortcutOptions::default() },
    }
}

/// Builds the framework from `g` (a copy of the network) and loads the
/// directory, timing both and recording spans under `parent`.
fn build_index(
    g: RoadNetwork,
    road: &RoadConfig,
    objects: &[Object],
    trace: &mut Trace,
    parent: Option<usize>,
    req: u64,
    phases: &mut Phases,
) -> Result<(RoadFramework, AssociationDirectory), String> {
    let t0 = Instant::now();
    let fw = RoadFramework::build(g, road.clone()).map_err(|e| format!("build: {e}"))?;
    let t1 = Instant::now();
    trace.record("RoadFramework::build", t0, t1, parent, req);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for o in objects {
        let s = trace.enabled().then(Instant::now);
        ad.insert(fw.network(), fw.hierarchy(), o.clone()).map_err(|e| format!("insert: {e}"))?;
        if let Some(s) = s {
            trace.record("AssociationDirectory::insert", s, Instant::now(), parent, req);
        }
    }
    let t2 = Instant::now();
    phases.framework.push((t1 - t0).as_secs_f64());
    phases.load.push((t2 - t1).as_secs_f64());
    let hier = fw.hierarchy();
    phases.rnets = hier.num_rnets();
    phases.borders = (0..hier.num_rnets() as u32).map(|r| hier.borders(RnetId(r)).len()).sum();
    phases.shortcuts = fw.shortcuts().num_shortcuts();
    phases.shortcut_bytes = fw.shortcuts().size_bytes();
    phases.directory_bytes = ad.size_bytes();
    Ok((fw, ad))
}

/// Traced runs also time the two layers `RoadFramework::build` runs
/// internally, by calling them on their own (outside the set-up time).
fn time_layers(
    net: &Network,
    road: &RoadConfig,
    trace: &mut Trace,
    req: u64,
    phases: &mut Phases,
) -> Result<(), String> {
    if !trace.enabled() {
        return Ok(());
    }
    let t0 = Instant::now();
    let hier = RnetHierarchy::build(&net.graph, &road.hierarchy).map_err(|e| format!("{e}"))?;
    let t1 = Instant::now();
    let store = ShortcutStore::build(&net.graph, &hier, METRIC, &road.shortcuts);
    let t2 = Instant::now();
    std::hint::black_box(&store);
    trace.record("RnetHierarchy::build", t0, t1, None, req);
    trace.record("ShortcutStore::build", t1, t2, None, req);
    phases.hierarchy.push((t1 - t0).as_secs_f64());
    phases.shortcut.push((t2 - t1).as_secs_f64());
    Ok(())
}

/// Runs `setup` `reps` times, each on a fresh copy of the network, and
/// keeps the last product. A repetition's set-up time runs from the
/// network in memory to `setup`'s return, when queries can be served.
fn repeat<T>(
    reps: usize,
    net: &Network,
    road: &RoadConfig,
    trace: &mut Trace,
    phases: &mut Phases,
    mut setup: impl FnMut(RoadNetwork, &mut Trace, Option<usize>, u64, &mut Phases) -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for rep in 0..reps.max(1) {
        let req = (3u64 << 40) + rep as u64;
        time_layers(net, road, trace, req, phases)?;
        drop(last.take()); // the previous product is freed before the next build
        let g = net.graph.clone();
        let t0 = Instant::now();
        let root = trace.open("setup", t0, req);
        let product = setup(g, trace, root, req, phases)?;
        let t1 = Instant::now();
        trace.close(root, t1);
        phases.setup.push((t1 - t0).as_secs_f64());
        last = Some(product);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

// ----------------------------------------------------------------------
// Verification (outside every timed region)
// ----------------------------------------------------------------------

/// Oracle answers to `ops`, computed on two threads.
fn oracle_all(fw: &RoadFramework, ad: &AssociationDirectory, ops: &[Op]) -> Vec<Vec<SearchHit>> {
    let mut out = vec![Vec::new(); ops.len()];
    let chunk = ops.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        for (part, slots) in ops.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (op, slot) in part.iter().zip(slots.iter_mut()) {
                    *slot = check::oracle(fw, ad, op);
                }
            });
        }
    });
    out
}

/// The range radius: the median distance to the K-th nearest object over
/// the first kNN queries filtered like the ranges (all unfiltered, or all
/// in one category), so a range returns about K objects.
fn calibrate(fw: &RoadFramework, ad: &AssociationDirectory, ops: &[Op]) -> Weight {
    let in_category = |f: &ObjectFilter| *f != ObjectFilter::Any;
    let ranges_in_category =
        ops.iter().any(|op| matches!(op, Op::Range(q) if in_category(&q.filter)));
    let sample: Vec<Op> = ops
        .iter()
        .filter(|op| matches!(op, Op::Knn(q) if in_category(&q.filter) == ranges_in_category))
        .take(CALIBRATION_QUERIES)
        .cloned()
        .collect();
    let kth: Vec<f64> = oracle_all(fw, ad, &sample)
        .iter()
        .filter_map(|hits| hits.get(K - 1).map(|h| h.distance.get()))
        .collect();
    Weight::new(median(&kth))
}

/// Queries for a workload: `len` of `mix`, ranges at the calibrated radius.
fn queries(
    cfg: &RunConfig,
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    mix: &Mix,
) -> (Vec<Op>, Weight) {
    let mut ops = inputs::ops(
        fw.network(),
        mix,
        cfg.size.queries,
        Weight::ZERO,
        &mut inputs::rng(cfg.seed, 2),
    );
    let radius = calibrate(fw, ad, &ops);
    for op in &mut ops {
        if let Op::Range(q) = op {
            q.radius = radius;
        }
    }
    (ops, radius)
}

/// Each distinct query once through `srv`, checked: against the oracle
/// when `reference` is `None`, else bit-identical to `reference`'s answer,
/// which itself must agree with the oracle. Returns the answers that
/// repeats must equal, and the number of failed queries.
fn verify<S: Server>(
    srv: &S,
    reference: Option<&QueryEngine>,
    oracle: &[Vec<SearchHit>],
    ops: &[Op],
    corrupt: bool,
) -> (Vec<Vec<SearchHit>>, u64) {
    let mut ws = SearchWorkspace::new();
    let mut failed = 0;
    let mut answers = Vec::with_capacity(ops.len());
    for (i, (op, want)) in ops.iter().zip(oracle).enumerate() {
        let mut hits = Vec::new();
        let mut ok = srv.answer(op, &mut ws, &mut hits).is_ok();
        if corrupt && i == 0 {
            corrupt_answer(&mut hits);
        }
        ok &= match reference {
            None => check::agrees(&hits, want),
            Some(mem) => {
                let mut base = Vec::new();
                mem.answer(op, &mut ws, &mut base).is_ok()
                    && check::agrees(&base, want)
                    && check::identical(&hits, &base)
            }
        };
        failed += u64::from(!ok);
        answers.push(hits);
    }
    (answers, failed)
}

fn corrupt_answer(hits: &mut Vec<SearchHit>) {
    match hits.first_mut() {
        Some(h) => h.distance += Weight::new(1.0),
        None => {
            hits.push(SearchHit { object: road_core::ObjectId(u64::MAX), distance: Weight::ZERO })
        }
    }
}

fn mean_hits(tally: &Tally, kind: Kind) -> f64 {
    let n = tally.latency[kind.index()].len();
    if n == 0 {
        0.0
    } else {
        tally.hits[kind.index()] as f64 / n as f64
    }
}

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

/// The serving window: the whole window untraced, or (traced) an untraced
/// half then a traced half, whose throughputs give the tracing overhead.
fn windows(cfg: &RunConfig) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        (total / 2, total - total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

fn describe(cfg: &RunConfig, net: &Network, objects: usize, clients: &str, mix: &Mix) -> String {
    format!(
        "workload {} seed {} network {}x{} nodes {} edges {} levels {} fanout {} objects {} categories {} clients {} mix [{}] queries {} k {}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.workload == Workload::CaMemMix { "CA" } else { "SF" },
        if cfg.workload == Workload::CaMemMix { cfg.size.ca_scale } else { cfg.size.sf_scale },
        net.graph.num_nodes(),
        net.graph.num_edges(),
        net.levels,
        inputs::FANOUT,
        objects,
        inputs::CATEGORIES,
        clients,
        inputs::describe(mix),
        cfg.size.queries,
        K,
    )
}

fn ca_mem_mix(cfg: &RunConfig, trace: &mut Trace) -> Result<Outcome, String> {
    let net = inputs::network(Dataset::CaHighways, cfg.size.ca_scale)?;
    let objects =
        inputs::uniform_objects(&net.graph, cfg.size.objects, &mut inputs::rng(cfg.seed, 1));
    let mut phases = Phases::default();
    let road = road_config(&net, 0);
    let (fw, ad) =
        repeat(cfg.size.ca_setups, &net, &road, trace, &mut phases, |g, tr, root, req, ph| {
            build_index(g, &road, &objects, tr, root, req, ph)
        })?;
    let index_bytes = fw.overlay_size_bytes() + ad.size_bytes();
    let (ops, radius) = queries(cfg, &fw, &ad, &inputs::MEM_MIX);
    let oracle = oracle_all(&fw, &ad, &ops);
    let engine = QueryEngine::new(fw, ad);
    let (expected, verify_failed) = verify(&engine, None, &oracle, &ops, cfg.corrupt_one_answer);

    let (plain, traced) = windows(cfg);
    let mut quiet = Trace::new(false, Instant::now(), 0);
    let first = serve::closed_loop(&engine, &ops, &expected, plain, &mut quiet);
    let second = if cfg.trace {
        Some(serve::closed_loop(&engine, &ops, &expected, traced, trace))
    } else {
        None
    };

    let mut out = Outcome {
        attempted: ops.len() as u64 + first.ops + second.as_ref().map_or(0, |t| t.ops),
        failed: verify_failed + first.failed + second.as_ref().map_or(0, |t| t.failed),
        ..Outcome::default()
    };
    out.notes.push(describe(cfg, &net, cfg.size.objects, "1 closed-loop", &inputs::MEM_MIX));
    out.notes.push(format!(
        "range radius {} (median distance to the {K}th nearest object), mean range answer {:.2} objects",
        radius.get(),
        mean_hits(&first, Kind::Range)
    ));
    match second {
        None => end_to_end(&mut out.metrics, &phases, &first, index_bytes),
        Some(traced) => {
            let mut layers = Layers::new(&phases, &traced, &first);
            layers.emit(&mut out.metrics);
        }
    }
    Ok(out)
}

fn sf_paged(cfg: &RunConfig, trace: &mut Trace) -> Result<Outcome, String> {
    let net = inputs::network(Dataset::SfStreets, cfg.size.sf_scale)?;
    let objects =
        inputs::uniform_objects(&net.graph, cfg.size.objects, &mut inputs::rng(cfg.seed, 1));
    let opts = PagedOptions::with_buffer_pages(cfg.size.pool_pages);
    let mut phases = Phases::default();
    let road = road_config(&net, 0);
    let (fw, ad, engine) =
        repeat(cfg.size.sf_setups, &net, &road, trace, &mut phases, |g, tr, root, req, ph| {
            let (fw, ad) = build_index(g, &road, &objects, tr, root, req, ph)?;
            let mine = objects.clone();
            let t0 = Instant::now();
            let bytes = persist::to_bytes(&fw);
            let t1 = Instant::now();
            ph.image_bytes = bytes.len();
            let image = PagedImage::open(bytes).map_err(|e| format!("image: {e}"))?;
            let t2 = Instant::now();
            let engine = PagedEngine::open(image, mine, opts).map_err(|e| format!("paged: {e}"))?;
            let t3 = Instant::now();
            tr.record("persist::to_bytes", t0, t1, root, req);
            tr.record("PagedImage::open", t1, t2, root, req);
            tr.record("PagedEngine::open", t2, t3, root, req);
            ph.to_bytes.push((t1 - t0).as_secs_f64());
            ph.image_open.push((t2 - t1).as_secs_f64());
            ph.paged_open.push((t3 - t2).as_secs_f64());
            Ok((fw, ad, engine))
        })?;
    let index_bytes = engine.disk_size_bytes();
    let (ops, radius) = queries(cfg, &fw, &ad, &inputs::SF_MIX);
    let oracle = oracle_all(&fw, &ad, &ops);
    let memory = QueryEngine::new(fw, ad);
    let (expected, verify_failed) =
        verify(&engine, Some(&memory), &oracle, &ops, cfg.corrupt_one_answer);

    let (plain, traced) = windows(cfg);
    let mut quiet = Trace::new(false, Instant::now(), 0);
    let first = serve::closed_loop(&engine, &ops, &expected, plain, &mut quiet);
    let second = if cfg.trace {
        engine.reset_io_stats();
        let t = serve::closed_loop(&engine, &ops, &expected, traced, trace);
        Some((t, engine.buffer_stats()))
    } else {
        None
    };

    let mut out = Outcome {
        attempted: ops.len() as u64 + first.ops + second.as_ref().map_or(0, |t| t.0.ops),
        failed: verify_failed + first.failed + second.as_ref().map_or(0, |t| t.0.failed),
        ..Outcome::default()
    };
    let clients = format!("1 closed-loop, pool {} pages", cfg.size.pool_pages);
    out.notes.push(describe(cfg, &net, cfg.size.objects, &clients, &inputs::SF_MIX));
    out.notes.push(format!(
        "range radius {} (median distance to the {K}th nearest object), mean range answer {:.2} objects, disk layout {} pages",
        radius.get(),
        mean_hits(&first, Kind::Range),
        engine.num_disk_pages()
    ));
    match second {
        None => end_to_end(&mut out.metrics, &phases, &first, index_bytes),
        Some((traced, io)) => {
            let mut layers = Layers::new(&phases, &traced, &first);
            let all = sum_work(&traced);
            let ops = traced.ops.max(1) as f64;
            layers.paged = Some([
                all.pages_read as f64 / ops,
                all.page_faults as f64 / ops,
                io.hit_rate(),
                engine.rnets_loaded() as f64,
                io.logical_reads as f64,
                io.page_faults as f64,
                io.write_backs as f64,
            ]);
            layers.emit(&mut out.metrics);
        }
    }
    Ok(out)
}

fn sf_live(cfg: &RunConfig, trace: &mut Trace) -> Result<Outcome, String> {
    let net = inputs::network(Dataset::SfStreets, cfg.size.sf_scale)?;
    let objects =
        inputs::uniform_objects(&net.graph, cfg.size.fleet, &mut inputs::rng(cfg.seed, 1));
    // One repair thread: the writer and the reader then have one of the
    // two cores each instead of the repair fan-out preempting the reader.
    let road = road_config(&net, LIVE_REPAIR_THREADS);
    let mut phases = Phases::default();
    let (live, mut handle, ops, radius, index_bytes) =
        repeat(cfg.size.sf_setups, &net, &road, trace, &mut phases, |g, tr, root, req, ph| {
            let (fw, ad) = build_index(g, &road, &objects, tr, root, req, ph)?;
            let t0 = Instant::now();
            // Inputs for the window are drawn from the built state; this
            // is not part of the set-up time.
            let (live, handle) = LiveEngine::new(fw, ad);
            tr.record("LiveEngine::new", t0, Instant::now(), root, req);
            Ok((live, handle))
        })
        .map(|(live, handle)| {
            let snap = live.snapshot();
            let (ops, radius) = queries(cfg, snap.framework(), snap.directory(), &inputs::LIVE_MIX);
            let bytes = snap.framework().overlay_size_bytes() + snap.directory().size_bytes();
            (live, handle, ops, radius, bytes)
        })?;
    let batches = (cfg.seconds / cfg.size.batch_period.as_secs_f64()).ceil() as usize + 2;
    let feed = inputs::feed(
        &net.graph,
        cfg.size.fleet,
        batches,
        cfg.size.per_batch,
        &mut inputs::rng(cfg.seed, 3),
    );
    let period = cfg.size.batch_period;

    let (plain, traced) = windows(cfg);
    let mut quiet = Trace::new(false, Instant::now(), 0);
    let (first, mut writes, mut samples) =
        serve::live_window(&live, &mut handle, &ops, &feed, period, plain, &mut quiet);
    let second = if cfg.trace {
        let rest = &feed[writes.due as usize..];
        let (t, w, s) = serve::live_window(&live, &mut handle, &ops, rest, period, traced, trace);
        writes.absorb(&w);
        samples.extend(s);
        Some(t)
    } else {
        None
    };

    // Sampled reader answers against the oracle on the snapshot they read.
    let mut check_failed = 0;
    for (i, s) in samples.iter_mut().enumerate() {
        if cfg.corrupt_one_answer && i == 0 {
            corrupt_answer(&mut s.hits);
        }
        let want = check::oracle(s.snapshot.framework(), s.snapshot.directory(), &ops[s.op]);
        check_failed += u64::from(!check::agrees(&s.hits, &want));
    }
    let checked = samples.len();
    drop(samples);

    let reads = first.ops + second.as_ref().map_or(0, |t| t.ops);
    let mut out = Outcome {
        attempted: reads + writes.due,
        failed: first.failed
            + second.as_ref().map_or(0, |t| t.failed)
            + check_failed
            + writes.failed
            + (writes.due - writes.published().min(writes.due)),
        ..Outcome::default()
    };
    out.notes.push(describe(
        cfg,
        &net,
        cfg.size.fleet,
        "1 closed-loop reader + 1 open-loop writer",
        &inputs::LIVE_MIX,
    ));
    out.notes.push(format!(
        "range radius {}, mean range answer {:.2} objects; writer: every {} ms {} weight changes (x0.5-2 of generated weight) + {} moves then publish; {} batches due, {} published; {} reader answers checked against the oracle on their snapshot",
        radius.get(),
        mean_hits(&first, Kind::Range),
        period.as_millis(),
        cfg.size.per_batch,
        cfg.size.per_batch,
        writes.due,
        writes.published(),
        checked
    ));
    match second {
        None => end_to_end(&mut out.metrics, &phases, &first, index_bytes),
        Some(traced) => {
            let mut layers = Layers::new(&phases, &traced, &first);
            layers.live = Some(writes);
            layers.emit(&mut out.metrics);
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------------

fn end_to_end(m: &mut Metrics, phases: &Phases, tally: &Tally, index_bytes: usize) {
    m.put(
        "setup_s",
        median(&phases.setup),
        "s",
        format!("median of {} set-ups", phases.setup.len()),
    );
    for kind in [Kind::Knn, Kind::Range] {
        let lat = &tally.latency[kind.index()];
        m.quantile(&format!("{}_p50_us", kind.label()), lat, 50.0, 1e6, "us");
        m.quantile(&format!("{}_p99_us", kind.label()), lat, 99.0, 1e6, "us");
    }
    m.put("qps", tally.qps(), "1/s", format!("{} queries in {:.3} s", tally.ops, tally.elapsed_s));
    m.put("index_mb", index_bytes as f64 / 1e6, "MB", format!("{index_bytes} bytes"));
}

fn sum_work(t: &Tally) -> SearchStats {
    let mut all = SearchStats::default();
    for w in &t.work {
        all.absorb(w);
    }
    all
}

/// Everything the per-layer metrics are computed from. A layer a workload
/// does not call reports 0.
struct Layers<'a> {
    phases: &'a Phases,
    traced: &'a Tally,
    untraced: &'a Tally,
    /// pages read / faults per query, hit rate, Rnets loaded, logical
    /// reads, faults, write-backs.
    paged: Option<[f64; 7]>,
    live: Option<WriterTally>,
}

impl<'a> Layers<'a> {
    fn new(phases: &'a Phases, traced: &'a Tally, untraced: &'a Tally) -> Self {
        Layers { phases, traced, untraced, paged: None, live: None }
    }

    fn emit(&mut self, m: &mut Metrics) {
        let p = self.phases;
        let reps = |v: &Vec<f64>| format!("median of {} calls", v.len());
        m.put("hierarchy.build_s", median(&p.hierarchy), "s", reps(&p.hierarchy));
        m.put("hierarchy.rnets", p.rnets as f64, "count", "");
        m.put("hierarchy.borders", p.borders as f64, "count", "sum over Rnets");
        m.put("shortcut.build_s", median(&p.shortcut), "s", reps(&p.shortcut));
        m.put("shortcut.count", p.shortcuts as f64, "count", "");
        m.put("shortcut.bytes", p.shortcut_bytes as f64, "bytes", "");
        m.put("framework.build_s", median(&p.framework), "s", reps(&p.framework));
        m.put("association.load_s", median(&p.load), "s", reps(&p.load));
        m.put("association.bytes", p.directory_bytes as f64, "bytes", "");
        let moves = self.live.as_ref().map(|w| w.move_s.clone()).unwrap_or_default();
        m.quantile("association.move_us_p50", &moves, 50.0, 1e6, "us");

        for kind in Kind::ALL {
            let k = kind.index();
            let n = self.traced.latency[k].len();
            let w = &self.traced.work[k];
            let per = |x: usize| if n == 0 { 0.0 } else { x as f64 / n as f64 };
            let stem = format!("search.{}", kind.label());
            let basis = format!("{n} queries");
            m.put(&format!("{stem}.busy_s"), self.traced.latency[k].sum(), "s", basis.clone());
            m.put(&format!("{stem}.nodes_settled"), per(w.nodes_settled), "count", basis.clone());
            m.put(&format!("{stem}.edges_relaxed"), per(w.edges_relaxed), "count", basis.clone());
            m.put(
                &format!("{stem}.shortcuts_taken"),
                per(w.shortcuts_taken),
                "count",
                basis.clone(),
            );
            m.put(&format!("{stem}.heap_pushes"), per(w.heap_pushes), "count", basis.clone());
            m.put(
                &format!("{stem}.abstract_checks"),
                per(w.abstract_checks),
                "count",
                basis.clone(),
            );
            m.put(&format!("{stem}.objects_read"), per(w.objects_read), "count", basis.clone());
            let tried = w.rnets_bypassed + w.rnets_descended;
            let ratio = if tried == 0 { 0.0 } else { w.rnets_bypassed as f64 / tried as f64 };
            m.put(&format!("{stem}.bypass_ratio"), ratio, "ratio", format!("{tried} Rnets met"));
        }
        let agg = &self.traced.latency[Kind::Agg.index()];
        m.quantile("search.aggknn.p50_us", agg, 50.0, 1e6, "us");
        m.quantile("search.aggknn.p99_us", agg, 99.0, 1e6, "us");

        m.put("persist.to_bytes_s", median(&p.to_bytes), "s", reps(&p.to_bytes));
        m.put("persist.image_bytes", p.image_bytes as f64, "bytes", "");
        m.put("persist.open_s", median(&p.image_open), "s", reps(&p.image_open));
        m.put("paged.open_s", median(&p.paged_open), "s", reps(&p.paged_open));
        let io = self.paged.unwrap_or_default();
        let names = [
            ("paged.pages_read_per_q", "count"),
            ("paged.faults_per_q", "count"),
            ("paged.hit_rate", "ratio"),
            ("paged.rnets_loaded", "count"),
            ("storage.logical_reads", "count"),
            ("storage.page_faults", "count"),
            ("storage.write_backs", "count"),
        ];
        for ((name, unit), v) in names.into_iter().zip(io) {
            m.put(name, v, unit, "traced window");
        }

        let w = self.live.take().unwrap_or_default();
        let batches = w.published().max(1) as f64;
        m.quantile("live.apply_ms_p50", &w.apply_s, 50.0, 1e3, "ms");
        m.quantile("live.apply_ms_p75", &w.apply_s, 75.0, 1e3, "ms");
        m.quantile("live.publish_us_p50", &w.publish_s, 50.0, 1e6, "us");
        m.put(
            "live.rnets_refreshed_per_update",
            w.rnets_refreshed as f64 / batches,
            "count",
            "per batch",
        );
        m.put(
            "live.rnets_changed_per_update",
            w.rnets_changed as f64 / batches,
            "count",
            "per batch",
        );
        m.put(
            "live.shared_rnets_frac",
            median_samples(&w.shared_frac),
            "ratio",
            "median over batches",
        );
        m.quantile("live.snapshot_us_p50", &self.traced.snapshot_s, 50.0, 1e6, "us");
        m.put("live.writer_lag_ms", w.lag_s.sum() / batches * 1e3, "ms", "mean over batches");
        m.quantile("live.update_p50_ms", &w.update_s, 50.0, 1e3, "ms");
        m.quantile("live.update_p75_ms", &w.update_s, 75.0, 1e3, "ms");

        let (a, b) = (self.untraced.qps(), self.traced.qps());
        let overhead = if b > 0.0 { a / b - 1.0 } else { 0.0 };
        m.put(
            "trace.overhead_frac",
            overhead,
            "ratio",
            format!("untraced {a:.1} q/s vs traced {b:.1} q/s"),
        );
    }
}

fn median_samples(s: &Samples) -> f64 {
    s.at_or_below(50.0).map_or(0.0, |q| q.value)
}
