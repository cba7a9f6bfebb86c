//! Serving loops: the closed-loop query client and the open-loop live writer.
//!
//! Every call into the system is timed here, from outside, around the
//! public function that serves it; the same instants feed the latency
//! samples and, when tracing, the spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use road_core::{
    LiveEngine, PagedEngine, QueryEngine, RoadError, SearchHit, SearchStats, SearchWorkspace,
    Snapshot, UpdateHandle,
};

use crate::check;
use crate::inputs::{Batch, Kind, Op};
use crate::stats::Samples;
use crate::trace::Trace;

/// An engine a client can send queries to.
pub trait Server {
    /// Answers `op` into `hits`, returning the search's work counters.
    fn answer(
        &self,
        op: &Op,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError>;

    /// Span name of the public function serving `kind`.
    fn call(kind: Kind) -> &'static str;
}

impl Server for QueryEngine {
    fn answer(
        &self,
        op: &Op,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        match op {
            Op::Knn(q) => self.knn_with(q, ws, hits),
            Op::Range(q) => self.range_with(q, ws, hits),
            Op::Agg(q) => {
                let (found, stats) =
                    self.framework().aggregate_knn_with_stats(self.directory(), q)?;
                *hits = found;
                Ok(stats)
            }
        }
    }

    fn call(kind: Kind) -> &'static str {
        match kind {
            Kind::Knn => "QueryEngine::knn_with",
            Kind::Range => "QueryEngine::range_with",
            Kind::Agg => "RoadFramework::aggregate_knn_with_stats",
        }
    }
}

impl Server for PagedEngine {
    fn answer(
        &self,
        op: &Op,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        match op {
            Op::Knn(q) => self.knn_with(q, ws, hits),
            Op::Range(q) => self.range_with(q, ws, hits),
            Op::Agg(q) => {
                let (found, stats) = self.aggregate_knn_with_stats(q)?;
                *hits = found;
                Ok(stats)
            }
        }
    }

    fn call(kind: Kind) -> &'static str {
        match kind {
            Kind::Knn => "PagedEngine::knn_with",
            Kind::Range => "PagedEngine::range_with",
            Kind::Agg => "PagedEngine::aggregate_knn_with_stats",
        }
    }
}

impl Server for Snapshot {
    fn answer(
        &self,
        op: &Op,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        match op {
            Op::Knn(q) => self.knn_with(q, ws, hits),
            Op::Range(q) => self.range_with(q, ws, hits),
            Op::Agg(q) => {
                let (found, stats) =
                    self.framework().aggregate_knn_with_stats(self.directory(), q)?;
                *hits = found;
                Ok(stats)
            }
        }
    }

    fn call(kind: Kind) -> &'static str {
        match kind {
            Kind::Knn => "Snapshot::knn_with",
            Kind::Range => "Snapshot::range_with",
            Kind::Agg => "RoadFramework::aggregate_knn_with_stats",
        }
    }
}

/// What the query client of one serving window did.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Latency in seconds, per [`Kind::index`].
    pub latency: [Samples; 3],
    /// Summed search counters, per kind.
    pub work: [SearchStats; 3],
    /// Summed answer sizes, per kind.
    pub hits: [u64; 3],
    /// Queries answered or failed.
    pub ops: u64,
    /// Queries that returned `Err` or a wrong answer.
    pub failed: u64,
    /// Time to take a live snapshot, in seconds (live reader only).
    pub snapshot_s: Samples,
    /// Wall time of the window, from its start until the client's last
    /// query returned, in seconds.
    pub elapsed_s: f64,
}

impl Tally {
    fn note(&mut self, kind: Kind, took: Duration, stats: &SearchStats, hits: usize) {
        let k = kind.index();
        self.latency[k].push(took.as_secs_f64());
        self.work[k].absorb(stats);
        self.hits[k] += hits as u64;
        self.ops += 1;
    }

    /// Queries completed per second.
    pub fn qps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.ops as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// One closed-loop client: sends `ops` in order, cycling, for `window`,
/// and checks every answer against `expected` (the answer verified against
/// the oracle before the window).
pub fn closed_loop<S: Server>(
    srv: &S,
    ops: &[Op],
    expected: &[Vec<SearchHit>],
    window: Duration,
    trace: &mut Trace,
) -> Tally {
    let mut tally = Tally::default();
    let mut ws = SearchWorkspace::new();
    let mut hits = Vec::new();
    let from = Instant::now();
    let until = from + window;
    let mut i = 0usize;
    loop {
        let start = Instant::now();
        if start >= until {
            break;
        }
        let idx = i % ops.len();
        let op = &ops[idx];
        let res = srv.answer(op, &mut ws, &mut hits);
        let end = Instant::now();
        trace.record(S::call(op.kind()), start, end, None, (1u64 << 40) + i as u64);
        match res {
            Ok(stats) => {
                tally.note(op.kind(), end - start, &stats, hits.len());
                if !check::identical(&hits, &expected[idx]) {
                    tally.failed += 1;
                }
            }
            Err(_) => {
                tally.ops += 1;
                tally.failed += 1;
            }
        }
        i += 1;
    }
    tally.elapsed_s = from.elapsed().as_secs_f64();
    tally
}

/// A reader answer kept for checking against the oracle on the snapshot
/// that produced it.
pub struct Sample {
    /// The snapshot the reader queried.
    pub snapshot: Arc<Snapshot>,
    /// Index of the query in the reader's list.
    pub op: usize,
    /// The answer it got.
    pub hits: Vec<SearchHit>,
}

/// Which reader answers are kept for checking: the first few answers on
/// every `VERSION_STRIDE`-th published version, on at most `MAX_VERSIONS`
/// versions, so few snapshots stay alive.
const VERSION_STRIDE: u64 = 4;
const MAX_VERSIONS: usize = 10;
const PER_VERSION: usize = 10;

/// The live reader: one closed-loop client taking the current snapshot
/// for every query. Answers cannot be checked in the window (the state
/// changes under it), so a sample is kept with its snapshot.
fn reader(
    live: &LiveEngine,
    ops: &[Op],
    from: Instant,
    until: Instant,
    trace: &mut Trace,
    samples: &mut Vec<Sample>,
) -> Tally {
    let mut tally = Tally::default();
    let mut ws = SearchWorkspace::new();
    let mut hits = Vec::new();
    let mut versions: Vec<u64> = Vec::new();
    let mut i = 0usize;
    loop {
        let start = Instant::now();
        if start >= until {
            break;
        }
        let idx = i % ops.len();
        let op = &ops[idx];
        let req = (1u64 << 40) + i as u64;
        let root = trace.open("reader.request", start, req);
        let snap = live.snapshot();
        let got = Instant::now();
        let res = snap.answer(op, &mut ws, &mut hits);
        let end = Instant::now();
        trace.record("LiveEngine::snapshot", start, got, root, req);
        trace.record(Snapshot::call(op.kind()), got, end, root, req);
        trace.close(root, end);
        tally.snapshot_s.push((got - start).as_secs_f64());
        match res {
            Ok(stats) => {
                tally.note(op.kind(), end - start, &stats, hits.len());
                let v = snap.version();
                let kept = samples.iter().filter(|s| s.snapshot.version() == v).count();
                let new_version = !versions.contains(&v);
                if v.is_multiple_of(VERSION_STRIDE)
                    && kept < PER_VERSION
                    && (!new_version || versions.len() < MAX_VERSIONS)
                {
                    if new_version {
                        versions.push(v);
                    }
                    samples.push(Sample {
                        snapshot: Arc::clone(&snap),
                        op: idx,
                        hits: hits.clone(),
                    });
                }
            }
            Err(_) => {
                tally.ops += 1;
                tally.failed += 1;
            }
        }
        i += 1;
    }
    tally.elapsed_s = from.elapsed().as_secs_f64();
    tally
}

/// What the live writer did.
#[derive(Clone, Debug, Default)]
pub struct WriterTally {
    /// Batches due in the window.
    pub due: u64,
    /// Published batches with an update that returned `Err`.
    pub failed: u64,
    /// Due time to the return of the `publish()` that made the batch
    /// visible, in seconds.
    pub update_s: Samples,
    /// Time applying a batch (weight repairs plus object moves), seconds.
    pub apply_s: Samples,
    /// `UpdateHandle::publish` time, seconds.
    pub publish_s: Samples,
    /// `UpdateHandle::move_object` time, seconds.
    pub move_s: Samples,
    /// How late the writer started each batch after its due time, seconds.
    pub lag_s: Samples,
    /// Summed Rnets refreshed / changed by the weight repairs.
    pub rnets_refreshed: u64,
    /// See `rnets_refreshed`.
    pub rnets_changed: u64,
    /// Per batch: share of Rnets whose shortcut maps the new snapshot
    /// still shares with the previous one.
    pub shared_frac: Samples,
}

impl WriterTally {
    /// Adds another window's writer tally.
    pub fn absorb(&mut self, other: &WriterTally) {
        self.due += other.due;
        self.failed += other.failed;
        self.update_s.extend(&other.update_s);
        self.apply_s.extend(&other.apply_s);
        self.publish_s.extend(&other.publish_s);
        self.move_s.extend(&other.move_s);
        self.lag_s.extend(&other.lag_s);
        self.rnets_refreshed += other.rnets_refreshed;
        self.rnets_changed += other.rnets_changed;
        self.shared_frac.extend(&other.shared_frac);
    }

    /// Batches published.
    pub fn published(&self) -> u64 {
        self.update_s.len() as u64
    }
}

/// How long past the window's end the writer may run to clear a backlog
/// before the batches it has not reached count as never published.
const BACKLOG_GRACE: Duration = Duration::from_secs(5);

/// The open-loop writer: batch `b` of `feed` is due at `start + b *
/// period`, whether or not earlier batches are done, and its update
/// latency counts from that due time.
fn writer(
    handle: &mut UpdateHandle,
    live: &LiveEngine,
    feed: &[Batch],
    period: Duration,
    start: Instant,
    until: Instant,
    trace: &mut Trace,
) -> WriterTally {
    let mut tally = WriterTally::default();
    let num_rnets = handle.framework().hierarchy().num_rnets().max(1) as f64;
    let mut prev = live.snapshot();
    for (b, batch) in feed.iter().enumerate() {
        let due = start + period * b as u32;
        if due >= until {
            break;
        }
        tally.due += 1;
        if Instant::now() > until + BACKLOG_GRACE {
            continue; // never published: counted as `due - published()`
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        tally.lag_s.push((begin - due).as_secs_f64());
        let req = (2u64 << 40) + b as u64;
        let root = trace.open("writer.batch", due, req);
        let mut ok = true;
        let t0 = Instant::now();
        match handle.set_edge_weights(&batch.weights) {
            Ok(outcome) => {
                tally.rnets_refreshed += outcome.rnets_refreshed as u64;
                tally.rnets_changed += outcome.rnets_changed as u64;
            }
            Err(_) => ok = false,
        }
        let t1 = Instant::now();
        trace.record("UpdateHandle::set_edge_weights", t0, t1, root, req);
        let mut m0 = t1;
        for &(id, edge, fraction) in &batch.moves {
            ok &= handle.move_object(id, edge, fraction).is_ok();
            let m1 = Instant::now();
            trace.record("UpdateHandle::move_object", m0, m1, root, req);
            tally.move_s.push((m1 - m0).as_secs_f64());
            m0 = m1;
        }
        let t2 = m0;
        handle.publish();
        let t3 = Instant::now();
        trace.record("UpdateHandle::publish", t2, t3, root, req);
        trace.close(root, t3);
        tally.apply_s.push((t2 - t0).as_secs_f64());
        tally.publish_s.push((t3 - t2).as_secs_f64());
        tally.update_s.push((t3 - due).as_secs_f64());
        if !ok {
            tally.failed += 1;
        }
        let snap = live.snapshot();
        let shared = snap.framework().shortcuts().shared_rnet_count(prev.framework().shortcuts());
        tally.shared_frac.push(shared as f64 / num_rnets);
        prev = snap;
    }
    tally
}

/// One live window: the reader serves `ops` while the writer replays
/// `feed`. Returns the reader's tally, the writer's, and the kept samples.
pub fn live_window(
    live: &LiveEngine,
    handle: &mut UpdateHandle,
    ops: &[Op],
    feed: &[Batch],
    period: Duration,
    window: Duration,
    trace: &mut Trace,
) -> (Tally, WriterTally, Vec<Sample>) {
    let start = Instant::now();
    let until = start + window;
    let mut own = trace.fork(1);
    let mut samples = Vec::new();
    let (tally, writes) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| reader(live, ops, start, until, &mut own, &mut samples));
        let writes = writer(handle, live, feed, period, start, until, trace);
        let tally = reading.join().unwrap_or_else(|_| Tally { failed: 1, ..Tally::default() });
        (tally, writes)
    });
    trace.absorb(own);
    (tally, writes, samples)
}
