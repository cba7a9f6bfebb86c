//! Pass B: the determinism prover — unordered-iteration taint over the
//! byte-output and commit surface.
//!
//! The workspace's load-bearing invariant since the parallel-build PRs is
//! that serialized `ShortcutStore`s are **byte-identical** across thread
//! counts and runs. One unordered
//! `FastMap::iter()` feeding a serializer would break that silently; this
//! pass proves statically that it cannot happen. Three rules:
//!
//! * **unordered-iter** (rule 9) — iterating a hash-ordered container
//!   (`FastMap`/`FastSet`/`HashMap`/`HashSet`, via `.iter()`, `.keys()`,
//!   `.values()`, `.drain()`, `into_iter()` or `for … in &map`) must not
//!   reach a byte-output sink (`extend_from_slice`, `write_all`,
//!   `serialize_into`, or any function that transitively emits) or an
//!   order-sensitive commit (a function carrying the `order-sink`
//!   marker). Sanitizers: collect-then-`sort*`, a `BTreeMap`/`BTreeSet`
//!   rebind, or a reasoned `// roadlint: ordered reason="…"` escape.
//! * **float-order** (rule 10) — float accumulation whose iteration
//!   domain is unordered (`.sum::<f64>()`, `+=` on an `f64`/`f32`/
//!   `Weight` accumulator inside the loop, `min_by`/`max_by` via
//!   `partial_cmp`) is flagged even without a byte sink: float
//!   reassociation is exactly the bug class the byte-equality pin cannot
//!   tolerate. `total_cmp` is the sanctioned deterministic tie-break.
//! * **sched-order** (rule 11) — inside a `std::thread::scope` fan-out,
//!   results must land in index-addressed slots (`chunks_mut`) or be
//!   joined in spawn order, never consumed in thread-completion order
//!   (`.recv()` loops, `Mutex<Vec>::push`).
//!
//! This is the order instantiation of the shared dataflow engine
//! ([`crate::flow`]): its lattice reads `Bad` as *hash-unordered*,
//! `Fixed` as *sorted* and `Clean` as *ordered*.
//!
//! **Interprocedural**: per-function summaries — return-order provenance,
//! whether the function (transitively) emits bytes, and parameters whose
//! iteration order reaches a sink — are computed to a fixpoint over the
//! workspace call graph, so a helper in another crate that loops over its
//! slice parameter and emits bytes is an order sink for every caller
//! passing an unsorted hash-map collection.
//!
//! Every *sanitized* flow that reaches a sink becomes a row of the order
//! verdict table (`source → sanitizer → sink`, printed by
//! `roadlint --order` and pinned canonically in `determinism.expected`).
//!
//! Documented approximations: container typing comes from type
//! ascriptions, struct-field declarations, known constructors
//! (`FastMap::default()`, `fast_map_with_capacity`, …) and resolved
//! callee return types; closure parameters are untracked; a method chain
//! on an unresolved call result is not a source; pushing into a local
//! `Vec` inside an unordered loop marks that `Vec` unordered only within
//! the loop's token range. Resolution uses
//! [`CallGraph::resolve_confident`] for summaries (never borrowing a
//! same-named fn's summary across types) and the over-approximating
//! [`CallGraph::resolve`] for *typing only* (binding a local from a
//! cross-crate `-> FastMap<…>` callee).

use crate::callgraph::{self, CallGraph, FnId};
use crate::flow::{self, Emit, FnCx, Rule, Val, Verdict, Walk};
use crate::lexer::Token;
use crate::markers::Markers;
use crate::syntax::{self, method_after};
use crate::{FileData, Finding};
use std::collections::BTreeSet;

/// Hash-ordered container types: iterating one yields an unordered
/// stream.
const UNORDERED: &[&str] = &["FastMap", "FastSet", "HashMap", "HashSet"];

/// Wrappers transparent for ordering purposes (deref to the inner type
/// without changing what iteration yields).
const TRANSPARENT: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "RwLock",
    "Mutex",
    "OnceLock",
    "RefCell",
    "Cell",
    "ManuallyDrop",
    "Option",
    "Result",
];

/// Ordered sequences: iterating one is deterministic, but its *elements*
/// may be unordered containers (`Vec<Arc<FastMap<…>>>`).
const SEQS: &[&str] = &["Vec", "VecDeque"];

/// Container methods that start an iteration over the receiver.
const ITER_SOURCES: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Sort calls: applied to an unordered collection they fix its order.
const SORTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// Order-insensitive terminal reductions: the result does not depend on
/// iteration order (`sum` only for integers — the float case is caught
/// by its turbofish before this list applies).
const CLEAN_REDUCERS: &[&str] =
    &["count", "len", "any", "all", "sum", "min", "max", "contains", "is_empty"];

/// Byte-output primitives: emitting through one of these makes the
/// enclosing statement order-observable in the serialized output.
const EMIT_PRIMS: &[&str] = &["extend_from_slice", "write_all", "serialize_into"];

/// Receiver methods that write their argument's elements into the
/// receiver in iteration order.
const SEQ_MUTATORS: &[&str] = &["push", "extend", "append", "insert"];

/// Constructors of unordered containers by free-fn name.
const UNORDERED_CTORS: &[&str] = &["fast_map_with_capacity", "fast_set_with_capacity"];

/// Accumulator types whose `+=` is float addition.
const FLOAT_TYPES: &[&str] = &["f64", "f32", "Weight"];

/// How a hash-ordered flow into byte output or a commit is reported.
const UNORDERED_ITER: Rule = Rule {
    name: "unordered-iter",
    escape: Markers::ordered_reason_near,
    message: |o, desc| {
        format!(
            "hash-ordered iteration from {o} reaches {desc}; sort the domain \
             first, rebind through a BTreeMap, or mark \
             `// roadlint: ordered reason=\"…\"`"
        )
    },
};

/// How a float reduction over a hash-ordered domain is reported.
const FLOAT_ORDER: Rule = Rule {
    name: "float-order",
    escape: Markers::ordered_reason_near,
    message: |o, desc| {
        format!(
            "float reduction over the hash-ordered domain {o}: {desc}; \
             reassociation breaks byte-identical builds — sort the domain, \
             use integer/total_cmp reductions, or mark \
             `// roadlint: ordered reason=\"…\"`"
        )
    },
};

/// The interprocedural summary of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrderSummary {
    /// Return-order provenance (`Param(i)`: inherited from parameter `i`).
    ret: Val,
    /// Calling this fn produces externally visible byte output or an
    /// order-sensitive commit — calls to it inside a loop make the
    /// loop's iteration order observable.
    emits: bool,
    /// Parameters whose iteration order reaches a sink inside this fn
    /// (or transitively), with the sink's description.
    param_sinks: BTreeSet<(usize, String)>,
}

/// How a type chain iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A hash-ordered container.
    Map,
    /// An ordered sequence whose elements are hash-ordered containers.
    SeqOfMaps,
    /// A `BTreeMap`/`BTreeSet` (iterates in key order).
    BTree,
    /// Anything else.
    Other,
}

/// Classifies a type-name chain by its outermost non-transparent
/// container.
fn classify(chain: &[String]) -> Shape {
    let mut it = chain.iter().filter(|id| !TRANSPARENT.contains(&id.as_str()));
    let Some(first) = it.next() else { return Shape::Other };
    if UNORDERED.contains(&first.as_str()) {
        return Shape::Map;
    }
    if first == "BTreeMap" || first == "BTreeSet" {
        return Shape::BTree;
    }
    if SEQS.contains(&first.as_str()) {
        // `Vec<Arc<FastMap<…>>>`: the sequence iterates deterministically
        // but each element is an unordered container.
        for id in it {
            if SEQS.contains(&id.as_str()) {
                continue;
            }
            if UNORDERED.contains(&id.as_str()) {
                return Shape::SeqOfMaps;
            }
            break;
        }
    }
    Shape::Other
}

/// Runs the determinism pass over the workspace.
pub fn check(files: &[FileData], cg: &CallGraph) -> (Vec<Finding>, Vec<Verdict>) {
    flow::solve(files, cg, |cx, sums| Order::new(cx, sums).run())
}

/// The order half of one function's walk.
struct Order<'a> {
    cx: FnCx<'a>,
    sums: &'a [OrderSummary],
    /// Locals that *are* unordered containers (iterating them is the
    /// source event; using them by key is not).
    map_vars: BTreeSet<String>,
    /// Locals that are ordered sequences of unordered containers:
    /// iterating them binds map-typed elements.
    seq_vars: BTreeSet<String>,
    /// Float accumulators (by ascription).
    float_vars: BTreeSet<String>,
    /// Open unordered-loop contexts as `(body_close, origin)`: pushes
    /// into a `Vec` inside such a loop order it by the loop's domain.
    loop_ctx: Vec<(usize, String)>,
    emits: bool,
}

impl<'a> Order<'a> {
    fn new(cx: FnCx<'a>, sums: &'a [OrderSummary]) -> Order<'a> {
        let cg = cx.cg;
        let info = &cg.fns[cx.me];
        let mut o = Order {
            cx,
            sums,
            map_vars: BTreeSet::new(),
            seq_vars: BTreeSet::new(),
            float_vars: BTreeSet::new(),
            loop_ctx: Vec::new(),
            emits: info.order_sink,
        };
        for (i, p) in info.params.iter().enumerate() {
            let chain = info.param_chains.get(i).map(Vec::as_slice).unwrap_or(&[]);
            match classify(chain) {
                Shape::Map => {
                    o.map_vars.insert(p.clone());
                }
                Shape::SeqOfMaps => {
                    o.seq_vars.insert(p.clone());
                }
                // Slices, vecs, iterators: order inherited from the
                // caller.
                _ => {
                    o.cx.vars.insert(p.clone(), Val::Param(i));
                }
            }
            if chain.iter().any(|id| FLOAT_TYPES.contains(&id.as_str())) {
                o.float_vars.insert(p.clone());
            }
        }
        o
    }

    /// Walks the body; the emitting pass also checks rule 11.
    fn run(mut self) -> OrderSummary {
        flow::walk_body(&mut self);
        let cx = &mut self.cx;
        if let Some(e) = cx.emit.as_deref_mut() {
            sched_check(cx.fd, cx.cg, cx.me, e);
        }
        OrderSummary { ret: self.cx.ret, emits: self.emits, param_sinks: self.cx.param_sinks }
    }

    /// True when the let-RHS region evidently produces an unordered
    /// container: `FastMap::default()`, `fast_map_with_capacity(…)`, a
    /// `.clone()` of a map var, or a call resolving (over-approximately,
    /// for typing only) to fns that all return an unordered container.
    fn rhs_is_map(&self, a: usize, b: usize) -> bool {
        let toks = self.cx.toks();
        let mut j = a;
        while j < b && (toks[j].is_punct('&') || toks[j].ident() == Some("mut")) {
            j += 1;
        }
        // `m` / `m.clone()` for a known map var.
        if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
            if self.map_vars.contains(name) {
                let bare = j + 1 >= b;
                let cloned = toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && toks.get(j + 2).is_some_and(|t| t.ident() == Some("clone"));
                if bare || cloned {
                    return true;
                }
            }
        }
        for k in j..b {
            let t = &toks[k];
            if let Some(id) = t.ident() {
                if UNORDERED.contains(&id)
                    && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                {
                    return true;
                }
                if UNORDERED_CTORS.contains(&id) {
                    return true;
                }
            }
            if let Some(site) = callgraph::call_at(toks, k) {
                let callees = self.cx.cg.resolve(self.cx.me, &site);
                if !callees.is_empty()
                    && callees.iter().all(|&c| classify(&self.cx.cg.fns[c].ret_chain) == Shape::Map)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Evaluates a `for`-loop domain region. Returns the domain's order
    /// provenance plus whether the loop *binder* is itself an unordered
    /// container (iterating a `Vec<FastMap<…>>`).
    fn domain(&mut self, a: usize, open: usize) -> (Val, bool) {
        let toks = self.cx.toks();
        let mut j = a;
        while j < open && (toks[j].is_punct('&') || toks[j].ident() == Some("mut")) {
            j += 1;
        }
        // Resolve a bare base: `var` or `self.field`.
        let (shape, base_end, origin) = self.base_at(j);
        match shape {
            Shape::Map => {
                if base_end >= open {
                    // `for (k, v) in &map` — direct unordered iteration.
                    return (Val::Bad(origin), false);
                }
                // `for k in map.keys().…` — source plus adapter chain.
                if let Some((m, margs)) = method_after(toks, base_end - 1) {
                    if ITER_SOURCES.contains(&m) {
                        let mclose = syntax::match_delim(toks, margs);
                        let origin = origin.replacen(" in ", &format!(".{m}() in "), 1);
                        let v = self.chain(Val::Bad(origin), mclose + 1, open);
                        return (v, false);
                    }
                }
                return (self.eval(j, open), false);
            }
            Shape::SeqOfMaps => {
                // `for map in &self.per_rnet` (or `.iter()` on it): the
                // sequence iterates deterministically, the binder is an
                // unordered container.
                return (Val::Clean, true);
            }
            _ => {}
        }
        (self.eval(j, open), false)
    }

    /// The shape of the bare base expression at `j`: `(shape, tokens
    /// consumed through, origin description)`. `Shape::Other` with
    /// `base_end == j` means "no typed base here".
    fn base_at(&self, j: usize) -> (Shape, usize, String) {
        let toks = self.cx.toks();
        let line = toks.get(j).map_or(0, |t| t.line);
        if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
            if name == "self"
                && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 2).is_some_and(|t| t.ident().is_some())
            {
                let field = toks[j + 2].ident().unwrap_or_default();
                let chain = self.cx.cg.fns[self.cx.me]
                    .self_type
                    .as_deref()
                    .and_then(|t| self.cx.cg.field_chain(t, field))
                    .unwrap_or(&[]);
                let shape = classify(chain);
                let origin = format!(
                    "self.{field} ({}) in {} ({}:{line})",
                    chain.first().map(String::as_str).unwrap_or("?"),
                    self.cx.cg.qualified(self.cx.me),
                    self.cx.fd.path,
                );
                return (shape, j + 3, origin);
            }
            let prev_is_dot = j > 0 && toks[j - 1].is_punct('.');
            if !prev_is_dot {
                if self.map_vars.contains(name) {
                    let origin = format!(
                        "`{name}` in {} ({}:{line})",
                        self.cx.cg.qualified(self.cx.me),
                        self.cx.fd.path
                    );
                    return (Shape::Map, j + 1, origin);
                }
                if self.seq_vars.contains(name) {
                    return (Shape::SeqOfMaps, j + 1, String::new());
                }
            }
        }
        (Shape::Other, j, String::new())
    }

    /// Recognizes an iteration source rooted at a typed unordered
    /// container at token `j`: `map.keys(`, `self.field.iter(`,
    /// `map.drain(`. Returns `(origin, index after the source call's
    /// close paren)`.
    fn map_iter_at(&self, j: usize, b: usize) -> Option<(String, usize)> {
        let toks = self.cx.toks();
        if j > 0 && toks[j - 1].is_punct('.') {
            return None;
        }
        let (shape, base_end, origin_base) = self.base_at(j);
        if shape != Shape::Map || base_end >= b {
            return None;
        }
        let (m, margs) = method_after(toks, base_end - 1)?;
        if !ITER_SOURCES.contains(&m) {
            return None;
        }
        let mclose = syntax::match_delim(toks, margs);
        if mclose >= b {
            return None;
        }
        let origin = origin_base.replacen(" in ", &format!(".{m}() in "), 1);
        Some((origin, mclose + 1))
    }

    /// Walks a method chain after an iteration source, tracking how the
    /// stream's order evolves: adapters preserve it, sorts and BTree
    /// collects fix it, clean reducers terminate it, float reductions
    /// fire rule 10.
    fn chain(&mut self, mut cur: Val, mut k: usize, b: usize) -> Val {
        let toks = self.cx.toks();
        while k + 1 < b && toks[k].is_punct('.') {
            let Some(m) = toks[k + 1].ident() else { break };
            let line = toks[k + 1].line;
            // Optional turbofish: `collect::<BTreeMap<…>>(`,
            // `sum::<f64>(`.
            let mut p = k + 2;
            let mut turbofish: Vec<String> = Vec::new();
            if toks.get(p).is_some_and(|t| t.is_punct(':'))
                && toks.get(p + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(p + 2).is_some_and(|t| t.is_punct('<'))
            {
                let mut angle = 1i64;
                let mut q = p + 3;
                while q < b && angle > 0 {
                    if toks[q].is_punct('<') {
                        angle += 1;
                    } else if toks[q].is_punct('>') && !toks[q - 1].is_punct('-') {
                        angle -= 1;
                    } else if let Some(id) = toks[q].ident() {
                        turbofish.push(id.to_owned());
                    }
                    q += 1;
                }
                p = q;
            }
            if !toks.get(p).is_some_and(|t| t.is_punct('(')) {
                // A field read in the chain — keep walking.
                k += 2;
                continue;
            }
            let argclose = syntax::match_delim(toks, p);
            if argclose >= b {
                break;
            }
            let args_have = |needle: &str| (p..argclose).any(|q| toks[q].ident() == Some(needle));
            if SORTS.contains(&m) {
                if let Val::Bad(o) = cur {
                    cur = Val::Fixed(o, format!("{m}()"));
                }
            } else if m == "collect"
                && turbofish.iter().any(|id| id == "BTreeMap" || id == "BTreeSet")
            {
                if let Val::Bad(o) = cur {
                    cur = Val::Fixed(o, "BTreeMap rebind".to_owned());
                }
            } else if m == "sum" && turbofish.iter().any(|id| FLOAT_TYPES.contains(&id.as_str())) {
                self.float_event(
                    cur.clone(),
                    format!(
                        "float `.sum()` at {}:{line} in {}",
                        self.cx.fd.path,
                        self.cx.cg.qualified(self.cx.me)
                    ),
                    line,
                );
                cur = Val::Clean;
            } else if matches!(m, "min_by" | "max_by" | "min_by_key" | "max_by_key") {
                if args_have("total_cmp") {
                    // The sanctioned deterministic tie-break.
                    if let Val::Bad(o) = cur {
                        cur = Val::Fixed(o, "total_cmp tie-break".to_owned());
                    }
                } else if args_have("partial_cmp") {
                    self.float_event(
                        cur.clone(),
                        format!(
                            "float `.{m}(partial_cmp)` at {}:{line} in {}",
                            self.cx.fd.path,
                            self.cx.cg.qualified(self.cx.me)
                        ),
                        line,
                    );
                    cur = Val::Clean;
                }
            } else if CLEAN_REDUCERS.contains(&m) {
                // Order-insensitive terminal reduction.
                cur = Val::Clean;
            }
            // Everything else (map/filter/collect/copied/enumerate/…)
            // preserves the stream's order provenance.
            k = argclose + 1;
        }
        cur
    }

    /// Applies a call's summaries: order-sink args, emitted-bytes
    /// propagation, return-order mapping, parameter sinks.
    fn eval_call(&mut self, site: &callgraph::CallSite, close: usize) -> (Val, bool) {
        let toks = self.cx.toks();
        if EMIT_PRIMS.contains(&site.name.as_str()) {
            self.emits = true;
            // Let the argument region be walked normally.
            return (Val::Clean, false);
        }
        let callees = self.cx.cg.resolve_confident(self.cx.me, site);
        if callees.is_empty() {
            return (Val::Clean, false);
        }
        let args = callgraph::split_args(toks, site.args_open, close);
        if callees.iter().any(|&c| self.cx.cg.fns[c].order_sink) {
            self.emits = true;
            let cid = callees.iter().copied().find(|&c| self.cx.cg.fns[c].order_sink).unwrap_or(0);
            for (i, &(x, y)) in args.iter().enumerate() {
                let av = self.eval(x, y);
                let desc = format!(
                    "order-sensitive commit {} (arg {}) at {}:{}",
                    self.cx.cg.qualified(cid),
                    i + 1,
                    self.cx.fd.path,
                    site.line
                );
                self.cx.reach(av, desc, site.line, &UNORDERED_ITER);
            }
            return (Val::Clean, true);
        }
        let arg_vals: Vec<Val> = args.iter().map(|&(x, y)| self.eval(x, y)).collect();
        let mut out = Val::Clean;
        for &cid in &callees {
            let sum = self.sums[cid].clone();
            if sum.emits {
                self.emits = true;
            }
            let rv = match sum.ret {
                Val::Param(p) => arg_vals.get(p).cloned().unwrap_or(Val::Clean),
                other => other,
            };
            out = Val::merge(out, rv);
            for (p, desc) in &sum.param_sinks {
                if let Some(av) = arg_vals.get(*p) {
                    self.cx.reach(av.clone(), desc.clone(), site.line, &UNORDERED_ITER);
                }
            }
        }
        (out, true)
    }

    /// The innermost open unordered-loop origin covering token `j`.
    fn loop_origin(&mut self, j: usize) -> Option<String> {
        self.loop_ctx.retain(|&(close, _)| j < close);
        self.loop_ctx.last().map(|(_, o)| o.clone())
    }

    /// The first byte-output event in a loop body, as a sink description.
    fn body_emission(&mut self, open: usize, close: usize) -> Option<String> {
        let toks = self.cx.toks();
        for k in open..close {
            let Some(site) = callgraph::call_at(toks, k) else { continue };
            if EMIT_PRIMS.contains(&site.name.as_str()) {
                return Some(format!(
                    "byte output (`{}`) at {}:{} in {}",
                    site.name,
                    self.cx.fd.path,
                    site.line,
                    self.cx.cg.qualified(self.cx.me)
                ));
            }
            let callees = self.cx.cg.resolve_confident(self.cx.me, &site);
            if let Some(&c) =
                callees.iter().find(|&&c| self.cx.cg.fns[c].order_sink || self.sums[c].emits)
            {
                return Some(format!(
                    "order-observable call to {} at {}:{} in {}",
                    self.cx.cg.qualified(c),
                    self.cx.fd.path,
                    site.line,
                    self.cx.cg.qualified(self.cx.me)
                ));
            }
        }
        None
    }

    /// Float-accumulation events in a loop body: `acc += …` on a float
    /// accumulator, plus the chain-level reductions (which `chain`
    /// catches when the stream is inline, and this scan catches when the
    /// accumulation is written as loop statements).
    fn body_float_events(&self, open: usize, close: usize) -> Vec<(String, u32)> {
        let toks = self.cx.toks();
        let mut out = Vec::new();
        for k in open..close {
            let Some(name) = toks[k].ident() else { continue };
            if self.float_vars.contains(name)
                && toks.get(k + 1).is_some_and(|t| t.is_punct('+') || t.is_punct('*'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct('='))
            {
                out.push((
                    format!(
                        "float accumulation `{name} {}=` at {}:{} in {}",
                        if toks[k + 1].is_punct('+') { "+" } else { "*" },
                        self.cx.fd.path,
                        toks[k].line,
                        self.cx.cg.qualified(self.cx.me)
                    ),
                    toks[k].line,
                ));
            }
        }
        out
    }

    /// A float accumulation saw domain provenance `v` (rule 10).
    fn float_event(&mut self, v: Val, desc: String, line: u32) {
        let desc = match v {
            Val::Param(_) => format!("{desc} (float reduction)"),
            _ => desc,
        };
        self.cx.reach(v, desc, line, &FLOAT_ORDER);
    }
}

impl<'a> Walk<'a> for Order<'a> {
    fn cx(&mut self) -> &mut FnCx<'a> {
        &mut self.cx
    }

    /// The ascription decides the binding when it names a container;
    /// otherwise the RHS types it, or it takes the RHS's order.
    fn bind_let(
        &mut self,
        binders: Vec<String>,
        ascription: Option<(usize, usize)>,
        rhs: (usize, usize),
        v: Val,
    ) {
        let chain =
            ascription.map(|(a, b)| ascription_chain(self.cx.toks(), a, b)).unwrap_or_default();
        if chain.iter().any(|id| FLOAT_TYPES.contains(&id.as_str())) {
            self.float_vars.extend(binders.iter().cloned());
        }
        match classify(&chain) {
            Shape::Map => self.map_vars.extend(binders),
            Shape::SeqOfMaps => self.seq_vars.extend(binders),
            Shape::BTree => {
                // A BTree rebind of an unordered stream is sorted.
                let nv = match v {
                    Val::Bad(o) => Val::Fixed(o, "BTreeMap rebind".to_owned()),
                    other => other,
                };
                self.cx.bind(binders, nv);
            }
            // No deciding ascription: type the binding from the RHS — a
            // known constructor, a map-var alias, or a callee whose
            // return type is an unordered container.
            Shape::Other if self.rhs_is_map(rhs.0, rhs.1) => self.map_vars.extend(binders),
            Shape::Other => self.cx.bind(binders, v),
        }
    }

    fn for_loop(&mut self, head: usize, binders: Vec<String>, start: usize, open: usize) {
        let toks = self.cx.toks();
        let close = syntax::match_delim(toks, open);
        let line = toks[head].line;
        let (v, elem_is_map) = self.domain(start, open);
        if elem_is_map {
            self.map_vars.extend(binders);
        } else {
            self.cx.bind(binders, Val::Clean);
        }
        // Scan the loop body for order-observable events before the
        // statements inside are walked individually.
        let emission = self.body_emission(open, close);
        let floats = self.body_float_events(open, close);
        if let Some(sink) = emission {
            self.cx.reach(v.clone(), sink, line, &UNORDERED_ITER);
        }
        for (desc, fline) in floats {
            self.float_event(v.clone(), desc, fline);
        }
        if let Val::Bad(o) = &v {
            // Pushes into locals inside this body inherit the domain's
            // unorderedness.
            self.loop_ctx.push((close, o.clone()));
        }
    }

    fn assign(&mut self, name: &str, rhs: (usize, usize)) -> bool {
        let is_map = self.rhs_is_map(rhs.0, rhs.1);
        if is_map {
            self.map_vars.insert(name.to_owned());
        }
        is_map
    }

    /// The expression walker: merges order-provenance contributions,
    /// resolves calls against summaries, and fires sinks.
    fn eval(&mut self, a: usize, b: usize) -> Val {
        let toks = self.cx.toks();
        let mut val = Val::Clean;
        let mut j = a;
        while j < b {
            let t = &toks[j];
            // An unordered-container iteration source: `map.keys()…`,
            // `self.objects.values()…`.
            if let Some((origin, after)) = self.map_iter_at(j, b) {
                let v = self.chain(Val::Bad(origin), after, b);
                val = Val::merge(val, v);
                j = after;
                continue;
            }
            if let Some(site) = callgraph::call_at(toks, j) {
                let close = syntax::match_delim(toks, site.args_open);
                if close < b {
                    let (c, skip) = self.eval_call(&site, close);
                    val = Val::merge(val, c);
                    j = if skip { close + 1 } else { site.args_open + 1 };
                    continue;
                }
            }
            if let Some(name) = t.ident() {
                let is_field =
                    j > 0 && toks[j - 1].is_punct('.') && !(j >= 2 && toks[j - 2].is_punct('.'));
                if !is_field {
                    if let Some(v) = self.cx.vars.get(name).cloned() {
                        if let Some((m, margs)) = method_after(toks, j) {
                            if SORTS.contains(&m) {
                                // `v.sort_unstable()` fixes the order.
                                let nv = match v {
                                    Val::Bad(o) => Val::Fixed(o, format!("{m}()")),
                                    // A sorted Param domain is
                                    // deterministic regardless of the
                                    // caller's ordering.
                                    Val::Param(_) => Val::Clean,
                                    other => other,
                                };
                                self.cx.vars.insert(name.to_owned(), nv);
                                let mclose = syntax::match_delim(toks, margs);
                                j = mclose + 1;
                                continue;
                            }
                            if SEQ_MUTATORS.contains(&m) {
                                // Inside an unordered loop, `out.push(x)`
                                // orders `out` by the loop's domain.
                                if let Some(origin) = self.loop_origin(j) {
                                    let nv = Val::merge(v.clone(), Val::Bad(origin.clone()));
                                    self.cx.vars.insert(name.to_owned(), nv);
                                }
                                // And pushing an unordered stream into a
                                // sequence makes the sequence unordered.
                                let mclose = syntax::match_delim(toks, margs);
                                if mclose < b {
                                    let av = self.eval(margs + 1, mclose);
                                    let cur = self.cx.vars.get(name).cloned().unwrap_or(Val::Clean);
                                    self.cx.vars.insert(name.to_owned(), Val::merge(cur, av));
                                    j = mclose + 1;
                                    continue;
                                }
                            }
                        }
                        val = Val::merge(val, v);
                    }
                }
            }
            j += 1;
        }
        val
    }
}

/// Rule 11: scheduling-dependence inside `std::thread::scope` fan-outs.
/// Results must land in index-addressed slots or be joined in spawn
/// order — never consumed in thread-completion order.
fn sched_check(fd: &FileData, cg: &CallGraph, id: FnId, emit: &mut Emit) {
    let info = &cg.fns[id];
    let Some((open, close)) = info.body else { return };
    let toks = &fd.lexed.tokens;
    let scope_at = (open..close).find(|&k| {
        toks[k].ident() == Some("scope") && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
    });
    let Some(scope_at) = scope_at else { return };
    let mut dirty = false;
    for k in open..close {
        let Some(site) = callgraph::call_at(toks, k) else { continue };
        if site.name == "recv" || site.name == "try_recv" {
            if let Some(reason) = fd.markers.ordered_reason_near(site.line) {
                emit.verdicts.insert(Verdict {
                    source: format!(
                        "thread::scope fan-out in {} ({}:{})",
                        cg.qualified(id),
                        fd.path,
                        toks[scope_at].line
                    ),
                    sanitizer: format!("marker: {reason}"),
                    sink: format!("channel receive at {}:{}", fd.path, site.line),
                });
            } else {
                dirty = true;
                emit.findings.insert(Finding {
                    file: fd.path.clone(),
                    line: site.line,
                    rule: "sched-order",
                    message: format!(
                        "`{}()` near a thread::scope fan-out consumes results in \
                         thread-completion order; deposit into index-addressed slots \
                         (the chunks_mut pattern) and commit in deterministic order, or \
                         mark `// roadlint: ordered reason=\"…\"`",
                        site.name
                    ),
                });
            }
        }
        if site.name == "lock" {
            // `….lock()…push(…)` within the same statement: a shared
            // Vec accumulates in completion order.
            let end = syntax::stmt_semi(toks, k);
            let pushes = (k..end).any(|q| {
                toks[q].ident() == Some("push") && toks.get(q + 1).is_some_and(|t| t.is_punct('('))
            });
            if pushes && fd.markers.ordered_reason_near(site.line).is_none() {
                dirty = true;
                emit.findings.insert(Finding {
                    file: fd.path.clone(),
                    line: site.line,
                    rule: "sched-order",
                    message: "`lock().…push(…)` inside a thread::scope fan-out accumulates \
                              in thread-completion order; deposit into index-addressed \
                              slots instead, or mark `// roadlint: ordered reason=\"…\"`"
                        .to_owned(),
                });
            }
        }
    }
    if dirty {
        return;
    }
    // The fan-out is clean: record which sanctioned shape it uses.
    let sanitizer = if (open..close).any(|k| toks[k].ident() == Some("chunks_mut")) {
        Some("indexed per-slot deposit (chunks_mut)")
    } else if (open..close).any(|k| {
        toks[k].ident() == Some("join") && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
    }) {
        Some("worker handles joined in spawn order")
    } else {
        None
    };
    if let Some(sanitizer) = sanitizer {
        emit.verdicts.insert(Verdict {
            source: format!(
                "thread::scope fan-out in {} ({}:{})",
                cg.qualified(id),
                fd.path,
                toks[scope_at].line
            ),
            sanitizer: sanitizer.to_owned(),
            sink: format!("deterministic commit order in {}", cg.qualified(id)),
        });
    }
}

/// The uppercase idents of a let-ascription region, in order.
fn ascription_chain(toks: &[Token], a: usize, b: usize) -> Vec<String> {
    toks.iter()
        .take(b)
        .skip(a)
        .filter_map(|t| t.ident())
        .filter(|id| {
            id.starts_with(|c: char| c.is_ascii_uppercase()) || id == &"f64" || id == &"f32"
        })
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(srcs: &[(&str, &str)]) -> (Vec<Finding>, Vec<Verdict>) {
        let files: Vec<FileData> = srcs.iter().map(|(p, s)| FileData::new(p, s)).collect();
        let cg = CallGraph::build(&files);
        check(&files, &cg)
    }

    #[test]
    fn unordered_loop_emitting_bytes_is_found() {
        let (f, _) = run(&[(
            "t.rs",
            "fn dump(out: &mut Vec<u8>) {
                 let map: FastMap<u32, u32> = FastMap::default();
                 for k in map.keys() { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-iter");
    }

    #[test]
    fn collect_sort_then_emit_is_a_verdict() {
        let (f, v) = run(&[(
            "t.rs",
            "fn dump(map: &FastMap<u32, u32>, out: &mut Vec<u8>) {
                 let mut keys: Vec<u32> = map.keys().copied().collect();
                 keys.sort_unstable();
                 for k in keys { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].sanitizer.contains("sort_unstable"), "{v:?}");
        assert!(v[0].source.contains("keys()"), "{v:?}");
    }

    #[test]
    fn btree_rebind_and_marker_escape_are_verdicts() {
        let (f, v) = run(&[(
            "t.rs",
            "fn dump(map: &FastMap<u32, u32>, out: &mut Vec<u8>) {
                 let sorted: BTreeMap<u32, u32> =
                     map.iter().map(|(k, v)| (*k, *v)).collect();
                 for (k, _) in &sorted { out.extend_from_slice(&k.to_le_bytes()); }
                 // roadlint: ordered reason=\"xor fold is commutative\"
                 for k in map.keys() { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("BTreeMap rebind")), "{v:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("marker")), "{v:?}");
    }

    #[test]
    fn float_accumulation_over_unordered_domain_is_found() {
        let (f, _) = run(&[(
            "t.rs",
            "fn total(map: &FastMap<u32, f64>) -> f64 {
                 let mut sum: f64 = 0.0;
                 for v in map.values() { sum += v; }
                 sum
             }
             fn total2(map: &FastMap<u32, f64>) -> f64 {
                 map.values().copied().sum::<f64>()
             }",
        )]);
        assert_eq!(f.iter().filter(|x| x.rule == "float-order").count(), 2, "{f:?}");
    }

    #[test]
    fn integer_reductions_and_sorted_floats_are_quiet() {
        let (f, _) = run(&[(
            "t.rs",
            "fn count(map: &FastMap<u32, u32>) -> usize {
                 let mut n = 0usize;
                 for list in map.values() { n += list.count_ones() as usize; }
                 n + map.keys().count()
             }
             fn total(map: &FastMap<u32, f64>) -> f64 {
                 let mut vals: Vec<f64> = map.values().copied().collect();
                 vals.sort_by(|a, b| a.total_cmp(b));
                 let mut sum: f64 = 0.0;
                 for v in vals { sum += v; }
                 sum
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn order_sink_marker_makes_args_sinks() {
        let (f, v) = run(&[(
            "t.rs",
            "struct Store;
             impl Store {
                 // roadlint: order-sink
                 fn commit(&mut self, ids: &[u32]) {}
             }
             fn bad(store: &mut Store, map: &FastMap<u32, u32>) {
                 let ids: Vec<u32> = map.keys().copied().collect();
                 store.commit(&ids);
             }
             fn good(store: &mut Store, map: &FastMap<u32, u32>) {
                 let mut ids: Vec<u32> = map.keys().copied().collect();
                 ids.sort_unstable();
                 store.commit(&ids);
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-iter");
        assert!(f[0].message.contains("Store::commit"), "{f:?}");
        assert!(v.iter().any(|r| r.sink.contains("Store::commit")), "{v:?}");
    }

    #[test]
    fn cross_file_unordered_chain_needs_both_files() {
        let emitter = "pub fn emit_all(keys: &[u32], out: &mut Vec<u8>) {
                           for k in keys { out.extend_from_slice(&k.to_le_bytes()); }
                       }";
        let caller = "pub fn dump(map: &FastMap<u32, u64>, out: &mut Vec<u8>) {
                          let keys: Vec<u32> = map.keys().copied().collect();
                          emit_all(&keys, out);
                      }";
        let (f, _) = run(&[("emitter.rs", emitter), ("caller.rs", caller)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "caller.rs");
        assert!(f[0].message.contains("emit_all"), "{f:?}");
        // Each file alone is clean: the chain only exists across both.
        let (fa, _) = run(&[("emitter.rs", emitter)]);
        let (fb, _) = run(&[("caller.rs", caller)]);
        assert!(fa.is_empty() && fb.is_empty(), "{fa:?} {fb:?}");
    }

    #[test]
    fn seq_of_maps_iterates_deterministically_but_elements_do_not() {
        let (f, v) = run(&[(
            "t.rs",
            "struct Store { per: Vec<Arc<FastMap<u32, u32>>> }
             impl Store {
                 fn dump(&self, out: &mut Vec<u8>) {
                     for map in &self.per {
                         let mut ks: Vec<u32> = map.keys().copied().collect();
                         ks.sort_unstable();
                         for k in ks { out.extend_from_slice(&k.to_le_bytes()); }
                     }
                 }
                 fn bad(&self, out: &mut Vec<u8>) {
                     for map in &self.per {
                         for k in map.keys() { out.extend_from_slice(&k.to_le_bytes()); }
                     }
                 }
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("keys()"), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("sort_unstable")), "{v:?}");
    }

    #[test]
    fn scope_fanout_shapes() {
        let (f, v) = run(&[(
            "t.rs",
            "fn good(queries: &[u32]) -> Vec<u32> {
                 let mut out = Vec::new();
                 std::thread::scope(|scope| {
                     let workers: Vec<_> =
                         queries.chunks(4).map(|c| scope.spawn(move || c.len() as u32)).collect();
                     for w in workers { out.push(w.join().unwrap()); }
                 });
                 out
             }
             fn bad(queries: &[u32]) -> Vec<u32> {
                 let (tx, rx) = std::sync::mpsc::channel();
                 std::thread::scope(|scope| {
                     for q in queries {
                         let tx = tx.clone();
                         scope.spawn(move || tx.send(*q));
                     }
                 });
                 let mut out = Vec::new();
                 while let Ok(x) = rx.recv() { out.push(x); }
                 out
             }",
        )]);
        let sched: Vec<_> = f.iter().filter(|x| x.rule == "sched-order").collect();
        assert_eq!(sched.len(), 1, "{f:?}");
        assert!(sched[0].message.contains("recv"), "{sched:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("joined in spawn order")), "{v:?}");
    }

    #[test]
    fn push_inside_unordered_loop_then_sort_is_clean() {
        let (f, v) = run(&[(
            "t.rs",
            "fn dump(map: &FastMap<u32, u32>, out: &mut Vec<u8>) {
                 let mut all = Vec::new();
                 for k in map.keys() { all.push(*k); }
                 all.sort_unstable();
                 for k in all { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("sort_unstable")), "{v:?}");
    }
}
