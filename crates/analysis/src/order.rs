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
use crate::lexer::Token;
use crate::syntax;
use crate::{FileData, Finding};
use std::collections::{BTreeMap, BTreeSet};

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

/// Order provenance of one value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OVal {
    /// Deterministic order (or not an iteration-ordered value at all).
    Ordered,
    /// Hash-unordered origin whose order was fixed: `(origin, sanitizer)`.
    Sorted(String, String),
    /// Order inherited from parameter `i` of the enclosing fn.
    Param(usize),
    /// Hash-unordered, with the origin description.
    Unordered(String),
}

impl OVal {
    fn rank(&self) -> u8 {
        match self {
            OVal::Ordered => 0,
            OVal::Sorted(..) => 1,
            OVal::Param(_) => 2,
            OVal::Unordered(_) => 3,
        }
    }

    /// Worst-wins merge; ties keep the first operand (scan order is
    /// deterministic, so summaries converge).
    fn merge(a: OVal, b: OVal) -> OVal {
        if b.rank() > a.rank() {
            b
        } else {
            a
        }
    }
}

/// Return-order provenance of a function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum ORet {
    #[default]
    Ordered,
    FromParam(usize),
    Sorted(String, String),
    Unordered(String),
}

/// The interprocedural summary of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrderSummary {
    ret: ORet,
    /// Calling this fn produces externally visible byte output or an
    /// order-sensitive commit — calls to it inside a loop make the
    /// loop's iteration order observable.
    emits: bool,
    /// Parameters whose iteration order reaches a sink inside this fn
    /// (or transitively), with the sink's description.
    param_sinks: BTreeSet<(usize, String)>,
}

/// One row of the order verdict table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderVerdict {
    pub source: String,
    pub sanitizer: String,
    pub sink: String,
}

#[derive(Default)]
struct Emit {
    findings: BTreeSet<Finding>,
    verdicts: BTreeSet<OrderVerdict>,
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
pub fn check(files: &[FileData], cg: &CallGraph) -> (Vec<Finding>, Vec<OrderVerdict>) {
    let mut sums: Vec<OrderSummary> = vec![OrderSummary::default(); cg.fns.len()];
    for _ in 0..12 {
        let mut changed = false;
        for id in 0..cg.fns.len() {
            if cg.fns[id].in_test_mod || cg.fns[id].body.is_none() {
                continue;
            }
            let s = FnCx::new(files, cg, id, &sums, None).run();
            if s != sums[id] {
                sums[id] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut emit = Emit::default();
    for id in 0..cg.fns.len() {
        if cg.fns[id].in_test_mod || cg.fns[id].body.is_none() {
            continue;
        }
        FnCx::new(files, cg, id, &sums, Some(&mut emit)).run();
        sched_check(files, cg, id, &mut emit);
    }
    (emit.findings.into_iter().collect(), emit.verdicts.into_iter().collect())
}

/// The per-function order-dataflow engine.
struct FnCx<'a> {
    cg: &'a CallGraph,
    sums: &'a [OrderSummary],
    me: FnId,
    fd: &'a FileData,
    /// Locals that *are* unordered containers (iterating them is the
    /// source event; using them by key is not).
    map_vars: BTreeSet<String>,
    /// Locals that are ordered sequences of unordered containers:
    /// iterating them binds map-typed elements.
    seq_vars: BTreeSet<String>,
    /// Float accumulators (by ascription).
    float_vars: BTreeSet<String>,
    /// Order provenance of iteration-derived locals.
    vars: BTreeMap<String, OVal>,
    /// Open unordered-loop contexts as `(body_close, origin)`: pushes
    /// into a `Vec` inside such a loop order it by the loop's domain.
    loop_ctx: Vec<(usize, String)>,
    ret: OVal,
    emits: bool,
    param_sinks: BTreeSet<(usize, String)>,
    emit: Option<&'a mut Emit>,
}

impl<'a> FnCx<'a> {
    fn new(
        files: &'a [FileData],
        cg: &'a CallGraph,
        me: FnId,
        sums: &'a [OrderSummary],
        emit: Option<&'a mut Emit>,
    ) -> FnCx<'a> {
        let info = &cg.fns[me];
        let mut cx = FnCx {
            cg,
            sums,
            me,
            fd: &files[info.file_idx],
            map_vars: BTreeSet::new(),
            seq_vars: BTreeSet::new(),
            float_vars: BTreeSet::new(),
            vars: BTreeMap::new(),
            loop_ctx: Vec::new(),
            ret: OVal::Ordered,
            emits: info.order_sink,
            param_sinks: BTreeSet::new(),
            emit,
        };
        for (i, p) in info.params.iter().enumerate() {
            let chain = info.param_chains.get(i).map(Vec::as_slice).unwrap_or(&[]);
            match classify(chain) {
                Shape::Map => {
                    cx.map_vars.insert(p.clone());
                }
                Shape::SeqOfMaps => {
                    cx.seq_vars.insert(p.clone());
                }
                // Slices, vecs, iterators: order inherited from the
                // caller.
                _ => {
                    cx.vars.insert(p.clone(), OVal::Param(i));
                }
            }
            if chain.iter().any(|id| FLOAT_TYPES.contains(&id.as_str())) {
                cx.float_vars.insert(p.clone());
            }
        }
        cx
    }

    fn toks(&self) -> &'a [Token] {
        &self.fd.lexed.tokens
    }

    fn run(mut self) -> OrderSummary {
        if let Some((bs, be)) = self.cg.fns[self.me].body {
            self.stmts(bs + 1, be);
        }
        let ret = match self.ret {
            OVal::Ordered => ORet::Ordered,
            OVal::Param(p) => ORet::FromParam(p),
            OVal::Sorted(o, s) => ORet::Sorted(o, s),
            OVal::Unordered(o) => ORet::Unordered(o),
        };
        OrderSummary { ret, emits: self.emits, param_sinks: self.param_sinks }
    }

    /// Statement-by-statement scan of a block region.
    fn stmts(&mut self, a: usize, b: usize) {
        let mut i = a;
        while i < b {
            let t = &self.toks()[i];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
                i += 1;
                continue;
            }
            match t.ident() {
                Some("let") => i = self.handle_let(i, b),
                Some("for") => i = self.handle_for(i, b),
                Some("if") => i = self.handle_if(i, b),
                Some("while") | Some("match") => {
                    let open = self.find_block_open(i + 1, b);
                    self.eval(i + 1, open);
                    i = open + 1;
                }
                Some("return") => {
                    let (end, _) = self.stmt_limit(i + 1, b);
                    let v = self.eval(i + 1, end);
                    self.ret = OVal::merge(self.ret.clone(), v);
                    i = end + 1;
                }
                Some("else") | Some("loop") | Some("unsafe") => i += 1,
                _ => {
                    let (end, closed) = self.stmt_limit(i, b);
                    let v = self.handle_expr_stmt(i, end);
                    if closed {
                        // Block-final expression: a (possible) tail value.
                        self.ret = OVal::merge(self.ret.clone(), v);
                    }
                    i = end + 1;
                }
            }
        }
    }

    /// End of the statement starting at `a` (same shape as the taint
    /// pass): the depth-0 `;` or match-arm `,`, or the enclosing `}`.
    fn stmt_limit(&self, a: usize, b: usize) -> (usize, bool) {
        let mut depth = 0i64;
        let mut j = a;
        while j < b {
            let t = &self.toks()[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return (j, true);
                }
            } else if t.is_punct(';') && depth == 0 {
                return (j, false);
            } else if t.is_punct(',') && depth == 0 {
                return (j, true);
            }
            j += 1;
        }
        (b, true)
    }

    /// The `{` opening the body of an `if`/`for`/`while`/`match` whose
    /// header starts at `a`.
    fn find_block_open(&self, a: usize, b: usize) -> usize {
        let mut depth = 0i64;
        let mut j = a;
        while j < b {
            let t = &self.toks()[j];
            if t.is_punct('{') {
                if depth == 0 {
                    return j;
                }
                depth += 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            }
            j += 1;
        }
        b
    }

    /// Binder identifiers of a pattern region.
    fn pattern_binders(&self, a: usize, b: usize) -> Vec<String> {
        let mut out = Vec::new();
        for k in a..b {
            if let Some(id) = self.toks()[k].ident() {
                if !matches!(id, "mut" | "ref" | "box" | "self" | "_")
                    && id.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                {
                    out.push(id.to_owned());
                }
            }
        }
        out
    }

    fn handle_let(&mut self, i: usize, b: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i + 1;
        let mut pattern_end = None;
        let mut eq = None;
        while j < b {
            let t = &self.toks()[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth == 0 {
                if t.is_punct(';') {
                    // `let x;` — uninitialized.
                    for bnd in self.pattern_binders(i + 1, j) {
                        self.vars.insert(bnd, OVal::Ordered);
                    }
                    return j + 1;
                }
                if t.is_punct(':')
                    && !self.toks().get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && !(j > 0 && self.toks()[j - 1].is_punct(':'))
                {
                    pattern_end.get_or_insert(j);
                }
                if t.is_punct('=')
                    && !self.toks().get(j + 1).is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
                {
                    // After an ascription, a preceding `>` closes its
                    // generic (`let m: FastMap<u32, u32> = …`), not a
                    // `>=` comparison.
                    let generic_close =
                        pattern_end.is_some() && j > 0 && self.toks()[j - 1].is_punct('>');
                    if generic_close || !(j > 0 && is_cmp_prefix(&self.toks()[j - 1])) {
                        eq = Some(j);
                        break;
                    }
                }
            }
            j += 1;
        }
        let Some(eq) = eq else {
            return j + 1;
        };
        let binders = self.pattern_binders(i + 1, pattern_end.unwrap_or(eq));
        let (end, _) = self.stmt_limit(eq + 1, b);
        let v = self.eval(eq + 1, end);
        // The ascription decides the binding when it names a container.
        let chain =
            pattern_end.map(|pe| ascription_chain(self.toks(), pe + 1, eq)).unwrap_or_default();
        if chain.iter().any(|id| FLOAT_TYPES.contains(&id.as_str())) {
            for bnd in &binders {
                self.float_vars.insert(bnd.clone());
            }
        }
        match classify(&chain) {
            Shape::Map => {
                for bnd in binders {
                    self.map_vars.insert(bnd);
                }
                return end + 1;
            }
            Shape::SeqOfMaps => {
                for bnd in binders {
                    self.seq_vars.insert(bnd);
                }
                return end + 1;
            }
            Shape::BTree => {
                // A BTree rebind of an unordered stream is sorted.
                let nv = match v {
                    OVal::Unordered(o) => OVal::Sorted(o, "BTreeMap rebind".to_owned()),
                    other => other,
                };
                for bnd in binders {
                    self.vars.insert(bnd, nv.clone());
                }
                return end + 1;
            }
            Shape::Other => {}
        }
        // No deciding ascription: type the binding from the RHS — a
        // known constructor, a map-var alias, or a callee whose return
        // type is an unordered container.
        if self.rhs_is_map(eq + 1, end) {
            for bnd in binders {
                self.map_vars.insert(bnd);
            }
            return end + 1;
        }
        for bnd in binders {
            self.vars.insert(bnd, v.clone());
        }
        end + 1
    }

    /// True when the let-RHS region evidently produces an unordered
    /// container: `FastMap::default()`, `fast_map_with_capacity(…)`, a
    /// `.clone()` of a map var, or a call resolving (over-approximately,
    /// for typing only) to fns that all return an unordered container.
    fn rhs_is_map(&self, a: usize, b: usize) -> bool {
        let toks = self.toks();
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
                let callees = self.cg.resolve(self.me, &site);
                if !callees.is_empty()
                    && callees.iter().all(|&c| classify(&self.cg.fns[c].ret_chain) == Shape::Map)
                {
                    return true;
                }
            }
        }
        false
    }

    fn handle_for(&mut self, i: usize, b: usize) -> usize {
        let mut j = i + 1;
        while j < b && self.toks()[j].ident() != Some("in") && !self.toks()[j].is_punct('{') {
            j += 1;
        }
        let binders = self.pattern_binders(i + 1, j);
        let start = j + 1;
        let open = self.find_block_open(start, b);
        let close = syntax::match_delim(self.toks(), open);
        let line = self.toks()[i].line;
        let (v, elem_is_map) = self.domain(start, open);
        if elem_is_map {
            for bnd in binders {
                self.map_vars.insert(bnd);
            }
        } else {
            for bnd in binders {
                self.vars.insert(bnd, OVal::Ordered);
            }
        }
        // Scan the loop body for order-observable events before the
        // statements inside are walked individually.
        let emission = self.body_emission(open, close);
        let floats = self.body_float_events(open, close);
        if let Some(sink) = emission {
            self.order_sink_event(v.clone(), sink, line);
        }
        for (desc, fline) in floats {
            self.float_event(v.clone(), desc, fline);
        }
        if let OVal::Unordered(o) = &v {
            // Pushes into locals inside this body inherit the domain's
            // unorderedness.
            self.loop_ctx.push((close, o.clone()));
        }
        open + 1
    }

    /// Evaluates a `for`-loop domain region. Returns the domain's order
    /// provenance plus whether the loop *binder* is itself an unordered
    /// container (iterating a `Vec<FastMap<…>>`).
    fn domain(&mut self, a: usize, open: usize) -> (OVal, bool) {
        let toks = self.toks();
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
                    return (OVal::Unordered(origin), false);
                }
                // `for k in map.keys().…` — source plus adapter chain.
                if let Some((m, margs)) = method_after_gap(toks, base_end - 1) {
                    if ITER_SOURCES.contains(&m) {
                        let mclose = syntax::match_delim(toks, margs);
                        let origin = origin.replacen(" in ", &format!(".{m}() in "), 1);
                        let v = self.chain(OVal::Unordered(origin), mclose + 1, open);
                        return (v, false);
                    }
                }
                return (self.eval(j, open), false);
            }
            Shape::SeqOfMaps => {
                // `for map in &self.per_rnet` (or `.iter()` on it): the
                // sequence iterates deterministically, the binder is an
                // unordered container.
                return (OVal::Ordered, true);
            }
            _ => {}
        }
        (self.eval(j, open), false)
    }

    /// The shape of the bare base expression at `j`: `(shape, tokens
    /// consumed through, origin description)`. `Shape::Other` with
    /// `base_end == j` means "no typed base here".
    fn base_at(&self, j: usize) -> (Shape, usize, String) {
        let toks = self.toks();
        let line = toks.get(j).map_or(0, |t| t.line);
        if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
            if name == "self"
                && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 2).is_some_and(|t| t.ident().is_some())
            {
                let field = toks[j + 2].ident().unwrap_or_default();
                let chain = self.cg.fns[self.me]
                    .self_type
                    .as_deref()
                    .and_then(|t| self.cg.field_chain(t, field))
                    .unwrap_or(&[]);
                let shape = classify(chain);
                let origin = format!(
                    "self.{field} ({}) in {} ({}:{line})",
                    chain.first().map(String::as_str).unwrap_or("?"),
                    self.cg.qualified(self.me),
                    self.fd.path,
                );
                return (shape, j + 3, origin);
            }
            let prev_is_dot = j > 0 && toks[j - 1].is_punct('.');
            if !prev_is_dot {
                if self.map_vars.contains(name) {
                    let origin = format!(
                        "`{name}` in {} ({}:{line})",
                        self.cg.qualified(self.me),
                        self.fd.path
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

    fn handle_if(&mut self, i: usize, b: usize) -> usize {
        if self.toks().get(i + 1).is_some_and(|t| t.ident() == Some("let")) {
            let open = self.find_block_open(i + 2, b);
            let eq = (i + 2..open).find(|&k| {
                self.toks()[k].is_punct('=')
                    && !self.toks().get(k + 1).is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
                    && !is_cmp_prefix(&self.toks()[k - 1])
            });
            if let Some(eq) = eq {
                let binders = self.pattern_binders(i + 2, eq);
                let v = self.eval(eq + 1, open);
                for bnd in binders {
                    self.vars.insert(bnd, v.clone());
                }
            }
            return open + 1;
        }
        let open = self.find_block_open(i + 1, b);
        self.eval(i + 1, open);
        open + 1
    }

    /// Expression statement: assignment tracking, else plain eval.
    fn handle_expr_stmt(&mut self, a: usize, b: usize) -> OVal {
        let toks = self.toks();
        let mut k = a;
        while k < b && toks[k].is_punct('*') {
            k += 1;
        }
        if let Some(name) = toks.get(k).and_then(|t| t.ident()) {
            let plain = toks.get(k + 1).is_some_and(|t| t.is_punct('='))
                && !toks.get(k + 2).is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
            let compound = toks.get(k + 1).is_some_and(
                |t| matches!(&t.tok, crate::lexer::Tok::Punct(c) if "+-*/%&|^".contains(*c)),
            ) && toks.get(k + 2).is_some_and(|t| t.is_punct('='));
            if plain || compound {
                let eq = if plain { k + 1 } else { k + 2 };
                let v = self.eval(eq + 1, b);
                let name = name.to_owned();
                if self.rhs_is_map(eq + 1, b) {
                    self.map_vars.insert(name);
                    return OVal::Ordered;
                }
                let old = self.vars.get(&name).cloned().unwrap_or(OVal::Ordered);
                let nv = if compound { OVal::merge(old, v) } else { v };
                self.vars.insert(name, nv);
                return OVal::Ordered;
            }
        }
        self.eval(a, b)
    }

    /// The expression walker: merges order-provenance contributions,
    /// resolves calls against summaries, and fires sinks.
    fn eval(&mut self, a: usize, b: usize) -> OVal {
        let mut val = OVal::Ordered;
        let mut j = a;
        while j < b {
            let t = &self.toks()[j];
            // An unordered-container iteration source: `map.keys()…`,
            // `self.objects.values()…`.
            if let Some((origin, after)) = self.map_iter_at(j, b) {
                let v = self.chain(OVal::Unordered(origin), after, b);
                val = OVal::merge(val, v);
                j = after;
                continue;
            }
            if let Some(site) = callgraph::call_at(self.toks(), j) {
                let close = syntax::match_delim(self.toks(), site.args_open);
                if close < b {
                    let (c, skip) = self.eval_call(&site, close);
                    val = OVal::merge(val, c);
                    j = if skip { close + 1 } else { site.args_open + 1 };
                    continue;
                }
            }
            if let Some(name) = t.ident() {
                let is_field = j > 0
                    && self.toks()[j - 1].is_punct('.')
                    && !(j >= 2 && self.toks()[j - 2].is_punct('.'));
                if !is_field {
                    if let Some(v) = self.vars.get(name).cloned() {
                        if let Some((m, margs)) = method_after_gap(self.toks(), j) {
                            if SORTS.contains(&m) {
                                // `v.sort_unstable()` fixes the order.
                                let nv = match v {
                                    OVal::Unordered(o) => OVal::Sorted(o, format!("{m}()")),
                                    // A sorted Param domain is
                                    // deterministic regardless of the
                                    // caller's ordering.
                                    OVal::Param(_) => OVal::Ordered,
                                    other => other,
                                };
                                self.vars.insert(name.to_owned(), nv);
                                let mclose = syntax::match_delim(self.toks(), margs);
                                j = mclose + 1;
                                continue;
                            }
                            if SEQ_MUTATORS.contains(&m) {
                                // Inside an unordered loop, `out.push(x)`
                                // orders `out` by the loop's domain.
                                if let Some(origin) = self.loop_origin(j) {
                                    let nv =
                                        OVal::merge(v.clone(), OVal::Unordered(origin.clone()));
                                    self.vars.insert(name.to_owned(), nv);
                                }
                                // And pushing an unordered stream into a
                                // sequence makes the sequence unordered.
                                let mclose = syntax::match_delim(self.toks(), margs);
                                if mclose < b {
                                    let av = self.eval(margs + 1, mclose);
                                    let cur = self.vars.get(name).cloned().unwrap_or(OVal::Ordered);
                                    self.vars.insert(name.to_owned(), OVal::merge(cur, av));
                                    j = mclose + 1;
                                    continue;
                                }
                            }
                        }
                        val = OVal::merge(val, v);
                    }
                }
            }
            j += 1;
        }
        val
    }

    /// Recognizes an iteration source rooted at a typed unordered
    /// container at token `j`: `map.keys(`, `self.field.iter(`,
    /// `map.drain(`. Returns `(origin, index after the source call's
    /// close paren)`.
    fn map_iter_at(&self, j: usize, b: usize) -> Option<(String, usize)> {
        let toks = self.toks();
        if j > 0 && toks[j - 1].is_punct('.') {
            return None;
        }
        let (shape, base_end, origin_base) = self.base_at(j);
        if shape != Shape::Map || base_end >= b {
            return None;
        }
        let (m, margs) = method_after_gap(toks, base_end - 1)?;
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
    fn chain(&mut self, mut cur: OVal, mut k: usize, b: usize) -> OVal {
        let toks = self.toks();
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
                if let OVal::Unordered(o) = cur {
                    cur = OVal::Sorted(o, format!("{m}()"));
                }
            } else if m == "collect"
                && turbofish.iter().any(|id| id == "BTreeMap" || id == "BTreeSet")
            {
                if let OVal::Unordered(o) = cur {
                    cur = OVal::Sorted(o, "BTreeMap rebind".to_owned());
                }
            } else if m == "sum" && turbofish.iter().any(|id| FLOAT_TYPES.contains(&id.as_str())) {
                self.float_event(
                    cur.clone(),
                    format!(
                        "float `.sum()` at {}:{line} in {}",
                        self.fd.path,
                        self.cg.qualified(self.me)
                    ),
                    line,
                );
                cur = OVal::Ordered;
            } else if matches!(m, "min_by" | "max_by" | "min_by_key" | "max_by_key") {
                if args_have("total_cmp") {
                    // The sanctioned deterministic tie-break.
                    if let OVal::Unordered(o) = cur {
                        cur = OVal::Sorted(o, "total_cmp tie-break".to_owned());
                    }
                } else if args_have("partial_cmp") {
                    self.float_event(
                        cur.clone(),
                        format!(
                            "float `.{m}(partial_cmp)` at {}:{line} in {}",
                            self.fd.path,
                            self.cg.qualified(self.me)
                        ),
                        line,
                    );
                    cur = OVal::Ordered;
                }
            } else if CLEAN_REDUCERS.contains(&m) {
                // Order-insensitive terminal reduction.
                cur = OVal::Ordered;
            }
            // Everything else (map/filter/collect/copied/enumerate/…)
            // preserves the stream's order provenance.
            k = argclose + 1;
        }
        cur
    }

    /// Applies a call's summaries: order-sink args, emitted-bytes
    /// propagation, return-order mapping, parameter sinks.
    fn eval_call(&mut self, site: &callgraph::CallSite, close: usize) -> (OVal, bool) {
        let toks = self.toks();
        if EMIT_PRIMS.contains(&site.name.as_str()) {
            self.emits = true;
            // Let the argument region be walked normally.
            return (OVal::Ordered, false);
        }
        let callees = self.cg.resolve_confident(self.me, site);
        if callees.is_empty() {
            return (OVal::Ordered, false);
        }
        let args = callgraph::split_args(toks, site.args_open, close);
        if callees.iter().any(|&c| self.cg.fns[c].order_sink) {
            self.emits = true;
            let cid = callees.iter().copied().find(|&c| self.cg.fns[c].order_sink).unwrap_or(0);
            for (i, &(x, y)) in args.iter().enumerate() {
                let av = self.eval(x, y);
                let desc = format!(
                    "order-sensitive commit {} (arg {}) at {}:{}",
                    self.cg.qualified(cid),
                    i + 1,
                    self.fd.path,
                    site.line
                );
                self.order_sink_event(av, desc, site.line);
            }
            return (OVal::Ordered, true);
        }
        let arg_vals: Vec<OVal> = args.iter().map(|&(x, y)| self.eval(x, y)).collect();
        let mut out = OVal::Ordered;
        for &cid in &callees {
            let sum = self.sums[cid].clone();
            if sum.emits {
                self.emits = true;
            }
            let rv = match sum.ret {
                ORet::Ordered => OVal::Ordered,
                ORet::Sorted(o, s) => OVal::Sorted(o, s),
                ORet::Unordered(o) => OVal::Unordered(o),
                ORet::FromParam(p) => arg_vals.get(p).cloned().unwrap_or(OVal::Ordered),
            };
            out = OVal::merge(out, rv);
            for (p, desc) in &sum.param_sinks {
                if let Some(av) = arg_vals.get(*p) {
                    self.order_sink_event(av.clone(), desc.clone(), site.line);
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
        let toks = self.toks();
        for k in open..close {
            let Some(site) = callgraph::call_at(toks, k) else { continue };
            if EMIT_PRIMS.contains(&site.name.as_str()) {
                return Some(format!(
                    "byte output (`{}`) at {}:{} in {}",
                    site.name,
                    self.fd.path,
                    site.line,
                    self.cg.qualified(self.me)
                ));
            }
            let callees = self.cg.resolve_confident(self.me, &site);
            if let Some(&c) =
                callees.iter().find(|&&c| self.cg.fns[c].order_sink || self.sums[c].emits)
            {
                return Some(format!(
                    "order-observable call to {} at {}:{} in {}",
                    self.cg.qualified(c),
                    self.fd.path,
                    site.line,
                    self.cg.qualified(self.me)
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
        let toks = self.toks();
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
                        self.fd.path,
                        toks[k].line,
                        self.cg.qualified(self.me)
                    ),
                    toks[k].line,
                ));
            }
        }
        out
    }

    /// An order-sensitive sink saw provenance `v`.
    fn order_sink_event(&mut self, v: OVal, desc: String, line: u32) {
        match v {
            OVal::Ordered => {}
            OVal::Param(p) => {
                self.param_sinks.insert((p, desc));
            }
            OVal::Sorted(o, s) => {
                if let Some(e) = self.emit.as_deref_mut() {
                    e.verdicts.insert(OrderVerdict { source: o, sanitizer: s, sink: desc });
                }
            }
            OVal::Unordered(o) => {
                if let Some(reason) = self.fd.markers.ordered_reason_near(line) {
                    let reason = reason.to_owned();
                    if let Some(e) = self.emit.as_deref_mut() {
                        e.verdicts.insert(OrderVerdict {
                            source: o,
                            sanitizer: format!("marker: {reason}"),
                            sink: desc,
                        });
                    }
                } else if let Some(e) = self.emit.as_deref_mut() {
                    e.findings.insert(Finding {
                        file: self.fd.path.clone(),
                        line,
                        rule: "unordered-iter",
                        message: format!(
                            "hash-ordered iteration from {o} reaches {desc}; sort the domain \
                             first, rebind through a BTreeMap, or mark \
                             `// roadlint: ordered reason=\"…\"`"
                        ),
                    });
                }
            }
        }
    }

    /// A float accumulation saw domain provenance `v` (rule 10).
    fn float_event(&mut self, v: OVal, desc: String, line: u32) {
        match v {
            OVal::Ordered => {}
            OVal::Param(p) => {
                self.param_sinks.insert((p, format!("{desc} (float reduction)")));
            }
            OVal::Sorted(o, s) => {
                if let Some(e) = self.emit.as_deref_mut() {
                    e.verdicts.insert(OrderVerdict { source: o, sanitizer: s, sink: desc });
                }
            }
            OVal::Unordered(o) => {
                if let Some(reason) = self.fd.markers.ordered_reason_near(line) {
                    let reason = reason.to_owned();
                    if let Some(e) = self.emit.as_deref_mut() {
                        e.verdicts.insert(OrderVerdict {
                            source: o,
                            sanitizer: format!("marker: {reason}"),
                            sink: desc,
                        });
                    }
                } else if let Some(e) = self.emit.as_deref_mut() {
                    e.findings.insert(Finding {
                        file: self.fd.path.clone(),
                        line,
                        rule: "float-order",
                        message: format!(
                            "float reduction over the hash-ordered domain {o}: {desc}; \
                             reassociation breaks byte-identical builds — sort the domain, \
                             use integer/total_cmp reductions, or mark \
                             `// roadlint: ordered reason=\"…\"`"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 11: scheduling-dependence inside `std::thread::scope` fan-outs.
/// Results must land in index-addressed slots or be joined in spawn
/// order — never consumed in thread-completion order.
fn sched_check(files: &[FileData], cg: &CallGraph, id: FnId, emit: &mut Emit) {
    let info = &cg.fns[id];
    let Some((open, close)) = info.body else { return };
    let fd = &files[info.file_idx];
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
                emit.verdicts.insert(OrderVerdict {
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
            let end = stmt_semi(toks, k);
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
        emit.verdicts.insert(OrderVerdict {
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

/// `ident . m (` (or `… . m (`) directly after token `j` → `(m, index of
/// the "(")` — the gap variant also accepts `j` pointing at the last
/// token of a longer base like `self.field`.
fn method_after_gap(toks: &[Token], j: usize) -> Option<(&str, usize)> {
    if toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
        let m = toks.get(j + 2)?.ident()?;
        if toks.get(j + 3).is_some_and(|t| t.is_punct('(')) {
            return Some((m, j + 3));
        }
    }
    None
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

/// Index of the `;` ending the statement starting at `a` (depth-aware).
fn stmt_semi(toks: &[Token], a: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(a) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is_punct(';') && depth <= 0 {
            return j;
        }
    }
    toks.len()
}

/// True when `t` makes a following `=` a comparison rather than an
/// assignment.
fn is_cmp_prefix(t: &Token) -> bool {
    t.is_punct('=') || t.is_punct('!') || t.is_punct('<') || t.is_punct('>')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(srcs: &[(&str, &str)]) -> (Vec<Finding>, Vec<OrderVerdict>) {
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
