//! The dataflow engine shared by the taint pass ([`crate::dataflow`],
//! rule 6) and the determinism prover ([`crate::order`], rules 9–11).
//!
//! Both passes are one analysis over two vocabularies: a forward,
//! per-function walk over the token stream that tracks the provenance of
//! let-bound locals through a four-point lattice, with per-function
//! summaries solved to a fixpoint over the workspace call graph. This
//! module owns everything the two share:
//!
//! * the lattice [`Val`], `Clean < Fixed(origin, by) < Param(i) <
//!   Bad(origin)`, with a worst-wins merge. A summary's return value is
//!   the same lattice: `Param(i)` means "derived from parameter `i`".
//!   For taint, `Bad` is *tainted* and `Fixed` *sanitized*; for order,
//!   `Bad` is *hash-unordered* and `Fixed` *sorted*;
//! * the verdict row [`Verdict`] (`source → sanitizer → sink`) and the
//!   [`Emit`] collector;
//! * the solver [`solve`]: summaries to a fixpoint (at most 12 rounds),
//!   then one emitting pass, skipping unit-test and bodiless fns;
//! * the statement walker ([`walk_body`]), generic over the [`Walk`]
//!   hooks each pass supplies: expression evaluation, `let` bindings
//!   with their ascription, `for` domains, `if` guards and assignments;
//! * [`FnCx::reach`], where a value arriving at a sink becomes a
//!   parameter sink, a verdict row or a finding.
//!
//! **The `let` rule.** A `let` statement's initializer starts at its
//! first depth-0 `=` that is neither `==`, `=>` nor the tail of a
//! comparison (`<=`, `>=`, `!=`) — except that after a `:` ascription a
//! `>` just before the `=` closes a generic (`let n: Option<usize> = …`),
//! so that `=` starts the initializer.

use crate::callgraph::{CallGraph, FnId};
use crate::lexer::{Tok, Token};
use crate::markers::Markers;
use crate::syntax::is_cmp_prefix;
use crate::{FileData, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Pattern/binder tokens that are never variable binders.
const NON_BINDERS: &[&str] = &["mut", "ref", "box", "self", "_"];

/// Provenance of one value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Val {
    /// Not derived from a source.
    #[default]
    Clean,
    /// Derived from a source, then fixed: `(origin, by)`.
    Fixed(String, String),
    /// Derived from parameter `i` of the enclosing fn, not fixed.
    Param(usize),
    /// Derived from a source, with the origin description.
    Bad(String),
}

impl Val {
    fn rank(&self) -> u8 {
        match self {
            Val::Clean => 0,
            Val::Fixed(..) => 1,
            Val::Param(_) => 2,
            Val::Bad(_) => 3,
        }
    }

    /// Worst-wins merge; ties keep the first operand (scan order is
    /// deterministic, so summaries converge).
    pub fn merge(a: Val, b: Val) -> Val {
        if b.rank() > a.rank() {
            b
        } else {
            a
        }
    }
}

/// One row of a verdict table: a fixed flow that reached a sink.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Verdict {
    pub source: String,
    pub sanitizer: String,
    pub sink: String,
}

/// What the emitting pass collects.
#[derive(Default)]
pub struct Emit {
    pub findings: BTreeSet<Finding>,
    pub verdicts: BTreeSet<Verdict>,
}

/// How a pass reports a `Bad` value at a sink.
pub struct Rule {
    /// The finding's rule identifier.
    pub name: &'static str,
    /// The reasoned escape marker honoured near the sink's line.
    pub escape: fn(&Markers, u32) -> Option<&str>,
    /// The finding's message from `(origin, sink description)`.
    pub message: fn(&str, &str) -> String,
}

/// Solves per-function summaries `S` to a fixpoint over the call graph,
/// then runs every function once more with emission on. `per_fn` runs
/// one function given its context and the current summaries.
pub fn solve<S: Clone + PartialEq + Default>(
    files: &[FileData],
    cg: &CallGraph,
    mut per_fn: impl FnMut(FnCx<'_>, &[S]) -> S,
) -> (Vec<Finding>, Vec<Verdict>) {
    let live: Vec<FnId> = (0..cg.fns.len())
        .filter(|&id| !cg.fns[id].in_test_mod && cg.fns[id].body.is_some())
        .collect();
    let mut sums = vec![S::default(); cg.fns.len()];
    // The lattice is finite; the cap guards against rank flip-flops in
    // mutually recursive code.
    for _ in 0..12 {
        let mut changed = false;
        for &id in &live {
            let s = per_fn(FnCx::new(files, cg, id, None), &sums);
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
    for &id in &live {
        per_fn(FnCx::new(files, cg, id, Some(&mut emit)), &sums);
    }
    (emit.findings.into_iter().collect(), emit.verdicts.into_iter().collect())
}

/// The state of one function's walk that both passes share.
pub struct FnCx<'a> {
    pub cg: &'a CallGraph,
    pub me: FnId,
    pub fd: &'a FileData,
    /// Provenance of tracked locals.
    pub vars: BTreeMap<String, Val>,
    /// Provenance of the return value.
    pub ret: Val,
    /// Parameters that reach a sink inside this fn (or transitively),
    /// with the sink's description.
    pub param_sinks: BTreeSet<(usize, String)>,
    /// `Some` in the emitting pass only.
    pub emit: Option<&'a mut Emit>,
}

impl<'a> FnCx<'a> {
    fn new(
        files: &'a [FileData],
        cg: &'a CallGraph,
        me: FnId,
        emit: Option<&'a mut Emit>,
    ) -> FnCx<'a> {
        FnCx {
            cg,
            me,
            fd: &files[cg.fns[me].file_idx],
            vars: BTreeMap::new(),
            ret: Val::Clean,
            param_sinks: BTreeSet::new(),
            emit,
        }
    }

    pub fn toks(&self) -> &'a [Token] {
        &self.fd.lexed.tokens
    }

    /// Binds every name in `binders` to `v`.
    pub fn bind(&mut self, binders: Vec<String>, v: Val) {
        for bnd in binders {
            self.vars.insert(bnd, v.clone());
        }
    }

    /// A sink described by `desc` at `line` saw `v`: a parameter becomes
    /// a summary sink, a fixed value a verdict row, and a bad value a
    /// verdict under the rule's escape marker or else a finding.
    pub fn reach(&mut self, v: Val, desc: String, line: u32, rule: &Rule) {
        match v {
            Val::Clean => {}
            Val::Param(p) => {
                self.param_sinks.insert((p, desc));
            }
            Val::Fixed(o, s) => self.verdict(o, s, desc),
            Val::Bad(o) => {
                let fd = self.fd;
                if let Some(reason) = (rule.escape)(&fd.markers, line) {
                    self.verdict(o, format!("marker: {reason}"), desc);
                } else if let Some(e) = self.emit.as_deref_mut() {
                    e.findings.insert(Finding {
                        file: fd.path.clone(),
                        line,
                        rule: rule.name,
                        message: (rule.message)(&o, &desc),
                    });
                }
            }
        }
    }

    /// Records a verdict row (emitting pass only).
    fn verdict(&mut self, source: String, sanitizer: String, sink: String) {
        if let Some(e) = self.emit.as_deref_mut() {
            e.verdicts.insert(Verdict { source, sanitizer, sink });
        }
    }
}

/// The pass-specific half of the statement walker.
pub trait Walk<'a> {
    /// The shared state of the walk.
    fn cx(&mut self) -> &mut FnCx<'a>;

    /// Evaluates the expression region `a..b`, firing the sinks in it.
    fn eval(&mut self, a: usize, b: usize) -> Val;

    /// `let PAT[: TY] = RHS;` whose RHS (`rhs` range) evaluated to `v`;
    /// `ascription` is the `TY` range. Binds every binder to `v` unless
    /// the pass types it otherwise.
    fn bind_let(
        &mut self,
        binders: Vec<String>,
        _ascription: Option<(usize, usize)>,
        _rhs: (usize, usize),
        v: Val,
    ) {
        self.cx().bind(binders, v);
    }

    /// `for PAT in DOMAIN {`: `head` is the `for` token, `start..open` the
    /// domain region and `open` the body's `{`.
    fn for_loop(&mut self, head: usize, binders: Vec<String>, start: usize, open: usize);

    /// An `if` (not `if let`) whose condition, `head + 1..open`, was
    /// already evaluated.
    fn if_guard(&mut self, _head: usize, _open: usize) {}

    /// `name = RHS` / `name op= RHS` with RHS already evaluated. Returns
    /// true when the pass took the assignment over; otherwise the walker
    /// rebinds (or, for `op=`, merges into) `name`.
    fn assign(&mut self, _name: &str, _rhs: (usize, usize)) -> bool {
        false
    }
}

/// Walks the body of the function `w` analyses.
pub fn walk_body<'a>(w: &mut impl Walk<'a>) {
    let cx = w.cx();
    if let Some((bs, be)) = cx.cg.fns[cx.me].body {
        stmts(w, bs + 1, be);
    }
}

/// Statement-by-statement scan of a block region.
fn stmts<'a>(w: &mut impl Walk<'a>, a: usize, b: usize) {
    let toks = w.cx().toks();
    let mut i = a;
    while i < b {
        let t = &toks[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
            i += 1;
            continue;
        }
        match t.ident() {
            Some("let") => i = let_stmt(w, i, b),
            Some("for") => {
                let mut j = i + 1;
                while j < b && toks[j].ident() != Some("in") && !toks[j].is_punct('{') {
                    j += 1;
                }
                let open = find_block_open(toks, j + 1, b);
                w.for_loop(i, pattern_binders(toks, i + 1, j), j + 1, open);
                i = open + 1;
            }
            Some("if") => i = if_stmt(w, i, b),
            Some("while") | Some("match") => {
                let open = find_block_open(toks, i + 1, b);
                w.eval(i + 1, open);
                i = open + 1;
            }
            Some("return") => {
                let (end, _) = stmt_limit(toks, i + 1, b);
                let v = w.eval(i + 1, end);
                let cx = w.cx();
                cx.ret = Val::merge(cx.ret.clone(), v);
                i = end + 1;
            }
            Some("else") | Some("loop") | Some("unsafe") => i += 1,
            _ => {
                let (end, closed) = stmt_limit(toks, i, b);
                let v = expr_stmt(w, i, end);
                if closed {
                    // Block-final expression: a (possible) tail value.
                    let cx = w.cx();
                    cx.ret = Val::merge(cx.ret.clone(), v);
                }
                i = end + 1;
            }
        }
    }
}

fn let_stmt<'a>(w: &mut impl Walk<'a>, i: usize, b: usize) -> usize {
    let toks = w.cx().toks();
    // Pattern region: up to the depth-0 `=`, stopping binder collection
    // at a depth-0 `:` (type ascription).
    let mut depth = 0i64;
    let mut j = i + 1;
    let mut pattern_end = None;
    let mut eq = None;
    while j < b {
        let t = &toks[j];
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
                w.cx().bind(pattern_binders(toks, i + 1, j), Val::Clean);
                return j + 1;
            }
            if t.is_punct(':')
                && !toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && !toks[j - 1].is_punct(':')
            {
                pattern_end.get_or_insert(j);
            }
            // After an ascription, a `>` before the `=` closes a generic.
            let generic_close = pattern_end.is_some() && toks[j - 1].is_punct('>');
            if assign_eq(toks, j) && (generic_close || !is_cmp_prefix(&toks[j - 1])) {
                eq = Some(j);
                break;
            }
        }
        j += 1;
    }
    let Some(eq) = eq else {
        return j + 1;
    };
    let binders = pattern_binders(toks, i + 1, pattern_end.unwrap_or(eq));
    let (end, _) = stmt_limit(toks, eq + 1, b);
    let v = w.eval(eq + 1, end);
    w.bind_let(binders, pattern_end.map(|pe| (pe + 1, eq)), (eq + 1, end), v);
    end + 1
}

fn if_stmt<'a>(w: &mut impl Walk<'a>, i: usize, b: usize) -> usize {
    let toks = w.cx().toks();
    if toks.get(i + 1).is_some_and(|t| t.ident() == Some("let")) {
        // `if let PAT = expr {`: bind and move on.
        let open = find_block_open(toks, i + 2, b);
        if let Some(eq) =
            (i + 2..open).find(|&k| assign_eq(toks, k) && !is_cmp_prefix(&toks[k - 1]))
        {
            let binders = pattern_binders(toks, i + 2, eq);
            let v = w.eval(eq + 1, open);
            w.cx().bind(binders, v);
        }
        return open + 1;
    }
    let open = find_block_open(toks, i + 1, b);
    w.eval(i + 1, open);
    w.if_guard(i, open);
    open + 1
}

/// Expression statement: assignment tracking, else plain eval.
fn expr_stmt<'a>(w: &mut impl Walk<'a>, a: usize, b: usize) -> Val {
    let toks = w.cx().toks();
    let mut k = a;
    while k < b && toks[k].is_punct('*') {
        k += 1;
    }
    if let Some(name) = toks.get(k).and_then(|t| t.ident()) {
        let plain = assign_eq(toks, k + 1);
        let compound = toks
            .get(k + 1)
            .is_some_and(|t| matches!(t.tok, Tok::Punct(c) if "+-*/%&|^".contains(c)))
            && toks.get(k + 2).is_some_and(|t| t.is_punct('='));
        if plain || compound {
            let eq = if plain { k + 1 } else { k + 2 };
            let v = w.eval(eq + 1, b);
            if !w.assign(name, (eq + 1, b)) {
                let cx = w.cx();
                let old = cx.vars.get(name).cloned().unwrap_or(Val::Clean);
                let nv = if compound { Val::merge(old, v) } else { v };
                cx.vars.insert(name.to_owned(), nv);
            }
            return Val::Clean;
        }
    }
    w.eval(a, b)
}

/// True when token `k` is a `=` that is not the head of `==` or `=>`.
fn assign_eq(toks: &[Token], k: usize) -> bool {
    toks.get(k).is_some_and(|t| t.is_punct('='))
        && !toks.get(k + 1).is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
}

/// End of the statement starting at `a`: the `;` (or match-arm `,`) at
/// relative depth 0, or the `}` closing the enclosing block. `closed` =
/// ended without a `;` (tail-position expression).
fn stmt_limit(toks: &[Token], a: usize, b: usize) -> (usize, bool) {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(b).skip(a) {
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
    }
    (b, true)
}

/// The `{` opening the body of an `if`/`for`/`while`/`match` whose header
/// starts at `a`.
fn find_block_open(toks: &[Token], a: usize, b: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(b).skip(a) {
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
    }
    b
}

/// Binder identifiers of a pattern region (lowercase-initial, not
/// `mut`/`ref`/`box`/`self`/`_`).
fn pattern_binders(toks: &[Token], a: usize, b: usize) -> Vec<String> {
    toks.iter()
        .take(b)
        .skip(a)
        .filter_map(|t| t.ident())
        .filter(|id| {
            !NON_BINDERS.contains(id)
                && id.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
        })
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// A walker over a toy vocabulary: the identifier `src` is a source,
    /// `p` is parameter 0 and any other tracked local carries its value.
    /// Records what the hooks saw.
    struct Probe<'a> {
        cx: FnCx<'a>,
        lets: Vec<(Vec<String>, Option<String>)>,
        fors: Vec<(Vec<String>, String)>,
        guards: usize,
    }

    fn text(toks: &[Token], a: usize, b: usize) -> String {
        let word = |t: &Token| match &t.tok {
            Tok::Ident(s) => s.clone(),
            Tok::Punct(c) => c.to_string(),
            _ => "#".to_owned(),
        };
        toks[a..b].iter().map(word).collect::<Vec<_>>().join(" ")
    }

    impl<'a> Walk<'a> for Probe<'a> {
        fn cx(&mut self) -> &mut FnCx<'a> {
            &mut self.cx
        }

        fn eval(&mut self, a: usize, b: usize) -> Val {
            let mut v = Val::Clean;
            for t in &self.cx.toks()[a..b] {
                let w = match t.ident() {
                    Some("src") => Val::Bad("src".to_owned()),
                    Some("p") => Val::Param(0),
                    Some(id) => self.cx.vars.get(id).cloned().unwrap_or_default(),
                    None => Val::Clean,
                };
                v = Val::merge(v, w);
            }
            v
        }

        fn bind_let(
            &mut self,
            binders: Vec<String>,
            ascription: Option<(usize, usize)>,
            _rhs: (usize, usize),
            v: Val,
        ) {
            let toks = self.cx.toks();
            self.lets.push((binders.clone(), ascription.map(|(a, b)| text(toks, a, b))));
            self.cx.bind(binders, v);
        }

        fn for_loop(&mut self, _head: usize, binders: Vec<String>, start: usize, open: usize) {
            let v = self.eval(start, open);
            self.fors.push((binders.clone(), text(self.cx.toks(), start, open)));
            self.cx.bind(binders, v);
        }

        fn if_guard(&mut self, _head: usize, _open: usize) {
            self.guards += 1;
        }

        fn assign(&mut self, name: &str, _rhs: (usize, usize)) -> bool {
            name == "pinned"
        }
    }

    /// Walks fn `f` of `src` and hands the probe to `check`.
    fn walk_f(src: &str, check: impl FnOnce(Probe<'_>)) {
        let files = vec![FileData::new("t.rs", src)];
        let cg = CallGraph::build(&files);
        let id = cg.fns.iter().position(|f| f.name == "f").expect("fn f");
        let mut probe = Probe {
            cx: FnCx::new(&files, &cg, id, None),
            lets: Vec::new(),
            fors: Vec::new(),
            guards: 0,
        };
        walk_body(&mut probe);
        check(probe);
    }

    fn bad() -> Val {
        Val::Bad("src".to_owned())
    }

    #[test]
    fn merge_is_worst_wins_and_ties_keep_the_first() {
        let fixed = |by: &str| Val::Fixed("o".to_owned(), by.to_owned());
        let bad = |o: &str| Val::Bad(o.to_owned());
        assert_eq!(Val::merge(Val::Clean, fixed("x")), fixed("x"));
        assert_eq!(Val::merge(fixed("x"), Val::Param(1)), Val::Param(1));
        assert_eq!(Val::merge(Val::Param(1), bad("a")), bad("a"));
        assert_eq!(Val::merge(bad("a"), Val::Param(1)), bad("a"));
        assert_eq!(Val::merge(fixed("x"), Val::Clean), fixed("x"));
        assert_eq!(Val::merge(bad("a"), bad("b")), bad("a"));
        assert_eq!(Val::merge(fixed("x"), fixed("y")), fixed("x"));
        assert_eq!(Val::merge(Val::Param(0), Val::Param(2)), Val::Param(0));
    }

    #[test]
    fn reach_routes_each_lattice_point() {
        fn escape(_: &Markers, line: u32) -> Option<&str> {
            (line == 7).then_some("checked")
        }
        let rule = Rule { name: "probe", escape, message: |o, d| format!("{o} at {d}") };
        let files = vec![FileData::new("t.rs", "fn f() {}")];
        let cg = CallGraph::build(&files);
        let mut emit = Emit::default();
        let mut cx = FnCx::new(&files, &cg, 0, Some(&mut emit));
        cx.reach(Val::Clean, "clean sink".to_owned(), 1, &rule);
        cx.reach(Val::Param(2), "param sink".to_owned(), 1, &rule);
        cx.reach(Val::Fixed("o".to_owned(), "cap".to_owned()), "fixed sink".to_owned(), 1, &rule);
        cx.reach(Val::Bad("b".to_owned()), "escaped sink".to_owned(), 7, &rule);
        cx.reach(Val::Bad("b".to_owned()), "bad sink".to_owned(), 3, &rule);
        let sinks: Vec<_> = cx.param_sinks.iter().cloned().collect();
        assert_eq!(sinks, [(2, "param sink".to_owned())]);
        let row = |s: &str, z: &str, k: &str| Verdict {
            source: s.to_owned(),
            sanitizer: z.to_owned(),
            sink: k.to_owned(),
        };
        let verdicts: Vec<_> = emit.verdicts.into_iter().collect();
        assert_eq!(
            verdicts,
            [row("b", "marker: checked", "escaped sink"), row("o", "cap", "fixed sink")]
        );
        let findings: Vec<_> = emit.findings.into_iter().collect();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), ("probe", 3));
        assert_eq!(findings[0].message, "b at bad sink");
    }

    #[test]
    fn let_binds_through_a_generic_ascription() {
        let src = "fn f() {
            let n: Option<usize> = src;
            let m: usize = n;
            let (a, mut b) = (src, 1);
            let k;
            let q = 3;
        }";
        walk_f(src, |w| {
            let lets: Vec<_> =
                w.lets.iter().map(|(b, a)| (b.join(","), a.clone().unwrap_or_default())).collect();
            let want = [("n", "Option < usize >"), ("m", "usize"), ("a,b", ""), ("q", "")];
            let want: Vec<_> = want.iter().map(|(b, a)| (b.to_string(), a.to_string())).collect();
            assert_eq!(lets, want);
            let vars = &w.cx.vars;
            assert_eq!(vars["n"], bad(), "the `>` before `=` closes the generic");
            assert_eq!(vars["m"], bad());
            assert_eq!((&vars["a"], &vars["b"]), (&bad(), &bad()));
            assert_eq!(vars["k"], Val::Clean, "`let k;` is uninitialized");
            assert_eq!(vars["q"], Val::Clean);
        });
    }

    #[test]
    fn assignments_rebind_merge_or_defer_to_the_pass() {
        let src = "fn f(p: u32) -> u32 {
            let mut a = 0;
            let mut c = src;
            let mut pinned = 0;
            a += p;
            c = 1;
            pinned = src;
            if a > 0 { return a; }
            c
        }";
        walk_f(src, |w| {
            assert_eq!(w.cx.vars["a"], Val::Param(0), "`+=` merges");
            assert_eq!(w.cx.vars["c"], Val::Clean, "`=` rebinds");
            assert_eq!(w.cx.vars["pinned"], Val::Clean, "the pass took it over");
            assert_eq!(w.guards, 1);
            assert_eq!(w.cx.ret, Val::Param(0), "`return a` joins the clean tail `c`");
        });
        walk_f("fn f() -> u32 { let x = src; if x > 1 { 0 } else { x } }", |w| {
            assert_eq!(w.cx.ret, bad(), "every block-final expression is a tail");
        });
    }

    #[test]
    fn for_hook_sees_binders_and_domain() {
        let src = "fn f() {
            for (i, x) in src.iter().enumerate() { let y = x; }
            let z = y;
        }";
        walk_f(src, |w| {
            let fors: Vec<_> = w.fors.iter().map(|(b, d)| (b.join(","), d.as_str())).collect();
            assert_eq!(fors, [("i,x".to_owned(), "src . iter ( ) . enumerate ( )")]);
            assert_eq!(w.cx.vars["y"], bad());
            assert_eq!(w.cx.vars["z"], bad());
        });
    }

    /// The summaries converge in as many rounds as they change, plus one;
    /// only live functions with bodies are solved or emitted.
    #[test]
    fn solve_stops_at_the_fixpoint_and_skips_test_and_bodiless_fns() {
        let src = "fn live() {}
            trait T { fn decl(&self); }
            #[cfg(test)]
            mod tests { fn t() {} }";
        let files = vec![FileData::new("t.rs", src)];
        let cg = CallGraph::build(&files);
        let mut calls = Vec::new();
        let (findings, verdicts) = solve(&files, &cg, |cx: FnCx<'_>, sums: &[u8]| {
            calls.push((cx.cg.fns[cx.me].name.clone(), cx.emit.is_some(), sums[cx.me]));
            (sums[cx.me] + 1).min(3)
        });
        assert!(findings.is_empty() && verdicts.is_empty());
        let want: Vec<_> = [(false, 0), (false, 1), (false, 2), (false, 3), (true, 3)]
            .iter()
            .map(|&(e, s)| ("live".to_owned(), e, s))
            .collect();
        assert_eq!(calls, want);
    }

    #[test]
    fn solve_caps_a_non_converging_summary_at_twelve_rounds() {
        let files = vec![FileData::new("t.rs", "fn f() {}")];
        let cg = CallGraph::build(&files);
        let mut solving = 0;
        let mut emitted = Vec::new();
        solve(&files, &cg, |cx: FnCx<'_>, sums: &[u32]| {
            if cx.emit.is_some() {
                emitted.push(sums[cx.me]);
            } else {
                solving += 1;
            }
            sums[cx.me] + 1
        });
        assert_eq!(solving, 12);
        assert_eq!(emitted, [12]);
    }

    #[test]
    fn assign_eq_excludes_eq_eq_and_fat_arrow() {
        let l = lex("a = b == c => d =");
        let t = &l.tokens;
        let hits: Vec<usize> = (0..t.len()).filter(|&k| assign_eq(t, k)).collect();
        // The tail of `==` is not a head, so callers also test the token
        // before with `is_cmp_prefix`.
        assert_eq!(hits, [1, 4, 9]);
        let assigns: Vec<usize> = hits.into_iter().filter(|&k| !is_cmp_prefix(&t[k - 1])).collect();
        assert_eq!(assigns, [1, 9], "the first `=` and the trailing one");
    }

    #[test]
    fn stmt_limit_ends_at_semi_arm_comma_or_block_close() {
        let l = lex("{ x = f(a, b); y, z }");
        let t = &l.tokens;
        let (end, closed) = stmt_limit(t, 1, t.len());
        assert!(t[end].is_punct(';') && !closed, "the `,` inside the call is nested");
        assert_eq!(end, 9);
        let (end, closed) = stmt_limit(t, 10, t.len());
        assert!(t[end].is_punct(',') && closed, "a depth-0 `,` ends a match arm");
        let (end, closed) = stmt_limit(t, 12, t.len());
        assert!(t[end].is_punct('}') && closed, "a tail expression ends at the block");
        assert_eq!(stmt_limit(t, 12, 13), (13, true), "or at the region's end");
    }

    #[test]
    fn find_block_open_skips_nested_delimiters() {
        let l = lex("while g([1, 2], |v| { v }) { body }");
        let t = &l.tokens;
        let open = find_block_open(t, 1, t.len());
        assert!(t[open].is_punct('{'));
        assert_eq!(t[open + 1].ident(), Some("body"));
        assert_eq!(find_block_open(t, 1, 3), 3, "no opening brace in the region");
    }

    #[test]
    fn pattern_binders_keep_only_lowercase_names() {
        let l = lex("(mut a, ref b, Some(c), _, Point { x: _d, .. }, self, box e)");
        let t = &l.tokens;
        assert_eq!(pattern_binders(t, 0, t.len()), ["a", "b", "c", "x", "_d", "e"]);
    }
}
