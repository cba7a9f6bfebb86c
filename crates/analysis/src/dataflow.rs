//! Pass A: untrusted-input taint for the decode path.
//!
//! The taint instantiation of the shared dataflow engine
//! ([`crate::flow`]): a per-function forward walk over the token stream
//! tracks the provenance of let-bound locals through its lattice, read
//! here as
//!
//! * **tainted** (`Bad`) — produced by `from_le_bytes` (every raw byte
//!   reader in the workspace bottoms out there) or by a
//!   `taint-source`-marked function, directly or through calls and
//!   field/element reads;
//! * **sanitized** (`Fixed`) — a tainted value that flowed through a
//!   bound check: a comparison guard whose body can fail the function
//!   (`if n > limit { return Err(…) }`), a sanitizing callee (one whose
//!   own body bound-checks its parameter, like `Reader::require`),
//!   `.min(…)` / `.clamp(…)`, `% n`, or `& MASK`;
//! * **from parameter `i`** (`Param`) — resolved at each call site;
//! * **clean** — everything else.
//!
//! **Sinks**: allocation sizes (`with_capacity`, `reserve`,
//! `reserve_exact`, `resize`, `set_len`), slice index/range expressions,
//! and `for … in 0..n` loop bounds. A tainted value at a sink is a
//! finding unless the line carries `// roadlint: sanitized reason="…"`;
//! a sanitized value at a sink becomes a row of the taint verdict table
//! (`source → sanitizer → sink`, printed by `roadlint --taint`).
//!
//! **Interprocedural**: per-function summaries — return provenance,
//! parameters that reach sinks, parameters the function sanitizes — are
//! computed to a fixpoint over the workspace call graph, so a helper in
//! another crate that indexes with its parameter is a sink for every
//! caller passing tainted values, and `Reader::require` is discovered as
//! a sanitizer from its own body rather than hardcoded.
//!
//! Documented approximations: values inside containers are tracked only
//! via receiver taint (`v.push(tainted)` taints `v`, and everything read
//! out of `v` afterwards); closure parameters are untracked; `while`
//! loop bounds are not sinks; a guard sanitizes its operands from the
//! guard line onward without branch sensitivity. Taint resolution uses
//! [`CallGraph::resolve_confident`] only — an unknown callee propagates
//! its arguments' provenance instead of borrowing summaries from
//! same-named functions elsewhere.

use crate::callgraph::{self, CallGraph};
use crate::flow::{self, FnCx, Rule, Val, Verdict, Walk};
use crate::lexer::Tok;
use crate::markers::Markers;
use crate::syntax::{self, is_cmp_prefix, method_after};
use crate::{FileData, Finding};
use std::collections::BTreeSet;

/// Allocation-size sinks recognized by callee name.
const SINK_FNS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "resize", "set_len"];

/// Methods that write their arguments into the receiver: a tainted
/// argument taints the receiver (container-level tracking).
const MUTATORS: &[&str] =
    &["push", "insert", "extend", "extend_from_slice", "push_str", "copy_from_slice", "append"];

/// Divergence evidence inside a guard's body.
const DIVERGES: &[&str] =
    &["return", "Err", "None", "break", "continue", "panic", "unreachable", "todo", "bail"];

/// How a tainted value at a sink is reported.
const TAINT: Rule = Rule {
    name: "taint",
    escape: Markers::sanitized_reason_near,
    message: |o, desc| {
        format!(
            "tainted value from {o} reaches {desc} without a sanitizer; \
             bound it first or mark `// roadlint: sanitized reason=\"…\"`"
        )
    },
};

/// The interprocedural summary of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Summary {
    /// Return provenance (`Param(i)`: derived from parameter `i`).
    pub ret: Val,
    /// Parameters that reach a sink inside this fn (or transitively),
    /// with the sink's description.
    pub param_sinks: BTreeSet<(usize, String)>,
    /// Parameters this fn bound-checks with a failing guard.
    pub sanitizes: BTreeSet<usize>,
}

/// Runs the taint pass over the workspace.
pub fn check(files: &[FileData], cg: &CallGraph) -> (Vec<Finding>, Vec<Verdict>) {
    flow::solve(files, cg, |cx, sums| Taint::new(cx, sums).run())
}

/// The taint half of one function's walk.
struct Taint<'a> {
    cx: FnCx<'a>,
    sums: &'a [Summary],
    sanitizes: BTreeSet<usize>,
}

impl<'a> Taint<'a> {
    fn new(mut cx: FnCx<'a>, sums: &'a [Summary]) -> Taint<'a> {
        let cg = cx.cg;
        for (i, p) in cg.fns[cx.me].params.iter().enumerate() {
            cx.vars.insert(p.clone(), Val::Param(i));
        }
        Taint { cx, sums, sanitizes: BTreeSet::new() }
    }

    fn run(mut self) -> Summary {
        flow::walk_body(&mut self);
        Summary { ret: self.cx.ret, param_sinks: self.cx.param_sinks, sanitizes: self.sanitizes }
    }

    fn block_diverges(&self, open: usize) -> bool {
        let toks = self.cx.toks();
        let close = syntax::match_delim(toks, open);
        (open..close).any(|k| toks[k].ident().is_some_and(|id| DIVERGES.contains(&id)))
    }

    fn is_cmp_at(&self, k: usize) -> bool {
        let toks = self.cx.toks();
        let t = &toks[k];
        if t.is_punct('<') {
            return !(k > 0 && toks[k - 1].is_punct(':'));
        }
        if t.is_punct('>') {
            return !(k > 0 && (toks[k - 1].is_punct('-') || toks[k - 1].is_punct('=')));
        }
        t.is_punct('=') && k > 0 && is_cmp_prefix(&toks[k - 1])
    }

    /// Applies a call's summaries. Returns `(contribution, skip_args)`:
    /// resolved calls skip their argument region in the caller's walk
    /// (the summary is precise), unresolved calls let it be walked
    /// (arguments' provenance propagates through unknown callees).
    fn eval_call(&mut self, site: &callgraph::CallSite, close: usize) -> (Val, bool) {
        let toks = self.cx.toks();
        let (cg, me) = (self.cx.cg, self.cx.me);
        if site.name == "from_le_bytes" {
            let origin = format!("{} ({}:{})", cg.qualified(me), self.cx.fd.path, cg.fns[me].line);
            return (Val::Bad(origin), false);
        }
        // Lengths/capacities of real containers are trusted sizes, and
        // `partition_point` / `binary_search` indices are bounded by the
        // container they searched.
        if matches!(
            site.name.as_str(),
            "len" | "capacity" | "is_empty" | "partition_point" | "binary_search"
        ) {
            return (Val::Clean, true);
        }
        // `x.min(…)` / `x.clamp(…)` return a bounded value (the receiver's
        // demotion already happened); don't let the bound argument's
        // provenance leak into the result.
        if matches!(site.name.as_str(), "min" | "clamp") {
            for (x, y) in callgraph::split_args(toks, site.args_open, close) {
                self.eval(x, y);
            }
            return (Val::Clean, true);
        }
        if SINK_FNS.contains(&site.name.as_str()) {
            let mut av = Val::Clean;
            for (x, y) in callgraph::split_args(toks, site.args_open, close) {
                av = Val::merge(av, self.eval(x, y));
            }
            self.sink(av, &format!("{}()", site.name), site.line);
            return (Val::Clean, true);
        }
        let callees = cg.resolve_confident(me, site);
        if callees.is_empty() {
            return (Val::Clean, false);
        }
        let args = callgraph::split_args(toks, site.args_open, close);
        let arg_vals: Vec<Val> = args.iter().map(|&(x, y)| self.eval(x, y)).collect();
        let mut out = Val::Clean;
        for &cid in &callees {
            if cg.fns[cid].taint_source {
                let origin = format!("{} ({}:{})", cg.qualified(cid), self.cx.fd.path, site.line);
                out = Val::merge(out, Val::Bad(origin));
            }
            let sum = &self.sums[cid];
            let rv = match &sum.ret {
                Val::Param(p) => arg_vals.get(*p).cloned().unwrap_or(Val::Clean),
                other => other.clone(),
            };
            out = Val::merge(out, rv);
            for (p, desc) in &sum.param_sinks {
                if let Some(av) = arg_vals.get(*p) {
                    self.cx.reach(av.clone(), desc.clone(), site.line, &TAINT);
                }
            }
            for p in &sum.sanitizes {
                if let Some(&(x, y)) = args.get(*p) {
                    let desc = format!("{} (line {})", cg.qualified(cid), cg.fns[cid].line);
                    self.sanitize_region(x, y, &desc);
                }
            }
        }
        (out, true)
    }

    /// A bounding operation directly after a tainted value demotes it:
    /// `% n`, `& MASK`, or a chain ending in a bounded method
    /// (`.min(…)`, `.clamp(…)`, `.partition_point(…)`,
    /// `.binary_search(…)` — the last two through any number of field
    /// reads, so `node.keys.partition_point(…)` on a tainted `node`
    /// yields a bounded index, not a tainted one).
    fn demote(&self, v: Val, after: usize, b: usize) -> Val {
        let Val::Bad(o) = &v else { return v };
        let toks = self.cx.toks();
        let mut k = after + 1;
        while k < b && toks[k].is_punct('?') {
            k += 1;
        }
        if k < b && toks[k].is_punct('%') {
            return Val::Fixed(o.clone(), format!("% bound (line {})", toks[k].line));
        }
        if k + 1 < b && toks[k].is_punct('&') {
            let next = &toks[k + 1];
            let is_mask = next.tok == Tok::Lit
                || next.ident().is_some_and(|id| {
                    id.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                });
            if is_mask {
                return Val::Fixed(o.clone(), format!("& mask (line {})", toks[k].line));
            }
        }
        while k + 1 < b && toks[k].is_punct('.') {
            let Some(m) = toks[k + 1].ident() else { break };
            if k + 2 < b && toks[k + 2].is_punct('(') {
                if matches!(m, "min" | "clamp" | "partition_point" | "binary_search") {
                    return Val::Fixed(o.clone(), format!("{m}() (line {})", toks[k + 1].line));
                }
                break;
            }
            // A field read (`node.keys`) — keep walking the chain.
            k += 2;
        }
        v
    }

    /// Marks every tracked operand in a region sanitized (guard or
    /// sanitizing-callee argument).
    fn sanitize_region(&mut self, a: usize, b: usize, desc: &str) {
        let toks = self.cx.toks();
        for k in a..b {
            if k > 0 && toks[k - 1].is_punct('.') {
                continue;
            }
            let Some(name) = toks[k].ident() else { continue };
            let nv = match self.cx.vars.get(name) {
                Some(Val::Bad(o)) => Val::Fixed(o.clone(), desc.to_owned()),
                Some(Val::Param(p)) => {
                    self.sanitizes.insert(*p);
                    Val::Clean
                }
                _ => continue,
            };
            self.cx.vars.insert(name.to_owned(), nv);
        }
    }

    fn sink(&mut self, v: Val, what: &str, line: u32) {
        let me = self.cx.cg.qualified(self.cx.me);
        let desc = format!("{what} at {}:{line} in {me}", self.cx.fd.path);
        self.cx.reach(v, desc, line, &TAINT);
    }
}

impl<'a> Walk<'a> for Taint<'a> {
    fn cx(&mut self) -> &mut FnCx<'a> {
        &mut self.cx
    }

    fn for_loop(&mut self, head: usize, binders: Vec<String>, start: usize, open: usize) {
        let toks = self.cx.toks();
        let v = self.eval(start, open);
        // `for … in 0..n` — `n` is a loop bound (a sink); iterator loops
        // are bounded by the container and stay quiet.
        let is_range = (start..open.saturating_sub(1))
            .any(|k| toks[k].is_punct('.') && toks.get(k + 1).is_some_and(|t| t.is_punct('.')));
        if is_range {
            self.sink(v.clone(), "loop bound", toks[head].line);
        }
        self.cx.bind(binders, v);
    }

    fn if_guard(&mut self, head: usize, open: usize) {
        let has_cmp = (head + 1..open).any(|k| self.is_cmp_at(k));
        if has_cmp && self.block_diverges(open) {
            // The guard sanitizes every tracked operand it compares.
            let line = self.cx.toks()[head].line;
            let desc = format!("guard ({}:{line})", self.cx.fd.path);
            self.sanitize_region(head + 1, open, &desc);
        }
    }

    /// The expression walker: merges provenance contributions, resolves
    /// calls against summaries, and checks sinks.
    fn eval(&mut self, a: usize, b: usize) -> Val {
        let toks = self.cx.toks();
        let mut val = Val::Clean;
        let mut j = a;
        while j < b {
            let t = &toks[j];
            if let Some(site) = callgraph::call_at(toks, j) {
                let close = syntax::match_delim(toks, site.args_open);
                if close < b {
                    let (c, skip) = self.eval_call(&site, close);
                    let c = self.demote(c, close, b);
                    val = Val::merge(val, c);
                    j = if skip { close + 1 } else { site.args_open + 1 };
                    continue;
                }
            }
            if t.is_punct('[') && j > 0 {
                let prev = &toks[j - 1];
                let is_macro = prev.ident().is_some() && j >= 2 && toks[j - 2].is_punct('!');
                let indexes = (prev.ident().is_some() && !is_macro)
                    || prev.is_punct(')')
                    || prev.is_punct(']')
                    || prev.is_punct('?');
                if indexes {
                    let close = syntax::match_delim(toks, j);
                    if close <= b {
                        // The index itself is the sink that reports; sinks
                        // nested inside it only feed summaries.
                        let emit = self.cx.emit.take();
                        let iv = self.eval(j + 1, close);
                        self.cx.emit = emit;
                        self.sink(iv, "slice index/range", t.line);
                    }
                }
                j += 1;
                continue;
            }
            if let Some(name) = t.ident() {
                // A field read (`x.name`) — but not a range bound
                // (`0..name`, where the previous two tokens are `.`s).
                let is_field =
                    j > 0 && toks[j - 1].is_punct('.') && !(j >= 2 && toks[j - 2].is_punct('.'));
                if !is_field {
                    if let Some(v) = self.cx.vars.get(name).cloned() {
                        if let Some((m, margs)) = method_after(toks, j) {
                            if MUTATORS.contains(&m) {
                                // `v.push(tainted)` taints `v`.
                                let mclose = syntax::match_delim(toks, margs);
                                if mclose < b {
                                    let av = self.eval(margs + 1, mclose);
                                    self.cx.vars.insert(name.to_owned(), Val::merge(v, av));
                                    j = mclose + 1;
                                    continue;
                                }
                            }
                        }
                        let v = self.demote(v, j, b);
                        val = Val::merge(val, v);
                    }
                }
            }
            j += 1;
        }
        val
    }
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
    fn unsanitized_count_at_alloc_index_and_loop_is_found() {
        let (f, _) = run(&[(
            "t.rs",
            "fn read_u32(b: &[u8], at: usize) -> u32 {
                 u32::from_le_bytes([b[at], b[at+1], b[at+2], b[at+3]])
             }
             fn decode(b: &[u8]) -> Vec<u32> {
                 let n = read_u32(b, 0) as usize;
                 let mut out = Vec::with_capacity(n);
                 for i in 0..n { out.push(read_u32(b, 4 + 4 * i)); }
                 out
             }",
        )]);
        let msgs: String = f.iter().map(|x| x.message.as_str()).collect();
        assert!(msgs.contains("with_capacity"), "{f:?}");
        assert!(msgs.contains("loop bound"), "{f:?}");
    }

    #[test]
    fn guard_and_callee_sanitizers_suppress_and_are_tabulated() {
        let (f, v) = run(&[(
            "t.rs",
            "fn read_u32(b: &[u8], at: usize) -> u32 {
                 u32::from_le_bytes([b[at], b[at+1], b[at+2], b[at+3]])
             }
             fn require(n: usize, limit: usize) -> Result<(), E> {
                 if n > limit { return Err(E); }
                 Ok(())
             }
             fn decode(b: &[u8]) -> Result<Vec<u32>, E> {
                 let n = read_u32(b, 0) as usize;
                 require(n, b.len() / 4)?;
                 let mut out = Vec::with_capacity(n);
                 let m = read_u32(b, 4) as usize;
                 if m > b.len() { return Err(E); }
                 for i in 0..m { out.push(i as u32); }
                 Ok(out)
             }",
        )]);
        let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
        assert!(taint.is_empty(), "{taint:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("require")), "{v:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("guard")), "{v:?}");
    }

    #[test]
    fn cross_file_param_sink_is_interprocedural() {
        let (f, _) = run(&[
            (
                "reader.rs",
                "pub fn le_u32(b: &[u8], at: usize) -> u32 {
                     u32::from_le_bytes([b[at], b[at+1], b[at+2], b[at+3]])
                 }",
            ),
            ("helper.rs", "pub fn alloc_records(n: usize) -> Vec<u64> { Vec::with_capacity(n) }"),
            (
                "decode.rs",
                "fn decode(b: &[u8]) -> Vec<u64> {
                     let n = le_u32(b, 0) as usize;
                     alloc_records(n)
                 }",
            ),
        ]);
        let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
        assert_eq!(taint.len(), 1, "{f:?}");
        assert!(taint[0].file == "decode.rs", "{taint:?}");
        assert!(
            taint[0].message.contains("alloc_records")
                || taint[0].message.contains("with_capacity"),
            "{taint:?}"
        );
    }

    #[test]
    fn min_clamp_and_marker_demote() {
        let (f, v) = run(&[(
            "t.rs",
            "fn le(b: &[u8]) -> u32 { u32::from_le_bytes([b[0], b[1], b[2], b[3]]) }
             fn decode(b: &[u8]) -> Vec<u8> {
                 let n = le(b) as usize;
                 let mut out = Vec::with_capacity(n.min(b.len()));
                 // roadlint: sanitized reason=\"n re-checked above\"
                 out.reserve(n);
                 out
             }",
        )]);
        assert!(f.iter().all(|x| x.rule != "taint"), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("min")), "{v:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("marker")), "{v:?}");
    }
}
