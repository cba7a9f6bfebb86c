//! Shared token-shape helpers: brace matching, statement ends, method
//! calls, function extents and `#[cfg(test)] mod` exclusion ranges.

use crate::lexer::Token;

/// Returns the index of the delimiter matching the opener at `open`
/// (`(`/`)`, `[`/`]` or `{`/`}`), or `tokens.len()` when unterminated.
pub fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match &tokens[open].tok {
        crate::lexer::Tok::Punct('(') => ('(', ')'),
        crate::lexer::Tok::Punct('[') => ('[', ']'),
        crate::lexer::Tok::Punct('{') => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Scanning backwards from `close`, the index of the matching opener.
pub fn match_delim_back(tokens: &[Token], close: usize) -> usize {
    let (o, c) = match &tokens[close].tok {
        crate::lexer::Tok::Punct(')') => ('(', ')'),
        crate::lexer::Tok::Punct(']') => ('[', ']'),
        crate::lexer::Tok::Punct('}') => ('{', '}'),
        _ => return close,
    };
    let mut depth = 0i64;
    for i in (0..=close).rev() {
        if tokens[i].is_punct(c) {
            depth += 1;
        } else if tokens[i].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    0
}

/// `ident . m (` directly after token `j` → `(m, index of the "(")`; `j`
/// may also be the last token of a longer base like `self.field`.
pub fn method_after(toks: &[Token], j: usize) -> Option<(&str, usize)> {
    if toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
        let m = toks.get(j + 2)?.ident()?;
        if toks.get(j + 3).is_some_and(|t| t.is_punct('(')) {
            return Some((m, j + 3));
        }
    }
    None
}

/// True when `t` makes a following `=` a comparison (`==`, `!=`, `<=`,
/// `>=`) rather than an assignment.
pub fn is_cmp_prefix(t: &Token) -> bool {
    t.is_punct('=') || t.is_punct('!') || t.is_punct('<') || t.is_punct('>')
}

/// Index of the `;` ending the statement starting at `a` (depth-aware),
/// or of the closer of the enclosing block.
pub fn stmt_semi(toks: &[Token], a: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(a) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
    }
    toks.len()
}

/// One function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token range `(open_brace, close_brace)` of the body; `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the signature's return type mentions a `…Guard` type —
    /// the lock-order rule treats a call to such a function like a lock
    /// acquisition held by the caller.
    pub guard_returning: bool,
}

impl FnSpan {
    /// True when token index `i` falls inside this function's body.
    pub fn contains(&self, i: usize) -> bool {
        self.body.is_some_and(|(a, b)| i > a && i < b)
    }
}

/// Extracts every `fn` item (including nested ones) with its body extent.
pub fn functions(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("fn") {
            let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else {
                i += 1;
                continue;
            };
            // Parameter list: first `(` after the name (skipping generics).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('(') {
                j += 1;
            }
            if j >= tokens.len() {
                break;
            }
            let params_end = match_delim(tokens, j);
            // Between the params and the body: return type / where clause.
            // A `;` first means a bodiless declaration.
            let mut k = params_end + 1;
            let mut guard_returning = false;
            let mut body = None;
            while k < tokens.len() {
                if tokens[k].is_punct(';') {
                    break;
                }
                if tokens[k].is_punct('{') {
                    body = Some((k, match_delim(tokens, k)));
                    break;
                }
                if tokens[k].ident().is_some_and(|id| id.contains("Guard")) {
                    guard_returning = true;
                }
                k += 1;
            }
            out.push(FnSpan {
                name: name.to_owned(),
                line: tokens[i].line,
                fn_idx: i,
                body,
                guard_returning,
            });
            // Continue scanning *inside* the body too (nested fns, and the
            // linear rules below want every token anyway).
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Token ranges covered by `#[cfg(test)] mod … { … }` items: unit-test
/// modules are exempt from every serving-path rule.
pub fn test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].ident() == Some("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].ident() == Some("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip further attributes, visibility and the `mod name` tokens up
        // to the opening brace; bail if something else follows.
        let mut j = i + 7;
        let mut saw_mod = false;
        while j < tokens.len() {
            match tokens[j].ident() {
                Some("mod") => {
                    saw_mod = true;
                    j += 1;
                }
                Some(_) => j += 1,
                None if tokens[j].is_punct('#')
                    && j + 1 < tokens.len()
                    && tokens[j + 1].is_punct('[') =>
                {
                    j = match_delim(tokens, j + 1) + 1;
                }
                None if tokens[j].is_punct('{') => break,
                None => break,
            }
        }
        if saw_mod && j < tokens.len() && tokens[j].is_punct('{') {
            let end = match_delim(tokens, j);
            out.push((j, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// True when token index `i` is inside any of `ranges` (exclusive of the
/// braces themselves is fine for every rule's purposes).
pub fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn function_extents_and_guard_detection() {
        let src = "
            impl X {
                fn plain(&self) -> u32 { 1 }
                fn guarded(&self) -> Result<MutexGuard<'_, T>, E> { self.m.lock() }
                fn decl(&self);
            }";
        let l = lex(src);
        let fns = functions(&l.tokens);
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].guard_returning);
        assert!(fns[1].guard_returning);
        assert!(fns[1].body.is_some());
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn test_mods_are_found() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); }
            }";
        let l = lex(src);
        let ranges = test_mod_ranges(&l.tokens);
        assert_eq!(ranges.len(), 1);
        let unwrap_idx =
            l.tokens.iter().position(|t| t.ident() == Some("unwrap")).expect("unwrap token");
        assert!(in_ranges(&ranges, unwrap_idx));
        let live_idx = l.tokens.iter().position(|t| t.ident() == Some("live")).expect("live");
        assert!(!in_ranges(&ranges, live_idx));
    }

    fn pos(toks: &[Token], id: &str) -> usize {
        toks.iter().position(|t| t.ident() == Some(id)).expect(id)
    }

    #[test]
    fn method_after_needs_dot_name_and_paren() {
        let l = lex("a.len(); self.idx.get(3); b.len; c(1)");
        let t = &l.tokens;
        let (m, open) = method_after(t, pos(t, "a")).expect("a.len(");
        assert_eq!(m, "len");
        assert!(t[open].is_punct('('));
        // The last token of a longer base works the same way.
        assert_eq!(method_after(t, pos(t, "idx")).map(|(m, _)| m), Some("get"));
        assert_eq!(method_after(t, pos(t, "self")), None, "self.idx is a field, not a call");
        assert_eq!(method_after(t, pos(t, "b")), None, "no call parens");
        assert_eq!(method_after(t, pos(t, "c")), None, "plain call, no receiver");
        assert_eq!(method_after(t, t.len() - 1), None, "end of stream");
    }

    #[test]
    fn cmp_prefixes_are_the_comparison_heads() {
        let l = lex("= ! < > + : -");
        let got: Vec<bool> = l.tokens.iter().map(is_cmp_prefix).collect();
        assert_eq!(got, [true, true, true, true, false, false, false]);
    }

    #[test]
    fn stmt_semi_is_depth_aware() {
        let l = lex("{ let x = { a; f(b, [c; 2]) }; y; tail }");
        let t = &l.tokens;
        let semi = stmt_semi(t, pos(t, "let"));
        assert!(t[semi].is_punct(';'));
        assert_eq!(semi, pos(t, "y") - 1, "inner `;`s are skipped");
        // A statement without `;` ends at the closer of its block.
        let close = stmt_semi(t, pos(t, "tail"));
        assert_eq!(close, t.len() - 1);
        assert!(t[close].is_punct('}'));
        // Unterminated: the end of the stream.
        let l = lex("a + b");
        assert_eq!(stmt_semi(&l.tokens, 0), l.tokens.len());
    }
}
