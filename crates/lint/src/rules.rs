//! The repo-specific rules: each one encodes an invariant PRs 4–6 established by
//! hand, so the next hot-path rewrite cannot silently regress it.
//!
//! Every rule is a token-stream pattern matcher over [`SourceFile`] — no AST, no
//! type information. Where a rule needs something the token stream cannot prove
//! (is this `.push` *the* `Sink::push`?) it uses a documented heuristic plus the
//! waiver mechanism as the escape hatch; the fixture corpus under
//! `tests/fixtures/` pins each rule's behaviour in both directions.

use crate::config::RuleConfig;
use crate::source::{matching, SourceFile};
use crate::Finding;

/// A lint rule: an id, a one-line description, and a token-level check.
pub trait Rule {
    /// Stable rule id (used in `lint.toml`, waivers, and reports).
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn describe(&self) -> &'static str;
    /// Appends findings for `file` to `out`.
    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>);
}

/// The full rule registry, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicInEngines),
        Box::new(PoisonTolerantLocks),
        Box::new(NoNestedValVec),
        Box::new(SinkControlflowPropagated),
        Box::new(SafetyCommentOnUnsafe),
        Box::new(WatchTickInExecutors),
        Box::new(NoDirectThreadSpawn),
        Box::new(PubItemHasDoc),
    ]
}

/// Ids of every rule, the waiver meta-rules included (the set waivers may name).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.push(WAIVER_SYNTAX);
    ids.push(UNUSED_WAIVER);
    ids
}

/// Meta-rule id: malformed waiver (bad syntax, unknown rule, missing reason).
pub const WAIVER_SYNTAX: &str = "waiver-syntax";
/// Meta-rule id: a well-formed waiver that suppressed nothing.
pub const UNUSED_WAIVER: &str = "unused-waiver";

fn finding(rule: &dyn Rule, file: &SourceFile, lo: usize, message: String) -> Finding {
    Finding {
        rule: rule.id().to_string(),
        file: file.path.clone(),
        line: file.line_of(lo),
        col: file.col_of(lo),
        message,
    }
}

/// Skips an occurrence when the rule polices production code only.
fn skipped(file: &SourceFile, cfg: &RuleConfig, offset: usize) -> bool {
    !cfg.include_tests && file.is_test(offset)
}

// ---------------------------------------------------------------------------
// no-panic-in-engines
// ---------------------------------------------------------------------------

/// Engine hot paths must stay panic-free: PR 6 made every abort a typed
/// `ExecError` (gj-runtime), and a stray `unwrap()` re-introduces the failure mode
/// (a worker panic surfacing as `WorkerPanicked` instead of a real error) the
/// fault-tolerance work was built to remove.
pub struct NoPanicInEngines;

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// `debug_assert!` and friends are not listed: release builds compile them out.
const PANIC_MACROS: &[&str] =
    &["panic", "todo", "unimplemented", "unreachable", "assert", "assert_eq", "assert_ne"];

impl Rule for NoPanicInEngines {
    fn id(&self) -> &'static str {
        "no-panic-in-engines"
    }

    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/todo!/unimplemented!/unreachable!/assert!/assert_eq!/assert_ne! in engine production code — abort via typed ExecError instead"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if skipped(file, cfg, t.lo) {
                continue;
            }
            let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
            if PANIC_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && next_is('(')
            {
                out.push(finding(
                    self,
                    file,
                    t.lo,
                    format!(
                        ".{}() can panic in an engine path; return a typed error (ExecError / Result) instead",
                        t.text
                    ),
                ));
            }
            if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                out.push(finding(
                    self,
                    file,
                    t.lo,
                    format!(
                        "{}! panics in an engine path; workers surface this as ExecError::WorkerPanicked — return a typed error instead",
                        t.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// poison-tolerant-locks
// ---------------------------------------------------------------------------

/// Every `.lock()` must recover from poisoning: PR 6's contract is that a
/// panicked worker never leaves shared state unusable, which requires every
/// `Mutex::lock` result to pass through `PoisonError::into_inner` (or be
/// propagated with `?`). `.lock().unwrap()` re-poisons the well: the *next*
/// query on the same database dies for a fault the previous one already paid
/// for.
pub struct PoisonTolerantLocks;

impl Rule for PoisonTolerantLocks {
    fn id(&self) -> &'static str {
        "poison-tolerant-locks"
    }

    fn describe(&self) -> &'static str {
        "every .lock() result must go through PoisonError::into_inner (unwrap_or_else) or `?` — poisoned state stays usable"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            // Match `.lock()`.
            if !(toks[i].is_ident("lock")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(')')))
            {
                continue;
            }
            if skipped(file, cfg, toks[i].lo) {
                continue;
            }
            // `self.lock()` is a poison-tolerant helper method by construction
            // (Mutex itself is never `self`); the helper's own body is checked.
            if i >= 2 && toks[i - 2].is_ident("self") {
                continue;
            }
            let after = i + 3;
            // Accepted: `.lock()?` — the caller propagates the PoisonError.
            if toks.get(after).is_some_and(|t| t.is_punct('?')) {
                continue;
            }
            // Accepted: `.lock().unwrap_or_else(<path containing into_inner>)`.
            if toks.get(after).is_some_and(|t| t.is_punct('.'))
                && toks.get(after + 1).is_some_and(|t| t.is_ident("unwrap_or_else"))
                && toks.get(after + 2).is_some_and(|t| t.is_punct('('))
            {
                if let Some(close) = matching(toks, after + 2, '(', ')') {
                    if toks[after + 3..close].iter().any(|t| t.is_ident("into_inner")) {
                        continue;
                    }
                }
            }
            out.push(finding(
                self,
                file,
                toks[i].lo,
                ".lock() must tolerate poisoning: follow it with .unwrap_or_else(PoisonError::into_inner) or propagate with `?`"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-nested-val-vec
// ---------------------------------------------------------------------------

/// The PR 4 regression guard: intermediates in the pairwise baselines are
/// columnar (one flat `len×arity` buffer); a `Vec<Vec<Val>>` re-introduces the
/// per-row allocation pattern the columnar rewrite removed (2.6–8.8× serial
/// speedups came from exactly this).
pub struct NoNestedValVec;

impl Rule for NoNestedValVec {
    fn id(&self) -> &'static str {
        "no-nested-val-vec"
    }

    fn describe(&self) -> &'static str {
        "no Vec<Vec<Val>> in the columnar baselines — use the flat len×arity Intermediate buffer"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].is_ident("Vec")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("Vec"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
                && toks.get(i + 4).is_some_and(|t| t.is_ident("Val"))
                && !skipped(file, cfg, toks[i].lo)
            {
                out.push(finding(
                    self,
                    file,
                    toks[i].lo,
                    "Vec<Vec<Val>> re-introduces per-row allocations; use the columnar flat-buffer Intermediate"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// sink-controlflow-propagated
// ---------------------------------------------------------------------------

/// Early termination is part of the sink protocol: a `sink.push(row);` whose
/// returned `ControlFlow` is dropped swallows `Break`, and `first_k` / `exists`
/// silently degrade into full scans. The receiver heuristic (identifiers ending
/// in `sink`, or named `shard`) is configured in `lint.toml`; a genuinely
/// different `push` on such a receiver takes a waiver.
pub struct SinkControlflowPropagated;

impl SinkControlflowPropagated {
    fn receiver_matches(cfg: &RuleConfig, name: &str) -> bool {
        let receivers: &[String] = &cfg.receivers;
        let lower = name.to_ascii_lowercase();
        receivers.iter().any(|r| lower == *r || lower.ends_with(r))
    }
}

impl Rule for SinkControlflowPropagated {
    fn id(&self) -> &'static str {
        "sink-controlflow-propagated"
    }

    fn describe(&self) -> &'static str {
        "every Sink::push / try_* call site must use the returned ControlFlow/Result — dropping it swallows early termination"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let is_push = (toks[i].is_ident("push") || toks[i].is_ident("try_push"))
                && i > 1
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            if !is_push
                || !Self::receiver_matches(cfg, &toks[i - 2].text)
                || skipped(file, cfg, toks[i].lo)
            {
                continue;
            }
            let Some(close) = matching(toks, i + 1, '(', ')') else { continue };
            // Used: the call chains on (`.is_break()`, `?`) or is not followed by
            // `;` (tail expression, match scrutinee, …).
            if !toks.get(close + 1).is_some_and(|t| t.is_punct(';')) {
                continue;
            }
            // Followed by `;`: find the statement head and decide whether the
            // value is consumed there (`let flow = …;`, `return …;`, `x = …;`).
            let mut head = i - 2; // receiver ident
            while head > 0 {
                let prev = &toks[head - 1];
                if prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}') {
                    break;
                }
                head -= 1;
            }
            let stmt = &toks[head..i.saturating_sub(1)];
            let discarded_via_let_underscore = stmt.len() >= 3
                && stmt[0].is_ident("let")
                && stmt[1].is_ident("_")
                && stmt[2].is_punct('=');
            let consumed = !discarded_via_let_underscore
                && stmt.iter().any(|t| {
                    t.is_ident("let")
                        || t.is_ident("return")
                        || t.is_ident("if")
                        || t.is_ident("while")
                        || t.is_ident("match")
                        || t.is_punct('=')
                        || t.is_punct('(')
                        || t.is_punct(',')
                });
            if !consumed {
                out.push(finding(
                    self,
                    file,
                    toks[i].lo,
                    format!(
                        "the ControlFlow returned by {}.{}() is discarded — early termination (Break) would be swallowed; branch on it or propagate it",
                        toks[i - 2].text, toks[i].text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// safety-comment-on-unsafe
// ---------------------------------------------------------------------------

/// Every `unsafe` (block, fn, impl) must be introduced by a `// SAFETY:` comment
/// on the line(s) immediately above (or trailing on the same line) spelling out
/// why the invariants hold.
pub struct SafetyCommentOnUnsafe;

impl Rule for SafetyCommentOnUnsafe {
    fn id(&self) -> &'static str {
        "safety-comment-on-unsafe"
    }

    fn describe(&self) -> &'static str {
        "each unsafe block/fn/impl must be preceded by a `// SAFETY:` comment arguing the invariants"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        for t in &file.tokens {
            if !t.is_ident("unsafe") || skipped(file, cfg, t.lo) {
                continue;
            }
            let line = file.line_of(t.lo);
            // A SAFETY comment is accepted on the same line or on the directly
            // preceding comment block (comments ending on line-1, line-2, …,
            // with nothing but comments in between).
            let mut ok = false;
            let mut expected_end = line; // same line counts (trailing comment)
            for c in file.comments.iter().rev() {
                if c.end_line > expected_end {
                    continue;
                }
                if c.end_line < expected_end.saturating_sub(1) {
                    break; // a gap of non-comment lines ends the block
                }
                if c.text.contains("SAFETY:") {
                    ok = true;
                    break;
                }
                expected_end = c.line.saturating_sub(1);
            }
            if !ok {
                out.push(finding(
                    self,
                    file,
                    t.lo,
                    "unsafe without a `// SAFETY:` comment immediately above explaining why the invariants hold"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// watch-tick-in-executors
// ---------------------------------------------------------------------------

/// Each engine executor file must reference the cooperative stop probe
/// (`ExecWatch` / `ctx.watch()`): PR 6 bounded cancellation latency by a tick in
/// every inner loop, and an executor rewrite that drops the watch silently
/// unbounds budget/cancel latency again. File-level: the `files` list in
/// `lint.toml` names the executors.
pub struct WatchTickInExecutors;

impl Rule for WatchTickInExecutors {
    fn id(&self) -> &'static str {
        "watch-tick-in-executors"
    }

    fn describe(&self) -> &'static str {
        "every engine executor file must reference ExecWatch (tick in the inner loop) so cancellation latency stays bounded"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        if !cfg.files.contains(&file.path) {
            return;
        }
        let references_watch =
            file.tokens.iter().any(|t| t.is_ident("ExecWatch") || t.is_ident("tick"));
        if !references_watch {
            out.push(Finding {
                rule: self.id().to_string(),
                file: file.path.clone(),
                line: 1,
                col: 1,
                message:
                    "engine executor file has no ExecWatch/tick reference — inner loops no longer poll budgets/cancellation (see lint.toml [rule.watch-tick-in-executors])"
                        .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// no-direct-thread-spawn-outside-runtime
// ---------------------------------------------------------------------------

/// All production threading goes through `gj-runtime` (the morsel driver and its
/// panic isolation). A direct `thread::spawn` / `thread::scope` /
/// `thread::Builder` elsewhere escapes `catch_unwind` + typed `WorkerPanicked`
/// and the cooperative stop protocol.
pub struct NoDirectThreadSpawn;

impl Rule for NoDirectThreadSpawn {
    fn id(&self) -> &'static str {
        "no-direct-thread-spawn-outside-runtime"
    }

    fn describe(&self) -> &'static str {
        "no thread::spawn / thread::scope / thread::Builder outside gj-runtime — workers must run under the driver's panic isolation"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("thread") || skipped(file, cfg, toks[i].lo) {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':')))
            {
                continue;
            }
            let Some(target) = toks.get(i + 3) else { continue };
            if target.is_ident("spawn") || target.is_ident("scope") || target.is_ident("Builder") {
                out.push(finding(
                    self,
                    file,
                    toks[i].lo,
                    format!(
                        "thread::{} outside gj-runtime: spawn work through the morsel driver (panic isolation, stop protocol) instead",
                        target.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pub-item-has-doc
// ---------------------------------------------------------------------------

/// The façade crates are the public API surface; every `pub` item there carries
/// a doc comment. `pub use` re-exports and restricted `pub(crate)` / `pub(super)`
/// visibility are exempt.
pub struct PubItemHasDoc;

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "mod", "const", "static", "type", "unsafe", "async",
    "extern", "impl",
];

impl Rule for PubItemHasDoc {
    fn id(&self) -> &'static str {
        "pub-item-has-doc"
    }

    fn describe(&self) -> &'static str {
        "every pub item in the façade crates carries a doc comment (pub use / pub(crate) exempt)"
    }

    fn check(&self, file: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("pub") || skipped(file, cfg, toks[i].lo) {
                continue;
            }
            let Some(next) = toks.get(i + 1) else { continue };
            if next.is_punct('(') || next.is_ident("use") {
                continue; // pub(crate)/pub(super) and re-exports are exempt
            }
            if !ITEM_KEYWORDS.contains(&next.text.as_str()) {
                continue; // not an item position (e.g. inside a macro)
            }
            // Walk back over attribute groups `#[…]` to the head of the item.
            let mut head = i;
            let mut doc_attr = false;
            while head >= 2 && toks[head - 1].is_punct(']') {
                // Find the `[` that this `]` closes, then expect `#` before it.
                let close = head - 1;
                let mut depth = 0usize;
                let mut open = None;
                for k in (0..=close).rev() {
                    if toks[k].is_punct(']') {
                        depth += 1;
                    } else if toks[k].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            open = Some(k);
                            break;
                        }
                    }
                }
                match open {
                    Some(k) if k >= 1 && toks[k - 1].is_punct('#') => {
                        // #[doc…] attributes count as documentation.
                        if toks[k + 1..close].iter().any(|t| t.is_ident("doc")) {
                            doc_attr = true;
                        }
                        head = k - 1;
                    }
                    _ => break,
                }
            }
            let head_line = toks[head].line;
            let documented = doc_attr
                || file.comments.iter().any(|c| c.is_outer_doc() && c.end_line + 1 == head_line);
            if !documented {
                out.push(finding(
                    self,
                    file,
                    toks[i].lo,
                    format!(
                        "undocumented pub {} in a façade crate — add a /// doc comment",
                        next.text
                    ),
                ));
            }
        }
    }
}
