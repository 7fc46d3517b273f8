//! The rule engine: the [`Rule`] trait, the registry of project rules,
//! and the suppression-aware [`lint`] entry point.
//!
//! Rules are *project-specific by design*: each one encodes an invariant
//! the MedShield serving path depends on (see `docs/ARCHITECTURE.md`,
//! "Static analysis"). A rule walks the token streams of a
//! [`Workspace`] and reports
//! [`Diagnostic`]s; the engine then drops every diagnostic covered by a
//! `// medlint::allow(rule, reason)` suppression on the same or the
//! preceding line.

mod checked_framing;
mod error_code_sync;
mod forbid_unsafe;
mod lock_discipline;
mod no_panic;

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

pub use checked_framing::CheckedFraming;
pub use error_code_sync::ErrorCodeSync;
pub use forbid_unsafe::ForbidUnsafe;
pub use lock_discipline::LockDiscipline;
pub use no_panic::NoPanic;

/// Rust keywords that can precede `[` without it being an index
/// expression (`let [a, b] = …`, `for x in xs[..] {…}` never lexes `in [`
/// as indexing, etc.).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Is `word` a Rust keyword (path-segment keywords excluded — `self`,
/// `Self`, `super` name values and can be indexed)?
pub(crate) fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// One lint rule.
pub trait Rule {
    /// The kebab-case rule name used in diagnostics and suppressions.
    fn name(&self) -> &'static str;
    /// Check the workspace, appending findings to `out`.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// Every registered rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanic),
        Box::new(LockDiscipline),
        Box::new(CheckedFraming),
        Box::new(ForbidUnsafe),
        Box::new(ErrorCodeSync),
    ]
}

/// The outcome of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Findings that survived suppression filtering, in (file, line)
    /// order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings a `medlint::allow` suppressed.
    pub suppressed: usize,
}

/// Run every rule over the workspace and apply suppressions. Malformed
/// suppression comments are themselves reported (rule `suppression`), so
/// a reasonless allow can never silently disable a gate.
pub fn lint(ws: &Workspace) -> LintReport {
    let mut raw = Vec::new();
    for rule in all_rules() {
        rule.check(ws, &mut raw);
    }
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for diag in raw {
        let allowed = ws
            .files
            .iter()
            .find(|f| f.rel_path == diag.file)
            .is_some_and(|f| f.is_allowed(&diag.rule, diag.line));
        if allowed {
            suppressed += 1;
        } else {
            diagnostics.push(diag);
        }
    }
    for file in &ws.files {
        for (line, problem) in &file.bad_allows {
            diagnostics.push(Diagnostic::new(&file.rel_path, *line, "suppression", problem));
        }
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    LintReport { diagnostics, suppressed }
}
