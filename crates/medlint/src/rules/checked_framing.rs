//! `checked-framing`: length arithmetic on the wire path must be
//! explicit about overflow.
//!
//! Frame headers carry attacker-controlled `u32` lengths, and the codec
//! walks buffers with cursor+length arithmetic. In `serve::protocol` and
//! `core::codec`, bare `as` casts to integer types and unchecked `+`/`*`
//! involving length-like values are flagged — use `try_from`,
//! `checked_add`/`checked_mul`, or a saturating/sticky-overflow design.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// See the module docs.
pub struct CheckedFraming;

const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Identifiers that talk about lengths, sizes or cursor positions.
fn is_lenish(word: &str) -> bool {
    word.contains("len")
        || word.contains("size")
        || matches!(word, "at" | "offset" | "pos" | "count" | "n" | "read" | "capacity")
}

fn in_scope(rel: &str) -> bool {
    rel == "crates/serve/src/protocol.rs"
        || rel == "crates/core/src/codec.rs"
        // The columnar table core: dictionary codes and row indices flow
        // between `u32` storage and `usize` addressing, and the CSV boundary
        // feeds it externally-supplied data.
        || rel == "crates/relation/src/column.rs"
        || rel == "crates/relation/src/csv.rs"
        // The identifier ciphertext decoder reads a length prefix that a
        // forged ciphertext or a wrong key sets to any `u64`.
        || rel == "crates/crypto/src/aes.rs"
}

impl Rule for CheckedFraming {
    fn name(&self) -> &'static str {
        "checked-framing"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.files.iter().filter(|f| in_scope(&f.rel_path)) {
            check_file(file, out);
        }
    }
}

fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.is_test_token(i) {
            continue;
        }
        let text = tok.text(&file.text);
        match tok.kind {
            TokenKind::Ident if text == "as" => {
                let target_is_int =
                    file.next_code(i).is_some_and(|n| INT_TYPES.contains(&file.tok_text(n)));
                if target_is_int {
                    out.push(Diagnostic::new(
                        &file.rel_path,
                        tok.line,
                        "checked-framing",
                        "bare `as` integer cast on the framing path can \
                         silently truncate; use `try_from` (or widen losslessly \
                         with `from`)",
                    ));
                }
            }
            TokenKind::Punct
                if (text == "+" || text == "*") && is_unchecked_len_arithmetic(file, i) =>
            {
                let op = if text == "+" { "addition" } else { "multiplication" };
                out.push(Diagnostic::new(
                    &file.rel_path,
                    tok.line,
                    "checked-framing",
                    format!(
                        "unchecked {op} on a length value can overflow on \
                             adversarial input; use `checked_{}`",
                        if text == "+" { "add" } else { "mul" }
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// A `+`/`*` is flagged when it is a binary operator (an operand on each
/// side, not `+=`, not a unary `*deref` or `&*`), and a length-like
/// identifier appears within three significant tokens on either side.
fn is_unchecked_len_arithmetic(file: &SourceFile, i: usize) -> bool {
    let Some(p) = file.prev_code(i) else { return false };
    let Some(n) = file.next_code(i) else { return false };
    if file.tok_text(n) == "=" {
        return false; // `+=` / `*=` compound assignment
    }
    let prev = &file.tokens[p];
    let prev_text = prev.text(&file.text);
    let prev_is_operand = matches!(prev.kind, TokenKind::Ident | TokenKind::Number)
        && !super::is_keyword(prev_text)
        || matches!(prev_text, ")" | "]");
    let next = &file.tokens[n];
    let next_is_operand =
        matches!(next.kind, TokenKind::Ident | TokenKind::Number) || file.tok_text(n) == "(";
    if !prev_is_operand || !next_is_operand {
        return false;
    }
    // Look for a length-ish identifier near the operator.
    let mut near = Vec::new();
    let mut j = i;
    for _ in 0..3 {
        match file.prev_code(j) {
            Some(k) => {
                near.push(k);
                j = k;
            }
            None => break,
        }
    }
    let mut j = i;
    for _ in 0..3 {
        match file.next_code(j) {
            Some(k) => {
                near.push(k);
                j = k;
            }
            None => break,
        }
    }
    near.into_iter().any(|k| {
        file.tokens.get(k).is_some_and(|t| t.kind == TokenKind::Ident)
            && is_lenish(file.tok_text(k))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory(vec![(path.to_string(), src.to_string())], None, None);
        let mut out = Vec::new();
        CheckedFraming.check(&ws, &mut out);
        out
    }

    #[test]
    fn flags_casts_and_len_arithmetic() {
        let src = "fn f(v: &[u8], at: usize) {\n let n = v.len() as u32;\n let end = at + n as usize;\n}\n";
        let found = diags("crates/core/src/codec.rs", src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().any(|d| d.line == 3 && d.message.contains("checked_add")));
    }

    #[test]
    fn checked_ops_and_plain_arithmetic_pass() {
        let src = "fn f(a: u32, b: u32, len: usize) -> Option<u32> {\n let c = a.checked_add(b)?;\n let d = len.checked_mul(2)?;\n let sum = a + b;\n Some(c + d as u32)\n}\n";
        // `a + b` has no length-ish operand nearby and is fine; the `as`
        // cast on line 5 still trips.
        let found = diags("crates/serve/src/protocol.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("as"));
    }

    #[test]
    fn scope_is_protocol_codec_and_column_store() {
        let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n";
        assert!(diags("crates/serve/src/server.rs", src).is_empty());
        assert!(!diags("crates/serve/src/protocol.rs", src).is_empty());
        assert!(!diags("crates/relation/src/column.rs", src).is_empty());
        assert!(!diags("crates/relation/src/csv.rs", src).is_empty());
        assert!(!diags("crates/crypto/src/aes.rs", src).is_empty());
    }

    #[test]
    fn use_renames_and_compound_assign_pass() {
        let src = "use std::io::Read as IoRead;\nfn f(mut at: usize, len: usize) { at += len; }\n";
        assert!(diags("crates/core/src/codec.rs", src).is_empty());
    }
}
