//! A hand-rolled JSON encoder (and a small flat-object reader) for the wire
//! protocol's report headers.
//!
//! The workspace builds hermetically, with no serialization framework, so
//! the serving layer encodes its reports with this minimal, std-only writer. The reader side only needs to pick scalar fields
//! (and arrays of strings) out of the *flat* objects this crate itself
//! emits; it is not a general JSON parser.

use std::fmt;

/// A JSON value. Construct with the `obj`/`arr` helpers and the `From`
/// impls; render with `Display`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from [`Json::Num`] so counters render
    /// without a decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values render as `null` — JSON
    /// has no NaN/Infinity literal.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Build an array of strings.
pub fn str_arr<S: AsRef<str>>(items: &[S]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.as_ref().to_string())).collect())
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The raw text of `key`'s value in a flat JSON object emitted by this
/// crate. Skips over string contents (including escapes) and nested
/// brackets, so a value containing `","` or `"}"` cannot derail it.
pub fn get_raw<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let bytes = json.as_bytes();
    let needle = format!("\"{key}\"");
    let mut i = 0;
    let mut depth = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'"' => {
                let start = i;
                i += 1;
                while let Some(&c) = bytes.get(i) {
                    if c == b'"' {
                        break;
                    }
                    if c == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                let end = (i + 1).min(bytes.len());
                if depth == 1 && json.get(start..end) == Some(needle.as_str()) {
                    // Key match at the top level: the value follows the ':'.
                    let mut j = end;
                    while bytes.get(j).is_some_and(|&c| (c as char).is_whitespace()) {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b':') {
                        return Some(value_slice(json, j + 1));
                    }
                }
                i = end;
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// The slice of one JSON value starting at (or after whitespace from) `at`.
fn value_slice(json: &str, at: usize) -> &str {
    let bytes = json.as_bytes();
    let mut i = at;
    while bytes.get(i).is_some_and(|&c| (c as char).is_whitespace()) {
        i += 1;
    }
    let start = i;
    let mut depth = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'"' => {
                i += 1;
                while let Some(&c) = bytes.get(i) {
                    if c == b'"' {
                        break;
                    }
                    if c == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1;
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                if depth == 0 {
                    return json.get(start..i).unwrap_or_default().trim_end();
                }
                depth -= 1;
                i += 1;
            }
            b',' if depth == 0 => return json.get(start..i).unwrap_or_default().trim_end(),
            _ => i += 1,
        }
    }
    json.get(start..).unwrap_or_default().trim_end()
}

/// A string field, unescaped. `None` when absent or not a string.
pub fn get_str(json: &str, key: &str) -> Option<String> {
    let raw = get_raw(json, key)?;
    unescape(raw)
}

fn unescape(raw: &str) -> Option<String> {
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            '/' => out.push('/'),
            'u' => {
                let code: String = chars.by_ref().take(4).collect();
                let n = u32::from_str_radix(&code, 16).ok()?;
                out.push(char::from_u32(n)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// A numeric field. `None` when absent or not a number.
///
/// JSON has no NaN/Infinity literal, so the encoder renders non-finite
/// [`Json::Num`] values as `null` — this reader round-trips that `null`
/// back to NaN, the one non-finite value with "no numeric information"
/// semantics on the reading side (e.g. a `mark_loss` that could not be
/// computed).
pub fn get_f64(json: &str, key: &str) -> Option<f64> {
    let raw = get_raw(json, key)?;
    if raw == "null" {
        return Some(f64::NAN);
    }
    // Reject the textual spellings Rust's f64 parser would accept but a
    // JSON document can never contain.
    if raw.chars().any(|c| c.is_ascii_alphabetic() && c != 'e' && c != 'E') {
        return None;
    }
    raw.parse().ok()
}

/// An integer field. `None` when absent or not an integer.
pub fn get_u64(json: &str, key: &str) -> Option<u64> {
    get_raw(json, key)?.parse().ok()
}

/// A boolean field. `None` when absent or not a boolean.
pub fn get_bool(json: &str, key: &str) -> Option<bool> {
    match get_raw(json, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// The elements of a flat string-array field.
pub fn get_str_array(json: &str, key: &str) -> Option<Vec<String>> {
    let raw = get_raw(json, key)?;
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    let bytes = inner.as_bytes();
    let mut items = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        while bytes.get(i).is_some_and(|&c| (c as char).is_whitespace()) {
            i += 1;
        }
        if bytes.get(i) != Some(&b'"') {
            return None;
        }
        let start = i;
        i += 1;
        while let Some(&c) = bytes.get(i) {
            if c == b'"' {
                break;
            }
            if c == b'\\' {
                i += 1;
            }
            i += 1;
        }
        i += 1;
        // An unterminated string runs `i` past the end; `get` turns that
        // into a parse failure instead of a slicing panic.
        items.push(unescape(inner.get(start..i)?)?);
        while bytes.get(i).is_some_and(|&c| (c as char).is_whitespace()) {
            i += 1;
        }
        if let Some(&c) = bytes.get(i) {
            if c != b',' {
                return None;
            }
            i += 1;
        }
    }
    Some(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reads_back() {
        let j = obj(vec![
            ("status", "ok".into()),
            ("rows", 42usize.into()),
            ("loss", 0.25.into()),
            ("accepted", true.into()),
            ("note", "say \"hi\"\nline2".into()),
            ("warnings", str_arr(&["a", "b,}"])),
            ("nan", Json::Num(f64::NAN)),
        ]);
        let text = j.to_string();
        assert_eq!(get_str(&text, "status").as_deref(), Some("ok"));
        assert_eq!(get_u64(&text, "rows"), Some(42));
        assert_eq!(get_f64(&text, "loss"), Some(0.25));
        assert_eq!(get_bool(&text, "accepted"), Some(true));
        assert_eq!(get_str(&text, "note").as_deref(), Some("say \"hi\"\nline2"));
        assert_eq!(get_str_array(&text, "warnings").unwrap(), vec!["a", "b,}"]);
        assert_eq!(get_raw(&text, "nan"), Some("null"));
        assert_eq!(get_raw(&text, "missing"), None);
    }

    #[test]
    fn non_finite_numbers_render_null_and_read_back_as_nan() {
        // JSON has no NaN/Infinity token: every non-finite Num must render
        // as the valid literal `null`…
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = obj(vec![("loss", Json::Num(v))]).to_string();
            assert_eq!(text, "{\"loss\":null}", "{v} must encode as null");
            // …and get_f64 must round-trip it (as NaN) instead of dropping
            // the field.
            let read = get_f64(&text, "loss").expect("null reads back");
            assert!(read.is_nan(), "{v} read back as {read}");
        }
        // Finite values are untouched by the round-trip rule.
        let text = obj(vec![("loss", Json::Num(0.5))]).to_string();
        assert_eq!(get_f64(&text, "loss"), Some(0.5));
        // Non-numeric fields still read as None, not NaN: only the exact
        // `null` literal converts.
        let text = obj(vec![("loss", "NaN".into())]).to_string();
        assert_eq!(get_f64(&text, "loss"), None);
        assert_eq!(get_bool(&text, "loss"), None);
    }

    #[test]
    fn keys_inside_values_do_not_shadow() {
        let j = obj(vec![("a", "\"rows\": 9".into()), ("rows", 3usize.into())]);
        let text = j.to_string();
        assert_eq!(get_u64(&text, "rows"), Some(3));
    }

    #[test]
    fn control_characters_are_escaped() {
        let text = Json::Str("a\u{1}b".into()).to_string();
        assert_eq!(text, "\"a\\u0001b\"");
    }
}
