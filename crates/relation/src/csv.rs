//! The CSV wire codec: the body format of every served command.
//!
//! Every table reaches the data holder as a CSV body and every release
//! leaves as one (`docs/PROTOCOL.md` §4.1.1 is the normative grammar), so both
//! directions are single passes over columnar storage:
//!
//! * [`from_csv`] scans the body's bytes once. A field borrows from the body
//!   unless it holds an escaped quote or mixes quoted and unquoted parts, and
//!   each record's fields go straight into per-column builders: an integer
//!   column pushes `i64`s, a dictionary column parses and interns each
//!   distinct field text once.
//! * [`to_csv`] renders and escapes each dictionary entry once, then writes
//!   codes and integers straight into one output string.

use crate::column::{Column, ColumnData};
use crate::error::RelationError;
use crate::schema::{ColumnDef, ColumnRole, Schema};
use crate::table::Table;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write;

/// Serialize a table to CSV text: a header of column names followed by one
/// line per row, values in display form.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<&str> = table.schema().columns().iter().map(|c| c.name.as_str()).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    let cells: Vec<Cells<'_>> = table.columns().iter().map(Cells::new).collect();
    for row in 0..table.len() {
        for (i, column) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            column.write(&mut out, row);
        }
        out.push('\n');
    }
    out
}

/// One column ready to encode: integers are written as they are, and each
/// dictionary entry is rendered and escaped once per call.
enum Cells<'t> {
    Int(&'t [i64]),
    Dict { codes: &'t [u32], rendered: Vec<String> },
}

impl<'t> Cells<'t> {
    fn new(column: &'t Column) -> Self {
        match column.data() {
            ColumnData::Int(values) => Cells::Int(values),
            ColumnData::Dict { dict, codes } => {
                Cells::Dict { codes, rendered: dict.iter().map(render).collect() }
            }
        }
    }

    fn write(&self, out: &mut String, row: usize) {
        match self {
            Cells::Int(values) => {
                if let Some(v) = values.get(row) {
                    // Writing into a `String` cannot fail.
                    let _ = write!(out, "{v}");
                }
            }
            Cells::Dict { codes, rendered } => {
                let code = codes.get(row).and_then(|&c| usize::try_from(c).ok());
                if let Some(text) = code.and_then(|c| rendered.get(c)) {
                    out.push_str(text);
                }
            }
        }
    }
}

/// A value's display form, quoted if it contains a comma, a double quote,
/// or a line break (all three would otherwise corrupt the record structure
/// on re-parse).
fn render(value: &Value) -> String {
    let text = value.to_string();
    if text.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text
    }
}

/// Parse a CSV body into a table.
///
/// `roles` assigns a [`ColumnRole`] to each header column by name; columns not
/// listed default to [`ColumnRole::NonIdentifying`]. Quoted fields may carry
/// embedded commas, escaped quotes and line breaks; records may be separated
/// by `\n`, `\r\n` or `\r`.
pub fn from_csv(text: &str, roles: &[(&str, ColumnRole)]) -> Result<Table, RelationError> {
    let mut fields = Vec::new();
    if text.bytes().filter(|&b| b == b'"').count() % 2 == 1 {
        // An odd number of quotes leaves the scan inside a quoted field.
        // That error outranks every other, so find the line its record
        // starts on before typing any cell.
        let mut probe = Scanner::new(text);
        while probe.record(&mut fields)?.is_some() {}
    }
    let mut scanner = Scanner::new(text);
    if scanner.record(&mut fields)?.is_none() {
        return Err(RelationError::CsvParse { line: 1, message: "missing header".into() });
    }
    let columns: Vec<ColumnDef> = fields
        .iter()
        .map(|name| {
            let name = name.trim();
            let role = roles
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, r)| *r)
                .unwrap_or(ColumnRole::NonIdentifying);
            ColumnDef::new(name, role)
        })
        .collect();
    let schema = Schema::new(columns)?;
    let arity = schema.arity();
    let mut builders: Vec<ColumnBuilder<'_>> =
        schema.columns().iter().map(|c| ColumnBuilder::new(c.role)).collect();
    while let Some(record) = scanner.record(&mut fields)? {
        if let [only] = fields.as_slice() {
            // A blank (or whitespace-only) line is not a tuple; an explicitly
            // quoted empty field (`""`) is.
            if !record.quoted && only.trim().is_empty() {
                continue;
            }
        }
        if fields.len() != arity {
            return Err(RelationError::CsvParse {
                line: record.line,
                message: format!("expected {arity} fields, found {}", fields.len()),
            });
        }
        for (builder, field) in builders.iter_mut().zip(fields.drain(..)) {
            builder.push(field);
        }
    }
    Ok(Table::from_columns(schema, builders.into_iter().map(|b| b.column).collect()))
}

/// A cursor over the unread part of a body.
struct Scanner<'a> {
    rest: &'a str,
    /// The 1-based physical line `rest` starts on.
    line: usize,
}

/// Where a record starts, and whether any of its fields opened a quote.
struct RecordStart {
    line: usize,
    quoted: bool,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { rest: text, line: 1 }
    }

    /// Read the next record's fields into `fields`, skipping the blank lines
    /// before it. `None` at the end of the body.
    fn record(
        &mut self,
        fields: &mut Vec<Cow<'a, str>>,
    ) -> Result<Option<RecordStart>, RelationError> {
        fields.clear();
        while self.rest.starts_with(['\r', '\n']) {
            self.separator();
        }
        if self.rest.is_empty() {
            return Ok(None);
        }
        let mut start = RecordStart { line: self.line, quoted: false };
        loop {
            let Some((field, last)) = self.field(&mut start.quoted) else {
                return Err(RelationError::CsvParse {
                    line: start.line,
                    message: "unterminated quoted field".into(),
                });
            };
            fields.push(field);
            if last {
                return Ok(Some(start));
            }
        }
    }

    /// Consume one record separator: `\r\n`, `\r` or `\n`.
    fn separator(&mut self) {
        let rest = self.rest.strip_prefix("\r\n").or_else(|| self.rest.strip_prefix(['\r', '\n']));
        self.rest = rest.unwrap_or(self.rest);
        self.line = self.line.saturating_add(1);
    }

    /// Scan one field, returning its text and whether it ended its record.
    /// `None` when the body ends inside a quoted part.
    fn field(&mut self, quoted: &mut bool) -> Option<(Cow<'a, str>, bool)> {
        let mut field = Cow::Borrowed("");
        loop {
            let stop = self
                .rest
                .bytes()
                .position(|b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
                .unwrap_or(self.rest.len());
            // `stop` is an ASCII byte or the end, so always a char boundary.
            let (run, tail) = self.rest.split_at_checked(stop).unwrap_or((self.rest, ""));
            append(&mut field, run);
            let after = tail.get(1..).unwrap_or_default();
            match tail.as_bytes().first() {
                Some(b'"') => {
                    *quoted = true;
                    self.rest = after;
                    self.quoted_part(&mut field)?;
                }
                Some(b',') => {
                    self.rest = after;
                    return Some((field, false));
                }
                Some(_) => {
                    self.rest = tail;
                    self.separator();
                    return Some((field, true));
                }
                None => {
                    self.rest = tail;
                    return Some((field, true));
                }
            }
        }
    }

    /// Scan a quoted part up to its closing quote, where `""` stands for one
    /// literal quote. `None` when no closing quote follows.
    fn quoted_part(&mut self, field: &mut Cow<'a, str>) -> Option<()> {
        loop {
            let (content, after) = self.rest.split_once('"')?;
            let breaks = content.bytes().filter(|&b| b == b'\n').count();
            self.line = self.line.saturating_add(breaks);
            append(field, content);
            match after.strip_prefix('"') {
                Some(escaped) => {
                    append(field, "\"");
                    self.rest = escaped;
                }
                None => {
                    self.rest = after;
                    return Some(());
                }
            }
        }
    }
}

/// Extend a field with the next piece of its text. A field made of one piece
/// stays borrowed from the body; only a second non-empty piece allocates.
fn append<'a>(field: &mut Cow<'a, str>, piece: &'a str) {
    if field.is_empty() {
        *field = Cow::Borrowed(piece);
    } else if !piece.is_empty() {
        field.to_mut().push_str(piece);
    }
}

/// Builds one column while the body is scanned, with the same layout and
/// codes as pushing each parsed cell through [`Column::push`].
struct ColumnBuilder<'a> {
    column: Column,
    /// Field text → dictionary code, so `Value::parse` and interning run
    /// once per distinct text rather than once per cell. `None` for
    /// identifying columns: they hold one value per tuple, so the map would
    /// only miss.
    codes: Option<HashMap<Cow<'a, str>, u32>>,
}

impl<'a> ColumnBuilder<'a> {
    fn new(role: ColumnRole) -> Self {
        ColumnBuilder { column: Column::new(), codes: (!role.is_identifying()).then(HashMap::new) }
    }

    fn push(&mut self, field: Cow<'a, str>) {
        if let Column::Int(values) = &mut self.column {
            // `Value::parse` yields `Int` exactly when the trimmed text parses
            // as an `i64`: empty text, `∅` and `[lo,hi)` never do.
            if let Ok(v) = field.trim().parse::<i64>() {
                values.push(v);
                return;
            }
        }
        let dict = self.column.promote();
        if let Some(&code) = self.codes.as_ref().and_then(|codes| codes.get(field.as_ref())) {
            dict.push_code(code);
            return;
        }
        let code = dict.intern_owned(Value::parse(&field));
        dict.push_code(code);
        if let Some(codes) = &mut self.codes {
            codes.insert(field, code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(Schema::medical_example());
        t.insert(vec![
            Value::text("111-22-3333"),
            Value::int(34),
            Value::int(53001),
            Value::text("Surgeon"),
            Value::text("428.0"),
            Value::text("Lisinopril"),
        ])
        .unwrap();
        t.insert(vec![
            Value::text("222-33-4444"),
            Value::interval(30, 40),
            Value::int(53002),
            Value::text("Nurse"),
            Value::text("401.9"),
            Value::Null,
        ])
        .unwrap();
        t
    }

    #[test]
    fn to_csv_has_header_and_rows() {
        let csv = to_csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "ssn,age,zip_code,doctor,symptom,prescription");
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let original = sample();
        let csv = to_csv(&original);
        let roles = [
            ("ssn", ColumnRole::Identifying),
            ("age", ColumnRole::QuasiNumeric),
            ("zip_code", ColumnRole::QuasiNumeric),
            ("doctor", ColumnRole::QuasiCategorical),
            ("symptom", ColumnRole::QuasiCategorical),
            ("prescription", ColumnRole::QuasiCategorical),
        ];
        let parsed = from_csv(&csv, &roles).unwrap();
        assert_eq!(parsed.len(), original.len());
        assert_eq!(parsed.value_at(1, 1), Some(Value::interval(30, 40)));
        assert_eq!(parsed.value_at(1, 5), Some(Value::Null));
        assert_eq!(parsed.schema().column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
    }

    #[test]
    fn symptom_codes_stay_text() {
        // ICD-9-like codes such as "428.0" must not be mangled into numbers.
        let csv = to_csv(&sample());
        let parsed = from_csv(&csv, &[]).unwrap();
        assert_eq!(parsed.value_at(0, 4), Some(Value::text("428.0")));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(from_csv("", &[]).is_err());
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let text = "a,b\n1,2\n3\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "a,b\n1,2\n\n3,4\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.len(), 2);
    }

    /// Adversarial field contents must survive parse → write → parse
    /// losslessly: embedded commas, embedded double quotes, embedded line
    /// breaks (LF and CRLF), and combinations.
    #[test]
    fn quoted_fields_roundtrip_losslessly() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("note", ColumnRole::NonIdentifying),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for note in [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "\"leading and trailing\"",
            "comma, \"and\" quote",
            "line\nbreak",
            "crlf\r\nbreak",
            "trailing,",
            ",leading",
            "a,\"b\",c",
        ] {
            t.insert(vec![Value::text("x"), Value::text(note)]).unwrap();
        }
        let once = to_csv(&t);
        let parsed = from_csv(&once, &[("id", ColumnRole::Identifying)]).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(parsed.column_values("note").unwrap(), t.column_values("note").unwrap());
        // Idempotent: a second round-trip reproduces the same text.
        let twice = to_csv(&parsed);
        assert_eq!(once, twice);
    }

    #[test]
    fn quoted_empty_field_is_a_row_not_a_blank_line() {
        // `""` on its own line is a deliberate empty value in a one-column
        // table; only genuinely blank lines are skipped.
        let text = "note\n\"\"\nx\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_values("note").unwrap(), vec![Value::Null, Value::text("x")]);
    }

    #[test]
    fn crlf_record_separators_parse_like_lf() {
        let lf = "a,b\n1,x\n2,y\n";
        let crlf = "a,b\r\n1,x\r\n2,y\r\n";
        let t_lf = from_csv(lf, &[]).unwrap();
        let t_crlf = from_csv(crlf, &[]).unwrap();
        assert_eq!(t_lf.len(), t_crlf.len());
        for name in ["a", "b"] {
            assert_eq!(t_lf.column_values(name).unwrap(), t_crlf.column_values(name).unwrap());
        }
        // Mixed separators in one file also work.
        let mixed = "a,b\r\n1,x\n2,y\r\n";
        assert_eq!(from_csv(mixed, &[]).unwrap().len(), 2);
    }

    #[test]
    fn quoted_header_names_get_their_roles() {
        // A header field that needs quoting (or carries padding) must still
        // match its role entry after unquoting and trimming.
        let text = "\"ssn\", age \n123-45-6789,30\n";
        let t =
            from_csv(text, &[("ssn", ColumnRole::Identifying), ("age", ColumnRole::QuasiNumeric)])
                .unwrap();
        assert_eq!(t.schema().column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
        assert_eq!(t.schema().column_by_name("age").unwrap().role, ColumnRole::QuasiNumeric);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let text = "a,b\n1,\"unclosed\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { message, .. } => {
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_error_line_number_survives_multiline_fields() {
        // The record on physical line 2 spans three lines; the bad record
        // starts on physical line 5.
        let text = "a,b\n1,\"x\ny\nz\"\n3\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { line, .. } => assert_eq!(line, 5),
            other => panic!("unexpected error {other:?}"),
        }
    }

    fn parse_error(text: &str) -> (usize, String) {
        match from_csv(text, &[]).unwrap_err() {
            RelationError::CsvParse { line, message } => (line, message),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_outranks_an_earlier_arity_error() {
        // Line 3 has the wrong field count, but the quote opened on line 4
        // never closes: that is the error reported, at the line its record
        // starts on.
        let (line, message) = parse_error("a,b\n1,2\n3\n4,\"x\ny\n");
        assert_eq!(line, 4);
        assert!(message.contains("unterminated"), "{message}");
        // With the quote closed, the arity error on line 3 is what remains.
        let (line, message) = parse_error("a,b\n1,2\n3\n4,\"x\ny\"\n");
        assert_eq!(line, 3);
        assert_eq!(message, "expected 2 fields, found 1");
    }

    #[test]
    fn lone_cr_separates_records() {
        let t = from_csv("a,b\r1,x\r2,y\r", &[]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_values("a").unwrap(), vec![Value::int(1), Value::int(2)]);
        assert_eq!(t.column_values("b").unwrap(), vec![Value::text("x"), Value::text("y")]);
        // A lone CR counts one line, like LF and CRLF.
        let (line, _) = parse_error("a,b\r1,2\r\n3,4\n5,6\r7\n");
        assert_eq!(line, 5);
    }

    #[test]
    fn quoted_and_unquoted_parts_join_into_one_field() {
        let t = from_csv("note\na\"b,c\"d\n", &[]).unwrap();
        assert_eq!(t.column_values("note").unwrap(), vec![Value::text("ab,cd")]);
    }

    #[test]
    fn escaped_quotes_at_both_ends_of_a_quoted_field() {
        let t = from_csv("note,n\n\"\"\"x\"\"\",1\n\"\"\"\",2\n", &[]).unwrap();
        assert_eq!(t.column_values("note").unwrap(), vec![Value::text("\"x\""), Value::text("\"")]);
    }

    #[test]
    fn integer_column_turning_to_text_keeps_first_appearance_codes() {
        let t = from_csv("n\n1\n2\nx\n1\n", &[]).unwrap();
        let ColumnData::Dict { dict, codes } = t.column(0).unwrap().data() else {
            panic!("a text cell promotes the column to dictionary encoding");
        };
        assert_eq!(dict, &[Value::int(1), Value::int(2), Value::text("x")]);
        assert_eq!(codes, &[0, 1, 2, 0]);
        // Before the first non-integer cell the column stays native.
        let t = from_csv("n\n1\n2\n", &[]).unwrap();
        assert!(matches!(t.column(0).unwrap().data(), ColumnData::Int([1, 2])));
    }

    #[test]
    fn header_alone_or_with_blank_lines_gives_no_rows() {
        for text in ["a,b", "a,b\n", "a,b\n\n\r\n  \n\r"] {
            let t = from_csv(text, &[]).unwrap();
            assert_eq!(t.len(), 0, "{text:?}");
            assert_eq!(t.schema().arity(), 2);
            assert!(matches!(t.column(1).unwrap().data(), ColumnData::Int([])));
        }
    }

    #[test]
    fn leading_zeros_collapse_to_the_integer() {
        // Documents the format: an ICD-9 code such as `001` types as Int(1).
        let t = from_csv("symptom\n001\n", &[]).unwrap();
        assert_eq!(t.column_values("symptom").unwrap(), vec![Value::int(1)]);
    }
}
