//! Differential mutation harness for the CSV codec.
//!
//! The decoder reads untrusted request bodies, so it must be total (an
//! error, never a panic) on any input, not just on hand-written cases. A
//! seeded, std-only mutator derives inputs from a committed corpus, and every
//! input is decoded twice: by [`csv::from_csv`] and by a reference oracle, a
//! plain record-splitting decoder kept here as the specification of the body
//! format (split the whole body into records of owned fields, type each
//! field with [`Value::parse`], and append each record with
//! [`Table::insert`]). Where the oracle accepts, the tables must agree down
//! to their column layout, dictionary entries, codes and ids, and both
//! encoders must write the same text; where it rejects, the error messages
//! must be identical.

use medshield_relation::{
    csv, ColumnData, ColumnDef, ColumnRole, RelationError, Schema, Table, Value,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutations per run of the default test.
const BUDGET: usize = 20_000;

/// Mutations per run of the long, `#[ignore]`d variant (run in release mode).
const LONG_BUDGET: usize = 1_000_000;

/// The committed corpus: the edge cases of the codec's unit tests, the
/// request example of `docs/PROTOCOL.md` §4.1, and generated bodies.
const CORPUS: &[&str] = &[
    "",
    "ssn,age,zip_code,doctor,symptom,prescription\n\
     111-22-3333,34,53001,Surgeon,428.0,Lisinopril\n\
     222-33-4444,\"[30,40)\",53002,Nurse,401.9,\n",
    "ssn,age,zip_code,doctor,symptom,prescription\n000-00-0001,34,10301,...\n",
    "a,b\n1,2\n3\n",
    "a,b\n1,2\n\n3,4\n",
    "id,note\nx,plain\nx,\"with,comma\"\nx,\"with \"\"quotes\"\"\"\n\
     x,\"\"\"leading and trailing\"\"\"\nx,\"comma, \"\"and\"\" quote\"\n\
     x,\"line\nbreak\"\nx,\"crlf\r\nbreak\"\nx,\"trailing,\"\nx,\",leading\"\n\
     x,\"a,\"\"b\"\",c\"\n",
    "note\n\"\"\nx\n",
    "a,b\n1,x\n2,y\n",
    "a,b\r\n1,x\r\n2,y\r\n",
    "a,b\r\n1,x\n2,y\r\n",
    "\"ssn\", age \n123-45-6789,30\n",
    "a,b\n1,\"unclosed\n",
    "a,b\n1,\"x\ny\nz\"\n3\n",
    "a,b\n1,2\n3\n4,\"x\ny\n",
    "a,b\r1,x\r2,y\r",
    "note\na\"b,c\"d\n",
    "note,n\n\"\"\"x\"\"\",1\n\"\"\"\",2\n",
    "n\n1\n2\nx\n1\n",
    "a,b\n\n\r\n  \n\r",
    "symptom\n001\n",
    "ssn,age\n s1 ,∅\ns2,[-5, 7)\ns3, 12 \ns4,[1,2\n",
    include_str!("csv_corpus/original.csv"),
    include_str!("csv_corpus/release.csv"),
];

/// Roles for the corpus's column names; one identifying column per table
/// shape so both dictionary paths (with and without the text map) run.
const ROLES: &[(&str, ColumnRole)] = &[
    ("ssn", ColumnRole::Identifying),
    ("id", ColumnRole::Identifying),
    ("a", ColumnRole::Identifying),
    ("age", ColumnRole::QuasiNumeric),
    ("zip_code", ColumnRole::QuasiNumeric),
    ("doctor", ColumnRole::QuasiCategorical),
    ("symptom", ColumnRole::QuasiCategorical),
    ("prescription", ColumnRole::QuasiCategorical),
];

// ---------------------------------------------------------------------------
// Reference oracle
// ---------------------------------------------------------------------------

/// One record: the 1-based line it starts on, its fields, and whether any
/// field was quoted (a lone `""` record is a value, not a blank line).
struct Record {
    line: usize,
    fields: Vec<String>,
    quoted: bool,
}

/// Split the whole body into records, honouring double-quoted fields.
fn oracle_records(text: &str) -> Result<Vec<Record>, RelationError> {
    let mut records = Vec::new();
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut quoted = false;
    let mut line = 1usize;
    let mut record_line = 1usize;
    let mut pending = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => {
                in_quotes = true;
                quoted = true;
                pending = true;
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut current));
                pending = true;
            }
            '\r' | '\n' if !in_quotes => {
                if c == '\r' && chars.peek() == Some(&'\n') {
                    chars.next();
                }
                line += 1;
                if pending {
                    fields.push(std::mem::take(&mut current));
                    records.push(Record {
                        line: record_line,
                        fields: std::mem::take(&mut fields),
                        quoted,
                    });
                    pending = false;
                    quoted = false;
                }
                record_line = line;
            }
            other => {
                if other == '\n' {
                    line += 1;
                }
                current.push(other);
                pending = true;
            }
        }
    }
    if in_quotes {
        return Err(RelationError::CsvParse {
            line: record_line,
            message: "unterminated quoted field".into(),
        });
    }
    if pending {
        fields.push(current);
        records.push(Record { line: record_line, fields, quoted });
    }
    Ok(records)
}

/// Decode a body record by record through [`Table::insert`].
fn oracle_from_csv(text: &str, roles: &[(&str, ColumnRole)]) -> Result<Table, RelationError> {
    let mut records = oracle_records(text)?.into_iter();
    let header = records
        .next()
        .ok_or(RelationError::CsvParse { line: 1, message: "missing header".into() })?;
    let columns = header
        .fields
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
    let mut table = Table::new(schema);
    for record in records {
        if record.fields.len() == 1 && !record.quoted && record.fields[0].trim().is_empty() {
            continue;
        }
        let values: Vec<Value> = record.fields.iter().map(|f| Value::parse(f)).collect();
        if values.len() != arity {
            return Err(RelationError::CsvParse {
                line: record.line,
                message: format!("expected {arity} fields, found {}", values.len()),
            });
        }
        table.insert(values)?;
    }
    Ok(table)
}

/// Encode a table cell by cell.
fn oracle_to_csv(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<&str> = table.schema().columns().iter().map(|c| c.name.as_str()).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for row in 0..table.len() {
        let line: Vec<String> = (0..names.len())
            .map(|col| {
                let field = table.value_at(row, col).unwrap().to_string();
                if field.contains([',', '"', '\n', '\r']) {
                    format!("\"{}\"", field.replace('"', "\"\""))
                } else {
                    field
                }
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Mutator
// ---------------------------------------------------------------------------

/// SplitMix64: a seeded, std-only generator; the same seed gives the same
/// mutations on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The bytes that shape records and fields.
const STRUCTURAL: &[u8] = b"\",\r\n";

/// Apply one to four stacked mutations to a corpus entry: bit flips,
/// insertions and deletions of structural bytes, truncations, and splices
/// with another entry.
fn mutate(rng: &mut Rng) -> String {
    let mut bytes = CORPUS[rng.below(CORPUS.len())].as_bytes().to_vec();
    for _ in 0..=rng.below(4) {
        match rng.below(5) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => {
                let at = rng.below(bytes.len() + 1);
                bytes.insert(at, STRUCTURAL[rng.below(STRUCTURAL.len())]);
            }
            2 => {
                let targets: Vec<usize> =
                    (0..bytes.len()).filter(|&i| STRUCTURAL.contains(&bytes[i])).collect();
                if !targets.is_empty() {
                    bytes.remove(targets[rng.below(targets.len())]);
                }
            }
            3 => {
                let at = rng.below(bytes.len() + 1);
                bytes.truncate(at);
            }
            _ => {
                let other = CORPUS[rng.below(CORPUS.len())].as_bytes();
                bytes.truncate(rng.below(bytes.len() + 1));
                bytes.extend_from_slice(&other[rng.below(other.len() + 1)..]);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

// ---------------------------------------------------------------------------
// Differential check
// ---------------------------------------------------------------------------

fn assert_same_table(got: &Table, want: &Table, input: &str) {
    assert_eq!(got.schema(), want.schema(), "schema differs on {input:?}");
    assert_eq!(got.ids(), want.ids(), "ids differ on {input:?}");
    for (index, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
        match (g.data(), w.data()) {
            (ColumnData::Int(g), ColumnData::Int(w)) => {
                assert_eq!(g, w, "column {index} differs on {input:?}");
            }
            (
                ColumnData::Dict { dict: gd, codes: gc },
                ColumnData::Dict { dict: wd, codes: wc },
            ) => {
                assert_eq!(gd, wd, "column {index} dictionary differs on {input:?}");
                assert_eq!(gc, wc, "column {index} codes differ on {input:?}");
            }
            (g, w) => panic!("column {index} layout differs on {input:?}: {g:?} vs {w:?}"),
        }
    }
}

fn check(input: &str, roles: &[(&str, ColumnRole)]) {
    let Ok(got) = catch_unwind(AssertUnwindSafe(|| csv::from_csv(input, roles))) else {
        panic!("from_csv panicked on {input:?}");
    };
    match (got, oracle_from_csv(input, roles)) {
        (Ok(got), Ok(want)) => {
            assert_same_table(&got, &want, input);
            assert_eq!(csv::to_csv(&got), oracle_to_csv(&got), "encoders differ on {input:?}");
        }
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "errors differ on {input:?}");
        }
        (got, want) => panic!("outcomes differ on {input:?}: {got:?} vs {want:?}"),
    }
}

fn run(seed: u64, budget: usize) {
    for entry in CORPUS {
        check(entry, ROLES);
        check(entry, &[]);
    }
    let mut rng = Rng(seed);
    for i in 0..budget {
        let input = mutate(&mut rng);
        check(&input, if i % 2 == 0 { ROLES } else { &[] });
    }
}

#[test]
fn decoder_matches_the_oracle_under_mutation() {
    run(0x6373_765f_6d75_7401, BUDGET);
}

/// The long budget; CI runs it in release mode with `--ignored`.
#[test]
#[ignore]
fn decoder_matches_the_oracle_under_a_long_mutation_budget() {
    run(0x6373_765f_6d75_7402, LONG_BUDGET);
}

#[test]
fn corpus_holds_accepted_and_rejected_bodies() {
    // The corpus covers both outcomes, so neither branch above is vacuous.
    let accepted = CORPUS.iter().filter(|e| oracle_from_csv(e, ROLES).is_ok()).count();
    assert!(accepted > 0 && accepted < CORPUS.len());
}
