//! The report model behind every tracked `BENCH_*.json` file.
//!
//! A file is a schema string plus [`Section`]s; a section is a `quick`
//! flag plus ordered `(column, value)` members; a table row is an object
//! of the same pairs. Experiments build those pairs once and they drive
//! the printed table, the JSON and the acceptance gates alike. There is
//! one writer ([`render_json`]) with one layout rule, one strict reader
//! ([`parse`]), one carry-forward rule ([`merge`]), one registry of files
//! ([`REGISTRY`]) and one table of gates ([`GATES`]). The vendored serde
//! is a no-op stand-in (see `vendor/README.md`), hence the hand-rolled
//! JSON subset.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

/// Ordered `(column, value)` pairs: an object, a section body, a row.
pub type Members = Vec<(String, Value)>;

/// One node of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    U64(u64),
    /// A measurement, written with three decimals. NaN and the
    /// infinities are written as `null`, and `null` reads back as NaN.
    F64(f64),
    /// A verdict.
    Bool(bool),
    /// A name.
    Str(String),
    /// Rows, or a histogram.
    List(Vec<Value>),
    /// A row or a nested summary.
    Obj(Members),
}

macro_rules! into_value {
    ($($from:ty => |$x:ident| $to:expr;)*) => {$(
        impl From<$from> for Value {
            fn from($x: $from) -> Self {
                $to
            }
        }
    )*};
}
into_value! {
    u64 => |n| Value::U64(n);
    usize => |n| Value::U64(n as u64);
    f64 => |x| Value::F64(x);
    bool => |b| Value::Bool(b);
    &str => |s| Value::Str(s.to_string());
    Vec<Value> => |items| Value::List(items);
}

/// Ordered `column: value` pairs as [`Members`]; each value goes
/// through `Value::from`, so adding a column is one `name: value,` line.
#[macro_export]
macro_rules! members {
    ($($column:ident: $value:expr),* $(,)?) => {
        vec![$((stringify!($column).to_string(), $crate::report::Value::from($value))),*]
    };
}

/// A table row (an object) from `column: value` pairs.
#[macro_export]
macro_rules! row {
    ($($pairs:tt)*) => {
        $crate::report::Value::Obj($crate::members![$($pairs)*])
    };
}

/// Looks a column up by name.
#[must_use]
pub fn get<'a>(row: &'a [(String, Value)], column: &str) -> Option<&'a Value> {
    row.iter().find(|(key, _)| key == column).map(|(_, v)| v)
}

/// JSON-safe float: finite values only (NaN/inf become `null`).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// A string as a JSON string literal (`"`, `\` and controls escaped).
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' | '\\' => write!(f, "\\{c}")?,
                c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// The value as one line of JSON.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(n) => write!(f, "{n}"),
            Value::F64(x) => f.write_str(&num(*x)),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{}", Quoted(s)),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Value::Obj(members) => {
                let pair = |(key, value): &(String, Value)| format!("{}: {value}", Quoted(key));
                let members: Vec<String> = members.iter().map(pair).collect();
                write!(f, "{{{}}}", members.join(", "))
            }
        }
    }
}

/// One experiment's block of a tracked file.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The section's key in its file (see [`REGISTRY`]).
    pub key: String,
    /// Whether `--quick` produced it. Recorded per section, so a quick
    /// rerun of one experiment cannot mislabel a sibling's full run.
    pub quick: bool,
    /// Everything after `quick`, in file order.
    pub members: Members,
}

impl Section {
    /// A section measured by this process: `members` behind a stamp of
    /// the host that measured them. Sections read back from a file keep
    /// whatever stamp they had, so a file never claims a host that did
    /// not produce its numbers.
    #[must_use]
    pub fn produced(key: &str, quick: bool, mut members: Members) -> Section {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let host = crate::row! { cores: cores, rustc: env!("DRAMS_BENCH_RUSTC") };
        members.insert(0, ("host".to_string(), host));
        let key = key.to_string();
        Section {
            key,
            quick,
            members,
        }
    }
}

/// The section for people: scalars as `column: value`, nested objects
/// one column per line, row lists as a [`table`].
impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, value) in &self.members {
            match value {
                Value::Obj(columns) => {
                    writeln!(f, "{key}:")?;
                    for (column, v) in columns {
                        writeln!(f, "  {column:<32} {}", cell(v))?;
                    }
                }
                Value::List(rows) if rows.first().and_then(columns).is_some() => {
                    write!(f, "-- {key} --\n{}", table(rows))?;
                }
                other => writeln!(f, "{key}: {}", cell(other))?,
            }
        }
        Ok(())
    }
}

fn cell(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::F64(x) if !x.is_finite() => "-".to_string(),
        other => other.to_string(),
    }
}

fn columns(row: &Value) -> Option<&Members> {
    match row {
        Value::Obj(columns) => Some(columns),
        _ => None,
    }
}

/// Rows as an aligned text table headed by their column names — the
/// one table printer of the harness.
#[must_use]
pub fn table(rows: &[Value]) -> String {
    let Some(first) = rows.first().and_then(columns) else {
        return String::new();
    };
    let mut lines: Vec<Vec<String>> = vec![first.iter().map(|(key, _)| key.clone()).collect()];
    for row in rows.iter().filter_map(columns) {
        lines.push(row.iter().map(|(_, value)| cell(value)).collect());
    }
    let mut widths = vec![0; first.len()];
    for line in &lines {
        for (width, text) in widths.iter_mut().zip(line) {
            *width = text.chars().count().max(*width);
        }
    }
    let mut out = String::new();
    for line in &lines {
        let mut text = String::new();
        for (i, (cell, &w)) in line.iter().zip(&widths).enumerate() {
            text += &if i == 0 {
                format!("{cell:<w$}")
            } else {
                format!("  {cell:>w$}")
            };
        }
        out += text.trim_end();
        out.push('\n');
    }
    out
}

/// A whole tracked file.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The file's schema tag.
    pub schema: String,
    /// Its sections, in file order.
    pub sections: Vec<Section>,
}

/// The writer. One layout rule: the file and each section are laid out
/// one member per line, a list directly under a section one element per
/// line, and everything deeper on a single line.
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut out = format!("{{\n  \"schema\": {}", Quoted(&report.schema));
    for section in &report.sections {
        let key = Quoted(&section.key);
        out += &format!(",\n  {key}: {{\n    \"quick\": {}", section.quick);
        for (column, value) in &section.members {
            out += &format!(",\n    {}: ", Quoted(column));
            match value {
                Value::List(rows) => {
                    let rows: Vec<String> =
                        rows.iter().map(|row| format!("\n      {row}")).collect();
                    out += &format!("[{}\n    ]", rows.join(","));
                }
                other => out += &other.to_string(),
            }
        }
        out += "\n  }";
    }
    out += "\n}\n";
    out
}

/// Why a tracked file could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The file exists but could not be read as UTF-8 text.
    Io(std::io::ErrorKind),
    /// The text ends inside a value: a truncated file.
    UnexpectedEnd,
    /// Not the JSON subset the writer emits.
    Syntax {
        /// Byte offset the reader had reached.
        at: usize,
        /// What is wrong there.
        what: &'static str,
    },
    /// Well-formed, but not a report: the reason.
    Shape(&'static str),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(kind) => write!(f, "cannot read: {kind}"),
            ReadError::UnexpectedEnd => write!(f, "parse error: input ends inside a value"),
            ReadError::Syntax { at, what } => write!(f, "parse error at byte {at}: {what}"),
            ReadError::Shape(why) => write!(f, "not a report: {why}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Deepest container nesting the reader follows; the tracked files nest
/// five deep (file, section, row list, row, histogram).
const MAX_DEPTH: usize = 8;

/// The remaining input. Every step goes through `str` methods, so there
/// is no index to get wrong.
struct Parser<'a> {
    text: &'a str,
    rest: &'a str,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &'static str) -> Result<T, ReadError> {
        let at = self.text.len() - self.rest.len();
        Err(ReadError::Syntax { at, what })
    }

    /// The next character is wrong — or missing, which is also what a
    /// literal cut short (`tr`) at the end of the input reports.
    fn unexpected<T>(&self) -> Result<T, ReadError> {
        let words = ["true", "false", "null"];
        if words.iter().any(|word| word.starts_with(self.rest)) {
            return Err(ReadError::UnexpectedEnd);
        }
        self.fail("unexpected character")
    }

    fn bump(&mut self) -> Result<char, ReadError> {
        let mut chars = self.rest.chars();
        let c = chars.next().ok_or(ReadError::UnexpectedEnd)?;
        self.rest = chars.as_str();
        Ok(c)
    }

    /// Skips whitespace, then consumes `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        self.rest = self.rest.trim_start_matches([' ', '\n', '\r', '\t']);
        let after = self.rest.strip_prefix(token);
        self.rest = after.unwrap_or(self.rest);
        after.is_some()
    }

    fn expect(&mut self, token: &str) -> Result<(), ReadError> {
        if self.eat(token) {
            Ok(())
        } else {
            self.unexpected()
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ReadError> {
        let literals = [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::F64(f64::NAN)),
        ];
        for (word, value) in literals {
            if self.eat(word) {
                return Ok(value);
            }
        }
        match self.rest.chars().next() {
            Some('{' | '[') if depth == MAX_DEPTH => self.fail("nested too deep"),
            Some('{') => self.object(depth + 1),
            Some('[') => self.list(depth + 1),
            Some('"') => self.string().map(Value::Str),
            Some('-' | '0'..='9') => self.number(),
            _ => self.unexpected(),
        }
    }

    fn list(&mut self, depth: usize) -> Result<Value, ReadError> {
        self.expect("[")?;
        let mut items = Vec::new();
        while !self.eat("]") {
            if !items.is_empty() {
                self.expect(",")?;
            }
            items.push(self.value(depth)?);
        }
        Ok(Value::List(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, ReadError> {
        self.expect("{")?;
        let mut members = Members::new();
        while !self.eat("}") {
            if !members.is_empty() {
                self.expect(",")?;
            }
            let key = self.string()?;
            if get(&members, &key).is_some() {
                return self.fail("duplicate key");
            }
            self.expect(":")?;
            members.push((key, self.value(depth)?));
        }
        Ok(Value::Obj(members))
    }

    fn string(&mut self) -> Result<String, ReadError> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    c @ ('"' | '\\') => out.push(c),
                    'u' => {
                        let escape = self.rest.split_at_checked(4);
                        let (hex, rest) = escape.ok_or(ReadError::UnexpectedEnd)?;
                        let code = u32::from_str_radix(hex, 16).ok();
                        match code
                            .filter(|_| !hex.starts_with('+'))
                            .and_then(char::from_u32)
                        {
                            Some(c) => out.push(c),
                            None => return self.fail("unknown escape"),
                        }
                        self.rest = rest;
                    }
                    _ => return self.fail("unknown escape"),
                },
                c if c < ' ' => return self.fail("control character in a string"),
                c => out.push(c),
            }
        }
    }

    /// `123` or `-1.250`: exponents, bare signs, leading zeros and
    /// out-of-range integers are all refused.
    fn number(&mut self) -> Result<Value, ReadError> {
        let end = self.rest.find(|c| !matches!(c, '-' | '.' | '0'..='9'));
        let token = self
            .rest
            .get(..end.unwrap_or(self.rest.len()))
            .unwrap_or("");
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let integer = |s: &str| digits(s) && (s == "0" || !s.starts_with('0'));
        let parsed = match token.split_once('.') {
            None if integer(token) => token.parse().ok().map(Value::U64),
            Some((int, frac)) if integer(int.strip_prefix('-').unwrap_or(int)) && digits(frac) => {
                token.parse().ok().map(Value::F64)
            }
            _ => None,
        };
        match parsed {
            Some(value) => {
                self.rest = self.rest.strip_prefix(token).unwrap_or(self.rest);
                Ok(value)
            }
            None => self.fail("malformed number"),
        }
    }
}

/// The reader. Strict: the whole text must be one report — an object
/// that opens with a `schema` string and continues with sections, each
/// an object that opens with a `quick` flag. Never panics on any input.
///
/// # Errors
/// A [`ReadError`] naming what is wrong and where.
pub fn parse(text: &str) -> Result<Report, ReadError> {
    let mut parser = Parser { text, rest: text };
    let top = parser.value(0)?;
    if !(parser.eat("") && parser.rest.is_empty()) {
        return parser.fail("characters after the report");
    }
    let shape = |why| Err(ReadError::Shape(why));
    let Value::Obj(top) = top else {
        return shape("the top level is not an object");
    };
    let mut top = top.into_iter();
    let Some((_, Value::Str(schema))) = top.next().filter(|(key, _)| key == "schema") else {
        return shape("the first member is not a schema string");
    };
    let mut sections = Vec::new();
    for (key, body) in top {
        let Value::Obj(body) = body else {
            return shape("a section is not an object");
        };
        let mut members = body.into_iter();
        let Some((_, Value::Bool(quick))) = members.next().filter(|(flag, _)| flag == "quick")
        else {
            return shape("a section does not open with a quick flag");
        };
        let members = members.collect();
        sections.push(Section {
            key,
            quick,
            members,
        });
    }
    Ok(Report { schema, sections })
}

/// One tracked file: its name at the repo root, its schema tag, and the
/// sections it may hold, in file order.
#[derive(Debug)]
pub struct FileSpec {
    /// File name at the repo root.
    pub file: &'static str,
    /// Schema tag written into the file.
    pub schema: &'static str,
    /// Section keys, in file order.
    pub sections: &'static [&'static str],
}

macro_rules! files {
    ($($file:literal $schema:literal [$($section:literal),*];)*) => {[$(
        FileSpec { file: $file, schema: $schema, sections: &[$($section),*] }
    ),*]};
}

/// Every tracked file, one row each: name, schema, sections.
#[rustfmt::skip]
pub const REGISTRY: [FileSpec; 8] = files! {
    "BENCH_PDP.json"    "drams-bench-pdp/v2"    ["e5_pdp_scaling", "e6_monitoring_overhead"];
    "BENCH_CRYPTO.json" "drams-bench-crypto/v1" ["e9_crypto"];
    "BENCH_E2E.json"    "drams-bench-e2e/v1"    ["e10_scenarios"];
    "BENCH_STORE.json"  "drams-bench-store/v1"  ["e11_store_engine", "e11_compaction", "e11_recovery"];
    "BENCH_FUZZ.json"   "drams-bench-fuzz/v1"   ["e12_fuzz"];
    "BENCH_FAULT.json"  "drams-bench-fault/v1"  ["e13_faults"];
    "BENCH_LOAD.json"   "drams-bench-load/v1"   ["e14_load"];
    "BENCH_NET.json"    "drams-bench-net/v1"    ["e16_net"];
};

/// The carry-forward rule: the file holds, in registry order, each
/// section this run produced, else the committed one unchanged, else
/// nothing — so `run_experiments e5` alone cannot drop the committed E6
/// numbers, and a carried section keeps its own `quick` flag and host.
#[must_use]
pub fn merge(spec: &FileSpec, fresh: &[Section], committed: Option<&Report>) -> Report {
    let committed = committed.map_or(&[][..], |report| &report.sections);
    let sections = spec
        .sections
        .iter()
        .filter_map(|key| fresh.iter().chain(committed).find(|s| s.key == *key))
        .cloned()
        .collect();
    let schema = spec.schema.to_string();
    Report { schema, sections }
}

/// What a gated column must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The count is 0.
    Zero,
    /// The count is above 0 (the mechanism under test actually fired).
    Positive,
    /// The verdict is `true`.
    True,
    /// Equal to the named column of the same row.
    Equals(&'static str),
    /// At least this factor of the same column of the same row in the
    /// committed section. Like [`Rule::AtMostCommitted`], compared only
    /// against a committed section of the same `quick` mode, and only
    /// when the committed value is present and above 0.
    AtLeastCommitted(f64),
    /// At most this factor of the committed value.
    AtMostCommitted(f64),
}

impl Rule {
    fn compares(self) -> bool {
        matches!(self, Rule::AtLeastCommitted(_) | Rule::AtMostCommitted(_))
    }

    fn holds(self, value: &Value, row: &[(String, Value)], committed: Option<&Value>) -> bool {
        let number = |v: &Value| match *v {
            Value::U64(n) => Some(n as f64),
            Value::F64(x) if x.is_finite() => Some(x),
            _ => None,
        };
        // Fresh over committed, when there is a committed value above 0;
        // with nothing to compare against, any number passes.
        let base = committed.and_then(number).filter(|base| *base > 0.0);
        let ratio = |ok: &dyn Fn(f64) -> bool| match (number(value), base) {
            (Some(fresh), Some(base)) => ok(fresh / base),
            (fresh, _) => fresh.is_some(),
        };
        match self {
            Rule::Zero => *value == Value::U64(0),
            Rule::Positive => matches!(value, Value::U64(n) if *n > 0),
            Rule::True => *value == Value::Bool(true),
            Rule::Equals(column) => get(row, column) == Some(value),
            Rule::AtLeastCommitted(factor) => ratio(&|r| r >= factor),
            Rule::AtMostCommitted(factor) => ratio(&|r| r <= factor),
        }
    }
}

/// One acceptance gate: in `section`, for the object `member` (or each
/// row of the list `member`; `""` is the section's own members), `column`
/// must satisfy `rule`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Section key.
    pub section: &'static str,
    /// Row selector.
    pub member: &'static str,
    /// Gated column.
    pub column: &'static str,
    /// What it must satisfy.
    pub rule: Rule,
}

macro_rules! gates {
    ($($section:literal $member:literal $column:literal $rule:expr;)*) => {[$(
        Gate { section: $section, member: $member, column: $column, rule: $rule }
    ),*]};
}

/// Every gate `run_experiments` enforces on a run, one row each:
/// section, row selector, column, rule.
#[rustfmt::skip]
pub const GATES: [Gate; 24] = gates! {
    // Wall clock is noisy across hosts, so the bar is loose: it catches
    // order-of-magnitude slowdowns of the simulation, not jitter.
    "e10_scenarios" "rows"                     "sim_speedup"                  Rule::AtLeastCommitted(0.5);
    // 16 k folded records behind the compaction cost at most twice 1 k.
    "e11_compaction" ""                        "flat_ok"                      Rule::True;
    "e11_recovery"  "rows"                     "matched"                      Rule::True;
    "e12_fuzz"      ""                         "violations"                   Rule::Zero;
    "e13_faults"    "rows"                     "alerts"                       Rule::Zero;
    "e13_faults"    "rows"                     "dropped"                      Rule::Zero;
    "e13_faults"    "detection_under_faults"   "detected"                     Rule::Equals("attacks");
    "e13_faults"    "detection_under_faults"   "false_positives"              Rule::Zero;
    "e13_faults"    "crash_fault_twin"         "matched"                      Rule::True;
    "e14_load"      "honest"                   "alerts"                       Rule::Zero;
    // A flash crowd that never overran the cap, or a campaign that
    // never fired, proves nothing.
    "e14_load"      "honest"                   "shed"                         Rule::Positive;
    "e14_load"      "detection_under_overload" "attacks"                      Rule::Positive;
    "e14_load"      "detection_under_overload" "detected"                     Rule::Equals("attacks");
    "e14_load"      "detection_under_overload" "false_positives"              Rule::Zero;
    "e14_load"      "crash_overload_twin"      "matched"                      Rule::True;
    "e14_load"      "honest"                   "peak_pep_inflight"            Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_pdp_idempotency"         Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_pdp_decision_cache"      Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_li_resident"             Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_analyser_pending_retire" Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_contract_storage"        Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_chain_journal_records"   Rule::AtMostCommitted(2.0);
    "e14_load"      "honest"                   "peak_policy_history"          Rule::AtMostCommitted(2.0);
    "e16_net"       "conformance"              "matched"                      Rule::True;
};

/// The outcome of checking a run: failures fail it, notes are printed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// One line per violated gate (or unreadable/unwritable file).
    pub failures: Vec<String>,
    /// One line per section whose comparison gates were skipped because
    /// the committed section was produced in the other mode.
    pub notes: Vec<String>,
}

/// The rows a gate's `member` selects, or `None` when the section has
/// no such object or list of objects.
fn select<'a>(body: &'a Members, member: &str) -> Option<Vec<&'a Members>> {
    if member.is_empty() {
        return Some(vec![body]);
    }
    match get(body, member)? {
        Value::List(rows) => rows.iter().map(columns).collect(),
        row => Some(vec![columns(row)?]),
    }
}

/// A row's name — its leading string column (`scenario`, `threat`, …).
fn identity(row: &[(String, Value)]) -> Option<&str> {
    match row.first() {
        Some((_, Value::Str(name))) => Some(name),
        _ => None,
    }
}

/// What one gate finds wrong with one section; `baseline` is the
/// committed section when it was produced in the same mode.
fn check(gate: &Gate, section: &Section, baseline: Option<&Section>) -> Vec<String> {
    let (key, member, column) = (&section.key, gate.member, gate.column);
    let Some(rows) = select(&section.members, member) else {
        return vec![format!("{key}.{member}: no such rows")];
    };
    let base_rows = baseline.and_then(|b| select(&b.members, member));
    let base_rows = base_rows.unwrap_or_default();
    let mut failures = Vec::new();
    for row in rows {
        let name = identity(row);
        let base_row = base_rows.iter().find(|b| identity(b) == name);
        let base = base_row.and_then(|b| get(b, column));
        let problem = match get(row, column) {
            Some(value) if gate.rule.holds(value, row, base) => continue,
            Some(value) => format!("{column} = {value}, fails {:?}", gate.rule),
            None => format!("no column {column}"),
        };
        let was = base.map_or(String::new(), |b| format!(" (committed: {b})"));
        let name = name.unwrap_or("");
        failures.push(format!("{key}.{member}[{name}]: {problem}{was}"));
    }
    failures
}

/// Checks `fresh` sections against `gates`, and against the same
/// sections of the `committed` file where a rule compares.
#[must_use]
pub fn evaluate(gates: &[Gate], fresh: &[Section], committed: Option<&Report>) -> Verdict {
    let mode = |quick| if quick { "quick" } else { "full" };
    let mut verdict = Verdict::default();
    for section in fresh {
        let key = &section.key;
        let gates = gates.iter().filter(|g| g.section == key);
        let baseline = committed.and_then(|r| r.sections.iter().find(|s| s.key == *key));
        let comparable = baseline.filter(|b| b.quick == section.quick);
        for gate in gates.clone() {
            verdict.failures.extend(check(gate, section, comparable));
        }
        let compares = gates.clone().any(|g| g.rule.compares());
        if let (Some(b), None, true) = (baseline, comparable, compares) {
            let (was, is) = (mode(b.quick), mode(section.quick));
            let note = format!("{key}: not compared (committed: {was}, run: {is})");
            verdict.notes.push(note);
        }
    }
    verdict
}

/// Resolves a tracked file at the repo root, found at runtime by
/// walking up from the current directory to the workspace `Cargo.toml`
/// (so a relocated checkout still writes into itself), with the
/// build-time manifest path as fallback.
#[must_use]
pub fn repo_file_path(name: &str) -> PathBuf {
    let is_root = |dir: &&Path| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]"))
    };
    let cwd = std::env::current_dir().unwrap_or_default();
    let built_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    cwd.ancestors()
        .find(is_root)
        .unwrap_or(&built_in)
        .join(name)
}

/// Reads a tracked file; a file that does not exist is `None`, one that
/// exists but is not a report is an error.
fn read_file(path: &Path) -> Result<Option<Report>, ReadError> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ReadError::Io(e.kind())),
    }
}

/// Folds this run's `fresh` sections into the tracked file at `path`:
/// reads the committed file, checks the gates against it, writes the
/// merged file, and only then reports. The file is written *before*
/// the verdict is enforced so a regression lands in the diff (`"matched":
/// false`) rather than vanishing — the caller still fails the run. A
/// committed file that cannot be read is a failure too, never silently
/// replaced; nothing is carried forward from it.
#[must_use]
pub fn commit(path: &Path, spec: &FileSpec, fresh: &[Section]) -> Verdict {
    let (committed, unreadable) = match read_file(path) {
        Ok(report) => (report, None),
        Err(e) => (None, Some(format!("{}: {e}", spec.file))),
    };
    let mut verdict = evaluate(&GATES, fresh, committed.as_ref());
    verdict.failures.extend(unreadable);
    let json = render_json(&merge(spec, fresh, committed.as_ref()));
    if let Err(e) = std::fs::write(path, json) {
        let failure = format!("failed to write {}: {e}", path.display());
        verdict.failures.push(failure);
    }
    verdict
}
