//! A dependency-free parser for the TOML dialect used by scenario files and
//! `ATOMICS.toml`.
//!
//! The workspace builds offline with no third-party crates, so both the
//! scenario corpus and the atomics manifest stick to a deliberately small
//! grammar and this module parses exactly that:
//!
//! - `# comment` lines and blank lines,
//! - `[table]` and `[[array-of-tables]]` headers (bare-key names with `.`,
//!   `-`, `_` allowed),
//! - `key = "string"` with `\"`, `\\`, `\n`, `\t` escapes,
//! - `key = 42`, `key = -3`, `key = 1_000_000` integers,
//! - `key = 0.5` floats, `key = true` / `key = false` booleans,
//! - `key = [v, ...]` arrays of scalar values, which may span multiple
//!   lines until the closing `]`; every element keeps its own span
//!   ([`Entry::items`]), so a consumer can point at one value of a list.
//!
//! Anything else (inline tables, dates, dotted keys) is a parse error
//! carrying a 1-based line *and column* span, which is the right behavior
//! for reviewed config files: unknown syntax should fail loudly, not be
//! guessed at. Consumers layer unknown-*key* rejection on top via
//! [`Table::entries`] (see `unison_scenario::ast`).

use std::fmt;

/// A parsed scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    /// A short grammar-class name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` entry with its source span.
#[derive(Debug, Clone)]
pub struct Entry {
    pub key: String,
    pub value: Value,
    /// 1-based source line of the key.
    pub line: usize,
    /// 1-based source column of the key.
    pub col: usize,
    /// For an array value, the 1-based (line, column) of each element, in
    /// order; empty for a scalar.
    pub items: Vec<(usize, usize)>,
}

/// One `[name]` / `[[name]]` table with its key-value entries in file order.
#[derive(Debug, Clone)]
pub struct Table {
    /// Header name; `""` for the implicit root table before any header.
    pub name: String,
    /// True for `[[name]]` (array-of-tables) headers.
    pub is_array: bool,
    /// 1-based line of the header (or 1 for the implicit root table).
    pub line: usize,
    /// 1-based column of the header (or 1 for the implicit root table).
    pub col: usize,
    /// Entries in file order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// The first entry for `key`, if present.
    pub fn entry(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// The first value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entry(key).map(|e| &e.value)
    }

    /// The value for `key` as a string, if present and a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The value for `key` as an integer, if present and an integer.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        match self.get(key) {
            Some(Value::Int(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value for `key` as a float (integers coerce), if present.
    pub fn get_float(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Float(f)) => Some(*f),
            Some(Value::Int(n)) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value for `key` as a boolean, if present and a boolean.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The value for `key` as an array of strings, if present and every
    /// element is a string (a bare string is accepted as a one-element
    /// array for ergonomic single-value keys).
    pub fn get_array(&self, key: &str) -> Option<Vec<String>> {
        match self.get(key) {
            Some(Value::Array(v)) => v
                .iter()
                .map(|item| match item {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            Some(Value::Str(s)) => Some(vec![s.clone()]),
            _ => None,
        }
    }
}

/// A parse failure with a 1-based line/column span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub col: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

fn err(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        col,
        msg: msg.into(),
    }
}

/// Strips a trailing `# comment` from a line, respecting string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn valid_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

/// Parses one double-quoted string starting at `s` (which must begin with
/// `"`). Returns the decoded string and the rest of the input after the
/// closing quote.
fn parse_string(s: &str, line: usize, col: usize) -> Result<(String, &str), ParseError> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err(err(line, col, "expected `\"`")),
    }
    while let Some((i, ch)) = chars.next() {
        match ch {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => {
                    return Err(err(line, col, format!("unsupported escape `\\{other}`")))
                }
                None => return Err(err(line, col, "dangling `\\` in string")),
            },
            _ => out.push(ch),
        }
    }
    Err(err(line, col, "unterminated string"))
}

/// Parses one bare scalar token (integer, float, or boolean). `tok` must be
/// non-empty and already trimmed.
fn parse_scalar(tok: &str, line: usize, col: usize) -> Result<Value, ParseError> {
    match tok {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // TOML permits `_` separators between digits (`2_000_000`).
    let cleaned: String = tok.chars().filter(|&c| c != '_').collect();
    let looks_numeric = cleaned
        .strip_prefix(['-', '+'])
        .unwrap_or(&cleaned)
        .starts_with(|c: char| c.is_ascii_digit());
    if looks_numeric {
        if !cleaned.contains(['.', 'e', 'E']) {
            if let Ok(n) = cleaned.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        if let Ok(f) = cleaned.parse::<f64>() {
            return Ok(Value::Float(f));
        }
    }
    Err(err(
        line,
        col,
        format!("unsupported value `{tok}` (expected string, number, boolean, or array)"),
    ))
}

/// Parses one scalar value (quoted string or bare scalar) from the front of
/// `s`; returns the value and the rest of the input.
fn parse_value_token(s: &str, line: usize, col: usize) -> Result<(Value, &str), ParseError> {
    if s.starts_with('"') {
        let (v, tail) = parse_string(s, line, col)?;
        return Ok((Value::Str(v), tail));
    }
    // A bare token runs until `,`, `]`, whitespace, or end of input.
    let end = s
        .find(|c: char| c == ',' || c == ']' || c.is_whitespace())
        .unwrap_or(s.len());
    let tok = &s[..end];
    if tok.is_empty() {
        return Err(err(line, col, "expected a value"));
    }
    Ok((parse_scalar(tok, line, col)?, &s[end..]))
}

/// Parses manifest text into tables (see module docs for the grammar).
pub fn parse(src: &str) -> Result<Vec<Table>, ParseError> {
    let mut tables: Vec<Table> = Vec::new();
    let mut current = Table {
        name: String::new(),
        is_array: false,
        line: 1,
        col: 1,
        entries: Vec::new(),
    };
    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let lineno = i + 1;
        let stripped = strip_comment(lines[i]);
        let raw = stripped.trim();
        // 1-based column where the trimmed content starts.
        let colno = stripped.len() - stripped.trim_start().len() + 1;
        i += 1;
        if raw.is_empty() {
            continue;
        }
        if let Some(head) = raw.strip_prefix("[[") {
            let Some(name) = head.strip_suffix("]]") else {
                return Err(err(lineno, colno, "malformed `[[table]]` header"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, colno, format!("invalid table name `{name}`")));
            }
            tables.push(std::mem::replace(
                &mut current,
                Table {
                    name: name.to_string(),
                    is_array: true,
                    line: lineno,
                    col: colno,
                    entries: Vec::new(),
                },
            ));
            continue;
        }
        if let Some(head) = raw.strip_prefix('[') {
            let Some(name) = head.strip_suffix(']') else {
                return Err(err(lineno, colno, "malformed `[table]` header"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, colno, format!("invalid table name `{name}`")));
            }
            tables.push(std::mem::replace(
                &mut current,
                Table {
                    name: name.to_string(),
                    is_array: false,
                    line: lineno,
                    col: colno,
                    entries: Vec::new(),
                },
            ));
            continue;
        }
        let Some(eq) = raw.find('=') else {
            return Err(err(
                lineno,
                colno,
                format!("expected `key = value`, got `{raw}`"),
            ));
        };
        let key = raw[..eq].trim();
        if !valid_key(key) {
            return Err(err(lineno, colno, format!("invalid key `{key}`")));
        }
        let value_col = colno + eq + 1 + raw[eq + 1..].len() - raw[eq + 1..].trim_start().len();
        let rest = raw[eq + 1..].trim();
        if rest.is_empty() {
            return Err(err(lineno, value_col, format!("missing value for `{key}`")));
        }
        let mut spans = Vec::new();
        let value = if let Some(body) = rest.strip_prefix('[') {
            // Walk the elements, continuing onto following lines until the
            // closing `]`; `(line, col)` is where `cur` starts.
            let mut items = Vec::new();
            let (mut line, mut col, mut cur) = (lineno, value_col + 1, body);
            let mut want_comma = false;
            loop {
                let trimmed = cur.trim_start();
                col += cur.len() - trimmed.len();
                cur = trimmed;
                if cur.is_empty() {
                    if i >= lines.len() {
                        return Err(err(lineno, value_col, "unterminated array"));
                    }
                    cur = strip_comment(lines[i]).trim_end();
                    i += 1;
                    (line, col) = (i, 1);
                } else if let Some(tail) = cur.strip_prefix(']') {
                    if !tail.trim().is_empty() {
                        return Err(err(line, col + 1, "trailing text after array value"));
                    }
                    break;
                } else if let Some(tail) = cur.strip_prefix(',') {
                    if !want_comma {
                        return Err(err(line, col, "expected a value"));
                    }
                    want_comma = false;
                    (col, cur) = (col + 1, tail);
                } else if want_comma {
                    return Err(err(line, col, "expected `,` between array items"));
                } else {
                    let (v, tail) = parse_value_token(cur, line, col)?;
                    items.push(v);
                    spans.push((line, col));
                    want_comma = true;
                    (col, cur) = (col + cur.len() - tail.len(), tail);
                }
            }
            Value::Array(items)
        } else {
            let (v, tail) = parse_value_token(rest, lineno, value_col)?;
            if !tail.trim().is_empty() {
                return Err(err(lineno, value_col, "trailing text after value"));
            }
            v
        };
        current.entries.push(Entry {
            key: key.to_string(),
            value,
            line: lineno,
            col: colno,
            items: spans,
        });
    }
    tables.push(current);
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_strings_and_arrays() {
        let src = "\
# comment
[scope]
enforce = [\"crates/core/src\"] # trailing comment

[[field]]
name = \"head\"
load = [\n  \"Acquire\",\n  \"Relaxed\",\n]
why = \"a \\\"quoted\\\" reason\"
";
        let tables = parse(src).unwrap();
        assert_eq!(tables.len(), 3, "root + scope + field");
        let scope = &tables[1];
        assert_eq!(scope.name, "scope");
        assert_eq!(
            scope.get_array("enforce").unwrap(),
            vec!["crates/core/src".to_string()]
        );
        let field = &tables[2];
        assert!(field.is_array);
        assert_eq!(field.get_str("name"), Some("head"));
        assert_eq!(
            field.get_array("load").unwrap(),
            vec!["Acquire".to_string(), "Relaxed".to_string()]
        );
        assert_eq!(field.get_str("why"), Some("a \"quoted\" reason"));
    }

    #[test]
    fn parses_scalars() {
        let src = "\
threads = 4
load = 0.5
negative = -3
big = 2_000_000
fast = true
slow = false
mixed = [1, 2, 3]
floats = [0.25, 0.75]
";
        let t = &parse(src).unwrap()[0];
        assert_eq!(t.get_int("threads"), Some(4));
        assert_eq!(t.get_float("load"), Some(0.5));
        assert_eq!(t.get_int("negative"), Some(-3));
        assert_eq!(t.get_int("big"), Some(2_000_000));
        assert_eq!(t.get_bool("fast"), Some(true));
        assert_eq!(t.get_bool("slow"), Some(false));
        assert_eq!(
            t.get("mixed"),
            Some(&Value::Array(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]))
        );
        assert_eq!(
            t.get("floats"),
            Some(&Value::Array(vec![Value::Float(0.25), Value::Float(0.75)]))
        );
        // Integers coerce to floats on demand, not the other way round.
        assert_eq!(t.get_float("threads"), Some(4.0));
        assert_eq!(t.get_int("load"), None);
    }

    #[test]
    fn rejects_unsupported_syntax_with_line_numbers() {
        assert!(parse("x = @\n").unwrap_err().to_string().contains("line 1"));
        assert!(parse("[t]\nk = { a = 1 }\n")
            .unwrap_err()
            .to_string()
            .contains("line 2"));
        assert!(parse("k = \"unterminated\n")
            .unwrap_err()
            .to_string()
            .contains("line 1"));
        assert!(parse("[bad name]\n")
            .unwrap_err()
            .to_string()
            .contains("line 1"));
    }

    #[test]
    fn errors_carry_columns() {
        // `k = @` — the bad value starts at column 5.
        let e = parse("k = @\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 5));
        // Indented header: column reflects the `[`.
        let e = parse("  [bad name]\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 3));
    }

    #[test]
    fn array_elements_keep_their_spans() {
        let t = &parse("k = 1\nxs = [10, \"a]\",\n   30,\n]\n").unwrap()[0];
        assert!(t.entry("k").unwrap().items.is_empty());
        let xs = t.entry("xs").unwrap();
        assert_eq!(xs.items, vec![(2, 7), (2, 11), (3, 4)]);
        // A `]` inside a string does not close the array.
        assert_eq!(t.get_array("xs"), None);
        assert!(matches!(&xs.value, Value::Array(v) if v[1] == Value::Str("a]".into())));
        let e = parse("xs = [1] 2\n").unwrap_err();
        assert!(e.msg.contains("trailing text after array"), "{e}");
        let e = parse("xs = [, 1]\n").unwrap_err();
        assert_eq!((e.line, e.col, e.msg.as_str()), (1, 7, "expected a value"));
    }

    #[test]
    fn rejects_missing_value_and_trailing_text() {
        let e = parse("k =\n").unwrap_err();
        assert!(e.msg.contains("missing value"), "{e}");
        let e = parse("k = 1 2\n").unwrap_err();
        assert!(e.msg.contains("trailing text"), "{e}");
        let e = parse("k = [1 2]\n").unwrap_err();
        assert!(e.msg.contains("expected `,`"), "{e}");
        let e = parse("k = [1,\n").unwrap_err();
        assert!(e.msg.contains("unterminated array"), "{e}");
    }

    #[test]
    fn mixed_arrays_reject_string_coercion() {
        let t = &parse("xs = [\"a\", 1]\n").unwrap()[0];
        // `get_array` (string view) refuses a mixed array rather than
        // silently dropping the non-string element.
        assert_eq!(t.get_array("xs"), None);
    }
}
