//! The one JSON codec for the bench report (`BENCH_engine.json`): a
//! [`Value`] tree, a **total** reader and a writer.
//!
//! * [`parse`] maps *any* byte string to `Ok` or `Err` — never a panic,
//!   and nesting is bounded by [`MAX_DEPTH`] — because a report is an
//!   on-disk input to the regression gate (`bench_compare`).
//! * Lookups are by nesting level: [`Value::get`] sees only the members
//!   of the object it is called on, never a same-named key deeper down.
//! * [`Value::to_pretty`] owns number formatting. A non-finite number is
//!   written as `null`, and [`Value::num`] reads that back as "non-finite"
//!   rather than "missing", so the gate can say which of the two happened.
//!
//! Numbers are `f64`: the integer counters the reports carry are exact up
//! to 2⁵³, far above any event count. The reader is slightly wider than
//! the JSON grammar where that costs nothing (`01` and `1.` are numbers)
//! and narrower in one place: a `\u` escape must name a basic-plane
//! character, so a surrogate half is an error.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// A container prints on one line when every member is a scalar and there
/// are at most this many; otherwise one member per line.
const INLINE_MEMBERS: usize = 8;

/// A JSON value. Objects keep their members in written order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (also what a non-finite number is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number when read; any `f64` when built for writing.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: `(key, value)` members in order.
    Obj(Vec<(String, Value)>),
}

macro_rules! value_from {
    ($($t:ty: $x:ident => $value:expr),*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}
value_from!(
    f64: x => Value::Num(x),
    u64: x => Value::Num(x as f64),
    usize: x => Value::Num(x as f64),
    &str: s => Value::Str(s.to_string())
);

impl Value {
    /// Builds an object from `(key, value)` members, keeping their order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The members of an object, in written order (empty for any other
    /// kind of value).
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// The member `key` of *this* object — `None` if this is not an
    /// object or has no such member, even when a nested object does.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.members().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric member `key` of this object, or why there is none:
    /// absent, written as `null` (the number was not finite), or not a
    /// number at all.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            None => Err(format!("no {key}")),
            Some(Value::Num(x)) => Ok(*x),
            Some(Value::Null) => Err(format!("{key} is non-finite (written as null)")),
            Some(_) => Err(format!("{key} is not a number")),
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) if x.is_finite() => write!(out, "{x}").expect("writing to a String"),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)).collect())
            }
            Value::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_members(out, indent, ['{', '}'], members)
            }
        }
    }
}

fn write_members(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    members: Vec<(Option<&str>, &Value)>,
) {
    let inline = members.len() <= INLINE_MEMBERS
        && members.iter().all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    let line_start = |out: &mut String, indent: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    };
    out.push(open);
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            line_start(out, indent + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 1);
    }
    if !inline && !members.is_empty() {
        line_start(out, indent);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document. Total: every input — empty, truncated,
/// non-UTF-8, nested past [`MAX_DEPTH`], followed by garbage — is an
/// `Err` naming the byte offset, never a panic.
pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut parser = Parser { text, at: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.at != text.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(value)
}

/// `at` only ever rests on an ASCII byte or the end of `text`, so every
/// slice taken between two rests is on character boundaries.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.text.as_bytes()[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{' | b'[') => self.container(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The array or object whose opening bracket is at `at`.
    fn container(&mut self, depth: usize) -> Result<Value, String> {
        let object = self.peek() == Some(b'{');
        let close = if object { "}" } else { "]" };
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.at += 1;
        self.skip_ws();
        while !self.eat(close) {
            if !(members.is_empty() && items.is_empty() || self.eat(",")) {
                return Err(self.err("expected ',' or the closing bracket"));
            }
            if object {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(":") {
                    return Err(self.err("expected ':'"));
                }
                members.push((key, self.value(depth + 1)?));
            } else {
                items.push(self.value(depth + 1)?);
            }
            self.skip_ws();
        }
        Ok(if object { Value::Obj(members) } else { Value::Arr(items) })
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.at += 1;
        }
        match self.text[start..self.at].parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(format!("malformed or out-of-range number at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            if self.eat("\"") {
                return Ok(out);
            }
            if !self.eat("\\") {
                return Err(self.err("unterminated string"));
            }
            out.push(self.escape()?);
        }
    }

    /// The character named by the escape whose backslash was just read.
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.at += 1;
        let hex = self.text.as_bytes().get(self.at..self.at + 4);
        match (c, hex) {
            (b'"' | b'\\' | b'/', _) => Ok(c as char),
            (b'b', _) => Ok('\u{8}'),
            (b'f', _) => Ok('\u{c}'),
            (b'n', _) => Ok('\n'),
            (b'r', _) => Ok('\r'),
            (b't', _) => Ok('\t'),
            (b'u', Some(hex)) if hex.iter().all(u8::is_ascii_hexdigit) => {
                self.at += 4;
                let code =
                    hex.iter().fold(0, |n, &h| n * 16 + (h as char).to_digit(16).unwrap_or(0));
                char::from_u32(code).ok_or_else(|| self.err("\\u escape names no character"))
            }
            _ => Err(self.err("invalid escape")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> Vec<u8> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The committed baseline parses exactly as it sits at the repo root:
    /// every scenario, fingerprint and queue entry is extracted, and
    /// writing the tree back reproduces the file byte for byte (so the
    /// writer's layout and number formatting are the ones on disk).
    #[test]
    fn committed_baselines_parse_and_rewrite_byte_identically() {
        let bytes = committed("BENCH_engine.json");
        let engine = parse(&bytes).unwrap();
        assert_eq!(engine.to_pretty().as_bytes(), bytes);
        // Measured numbers read back to the last bit: the writers computed
        // each rate as exactly this quotient.
        let rate_is_exact = |entry: &Value| {
            let quotient = entry.num("ops").unwrap() / entry.num("wall_secs").unwrap();
            assert_eq!(entry.num("ops_per_sec"), Ok(quotient));
        };
        for entry in ["queue_calendar", "sha256_64b"] {
            rate_is_exact(engine.get("queue").unwrap().get(entry).unwrap());
        }
        let purges: Vec<(&str, f64)> = engine
            .get("scenarios")
            .unwrap()
            .members()
            .iter()
            .map(|(name, body)| {
                assert!(body.num("events_per_sec").unwrap() > 1e6, "{name}");
                let fp = body.get("fingerprint").unwrap();
                for key in ["good_joins_admitted", "bad_joins_admitted", "good_spend", "adv_spend"]
                {
                    assert!(fp.num(key).unwrap() > 0.0, "{name}: {key}");
                }
                (name.as_str(), fp.num("purges").unwrap())
            })
            .collect();
        assert_eq!(
            purges,
            [
                ("macro_sweep", 82148.0),
                ("gnutella_ergo_t1024", 833.0),
                ("gnutella_sybilcontrol_t64", 0.0),
                ("gnutella_ergo_sf_t1m", 2211.0),
                ("gnutella_ccom_t1m", 1160203.0),
                ("macro_millions", 6.0),
                ("macro_scale", 1.0),
            ]
        );

        let fingerprints: Vec<(&str, &str)> = engine
            .get("gate")
            .unwrap()
            .members()
            .iter()
            .map(|(name, body)| {
                assert!(body.num("verifications_per_sec").unwrap() > 0.0, "{name}");
                (name.as_str(), body.get("decision_fingerprint").and_then(Value::as_str).unwrap())
            })
            .collect();
        assert_eq!(
            fingerprints,
            [
                ("gate_honest", "639337e9dfc51ab936c6b0787b93dccd43369eca5883c1dd5b75951f9f4c228f"),
                (
                    "gate_adversarial",
                    "6e6943e58cef386b58449fb7b722259a21c1d7d24cd2ff0882839c0c5ec526eb"
                ),
            ]
        );
    }

    /// Total parse: malformed input of every kind is an `Err`, and no
    /// input — including every prefix of a real report — panics.
    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        let report = committed("BENCH_engine.json");
        // Up to the closing brace: only the final newline is optional.
        for cut in 0..report.trim_ascii_end().len() {
            assert!(parse(&report[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(deep(MAX_DEPTH).as_bytes()).is_ok());
        assert!(parse(deep(MAX_DEPTH + 1).as_bytes()).unwrap_err().contains("nesting too deep"));
        assert!(parse("{\"a\":".repeat(100_000).as_bytes()).is_err());
        for bad in [
            "",
            " ",
            "{} x",
            "{}{}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"half surrogate \\ud800\"",
            "\"raw\nnewline\"",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{a: 1}",
            "[1 2]",
            "[1,]",
            "-",
            "--1",
            "1-",
            ".5",
            "1e",
            "1e999",
            "+1",
            "NaN",
            "tru",
            "nul",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad:?} parsed");
        }
        assert!(parse(&[b'"', 0xff, b'"']).unwrap_err().contains("UTF-8"));
        // The documented leniency: Rust's float grammar, not JSON's.
        assert_eq!(parse(b"01"), Ok(Value::Num(1.0)));
        assert_eq!(parse(b"1."), Ok(Value::Num(1.0)));
    }

    #[test]
    fn values_round_trip_through_text() {
        let tree = Value::obj([
            ("null", Value::Null),
            ("flag", Value::Bool(true)),
            ("int", 143_760_017u64.into()),
            ("small", 0.00007823584793072813.into()),
            ("negative", (-2.5e-7).into()),
            ("text", "quote \" backslash \\ newline \n tab \t é".into()),
            ("empty", Value::obj::<&str>([])),
            ("list", Value::Arr(vec![1u64.into(), Value::Arr(vec![]), "x".into()])),
            (
                "wide",
                Value::obj((0..INLINE_MEMBERS as u64 + 1).map(|i| (format!("k{i}"), i.into()))),
            ),
        ]);
        let text = tree.to_pretty();
        assert_eq!(parse(text.as_bytes()), Ok(tree));
        assert!(text.contains("\"int\": 143760017,\n"), "{text}");
        assert!(text.contains("\"small\": 0.00007823584793072813,\n"), "{text}");
        assert!(text.contains("\"empty\": {},\n"), "{text}");
        assert!(text.contains("\"wide\": {\n    \"k0\": 0,\n"), "{text}");
        // Escapes, whitespace and exponents the writer never produces.
        let foreign = " { \"a\\u0041\\/\" : [ 1e2 , -0.5E-1, true , null ] } ";
        let want = Value::obj([(
            "aA/",
            Value::Arr(vec![100.0.into(), (-0.05).into(), Value::Bool(true), Value::Null]),
        )]);
        assert_eq!(parse(foreign.as_bytes()), Ok(want));
    }

    /// Lookups see one nesting level: a key that exists only deeper down
    /// is absent (the substring scanner this module replaced found it).
    #[test]
    fn lookups_do_not_reach_into_nested_objects() {
        let root = parse(b"{\"outer\": {\"inner\": 1, \"list\": [{\"inner\": 2}]}, \"flat\": 3}");
        let root = root.unwrap();
        assert_eq!(root.get("inner"), None);
        assert_eq!(root.num("inner"), Err("no inner".to_string()));
        assert_eq!(root.get("outer").unwrap().num("inner"), Ok(1.0));
        assert_eq!(root.num("flat"), Ok(3.0));
        assert_eq!(root.num("outer"), Err("outer is not a number".to_string()));
        // Non-objects have no members at all.
        assert_eq!(Value::Num(1.0).get("flat"), None);
        assert!(Value::Arr(vec![root.clone()]).members().is_empty());
    }

    /// A non-finite number is written as `null` and reads back as absent
    /// *with the reason*, distinct from a field that was never written.
    #[test]
    fn non_finite_numbers_write_as_null_and_read_back_with_the_reason() {
        let report = Value::obj([
            ("nan", f64::NAN.into()),
            ("inf", f64::INFINITY.into()),
            ("neg_inf", f64::NEG_INFINITY.into()),
        ]);
        let text = report.to_pretty();
        assert_eq!(text, "{\"nan\": null, \"inf\": null, \"neg_inf\": null}\n");
        let back = parse(text.as_bytes()).unwrap();
        for key in ["nan", "inf", "neg_inf"] {
            assert_eq!(back.get(key), Some(&Value::Null));
            assert!(back.num(key).unwrap_err().contains("non-finite"), "{key}");
        }
        assert_eq!(back.num("missing"), Err("no missing".to_string()));
    }
}
