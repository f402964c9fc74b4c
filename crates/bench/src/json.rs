//! Minimal hand-rolled JSON emission shared by the report writers.
//!
//! The repro subsystem's contract is **byte-identical output across
//! runs**, which rules out serialisation libraries with unstable
//! formatting (and the build environment is offline anyway). This module
//! centralises the three things every emitter needs — string escaping,
//! finite-number formatting, and an insertion-ordered object builder —
//! so `sweep.rs`, `table.rs`, and future report writers produce the same
//! dialect: compact objects, `", "` separators, shortest-round-trip
//! numbers.
//!
//! [`parse`] is the matching reader, a small recursive-descent parser:
//! `mr-perf compare` reads saved ledger reports with it, the ledger's
//! contract tests read `BENCHMARK.json` and every result line with it, and
//! the `repro trace` tests prove the snapshot and Chrome exports parse
//! back. Those files come from outside the program, so a malformed one is
//! an `Err`, never a panic: nesting is capped at [`MAX_DEPTH`] and the
//! work is linear in the input.

/// Escapes a string for a JSON string literal (quotes, backslashes, and
/// control characters; everything else passes through).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (shortest round-trip form).
///
/// # Panics
/// Panics on NaN or infinity: neither can appear in valid JSON, and the
/// report writers never legitimately produce them — failing loudly beats
/// emitting garbage.
pub fn num(x: f64) -> String {
    assert!(
        x.is_finite(),
        "non-finite value {x} cannot be emitted as JSON"
    );
    format!("{x}")
}

/// An insertion-ordered JSON object builder emitting the compact
/// single-line form `{"k": v, "k": v}`.
///
/// ```
/// use mr_bench::json::Obj;
/// let mut o = Obj::new();
/// o.str("algorithm", "splitting(c=2)").int("q", 32).num("r", 2.0);
/// assert_eq!(o.compact(), r#"{"algorithm": "splitting(c=2)", "q": 32, "r": 2}"#);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// Creates an empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Appends a string field (escaped and quoted).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", escape(value)))
    }

    /// Appends an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Appends a float field via [`num`].
    ///
    /// # Panics
    /// Panics on non-finite values, like [`num`].
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, num(value))
    }

    /// Appends a field with an already-serialised JSON value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((escape(key), value));
        self
    }

    /// Renders the compact single-line form.
    pub fn compact(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A parsed JSON value, as read back by [`parse`].
///
/// Objects keep their fields in document order (the emitters are
/// insertion-ordered, and the round-trip tests compare against that
/// order); numbers are held as `f64`, which is lossless for every count
/// and millisecond figure the reports record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object; `None` for missing fields and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting [`parse`] accepts, an order of magnitude above
/// anything the emitters write. The parser recurses once per level, so
/// uncapped a long run of `[` is a stack overflow — an abort, not an `Err`.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejecting trailing garbage and
/// nesting deeper than [`MAX_DEPTH`]).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a `char` boundary of `text`: every advance is over
    /// ASCII bytes or one whole scalar.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Parses one value sitting `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            // The emitters only write BMP escapes (control
                            // characters); surrogate pairs are out of
                            // dialect and rejected via `from_u32`.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or(format!("bad \\u scalar at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one scalar; `text` is a `&str`, so there is
                    // nothing to re-validate.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("pos is on a char boundary before the end");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn num_is_shortest_roundtrip() {
        assert_eq!(num(2.0), "2");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.1), "0.1");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn num_rejects_nan() {
        num(f64::NAN);
    }

    #[test]
    fn obj_preserves_insertion_order() {
        let mut o = Obj::new();
        o.int("b", 1).str("a", "x").num("c", 0.5);
        assert_eq!(o.compact(), r#"{"b": 1, "a": "x", "c": 0.5}"#);
    }

    #[test]
    fn obj_escapes_keys_and_values() {
        let mut o = Obj::new();
        o.str("k\"ey", "v\\al");
        assert_eq!(o.compact(), r#"{"k\"ey": "v\\al"}"#);
    }

    #[test]
    fn empty_obj_renders_braces() {
        assert_eq!(Obj::new().compact(), "{}");
    }

    #[test]
    fn parse_round_trips_what_obj_emits() {
        let mut o = Obj::new();
        o.str("name", "two-path\n\"quoted\"")
            .int("q", 32)
            .num("r", 2.5)
            .raw("ok", "true".to_string())
            .raw("tags", "[1, 2, 3]".to_string());
        let v = parse(&o.compact()).unwrap();
        assert_eq!(
            v.get("name").unwrap().as_str(),
            Some("two-path\n\"quoted\"")
        );
        assert_eq!(v.get("q").unwrap().as_f64(), Some(32.0));
        assert_eq!(v.get("r").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("tags").unwrap().as_array().unwrap(),
            &[Value::Num(1.0), Value::Num(2.0), Value::Num(3.0)]
        );
    }

    #[test]
    fn parse_handles_nesting_whitespace_and_negatives() {
        let v = parse("{\n  \"a\": [ {\"b\": -1.5e2}, null, false ]\n}\n").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_f64(), Some(-150.0));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2], Value::Bool(false));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        // Uncapped, these overflow the stack: an abort, not a failed test.
        for opener in ["[", "{\"a\":"] {
            let err = parse(&opener.repeat(100_000)).unwrap_err();
            let at = opener.len() * MAX_DEPTH;
            assert!(
                err.ends_with(&format!("{MAX_DEPTH} levels at byte {at}")),
                "{err}"
            );
        }
        let balanced = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&balanced(MAX_DEPTH)).is_ok());
        assert!(parse(&balanced(MAX_DEPTH + 1)).is_err());
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // No timing assert: work quadratic in the string length takes
        // minutes at 2 MiB, so a regression is a test that does not finish.
        let body = "aé𝄞\\n".repeat((2 << 20) / 9);
        let mut o = Obj::new();
        o.str("s", &body).int("after", 1);
        let v = parse(&o.compact()).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(body.as_str()));
        assert_eq!(v.get("after").unwrap().as_f64(), Some(1.0));
    }
}
