//! A minimal hand-rolled JSON reader/writer.
//!
//! The offline dependency set has no serde, so the request parser and the
//! report writer are built on this ~200-line recursive-descent parser.
//! It accepts exactly the JSON grammar (RFC 8259) with two deliberate
//! strictnesses that serve the API's versioning rule:
//!
//! - **objects preserve key order** (emission is deterministic), and
//! - **duplicate keys are an error** (a request must mean one thing).
//!
//! Arrays and objects nest at most [`MAX_DEPTH`] deep, so hostile input
//! cannot exhaust the stack of the recursive descent. Plain unsigned
//! integer tokens decode exactly ([`Json::Int`]), so a `u64` field such
//! as `seed` keeps every bit above 2^53.
//!
//! Writing goes through [`esc`] / [`fmt_f64`]; metric formatting matches
//! the sweep table's fixed `{:.4}` idiom.

use crate::error::ParseError;

/// A parsed JSON value. Objects keep their textual key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain unsigned integer token (digits only, no sign, fraction or
    /// exponent) that fits a `u64`, held exactly.
    Int(u64),
    /// Any other JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value's type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Int(_) | Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// Looks a key up in an object value; `None` for absent keys (and for
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Request and
/// report documents nest at most four deep; the cap bounds the parser's
/// recursion so deeply nested input is a parse error, not a stack
/// overflow.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::Json {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected \"{lit}\"")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to descend
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, ParseError>) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            // hex4 leaves pos one past the last digit, and
                            // the trailing `continue` skips the +1 below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(c) if c < 0x80 => {
                    // ASCII fast path — the overwhelmingly common case;
                    // avoids re-validating the remaining buffer per char.
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(first) => {
                    // One multibyte UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction); its
                    // length is encoded in the lead byte, so only this
                    // scalar's bytes are decoded, never the whole tail.
                    let len = match first {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let bytes = &self.bytes[self.pos..self.pos + len];
                    // The byte stream came from a &str, so this is
                    // already-valid UTF-8: lossy decoding borrows it
                    // unchanged and the fallbacks are unreachable — this
                    // path cannot panic.
                    let s = String::from_utf8_lossy(bytes);
                    out.push(s.chars().next().unwrap_or(char::REPLACEMENT_CHARACTER));
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        // Cleared by a sign, fraction or exponent.
        let mut plain = true;
        if self.peek() == Some(b'-') {
            plain = false;
            self.pos += 1;
        }
        // Integer part: a lone 0 or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            plain = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            plain = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned span holds only ASCII sign/digit/dot/exponent
        // bytes, so lossy decoding borrows it verbatim — no panic path.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        // A digits-only token decodes exactly when it fits; wider ones
        // (2^64 and up) fall through to the f64 path like any number.
        if plain {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        // Rust's f64 parse never fails on valid JSON number syntax — it
        // returns ±inf on overflow. JSON cannot represent non-finite
        // values, and letting one in would make every emitter downstream
        // (`fmt_f64`, `fmt_metric`) produce invalid documents, so reject
        // it here.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range for a finite f64")),
        }
    }
}

/// Escapes and quotes a string for JSON emission.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Emits a request-layer number: shortest-round-trip `Display`, which is
/// stable under parse → re-emit (`1.2` stays `1.2`, `200` stays `200`).
pub fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Emits a report metric in the sweep table's fixed `{:.4}` idiom;
/// `null` when undefined. Fixed precision keeps 1-vs-N-thread outputs
/// byte-comparable.
pub fn fmt_metric(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "null".to_string(),
    }
}

// ---- Typed decode helpers of the request decoder.
// Each takes the schema-level field name so errors read `upgrade.from`,
// not a bare JSON path. ----

pub(crate) fn as_object<'a>(
    j: &'a Json,
    field: &'static str,
) -> Result<&'a [(String, Json)], ParseError> {
    match j {
        Json::Obj(fields) => Ok(fields),
        _ => Err(ParseError::BadType {
            field,
            expected: "an object",
        }),
    }
}

pub(crate) fn reject_unknown(fields: &[(String, Json)], known: &[&str]) -> Result<(), ParseError> {
    for (k, _) in fields {
        if !known.contains(&k.as_str()) {
            return Err(ParseError::UnknownField { field: k.clone() });
        }
    }
    Ok(())
}

pub(crate) fn as_str<'a>(field: &'static str, j: &'a Json) -> Result<&'a str, ParseError> {
    match j {
        Json::Str(s) => Ok(s),
        _ => Err(ParseError::BadType {
            field,
            expected: "a string",
        }),
    }
}

pub(crate) fn require_str<'a>(j: &'a Json, field: &'static str) -> Result<&'a str, ParseError> {
    match j.get(field) {
        Some(v) => as_str(field, v),
        None => Err(ParseError::MissingField { field }),
    }
}

pub(crate) fn as_num(field: &'static str, j: &Json) -> Result<f64, ParseError> {
    match j {
        Json::Int(v) => Ok(*v as f64),
        Json::Num(v) => Ok(*v),
        _ => Err(ParseError::BadType {
            field,
            expected: "a number",
        }),
    }
}

pub(crate) fn as_integer(field: &'static str, j: &Json) -> Result<f64, ParseError> {
    let v = as_num(field, j)?;
    if v.fract() != 0.0 || !v.is_finite() {
        return Err(ParseError::BadNumber {
            field,
            reason: "must be an integer",
        });
    }
    Ok(v)
}

pub(crate) fn as_u64(field: &'static str, j: &Json) -> Result<u64, ParseError> {
    if let Json::Int(v) = j {
        return Ok(*v);
    }
    let v = as_integer(field, j)?;
    // Exclusive upper bound: `u64::MAX as f64` rounds *up* to 2^64, so an
    // inclusive check would let 2^64 saturate to u64::MAX instead of
    // failing. Every f64 strictly below 2^64 converts losslessly enough
    // (it is an integer by the check above).
    if v < 0.0 || v >= u64::MAX as f64 {
        return Err(ParseError::BadNumber {
            field,
            reason: "must be a non-negative integer below 2^64",
        });
    }
    Ok(v as u64)
}

pub(crate) fn as_u32(field: &'static str, j: &Json) -> Result<u32, ParseError> {
    let v = as_integer(field, j)?;
    if !(0.0..=f64::from(u32::MAX)).contains(&v) {
        return Err(ParseError::BadNumber {
            field,
            reason: "must fit an unsigned 32-bit integer",
        });
    }
    Ok(v as u32)
}

pub(crate) fn as_i32(field: &'static str, j: &Json) -> Result<i32, ParseError> {
    let v = as_integer(field, j)?;
    if !(f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&v) {
        return Err(ParseError::BadNumber {
            field,
            reason: "must fit a signed 32-bit integer",
        });
    }
    Ok(v as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
        // Plain unsigned integers decode exactly; sign, fraction,
        // exponent and overwide forms keep the f64 path.
        assert_eq!(parse("9007199254740993").unwrap(), Json::Int((1 << 53) + 1));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Int(u64::MAX));
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(parse("3e0").unwrap(), Json::Num(3.0));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::Num(2f64.powi(64))
        );
    }

    #[test]
    fn parses_nested_structures() {
        let j = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(j.get("c"), Some(&Json::Str("x".into())));
        match j.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Int(1));
                assert_eq!(items[1].get("b"), Some(&Json::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\tε";
        let emitted = esc(original);
        match parse(&emitted).unwrap() {
            Json::Str(s) => assert_eq!(s, original),
            other => panic!("expected string, got {other:?}"),
        }
        // Unicode escapes decode too, including surrogate pairs.
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("é😀".into())
        );
    }

    #[test]
    fn overflowing_numbers_are_rejected_not_infinity() {
        // f64 parse returns inf on overflow; JSON cannot express inf, so
        // the parser must reject rather than let emitters produce
        // invalid documents.
        for bad in ["1e999", "-1e999", "123456789e999999"] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
        // Large but finite is fine.
        assert_eq!(parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn long_multibyte_strings_round_trip() {
        // Exercises the per-scalar decode path (no whole-tail rescans).
        let original: String = "αβγ→é😀x".repeat(500);
        let emitted = esc(&original);
        match parse(&emitted).unwrap() {
            Json::Str(s) => assert_eq!(s, original),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "\"\\x\"",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert!(e.to_string().contains("duplicate key"), "{e}");
    }

    #[test]
    fn object_key_order_is_preserved() {
        match parse(r#"{"z": 1, "a": 2}"#).unwrap() {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let e = parse(&deep).unwrap_err();
        assert_eq!(
            e,
            ParseError::Json {
                at: MAX_DEPTH,
                msg: format!("nesting deeper than {MAX_DEPTH} levels"),
            }
        );
        let objects = r#"{"a":"#.repeat(200_000);
        assert!(parse(&objects).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn number_formats() {
        assert_eq!(fmt_f64(1.2), "1.2");
        assert_eq!(fmt_f64(200.0), "200");
        assert_eq!(fmt_metric(Some(1.23456)), "1.2346");
        assert_eq!(fmt_metric(None), "null");
    }
}
