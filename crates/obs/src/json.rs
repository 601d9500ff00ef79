//! Minimal JSON support shared by the metric and trace emitters and the
//! serve daemon, without pulling an external crate into an offline build.
//!
//! Two halves: a writer ([`escape_into`], [`push_f64`]) used when emitting
//! snapshots, provenance and serve messages, and a small recursive-descent
//! parser ([`parse`]). The parser decodes every `hlicc serve` request line
//! and every cache object read on a hit, so it is linear in the document
//! length: a string's unescaped runs are copied one slice at a time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys are sorted (BTreeMap) so equality and
/// debug output are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access, `None` on non-objects / missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite float; JSON has no NaN/Inf, so those become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("too deeply nested".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice. Both are
            // ASCII, as is every escape, so a run starts and ends on a char
            // boundary of `text`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex =
                        self.bytes.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                        16,
                    )
                    .map_err(|_| "bad \\u escape")?;
                    // Surrogate pairs are not needed by our emitters.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_escapes() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back, Json::Str("a\"b\\c\nd\te\u{1}".into()));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"abc", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    /// xorshift64: a seeded stream for the generated strings below.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A string of `len` chars mixing 1- to 4-byte UTF-8, quotes,
    /// backslashes and control characters, so escapes often sit next to
    /// each other (empty runs between them).
    fn mixed_string(state: &mut u64, len: usize) -> String {
        const POOL: [char; 16] = [
            'a', 'Z', '7', ' ', 'é', 'ß', '€', '中', '𝄞', '😀', '"', '\\', '\n', '\t', '\u{1}',
            '\u{1f}',
        ];
        (0..len).map(|_| POOL[(next(state) % POOL.len() as u64) as usize]).collect()
    }

    #[test]
    fn escape_then_parse_roundtrips_generated_strings() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..500 {
            let len = (next(&mut state) % 40) as usize;
            let s = mixed_string(&mut state, len);
            let mut doc = String::from("[");
            escape_into(&mut doc, &s);
            doc.push_str(", {");
            escape_into(&mut doc, &s);
            doc.push_str(": 1}]");
            let mut obj = BTreeMap::new();
            obj.insert(s.clone(), Json::Num(1.0));
            assert_eq!(parse(&doc), Ok(Json::Arr(vec![Json::Str(s), Json::Obj(obj)])), "{doc}");
        }
    }

    #[test]
    fn unicode_escapes_decode_anywhere_in_a_string() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        for _ in 0..500 {
            let len = (next(&mut state) % 40) as usize;
            let s = mixed_string(&mut state, len);
            // Write each basic-plane char as a `\uXXXX` escape half the
            // time, the rest as `escape_into` would.
            let mut doc = String::from("\"");
            for c in s.chars() {
                if (c as u32) < 0x1_0000 && next(&mut state) & 1 == 0 {
                    let _ = write!(doc, "\\u{:04X}", c as u32);
                } else {
                    let mut one = String::new();
                    escape_into(&mut one, c.encode_utf8(&mut [0; 4]));
                    doc.push_str(&one[1..one.len() - 1]);
                }
            }
            doc.push('"');
            assert_eq!(parse(&doc), Ok(Json::Str(s)), "{doc}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 256 KiB of mixed content in one string: a parser that rescans
        // the rest of the document per character takes tens of seconds
        // here, a linear one about a millisecond.
        let mut state = 0xdead_beef_cafe_f00d;
        let mut s = String::new();
        while s.len() < 256 * 1024 {
            s.push_str(&mixed_string(&mut state, 64));
        }
        let mut doc = String::from("{\"s\": ");
        escape_into(&mut doc, &s);
        doc.push('}');
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(s.as_str()));
        assert!(
            took < std::time::Duration::from_secs(2),
            "{} KiB took {took:?}",
            doc.len() / 1024
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        assert_eq!(out, "1.5");
    }
}
