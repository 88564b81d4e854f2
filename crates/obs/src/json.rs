//! A minimal JSON value, parser and escaper — just enough to validate and
//! inspect exported Chrome traces without external dependencies. Not a
//! general-purpose JSON library: numbers are `f64`, no `\u` surrogate-pair
//! recombination beyond the BMP escape itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON document (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Deepest array / object nesting [`parse`] accepts. Parsing recurses once
/// per level, so unbounded nesting in untrusted text would overflow the
/// stack; the traces and reports this crate writes stay far below this.
const MAX_NESTING: usize = 256;

/// Parse a complete JSON document; trailing non-whitespace is an error, and
/// so is nesting deeper than 256 arrays / objects.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays / objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nested deeper than {MAX_NESTING} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                    }
                },
                Some(b) if b < 0x20 => return Err("control char in string".to_string()),
                Some(b) => {
                    // Re-attach multi-byte UTF-8 sequences.
                    let mut buf = vec![b];
                    while self
                        .peek()
                        .map(|n| (0x80..0xc0).contains(&n))
                        .unwrap_or(false)
                    {
                        buf.push(self.bump().unwrap());
                    }
                    out.push_str(std::str::from_utf8(&buf).unwrap_or("\u{fffd}"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(out)),
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(out)),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
        assert!(parse(&arrays(100_000)).is_err());
        assert!(parse(&objects(100_000)).is_err());
        // Nesting at the bound still parses.
        assert!(parse(&arrays(MAX_NESTING)).is_ok());
        assert!(parse(&objects(MAX_NESTING)).is_ok());
        assert!(parse(&arrays(MAX_NESTING + 1)).is_err());
        assert!(parse(&objects(MAX_NESTING + 1)).is_err());
        // The bound is on depth, not on the number of containers.
        let wide = format!("[{}]", vec![arrays(MAX_NESTING - 1); 8].join(","));
        assert!(parse(&wide).is_ok());
    }
}
