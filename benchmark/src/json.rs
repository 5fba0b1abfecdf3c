//! One-line JSON: the result line the driver parses, the artifacts
//! under `out/`, and the reader `--agree` uses on its children's
//! result lines. The workspace's own emitter pretty-prints over many
//! lines and has no reader, so the benchmark carries this one.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Renders on one line. Numbers keep every digit `f64` needs to
    /// round-trip; non-finite numbers have no JSON spelling and render
    /// as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and what was expected there.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        if parser.pos != parser.bytes.len() {
            return Err(parser.expected("end of input"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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

fn write_str(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn expected(&self, what: &str) -> String {
        format!("byte {}: expected {what}", self.pos)
    }

    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.expected("a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_space();
        if self.eat("}") {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_space();
            let key = self.string()?;
            self.skip_space();
            if !self.eat(":") {
                return Err(self.expected("':'"));
            }
            pairs.push((key, self.value()?));
            self.skip_space();
            if self.eat("}") {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.expected("',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_space();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.expected("',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.expected("'\"'"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            // The input is a &str and the scan stops only at ASCII
            // bytes, so the run is valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.expected("UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.expected("four hex digits"))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.expected("an escape")),
                    }
                }
                _ => return Err(self.expected("'\"'")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("byte {start}: expected a number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_round_trips() {
        let line = Json::obj([
            ("correct", Json::from(true)),
            ("attempted", Json::from(8_192_000usize)),
            ("failed", Json::from(0usize)),
            (
                "metrics",
                Json::obj([(
                    "single_p50_us",
                    Json::obj([
                        ("value", Json::from(1395.4871234567)),
                        ("unit", Json::from("us")),
                    ]),
                )]),
            ),
            (
                "notes",
                Json::Arr(vec![Json::from("a \"quoted\"\n\tline \\ µ"), Json::Null]),
            ),
        ]);
        let text = line.render();
        assert!(!text.contains('\n'), "one line only: {text}");
        assert_eq!(Json::parse(&text), Ok(line));
    }

    #[test]
    fn numbers_keep_all_their_digits_and_whole_numbers_stay_whole() {
        for n in [0.1 + 0.2, 1.0e-9, 123_456_789.123_456_79, 2.0f64.powi(60)] {
            assert_eq!(Json::parse(&Json::Num(n).render()), Ok(Json::Num(n)));
        }
        assert_eq!(Json::from(1000usize).render(), "1000");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn the_reader_takes_what_other_writers_emit() {
        let parsed =
            Json::parse(" {\"a\" : [1, -2.5e3, true, null], \"b\": {}, \"c\": \"\\u00b5\"} ");
        assert_eq!(
            parsed,
            Ok(Json::obj([
                (
                    "a",
                    Json::Arr(vec![
                        Json::Num(1.0),
                        Json::Num(-2500.0),
                        Json::Bool(true),
                        Json::Null
                    ])
                ),
                ("b", Json::Obj(vec![])),
                ("c", Json::from("µ")),
            ]))
        );
        assert_eq!(parsed.unwrap().get("a").and_then(|a| a.as_f64()), None);
    }

    #[test]
    fn malformed_input_is_refused_with_a_position() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{} x", "\"open"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
