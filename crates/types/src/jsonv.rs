//! A small JSON value parser.
//!
//! The workspace *emits* JSON through [`crate::JsonWriter`]; this is
//! the matching read side, used by the campaign result cache to decode
//! stored run artifacts, by tests and the CI traced-smoke step to
//! prove the emitted artifacts actually parse, and by tooling (the
//! campaign spec parser) to read committed JSON records. Recursive descent, strict (no trailing
//! garbage, no NaN/Infinity), and deliberately simple — numbers all
//! become `f64` (exact for integers below 2^53, which covers every
//! counter the simulator emits in practice).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The member names in insertion order, if this is an object.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let members = match self {
            Json::Obj(m) => m.as_slice(),
            _ => &[],
        };
        members.iter().map(|(k, _)| k.as_str())
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if exactly one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(|n| {
            (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
        })
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Narrow an integer decoded by [`Json::as_u64`] to the type of the
/// field it is for. A decoder must not cast instead: `65540 as u16` is
/// a 4-processor machine nobody asked for.
pub fn narrow<T: TryFrom<u64>>(field: &str, value: u64) -> Result<T, String> {
    T::try_from(value).map_err(|_| {
        let ty = std::any::type_name::<T>();
        format!("{field}: {value} does not fit {ty}")
    })
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                c as char,
                self.i,
                self.b.get(self.i).map(|&b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|&b| b as char),
                self.i
            )),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as
            // one run. Both delimiters are ASCII and the input was a
            // `&str`, so a run is whole characters.
            let rest = &self.b[self.i..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8")?);
            self.i += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = self.b.get(self.i).copied().ok_or("truncated escape")?;
            self.i += 1;
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
                    let hi = self.hex4()?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair.
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("bad \\u escape".into());
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(cp).ok_or("bad \\u escape")?);
                }
                c => return Err(format!("bad escape `\\{}`", c as char)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .b
            .get(self.i..self.i + 4)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or("truncated \\u escape")?;
        self.i += 4;
        u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".into())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            out.push((k, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonWriter;

    #[test]
    fn parses_scalars_and_containers() {
        let v = Json::parse(r#" {"a": [1, -2.5, true, null], "b": {"c": "x\ny"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[3], Json::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(narrow::<u16>("procs", 65_535), Ok(65_535));
        let wide = narrow::<u16>("procs", 65_540).unwrap_err();
        assert_eq!(wide, "procs: 65540 does not fit u16");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""Aé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
    }

    #[test]
    fn escapes_adjoin_multibyte_characters_and_the_end_of_input() {
        let v = Json::parse(r#""é\n😀\u00e9\\é\"""#).unwrap();
        assert_eq!(v.as_str(), Some("é\n😀é\\é\""));
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        assert_eq!(Json::parse(r#""\u0001""#).unwrap().as_str(), Some("\u{1}"));
        // A string is the whole document: it ends where the input does.
        assert_eq!(Json::parse("\"é\"").unwrap().as_str(), Some("é"));
        assert_eq!(Json::parse("\"\"").unwrap().as_str(), Some(""));
    }

    #[test]
    fn every_bad_string_is_rejected() {
        for (doc, why) in [
            ("\"abc", "unterminated string"),
            ("\"é", "unterminated string"),
            ("\"abc\\", "truncated escape"),
            (r#""\q""#, "bad escape `\\q`"),
            (r#""\U0041""#, "bad escape `\\U`"),
            (r#""\u00""#, "truncated \\u escape"),
            (r#""\u00"#, "truncated \\u escape"),
            (r#""\u00zz""#, "bad \\u escape"),
            (r#""\udc00""#, "bad \\u escape"),
            (r#""\ud800""#, "expected `\\` at byte 7, found Some('\"')"),
            (r#""\ud800x""#, "expected `\\` at byte 7, found Some('x')"),
            (r#""\ud800\n""#, "expected `u` at byte 8, found Some('n')"),
            (r#""\ud800\u0041""#, "bad \\u escape"),
            (r#""\ud800\ud800""#, "bad \\u escape"),
            (r#""\ud800\ue000""#, "bad \\u escape"),
        ] {
            assert_eq!(Json::parse(doc), Err(why.to_string()), "{doc}");
        }
    }

    /// A megabyte of short strings. Milliseconds while a string costs
    /// its own length to scan; minutes if every character ever again
    /// costs the rest of the document.
    #[test]
    fn a_large_document_of_short_strings_parses() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        for i in 0..100_000 {
            w.str_val(&format!("key{i:05}é"));
        }
        w.end_arr();
        let doc = w.finish();
        assert!(doc.len() > 1_000_000);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 100_000);
        assert_eq!(v.as_arr().unwrap()[99_999].as_str(), Some("key99999é"));
    }

    use proptest::prelude::*;

    proptest! {
        /// Whatever the writer escapes, the parser reads back.
        #[test]
        fn any_string_round_trips_through_the_writer(
            points in proptest::collection::vec(
                // ASCII (controls, quote and backslash included) as often
                // as each wider encoding length.
                prop_oneof![0u32..0x80, 0x80u32..0x800, 0x800u32..0x1_0000, 0x1_0000u32..0x11_0000],
                0..40,
            )
        ) {
            // The surrogate range holds no characters.
            let s: String = points.into_iter().filter_map(char::from_u32).collect();
            let mut w = JsonWriter::new();
            w.str_val(&s);
            prop_assert_eq!(Json::parse(&w.finish()), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("s", "a\"b\\c\nd\u{1}");
        w.key("nums");
        w.begin_arr();
        w.u64_val(0);
        w.u64_val(1 << 40);
        w.f64_val(1.25);
        w.end_arr();
        w.kv_f64("nan", f64::NAN);
        w.end_obj();
        let v = Json::parse(&w.finish()).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(v.get("nan"), Some(&Json::Null));
        assert_eq!(
            v.get("nums").unwrap().as_arr().unwrap()[1].as_u64(),
            Some(1 << 40)
        );
    }
}
