//! A small JSON value parser, and the one reader of input documents.
//!
//! The workspace *emits* JSON through [`crate::JsonWriter`]; this is
//! the matching read side, used by the campaign result cache to decode
//! stored run artifacts, by tests and the CI traced-smoke step to
//! prove the emitted artifacts actually parse, and by the decoders of
//! the four input formats (campaign specs, verify matrices, schedules
//! and fault plans). Recursive descent, strict (no trailing
//! garbage, no NaN/Infinity), and deliberately simple — numbers all
//! become `f64` (exact for integers below 2^53, which covers every
//! counter the simulator emits in practice).
//!
//! An input document is read through [`document`] and [`read_object`],
//! which hands each member to a member list ([`members!`](crate::members))
//! and refuses one no list holds by its path.

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
            s,
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

/// Parse an input document, check its `schema` tag and drop that
/// member: what is left are the document's own members.
pub fn document(doc: &str, schema: &str) -> Result<Json, String> {
    let mut v = Json::parse(doc)?;
    let found = v.get("schema").and_then(Json::as_str);
    if found != Some(schema) {
        return Err(format!("bad schema {found:?}, want {schema:?}"));
    }
    if let Json::Obj(members) = &mut v {
        members.retain(|(k, _)| k != "schema");
    }
    Ok(v)
}

/// Read the object `v` through `set`, one description's member list,
/// which returns `Ok(false)` for a name it does not hold: that member
/// is refused by its path, `at` (empty or ending in `.`) and the name.
/// Every name in `required` must be present.
pub fn read_object<'a>(
    v: &'a Json,
    at: &str,
    required: &[&str],
    mut set: impl FnMut(&'a str, &'a Json) -> Result<bool, String>,
) -> Result<(), String> {
    let members = object(v, at.strip_suffix('.').unwrap_or("the value"))?;
    let has = |r: &&&str| members.iter().any(|(k, _)| k == **r);
    if let Some(r) = required.iter().find(|r| !has(r)) {
        return Err(format!("missing {at}{r}"));
    }
    for (k, v) in members {
        if !set(k, v).map_err(|e| format!("{at}{e}"))? {
            return Err(format!("unknown member \"{at}{k}\""));
        }
    }
    Ok(())
}

/// The one number rule of every input document: a JSON integer, or a
/// `"0x…"` string (`_` may separate its digits), narrowed to the
/// member's type — a cast would make `65540` a 4-processor machine.
pub fn unsigned<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    let n = match v.as_str().and_then(|s| s.strip_prefix("0x")) {
        Some(digits) => u64::from_str_radix(&digits.replace('_', ""), 16).ok(),
        None => v.as_u64(),
    };
    let n = n.ok_or_else(|| format!("{key} must be an unsigned integer or a \"0x…\" string"))?;
    let ty = std::any::type_name::<T>();
    T::try_from(n).map_err(|_| format!("{key}: {n} does not fit {ty}"))
}

/// A string member; a tag is one, read by its type's `parse`.
pub fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{key} must be a string"))
}

/// An array member.
pub fn array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.as_arr().ok_or_else(|| format!("{key} must be an array"))
}

/// An object member, as its members.
pub fn object<'a>(v: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(members) => Ok(members),
        _ => Err(format!("{key} must be an object")),
    }
}

/// One description's member list, in the order its documents write
/// them. Like `config_fields!` for `SystemConfig`, the one list
/// generates both the writer and the reader, as straight-line code in
/// `mod $name`: `REQUIRED`, `write(s, w)` (every member into the open
/// object) and `read(s, key, v)` (`Ok(false)` for a name the list does
/// not hold). A member is `"name" [required]: codec(place, …)`, and the
/// codecs are `num` ([`unsigned`]); `hex` (the same, written `"0x…"`);
/// `nums` (an array of them); `flag`; `text`; `tag(place, Type, method)`
/// (read by `Type::parse`, written as `place.method()`);
/// `arm(place, x in Enum::A | Enum::B => codec(…x…))` (a member of
/// whatever the listed one-field variants hold, bound to `x`; absent
/// from any other variant); `nested(place, list[, read])` (an object of
/// another list, read by `read(v)` if given); `out(codec(…))` (written
/// only) and `given(expr)` (a string the caller reads before the
/// others, since it picks the variant they fill).
#[macro_export]
macro_rules! members {
    ($(#[$doc:meta])* $vis:vis mod $name:ident($s:ident: $T:ty) {
        $($key:literal $($req:ident)?: $codec:ident($($arg:tt)*)),* $(,)?
    }) => {
        $(#[$doc])*
        $vis mod $name {
            #[allow(unused_imports)]
            use {super::*, $crate::jsonv::{self, Json}};
            pub(crate) const REQUIRED: &[&str] = &[$($($crate::members!(@req $req $key),)?)*];
            pub(crate) fn write($s: &$T, w: &mut $crate::JsonWriter) {
                $($crate::members!(@w w $key $codec($($arg)*));)*
            }
            pub(crate) fn read($s: &mut $T, key: &str, v: &Json) -> Result<bool, String> {
                match key {
                    $($key => $crate::members!(@r v $key $codec($($arg)*)),)*
                    _ => return Ok(false),
                }
                Ok(true)
            }
        }
    };
    (@req required $k:literal) => { $k };
    (@w $w:ident $k:literal num($p:expr)) => { $w.kv_u64($k, $p as u64) };
    (@w $w:ident $k:literal hex($p:expr)) => { $w.kv_str($k, &format!("{:#x}", $p)) };
    (@w $w:ident $k:literal flag($p:expr)) => { $w.kv_bool($k, $p) };
    (@w $w:ident $k:literal text($p:expr)) => { $w.kv_str($k, &$p) };
    (@w $w:ident $k:literal tag($p:expr, $t:ty, $m:ident)) => { $w.kv_str($k, &$p.$m()) };
    (@w $w:ident $k:literal arm($p:expr, $x:ident in $($v:path)|+ => $c:ident $a:tt)) => {
        $(if let $v($x) = &$p { $crate::members!(@w $w $k $c $a) })else+
    };
    (@w $w:ident $k:literal nums($p:expr)) => {{
        $w.key($k);
        $w.begin_arr();
        $p.iter().for_each(|&n| $w.u64_val(n as u64));
        $w.end_arr()
    }};
    (@w $w:ident $k:literal nested($p:expr, $l:ident $(, $rd:expr)?)) => {{
        $w.key($k);
        $w.begin_obj();
        $l::write(&$p, $w);
        $w.end_obj()
    }};
    (@w $w:ident $k:literal out($c:ident($($a:tt)*))) => { $crate::members!(@w $w $k $c($($a)*)) };
    (@w $w:ident $k:literal given($e:expr)) => { $w.kv_str($k, $e) };
    (@r $v:ident $k:literal num($p:expr)) => { $p = jsonv::unsigned($v, $k)? };
    (@r $v:ident $k:literal hex($p:expr)) => { $p = jsonv::unsigned($v, $k)? };
    (@r $v:ident $k:literal flag($p:expr)) => {
        $p = $v.as_bool().ok_or(concat!($k, " must be true or false"))?
    };
    (@r $v:ident $k:literal text($p:expr)) => { $p = jsonv::text($v, $k)?.into() };
    (@r $v:ident $k:literal tag($p:expr, $t:ty, $m:ident)) => {
        $p = <$t>::parse(jsonv::text($v, $k)?)?
    };
    (@r $v:ident $k:literal arm($p:expr, $x:ident in $($var:path)|+ => $c:ident $a:tt)) => {
        $(if let $var($x) = &mut $p { $crate::members!(@r $v $k $c $a) })else+ else {
            return Ok(false)
        }
    };
    (@r $v:ident $k:literal nums($p:expr)) => {{
        let all = jsonv::array($v, $k)?.iter().map(|n| jsonv::unsigned(n, $k));
        $p = all.collect::<Result<_, _>>()?
    }};
    (@r $v:ident $k:literal nested($p:expr, $l:ident, $rd:expr)) => { $p = $rd($v)? };
    (@r $v:ident $k:literal nested($p:expr, $l:ident)) => {
        jsonv::read_object($v, concat!($k, "."), $l::REQUIRED, |k, x| $l::read(&mut $p, k, x))?
    };
    (@r $v:ident $k:literal out($($c:tt)*)) => { return Ok(false) };
    (@r $v:ident $k:literal given($e:expr)) => { jsonv::text($v, $k).map(drop)? };
}

/// Reads `s` through its bytes `b`. Every token starts and ends at an
/// ASCII delimiter, so a token's text is a slice of `s` on character
/// boundaries: the input was checked as UTF-8 once, when it became a
/// `&str`, and is not checked again.
struct Parser<'a> {
    s: &'a str,
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
        self.s[start..self.i]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as
            // one run. It starts after a quote or a complete escape and
            // ends at an ASCII delimiter, so it is whole characters.
            let rest = &self.b[self.i..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.s[self.i..self.i + run]);
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
            .s
            .get(self.i..self.i + 4)
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
        assert_eq!(unsigned::<u16>(&Json::Num(65_535.0), "procs"), Ok(65_535));
        let wide = unsigned::<u16>(&Json::Num(65_540.0), "procs").unwrap_err();
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

    /// Tokens are slices of the input: a multi-byte character in a key,
    /// beside an escape, or where an escape's hex digits should be is
    /// read or refused, never split.
    #[test]
    fn multibyte_keys_and_escapes_slice_whole_characters() {
        let v = Json::parse(r#"{"ké\t😀":"\"é","日本":[1.5,"日本"],"é\\":-2e3}"#).unwrap();
        assert_eq!(v.keys().collect::<Vec<_>>(), ["ké\t😀", "日本", "é\\"]);
        assert_eq!(v.get("ké\t😀").unwrap().as_str(), Some("\"é"));
        let arr = v.get("日本").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.5));
        assert_eq!(arr[1].as_str(), Some("日本"));
        assert_eq!(v.get("é\\").unwrap().as_f64(), Some(-2000.0));
        assert_eq!(
            Json::parse(r#""\u000é""#),
            Err("truncated \\u escape".into())
        );
        assert_eq!(Json::parse(r#""\u0é0""#), Err("bad \\u escape".into()));
        assert_eq!(Json::parse(r#""\é""#), Err("bad escape `\\Ã`".into()));
        assert_eq!(
            Json::parse("[1é]"),
            Err("expected `,` or `]` at byte 2".into())
        );
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

    /// Whatever the writer escapes, the parser reads back.
    #[test]
    fn any_string_round_trips_through_the_writer() {
        for mut rng in crate::seed::cases(
            module_path!(),
            "any_string_round_trips_through_the_writer",
            64,
        ) {
            // ASCII (controls, quote and backslash included) as often as
            // each wider encoding length.
            let widths = [0..0x80, 0x80..0x800, 0x800..0x1_0000, 0x1_0000..0x11_0000];
            let points: Vec<u32> = (0..rng.below(40))
                .map(|_| {
                    let width = widths[rng.below(4) as usize].clone();
                    rng.range(width) as u32
                })
                .collect();
            // The surrogate range holds no characters.
            let s: String = points.into_iter().filter_map(char::from_u32).collect();
            let mut w = JsonWriter::new();
            w.str_val(&s);
            assert_eq!(Json::parse(&w.finish()), Ok(Json::Str(s)));
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
