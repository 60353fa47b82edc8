//! Minimal, dependency-free JSON tree with a deterministic emitter and a
//! strict parser.
//!
//! The reproduction publishes every experiment report and observability
//! artifact as machine-readable JSON. Rather than pulling serde into an
//! otherwise self-contained workspace, documents build a [`Json`] tree and
//! render it with [`Json::render`]. The emitter is deterministic: object
//! keys keep insertion order, floats use Rust's shortest-round-trip
//! `Display` formatting, and non-finite floats become `null`. This
//! determinism is load-bearing — the engine's regression tests
//! byte-compare rendered reports across worker counts, and
//! `scripts/verify.sh` diffs golden files.
//!
//! The parser accepts exactly the JSON grammar (RFC 8259) with no
//! extensions; `repro diff` and `repro lag` read their artifacts back
//! through it.
//!
//! # Records
//!
//! Most documents are a struct's fields in declaration order. Such a
//! record is declared once, inside [`json_record!`](crate::json_record),
//! which writes the struct, its [`ToJson`] (one key per field, named after
//! the field) and, in its `parse` form, its [`FromJson`]. Field types
//! render and parse through the leaf impls below: integers, `f64`, `bool`,
//! strings, `Option` (`null` when `None`), `Vec` and pairs (two-element
//! arrays). A document of any other shape implements the traits by hand.
//!
//! ```
//! use beehive_sim::json::{FromJson, Json, ToJson};
//!
//! beehive_sim::json_record! {
//!     parse
//!     /// One point of a curve.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Point {
//!         /// Its label.
//!         pub label: String,
//!         /// Its tail latency, if measured.
//!         pub p99_ms: Option<f64>,
//!         /// Its samples.
//!         pub points: Vec<u64>,
//!     }
//! }
//!
//! let p = Point { label: "fig8".into(), p99_ms: Some(12.5), points: vec![1, 2] };
//! let text = p.to_json().render();
//! assert_eq!(text, r#"{"label":"fig8","p99_ms":12.5,"points":[1,2]}"#);
//! assert_eq!(Point::from_json(&Json::parse(&text).unwrap()), Ok(p));
//! ```

use std::fmt;

/// A JSON value.
///
/// Objects are ordered key/value lists, not maps: insertion order is
/// preserved on render, which keeps report output deterministic without a
/// sorting pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (renders without a decimal point).
    Int(i128),
    /// A float (shortest round-trip rendering; non-finite renders as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Types that can describe themselves as a [`Json`] tree.
///
/// This is the workspace's stand-in for `serde::Serialize`. A record whose
/// document is its fields in declaration order gets its impl from
/// [`json_record!`](crate::json_record); a document of any other shape (a
/// derived value among the fields, a map keyed by name, a renamed or
/// omitted field) implements it by hand.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Types that can rebuild themselves from the [`Json`] tree their
/// [`ToJson`] renders: the documents `repro` reads back in.
pub trait FromJson: Sized {
    /// Read `j`. The error says what was expected of `j`; a record's error
    /// names the field that failed (see [`Json::field`]).
    fn from_json(j: &Json) -> Result<Self, String>;
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Build an array by mapping `to_json` over an iterator.
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|x| x.to_json()).collect())
    }

    /// Render to a compact JSON string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(*i, out),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. The whole input must be one value plus
    /// optional surrounding whitespace.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The field `key` read through `read`; a missing key and a value
    /// `read` refuses are both errors naming the key.
    fn typed_field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(v).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// The field `key` as a `T`. Like every typed accessor below: missing,
    /// of another type or out of range is an `Err` naming the key
    /// (`missing field "k"`, `field "k": expected ...`).
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        self.typed_field(key, T::from_json)
    }

    /// The string field `key`, borrowed.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed_field(key, |v| match v {
            Json::Str(s) => Ok(s.as_str()),
            _ => Err(expected("a string")),
        })
    }

    /// The array field `key`, borrowed.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed_field(key, |v| match v {
            Json::Arr(items) => Ok(items.as_slice()),
            _ => Err(expected("an array")),
        })
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(x as i128)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Int(x as i128)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(x as i128)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Int(x as i128)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(x: Option<T>) -> Json {
        x.map_or(Json::Null, Into::into)
    }
}

/// The error of a value that is not `what`.
fn expected(what: &str) -> String {
    format!("expected {what}")
}

// --- leaf impls: the field types records use ------------------------------

/// Integers render as [`Json::Int`] and parse back only in range (the
/// parser holds integers as `i128`, so a plain `as` cast would wrap).
macro_rules! int_leaf {
    ($($t:ty: $range:literal),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<$t, String> {
                match j {
                    Json::Int(i) => <$t>::try_from(*i).ok(),
                    _ => None,
                }
                .ok_or_else(|| expected(concat!("an integer in ", $range)))
            }
        }
    )+};
}

int_leaf!(u64: "0..=u64::MAX", u32: "0..=u32::MAX", usize: "0..=usize::MAX", i64: "the i64 range");

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

// A non-finite float renders as `null`, which does not parse back.
impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<f64, String> {
        match j {
            Json::Num(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            _ => Err(expected("a number")),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<bool, String> {
        match j {
            Json::Bool(b) => Ok(*b),
            _ => Err(expected("true or false")),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<String, String> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(expected("a string")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Option<T>, String> {
        match j {
            Json::Null => Ok(None),
            _ => T::from_json(j).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Vec<T>, String> {
        match j {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(expected("an array")),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<(A, B), String> {
        match j {
            Json::Arr(pair) if pair.len() == 2 => {
                Ok((A::from_json(&pair[0])?, B::from_json(&pair[1])?))
            }
            _ => Err(expected("a two-element array")),
        }
    }
}

/// Declare a record: a struct whose JSON document is its fields in
/// declaration order, each under its own name.
///
/// `json_record! { <struct> }` emits the struct unchanged (docs, derives
/// and visibility included) and its [`ToJson`](crate::json::ToJson);
/// `json_record! { parse <struct> }` also emits its
/// [`FromJson`](crate::json::FromJson), which reads each field through
/// [`Json::field`](crate::json::Json::field). Every field type must
/// implement the same traits. See the [module docs](crate::json) for an
/// example.
#[macro_export]
macro_rules! json_record {
    (@parse $(#[$attr:meta])* $vis:vis struct $name:ident {
        $($(#[$fattr:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        impl $crate::json::FromJson for $name {
            fn from_json(j: &$crate::json::Json) -> Result<$name, String> {
                Ok($name { $($field: j.field(stringify!($field))?),* })
            }
        }
    };
    (parse $($record:tt)*) => {
        $crate::json_record!($($record)*);
        $crate::json_record!(@parse $($record)*);
    };
    ($(#[$attr:meta])* $vis:vis struct $name:ident {
        $($(#[$fattr:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$fattr])* $fvis $field: $ty),*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::ToJson::to_json(&self.$field),
                )),*])
            }
        }
    };
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// `"00"`, `"01"`, … `"99"`: the two digits of `n` start at `2 * n`.
const DIGIT_PAIRS: &str = "\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The two digits of `n < 100`, `"00"` to `"99"`.
pub fn digit_pair(n: u64) -> &'static str {
    let at = n as usize * 2;
    &DIGIT_PAIRS[at..at + 2]
}

/// Append `v` in decimal, as [`Json::Int`] renders.
pub fn write_int(v: i128, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    let wide = v.unsigned_abs();
    let Ok(mut n) = u64::try_from(wide) else {
        // 128-bit division is a library call and nearly every value fits
        // 64 bits: only the digits past them pay it, one at a time.
        write_int((wide / 10) as i128, out);
        return out.push(char::from(b'0' + (wide % 10) as u8));
    };
    // Two digits a step from the least significant end, written from the
    // most significant.
    let mut pairs = [0u8; 10]; // u64::MAX has 20 digits
    let mut len = 0;
    while n >= 100 {
        pairs[len] = (n % 100) as u8;
        n /= 100;
        len += 1;
    }
    if n >= 10 {
        out.push_str(digit_pair(n));
    } else {
        out.push(char::from(b'0' + n as u8));
    }
    for &pair in pairs[..len].iter().rev() {
        out.push_str(digit_pair(u64::from(pair)));
    }
}

/// Append `x` as [`Json::Num`] renders: the shortest string that parses back
/// to the same `f64` (Rust's `Display`, deterministic across platforms),
/// `null` when not finite.
pub fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        return out.push_str("null");
    }
    use fmt::Write;
    let start = out.len();
    let _ = write!(out, "{x}");
    // `Display` omits ".0" for integral floats; keep it so a reader can tell
    // floats from ints and round-trips stay type-stable.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `s` as a JSON string literal, as [`Json::Str`] renders.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Most strings (every key, nearly every name) need no escaping.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 character (input is a &str, so slices at
                    // char boundaries are safe to recover).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("number out of range"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_int_equals_to_string() {
        let mut values: Vec<i128> = vec![0, 9, 10, 99, 100, 101, 999, 1_000];
        let mut p = 1i128;
        for _ in 0..38 {
            p *= 10;
            values.extend([p - 1, p, p + 1]);
        }
        values.extend([
            u64::MAX as i128 - 1,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            i128::MIN,
            i128::MIN + 1,
            i128::MAX,
        ]);
        values.extend(values.clone().into_iter().map(|v| v.saturating_neg()));
        for v in values {
            let mut out = String::from("x");
            write_int(v, &mut out);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).render(), r#""a\"b\n""#);
    }

    #[test]
    fn number_writers_match_display_formatting() {
        // What `Json::write` did before it wrote numbers in place: format
        // into a scratch string, then patch integral floats.
        let old_num = |x: f64| {
            let mut buf = format!("{x}");
            if !buf.contains(['.', 'e', 'E']) {
                buf.push_str(".0");
            }
            buf
        };
        let mut rng = crate::Rng::new(0x5EED);
        let mut ints = vec![0, 1, -1, 9, 10, i64::MAX as i128, i64::MIN as i128];
        ints.extend([u64::MAX as i128, u64::MAX as i128 + 1, i128::MAX, i128::MIN]);
        let mut nums = vec![
            0.0,
            -0.0,
            1e21,
            1e-7,
            123456789012345680.0,
            f64::MIN_POSITIVE,
        ];
        for _ in 0..10_000 {
            let bits = rng.next_u64();
            // Every magnitude: shift a random word right by a random amount.
            ints.push((bits >> rng.gen_range(64)) as i128 * if bits & 1 == 0 { 1 } else { -1 });
            ints.push(((bits as i128) << 64 | rng.next_u64() as i128) >> rng.gen_range(64));
            nums.push(f64::from_bits(bits));
            nums.push(bits as f64 / 1000.0);
        }
        for i in ints {
            assert_eq!(Json::Int(i).render(), format!("{i}"));
        }
        for x in nums.into_iter().filter(|x| x.is_finite()) {
            assert_eq!(Json::Num(x).render(), old_num(x), "{x:e}");
        }
        // Appending leaves what `out` already held alone, `.`s included.
        let mut out = String::from("[1.5,");
        write_num(2.0, &mut out);
        assert_eq!(out, "[1.5,2.0");
    }

    #[test]
    fn renders_nested() {
        let j = Json::obj([
            ("xs".into(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(j.render(), r#"{"xs":[1,null],"empty":{}}"#);
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let j = Json::obj([("z".into(), Json::Int(1)), ("a".into(), Json::Int(2))]);
        assert_eq!(j.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_round_trips_rendered_output() {
        let j = Json::obj([
            ("label".into(), Json::from("fig8 — saturation")),
            ("rps".into(), Json::from(123.456)),
            (
                "counts".into(),
                Json::Arr(vec![Json::from(0u64), Json::from(9u64)]),
            ),
            ("none".into(), Json::Null),
            ("ok".into(), Json::from(true)),
        ]);
        let text = j.render();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let j = Json::parse(" { \"k\" : [ 1 , 2.5e1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            j,
            Json::obj([(
                "k".into(),
                Json::Arr(vec![Json::Int(1), Json::Num(25.0), Json::Str("A\n".into())])
            )])
        );
    }

    #[test]
    fn parse_surrogate_pair() {
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j, Json::Str("😀".into()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn float_rendering_is_shortest_round_trip() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456789.123456] {
            let text = Json::Num(x).render();
            assert_eq!(text.parse::<f64>().unwrap(), x, "{text}");
        }
    }

    #[test]
    fn typed_accessors_check_presence_type_and_range() {
        let doc = |v: &str| Json::parse(&format!(r#"{{"k":{v},"ks":[0,{v}]}}"#)).unwrap();
        // (value, fits u64, fits i64)
        for (v, u, i) in [
            ("0", true, true),
            ("-1", false, true),
            ("9223372036854775807", true, true),
            ("9223372036854775808", true, false),
            ("18446744073709551615", true, false),
            ("18446744073709551616", false, false),
            ("-9223372036854775808", false, true),
            ("-9223372036854775809", false, false),
            ("1.0", false, false),
            ("\"7\"", false, false),
            ("null", false, false),
        ] {
            let j = doc(v);
            assert_eq!(j.field::<u64>("k").is_ok(), u, "u64 {v}");
            assert_eq!(j.field::<i64>("k").is_ok(), i, "i64 {v}");
            assert_eq!(j.field::<Vec<u64>>("ks").is_ok(), u, "u64 array {v}");
            assert_eq!(j.field::<Vec<i64>>("ks").is_ok(), i, "i64 array {v}");
            for err in [j.field::<u64>("k").err(), j.field::<Vec<u64>>("ks").err()] {
                assert!(err.is_none_or(|e| e.contains("\"k")), "{v} names the key");
            }
        }
        let j = doc("18446744073709551615");
        assert_eq!(j.field("k"), Ok(u64::MAX));
        assert_eq!(j.field("ks"), Ok(vec![0, u64::MAX]));
        assert_eq!(
            j.field::<u32>("k"),
            Err("field \"k\": expected an integer in 0..=u32::MAX".into())
        );
        assert_eq!(doc("-9223372036854775808").field("k"), Ok(i64::MIN));
        assert_eq!(doc("\"s\"").str_field("k"), Ok("s"));
        assert_eq!(j.arr_field("ks").map(<[Json]>::len), Ok(2));
        // Wrong type and missing key, for every accessor.
        assert!(j.str_field("k").is_err() && j.arr_field("k").is_err());
        assert!(j.field::<u64>("ks").is_err() && j.field::<Vec<u64>>("k").is_err());
        for missing in [
            j.field::<u64>("nope").err(),
            j.field::<i64>("nope").err(),
            j.str_field("nope").map(drop).err(),
            j.arr_field("nope").map(drop).err(),
            j.field::<Vec<u64>>("nope").err(),
            j.field::<Option<i64>>("nope").err(),
            Json::Null.field::<u64>("nope").err(),
        ] {
            assert_eq!(missing.as_deref(), Some("missing field \"nope\""));
        }
    }

    crate::json_record! {
        parse
        /// Every leaf type a record field may have, nested records included.
        #[derive(Clone, Debug, PartialEq)]
        struct Leaves {
            wide: u64,
            narrow: u32,
            count: usize,
            signed: i64,
            ratio: f64,
            flag: bool,
            name: String,
            maybe: Option<u64>,
            never: Option<u64>,
            items: Vec<i64>,
            pairs: Vec<(u64, i64)>,
            inner: Vec<Inner>,
        }
    }

    crate::json_record! {
        parse
        #[derive(Clone, Debug, PartialEq)]
        struct Inner {
            label: String,
            at: Option<u32>,
        }
    }

    crate::json_record! {
        /// A render-only record: `&'static str` fields have no parser.
        struct Label {
            text: &'static str,
            inner: Inner,
        }
    }

    fn leaves() -> Leaves {
        Leaves {
            wide: u64::MAX,
            narrow: u32::MAX,
            count: 7,
            signed: i64::MIN,
            ratio: 0.1,
            flag: true,
            name: "a \"b\"\n".into(),
            maybe: Some(3),
            never: None,
            items: vec![-1, 0, 1],
            pairs: vec![(0, -9), (4, 2)],
            inner: vec![Inner {
                label: "x".into(),
                at: None,
            }],
        }
    }

    #[test]
    fn record_macro_round_trips_every_leaf_type() {
        let rec = leaves();
        let text = rec.to_json().render();
        assert!(text.starts_with(r#"{"wide":18446744073709551615,"narrow":4294967295,"#));
        assert!(text.contains(r#""never":null,"items":[-1,0,1],"pairs":[[0,-9],[4,2]]"#));
        let back = Leaves::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.to_json().render(), text);
        let label = Label {
            text: "t",
            inner: rec.inner[0].clone(),
        };
        assert_eq!(
            label.to_json().render(),
            r#"{"text":"t","inner":{"label":"x","at":null}}"#
        );
    }

    #[test]
    fn record_macro_rejects_bad_and_missing_keys_by_name() {
        let Json::Obj(pairs) = leaves().to_json() else {
            panic!("a record renders as an object");
        };
        // An out-of-range u32, and a wrong type inside a nested record.
        let with = |key: &str, v: Json| {
            let mut pairs = pairs.clone();
            pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
            Leaves::from_json(&Json::Obj(pairs)).unwrap_err()
        };
        assert_eq!(
            with("narrow", Json::Int(1 << 32)),
            "field \"narrow\": expected an integer in 0..=u32::MAX"
        );
        let bad_inner = Json::Arr(vec![Json::obj([
            ("label".into(), Json::from("x")),
            ("at".into(), Json::from(-1i64)),
        ])]);
        assert_eq!(
            with("inner", bad_inner),
            "field \"inner\": field \"at\": expected an integer in 0..=u32::MAX"
        );
        assert_eq!(
            with("pairs", Json::Arr(vec![Json::Arr(vec![Json::Int(1)])])),
            "field \"pairs\": expected a two-element array"
        );
        // Every key, deleted in turn.
        for i in 0..pairs.len() {
            let mut short = pairs.clone();
            let (key, _) = short.remove(i);
            assert_eq!(
                Leaves::from_json(&Json::Obj(short)),
                Err(format!("missing field {key:?}"))
            );
        }
    }

    #[test]
    fn get_looks_up_object_keys() {
        let j = Json::obj([("a".into(), Json::Int(1))]);
        assert_eq!(j.get("a"), Some(&Json::Int(1)));
        assert_eq!(j.get("b"), None);
        assert_eq!(Json::Null.get("a"), None);
    }
}
