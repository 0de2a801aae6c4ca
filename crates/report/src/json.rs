//! JSON output and input without `serde_json` (the workspace builds
//! offline).
//!
//! **Output streams.** Every report type with a JSON form implements
//! [`WriteJson`]: it appends its document straight into one `String`
//! through the primitives here — [`write_str`] (copies unescaped runs
//! whole), [`write_f64`] (the bytes of `format!("{n:?}")`, the shortest
//! form that round-trips, with a fast path for short decimals and
//! non-finite values mapped to `null`) and [`write_u64`] — plus the
//! [`write_object`] / [`write_array`] framing. A per-cell sweep artifact is
//! therefore rendered without building any intermediate value, and each
//! type describes its JSON shape exactly once, in its `write_json`.
//!
//! **Trees are derived.** [`JsonValue`] is the document model for code that
//! reads JSON (the `repro serve` wire protocol, the disk cache, the bench
//! baseline gate) or assembles small one-off documents (protocol response
//! lines). A type's `to_json` tree is [`tree`]: its stream parsed back. That
//! is exact because parsing is round-trip stable on this module's own
//! output — `JsonValue::parse(v.render())?.render() == v.render()`, and
//! `JsonValue::render` writes through the same primitives (integer tokens
//! without `.`/`e` stay [`JsonValue::Integer`]).
//!
//! [`JsonValue::parse`] accepts RFC 8259 documents nested at most
//! [`MAX_DEPTH`] arrays/objects deep, so hostile input cannot exhaust the
//! stack of the thread parsing it.

use core::fmt::Write as _;

/// A type with one JSON shape, streamed straight into an output buffer.
pub trait WriteJson {
    /// Appends this value's JSON document to `out`.
    fn write_json(&self, out: &mut String);
}

/// Renders `value`'s JSON into a fresh string.
#[must_use]
pub fn render<T: WriteJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// `value`'s JSON as a tree, derived from its stream: the tree renders back
/// to exactly the streamed bytes.
///
/// # Panics
///
/// Only if a [`WriteJson`] implementation emits invalid JSON (a bug).
#[must_use]
pub fn tree<T: WriteJson + ?Sized>(value: &T) -> JsonValue {
    JsonValue::parse(&render(value)).expect("streamed JSON is well-formed")
}

/// Appends `s` as a JSON string literal: quotes, backslashes and control
/// characters are escaped, every other run of bytes is copied whole.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends the decimal digits of `n`, without allocating.
pub fn write_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = put_digits(&mut buf, 20, n);
    out.push_str(ascii(&buf[start..]));
}

/// `00`, `01`, …, `99`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849\
    5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Writes the decimal digits of `n` into `buf`, right-aligned to end just
/// before `end`; returns where they start.
fn put_digits(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    // Each `n % 100 < 100`, so the casts are lossless.
    #[allow(clippy::cast_possible_truncation)]
    let mut put_pair = |end: usize, pair: u64| {
        let i = 2 * pair as usize;
        buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
    };
    while n >= 100 {
        put_pair(end, n % 100);
        n /= 100;
        end -= 2;
    }
    if n >= 10 {
        put_pair(end, n);
        end - 2
    } else {
        #[allow(clippy::cast_possible_truncation)]
        let digit = n as u8;
        buf[end - 1] = b'0' + digit;
        end - 1
    }
}

/// Bytes this module formatted, which are ASCII.
fn ascii(bytes: &[u8]) -> &str {
    core::str::from_utf8(bytes).expect("formatted numbers are ASCII")
}

/// Appends `n` exactly as `format!("{n:?}")` would (the shortest decimal
/// that round-trips), or `null` for a non-finite value — JSON has no
/// NaN/Infinity.
pub fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if !write_short_decimal(out, n) {
        write!(out, "{n:?}").expect("writing to a String cannot fail");
    }
}

/// `10^k` for `k` in `0..=18`, each exact in an `f64`.
const POW10: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// The decades `1e-4, 1e-3, …, 1e15`, indexed by decimal exponent + 4.
const DECADES: [f64; 20] = [
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15,
];

/// The fast path of [`write_f64`]: zero, and magnitudes in `[1e-4, 1e15)`
/// with a decimal of at most 15 significant digits, `m·10^-k` with the
/// smallest `k`. That is the shortest decimal that round-trips, which is
/// what `{:?}` prints in this range (fixed notation, at least one
/// fractional digit). Returns `false`, writing nothing, for anything else.
///
/// The value is scaled to 15 significant digits, `m = round(|n|·10^k)`
/// with `k = 14 - e` for its decimal exponent `e`, and accepted only if
/// `m < 1e15` and `m / 10^k == |n|`. The check is exact: `m` and `10^k` are
/// exact `f64`s, so the quotient is correctly rounded, the same double
/// parsing the decimal gives. With at most 15 significant digits the grid
/// `10^-k` is coarser than the value's ulp, so no other decimal that short
/// round-trips, and the rounding error of `|n|·10^k` (< 0.2) cannot pick
/// the wrong `m`. Stripping `m`'s trailing zeros then gives the smallest
/// `k`. A misjudged exponent (the negative decades are inexact) can only
/// fail the check, i.e. fall back to `{:?}`.
fn write_short_decimal(out: &mut String, n: f64) -> bool {
    let magnitude = n.abs();
    if magnitude == 0.0 {
        out.push_str(if n.is_sign_negative() { "-0.0" } else { "0.0" });
        return true;
    }
    if !(1e-4..1e15).contains(&magnitude) {
        return false;
    }
    // The casts below are lossless: integers under 2^53 and an 11-bit
    // exponent.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        clippy::cast_possible_wrap
    )]
    {
        // Whole numbers (years, counts) need no scaling.
        let whole = magnitude as u64;
        if whole as f64 == magnitude {
            write_fixed(out, n < 0.0, whole, 0);
            return true;
        }
        // floor(log10 |n|): floor(log10 2^e2) is exact via 1233/4096, and
        // the true exponent is that or one more.
        let e2 = ((magnitude.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let mut e = (e2 * 1233) >> 12;
        if magnitude >= DECADES[(e + 5) as usize] {
            e += 1;
        }
        let mut k = (14 - e) as usize;
        let scale = POW10[k];
        // `+ 0.5` then truncation rounds: the sum is exact below 2^52.
        let mut m = (magnitude * scale + 0.5) as u64;
        if m >= 1_000_000_000_000_000 || m as f64 / scale != magnitude {
            return false;
        }
        // At most 15 trailing zeros: strip them 8, 4, 2, 1 at a time.
        for (step, power) in [(8, 100_000_000), (4, 10_000), (2, 100), (1, 10)] {
            if k >= step && m.is_multiple_of(power) {
                m /= power;
                k -= step;
            }
        }
        write_fixed(out, n < 0.0, m, k);
    }
    true
}

/// Appends `±m·10^-k` (`m < 1e15`, `k <= 18`) in fixed notation with at
/// least one fractional digit.
fn write_fixed(out: &mut String, negative: bool, m: u64, k: usize) {
    // Pre-filled with zeros: the padding between the point and a short `m`.
    let mut buf = [b'0'; 24];
    let mut start = if k == 0 {
        buf[22] = b'.';
        put_digits(&mut buf, 22, m)
    } else {
        // At least one integer digit; shift the integer digits left to
        // open the point's slot.
        let digits = put_digits(&mut buf, 24, m).min(23 - k);
        buf.copy_within(digits..24 - k, digits - 1);
        buf[23 - k] = b'.';
        digits - 1
    };
    if negative {
        start -= 1;
        buf[start] = b'-';
    }
    out.push_str(ascii(&buf[start..]));
}

/// Streams one JSON object: `{`, the members `members` appends through the
/// [`ObjectWriter`], then `}`.
pub fn write_object(out: &mut String, members: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    let mut object = ObjectWriter { out, first: true };
    members(&mut object);
    object.out.push('}');
}

/// Streams one JSON array: `[`, `item` applied to each of `items`, `]`.
pub fn write_array<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut item: impl FnMut(&mut String, I::Item),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// The member sink of [`write_object`]: keys in insertion order.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjectWriter<'_> {
    /// Appends the separator and `"key":`, returning the buffer the member's
    /// value must be written to next.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Appends one member.
    pub fn field<T: WriteJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        value.write_json(self.key(key));
        self
    }
}

impl WriteJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl WriteJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

macro_rules! unsigned {
    ($($t:ty),+) => {$(
        impl WriteJson for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }
        }
    )+};
}

unsigned!(u16, u32, u64, usize);

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// `None` is `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_array(out, self, |out, item| item.write_json(out));
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Number(f64),
    /// An integer, rendered losslessly (an `f64` cannot hold every `u64`,
    /// e.g. Monte-Carlo seeds above 2^53).
    Integer(u64),
    /// A string (escaped on output).
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        Self::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    #[must_use]
    pub fn array<I: IntoIterator<Item = JsonValue>>(items: I) -> Self {
        Self::Array(items.into_iter().collect())
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        render(self)
    }
}

impl WriteJson for JsonValue {
    fn write_json(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => b.write_json(out),
            Self::Number(n) => write_f64(out, *n),
            Self::Integer(n) => write_u64(out, *n),
            Self::String(s) => write_str(out, s),
            Self::Array(items) => items.write_json(out),
            Self::Object(pairs) => write_object(out, |object| {
                for (key, value) in pairs {
                    object.field(key, value);
                }
            }),
        }
    }
}

/// An error from [`JsonValue::parse`]: the byte offset where parsing failed
/// plus what was expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// How deeply [`JsonValue::parse`] lets arrays and objects nest. The
/// deepest document the workspace writes is about 7 levels; the bound keeps
/// the recursive parser's stack use small and fixed whatever the input.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(byte))))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] at once.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: a leading surrogate must be
                            // followed by `\uDC00..\uDFFF`.
                            let scalar = if (0xD800..0xDC00).contains(&hex) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| core::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|l| (0xDC00..0xE000).contains(l))
                                    .ok_or_else(|| self.err("unpaired surrogate"))?;
                                self.pos += 4;
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the whole character through.
                _ if b >= 0x80 => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|n| n & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = core::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
                _ if b < 0x20 => return Err(self.err("unescaped control character")),
                _ => out.push(char::from(b)),
            }
        }
    }

    /// Advances past a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        match self.digits() {
            0 => return Err(self.err("expected a digit")),
            1 => {}
            _ if leading_zero => return Err(self.err("leading zero in number")),
            _ => {}
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after `.`"));
            }
            fractional = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
            fractional = true;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Integer tokens stay `Integer` so `parse(render(v))` re-renders
        // byte-identically (an f64 would turn `60000` into `60000.0`).
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Integer(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

impl JsonValue {
    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace is an error (a protocol line must be exactly one
    /// value).
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with the byte offset of the first problem —
    /// including a number outside the RFC 8259 grammar (`01`, `1.`) and
    /// arrays/objects nested more than [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Self, JsonParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants or a missing
    /// key; first occurrence wins on duplicate keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload ([`Self::Number`] or [`Self::Integer`]).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            #[allow(clippy::cast_precision_loss)]
            Self::Integer(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer: an [`Self::Integer`], or a
    /// [`Self::Number`] with zero fraction.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Integer(n) => Some(*n),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Self::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            Self::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        Self::Number(n)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        Self::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        Self::String(s)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl core::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = JsonValue::object([
            ("name", JsonValue::from("fig10")),
            ("count", JsonValue::from(3.0)),
            ("ok", JsonValue::from(true)),
            (
                "tags",
                JsonValue::array([JsonValue::from("a"), JsonValue::Null]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"fig10","count":3.0,"ok":true,"tags":["a",null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::from(1.5e300).render(), "1.5e300");
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Integer(42));
        assert_eq!(JsonValue::parse("42.5").unwrap(), JsonValue::Number(42.5));
        assert_eq!(JsonValue::parse("-3").unwrap(), JsonValue::Number(-3.0));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Number(1000.0));
        assert_eq!(JsonValue::parse("0").unwrap(), JsonValue::Integer(0));
        assert_eq!(JsonValue::parse("-0").unwrap(), JsonValue::Number(-0.0));
        assert_eq!(JsonValue::parse("0.5").unwrap(), JsonValue::Number(0.5));
        assert_eq!(
            JsonValue::parse("-0.5e-3").unwrap(),
            JsonValue::Number(-0.5e-3)
        );
        assert_eq!(
            JsonValue::parse("10E+2").unwrap(),
            JsonValue::Number(1000.0)
        );
        assert_eq!(
            JsonValue::parse(r#"{"a":[1,"x",{"b":false}],"c":null}"#).unwrap(),
            JsonValue::object([
                (
                    "a",
                    JsonValue::array([
                        JsonValue::Integer(1),
                        JsonValue::from("x"),
                        JsonValue::object([("b", JsonValue::Bool(false))]),
                    ]),
                ),
                ("c", JsonValue::Null),
            ])
        );
    }

    #[test]
    fn parse_render_round_trips_own_output() {
        // The wire protocol depends on this: a client that parses an
        // artifact envelope and re-renders the inner object must reproduce
        // the CLI's bytes exactly.
        let doc = JsonValue::object([
            ("intensity", JsonValue::from(380.0)),
            ("servers", JsonValue::Integer(60_000)),
            ("seed", JsonValue::Integer(u64::MAX)),
            ("ratio", JsonValue::from(1.28)),
            ("tiny", JsonValue::from(1.5e-9)),
            ("huge", JsonValue::from(1.5e300)),
            ("label", JsonValue::from("a\"b\\c\nd\te\u{1}ü")),
            ("none", JsonValue::Null),
            ("flags", JsonValue::array([JsonValue::Bool(true)])),
        ]);
        let rendered = doc.render();
        let reparsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn parses_string_escapes_and_surrogate_pairs() {
        assert_eq!(
            JsonValue::parse(r#""a\"b\\c\ndAü""#).unwrap(),
            JsonValue::from("a\"b\\c\nd\u{41}ü")
        );
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap(), JsonValue::from("😀"));
        assert!(
            JsonValue::parse(r#""\ud83d""#).is_err(),
            "unpaired surrogate"
        );
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            "-",
            "1e",
            "1e+",
            ".5",
            "[01]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject `{bad}`");
        }
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc =
            JsonValue::parse(r#"{"name":"fig10","n":3,"x":1.5,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("fig10"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("x").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            doc.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("missing").is_none());
        assert!(doc.as_object().is_some());
        assert!(JsonValue::Null.get("name").is_none());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = JsonValue::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.render(), nested(MAX_DEPTH));
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
        // A hostile line far past the limit fails fast instead of
        // overflowing the parsing thread's stack.
        assert!(JsonValue::parse(&"[".repeat(200_000)).is_err());
    }

    /// splitmix64: a deterministic stream of test inputs.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assert_writes_like_debug(v: f64) {
        let mut out = String::new();
        write_f64(&mut out, v);
        let expected = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        assert_eq!(out, expected, "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn number_writer_matches_debug_formatting() {
        let edges = [
            0.0,
            -0.0,
            1e-4,
            1e-4 - 1e-20,
            1e-4 + 1e-20,
            0.000_099_999,
            0.000_123_456_789_012_345,
            1e15,
            1e15 - 0.125,
            999_999_999_999_999.0,
            1e15 + 1.0,
            1e16,
            1e16 - 2.0,
            1e16 + 2.0,
            4_503_599_627_370_496.0, // 2^52
            4_503_599_627_370_497.0,
            9_007_199_254_740_992.0, // 2^53
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1 + 0.2,
            1.0 / 3.0,
            2017.3,
            380.0,
            1.28,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            assert_writes_like_debug(v);
            assert_writes_like_debug(-v);
        }
        let mut state = 7;
        for _ in 0..400_000 {
            // Arbitrary bit patterns: every exponent, NaN payloads, subnormals.
            assert_writes_like_debug(f64::from_bits(next(&mut state)));
        }
        for _ in 0..400_000 {
            // Short decimals `±m·10^-k`, up to 17 significant digits, so
            // both sides of the 15-digit fast-path limit are covered.
            let r = next(&mut state);
            let digits = (r % 17 + 1) as u32;
            let m = (r >> 8) % 10u64.pow(digits);
            let k = ((r >> 4) % 20) as i32;
            #[allow(clippy::cast_precision_loss)]
            let v = m as f64 / 10f64.powi(k);
            assert_writes_like_debug(if r & 1 == 0 { v } else { -v });
        }
        for _ in 0..200_000 {
            // Full-precision values spread over the fast-path range.
            let r = next(&mut state);
            #[allow(clippy::cast_precision_loss)]
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            let v = 10f64.powf(unit * 21.0 - 5.0);
            assert_writes_like_debug(if r & 1 == 0 { v } else { -v });
        }
    }

    #[test]
    fn integer_writer_matches_display() {
        let mut state = 11;
        let randoms = (0..1000).map(|i| next(&mut state) >> (i % 64));
        for n in [0, 1, 9, 10, 99, 100, u64::MAX].into_iter().chain(randoms) {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn string_escaper_copies_runs_and_escapes_the_rest() {
        let mut out = String::new();
        let text = "plain \"quoted\" back\\slash\u{0}\u{1f}\n\r\t\u{7f} ü 😀 CO₂e end";
        write_str(&mut out, text);
        assert_eq!(
            out,
            "\"plain \\\"quoted\\\" back\\\\slash\\u0000\\u001f\\n\\r\\t\u{7f} ü 😀 CO₂e end\""
        );
        assert_eq!(JsonValue::parse(&out).unwrap(), JsonValue::from(text));
        // Every control character, alone and between multibyte text.
        for c in (0u8..0x20).map(char::from) {
            let text = format!("é{c}€");
            let mut out = String::new();
            write_str(&mut out, &text);
            let expected = match c {
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c => format!("\\u{:04x}", c as u32),
            };
            assert_eq!(out, format!("\"é{expected}€\""));
            assert_eq!(
                JsonValue::parse(&out).unwrap(),
                JsonValue::from(text.as_str())
            );
        }
    }

    #[test]
    fn streamed_objects_and_derived_trees_agree() {
        struct Point {
            x: f64,
            label: Option<String>,
            tags: Vec<u64>,
        }
        impl WriteJson for Point {
            fn write_json(&self, out: &mut String) {
                write_object(out, |o| {
                    o.field("x", &self.x)
                        .field("label", &self.label)
                        .field("tags", &self.tags)
                        .field("ok", &true);
                });
            }
        }
        let p = Point {
            x: 1.5,
            label: None,
            tags: vec![1, 20],
        };
        let text = render(&p);
        assert_eq!(text, r#"{"x":1.5,"label":null,"tags":[1,20],"ok":true}"#);
        assert_eq!(tree(&p).render(), text);
        assert_eq!(render(&Vec::<f64>::new()), "[]");
    }
}
