//! The workspace's JSON: one writer, one reader and a small value tree
//! built on both — no external dependencies.
//!
//! * [`JsonWriter`] appends JSON to a `String`: `begin_obj`/`key`/`end_obj`,
//!   `begin_arr`/`end_arr`, escaped strings (copied in unescaped runs) and
//!   integers formatted by a digit loop.  It emits the canonical compact
//!   form (one line, suitable for JSONL) or, for human-facing output, a
//!   two-space indented form.  [`Json::render`] and [`Json::render_pretty`]
//!   are walks over a tree that call it; hot producers (the profile
//!   documents of `vmv-sweep`) stream records straight into it without
//!   building a tree first.
//! * [`JsonReader`] pulls values out of the input bytes: [`JsonReader::object`]
//!   hands each key to a callback (borrowed from the input when it has no
//!   escapes), [`JsonReader::array`] calls back once per element, `str`,
//!   `u64` and `f64` read scalars, and [`JsonReader::skip`] discards a value.
//!   [`Json::parse`] builds a tree with it; hot consumers read their typed
//!   records directly, by field name.
//!
//! **Limits.**  The reader refuses input longer than [`MAX_INPUT_BYTES`]
//! and nesting deeper than [`MAX_DEPTH`] containers — inside `skip` too —
//! with a [`JsonError`] of kind [`JsonErrorKind::TooLarge`] or
//! [`JsonErrorKind::TooDeep`], so hostile input cannot exhaust the stack.
//!
//! **Numbers.**  The tree keeps numbers as `f64`; every integer the store
//! writes (cycle counts, operation counts) is far below 2^53, so its round
//! trip is exact.  The typed [`JsonReader::u64`] reads a plain digit run
//! exactly over the whole `u64` range, and reads any other number token
//! through `f64` under the [`Json::as_u64`] rule (`7.0` and `7e0` are 7;
//! negative and fractional values are not integers).
//!
//! **Duplicate keys.**  The tree keeps every pair and [`Json::get`] returns
//! the first; typed readers follow the same first-key-wins rule.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest container nesting the reader accepts (the outermost object or
/// array is depth 1).  Every document the workspace writes nests at most a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Largest input, in bytes, the reader accepts.
pub const MAX_INPUT_BYTES: usize = 64 << 20;

/// A JSON value.  Object keys keep insertion order so emitted lines are
/// stable and diffable.
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
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Exact for values below 2^53 (all counters the store uses).
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Field lookup on an object (the first pair with this key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => f64_as_u64(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render as compact JSON (single line — suitable for JSONL).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish()
    }

    /// Render as indented multi-line JSON (two-space indent).  Human-facing
    /// output only (`sweep --print-spec`); [`Json::render`] remains the
    /// canonical single-line form that fingerprints hash.
    pub fn render_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.value(self);
        w.finish()
    }

    /// Parse a complete JSON document (surrounding whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = JsonReader::new(input)?;
        let v = r.tree()?;
        r.finish()?;
        Ok(v)
    }
}

/// The integer a JSON number denotes, when it is a non-negative whole
/// number (saturating above `u64::MAX`).
fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// Append-only JSON writer over a `String`.
///
/// Separators are implicit: the writer tracks whether the open container
/// already holds an item, so callers only name keys and values.  A value
/// written right after [`JsonWriter::key`] completes that pair.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// The next value completes a `"key":` pair.
    after_key: bool,
    /// The innermost open container already holds an item.
    nonempty: bool,
}

impl JsonWriter {
    /// A compact (single-line) writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A compact writer whose buffer is pre-sized to `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// A writer of the two-space indented form.
    pub fn pretty() -> Self {
        JsonWriter {
            pretty: true,
            ..Self::default()
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Separator (and, when pretty, line break) before an item of the open
    /// container.
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if self.nonempty {
            self.out.push(',');
        }
        self.nonempty = true;
        if self.pretty && self.depth > 0 {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.nonempty = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth -= 1;
        if self.pretty && self.nonempty {
            self.newline();
        }
        self.out.push(bracket);
        self.nonempty = true;
        self
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Start an object member; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        escape_into(key, &mut self.out);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        escape_into(s, &mut self.out);
        self
    }

    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.item();
        push_u64(&mut self.out, n);
        self
    }

    /// A number: whole values below 9e15 in magnitude as integers, anything
    /// else in Rust's shortest round-trip `f64` form.
    pub fn f64(&mut self, n: f64) -> &mut Self {
        self.item();
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            push_i64(&mut self.out, n as i64);
        } else {
            write!(self.out, "{n}").expect("writing to a String cannot fail");
        }
        self
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.item();
        self.out.push_str("null");
        self
    }

    /// Write a whole tree.
    fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.f64(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr()
            }
            Json::Obj(fields) => {
                self.begin_obj();
                for (k, v) in fields {
                    self.key(k).value(v);
                }
                self.end_obj()
            }
        }
    }
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// What went wrong reading JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not well-formed JSON.
    Syntax,
    /// Containers nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// The input is longer than [`MAX_INPUT_BYTES`].
    TooLarge,
}

/// Read error: what went wrong, at which byte.  Boxed, so every `Result`
/// the reader returns stays one word wide on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(Box<ErrorDetail>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ErrorDetail {
    offset: usize,
    kind: JsonErrorKind,
    message: String,
}

impl JsonError {
    /// Byte offset into the input where reading stopped.
    pub fn offset(&self) -> usize {
        self.0.offset
    }

    pub fn kind(&self) -> JsonErrorKind {
        self.0.kind
    }

    pub fn message(&self) -> &str {
        &self.0.message
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON error at byte {}: {}",
            self.0.offset, self.0.message
        )
    }
}
impl std::error::Error for JsonError {}

/// The type of the next value, as seen by [`JsonReader::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonKind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

/// Pull reader over one JSON document.
///
/// Every read consumes exactly one value.  The typed reads (`str`, `u64`,
/// `f64`) consume a value of another type too, and return `None` for it,
/// the way [`Json::as_str`] and friends do; malformed input and limit
/// breaches are the only errors.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader over `text`, which may be at most [`MAX_INPUT_BYTES`] long.
    pub fn new(text: &'a str) -> Result<Self, JsonError> {
        let r = JsonReader {
            text,
            pos: 0,
            depth: 0,
        };
        if text.len() > MAX_INPUT_BYTES {
            return Err(r.fail(
                JsonErrorKind::TooLarge,
                format!(
                    "input of {} bytes exceeds the {MAX_INPUT_BYTES}-byte limit",
                    text.len()
                ),
            ));
        }
        Ok(r)
    }

    /// Require that only whitespace follows the value(s) read.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    fn fail(&self, kind: JsonErrorKind, message: String) -> JsonError {
        JsonError(Box::new(ErrorDetail {
            offset: self.pos,
            kind,
            message,
        }))
    }

    fn err(&self, message: &str) -> JsonError {
        self.fail(JsonErrorKind::Syntax, message.to_string())
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// The type of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<JsonKind, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(JsonKind::Null),
            Some(b't' | b'f') => Ok(JsonKind::Bool),
            Some(b'"') => Ok(JsonKind::Str),
            Some(b'[') => Ok(JsonKind::Arr),
            Some(b'{') => Ok(JsonKind::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(JsonKind::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Enter a container at its `open` bracket; `true` when it is empty
    /// (and already closed).
    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.fail(
                JsonErrorKind::TooDeep,
                format!("containers nest deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.skip_ws();
        Ok(self.closed(close))
    }

    /// Consume the `close` bracket if it is next: `true` once the
    /// container is closed.
    fn closed(&mut self, close: u8) -> bool {
        if self.byte() != Some(close) {
            return false;
        }
        self.pos += 1;
        self.depth -= 1;
        true
    }

    /// After an item: `true` once the container is closed, `false` past a
    /// comma.
    fn next_or_closed(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.byte() == Some(b',') {
            self.pos += 1;
            return Ok(false);
        }
        if self.closed(close) {
            return Ok(true);
        }
        Err(self.err(&format!("expected ',' or '{}'", close as char)))
    }

    /// Read an object, calling `field(reader, key)` once per member in
    /// document order.  The callback must consume the member's value (read
    /// it or [`skip`](Self::skip) it).
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut done = self.open(b'{', b'}')?;
        while !done {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, &key)?;
            done = self.next_or_closed(b'}')?;
        }
        Ok(())
    }

    /// Read an array, calling `element(reader)` once per element; the
    /// callback must consume the element.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut done = self.open(b'[', b']')?;
        while !done {
            element(self)?;
            done = self.next_or_closed(b']')?;
        }
        Ok(())
    }

    /// Read a string value (`None` for a value of another type).
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.peek()? != JsonKind::Str {
            self.skip()?;
            return Ok(None);
        }
        self.string().map(Some)
    }

    /// Read a non-negative whole number (`None` for anything else).  A
    /// plain digit run is read exactly; other number tokens go through
    /// `f64`, so `7.0` and `7e0` read as 7.
    pub fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        if self.peek()? != JsonKind::Num {
            self.skip()?;
            return Ok(None);
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut n = Some(0u64);
        while let Some(d) = bytes.get(self.pos).filter(|c| c.is_ascii_digit()) {
            n = n
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if let Some(n) = n.filter(|_| !matches!(self.byte(), Some(b'.' | b'e' | b'E'))) {
            if self.pos > start {
                return Ok(Some(n));
            }
        }
        self.pos = start;
        let token = self.number_token();
        Ok(f64_as_u64(self.parse_number(token)?))
    }

    /// Read a number (`None` for a value of another type).
    pub fn f64(&mut self) -> Result<Option<f64>, JsonError> {
        if self.peek()? != JsonKind::Num {
            self.skip()?;
            return Ok(None);
        }
        let token = self.number_token();
        self.parse_number(token).map(Some)
    }

    /// Consume one value of any type, checking it is well-formed.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            JsonKind::Obj => self.object(|r, _| r.skip()),
            JsonKind::Arr => self.array(Self::skip),
            JsonKind::Str => self.string().map(drop),
            JsonKind::Num => {
                let token = self.number_token();
                self.parse_number(token).map(drop)
            }
            JsonKind::Null | JsonKind::Bool => self.literal().map(drop),
        }
    }

    /// Read one value into a tree.
    fn tree(&mut self) -> Result<Json, JsonError> {
        Ok(match self.peek()? {
            JsonKind::Null | JsonKind::Bool => self.literal()?,
            JsonKind::Num => {
                let token = self.number_token();
                Json::Num(self.parse_number(token)?)
            }
            JsonKind::Str => Json::Str(self.string()?.into_owned()),
            JsonKind::Arr => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.tree()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            JsonKind::Obj => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    fields.push((key.to_string(), r.tree()?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
        })
    }

    /// `null`, `true` or `false` at the current position (an `n`, `t` or
    /// `f`).
    fn literal(&mut self) -> Result<Json, JsonError> {
        let (lit, value) = match self.byte() {
            Some(b'n') => ("null", Json::Null),
            Some(b't') => ("true", Json::Bool(true)),
            _ => ("false", Json::Bool(false)),
        };
        if !self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err(&format!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(value)
    }

    /// The string starting at the current `"`, borrowed from the input when
    /// it holds no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            self.pos += bytes[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(bytes.len() - self.pos);
            // Runs start and end next to ASCII quotes, backslashes or
            // escape sequences, so both ends are char boundaries.
            let plain = &text[run..self.pos];
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    let c = match self.byte() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'u') => {
                            if self.pos + 4 >= bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let mut code = 0u32;
                            for &h in &bytes[self.pos + 1..self.pos + 5] {
                                let digit = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                                code = code * 16 + digit;
                            }
                            self.pos += 4;
                            // Surrogates are not needed by the store; map
                            // them to the replacement character.
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The number token at the current position (a `-` or digit).
    fn number_token(&mut self) -> &'a str {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let digits = |r: &mut Self| {
            while matches!(bytes.get(r.pos), Some(c) if c.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.byte() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        &self.text[start..self.pos]
    }

    fn parse_number(&self, token: &str) -> Result<f64, JsonError> {
        token.parse().map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let v = Json::Obj(vec![
            ("key".into(), Json::str("0123abcd")),
            ("config".into(), Json::str("4w +Vec2x4 \"quoted\" \\ tab\t")),
            ("cycles".into(), Json::u64(1_234_567_890)),
            ("ok".into(), Json::Bool(true)),
            ("ratio".into(), Json::Num(0.5)),
            ("tags".into(), Json::Arr(vec![Json::Null, Json::num(-3.0)])),
        ]);
        let line = v.render();
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("cycles").unwrap().as_u64(), Some(1_234_567_890));
        assert_eq!(back.get("key").unwrap().as_str(), Some("0123abcd"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::u64(42).render(), "42");
        assert_eq!(Json::Num(1.5).render(), "1.5");
    }

    /// The number rule of the emitter the writer replaced, spelled out as
    /// the oracle: whole values below 9e15 as `i64`, the rest via `{}`.
    fn reference_number(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    #[test]
    fn numbers_render_the_same_bytes_as_the_reference_rule() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            -3.0,
            -1.5,
            0.1,
            -0.000123,
            1.0 / 3.0,
            -2.5e-8,
            123456789.125,
            8_999_999_999_999_998.0,
            -8_999_999_999_999_998.0,
            9.0e15,
            -9.5e15,
            1e20,
            -1e300,
            u64::MAX as f64,
            i64::MIN as f64,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(Json::Num(n).render(), reference_number(n), "{n:e}");
        }
        let mut w = JsonWriter::new();
        w.begin_arr().u64(0).u64(u64::MAX).f64(-7.0).end_arr();
        assert_eq!(
            w.finish(),
            format!("[0,{},-7]", u64::MAX),
            "digit loop covers the full u64 range and negatives"
        );
    }

    #[test]
    fn writer_streams_the_same_bytes_as_a_rendered_tree() {
        let tree = Json::Obj(vec![
            ("name".into(), Json::str("a\u{1}b\u{7f}é\"")),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
            (
                "rows".into(),
                Json::Arr(vec![Json::Obj(vec![("n".into(), Json::u64(3))])]),
            ),
        ]);
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name").str("a\u{1}b\u{7f}é\"");
        w.key("empty_obj").begin_obj().end_obj();
        w.key("empty_arr").begin_arr().end_arr();
        w.key("rows").begin_arr();
        w.begin_obj().key("n").u64(3).end_obj();
        w.end_arr();
        w.end_obj();
        let text = w.finish();
        assert_eq!(text, tree.render());
        assert_eq!(
            text,
            "{\"name\":\"a\\u0001b\u{7f}é\\\"\",\"empty_obj\":{},\"empty_arr\":[],\"rows\":[{\"n\":3}]}"
        );
    }

    #[test]
    fn pretty_rendering_parses_back_to_the_same_value() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("demo")),
            (
                "axes".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("axis".into(), Json::str("issue_width")),
                    ("values".into(), Json::Arr(vec![Json::u64(2), Json::u64(4)])),
                ])]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert_eq!(
            pretty,
            "{\n  \"name\": \"demo\",\n  \"axes\": [\n    {\n      \"axis\": \"issue_width\",\n      \
             \"values\": [\n        2,\n        4\n      ]\n    }\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(Json::Obj(vec![]).render_pretty(), "{}");
        assert_eq!(Json::Num(-1.5).render_pretty(), "-1.5");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "nul",
            "tru",
            "{}extra",
            "\"unterminated",
            "-",
            "1e",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert_eq!(e.kind(), JsonErrorKind::Syntax, "{bad:?}");
        }
    }

    #[test]
    fn truncated_documents_are_errors_not_panics() {
        let doc = Json::Obj(vec![
            ("s".into(), Json::str("x\\y\u{41}")),
            ("n".into(), Json::Num(-12.5e3)),
            ("a".into(), Json::Arr(vec![Json::Bool(false), Json::Null])),
        ])
        .render();
        for end in 0..doc.len() {
            assert!(Json::parse(&doc[..end]).is_err(), "{:?}", &doc[..end]);
            let mut r = JsonReader::new(&doc[..end]).unwrap();
            assert!(r.skip().and_then(|()| r.finish()).is_err());
        }
        assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn parse_handles_escapes_and_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , \"x\\u0041\\n\" ] } ").unwrap();
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("xA\n"));
    }

    #[test]
    fn keys_are_borrowed_unless_escaped() {
        let text = r#"{"plain":"v","esc\"aped":"\\ \u0041 \/"}"#;
        let mut r = JsonReader::new(text).unwrap();
        let mut seen = Vec::new();
        r.object(|r, key| {
            let v = r.str()?.unwrap();
            seen.push((key.to_string(), matches!(v, Cow::Borrowed(_)), v));
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(seen[0], ("plain".into(), true, Cow::Borrowed("v")));
        assert_eq!(seen[1].0, "esc\"aped");
        assert_eq!(seen[1].2, "\\ A /");
        assert!(!seen[1].1, "escaped strings are decoded into an owned copy");
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let v = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.render(), r#"{"a":1,"b":2,"a":3}"#, "the tree keeps both");
    }

    #[test]
    fn typed_reads_follow_the_tree_accessors() {
        let text = r#"[7, 7.0, 7e0, 70e-1, -1, 1.5, -0, "7", null, 9007199254740993,
                       18446744073709551615, 18446744073709551616, 2.5, true]"#;
        let mut ints = Vec::new();
        let mut r = JsonReader::new(text).unwrap();
        r.array(|r| {
            ints.push(r.u64()?);
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(
            ints,
            [
                Some(7),
                Some(7),
                Some(7),
                Some(7),
                None,
                None,
                Some(0),
                None,
                None,
                // Above 2^53 a digit run reads exactly; the tree's f64
                // would round this to ...992.
                Some(9_007_199_254_740_993),
                Some(u64::MAX),
                // Past u64::MAX the f64 path saturates, as `as_u64` does.
                Some(u64::MAX),
                None,
                None,
            ]
        );
        let tree = Json::parse(text).unwrap();
        let Json::Arr(items) = &tree else {
            panic!("array")
        };
        for (i, item) in items.iter().enumerate() {
            if i != 9 {
                assert_eq!(item.as_u64(), ints[i], "element {i}");
            }
        }
        assert_eq!(items[9].as_u64(), Some(9_007_199_254_740_992));

        let mut r = JsonReader::new(r#"[-2.5, "x", 1e3]"#).unwrap();
        let mut floats = Vec::new();
        r.array(|r| {
            floats.push(r.f64()?);
            Ok(())
        })
        .unwrap();
        assert_eq!(floats, [Some(-2.5), None, Some(1000.0)]);
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_typed_error() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.kind(), JsonErrorKind::TooDeep);
        assert_eq!(e.offset(), MAX_DEPTH + 1);
        // Deep enough to overflow the stack of an unbounded recursive
        // descent, unterminated too.
        let hostile = "[".repeat(200_000);
        assert_eq!(
            Json::parse(&hostile).unwrap_err().kind(),
            JsonErrorKind::TooDeep
        );
        // `skip` recurses over unknown fields under the same limit.
        let doc = format!("{{\"unknown\":{{\"x\":{hostile}}}}}");
        let mut r = JsonReader::new(&doc).unwrap();
        let e = r.object(|r, _| r.skip()).unwrap_err();
        assert_eq!(e.kind(), JsonErrorKind::TooDeep);
        let doc = format!("{{\"unknown\":{{\"x\":{}}}}}", nested(MAX_DEPTH - 2));
        let mut r = JsonReader::new(&doc).unwrap();
        r.object(|r, _| r.skip()).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn oversized_input_is_a_typed_error() {
        let big = " ".repeat(MAX_INPUT_BYTES + 1);
        let e = Json::parse(&big).unwrap_err();
        assert_eq!(e.kind(), JsonErrorKind::TooLarge);
        assert!(e.to_string().contains("limit"), "{e}");
    }
}
