//! Minimal JSON value type, parser and serializer.
//!
//! The engine speaks JSON over HTTP but the container cannot pull
//! `serde`, so this module implements the small subset the API needs:
//! UTF-8 strings with `\uXXXX` escapes, f64 numbers, arrays, objects
//! (insertion-ordered, which keeps responses and job digests stable),
//! booleans and null.
//!
//! There is one parser, [`JsonArena::parse`]: it parses into a
//! caller-owned arena of flat nodes plus one shared text buffer.
//! Re-parsing into a warm arena performs **zero heap allocations**
//! (all buffers retain their capacity), which is what the keep-alive
//! HTTP workers use on their per-request hot path. [`Json::parse`]
//! runs it and copies the result into an owned tree of `String`s and
//! `Vec`s, which is convenient for tests and tools. Containers nest at
//! most 128 deep (`MAX_DEPTH`), so no body can exhaust a worker's stack.
//!
//! The serializer is likewise buffer-reusing: [`Json::write_into`]
//! appends to a caller-provided `String` instead of allocating one.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`, like JavaScript).
    Number(f64),
    /// An exact unsigned integer. The parser never produces this
    /// variant (numbers parse as `f64`); it exists so **emitters** of
    /// monotonic counters can serialize values above 2^53 without the
    /// `f64` round-trip silently rounding them.
    Integer(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Compact JSON serialization (so `.to_string()` works everywhere).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Parse error with byte offset for debugging malformed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Ok(JsonArena::new().parse(input)?.to_json())
    }

    /// Serialize into `out` without allocating a fresh `String`
    /// (beyond whatever growth `out` itself needs).
    pub fn write_into(&self, out: &mut String) {
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => write_number(*x, out),
            Json::Integer(v) => crate::num::write_u64(*v, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor (lossy for `Integer` values above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            Json::Integer(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Non-negative integer accessor (rejects fractional values).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(x) if *x >= 0.0 && *x == x.trunc() && *x < 9.0e15 => Some(*x as usize),
            Json::Integer(v) => usize::try_from(*v).ok(),
            _ => None,
        }
    }

    /// `u64` accessor (rejects fractional and negative values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(x) if *x >= 0.0 && *x == x.trunc() && *x < 1.8e19 => Some(*x as u64),
            Json::Integer(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: build an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience: an array of numbers from usize indices.
    pub fn index_array(indices: &[usize]) -> Json {
        Json::Array(indices.iter().map(|&i| Json::Number(i as f64)).collect())
    }
}

/// Serialize an `f64` with the engine's canonical number format: the
/// shortest round-trip decimal of [`crate::num::write_f64`] (integers
/// without a fraction, `-0.0` as `-0`), non-finite values as `null`.
/// Every finite value parses back bit for bit.
pub(crate) fn write_number(x: f64, out: &mut String) {
    if x.is_finite() {
        crate::num::write_f64(x, out);
    } else {
        out.push_str("null"); // JSON has no NaN/inf
    }
}

/// Serialize an escaped JSON string literal (quotes included).
pub(crate) fn write_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail<T>(message: &str, pos: usize) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.to_string(),
        offset: pos,
    })
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        fail("invalid literal", *pos)
    }
}

fn parse_number_raw(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError {
        message: "invalid utf-8".into(),
        offset: start,
    })?;
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => fail("invalid number", start),
    }
}

/// Read the 4 hex digits of a `\uXXXX` escape starting at `at`
/// (strict: exactly 4 ASCII hex digits, no sign or whitespace).
fn read_hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    if !digits.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    let text = std::str::from_utf8(digits).ok()?;
    u32::from_str_radix(text, 16).ok()
}

/// Unescape a string literal, appending to `out` (no allocation when
/// `out` has capacity — the arena parser's hot path).
fn parse_string_into(bytes: &[u8], pos: &mut usize, out: &mut String) -> Result<(), JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    loop {
        match bytes.get(*pos) {
            None => return fail("unterminated string", *pos),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // offset of the backslash, so unpaired-surrogate
                        // errors point at the escape that went wrong
                        let escape_offset = *pos - 1;
                        let Some(unit) = read_hex4(bytes, *pos + 1) else {
                            return fail("invalid \\u escape", escape_offset);
                        };
                        *pos += 4; // on the last hex digit; +1 below
                        let c = match unit {
                            // high surrogate: a low surrogate escape
                            // must follow immediately, and the pair
                            // decodes to one supplementary-plane char
                            0xD800..=0xDBFF => {
                                let lo = match (bytes.get(*pos + 1), bytes.get(*pos + 2)) {
                                    (Some(b'\\'), Some(b'u')) => read_hex4(bytes, *pos + 3),
                                    _ => None,
                                };
                                match lo {
                                    Some(lo @ 0xDC00..=0xDFFF) => {
                                        *pos += 6; // the `\uXXXX` of the low half
                                        let scalar =
                                            0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(scalar)
                                            .expect("surrogate pairs decode to valid scalars")
                                    }
                                    _ => {
                                        return fail(
                                            "unpaired high surrogate (expected a \\uDC00-\\uDFFF escape to follow)",
                                            escape_offset,
                                        )
                                    }
                                }
                            }
                            0xDC00..=0xDFFF => {
                                return fail(
                                    "unpaired low surrogate (no preceding \\uD800-\\uDBFF escape)",
                                    escape_offset,
                                )
                            }
                            _ => char::from_u32(unit)
                                .expect("non-surrogate code units below 0x10000 are scalars"),
                        };
                        out.push(c);
                    }
                    _ => return fail("invalid escape", *pos),
                }
                *pos += 1;
            }
            Some(_) => {
                // consume one UTF-8 character (1-4 bytes)
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    message: "invalid utf-8".into(),
                    offset: *pos,
                })?;
                let c = rest.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

const NIL: u32 = u32::MAX;

/// The deepest nesting of arrays and objects a document may have. The
/// API's bodies nest about 4 deep; the cap keeps the recursive parser
/// (and [`Json::parse`]'s copy) within a small, fixed stack.
const MAX_DEPTH: usize = 128;

/// Byte range into a [`JsonArena`]'s shared text buffer.
#[derive(Debug, Clone, Copy)]
struct TextSpan {
    start: u32,
    end: u32,
}

#[derive(Debug, Clone, Copy)]
enum ArenaValue {
    Null,
    Bool(bool),
    Number(f64),
    String(TextSpan),
    Array { first: u32, len: u32 },
    Object { first: u32, len: u32 },
}

#[derive(Debug, Clone, Copy)]
struct ArenaNode {
    value: ArenaValue,
    /// Next sibling inside the enclosing container (`NIL` when last).
    next: u32,
    /// Key range for object members (unused elsewhere).
    key: TextSpan,
}

/// A reusable JSON parse arena: flat nodes plus one shared text buffer
/// holding every unescaped string. Parsing clears and refills the
/// buffers, so a warm arena (capacity from earlier requests) parses a
/// same-shaped document with **zero heap allocations** — this is what
/// each HTTP I/O worker owns in its connection scratch.
#[derive(Default)]
pub struct JsonArena {
    nodes: Vec<ArenaNode>,
    text: String,
}

impl JsonArena {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        JsonArena::default()
    }

    /// Parse a complete JSON document into the arena (clearing any
    /// previous document), returning a handle to the root value.
    pub fn parse(&mut self, input: &str) -> Result<ValueRef<'_>, JsonError> {
        self.nodes.clear();
        self.text.clear();
        let bytes = input.as_bytes();
        let mut pos = 0;
        let root = self.parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                message: "trailing characters".into(),
                offset: pos,
            });
        }
        Ok(ValueRef {
            arena: self,
            idx: root,
        })
    }

    fn push(&mut self, value: ArenaValue) -> Result<u32, JsonError> {
        if self.nodes.len() >= NIL as usize {
            return Err(JsonError {
                message: "document too large".into(),
                offset: 0,
            });
        }
        self.nodes.push(ArenaNode {
            value,
            next: NIL,
            key: TextSpan { start: 0, end: 0 },
        });
        Ok((self.nodes.len() - 1) as u32)
    }

    fn parse_string_span(&mut self, bytes: &[u8], pos: &mut usize) -> Result<TextSpan, JsonError> {
        let start = self.text.len() as u32;
        parse_string_into(bytes, pos, &mut self.text)?;
        Ok(TextSpan {
            start,
            end: self.text.len() as u32,
        })
    }

    /// Parse one value; `depth` counts the containers around it.
    fn parse_value(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        depth: usize,
    ) -> Result<u32, JsonError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => fail("unexpected end of input", *pos),
            Some(b'{' | b'[') if depth == MAX_DEPTH => fail("nesting too deep", *pos),
            Some(b'{') => self.parse_object(bytes, pos, depth + 1),
            Some(b'[') => self.parse_array(bytes, pos, depth + 1),
            Some(b'"') => {
                let span = self.parse_string_span(bytes, pos)?;
                self.push(ArenaValue::String(span))
            }
            Some(b't') => {
                parse_literal(bytes, pos, "true")?;
                self.push(ArenaValue::Bool(true))
            }
            Some(b'f') => {
                parse_literal(bytes, pos, "false")?;
                self.push(ArenaValue::Bool(false))
            }
            Some(b'n') => {
                parse_literal(bytes, pos, "null")?;
                self.push(ArenaValue::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let x = parse_number_raw(bytes, pos)?;
                self.push(ArenaValue::Number(x))
            }
            Some(_) => fail("unexpected character", *pos),
        }
    }

    fn parse_array(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        depth: usize,
    ) -> Result<u32, JsonError> {
        debug_assert_eq!(bytes[*pos], b'[');
        *pos += 1;
        let node = self.push(ArenaValue::Array { first: NIL, len: 0 })?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(node);
        }
        let mut first = NIL;
        let mut prev = NIL;
        let mut len = 0u32;
        loop {
            let child = self.parse_value(bytes, pos, depth)?;
            if first == NIL {
                first = child;
            } else {
                self.nodes[prev as usize].next = child;
            }
            prev = child;
            len += 1;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    self.nodes[node as usize].value = ArenaValue::Array { first, len };
                    return Ok(node);
                }
                _ => return fail("expected `,` or `]`", *pos),
            }
        }
    }

    fn parse_object(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        depth: usize,
    ) -> Result<u32, JsonError> {
        debug_assert_eq!(bytes[*pos], b'{');
        *pos += 1;
        let node = self.push(ArenaValue::Object { first: NIL, len: 0 })?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(node);
        }
        let mut first = NIL;
        let mut prev = NIL;
        let mut len = 0u32;
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return fail("expected string key", *pos);
            }
            let key = self.parse_string_span(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return fail("expected `:`", *pos);
            }
            *pos += 1;
            let child = self.parse_value(bytes, pos, depth)?;
            self.nodes[child as usize].key = key;
            if first == NIL {
                first = child;
            } else {
                self.nodes[prev as usize].next = child;
            }
            prev = child;
            len += 1;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    self.nodes[node as usize].value = ArenaValue::Object { first, len };
                    return Ok(node);
                }
                _ => return fail("expected `,` or `}`", *pos),
            }
        }
    }

    fn span(&self, s: TextSpan) -> &str {
        &self.text[s.start as usize..s.end as usize]
    }

    /// Shrink internal buffers whose capacity exceeds `limit_bytes`,
    /// discarding the current document — the HTTP workers call this
    /// between requests so one huge body does not pin its high-water
    /// mark per worker forever. (Taking `&mut self` guarantees no
    /// [`ValueRef`] into the discarded document can outlive the call.)
    pub fn shrink_to(&mut self, limit_bytes: usize) {
        if self.text.capacity() > limit_bytes {
            self.text.clear();
            self.text.shrink_to(limit_bytes);
        }
        let node_limit = limit_bytes / std::mem::size_of::<ArenaNode>();
        if self.nodes.capacity() > node_limit {
            self.nodes.clear();
            self.nodes.shrink_to(node_limit);
        }
    }
}

/// A handle to one value inside a [`JsonArena`]. Accessors mirror
/// [`Json`]'s (same numeric conversion rules), but nothing is owned —
/// strings borrow the arena's text buffer.
#[derive(Clone, Copy)]
pub struct ValueRef<'a> {
    arena: &'a JsonArena,
    idx: u32,
}

impl<'a> ValueRef<'a> {
    fn node(&self) -> &'a ArenaNode {
        &self.arena.nodes[self.idx as usize]
    }

    /// Copy this value into an owned [`Json`] tree. Recursion is
    /// bounded by `MAX_DEPTH`.
    fn to_json(self) -> Json {
        let children = |first, len: u32| ArenaElements {
            arena: self.arena,
            next: first,
            remaining: len as usize,
        };
        match self.node().value {
            ArenaValue::Null => Json::Null,
            ArenaValue::Bool(b) => Json::Bool(b),
            ArenaValue::Number(x) => Json::Number(x),
            ArenaValue::String(span) => Json::String(self.arena.span(span).to_string()),
            ArenaValue::Array { first, len } => {
                Json::Array(children(first, len).map(ValueRef::to_json).collect())
            }
            ArenaValue::Object { first, len } => Json::Object(
                children(first, len)
                    .map(|v| (self.arena.span(v.node().key).to_string(), v.to_json()))
                    .collect(),
            ),
        }
    }

    /// True for JSON objects.
    pub fn is_object(&self) -> bool {
        matches!(self.node().value, ArenaValue::Object { .. })
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<ValueRef<'a>> {
        let ArenaValue::Object { first, .. } = self.node().value else {
            return None;
        };
        let mut idx = first;
        while idx != NIL {
            let node = &self.arena.nodes[idx as usize];
            if self.arena.span(node.key) == key {
                return Some(ValueRef {
                    arena: self.arena,
                    idx,
                });
            }
            idx = node.next;
        }
        None
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self.node().value {
            ArenaValue::Number(x) => Some(x),
            _ => None,
        }
    }

    /// Non-negative integer accessor (rejects fractional values).
    pub fn as_usize(&self) -> Option<usize> {
        match self.node().value {
            ArenaValue::Number(x) if x >= 0.0 && x == x.trunc() && x < 9.0e15 => Some(x as usize),
            _ => None,
        }
    }

    /// `u64` accessor (rejects fractional and negative values).
    pub fn as_u64(&self) -> Option<u64> {
        match self.node().value {
            ArenaValue::Number(x) if x >= 0.0 && x == x.trunc() && x < 1.8e19 => Some(x as u64),
            _ => None,
        }
    }

    /// String accessor (borrowing the arena's text buffer).
    pub fn as_str(&self) -> Option<&'a str> {
        match self.node().value {
            ArenaValue::String(span) => Some(self.arena.span(span)),
            _ => None,
        }
    }

    /// Element count of an array, member count of an object, 0
    /// otherwise.
    pub fn len(&self) -> usize {
        match self.node().value {
            ArenaValue::Array { len, .. } | ArenaValue::Object { len, .. } => len as usize,
            _ => 0,
        }
    }

    /// True when `len()` is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Array accessor: an iterator over the elements, or `None` for
    /// non-arrays.
    pub fn as_array(&self) -> Option<ArenaElements<'a>> {
        match self.node().value {
            ArenaValue::Array { first, len } => Some(ArenaElements {
                arena: self.arena,
                next: first,
                remaining: len as usize,
            }),
            _ => None,
        }
    }
}

/// Iterator over the elements of an arena array.
pub struct ArenaElements<'a> {
    arena: &'a JsonArena,
    next: u32,
    remaining: usize,
}

impl<'a> Iterator for ArenaElements<'a> {
    type Item = ValueRef<'a>;

    fn next(&mut self) -> Option<ValueRef<'a>> {
        if self.next == NIL {
            return None;
        }
        let idx = self.next;
        self.next = self.arena.nodes[idx as usize].next;
        self.remaining = self.remaining.saturating_sub(1);
        Some(ValueRef {
            arena: self.arena,
            idx,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ArenaElements<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-3",
            "1.5",
            "\"hi\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
            "{}",
            "[]",
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed.to_string(), text, "{text}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""line\nbreak \"q\" A""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nbreak \"q\" A");
        // serializing re-escapes
        assert_eq!(Json::String("a\"b\n".into()).to_string(), r#""a\"b\n""#);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ∀x\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo ∀x");
    }

    #[test]
    fn surrogate_pairs_decode_in_both_parsers() {
        let text = r#""\uD83D\uDE00 and \uD834\uDD1E""#; // 😀 and 𝄞
        let v = Json::parse(text).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀 and 𝄞");
        let mut arena = JsonArena::new();
        let doc = arena.parse(text).unwrap();
        assert_eq!(doc.as_str(), Some("😀 and 𝄞"));
        // lower-case hex digits are equally valid
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str().unwrap(),
            "😀"
        );
    }

    #[test]
    fn unpaired_surrogates_rejected_at_the_escape_offset() {
        // high surrogate with ordinary text after
        let err = Json::parse(r#""ab\uD83Dcd""#).unwrap_err();
        assert!(err.message.contains("unpaired high surrogate"), "{err}");
        assert_eq!(err.offset, 3, "points at the backslash: {err}");
        // lone low surrogate
        let err = Json::parse(r#""\uDE00""#).unwrap_err();
        assert!(err.message.contains("unpaired low surrogate"), "{err}");
        assert_eq!(err.offset, 1, "{err}");
        // high surrogate followed by a non-surrogate escape
        let err = Json::parse(r#""\uD83DA""#).unwrap_err();
        assert!(err.message.contains("unpaired high surrogate"), "{err}");
        // a sign is not a hex digit (`from_str_radix` alone would
        // accept "+12f")
        assert!(Json::parse(r#""\u+12f""#).is_err());
        // truncated escape at end of input
        assert!(Json::parse(r#""\uD8"#).is_err());
    }

    #[test]
    fn integer_variant_serializes_exactly_above_2_pow_53() {
        let v = (1u64 << 53) + 1;
        assert_eq!(Json::Integer(v).to_string(), "9007199254740993");
        assert_eq!(Json::Integer(u64::MAX).to_string(), "18446744073709551615");
        // the f64 path demonstrably rounds the same value
        assert_ne!(Json::Number(v as f64).to_string(), "9007199254740993");
        assert_eq!(Json::Integer(v).as_u64(), Some(v));
        assert_eq!(Json::Integer(7).as_usize(), Some(7));
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            "1.5.5",
            "\"open",
            "{\"a\" 1}",
            "[1] x",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn object_field_order_preserved() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":3,\"s\":\"x\",\"f\":1.5}").unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_usize(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::Number(42.0).to_string(), "42");
        assert_eq!(Json::Number(0.5).to_string(), "0.5");
    }

    #[test]
    fn write_into_appends_without_clearing() {
        let mut out = String::from("x=");
        Json::Number(7.0).write_into(&mut out);
        assert_eq!(out, "x=7");
    }

    #[test]
    fn arena_parses_nested_documents() {
        let mut arena = JsonArena::new();
        let doc = arena
            .parse(r#"{"algorithm":"mallows","scores":[0.9,0.5],"groups":[0,1],"deep":{"k":3},"flag":true,"nothing":null}"#)
            .unwrap();
        assert!(doc.is_object());
        assert_eq!(doc.get("algorithm").unwrap().as_str(), Some("mallows"));
        let scores: Vec<f64> = doc
            .get("scores")
            .unwrap()
            .as_array()
            .unwrap()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(scores, vec![0.9, 0.5]);
        assert_eq!(
            doc.get("deep").unwrap().get("k").unwrap().as_usize(),
            Some(3)
        );
        assert_eq!(doc.get("flag").unwrap().to_json(), Json::Bool(true));
        assert_eq!(doc.get("scores").unwrap().len(), 2);
        assert_eq!(doc.get("deep").unwrap().len(), 1);
        assert!(!doc.is_empty());
        assert_eq!(doc.get("flag").unwrap().len(), 0);
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.get("scores").unwrap().as_str(), None);
        assert!(doc.get("nothing").unwrap().as_f64().is_none());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("nesting too deep", MAX_DEPTH)
        );
        // far past the cap: a clean error, not a stack overflow
        let mut arena = JsonArena::new();
        let err = arena.parse(&"[".repeat(200_000)).err().unwrap();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("nesting too deep", MAX_DEPTH)
        );
    }

    #[test]
    fn arena_matches_tree_parser_on_rejects() {
        let mut arena = JsonArena::new();
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            "1.5.5",
            "\"open",
            "{\"a\" 1}",
            "[1] x",
        ] {
            assert!(arena.parse(text).is_err(), "{text:?} should fail");
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn arena_accessor_rules_match_tree_accessors() {
        let text = r#"{"n":3,"f":1.5,"neg":-1,"big":1e18,"s":"x"}"#;
        let tree = Json::parse(text).unwrap();
        let mut arena = JsonArena::new();
        let doc = arena.parse(text).unwrap();
        for key in ["n", "f", "neg", "big", "s"] {
            let t = tree.get(key).unwrap();
            let a = doc.get(key).unwrap();
            assert_eq!(t.as_f64(), a.as_f64(), "{key}");
            assert_eq!(t.as_usize(), a.as_usize(), "{key}");
            assert_eq!(t.as_u64(), a.as_u64(), "{key}");
            assert_eq!(t.as_str(), a.as_str(), "{key}");
        }
    }

    #[test]
    fn arena_reuse_keeps_working_across_documents() {
        let mut arena = JsonArena::new();
        {
            let doc = arena.parse(r#"{"a":[1,2,3]}"#).unwrap();
            assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        }
        // a later, differently-shaped document replaces the first
        let doc = arena.parse(r#"{"b":"text","c":{}}"#).unwrap();
        assert!(doc.get("a").is_none());
        assert_eq!(doc.get("b").unwrap().as_str(), Some("text"));
        assert!(doc.get("c").unwrap().is_object());
    }

    #[test]
    fn arena_string_escapes_unescape() {
        let mut arena = JsonArena::new();
        let doc = arena.parse(r#"{"s":"line\nbreak \"q\" A"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("line\nbreak \"q\" A"));
    }

    #[test]
    fn warm_arena_parse_does_not_grow_buffers() {
        let text =
            r#"{"algorithm":"mallows","scores":[0.9,0.8,0.7,0.6],"groups":[0,0,1,1],"seed":7}"#;
        let mut arena = JsonArena::new();
        arena.parse(text).unwrap();
        let (nodes_cap, text_cap) = (arena.nodes.capacity(), arena.text.capacity());
        for _ in 0..10 {
            arena.parse(text).unwrap();
        }
        assert_eq!(arena.nodes.capacity(), nodes_cap);
        assert_eq!(arena.text.capacity(), text_cap);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        /// Arbitrary `char` draws over the whole scalar range;
        /// surrogate code points (not `char`s) are remapped to an
        /// astral-plane char, which also boosts astral coverage.
        fn arbitrary_text() -> impl Strategy<Value = String> {
            prop::collection::vec(0u32..0x11_0000u32, 0..24).prop_map(|codes| {
                codes
                    .into_iter()
                    .map(|c| char::from_u32(c).unwrap_or('\u{1F600}'))
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn any_string_round_trips_through_both_parsers(s in arbitrary_text()) {
                let mut literal = String::new();
                write_string(&s, &mut literal);
                let parsed = Json::parse(&literal).unwrap();
                prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
                let mut arena = JsonArena::new();
                let doc = arena.parse(&literal).unwrap();
                prop_assert_eq!(doc.as_str(), Some(s.as_str()));
            }

            #[test]
            fn escaped_surrogate_pairs_equal_raw_astral_chars(code in 0x10000u32..0x11_0000u32) {
                let c = char::from_u32(code).expect("supplementary-plane scalar");
                let unit = code - 0x10000;
                let (hi, lo) = (0xD800 + (unit >> 10), 0xDC00 + (unit & 0x3FF));
                let escaped = format!("\"\\u{hi:04X}\\u{lo:04X}\"");
                let parsed = Json::parse(&escaped).unwrap();
                prop_assert_eq!(parsed.as_str(), Some(c.to_string().as_str()));
            }
        }
    }
}
