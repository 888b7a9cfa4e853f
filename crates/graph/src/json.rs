//! Minimal JSON support for the edge-list interchange format.
//!
//! The CLI pipes graphs between processes as JSON. With the workspace
//! building fully offline (no serde), this module provides the two things
//! actually needed: a small recursive-descent parser into [`JsonValue`],
//! and emit/parse for [`EdgeListGraph`] in the exact format the previous
//! serde derive produced:
//!
//! ```json
//! {"ops":["Input","Add",{"Custom":42}],"edges":[[0,2],[1,2]]}
//! ```
//!
//! Graphs are read straight from the bytes ([`EdgeListGraph::from_json`],
//! and [`parse_request`] for the service's request bodies): op names are
//! matched in place and plain integer endpoints decoded without a
//! [`JsonValue`] per edge. The typed and generic readers share one
//! grammar, so both report the same syntax errors at the same offsets,
//! and both refuse nesting deeper than [`MAX_DEPTH`].

use crate::dag::EdgeListGraph;
use crate::ops::OpKind;
use std::borrow::Cow;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// This number as a `u32`, if it is one exactly.
    pub fn as_u32(&self) -> Option<u32> {
        let x = self.as_f64()?;
        (x >= 0.0 && x <= u32::MAX as f64 && x.fract() == 0.0).then_some(x as u32)
    }

    /// This number as a `u64`, if it is a non-negative integer exactly
    /// representable in an `f64` (≤ 2⁵³ — the largest integers JSON can
    /// carry without loss).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        (x >= 0.0 && x <= (1u64 << 53) as f64 && x.fract() == 0.0).then_some(x as u64)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse or schema error, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where parsing failed (0 for schema errors).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects any reader accepts. A graph
/// request is four levels deep; the cap keeps recursion on a hostile
/// body far inside a worker thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
/// Returns [`JsonError`] on malformed input, nesting deeper than
/// [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::new(input);
    let value = p.value()?;
    p.finish()?;
    Ok(value)
}

/// A schema-level result: `Err` holds the error
/// [`EdgeListGraph::from_json_value`] gives for the same value. The typed
/// readers keep reading past it, so a later syntax error still wins.
pub type Schema<T> = Result<T, JsonError>;

/// A request document as [`parse_request`] reads it: the graph members
/// decoded straight from the bytes, and every other member as a
/// [`JsonValue`].
#[derive(Debug)]
pub struct RequestDoc<'a> {
    /// The members other than `"graph"`, `"graphs"`, `"ops"` and
    /// `"edges"`, as an object in source order — or the whole document
    /// when it is not an object.
    pub rest: JsonValue,
    /// The first `"graph"` member, read as an edge list.
    pub graph: Option<Schema<EdgeListGraph>>,
    /// The document itself read as a bare edge list (its own first
    /// `"ops"` and `"edges"` members).
    pub bare: Schema<EdgeListGraph>,
    /// The elements of the first `"graphs"` member, when it is an array.
    pub graphs: Option<Vec<BatchEntry<'a>>>,
}

/// One element of a `"graphs"` array: its source text and the element
/// read as a request document (a fingerprint string lands in `rest`).
#[derive(Debug)]
pub struct BatchEntry<'a> {
    /// The element's bytes as they appear in the input.
    pub raw: &'a str,
    /// The element, read like a top-level document.
    pub doc: RequestDoc<'a>,
}

impl RequestDoc<'_> {
    /// The graph the document carries: its `"graph"` member when it has
    /// one, else the document itself as a bare edge list.
    ///
    /// # Errors
    /// The schema error of whichever of the two is used.
    pub fn into_edge_list(self) -> Schema<EdgeListGraph> {
        self.graph.unwrap_or(self.bare)
    }
}

/// Reads a request body in one pass: the `"graph"`, `"ops"`, `"edges"`
/// and `"graphs"` members are decoded as typed edge lists without
/// building a [`JsonValue`] tree, the rest as [`JsonValue`]s. Syntax
/// errors are the ones [`parse`] reports for the same input, at the same
/// offsets; schema errors are deferred into the [`Schema`] fields.
///
/// # Errors
/// Returns [`JsonError`] on malformed input, nesting deeper than
/// [`MAX_DEPTH`], or trailing garbage.
pub fn parse_request(input: &str) -> Result<RequestDoc<'_>, JsonError> {
    let mut p = Parser::new(input);
    let doc = p.request()?;
    p.finish()?;
    Ok(doc)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut entries = Vec::new();
                self.object(|p, key| {
                    entries.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Object(entries))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.key()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// One level deeper, refused at the bracket past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Reads an object, handing each member's key to `member` with the
    /// position at the member's value. Every reader, generic or typed,
    /// walks objects through here, so all report the same syntax errors.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.key()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads an array, calling `item` with the position at each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A string, borrowed from the input unless it has escapes.
    fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let open = self.pos;
        self.expect(b'"')?;
        let rest = &self.bytes[self.pos..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(len) if rest[len] == b'"' => {
                let s = &self.text[self.pos..self.pos + len];
                self.pos += len + 1;
                Ok(Cow::Borrowed(s))
            }
            _ => {
                self.pos = open;
                self.string().map(Cow::Owned)
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for this format.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a valid &str).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(
                        std::str::from_utf8(&rest[..len])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err("invalid number"))
    }

    /// Any value, read as [`JsonValue::as_u32`] reads it. A plain digit
    /// run is decoded in place; every other number goes through
    /// [`Parser::number`], so `1.0`, `1e0` and `-0` read as they always
    /// have.
    fn u32_value(&mut self) -> Result<Option<u32>, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.value()?;
            return Ok(None);
        }
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.saturating_mul(10).saturating_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return Ok(u32::try_from(n).ok());
        }
        self.pos = start;
        Ok(self.number()?.as_u32())
    }

    /// `[u,v]` written as `to_json` writes it (no whitespace, both
    /// endpoints plain digit runs within `u32`), decoded in one scan; any
    /// other spelling returns `None` with the position unmoved, for the
    /// general walk to read.
    fn plain_pair(&mut self) -> Option<(u32, u32)> {
        fn digits(bytes: &[u8], i: &mut usize) -> Option<u32> {
            let start = *i;
            let mut n: u32 = 0;
            while let Some(&d @ b'0'..=b'9') = bytes.get(*i) {
                n = n.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
                *i += 1;
            }
            (*i > start).then_some(n)
        }
        if self.depth == MAX_DEPTH || self.peek() != Some(b'[') {
            return None;
        }
        let mut i = self.pos + 1;
        let u = digits(self.bytes, &mut i)?;
        if self.bytes.get(i) != Some(&b',') {
            return None;
        }
        i += 1;
        let v = digits(self.bytes, &mut i)?;
        if self.bytes.get(i) != Some(&b']') {
            return None;
        }
        self.pos = i + 1;
        Some((u, v))
    }

    /// A top-level document or batch element (see [`RequestDoc`]).
    fn request(&mut self) -> Result<RequestDoc<'a>, JsonError> {
        if self.peek() != Some(b'{') {
            return Ok(RequestDoc {
                rest: self.value()?,
                graph: None,
                bare: Err(schema_err(MISSING_OPS)),
                graphs: None,
            });
        }
        let mut rest = Vec::new();
        let mut graph = None;
        let (mut ops, mut edges) = (None, None);
        // `Some(None)`: the first "graphs" member was not an array.
        let mut graphs: Option<Option<Vec<BatchEntry<'a>>>> = None;
        self.object(|p, key| {
            match &*key {
                "graph" if graph.is_none() => graph = Some(p.edge_list()?),
                "ops" if ops.is_none() => ops = Some(p.ops()?),
                "edges" if edges.is_none() => edges = Some(p.edges()?),
                "graphs" if graphs.is_none() => graphs = Some(p.batch_entries()?),
                "graph" | "ops" | "edges" | "graphs" => {
                    p.value()?;
                }
                _ => rest.push((key.into_owned(), p.value()?)),
            }
            Ok(())
        })?;
        Ok(RequestDoc {
            rest: JsonValue::Object(rest),
            graph,
            bare: edge_list(ops, edges),
            graphs: graphs.flatten(),
        })
    }

    fn batch_entries(&mut self) -> Result<Option<Vec<BatchEntry<'a>>>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(None);
        }
        let mut entries = Vec::new();
        self.array(|p| {
            let start = p.pos;
            let doc = p.request()?;
            entries.push(BatchEntry {
                raw: &p.text[start..p.pos],
                doc,
            });
            Ok(())
        })?;
        Ok(Some(entries))
    }

    /// Any value, read as an edge-list document.
    fn edge_list(&mut self) -> Result<Schema<EdgeListGraph>, JsonError> {
        if self.peek() != Some(b'{') {
            self.value()?;
            return Ok(Err(schema_err(MISSING_OPS)));
        }
        let (mut ops, mut edges) = (None, None);
        self.object(|p, key| {
            match &*key {
                "ops" if ops.is_none() => ops = Some(p.ops()?),
                "edges" if edges.is_none() => edges = Some(p.edges()?),
                _ => {
                    p.value()?;
                }
            }
            Ok(())
        })?;
        Ok(edge_list(ops, edges))
    }

    fn ops(&mut self) -> Result<Schema<Vec<OpKind>>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(Err(schema_err(MISSING_OPS)));
        }
        let mut ops = Vec::new();
        let mut first_err = None;
        self.array(|p| {
            match p.op()? {
                Ok(op) => ops.push(op),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
            Ok(())
        })?;
        Ok(first_err.map_or(Ok(ops), Err))
    }

    fn op(&mut self) -> Result<Schema<OpKind>, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(OpKind::from_name(&self.key()?)),
            Some(b'{') => {
                // `Some(None)`: the first "Custom" member is not a u32.
                let mut tag = None;
                self.object(|p, key| {
                    if key == "Custom" && tag.is_none() {
                        tag = Some(p.u32_value()?);
                    } else {
                        p.value()?;
                    }
                    Ok(())
                })?;
                Ok(tag.flatten().map(OpKind::Custom).ok_or_else(bad_op))
            }
            _ => {
                self.value()?;
                Ok(Err(bad_op()))
            }
        }
    }

    fn edges(&mut self) -> Result<Schema<Vec<(u32, u32)>>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(Err(schema_err(MISSING_EDGES)));
        }
        let mut edges = Vec::new();
        let mut first_err = None;
        self.array(|p| {
            if let Some(edge) = p.plain_pair() {
                edges.push(edge);
                return Ok(());
            }
            match p.edge()? {
                Ok(edge) => edges.push(edge),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
            Ok(())
        })?;
        Ok(first_err.map_or(Ok(edges), Err))
    }

    fn edge(&mut self) -> Result<Schema<(u32, u32)>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(Err(schema_err(BAD_PAIR)));
        }
        let mut ends = [None; 2];
        let mut count = 0;
        self.array(|p| {
            match ends.get_mut(count) {
                Some(end) => *end = p.u32_value()?,
                None => {
                    p.value()?;
                }
            }
            count += 1;
            Ok(())
        })?;
        Ok(match (count, ends) {
            (2, [Some(u), Some(v)]) => Ok((u, v)),
            (2, _) => Err(schema_err(BAD_ENDPOINT)),
            _ => Err(schema_err(BAD_PAIR)),
        })
    }
}

const MISSING_OPS: &str = "missing \"ops\" array";
const MISSING_EDGES: &str = "missing \"edges\" array";
const BAD_OP: &str = "op must be a variant name or {\"Custom\":tag}";
const BAD_PAIR: &str = "edge must be a [from, to] pair";
const BAD_ENDPOINT: &str = "edge endpoint must be a u32";

fn schema_err(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        offset: 0,
    }
}

fn bad_op() -> JsonError {
    schema_err(BAD_OP)
}

/// The edge list from its two typed sections; `ops` is checked first,
/// whichever came first in the input.
fn edge_list(
    ops: Option<Schema<Vec<OpKind>>>,
    edges: Option<Schema<Vec<(u32, u32)>>>,
) -> Schema<EdgeListGraph> {
    let ops = ops.unwrap_or_else(|| Err(schema_err(MISSING_OPS)))?;
    let edges = edges.unwrap_or_else(|| Err(schema_err(MISSING_EDGES)))?;
    Ok(EdgeListGraph { ops, edges })
}

impl OpKind {
    /// This operation as a [`JsonValue`] (unit variants as strings,
    /// `Custom(tag)` as `{"Custom":tag}`).
    pub fn to_json(&self) -> JsonValue {
        match self {
            OpKind::Custom(tag) => {
                JsonValue::Object(vec![("Custom".to_string(), JsonValue::Number(*tag as f64))])
            }
            other => JsonValue::String(format!("{other:?}")),
        }
    }

    /// Parses the representation produced by [`OpKind::to_json`].
    ///
    /// # Errors
    /// Returns [`JsonError`] on an unknown variant or malformed payload.
    pub fn from_json(value: &JsonValue) -> Result<OpKind, JsonError> {
        if let Some(name) = value.as_str() {
            return OpKind::from_name(name);
        }
        value
            .get("Custom")
            .and_then(JsonValue::as_u32)
            .map(OpKind::Custom)
            .ok_or_else(bad_op)
    }

    fn from_name(name: &str) -> Result<OpKind, JsonError> {
        match name {
            "Input" => Ok(OpKind::Input),
            "Add" => Ok(OpKind::Add),
            "Sub" => Ok(OpKind::Sub),
            "Mul" => Ok(OpKind::Mul),
            "Div" => Ok(OpKind::Div),
            "Sum" => Ok(OpKind::Sum),
            "Butterfly" => Ok(OpKind::Butterfly),
            "BhkUpdate" => Ok(OpKind::BhkUpdate),
            other => Err(schema_err(format!("unknown op kind: {other}"))),
        }
    }
}

impl EdgeListGraph {
    /// Serializes to the canonical one-line JSON interchange form.
    pub fn to_json(&self) -> String {
        JsonValue::Object(vec![
            (
                "ops".to_string(),
                JsonValue::Array(self.ops.iter().map(|op| op.to_json()).collect()),
            ),
            (
                "edges".to_string(),
                JsonValue::Array(
                    self.edges
                        .iter()
                        .map(|&(u, v)| {
                            JsonValue::Array(vec![
                                JsonValue::Number(u as f64),
                                JsonValue::Number(v as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parses the form produced by [`EdgeListGraph::to_json`], straight
    /// from the bytes: the same result as [`parse`] followed by
    /// [`EdgeListGraph::from_json_value`], without the [`JsonValue`] tree.
    ///
    /// # Errors
    /// Returns [`JsonError`] on malformed JSON or a schema mismatch.
    pub fn from_json(input: &str) -> Result<EdgeListGraph, JsonError> {
        let mut p = Parser::new(input);
        let el = p.edge_list()?;
        p.finish()?;
        el
    }

    /// Reads an already-parsed [`JsonValue`] in the same schema. The
    /// reference the byte readers ([`EdgeListGraph::from_json`],
    /// [`parse_request`]) are tested against.
    ///
    /// # Errors
    /// Returns [`JsonError`] on a schema mismatch.
    pub fn from_json_value(doc: &JsonValue) -> Result<EdgeListGraph, JsonError> {
        let ops = doc
            .get("ops")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| schema_err(MISSING_OPS))?
            .iter()
            .map(OpKind::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let edges = doc
            .get("edges")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| schema_err(MISSING_EDGES))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| schema_err(BAD_PAIR))?;
                let u = pair[0].as_u32().ok_or_else(|| schema_err(BAD_ENDPOINT))?;
                let v = pair[1].as_u32().ok_or_else(|| schema_err(BAD_ENDPOINT))?;
                Ok((u, v))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(EdgeListGraph { ops, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), JsonValue::Number(-250.0));
        assert_eq!(
            parse(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".to_string())
        );
        let doc = parse(r#"{"a":[1,2,{"b":[]}],"c":{}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("c").unwrap(), &JsonValue::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{not json",
            "[1,2",
            "{\"a\":}",
            "12 34",
            "",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let doc = parse(r#"{"ops":["Input",{"Custom":7}],"edges":[[0,1]],"x":"q\"uote"}"#).unwrap();
        let reparsed = parse(&doc.to_string()).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn op_kind_roundtrips() {
        for op in [
            OpKind::Input,
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Sum,
            OpKind::Butterfly,
            OpKind::BhkUpdate,
            OpKind::Custom(42),
        ] {
            let back = OpKind::from_json(&op.to_json()).unwrap();
            assert_eq!(op, back);
        }
        assert!(OpKind::from_json(&JsonValue::String("Nope".into())).is_err());
    }

    #[test]
    fn edge_list_roundtrips() {
        let el = EdgeListGraph {
            ops: vec![OpKind::Input, OpKind::Input, OpKind::Custom(3)],
            edges: vec![(0, 2), (1, 2)],
        };
        let json = el.to_json();
        assert_eq!(
            json,
            r#"{"ops":["Input","Input",{"Custom":3}],"edges":[[0,2],[1,2]]}"#
        );
        assert_eq!(EdgeListGraph::from_json(&json).unwrap(), el);
    }

    #[test]
    fn edge_list_schema_errors_are_clear() {
        assert!(EdgeListGraph::from_json(r#"{"edges":[]}"#).is_err());
        assert!(EdgeListGraph::from_json(r#"{"ops":[],"edges":[[0]]}"#).is_err());
        assert!(EdgeListGraph::from_json(r#"{"ops":[],"edges":[[0,-1]]}"#).is_err());
    }
}
