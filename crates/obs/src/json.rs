//! The workspace's JSON reader and writer.
//!
//! The build environment is fully offline (no serde), so every document
//! the workspace reads or writes goes through this module: traces and
//! engine configs, lint and MHP reports, serve and eo-server requests and
//! replies, metrics and Chrome-trace exports, and the committed bench
//! baselines. Objects preserve member order. Integer text parses to an
//! exact [`Value::Int`] over the full `i64` range; any other number is a
//! [`Value::Num`], which the writer prints as an integer whenever it is
//! exactly one, so integer metrics round-trip textually. The writer emits
//! compact text ([`Value::to_json`]) or serde_json's two-space pretty
//! format ([`Value::pretty`]), the on-disk trace format. [`Members`]
//! writes the same compact text member by member, without building a
//! `Value` first.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as an integer that fits `i64`; exact.
    Int(i64),
    /// Any other number; integers are exact up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a number with no fractional part.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes the value with two-space indentation (serde_json's
    /// pretty format: empty arrays and objects stay `[]` and `{}`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `depth` is the indentation level when pretty-printing, `None` for
    /// compact output.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, inner);
                    item.write(out, inner);
                }
                close(out, items.is_empty(), depth);
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    separate(out, i, inner);
                    write_str(k, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                close(out, fields.is_empty(), depth);
                out.push('}');
            }
        }
    }
}

/// Compact JSON object text written member by member at the end of a
/// caller's `String`, with no [`Value`] tree and no owned keys in
/// between: the serving layer writes its replies this way. Keys and
/// values print exactly as [`Value::to_json`] prints them, so a document
/// written here is byte-identical to the `Value::Obj` it stands for.
/// [`Members::close`] ends the object.
pub struct Members<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Members<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Members<'a> {
        out.push('{');
        Members { out, empty: true }
    }

    /// Writes the separator and `"key":`; the caller writes the value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(key, self.out);
        self.out.push(':');
        self.out
    }

    /// A `true`/`false` member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// An integer member.
    pub fn int(&mut self, key: &str, value: i64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A string member, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_str(value, self.key(key));
        self
    }

    /// A member holding any value, in compact form.
    pub fn value(&mut self, key: &str, value: &Value) -> &mut Self {
        value.write(self.key(key), None);
        self
    }

    /// Opens a nested object member; close it before the next member.
    pub fn object(&mut self, key: &str) -> Members<'_> {
        Members::open(self.key(key))
    }

    /// Opens an array member; close it before the next member.
    pub fn array(&mut self, key: &str) -> Elements<'_> {
        self.key(key).push('[');
        Elements {
            out: &mut *self.out,
            empty: true,
        }
    }

    /// Ends the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// The elements of an array opened by [`Members::array`].
pub struct Elements<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Elements<'_> {
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out
    }

    /// An integer element.
    pub fn int(&mut self, value: i64) -> &mut Self {
        let _ = write!(self.next(), "{value}");
        self
    }

    /// A string element, escaped.
    pub fn str(&mut self, value: &str) -> &mut Self {
        write_str(value, self.next());
        self
    }

    /// Opens an object element; close it before the next element.
    pub fn object(&mut self) -> Members<'_> {
        Members::open(self.next())
    }

    /// Ends the array.
    pub fn close(self) {
        self.out.push(']');
    }
}

/// Starts the `i`th element of a container: a comma after the first, and
/// a new line at the element's indentation when pretty-printing.
fn separate(out: &mut String, i: usize, depth: Option<usize>) {
    if i > 0 {
        out.push(',');
    }
    if let Some(d) = depth {
        newline(out, d);
    }
}

/// Puts the closing bracket of a non-empty pretty container on its own line.
fn close(out: &mut String, empty: bool, depth: Option<usize>) {
    if let (false, Some(d)) = (empty, depth) {
        newline(out, d);
    }
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a number, preferring exact integer form.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; degrade to null rather than emit invalid text.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 prints the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

/// Writes a JSON string literal with escaping.
fn write_str(s: &str, out: &mut String) {
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

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Short description of what was expected.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so the limit bounds its stack use on
/// hostile input; the deepest committed document (a trace) nests 5
/// levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing whitespace is allowed.
/// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error at
/// the first bracket past the limit.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            // Keep the literal in step with MAX_DEPTH (a test pins it).
            return Err(self.err("arrays and objects nested deeper than 128 levels"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. Both
            // delimiters are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            // `hex4` already consumed the escape.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the digits of a `\u` escape (and the low half of a
    /// surrogate pair).
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let cp = self.hex4()?;
        if !(0xD800..0xDC00).contains(&cp) {
            return char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"));
        }
        // High surrogate: require a \uXXXX low surrogate.
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(self.err("lone high surrogate"));
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(self.err("invalid low surrogate"));
        }
        let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits")),
            };
            cp = (cp << 4) | d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let integral = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        // Integers outside the i64 range fall back to the nearest f64.
        match text.parse::<i64>() {
            Ok(n) if integral => Ok(Value::Int(n)),
            _ => text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
                offset: start,
                message: "invalid number",
            }),
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}
