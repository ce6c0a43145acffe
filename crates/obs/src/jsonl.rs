//! JSON-lines record builder.
//!
//! Telemetry records are flat-ish JSON objects, one per line, appended to a
//! file or stream. Serialization is hand-rolled, and it also writes
//! `Table::to_json` in `bvf-sim` and the trace export's args: field order
//! is exactly insertion order, strings are escaped per RFC 8259, and
//! non-finite floats become `null` — so a record's text is a deterministic
//! function of the values pushed into it, which is what lets tests diff
//! two telemetry streams byte-wise after scrubbing the timing fields.

/// Escape a string for embedding in a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for one JSON object. [`Record::new`] seeds a telemetry record
/// with its `"record"` kind tag; [`Record::object`] starts an empty object
/// for nesting via [`Record::raw`].
#[derive(Debug, Clone)]
pub struct Record {
    buf: String,
    empty: bool,
}

impl Record {
    /// Start a telemetry record: `{"record":"<kind>", …`.
    pub fn new(kind: &str) -> Self {
        Self::object().str("record", kind)
    }

    /// Start an empty object (for nested values).
    pub fn object() -> Self {
        Self {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(mut self, k: &str) -> Self {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        self
    }

    /// Append a string field.
    pub fn str(self, k: &str, v: &str) -> Self {
        let mut r = self.key(k);
        r.buf.push('"');
        r.buf.push_str(&escape(v));
        r.buf.push('"');
        r
    }

    /// Append an unsigned integer field.
    pub fn u64(self, k: &str, v: u64) -> Self {
        let mut r = self.key(k);
        r.buf.push_str(&v.to_string());
        r
    }

    /// Append a float field (`null` if not finite, per JSON's grammar).
    pub fn f64(self, k: &str, v: f64) -> Self {
        let mut r = self.key(k);
        if v.is_finite() {
            r.buf.push_str(&format!("{v}"));
        } else {
            r.buf.push_str("null");
        }
        r
    }

    /// Append a boolean field.
    pub fn bool(self, k: &str, v: bool) -> Self {
        let mut r = self.key(k);
        r.buf.push_str(if v { "true" } else { "false" });
        r
    }

    /// Append a pre-serialized JSON value verbatim (a nested
    /// [`Record::finish`], an array, …). The caller vouches it is valid
    /// JSON.
    pub fn raw(self, k: &str, json: &str) -> Self {
        let mut r = self.key(k);
        r.buf.push_str(json);
        r
    }

    /// Close the object and return it as one line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn record_shape_and_order() {
        let line = Record::new("app")
            .str("app", "VAD")
            .u64("instructions", 1234)
            .f64("rate", 0.5)
            .bool("ok", true)
            .finish();
        assert_eq!(
            line,
            r#"{"record":"app","app":"VAD","instructions":1234,"rate":0.5,"ok":true}"#
        );
    }

    #[test]
    fn nested_objects_via_raw() {
        let inner = Record::object().u64("wall_ns", 42).finish();
        let line = Record::new("campaign").raw("timing", &inner).finish();
        assert_eq!(line, r#"{"record":"campaign","timing":{"wall_ns":42}}"#);
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let line = Record::new("t")
            .str("s", "a\"b\\c\nd\te\u{1}")
            .f64("nan", f64::NAN)
            .finish();
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("s").and_then(json::Value::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
        assert!(matches!(v.get("nan"), Some(json::Value::Null)));
    }

    #[test]
    fn empty_object() {
        assert_eq!(Record::object().finish(), "{}");
    }
}
