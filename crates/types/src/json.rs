//! A minimal JSON writer.
//!
//! The workspace depends on no crates.io package, so the observability
//! layer cannot use serde. Every machine-readable
//! artifact the workspace emits — `Stats::to_json`, Perfetto traces,
//! time-series dumps, `--metrics-json` reports — is produced through this
//! writer instead. It handles the only hard parts of JSON by hand:
//! string escaping and comma placement, the latter via an explicit
//! container stack so callers never emit a trailing or missing comma.

use std::fmt::Write as _;

/// Streaming JSON writer with automatic comma management.
///
/// Usage: open containers with [`begin_obj`](Self::begin_obj) /
/// [`begin_arr`](Self::begin_arr), emit members with the `kv_*` / `*_val`
/// methods, close with `end_*`, and take the string with
/// [`finish`](Self::finish). Commas are inserted automatically between
/// siblings; a value directly after [`key`](Self::key) attaches to that
/// key.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has a member, so the
    /// next member knows to lead with a comma.
    stack: Vec<bool>,
    /// Set between a `key()` and its value so the value does not emit a
    /// sibling separator of its own.
    after_key: bool,
}

impl JsonWriter {
    /// Fresh writer with nothing emitted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit the separator a new sibling needs, if any.
    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_members) = self.stack.last_mut() {
            if *has_members {
                self.out.push(',');
            }
            *has_members = true;
        }
    }

    /// Open an object (`{`).
    pub fn begin_obj(&mut self) {
        self.sep();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Open an array (`[`).
    pub fn begin_arr(&mut self) {
        self.sep();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Close the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// Emit an object key; the next emitted value becomes its value.
    pub fn key(&mut self, k: &str) {
        self.sep();
        self.push_escaped(k);
        self.out.push(':');
        self.after_key = true;
    }

    /// Emit a string value.
    pub fn str_val(&mut self, s: &str) {
        self.sep();
        self.push_escaped(s);
    }

    /// Emit an unsigned integer value.
    pub fn u64_val(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    /// Emit a float value (`null` if not finite, which JSON cannot carry).
    pub fn f64_val(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Emit a boolean value.
    pub fn bool_val(&mut self, v: bool) {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emit pre-rendered JSON verbatim (caller guarantees validity).
    pub fn raw_val(&mut self, json: &str) {
        self.sep();
        self.out.push_str(json);
    }

    /// `"k": v` with an integer value.
    pub fn kv_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64_val(v);
    }

    /// `"k": v` with a float value.
    pub fn kv_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64_val(v);
    }

    /// `"k": "v"` with a string value.
    pub fn kv_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str_val(v);
    }

    /// `"k": v` with a boolean value.
    pub fn kv_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool_val(v);
    }

    /// Finish and return the rendered JSON.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure_with_commas() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("name", "x");
        w.key("inner");
        w.begin_obj();
        w.kv_u64("a", 1);
        w.kv_u64("b", 2);
        w.end_obj();
        w.key("list");
        w.begin_arr();
        w.u64_val(1);
        w.u64_val(2);
        w.begin_obj();
        w.end_obj();
        w.end_arr();
        w.end_obj();
        assert_eq!(
            w.finish(),
            r#"{"name":"x","inner":{"a":1,"b":2},"list":[1,2,{}]}"#
        );
    }

    #[test]
    fn escapes_specials() {
        let mut w = JsonWriter::new();
        w.str_val("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.f64_val(1.5);
        w.f64_val(f64::NAN);
        w.f64_val(f64::INFINITY);
        w.end_arr();
        assert_eq!(w.finish(), "[1.5,null,null]");
    }
}
