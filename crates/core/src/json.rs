//! A small writer for the JSON objects the workspace renders by hand.
//!
//! The service's responses, the batch and contingency reports and the
//! benchmark file are byte-stable contracts: field order is fixed and the
//! layout is `"key": value` separated by `", "`. [`JsonObject`] owns that
//! layout, string escaping (through `serde_json`), `null` for absent
//! values, and the verbatim splicing of pre-rendered fragments such as a
//! compact [`Schedule`](crate::Schedule) or a nested object.
//!
//! ```
//! use ftbar_core::json::JsonObject;
//!
//! let body = JsonObject::new()
//!     .str("status", "ok")
//!     .raw("ops", 9)
//!     .opt("rtc_met", None::<bool>)
//!     .finish();
//! assert_eq!(body, r#"{"status": "ok", "ops": 9, "rtc_met": null}"#);
//! ```

use std::fmt::{Display, Write as _};

/// A JSON object written member by member, in call order.
#[derive(Debug)]
pub struct JsonObject {
    out: String,
    /// Members written so far.
    len: usize,
    /// Written before every member but the first.
    sep: &'static str,
    /// Written by [`JsonObject::finish`].
    close: &'static str,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// A compact object on one line: `{"a": 1, "b": 2}`.
    pub fn new() -> Self {
        JsonObject {
            out: String::from("{"),
            len: 0,
            sep: ", ",
            close: "}",
        }
    }

    /// A document object with one member per line, indented by two
    /// spaces, and a newline after the closing brace (the layout of the
    /// batch, contingency and benchmark reports).
    pub fn multiline() -> Self {
        JsonObject {
            out: String::from("{\n  "),
            len: 0,
            sep: ",\n  ",
            close: "\n}\n",
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.len > 0 {
            self.out.push_str(self.sep);
        }
        self.len += 1;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
        &mut self.out
    }

    /// Writes `value` verbatim: a number, a boolean, or a pre-rendered
    /// JSON fragment.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes `value` as a quoted, escaped JSON string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let quoted = quote(value);
        self.key(key).push_str(&quoted);
        self
    }

    /// Writes `value` verbatim, or `null` when it is `None`.
    pub fn opt(&mut self, key: &str, value: Option<impl Display>) -> &mut Self {
        match value {
            Some(v) => self.raw(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Writes `items` verbatim as a one-line array: `[a, b]`.
    pub fn array<T: Display>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{item}");
        }
        out.push(']');
        self
    }

    /// Writes `items` as quoted, escaped strings in a one-line array.
    pub fn str_array(&mut self, key: &str, items: &[String]) -> &mut Self {
        self.array(key, items.iter().map(|s| quote(s)))
    }

    /// Writes `items` verbatim as an array with one item per line, for a
    /// [`JsonObject::multiline`] document.
    pub fn rows<T: Display>(&mut self, key: &str, items: impl IntoIterator<Item = T>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(out, "{item}");
        }
        out.push_str("\n  ]");
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(&mut self) -> String {
        self.out.push_str(self.close);
        std::mem::take(&mut self.out)
    }

    /// Closes the object with the members of `object`, a compact object
    /// rendered by this writer, after the members written so far.
    pub fn finish_with(&mut self, object: &str) -> String {
        let members = object.strip_prefix('{').expect("a rendered object");
        self.out.reserve(self.sep.len() + members.len());
        if self.len > 0 && members != "}" {
            self.out.push_str(self.sep);
        }
        self.out.push_str(members);
        std::mem::take(&mut self.out)
    }
}

/// A quoted, escaped JSON string; `serde_json` owns the escaping rules.
fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_objects_escape_and_nest() {
        let inner = JsonObject::new().raw("a", 1).finish();
        let out = JsonObject::new()
            .str("name", "q\"x\\")
            .opt("none", None::<u32>)
            .opt("some", Some(2.5))
            .raw("inner", &inner)
            .array("xs", [1, 2, 3])
            .str_array("names", &["a".into(), "\n".into()])
            .array("empty", Vec::<u32>::new())
            .finish();
        assert_eq!(
            out,
            r#"{"name": "q\"x\\", "none": null, "some": 2.5, "inner": {"a": 1}, "xs": [1, 2, 3], "names": ["a", "\n"], "empty": []}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn multiline_documents_put_rows_on_their_own_lines() {
        let out = JsonObject::multiline()
            .raw("schema", 1)
            .rows("rows", ["{\"a\": 1}", "{\"a\": 2}"])
            .rows("none", Vec::<&str>::new())
            .finish();
        assert_eq!(
            out,
            "{\n  \"schema\": 1,\n  \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn finish_with_prepends_members() {
        let body = JsonObject::new().str("status", "ok").finish();
        assert_eq!(
            JsonObject::new().str("id", "r1").finish_with(&body),
            r#"{"id": "r1", "status": "ok"}"#
        );
        assert_eq!(JsonObject::new().finish_with(&body), body);
        assert_eq!(
            JsonObject::new().raw("a", 1).finish_with("{}"),
            r#"{"a": 1}"#
        );
    }
}
