//! Just enough JSON writing for the result line, the config snapshot
//! and the trace file (the benchmark depends on no outside crates).

use std::fmt::Write;

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// `v` as a JSON number with all its digits; non-finite values, which
/// JSON cannot hold, become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An object written field by field, in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add a field whose value is already JSON.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, string(v))
    }

    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, number(v))
    }

    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, v.to_string())
    }

    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    pub fn finish(self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&string(k));
            out.push_str(": ");
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// A JSON array of already-written values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_numbers() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        let o = Obj::new()
            .int("n", 2)
            .bool("ok", true)
            .str("s", "x")
            .finish();
        assert_eq!(o, r#"{"n": 2, "ok": true, "s": "x"}"#);
    }
}
