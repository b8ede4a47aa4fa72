//! The one JSON writer: every `--metrics-out` dump and the host block of
//! every bench table is built as a [`Json`] value and rendered here (the
//! vendored serde shim has no serializer).
//!
//! Strings are escaped per RFC 8259, floats carry a fixed number of
//! decimals, and a non-finite float is written as `null` so the document
//! stays valid.  A container goes one member per line when it holds
//! another non-empty container or more than eight members, and stays on
//! one line otherwise.

use std::fmt::Write as _;

/// Most members a container may have and still render on one line.
const INLINE_MEMBERS: usize = 8;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// An integer, written exactly.
    Int(i128),
    /// A float with this many decimals; `null` when not finite.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in the given order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.into(), value))
                .collect(),
        )
    }

    /// The document as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn is_nested(&self) -> bool {
        match self {
            Json::Array(items) => !items.is_empty(),
            Json::Object(members) => !members.is_empty(),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Int(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Fixed(value, decimals) if value.is_finite() => {
                let _ = write!(out, "{value:.decimals$}");
            }
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(text) => write_str(out, text),
            Json::Array(items) => write_members(
                out,
                depth,
                ['[', ']'],
                items.iter().map(|item| (None, item)),
            ),
            Json::Object(members) => write_members(
                out,
                depth,
                ['{', '}'],
                members
                    .iter()
                    .map(|(key, value)| (Some(key.as_str()), value)),
            ),
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let broken =
        members.len() > INLINE_MEMBERS || members.clone().any(|(_, value)| value.is_nested());
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    out.push(open);
    let empty = members.len() == 0;
    for (index, (key, value)) in members.enumerate() {
        if index > 0 {
            out.push(',');
            if !broken {
                out.push(' ');
            }
        }
        if broken {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if broken && !empty {
        newline(out, depth);
    }
    out.push(close);
}

fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_int {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(value: $int) -> Json {
                Json::Int(value as i128)
            }
        }
    )*};
}

from_int!(u32, u64, i64, usize);

impl From<&str> for Json {
    fn from(text: &str) -> Json {
        Json::Str(text.to_string())
    }
}

impl From<String> for Json {
    fn from(text: String) -> Json {
        Json::Str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_non_finite_floats_are_null() {
        let doc = Json::object([
            ("a\"b\\c\nd\u{1}e", Json::from("\t\r")),
            ("inf", Json::Fixed(f64::INFINITY, 2)),
            ("nan", Json::Fixed(f64::NAN, 1)),
            ("pi", Json::Fixed(std::f64::consts::PI, 2)),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"a\"b\\c\nd\u0001e": "\t\r", "inf": null, "nan": null, "pi": 3.14}"#
        );
    }

    #[test]
    fn integers_and_null_render_exactly() {
        let doc = Json::Array(vec![
            Json::from(u64::MAX),
            Json::from(i64::MIN),
            Json::from(0usize),
            Json::Null,
        ]);
        assert_eq!(
            doc.render(),
            format!("[{}, {}, 0, null]", u64::MAX, i64::MIN)
        );
    }

    #[test]
    fn containers_break_only_around_nested_or_long_contents() {
        let flat = Json::object([("x", Json::from(1u32)), ("y", Json::Array(Vec::new()))]);
        assert_eq!(flat.render(), r#"{"x": 1, "y": []}"#);
        let nested = Json::object([("flat", flat.clone()), ("empty", Json::object::<&str>([]))]);
        assert_eq!(
            nested.render(),
            "{\n  \"flat\": {\"x\": 1, \"y\": []},\n  \"empty\": {}\n}"
        );
        let long = Json::Array((0..=INLINE_MEMBERS as u32).map(Json::from).collect());
        assert_eq!(long.render().lines().count(), INLINE_MEMBERS + 3);
    }
}
