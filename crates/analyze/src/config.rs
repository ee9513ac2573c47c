//! `lint.toml` — the committed lint configuration.
//!
//! The build environment is offline (no `toml` crate), so this is a
//! minimal hand-rolled parser covering exactly the schema the engine
//! uses:
//!
//! ```toml
//! [severity]
//! unordered-map-iter = "deny"
//!
//! [unordered-map-iter]
//! paths = [
//!     "crates/core/src",
//!     "crates/serve/src",
//! ]
//! ```
//!
//! Sections (dotted names allowed), `key = "string"`, and
//! `key = ["array", "of", "strings"]` (single- or multi-line) — plus
//! `#` comments. Anything else is a configuration error, reported with
//! its line number.

use crate::diag::Severity;
use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `key = "s"`.
    Str(String),
    /// `key = ["a", "b"]`.
    List(Vec<String>),
}

/// The parsed `lint.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// `section name → key → value`; dotted section headers keep their
    /// full dotted name.
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Config {
    /// Parses a `lint.toml` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on any construct
    /// outside the supported schema.
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut sections: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
        let mut current = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unclosed section header", i + 1))?;
                current = name.trim().to_string();
                sections.entry(current.clone()).or_default();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", i + 1))?;
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            if value.starts_with('[') {
                // Multi-line array: keep consuming until the closing
                // bracket (comments stripped per line).
                while !value.ends_with(']') {
                    let (_, raw) = lines
                        .next()
                        .ok_or_else(|| format!("line {}: unterminated array", i + 1))?;
                    value.push(' ');
                    value.push_str(strip_comment(raw).trim());
                }
            }
            let parsed = parse_value(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
            sections
                .entry(current.clone())
                .or_default()
                .insert(key, parsed);
        }
        Ok(Self { sections })
    }

    /// The string value at `[section] key`, if present.
    #[must_use]
    pub fn str(&self, section: &str, key: &str) -> Option<&str> {
        match self.sections.get(section)?.get(key)? {
            Value::Str(s) => Some(s),
            Value::List(_) => None,
        }
    }

    /// The list value at `[section] key`; a bare string reads as a
    /// one-element list. Missing key → empty.
    #[must_use]
    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            None => Vec::new(),
        }
    }

    /// Effective severity of `lint`: the `[severity]` table entry, or
    /// the lint's default.
    ///
    /// # Errors
    ///
    /// Returns a message if the configured value is not a valid
    /// severity name.
    pub fn severity(&self, lint: &str, default: Severity) -> Result<Severity, String> {
        match self.str("severity", lint) {
            Some(s) => Severity::parse(s).map_err(|e| format!("[severity] {lint}: {e}")),
            None => Ok(default),
        }
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<Value, String> {
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_bare_string(part)?);
        }
        return Ok(Value::List(items));
    }
    Ok(Value::Str(parse_bare_string(v)?))
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if escape {
            cur.push(c);
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                cur.push(c);
                escape = true;
            }
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

fn parse_bare_string(s: &str) -> Result<String, String> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got `{s}`"))?;
    // Unescape the two sequences the schema needs.
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_arrays() {
        let cfg = Config::parse(
            r#"
# top comment
[severity]
unwrap-in-lib = "deny" # trailing comment

[unordered-map-iter]
paths = [
    "crates/core/src",   # per-line comment
    "crates/serve/src",
]
one = ["solo"]

[dotted.section]
radix = "f"
"#,
        )
        .expect("valid config");
        assert_eq!(cfg.str("severity", "unwrap-in-lib"), Some("deny"));
        assert_eq!(
            cfg.list("unordered-map-iter", "paths"),
            ["crates/core/src", "crates/serve/src"]
        );
        assert_eq!(cfg.list("unordered-map-iter", "one"), ["solo"]);
        assert_eq!(cfg.str("dotted.section", "radix"), Some("f"));
    }

    #[test]
    fn severity_falls_back_to_default() {
        let cfg = Config::parse("[severity]\nx = \"warn\"\n").expect("valid");
        assert_eq!(
            cfg.severity("x", Severity::Deny).expect("parses"),
            Severity::Warn
        );
        assert_eq!(
            cfg.severity("y", Severity::Deny).expect("parses"),
            Severity::Deny
        );
        let bad = Config::parse("[severity]\nx = \"fatal\"\n").expect("valid toml");
        assert!(bad.severity("x", Severity::Deny).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[unclosed\n").is_err());
        assert!(Config::parse("[s]\nbare-token\n").is_err());
        assert!(Config::parse("[s]\nk = unquoted\n").is_err());
        assert!(Config::parse("[s]\nk = [\"a\"\n").is_err());
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let cfg = Config::parse("[s]\nk = \"a # b\"\n").expect("valid");
        assert_eq!(cfg.str("s", "k"), Some("a # b"));
    }
}
