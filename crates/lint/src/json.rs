//! A deliberately tiny JSON subset reader/writer.
//!
//! The analyzer is dependency-free, and its two on-disk artifacts
//! (`lint-baseline.json`, `vendor-manifest.json`) are flat objects it
//! writes itself, so this module only needs to read back what
//! [`render_section`]-shaped emitters produce: one named section holding
//! `"key": <number|string>` pairs. Keys never contain escapes.

use std::collections::BTreeMap;

/// Extracts the `"section": { … }` object from `text` as key → raw value
/// (quoted strings are unquoted; numbers come back as their digit text).
pub fn section_entries(text: &str, section: &str) -> Result<BTreeMap<String, String>, String> {
    let needle = format!("\"{section}\"");
    let Some(at) = text.find(&needle) else {
        return Err(format!("missing `{section}` section"));
    };
    let rest = &text[at + needle.len()..];
    let Some(brace) = rest.find('{') else {
        return Err(format!("`{section}` is not an object"));
    };
    let mut chars = rest[brace + 1..].chars().peekable();
    let mut out = BTreeMap::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') | None => break,
            Some(',') => {
                chars.next();
                continue;
            }
            Some('"') => {}
            Some(c) => return Err(format!("unexpected `{c}` in `{section}`")),
        }
        let key = read_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("missing `:` after `{key}`"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => read_string(&mut chars)?,
            Some(c) if c.is_ascii_digit() => {
                let mut v = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        v.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                v
            }
            _ => return Err(format!("unsupported value for `{key}`")),
        };
        out.insert(key, value);
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn read_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected `\"`".to_string());
    }
    let mut s = String::new();
    for c in chars.by_ref() {
        if c == '"' {
            return Ok(s);
        }
        s.push(c);
    }
    Err("unterminated string".to_string())
}

/// Renders one `"section": { "key": value }` block; `quote_values` wraps
/// values in quotes (string values) or leaves them bare (numbers).
pub fn render_section<V: std::fmt::Display>(
    section: &str,
    entries: &BTreeMap<String, V>,
    quote_values: bool,
) -> String {
    let mut out = format!("  \"{section}\": {{\n");
    let last = entries.len().saturating_sub(1);
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        if quote_values {
            out.push_str(&format!("    \"{key}\": \"{value}\"{comma}\n"));
        } else {
            out.push_str(&format!("    \"{key}\": {value}{comma}\n"));
        }
    }
    out.push_str("  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers() {
        let mut m = BTreeMap::new();
        m.insert("freeride-core".to_string(), 45usize);
        m.insert("freeride-sim".to_string(), 3usize);
        let text = format!(
            "{{\n{}\n}}\n",
            render_section("panic-discipline", &m, false)
        );
        let back = section_entries(&text, "panic-discipline").map_err(|e| e.to_string());
        let back = match back {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(back.get("freeride-core").map(String::as_str), Some("45"));
        assert_eq!(back.get("freeride-sim").map(String::as_str), Some("3"));
    }

    #[test]
    fn round_trips_strings() {
        let mut m = BTreeMap::new();
        m.insert("vendor/rand/src/lib.rs".to_string(), "cafe0123".to_string());
        let text = format!("{{\n{}\n}}\n", render_section("files", &m, true));
        let back = match section_entries(&text, "files") {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(
            back.get("vendor/rand/src/lib.rs").map(String::as_str),
            Some("cafe0123")
        );
    }

    #[test]
    fn missing_section_errors() {
        assert!(section_entries("{}", "files").is_err());
    }

    #[test]
    fn empty_section_is_empty() {
        let text = "{\n  \"files\": {\n  }\n}\n";
        let back = match section_entries(text, "files") {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        };
        assert!(back.is_empty());
    }
}
