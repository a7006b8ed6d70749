//! The reader for the flat JSON objects the workspace's configuration
//! formats use (`SimConfig::to_json`, `FaultSpec::to_json`).
//!
//! A flat object has no nested objects or arrays; its values are numbers,
//! booleans, `null` or strings, and strings may contain commas. Every
//! parser splits a document with [`flat_json_pairs`], so all of them accept
//! the same grammar: a key must be a double-quoted string.

/// Why a document is not a flat JSON object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatJsonError {
    /// The document is not wrapped in `{` and `}`.
    NotAnObject,
    /// A pair has no `:` between its key and its value.
    MalformedPair(String),
    /// A key is not one double-quoted string (unquoted or half-quoted).
    UnquotedKey(String),
}

/// Splits a flat JSON object into `(key, value)` pairs in document order:
/// each key without its quotes, each value as trimmed raw text (a string
/// value keeps its quotes). Commas inside strings do not split; an empty
/// object, and a trailing comma, yield no pair.
///
/// # Examples
///
/// ```
/// use leap_sim_core::json::{flat_json_pairs, FlatJsonError};
///
/// let pairs = flat_json_pairs(r#"{"seed": 7, "label": "a,b"}"#).unwrap();
/// assert_eq!(pairs, vec![("seed", "7"), ("label", "\"a,b\"")]);
/// assert_eq!(
///     flat_json_pairs("{seed: 7}"),
///     Err(FlatJsonError::UnquotedKey("seed".into()))
/// );
/// ```
pub fn flat_json_pairs(text: &str) -> Result<Vec<(&str, &str)>, FlatJsonError> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or(FlatJsonError::NotAnObject)?;
    split_top_level(body)
        .into_iter()
        .map(|pair| {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| FlatJsonError::MalformedPair(pair.trim().to_string()))?;
            let key = key.trim();
            let unquoted = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .filter(|k| !k.contains('"'))
                .ok_or_else(|| FlatJsonError::UnquotedKey(key.to_string()))?;
            Ok((unquoted, value.trim()))
        })
        .collect()
}

/// The body's pairs: split on the commas outside strings, without a
/// trailing blank one.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                pairs.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !body[start..].trim().is_empty() {
        pairs.push(&body[start..]);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_commas_outside_strings_only() {
        let pairs = flat_json_pairs(r#" { "a": 1 , "b":"x,y:z", "c":null, } "#).unwrap();
        assert_eq!(pairs, vec![("a", "1"), ("b", "\"x,y:z\""), ("c", "null")]);
        assert_eq!(flat_json_pairs("{}").unwrap(), vec![]);
    }

    #[test]
    fn rejects_what_is_not_a_flat_object() {
        assert_eq!(flat_json_pairs("[1]"), Err(FlatJsonError::NotAnObject));
        assert_eq!(
            flat_json_pairs(r#"{"a" 1}"#),
            Err(FlatJsonError::MalformedPair("\"a\" 1".into()))
        );
        for key in ["a", "\"a", "a\"", "\"a\"b\""] {
            assert_eq!(
                flat_json_pairs(&format!("{{{key}:1}}")),
                Err(FlatJsonError::UnquotedKey(key.into())),
                "{key}"
            );
        }
    }
}
