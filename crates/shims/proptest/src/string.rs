//! Generator-only regex string strategies: [`string_regex`].
//!
//! Supports the subset of regex syntax the workspace's tests use: literal
//! characters, character classes like `[a-z0-9]`, groups `(...)`, and the
//! quantifiers `{n}`, `{m,n}`, `?`, `*`, and `+` (unbounded quantifiers are
//! capped at 8 repetitions).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use core::fmt;

const UNBOUNDED_CAP: u32 = 8;

/// A regex pattern this shim cannot parse.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

#[derive(Debug, Clone)]
enum Node {
    Literal(char),
    /// Inclusive character ranges, e.g. `[a-z0-9]` → `[('a','z'), ('0','9')]`.
    Class(Vec<(char, char)>),
    Group(Vec<Node>),
    Repeat(Box<Node>, u32, u32),
}

impl Node {
    fn emit(&self, out: &mut String, rng: &mut TestRng) {
        match self {
            Node::Literal(c) => out.push(*c),
            Node::Class(ranges) => {
                let total: u32 = ranges
                    .iter()
                    .map(|(lo, hi)| *hi as u32 - *lo as u32 + 1)
                    .sum();
                let mut pick = rng.below(total as usize) as u32;
                for (lo, hi) in ranges {
                    let span = *hi as u32 - *lo as u32 + 1;
                    if pick < span {
                        out.push(char::from_u32(*lo as u32 + pick).expect("class range is valid"));
                        return;
                    }
                    pick -= span;
                }
                unreachable!("pick exceeded class span");
            }
            Node::Group(nodes) => {
                for n in nodes {
                    n.emit(out, rng);
                }
            }
            Node::Repeat(node, lo, hi) => {
                let count = lo + rng.below((hi - lo + 1) as usize) as u32;
                for _ in 0..count {
                    node.emit(out, rng);
                }
            }
        }
    }
}

/// Strategy returned by [`string_regex`].
#[derive(Debug, Clone)]
pub struct RegexGeneratorStrategy {
    nodes: Vec<Node>,
}

impl Strategy for RegexGeneratorStrategy {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            n.emit(&mut out, rng);
        }
        out
    }
}

/// Parses `pattern` into a strategy producing matching strings.
pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, Error> {
    let mut chars = pattern.chars().peekable();
    let nodes = parse_seq(&mut chars, false)?;
    if chars.next().is_some() {
        return Err(Error(format!("unbalanced ')' in {pattern:?}")));
    }
    Ok(RegexGeneratorStrategy { nodes })
}

type Chars<'a> = core::iter::Peekable<core::str::Chars<'a>>;

fn parse_seq(chars: &mut Chars<'_>, in_group: bool) -> Result<Vec<Node>, Error> {
    let mut nodes = Vec::new();
    while let Some(&c) = chars.peek() {
        let atom = match c {
            ')' if in_group => break,
            ')' => return Err(Error("unbalanced ')'".into())),
            '(' => {
                chars.next();
                let inner = parse_seq(chars, true)?;
                if chars.next() != Some(')') {
                    return Err(Error("unterminated group".into()));
                }
                Node::Group(inner)
            }
            '[' => {
                chars.next();
                Node::Class(parse_class(chars)?)
            }
            '\\' => {
                chars.next();
                let esc = chars
                    .next()
                    .ok_or_else(|| Error("dangling escape".into()))?;
                Node::Literal(esc)
            }
            '?' | '*' | '+' | '{' => return Err(Error(format!("dangling quantifier '{c}'"))),
            _ => {
                chars.next();
                Node::Literal(c)
            }
        };
        nodes.push(apply_quantifier(atom, chars)?);
    }
    Ok(nodes)
}

fn apply_quantifier(atom: Node, chars: &mut Chars<'_>) -> Result<Node, Error> {
    let (lo, hi) = match chars.peek() {
        Some('?') => (0, 1),
        Some('*') => (0, UNBOUNDED_CAP),
        Some('+') => (1, UNBOUNDED_CAP),
        Some('{') => {
            chars.next();
            let lo = parse_number(chars)?;
            let hi = match chars.peek() {
                Some(',') => {
                    chars.next();
                    parse_number(chars)?
                }
                _ => lo,
            };
            if chars.next() != Some('}') {
                return Err(Error("unterminated repetition".into()));
            }
            if lo > hi {
                return Err(Error(format!("inverted repetition {{{lo},{hi}}}")));
            }
            return Ok(Node::Repeat(Box::new(atom), lo, hi));
        }
        _ => return Ok(atom),
    };
    chars.next();
    Ok(Node::Repeat(Box::new(atom), lo, hi))
}

fn parse_number(chars: &mut Chars<'_>) -> Result<u32, Error> {
    let mut digits = String::new();
    while let Some(c) = chars.peek().filter(|c| c.is_ascii_digit()) {
        digits.push(*c);
        chars.next();
    }
    digits
        .parse()
        .map_err(|_| Error("expected number in repetition".into()))
}

fn parse_class(chars: &mut Chars<'_>) -> Result<Vec<(char, char)>, Error> {
    let mut ranges = Vec::new();
    loop {
        let lo = match chars.next() {
            Some(']') if !ranges.is_empty() => return Ok(ranges),
            Some(']') | None => return Err(Error("unterminated character class".into())),
            Some('\\') => chars
                .next()
                .ok_or_else(|| Error("dangling escape".into()))?,
            Some(c) => c,
        };
        if chars.peek() == Some(&'-') {
            chars.next();
            match chars.next() {
                Some(']') | None => return Err(Error("unterminated class range".into())),
                Some(hi) if lo <= hi => ranges.push((lo, hi)),
                Some(hi) => return Err(Error(format!("inverted class range {lo}-{hi}"))),
            }
        } else {
            ranges.push((lo, lo));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_match(pattern: &str, check: impl Fn(&str) -> bool) {
        let strat = string_regex(pattern).expect("pattern parses");
        let mut rng = TestRng::from_name(pattern);
        for _ in 0..300 {
            let s = strat.generate(&mut rng);
            assert!(check(&s), "{s:?} does not match {pattern:?}");
        }
    }

    #[test]
    fn fixed_width_class() {
        all_match("[a-z]{5}", |s| {
            s.len() == 5 && s.chars().all(|c| c.is_ascii_lowercase())
        });
    }

    #[test]
    fn label_with_optional_suffix() {
        all_match("[a-z0-9]{1,12}(-[a-z0-9]{1,8})?", |s| {
            let parts: Vec<&str> = s.split('-').collect();
            (1..=2).contains(&parts.len())
                && (1..=12).contains(&parts[0].len())
                && parts.iter().skip(1).all(|p| (1..=8).contains(&p.len()))
                && parts.iter().all(|p| {
                    p.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
                })
        });
    }

    #[test]
    fn literals_and_escapes() {
        all_match("ab\\.c", |s| s == "ab.c");
    }

    #[test]
    fn bad_patterns_are_rejected() {
        assert!(string_regex("(unclosed").is_err());
        assert!(string_regex("[a-").is_err());
        assert!(string_regex("a{3,1}").is_err());
        assert!(string_regex("?").is_err());
    }
}
