//! Domain names: parsing, display, ordering, and wire representation.

use crate::error::WireError;
use core::fmt;
use std::hash::{Hash, Hasher};

/// Maximum length of a single label on the wire (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum number of compression pointers we will chase before declaring a
/// loop. A legal message can never need more than the number of labels, and
/// 128 comfortably exceeds any legitimate chain.
const MAX_POINTER_HOPS: usize = 128;

/// A fully-qualified domain name, stored as a sequence of lowercase labels.
///
/// DNS names compare case-insensitively (RFC 1035 §2.3.3); `Name` normalizes
/// ASCII to lowercase at construction so `Eq`/`Hash`/`Ord` are cheap and
/// consistent.
#[derive(Debug, Clone, Eq, PartialOrd, Ord, Default)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Name {
        Name { labels: Vec::new() }
    }

    /// Parses a dotted name such as `appldnld.apple.com`. A single trailing
    /// dot (FQDN notation) is accepted; empty labels elsewhere are rejected.
    pub fn parse(s: &str) -> Result<Name, WireError> {
        if s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(WireError::BadName);
        }
        let mut labels = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(WireError::BadName);
            }
            if part.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong);
            }
            labels.push(part.bytes().map(|b| b.to_ascii_lowercase()).collect());
        }
        let name = Name { labels };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(name)
    }

    /// Builds a name from raw label byte strings.
    pub fn from_labels<I, L>(labels: I) -> Result<Name, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadName);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong);
            }
            out.push(l.iter().map(|b| b.to_ascii_lowercase()).collect());
        }
        let name = Name { labels: out };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(name)
    }

    /// The labels, root-most last.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Length of this name on the wire, including the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Whether `self` equals `suffix` or is a subdomain of it
    /// (`a.b.example.com` is within `example.com`).
    pub fn is_within(&self, suffix: &Name) -> bool {
        if suffix.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - suffix.labels.len();
        self.labels[skip..] == suffix.labels[..]
    }

    /// The name with its leftmost label removed (`a.b.c` → `b.c`); `None` at
    /// the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Prepends a label (`child("www")` on `example.com` → `www.example.com`).
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.as_bytes().to_vec());
        labels.extend(self.labels.iter().cloned());
        Name::from_labels(labels)
    }

    /// Encodes the name without compression, appending to `out`.
    pub fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        for l in &self.labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l);
        }
        out.push(0);
    }

    /// Decodes a name starting at `pos` in `buf`, following compression
    /// pointers. Returns the name and the position just past its *first*
    /// occurrence (i.e. past the pointer if one was used).
    pub fn decode(buf: &[u8], pos: usize) -> Result<(Name, usize), WireError> {
        let mut labels = Vec::new();
        let mut cursor = pos;
        let mut after: Option<usize> = None; // resume point after first pointer
        let mut hops = 0usize;
        let mut wire_len = 1usize; // terminating zero
        loop {
            let len = *buf.get(cursor).ok_or(WireError::Truncated)? as usize;
            match len {
                0 => {
                    cursor += 1;
                    break;
                }
                1..=MAX_LABEL_LEN => {
                    let start = cursor + 1;
                    let end = start + len;
                    let label = buf.get(start..end).ok_or(WireError::Truncated)?;
                    wire_len += len + 1;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    labels.push(label.iter().map(|b| b.to_ascii_lowercase()).collect());
                    cursor = end;
                }
                l if l & 0xC0 == 0xC0 => {
                    let second = *buf.get(cursor + 1).ok_or(WireError::Truncated)? as usize;
                    let target = ((len & 0x3F) << 8) | second;
                    // Pointers must point strictly backwards to prevent loops.
                    if target >= cursor {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    if after.is_none() {
                        after = Some(cursor + 2);
                    }
                    cursor = target;
                }
                _ => return Err(WireError::BadLabelType),
            }
        }
        Ok((Name { labels }, after.unwrap_or(cursor)))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.labels.hash(state)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["appldnld.apple.com", "a.gslb.applimg.com", "x.y", "com"] {
            assert_eq!(n(s).to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_and_case_insensitivity() {
        assert_eq!(n("Apple.COM."), n("apple.com"));
    }

    #[test]
    fn root_name() {
        let r = Name::parse(".").unwrap();
        assert!(r.is_root());
        assert_eq!(r.to_string(), ".");
        assert_eq!(r.wire_len(), 1);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Name::parse("").is_err());
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"x".repeat(64)).is_err());
        let long = vec!["abcdefgh"; 32].join("."); // 32*9 = 288 > 255
        assert!(Name::parse(&long).is_err());
    }

    #[test]
    fn suffix_matching() {
        assert!(n("appldnld.apple.com").is_within(&n("apple.com")));
        assert!(n("apple.com").is_within(&n("apple.com")));
        assert!(!n("apple.com").is_within(&n("appldnld.apple.com")));
        assert!(!n("notapple.com").is_within(&n("apple.com")));
        assert!(n("apple.com").is_within(&Name::root()));
    }

    #[test]
    fn parent_and_child() {
        let name = n("a.b.c");
        assert_eq!(name.parent().unwrap(), n("b.c"));
        assert_eq!(n("b.c").child("a").unwrap(), name);
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let name = n("usnyc3-vip-bx-008.aaplimg.com");
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        assert_eq!(buf.len(), name.wire_len());
        let (decoded, end) = Name::decode(&buf, 0).unwrap();
        assert_eq!(decoded, name);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn decode_with_pointer() {
        // "apple.com" at 0, then "www" + pointer to 0 at offset 11.
        let mut buf = Vec::new();
        n("apple.com").encode_uncompressed(&mut buf);
        let ptr_at = buf.len();
        buf.push(3);
        buf.extend_from_slice(b"www");
        buf.push(0xC0);
        buf.push(0);
        let (decoded, end) = Name::decode(&buf, ptr_at).unwrap();
        assert_eq!(decoded, n("www.apple.com"));
        assert_eq!(end, buf.len());
    }

    #[test]
    fn decode_rejects_forward_pointer_and_loop() {
        // Pointer to itself.
        let buf = [0xC0u8, 0x00];
        assert_eq!(Name::decode(&buf, 0).unwrap_err(), WireError::BadPointer);
        // Forward pointer.
        let buf = [0xC0u8, 0x02, 0x00];
        assert_eq!(Name::decode(&buf, 0).unwrap_err(), WireError::BadPointer);
    }

    #[test]
    fn decode_rejects_truncation_and_reserved_types() {
        assert_eq!(
            Name::decode(&[5, b'a'], 0).unwrap_err(),
            WireError::Truncated
        );
        assert_eq!(Name::decode(&[], 0).unwrap_err(), WireError::Truncated);
        assert_eq!(
            Name::decode(&[0x80, 0x01, 0], 0).unwrap_err(),
            WireError::BadLabelType
        );
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [n("b.com"), n("a.com"), n("a.com")];
        v.sort();
        assert_eq!(v[0], n("a.com"));
    }
}
