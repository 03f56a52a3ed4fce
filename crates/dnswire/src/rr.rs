//! Resource records: types, classes, and RDATA encode/decode.

use crate::error::WireError;
use crate::name::Name;
use core::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record types used by the measurement (plus an escape hatch for
/// anything else seen on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (the edges of the Figure 2 mapping graph).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse DNS; drives the Table 1 analysis).
    Ptr,
    /// Text strings.
    Txt,
    /// IPv6 host address (the paper observes Apple's mapping answers none).
    Aaaa,
    /// Any other type, carried opaquely.
    Other(u16),
}

impl RecordType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Other(v) => v,
        }
    }

    /// From the 16-bit wire value.
    pub fn from_u16(v: u16) -> RecordType {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            other => RecordType::Other(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => f.write_str("A"),
            RecordType::Ns => f.write_str("NS"),
            RecordType::Cname => f.write_str("CNAME"),
            RecordType::Soa => f.write_str("SOA"),
            RecordType::Ptr => f.write_str("PTR"),
            RecordType::Txt => f.write_str("TXT"),
            RecordType::Aaaa => f.write_str("AAAA"),
            RecordType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS class. Only `IN` matters here, but the wire field is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The Internet.
    In,
    /// Anything else.
    Other(u16),
}

impl Class {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            Class::In => 1,
            Class::Other(v) => v,
        }
    }
    /// From the 16-bit wire value.
    pub fn from_u16(v: u16) -> Class {
        if v == 1 {
            Class::In
        } else {
            Class::Other(v)
        }
    }
}

/// SOA RDATA fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soa {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry, seconds.
    pub expire: u32,
    /// Negative-caching TTL, seconds.
    pub minimum: u32,
}

/// Decoded RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Name server.
    Ns(Name),
    /// Canonical name.
    Cname(Name),
    /// Start of authority.
    Soa(Box<Soa>),
    /// Reverse pointer.
    Ptr(Name),
    /// Text strings (each ≤255 octets).
    Txt(Vec<Vec<u8>>),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Opaque bytes for unmodelled types, tagged with the wire type code.
    Other(u16, Vec<u8>),
}

impl RData {
    /// The record type this RDATA belongs with.
    pub fn rtype(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Soa(_) => RecordType::Soa,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Txt(_) => RecordType::Txt,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Other(code, _) => RecordType::Other(*code),
        }
    }

    /// Encodes RDATA (uncompressed names, as modern encoders do) into `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            RData::A(a) => out.extend_from_slice(&a.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_uncompressed(out),
            RData::Soa(soa) => {
                soa.mname.encode_uncompressed(out);
                soa.rname.encode_uncompressed(out);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::TxtTooLong);
                    }
                    out.push(s.len() as u8);
                    out.extend_from_slice(s);
                }
            }
            RData::Aaaa(a) => out.extend_from_slice(&a.octets()),
            RData::Other(_, bytes) => out.extend_from_slice(bytes),
        }
        Ok(())
    }

    /// Decodes RDATA of type `rtype` from `buf[pos..pos+rdlen]`; `buf` is the
    /// whole message so compressed names inside RDATA resolve correctly.
    pub(crate) fn decode(
        rtype: RecordType,
        buf: &[u8],
        pos: usize,
        rdlen: usize,
    ) -> Result<RData, WireError> {
        let end = pos + rdlen;
        let slice = buf.get(pos..end).ok_or(WireError::Truncated)?;
        match rtype {
            RecordType::A => {
                let octets: [u8; 4] = slice.try_into().map_err(|_| WireError::BadRdata)?;
                Ok(RData::A(Ipv4Addr::from(octets)))
            }
            RecordType::Aaaa => {
                let octets: [u8; 16] = slice.try_into().map_err(|_| WireError::BadRdata)?;
                Ok(RData::Aaaa(Ipv6Addr::from(octets)))
            }
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
                let (name, after) = Name::decode(buf, pos)?;
                if after != end {
                    return Err(WireError::BadRdata);
                }
                match rtype {
                    RecordType::Ns => Ok(RData::Ns(name)),
                    RecordType::Cname => Ok(RData::Cname(name)),
                    _ => Ok(RData::Ptr(name)),
                }
            }
            RecordType::Soa => {
                let (mname, p) = Name::decode(buf, pos)?;
                let (rname, p) = Name::decode(buf, p)?;
                let tail = buf.get(p..p + 20).ok_or(WireError::BadRdata)?;
                if p + 20 != end {
                    return Err(WireError::BadRdata);
                }
                let word =
                    |i: usize| u32::from_be_bytes(tail[i * 4..i * 4 + 4].try_into().unwrap());
                Ok(RData::Soa(Box::new(Soa {
                    mname,
                    rname,
                    serial: word(0),
                    refresh: word(1),
                    retry: word(2),
                    expire: word(3),
                    minimum: word(4),
                })))
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                let mut p = 0;
                while p < slice.len() {
                    let len = slice[p] as usize;
                    let s = slice.get(p + 1..p + 1 + len).ok_or(WireError::BadRdata)?;
                    strings.push(s.to_vec());
                    p += 1 + len;
                }
                Ok(RData::Txt(strings))
            }
            RecordType::Other(code) => Ok(RData::Other(code, slice.to_vec())),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: Name,
    /// Class (normally `IN`).
    pub class: Class,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Type-specific data.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Convenience constructor for an `IN` record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> ResourceRecord {
        ResourceRecord {
            name,
            class: Class::In,
            ttl,
            rdata,
        }
    }

    /// The record type, derived from the RDATA variant.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }
}

impl fmt::Display for ResourceRecord {
    /// Zone-file-like presentation: `name ttl IN TYPE rdata`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} IN {} ", self.name, self.ttl, self.rtype())?;
        match &self.rdata {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(f, "{} {} {}", s.mname, s.rname, s.serial),
            RData::Txt(strings) => {
                for s in strings {
                    write!(f, "\"{}\" ", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Other(_, b) => write!(f, "\\# {}", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_wire_values() {
        for (t, v) in [
            (RecordType::A, 1),
            (RecordType::Ns, 2),
            (RecordType::Cname, 5),
            (RecordType::Soa, 6),
            (RecordType::Ptr, 12),
            (RecordType::Txt, 16),
            (RecordType::Aaaa, 28),
        ] {
            assert_eq!(t.to_u16(), v);
            assert_eq!(RecordType::from_u16(v), t);
        }
        assert_eq!(RecordType::from_u16(99), RecordType::Other(99));
    }

    #[test]
    fn a_record_roundtrip() {
        let rdata = RData::A(Ipv4Addr::new(17, 253, 1, 8));
        let mut buf = Vec::new();
        rdata.encode(&mut buf).unwrap();
        assert_eq!(buf, [17, 253, 1, 8]);
        let back = RData::decode(RecordType::A, &buf, 0, 4).unwrap();
        assert_eq!(back, rdata);
    }

    #[test]
    fn a_record_bad_length() {
        assert_eq!(
            RData::decode(RecordType::A, &[1, 2, 3], 0, 3).unwrap_err(),
            WireError::BadRdata
        );
    }

    #[test]
    fn cname_roundtrip() {
        let target = Name::parse("appldnld.apple.com.akadns.net").unwrap();
        let rdata = RData::Cname(target.clone());
        let mut buf = Vec::new();
        rdata.encode(&mut buf).unwrap();
        let back = RData::decode(RecordType::Cname, &buf, 0, buf.len()).unwrap();
        assert_eq!(back, RData::Cname(target));
    }

    #[test]
    fn soa_roundtrip() {
        let soa = Soa {
            mname: Name::parse("adns1.apple.com").unwrap(),
            rname: Name::parse("hostmaster.apple.com").unwrap(),
            serial: 2017091901,
            refresh: 1800,
            retry: 900,
            expire: 2016000,
            minimum: 1800,
        };
        let rdata = RData::Soa(Box::new(soa));
        let mut buf = Vec::new();
        rdata.encode(&mut buf).unwrap();
        let back = RData::decode(RecordType::Soa, &buf, 0, buf.len()).unwrap();
        assert_eq!(back, rdata);
    }

    #[test]
    fn txt_roundtrip_and_limits() {
        let rdata = RData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]);
        let mut buf = Vec::new();
        rdata.encode(&mut buf).unwrap();
        let back = RData::decode(RecordType::Txt, &buf, 0, buf.len()).unwrap();
        assert_eq!(back, rdata);

        let too_long = RData::Txt(vec![vec![b'x'; 256]]);
        let mut buf = Vec::new();
        assert_eq!(
            too_long.encode(&mut buf).unwrap_err(),
            WireError::TxtTooLong
        );
    }

    #[test]
    fn display_zone_format() {
        let rr = ResourceRecord::new(
            Name::parse("appldnld.apple.com").unwrap(),
            21600,
            RData::Cname(Name::parse("appldnld.apple.com.akadns.net").unwrap()),
        );
        assert_eq!(
            rr.to_string(),
            "appldnld.apple.com 21600 IN CNAME appldnld.apple.com.akadns.net"
        );
    }
}
