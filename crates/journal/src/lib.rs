//! `mcdn-journal` — a hand-rolled, dependency-free binary journal.
//!
//! The campaign engine appends one checkpoint record per completed round;
//! after a crash the journal is replayed and the campaign resumes from the
//! last durable record. The format is deliberately primitive so that every
//! failure mode is inspectable:
//!
//! ```text
//! file   := MAGIC (8 bytes) record*
//! record := len:u32 LE | checksum:u64 LE (FNV-1a of payload) | payload
//! ```
//!
//! Recovery semantics ([`Journal::open`]): the longest prefix of intact
//! records wins. A torn frame header, a length running past end-of-file, or
//! a checksum mismatch all mark the end of the valid prefix; the file is
//! truncated there and appending continues after the surviving records.
//! Corruption is therefore *not* an error — only I/O failures and a foreign
//! magic are. Nothing in this crate panics on malformed input.
//!
//! Durability: [`Journal::append`] writes and flushes to the OS, which is
//! sufficient to survive the death of the writing process (e.g. `SIGKILL`).
//! Call [`Journal::sync`] at suspension points to also survive kernel or
//! power failure.
//!
//! The crate also ships the [`ByteWriter`]/[`ByteReader`] codec pair used to
//! build record payloads, so checkpoint encoders get bounds-checked,
//! endian-stable primitives without any external serialization dependency.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use mcdn_faults::fnv64;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// File magic identifying a Meta-CDN journal (8 bytes, version folded in).
pub const MAGIC: [u8; 8] = *b"MCDNJRN1";

/// Upper bound on a single record's payload (1 GiB). Lengths beyond this
/// are treated as corruption, not as allocation requests.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// Frame header size: `len: u32` + `checksum: u64`.
const FRAME_LEN: u64 = 12;

/// Errors a journal can report. Corrupt or torn *records* never surface
/// here — they are repaired by truncation during [`Journal::open`].
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but does not start with [`MAGIC`] — it is not a
    /// journal (or its header itself was corrupted), and silently
    /// truncating it could destroy foreign data.
    BadMagic,
}

impl core::fmt::Display for JournalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a journal file (bad magic)"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::BadMagic => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Every intact record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded from a torn or corrupt tail (0 on a clean file).
    pub truncated_bytes: u64,
}

/// An append-only journal of checksummed records.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates a fresh, empty journal at `path`, truncating any existing
    /// file.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.flush()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens (or creates) the journal at `path`, replays every intact
    /// record, truncates a torn or corrupt tail, and returns the journal
    /// positioned for appending plus what was recovered.
    pub fn open(path: &Path) -> Result<(Journal, Recovery), JournalError> {
        // Deliberately NOT `truncate(true)`: an existing journal's records
        // are the whole point of opening it. Corrupt tails are truncated
        // surgically below, after the valid prefix is known.
        #[allow(clippy::suspicious_open_options)]
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.flush()?;
            return Ok((
                Journal {
                    file,
                    path: path.to_path_buf(),
                },
                Recovery {
                    records: Vec::new(),
                    truncated_bytes: 0,
                },
            ));
        }
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::BadMagic);
        }

        let mut records = Vec::new();
        let mut good_end = MAGIC.len() as u64;
        let mut pos = MAGIC.len();
        loop {
            let remaining = bytes.len() - pos;
            if remaining == 0 {
                break; // clean end
            }
            if (remaining as u64) < FRAME_LEN {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
            if len > MAX_RECORD_LEN {
                break; // implausible length: corrupt frame
            }
            let body_start = pos + FRAME_LEN as usize;
            let body_end = body_start + len as usize;
            if body_end > bytes.len() {
                break; // torn payload
            }
            let payload = &bytes[body_start..body_end];
            if fnv64(payload) != sum {
                break; // bit-rot: checksum mismatch
            }
            records.push(payload.to_vec());
            pos = body_end;
            good_end = body_end as u64;
        }

        let truncated_bytes = bytes.len() as u64 - good_end;
        if truncated_bytes > 0 {
            file.set_len(good_end)?;
        }
        file.seek(SeekFrom::Start(good_end))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            Recovery {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Appends one record (frame header + payload) and flushes it to the
    /// OS. Survives process death; see [`Journal::sync`] for stronger
    /// durability.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            JournalError::Io(std::io::Error::other("record payload exceeds u32 length"))
        })?;
        if len > MAX_RECORD_LEN {
            return Err(JournalError::Io(std::io::Error::other(
                "record payload exceeds 1 GiB",
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_LEN as usize + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        Ok(())
    }

    /// Forces journal contents to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// The path this journal lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Codec error for [`ByteReader`]: the payload ended early or held an
/// out-of-range value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the requested value.
    Truncated,
    /// A value decoded fine but is semantically impossible (bad enum code,
    /// trailing garbage, ...). The message names the field.
    Invalid(&'static str),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("payload truncated"),
            CodecError::Invalid(what) => write!(f, "invalid payload field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Builds a record payload from endian-stable primitives.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty payload builder.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an IPv4 address as its four octets.
    pub fn put_ipv4(&mut self, ip: Ipv4Addr) {
        self.buf.extend_from_slice(&ip.octets());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// The finished payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked reader over a record payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an IPv4 address (four octets).
    pub fn ipv4(&mut self) -> Result<Ipv4Addr, CodecError> {
        let o = self.take(4)?;
        Ok(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
    }

    /// Reads a one-byte `bool`; anything other than 0 or 1 is invalid.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly — trailing bytes mean the
    /// writer and reader disagree about the schema.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mcdn-journal-test-{}-{tag}.jrnl",
            std::process::id()
        ));
        p
    }

    fn read_raw(path: &Path) -> Vec<u8> {
        std::fs::read(path).expect("read journal file")
    }

    #[test]
    fn roundtrip_records_in_order() {
        let path = tmp_path("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"alpha").unwrap();
        j.append(b"").unwrap();
        j.append(&[0u8; 1000]).unwrap();
        drop(j);

        let (_j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[0], b"alpha");
        assert_eq!(rec.records[1], b"");
        assert_eq!(rec.records[2], vec![0u8; 1000]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_open_continues_the_log() {
        let path = tmp_path("continue");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"one").unwrap();
        drop(j);

        let (mut j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        j.append(b"two").unwrap();
        drop(j);

        let (_j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp_path("torn");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"keep me").unwrap();
        j.append(b"torn record").unwrap();
        drop(j);

        // Chop bytes off the last record's payload.
        let bytes = read_raw(&path);
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();

        let (mut j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
        assert!(rec.truncated_bytes > 0);

        // The journal is usable again and the repair is durable.
        j.append(b"after repair").unwrap();
        drop(j);
        let (_j, rec) = Journal::open(&path).unwrap();
        assert_eq!(
            rec.records,
            vec![b"keep me".to_vec(), b"after repair".to_vec()]
        );
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_invalidates_the_suffix_only() {
        let path = tmp_path("bitflip");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"record zero").unwrap();
        j.append(b"record one").unwrap();
        j.append(b"record two").unwrap();
        drop(j);

        // Flip one bit inside the *second* record's payload.
        let mut bytes = read_raw(&path);
        let second_payload = MAGIC.len() + 2 * FRAME_LEN as usize + b"record zero".len();
        bytes[second_payload + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (_j, rec) = Journal::open(&path).unwrap();
        // Valid prefix: record zero survives; the flipped record and
        // everything after it are discarded.
        assert_eq!(rec.records, vec![b"record zero".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_length_is_corruption() {
        let path = tmp_path("badlen");
        let mut j = Journal::create(&path).unwrap();
        j.append(b"good").unwrap();
        drop(j);

        let mut bytes = read_raw(&path);
        // Append a frame claiming a 2 GiB payload.
        bytes.extend_from_slice(&(2u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"short");
        std::fs::write(&path, &bytes).unwrap();

        let (_j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_a_typed_error() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        match Journal::open(&path) {
            Err(JournalError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_files_become_fresh_journals() {
        let path = tmp_path("fresh");
        std::fs::remove_file(&path).ok();
        let (_j, rec) = Journal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(read_raw(&path), MAGIC);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn codec_roundtrip_and_bounds() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(65000);
        w.put_u32(123_456_789);
        w.put_u64(u64::MAX - 1);
        w.put_f64(0.25);
        w.put_ipv4(Ipv4Addr::new(17, 253, 1, 2));
        w.put_bool(true);
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65000);
        assert_eq!(r.u32().unwrap(), 123_456_789);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.ipv4().unwrap(), Ipv4Addr::new(17, 253, 1, 2));
        assert!(r.bool().unwrap());
        r.expect_end().unwrap();
        assert_eq!(r.u8(), Err(CodecError::Truncated));

        let mut r = ByteReader::new(&[9]);
        assert_eq!(r.bool(), Err(CodecError::Invalid("bool")));
    }
}
