//! The log entry wire codec: one-byte entry tags, LEB128 varints and
//! zigzag-encoded integers.
//!
//! This is the payload encoding of the segmented on-disk log
//! ([`crate::segment`]). Every integer is an unsigned LEB128 varint; signed
//! values are zigzag-mapped first. Entries carry no framing of their
//! own: segment blocks hold whole entries back to back, and the
//! segment footer records where each one starts.

use crate::entry::LogEntry;
use ppd_analysis::EBlockId;
use ppd_lang::{StmtId, Value, VarId};
use std::fmt;

const TAG_PRELOG: u8 = 0;
const TAG_POSTLOG: u8 = 1;
const TAG_SHARED: u8 = 2;
const TAG_INPUT: u8 = 3;
const TAG_RECEIVE: u8 = 4;
const TAG_ELEMENT: u8 = 5;

const VAL_INT: u8 = 0;
const VAL_ARRAY: u8 = 1;

/// What went wrong while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinErrorKind {
    /// An entry or value tag byte was not recognized.
    BadTag(u8),
    /// The input ended mid-record.
    UnexpectedEof,
}

/// A binary decoding failure: the failure kind, the absolute byte
/// offset in the decoded input where it was detected, and — when the
/// failing bytes belong to an on-disk segment — which one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// The failure itself.
    pub kind: BinErrorKind,
    /// Absolute byte offset (into the full input blob or segment file)
    /// at which decoding failed.
    pub offset: usize,
    /// Enclosing container (a segment file name), when known.
    pub context: Option<String>,
}

impl BinError {
    pub(crate) fn new(kind: BinErrorKind, offset: usize) -> BinError {
        BinError { kind, offset, context: None }
    }

    /// Attaches (or replaces) the container context.
    pub(crate) fn with_context(mut self, context: impl Into<String>) -> BinError {
        self.context = Some(context.into());
        self
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BinErrorKind::BadTag(t) => write!(f, "unknown record tag {t}")?,
            BinErrorKind::UnexpectedEof => write!(f, "truncated binary log")?,
        }
        write!(f, " at byte {}", self.offset)?;
        if let Some(ctx) = &self.context {
            write!(f, " in {ctx}")?;
        }
        Ok(())
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------------
// Primitive writers/readers (shared with the segment codec)
// ---------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_signed(out: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes of either sign stay short.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A bounds-checked byte reader that knows its absolute position inside
/// the containing blob or file, so every error carries a real offset.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Absolute offset of `bytes[0]` within the containing input.
    base: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0, base: 0 }
    }

    /// A reader over a slice that starts `base` bytes into the
    /// containing input (error offsets stay absolute).
    pub(crate) fn with_base(bytes: &'a [u8], base: usize) -> Reader<'a> {
        Reader { bytes, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    pub(crate) fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes remaining.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn err(&self, kind: BinErrorKind) -> BinError {
        BinError::new(kind, self.offset())
    }

    pub(crate) fn byte(&mut self) -> Result<u8, BinError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err(BinErrorKind::UnexpectedEof))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, BinError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let at = self.offset();
            let b = self.byte()?;
            if shift >= 64 {
                return Err(BinError::new(BinErrorKind::BadTag(b), at));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub(crate) fn signed(&mut self) -> Result<i64, BinError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

// ---------------------------------------------------------------------
// Values and entries
// ---------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(n) => {
            out.push(VAL_INT);
            put_signed(out, *n);
        }
        Value::Array(a) => {
            out.push(VAL_ARRAY);
            put_varint(out, a.len() as u64);
            for &n in a {
                put_signed(out, n);
            }
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value, BinError> {
    let at = r.offset();
    match r.byte()? {
        VAL_INT => Ok(Value::Int(r.signed()?)),
        VAL_ARRAY => {
            let len = r.varint()? as usize;
            let mut a = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                a.push(r.signed()?);
            }
            Ok(Value::Array(a))
        }
        t => Err(BinError::new(BinErrorKind::BadTag(t), at)),
    }
}

fn put_values(out: &mut Vec<u8>, vs: &[(VarId, Value)]) {
    put_varint(out, vs.len() as u64);
    for (var, value) in vs {
        put_varint(out, u64::from(var.0));
        put_value(out, value);
    }
}

fn get_values(r: &mut Reader<'_>) -> Result<Vec<(VarId, Value)>, BinError> {
    let len = r.varint()? as usize;
    let mut vs = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        let var = VarId(r.varint()? as u32);
        vs.push((var, get_value(r)?));
    }
    Ok(vs)
}

/// Appends one entry in the tagged wire format.
pub(crate) fn put_entry(out: &mut Vec<u8>, e: &LogEntry) {
    match e {
        LogEntry::Prelog { eblock, instance, values, time } => {
            out.push(TAG_PRELOG);
            put_varint(out, u64::from(eblock.0));
            put_varint(out, *instance);
            put_values(out, values);
            put_varint(out, *time);
        }
        LogEntry::Postlog { eblock, instance, values, ret, time } => {
            out.push(TAG_POSTLOG);
            put_varint(out, u64::from(eblock.0));
            put_varint(out, *instance);
            put_values(out, values);
            match ret {
                Some(v) => {
                    out.push(1);
                    put_value(out, v);
                }
                None => out.push(0),
            }
            put_varint(out, *time);
        }
        LogEntry::SharedSnapshot { at, values, time } => {
            out.push(TAG_SHARED);
            match at {
                Some(stmt) => {
                    out.push(1);
                    put_varint(out, u64::from(stmt.0));
                }
                None => out.push(0),
            }
            put_values(out, values);
            put_varint(out, *time);
        }
        LogEntry::Input { value, time } => {
            out.push(TAG_INPUT);
            put_signed(out, *value);
            put_varint(out, *time);
        }
        LogEntry::Receive { value, time } => {
            out.push(TAG_RECEIVE);
            put_signed(out, *value);
            put_varint(out, *time);
        }
        LogEntry::ElementRead { value, time } => {
            out.push(TAG_ELEMENT);
            put_signed(out, *value);
            put_varint(out, *time);
        }
    }
}

/// Reads one entry in the tagged wire format.
pub(crate) fn get_entry(r: &mut Reader<'_>) -> Result<LogEntry, BinError> {
    let at = r.offset();
    match r.byte()? {
        TAG_PRELOG => Ok(LogEntry::Prelog {
            eblock: EBlockId(r.varint()? as u32),
            instance: r.varint()?,
            values: get_values(r)?,
            time: r.varint()?,
        }),
        TAG_POSTLOG => Ok(LogEntry::Postlog {
            eblock: EBlockId(r.varint()? as u32),
            instance: r.varint()?,
            values: get_values(r)?,
            ret: match r.byte()? {
                0 => None,
                _ => Some(get_value(r)?),
            },
            time: r.varint()?,
        }),
        TAG_SHARED => Ok(LogEntry::SharedSnapshot {
            at: match r.byte()? {
                0 => None,
                _ => Some(StmtId(r.varint()? as u32)),
            },
            values: get_values(r)?,
            time: r.varint()?,
        }),
        TAG_INPUT => Ok(LogEntry::Input { value: r.signed()?, time: r.varint()? }),
        TAG_RECEIVE => Ok(LogEntry::Receive { value: r.signed()?, time: r.varint()? }),
        TAG_ELEMENT => Ok(LogEntry::ElementRead { value: r.signed()?, time: r.varint()? }),
        t => Err(BinError::new(BinErrorKind::BadTag(t), at)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One entry of every kind, with extreme and array values.
    fn sample_entries() -> Vec<LogEntry> {
        vec![
            LogEntry::Prelog {
                eblock: EBlockId(0),
                instance: 0,
                values: vec![(VarId(0), Value::Int(-7)), (VarId(3), Value::Array(vec![1, -2, 3]))],
                time: 1,
            },
            LogEntry::Input { value: i64::MIN, time: 2 },
            LogEntry::SharedSnapshot {
                at: Some(StmtId(9)),
                values: vec![(VarId(1), Value::Int(0))],
                time: 3,
            },
            LogEntry::Postlog {
                eblock: EBlockId(0),
                instance: 0,
                values: vec![(VarId(2), Value::Int(1 << 40))],
                ret: Some(Value::Int(-1)),
                time: 4,
            },
            LogEntry::Receive { value: 99, time: 5 },
            LogEntry::ElementRead { value: -99, time: 6 },
            LogEntry::SharedSnapshot { at: None, values: vec![], time: 7 },
        ]
    }

    fn encode_all(entries: &[LogEntry]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in entries {
            put_entry(&mut out, e);
        }
        out
    }

    /// Decodes `n` entries, tagging any error with `context` as the
    /// segment reader does.
    fn decode_all(bytes: &[u8], base: usize, n: usize) -> Result<Vec<LogEntry>, BinError> {
        let mut r = Reader::with_base(bytes, base);
        (0..n).map(|_| get_entry(&mut r).map_err(|e| e.with_context("p0001-s000000.seg"))).collect()
    }

    #[test]
    fn binary_round_trip_preserves_every_entry() {
        let entries = sample_entries();
        let bytes = encode_all(&entries);
        assert_eq!(decode_all(&bytes, 0, entries.len()).expect("decodes"), entries);
    }

    #[test]
    fn truncated_entry_is_rejected_at_the_cut() {
        let entries = sample_entries();
        let mut bytes = encode_all(&entries);
        bytes.truncate(bytes.len() - 1);
        let err = decode_all(&bytes, 100, entries.len()).unwrap_err();
        assert_eq!(err.kind, BinErrorKind::UnexpectedEof);
        assert_eq!(err.offset, 100 + bytes.len(), "offset names the truncation point");
        assert_eq!(err.context.as_deref(), Some("p0001-s000000.seg"));
        assert_eq!(decode_all(&[], 0, 1).unwrap_err().kind, BinErrorKind::UnexpectedEof);
    }

    #[test]
    fn bit_flipped_entry_reports_offset_and_segment() {
        let entries = sample_entries();
        let mut bytes = encode_all(&entries);
        // Corrupt the tag of the Receive entry (the fifth).
        let at = encode_all(&entries[..4]).len();
        bytes[at] ^= 0xE0;
        let err = decode_all(&bytes, 0, entries.len()).unwrap_err();
        assert_eq!(err.kind, BinErrorKind::BadTag(TAG_RECEIVE ^ 0xE0));
        assert_eq!(err.offset, at, "error pinpoints the flipped byte");
        let msg = err.to_string();
        assert!(msg.contains(&format!("at byte {at}")), "{msg}");
        assert!(msg.contains("p0001-s000000.seg"), "{msg}");
    }
}
