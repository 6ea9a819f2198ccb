//! Durable event-series files: the trace pipeline's on-disk format.
//!
//! A collection run streams [`TraceEvent`]s (and the rarer
//! `RecoveryEvent`s plus periodic ledger snapshots) into a single
//! append-only file through `EventFileWriter`. The format is built for
//! post-hoc forensics on runs far larger than memory:
//!
//! * **Versioned header** — magic, format version, flags, the policy
//!   generation in force when the file was opened, and the collection
//!   profile name, so a file is self-describing.
//! * **Length-prefixed records** — each record is `kind (1) · len (4) ·
//!   payload (len) · fnv1a-32 checksum (4)`, so a reader can skip, a
//!   truncated tail is detectable ([`FileError::Truncated`]) and a
//!   flipped bit is detectable ([`FileError::Corrupt`]).
//! * **Writer-assigned sequence numbers** — every record carries a
//!   monotonic `seq`, making sorts *stable*: two events with the same
//!   virtual timestamp (common across policy generations, where a commit
//!   does not advance virtual time) keep their emission order.
//! * **Streamed, bounded writes** — the writer holds one `BufWriter`
//!   block; memory use is independent of trace length, so a 1M-frame
//!   sweep never OOMs.
//!
//! [`EventFileReader`] streams records back (it is an `Iterator`);
//! [`sort_file`] rewrites a file ordered by `(at, seq)` and sets the
//! sorted flag; [`EventSeries`] loads a (small) file whole and offers a
//! binary-search [`EventSeries::seek`] on sorted series.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::Ipv4Addr;
use std::path::Path;

use pkt::{FiveTuple, IpProto};
use sim::Time;

use crate::event::{
    DropCause, Owner, RecoveryEvent, RecoveryKind, Stage, TraceEvent, TraceVerdict,
};

/// File magic: the first eight bytes of every event-series file.
pub(crate) const MAGIC: &[u8; 8] = b"NRMTRACE";

/// Current (and only) format version.
pub(crate) const FORMAT_VERSION: u16 = 1;

/// Header flag: records are sorted by `(at, seq)` (set by [`sort_file`]).
pub(crate) const FLAG_SORTED: u16 = 1 << 0;

/// Largest accepted record payload; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_PAYLOAD: u32 = 1 << 20;

const REC_EVENT: u8 = 1;
const REC_RECOVERY: u8 = 2;
const REC_LEDGER: u8 = 3;
const REC_FIN: u8 = 4;

/// Typed failure reading or writing an event-series file.
#[derive(Debug)]
pub enum FileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with `MAGIC` — not an event-series file.
    BadMagic,
    /// The file's format version is not one this reader understands.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The file ends mid-record (e.g. the recorder died mid-write).
    Truncated {
        /// Byte offset of the record whose tail is missing.
        offset: u64,
    },
    /// A structurally invalid record: checksum mismatch, unknown record
    /// kind, out-of-range enum index, or an oversized length prefix.
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What check failed.
        what: &'static str,
    },
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "i/o error: {e}"),
            FileError::BadMagic => write!(f, "not an event-series file (bad magic)"),
            FileError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (want {FORMAT_VERSION})"
                )
            }
            FileError::Truncated { offset } => {
                write!(f, "file truncated mid-record at byte {offset}")
            }
            FileError::Corrupt { offset, what } => {
                write!(f, "corrupt record at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for FileError {}

impl From<io::Error> for FileError {
    fn from(e: io::Error) -> FileError {
        FileError::Io(e)
    }
}

/// Parsed file header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version.
    pub(crate) version: u16,
    /// Whether the file's records are sorted by `(at, seq)`.
    pub sorted: bool,
    /// Policy generation in force when the file was opened.
    pub generation: u64,
    /// Name of the collection profile that produced the file.
    pub profile: String,
}

/// A [`TraceEvent`] plus the writer-assigned sequence number that makes
/// sorting stable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqEvent {
    /// Monotonic per-file sequence number (write order).
    pub seq: u64,
    /// The recorded lifecycle event.
    pub event: TraceEvent,
}

/// A `RecoveryEvent` plus its sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqRecovery {
    /// Monotonic per-file sequence number (write order).
    pub(crate) seq: u64,
    /// The recorded failure-domain transition.
    pub(crate) event: RecoveryEvent,
}

/// A point-in-time copy of the hub's never-evicting ledger, written at
/// every spill so conservation ("every drop in the ledger appears in the
/// file") is checkable from the file alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Monotonic per-file sequence number (write order).
    pub(crate) seq: u64,
    /// Per-stage event totals at snapshot time.
    pub(crate) stage_counts: [u64; Stage::COUNT],
    /// Per-cause drop totals at snapshot time.
    pub drop_counts: [u64; DropCause::COUNT],
    /// Events evicted from the in-memory ring at snapshot time (the file
    /// is not affected by ring eviction; this records memory pressure).
    pub(crate) evicted: u64,
}

/// Terminal record written by `EventFileWriter::finish`; its absence
/// means the recorder did not close the file cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinRecord {
    /// Monotonic per-file sequence number (write order).
    pub(crate) seq: u64,
    /// Total records written (including this one).
    pub(crate) records: u64,
    /// Total trace events written.
    pub(crate) events: u64,
}

/// One decoded record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A per-frame lifecycle event.
    Event(SeqEvent),
    /// A failure-domain transition.
    Recovery(SeqRecovery),
    /// A ledger snapshot (spill checkpoint). Boxed: snapshots are rare
    /// (one per spill) but ~4× the size of an event, and the enum's
    /// footprint is paid by every record moved through the reader.
    Ledger(Box<LedgerSnapshot>),
    /// Clean end-of-stream marker.
    Fin(FinRecord),
}

/// Writer-side statistics, returned by `EventFileWriter::finish`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Records written (all kinds).
    pub(crate) records: u64,
    /// Trace events written.
    pub events: u64,
    /// Recovery events written.
    pub(crate) recoveries: u64,
    /// Ledger snapshots written.
    pub(crate) ledgers: u64,
    /// Payload + framing bytes written (excludes the header).
    pub bytes: u64,
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in bytes {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    put_u16(out, bytes.len().min(u16::MAX as usize) as u16);
    out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

const VERDICT_PASS: u8 = 0;
const VERDICT_HIT: u8 = 1;
const VERDICT_MISS: u8 = 2;
const VERDICT_CLASS: u8 = 3;
const VERDICT_SLOWPATH: u8 = 4;
const VERDICT_DROP: u8 = 5;

const EVF_TUPLE: u8 = 1 << 0;
const EVF_OWNER: u8 = 1 << 1;

fn encode_event(seq: u64, e: &TraceEvent) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    put_u64(&mut p, seq);
    put_u64(&mut p, e.frame_id);
    put_u64(&mut p, e.at.0);
    put_u64(&mut p, e.generation);
    put_u32(&mut p, e.len);
    p.push(e.stage.index() as u8);
    match e.verdict {
        TraceVerdict::Pass => p.push(VERDICT_PASS),
        TraceVerdict::Hit => p.push(VERDICT_HIT),
        TraceVerdict::Miss => p.push(VERDICT_MISS),
        TraceVerdict::Class(c) => {
            p.push(VERDICT_CLASS);
            put_u32(&mut p, c);
        }
        TraceVerdict::SlowPath => p.push(VERDICT_SLOWPATH),
        TraceVerdict::Drop(cause) => {
            p.push(VERDICT_DROP);
            p.push(cause.index() as u8);
        }
    }
    let mut flags = 0u8;
    if e.tuple.is_some() {
        flags |= EVF_TUPLE;
    }
    if e.owner.is_some() {
        flags |= EVF_OWNER;
    }
    p.push(flags);
    if let Some(t) = &e.tuple {
        p.extend_from_slice(&t.src_ip.octets());
        p.extend_from_slice(&t.dst_ip.octets());
        put_u16(&mut p, t.src_port);
        put_u16(&mut p, t.dst_port);
        p.push(t.proto.0);
    }
    if let Some(o) = &e.owner {
        put_u32(&mut p, o.uid);
        put_u32(&mut p, o.pid);
        put_str(&mut p, &o.comm);
    }
    p
}

fn encode_recovery(seq: u64, e: &RecoveryEvent) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    put_u64(&mut p, seq);
    put_u64(&mut p, e.at.0);
    p.push(e.kind.index() as u8);
    put_str(&mut p, &e.detail);
    p
}

fn encode_ledger(
    seq: u64,
    stage_counts: &[u64; Stage::COUNT],
    drop_counts: &[u64; DropCause::COUNT],
    evicted: u64,
) -> Vec<u8> {
    let mut p = Vec::with_capacity(16 + 8 * (Stage::COUNT + DropCause::COUNT));
    put_u64(&mut p, seq);
    p.push(Stage::COUNT as u8);
    for c in stage_counts {
        put_u64(&mut p, *c);
    }
    p.push(DropCause::COUNT as u8);
    for c in drop_counts {
        put_u64(&mut p, *c);
    }
    put_u64(&mut p, evicted);
    p
}

/// Streaming cursor over a record payload; every read is bounds-checked
/// so a short or oversized payload decodes to [`FileError::Corrupt`].
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    offset: u64,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], offset: u64) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            offset,
        }
    }

    fn corrupt(&self, what: &'static str) -> FileError {
        FileError::Corrupt {
            offset: self.offset,
            what,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FileError> {
        if self.pos + n > self.buf.len() {
            return Err(self.corrupt("payload shorter than its fields"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FileError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FileError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FileError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FileError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, FileError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("non-utf8 string"))
    }

    fn done(&self) -> Result<(), FileError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt("trailing bytes in payload"));
        }
        Ok(())
    }
}

fn decode_event(p: &[u8], offset: u64) -> Result<SeqEvent, FileError> {
    let mut d = Dec::new(p, offset);
    let seq = d.u64()?;
    let frame_id = d.u64()?;
    let at = Time(d.u64()?);
    let generation = d.u64()?;
    let len = d.u32()?;
    let stage_idx = d.u8()? as usize;
    let stage = *Stage::ALL
        .get(stage_idx)
        .ok_or_else(|| d.corrupt("stage index out of range"))?;
    let verdict = match d.u8()? {
        VERDICT_PASS => TraceVerdict::Pass,
        VERDICT_HIT => TraceVerdict::Hit,
        VERDICT_MISS => TraceVerdict::Miss,
        VERDICT_CLASS => TraceVerdict::Class(d.u32()?),
        VERDICT_SLOWPATH => TraceVerdict::SlowPath,
        VERDICT_DROP => {
            let cause_idx = d.u8()? as usize;
            TraceVerdict::Drop(
                *DropCause::ALL
                    .get(cause_idx)
                    .ok_or_else(|| d.corrupt("drop cause index out of range"))?,
            )
        }
        _ => return Err(d.corrupt("unknown verdict tag")),
    };
    let flags = d.u8()?;
    let tuple = if flags & EVF_TUPLE != 0 {
        let src = d.take(4)?;
        let dst = d.take(4)?;
        let src_ip = Ipv4Addr::new(src[0], src[1], src[2], src[3]);
        let dst_ip = Ipv4Addr::new(dst[0], dst[1], dst[2], dst[3]);
        let src_port = d.u16()?;
        let dst_port = d.u16()?;
        let proto = IpProto(d.u8()?);
        Some(FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        })
    } else {
        None
    };
    let owner = if flags & EVF_OWNER != 0 {
        let uid = d.u32()?;
        let pid = d.u32()?;
        let comm = d.str()?;
        Some(Owner {
            uid,
            pid,
            comm: comm.into(),
        })
    } else {
        None
    };
    d.done()?;
    Ok(SeqEvent {
        seq,
        event: TraceEvent {
            frame_id,
            at,
            stage,
            verdict,
            tuple,
            len,
            owner,
            generation,
        },
    })
}

fn decode_recovery(p: &[u8], offset: u64) -> Result<SeqRecovery, FileError> {
    let mut d = Dec::new(p, offset);
    let seq = d.u64()?;
    let at = Time(d.u64()?);
    let kind_idx = d.u8()? as usize;
    let kind = *RecoveryKind::ALL
        .get(kind_idx)
        .ok_or_else(|| d.corrupt("recovery kind index out of range"))?;
    let detail = d.str()?;
    d.done()?;
    Ok(SeqRecovery {
        seq,
        event: RecoveryEvent { at, kind, detail },
    })
}

fn decode_ledger(p: &[u8], offset: u64) -> Result<LedgerSnapshot, FileError> {
    let mut d = Dec::new(p, offset);
    let seq = d.u64()?;
    if d.u8()? as usize != Stage::COUNT {
        return Err(d.corrupt("stage-count mismatch"));
    }
    let mut stage_counts = [0u64; Stage::COUNT];
    for c in stage_counts.iter_mut() {
        *c = d.u64()?;
    }
    if d.u8()? as usize != DropCause::COUNT {
        return Err(d.corrupt("drop-cause-count mismatch"));
    }
    let mut drop_counts = [0u64; DropCause::COUNT];
    for c in drop_counts.iter_mut() {
        *c = d.u64()?;
    }
    let evicted = d.u64()?;
    d.done()?;
    Ok(LedgerSnapshot {
        seq,
        stage_counts,
        drop_counts,
        evicted,
    })
}

fn decode_fin(p: &[u8], offset: u64) -> Result<FinRecord, FileError> {
    let mut d = Dec::new(p, offset);
    let seq = d.u64()?;
    let records = d.u64()?;
    let events = d.u64()?;
    d.done()?;
    Ok(FinRecord {
        seq,
        records,
        events,
    })
}

/// Streaming writer for an event-series file. Buffering is one
/// `BufWriter` block regardless of trace length.
pub(crate) struct EventFileWriter {
    w: BufWriter<File>,
    next_seq: u64,
    stats: SinkStats,
    finished: bool,
}

impl EventFileWriter {
    /// Creates (truncating) `path` and writes the header.
    pub(crate) fn create(
        path: &Path,
        profile: &str,
        generation: u64,
    ) -> Result<EventFileWriter, FileError> {
        EventFileWriter::create_with_flags(path, profile, generation, 0)
    }

    fn create_with_flags(
        path: &Path,
        profile: &str,
        generation: u64,
        flags: u16,
    ) -> Result<EventFileWriter, FileError> {
        let mut w = BufWriter::new(File::create(path)?);
        let mut header = Vec::with_capacity(32 + profile.len());
        header.extend_from_slice(MAGIC);
        put_u16(&mut header, FORMAT_VERSION);
        put_u16(&mut header, flags);
        put_u64(&mut header, generation);
        put_str(&mut header, profile);
        w.write_all(&header)?;
        Ok(EventFileWriter {
            w,
            next_seq: 0,
            stats: SinkStats::default(),
            finished: false,
        })
    }

    fn append_raw(&mut self, kind: u8, payload: &[u8]) -> Result<(), FileError> {
        self.w.write_all(&[kind])?;
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.w.write_all(payload)?;
        self.w.write_all(&fnv1a(payload).to_le_bytes())?;
        self.stats.records += 1;
        self.stats.bytes += 9 + payload.len() as u64;
        Ok(())
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq = s + 1;
        s
    }

    /// Appends a lifecycle event, returning its sequence number.
    pub(crate) fn append_event(&mut self, e: &TraceEvent) -> Result<u64, FileError> {
        let seq = self.alloc_seq();
        let p = encode_event(seq, e);
        self.append_raw(REC_EVENT, &p)?;
        self.stats.events += 1;
        Ok(seq)
    }

    /// Appends an event preserving a previously assigned sequence number
    /// (used by [`sort_file`] so sorted output keeps original seqs).
    fn append_event_seq(&mut self, se: &SeqEvent) -> Result<(), FileError> {
        self.next_seq = self.next_seq.max(se.seq + 1);
        let p = encode_event(se.seq, &se.event);
        self.append_raw(REC_EVENT, &p)?;
        self.stats.events += 1;
        Ok(())
    }

    /// Appends a failure-domain transition.
    pub(crate) fn append_recovery(&mut self, e: &RecoveryEvent) -> Result<u64, FileError> {
        let seq = self.alloc_seq();
        let p = encode_recovery(seq, e);
        self.append_raw(REC_RECOVERY, &p)?;
        self.stats.recoveries += 1;
        Ok(seq)
    }

    fn append_recovery_seq(&mut self, se: &SeqRecovery) -> Result<(), FileError> {
        self.next_seq = self.next_seq.max(se.seq + 1);
        let p = encode_recovery(se.seq, &se.event);
        self.append_raw(REC_RECOVERY, &p)?;
        self.stats.recoveries += 1;
        Ok(())
    }

    /// Appends a ledger snapshot (spill checkpoint).
    pub(crate) fn append_ledger(
        &mut self,
        stage_counts: &[u64; Stage::COUNT],
        drop_counts: &[u64; DropCause::COUNT],
        evicted: u64,
    ) -> Result<u64, FileError> {
        let seq = self.alloc_seq();
        let p = encode_ledger(seq, stage_counts, drop_counts, evicted);
        self.append_raw(REC_LEDGER, &p)?;
        self.stats.ledgers += 1;
        Ok(seq)
    }

    fn append_ledger_snapshot(&mut self, l: &LedgerSnapshot) -> Result<(), FileError> {
        self.next_seq = self.next_seq.max(l.seq + 1);
        let p = encode_ledger(l.seq, &l.stage_counts, &l.drop_counts, l.evicted);
        self.append_raw(REC_LEDGER, &p)?;
        self.stats.ledgers += 1;
        Ok(())
    }

    /// Flushes buffered bytes to the OS (a spill point).
    pub(crate) fn flush(&mut self) -> Result<(), FileError> {
        self.w.flush()?;
        Ok(())
    }

    /// Writes the fin record and flushes; the file is now cleanly closed.
    pub(crate) fn finish(mut self) -> Result<SinkStats, FileError> {
        let seq = self.alloc_seq();
        let mut p = Vec::with_capacity(24);
        put_u64(&mut p, seq);
        put_u64(&mut p, self.stats.records + 1);
        put_u64(&mut p, self.stats.events);
        self.append_raw(REC_FIN, &p)?;
        self.w.flush()?;
        self.finished = true;
        Ok(self.stats)
    }
}

impl Drop for EventFileWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort flush so an un-finished file is truncated at a
            // record boundary, not mid-record.
            let _ = self.w.flush();
        }
    }
}

/// Streaming reader over an event-series file. Iterate it for records;
/// memory use is one record at a time.
pub struct EventFileReader {
    r: BufReader<File>,
    /// The parsed file header.
    pub header: Header,
    offset: u64,
    done: bool,
    /// The fin record, once encountered (clean-close marker).
    pub(crate) fin: Option<FinRecord>,
}

impl EventFileReader {
    /// Opens `path` and parses the header.
    pub fn open(path: &Path) -> Result<EventFileReader, FileError> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(|_| FileError::BadMagic)?;
        if &magic != MAGIC {
            return Err(FileError::BadMagic);
        }
        let mut fixed = [0u8; 12];
        r.read_exact(&mut fixed)
            .map_err(|_| FileError::Truncated { offset: 8 })?;
        let version = u16::from_le_bytes([fixed[0], fixed[1]]);
        if version != FORMAT_VERSION {
            return Err(FileError::BadVersion { found: version });
        }
        let flags = u16::from_le_bytes([fixed[2], fixed[3]]);
        let generation = u64::from_le_bytes(fixed[4..12].try_into().unwrap());
        let mut nlen = [0u8; 2];
        r.read_exact(&mut nlen)
            .map_err(|_| FileError::Truncated { offset: 20 })?;
        let nlen = u16::from_le_bytes(nlen) as usize;
        let mut name = vec![0u8; nlen];
        r.read_exact(&mut name)
            .map_err(|_| FileError::Truncated { offset: 22 })?;
        let profile = String::from_utf8(name).map_err(|_| FileError::Corrupt {
            offset: 22,
            what: "non-utf8 profile name",
        })?;
        let offset = 22 + nlen as u64;
        Ok(EventFileReader {
            r,
            header: Header {
                version,
                sorted: flags & FLAG_SORTED != 0,
                generation,
                profile,
            },
            offset,
            done: false,
            fin: None,
        })
    }

    /// Reads the next record; `Ok(None)` at a clean end of stream.
    pub(crate) fn next_record(&mut self) -> Result<Option<Record>, FileError> {
        if self.done {
            return Ok(None);
        }
        let rec_off = self.offset;
        let mut kind = [0u8; 1];
        if self.r.read(&mut kind)? == 0 {
            self.done = true;
            return Ok(None);
        }
        let mut len = [0u8; 4];
        self.r
            .read_exact(&mut len)
            .map_err(|_| FileError::Truncated { offset: rec_off })?;
        let len = u32::from_le_bytes(len);
        if len > MAX_PAYLOAD {
            return Err(FileError::Corrupt {
                offset: rec_off,
                what: "oversized record length",
            });
        }
        let mut payload = vec![0u8; len as usize];
        self.r
            .read_exact(&mut payload)
            .map_err(|_| FileError::Truncated { offset: rec_off })?;
        let mut crc = [0u8; 4];
        self.r
            .read_exact(&mut crc)
            .map_err(|_| FileError::Truncated { offset: rec_off })?;
        if u32::from_le_bytes(crc) != fnv1a(&payload) {
            return Err(FileError::Corrupt {
                offset: rec_off,
                what: "checksum mismatch",
            });
        }
        self.offset += 9 + u64::from(len);
        let rec = match kind[0] {
            REC_EVENT => Record::Event(decode_event(&payload, rec_off)?),
            REC_RECOVERY => Record::Recovery(decode_recovery(&payload, rec_off)?),
            REC_LEDGER => Record::Ledger(Box::new(decode_ledger(&payload, rec_off)?)),
            REC_FIN => {
                let fin = decode_fin(&payload, rec_off)?;
                self.fin = Some(fin);
                Record::Fin(fin)
            }
            _ => {
                return Err(FileError::Corrupt {
                    offset: rec_off,
                    what: "unknown record kind",
                })
            }
        };
        Ok(Some(rec))
    }
}

impl Iterator for EventFileReader {
    type Item = Result<Record, FileError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// An event-series file loaded whole — for tests, small traces, and
/// seekable queries. Large traces should stream via [`EventFileReader`]
/// (the flow tracker does).
#[derive(Clone, Debug)]
pub struct EventSeries {
    /// The file header.
    pub header: Header,
    /// All trace events, file order.
    pub events: Vec<SeqEvent>,
    /// All recovery events, file order.
    pub(crate) recoveries: Vec<SeqRecovery>,
    /// The last ledger snapshot in the file, if any.
    pub(crate) ledger: Option<LedgerSnapshot>,
    /// The fin record, if the file was cleanly closed.
    pub fin: Option<FinRecord>,
}

impl EventSeries {
    /// Loads `path` whole.
    pub fn load(path: &Path) -> Result<EventSeries, FileError> {
        let mut r = EventFileReader::open(path)?;
        let header = r.header.clone();
        let mut events = Vec::new();
        let mut recoveries = Vec::new();
        let mut ledger = None;
        let mut fin = None;
        while let Some(rec) = r.next_record()? {
            match rec {
                Record::Event(e) => events.push(e),
                Record::Recovery(e) => recoveries.push(e),
                Record::Ledger(l) => ledger = Some(*l),
                Record::Fin(f) => fin = Some(f),
            }
        }
        Ok(EventSeries {
            header,
            events,
            recoveries,
            ledger,
            fin,
        })
    }

    /// On a sorted series, the index of the first event at or after `t`
    /// (binary search — the reader-side "seek"). On unsorted series this
    /// scans.
    pub fn seek(&self, t: Time) -> usize {
        if self.header.sorted {
            self.events.partition_point(|e| e.event.at < t)
        } else {
            self.events
                .iter()
                .position(|e| e.event.at >= t)
                .unwrap_or(self.events.len())
        }
    }
}

/// Statistics from a [`sort_file`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Trace events written to the sorted file.
    pub events: u64,
    /// Recovery events carried over.
    pub(crate) recoveries: u64,
    /// Ledger snapshots carried over.
    pub(crate) ledgers: u64,
    /// Bytes written (excluding the header).
    pub(crate) bytes: u64,
}

/// Rewrites `input` into `output` with events and recoveries ordered by
/// `(at, seq)` and the sorted header flag set. The sort is stable across
/// policy generations: events sharing a virtual timestamp keep their
/// original write order because `seq` breaks the tie. Ledger snapshots
/// (cumulative, order-free) are appended after the timed records.
pub fn sort_file(input: &Path, output: &Path) -> Result<SortStats, FileError> {
    let series = EventSeries::load(input)?;
    let mut timed: Vec<Record> = Vec::with_capacity(series.events.len() + series.recoveries.len());
    timed.extend(series.events.into_iter().map(Record::Event));
    timed.extend(series.recoveries.into_iter().map(Record::Recovery));
    timed.sort_by_key(|r| match r {
        Record::Event(e) => (e.event.at.0, e.seq),
        Record::Recovery(e) => (e.event.at.0, e.seq),
        _ => unreachable!(),
    });
    let mut w = EventFileWriter::create_with_flags(
        output,
        &series.header.profile,
        series.header.generation,
        FLAG_SORTED,
    )?;
    for rec in &timed {
        match rec {
            Record::Event(e) => w.append_event_seq(e)?,
            Record::Recovery(e) => w.append_recovery_seq(e)?,
            _ => unreachable!(),
        }
    }
    if let Some(l) = &series.ledger {
        w.append_ledger_snapshot(l)?;
    }
    let stats = w.finish()?;
    Ok(SortStats {
        events: stats.events,
        recoveries: stats.recoveries,
        ledgers: stats.ledgers,
        bytes: stats.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "norman-telemetry-file-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    fn sample_event(i: u64) -> TraceEvent {
        TraceEvent {
            frame_id: i,
            at: Time(1000 * i),
            stage: Stage::ALL[(i as usize) % Stage::COUNT],
            verdict: match i % 4 {
                0 => TraceVerdict::Pass,
                1 => TraceVerdict::Drop(DropCause::ALL[(i as usize) % DropCause::COUNT]),
                2 => TraceVerdict::Class(i as u32),
                _ => TraceVerdict::SlowPath,
            },
            tuple: i.is_multiple_of(2).then(|| FiveTuple {
                src_ip: Ipv4Addr::new(10, 0, 0, (i % 250) as u8 + 1),
                dst_ip: Ipv4Addr::new(10, 0, 1, 1),
                src_port: 9000 + (i as u16 % 100),
                dst_port: 5432,
                proto: IpProto::UDP,
            }),
            len: 64 + (i as u32 % 1400),
            owner: i
                .is_multiple_of(3)
                .then(|| Owner::new(1000 + (i as u32 % 3), i as u32, "svc")),
            generation: i / 10,
        }
    }

    #[test]
    fn round_trip_preserves_events() {
        let path = tmp("roundtrip");
        let mut w = EventFileWriter::create(&path, "test", 7).unwrap();
        let events: Vec<TraceEvent> = (0..100).map(sample_event).collect();
        for e in &events {
            w.append_event(e).unwrap();
        }
        w.append_recovery(&RecoveryEvent {
            at: Time(42),
            kind: RecoveryKind::NicCrash,
            detail: "boom".into(),
        })
        .unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.events, 100);

        let series = EventSeries::load(&path).unwrap();
        assert_eq!(series.header.profile, "test");
        assert_eq!(series.header.generation, 7);
        assert!(!series.header.sorted);
        assert!(series.fin.is_some());
        let got: Vec<TraceEvent> = series.events.iter().map(|e| e.event.clone()).collect();
        assert_eq!(got, events);
        assert_eq!(series.recoveries.len(), 1);
        assert_eq!(series.recoveries[0].event.detail, "boom");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_yields_typed_error() {
        let path = tmp("trunc");
        let mut w = EventFileWriter::create(&path, "test", 0).unwrap();
        for i in 0..10 {
            w.append_event(&sample_event(i)).unwrap();
        }
        w.finish().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let mut r = EventFileReader::open(&path).unwrap();
        let err = loop {
            match r.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncation not detected"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FileError::Truncated { .. }), "{err:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_yields_typed_error() {
        let path = tmp("corrupt");
        let mut w = EventFileWriter::create(&path, "test", 0).unwrap();
        w.append_event(&sample_event(3)).unwrap();
        w.finish().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the first record's payload (past header+frame).
        let idx = 22 + "test".len() + 9 + 4;
        bytes[idx] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mut r = EventFileReader::open(&path).unwrap();
        let err = r.next_record().unwrap_err();
        assert!(matches!(err, FileError::Corrupt { .. }), "{err:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let path = tmp("magic");
        fs::write(&path, b"NOTATRACEFILE.....").unwrap();
        assert!(matches!(
            EventFileReader::open(&path),
            Err(FileError::BadMagic)
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        bytes.extend_from_slice(&0u16.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EventFileReader::open(&path),
            Err(FileError::BadVersion { found: 99 })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sort_is_stable_across_generations() {
        let path = tmp("sort-in");
        let out = tmp("sort-out");
        let mut w = EventFileWriter::create(&path, "test", 0).unwrap();
        // Same timestamp, different generations, written interleaved:
        // the sort must preserve write order (seq) within equal times.
        for i in 0..20u64 {
            let mut e = sample_event(i);
            e.at = Time(if i % 2 == 0 { 500 } else { 100 });
            e.generation = i % 3;
            w.append_event(&e).unwrap();
        }
        w.finish().unwrap();
        sort_file(&path, &out).unwrap();
        let series = EventSeries::load(&out).unwrap();
        assert!(series.header.sorted);
        let mut last = (0u64, 0u64);
        for e in &series.events {
            let key = (e.event.at.0, e.seq);
            assert!(key >= last, "sorted order violated: {key:?} < {last:?}");
            last = key;
        }
        // All t=100 events precede all t=500 events, each in seq order.
        let t100: Vec<u64> = series
            .events
            .iter()
            .filter(|e| e.event.at.0 == 100)
            .map(|e| e.seq)
            .collect();
        assert!(t100.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(series.seek(Time(500)), t100.len());
        fs::remove_file(&path).unwrap();
        fs::remove_file(&out).unwrap();
    }
}
