//! Segmented write-ahead event journal.
//!
//! Checkpoints capture *committed* progress plus staged events, but a
//! checkpoint only exists where one was written. The journal closes the
//! gap: every acknowledged operation (ingest, query, clock advance) is
//! appended as one length-prefixed, checksummed record, so recovery is
//!
//! > newest *valid* checkpoint + replay of the journal suffix
//!
//! and loses nothing that was acknowledged.
//!
//! # Segments
//!
//! The journal is not one flat buffer: records append into the **open
//! segment**, and once the open segment's record bytes reach
//! [`EventJournal::segment_bytes`] it is **sealed** and a fresh segment
//! opens. Each segment carries its own checksummed header
//! (`[magic "TSNJSEG1"][u64 index][u64 base_record][u32 crc]`), where
//! `base_record` is the global record count before the segment's first
//! record. Two properties follow:
//!
//! * **Bounded recovery.** A checkpoint embeds its replay cursor (a
//!   global record count); [`EventJournal::replay_from`] opens only the
//!   segments holding records at or after the cursor and reports how
//!   many it opened, so replay cost is proportional to data written
//!   since the checkpoint — never to the service's age.
//! * **Garbage collection.** Sealed segments wholly below the oldest
//!   retained checkpoint's cursor can never be replayed again;
//!   [`EventJournal::gc_before`] drops them, which is what keeps the
//!   on-disk footprint bounded on a long-lived host.
//!
//! # Record framing
//!
//! ```text
//! record := [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! [`EventJournal::scan`] walks a segment body left to right and stops
//! at the first invalid record — a length that runs past the buffer (a
//! torn write), a CRC mismatch (corruption), or an undecodable payload.
//! The valid prefix is exactly the set of acknowledged operations: an
//! operation whose record was torn mid-write was never acknowledged, so
//! its client retries it, which is what keeps recovery lossless. The
//! same semantics carry over per segment: replay stops at the first
//! damaged segment (bad header or torn body) and everything after it
//! counts as unacknowledged.
//!
//! Queries and clock advances are journaled alongside ingests on
//! purpose: replaying the journal through the normal apply path then
//! reproduces the service's stats and clock — not just its scores —
//! bit-for-bit.

use crate::event::{ServiceEvent, ServiceOp};
use tsn_reputation::InteractionOutcome;
use tsn_simnet::codec::{crc32, ByteReader, ByteWriter};
use tsn_simnet::{NodeId, SimTime};

/// Magic bytes opening every segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"TSNJSEG1";

/// Fixed size of a segment header: magic + index + base record + CRC.
pub const SEGMENT_HEADER_LEN: usize = 8 + 8 + 8 + 4;

/// Default seal threshold for the open segment's record bytes.
pub const DEFAULT_SEGMENT_BYTES: usize = 64 * 1024;

/// Magic bytes opening a journal manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"TSNJMAN1";

/// One journaled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// An applied workload operation (ingest or query).
    Op(ServiceOp),
    /// An explicit clock advance (e.g. an epoch close) that is not
    /// attached to any operation.
    Advance {
        /// The time the clock advanced to.
        at: SimTime,
    },
}

impl JournalRecord {
    /// The record's position on the sim clock.
    pub fn at(&self) -> SimTime {
        match *self {
            JournalRecord::Op(op) => op.at(),
            JournalRecord::Advance { at } => at,
        }
    }
}

/// Encodes a [`ServiceEvent`] (shared with the checkpoint's staged
/// section, so the two formats cannot drift).
pub(crate) fn encode_event(w: &mut ByteWriter, event: &ServiceEvent) {
    match *event {
        ServiceEvent::Interaction {
            rater,
            ratee,
            outcome,
            at,
        } => {
            w.put_u8(0);
            w.put_u32(rater.0);
            w.put_u32(ratee.0);
            w.put_u8(outcome.is_success() as u8);
            w.put_f64(outcome.value());
            w.put_u64(at.as_micros());
        }
        ServiceEvent::Disclosure {
            node,
            respected,
            at,
        } => {
            w.put_u8(1);
            w.put_u32(node.0);
            w.put_u8(respected as u8);
            w.put_u64(at.as_micros());
        }
    }
}

/// Decodes a [`ServiceEvent`] written by [`encode_event`].
pub(crate) fn decode_event(r: &mut ByteReader) -> Result<ServiceEvent, String> {
    match r.take_u8()? {
        0 => {
            let rater = NodeId(r.take_u32()?);
            let ratee = NodeId(r.take_u32()?);
            let success = r.take_u8()? != 0;
            let quality = r.take_f64()?;
            let at = SimTime::from_micros(r.take_u64()?);
            let outcome = if success {
                InteractionOutcome::Success { quality }
            } else {
                InteractionOutcome::Failure
            };
            Ok(ServiceEvent::Interaction {
                rater,
                ratee,
                outcome,
                at,
            })
        }
        1 => Ok(ServiceEvent::Disclosure {
            node: NodeId(r.take_u32()?),
            respected: r.take_u8()? != 0,
            at: SimTime::from_micros(r.take_u64()?),
        }),
        other => Err(format!("unknown event tag {other}")),
    }
}

/// Encodes one record payload (without the framing).
fn encode_record(w: &mut ByteWriter, record: &JournalRecord) {
    match *record {
        JournalRecord::Op(ServiceOp::Ingest(event)) => {
            w.put_u8(0);
            encode_event(w, &event);
        }
        JournalRecord::Op(ServiceOp::QueryTrust { node, at }) => {
            w.put_u8(1);
            w.put_u32(node.0);
            w.put_u64(at.as_micros());
        }
        JournalRecord::Op(ServiceOp::QueryExposure { node, at }) => {
            w.put_u8(2);
            w.put_u32(node.0);
            w.put_u64(at.as_micros());
        }
        JournalRecord::Advance { at } => {
            w.put_u8(3);
            w.put_u64(at.as_micros());
        }
    }
}

/// Decodes one record payload (without the framing).
fn decode_record(r: &mut ByteReader) -> Result<JournalRecord, String> {
    let record = match r.take_u8()? {
        0 => JournalRecord::Op(ServiceOp::Ingest(decode_event(r)?)),
        1 => JournalRecord::Op(ServiceOp::QueryTrust {
            node: NodeId(r.take_u32()?),
            at: SimTime::from_micros(r.take_u64()?),
        }),
        2 => JournalRecord::Op(ServiceOp::QueryExposure {
            node: NodeId(r.take_u32()?),
            at: SimTime::from_micros(r.take_u64()?),
        }),
        3 => JournalRecord::Advance {
            at: SimTime::from_micros(r.take_u64()?),
        },
        other => return Err(format!("unknown journal record tag {other}")),
    };
    if !r.is_empty() {
        return Err(format!(
            "journal record has {} trailing bytes",
            r.remaining()
        ));
    }
    Ok(record)
}

/// Result of scanning one segment body (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// The decoded valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether the scan stopped before the end of the buffer — a torn
    /// tail or a corrupt record. Everything after `torn_at` was never
    /// acknowledged.
    pub torn: bool,
    /// Byte offset where scanning stopped (`bytes.len()` when clean).
    pub torn_at: usize,
    /// Byte offset where the last valid record starts (0 when the
    /// valid prefix is empty) — what keeps torn-write simulation
    /// working on a reloaded segment.
    pub last_start: usize,
}

/// One journal segment: a checksummed header followed by framed,
/// checksummed records. The last segment of a journal is **open**
/// (still appending); every earlier one is **sealed** and immutable.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSegment {
    index: u64,
    base_record: u64,
    /// Header + record frames — what sits on (simulated) disk.
    bytes: Vec<u8>,
    records: u64,
    sealed: bool,
    /// Byte offset of the most recent record (torn-write simulation).
    last_start: usize,
}

impl JournalSegment {
    /// Opens a fresh segment, writing its header.
    fn open(index: u64, base_record: u64) -> Self {
        let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN);
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&index.to_le_bytes());
        bytes.extend_from_slice(&base_record.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        JournalSegment {
            index,
            base_record,
            bytes,
            records: 0,
            sealed: false,
            last_start: SEGMENT_HEADER_LEN,
        }
    }

    /// The segment's position in the journal.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Global record count before this segment's first record.
    pub fn base_record(&self) -> u64 {
        self.base_record
    }

    /// Records held by this segment.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether the segment is sealed (immutable).
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// The segment's size on (simulated) disk, header included.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw segment bytes (header + frames) — what survives a crash
    /// and what journal persistence writes to a file.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The record frames after the header — the slice
    /// [`EventJournal::scan`] walks.
    pub fn body(&self) -> &[u8] {
        &self.bytes[SEGMENT_HEADER_LEN.min(self.bytes.len())..]
    }

    /// Parses and verifies a segment header, returning
    /// `(index, base_record)`.
    ///
    /// # Errors
    ///
    /// Rejects short buffers, bad magic, and a header CRC mismatch.
    pub fn parse_header(bytes: &[u8]) -> Result<(u64, u64), String> {
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err(format!(
                "segment header truncated: {} bytes, need {SEGMENT_HEADER_LEN}",
                bytes.len()
            ));
        }
        if &bytes[..8] != SEGMENT_MAGIC {
            return Err("not a journal segment (bad magic)".into());
        }
        // tsn-lint: allow(no-unwrap, "the header slice length is checked at function entry; fixed offsets cannot misconvert")
        let index = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        // tsn-lint: allow(no-unwrap, "the header slice length is checked at function entry; fixed offsets cannot misconvert")
        let base = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        // tsn-lint: allow(no-unwrap, "the header slice length is checked at function entry; fixed offsets cannot misconvert")
        let stored = u32::from_le_bytes(bytes[24..28].try_into().expect("4-byte slice"));
        let computed = crc32(&bytes[..24]);
        if stored != computed {
            return Err(format!(
                "segment {index} header is corrupt \
                 (stored crc {stored:08x}, computed {computed:08x})"
            ));
        }
        Ok((index, base))
    }

    /// Rebuilds a segment from surviving bytes, keeping only the valid
    /// record prefix (a torn tail is discarded — those operations were
    /// never acknowledged). Returns the segment and its body scan.
    ///
    /// # Errors
    ///
    /// Propagates header parse/CRC failures.
    pub fn from_bytes(bytes: &[u8]) -> Result<(JournalSegment, JournalScan), String> {
        let (index, base_record) = JournalSegment::parse_header(bytes)?;
        let scan = EventJournal::scan(&bytes[SEGMENT_HEADER_LEN..]);
        let keep = SEGMENT_HEADER_LEN + scan.torn_at;
        Ok((
            JournalSegment {
                index,
                base_record,
                bytes: bytes[..keep].to_vec(),
                records: scan.records.len() as u64,
                sealed: false,
                last_start: SEGMENT_HEADER_LEN + scan.last_start,
            },
            scan,
        ))
    }
}

/// What [`EventJournal::replay_from`] produced: the suffix of records
/// to re-apply, plus the segment-open accounting that pins "replay cost
/// is proportional to data since the checkpoint".
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// Records at or after the cursor, in append order.
    pub records: Vec<JournalRecord>,
    /// Live segments actually opened (header verified + body scanned).
    pub segments_opened: usize,
    /// Live segments wholly before the cursor, skipped without opening.
    pub segments_skipped: usize,
    /// Whether the scan hit a torn tail or corrupt record; everything
    /// from there on was never acknowledged.
    pub torn: bool,
}

/// The write-ahead journal: an append-only sequence of checksummed
/// segments (see the module docs for format and semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct EventJournal {
    /// Seal threshold for the open segment's record bytes.
    segment_bytes: usize,
    /// Live segments, ascending index; the last one is open.
    segments: Vec<JournalSegment>,
    /// Sealed segments dropped by GC.
    gc_segments: u64,
    /// Records those segments held.
    gc_records: u64,
    /// Bytes those segments held.
    gc_bytes: u64,
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::with_segment_bytes(DEFAULT_SEGMENT_BYTES)
    }
}

impl EventJournal {
    /// An empty journal with the default segment size.
    pub fn new() -> Self {
        EventJournal::default()
    }

    /// An empty journal sealing segments once their record bytes reach
    /// `segment_bytes` (clamped to at least one frame header's worth).
    pub fn with_segment_bytes(segment_bytes: usize) -> Self {
        EventJournal {
            segment_bytes: segment_bytes.max(16),
            segments: vec![JournalSegment::open(0, 0)],
            gc_segments: 0,
            gc_records: 0,
            gc_bytes: 0,
        }
    }

    /// The seal threshold in use.
    pub fn segment_bytes(&self) -> usize {
        self.segment_bytes
    }

    fn open_segment(&self) -> &JournalSegment {
        self.segments
            .last()
            // tsn-lint: allow(no-unwrap, "segments is never empty: new() seeds an open segment and sealing immediately opens the next")
            .expect("a journal always has an open segment")
    }

    fn open_segment_mut(&mut self) -> &mut JournalSegment {
        self.segments
            .last_mut()
            // tsn-lint: allow(no-unwrap, "segments is never empty: new() seeds an open segment and sealing immediately opens the next")
            .expect("a journal always has an open segment")
    }

    /// Appends one record; returns the record count after the append
    /// (the cursor a checkpoint taken *now* would embed). Seals the open
    /// segment first when it is full.
    pub fn append(&mut self, record: &JournalRecord) -> u64 {
        if self.open_segment().body().len() >= self.segment_bytes && self.open_segment().records > 0
        {
            let (index, base) = {
                let open = self.open_segment_mut();
                open.sealed = true;
                (open.index + 1, open.base_record + open.records)
            };
            self.segments.push(JournalSegment::open(index, base));
        }
        // The frame is encoded in place: reserve its 8-byte header,
        // encode the payload behind it, then patch in length and CRC.
        let open = self.open_segment_mut();
        let start = open.bytes.len();
        let mut w = ByteWriter::from_vec(std::mem::take(&mut open.bytes));
        w.put_u64(0);
        encode_record(&mut w, record);
        open.bytes = w.finish();
        let payload = start + 8;
        let len = (open.bytes.len() - payload) as u32;
        let crc = crc32(&open.bytes[payload..]);
        open.bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
        open.bytes[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
        open.last_start = start;
        open.records += 1;
        self.records()
    }

    /// Records appended over the journal's lifetime (GC'd segments
    /// included — this is the global cursor space checkpoints pin).
    pub fn records(&self) -> u64 {
        let open = self.open_segment();
        open.base_record + open.records
    }

    /// Whether nothing has ever been journaled.
    pub fn is_empty(&self) -> bool {
        self.records() == 0
    }

    /// Live size on (simulated) disk: every retained segment's bytes,
    /// headers included. This is what GC keeps bounded.
    pub fn byte_len(&self) -> usize {
        self.segments.iter().map(|s| s.byte_len()).sum()
    }

    /// Bytes ever written, GC'd segments included.
    pub fn bytes_written(&self) -> u64 {
        self.byte_len() as u64 + self.gc_bytes
    }

    /// The live segments, ascending; the last is the open one.
    pub fn segments(&self) -> &[JournalSegment] {
        &self.segments
    }

    /// Segments created over the journal's lifetime (live + GC'd).
    pub fn segments_created(&self) -> u64 {
        self.gc_segments + self.segments.len() as u64
    }

    /// Sealed segments dropped by [`EventJournal::gc_before`] so far.
    pub fn gc_segments(&self) -> u64 {
        self.gc_segments
    }

    /// Records dropped by GC so far — the floor below which
    /// [`EventJournal::replay_from`] cannot reach.
    pub fn gc_records(&self) -> u64 {
        self.gc_records
    }

    /// The live record frames of every segment, concatenated in order —
    /// a flat view for whole-journal scans in tests and benches.
    pub fn flattened_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        for segment in &self.segments {
            out.extend_from_slice(segment.body());
        }
        out
    }

    /// Simulates a crash mid-append: truncates the open segment inside
    /// its most recent record, leaving a torn tail. Returns `false`
    /// (and does nothing) when the open segment holds no record. The
    /// torn record's operation counts as unacknowledged from here on.
    pub fn tear_last_record(&mut self) -> bool {
        let open = self.open_segment_mut();
        if open.records == 0 {
            return false;
        }
        // Keep the frame header and half the payload: enough bytes that
        // a naive reader would try to parse them, which is the case the
        // CRC exists for.
        let tail = open.bytes.len() - open.last_start;
        open.bytes.truncate(open.last_start + 8 + (tail - 8) / 2);
        open.records -= 1;
        true
    }

    /// Drops any torn tail left in the open segment (after a
    /// [`EventJournal::tear_last_record`] crash was recovered): the
    /// surviving bytes are truncated back to the valid record prefix.
    /// Returns whether anything was dropped.
    pub fn discard_torn_tail(&mut self) -> bool {
        let open = self.open_segment_mut();
        let scan = EventJournal::scan(open.body());
        let keep = SEGMENT_HEADER_LEN + scan.torn_at;
        if keep == open.bytes.len() {
            return false;
        }
        open.bytes.truncate(keep);
        open.records = scan.records.len() as u64;
        open.last_start = SEGMENT_HEADER_LEN + scan.last_start;
        true
    }

    /// Replays the journal suffix from a global record `cursor`: opens
    /// only the segments holding records at or after the cursor (the
    /// bounded-recovery contract) and returns them decoded, with the
    /// open accounting. Replay stops at the first damaged segment —
    /// torn body, corrupt record or bad header — reporting `torn`;
    /// everything from there on was never acknowledged.
    ///
    /// # Errors
    ///
    /// A cursor below the GC floor is unrecoverable: the records it
    /// needs were already collected.
    pub fn replay_from(&self, cursor: u64) -> Result<JournalReplay, String> {
        let floor = self
            .segments
            .first()
            .map_or(self.gc_records, |s| s.base_record.min(self.gc_records));
        if cursor < floor {
            return Err(format!(
                "journal replay cursor {cursor} precedes the GC floor {floor}: \
                 the segments it needs were garbage-collected"
            ));
        }
        let mut replay = JournalReplay {
            records: Vec::new(),
            segments_opened: 0,
            segments_skipped: 0,
            torn: false,
        };
        for segment in &self.segments {
            if segment.base_record + segment.records <= cursor && segment.sealed {
                replay.segments_skipped += 1;
                continue;
            }
            replay.segments_opened += 1;
            if JournalSegment::parse_header(&segment.bytes).is_err() {
                replay.torn = true;
                break;
            }
            let scan = EventJournal::scan(segment.body());
            let skip = cursor.saturating_sub(segment.base_record) as usize;
            replay.records.extend(scan.records.into_iter().skip(skip));
            if scan.torn {
                replay.torn = true;
                break;
            }
        }
        Ok(replay)
    }

    /// Garbage-collects sealed segments whose records all sit strictly
    /// below `cursor` — they can never be replayed once every retained
    /// checkpoint's cursor is at or past it. [`EventJournal::gc_segments`]
    /// counts the segments dropped.
    pub fn gc_before(&mut self, cursor: u64) {
        while let Some(first) = self.segments.first() {
            if !first.sealed || first.base_record + first.records > cursor {
                break;
            }
            let dead = self.segments.remove(0);
            self.gc_segments += 1;
            self.gc_records += dead.records;
            self.gc_bytes += dead.byte_len() as u64;
        }
    }

    /// Serializes the journal's manifest: segment size, GC counters and
    /// one entry per live segment (index, base record, records, sealed
    /// flag, CRC of the segment bytes). Persistence writes this next to
    /// the per-segment files; [`EventJournal::from_storage`] reads it
    /// back.
    pub fn manifest_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MANIFEST_MAGIC);
        w.put_u64(self.segment_bytes as u64);
        w.put_u64(self.gc_segments);
        w.put_u64(self.gc_records);
        w.put_u64(self.gc_bytes);
        w.put_u64(self.segments.len() as u64);
        for segment in &self.segments {
            w.put_u64(segment.index);
            w.put_u64(segment.base_record);
            w.put_u64(segment.records);
            w.put_u8(segment.sealed as u8);
            w.put_u32(crc32(&segment.bytes));
        }
        w.finish()
    }

    /// Rebuilds a journal from a manifest plus a segment loader (e.g.
    /// one reading `seg-<index>` files). Sealed segments must verify
    /// exactly (header, manifest CRC, clean body); the open segment may
    /// carry a torn tail, which is truncated away. A damaged sealed
    /// segment drops it *and everything after it* — the journal keeps
    /// its valid prefix, mirroring the in-segment scan semantics.
    ///
    /// # Errors
    ///
    /// Rejects a malformed manifest; segment damage degrades instead.
    pub fn from_storage(
        manifest: &[u8],
        mut load_segment: impl FnMut(u64) -> Result<Vec<u8>, String>,
    ) -> Result<EventJournal, String> {
        let mut r = ByteReader::new(manifest);
        r.set_context("journal manifest");
        if r.take_bytes()? != MANIFEST_MAGIC {
            return Err("not a journal manifest (bad magic)".into());
        }
        let segment_bytes = r.take_u64()? as usize;
        let gc_segments = r.take_u64()?;
        let gc_records = r.take_u64()?;
        let gc_bytes = r.take_u64()?;
        // Each entry is index, base record and records (3 × u64), the
        // sealed flag (u8) and the CRC (u32): 29 bytes.
        let count = r.take_seq_len(29)?;
        let mut journal = EventJournal {
            segment_bytes: segment_bytes.max(16),
            segments: Vec::with_capacity(count),
            gc_segments,
            gc_records,
            gc_bytes,
        };
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let index = r.take_u64()?;
            let base_record = r.take_u64()?;
            let records = r.take_u64()?;
            let sealed = r.take_u8()? != 0;
            let stored_crc = r.take_u32()?;
            entries.push((index, base_record, records, sealed, stored_crc));
        }
        if !r.is_empty() {
            return Err(format!(
                "journal manifest has {} trailing bytes",
                r.remaining()
            ));
        }
        for (i, (index, base_record, records, sealed, stored_crc)) in
            entries.into_iter().enumerate()
        {
            let last = i + 1 == count;
            let Ok(bytes) = load_segment(index) else {
                journal.truncate_after_damage();
                break;
            };
            let crc_ok = crc32(&bytes) == stored_crc;
            let Ok((mut segment, scan)) = JournalSegment::from_bytes(&bytes) else {
                journal.truncate_after_damage();
                break;
            };
            let intact = crc_ok
                && !scan.torn
                && segment.index == index
                && segment.base_record == base_record;
            if sealed && (!intact || segment.records != records) {
                // A sealed segment must be byte-exact; damage here means
                // everything from this point on is gone.
                journal.truncate_after_damage();
                break;
            }
            segment.sealed = sealed && !last;
            journal.segments.push(segment);
        }
        if journal.segments.is_empty() {
            journal
                .segments
                .push(JournalSegment::open(gc_segments, gc_records));
        } else {
            journal.open_segment_mut().sealed = false;
        }
        Ok(journal)
    }

    /// After a damaged segment during [`EventJournal::from_storage`]:
    /// nothing after the damage survives; reopen a fresh tail so the
    /// journal stays appendable.
    fn truncate_after_damage(&mut self) {
        let (index, base) = self
            .segments
            .last()
            .map(|s| (s.index + 1, s.base_record + s.records))
            .unwrap_or((self.gc_segments, self.gc_records));
        self.segments.push(JournalSegment::open(index, base));
    }

    /// Scans one segment body (a stream of record frames) into its
    /// valid record prefix.
    pub fn scan(bytes: &[u8]) -> JournalScan {
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut last_start = 0usize;
        let torn = loop {
            if pos == bytes.len() {
                break false;
            }
            if pos + 8 > bytes.len() {
                break true;
            }
            let len =
                // tsn-lint: allow(no-unwrap, "frame bounds were checked against the buffer length before slicing")
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
            let stored =
                // tsn-lint: allow(no-unwrap, "frame bounds were checked against the buffer length before slicing")
                u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4-byte slice"));
            let Some(end) = (pos + 8).checked_add(len) else {
                break true;
            };
            if end > bytes.len() {
                break true;
            }
            let payload = &bytes[pos + 8..end];
            if crc32(payload) != stored {
                break true;
            }
            let mut r = ByteReader::new(payload);
            r.set_context("journal record");
            match decode_record(&mut r) {
                Ok(record) => records.push(record),
                Err(_) => break true,
            }
            last_start = pos;
            pos = end;
        };
        JournalScan {
            records,
            torn,
            torn_at: pos,
            last_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Op(ServiceOp::Ingest(ServiceEvent::Interaction {
                rater: NodeId(0),
                ratee: NodeId(1),
                outcome: InteractionOutcome::Success { quality: 0.75 },
                at: SimTime::from_secs(1),
            })),
            JournalRecord::Op(ServiceOp::Ingest(ServiceEvent::Disclosure {
                node: NodeId(2),
                respected: false,
                at: SimTime::from_secs(2),
            })),
            JournalRecord::Op(ServiceOp::QueryTrust {
                node: NodeId(1),
                at: SimTime::from_secs(3),
            }),
            JournalRecord::Op(ServiceOp::QueryExposure {
                node: NodeId(2),
                at: SimTime::from_secs(4),
            }),
            JournalRecord::Advance {
                at: SimTime::from_secs(10),
            },
        ]
    }

    /// A journal of `n` interaction records with a tiny seal threshold,
    /// so tests exercise multiple segments.
    fn segmented_journal(n: usize, segment_bytes: usize) -> (EventJournal, Vec<JournalRecord>) {
        let mut journal = EventJournal::with_segment_bytes(segment_bytes);
        let mut records = Vec::new();
        for i in 0..n {
            let record = JournalRecord::Op(ServiceOp::QueryTrust {
                node: NodeId(i as u32),
                at: SimTime::from_secs(i as u64),
            });
            journal.append(&record);
            records.push(record);
        }
        (journal, records)
    }

    #[test]
    fn round_trips_every_record_kind() {
        let mut journal = EventJournal::new();
        for (i, record) in sample_records().iter().enumerate() {
            assert_eq!(journal.append(record), i as u64 + 1);
        }
        assert_eq!(journal.segments().len(), 1, "default size never seals here");
        let scan = EventJournal::scan(journal.segments()[0].body());
        assert!(!scan.torn);
        assert_eq!(scan.records, sample_records());
        let replay = journal.replay_from(0).unwrap();
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.segments_opened, 1);
        assert!(!replay.torn);
    }

    #[test]
    fn appends_seal_segments_and_replay_opens_only_the_suffix() {
        let (journal, records) = segmented_journal(64, 128);
        assert!(
            journal.segments().len() > 4,
            "128-byte segments must seal often, got {}",
            journal.segments().len()
        );
        assert_eq!(journal.records(), 64);
        // Every segment header verifies and the bases chain.
        let mut expected_base = 0;
        for (i, segment) in journal.segments().iter().enumerate() {
            let (index, base) = JournalSegment::parse_header(segment.bytes()).unwrap();
            assert_eq!(index, i as u64);
            assert_eq!(base, expected_base);
            expected_base += segment.records();
            assert_eq!(segment.sealed(), i + 1 < journal.segments().len());
        }
        // Full replay reproduces everything.
        let full = journal.replay_from(0).unwrap();
        assert_eq!(full.records, records);
        assert_eq!(full.segments_opened, journal.segments().len());
        // A mid-stream cursor opens only the segments it needs.
        let cursor = 40u64;
        let replay = journal.replay_from(cursor).unwrap();
        assert_eq!(replay.records, records[cursor as usize..]);
        assert!(replay.segments_opened < journal.segments().len());
        assert_eq!(
            replay.segments_opened + replay.segments_skipped,
            journal.segments().len()
        );
        // The skipped segments are exactly those wholly below the cursor.
        let wholly_below = journal
            .segments()
            .iter()
            .filter(|s| s.sealed() && s.base_record() + s.records() <= cursor)
            .count();
        assert_eq!(replay.segments_skipped, wholly_below);
    }

    #[test]
    fn gc_drops_only_sealed_segments_below_the_cursor() {
        let (mut journal, records) = segmented_journal(64, 128);
        let before_bytes = journal.byte_len();
        let segments_before = journal.segments().len();
        let cursor = 40u64;
        journal.gc_before(cursor);
        let dropped = journal.gc_segments() as usize;
        assert!(dropped > 0, "old sealed segments must go");
        assert!(journal.byte_len() < before_bytes);
        assert_eq!(journal.segments().len(), segments_before - dropped);
        assert_eq!(journal.bytes_written(), before_bytes as u64);
        // The global record space is unchanged; the suffix still replays.
        assert_eq!(journal.records(), 64);
        let replay = journal.replay_from(cursor).unwrap();
        assert_eq!(replay.records, records[cursor as usize..]);
        // But a cursor below the floor is now unrecoverable.
        let err = journal.replay_from(0).unwrap_err();
        assert!(err.contains("GC floor"), "{err}");
        // GC never touches the open segment, even with a huge cursor.
        journal.gc_before(u64::MAX);
        assert_eq!(journal.segments().len(), 1);
        assert!(!journal.segments()[0].sealed());
    }

    #[test]
    fn torn_tail_drops_only_the_unacknowledged_record() {
        let mut journal = EventJournal::new();
        for record in sample_records() {
            journal.append(&record);
        }
        let full_len = journal.byte_len();
        assert!(journal.tear_last_record());
        assert!(journal.byte_len() < full_len);
        let replay = journal.replay_from(0).unwrap();
        assert!(replay.torn, "a half-written record must be detected");
        assert_eq!(replay.records, sample_records()[..4]);
        assert_eq!(journal.records(), 4);
        // Discarding the tail leaves a clean journal.
        assert!(journal.discard_torn_tail());
        assert!(!journal.replay_from(0).unwrap().torn);
        assert!(!journal.discard_torn_tail(), "already clean");
        assert!(!journal.is_empty());
        assert!(!EventJournal::new().tear_last_record());
    }

    #[test]
    fn any_corrupt_byte_stops_the_scan_at_that_record() {
        let mut journal = EventJournal::new();
        for record in sample_records() {
            journal.append(&record);
        }
        let clean = journal.segments()[0].body().to_vec();
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            let scan = EventJournal::scan(&corrupt);
            assert!(
                scan.records.len() < sample_records().len() || scan.torn,
                "flipping byte {i} must invalidate at least the record it hit"
            );
            // The prefix before the corruption still decodes.
            assert_eq!(
                scan.records[..],
                sample_records()[..scan.records.len()],
                "byte {i}: surviving prefix must be exact"
            );
        }
        // An empty stream is a clean, empty scan.
        let scan = EventJournal::scan(&[]);
        assert!(!scan.torn && scan.records.is_empty());
    }

    #[test]
    fn corrupt_segment_headers_stop_replay_there() {
        let (mut journal, records) = segmented_journal(32, 128);
        assert!(journal.segments().len() >= 3);
        // Flip a bit inside the second segment's header.
        let victim = 1;
        let survivors = journal.segments()[0].records() as usize;
        journal.segments[victim].bytes[9] ^= 0x01;
        let replay = journal.replay_from(0).unwrap();
        assert!(replay.torn, "a bad header must be detected");
        assert_eq!(replay.records, records[..survivors]);
        assert!(JournalSegment::parse_header(journal.segments()[victim].bytes()).is_err());
    }

    #[test]
    fn manifest_and_segments_round_trip_through_storage() {
        let (mut journal, records) = segmented_journal(48, 128);
        journal.gc_before(10); // a GC'd prefix must survive the round trip
        let manifest = journal.manifest_bytes();
        let stored: Vec<(u64, Vec<u8>)> = journal
            .segments()
            .iter()
            .map(|s| (s.index(), s.bytes().to_vec()))
            .collect();
        let load = |index: u64| -> Result<Vec<u8>, String> {
            stored
                .iter()
                .find(|(i, _)| *i == index)
                .map(|(_, b)| b.clone())
                .ok_or_else(|| format!("segment {index} missing"))
        };
        let rebuilt = EventJournal::from_storage(&manifest, load).unwrap();
        assert_eq!(rebuilt, journal);
        let floor = journal.gc_records();
        assert_eq!(
            rebuilt.replay_from(floor).unwrap().records,
            records[floor as usize..]
        );
        // A torn tail in the stored open segment is truncated on load.
        journal.tear_last_record();
        let manifest = journal.manifest_bytes();
        let stored: Vec<(u64, Vec<u8>)> = journal
            .segments()
            .iter()
            .map(|s| (s.index(), s.bytes().to_vec()))
            .collect();
        let load = |index: u64| -> Result<Vec<u8>, String> {
            stored
                .iter()
                .find(|(i, _)| *i == index)
                .map(|(_, b)| b.clone())
                .ok_or_else(|| format!("segment {index} missing"))
        };
        let rebuilt = EventJournal::from_storage(&manifest, load).unwrap();
        assert_eq!(rebuilt.records(), journal.records());
        assert!(!rebuilt.replay_from(floor).unwrap().torn);
        // A missing sealed segment drops it and everything after.
        let manifest = journal.manifest_bytes();
        let first = journal.segments()[0].clone();
        let partial = EventJournal::from_storage(&manifest, |index| {
            if index == first.index() {
                Ok(first.bytes().to_vec())
            } else {
                Err("gone".into())
            }
        })
        .unwrap();
        assert_eq!(
            partial.records(),
            first.base_record() + first.records(),
            "only the surviving prefix remains"
        );
        assert!(EventJournal::from_storage(b"junk", |_| Err("no".into())).is_err());
    }

    #[test]
    fn hostile_manifest_segment_count_is_a_named_error() {
        let (journal, _) = segmented_journal(8, 128);
        let manifest = journal.manifest_bytes();
        // Magic (8-byte length + 8 bytes) and four u64 header fields
        // put the segment count at bytes 48..56.
        assert_eq!(
            manifest[48..56],
            (journal.segments().len() as u64).to_le_bytes()
        );
        for count in [u64::MAX, 1 << 40, journal.segments().len() as u64 + 1] {
            let mut hostile = manifest.clone();
            hostile[48..56].copy_from_slice(&count.to_le_bytes());
            let err = EventJournal::from_storage(&hostile, |_| Err("unread".into())).unwrap_err();
            assert!(
                err.contains("corrupt sequence length")
                    && err.contains("in section 'journal manifest' at offset 48"),
                "count {count}: {err}"
            );
        }
    }
}
