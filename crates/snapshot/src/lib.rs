//! The checkpoint/restore snapshot plane.
//!
//! A [`Snapshot`] is a deterministic, versioned, integrity-checked binary
//! image of the simulator's state plane. The container format is
//! deliberately simple and fully validated on the way back in:
//!
//! ```text
//! magic      8 bytes   b"AIKSNAP\x01"
//! version    2 bytes   container format version (2), little endian
//! section*   repeated until end of buffer:
//!   tag        4 bytes   ASCII section tag (e.g. b"FTRK")
//!   version    2 bytes   section format version, little endian
//!   length     8 bytes   payload length in bytes, little endian
//!   payload    `length` bytes
//!   checksum   8 bytes   [`checksum`] over tag+version+length+payload
//! ```
//!
//! Every multi-byte integer is little endian. Every section carries its own
//! word-wise [`checksum`], under which a flipped bit anywhere — header,
//! payload or the checksum itself — is always detected; the reader
//! additionally validates the magic, the container version, payload bounds
//! (truncation), duplicate tags, the expected section *sequence*
//! (reordering), per-section versions (stale headers) and trailing bytes.
//! Any mismatch surfaces as a structured [`SnapshotError`] naming the
//! section, the absolute byte offset and the reason — restore never
//! silently replays a corrupt image.
//!
//! [`FaultPlan`] is the fault-injection harness: it mutates a *valid*
//! snapshot image in a targeted way (bit flips, truncation, section
//! reordering, duplicated sections, stale version headers) so the mutation
//! suites can prove the oracle catches 100% of injected corruptions. The
//! plans that move whole sections recompute checksums on purpose: they test
//! the sequence and version validation paths, not the checksum.
//!
//! This crate is dependency-free: it owns the container format and the
//! primitive encodings, while each component crate (vm, shadow, sharing,
//! fasttrack, dbi, sim) encodes its own state against [`SectionWriter`] /
//! [`SectionReader`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::error::Error;
use std::fmt;

/// First bytes of every snapshot image.
pub const MAGIC: [u8; 8] = *b"AIKSNAP\x01";

/// Container format version (bumped when the framing itself changes).
/// v2: sections are checksummed word-wise by [`checksum`] (v1 used
/// byte-serial FNV-1a); v1 images are refused.
pub const CONTAINER_VERSION: u16 = 2;

/// FNV offset basis (64 bit): every lane's and the fold's starting value.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV prime (64 bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Independent word lanes of [`checksum`].
const LANES: usize = 4;

/// One FNV-1a-style step: `(hash ^ value) * FNV_PRIME`.
#[inline]
fn fnv_step(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// The snapshot plane's integrity checksum: FNV-1a-style hashing of 8-byte
/// little-endian words over four independent lanes, so it runs at memory
/// speed instead of one dependent multiply per byte.
///
/// Word `i` of `bytes` goes to lane `i % 4`, each step being
/// `lane = (lane ^ word) * FNV_PRIME` from the FNV offset basis. The four
/// lanes then fold, in order, into one FNV-style hash, followed byte-wise
/// by the 0–7 bytes past the last whole word, and finally by the length.
///
/// **Detection.** A single flipped bit always changes the result — the
/// guarantee byte-serial FNV-1a gave. The prime is odd, hence invertible
/// modulo 2^64, so every step `(h, v) -> (h ^ v) * FNV_PRIME` is a
/// bijection in `h` for fixed `v` and in `v` for fixed `h`. The flipped
/// word (or tail byte) therefore changes the output of its own step; every
/// later step of that lane, every fold step and every tail step is a
/// bijection in the running hash, so the difference survives to the
/// result. The length is unchanged by a flip, and the other lanes never
/// see the flipped word.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fnv_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = fnv_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let folded = lanes.into_iter().fold(FNV_OFFSET, fnv_step);
    let tail = words
        .remainder()
        .iter()
        .fold(folded, |hash, &b| fnv_step(hash, u64::from(b)));
    fnv_step(tail, bytes.len() as u64)
}

/// A structured restore failure: which section, where in the image, and why.
///
/// Restore returns this — never a panic, never a silently divergent replay —
/// for any corruption: checksum mismatches, truncation, reordered or
/// duplicated sections, stale versions, malformed payloads, or state that
/// does not match the workload being resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Section being decoded when the failure was detected (`"container"`
    /// for framing-level failures before any section was identified).
    pub section: String,
    /// Absolute byte offset into the snapshot image.
    pub offset: u64,
    /// Human-readable reason.
    pub reason: String,
}

impl SnapshotError {
    /// Convenience constructor.
    pub fn new(section: impl Into<String>, offset: u64, reason: impl Into<String>) -> Self {
        SnapshotError {
            section: section.into(),
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot error in section `{}` at offset {}: {}",
            self.section, self.offset, self.reason
        )
    }
}

impl Error for SnapshotError {}

/// Shorthand for results carrying a [`SnapshotError`].
pub type Result<T> = std::result::Result<T, SnapshotError>;

/// Encodes one section's payload (primitives only; composites are built from
/// them by the component crates).
#[derive(Debug)]
pub struct SectionWriter {
    tag: [u8; 4],
    version: u16,
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Starts a section with the given 4-byte ASCII tag and version.
    pub fn new(tag: [u8; 4], version: u16) -> Self {
        SectionWriter {
            tag,
            version,
            buf: Vec::new(),
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u16.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as a little-endian u64.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an f64 by its IEEE-754 bit pattern (deterministic).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Reserves room for at least `additional` more payload bytes (a hint
    /// for encoders that know their record sizes up front).
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Payload length so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Assembles a complete snapshot image: magic, container version, then every
/// finished section in order.
#[derive(Debug)]
pub struct SnapshotBuilder {
    bytes: Vec<u8>,
    sections: Vec<SectionInfo>,
}

impl SnapshotBuilder {
    /// Starts a fresh image (magic + container version already framed).
    pub fn new() -> Self {
        let mut bytes = Vec::with_capacity(4096);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        SnapshotBuilder {
            bytes,
            sections: Vec::new(),
        }
    }

    /// Appends a finished section: header, payload, [`checksum`]. The
    /// checksum is computed over the framed bytes in place and recorded in
    /// the section table, so the finished [`Snapshot`] never re-hashes them.
    pub fn push(&mut self, section: SectionWriter) {
        let offset = self.bytes.len();
        self.bytes.extend_from_slice(&section.tag);
        self.bytes.extend_from_slice(&section.version.to_le_bytes());
        self.bytes
            .extend_from_slice(&(section.buf.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(&section.buf);
        let checksum = checksum(&self.bytes[offset..]);
        self.bytes.extend_from_slice(&checksum.to_le_bytes());
        self.sections.push(SectionInfo {
            tag: section.tag,
            version: section.version,
            offset,
            payload_len: section.buf.len(),
            checksum,
        });
    }

    /// Finishes the image.
    pub fn finish(self) -> Snapshot {
        Snapshot {
            bytes: self.bytes,
            sections: self.sections,
        }
    }
}

impl Default for SnapshotBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Bytes of a section header: tag, version, payload length.
const HEADER_LEN: usize = 14;

/// One validated section of an image: its header fields, where it sits and
/// its checksum. [`Snapshot::sections`] lists them in image order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// ASCII section tag (e.g. `b"FTRK"`).
    pub tag: [u8; 4],
    /// Section format version.
    pub version: u16,
    /// Image offset of the section header (the tag).
    pub offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// [`checksum`] over header and payload, as stored in the image.
    pub checksum: u64,
}

impl SectionInfo {
    /// The tag as text.
    pub fn tag_string(&self) -> String {
        String::from_utf8_lossy(&self.tag).into_owned()
    }

    /// Image offset of the payload.
    pub fn payload_offset(&self) -> usize {
        self.offset + HEADER_LEN
    }

    /// Image offset one past the trailing checksum.
    pub fn end(&self) -> usize {
        self.payload_offset() + self.payload_len + 8
    }
}

/// A validated snapshot image.
///
/// Every image is hashed once, where it crosses a trust boundary:
/// [`SnapshotBuilder`] checksums each section as it frames it, and
/// [`Snapshot::from_bytes`] re-validates the complete framing (magic,
/// container version, section bounds, per-section checksums, duplicate
/// tags, trailing bytes), failing with a [`SnapshotError`] on any
/// corruption. Either way the snapshot keeps the validated section table;
/// the bytes are immutable from then on, so [`Snapshot::reader`] walks the
/// table instead of re-hashing. Sequence and per-section version checks
/// happen during that walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
    sections: Vec<SectionInfo>,
}

impl Snapshot {
    /// The serialized image (what a crash-recovery lane writes to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot into its serialized image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The validated section table, in image order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Parses and structurally validates a serialized image.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the magic or container version is
    /// wrong, a section is truncated, a checksum does not match, a tag
    /// appears twice, or bytes trail the last section.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot> {
        let sections = parse_sections(&bytes)?;
        Ok(Snapshot { bytes, sections })
    }

    /// Starts walking the sections in order.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the section table holds a tag twice
    /// (see [`Snapshot::from_bytes`] for the framing checks done when the
    /// image was built or parsed).
    pub fn reader(&self) -> Result<SnapshotReader<'_>> {
        for (i, section) in self.sections.iter().enumerate() {
            if self.sections[..i].iter().any(|s| s.tag == section.tag) {
                return Err(SnapshotError::new(
                    section.tag_string(),
                    section.offset as u64,
                    "duplicate section tag",
                ));
            }
        }
        Ok(SnapshotReader {
            snapshot: self,
            next: 0,
        })
    }
}

/// Walks and validates the framing of `bytes`, returning the section table.
fn parse_sections(bytes: &[u8]) -> Result<Vec<SectionInfo>> {
    if bytes.len() < MAGIC.len() + 2 {
        return Err(SnapshotError::new(
            "container",
            bytes.len() as u64,
            format!(
                "image is {} bytes, shorter than the {}-byte header",
                bytes.len(),
                MAGIC.len() + 2
            ),
        ));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::new("container", 0, "bad magic"));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != CONTAINER_VERSION {
        return Err(SnapshotError::new(
            "container",
            8,
            format!("container version {version}, expected {CONTAINER_VERSION}"),
        ));
    }
    let mut sections = Vec::new();
    let mut cursor = MAGIC.len() + 2;
    while cursor < bytes.len() {
        let start = cursor;
        if bytes.len() - cursor < HEADER_LEN {
            return Err(SnapshotError::new(
                "container",
                cursor as u64,
                "truncated section header",
            ));
        }
        let tag: [u8; 4] = bytes[cursor..cursor + 4].try_into().expect("4 bytes");
        let section_name = String::from_utf8_lossy(&tag).into_owned();
        let version = u16::from_le_bytes([bytes[cursor + 4], bytes[cursor + 5]]);
        let len_bytes: [u8; 8] = bytes[cursor + 6..cursor + HEADER_LEN]
            .try_into()
            .expect("8 bytes");
        let payload_len = u64::from_le_bytes(len_bytes);
        cursor += HEADER_LEN;
        let payload_len_usize = usize::try_from(payload_len).map_err(|_| {
            SnapshotError::new(
                section_name.clone(),
                (start + 6) as u64,
                format!("payload length {payload_len} does not fit in memory"),
            )
        })?;
        if bytes.len() - cursor < payload_len_usize.saturating_add(8) {
            return Err(SnapshotError::new(
                section_name,
                (start + 6) as u64,
                format!(
                    "payload length {payload_len} overruns the image \
                         ({} bytes remain)",
                    bytes.len() - cursor
                ),
            ));
        }
        cursor += payload_len_usize;
        let stored: [u8; 8] = bytes[cursor..cursor + 8].try_into().expect("8 bytes");
        let stored = u64::from_le_bytes(stored);
        let computed = checksum(&bytes[start..cursor]);
        if stored != computed {
            return Err(SnapshotError::new(
                section_name,
                cursor as u64,
                format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
            ));
        }
        cursor += 8;
        let section = SectionInfo {
            tag,
            version,
            offset: start,
            payload_len: payload_len_usize,
            checksum: stored,
        };
        if sections.iter().any(|s: &SectionInfo| s.tag == tag) {
            return Err(SnapshotError::new(
                section.tag_string(),
                start as u64,
                "duplicate section tag",
            ));
        }
        sections.push(section);
    }
    if sections.is_empty() {
        return Err(SnapshotError::new(
            "container",
            cursor as u64,
            "no sections",
        ));
    }
    Ok(sections)
}

/// Walks a snapshot's sections in their expected order.
///
/// The consumer states which section it expects next; a different tag at
/// that position (a reordered, duplicated or missing section) or an
/// unexpected section version (a stale header) is a [`SnapshotError`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    snapshot: &'a Snapshot,
    next: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens the next section, requiring tag and version to match.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the image holds no further section, the
    /// next section carries a different tag (reordering/duplication), or its
    /// version differs from `version` (stale header).
    pub fn section(&mut self, tag: [u8; 4], version: u16) -> Result<SectionReader<'a>> {
        let expected = String::from_utf8_lossy(&tag).into_owned();
        let Some(raw) = self.snapshot.sections.get(self.next) else {
            return Err(SnapshotError::new(
                expected.clone(),
                self.snapshot.bytes.len() as u64,
                format!("image ends before section `{expected}`"),
            ));
        };
        if raw.tag != tag {
            return Err(SnapshotError::new(
                expected.clone(),
                raw.offset as u64,
                format!(
                    "out-of-order section: expected `{expected}`, found `{}`",
                    raw.tag_string()
                ),
            ));
        }
        if raw.version != version {
            return Err(SnapshotError::new(
                expected,
                (raw.offset + 4) as u64,
                format!(
                    "section version {} does not match expected version {version}",
                    raw.version
                ),
            ));
        }
        self.next += 1;
        let payload = raw.payload_offset();
        Ok(SectionReader {
            section: raw.tag_string(),
            payload: &self.snapshot.bytes[payload..payload + raw.payload_len],
            base: payload as u64,
            cursor: 0,
        })
    }

    /// Declares the walk complete: any remaining section is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the first unconsumed section
    /// (e.g. an injected duplicate appended to the image).
    pub fn finish(self) -> Result<()> {
        if let Some(raw) = self.snapshot.sections.get(self.next) {
            return Err(SnapshotError::new(
                raw.tag_string(),
                raw.offset as u64,
                "unexpected extra section after the final expected section",
            ));
        }
        Ok(())
    }
}

/// Decodes one section's payload.
///
/// Every accessor advances a cursor and fails with a [`SnapshotError`]
/// (carrying the absolute image offset) on underrun; [`SectionReader::finish`]
/// fails if payload bytes remain, so a payload can never be silently
/// over- or under-consumed.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: String,
    payload: &'a [u8],
    /// Absolute offset of the payload in the image (for error reporting).
    base: u64,
    cursor: usize,
}

impl SectionReader<'_> {
    #[cold]
    #[inline(never)]
    fn err(&self, reason: impl Into<String>) -> SnapshotError {
        SnapshotError::new(self.section.clone(), self.base + self.cursor as u64, reason)
    }

    /// Name of the section being decoded (for building domain-level
    /// [`SnapshotError`]s in component decoders).
    pub fn section_name(&self) -> &str {
        &self.section
    }

    /// Absolute image offset of the cursor (for building domain-level
    /// [`SnapshotError`]s in component decoders).
    pub fn offset(&self) -> u64 {
        self.base + self.cursor as u64
    }

    // The primitive readers and writers below sit in every component's
    // decode/encode loop (FTRK reads two fields per tracked block, about
    // a hundred thousand per full-mode image); they inline, and the error
    // paths stay cold.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.payload.len() - self.cursor < n {
            return Err(self.underrun(n));
        }
        let slice = &self.payload[self.cursor..self.cursor + n];
        self.cursor += n;
        Ok(slice)
    }

    #[cold]
    #[inline(never)]
    fn underrun(&self, n: usize) -> SnapshotError {
        self.err(format!(
            "payload underrun: need {n} bytes, {} remain",
            self.payload.len() - self.cursor
        ))
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (must be exactly 0 or 1).
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a usize (stored as u64).
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("value {v} does not fit in usize")))
    }

    /// Reads an f64 from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| {
            SnapshotError::new(
                self.section.clone(),
                self.base + self.cursor as u64,
                format!("invalid UTF-8 in string: {e}"),
            )
        })
    }

    /// Reads a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_usize()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.cursor
    }

    /// Declares the payload fully consumed; trailing bytes are an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if payload bytes remain.
    pub fn finish(self) -> Result<()> {
        if self.cursor != self.payload.len() {
            return Err(self.err(format!(
                "{} trailing bytes after the payload's last field",
                self.payload.len() - self.cursor
            )));
        }
        Ok(())
    }
}

/// One targeted corruption of a valid snapshot image — the fault-injection
/// harness the mutation suites drive.
///
/// `BitFlip` and `Truncate` exercise the checksum and bounds validation;
/// `SwapSections`, `DuplicateSection` and `BumpVersion` *recompute*
/// checksums where needed so the framing stays checksum-valid — they
/// exercise the sequence and version validation paths specifically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Flips one bit at a byte offset in the image.
    BitFlip {
        /// Byte offset into the image (taken modulo the image length).
        offset: usize,
        /// Bit index 0..=7.
        bit: u8,
    },
    /// Truncates the image to `len` bytes (taken modulo the image length,
    /// so the result is always a strict prefix).
    Truncate {
        /// Length of the surviving prefix.
        len: usize,
    },
    /// Swaps two whole sections (checksums stay valid; the sequence check
    /// must catch it). Indices are taken modulo the section count.
    SwapSections {
        /// First section index.
        a: usize,
        /// Second section index.
        b: usize,
    },
    /// Appends a byte-exact copy of one section at the end of the image
    /// (checksum-valid; the duplicate-tag check must catch it).
    DuplicateSection {
        /// Section index, taken modulo the section count.
        index: usize,
    },
    /// Rewrites one section's version header to a stale value and fixes up
    /// its checksum (the version check must catch it).
    BumpVersion {
        /// Section index, taken modulo the section count.
        index: usize,
    },
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::BitFlip { offset, bit } => write!(f, "bit-flip offset {offset} bit {bit}"),
            FaultPlan::Truncate { len } => write!(f, "truncate to {len} bytes"),
            FaultPlan::SwapSections { a, b } => write!(f, "swap sections {a} and {b}"),
            FaultPlan::DuplicateSection { index } => write!(f, "duplicate section {index}"),
            FaultPlan::BumpVersion { index } => write!(f, "stale version on section {index}"),
        }
    }
}

impl FaultPlan {
    /// Applies the corruption to a serialized snapshot image.
    ///
    /// Returns `None` when the plan cannot produce a corrupt image from this
    /// input (a `SwapSections` whose two indices resolve to the same
    /// section, or an input too malformed to parse for the section-level
    /// plans). The returned image is guaranteed to differ from the input.
    pub fn apply(&self, image: &[u8]) -> Option<Vec<u8>> {
        match *self {
            FaultPlan::BitFlip { offset, bit } => {
                if image.is_empty() {
                    return None;
                }
                let mut out = image.to_vec();
                let at = offset % out.len();
                out[at] ^= 1 << (bit % 8);
                Some(out)
            }
            FaultPlan::Truncate { len } => {
                if image.is_empty() {
                    return None;
                }
                let keep = len % image.len();
                Some(image[..keep].to_vec())
            }
            FaultPlan::SwapSections { a, b } => {
                let sections = parse_for_injection(image)?;
                let (a, b) = (a % sections.len(), b % sections.len());
                if a == b {
                    return None;
                }
                let (first, second) = if a < b { (a, b) } else { (b, a) };
                let (fa, fb) = (&sections[first], &sections[second]);
                let mut out = Vec::with_capacity(image.len());
                out.extend_from_slice(&image[..fa.offset]);
                out.extend_from_slice(&image[fb.offset..fb.end()]);
                out.extend_from_slice(&image[fa.end()..fb.offset]);
                out.extend_from_slice(&image[fa.offset..fa.end()]);
                out.extend_from_slice(&image[fb.end()..]);
                Some(out)
            }
            FaultPlan::DuplicateSection { index } => {
                let sections = parse_for_injection(image)?;
                let raw = &sections[index % sections.len()];
                let mut out = image.to_vec();
                out.extend_from_slice(&image[raw.offset..raw.end()]);
                Some(out)
            }
            FaultPlan::BumpVersion { index } => {
                let sections = parse_for_injection(image)?;
                let raw = sections[index % sections.len()];
                let mut out = image.to_vec();
                let stale = raw.version.wrapping_add(1);
                out[raw.offset + 4..raw.offset + 6].copy_from_slice(&stale.to_le_bytes());
                // Fix the checksum so only the version validation can catch
                // this corruption.
                let end = raw.end();
                let checksum = checksum(&out[raw.offset..end - 8]);
                out[end - 8..end].copy_from_slice(&checksum.to_le_bytes());
                Some(out)
            }
        }
    }
}

/// Parses the section table of a *valid* image for fault injection.
fn parse_for_injection(image: &[u8]) -> Option<Vec<SectionInfo>> {
    parse_sections(image).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut builder = SnapshotBuilder::new();
        let mut a = SectionWriter::new(*b"AAAA", 1);
        a.put_u64(0xdead_beef);
        a.put_str("hello");
        a.put_bool(true);
        builder.push(a);
        let mut b = SectionWriter::new(*b"BBBB", 3);
        b.put_u32(7);
        b.put_f64(1.5);
        builder.push(b);
        builder.finish()
    }

    fn read_back(snapshot: &Snapshot) -> Result<()> {
        let mut reader = snapshot.reader()?;
        let mut a = reader.section(*b"AAAA", 1)?;
        assert_eq!(a.get_u64()?, 0xdead_beef);
        assert_eq!(a.get_str()?, "hello");
        assert!(a.get_bool()?);
        a.finish()?;
        let mut b = reader.section(*b"BBBB", 3)?;
        assert_eq!(b.get_u32()?, 7);
        assert_eq!(b.get_f64()?, 1.5);
        b.finish()?;
        reader.finish()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let snapshot = sample();
        read_back(&snapshot).expect("clean image reads back");
        let reparsed = Snapshot::from_bytes(snapshot.as_bytes().to_vec()).expect("valid image");
        read_back(&reparsed).expect("reparsed image reads back");
    }

    #[test]
    fn built_and_parsed_images_carry_the_same_section_table() {
        let built = sample();
        let parsed = Snapshot::from_bytes(built.as_bytes().to_vec()).expect("valid image");
        assert_eq!(built.sections(), parsed.sections());
        let tags: Vec<String> = built.sections().iter().map(|s| s.tag_string()).collect();
        assert_eq!(tags, ["AAAA", "BBBB"]);
        for section in built.sections() {
            let framed = &built.as_bytes()[section.offset..section.end() - 8];
            assert_eq!(section.checksum, checksum(framed));
        }
        assert_eq!(
            built.sections().last().unwrap().end(),
            built.as_bytes().len()
        );
    }

    #[test]
    fn the_reader_refuses_a_built_image_with_a_duplicate_tag() {
        // A built image is trusted framing, but the walk still checks that
        // no tag appears twice.
        let mut builder = SnapshotBuilder::new();
        for _ in 0..2 {
            let mut s = SectionWriter::new(*b"TWIN", 1);
            s.put_u8(1);
            builder.push(s);
        }
        let err = builder.finish().reader().expect_err("duplicate tag");
        assert_eq!(err.section, "TWIN");
        assert!(err.reason.contains("duplicate"), "{err}");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let snapshot = sample();
        let image = snapshot.as_bytes();
        for offset in 0..image.len() {
            for bit in 0..8 {
                let corrupted = FaultPlan::BitFlip { offset, bit }
                    .apply(image)
                    .expect("non-empty image");
                let outcome = Snapshot::from_bytes(corrupted).and_then(|s| read_back(&s));
                assert!(
                    outcome.is_err(),
                    "bit flip at offset {offset} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let snapshot = sample();
        let image = snapshot.as_bytes();
        for len in 0..image.len() {
            let corrupted = FaultPlan::Truncate { len }.apply(image).expect("non-empty");
            let outcome = Snapshot::from_bytes(corrupted).and_then(|s| read_back(&s));
            assert!(
                outcome.is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn reordered_sections_are_detected_by_the_sequence_check() {
        let snapshot = sample();
        let corrupted = FaultPlan::SwapSections { a: 0, b: 1 }
            .apply(snapshot.as_bytes())
            .expect("two sections");
        // The framing itself stays checksum-valid…
        let reparsed = Snapshot::from_bytes(corrupted).expect("checksums intact");
        // …so only the expected-sequence walk can catch it.
        let err = read_back(&reparsed).expect_err("reorder detected");
        assert!(err.reason.contains("out-of-order"), "{err}");
    }

    #[test]
    fn duplicated_sections_are_detected() {
        let snapshot = sample();
        let corrupted = FaultPlan::DuplicateSection { index: 0 }
            .apply(snapshot.as_bytes())
            .expect("sections exist");
        let outcome = Snapshot::from_bytes(corrupted);
        assert!(outcome.is_err(), "duplicate tag must fail structural parse");
    }

    #[test]
    fn stale_version_headers_are_detected() {
        let snapshot = sample();
        let corrupted = FaultPlan::BumpVersion { index: 1 }
            .apply(snapshot.as_bytes())
            .expect("sections exist");
        let reparsed = Snapshot::from_bytes(corrupted).expect("checksum was fixed up");
        let err = read_back(&reparsed).expect_err("version mismatch detected");
        assert!(err.reason.contains("version"), "{err}");
    }

    #[test]
    fn over_and_under_consumption_are_errors() {
        let mut builder = SnapshotBuilder::new();
        let mut s = SectionWriter::new(*b"ONLY", 1);
        s.put_u32(9);
        builder.push(s);
        let snapshot = builder.finish();

        // Under-consumption: finish() with bytes left.
        let mut reader = snapshot.reader().unwrap();
        let section = reader.section(*b"ONLY", 1).unwrap();
        assert!(section.finish().is_err());

        // Over-consumption: reading past the payload.
        let mut reader = snapshot.reader().unwrap();
        let mut section = reader.section(*b"ONLY", 1).unwrap();
        section.get_u32().unwrap();
        assert!(section.get_u8().is_err());
    }

    #[test]
    fn errors_carry_section_offset_and_reason() {
        let err = SnapshotError::new("FTRK", 42, "checksum mismatch");
        assert_eq!(err.section, "FTRK");
        assert_eq!(err.offset, 42);
        let shown = err.to_string();
        assert!(shown.contains("FTRK") && shown.contains("42"), "{shown}");
    }

    /// `0, 1, 2, …` (mod 256), `len` bytes long.
    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn checksum_matches_pinned_vectors() {
        // Values from an independent byte-level model of the definition.
        // Lengths around every boundary of the layout: empty, tail only, one
        // whole word, one short of / exactly / one past a 4-lane block, and
        // several blocks with words and bytes left over.
        let pinned: [(usize, u64); 8] = [
            (0, 0x7f6e_4d21_b650_a5a3),
            (1, 0xd912_b248_cb09_7246),
            (7, 0x8204_f892_3754_16a9),
            (8, 0x9a28_4fb3_a840_f689),
            (31, 0xad73_8a81_768b_fb1b),
            (32, 0x5cfe_d8c6_99ec_ecf3),
            (33, 0xf1f7_2b77_8d96_68d6),
            (100, 0xc9ae_d2c9_33e2_261b),
        ];
        for (len, want) in pinned {
            assert_eq!(checksum(&ramp(len)), want, "checksum of {len} ramp bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_across_lanes_and_tail() {
        // Each framed section (14-byte header + payload) spans three whole
        // 32-byte lane blocks plus a tail with two whole words and two
        // bytes, so flips land in every lane, the leftover words and the
        // byte tail.
        let mut builder = SnapshotBuilder::new();
        for (tag, seed) in [(*b"LONG", 3u8), (*b"MORE", 91u8)] {
            let mut s = SectionWriter::new(tag, 1);
            for i in 0..100u8 {
                s.put_u8(i.wrapping_mul(seed));
            }
            builder.push(s);
        }
        let snapshot = builder.finish();
        for section in snapshot.sections() {
            let framed = section.end() - 8 - section.offset;
            assert!(framed > 3 * 32 && framed % 32 > 16 && framed % 8 > 0);
        }
        let image = snapshot.as_bytes();
        for offset in 0..image.len() {
            for bit in 0..8 {
                let corrupted = FaultPlan::BitFlip { offset, bit }
                    .apply(image)
                    .expect("non-empty image");
                assert!(
                    Snapshot::from_bytes(corrupted).is_err(),
                    "bit flip at offset {offset} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn container_v1_images_are_refused() {
        // A v1 image: the same framing, checksummed by byte-serial FNV-1a.
        let fnv1a = |bytes: &[u8]| {
            bytes
                .iter()
                .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
        };
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&1u16.to_le_bytes());
        let start = image.len();
        image.extend_from_slice(b"ONLY");
        image.extend_from_slice(&1u16.to_le_bytes());
        image.extend_from_slice(&4u64.to_le_bytes());
        image.extend_from_slice(&9u32.to_le_bytes());
        let sum = fnv1a(&image[start..]);
        image.extend_from_slice(&sum.to_le_bytes());
        let err = Snapshot::from_bytes(image).expect_err("v1 container");
        assert_eq!(err.section, "container");
        assert_eq!(err.offset, 8);
        assert_eq!(
            err.reason,
            format!("container version 1, expected {CONTAINER_VERSION}")
        );
    }

    #[test]
    fn empty_and_garbage_images_are_rejected() {
        assert!(Snapshot::from_bytes(Vec::new()).is_err());
        assert!(Snapshot::from_bytes(vec![0; 64]).is_err());
        let header_only = {
            let mut v = MAGIC.to_vec();
            v.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
            v
        };
        let err = Snapshot::from_bytes(header_only).expect_err("no sections");
        assert!(err.reason.contains("no sections"), "{err}");
    }
}
