//! The unified, self-describing plain-text format (§3).
//!
//! One raw file per host per day. Layout:
//!
//! ```text
//! $tacc_stats 2.0
//! $hostname c0412
//! $arch amd64_core
//! $cores 16
//! $timestamp 86400
//! !cpu user,E,U=J nice,E,U=J system,E,U=J idle,E,U=J ...
//! !mem MemTotal,U=KB MemFree,U=KB ...
//! ... (one ! line per collected device class)
//! % begin 4321 86400
//! T 86400 4321
//! cpu 0 120 0 13 467 0 0 0
//! cpu 1 118 0 14 468 0 0 0
//! mem 0 8388608 6291456 51200 204800 2097152 2048 1843200 40960
//! ...
//! T 87000 4321
//! ...
//! % end 4321 129600
//! T 129600 -
//! ...
//! ```
//!
//! `$` lines are file metadata, `!` lines carry the schema (making every
//! file parseable with no out-of-band knowledge — the paper's answer to
//! the "many different formats" problem of stock Linux tools), `%` lines
//! are job-boundary marks, `T` lines start a timestamped record, and the
//! remaining lines are `class device value...` in schema order.
//!
//! Two parsing entry points share one implementation:
//!
//! * [`stream`] — the zero-copy scanner. Yields [`SampleRef`]s whose
//!   device names are `&str` slices into the file text and whose values
//!   live in one flat `Vec<u64>` arena per record. This is the ingest
//!   hot path: no per-row allocation, no `BTreeMap` per record.
//! * [`parse`] — the batch API. Runs the same scanner and materialises
//!   owned [`Record`]s, so its error behaviour and output are those of
//!   the streaming layer by construction.
//!
//! Both of those are *strict*: the first malformed line rejects the
//! whole file. Production raw files are routinely truncated or torn by
//! node crashes and collector restarts, so there is a third entry
//! point, [`stream_lenient`], which quarantines corrupt regions instead
//! of failing: bad lines and the records they tear are skipped and
//! accounted in a [`ScanQuarantine`], and every consumed byte is
//! attributed to exactly one of clean/quarantined so downstream layers
//! can verify conservation (`total == clean + quarantined`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use supremm_metrics::schema::DeviceClass;
use supremm_metrics::{JobId, Timestamp};
use supremm_procsim::DeviceReading;

/// Format version emitted by this writer.
pub const FORMAT_VERSION: &str = "2.0";

/// A job-boundary mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMark {
    Begin { job: JobId, at: Timestamp },
    End { job: JobId, at: Timestamp },
}

/// One timestamped record: every device class instance read at `ts`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub ts: Timestamp,
    /// The job running on the node at sample time; `None` when idle.
    pub job: Option<JobId>,
    pub readings: BTreeMap<DeviceClass, Vec<DeviceReading>>,
}

/// Either a record or a mark, in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    Record(Record),
    Mark(JobMark),
}

/// A fully parsed raw file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFile {
    pub hostname: String,
    pub arch: String,
    pub cores: u32,
    /// First timestamp covered by the file (rotation boundary).
    pub start: Timestamp,
    /// Device classes declared in the schema header, in declaration order.
    pub classes: Vec<DeviceClass>,
    pub samples: Vec<Sample>,
}

impl ParsedFile {
    /// Iterate only the records.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.samples.iter().filter_map(|s| match s {
            Sample::Record(r) => Some(r),
            Sample::Mark(_) => None,
        })
    }

    /// Iterate only the marks.
    pub fn marks(&self) -> impl Iterator<Item = &JobMark> {
        self.samples.iter().filter_map(|s| match s {
            Sample::Mark(m) => Some(m),
            Sample::Record(_) => None,
        })
    }
}

/// Incremental writer for one raw file.
#[derive(Debug, Clone)]
pub struct FileWriter {
    buf: String,
    classes: Vec<DeviceClass>,
}

impl FileWriter {
    /// Start a file: emit `$` metadata and the `!` schema block.
    pub fn new(
        hostname: &str,
        arch: &str,
        cores: u32,
        start: Timestamp,
        classes: &[DeviceClass],
    ) -> FileWriter {
        let mut buf = String::with_capacity(4096);
        let _ = writeln!(buf, "$tacc_stats {FORMAT_VERSION}");
        let _ = writeln!(buf, "$hostname {hostname}");
        let _ = writeln!(buf, "$arch {arch}");
        let _ = writeln!(buf, "$cores {cores}");
        let _ = writeln!(buf, "$timestamp {}", start.0);
        for class in classes {
            let _ = writeln!(buf, "!{} {}", class.name(), class.schema().header());
        }
        FileWriter { buf, classes: classes.to_vec() }
    }

    pub fn write_mark(&mut self, mark: JobMark) {
        match mark {
            JobMark::Begin { job, at } => {
                let _ = writeln!(self.buf, "% begin {} {}", job.0, at.0);
            }
            JobMark::End { job, at } => {
                let _ = writeln!(self.buf, "% end {} {}", job.0, at.0);
            }
        }
    }

    pub fn write_record(&mut self, rec: &Record) {
        match rec.job {
            Some(j) => {
                let _ = writeln!(self.buf, "T {} {}", rec.ts.0, j.0);
            }
            None => {
                let _ = writeln!(self.buf, "T {} -", rec.ts.0);
            }
        }
        // Emit classes in the declared order for deterministic files.
        for class in &self.classes {
            let Some(readings) = rec.readings.get(class) else { continue };
            for r in readings {
                let _ = write!(self.buf, "{} {}", class.name(), r.device);
                for v in &r.values {
                    let _ = write!(self.buf, " {v}");
                }
                self.buf.push('\n');
            }
        }
    }

    pub fn finish(self) -> String {
        self.buf
    }

    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

/// Errors the parser can report. Every variant carries the 1-based line
/// number for operator-grade diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    MissingHeader(&'static str),
    BadLine { line: usize, reason: String },
    UnknownClass { line: usize, class: String },
    ArityMismatch { line: usize, class: DeviceClass, got: usize, want: usize },
    RecordBeforeTimestamp { line: usize },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader(h) => write!(f, "missing ${h} header"),
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::UnknownClass { line, class } => {
                write!(f, "line {line}: unknown device class {class:?}")
            }
            ParseError::ArityMismatch { line, class, got, want } => {
                write!(f, "line {line}: {class} record has {got} values, schema wants {want}")
            }
            ParseError::RecordBeforeTimestamp { line } => {
                write!(f, "line {line}: device record before any T line")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Decimal `u64` parse over raw bytes: digits only, overflow-checked.
/// Roughly 2-3x cheaper than `str::parse` on the short fields this
/// format carries because there is no sign/radix handling and no
/// `ParseIntError` construction on the happy path.
#[inline]
fn parse_u64(s: &str) -> Option<u64> {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in bytes {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

/// File metadata interned once per file by [`stream`]. String fields
/// borrow the file text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileHeader<'a> {
    pub hostname: &'a str,
    pub arch: &'a str,
    pub cores: u32,
    /// First timestamp covered by the file (rotation boundary).
    pub start: Timestamp,
    /// Device classes declared in the schema header, in declaration order.
    pub classes: Vec<DeviceClass>,
}

/// One device row inside a [`RecordRef`]: a slice of the shared value
/// arena plus the borrowed device name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowMeta<'a> {
    class: DeviceClass,
    device: &'a str,
    start: u32,
    len: u32,
}

/// A borrowed view of one timestamped record. Device names are slices
/// of the file text; all values live in one flat arena, so building a
/// record costs two `Vec` pushes per row and zero string allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRef<'a> {
    pub ts: Timestamp,
    /// The job running on the node at sample time; `None` when idle.
    pub job: Option<JobId>,
    rows: Vec<RowMeta<'a>>,
    values: Vec<u64>,
}

impl<'a> RecordRef<'a> {
    fn new(ts: Timestamp, job: Option<JobId>, rows_hint: usize, vals_hint: usize) -> RecordRef<'a> {
        RecordRef {
            ts,
            job,
            rows: Vec::with_capacity(rows_hint),
            values: Vec::with_capacity(vals_hint),
        }
    }

    /// Borrow an owned [`Record`] as a `RecordRef`. Rows appear in
    /// class order (then insertion order within a class), which is the
    /// order the writer emits, so derived metrics are unaffected.
    pub fn from_record(rec: &'a Record) -> RecordRef<'a> {
        let mut out = RecordRef::new(rec.ts, rec.job, 0, 0);
        for (&class, readings) in &rec.readings {
            for r in readings {
                let start = out.values.len() as u32;
                out.values.extend_from_slice(&r.values);
                out.rows.push(RowMeta {
                    class,
                    device: r.device.as_str(),
                    start,
                    len: r.values.len() as u32,
                });
            }
        }
        out
    }

    /// All rows in file order: `(class, device, values)`.
    pub fn rows(&self) -> impl Iterator<Item = (DeviceClass, &'a str, &[u64])> + '_ {
        self.rows.iter().map(move |m| {
            (m.class, m.device, &self.values[m.start as usize..(m.start + m.len) as usize])
        })
    }

    /// Rows of one class, in file order.
    pub fn class_rows(&self, class: DeviceClass) -> impl Iterator<Item = (&'a str, &[u64])> + '_ {
        self.rows
            .iter()
            .filter(move |m| m.class == class)
            .map(move |m| (m.device, &self.values[m.start as usize..(m.start + m.len) as usize]))
    }

    /// Values of the row for `device` in `class`, if present.
    pub fn row(&self, class: DeviceClass, device: &str) -> Option<&[u64]> {
        self.rows
            .iter()
            .find(|m| m.class == class && m.device == device)
            .map(|m| &self.values[m.start as usize..(m.start + m.len) as usize])
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Materialise an owned [`Record`] (the batch [`parse`] path).
    pub fn to_record(&self) -> Record {
        let mut readings: BTreeMap<DeviceClass, Vec<DeviceReading>> = BTreeMap::new();
        for (class, device, values) in self.rows() {
            readings
                .entry(class)
                .or_default()
                .push(DeviceReading { device: device.to_string(), values: values.to_vec() });
        }
        Record { ts: self.ts, job: self.job, readings }
    }
}

/// Either a borrowed record or a mark, in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleRef<'a> {
    Record(RecordRef<'a>),
    Mark(JobMark),
}

/// What a lenient scan skipped: corrupt lines, the records they tore,
/// and how many contiguous corrupt regions the file contained. Byte
/// counts cover everything not attributed to [`FileStream::clean_bytes`],
/// so after a lenient stream is exhausted
/// `clean_bytes + quarantine.bytes == total_bytes` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanQuarantine {
    /// Lines skipped (corrupt lines plus every line of a torn record).
    pub lines: u64,
    /// Bytes those lines occupied, including their newlines.
    pub bytes: u64,
    /// Records that were started (valid `T` line) but discarded because
    /// a later line of the block was corrupt.
    pub records: u64,
    /// Contiguous corrupt regions. Two bad lines separated by good data
    /// are two regions; a torn block plus its resync tail is one. This
    /// is the scanner-level notion of a coverage gap.
    pub regions: u64,
}

impl ScanQuarantine {
    pub fn is_empty(&self) -> bool {
        *self == ScanQuarantine::default()
    }

    pub fn merge(&mut self, other: &ScanQuarantine) {
        self.lines += other.lines;
        self.bytes += other.bytes;
        self.records += other.records;
        self.regions += other.regions;
    }
}

/// Streaming zero-copy scanner over one raw file. Created by
/// [`stream`] (strict) or [`stream_lenient`]; iterating yields
/// `Result<SampleRef, ParseError>`.
///
/// Strict iteration is fused on error: once a line fails to parse the
/// rest of the file is not scanned, mirroring the batch parser's
/// whole-file rejection. Lenient iteration never yields `Err`: corrupt
/// lines are quarantined (with the record they tear), the scanner
/// resynchronises at the next valid `T` or `%` line, and the damage is
/// accounted in [`FileStream::quarantine`].
#[derive(Debug, Clone)]
pub struct FileStream<'a> {
    header: FileHeader<'a>,
    rest: &'a str,
    line_no: usize,
    current: Option<RecordRef<'a>>,
    stashed_mark: Option<JobMark>,
    failed: bool,
    rows_hint: usize,
    vals_hint: usize,
    strict: bool,
    /// Resync mode: after corruption, skip until the next `T`/`%` line.
    skipping: bool,
    quar: ScanQuarantine,
    /// Bytes/lines consumed by the in-flight record — attributed to
    /// clean on flush or to the quarantine on discard.
    current_bytes: u64,
    current_lines: u64,
    clean_bytes: u64,
    total_bytes: u64,
    records_started: u64,
    records_emitted: u64,
}

/// Scan the `$` metadata and `!` schema block and return a
/// [`FileStream`] positioned at the first data line. The header is
/// interned exactly once per file; everything after this call is
/// zero-copy. Files whose data starts before the required `$` keys are
/// rejected with [`ParseError::MissingHeader`].
pub fn stream(text: &str) -> Result<FileStream<'_>, ParseError> {
    stream_with(text, true)
}

/// Like [`stream`], but the returned scanner quarantines corrupt lines
/// and records instead of failing (see [`FileStream::quarantine`]).
/// Header failures still reject the whole file: without the `$`/`!`
/// block the schema is unknowable and nothing downstream can be
/// trusted, so a file that loses its header loses everything — which is
/// exactly how a crash-truncated first write behaves in production.
pub fn stream_lenient(text: &str) -> Result<FileStream<'_>, ParseError> {
    stream_with(text, false)
}

fn stream_with(text: &str, strict: bool) -> Result<FileStream<'_>, ParseError> {
    let mut hostname = None;
    let mut arch = None;
    let mut cores = None;
    let mut start = None;
    let mut classes: Vec<DeviceClass> = Vec::new();

    let mut rest = text;
    let mut line_no = 1usize;
    while let Some((line, no, after)) = split_line(rest, line_no) {
        match line.as_bytes().first() {
            Some(b'$') => {
                let mut parts = line[1..].splitn(2, ' ');
                let key = parts.next().unwrap_or("");
                let val = parts.next().unwrap_or("").trim();
                match key {
                    "hostname" => hostname = Some(val),
                    "arch" => arch = Some(val),
                    "cores" => {
                        let n = parse_u64(val).and_then(|v| u32::try_from(v).ok()).ok_or_else(
                            || ParseError::BadLine {
                                line: no,
                                reason: format!("bad core count {val:?}"),
                            },
                        )?;
                        cores = Some(n);
                    }
                    "timestamp" => {
                        let ts = parse_u64(val).ok_or_else(|| ParseError::BadLine {
                            line: no,
                            reason: format!("bad timestamp {val:?}"),
                        })?;
                        start = Some(Timestamp(ts));
                    }
                    // Version and unknown $-keys are tolerated for
                    // forward compatibility.
                    _ => {}
                }
            }
            Some(b'!') => {
                let name = line[1..].split_ascii_whitespace().next().unwrap_or("");
                let class = DeviceClass::from_name(name)
                    .ok_or(ParseError::UnknownClass { line: no, class: name.to_string() })?;
                classes.push(class);
            }
            // First data line: the header block is over.
            _ => break,
        }
        rest = after;
        line_no = no + 1;
    }

    let header = FileHeader {
        hostname: hostname.ok_or(ParseError::MissingHeader("hostname"))?,
        arch: arch.ok_or(ParseError::MissingHeader("arch"))?,
        cores: cores.ok_or(ParseError::MissingHeader("cores"))?,
        start: start.ok_or(ParseError::MissingHeader("timestamp"))?,
        classes,
    };
    Ok(FileStream {
        header,
        rest,
        line_no,
        current: None,
        stashed_mark: None,
        failed: false,
        rows_hint: 0,
        vals_hint: 0,
        strict,
        skipping: false,
        quar: ScanQuarantine::default(),
        current_bytes: 0,
        current_lines: 0,
        // The header block parsed; its bytes are clean by construction.
        clean_bytes: (text.len() - rest.len()) as u64,
        total_bytes: text.len() as u64,
        records_started: 0,
        records_emitted: 0,
    })
}

/// Split the next non-empty line off `rest`. Returns the trimmed line,
/// its 1-based number, and the remaining text.
#[inline]
fn split_line(rest: &str, mut line_no: usize) -> Option<(&str, usize, &str)> {
    let mut rest = rest;
    while !rest.is_empty() {
        let (raw, after) = match rest.as_bytes().iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        let line = raw.trim_end();
        if !line.is_empty() {
            return Some((line, line_no, after));
        }
        rest = after;
        line_no += 1;
    }
    None
}

impl<'a> FileStream<'a> {
    pub fn header(&self) -> &FileHeader<'a> {
        &self.header
    }

    /// What a lenient scan has skipped so far. Final only once the
    /// iterator is exhausted. Always empty in strict mode.
    pub fn quarantine(&self) -> ScanQuarantine {
        self.quar
    }

    /// Bytes attributed to cleanly parsed content (header, marks,
    /// emitted records, blank/metadata lines). After a lenient stream
    /// is exhausted, `clean_bytes() + quarantine().bytes` equals
    /// [`FileStream::total_bytes`] exactly.
    pub fn clean_bytes(&self) -> u64 {
        self.clean_bytes
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Records whose `T` line parsed, whether or not they survived.
    /// `records_started == records_emitted + quarantine().records`
    /// once the stream is exhausted.
    pub fn records_started(&self) -> u64 {
        self.records_started
    }

    /// Records actually yielded to the consumer.
    pub fn records_emitted(&self) -> u64 {
        self.records_emitted
    }

    #[inline]
    fn take_line(&mut self) -> Option<(&'a str, usize, u64)> {
        let before = self.rest.len();
        let (line, no, after) = split_line(self.rest, self.line_no)?;
        let consumed = (before - after.len()) as u64;
        self.rest = after;
        self.line_no = no + 1;
        Some((line, no, consumed))
    }

    /// Finish the in-flight record and remember its size so the next
    /// record's arena is allocated with the right capacity up front.
    #[inline]
    fn flush_current(&mut self) -> Option<RecordRef<'a>> {
        let rec = self.current.take()?;
        self.rows_hint = rec.rows.len();
        self.vals_hint = rec.values.len();
        self.clean_bytes += self.current_bytes;
        self.current_bytes = 0;
        self.current_lines = 0;
        self.records_emitted += 1;
        Some(rec)
    }

    /// Quarantine the in-flight record: a later line of its block was
    /// corrupt, so none of it can be trusted.
    fn discard_current(&mut self) {
        if self.current.take().is_some() {
            self.quar.records += 1;
        }
        self.quar.bytes += self.current_bytes;
        self.quar.lines += self.current_lines;
        self.current_bytes = 0;
        self.current_lines = 0;
    }

    /// Quarantine one line; opening a new corrupt region unless already
    /// inside one.
    fn quarantine_line(&mut self, nbytes: u64) {
        self.quar.bytes += nbytes;
        self.quar.lines += 1;
        if !self.skipping {
            self.quar.regions += 1;
        }
    }

    fn parse_mark(line: &str, line_no: usize) -> Result<JobMark, ParseError> {
        let parts: Vec<&str> = line.split_ascii_whitespace().collect();
        if parts.len() != 4 {
            return Err(ParseError::BadLine {
                line: line_no,
                reason: "mark needs `% begin|end <job> <ts>`".into(),
            });
        }
        let job = JobId(parse_u64(parts[2]).ok_or_else(|| ParseError::BadLine {
            line: line_no,
            reason: format!("bad job id {:?}", parts[2]),
        })?);
        let at = Timestamp(parse_u64(parts[3]).ok_or_else(|| ParseError::BadLine {
            line: line_no,
            reason: format!("bad mark timestamp {:?}", parts[3]),
        })?);
        match parts[1] {
            "begin" => Ok(JobMark::Begin { job, at }),
            "end" => Ok(JobMark::End { job, at }),
            other => Err(ParseError::BadLine {
                line: line_no,
                reason: format!("unknown mark kind {other:?}"),
            }),
        }
    }

    fn parse_record_start(
        line: &str,
        line_no: usize,
    ) -> Result<(Timestamp, Option<JobId>), ParseError> {
        let parts: Vec<&str> = line.split_ascii_whitespace().collect();
        if parts.len() != 3 {
            return Err(ParseError::BadLine {
                line: line_no,
                reason: "T line needs `T <ts> <job|->`".into(),
            });
        }
        let ts = Timestamp(parse_u64(parts[1]).ok_or_else(|| ParseError::BadLine {
            line: line_no,
            reason: format!("bad timestamp {:?}", parts[1]),
        })?);
        let job = if parts[2] == "-" {
            None
        } else {
            Some(JobId(parse_u64(parts[2]).ok_or_else(|| ParseError::BadLine {
                line: line_no,
                reason: format!("bad job id {:?}", parts[2]),
            })?))
        };
        Ok((ts, job))
    }

    /// Append one `class device value...` row to the in-flight record,
    /// parsing values straight into the shared arena.
    fn push_row(&mut self, line: &'a str, line_no: usize) -> Result<(), ParseError> {
        let mut parts = line.split_ascii_whitespace();
        let class_name = parts.next().unwrap_or("");
        let class = DeviceClass::from_name(class_name).ok_or_else(|| ParseError::UnknownClass {
            line: line_no,
            class: class_name.to_string(),
        })?;
        let device = parts.next().ok_or_else(|| ParseError::BadLine {
            line: line_no,
            reason: "device record missing instance name".into(),
        })?;
        let want = class.schema().len();
        let Some(rec) = self.current.as_mut() else {
            // Keep the batch parser's error precedence: values and
            // arity are validated before the missing-T check.
            let mut got = 0usize;
            for p in parts {
                parse_u64(p).ok_or_else(|| ParseError::BadLine {
                    line: line_no,
                    reason: format!("bad value {p:?}"),
                })?;
                got += 1;
            }
            if got != want {
                return Err(ParseError::ArityMismatch { line: line_no, class, got, want });
            }
            return Err(ParseError::RecordBeforeTimestamp { line: line_no });
        };
        let start = rec.values.len() as u32;
        let mut got = 0usize;
        for p in parts {
            let v = parse_u64(p).ok_or_else(|| ParseError::BadLine {
                line: line_no,
                reason: format!("bad value {p:?}"),
            })?;
            rec.values.push(v);
            got += 1;
        }
        if got != want {
            return Err(ParseError::ArityMismatch { line: line_no, class, got, want });
        }
        rec.rows.push(RowMeta { class, device, start, len: got as u32 });
        Ok(())
    }
}

impl<'a> Iterator for FileStream<'a> {
    type Item = Result<SampleRef<'a>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if let Some(mark) = self.stashed_mark.take() {
            return Some(Ok(SampleRef::Mark(mark)));
        }
        loop {
            let Some((line, line_no, nbytes)) = self.take_line() else {
                // Trailing blank lines are clean content.
                self.clean_bytes += self.rest.len() as u64;
                self.rest = "";
                return self.flush_current().map(|rec| Ok(SampleRef::Record(rec)));
            };
            match line.as_bytes()[0] {
                // Metadata or schema lines after the header block carry
                // no data; tolerated as in the batch parser.
                b'$' | b'!' => {
                    self.clean_bytes += nbytes;
                    continue;
                }
                b'%' => match Self::parse_mark(line, line_no) {
                    Ok(mark) => {
                        self.clean_bytes += nbytes;
                        self.skipping = false;
                        if let Some(rec) = self.flush_current() {
                            self.stashed_mark = Some(mark);
                            return Some(Ok(SampleRef::Record(rec)));
                        }
                        return Some(Ok(SampleRef::Mark(mark)));
                    }
                    Err(e) => {
                        if self.strict {
                            self.failed = true;
                            return Some(Err(e));
                        }
                        // A garbled mark loses only itself; the record
                        // block around it is still coherent.
                        self.quarantine_line(nbytes);
                    }
                },
                b'T' => match Self::parse_record_start(line, line_no) {
                    Ok((ts, job)) => {
                        self.records_started += 1;
                        self.skipping = false;
                        let fresh = RecordRef::new(ts, job, self.rows_hint, self.vals_hint);
                        if let Some(rec) = self.flush_current() {
                            self.current = Some(fresh);
                            self.current_bytes = nbytes;
                            self.current_lines = 1;
                            return Some(Ok(SampleRef::Record(rec)));
                        }
                        self.current = Some(fresh);
                        self.current_bytes = nbytes;
                        self.current_lines = 1;
                    }
                    Err(e) => {
                        if self.strict {
                            self.failed = true;
                            return Some(Err(e));
                        }
                        // A bad T line is still a record boundary: the
                        // previous block is complete and emittable; the
                        // rows that follow belong to an unknown
                        // timestamp and are skipped until resync.
                        self.quarantine_line(nbytes);
                        self.skipping = true;
                        if let Some(rec) = self.flush_current() {
                            return Some(Ok(SampleRef::Record(rec)));
                        }
                    }
                },
                _ => {
                    if self.skipping {
                        self.quar.bytes += nbytes;
                        self.quar.lines += 1;
                        continue;
                    }
                    if let Err(e) = self.push_row(line, line_no) {
                        if self.strict {
                            self.failed = true;
                            return Some(Err(e));
                        }
                        // A corrupt row poisons its whole block: discard
                        // the in-flight record and resync at the next
                        // T/% line.
                        self.quarantine_line(nbytes);
                        self.discard_current();
                        self.skipping = true;
                    } else if self.current.is_some() {
                        self.current_bytes += nbytes;
                        self.current_lines += 1;
                    }
                }
            }
        }
    }
}

/// Parse a raw file produced by [`FileWriter`] (or the real tool,
/// modulo the exact header dialect) into owned samples. Thin shim over
/// [`stream`].
pub fn parse(text: &str) -> Result<ParsedFile, ParseError> {
    let s = stream(text)?;
    let header = s.header().clone();
    let mut samples: Vec<Sample> = Vec::new();
    for item in s {
        match item? {
            SampleRef::Record(rec) => samples.push(Sample::Record(rec.to_record())),
            SampleRef::Mark(mark) => samples.push(Sample::Mark(mark)),
        }
    }
    Ok(ParsedFile {
        hostname: header.hostname.to_string(),
        arch: header.arch.to_string(),
        cores: header.cores,
        start: header.start,
        classes: header.classes,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(ts: u64, job: Option<u64>) -> Record {
        let mut readings = BTreeMap::new();
        readings.insert(
            DeviceClass::Cpu,
            vec![
                DeviceReading { device: "0".into(), values: vec![1, 0, 2, 3, 0, 0, 0] },
                DeviceReading { device: "1".into(), values: vec![4, 0, 5, 6, 0, 0, 0] },
            ],
        );
        readings.insert(
            DeviceClass::Lnet,
            vec![DeviceReading { device: "lnet".into(), values: vec![10, 20, 1, 2, 0] }],
        );
        Record { ts: Timestamp(ts), job: job.map(JobId), readings }
    }

    fn write_small_file() -> String {
        let classes = [DeviceClass::Cpu, DeviceClass::Lnet];
        let mut w = FileWriter::new("c0007", "amd64_core", 16, Timestamp(86_400), &classes);
        w.write_mark(JobMark::Begin { job: JobId(42), at: Timestamp(86_400) });
        w.write_record(&sample_record(86_400, Some(42)));
        w.write_record(&sample_record(87_000, Some(42)));
        w.write_mark(JobMark::End { job: JobId(42), at: Timestamp(87_300) });
        w.write_record(&sample_record(87_600, None));
        w.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let text = write_small_file();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.hostname, "c0007");
        assert_eq!(parsed.arch, "amd64_core");
        assert_eq!(parsed.cores, 16);
        assert_eq!(parsed.start, Timestamp(86_400));
        assert_eq!(parsed.classes, vec![DeviceClass::Cpu, DeviceClass::Lnet]);
        assert_eq!(parsed.records().count(), 3);
        assert_eq!(parsed.marks().count(), 2);
        let recs: Vec<_> = parsed.records().collect();
        assert_eq!(recs[0], &sample_record(86_400, Some(42)));
        assert_eq!(recs[2].job, None);
    }

    #[test]
    fn file_is_self_describing() {
        // The schema block alone should let a reader reconstruct every
        // device schema arity — no out-of-band knowledge.
        let text = write_small_file();
        for class in [DeviceClass::Cpu, DeviceClass::Lnet] {
            let tag = format!("!{} ", class.name());
            assert!(text.contains(&tag), "missing schema line for {class}");
        }
        // Each cpu record line has exactly 2 + schema-len fields.
        let cpu_line = text.lines().find(|l| l.starts_with("cpu 0")).expect("cpu record present");
        assert_eq!(cpu_line.split_whitespace().count(), 2 + DeviceClass::Cpu.schema().len());
    }

    #[test]
    fn marks_flush_open_records_in_order() {
        let text = write_small_file();
        let parsed = parse(&text).unwrap();
        // Order: begin, rec, rec, end, rec.
        let kinds: Vec<&str> = parsed
            .samples
            .iter()
            .map(|s| match s {
                Sample::Mark(JobMark::Begin { .. }) => "begin",
                Sample::Mark(JobMark::End { .. }) => "end",
                Sample::Record(_) => "rec",
            })
            .collect();
        assert_eq!(kinds, vec!["begin", "rec", "rec", "end", "rec"]);
    }

    #[test]
    fn parse_rejects_arity_mismatch() {
        let bad = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\nT 0 -\nlnet lnet 1 2\n";
        match parse(bad) {
            Err(ParseError::ArityMismatch {
                class: DeviceClass::Lnet, got: 2, want: 5, ..
            }) => {}
            other => panic!("expected arity mismatch, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_record_before_timestamp() {
        let bad = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\ncpu 0 1 2 3 4 5 6 7\n";
        assert!(matches!(parse(bad), Err(ParseError::RecordBeforeTimestamp { line: 5 })));
    }

    #[test]
    fn parse_rejects_missing_headers() {
        assert!(matches!(parse("T 0 -\n"), Err(ParseError::BadLine { .. }) | Err(_)));
        let no_host = "$arch a\n$cores 1\n$timestamp 0\n";
        assert_eq!(parse(no_host), Err(ParseError::MissingHeader("hostname")));
    }

    #[test]
    fn parse_reports_line_numbers() {
        let bad = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\nT 5 bogus\n";
        match parse(bad) {
            Err(ParseError::BadLine { line: 5, .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_dollar_keys_are_tolerated() {
        let text = format!("$flavor vanilla\n{}", write_small_file());
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn idle_records_have_dash_job() {
        let text = write_small_file();
        assert!(text.contains("T 87600 -"));
    }

    #[test]
    fn parse_error_display_is_informative() {
        let e = ParseError::ArityMismatch { line: 7, class: DeviceClass::Cpu, got: 3, want: 7 };
        let s = e.to_string();
        assert!(s.contains("line 7") && s.contains("cpu"), "{s}");
    }

    #[test]
    fn stream_yields_borrowed_samples_matching_parse() {
        let text = write_small_file();
        let parsed = parse(&text).unwrap();
        let s = stream(&text).unwrap();
        assert_eq!(s.header().hostname, "c0007");
        assert_eq!(s.header().classes, parsed.classes);
        let streamed: Vec<Sample> = s
            .map(|item| match item.unwrap() {
                SampleRef::Record(r) => Sample::Record(r.to_record()),
                SampleRef::Mark(m) => Sample::Mark(m),
            })
            .collect();
        assert_eq!(streamed, parsed.samples);
    }

    #[test]
    fn stream_device_names_borrow_the_file_text() {
        let text = write_small_file();
        let range = text.as_ptr() as usize..text.as_ptr() as usize + text.len();
        for item in stream(&text).unwrap() {
            let SampleRef::Record(rec) = item.unwrap() else { continue };
            for (_, device, _) in rec.rows() {
                let p = device.as_ptr() as usize;
                assert!(range.contains(&p), "device name was copied out of the file text");
            }
        }
    }

    #[test]
    fn stream_is_fused_after_an_error() {
        let bad = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\nT 0 -\nT zz -\nT 9 -\n";
        let mut s = stream(bad).unwrap();
        // The bad T line errors before the in-flight record from line 5
        // can be flushed; corrupt files surface nothing but the error.
        let first = s.next().unwrap();
        assert!(first.is_err(), "expected the bad T line to error, got {first:?}");
        assert!(s.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn record_ref_row_lookup() {
        let rec = sample_record(5, Some(7));
        let view = RecordRef::from_record(&rec);
        assert_eq!(view.row_count(), 3);
        assert_eq!(view.row(DeviceClass::Cpu, "1").unwrap()[0], 4);
        assert_eq!(view.row(DeviceClass::Lnet, "lnet").unwrap(), &[10, 20, 1, 2, 0][..]);
        assert!(view.row(DeviceClass::Mem, "0").is_none());
        assert_eq!(view.class_rows(DeviceClass::Cpu).count(), 2);
        assert_eq!(view.to_record(), rec);
    }

    /// Exhaust a lenient stream, returning the clean samples, and
    /// assert the byte + record conservation invariants.
    fn drain_lenient(text: &str) -> (Vec<Sample>, ScanQuarantine) {
        let mut s = stream_lenient(text).unwrap();
        let mut out = Vec::new();
        for item in s.by_ref() {
            match item.expect("lenient streams never yield Err") {
                SampleRef::Record(r) => out.push(Sample::Record(r.to_record())),
                SampleRef::Mark(m) => out.push(Sample::Mark(m)),
            }
        }
        let q = s.quarantine();
        assert_eq!(
            s.clean_bytes() + q.bytes,
            s.total_bytes(),
            "byte conservation: every byte is clean or quarantined"
        );
        assert_eq!(
            s.records_started(),
            s.records_emitted() + q.records,
            "record conservation: every started record is emitted or quarantined"
        );
        (out, q)
    }

    #[test]
    fn lenient_on_a_clean_file_matches_strict_exactly() {
        let text = write_small_file();
        let (samples, q) = drain_lenient(&text);
        assert!(q.is_empty());
        assert_eq!(samples, parse(&text).unwrap().samples);
    }

    #[test]
    fn lenient_skips_a_torn_row_and_its_block() {
        // Three records; the middle one's row is torn mid-value.
        let good = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\n\
            T 0 -\nlnet lnet 1 2 3 4 5\n\
            T 600 -\nlnet lnet 1 2 zz#\n\
            T 1200 -\nlnet lnet 6 7 8 9 10\n";
        let (samples, q) = drain_lenient(good);
        let recs: Vec<&Record> = samples
            .iter()
            .filter_map(|s| match s {
                Sample::Record(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(recs.len(), 2, "torn middle record quarantined");
        assert_eq!(recs[0].ts, Timestamp(0));
        assert_eq!(recs[1].ts, Timestamp(1200));
        assert_eq!(q.records, 1);
        assert_eq!(q.lines, 2, "the T 600 line and its bad row");
        assert_eq!(q.regions, 1);
    }

    #[test]
    fn lenient_resyncs_after_a_bad_t_line() {
        // The bad T orphans its rows; the next good T resyncs.
        let text = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\n\
            T 0 -\nlnet lnet 1 2 3 4 5\n\
            T zz -\nlnet lnet 9 9 9 9 9\n\
            T 1200 -\nlnet lnet 6 7 8 9 10\n";
        let (samples, q) = drain_lenient(text);
        let recs: Vec<&Record> = samples
            .iter()
            .filter_map(|s| match s {
                Sample::Record(r) => Some(r),
                _ => None,
            })
            .collect();
        // The record before the bad T is complete — it survives.
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, Timestamp(0));
        assert_eq!(q.records, 0, "no started record was torn");
        assert_eq!(q.lines, 2, "bad T plus its orphaned row");
        assert_eq!(q.regions, 1);
    }

    #[test]
    fn lenient_garbled_mark_loses_only_itself() {
        let text = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\n\
            % begin 7 0\nT 0 7\nlnet lnet 1 2 3 4 5\n% end zz 600\nT 600 -\n\
            lnet lnet 2 3 4 5 6\n";
        let (samples, q) = drain_lenient(text);
        assert_eq!(q.lines, 1);
        assert_eq!(q.records, 0);
        let marks = samples.iter().filter(|s| matches!(s, Sample::Mark(_))).count();
        let recs = samples.iter().filter(|s| matches!(s, Sample::Record(_))).count();
        assert_eq!((marks, recs), (1, 2), "both records and the good mark survive");
    }

    #[test]
    fn lenient_still_rejects_headerless_files() {
        // No schema → nothing downstream can be trusted.
        assert!(stream_lenient("garbage\nmore garbage\n").is_err());
        assert!(stream_lenient("$hostname h\nT 0 -\n").is_err());
    }

    #[test]
    fn lenient_truncated_tail_quarantines_the_last_record() {
        let full = write_small_file();
        // Cut mid-way through the last record's final row.
        let cut = full.len() - 9;
        let text = &full[..cut];
        let (_, q) = drain_lenient(text);
        assert_eq!(q.records, 1, "truncated final block discarded");
        assert_eq!(q.regions, 1);
    }

    #[test]
    fn strict_and_lenient_flags_do_not_mix_state() {
        let text = write_small_file();
        // Strict path still fails hard on a bad line.
        let bad = format!("{text}T zz -\n");
        let strict_err = stream(&bad).unwrap().find_map(Result::err);
        assert!(strict_err.is_some());
        // Lenient path quarantines the same file.
        let (_, q) = drain_lenient(&bad);
        assert_eq!(q.lines, 1);
    }

    #[test]
    fn parse_u64_rejects_nondigits_and_overflow() {
        assert_eq!(super::parse_u64("0"), Some(0));
        assert_eq!(super::parse_u64("18446744073709551615"), Some(u64::MAX));
        assert_eq!(super::parse_u64("18446744073709551616"), None);
        assert_eq!(super::parse_u64(""), None);
        assert_eq!(super::parse_u64("+1"), None);
        assert_eq!(super::parse_u64("-1"), None);
        assert_eq!(super::parse_u64("1x"), None);
    }
}
