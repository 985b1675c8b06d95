//! The crash-safe usage ledger: every metered tenant-period, appended in
//! order and persisted atomically.
//!
//! The on-disk format is JSON lines:
//!
//! ```text
//! {"version":1}
//! {"seq":0,"period":1,"tenant":"acme","vfreq_mhz":500, ...}
//! {"seq":1,"period":1,"tenant":"bob","vfreq_mhz":1200, ...}
//! {"seal":2}
//! ```
//!
//! * line 1 is the format header;
//! * every record carries a `seq` that must be exactly its position —
//!   a gap or repeat means the file was hand-edited or interleaved;
//! * the last line is a **seal** holding the record count. A file
//!   without a seal, or whose seal disagrees with the record count, was
//!   truncated mid-write and is rejected as a whole — a bill must never
//!   silently shrink.
//!
//! Persistence uses the same discipline as `vfc_controller::persist`:
//! write `<path>.tmp`, fsync, rename. A crash leaves either the old
//! complete file or the new complete file, never a torn one. Loading
//! never panics: every defect maps to a typed [`LedgerError`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// On-disk format version this build writes and accepts.
pub const LEDGER_VERSION: u32 = 1;

/// One metered tenant-period at one guaranteed frequency: what a tenant's
/// VMs running at `vfreq_mhz` were promised, received and traded during
/// one control period. The `(period, tenant, vfreq_mhz)` granularity
/// preserves the frequency tier, which tiered price curves bill on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageRecord {
    /// Position in the ledger (assigned on append; contiguous from 0).
    pub seq: u64,
    /// Control period the usage occurred in (1-based).
    pub period: u64,
    /// Tenant billed for this usage.
    pub tenant: String,
    /// Guaranteed virtual frequency per vCPU (`F_v`), MHz — the price
    /// tier.
    pub vfreq_mhz: u32,
    /// VM-periods aggregated into this record.
    pub vm_periods: u64,
    /// Reserved work: Σ `k_v × F_v` over those VM-periods, MHz·s.
    pub guaranteed_mhz_s: u64,
    /// Work actually delivered (exact per-vCPU frequencies), MHz·s.
    pub delivered_mhz_s: u64,
    /// Auction-won cycles (credits spent, Alg. 1), µs of `F^MAX` time.
    pub auction_usec: u64,
    /// Credits minted by under-consumption (Eq. 4), µs.
    pub minted_usec: u64,
    /// This tenant's share of market cycles the cluster wasted, µs.
    pub wasted_share_usec: u64,
    /// VM-periods in which a VM demanded at least its guarantee.
    pub demanding_vm_periods: u64,
    /// Of those, VM-periods below the delivery tolerance (violations).
    pub violated_vm_periods: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    version: u32,
}

#[derive(Debug, Serialize, Deserialize)]
struct Seal {
    seal: u64,
}

/// Why a ledger file was rejected. Every variant is a *validated* error:
/// loading never panics and never returns a silently shortened ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The file does not exist (a fresh deployment, not a defect).
    Missing,
    /// The file could not be read (permissions, I/O, bad UTF-8).
    Io(String),
    /// The header is missing, malformed, or a version this build does
    /// not speak.
    Version(String),
    /// A line failed to parse or appeared after the seal.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A record's `seq` broke contiguity.
    Gap {
        /// 1-based line number of the offending record.
        line: usize,
        /// The `seq` the chain required.
        expected: u64,
        /// The `seq` actually present.
        found: u64,
    },
    /// No seal, or the seal disagrees with the record count — the tail
    /// was truncated mid-write.
    Truncated {
        /// The count the seal claims, if a seal was present at all.
        sealed: Option<u64>,
        /// Records actually present.
        found: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Missing => write!(f, "ledger file missing"),
            LedgerError::Io(e) => write!(f, "ledger io: {e}"),
            LedgerError::Version(e) => write!(f, "ledger header: {e}"),
            LedgerError::Corrupt { line, reason } => {
                write!(f, "ledger corrupt at line {line}: {reason}")
            }
            LedgerError::Gap {
                line,
                expected,
                found,
            } => write!(
                f,
                "ledger seq gap at line {line}: expected {expected}, found {found}"
            ),
            LedgerError::Truncated { sealed, found } => match sealed {
                Some(n) => write!(f, "ledger truncated: seal says {n}, found {found} records"),
                None => write!(f, "ledger truncated: no seal after {found} records"),
            },
        }
    }
}

impl std::error::Error for LedgerError {}

/// The in-memory ledger: an append-only record list. Appends assign
/// `seq`; [`UsageLedger::save`] persists the whole ledger atomically
/// (callers checkpoint at period granularity, so rewrites stay small —
/// one line per tenant×tier×period).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageLedger {
    records: Vec<UsageRecord>,
}

impl UsageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        UsageLedger::default()
    }

    /// Append a record; its `seq` is overwritten with the next position.
    pub fn push(&mut self, mut record: UsageRecord) {
        record.seq = self.records.len() as u64;
        self.records.push(record);
    }

    /// All records, in append order.
    pub fn records(&self) -> &[UsageRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been metered yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Render the full on-disk form (header, records, seal).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 160);
        out.push_str(
            &serde_json::to_string(&Header {
                version: LEDGER_VERSION,
            })
            .expect("header serializes"),
        );
        out.push('\n');
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out.push_str(
            &serde_json::to_string(&Seal {
                seal: self.records.len() as u64,
            })
            .expect("seal serializes"),
        );
        out.push('\n');
        out
    }

    /// Persist atomically through [`vfc_telemetry::write_atomic`]
    /// (write, fsync, rename). After a crash at any point the file at
    /// `path` is either the previous complete ledger or this one — never
    /// a torn mix.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        vfc_telemetry::write_atomic(path, self.render().as_bytes())
    }

    /// Load and fully validate a ledger file. See [`LedgerError`] for
    /// the rejection taxonomy; in particular a truncated tail rejects
    /// the whole file rather than returning a silently short bill.
    pub fn load(path: &Path) -> Result<Self, LedgerError> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(LedgerError::Missing),
            Err(e) => return Err(LedgerError::Io(e.to_string())),
        };
        Self::parse(&text)
    }

    /// Validate the textual form (the testable core of [`UsageLedger::load`]).
    pub fn parse(text: &str) -> Result<Self, LedgerError> {
        let mut lines = text.lines().enumerate();
        let Some((_, header)) = lines.next() else {
            return Err(LedgerError::Version("empty file".to_owned()));
        };
        match serde_json::from_str::<Header>(header) {
            Ok(h) if h.version == LEDGER_VERSION => {}
            Ok(h) => {
                return Err(LedgerError::Version(format!(
                    "version {} not supported (want {LEDGER_VERSION})",
                    h.version
                )))
            }
            Err(e) => return Err(LedgerError::Version(e.to_string())),
        }
        let mut records = Vec::new();
        let mut sealed: Option<u64> = None;
        for (idx, line) in lines {
            let lineno = idx + 1; // 1-based
            if sealed.is_some() {
                return Err(LedgerError::Corrupt {
                    line: lineno,
                    reason: "content after seal".to_owned(),
                });
            }
            if let Ok(s) = serde_json::from_str::<Seal>(line) {
                sealed = Some(s.seal);
                continue;
            }
            let record: UsageRecord =
                serde_json::from_str(line).map_err(|e| LedgerError::Corrupt {
                    line: lineno,
                    reason: e.to_string(),
                })?;
            let expected = records.len() as u64;
            if record.seq != expected {
                return Err(LedgerError::Gap {
                    line: lineno,
                    expected,
                    found: record.seq,
                });
            }
            records.push(record);
        }
        let found = records.len() as u64;
        match sealed {
            Some(n) if n == found => Ok(UsageLedger { records }),
            sealed => Err(LedgerError::Truncated { sealed, found }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    pub(crate) fn record(seq: u64, period: u64, tenant: &str) -> UsageRecord {
        UsageRecord {
            seq,
            period,
            tenant: tenant.to_owned(),
            vfreq_mhz: 500,
            vm_periods: 2,
            guaranteed_mhz_s: 2_000,
            delivered_mhz_s: 1_900,
            auction_usec: 120,
            minted_usec: 80,
            wasted_share_usec: 10,
            demanding_vm_periods: 2,
            violated_vm_periods: 1,
        }
    }

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vfc-ledger-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = dir("rt").join("usage.ledger");
        let mut l = UsageLedger::new();
        l.push(record(9, 1, "acme")); // seq is overwritten
        l.push(record(9, 1, "bob"));
        l.push(record(9, 2, "acme"));
        l.save(&path).unwrap();
        let back = UsageLedger::load(&path).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.records()[2].seq, 2);
        assert!(!path.with_extension("ledger.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_distinguished() {
        let path = dir("missing").join("never-written.ledger");
        assert_eq!(UsageLedger::load(&path), Err(LedgerError::Missing));
    }

    #[test]
    fn truncated_tail_is_rejected_not_shortened() {
        let mut l = UsageLedger::new();
        l.push(record(0, 1, "acme"));
        l.push(record(0, 1, "bob"));
        let full = l.render();
        // Drop the seal line: mid-write crash shape.
        let cut = full.rsplit_once("{\"seal\"").unwrap().0;
        match UsageLedger::parse(cut) {
            Err(LedgerError::Truncated {
                sealed: None,
                found: 2,
            }) => {}
            other => panic!("want truncation, got {other:?}"),
        }
        // Drop the last record but keep the (now wrong) seal.
        let lines: Vec<&str> = full.lines().collect();
        let missing_rec = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[3]);
        match UsageLedger::parse(&missing_rec) {
            Err(LedgerError::Truncated {
                sealed: Some(2),
                found: 1,
            }) => {}
            other => panic!("want seal mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_line_and_gap_are_typed() {
        let mut l = UsageLedger::new();
        l.push(record(0, 1, "acme"));
        let mut text = l.render();
        text = text.replace("\"tenant\":\"acme\"", "\"tenant\":42");
        match UsageLedger::parse(&text) {
            Err(LedgerError::Corrupt { line: 2, .. }) => {}
            other => panic!("want corrupt line 2, got {other:?}"),
        }
        let mut skipped = UsageLedger::new();
        skipped.push(record(0, 1, "acme"));
        // Seal stays correct (1 record), so the gap is what trips.
        let gap = skipped.render().replace("\"seq\":0", "\"seq\":3");
        match UsageLedger::parse(&gap) {
            Err(LedgerError::Gap {
                line: 2,
                expected: 0,
                found: 3,
            }) => {}
            other => panic!("want gap, got {other:?}"),
        }
    }

    #[test]
    fn content_after_seal_is_corrupt() {
        let mut l = UsageLedger::new();
        l.push(record(0, 1, "acme"));
        let text = format!("{}{{\"seq\":1}}\n", l.render());
        match UsageLedger::parse(&text) {
            Err(LedgerError::Corrupt { line: 4, .. }) => {}
            other => panic!("want trailing corrupt, got {other:?}"),
        }
    }
}
