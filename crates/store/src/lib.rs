#![warn(missing_docs)]
//! # ftmp-store — the durable delivered-message log, and the on-disk
//! # observation trace
//!
//! An append-only, CRC-framed, segment-rotated on-disk log of what a
//! processor *delivered* (ordered messages and membership views), written
//! from the Action spine behind the [`ftmp_core::durable::DeliveryLog`]
//! sink. The sink is off by default and wire-invisible by construction:
//! logging observes deliveries, it never produces protocol input
//! (the golden trace-hash tests pin this).
//!
//! The log is what turns a crash from amnesia into a restart (DESIGN.md
//! §12): recovery replays the longest valid prefix — truncating torn tails,
//! quarantining corruption — and [`RecoveredState`] re-derives the
//! duplicate-suppression warm-start stream, the last installed view, and
//! the delivery *horizon* past which a donor's §7.2 state transfer only
//! needs to send a delta instead of a full snapshot.
//!
//! The same segments and frames carry a second stream: a runtime
//! process's observation trace (DESIGN.md §9), which `ftmp-check` replays
//! through its oracles. One frame, one CRC and one torn-tail rule serve
//! both; only the payload codec differs.
//!
//! Module map: [`record`] the CRC frame and the delivery log's record
//! codec; [`log`] the buffered segment writer and its flush points (the
//! durability point: no host is handed a delivery the OS has not been
//! handed); [`recover`](mod@recover) the segment scan, the one streaming
//! crash-recovery [`scan`] over it and its collector [`recover()`];
//! [`state`] the derived warm-start state, folded from records or straight
//! from the scan; [`trace`] the observation record codec, its writer and
//! its read-only reader.

pub mod log;
pub mod record;
pub mod recover;
pub mod state;
pub mod trace;

pub use crate::log::{DurableLog, LogConfig};
pub use crate::record::{DeliveredRecord, LogRecord, ViewRecord};
pub use crate::recover::{recover, scan, RecoverStats, Recovered};
pub use crate::state::{fingerprint, RecoveredState};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh unique directory under the system temp dir (no external tempdir
/// crate in this workspace). The caller owns cleanup; tests and benches
/// remove it when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ftmp-store-{}-{}-{}", std::process::id(), tag, n));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
