//! State derived from a recovered record prefix: the delivery horizon,
//! the last installed view, and the per-connection request numbers a
//! restarted member feeds back into its duplicate detectors.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use ftmp_core::{ConnectionId, GroupId, ProcessorId, RequestNum, Timestamp};

use crate::record::{encode_frame, LogRecord};
use crate::recover::{scan, RecoverStats};

/// Everything a restarted member re-derives from its log (DESIGN.md §12).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Delivered-record count.
    pub delivered: u64,
    /// Highest delivered message timestamp per group — the point past which
    /// a donor's delta transfer must start.
    pub horizon: BTreeMap<GroupId, Timestamp>,
    /// Last membership view installed per group before the crash.
    pub last_view: BTreeMap<GroupId, (Vec<ProcessorId>, Timestamp)>,
    /// Request numbers delivered per connection, in delivery order: the
    /// duplicate-suppression warm-start stream (§4 watermarks re-derive by
    /// replaying these through the detector's own fold).
    pub per_conn: BTreeMap<ConnectionId, Vec<RequestNum>>,
}

impl RecoveredState {
    /// Fold a recovered prefix into derived state.
    pub fn from_records(records: &[LogRecord]) -> Self {
        let mut s = RecoveredState::default();
        for r in records {
            s.absorb(r);
        }
        s
    }

    /// Recover the log at `dir` (see [`scan`]) straight into derived state:
    /// the same fold as [`from_records`](Self::from_records) over the same
    /// scan as [`recover`](crate::recover()), without materialising the
    /// records — for a host that restarts from its log and wants only this.
    pub fn from_log(dir: &Path) -> io::Result<(Self, RecoverStats)> {
        let mut s = RecoveredState::default();
        let stats = scan(dir, |r| s.absorb(&r))?;
        Ok((s, stats))
    }

    /// The fold's step: account one more record of the prefix.
    fn absorb(&mut self, r: &LogRecord) {
        match r {
            LogRecord::Delivered(d) => {
                self.delivered += 1;
                let h = self.horizon.entry(d.group).or_insert(Timestamp(0));
                *h = (*h).max(d.ts);
                self.per_conn.entry(d.conn).or_default().push(d.request_num);
            }
            LogRecord::ViewChange(v) => {
                self.last_view.insert(v.group, (v.members.clone(), v.ts));
            }
        }
    }

    /// The delta-transfer start point for `group`: a donor only needs to
    /// replay entries with `ts` strictly greater than this.
    pub fn horizon_of(&self, group: GroupId) -> Timestamp {
        self.horizon.get(&group).copied().unwrap_or(Timestamp(0))
    }
}

/// FNV-1a fingerprint of a record sequence's canonical encoding. Two
/// recoveries yield identical state iff their fingerprints match — the
/// proptests' definition of "byte-identical recovered state".
pub fn fingerprint(records: &[LogRecord]) -> u64 {
    let mut buf = Vec::new();
    for r in records {
        encode_frame(r, &mut buf);
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in buf {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DeliveredRecord;
    use bytes::Bytes;
    use ftmp_core::{ObjectGroupId, SeqNum};

    #[test]
    fn derivation_folds_horizon_views_and_requests() {
        let conn = ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2));
        let records = vec![
            LogRecord::ViewChange(crate::record::ViewRecord {
                group: GroupId(1),
                members: vec![ProcessorId(1), ProcessorId(2)],
                ts: Timestamp(5),
            }),
            LogRecord::Delivered(DeliveredRecord {
                group: GroupId(1),
                conn,
                request_num: RequestNum(9),
                source: ProcessorId(2),
                seq: SeqNum(3),
                ts: Timestamp(40),
                giop: Bytes::from_static(b"x"),
            }),
            LogRecord::Delivered(DeliveredRecord {
                group: GroupId(1),
                conn,
                request_num: RequestNum(10),
                source: ProcessorId(1),
                seq: SeqNum(4),
                ts: Timestamp(12),
                giop: Bytes::from_static(b"y"),
            }),
        ];
        let s = RecoveredState::from_records(&records);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.horizon_of(GroupId(1)), Timestamp(40), "max ts, not last");
        assert_eq!(s.horizon_of(GroupId(9)), Timestamp(0));
        assert_eq!(
            s.last_view[&GroupId(1)],
            (vec![ProcessorId(1), ProcessorId(2)], Timestamp(5))
        );
        assert_eq!(s.per_conn[&conn], vec![RequestNum(9), RequestNum(10)]);
        assert_ne!(fingerprint(&records), fingerprint(&records[..2]));
        assert_eq!(fingerprint(&records), fingerprint(&records.clone()));
    }
}
