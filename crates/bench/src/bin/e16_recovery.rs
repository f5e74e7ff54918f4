//! Writes `results/e16.json`: the E16 crash-recovery snapshot — wall-clock
//! cost of the DESIGN.md §12 restart path (segment scan + CRC validation,
//! watermark/horizon derivation, duplicate-detector warm start) as a
//! function of durable-log size. The write cost is reported alongside so
//! the append path's overhead is visible in the same table.
//!
//! With `FTMP_METRICS_DIR` set, the warm-started endpoint's telemetry
//! counters (requests/replies suppressed, watermark evictions) and the
//! recovery stats are also written to `$FTMP_METRICS_DIR/e16_metrics.json`.

use bytes::Bytes;
use ftmp_core::{ConnectionId, GroupId, ObjectGroupId, ProcessorId, RequestNum, SeqNum, Timestamp};
use ftmp_orb::OrbEndpoint;
use ftmp_store::{
    recover, scratch_dir, DeliveredRecord, DurableLog, LogConfig, LogRecord, RecoverStats,
    RecoveredState, ViewRecord,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Connections the synthetic workload spreads over.
const CONNS: u32 = 8;

fn conn_of(i: u32) -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, i), ObjectGroupId::new(2, i))
}

struct Row {
    records: u64,
    segments: usize,
    log_bytes: u64,
    write_ms: f64,
    recover_ms: f64,
    derive_ms: f64,
    warm_ms: f64,
    restart_ms: f64,
    recovered_per_sec: f64,
}

/// Write a `n`-delivery log (views sprinkled in, like a real member's),
/// then measure the three restart stages: recover (scan + CRC), derive
/// (horizon + per-connection watermarks), warm start (replay the numbers
/// through the duplicate detector's own fold).
fn run_size(n: u64) -> (Row, OrbEndpoint, RecoverStats) {
    let dir = scratch_dir("e16");
    let mut log = DurableLog::open(&dir, LogConfig::default()).expect("open log");
    let giop = Bytes::from(vec![0xAB; 64]);
    let wall = Instant::now();
    for k in 0..n {
        if k % 1024 == 0 {
            log.append(&LogRecord::ViewChange(ViewRecord {
                group: GroupId(1),
                members: (1..=4).map(ProcessorId).collect(),
                ts: Timestamp(k + 1),
            }))
            .expect("append view");
        }
        log.append(&LogRecord::Delivered(DeliveredRecord {
            group: GroupId(1),
            conn: conn_of((k % u64::from(CONNS)) as u32),
            request_num: RequestNum(k + 1),
            source: ProcessorId((k % 4 + 1) as u32),
            seq: SeqNum(k + 1),
            ts: Timestamp(k + 1),
            giop: giop.clone(),
        }))
        .expect("append delivery");
    }
    log.sync().expect("sync");
    let write_ms = wall.elapsed().as_secs_f64() * 1_000.0;
    drop(log);
    let segs = ftmp_store::log::list_segments(&dir).expect("list segments");
    let log_bytes: u64 = segs
        .iter()
        .map(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();

    let t = Instant::now();
    let rec = recover(&dir).expect("recover");
    let recover_ms = t.elapsed().as_secs_f64() * 1_000.0;
    let t = Instant::now();
    let state = RecoveredState::from_records(&rec.records);
    let derive_ms = t.elapsed().as_secs_f64() * 1_000.0;
    let t = Instant::now();
    let mut orb = OrbEndpoint::new();
    let mut warmed = 0;
    for (conn, nums) in &state.per_conn {
        warmed += orb.warm_start_executed(*conn, nums.iter().copied());
    }
    let warm_ms = t.elapsed().as_secs_f64() * 1_000.0;

    assert_eq!(state.delivered, n, "every delivery recovered");
    assert_eq!(
        warmed, n,
        "every recovered number was fresh to the detector"
    );
    assert_eq!(
        state.horizon_of(GroupId(1)),
        Timestamp(n),
        "horizon = last ts"
    );
    assert_eq!(
        orb.warm_start_executed(conn_of(0), [RequestNum(1)]),
        0,
        "a pre-crash request must stay suppressed after warm start"
    );
    let stats = rec.stats.clone();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    let restart_ms = recover_ms + derive_ms + warm_ms;
    (
        Row {
            records: n,
            segments: segs.len(),
            log_bytes,
            write_ms,
            recover_ms,
            derive_ms,
            warm_ms,
            restart_ms,
            recovered_per_sec: n as f64 / (restart_ms / 1_000.0),
        },
        orb,
        stats,
    )
}

fn dump_metrics(dir: &str, orb: &OrbEndpoint, stats: &RecoverStats) -> std::io::Result<()> {
    let mut reg = ftmp_telemetry::Registry::new();
    orb.register_metrics(&mut reg);
    let id = reg.counter("e16_segments_scanned");
    reg.inc(id, u64::from(stats.segments_scanned));
    let id = reg.counter("e16_records_recovered");
    reg.inc(id, stats.records_recovered);
    let id = reg.counter("e16_bytes_truncated");
    reg.inc(id, stats.bytes_truncated);
    let id = reg.counter("e16_records_quarantined");
    reg.inc(id, stats.records_quarantined);
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        std::path::Path::new(dir).join("e16_metrics.json"),
        reg.snapshot().to_json() + "\n",
    )
}

fn main() {
    let sizes = [1_000u64, 10_000, 50_000];
    let runs: Vec<(Row, OrbEndpoint, RecoverStats)> = sizes.into_iter().map(run_size).collect();

    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"e16-recovery\",\n  \"rows\": [\n");
    for (i, (r, _, _)) in runs.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"records\": {}, \"segments\": {}, \"log_bytes\": {}, \
             \"write_ms\": {:.2}, \"recover_ms\": {:.2}, \"derive_ms\": {:.2}, \
             \"warm_start_ms\": {:.2}, \"restart_ms\": {:.2}, \
             \"recovered_per_sec\": {:.0}}}{}",
            r.records,
            r.segments,
            r.log_bytes,
            r.write_ms,
            r.recover_ms,
            r.derive_ms,
            r.warm_ms,
            r.restart_ms,
            r.recovered_per_sec,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/e16.json", &j).expect("write results/e16.json");
    println!("{j}");

    if let Ok(dir) = std::env::var("FTMP_METRICS_DIR") {
        let (_, orb, stats) = runs.last().expect("at least one size");
        dump_metrics(&dir, orb, stats).expect("write e16_metrics.json");
    }
}
