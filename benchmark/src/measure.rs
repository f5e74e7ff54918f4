//! What the benchmark measures with: the counting allocator, process CPU
//! time and peak memory from `/proc`, an exact latency histogram, and the
//! median-of-slices rule every wall-clock metric goes through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::Instant;

/// The system allocator plus two counters that only move while
/// [`set_counting`] is on (the traced window), so the untraced pass pays one
/// relaxed load per allocation and shares no written cache line.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that
// publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller vouches
        // for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start or stop counting allocations process-wide.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Process CPU time so far, user and system, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_us: f64,
    pub sys_us: f64,
}

impl CpuTimes {
    /// Read `utime`/`stime` of the whole process (all threads) from
    /// `/proc/self/stat`. Linux reports them in clock ticks of 10 ms, which
    /// is why CPU metrics are taken over the whole window, never per slice.
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name may hold spaces; fields are counted after its ')'.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let mut f = rest.split_whitespace().skip(11);
        let tick_us = 10_000.0;
        let mut next = || f.next().and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        CpuTimes {
            user_us: next() * tick_us,
            sys_us: next() * tick_us,
        }
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }

    pub fn total_us(self) -> f64 {
        self.user_us + self.sys_us
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latencies in whole microseconds with exact percentiles: one counter per
/// microsecond below [`LatencyHist::FINE`], exact values above it.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    count: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            fine: vec![0; Self::FINE],
            coarse: Vec::new(),
            count: 0,
        }
    }
}

impl LatencyHist {
    /// 262 ms: above every steady-state latency the workloads produce.
    const FINE: usize = 1 << 18;

    pub fn record(&mut self, us: u64) {
        match self.fine.get_mut(us as usize) {
            Some(c) => *c += 1,
            None => self.coarse.push(us),
        }
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.coarse.extend_from_slice(&other.coarse);
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Percentile in µs, `None` when empty: the whole microsecond the rank
    /// falls in plus the rank's place among the samples that share it, so
    /// that two runs whose samples differ do not read the same to the digit.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (self.count as f64 * p / 100.0).clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (us, &c) in self.fine.iter().enumerate() {
            let before = seen as f64;
            seen += u64::from(c);
            if seen as f64 >= rank {
                return Some(us as f64 + (rank - before) / f64::from(c));
            }
        }
        let mut tail = self.coarse.clone();
        tail.sort_unstable();
        tail.get((rank.ceil() as u64 - seen - 1) as usize)
            .map(|&us| us as f64)
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// CPU time this process's threads have spent running, in nanoseconds
/// (`/proc/self/task/*/schedstat`): fine enough to take per slice, which the
/// 10 ms ticks of `/proc/self/stat` are not.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Equal-work slices per window; each wall-clock figure is the median slice
/// after the correction below.
pub const SLICES: u64 = 60;

/// A fixed piece of work of the engine's own kind — a B-tree of byte vectors
/// churned through 6000 inserts and removals — run at every slice boundary to
/// tell how fast the box is going at that moment.
///
/// This box is a shared virtual machine that switches, for minutes at a time,
/// between a quiet state and one in which everything single-threaded runs a
/// quarter to a third slower (another tenant on the sibling hyperthread, by
/// the look of it: no steal time is reported). Six runs of `sim-loss-1k` at
/// one seed across such switches had median slices from 340k to 477k
/// deliveries/s; this loop took 2.6 ms against 3.5 ms in step with them
/// (correlation 0.6–0.9 slice by slice), and the rates multiplied by the loop
/// time agreed to 8 % (quartiles 4.5 % apart).
fn reference_work() -> u64 {
    use std::collections::BTreeMap;
    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut sum = 0u64;
    for i in 0..6_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let body = vec![i as u8; 128 + (x as usize & 1023)];
        sum += body.iter().map(|&b| u64::from(b)).sum::<u64>();
        tree.insert(x >> 44, body);
        if tree.len() > 4096 {
            tree.pop_first();
        }
    }
    sum ^ tree.len() as u64
}

/// What [`reference_work`] takes on this box in its quiet state, so that a
/// corrected figure reads as the quiet box would have measured it.
const REFERENCE_QUIET_NS: f64 = 2.5e6;

/// One timed pass of the reference work, as a speed: 1 in the quiet state.
fn timed_reference() -> f64 {
    // Once untimed, to pull its working set back into the caches the system
    // under test has just filled with its own.
    std::hint::black_box(reference_work());
    let t = Instant::now();
    std::hint::black_box(reference_work());
    REFERENCE_QUIET_NS / t.elapsed().as_nanos() as f64
}

/// The second thread the reference work runs on: started at first use and
/// blocked on its channel in between. It is one thread for the whole run
/// because a thread's allocations come from an arena of its own: a thread
/// spawned per probe touched a different one each time and peak memory read
/// anything from 26 to 32 MiB.
struct Helper {
    go: mpsc::Sender<()>,
    done: mpsc::Receiver<f64>,
}

static HELPER: OnceLock<Mutex<Helper>> = OnceLock::new();

fn helper() -> &'static Mutex<Helper> {
    HELPER.get_or_init(|| {
        let (go, wake) = mpsc::channel::<()>();
        let (report, done) = mpsc::channel();
        std::thread::spawn(move || {
            while wake.recv().is_ok() {
                if report.send(timed_reference()).is_err() {
                    break;
                }
            }
        });
        Mutex::new(Helper { go, done })
    })
}

/// How fast the box is going right now: 1 in the quiet state, about 0.75 in
/// the slow one. Allocations made here are not the system under test's.
///
/// With `both_cores` the reference work runs on two threads at once and the
/// speed is their mean: the simulator's engine is the calling thread, but the
/// socket runtime's threads run on both of the box's cores, either of which
/// can be the slow one. Twenty runs of `sock-fanin-64` corrected by the
/// one-thread speed had corrected medians with quartiles 12.5 %
/// (deliveries/s), 10.7 % (p50) and 9.0 % (CPU) apart; by the two-thread
/// speed of the same moments 8.3 %, 7.0 % and 4.7 %.
pub fn box_speed(both_cores: bool) -> f64 {
    let counting = COUNTING.swap(false, Ordering::Relaxed);
    let speed = if both_cores {
        let h = helper()
            .lock()
            .expect("the helper's lock is never poisoned");
        h.go.send(())
            .expect("the helper thread lives as long as the process");
        let here = timed_reference();
        let there = h.done.recv().expect("the reference work does not panic");
        (here + there) / 2.0
    } else {
        timed_reference()
    };
    COUNTING.store(counting, Ordering::Relaxed);
    speed
}

/// How the box's speed is probed at a slice boundary or round a set-up.
#[derive(Clone, Copy)]
pub struct SpeedProbe {
    /// How long the system under test is given to fall idle before the
    /// reference work runs (its own threads would slow it).
    pub settle: std::time::Duration,
    /// Whether the reference work runs on two threads ([`box_speed`]).
    pub both_cores: bool,
    /// The workload's `speed_exponent` (`table::Workload`).
    pub exponent: f64,
}

impl SpeedProbe {
    /// The simulator runs on the calling thread and is idle between calls.
    pub fn sim(exponent: f64) -> SpeedProbe {
        SpeedProbe {
            settle: std::time::Duration::ZERO,
            both_cores: false,
            exponent,
        }
    }

    /// What a rate is divided, a cost or latency multiplied by at `speed`.
    fn factor(self, speed: f64) -> f64 {
        speed.powf(self.exponent)
    }
}

/// A slice boundary: the slice before it ends at `end_*`, the reference work
/// runs, the slice after it starts at `start_*`.
struct Mark {
    deliveries: u64,
    end_at: Instant,
    end_cpu_ns: u64,
    speed: f64,
    start_at: Instant,
    start_cpu_ns: u64,
}

/// The measured window: opened after warm-up, marked at each slice boundary.
pub struct Window {
    marks: Vec<Mark>,
    probe: SpeedProbe,
    cpu_open: CpuTimes,
    cpu_close: CpuTimes,
}

/// A per-slice figure over the window.
pub struct Steady {
    /// The median slice, each slice corrected for the box's speed at the
    /// time: what the metric reports.
    pub value: f64,
    /// The median slice as the clock read it.
    pub raw: f64,
    /// `(max − min) ÷ median` over the corrected slices.
    pub spread: f64,
}

/// `(median, (max − min) ÷ median)`.
fn median_of(mut values: Vec<f64>) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mid = median(&mut values);
    let range = values[values.len() - 1] - values[0];
    (mid, if mid == 0.0 { 0.0 } else { range / mid })
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Set up [`SETUPS`] times from scratch, dropping each world before the
/// next is built. Returns the median set-up time in seconds, corrected for
/// the box's speed before and after it, and the last world.
pub fn set_up<W>(probe: SpeedProbe, mut build: impl FnMut() -> W) -> (f64, W) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut world = None;
    let mut speed_before = box_speed(probe.both_cores);
    for _ in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(build());
        let took = t.elapsed().as_secs_f64();
        if !probe.settle.is_zero() {
            std::thread::sleep(probe.settle);
        }
        let speed_after = box_speed(probe.both_cores);
        times.push(took * probe.factor((speed_before + speed_after) / 2.0));
        speed_before = speed_after;
    }
    (median(&mut times), world.expect("SETUPS > 0"))
}

impl Window {
    fn mark_now(deliveries: u64, probe: SpeedProbe) -> Mark {
        let (end_at, end_cpu_ns) = (Instant::now(), cpu_ns());
        if !probe.settle.is_zero() {
            std::thread::sleep(probe.settle);
        }
        let speed = box_speed(probe.both_cores);
        Mark {
            deliveries,
            end_at,
            end_cpu_ns,
            speed,
            start_cpu_ns: cpu_ns(),
            start_at: Instant::now(),
        }
    }

    /// Open the window with `deliveries` already made.
    pub fn open(deliveries: u64, probe: SpeedProbe) -> Window {
        let cpu = CpuTimes::now();
        Window {
            marks: vec![Self::mark_now(deliveries, probe)],
            probe,
            cpu_open: cpu,
            cpu_close: cpu,
        }
    }

    /// Close a slice with the cumulative delivery count.
    pub fn mark(&mut self, deliveries: u64) {
        self.marks.push(Self::mark_now(deliveries, self.probe));
        self.cpu_close = CpuTimes::now();
    }

    pub fn wall_s(&self) -> f64 {
        self.slices().map(|s| s.wall_s).sum()
    }

    pub fn deliveries(&self) -> u64 {
        self.marks[self.marks.len() - 1].deliveries - self.marks[0].deliveries
    }

    /// User and system CPU over the whole window (10 ms ticks; includes the
    /// reference work, about 3 % of it).
    pub fn cpu(&self) -> CpuTimes {
        self.cpu_close.since(self.cpu_open)
    }

    fn slices(&self) -> impl Iterator<Item = Slice> + '_ {
        self.marks.windows(2).map(|w| Slice {
            deliveries: (w[1].deliveries - w[0].deliveries) as f64,
            wall_s: w[1].end_at.duration_since(w[0].start_at).as_secs_f64(),
            cpu_us: (w[1].end_cpu_ns - w[0].start_cpu_ns) as f64 / 1e3,
            speed: (w[0].speed + w[1].speed) / 2.0,
        })
    }

    /// What a latency of the slice just closed is multiplied by.
    pub fn last_factor(&self) -> f64 {
        self.slices()
            .last()
            .map_or(1.0, |s| self.probe.factor(s.speed))
    }

    /// The box's speed over the window (median slice).
    pub fn speed(&self) -> f64 {
        median_of(self.slices().map(|s| s.speed).collect()).0
    }

    fn steady(&self, figure: impl Fn(&Slice) -> f64, is_rate: bool) -> Steady {
        // A slow box lowers a rate and raises a cost.
        let corrected = |s: &Slice| {
            if is_rate {
                figure(s) / self.probe.factor(s.speed)
            } else {
                figure(s) * self.probe.factor(s.speed)
            }
        };
        // A slice nothing was delivered in (they occur at smoke-test scale,
        // where one sweep of the queues can overshoot several boundaries)
        // has no rate and no cost.
        let busy = || self.slices().filter(|s| s.deliveries > 0.0);
        let (value, spread) = median_of(busy().map(|s| corrected(&s)).collect());
        Steady {
            value,
            raw: median_of(busy().map(|s| figure(&s)).collect()).0,
            spread,
        }
    }

    /// Deliveries per wall second.
    pub fn rate(&self) -> Steady {
        self.steady(|s| s.deliveries / s.wall_s, true)
    }

    /// Microseconds of CPU, all threads, per delivery.
    pub fn cpu_us_per_delivery(&self) -> Steady {
        self.steady(|s| s.cpu_us / s.deliveries.max(1.0), false)
    }
}

struct Slice {
    deliveries: f64,
    wall_s: f64,
    cpu_us: f64,
    speed: f64,
}

/// Fold one ordered delivery into a member's running hash: two members
/// delivered the same sequence iff their counts and hashes agree.
pub fn fold_delivery(hash: u64, d: &ftmp_core::Delivery) -> u64 {
    [u64::from(d.source.0), d.seq.0, d.ts.0]
        .into_iter()
        .fold(hash, |h, word| {
            (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Seeded input generator (splitmix64): the same seed gives the same bodies.
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64) -> Self {
        InputRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A pool of `n` distinct random bodies of `len` bytes; sends cycle
    /// through it by reference count, so the generator costs the system
    /// under test no copy of its own.
    pub fn bodies(&mut self, n: usize, len: usize) -> Vec<bytes::Bytes> {
        (0..n)
            .map(|_| {
                let mut v = Vec::with_capacity(len + 8);
                while v.len() < len {
                    v.extend_from_slice(&self.next_u64().to_le_bytes());
                }
                v.truncate(len);
                bytes::Bytes::from(v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_across_the_fine_coarse_boundary() {
        let mut h = LatencyHist::default();
        for us in 1..=99 {
            h.record(us);
        }
        h.record(1_000_000);
        // One sample per microsecond: the rank's sample fills its microsecond.
        assert_eq!(h.percentile(50.0), Some(51.0));
        assert_eq!(h.percentile(99.0), Some(100.0));
        assert_eq!(h.percentile(100.0), Some(1_000_000.0));
        assert_eq!(LatencyHist::default().percentile(50.0), None);
        // Four samples share 7 µs: the median is half-way through it.
        let mut h = LatencyHist::default();
        (0..4).for_each(|_| h.record(7));
        assert_eq!(h.percentile(50.0), Some(7.5));
    }

    #[test]
    fn same_seed_same_bodies() {
        let a = InputRng::new(7).bodies(4, 64);
        let b = InputRng::new(7).bodies(4, 64);
        let c = InputRng::new(8).bodies(4, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|x| x.len() == 64));
    }
}
