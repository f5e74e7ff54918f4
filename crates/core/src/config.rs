//! Protocol tunables.
//!
//! Two choices the paper leaves open are settled in code, not here. Timers
//! are always measured (§5's Heartbeats "measure latency"): the NACK jitter,
//! NACK retry, retransmission suppression and fail timeout below are the
//! *floors* from which [`crate::adaptive`] derives each effective value, never
//! more than `MAX_SCALE` times above them. And any processor that holds a
//! requested message may answer the RetransmitRequest (§5), each with a fixed
//! probability besides the original sender, who always answers.

use ftmp_net::SimDuration;

/// How many suspicions convict a processor (§7.2: "processors that enough
/// processors suspect").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quorum {
    /// Strict majority of the current membership — the default, robust to
    /// minority false suspicion.
    Majority,
    /// A fixed count (tests use 1 for immediate conviction).
    Fixed(usize),
}

impl Quorum {
    /// Number of suspicions required given the current membership size.
    pub fn required(self, membership_size: usize) -> usize {
        match self {
            Quorum::Majority => membership_size / 2 + 1,
            Quorum::Fixed(n) => n.max(1),
        }
    }
}

/// Ack-timestamp-driven send-window flow control.
///
/// When enabled, a processor stops admitting new ordered sends once its own
/// unstable retention (messages it sent that some member has not yet acked
/// past) reaches `high_water` messages, and reopens at `low_water`. The
/// window edges surface as `Action::Backpressure` / `Action::SendReady` so
/// the ORB can queue and shed instead of growing buffers without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowControl {
    /// Whether the send window is enforced at all.
    pub enabled: bool,
    /// Close the window when own unstable retention reaches this count.
    pub high_water: usize,
    /// Reopen the window when own unstable retention falls to this count.
    pub low_water: usize,
}

impl Default for FlowControl {
    fn default() -> Self {
        FlowControl {
            enabled: false,
            high_water: 64,
            low_water: 16,
        }
    }
}

impl FlowControl {
    /// An enabled window with the given high/low marks.
    pub fn window(high_water: usize, low_water: usize) -> Self {
        FlowControl {
            enabled: true,
            high_water: high_water.max(1),
            low_water: low_water.min(high_water.saturating_sub(1)),
        }
    }
}

/// When a queued-but-unflushed datagram must leave the packer.
///
/// [`PackPolicy::Immediate`] flushes at the end of every processor entry
/// point (same virtual instant as the sends themselves — packing is then a
/// pure datagram-count reduction with zero added latency). With
/// [`PackPolicy::Deadline`] a partially filled datagram may wait up to the
/// given bound for more traffic, trading bounded latency for larger packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackPolicy {
    /// Flush at the end of the entry point that queued the messages.
    Immediate,
    /// Hold a partially filled datagram up to this long before flushing
    /// (checked on every tick and on MTU overflow).
    Deadline(SimDuration),
}

/// Datagram packing and ack-vector piggybacking (DESIGN.md §5).
///
/// When enabled, outgoing FTMP messages to the same multicast address are
/// coalesced into one MTU-bounded packed container, data messages carry the
/// sender's ack-timestamp vector as a trailer, and redundant standalone
/// heartbeats are deferred while that piggybacked traffic flows. Off by
/// default: the default wire traffic is byte-for-byte the unpacked
/// historical form, so every existing experiment reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packing {
    /// Whether the packing layer is active at all.
    pub enabled: bool,
    /// Maximum packed-datagram size in bytes (container framing included).
    /// A single message that cannot fit even alone bypasses packing and is
    /// sent bare.
    pub mtu: usize,
    /// When partially filled datagrams are flushed.
    pub policy: PackPolicy,
}

impl Default for Packing {
    fn default() -> Self {
        Packing {
            enabled: false,
            mtu: 1400,
            policy: PackPolicy::Immediate,
        }
    }
}

impl Packing {
    /// An enabled packing layer with the given MTU and flush policy.
    pub fn with(mtu: usize, policy: PackPolicy) -> Self {
        Packing {
            enabled: true,
            // Below the container framing minimum everything would bypass;
            // keep at least one header-sized message packable.
            mtu: mtu.max(64),
            policy,
        }
    }
}

/// Dissemination-overlay topology for control traffic (DESIGN.md §13).
///
/// Flat is the paper's full-mesh LAN model: every member heartbeats, acks
/// and repairs over the group address, O(n²) control datagrams per interval.
/// Tree routes that control plane over a deterministic k-ary tree computed
/// from the current view: each member exchanges aggregated per-member
/// digests only with its tree parent and children, and NACK repair tries
/// the tree neighborhood before escalating to the whole group. Reliable
/// data traffic is unaffected. Off (Flat) by default: the default wire
/// traffic stays byte-for-byte identical to the historical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlayPolicy {
    /// Full-mesh control traffic over the group address (paper baseline).
    #[default]
    Flat,
    /// Control traffic over a deterministic k-ary dissemination tree.
    Tree {
        /// Children per interior node (clamped to ≥ 2 at tree build).
        arity: usize,
    },
}

/// All FTMP protocol tunables, with defaults sized for the simulated LAN.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Multicast a Heartbeat to a group if no Regular message was sent to it
    /// within this interval (§5: "a compromise between message latency and
    /// network traffic" — experiment E1 sweeps it).
    pub heartbeat_interval: SimDuration,
    /// Suspect a member after this long without traffic from it (§7.2): the
    /// floor; a jittery peer's measured interarrival stretches it.
    pub fail_timeout: SimDuration,
    /// Suspect a member whose reported ack timestamp has not advanced for
    /// this long while our own reception frontier sits above it. Such a
    /// member is heartbeat-reachable but data-unreachable (persistent
    /// one-way loss towards it swallows both the originals and every
    /// NACK repair), so the silence-based `fail_timeout` never fires; left
    /// in the group it stalls stability and pins retention forever.
    pub ack_stall_timeout: SimDuration,
    /// NACK scheduling: wait a uniformly random delay in `[0, nack_delay]`
    /// after detecting a gap before sending a RetransmitRequest, so the
    /// receivers of one multicast don't NACK in lock-step (the floor of a
    /// window that widens to half the smoothed RTT).
    pub(crate) nack_delay: SimDuration,
    /// Re-issue an unanswered RetransmitRequest after this long at first
    /// (the floor of the RTO), doubling per unanswered retry.
    pub(crate) nack_retry: SimDuration,
    /// After retransmitting a message, suppress further retransmissions of
    /// the same message for this long (any-holder implosion control; the
    /// floor of one smoothed RTT).
    pub(crate) retransmit_suppress: SimDuration,
    /// Client retry interval for unanswered ConnectRequests (§7).
    pub(crate) connect_retry: SimDuration,
    /// Server/sponsor retry interval for Connect and AddProcessor messages
    /// that cannot be NACK-recovered by their beneficiaries (§7).
    pub(crate) join_retry: SimDuration,
    /// Suspicions required for conviction.
    pub suspect_quorum: Quorum,
    /// Maximum missing-sequence span requested per RetransmitRequest.
    pub(crate) max_nack_span: u64,
    /// Seed for protocol-level randomness (NACK jitter, any-holder coin).
    pub seed: u64,
    /// Bounded send window (disabled by default).
    pub flow_control: FlowControl,
    /// Datagram packing + ack piggybacking (disabled by default).
    pub packing: Packing,
    /// Control-traffic dissemination topology (Flat by default).
    pub overlay: OverlayPolicy,
    /// Horizon on demand (DESIGN.md §4): a quiet member that finds itself
    /// holding back the head of the ordering queue heartbeats at once
    /// instead of waiting for the timer — at most one extra per
    /// `heartbeat_interval / 2`, plus one per 128 datagrams received for
    /// the group paid from its prompt budget. On by default; `false` is the
    /// paper's timer-only heartbeat, kept for E1's baseline column and the
    /// historical golden trace.
    pub prompt_horizon: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            heartbeat_interval: SimDuration::from_millis(10),
            fail_timeout: SimDuration::from_millis(120),
            ack_stall_timeout: SimDuration::from_millis(600),
            nack_delay: SimDuration::from_millis(2),
            nack_retry: SimDuration::from_millis(8),
            retransmit_suppress: SimDuration::from_millis(4),
            connect_retry: SimDuration::from_millis(20),
            join_retry: SimDuration::from_millis(20),
            suspect_quorum: Quorum::Majority,
            max_nack_span: 64,
            seed: 0xF7F7_0001,
            flow_control: FlowControl::default(),
            packing: Packing::default(),
            overlay: OverlayPolicy::Flat,
            prompt_horizon: true,
        }
    }
}

impl ProtocolConfig {
    /// Default config with a specific protocol-randomness seed.
    pub fn with_seed(seed: u64) -> Self {
        ProtocolConfig {
            seed,
            ..ProtocolConfig::default()
        }
    }

    /// Builder-style heartbeat interval override.
    pub fn heartbeat(mut self, d: SimDuration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Builder-style fail timeout override.
    pub fn fail_timeout_of(mut self, d: SimDuration) -> Self {
        self.fail_timeout = d;
        self
    }

    /// Builder-style ack-stall timeout override.
    pub fn ack_stall_of(mut self, d: SimDuration) -> Self {
        self.ack_stall_timeout = d;
        self
    }

    /// Builder-style quorum override.
    pub fn quorum(mut self, q: Quorum) -> Self {
        self.suspect_quorum = q;
        self
    }

    /// Builder-style flow-control override.
    pub fn flow_control(mut self, fc: FlowControl) -> Self {
        self.flow_control = fc;
        self
    }

    /// Builder-style packing override.
    pub fn packing(mut self, p: Packing) -> Self {
        self.packing = p;
        self
    }

    /// Builder-style overlay override.
    pub fn overlay(mut self, o: OverlayPolicy) -> Self {
        self.overlay = o;
        self
    }

    /// Builder-style horizon-on-demand override.
    pub fn prompt_horizon(mut self, on: bool) -> Self {
        self.prompt_horizon = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_quorum_math() {
        assert_eq!(Quorum::Majority.required(1), 1);
        assert_eq!(Quorum::Majority.required(2), 2);
        assert_eq!(Quorum::Majority.required(3), 2);
        assert_eq!(Quorum::Majority.required(4), 3);
        assert_eq!(Quorum::Majority.required(5), 3);
    }

    #[test]
    fn fixed_quorum_is_at_least_one() {
        assert_eq!(Quorum::Fixed(0).required(10), 1);
        assert_eq!(Quorum::Fixed(3).required(10), 3);
    }

    #[test]
    fn defaults_are_consistent() {
        let c = ProtocolConfig::default();
        assert!(c.heartbeat_interval < c.fail_timeout);
        assert!(c.nack_delay < c.nack_retry);
    }

    #[test]
    fn builders_override() {
        let c = ProtocolConfig::with_seed(7)
            .heartbeat(SimDuration::from_millis(3))
            .quorum(Quorum::Fixed(1))
            .flow_control(FlowControl::window(32, 8))
            .packing(Packing::with(
                512,
                PackPolicy::Deadline(SimDuration::from_micros(300)),
            ))
            .overlay(OverlayPolicy::Tree { arity: 4 })
            .prompt_horizon(false);
        assert_eq!(c.seed, 7);
        assert!(ProtocolConfig::default().prompt_horizon && !c.prompt_horizon);
        assert_eq!(c.heartbeat_interval.as_millis(), 3);
        assert_eq!(c.suspect_quorum, Quorum::Fixed(1));
        assert!(c.flow_control.enabled);
        assert_eq!(c.flow_control.high_water, 32);
        assert_eq!(c.flow_control.low_water, 8);
        assert!(c.packing.enabled);
        assert_eq!(c.packing.mtu, 512);
        assert_eq!(
            c.packing.policy,
            PackPolicy::Deadline(SimDuration::from_micros(300))
        );
        assert_eq!(c.overlay, OverlayPolicy::Tree { arity: 4 });
    }

    #[test]
    fn overlay_defaults_flat() {
        assert_eq!(ProtocolConfig::default().overlay, OverlayPolicy::Flat);
        assert_eq!(OverlayPolicy::default(), OverlayPolicy::Flat);
    }

    #[test]
    fn packing_defaults_off_and_sanitized() {
        let p = Packing::default();
        assert!(!p.enabled);
        assert_eq!(p.policy, PackPolicy::Immediate);
        // A degenerate MTU is clamped so a bare header still packs.
        assert_eq!(Packing::with(0, PackPolicy::Immediate).mtu, 64);
    }

    #[test]
    fn flow_control_window_sanitizes_marks() {
        let fc = FlowControl::window(0, 10);
        assert!(fc.enabled);
        assert_eq!(fc.high_water, 1);
        assert!(fc.low_water < fc.high_water);
        assert!(!FlowControl::default().enabled);
    }
}
