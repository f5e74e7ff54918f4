//! Network behaviour models: latency, loss, scheduled link degradation,
//! and the overall configuration.

use crate::draw::{self, gen_bool};
use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Latency experienced by each (packet, receiver) pair.
///
/// Latency is sampled independently per receiver, modelling a switched LAN
/// where multicast fan-out reaches receivers at slightly different times —
/// the jitter that forces ROMP to actually order messages rather than rely
/// on arrival order.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Fixed one-way delay.
    Constant(SimDuration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Minimum one-way delay.
        min: SimDuration,
        /// Maximum one-way delay.
        max: SimDuration,
    },
    /// `base` plus an exponentially distributed tail with the given mean —
    /// a decent stand-in for queueing delay on a busy LAN.
    ExpTail {
        /// Deterministic propagation floor.
        base: SimDuration,
        /// Mean of the additional exponential component.
        mean_tail: SimDuration,
    },
}

impl LatencyModel {
    /// A 1990s-LAN-ish default: 250us floor plus a 100us mean tail.
    pub fn lan() -> Self {
        LatencyModel::ExpTail {
            base: SimDuration::from_micros(250),
            mean_tail: SimDuration::from_micros(100),
        }
    }

    /// The one-way delay the draw `x` picks.
    pub fn sample(&self, x: u64) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(max >= min);
                SimDuration(draw::gen_range(x, min.0, max.0))
            }
            LatencyModel::ExpTail { base, mean_tail } => {
                // In (0, 1]: the logarithm stays finite.
                let u = 1.0 - draw::unit(x);
                let tail = (-u.ln()) * mean_tail.0 as f64;
                SimDuration(base.0 + tail as u64)
            }
        }
    }
}

/// Per-receiver packet-loss model.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent loss with probability `p` per (packet, receiver).
    Iid {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott two-state burst loss. The channel flips between a
    /// good state (loss `p_good`) and a bad state (loss `p_bad`); state
    /// transitions are sampled per delivery attempt.
    Burst {
        /// Loss probability in the good state.
        p_good: f64,
        /// Loss probability in the bad state.
        p_bad: f64,
        /// P(good → bad) per attempt.
        p_enter_bad: f64,
        /// P(bad → good) per attempt.
        p_exit_bad: f64,
    },
}

/// One datagram copy offered to one directed link: the key of every draw
/// the simulator makes for it is `[tag, pair(src, dst), ordinal]` under the
/// network's seed ([`SimConfig::seed`]). `ordinal` counts the copies offered
/// to the link before this one, so a copy's fate depends on its own link's
/// traffic only. The leading words of the tags every copy draws, those from
/// [`draw::LOSS`] to [`draw::LATENCY`], are folded once for the link, so
/// each of those draws takes one round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkCopy {
    seed: u64,
    link: u64,
    folded: [u64; 3],
    /// Copies offered to the link before this one.
    pub(crate) ordinal: u64,
}

impl LinkCopy {
    /// The first copy offered to the link `src → dst` under `seed`.
    pub(crate) fn first(seed: u64, src: NodeId, dst: NodeId) -> Self {
        let link = draw::pair(src, dst);
        let folded = std::array::from_fn(|i| draw::draw(seed, &[draw::LOSS + i as u64, link]));
        LinkCopy {
            seed,
            link,
            folded,
            ordinal: 0,
        }
    }

    /// This copy's draw for the decision `tag` (one of [`crate::draw`]'s).
    #[inline]
    pub(crate) fn draw(&self, tag: u64) -> u64 {
        match tag {
            draw::LOSS..=draw::LATENCY => {
                draw::extend(self.folded[(tag - draw::LOSS) as usize], self.ordinal)
            }
            _ => draw::draw(self.seed, &[tag, self.link, self.ordinal]),
        }
    }
}

impl LossModel {
    /// Whether `copy` is lost. A burst model first flips the receiver's
    /// state (`in_bad`: is it in the bad state, asked for only then) on the
    /// copy's own draw, so the state is per receiver while every draw is
    /// per link.
    pub(crate) fn loses<'s>(&self, copy: &LinkCopy, in_bad: impl FnOnce() -> &'s mut bool) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Iid { p } => gen_bool(copy.draw(draw::LOSS), *p),
            LossModel::Burst {
                p_good,
                p_bad,
                p_enter_bad,
                p_exit_bad,
            } => {
                let bad = in_bad();
                let flip = if *bad { p_exit_bad } else { p_enter_bad };
                if gen_bool(copy.draw(draw::BURST_FLIP), *flip) {
                    *bad = !*bad;
                }
                let p = if *bad { *p_bad } else { *p_good };
                gen_bool(copy.draw(draw::LOSS), p)
            }
        }
    }
}

/// Which (src → dst) links a [`LinkDegrade`] applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every link (a network-wide event such as a switch stall).
    All,
    /// Only links *into* the listed receivers (an overloaded or
    /// poorly-connected host).
    To(Vec<NodeId>),
    /// Only links *out of* the listed senders (a congested uplink).
    From(Vec<NodeId>),
    /// Only the listed directed `(src, dst)` links — a persistent one-way
    /// fault such as a half-broken NIC or a misprogrammed switch port.
    Link(Vec<(NodeId, NodeId)>),
}

impl LinkSelector {
    /// Does the selector cover the `src → dst` link?
    pub fn covers(&self, src: NodeId, dst: NodeId) -> bool {
        match self {
            LinkSelector::All => true,
            LinkSelector::To(dsts) => dsts.contains(&dst),
            LinkSelector::From(srcs) => srcs.contains(&src),
            LinkSelector::Link(links) => links.contains(&(src, dst)),
        }
    }
}

/// What a matched [`FaultRule`] does to a (packet, receiver) copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Drop the copy.
    Drop,
    /// Add the given extra one-way delay to the copy. Large values reorder
    /// the copy past later traffic on the same link.
    Delay(SimDuration),
    /// Deliver the copy normally and schedule a duplicate arriving the
    /// given extra delay later.
    Duplicate(SimDuration),
}

/// A deterministic, targeted schedule fault: drop/delay/duplicate the
/// `skip`-th through `skip+count`-th copies matching a (class, src, dst)
/// filter. Rules consume no randomness, so a fault plan replays
/// bit-identically from its description — the property the coverage-guided
/// explorer's genome replay rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Traffic-class octet to match (from the installed classifier);
    /// `None` matches every class, including unclassified payloads.
    pub class: Option<u8>,
    /// Source node to match (`None` = any).
    pub src: Option<NodeId>,
    /// Receiver to match (`None` = any).
    pub dst: Option<NodeId>,
    /// Matching copies to let pass before the rule starts firing.
    pub skip: u64,
    /// Number of matching copies to affect once firing.
    pub count: u64,
    /// What to do to affected copies.
    pub op: FaultOp,
}

impl FaultRule {
    /// Does this rule's filter cover a copy of the given class on
    /// `src → dst`? (Occurrence windows are tracked by the simulator.)
    pub fn matches(&self, class: Option<u8>, src: NodeId, dst: NodeId) -> bool {
        self.class.is_none_or(|c| class == Some(c))
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }
}

/// An ordered list of [`FaultRule`]s; the first matching rule whose
/// occurrence window is open claims each copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Rules, evaluated in order per (packet, receiver) copy.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Append a rule.
    pub fn rule(mut self, r: FaultRule) -> Self {
        self.rules.push(r);
        self
    }
}

/// A scheduled, time-windowed degradation of selected links: the
/// fault-injection surface for latency-spike and overload experiments
/// (E11) and the chaos suite. While active, the sampled one-way latency on
/// covered links is multiplied by `latency_factor` and packets are
/// additionally dropped with probability `extra_loss` (independently of
/// the configured [`LossModel`]).
#[derive(Debug, Clone)]
pub struct LinkDegrade {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Links covered.
    pub links: LinkSelector,
    /// Multiplier applied to the sampled latency (1.0 = unchanged). This
    /// scales the whole sample, so under a jittery [`LatencyModel`] it
    /// amplifies deviation as well as mean — a real congestion signature.
    pub latency_factor: f64,
    /// Additional independent drop probability on covered links.
    pub extra_loss: f64,
}

impl LinkDegrade {
    /// A lossy window over the given links (latency untouched).
    pub fn lossy(from: SimTime, until: SimTime, links: LinkSelector, extra_loss: f64) -> Self {
        LinkDegrade {
            from,
            until,
            links,
            latency_factor: 1.0,
            extra_loss,
        }
    }

    /// Is the window active at `now` (`until` exclusive) *and* covering
    /// `src → dst`?
    pub fn applies(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        (self.from..self.until).contains(&now) && self.links.covers(src, dst)
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all randomness (loss, latency, reordering).
    pub seed: u64,
    /// One-way latency model, sampled per (packet, receiver).
    pub latency: LatencyModel,
    /// Loss model, sampled per (packet, receiver).
    pub loss: LossModel,
    /// Loopback delay for a sender receiving its own multicast.
    /// IP multicast loopback is kernel-local: fast and lossless.
    pub loopback_latency: SimDuration,
    /// Interval between `on_tick` calls for every node.
    pub tick_interval: SimDuration,
    /// Scheduled link degradations (latency spikes, lossy windows).
    pub degrades: Vec<LinkDegrade>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xF7_4D_00_01,
            latency: LatencyModel::lan(),
            loss: LossModel::None,
            loopback_latency: SimDuration::from_micros(20),
            tick_interval: SimDuration::from_millis(1),
            degrades: Vec::new(),
        }
    }
}

impl SimConfig {
    /// Default config with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Replace the loss model.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Replace the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Add a scheduled link degradation.
    pub fn degrade(mut self, d: LinkDegrade) -> Self {
        self.degrades.push(d);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The copies `0..n` offered to link 1 → 2 under seed 42.
    fn copies(n: u64) -> impl DoubleEndedIterator<Item = LinkCopy> {
        let first = LinkCopy::first(42, 1, 2);
        (0..n).map(move |ordinal| LinkCopy { ordinal, ..first })
    }

    /// The latency draws of the copies `0..n`.
    fn draws(n: u64) -> impl DoubleEndedIterator<Item = u64> {
        copies(n).map(|c| c.draw(draw::LATENCY))
    }

    #[test]
    fn a_copy_draws_its_whole_key() {
        for c in copies(3) {
            for tag in [
                draw::LOSS,
                draw::BURST_FLIP,
                draw::LATENCY,
                draw::DEGRADE_LOSS + 2,
            ] {
                let key = [tag, draw::pair(1, 2), c.ordinal];
                assert_eq!(c.draw(tag), draw::draw(42, &key), "tag {tag}");
            }
        }
    }

    #[test]
    fn constant_latency_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_micros(100));
        for x in draws(10) {
            assert_eq!(m.sample(x).as_micros(), 100);
        }
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_micros(10),
            max: SimDuration::from_micros(20),
        };
        for x in draws(1000) {
            let d = m.sample(x).as_micros();
            assert!((10..=20).contains(&d));
        }
    }

    #[test]
    fn exp_tail_latency_at_least_base() {
        let m = LatencyModel::lan();
        let mut sum = 0u64;
        for x in draws(1000) {
            let d = m.sample(x).as_micros();
            assert!(d >= 250);
            sum += d;
        }
        let mean = sum as f64 / 1000.0;
        // base 250 + mean tail 100 => mean near 350.
        assert!((300.0..420.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn iid_loss_rate_approximates_p() {
        let model = LossModel::Iid { p: 0.2 };
        let mut in_bad = false;
        let lost = copies(10_000)
            .filter(|c| model.loses(c, || &mut in_bad))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((0.17..0.23).contains(&rate), "rate {rate}");
    }

    #[test]
    fn burst_loss_clusters() {
        let model = LossModel::Burst {
            p_good: 0.001,
            p_bad: 0.5,
            p_enter_bad: 0.01,
            p_exit_bad: 0.1,
        };
        let mut in_bad = false;
        let outcomes: Vec<bool> = copies(20_000)
            .map(|c| model.loses(&c, || &mut in_bad))
            .collect();
        let lost = outcomes.iter().filter(|&&l| l).count();
        // Stationary rate ~ 0.001*(10/11) + 0.5*(1/11) ≈ 0.046.
        let rate = lost as f64 / outcomes.len() as f64;
        assert!((0.02..0.09).contains(&rate), "rate {rate}");
        // Burstiness: probability a loss directly follows a loss far exceeds
        // the marginal rate.
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let loss_after_loss = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = loss_after_loss as f64 / pairs.max(1) as f64;
        assert!(cond > 2.0 * rate, "cond {cond} rate {rate}");
    }

    #[test]
    fn link_degrade_window_and_selector() {
        use crate::time::SimTime;
        let d = LinkDegrade {
            latency_factor: 8.0,
            ..LinkDegrade::lossy(
                SimTime(1_000),
                SimTime(2_000),
                LinkSelector::To(vec![4]),
                0.0,
            )
        };
        assert!(!d.applies(SimTime(999), 1, 4));
        assert!(d.applies(SimTime(1_000), 1, 4));
        assert!(d.applies(SimTime(1_999), 1, 4));
        assert!(!d.applies(SimTime(2_000), 1, 4), "end is exclusive");
        assert!(d.applies(SimTime(1_500), 1, 4));
        assert!(!d.applies(SimTime(1_500), 4, 1), "To() keys on receiver");
        let from = LinkDegrade::lossy(SimTime(0), SimTime(10), LinkSelector::From(vec![2]), 0.5);
        assert!(from.applies(SimTime(5), 2, 9));
        assert!(!from.applies(SimTime(5), 3, 9));
        assert!(LinkSelector::All.covers(7, 8));
    }

    #[test]
    fn a_copy_draws_the_same_whenever_it_is_asked() {
        let m = LatencyModel::lan();
        let a: Vec<u64> = draws(100).map(|x| m.sample(x).as_micros()).collect();
        let b: Vec<u64> = draws(100).rev().map(|x| m.sample(x).as_micros()).collect();
        assert!(a.iter().eq(b.iter().rev()));
        assert!(a.windows(2).any(|w| w[0] != w[1]), "latency varies");
    }
}
