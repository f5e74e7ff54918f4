//! Keyed draws: every random decision is a hash of what it decides.
//!
//! A counter-based generator in the manner of Salmon et al., "Parallel
//! random numbers: as easy as 1, 2, 3" (SC 2011): [`draw`] folds a seed and
//! a key through the SplitMix64 finaliser, and nothing is carried from one
//! draw to the next. A decision's key names it — which link, which copy on
//! that link, what the draw is for; which member, which gap — so one draw
//! more or less elsewhere in a run moves no other decision.
//!
//! The first word of every key is one of the tags below, so two kinds of
//! decision never share a key even under the same seed.

/// The NACK jitter of one gap episode (DESIGN.md §4).
pub const NACK_JITTER: u64 = 1;
/// The any-holder coin: does this holder answer this request for this
/// message.
pub const ANY_HOLDER: u64 = 2;
/// The simulator's loss draw for one copy on one link. The three tags of
/// every copy's draws, `LOSS` to [`LATENCY`], stay consecutive:
/// the simulator's `LinkCopy` folds their key prefixes by range.
pub const LOSS: u64 = 3;
/// The simulator's Gilbert–Elliott state flip for one copy.
pub const BURST_FLIP: u64 = 4;
/// The simulator's latency draw for one copy.
pub const LATENCY: u64 = 5;
/// The simulator's extra-loss draw of a degrade window; the window's index
/// is added to it, so it stays the last tag.
pub const DEGRADE_LOSS: u64 = 6;

/// The SplitMix64 output finaliser: a bijection on `u64` with full
/// avalanche.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The draw `key` names under `seed`: uniform over `u64`, and the same
/// value every time it is asked for.
#[inline]
pub fn draw(seed: u64, key: &[u64]) -> u64 {
    key.iter().fold(extend(0, seed), |h, &k| extend(h, k))
}

/// `draw(seed, key ++ [last])` from `h = draw(seed, key)`: a key's leading
/// words folded once finish each draw under them in one round, where
/// [`draw`] takes a round per word.
#[inline]
pub fn extend(h: u64, last: u64) -> u64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    mix((h ^ last).wrapping_add(GAMMA))
}

/// Two 32-bit ids as one key word.
#[inline]
pub fn pair(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// A draw as a float uniform in `[0, 1)`, from its top 53 bits.
#[inline]
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A draw as a coin that lands true with probability `p` (clamped to
/// `[0, 1]`).
#[inline]
pub fn gen_bool(x: u64, p: f64) -> bool {
    unit(x) < p.clamp(0.0, 1.0)
}

/// A draw as an integer in `[lo, hi]` (multiply-shift; the bias is below
/// `(hi - lo + 1) / 2^64`).
#[inline]
pub fn gen_range(x: u64, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    let span = u128::from(hi - lo) + 1;
    lo + ((u128::from(x) * span) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_draw_is_a_pure_function_of_seed_and_key() {
        assert_eq!(draw(7, &[LOSS, 1, 2]), draw(7, &[LOSS, 1, 2]));
        assert_ne!(draw(7, &[LOSS, 1, 2]), draw(8, &[LOSS, 1, 2]));
        assert_ne!(draw(7, &[LOSS, 1, 2]), draw(7, &[LOSS, 1, 3]));
        assert_ne!(draw(7, &[LOSS, 1, 2]), draw(7, &[LATENCY, 1, 2]));
        assert_ne!(
            draw(7, &[LOSS, 1, 2]),
            draw(7, &[LOSS, 2, 1]),
            "order counts"
        );
    }

    #[test]
    fn extending_a_key_finishes_its_draw() {
        let h = draw(7, &[LATENCY, pair(1, 2)]);
        for last in [0, 1, 99, u64::MAX] {
            assert_eq!(extend(h, last), draw(7, &[LATENCY, pair(1, 2), last]));
        }
        assert_eq!(extend(draw(7, &[]), LOSS), draw(7, &[LOSS]));
    }

    #[test]
    fn helpers_stay_in_range_at_the_extremes() {
        for x in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            assert!((0.0..1.0).contains(&unit(x)));
            assert!((10..=20).contains(&gen_range(x, 10, 20)));
            assert_eq!(gen_range(x, 5, 5), 5);
            assert!(gen_range(x, 0, u64::MAX) == x);
            assert!(!gen_bool(x, 0.0));
            assert!(gen_bool(x, 1.0));
        }
    }

    #[test]
    fn consecutive_keys_are_uniform() {
        // Ordinals 0..n on one link: the coin's rate, the range's mean and
        // every bucket of a 16-way split sit where a uniform source puts
        // them.
        let n = 64_000u64;
        let xs: Vec<u64> = (0..n).map(|i| draw(42, &[LOSS, pair(1, 2), i])).collect();
        let hits = xs.iter().filter(|&&x| gen_bool(x, 0.2)).count() as f64 / n as f64;
        assert!((0.19..0.21).contains(&hits), "rate {hits}");
        let mean = xs.iter().map(|&x| gen_range(x, 0, 100) as f64).sum::<f64>() / n as f64;
        assert!((49.0..51.0).contains(&mean), "mean {mean}");
        let mut buckets = [0u32; 16];
        for &x in &xs {
            buckets[(x >> 60) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        for b in buckets {
            assert!((f64::from(b) - expect).abs() < 0.06 * expect, "{buckets:?}");
        }
    }

    #[test]
    fn one_copy_on_two_links_draws_independently() {
        // A multicast's copies share an ordinal on every link: a loss on
        // 1 → 2 says nothing about 1 → 3, so both fall at p².
        let n = 64_000u64;
        let lost = |dst, i| gen_bool(draw(42, &[LOSS, pair(1, dst), i]), 0.35);
        let both = (0..n).filter(|&i| lost(2, i) && lost(3, i)).count() as f64 / n as f64;
        assert!((0.115..0.13).contains(&both), "joint rate {both}");
    }
}
