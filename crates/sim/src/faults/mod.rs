//! Seeded, deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] answers pure questions — "is this transmission
//! corrupted?", "how much jitter does this packet pick up?", "is this
//! node's AMU browned out right now?" — from a keyed hash of the
//! question itself (seed, endpoints, time, sequence number, attempt).
//! There is no mutable RNG stream, so the answers do not depend on the
//! order components ask, only on what they ask: same seed + same
//! simulated history ⇒ bit-identical fault pattern. That is what makes
//! chaos runs replayable and lets tests assert bit-identical output.
//!
//! The plan is pure data derived from [`FaultConfig`]; the recovery
//! machinery (link replay, NACK backoff, watchdog) lives with the
//! components it protects (`noc`, `cpu`, the machine).

use amo_types::seed::splitmix64 as mix;
use amo_types::tape::ChoiceKind;
use amo_types::{Cycle, FaultConfig, SharedTape};

/// One part-per-million denominator for error-rate draws.
const PPM: u64 = 1_000_000;

/// The runtime fault oracle. Cheap to copy; construct once per machine
/// from the [`SystemConfig`](amo_types::SystemConfig)'s `faults` field.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Plan implementing `cfg`.
    pub(crate) fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The no-fault plan: every query answers "no fault, zero cycles".
    pub(crate) fn none() -> Self {
        FaultPlan {
            cfg: FaultConfig::none(),
        }
    }

    /// The configuration this plan implements.
    pub(crate) fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if any link-level fault source is active. Fabrics use this
    /// to skip the fault path entirely — the zero-rate plan must add
    /// literally zero cycles.
    #[inline]
    pub(crate) fn link_faults_enabled(&self) -> bool {
        self.cfg.link_error_ppm > 0 || self.cfg.jitter_max > 0
    }

    /// True if AMU brown-out windows are configured.
    #[inline]
    pub(crate) fn brownouts_enabled(&self) -> bool {
        self.cfg.amu_brownout_period > 0 && self.cfg.amu_brownout_len > 0
    }

    /// True if any delivery-fault source (drop, duplication, reorder) is
    /// active. Gates both the fabric's delivery-fault path and every
    /// piece of end-to-end recovery machinery (e2e timers, dedup
    /// windows), so the zero-rate plan stays bit-identical to the
    /// unfaulted machine.
    #[inline]
    pub(crate) fn delivery_faults_enabled(&self) -> bool {
        self.cfg.delivery_enabled()
    }

    /// Link replay budget before a packet's link is declared failed.
    #[inline]
    pub(crate) fn max_link_retries(&self) -> u32 {
        self.cfg.max_link_retries
    }

    /// Effective corruption rate (ppm) at time `now`, accounting for
    /// burst windows.
    fn rate_ppm(&self, now: Cycle) -> u64 {
        let base = self.cfg.link_error_ppm as u64;
        if self.cfg.burst_period > 0 && now % self.cfg.burst_period < self.cfg.burst_len {
            (base * self.cfg.burst_multiplier as u64).min(PPM)
        } else {
            base
        }
    }

    /// Is transmission `attempt` of packet (`src` → `dst`, sequence
    /// `seq`, departing at `now`) corrupted on the wire?
    #[inline]
    pub(crate) fn corrupts(&self, src: u16, dst: u16, now: Cycle, seq: u64, attempt: u32) -> bool {
        let rate = self.rate_ppm(now);
        if rate == 0 {
            return false;
        }
        let key = self
            .cfg
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((src as u64) << 48 | (dst as u64) << 32 | attempt as u64)
            .wrapping_add(seq.rotate_left(17));
        mix(key) % PPM < rate
    }

    /// Delay jitter (cycles) this packet picks up in flight; 0..=jitter_max.
    #[inline]
    pub(crate) fn jitter(&self, src: u16, dst: u16, seq: u64) -> Cycle {
        if self.cfg.jitter_max == 0 {
            return 0;
        }
        let key = self
            .cfg
            .seed
            .wrapping_mul(0xE703_7ED1_A0B4_28DB)
            .wrapping_add((dst as u64) << 48 | (src as u64) << 32)
            .wrapping_add(seq.rotate_left(29));
        mix(key) % (self.cfg.jitter_max + 1)
    }

    /// Effective delivery-fault rate (ppm) for `base` at time `now`:
    /// burst windows boost delivery faults the same way they boost
    /// corruption (a congested interface drops and duplicates in the
    /// same correlated episodes it corrupts).
    fn delivery_rate_ppm(&self, base: u32, now: Cycle) -> u64 {
        let base = base as u64;
        if self.cfg.burst_period > 0 && now % self.cfg.burst_period < self.cfg.burst_len {
            (base * self.cfg.burst_multiplier as u64).min(PPM)
        } else {
            base
        }
    }

    /// Is delivery `attempt` of packet (`src` → `dst`, sequence `seq`,
    /// delivered at `now`) silently dropped at the destination
    /// interface? The attempt index keys retransmissions of the same
    /// sequence independently, so an end-to-end retry is not doomed to
    /// the original's fate.
    #[inline]
    pub(crate) fn drops(&self, src: u16, dst: u16, now: Cycle, seq: u64, attempt: u32) -> bool {
        let rate = self.delivery_rate_ppm(self.cfg.link_drop_ppm, now);
        if rate == 0 {
            return false;
        }
        let key = self
            .cfg
            .seed
            .wrapping_mul(0x9E6C_63D0_876A_7A35)
            .wrapping_add((src as u64) << 48 | (dst as u64) << 32 | attempt as u64)
            .wrapping_add(seq.rotate_left(23));
        mix(key) % PPM < rate
    }

    /// Is this delivery duplicated at the destination interface (both
    /// copies handed to the handler)?
    #[inline]
    pub(crate) fn duplicates(
        &self,
        src: u16,
        dst: u16,
        now: Cycle,
        seq: u64,
        attempt: u32,
    ) -> bool {
        let rate = self.delivery_rate_ppm(self.cfg.link_dup_ppm, now);
        if rate == 0 {
            return false;
        }
        let key = self
            .cfg
            .seed
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .wrapping_add((dst as u64) << 48 | (src as u64) << 32 | attempt as u64)
            .wrapping_add(seq.rotate_left(41));
        mix(key) % PPM < rate
    }

    /// Extra delivery skew (cycles, 0..=`link_reorder_window`) this
    /// packet picks up *after* its ingress reservation. The skew does
    /// not advance the interface's reservation clock, so a later packet
    /// with less skew overtakes it — bounded reordering.
    #[inline]
    pub(crate) fn reorder_skew(&self, src: u16, dst: u16, seq: u64) -> Cycle {
        if self.cfg.link_reorder_window == 0 {
            return 0;
        }
        let key = self
            .cfg
            .seed
            .wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
            .wrapping_add((src as u64) << 48 | (dst as u64) << 32)
            .wrapping_add(seq.rotate_left(31));
        mix(key) % (self.cfg.link_reorder_window + 1)
    }

    /// Cycles one link-level replay costs: a full retransmission delay
    /// plus exponential backoff — base × 2^attempt, capped at 16× base.
    #[inline]
    pub(crate) fn replay_backoff(&self, attempt: u32) -> Cycle {
        self.cfg.link_retry_backoff << attempt.min(4)
    }

    /// Is `node`'s AMU browned out (refusing dispatches) at `now`?
    #[inline]
    pub(crate) fn amu_browned_out(&self, node: u16, now: Cycle) -> bool {
        if !self.brownouts_enabled() {
            return false;
        }
        // Stagger windows across nodes so brown-outs are not
        // machine-synchronous (that would just look like a global pause).
        let phase = mix(self.cfg.seed.wrapping_add(node as u64)) % self.cfg.amu_brownout_period;
        (now + phase) % self.cfg.amu_brownout_period < self.cfg.amu_brownout_len
    }
}

/// Resolves the delivery layer's discrete schedule choices — reorder
/// skew, duplication — either *implicitly* (the [`FaultPlan`]'s keyed
/// hash, the default) or *explicitly* (an attached choice tape the
/// schedule explorer controls; see `amo_types::tape`). The fabric asks
/// this oracle instead of the plan directly, so "which interleaving are
/// we in?" has exactly one answer site that enumeration can take over.
#[derive(Clone, Debug, Default)]
pub(crate) enum ScheduleOracle {
    /// Implicit choices from the fault plan's keyed hash.
    #[default]
    Hashed,
    /// Explicit choices popped from the shared tape.
    Taped(SharedTape),
}

impl ScheduleOracle {
    /// Should the delivery-fault layer run at all? Hashed mode follows
    /// the plan's rates; taped mode always engages it (the tape decides
    /// per message, even with every rate at zero).
    #[inline]
    pub(crate) fn delivery_active(&self, plan: &FaultPlan) -> bool {
        match self {
            ScheduleOracle::Hashed => plan.delivery_faults_enabled(),
            ScheduleOracle::Taped(_) => true,
        }
    }

    /// Reorder skew for this delivery: hashed draw, or a tape choice in
    /// `0..=link_reorder_window`.
    #[inline]
    pub(crate) fn reorder_skew(&self, plan: &FaultPlan, src: u16, dst: u16, seq: u64) -> Cycle {
        match self {
            ScheduleOracle::Hashed => plan.reorder_skew(src, dst, seq),
            ScheduleOracle::Taped(tape) => {
                let window = plan.config().link_reorder_window.min(u16::MAX as u64 - 1);
                tape.borrow_mut()
                    .choose(ChoiceKind::ReorderSkew, window as u16 + 1) as Cycle
            }
        }
    }

    /// Is this delivery dropped? Tape mode never drops — a drop only
    /// stretches a run through the e2e-recovery path the chaos layer
    /// already probes, so the explorer leaves it out of the choice space
    /// (documented soundness boundary).
    #[inline]
    pub(crate) fn drops(&self, plan: &FaultPlan, src: u16, dst: u16, now: Cycle, seq: u64) -> bool {
        match self {
            ScheduleOracle::Hashed => plan.drops(src, dst, now, seq, 0),
            ScheduleOracle::Taped(_) => false,
        }
    }

    /// Is this delivery duplicated? In tape mode this is a two-way
    /// choice point when the tape's config explores duplicates, else
    /// never.
    #[inline]
    pub(crate) fn duplicates(
        &self,
        plan: &FaultPlan,
        src: u16,
        dst: u16,
        now: Cycle,
        seq: u64,
    ) -> bool {
        match self {
            ScheduleOracle::Hashed => plan.duplicates(src, dst, now, seq, 0),
            ScheduleOracle::Taped(tape) => {
                let mut t = tape.borrow_mut();
                t.cfg.explore_dups && t.choose(ChoiceKind::Duplicate, 2) == 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig) -> FaultPlan {
        FaultPlan::new(cfg)
    }

    #[test]
    fn zero_rate_plan_answers_nothing() {
        let p = FaultPlan::none();
        assert!(!p.link_faults_enabled());
        assert!(!p.brownouts_enabled());
        for seq in 0..1000 {
            assert!(!p.corrupts(0, 1, seq * 7, seq, 0));
            assert_eq!(p.jitter(0, 1, seq), 0);
            assert!(!p.amu_browned_out(0, seq));
        }
    }

    #[test]
    fn same_question_same_answer() {
        let p = plan(FaultConfig {
            link_error_ppm: 100_000,
            jitter_max: 32,
            seed: 42,
            ..FaultConfig::none()
        });
        for seq in 0..500 {
            let a = p.corrupts(3, 7, 1_000 + seq, seq, 1);
            let b = p.corrupts(3, 7, 1_000 + seq, seq, 1);
            assert_eq!(a, b);
            assert_eq!(p.jitter(3, 7, seq), p.jitter(3, 7, seq));
        }
    }

    #[test]
    fn different_seed_different_pattern() {
        let a = plan(FaultConfig {
            link_error_ppm: 100_000,
            seed: 1,
            ..FaultConfig::none()
        });
        let b = plan(FaultConfig {
            link_error_ppm: 100_000,
            seed: 2,
            ..FaultConfig::none()
        });
        let differs =
            (0..2_000).any(|seq| a.corrupts(0, 1, 0, seq, 0) != b.corrupts(0, 1, 0, seq, 0));
        assert!(differs, "distinct seeds should disagree somewhere");
    }

    #[test]
    fn corruption_rate_tracks_config() {
        let p = plan(FaultConfig {
            link_error_ppm: 250_000, // 25%
            seed: 7,
            ..FaultConfig::none()
        });
        let n = 20_000u64;
        let hits = (0..n).filter(|&seq| p.corrupts(1, 2, seq, seq, 0)).count();
        let frac = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&frac), "observed rate {frac}");
    }

    #[test]
    fn burst_windows_multiply_rate() {
        let p = plan(FaultConfig {
            link_error_ppm: 10_000, // 1%
            burst_multiplier: 20,   // 20% inside bursts
            burst_period: 1_000,
            burst_len: 100,
            seed: 9,
            ..FaultConfig::none()
        });
        let inside: usize = (0..10_000)
            .filter(|&seq| p.corrupts(0, 1, (seq % 100) as Cycle, seq, 0))
            .count();
        let outside: usize = (0..10_000)
            .filter(|&seq| p.corrupts(0, 1, 500 + (seq % 100) as Cycle, seq, 0))
            .count();
        assert!(
            inside > outside * 5,
            "burst window should be much hotter: {inside} vs {outside}"
        );
    }

    #[test]
    fn jitter_bounded_and_varied() {
        let p = plan(FaultConfig {
            jitter_max: 16,
            seed: 11,
            ..FaultConfig::none()
        });
        let vals: Vec<Cycle> = (0..200).map(|seq| p.jitter(0, 1, seq)).collect();
        assert!(vals.iter().all(|&j| j <= 16));
        assert!(vals.iter().any(|&j| j > 0), "some jitter expected");
        assert!(vals.windows(2).any(|w| w[0] != w[1]), "jitter should vary");
    }

    #[test]
    fn zero_rate_delivery_plan_answers_nothing() {
        let p = FaultPlan::none();
        assert!(!p.delivery_faults_enabled());
        for seq in 0..1_000 {
            assert!(!p.drops(0, 1, seq * 3, seq, 0));
            assert!(!p.duplicates(0, 1, seq * 3, seq, 0));
            assert_eq!(p.reorder_skew(0, 1, seq), 0);
        }
    }

    #[test]
    fn delivery_rates_track_config() {
        let p = plan(FaultConfig {
            link_drop_ppm: 200_000, // 20%
            link_dup_ppm: 100_000,  // 10%
            seed: 13,
            ..FaultConfig::none()
        });
        assert!(p.delivery_faults_enabled());
        let n = 20_000u64;
        let drops = (0..n).filter(|&s| p.drops(1, 2, s, s, 0)).count() as f64 / n as f64;
        let dups = (0..n).filter(|&s| p.duplicates(1, 2, s, s, 0)).count() as f64 / n as f64;
        assert!((0.17..0.23).contains(&drops), "observed drop rate {drops}");
        assert!((0.08..0.12).contains(&dups), "observed dup rate {dups}");
    }

    #[test]
    fn retransmission_attempts_draw_independently() {
        let p = plan(FaultConfig {
            link_drop_ppm: 500_000,
            seed: 5,
            ..FaultConfig::none()
        });
        // A sequence doomed on attempt 0 must not be doomed on every
        // attempt: some retry of every packet eventually gets through.
        let escapes = (0..200).all(|seq| (0..32).any(|a| !p.drops(0, 1, 100, seq, a)));
        assert!(escapes, "every packet must have a surviving attempt");
    }

    #[test]
    fn reorder_skew_bounded_varied_and_deterministic() {
        let p = plan(FaultConfig {
            link_reorder_window: 48,
            seed: 17,
            ..FaultConfig::none()
        });
        let vals: Vec<Cycle> = (0..300).map(|s| p.reorder_skew(2, 5, s)).collect();
        assert!(vals.iter().all(|&v| v <= 48));
        assert!(vals.iter().any(|&v| v > 0));
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
        for s in 0..300 {
            assert_eq!(p.reorder_skew(2, 5, s), vals[s as usize]);
        }
    }

    #[test]
    fn replay_backoff_is_exponential_and_capped() {
        let p = plan(FaultConfig {
            link_retry_backoff: 64,
            ..FaultConfig::none()
        });
        assert_eq!(p.replay_backoff(0), 64);
        assert_eq!(p.replay_backoff(1), 128);
        assert_eq!(p.replay_backoff(2), 256);
        assert_eq!(p.replay_backoff(4), 1024);
        assert_eq!(p.replay_backoff(10), 1024, "capped at 16x");
    }

    #[test]
    fn brownout_windows_are_periodic_and_staggered() {
        let p = plan(FaultConfig {
            amu_brownout_period: 1_000,
            amu_brownout_len: 100,
            seed: 3,
            ..FaultConfig::none()
        });
        for node in 0..4u16 {
            let down: usize = (0..10_000).filter(|&t| p.amu_browned_out(node, t)).count();
            assert_eq!(down, 1_000, "node {node}: 10% duty cycle expected");
        }
        // Staggering: at least one instant where node 0 and node 1 disagree.
        let disagree = (0..2_000).any(|t| p.amu_browned_out(0, t) != p.amu_browned_out(1, t));
        assert!(disagree, "brown-outs should not be machine-synchronous");
    }
}
