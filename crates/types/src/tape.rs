//! The explicit choice tape behind the schedule explorer.
//!
//! The fault layer normally answers its discrete questions — how many
//! cycles of reorder skew does this delivery get? is this message
//! duplicated? how much jitter rides on this retry? — from a keyed
//! hash: deterministic, but *implicit*. The verification subsystem
//! replaces those implicit picks with an explicit **choice tape**: a
//! shared [`TapeState`] that every choice point consults in program
//! order. The first `prefix` entries are forced (the schedule under
//! test); every later choice defaults to 0. Each consumed choice is
//! logged with its arity, so after a run the explorer knows the exact
//! branching structure of the schedule it just executed and can
//! enumerate the untaken alternatives.
//!
//! The tape is single-threaded by construction (the simulator is one
//! event loop), hence `Rc<RefCell<_>>` rather than an atomic structure.

use std::cell::RefCell;
use std::rc::Rc;

/// What kind of discrete decision a choice point resolves. Logged with
/// every consumed choice so tapes are self-describing in schedule docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChoiceKind {
    /// Per-processor kernel arrival skew (consumed by the model builder
    /// before the run starts).
    ArrivalSkew,
    /// Per-delivery reorder skew in `0..=link_reorder_window` cycles.
    ReorderSkew,
    /// Per-delivery duplicate/no-duplicate pick (only when the tape
    /// explores duplicates).
    Duplicate,
    /// Retransmission-jitter pick on a NACK/e2e retry.
    RetryJitter,
}

impl ChoiceKind {
    /// Every kind, in declaration order, with its stable one-letter tag
    /// in schedule documents.
    const TAGS: [(ChoiceKind, char); 4] = [
        (ChoiceKind::ArrivalSkew, 's'),
        (ChoiceKind::ReorderSkew, 'r'),
        (ChoiceKind::Duplicate, 'd'),
        (ChoiceKind::RetryJitter, 'j'),
    ];

    /// Stable one-letter tag used in schedule documents.
    pub fn tag(self) -> char {
        Self::TAGS[self as usize].1
    }

    /// The kind `tag` names, if any (the inverse of [`Self::tag`]).
    pub fn from_tag(tag: char) -> Option<ChoiceKind> {
        Self::TAGS.iter().find(|(_, t)| *t == tag).map(|(k, _)| *k)
    }
}

/// One consumed choice: what was decided, which alternative was taken,
/// and how many alternatives existed at that point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChoiceRec {
    /// What kind of decision this was.
    pub kind: ChoiceKind,
    /// The alternative taken (`0..arity`).
    pub chosen: u16,
    /// Number of alternatives at this choice point (≥ 1).
    pub arity: u16,
}

/// Tape-wide knobs: which optional choice points exist and how far into
/// a run the tape keeps offering alternatives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TapeConfig {
    /// Offer a duplicate/no-duplicate pick on every delivery-faultable
    /// message (the explorer's way of provoking retransmission paths
    /// without a probabilistic drop/dup plan).
    pub explore_dups: bool,
    /// Number of alternatives for a retry-jitter pick (1 = retries get
    /// pure exponential backoff with no jitter choice).
    pub jitter_choices: u16,
    /// After this many consumed choices the tape stops branching: later
    /// choice points still consume an entry but are logged with arity 1,
    /// so the explorer never enumerates them. This is the *bound* in
    /// "bounded schedule explorer" — it caps the search frontier on long
    /// runs at the cost of completeness beyond the horizon.
    pub max_choice_points: u32,
}

impl Default for TapeConfig {
    fn default() -> Self {
        TapeConfig {
            explore_dups: false,
            jitter_choices: 1,
            max_choice_points: u32::MAX,
        }
    }
}

/// The tape itself: a forced prefix, a cursor, and the log of every
/// choice consumed so far.
#[derive(Clone, Debug)]
pub struct TapeState {
    /// Tape-wide knobs.
    pub cfg: TapeConfig,
    prefix: Vec<u16>,
    pos: usize,
    log: Vec<ChoiceRec>,
}

/// A tape shared between the explorer and every in-machine choice point.
pub type SharedTape = Rc<RefCell<TapeState>>;

impl TapeState {
    /// A tape whose first `prefix.len()` choices are forced; everything
    /// beyond defaults to alternative 0.
    pub fn with_prefix(cfg: TapeConfig, prefix: Vec<u16>) -> Self {
        TapeState {
            cfg,
            prefix,
            pos: 0,
            log: Vec::new(),
        }
    }

    /// Wrap into the shared handle the machine's choice points clone.
    pub fn shared(self) -> SharedTape {
        Rc::new(RefCell::new(self))
    }

    /// Resolve one choice point with `arity` alternatives. Forced
    /// prefix entries are clamped into range (a prefix recorded against
    /// a drifted model cannot index out of bounds — fingerprint checks
    /// catch the drift before correctness depends on this). Beyond
    /// `cfg.max_choice_points` the point is logged with arity 1 so the
    /// explorer treats it as already exhausted.
    pub fn choose(&mut self, kind: ChoiceKind, arity: u16) -> u16 {
        let arity = if (self.pos as u32) < self.cfg.max_choice_points {
            arity.max(1)
        } else {
            1
        };
        let chosen = self
            .prefix
            .get(self.pos)
            .copied()
            .unwrap_or(0)
            .min(arity - 1);
        self.log.push(ChoiceRec {
            kind,
            chosen,
            arity,
        });
        self.pos += 1;
        chosen
    }

    /// Choices consumed so far, in consumption order.
    pub fn log(&self) -> &[ChoiceRec] {
        &self.log
    }

    /// Number of choices consumed so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tape_takes_alternative_zero() {
        let mut t = TapeState::with_prefix(TapeConfig::default(), vec![]);
        assert_eq!(t.choose(ChoiceKind::ReorderSkew, 3), 0);
        assert_eq!(t.choose(ChoiceKind::Duplicate, 2), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.log()[0].arity, 3);
    }

    #[test]
    fn prefix_forces_choices_then_defaults() {
        let mut t = TapeState::with_prefix(TapeConfig::default(), vec![2, 1]);
        assert_eq!(t.choose(ChoiceKind::ReorderSkew, 3), 2);
        assert_eq!(t.choose(ChoiceKind::ReorderSkew, 3), 1);
        assert_eq!(t.choose(ChoiceKind::ReorderSkew, 3), 0, "past the prefix");
    }

    #[test]
    fn out_of_range_prefix_entries_clamp() {
        let mut t = TapeState::with_prefix(TapeConfig::default(), vec![9]);
        assert_eq!(t.choose(ChoiceKind::ArrivalSkew, 2), 1);
    }

    #[test]
    fn horizon_collapses_arity_to_one() {
        let cfg = TapeConfig {
            max_choice_points: 1,
            ..TapeConfig::default()
        };
        let mut t = TapeState::with_prefix(cfg, vec![1, 1]);
        assert_eq!(t.choose(ChoiceKind::ReorderSkew, 3), 1);
        assert_eq!(t.choose(ChoiceKind::ReorderSkew, 3), 0, "beyond horizon");
        assert_eq!(t.log()[1].arity, 1);
    }
}
