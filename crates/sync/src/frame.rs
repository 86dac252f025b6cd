//! The two round frames every kernel runs in.
//!
//! A lock kernel is a [`PassageKernel`] around its [`PassageAlgo`]; a
//! barrier kernel an [`EpisodeKernel`] around its [`EpisodeAlgo`]. The
//! frame owns the round counter, the delays, the boundary marks, the
//! exclusion check and `Done`; the algorithm only names its next
//! [`Sub`] given the value the last one was ready with. A passage is
//! Golab's remainder → entry → critical → exit; an episode is work →
//! arrival.

use crate::lock::{acquire_mark, release_mark, ExclusionCheck};
use crate::mechanism::{Step, Sub};
use crate::BarrierSpec;
use amo_sim::cpu::{Kernel, Op, Outcome};
use amo_types::{Cycle, Word};

/// One section of a round: the algorithm's subs, run back to back.
#[derive(Default)]
struct Section {
    /// Index of the sub in flight.
    step: u32,
    sub: Option<Sub>,
}

impl Section {
    /// The section's next op, or `None` once `subs(step, ready)` — the
    /// `step`-th sub, given the value the one before was ready with (0
    /// before the first) — names none; the section then starts over.
    fn next(
        &mut self,
        mut last: Option<Outcome>,
        mut subs: impl FnMut(u32, Word) -> Option<Sub>,
    ) -> Option<Op> {
        let mut ready = 0;
        loop {
            if let Some(sub) = &mut self.sub {
                match sub.poll(last.take()) {
                    Step::Issue(op) => return Some(op),
                    Step::Ready(v) => (self.step, ready) = (self.step + 1, v),
                }
            }
            self.sub = subs(self.step, ready);
            if self.sub.is_none() {
                self.step = 0;
                return None;
            }
        }
    }
}

/// A lock algorithm, as the passage frame runs it.
pub trait PassageAlgo {
    /// The `step`-th sub of the entry section, given the value the one
    /// before was ready with; `None` once the lock is held.
    fn entry(&mut self, step: u32, ready: Word) -> Option<Sub>;

    /// The `step`-th sub of the exit section; `None` once the lock has
    /// been passed on.
    fn exit(&mut self, step: u32, ready: Word) -> Option<Sub>;

    /// A write after the critical section and before the release mark
    /// (Anderson's reset of the holder's own slot).
    fn reset(&self) -> Option<Op> {
        None
    }
}

/// Where a passage is: its phases in order, some of which issue nothing
/// (the scribble and verify without a check, a reset the algorithm does
/// without).
#[derive(Clone, Copy)]
enum Passage {
    Think,
    Entry,
    AcquireMark,
    Scribble,
    Critical,
    Verify,
    Reset,
    ReleaseMark,
    Exit,
}

impl Passage {
    fn after(self) -> Passage {
        use Passage::*;
        [
            Entry,
            AcquireMark,
            Scribble,
            Critical,
            Verify,
            Reset,
            ReleaseMark,
            Exit,
            Think,
        ][self as usize]
    }
}

/// One participant's lock kernel: per round, think → entry → acquire
/// mark → \[scribble\] → critical section → \[verify\] → \[reset\] →
/// release mark → exit. The acquire mark records that the entry section
/// is over; the release mark records the *initiation* of the exit, since
/// the grant becomes visible to the next holder while the releaser's own
/// reply is still in flight.
pub struct PassageKernel<A> {
    algo: A,
    think: Vec<Cycle>,
    cs_cycles: Cycle,
    tag: Word,
    check: Option<ExclusionCheck>,
    /// Round in progress, 1-based.
    round: u32,
    at: Passage,
    section: Section,
}

impl<A: PassageAlgo> PassageKernel<A> {
    /// `rounds` passages through `algo`, thinking `think[r]` cycles before
    /// round `r + 1` and holding the lock `cs_cycles`. With a `check`,
    /// the holder scribbles `tag` on entry and counts a violation if it
    /// reads anything else on exit.
    pub(crate) fn frame(
        algo: A,
        rounds: u32,
        cs_cycles: Cycle,
        think: Vec<Cycle>,
        tag: Word,
        check: Option<ExclusionCheck>,
    ) -> Self {
        assert_eq!(think.len(), rounds as usize, "one think time per round");
        PassageKernel {
            algo,
            think,
            cs_cycles,
            tag,
            check,
            round: 1,
            at: Passage::Think,
            section: Section::default(),
        }
    }
}

impl<A: PassageAlgo> Kernel for PassageKernel<A> {
    fn next(&mut self, mut last: Option<Outcome>) -> Op {
        loop {
            let (r, check) = (self.round, self.check.as_ref());
            let op = match self.at {
                Passage::Think => match self.think.get(r as usize - 1) {
                    Some(&cycles) => Some(Op::Delay { cycles }),
                    None => return Op::Done,
                },
                Passage::Entry => {
                    if let Some(op) = self.section.next(last.take(), |s, v| self.algo.entry(s, v)) {
                        return op;
                    }
                    None
                }
                Passage::AcquireMark => Some(Op::Mark {
                    id: acquire_mark(r),
                }),
                Passage::Scribble => check.map(|c| Op::Store {
                    addr: c.addr,
                    value: self.tag,
                }),
                Passage::Critical => Some(Op::Delay {
                    cycles: self.cs_cycles,
                }),
                Passage::Verify => check.map(|c| Op::Load { addr: c.addr }),
                Passage::Reset => {
                    if let (Some(c), Some(Outcome::Value(v))) = (check, last.take()) {
                        if v != self.tag {
                            c.violations.set(c.violations.get() + 1);
                        }
                    }
                    self.algo.reset()
                }
                Passage::ReleaseMark => Some(Op::Mark {
                    id: release_mark(r),
                }),
                Passage::Exit => {
                    if let Some(op) = self.section.next(last.take(), |s, v| self.algo.exit(s, v)) {
                        return op;
                    }
                    self.round += 1;
                    None
                }
            };
            self.at = self.at.after();
            if let Some(op) = op {
                return op;
            }
        }
    }
}

/// A barrier algorithm, as the episode frame runs it.
pub trait EpisodeAlgo {
    /// The `step`-th sub of the arrival at episode `e` (1-based), given
    /// the value the one before was ready with; `None` once the barrier
    /// has let this participant through.
    fn arrive(&mut self, e: u32, step: u32, ready: Word) -> Option<Sub>;
}

/// Where an episode is.
#[derive(Clone, Copy)]
enum Episode {
    Work,
    EnterMark,
    Arrive,
}

/// One participant's barrier kernel: per episode, work → enter mark →
/// arrival → exit mark. The enter mark records that the work is done and
/// the arrival begins; the exit mark, that the barrier let this
/// participant through.
pub struct EpisodeKernel<A> {
    algo: A,
    work: Vec<Cycle>,
    /// Episode in progress, 1-based.
    e: u32,
    at: Episode,
    section: Section,
}

impl<A: EpisodeAlgo> EpisodeKernel<A> {
    /// `episodes` episodes of `algo`, working `work[e]` cycles before
    /// episode `e + 1`.
    pub(crate) fn frame(algo: A, episodes: u32, work: Vec<Cycle>) -> Self {
        assert_eq!(work.len(), episodes as usize, "one work entry per episode");
        EpisodeKernel {
            algo,
            work,
            e: 1,
            at: Episode::Work,
            section: Section::default(),
        }
    }
}

impl<A: EpisodeAlgo> Kernel for EpisodeKernel<A> {
    fn next(&mut self, last: Option<Outcome>) -> Op {
        let e = self.e;
        let (op, then) = match self.at {
            Episode::Work => match self.work.get(e as usize - 1) {
                Some(&cycles) => (Op::Delay { cycles }, Episode::EnterMark),
                None => return Op::Done,
            },
            Episode::EnterMark => {
                let id = BarrierSpec::enter_mark(e);
                (Op::Mark { id }, Episode::Arrive)
            }
            Episode::Arrive => match self.section.next(last, |s, v| self.algo.arrive(e, s, v)) {
                Some(op) => (op, Episode::Arrive),
                None => {
                    self.e += 1;
                    let id = BarrierSpec::exit_mark(e);
                    (Op::Mark { id }, Episode::Work)
                }
            },
        };
        self.at = then;
        op
    }
}
