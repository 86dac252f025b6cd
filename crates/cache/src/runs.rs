//! The words of a cache's lines: one flat word array cut into runs of a
//! line's length, one run per resident line that holds data.

use amo_types::{BlockData, Word};
use std::ops::Range;

/// No run.
pub(crate) const NONE: u32 = u32::MAX;

/// Runs of `line_words` words in one array, handed out and taken back a
/// line at a time. A vacant run's first word links the next vacant one,
/// so the array holds as many runs as the most lines with data the cache
/// has held at once.
///
/// For each run in use the arena also keeps the box its block arrived
/// in, and a line's words leave in one of those boxes: a block passed
/// from cache to cache allocates no more often than when every line
/// owned its box.
pub(crate) struct Runs {
    line_words: usize,
    words: Vec<Word>,
    /// First vacant run, or [`NONE`].
    vacant: u32,
    boxes: Vec<BlockData>,
}

impl Runs {
    pub(crate) fn new(line_words: usize) -> Self {
        Runs {
            line_words,
            words: Vec::new(),
            vacant: NONE,
            boxes: Vec::new(),
        }
    }

    fn range(&self, run: u32) -> Range<usize> {
        let at = run as usize * self.line_words;
        at..at + self.line_words
    }

    /// Word `word` of run `run`.
    #[inline]
    pub(crate) fn word(&self, run: u32, word: usize) -> Word {
        self.words[self.at(run, word)]
    }

    /// Set word `word` of run `run`.
    #[inline]
    pub(crate) fn set_word(&mut self, run: u32, word: usize, value: Word) {
        let at = self.at(run, word);
        self.words[at] = value;
    }

    #[inline]
    fn at(&self, run: u32, word: usize) -> usize {
        debug_assert!(word < self.line_words, "word {word} is outside the line");
        run as usize * self.line_words + word
    }

    /// The words of run `run`.
    #[inline]
    pub(crate) fn get(&self, run: u32) -> &[Word] {
        &self.words[self.range(run)]
    }

    #[inline]
    fn get_mut(&mut self, run: u32) -> &mut [Word] {
        let range = self.range(run);
        &mut self.words[range]
    }

    /// Copy `data` into a vacant run and keep its box; returns the run.
    pub(crate) fn put(&mut self, data: BlockData) -> u32 {
        assert_eq!(data.len(), self.line_words, "data must fill a line");
        let run = match self.vacant {
            NONE => {
                self.words.resize(self.words.len() + self.line_words, 0);
                (self.words.len() / self.line_words - 1) as u32
            }
            run => {
                self.vacant = self.get(run)[0] as u32;
                run
            }
        };
        self.get_mut(run).copy_from_slice(&data.0);
        self.boxes.push(data);
        run
    }

    /// Vacate `run`. A kept box goes with it, holding the run's words if
    /// they are to be `surrender`ed.
    pub(crate) fn take(&mut self, run: u32, surrender: bool) -> Option<BlockData> {
        let mut data = self.boxes.pop().expect("a box per run in use");
        let out = surrender.then(|| {
            data.0.copy_from_slice(self.get(run));
            data
        });
        self.get_mut(run)[0] = self.vacant as Word;
        self.vacant = run;
        out
    }
}
