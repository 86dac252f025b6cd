//! `amo-benchmark`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! Six workloads cover what users wait for — three 64-processor
//! single-machine runs, a cold and a warm pass of the paper campaign,
//! and the verification matrix — and every layer (crate) of the
//! simulator has counters, traced self times and a standalone driver.
//! Everything is measured from outside, through public functions; no
//! simulator source changes for it. See `README.md` beside this crate
//! for why each workload exists and how to read the numbers.
//!
//! Two front ends share the workload code:
//!
//! * [`run`] — one workload, one process, one JSON line: the contract
//!   `BENCHMARK.json` describes
//!   (`--workload W --seed N --seconds S --trace 0|1`).
//! * [`suite`] — all six workloads as interleaved child processes with
//!   a floor estimator, a result file and `--selfcheck`.

// `unsafe` appears twice: the `clock_gettime` call in `measure` and the
// `GlobalAlloc` forwarding impl in `alloc`.
#![warn(missing_docs)]

pub mod alloc;
pub mod catalog;
pub mod layers;
pub mod matrix;
pub mod measure;
pub mod paper;
pub mod run;
pub mod single;
pub mod suite;
pub mod trace;

use amo_types::Json;
use std::path::{Path, PathBuf};

/// The pinned counts the correctness checks compare against.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The paper's Table 2 and Table 4, the accuracy reference.
pub const PAPER_TABLES_JSON: &str = include_str!("../reference/paper_tables.json");

/// Where the benchmark reads its inputs and keeps its scratch files.
pub struct Env {
    /// Repository root (the directory holding `BENCHMARK.json`).
    pub root: PathBuf,
    /// Private scratch directory inside the build directory; removed on
    /// drop.
    pub scratch: PathBuf,
}

impl Env {
    /// Find the repository root by walking up from the current
    /// directory, and create a scratch directory under the cargo target
    /// directory (`CARGO_TARGET_DIR`, else `target`), keyed by process
    /// id so concurrent runs never share cache directories.
    pub fn discover() -> Result<Env, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let root = cwd
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file() && d.join("specs").is_dir())
            .ok_or("no BENCHMARK.json + specs/ in this directory or above it")?
            .to_path_buf();
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
            || root.join("target"),
            |t| {
                let t = PathBuf::from(t);
                if t.is_absolute() {
                    t
                } else {
                    root.join(t)
                }
            },
        );
        let scratch = target
            .join("amo-benchmark-scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        Ok(Env { root, scratch })
    }

    /// Read a repository file given relative to the root.
    pub fn read(&self, rel: &str) -> Result<String, String> {
        let path = self.root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A fresh, empty directory `name` under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Parse one of the crate's embedded JSON documents.
pub fn embedded(doc: &str) -> Json {
    Json::parse(doc).expect("embedded benchmark JSON parses")
}
