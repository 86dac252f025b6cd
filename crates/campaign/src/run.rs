//! The unit a campaign schedules and caches: one simulation run.
//!
//! A [`RunSpec`] fully describes one simulator invocation — workload,
//! mechanism, sizes, seeds, fault plan, config overrides. It canonicalizes
//! to a JSON document (`RunSpec::canonical_doc`) whose stable 128-bit
//! hash ([`RunSpec::key`]) is the run's content address: two specs with
//! the same key are the same experiment, no matter which campaign, bin,
//! or session asks for them. Executing a spec yields a
//! [`RunArtifacts`] — the named scalars the table reducers consume plus
//! the machine's full [`Stats`] — or, for a faulted grid cell, an error
//! string; both outcomes serialize (`amo-run-artifacts-v1`) so the
//! result cache can replay them without simulating.

use amo_sync::Mechanism;
use amo_types::jsonv::Json;
use amo_types::{JsonWriter, Stats, SystemConfig};
use amo_workloads::app::{SelfSched, SelfSchedCell, Signal, SignalResult, SyncTax, SyncTaxCell};
use amo_workloads::runner::{run_scenario, BarrierBench, LockBench, ObsSpec, Scenario};
use amo_workloads::runner::{BarrierAlgo, LockKind, SkewMode};
use amo_workloads::{BarrierMeasurement, LockMeasurement};

/// Schema tag of a serialized run outcome.
pub(crate) const ARTIFACTS_SCHEMA: &str = "amo-run-artifacts-v1";

/// Code fingerprint folded into every cache key. Bump the trailing
/// model tag whenever a change alters simulated timing or statistics
/// without touching any `RunSpec` field — the cache cannot see code,
/// only keys, so this constant is how stale entries get invalidated
/// wholesale. The crate version rides along so releases never collide.
pub const CODE_FINGERPRINT: &str = concat!("amo-", env!("CARGO_PKG_VERSION"), "+model-2");

/// One simulation run a campaign can schedule: any of the scenarios
/// `amo_workloads` describes. All of them execute through the one
/// fallible driver, so a rejected, stalled or faulted cell fails alone.
#[derive(Clone, Debug)]
pub enum RunSpec {
    /// A barrier benchmark cell (with its optional `SystemConfig`
    /// override and fault plan).
    Barrier(BarrierBench),
    /// A lock benchmark cell.
    Lock(LockBench),
    /// One synchronization-tax cell.
    SyncTax(SyncTax),
    /// One producer→consumer signalling cell.
    Signal(Signal),
    /// One self-scheduling-loop cell.
    SelfSched(SelfSched),
}

amo_types::members! {
    /// A barrier cell's grid parameters and, in this order, its
    /// canonical document. Only the paper's ablations set `style`.
    pub(crate) mod barrier(b: BarrierBench) {
        "mech" required: tag(b.mech, Mechanism, label),
        "procs" required: num(b.procs),
        "episodes": num(b.episodes),
        "warmup": num(b.warmup),
        "algo": tag(b.algo, BarrierAlgo, tag),
        "style": out(text(b.style.map_or("default".into(), |s| format!("{s:?}")))),
        "max_skew": num(b.max_skew),
        "skew": tag(b.skew, SkewMode, tag),
        "seed": num(b.seed),
        "watchdog": num(b.watchdog),
    }
}

amo_types::members! {
    /// A lock cell's members, as for [`barrier`]. No grid turns off
    /// `check_exclusion`, but the key records it.
    pub(crate) mod lock(b: LockBench) {
        "mech" required: tag(b.mech, Mechanism, label),
        "kind": tag(b.kind, LockKind, tag),
        "procs" required: num(b.procs),
        "rounds": num(b.rounds),
        "cs_cycles": num(b.cs_cycles),
        "max_think": num(b.max_think),
        "seed": num(b.seed),
        "watchdog": num(b.watchdog),
        "check_exclusion": out(flag(b.check_exclusion)),
    }
}

/// What a cell's payload records of a scenario's output.
trait Payload {
    /// Whether the payload carries the machine statistics. The
    /// application studies' payloads never did, and filling them now
    /// would change cached bytes under unchanged keys: that takes a
    /// [`CODE_FINGERPRINT`] bump.
    const STATS: bool = true;
    /// The named scalars, in a fixed order.
    fn numbers(&self) -> Vec<(&'static str, f64)>;
}

impl Payload for BarrierMeasurement {
    fn numbers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("avg_cycles", self.avg_cycles),
            ("cycles_per_proc", self.cycles_per_proc),
            ("measured", self.measured as f64),
        ]
    }
}

impl Payload for LockMeasurement {
    fn numbers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("total_cycles", self.total_cycles as f64),
            ("cycles_per_acquisition", self.cycles_per_acquisition),
            ("acquisitions", self.acquisitions as f64),
        ]
    }
}

impl Payload for SyncTaxCell {
    const STATS: bool = false;
    fn numbers(&self) -> Vec<(&'static str, f64)> {
        vec![("step_cycles", self.step_cycles), ("tax", self.tax)]
    }
}

impl Payload for SignalResult {
    const STATS: bool = false;
    fn numbers(&self) -> Vec<(&'static str, f64)> {
        vec![("mean_latency", self.mean_latency)]
    }
}

impl Payload for SelfSchedCell {
    const STATS: bool = false;
    fn numbers(&self) -> Vec<(&'static str, f64)> {
        vec![("total_cycles", self.total_cycles as f64)]
    }
}

/// A scenario as a campaign cell: the object-safe face of [`Scenario`].
trait Cell {
    fn config(&self) -> SystemConfig;
    fn check(&self) -> Result<(), String>;
    fn execute(&self) -> Result<RunArtifacts, String>;
}

impl<S: Scenario + Clone> Cell for S
where
    S::Output: Payload,
{
    fn config(&self) -> SystemConfig {
        Scenario::config(self)
    }

    fn check(&self) -> Result<(), String> {
        Scenario::check(self)
    }

    fn execute(&self) -> Result<RunArtifacts, String> {
        let run = run_scenario(self, ObsSpec::default()).map_err(|f| f.to_string())?;
        let numbers = run.timing.numbers().into_iter();
        Ok(RunArtifacts {
            numbers: numbers.map(|(name, v)| (name.to_string(), v)).collect(),
            stats: if S::Output::STATS {
                run.stats
            } else {
                Stats::new()
            },
        })
    }
}

impl RunSpec {
    /// The canonical JSON document this run hashes to. The document pins
    /// every input that can change the simulated outcome: workload
    /// parameters, the *normalized* machine configuration (an omitted
    /// config override canonicalizes to the same document as an explicit
    /// paper-default config — same machine, same key), and the
    /// [`CODE_FINGERPRINT`].
    pub(crate) fn canonical_doc(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("code", CODE_FINGERPRINT);
        match self {
            RunSpec::Barrier(b) => {
                w.kv_str("workload", "barrier");
                barrier::write(b, &mut w);
            }
            RunSpec::Lock(b) => {
                w.kv_str("workload", "lock");
                lock::write(b, &mut w);
            }
            RunSpec::SyncTax(s) => {
                w.kv_str("workload", "sync_tax");
                w.kv_str("mech", s.mech.label());
                w.kv_u64("procs", s.procs as u64);
                w.kv_u64("grain", s.grain);
                w.kv_u64("steps", s.steps as u64);
                w.kv_u64("warmup", s.warmup as u64);
            }
            RunSpec::Signal(s) => {
                w.kv_str("workload", "signal");
                w.kv_str("mech", s.mech.label());
                w.kv_u64("pairs", s.pairs as u64);
                w.kv_u64("rounds", s.rounds as u64);
            }
            RunSpec::SelfSched(s) => {
                w.kv_str("workload", "self_sched");
                w.kv_str("mech", s.mech.label());
                w.kv_u64("procs", s.procs as u64);
                w.kv_u64("tasks", s.tasks as u64);
                w.kv_u64("grain", s.grain);
            }
        }
        w.key("config");
        w.raw_val(&self.cell().config().canonical_json());
        w.end_obj();
        w.finish()
    }

    /// The run's content address: [`amo_types::seed::stable_hash128`] of
    /// the canonical document.
    pub fn key(&self) -> (u64, u64) {
        amo_types::seed::stable_hash128(self.canonical_doc().as_bytes())
    }

    /// Processors in the cell's machine, the scheduler's cost key.
    pub(crate) fn procs(&self) -> u16 {
        self.cell().config().num_procs
    }

    /// The scenario this cell runs.
    fn cell(&self) -> &dyn Cell {
        match self {
            RunSpec::Barrier(b) => b,
            RunSpec::Lock(b) => b,
            RunSpec::SyncTax(s) => s,
            RunSpec::Signal(s) => s,
            RunSpec::SelfSched(s) => s,
        }
    }

    /// Can this cell run at all? Decoders call this on every cell they
    /// build, so a bad one is refused before the campaign starts.
    pub(crate) fn check(&self) -> Result<(), String> {
        self.cell().check()
    }

    /// Execute the run. A rejected, faulted or stalled cell comes back
    /// as `Err(message)` — never a panic — so a campaign grid keeps its
    /// other cells.
    pub(crate) fn execute(&self) -> Result<RunArtifacts, String> {
        self.cell().execute()
    }
}

/// What one run produced: the named scalars its reducers consume, plus
/// the machine-wide statistics (message/byte/fault counters, latency
/// histograms) for traffic figures and campaign-level aggregation.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// Named scalar results, in a fixed per-workload order.
    pub numbers: Vec<(String, f64)>,
    /// Machine statistics (empty for the app studies, which reduce to
    /// scalars only).
    pub stats: Stats,
}

/// Look up a named scalar of a run; panics with the available names on
/// a miss (a reducer asking for the wrong workload's number is a bug).
pub(crate) fn number(numbers: &[(String, f64)], name: &str) -> f64 {
    numbers
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| {
            panic!(
                "no artifact number '{name}' (have: {})",
                numbers
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .1
}

/// Serialize a run outcome (success or failure) as one
/// `amo-run-artifacts-v1` JSON document. Floats use Rust's shortest
/// round-trip `Display`, so a decode–encode cycle is byte-identical —
/// the property the warm-cache bit-identity guarantee rests on. The
/// statistics are stored as counters only: the decoder reads nothing
/// else, and reports recompute the `derived` view from them.
pub fn outcome_to_json(outcome: &Result<RunArtifacts, String>) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", ARTIFACTS_SCHEMA);
    match outcome {
        Ok(a) => {
            w.kv_str("status", "ok");
            w.key("numbers");
            w.begin_arr();
            for (name, value) in &a.numbers {
                w.begin_arr();
                w.str_val(name);
                w.f64_val(*value);
                w.end_arr();
            }
            w.end_arr();
            w.key("stats");
            a.stats.write_counters_json(&mut w);
        }
        Err(msg) => {
            w.kv_str("status", "error");
            w.kv_str("message", msg);
        }
    }
    w.end_obj();
    w.finish()
}

/// Decode a serialized run outcome; `Err` describes why the document is
/// not a valid `amo-run-artifacts-v1` (the cache treats that as
/// corruption and recomputes).
pub fn outcome_from_json(doc: &str) -> Result<Result<RunArtifacts, String>, String> {
    let v = Json::parse(doc).map_err(|e| format!("artifacts: {e}"))?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some(ARTIFACTS_SCHEMA) => {}
        other => return Err(format!("artifacts: bad schema {other:?}")),
    }
    match v.get("status").and_then(|s| s.as_str()) {
        Some("ok") => {
            let mut numbers = Vec::new();
            for pair in v
                .get("numbers")
                .and_then(|n| n.as_arr())
                .ok_or("artifacts: missing numbers")?
            {
                let pair = pair.as_arr().ok_or("artifacts: malformed number pair")?;
                match pair {
                    [name, value] => numbers.push((
                        name.as_str()
                            .ok_or("artifacts: number name not a string")?
                            .to_string(),
                        value
                            .as_f64()
                            .ok_or("artifacts: number value not a number")?,
                    )),
                    _ => return Err("artifacts: number pair arity".into()),
                }
            }
            let stats = Stats::from_json(v.get("stats").ok_or("artifacts: missing stats")?)?;
            Ok(Ok(RunArtifacts { numbers, stats }))
        }
        Some("error") => Ok(Err(v
            .get("message")
            .and_then(|m| m.as_str())
            .ok_or("artifacts: missing error message")?
            .to_string())),
        other => Err(format!("artifacts: bad status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barrier_spec() -> RunSpec {
        RunSpec::Barrier(BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Amo, 4)
        })
    }

    #[test]
    fn canonical_doc_is_normalized_over_default_config() {
        // An explicit paper-default config override hashes identically
        // to no override: same machine, same key.
        let implicit = barrier_spec();
        let explicit = RunSpec::Barrier(BarrierBench {
            episodes: 3,
            warmup: 1,
            config: Some(SystemConfig::with_procs(4)),
            ..BarrierBench::paper(Mechanism::Amo, 4)
        });
        assert_eq!(implicit.canonical_doc(), explicit.canonical_doc());
        assert_eq!(implicit.key(), explicit.key());
    }

    /// The enum tags feed every cache key and every schedule / fault-plan
    /// fingerprint: a moved byte here orphans all of them.
    #[test]
    fn canonical_docs_pin_every_tag_byte() {
        let head = |spec: RunSpec| {
            let doc = spec.canonical_doc();
            let from = doc.find("\"workload\":").expect("follows the code tag");
            doc[from..doc.find("\"config\":").expect("config is last")].to_string()
        };
        let barrier = RunSpec::Barrier(BarrierBench {
            algo: BarrierAlgo::KTree(4),
            skew: SkewMode::Arithmetic,
            ..BarrierBench::paper(Mechanism::LlSc, 8)
        });
        assert_eq!(
            head(barrier),
            r#""workload":"barrier","mech":"LL/SC","procs":8,"episodes":10,"warmup":2,"algo":"ktree:4","style":"default","max_skew":800,"skew":"arithmetic","seed":171990765,"watchdog":0,"#
        );
        let lock = RunSpec::Lock(LockBench::paper(Mechanism::ActMsg, LockKind::Array, 8));
        assert_eq!(
            head(lock),
            r#""workload":"lock","mech":"ActMsg","kind":"array","procs":8,"rounds":8,"cs_cycles":250,"max_think":1000,"seed":17587949,"watchdog":0,"check_exclusion":true,"#
        );
    }

    /// Every member of a barrier and a lock cell, each off its default,
    /// in the bytes the cache keys hash.
    #[test]
    fn canonical_docs_pin_every_member() {
        let mut cfg = SystemConfig::with_procs(8);
        cfg.network.hop_latency = 20;
        let config = cfg.canonical_json();
        let barrier = RunSpec::Barrier(BarrierBench {
            episodes: 7,
            warmup: 3,
            algo: BarrierAlgo::Tree(4),
            style: Some(amo_sync::BarrierStyle::EagerUpdates),
            max_skew: 123,
            skew: SkewMode::Arithmetic,
            seed: 0xBEEF,
            watchdog: 4_567,
            config: Some(cfg),
            ..BarrierBench::paper(Mechanism::Mao, 8)
        });
        assert_eq!(
            barrier.canonical_doc(),
            format!(
                r#"{{"code":"{CODE_FINGERPRINT}","workload":"barrier","mech":"MAO","procs":8,"episodes":7,"warmup":3,"algo":"tree:4","style":"EagerUpdates","max_skew":123,"skew":"arithmetic","seed":48879,"watchdog":4567,"config":{config}}}"#
            )
        );
        let lock = RunSpec::Lock(LockBench {
            rounds: 5,
            cs_cycles: 77,
            max_think: 99,
            seed: 0xF00D,
            watchdog: 8_910,
            check_exclusion: false,
            config: Some(cfg),
            ..LockBench::paper(Mechanism::Atomic, LockKind::Mcs, 8)
        });
        assert_eq!(
            lock.canonical_doc(),
            format!(
                r#"{{"code":"{CODE_FINGERPRINT}","workload":"lock","mech":"Atomic","kind":"mcs","procs":8,"rounds":5,"cs_cycles":77,"max_think":99,"seed":61453,"watchdog":8910,"check_exclusion":false,"config":{config}}}"#
            )
        );
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let a = barrier_spec();
        let mut cfg = SystemConfig::with_procs(4);
        cfg.faults.link_error_ppm = 1_000;
        let b = RunSpec::Barrier(BarrierBench {
            episodes: 3,
            warmup: 1,
            config: Some(cfg),
            ..BarrierBench::paper(Mechanism::Amo, 4)
        });
        let c = RunSpec::Lock(LockBench::paper(Mechanism::Amo, LockKind::Ticket, 4));
        assert_ne!(a.key(), b.key(), "fault plan must be part of the key");
        assert_ne!(a.key(), c.key());
        assert_ne!(b.key(), c.key());
    }

    #[test]
    fn outcome_round_trips_byte_identically() {
        let outcome = barrier_spec().execute();
        assert!(outcome.is_ok());
        let doc = outcome_to_json(&outcome);
        let back = outcome_from_json(&doc).expect("decodes");
        assert_eq!(
            outcome_to_json(&back),
            doc,
            "decode∘encode must be identity"
        );
        let art = back.unwrap();
        assert!(number(&art.numbers, "avg_cycles") > 0.0);
        assert!(art.stats.total_msgs() > 0);
    }

    #[test]
    fn faulted_cell_serializes_as_error() {
        let mut cfg = SystemConfig::with_procs(4);
        cfg.faults.link_error_ppm = 1_000_000;
        cfg.faults.max_link_retries = 1;
        cfg.faults.seed = 7;
        let spec = RunSpec::Barrier(BarrierBench {
            episodes: 2,
            warmup: 1,
            config: Some(cfg),
            ..BarrierBench::paper(Mechanism::Amo, 4)
        });
        let outcome = spec.execute();
        let msg = outcome.clone().unwrap_err();
        assert!(msg.contains("aborted"), "{msg}");
        let doc = outcome_to_json(&outcome);
        let back = outcome_from_json(&doc).expect("decodes");
        assert_eq!(back.unwrap_err(), msg);
    }
}
