//! Replayable schedule documents (`amo-schedule-v1`).
//!
//! A [`ScheduleDoc`] pins one schedule of one [`VerifyModel`]: the
//! full model description, the choice tape (values plus one tag
//! character per choice, so tapes are self-describing), the outcome
//! the schedule is expected to produce (`"ok"` or a typed failure
//! kind with the firing monitor), and a **config fingerprint** — the
//! model's content key, which folds in the complete machine
//! configuration and the campaign `CODE_FINGERPRINT`. Replaying a
//! document against a drifted simulator is refused loudly instead of
//! silently "reproducing" something else, exactly like the chaos
//! subsystem's `amo-fault-plan-v1`.

use crate::model::{Outcome, VerifyModel, VerifyWorkload};
use amo_sync::Mechanism;
use amo_types::jsonv::Json;
use amo_types::seed::key_hex;
use amo_types::tape::ChoiceKind;
use amo_types::{Cycle, JsonWriter};

/// Schema tag of a serialized schedule.
pub const SCHEDULE_SCHEMA: &str = "amo-schedule-v1";

/// A replayable schedule: model + tape + expected outcome +
/// fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleDoc {
    /// The model the tape drives.
    pub model: VerifyModel,
    /// Forced choice-tape prefix.
    pub tape: Vec<u16>,
    /// One [`ChoiceKind::tag`] character per tape entry (descriptive;
    /// replay is driven by the values).
    pub kinds: String,
    /// Expected outcome: `"ok"` or a failure-kind name.
    pub kind: String,
    /// Expected firing monitor; empty when `kind` is not a monitor
    /// violation.
    pub monitor: String,
    /// The model's content key (hex, 32 digits) at minting time.
    pub fingerprint: String,
}

impl ScheduleDoc {
    /// Build a document for `tape` against `model`, stamping the
    /// current fingerprint. `outcome` supplies the expected result and
    /// the per-choice kind tags.
    pub fn new(model: VerifyModel, tape: Vec<u16>, outcome: &Outcome) -> ScheduleDoc {
        let kinds = outcome
            .log
            .iter()
            .take(tape.len())
            .map(|c| c.kind.tag())
            .collect::<String>();
        let fingerprint = key_hex(model.key());
        ScheduleDoc {
            model,
            tape,
            kinds,
            kind: outcome.kind_str().to_string(),
            monitor: outcome.monitor.unwrap_or("").to_string(),
            fingerprint,
        }
    }

    /// The fingerprint this simulator computes for the document's
    /// model *now*.
    pub fn current_fingerprint(&self) -> String {
        key_hex(self.model.key())
    }

    /// `Err` describes the drift if the document was minted by a
    /// different simulator or machine configuration.
    pub fn check_fingerprint(&self) -> Result<(), String> {
        let now = self.current_fingerprint();
        if now == self.fingerprint {
            Ok(())
        } else {
            Err(format!(
                "schedule fingerprint mismatch: document was minted under {}, \
                 this simulator computes {} — the simulator or machine \
                 configuration has drifted and the schedule is not a valid \
                 reproducer here",
                self.fingerprint, now
            ))
        }
    }

    /// Re-execute the schedule. Fails if the fingerprint does not
    /// match or the run does not reproduce the documented outcome
    /// (same typed kind, same monitor).
    pub fn replay(&self) -> Result<Outcome, String> {
        self.check_fingerprint()?;
        let out = self.model.run_once(&self.tape);
        if out.kind_str() != self.kind {
            return Err(format!(
                "schedule replay diverged: expected outcome {:?}, got {:?} \
                 ({})",
                self.kind,
                out.kind_str(),
                out.detail.as_deref().unwrap_or("no detail")
            ));
        }
        let got_monitor = out.monitor.unwrap_or("");
        if got_monitor != self.monitor {
            return Err(format!(
                "schedule replay diverged: expected monitor {:?}, got {:?}",
                self.monitor, got_monitor
            ));
        }
        Ok(out)
    }

    /// Serialize as one `amo-schedule-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("schema", SCHEDULE_SCHEMA);
        w.kv_str("fingerprint", &self.fingerprint);
        w.kv_str("kind", &self.kind);
        w.kv_str("monitor", &self.monitor);
        w.key("model");
        w.begin_obj();
        w.kv_str("mech", self.model.mech.label());
        w.kv_str("workload", self.model.workload.tag());
        match self.model.workload {
            VerifyWorkload::Barrier { episodes } => w.kv_u64("episodes", episodes as u64),
            VerifyWorkload::TicketLock { rounds } => w.kv_u64("rounds", rounds as u64),
        }
        w.kv_u64("procs", self.model.procs as u64);
        w.kv_u64("skew_choices", self.model.skew_choices as u64);
        w.kv_u64("skew_step", self.model.skew_step);
        w.kv_u64("reorder_window", self.model.reorder_window);
        w.key("explore_dups");
        w.bool_val(self.model.explore_dups);
        w.kv_u64("jitter_choices", self.model.jitter_choices as u64);
        w.kv_u64("max_choice_points", self.model.max_choice_points as u64);
        w.kv_u64("watchdog", self.model.watchdog);
        w.key("planted_double_apply");
        w.bool_val(self.model.planted_double_apply);
        w.end_obj();
        w.kv_str("tape_kinds", &self.kinds);
        w.key("tape");
        w.begin_arr();
        for &v in &self.tape {
            w.u64_val(v as u64);
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Decode an `amo-schedule-v1` document. Does **not** verify the
    /// fingerprint — call [`ScheduleDoc::check_fingerprint`] (or just
    /// [`ScheduleDoc::replay`], which does) before trusting it.
    pub fn from_json(doc: &str) -> Result<ScheduleDoc, String> {
        let v = Json::parse(doc).map_err(|e| format!("schedule: {e}"))?;
        match v.get("schema").and_then(|s| s.as_str()) {
            Some(SCHEDULE_SCHEMA) => {}
            other => {
                return Err(format!(
                    "schedule: bad schema {other:?}, want {SCHEDULE_SCHEMA:?}"
                ))
            }
        }
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|s| s.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("schedule: missing {k}"))
        };
        let m = v.get("model").ok_or("schedule: missing model")?;
        let num = |k: &str| -> Result<u64, String> {
            m.get(k)
                .and_then(|n| n.as_u64())
                .ok_or_else(|| format!("schedule: missing model.{k}"))
        };
        let flag = |k: &str| -> Result<bool, String> {
            m.get(k)
                .and_then(|b| b.as_bool())
                .ok_or_else(|| format!("schedule: missing model.{k}"))
        };
        let mech = Mechanism::parse(
            m.get("mech")
                .and_then(|s| s.as_str())
                .ok_or("schedule: missing model.mech")?,
        )
        .map_err(|e| format!("schedule: {e}"))?;
        let workload = match m.get("workload").and_then(|s| s.as_str()) {
            Some("barrier") => VerifyWorkload::Barrier {
                episodes: num("episodes")? as u32,
            },
            Some("ticket-lock") => VerifyWorkload::TicketLock {
                rounds: num("rounds")? as u32,
            },
            other => return Err(format!("schedule: unknown workload {other:?}")),
        };
        let model = VerifyModel {
            mech,
            workload,
            procs: num("procs")? as u16,
            skew_choices: num("skew_choices")? as u16,
            skew_step: num("skew_step")? as Cycle,
            reorder_window: num("reorder_window")? as Cycle,
            explore_dups: flag("explore_dups")?,
            jitter_choices: num("jitter_choices")? as u16,
            max_choice_points: num("max_choice_points")? as u32,
            watchdog: num("watchdog")? as Cycle,
            planted_double_apply: flag("planted_double_apply")?,
        };
        let tape = v
            .get("tape")
            .and_then(|t| t.as_arr())
            .ok_or("schedule: missing tape")?
            .iter()
            .map(|e| {
                e.as_u64()
                    .map(|n| n as u16)
                    .ok_or_else(|| "schedule: tape entries must be numbers".to_string())
            })
            .collect::<Result<Vec<u16>, String>>()?;
        Ok(ScheduleDoc {
            model,
            tape,
            kinds: str_field("tape_kinds")?,
            kind: str_field("kind")?,
            monitor: str_field("monitor")?,
            fingerprint: str_field("fingerprint")?,
        })
    }
}

/// Tag-string → [`ChoiceKind`] sequence, for document readers that
/// want the decoded kinds (the inverse of [`ChoiceKind::tag`]).
pub fn parse_kinds(tags: &str) -> Result<Vec<ChoiceKind>, String> {
    tags.chars()
        .map(|c| match c {
            's' => Ok(ChoiceKind::ArrivalSkew),
            'r' => Ok(ChoiceKind::ReorderSkew),
            'd' => Ok(ChoiceKind::Duplicate),
            'j' => Ok(ChoiceKind::RetryJitter),
            other => Err(format!("schedule: unknown choice tag {other:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VerifyModel {
        VerifyModel::new(Mechanism::Amo, VerifyWorkload::TicketLock { rounds: 1 }, 2)
    }

    #[test]
    fn documents_round_trip_and_pin_the_config() {
        let m = model();
        let out = m.run_once(&[1, 0, 2]);
        let doc = ScheduleDoc::new(m, vec![1, 0, 2], &out);
        let json = doc.to_json();
        let back = ScheduleDoc::from_json(&json).expect("decodes");
        assert_eq!(back, doc);
        assert_eq!(back.to_json(), json, "decode∘encode is identity");
        back.check_fingerprint().expect("fresh doc matches");

        let mut drifted = back.clone();
        drifted.model.procs = 4;
        let err = drifted.check_fingerprint().expect_err("drift detected");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn replay_reproduces_the_documented_outcome() {
        let m = model();
        let out = m.run_once(&[1]);
        assert_eq!(out.kind, None);
        let doc = ScheduleDoc::new(m, vec![1], &out);
        let replayed = doc.replay().expect("replays clean");
        assert_eq!(replayed.fingerprint, out.fingerprint);
        assert_eq!(replayed.end, out.end);

        // A doc that *claims* a different outcome is caught.
        let mut lying = doc.clone();
        lying.kind = "MonitorViolation".to_string();
        lying.monitor = "at-most-once".to_string();
        let err = lying.replay().expect_err("divergence detected");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn kinds_tags_round_trip() {
        let kinds = parse_kinds("srdj").expect("all tags known");
        assert_eq!(
            kinds,
            vec![
                ChoiceKind::ArrivalSkew,
                ChoiceKind::ReorderSkew,
                ChoiceKind::Duplicate,
                ChoiceKind::RetryJitter,
            ]
        );
        assert!(parse_kinds("x").is_err());
    }
}
