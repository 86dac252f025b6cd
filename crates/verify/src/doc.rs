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

use crate::model::{fields, Outcome, VerifyModel};
use amo_types::jsonv::{document, read_object, Json};
use amo_types::seed::key_hex;
use amo_types::tape::ChoiceKind;
use amo_types::JsonWriter;

/// Schema tag of a serialized schedule.
pub const SCHEDULE_SCHEMA: &str = "amo-schedule-v1";

/// A replayable schedule: model + tape + expected outcome +
/// fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    pub(crate) fn current_fingerprint(&self) -> String {
        key_hex(self.model.key())
    }

    /// `Err` describes the drift if the document was minted by a
    /// different simulator or machine configuration.
    pub(crate) fn check_fingerprint(&self) -> Result<(), String> {
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
        schedule::write(self, &mut w);
        w.end_obj();
        w.finish()
    }

    /// Decode an `amo-schedule-v1` document (its model through
    /// `VerifyModel::from_json`). Does **not** verify the
    /// fingerprint — call `ScheduleDoc::check_fingerprint` (or just
    /// [`ScheduleDoc::replay`], which does) before trusting it.
    pub fn from_json(doc: &str) -> Result<ScheduleDoc, String> {
        Self::decode(doc).map_err(|e| format!("schedule: {e}"))
    }

    fn decode(doc: &str) -> Result<ScheduleDoc, String> {
        let v = document(doc, SCHEDULE_SCHEMA)?;
        let mut d = ScheduleDoc::default();
        read_object(&v, "", schedule::REQUIRED, |k, x| {
            schedule::read(&mut d, k, x)
        })?;
        let tags = parse_kinds(&d.kinds)?.len();
        if tags != d.tape.len() {
            return Err(format!(
                "tape_kinds has {tags} tags for {} tape entries",
                d.tape.len()
            ));
        }
        Ok(d)
    }
}

amo_types::members! {
    /// A schedule document's members: what it expects, the model it
    /// drives and the tape, with one tag per entry.
    mod schedule(d: ScheduleDoc) {
        "fingerprint" required: text(d.fingerprint),
        "kind" required: text(d.kind),
        "monitor" required: text(d.monitor),
        "model" required: nested(d.model, fields, read_model),
        "tape_kinds" required: text(d.kinds),
        "tape" required: nums(d.tape),
    }
}

/// A schedule's model, through the one model reader.
fn read_model(v: &Json) -> Result<VerifyModel, String> {
    VerifyModel::from_json(v, None, |_, _| Ok(false)).map_err(|e| format!("model: {e}"))
}

/// Tag-string → [`ChoiceKind`] sequence, one [`ChoiceKind::from_tag`]
/// per character; an unknown tag is an error naming it.
fn parse_kinds(tags: &str) -> Result<Vec<ChoiceKind>, String> {
    tags.chars()
        .map(|c| ChoiceKind::from_tag(c).ok_or_else(|| format!("unknown choice tag {c:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelCell;
    use amo_sync::Mechanism;

    fn model() -> VerifyModel {
        VerifyModel::new(ModelCell::new("ticket-lock", Mechanism::Amo, 2).unwrap())
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
        drifted.model.cell = ModelCell::new("ticket-lock", Mechanism::Amo, 4).unwrap();
        let err = drifted.check_fingerprint().expect_err("drift detected");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    /// Every knob survives the document, set away from its default;
    /// unknown, misplaced and out-of-range members are refused by name.
    #[test]
    fn every_model_knob_round_trips_and_bad_members_are_named() {
        let mut m = VerifyModel {
            skew_choices: 3,
            skew_step: 17,
            reorder_window: 5,
            explore_dups: true,
            jitter_choices: 2,
            max_choice_points: 7,
            planted_double_apply: true,
            ..VerifyModel::new(ModelCell::new("barrier", Mechanism::Mao, 4).unwrap())
        };
        if let ModelCell::Barrier(b) = &mut m.cell {
            (b.episodes, b.watchdog) = (3, 12_345);
        }
        let json = ScheduleDoc::new(m, vec![2, 1], &m.run_once(&[2, 1])).to_json();
        assert_eq!(ScheduleDoc::from_json(&json).expect("decodes").model, m);

        for (from, to, needle) in [
            ("\"procs\":4", "\"procs\":4,\"bogus\":7", "\"bogus\""),
            ("\"episodes\":3", "\"rounds\":3", "\"rounds\""),
            ("\"procs\":4", "\"procs\":65538", "65538 does not fit u16"),
            ("\"episodes\":3", "\"episodes\":0", "episodes = 0"),
            ("\"procs\":4", "\"procs\":300", "num_procs = 300"),
            (
                "\"tape\":[2,1]",
                "\"tape\":[70000]",
                "70000 does not fit u16",
            ),
            (
                "\"explore_dups\":true",
                "\"explore_dups\":1",
                "explore_dups must be",
            ),
        ] {
            assert!(json.contains(from), "{from} not in {json}");
            let err = ScheduleDoc::from_json(&json.replace(from, to)).unwrap_err();
            assert!(err.contains(needle), "{to}: {err}");
        }
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
        assert_eq!(kinds.iter().map(|k| k.tag()).collect::<String>(), "srdj");
        assert!(parse_kinds("x").is_err());
    }

    /// `tape_kinds` is decoded, not carried as opaque text: an unknown
    /// tag and a tag count that differs from the tape length are both
    /// refused by name.
    #[test]
    fn tape_kinds_must_be_one_known_tag_per_entry() {
        let m = model();
        let json = ScheduleDoc::new(m, vec![1], &m.run_once(&[1])).to_json();
        let kinds = ScheduleDoc::from_json(&json).expect("decodes").kinds;
        assert_eq!(kinds.len(), 1, "one tag for the one entry: {json}");
        let field = format!("\"tape_kinds\":\"{kinds}\"");
        assert!(json.contains(&field), "{field} not in {json}");
        for (to, needle) in [
            ("\"tape_kinds\":\"Q\"", "unknown choice tag 'Q'"),
            ("\"tape_kinds\":\"\"", "0 tags for 1 tape entries"),
            (
                &format!("\"tape_kinds\":\"{kinds}{kinds}\""),
                "2 tags for 1 tape entries",
            ),
        ] {
            let err = ScheduleDoc::from_json(&json.replace(&field, to)).unwrap_err();
            assert!(err.contains(needle), "{to}: {err}");
        }
    }
}
