//! The mutator: every input the tooling reads is total. Each variant of
//! a machine configuration and of every input document goes through the
//! library reader the command line uses; a variant may be refused, but
//! none may panic. Nothing is simulated: a configuration that `check`
//! accepts is only built into a `Machine`.
//!
//! * Configurations: every path `config_fields!` lists, set to each
//!   boundary value on a 4-processor machine.
//! * Documents: every committed `specs/*.json`, plus a fault plan and a
//!   schedule the library writes and a grid that sets every member. Each member at any depth (and each
//!   array element) is deleted, renamed, retyped as every JSON type and
//!   set to each boundary value; and the document is cut at every
//!   character boundary. Every variant goes through all four readers.

use amo_campaign::{CampaignSpec, ChaosSpec, DeliveryPlan, PlanDoc};
use amo_sim::Machine;
use amo_sync::Mechanism;
use amo_types::{Json, JsonWriter, SystemConfig};
use amo_verify::{ModelCell, ScheduleDoc, VerifyMatrix, VerifyModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The values every number is set to.
const BOUNDS: [u64; 7] = [0, 1, 3, 1 << 16, 1 << 32, 1 << 63, u64::MAX];

/// Run `f`, and describe its panic if it has one.
fn panics(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    let text = payload.downcast_ref::<String>().cloned();
    let text = text.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    Some(text.unwrap_or_default())
}

#[test]
fn every_config_path_at_every_boundary_is_refused_or_builds() {
    let all = Json::parse(&SystemConfig::default().canonical_json()).unwrap();
    let paths: Vec<&str> = all.keys().collect();
    assert_eq!(paths.len(), 51, "config_fields! lists 51 paths");
    let (mut built, mut crashed) = (0, Vec::new());
    for path in &paths {
        for value in BOUNDS {
            let mut cfg = SystemConfig::with_procs(4);
            if cfg.set_field(path, value).is_err() || cfg.check().is_err() {
                continue;
            }
            built += 1;
            if let Some(why) = panics(|| drop(Machine::new(cfg))) {
                crashed.push(format!("{path} = {value}: {why}"));
            }
        }
    }
    eprintln!(
        "config half: {} variants, {built} built",
        paths.len() * BOUNDS.len()
    );
    assert!(crashed.is_empty(), "{crashed:#?}");
}

/// How one variant changes the member at its path.
enum Edit<'a> {
    Delete,
    Rename,
    Replace(&'a str),
}

/// Write `v` into `w`, applying `edit` at `path` (indices of object
/// members and array elements from `v` down; `None` when the target is
/// not below `v`).
fn render(v: &Json, path: Option<&[usize]>, edit: &Edit, w: &mut JsonWriter) {
    let child = |i: usize| path.filter(|p| p.first() == Some(&i)).map(|p| &p[1..]);
    let here = |i: usize| child(i).is_some_and(<[usize]>::is_empty);
    let value = |i: usize, x: &Json, w: &mut JsonWriter| match edit {
        Edit::Replace(raw) if here(i) => w.raw_val(raw),
        _ => render(x, child(i).filter(|p| !p.is_empty()), edit, w),
    };
    match v {
        Json::Obj(members) => {
            w.begin_obj();
            for (i, (k, x)) in members.iter().enumerate() {
                match edit {
                    Edit::Delete if here(i) => continue,
                    Edit::Rename if here(i) => w.key(&format!("{k}_")),
                    _ => w.key(k),
                }
                value(i, x, w);
            }
            w.end_obj();
        }
        Json::Arr(elements) => {
            w.begin_arr();
            for (i, x) in elements.iter().enumerate() {
                if !(matches!(edit, Edit::Delete) && here(i)) {
                    value(i, x, w);
                }
            }
            w.end_arr();
        }
        Json::Str(s) => w.str_val(s),
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => w.u64_val(*n as u64),
        Json::Num(n) => w.f64_val(*n),
        Json::Bool(b) => w.bool_val(*b),
        Json::Null => w.raw_val("null"),
    }
}

/// The index path of every object member and array element below `v`.
fn paths(v: &Json, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match v {
        Json::Obj(m) => m.iter().map(|(_, x)| x).collect(),
        Json::Arr(a) => a.iter().collect(),
        _ => return,
    };
    for (i, x) in children.into_iter().enumerate() {
        at.push(i);
        out.push(at.clone());
        paths(x, at, out);
        at.pop();
    }
}

/// Every variant of `doc` the mutator makes.
fn variants(doc: &str) -> Vec<String> {
    let v = Json::parse(doc).unwrap();
    let mut targets = Vec::new();
    paths(&v, &mut Vec::new(), &mut targets);
    let numbers: Vec<String> = BOUNDS.iter().map(u64::to_string).collect();
    let retypes = ["\"x\"", "7", "true", "null", "[]", "{}", "\"0x10\""];
    let mut edits = vec![Edit::Delete, Edit::Rename];
    edits.extend(retypes.iter().map(|r| Edit::Replace(r)));
    edits.extend(numbers.iter().map(|n| Edit::Replace(n)));
    let mut out = Vec::new();
    for path in &targets {
        for edit in &edits {
            let mut w = JsonWriter::new();
            render(&v, Some(path), edit, &mut w);
            out.push(w.finish());
        }
    }
    out.extend(doc.char_indices().map(|(i, _)| doc[..i].to_string()));
    out
}

#[test]
fn every_document_variant_is_read_or_refused_without_a_panic() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut docs: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    docs.sort();
    assert!(docs.len() >= 6, "{docs:?}");
    let faults = DeliveryPlan {
        drop_ppm: 400_000,
        dup_ppm: 20_000,
        reorder_window: 32,
        e2e_timeout: 5_000,
        max_e2e_retries: 1,
        seed: 0xDEAD_BEEF_0123_4567,
    };
    let plan = PlanDoc::new(&ChaosSpec::new(7).bench, faults, "RequestTimedOut");
    docs.push(("a written plan".into(), plan.to_json()));
    let mut model = VerifyModel::new(ModelCell::new("ticket-lock", Mechanism::Mao, 2).unwrap());
    if let ModelCell::Lock(l) = &mut model.cell {
        l.rounds = 2;
    }
    let schedule = ScheduleDoc {
        model,
        tape: vec![1, 0, 2],
        kinds: "srd".into(),
        kind: "ok".into(),
        monitor: String::new(),
        fingerprint: "0".repeat(32),
    };
    docs.push(("a written schedule".into(), schedule.to_json()));
    // A grid that sets every top-level member and every lock parameter.
    let grid = r#"{"schema":"amo-campaign-v1","name":"g","kind":"grid","workload":"lock",
        "base":{"mech":"AMO","procs":4,"kind":"mcs","rounds":2,"cs_cycles":10,"max_think":20,
                "seed":"0x10","watchdog":100000,"config.network.hop_latency":20},
        "axes":{"mech":["AMO","MAO"],"procs":[4,8]},
        "include":[{"mech":"AMO"},{"procs":8}],"exclude":[{"mech":"MAO","procs":8}],
        "replicas":2}"#;
    docs.push(("a full grid".into(), grid.into()));

    let (mut total, mut crashed) = (0, Vec::new());
    for (name, doc) in &docs {
        for variant in variants(doc) {
            total += 1;
            let read = || {
                let _ = CampaignSpec::parse(&variant);
                let _ = VerifyMatrix::from_json(&variant);
                let _ = ScheduleDoc::from_json(&variant);
                let _ = PlanDoc::from_json(&variant);
            };
            if let Some(why) = panics(read) {
                crashed.push(format!("{name}: {variant}: {why}"));
            }
        }
    }
    eprintln!("document half: {} documents, {total} variants", docs.len());
    assert!(total > 4_000, "the corpus shrank to {total} variants");
    assert!(crashed.is_empty(), "{crashed:#?}");
}
