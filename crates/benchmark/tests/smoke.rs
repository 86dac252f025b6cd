//! Tier-1 smoke tests of the benchmark binary at `--quick` size, and
//! the check that `BENCHMARK.json` and the catalog name the same
//! metrics. A debug build runs all of this in a few seconds.

use amo_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use amo_types::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            assert!(matches!(s("better").as_str(), "lower" | "higher"));
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_and_the_catalog_agree() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn one_quick_run_prints_the_contract_line() {
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let out = Command::new(env!("CARGO_BIN_EXE_amo-benchmark"))
            .current_dir(root())
            .args(["--workload", "lock_amo_64", "--seed", "7", "--seconds", "0"])
            .args(["--trace", trace, "--quick"])
            .output()
            .expect("run the benchmark");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        let keys: Vec<&str> = line.keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.keys().collect::<Vec<_>>().len(), table.len());
        for (name, unit) in table {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.keys().collect::<Vec<_>>(), ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        }
        if trace == "0" {
            for (name, _) in table {
                let v = metrics.get(name).unwrap().get("value").unwrap();
                assert!(v.as_f64().unwrap() > 0.0, "{name} must never be 0");
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_amo-benchmark"))
        .current_dir(root())
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn quick_suite_reports_every_metric_named_in_benchmark_json() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = tmp.join("quick-result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_amo-benchmark"))
        .current_dir(root())
        .args(["--quick", "--seed", "1", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run the suite");
    assert!(status.success(), "quick suite must pass its own checks");

    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("result parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("amo-benchmark-result-v1")
    );
    assert!(doc.get("host").and_then(|h| h.get("nproc")).is_some());
    assert!(doc.get("inputs").is_some());
    let spec = benchmark_json();
    let sets = doc.get("sets").and_then(Json::as_arr).expect("sets");
    assert_eq!(sets.len(), 1);
    let workloads = sets[0].get("workloads").expect("workloads");
    for w in WORKLOADS {
        let r = workloads.get(w).unwrap_or_else(|| panic!("{w} missing"));
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        for (list, extra) in [("end_to_end", "resolved"), ("per_layer", "exact")] {
            for (name, unit) in declared(&spec, list) {
                let m = r
                    .get(list)
                    .and_then(|l| l.get(&name))
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{w}: {name}"
                );
                assert!(
                    m.get(extra).and_then(Json::as_bool).is_some(),
                    "{w}: {name}"
                );
            }
        }
        let t = r.get("trace").expect("trace summary");
        let num = |k: &str| t.get(k).and_then(Json::as_f64).unwrap();
        assert!(num("traced_wall_s") > 0.0 && num("untraced_wall_s") > 0.0);
        assert_eq!(
            num("traced_wall_s"),
            num("self_sum_s"),
            "{w}: Σ self = wall"
        );
    }

    let mut trace_path = out.into_os_string();
    trace_path.push(".trace.json");
    let trace = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace parses");
    let traced = trace
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(traced.len(), WORKLOADS.len());
    for t in traced {
        let spans = t.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty());
        for s in spans {
            for k in ["name", "workload", "start_ns", "end_ns", "parent"] {
                assert!(s.get(k).is_some(), "span lacks {k}");
            }
        }
    }
}
