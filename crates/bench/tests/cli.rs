//! Drives the `amo` binary the way a shell would: every subcommand
//! runs, malformed command lines fail loudly with exit status 2, the
//! documented exit status 1 cases keep it, deterministic outputs are
//! byte-identical across runs, and no committed document names a
//! command the binary does not have.

use std::path::{Path, PathBuf};
use std::process::Command;

struct Out {
    status: i32,
    stdout: String,
    stderr: String,
}

/// Run `amo` with `line` split at whitespace (no test path holds any).
fn amo(line: &str) -> Out {
    let out = Command::new(env!("CARGO_BIN_EXE_amo"))
        .args(line.split_whitespace())
        .output()
        .expect("the amo binary runs");
    Out {
        status: out.status.code().expect("amo exits, it is not killed"),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

/// Run and require exit status 0; returns stdout.
fn ok(line: &str) -> String {
    let out = amo(line);
    assert_eq!(out.status, 0, "amo {line}: {}", out.stderr);
    out.stdout
}

/// A scratch path under the target directory.
fn tmp(name: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("amo-cli");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir.join(name).to_str().expect("utf-8 path").to_string()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The subcommand words `amo help` lists (`experiment` once).
fn subcommands() -> Vec<String> {
    let mut subs: Vec<String> = ok("help")
        .lines()
        .filter_map(|l| l.strip_prefix("  amo "))
        .map(|l| l.split(' ').next().expect("a name").to_string())
        .collect();
    subs.dedup();
    subs
}

#[test]
fn help_is_the_one_usage_text() {
    let help = ok("help");
    let subs = "tables campaign experiment ablations chaos chaos_search verify";
    assert_eq!(subcommands(), subs.split(' ').collect::<Vec<_>>());
    for name in amo_campaign::artifacts::ARTIFACT_NAMES {
        assert!(help.contains(name), "help must name artefact {name}");
    }
    assert!(help.lines().all(|l| l.len() <= 80), "help wraps at 80");
    for line in ["", "tabels --quick"] {
        let out = amo(line);
        assert_eq!(out.status, 2, "amo {line}");
        assert!(out.stderr.ends_with(&help), "amo {line}: {}", out.stderr);
    }
}

#[test]
fn tables_is_campaign_with_the_cache_off() {
    let tables = ok("tables --quick");
    assert!(tables.contains("Table 2") && tables.contains("Figure 7"));
    assert_eq!(tables, ok("campaign quick --no-cache"));
    // The switch must not swallow the profile after it.
    assert_eq!(tables, ok("campaign --no-cache quick"));
    let csv = ok("tables --quick --csv table2 table4");
    assert!(csv.starts_with("table,row,column,value\ntable2,4,") && csv.contains("\ntable4,"));
    // Every artefact has the one CSV form, and nothing else is printed.
    let csv = ok("tables --quick --csv");
    for name in amo_campaign::artifacts::ARTIFACT_NAMES {
        assert!(csv.contains(&format!("\n{name},")), "{name} missing");
    }
    for line in csv.lines() {
        assert_eq!(line.split(',').count(), 4, "not a CSV line: {line}");
    }
}

#[test]
fn campaign_runs_specs_through_the_cache() {
    let (spec, cache, metrics) = (tmp("grid.json"), tmp("cache"), tmp("campaign.json"));
    std::fs::write(
        &spec,
        r#"{"schema": "amo-campaign-v1", "name": "cli", "kind": "grid", "workload": "lock",
            "base": {"procs": 4, "rounds": 2, "kind": "array"},
            "axes": {"mech": ["LL/SC", "AMO"]}}"#,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    let line = format!("campaign --spec {spec} --cache-dir {cache} --metrics-json {metrics}");
    let cold = ok(&line);
    assert!(cold.contains("cli[mech=AMO]"), "{cold}");
    assert!(read(&metrics).contains("\"cache_misses\":2"));
    assert_eq!(ok(&line), cold, "the warm run renders the same bytes");
    assert!(read(&metrics).contains("\"cache_misses\":0"));

    let unknown = r#"{"schema": "amo-campaign-v1", "name": "x", "kind": "artifacts",
                      "artifacts": ["tabel2"]}"#;
    std::fs::write(&spec, unknown).unwrap();
    let bad = amo(&format!("campaign --spec {spec} --no-cache"));
    assert_eq!(bad.status, 1);
    assert!(bad.stderr.contains("\"tabel2\"") && bad.stdout.is_empty());
}

#[test]
fn experiment_runs_and_writes_every_observability_document() {
    let docs = [
        ("trace-out", tmp("trace.json"), "\"traceEvents\""),
        ("critpath-out", tmp("critpath.json"), "\"amo-critpath-v1\""),
        ("metrics-json", tmp("metrics.json"), "\"amo-metrics-v1\""),
        ("hostprof-out", tmp("hostprof.json"), "\"amo-hostprof-v1\""),
    ];
    let mut line =
        String::from("experiment barrier --mech amo --procs 8 --episodes 3 --algo tree:2");
    for (flag, path, _) in &docs {
        line.push_str(&format!(" --{flag} {path}"));
    }
    let out = ok(&line);
    assert!(out.starts_with("AMO barrier, 8 CPUs, Tree(2):"), "{out}");
    for (_, path, needle) in &docs {
        assert!(read(path).contains(needle), "{path} lacks {needle}");
    }
    let csv = ok("experiment lock --mech LL/SC --kind mcs --procs 4 --rounds 2 --csv");
    assert!(csv.contains("\nlock,LL/SC,Mcs,4,"), "{csv}");
}

#[test]
fn chaos_is_deterministic_and_plans_replay() {
    let first = ok("chaos --quick --seed 42 --procs 8");
    assert!(first.contains("result=ok"), "{first}");
    assert_eq!(first, ok("chaos --quick --seed 42 --procs 8"));
    let typed = ok("chaos --quick --procs 8 --unrecoverable");
    assert!(typed.contains("kind=LinkFailed"), "{typed}");
    let search = ok("chaos_search --samples 2 --procs 8 --episodes 2 --drops 0,20000");
    assert!(search.contains("searched: sampled=2"), "{search}");

    // A recorded plan replays; one whose recorded kind the run does not
    // reproduce is exit status 1.
    let plan = tmp("plan.json");
    let minted = ok(&format!(
        "chaos --quick --procs 8 --drop 20000 --plan-out {plan}"
    ));
    assert!(minted.contains("kind=ok"), "{minted}");
    let replayed = ok(&format!("chaos --plan-in {plan}"));
    assert!(
        replayed.ends_with("replay=reproduced kind=ok\n"),
        "{replayed}"
    );
    let doc = read(&plan);
    assert!(doc.contains("\"kind\":\"ok\""));
    std::fs::write(&plan, doc.replace("\"kind\":\"ok\"", "\"kind\":\"Stall\"")).unwrap();
    let diverged = amo(&format!("chaos --plan-in {plan}"));
    assert_eq!(diverged.status, 1);
    let why = "expected Stall but observed ok";
    assert!(diverged.stderr.contains(why), "{}", diverged.stderr);
}

#[test]
fn verify_modes_run_and_violations_are_exit_status_1() {
    let specs = repo_root().join("specs");
    let specs = specs.to_str().expect("utf-8 path");
    let clean = ok("verify --explore --workload ticket-lock");
    assert!(clean.contains("\"violations\":0"), "{clean}");
    let matrix = ok(&format!(
        "verify --matrix {specs}/verify-matrix.json --no-cache"
    ));
    assert!(matrix.contains("\"violations\":0"), "{matrix}");
    let replay = ok(&format!("verify --replay {specs}/verify-known-good.json"));
    assert!(replay.starts_with("replay: ok kind=ok"), "{replay}");
    let passive = ok("verify --passivity --procs 8");
    assert_eq!(passive.matches("passivity: ok").count(), 2, "{passive}");

    let planted = amo("verify --explore --procs 2 --dups --planted-double-apply");
    assert_eq!(planted.status, 1);
    assert!(planted.stdout.contains("\"violations\":1"));
}

#[test]
fn ablations_are_deterministic() {
    let first = ok("ablations");
    assert_eq!(first.matches("== ablation:").count(), 8, "{first}");
    assert_eq!(first, ok("ablations"));
}

/// Every malformed input is refused in one line naming the offending
/// token or value, never by a panic: status 2 plus the usage for a
/// command line, status 1 for a description in a file that cannot run.
#[test]
fn malformed_command_lines_exit_2_naming_the_offending_token() {
    let barrier = "experiment barrier --mech amo --procs 8";
    let command_lines = [
        // The four silent or panicking cases of the six old binaries
        // (the fourth, `campaign --no-cache quick`, is checked above).
        (format!("{barrier} --epsiodes 3"), "--epsiodes"),
        ("chaos --quick --procs banana".into(), "banana"),
        ("tables --quick tabel2".into(), "tabel2"),
        // One of each remaining kind.
        ("campaign quick paper".into(), "paper"),
        ("campaign --spec".into(), "--spec"),
        ("campaign papr".into(), "papr"),
        ("ablations now".into(), "now"),
        ("chaos_search --drops 1,x".into(), "'x'"),
        ("verify --explore --mech AMOO".into(), "AMOO"),
        ("verify --explore --workload lokc".into(), "lokc"),
        ("verify --explore --procs 0".into(), "--procs"),
        ("verify --procs 2".into(), "--explore"),
        (format!("{barrier} --algo tre:4"), "tre:4"),
        ("experiment barrier --mech amo --procs 7".into(), "--procs"),
        (
            "experiment lock --mech amo --procs 8 --kind tikcet".into(),
            "tikcet",
        ),
        ("experiment lock --kind mcs --procs 8".into(), "--mech"),
        ("experiment barier --mech amo".into(), "barier"),
        // Descriptions that parse but cannot run: these used to reach an
        // assertion inside the simulator (two of them after simulating).
        (format!("{barrier} --episodes 2 --warmup 5"), "warmup = 5"),
        (format!("{barrier} --episodes 0 --warmup 0"), "episodes = 0"),
        (format!("{barrier} --algo tree:8"), "tree:8"),
        (format!("{barrier} --algo tree:1"), "tree:1"),
        (format!("{barrier} --algo ktree:1"), "ktree:1"),
        (
            "experiment lock --mech amo --kind ticket --procs 8 --rounds 0".into(),
            "rounds = 0",
        ),
        (
            "experiment lock --mech actmsg --kind mcs --procs 8".into(),
            "mcs",
        ),
        (
            "chaos --quick --procs 8 --episodes 0".into(),
            "episodes = 0",
        ),
        ("chaos --quick --procs 8 --drop 1000000".into(), "1000000"),
        ("chaos_search --samples 2 --drops 1000000".into(), "1000000"),
        (
            "verify --explore --rounds 0 --workload ticket-lock".into(),
            "rounds = 0",
        ),
    ];

    // The same, arriving in a file.
    let file = |name: &str, doc: String| {
        let path = tmp(name);
        std::fs::write(&path, doc).unwrap();
        path
    };
    let grid = |name: &str, workload: &str, base: &str| {
        let doc = format!(
            r#"{{"schema": "amo-campaign-v1", "name": "bad", "kind": "grid",
                "workload": "{workload}", "base": {{"mech": "AMO", {base}}}}}"#
        );
        format!("campaign --no-cache --spec {}", file(name, doc))
    };
    let matrix = |name: &str, cell: &str| {
        let doc = format!(
            r#"{{"schema": "amo-verify-matrix-v1", "max_runs": 50, "cells": [
                {{"mech": "AMO", "workload": "ticket-lock", "procs": {cell}}}]}}"#
        );
        format!("verify --no-cache --matrix {}", file(name, doc))
    };
    let array_of_one = r#""procs": 1, "kind": "array",
        "config.procs_per_node": 1, "config.num_procs": 1"#;
    let files = [
        (grid("g1.json", "barrier", r#""procs": 5"#), "num_procs = 5"),
        (
            grid(
                "g2.json",
                "barrier",
                r#""procs": 8, "config.l1.line_bytes": 48"#,
            ),
            "line_bytes = 48",
        ),
        (
            grid(
                "g3.json",
                "barrier",
                r#""procs": 8, "episodes": 3, "warmup": 5"#,
            ),
            "warmup = 5",
        ),
        (
            grid(
                "g4.json",
                "barrier",
                r#""procs": 8, "config.num_procs": 16"#,
            ),
            "num_procs = 16",
        ),
        (grid("g5.json", "lock", array_of_one), "array"),
        // Used to run as a 4-processor machine.
        (grid("g15.json", "barrier", r#""procs": 65540"#), "65540"),
        // Used to be reported as `AMO ticket-lock x2`.
        (matrix("m1.json", "65538"), "65538"),
        // Used to explore the model without its unknown — and three of
        // its known — knobs.
        (matrix("m2.json", r#"2, "bogus": 7"#), "\"bogus\""),
    ];

    let rows = command_lines.iter().map(|row| (2, row));
    for (status, (line, token)) in rows.chain(files.iter().map(|row| (1, row))) {
        let out = amo(line);
        assert_eq!(out.status, status, "amo {line}: {}", out.stderr);
        assert!(out.stdout.is_empty(), "amo {line} printed a document");
        let first = out.stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("amo") && first.contains(token),
            "amo {line}: {first}"
        );
        let usage = out.stderr.contains("usage:");
        assert_eq!(usage, status == 2, "amo {line}: {}", out.stderr);
        assert!(!out.stderr.contains("panicked"), "amo {line} panicked");
    }

    // With the unknown key gone, the planted bug the cell asks for is
    // explored and found: the matrix used to drop it and report clean.
    let planted = r#"2, "explore_dups": true, "planted_double_apply": true"#;
    let found = amo(&matrix("m3.json", planted));
    assert_eq!(found.status, 1, "{}", found.stderr);
    assert!(
        found.stdout.contains("\"violations\":1"),
        "{}",
        found.stdout
    );
}

#[test]
fn documents_name_only_commands_the_binary_has() {
    let old = [
        "tables",
        "campaign",
        "experiment",
        "chaos",
        "chaos_search",
        "verify",
    ];
    let subs = subcommands();
    let mut commands = 0;
    for file in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
        "crates/core/src/lib.rs",
    ] {
        let text = std::fs::read_to_string(repo_root().join(file)).expect(file);
        // Words, without the punctuation prose and markdown wrap around
        // a command.
        let toks: Vec<&str> = text
            .split_whitespace()
            .map(|tok| tok.trim_matches(|c: char| "`'\"()[],.;:".contains(c)))
            .collect();
        for (i, tok) in toks.iter().enumerate() {
            let next = |n: usize| toks.get(i + n).copied().unwrap_or("");
            let old_bin = *tok == "--bin" && old.contains(&next(1));
            let old_path = old
                .iter()
                .any(|old| tok.ends_with(&format!("target/release/{old}")));
            let bench = *tok == "cargo" && next(1) == "bench";
            assert!(!(old_bin || old_path || bench), "{file}: {tok} {}", next(1));
            // A binary handed to the comparison script is an argument.
            if (1..=2).any(|n| i >= n && toks[i - n].ends_with("tools/same-bytes.sh")) {
                continue;
            }
            let sub = if tok.ends_with("target/release/amo") {
                next(1)
            } else if *tok == "-p" && next(1) == "amo-bench" && next(2) == "--" {
                next(3)
            } else {
                continue;
            };
            assert!(
                sub == "help" || subs.iter().any(|s| s == sub),
                "{file}: `amo {sub}` is not a subcommand"
            );
            commands += 1;
        }
    }
    assert!(commands >= 40, "only {commands} documented commands found");
}
