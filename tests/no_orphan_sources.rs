//! Guards on the workspace's layout.
//!
//! * Cargo compiles only what a workspace member's manifest reaches. A
//!   nested `crates/<member>/crates/...` tree is under no member, so its
//!   sources are never built or tested and rot unseen; two such files
//!   have been found so far. Fail on the directory instead.
//! * The simulated machine is one crate, `amo-sim`. Six of its modules
//!   keep a package of their own only as a re-export for
//!   `crates/benchmark`, which imports them by their former crate
//!   names; nothing else may come to depend on such a shell.

use std::path::{Path, PathBuf};

fn nested_crates_dirs(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if !path.is_dir() {
            continue;
        }
        match path.file_name().and_then(|n| n.to_str()) {
            Some("crates") => found.push(path),
            Some("target") => {}
            _ => nested_crates_dirs(&path, found),
        }
    }
}

#[test]
fn no_crates_directory_below_a_workspace_member() {
    // This test's package is `crates/core`; its parent holds the members.
    let members = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut found = Vec::new();
    nested_crates_dirs(members, &mut found);
    assert!(found.is_empty(), "orphan source trees: {found:?}");
}

/// The crate names `crates/benchmark` still imports. Each names a shell
/// package whose `src/lib.rs` re-exports one `amo_sim` module.
const SHELLS: [&str; 6] = [
    "amo-engine",
    "amo-noc",
    "amo-cache",
    "amo-directory",
    "amo-amu",
    "amo-cpu",
];

#[test]
fn only_the_benchmark_depends_on_a_shell_and_a_shell_is_one_re_export() {
    let members = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut names = Vec::new();
    for entry in std::fs::read_dir(members).expect("readable members directory") {
        let dir = entry.expect("directory entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let member = dir.file_name().unwrap().to_string_lossy().into_owned();
        // Keys of the `[*dependencies]` tables: `amo-x.workspace = true`
        // or `amo-x = { path = ... }`.
        let mut in_deps = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_deps = line
                    .trim_matches(|c| c == '[' || c == ']')
                    .ends_with("dependencies");
                continue;
            }
            let key = line.split(['=', '.']).next().unwrap_or("").trim();
            if in_deps && SHELLS.contains(&key) {
                names.push(format!("{member} -> {key}"));
            }
        }
        if SHELLS.contains(&format!("amo-{member}").as_str()) {
            let lib = std::fs::read_to_string(dir.join("src/lib.rs")).expect("shell lib.rs");
            let code: Vec<&str> = lib
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with("//"))
                .collect();
            assert_eq!(
                code,
                [format!("pub use amo_sim::{member}::*;").as_str()],
                "amo-{member}'s lib.rs must be one re-export of amo_sim::{member}"
            );
        }
    }
    names.sort();
    let mut expected: Vec<String> = SHELLS.iter().map(|s| format!("benchmark -> {s}")).collect();
    expected.sort();
    assert_eq!(names, expected, "only crates/benchmark may name a shell");
}
