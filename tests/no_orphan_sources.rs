//! Cargo compiles only what a workspace member's manifest reaches. A
//! nested `crates/<member>/crates/...` tree is under no member, so its
//! sources are never built or tested and rot unseen; two such files
//! have been found so far. Fail on the directory instead.

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
