#!/bin/sh
# tools/lines.sh [PATH...]
#
# Non-test / test line split of the workspace's Rust sources, per file,
# per crate and in total. A file's non-test lines are those before its
# first `#[cfg(test)]` line; everything from there on is test. Files under
# a `tests/` directory and `crates/cpu/src/proc/tests.rs` (a
# `#[cfg(test)]`-included module) are test throughout.
#
#   tools/lines.sh                    # crates tests examples
#   tools/lines.sh crates/sync/src    # one crate's sources
#
# Columns: non-test, test, then the file, the group (`crates/NAME`,
# `tests`, `examples`) or `total`.
set -eu

cd "$(dirname "$0")/.." || exit 2
[ $# -gt 0 ] || set -- crates tests examples

find "$@" -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort | xargs awk '
FNR == 1 {
    files[++n] = FILENAME
    cut = FILENAME ~ /(^|\/)tests\// || FILENAME ~ /cpu\/src\/proc\/tests\.rs$/
    split(FILENAME, part, "/")
    group[FILENAME] = part[1] == "crates" ? part[1] "/" part[2] : part[1]
}
/^#\[cfg\(test\)\]/ { cut = 1 }
{ if (cut) test[FILENAME]++; else code[FILENAME]++ }
END {
    for (i = 1; i <= n; i++) {
        f = files[i]
        g = group[f]
        if (!(g in gcode)) groups[++m] = g
        gcode[g] += code[f]; gtest[g] += test[f]
        tcode += code[f]; ttest += test[f]
        printf "%8d %8d  %s\n", code[f], test[f], f
    }
    print ""
    for (i = 1; i <= m; i++) printf "%8d %8d  %s\n", gcode[groups[i]], gtest[groups[i]], groups[i]
    print ""
    printf "%8d %8d  total\n", tcode, ttest
}'
