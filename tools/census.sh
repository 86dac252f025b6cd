#!/bin/sh
# tools/census.sh [WORKDIR]
#
# Transition census of every crate but the benchmark's: which function
# bodies, match arms and if / else / loop bodies anything the tooling
# ships reaches, which only `cargo test` reaches, and which nothing
# reaches.
#
# A copy of the working tree (tracked and untracked, not ignored) goes to
# WORKDIR (default: a fresh `mktemp -d`); the working tree itself is never
# edited. In the copy, the non-test code of the model crates amo-sim and
# amo-sync and of the tooling crates
# amo-{types,obs,workloads,campaign,verify,bench} gets a first-hit probe
# at every site: the first time a process enters it, it appends the
# site's key to the file `$AMO_CENSUS_OUT` names. Code inside macro
# invocations, `const` / `static` initializers and `#[cfg(test)]` items
# is left alone. Then three sets of runs are counted:
#
#   shipped  `tools/same-bytes.sh` (every `amo` invocation it makes), two
#            `amo chaos_search` runs and every BENCHMARK.json workload at
#            `--quick --trace 0` and `--trace 1`;
#   test     `cargo test --workspace --no-fail-fast`. The two allocation
#            gates of amo-sim fail under the probes (a first hit
#            allocates); the sites their runs reach still count.
#
# Output: one line per site, `shipped|test-only|none  KEY`, where KEY is
# `row:file:line:col kind [fn name]` of the original source, then the
# per-row table `sites shipped test-only none`, with subtotals for the
# model and the tooling crates. A row is a crate, except that a site in
# one of amo-sim's model modules (`crates/sim/src/MODULE/`: directory,
# cpu, amu, cache, noc, dram, faults, engine) is keyed by that module and
# its path inside it, so the rows stay those of the crates the modules
# once were; the rest of amo-sim is the `sim` row. The lists stay under
# WORKDIR/census. Keys are line-based, so two censuses of different
# commits compare per row, not per line. Takes ~9 min on 2 cores.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
case $work/ in "$repo"/*) echo "census: WORKDIR must be outside the repository" >&2; exit 2 ;; esac
copy=$work/copy
out=$work/census
rm -rf "$copy" "$out"
mkdir -p "$copy" "$out"
(cd "$repo" && git ls-files -z -co --exclude-standard | xargs -0 tar --ignore-failed-read -cf - --) | (cd "$copy" && tar -xf -)

tooling="types obs workloads campaign verify bench"

python3 - "$copy" "$out/sites" "sim sync $tooling" <<'PY'
import os, re, sys

root, sites_out, crates = sys.argv[1], sys.argv[2], sys.argv[3].split()
MODULES = {"directory", "cpu", "amu", "cache", "noc", "dram", "faults", "engine"}
PUNCT3 = ("..=", "<<=", ">>=")
PUNCT2 = ("=>", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "..",
          "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>")
KEYWORDS = {"if", "while", "match", "return", "in", "else", "let", "break", "loop", "for"}
ITEM_START = ("", "{", "}", ";", "]", ")", "pub", "unsafe")
BINOP = {"else", ".", "?", "as", "+", "-", "*", "/", "%", "==", "!=", "<", ">",
         "<=", ">=", "&&", "||", "..", "..="}
PROBE = ('{static H:std::sync::atomic::AtomicBool=std::sync::atomic::AtomicBool::new(false);'
         'if !H.load(std::sync::atomic::Ordering::Relaxed){'
         'H.store(true,std::sync::atomic::Ordering::Relaxed);'
         'if let Some(p)=std::env::var_os("AMO_CENSUS_OUT"){use std::io::Write;'
         'if let Ok(mut f)=std::fs::OpenOptions::new().append(true).create(true).open(p){'
         'let _=f.write_all(b"%s\\n");}}}}')


def tokens(src):
    """(text, start, end, line, col) of every token; comments skipped."""
    out, i, n, line, bol = [], 0, len(src), 1, 0

    def emit(j, kind):
        out.append((src[i:j], i, j, line, i - bol + 1, kind))

    while i < n:
        c = src[i]
        if c == "\n":
            line, bol, i = line + 1, i + 1, i + 1
            continue
        if c.isspace():
            i += 1
            continue
        if src.startswith("//", i):
            i = src.index("\n", i) if "\n" in src[i:] else n
            continue
        if src.startswith("/*", i):
            depth, j = 1, i + 2
            while depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            line += src.count("\n", i, j)
            bol = src.rfind("\n", 0, j) + 1 if "\n" in src[i:j] else bol
            i = j
            continue
        m = re.compile(r'b?r(#*)"').match(src, i)
        if m:
            j = src.index('"' + m.group(1), m.end()) + 1 + len(m.group(1))
        elif c == '"' or src.startswith('b"', i):
            j = i + (2 if c == "b" else 1)
            while src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
        elif c == "'" or src.startswith("b'", i):
            k = i + (2 if c == "b" else 1)
            m = re.compile(r"\\(u\{[0-9a-fA-F]+\}|x..|.)'|[^\\']'", re.S).match(src, k)
            if m:
                j = m.end()
            else:  # lifetime or label
                j = re.compile(r"'\w+").match(src, i).end()
                emit(j, "life")
                i = j
                continue
        elif c.isalnum() or c == "_":
            j = re.compile(r"\w+").match(src, i).end()
            emit(j, "word")
            i = j
            continue
        else:
            j = i + next((len(p) for p in PUNCT3 + PUNCT2 if src.startswith(p, i)), 1)
            emit(j, "punct")
            i = j
            continue
        emit(j, "lit")
        line += src.count("\n", i, j)
        bol = src.rfind("\n", 0, j) + 1 if "\n" in src[i:j] else bol
        i = j
    return out


def instrument(path, rel, crate):
    src = open(path).read()
    cut = re.search(r"(?m)^#\[cfg\(test\)\]", src)
    body = src[: cut.start()] if cut else src
    toks = tokens(body)
    t = [tok[0] for tok in toks] + [""] * 8
    n = len(toks)
    close = {}
    stack = []
    for k, (s, *_, kind) in enumerate(toks):
        if kind == "punct" and s in ("(", "[", "{"):
            stack.append(k)
        elif kind == "punct" and s in (")", "]", "}"):
            close[stack.pop()] = k
    sites, edits = [], []

    def site(k, kind):
        key = "%s:%s:%d:%d %s" % (crate, rel, toks[k][3], toks[k][4], kind)
        sites.append(key)
        return PROBE % key

    def after_open(k, kind):
        edits.append((toks[k][2], 1, site(k, kind)))

    def scan(k, stops):
        """First token at depth 0 from k whose text is in `stops`."""
        while k < n and t[k] not in stops:
            k = close[k] + 1 if k in close else k + 1
        return k

    def after_generics(j):
        """Index past the turbofish generics opening at `<` (t[j])."""
        depth = 0
        while True:
            depth += {"<": 1, ">": -1, ">>": -2}.get(t[j], 0)
            j = close[j] + 1 if j in close else j + 1
            if depth <= 0:
                return j

    def arms(lo, hi):
        k = lo + 1
        while k < hi:
            k = scan(k, {"=>"}) + 1
            if k >= hi:
                return
            if t[k] == "{":
                after_open(k, "arm")
                k = close[k] + 1
            else:
                start, j = k, k
                while True:
                    if j >= hi or t[j] == ",":
                        end = j - 1
                        break
                    if t[j] == "::" and t[j + 1] == "<":  # `,` inside `::<A, B>`
                        j = after_generics(j + 1)
                        continue
                    if t[j] == "{" and j in close:
                        j = close[j] + 1
                        if j < hi and t[j] not in BINOP and t[j] != ",":
                            end = j - 1
                            break
                        continue
                    j = close[j] + 1 if j in close else j + 1
                key = site(start, "arm")
                edits.append((toks[start][1], 1, "{" + key + " "))
                edits.append((toks[end][2], 0, " }"))
                k = end + 1
            if k < hi and t[k] == ",":
                k += 1

    k, impl_header = 0, False
    while k < n:
        s, kind = t[k], toks[k][5]
        prev = t[k - 1] if k else ""
        if kind == "punct" and s == "#" and t[k + 1 : k + 7] == ["[", "cfg", "(", "test", ")", "]"]:
            j = scan(k + 7, {"{", ";"})
            k = (close[j] if t[j] == "{" else j) + 1
        elif kind == "word" and s not in KEYWORDS and t[k + 1] == "!" and t[k + 2] in ("(", "[", "{"):
            k = close[k + 2] + 1
        elif s == "macro_rules":
            k = close[k + 3] + 1
        elif s in ("const", "static") and prev in ITEM_START and t[k + 2] == ":":
            k = scan(k, {";"}) + 1
        elif s == "const" and t[k + 1] == "fn":
            j = scan(k, {"{", ";"})
            k = (close[j] if t[j] == "{" else j) + 1
        elif s == "impl" and prev in ITEM_START:
            impl_header = True
            k += 1
        elif s == "{" and impl_header:
            impl_header = False
            k += 1
        elif s == "fn" and t[k + 1] != "(":
            j = scan(k, {"{", ";"})
            if t[j] == "{":
                after_open(j, "fn " + t[k + 1])
            k += 1
        elif s in ("if", "while"):
            j = k + 1
            if t[j] == "let":  # the pattern may hold braces: start after its `=`
                j = scan(j, {"=", "=>"})
                j += t[j] == "="
            j = scan(j, {"{", "=>"})
            if t[j] == "{":
                after_open(j, s)
            k += 1
        elif s == "for" and not impl_header and t[k + 1] != "<":
            j = scan(scan(k + 1, {"in"}) + 1, {"{"})
            after_open(j, "for")
            k += 1
        elif s in ("else", "loop") and t[k + 1] == "{":
            after_open(k + 1, s)
            k += 1
        elif s == "match":
            j = scan(k + 1, {"{"})
            arms(j, close[j])
            k += 1
        else:
            k += 1
    for pos, order, text in sorted(edits, key=lambda e: (-e[0], -e[1])):
        body = body[:pos] + text + body[pos:]
    open(path, "w").write(body + (src[cut.start():] if cut else ""))
    return sites


all_sites = []
for crate in crates:
    base = os.path.join(root, "crates", crate, "src")
    for dirpath, _, files in sorted(os.walk(base)):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, base)
            row, head = crate, rel.split(os.sep)[0]
            if crate == "sim" and head in MODULES:
                row, rel = head, os.path.relpath(rel, head)
            if f.endswith(".rs") and (row, rel) != ("cpu", os.path.join("proc", "tests.rs")):
                all_sites += instrument(path, rel, row)
with open(sites_out, "w") as fh:
    fh.write("".join(k + "\n" for k in all_sites))
print("census: %d sites instrumented" % len(all_sites), file=sys.stderr)
PY

cd "$copy"
cargo build --release -q 2> "$out/build.txt" || { cat "$out/build.txt" >&2; exit 1; }
amo=$copy/target/release/amo
bench=$copy/target/release/amo-benchmark

AMO_CENSUS_OUT=$out/shipped.raw tools/same-bytes.sh "$amo" "$amo" > "$out/same-bytes.txt" || true
AMO_CENSUS_OUT=$out/shipped.raw "$amo" chaos_search --samples 6 --seed 1 > /dev/null 2>&1 || true
AMO_CENSUS_OUT=$out/shipped.raw "$amo" chaos_search --samples 6 --seed 2 --procs 16 > /dev/null 2>&1 || true
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for trace in 0 1; do
        AMO_CENSUS_OUT=$out/shipped.raw "$bench" --workload "$w" --quick --seconds 0.1 --trace $trace \
            > /dev/null 2>&1 || echo "census: $w --trace $trace failed" >&2
    done
done

AMO_CENSUS_OUT=$out/test.raw cargo test -q --workspace --no-fail-fast > "$out/test.txt" 2>&1 ||
    echo "census: some tests failed under the probes (see $out/test.txt)" >&2

touch "$out/shipped.raw" "$out/test.raw"
sort -u "$out/shipped.raw" > "$out/shipped"
sort -u "$out/test.raw" > "$out/test"
awk -v out="$out" -v tooling="$tooling" '
FILENAME == out "/shipped" { shipped[$0] = 1; next }
FILENAME == out "/test" { tested[$0] = 1; next }
{
    split($1, part, ":"); c = part[1]
    if (!(c in sites)) order[++m] = c
    sites[c]++
    if ($0 in shipped) { s = "shipped"; ns[c]++ }
    else if ($0 in tested) { s = "test-only"; nt[c]++ }
    else { s = "none"; nn[c]++ }
    printf "%-9s  %s\n", s, $0
}
END {
    print ""
    printf "%-10s %6s %8s %10s %6s\n", "crate", "sites", "shipped", "test-only", "none"
    split(tooling, tl, " ")
    for (i in tl) tool[tl[i]] = 1
    for (i = 1; i <= m; i++) {
        c = order[i]
        printf "%-10s %6d %8d %10d %6d\n", c, sites[c], ns[c], nt[c], nn[c]
        g = c in tool ? "tooling" : "model"
        T[g] += sites[c]; S[g] += ns[c]; O[g] += nt[c]; N[g] += nn[c]
    }
    T["total"] = T["model"] + T["tooling"]; S["total"] = S["model"] + S["tooling"]
    O["total"] = O["model"] + O["tooling"]; N["total"] = N["model"] + N["tooling"]
    for (i = 1; i <= 3; i++) {
        g = i == 1 ? "model" : i == 2 ? "tooling" : "total"
        printf "%-10s %6d %8d %10d %6d\n", g, T[g], S[g], O[g], N[g]
    }
}' "$out/shipped" "$out/test" "$out/sites" | tee "$out/census.txt"
echo "census: lists under $out" >&2
