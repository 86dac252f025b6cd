#!/bin/sh
# tools/same-bytes.sh OLD_AMO NEW_AMO
#
# The parent-vs-change byte comparison of a refactor that must not move a
# simulated number: run one fixed list of `amo` invocations with each
# binary and compare everything they produce — stdout, exit status and
# every written document byte for byte, stderr without its wall-clock
# figures, hostprof documents without their time-valued members — then
# `amo tables` against tables_output.txt. Prints each differing file and
# exits 1 if there is one.
#
#   tools/same-bytes.sh /root/scratch/parent/target/release/amo ./target/release/amo
#   tools/same-bytes.sh ./target/release/amo ./target/release/amo   # determinism of every surface
#
# Both sides run from the repository root and write under the same
# relative directory (renamed afterwards), so paths echoed on stdout match.
set -u

[ $# -eq 2 ] || { echo "usage: $0 OLD_AMO NEW_AMO" >&2; exit 2; }
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
old=$(abs "$1")
new=$(abs "$2")
cd "$(dirname "$0")/.." || exit 2

work=target/same-bytes
o=$work/run # where the side being run writes
rm -rf "$work"
mkdir -p "$work"

# run NAME ARGS...: one invocation; stdout, stderr and status land beside
# whatever files ARGS name under $o.
run() {
    name=$1
    shift
    "$amo" "$@" > "$o/$name.stdout" 2> "$o/$name.stderr"
    echo $? > "$o/$name.status"
}

# The observability flag set of `experiment`, writing under $o/NAME.*.
obs() {
    echo "--trace-out $o/$1.trace.json --critpath-out $o/$1.critpath.json \
        --metrics-json $o/$1.metrics.json --sample-interval 500"
}

invocations() {
    # The command-line surface, tables and campaigns.
    run help help
    run tables tables
    run tables-quick tables --quick
    run tables-quick-csv tables --quick --csv
    run campaign-cold campaign quick --cache-dir $o/campaign-cache \
        --out $o/campaign-cold.txt --metrics-json $o/campaign-cold.json
    run campaign-warm campaign quick --cache-dir $o/campaign-cache \
        --out $o/campaign-warm.txt --metrics-json $o/campaign-warm.json
    run campaign-errors campaign --spec specs/error-rate-sweep.json --cache-dir $o/campaign-cache
    run campaign-drops campaign --spec specs/drop-rate-sweep.json --cache-dir $o/campaign-cache
    run ablations ablations

    # One experiment per mechanism and algorithm family, fully observed.
    run bar-amo experiment barrier --mech amo --procs 32 $(obs bar-amo)
    run bar-llsc experiment barrier --mech llsc --procs 32 $(obs bar-llsc)
    run bar-actmsg experiment barrier --mech actmsg --procs 32 --algo tree:4 $(obs bar-actmsg)
    run bar-mao experiment barrier --mech mao --procs 32 --algo dissem $(obs bar-mao)
    run bar-atomic experiment barrier --mech atomic --procs 32 --algo ktree:2 $(obs bar-atomic)
    run lock-amo experiment lock --mech amo --kind ticket --procs 16 $(obs lock-amo)
    run lock-llsc experiment lock --mech llsc --kind array --procs 16 $(obs lock-llsc)
    run lock-actmsg experiment lock --mech actmsg --kind ticket --procs 16 $(obs lock-actmsg)
    run lock-mao experiment lock --mech mao --kind mcs --procs 16 $(obs lock-mao)
    run lock-atomic experiment lock --mech atomic --kind mcs --procs 16 --csv $(obs lock-atomic)
    run ci-trace experiment barrier --mech amo --procs 64 --episodes 6 \
        --trace-out $o/ci-trace.json --metrics-json $o/ci-metrics.json
    run ci-critpath experiment barrier --mech llsc --procs 64 --episodes 6 \
        --critpath-out $o/ci-critpath.json
    run hostprof-64 experiment barrier --mech amo --procs 64 --episodes 6 \
        --hostprof-out $o/hostprof-64.hostprof.json
    run hostprof-32 experiment barrier --mech amo --procs 32 \
        --hostprof-out $o/hostprof-32.hostprof.json

    # Fault injection: link faults, brown-outs, delivery faults, a typed
    # abort, a planted failure found, shrunk and replayed.
    run chaos-quick chaos --quick
    run chaos-link chaos --quick --seed 42 --rate 20000 --brownout
    run chaos-unrecoverable chaos --quick --unrecoverable
    run chaos-delivery chaos --quick --seed 42 --rate 0 --jitter 0 \
        --drop 20000 --dup 20000 --reorder 64 --plan-out $o/chaos-delivery.plan.json
    run chaos-search chaos_search --samples 6 --seed 7 --procs 16 --episodes 3 \
        --watchdog 2000000 --max-failures 1 --drops 400000 --dups 0,20000 \
        --reorders 0,32 --timeouts 5000 --retries 1 --out $o/chaos-search.plan.json
    run chaos-replay chaos --plan-in $o/chaos-search.plan.json

    # The verifier: clean models, a planted bug, the cached matrix, a replay.
    run verify-barrier verify --explore --mech AMO --workload barrier --procs 4 \
        --out $o/verify-barrier.json
    run verify-lock verify --explore --mech AMO --workload ticket-lock --procs 2 \
        --out $o/verify-lock.json
    run verify-planted verify --explore --mech AMO --workload ticket-lock --procs 2 \
        --dups --planted-double-apply --emit-doc $o/verify-planted.schedule.json
    run verify-matrix-cold verify --matrix specs/verify-matrix.json \
        --cache-dir $o/verify-cache --out $o/verify-matrix-cold.json
    run verify-matrix-warm verify --matrix specs/verify-matrix.json \
        --cache-dir $o/verify-cache --out $o/verify-matrix-warm.json
    run verify-replay verify --replay specs/verify-known-good.json
    run verify-passivity verify --passivity --procs 64

    # Descriptions that cannot run: refused in one line, same line.
    grid() { # file workload base-members
        printf '{"schema":"amo-campaign-v1","name":"r","kind":"grid","workload":"%s","base":{"mech":"AMO",%s}}' \
            "$2" "$3" > "$o/$1"
    }
    grid r1.json barrier '"procs":5'
    grid r2.json barrier '"procs":8,"config.l1.line_bytes":48'
    grid r3.json barrier '"procs":8,"episodes":3,"warmup":5'
    grid r4.json barrier '"procs":8,"config.num_procs":16'
    grid r5.json lock '"procs":1,"kind":"array","config.procs_per_node":1,"config.num_procs":1'
    grid r15.json barrier '"procs":65540'
    for n in 1 2 3 4 5 15; do
        run refused-spec-$n campaign --no-cache --spec $o/r$n.json
    done
    cell='{"mech":"AMO","workload":"ticket-lock","procs":2,"rounds":1,"explore_dups":true,"planted_double_apply":true'
    printf '{"schema":"amo-verify-matrix-v1","max_runs":50,"cells":[%s,"bogus":7}]}' "$cell" > $o/bogus.json
    printf '{"schema":"amo-verify-matrix-v1","max_runs":50,"cells":[%s}]}' "$cell" > $o/planted.json
    run refused-matrix-key verify --no-cache --matrix $o/bogus.json
    run refused-matrix-planted verify --no-cache --matrix $o/planted.json
    bar="experiment barrier --mech amo --procs 8"
    run refused-warmup $bar --episodes 2 --warmup 5
    run refused-episodes $bar --episodes 0 --warmup 0
    run refused-rounds experiment lock --mech amo --kind ticket --procs 8 --rounds 0
    run refused-tree-8 $bar --algo tree:8
    run refused-tree-1 $bar --algo tree:1
    run refused-ktree-1 $bar --algo ktree:1
    run refused-actmsg-mcs experiment lock --mech actmsg --kind mcs --procs 8
    run refused-chaos-episodes chaos --quick --procs 8 --episodes 0
    run refused-chaos-drop chaos --quick --procs 8 --drop 1000000
}

for side in old new; do
    eval "amo=\$$side"
    mkdir -p "$o"
    invocations
    # Wall-clock is the one thing two runs may not share. On stderr that
    # is the campaign summary's "(in 0.1s)", the hostprof line's "1.4 ms
    # profiled wall-clock" and the hostprof table (whose scopes and call
    # counts the document repeats); in a hostprof document, every `*ns`
    # member and the latency histograms. What is left of a document is
    # for comparing, not for parsing.
    for f in "$o"/*.stderr; do
        sed -E -e 's/ \(in [0-9.]+s\)$//' -e 's/, [0-9.]+ ms profiled wall-clock//' \
            -e '/^scope +calls +self-ms/d' -e '/^[A-Za-z:-]+ +[0-9]+ +[0-9.]+ +[0-9.]+% /d' \
            "$f" > "$f.tmp"
        mv "$f.tmp" "$f"
    done
    for f in "$o"/*.hostprof.json; do
        sed -E 's/"ns_hist":\{[^}]*\},?//g; s/"[a-z_]*ns":[0-9]+,?//g' "$f" > "$f.tmp"
        mv "$f.tmp" "$f"
    done
    mv "$o" "$work/$side"
done

status=0
diff -rq "$work/old" "$work/new" || status=1
cmp "$work/new/tables.stdout" tables_output.txt || status=1
if [ $status -eq 0 ]; then
    echo "same bytes: $(ls "$work/new"/*.status | wc -l) invocations," \
        "$(find "$work/new" -type f | wc -l) files, and tables_output.txt"
fi
exit $status
