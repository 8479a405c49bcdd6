#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, the only
# comparison ROADMAP lets anyone quote on a shared box.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [extra benchmark args]
#
# Builds both checkouts' `benchmark/` packages (`--release --offline`),
# then runs the two binaries alternately from their own checkout roots:
# odd pairs parent first, even pairs change first, seed = pair number,
# `--seconds 10 --trace 0` unless the extra arguments say otherwise. Prints
# every result line, then per metric each side's median and quartiles and
# how many pairs the change won ("better" is read from the change's
# BENCHMARK.json). Exits 1 if any run printed `"correct": false` or failed
# an operation, 2 on a usage or build error. bash + sort/awk/sed only.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,14s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2
workload=$3
pairs=${4:-10}
shift $(($# < 4 ? $# : 4))
case $pairs in '' | *[!0-9]* | 0) echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;; esac

for checkout in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$checkout/benchmark/Cargo.toml" >&2 || exit 2
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run: "<pair> <side> <result line>" appended to $runs.
run() {
    local pair=$1 side=$2 checkout=$3 line
    line=$(cd "$checkout" && benchmark/target/release/sybil-benchmark \
        --workload "$workload" --seed "$pair" --seconds 10 --trace 0 "${@:4}" 2>/dev/null | tail -n 1) || line=
    [ -n "$line" ] || line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
    echo "$pair $side $line" | tee -a "$runs"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$parent" "$@"
        run "$pair" change "$change" "$@"
    else
        run "$pair" change "$change" "$@"
        run "$pair" parent "$parent" "$@"
    fi
done

echo
# "<metric> higher|lower" for every metric the manifest declares.
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p' "$change/BENCHMARK.json" |
    awk -v workload="$workload" '
    # Linear-interpolation quantile of the sorted v[1..n].
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, metric, n,    i, v, k, tmp) {
        for (i = 1; i <= n; i++) v[i] = value[side, metric, i]
        for (i = 2; i <= n; i++) {
            tmp = v[i]
            for (k = i - 1; k >= 1 && v[k] > tmp; k--) v[k + 1] = v[k]
            v[k + 1] = tmp
        }
        median[side] = quantile(v, n, 0.5)
        return sprintf("%.6g [%.6g, %.6g]", median[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    NR == FNR { better[$1] = $2; next }
    {
        pair = $1; side = $2
        if (pair > pairs) pairs = pair
        if ($0 !~ /"correct": true/ || $0 !~ /"failed": 0[,}]/) bad[++bads] = $0
        line = $0
        while (match(line, /"[a-z0-9_.]+": \{"value": [-0-9.e+]+/)) {
            field = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            metric = field; sub(/^"/, "", metric); sub(/".*/, "", metric)
            sub(/.*"value": /, "", field)
            value[side, metric, pair] = field + 0
            if (!(metric in seen)) { seen[metric] = 1; order[++metrics] = metric }
        }
    }
    END {
        printf "%s: %d pairs, median [q1, q3] per side\n", workload, pairs
        for (m = 1; m <= metrics; m++) {
            metric = order[m]; wins = 0; losses = 0
            for (p = 1; p <= pairs; p++) {
                delta = value["change", metric, p] - value["parent", metric, p]
                if (better[metric] == "lower") delta = -delta
                if (delta > 0) wins++; else if (delta < 0) losses++
            }
            parent_summary = summary("parent", metric, pairs)
            change_summary = summary("change", metric, pairs)
            ratio = median["parent"] != 0 ? sprintf("%.3fx", median["change"] / median["parent"]) : "n/a"
            printf "  %-28s parent %s | change %s | %s, %s is better | change wins %d, loses %d of %d\n", \
                metric, parent_summary, change_summary, ratio, better[metric], wins, losses, pairs
        }
        for (b = 1; b <= bads; b++) print "NOT CLEAN: " bad[b]
        exit bads > 0
    }' - "$runs"
