#!/usr/bin/env bash
# The pair rule for a performance claim: runs one workload of the standing
# benchmark alternately on a parent revision and on the working tree, then
# prints each pair's value of one metric, the win count, both medians, the
# parent's quartiles, and the medians of every end-to-end metric per side.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <metric> [pairs] [first-seed]
#
# pairs defaults to 10 and first-seed to 1. The parent is exported with
# git archive to target/pairs/parent and built into its own
# CARGO_TARGET_DIR (target/pairs/parent-target); the working tree builds
# into target/. Pair i uses seed first-seed + i; the parent runs first on
# odd seeds, the working tree first on even ones. Every run is that tree's
#   benchmark/run.sh --workload W --seed N --seconds 30 --trace 0
# and its last stdout line (the result object) is kept as
# target/pairs/<parent|change>_<workload>_<seed>.json, its stderr beside it
# as .err, and the full result file the run wrote (benchmark/out/
# result_<workload>_trace0.json, with every window's raw values) as
# .result.json. Beside each pair's value the table prints that run's
# median closed-loop cores_busy, so slow-mode runs (cores_busy near 1)
# stand out. A metric's direction comes from its "better" in BENCHMARK.json.
# The claim holds when the working tree wins at least 9 pairs in 10 and
# its median beats the parent's by more than the parent's quartile
# distance. Where result files exist, it also prints each side's median
# init_ms, state_ms, reroute_ms, remainder and bytes over all fail-stop
# cycles of all its runs, so a recovery_ms change shows which step it sits
# in; the remainder is recovery_ms - init_ms - state_ms - reroute_ms per
# cycle, the outage outside the three steps (the kill and the first
# release). Remove target/pairs afterwards to free the space.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ]; then
    sed -n '2,29p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_rev=$1
workload=$2
metric=$3
pairs=${4:-10}
first=${5:-1}

root=$(pwd)
out="$root/target/pairs"
tree="$out/parent"
mkdir -p "$out"

# Name and direction of every metric BENCHMARK.json declares, one per
# line, end-to-end ones marked.
declared=$(awk '
    /"end_to_end"/ { e2e = 1 }
    /"per_layer"/  { e2e = 0 }
    /"name"/       { gsub(/[",]/, "", $2); name = $2 }
    /"better"/     { gsub(/[",]/, "", $2); print name, $2, e2e }
' BENCHMARK.json)
better=$(awk -v m="$metric" '$1 == m { print $2 }' <<<"$declared")
if [ -z "$better" ]; then
    echo "bench_pairs: $metric is not a metric of BENCHMARK.json" >&2
    exit 2
fi

rev=$(git rev-parse --verify "$parent_rev^{commit}")
# An export, not a worktree: nothing is registered in the repository. It is
# replaced only when the parent revision changes, so rebuilds stay warm.
if [ "$(cat "$tree.rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$rev" | tar -x -C "$tree"
    echo "$rev" >"$tree.rev"
fi

tree_of() { if [ "$1" = parent ]; then echo "$tree"; else echo "$root"; fi; }
target_of() { if [ "$1" = parent ]; then echo "$out/parent-target"; else echo "$root/target"; fi; }

for side in parent change; do
    echo "building $side ..." >&2
    (cd "$(tree_of $side)" && cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$(target_of $side)")
done

run() {
    local side=$1 seed=$2
    local file="$out/${side}_${workload}_${seed}"
    echo "seed $seed: $side" >&2
    (cd "$(tree_of "$side")" && CARGO_TARGET_DIR="$(target_of "$side")" \
        bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 30 --trace 0 \
        2>"$file.err" | tail -n 1 >"$file.json") || true
    # Only a result file this run wrote (newer than its .err) is kept.
    local result
    result="$(tree_of "$side")/benchmark/out/result_${workload}_trace0.json"
    rm -f "$file.result.json"
    if [ "$result" -nt "$file.err" ]; then
        cp "$result" "$file.result.json"
    fi
}

# The value of metric $2 in result file $1 ("nan" when absent): metrics
# read "name":{"value":X,...}, top-level counts "name":X.
value() {
    local v
    v=$(grep -o "\"$2\":\({\"value\":\)\{0,1\}[^,}]*" "$1" 2>/dev/null | head -n 1 | sed 's/.*://')
    echo "${v:-nan}"
}

# Median, first and third quartile (linear interpolation) of stdin.
quartiles() {
    grep -v nan | sort -g | awk '
        { x[NR - 1] = $1 }
        END {
            if (NR == 0) { print "nan nan nan"; exit }
            split("0.5 0.25 0.75", p, " ")
            for (k = 1; k <= 3; k++) {
                h = (NR - 1) * p[k]; lo = int(h); hi = (lo + 1 < NR) ? lo + 1 : lo
                printf "%s%.6g", (k > 1 ? " " : ""), x[lo] + (h - lo) * (x[hi] - x[lo])
            }
            print ""
        }'
}

# Median closed-loop cores_busy of the run that wrote result file $1.
cores() {
    grep -o '"closed":{[^}]*' "$1" 2>/dev/null | grep -o '"cores_busy":\[[^]]*' |
        sed 's/.*\[//' | tr ',' '\n' | quartiles | awk '{ print $1 }'
}

seeds=()
for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    seeds+=("$seed")
    if ((seed % 2)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

echo
echo "$workload, $metric ($better is better), $pairs pairs from seed $first, parent $rev"
printf '%-6s %14s %6s %14s %6s %6s\n' seed parent cores change cores win
wins=0
for seed in "${seeds[@]}"; do
    a=$(value "$out/parent_${workload}_${seed}.json" "$metric")
    b=$(value "$out/change_${workload}_${seed}.json" "$metric")
    ca=$(cores "$out/parent_${workload}_${seed}.result.json")
    cb=$(cores "$out/change_${workload}_${seed}.result.json")
    win=$(awk -v a="$a" -v b="$b" -v d="$better" \
        'BEGIN { print ((d == "higher" ? b > a : b < a) && a != "nan" && b != "nan") ? "yes" : "no" }')
    [ "$win" = yes ] && wins=$((wins + 1))
    printf '%-6s %14s %6.2f %14s %6.2f %6s\n' "$seed" "$a" "$ca" "$b" "$cb" "$win"
done
read -r pm pq1 pq3 < <(for s in "${seeds[@]}"; do value "$out/parent_${workload}_${s}.json" "$metric"; done | quartiles)
read -r cm _ _ < <(for s in "${seeds[@]}"; do value "$out/change_${workload}_${s}.json" "$metric"; done | quartiles)
echo "wins: $wins/$pairs"
echo "parent median $pm (quartiles $pq1 .. $pq3), change median $cm"
awk -v w="$wins" -v n="$pairs" -v a="$pm" -v b="$cm" -v q1="$pq1" -v q3="$pq3" -v d="$better" 'BEGIN {
    gain = (d == "higher") ? b - a : a - b
    printf "median gain %.6g (%+.1f %%), parent quartile distance %.6g: claim %s\n",
        gain, (a != 0 ? 100 * (b - a) / a : 0), q3 - q1,
        (w * 10 >= 9 * n && gain > q3 - q1) ? "holds" : "does not hold"
}'

# One row: name, parent median, change median, relative change.
row() {
    awk -v n="$1" -v a="$2" -v b="$3" 'BEGIN {
        d = (a != "nan" && b != "nan" && a != 0) ? sprintf("%+.1f%%", 100 * (b - a) / a) : "-"
        printf "%-20s %14s %14s %9s\n", n, a, b, d
    }'
}

echo
echo "end-to-end medians"
printf '%-20s %14s %14s %9s\n' metric parent change delta
while read -r name _ e2e; do
    [ "$e2e" = 1 ] || continue
    read -r a _ _ < <(for s in "${seeds[@]}"; do value "$out/parent_${workload}_${s}.json" "$name"; done | quartiles)
    read -r b _ _ < <(for s in "${seeds[@]}"; do value "$out/change_${workload}_${s}.json" "$name"; done | quartiles)
    row "$name" "$a" "$b"
done <<<"$declared"
# One per-cycle column of the failover table ($2), one value per line,
# over every run of side $1 that left a result file, in seed order.
cycle_column() {
    for s in "${seeds[@]}"; do
        grep -o '"failover":{[^}]*' "$out/${1}_${workload}_${s}.result.json" 2>/dev/null |
            grep -o "\"$2\":\[[^]]*" | sed 's/.*\[//' | tr ',' '\n'
    done
}
cycle_median() {
    if [ "$2" = remainder ]; then
        paste <(cycle_column "$1" recovery_ms) <(cycle_column "$1" init_ms) \
            <(cycle_column "$1" state_ms) <(cycle_column "$1" reroute_ms) |
            awk 'NF == 4 { print $1 - $2 - $3 - $4 }'
    else
        cycle_column "$1" "$2"
    fi | quartiles | awk '{ print $1 }'
}
if ls "$out"/*_"$workload"_*.result.json >/dev/null 2>&1; then
    echo
    echo "recovery steps, median over fail-stop cycles"
    printf '%-20s %14s %14s %9s\n' step parent change delta
    for col in init_ms state_ms reroute_ms remainder bytes; do
        row "$col" "$(cycle_median parent "$col" || true)" "$(cycle_median change "$col" || true)"
    done
fi
for side in parent change; do
    ok=0 failed=0
    for s in "${seeds[@]}"; do
        f="$out/${side}_${workload}_${s}.json"
        grep -q '"correct":true' "$f" 2>/dev/null && ok=$((ok + 1))
        failed=$((failed + $(value "$f" failed | grep -v nan || echo 0)))
    done
    echo "$side: $ok/$pairs runs correct, $failed operations failed"
done
