#!/bin/sh
# Alternating parent/change pairs of one perfbench workload.
#
#   scripts/bench_pairs.sh <parent-bin> <change-bin> <workload> <pairs> [seconds]
#
# Both binaries are built perfbench executables (for example
# `perfbench/target/release/perfbench` from two checkouts). Pair k runs both
# sides with `--seed k --seconds <seconds> --trace 0` (default 30 s, the
# benchmark's run length); odd pairs run the parent first, even pairs the
# change. Each run's last stdout line is perfbench's JSON result.
#
# Prints every pair, then per end-to-end metric each side's median and
# quartiles, how many pairs the change won (ties count for neither side),
# and whether a gain may be claimed: the change wins at least nine tenths of
# the pairs and the medians differ by more than the parent's inter-quartile
# spread.
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload> <pairs> [seconds]" >&2
    exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
seconds=${5:-30}

# metric:direction for every end-to-end metric perfbench reports.
metrics="job_p50_ms:lower job_p90_ms:lower jobs_per_s:higher setup_s:lower"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # <bin> <seed> <file>
    "$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
        | tail -n 1 >"$3"
}

value() { # <file> <metric>
    sed -n "s/.*\"$2\": *{\"value\": *\([-0-9.eE+]*\).*/\1/p" "$1"
}

failed() { # <file>
    sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' "$1"
}

k=1
while [ "$k" -le "$pairs" ]; do
    if [ $((k % 2)) -eq 1 ]; then
        run "$parent" "$k" "$out/p$k"
        run "$change" "$k" "$out/c$k"
    else
        run "$change" "$k" "$out/c$k"
        run "$parent" "$k" "$out/p$k"
    fi
    line="pair $k:"
    for m in $metrics; do
        name=${m%%:*}
        line="$line $name $(value "$out/p$k" "$name") -> $(value "$out/c$k" "$name");"
    done
    echo "$line failed $(failed "$out/p$k") -> $(failed "$out/c$k")"
    k=$((k + 1))
done

# Median and quartiles of the numbers on stdin (linear interpolation).
stats() {
    sort -g | awk '
        { v[NR - 1] = $1 }
        function q(p,   pos, lo) {
            pos = p * (NR - 1); lo = int(pos)
            return lo + 1 < NR ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[lo]
        }
        END { printf "%.4g %.4g %.4g", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "$workload, $pairs pairs of ${seconds} s:"
for m in $metrics; do
    name=${m%%:*}
    better=${m#*:}
    : >"$out/pv"
    : >"$out/cv"
    wins=0
    k=1
    while [ "$k" -le "$pairs" ]; do
        p=$(value "$out/p$k" "$name")
        c=$(value "$out/c$k" "$name")
        echo "$p" >>"$out/pv"
        echo "$c" >>"$out/cv"
        if awk -v p="$p" -v c="$c" -v b="$better" \
            'BEGIN { exit !((b == "lower" && c < p) || (b == "higher" && c > p)) }'; then
            wins=$((wins + 1))
        fi
        k=$((k + 1))
    done
    set -- $(stats <"$out/pv")
    pmed=$1 pq1=$2 pq3=$3
    set -- $(stats <"$out/cv")
    cmed=$1 cq1=$2 cq3=$3
    claim=$(awk -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" \
        -v w="$wins" -v n="$pairs" -v b="$better" 'BEGIN {
            d = (b == "lower") ? pm - cm : cm - pm
            print (10 * w >= 9 * n && d > q3 - q1) ? "yes" : "no"
        }')
    printf '%-11s (%s is better): parent %s [%s, %s]  change %s [%s, %s]  wins %d/%d  gain claimable: %s\n' \
        "$name" "$better" "$pmed" "$pq1" "$pq3" "$cmed" "$cq1" "$cq3" "$wins" "$pairs" "$claim"
done
