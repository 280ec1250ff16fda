#!/usr/bin/env bash
# Paired A/B run of the BENCHMARK.json workloads: a parent revision
# against the working tree.
#
#   scripts/ab.sh [-p REV]
#
#   -p REV      parent revision (default HEAD)
#
# The workloads, the run length (`run_seconds`) and the end-to-end
# metrics with the direction each one improves all come from
# BENCHMARK.json. Each workload gets 10 seeds, one parent and one change
# run per seed.
#
# Both sides are built from `git archive` copies: the parent from REV, the
# change from a tree object written from the working tree (tracked and
# untracked, ignored files excluded) through a scratch index, so the real
# index is untouched. Each copy builds perfbench in its own target
# directory under target/ab/. For seed i the parent runs first when i is
# odd and the change first when i is even, so host drift between the two
# runs of a pair does not favour one side.
#
# Output: one line per run (workload, seed, side, the end-to-end metrics,
# failed operations), then per workload and metric the parent and change
# medians, the parent's first and third quartiles, the change/parent ratio
# of the medians, the median of the per-pair change/parent ratios with a
# distribution-free interval for it, how many of the pairs the change won,
# and how many runs were invalid. Every run's line, invalid ones included,
# also lands in target/ab/runs.tsv.
#
# The interval runs from the j-th smallest to the j-th largest pair ratio,
# with j the largest rank whose coverage of the true median ratio,
# 1 - 2·P(Binomial(pairs, 1/2) < j), is still at least 95 % (j = 1 when
# no rank reaches it). With 10 valid pairs that is the 2nd and 9th
# smallest ratios, at 97.9 % coverage; the `cover` column prints it.
#
# Takes minutes per pair (two builds, then 2 × 10 × run_seconds per
# workload plus set-up), so it is not part of scripts/verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

parent=HEAD
while getopts "p:" opt; do
    case "$opt" in
    p) parent=$OPTARG ;;
    *) sed -n '2,7p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 0 ] || { sed -n '2,7p' "$0" >&2; exit 2; }

pairs=10
seconds=$(jq -r .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
mapfile -t metrics < <(jq -r '.end_to_end[].name' BENCHMARK.json)
metrics_json=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)
mapfile -t better < <(jq -r '.end_to_end[].better' BENCHMARK.json)

root=target/ab
mkdir -p "$root"

# Tree object of the working tree, written through a scratch index.
scratch_index=$(mktemp)
trap 'rm -f "$scratch_index"' EXIT
cp "$(git rev-parse --git-path index)" "$scratch_index"
GIT_INDEX_FILE=$scratch_index git add -A
change_tree=$(GIT_INDEX_FILE=$scratch_index git write-tree)

build() { # side treeish
    local side=$1 src=$root/$1
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$2" | tar -x -C "$src"
    echo "ab: building $side ($2)" >&2
    cargo build --release --quiet --offline --manifest-path "$src/perfbench/Cargo.toml"
}
build parent "$(git rev-parse "$parent^{tree}")"
build change "$change_tree"

runs=$root/runs.tsv
(IFS=$'\t'; printf 'workload\tseed\tside\t%s\tfailed\n' "${metrics[*]}") |
    tee "$runs"

run() { # side workload seed
    local out
    # An invalid run (generator lag over the limit) exits non-zero. It is
    # recorded with empty metric fields and not scored.
    if ! out=$(cd "$root/$1" &&
        ./perfbench/target/release/perfbench --workload "$2" --seed "$3" \
            --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1); then
        {
            printf '%s\t%s\t%s' "$2" "$3" "$1"
            printf '\t%.0s' "${metrics[@]}"
            printf '\tinvalid\n'
        } | tee -a "$runs"
        return 0
    fi
    jq -r --arg w "$2" --arg s "$3" --arg side "$1" --argjson names "$metrics_json" \
        '[$w, $s, $side] + [$names[] as $m | .metrics[$m].value] + [.failed]
        | @tsv' <<<"$out" | tee -a "$runs"
}

for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$w" "$seed"
            run change "$w" "$seed"
        else
            run change "$w" "$seed"
            run parent "$w" "$seed"
        fi
    done
done

# Summary. `better` lists, per end-to-end metric, whether it improves
# when "higher" or "lower".
echo
awk -F '\t' -v better="${better[*]}" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
function quantile(a, n, p,    h, lo) {
    h = 1 + (n - 1) * p
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
# Sign-test interval rank: the largest j whose order-statistic interval
# [a(j), a(n+1-j)] covers the median with probability >= 95 %, and that
# coverage in `cov`.
function ci_rank(n,    j, c, tail, best) {
    best = 1; cov = 1 - 2 * 0.5 ^ n
    c = 1; tail = 0
    for (j = 1; 2 * j <= n; j++) {
        tail += c * 0.5 ^ n          # P(B <= j - 1)
        c = c * (n - j + 1) / j      # C(n, j)
        if (1 - 2 * tail >= 0.95) { best = j; cov = 1 - 2 * tail }
    }
    return best
}
NR == 1 {
    nm = NF - 1
    split(better, b, " ")
    for (m = 4; m <= nm; m++) { name[m] = $m; higher[m] = b[m - 3] == "higher" }
    next
}
{
    if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
    if ($NF == "invalid") { invalid[$1]++; next }
    for (m = 4; m <= nm; m++) val[$1, $2, $3, m] = $m
    seeds[$1, $2] = 1
}
END {
    printf "%-15s %-17s %12s %12s %12s %12s %8s %10s %8s %8s %6s %6s %7s\n",
        "workload", "metric", "parent_med", "parent_q1", "parent_q3", "change_med", "ratio",
        "pair_ratio", "ci_lo", "ci_hi", "cover", "wins", "invalid"
    for (w = 1; w <= nw; w++) {
        wl = order[w]
        for (m = 4; m <= nm; m++) {
            np = nc = pairs = wins = nr = 0
            delete P; delete C; delete R
            for (k in seeds) {
                split(k, ks, SUBSEP)
                if (ks[1] != wl) continue
                s = ks[2]
                hp = ((wl, s, "parent", m) in val)
                hc = ((wl, s, "change", m) in val)
                if (hp) P[++np] = val[wl, s, "parent", m]
                if (hc) C[++nc] = val[wl, s, "change", m]
                if (hp && hc) {
                    pairs++
                    p = val[wl, s, "parent", m]; c = val[wl, s, "change", m]
                    if (higher[m] ? c > p : c < p) wins++
                    if (p != 0) R[++nr] = c / p
                }
            }
            if (np == 0 || nc == 0) continue
            sort(P, np); sort(C, nc)
            pm = quantile(P, np, 0.5); cm = quantile(C, nc, 0.5)
            if (nr > 0) {
                sort(R, nr)
                j = ci_rank(nr)
                pr = sprintf("%.3f", quantile(R, nr, 0.5))
                lo = sprintf("%.3f", R[j]); hi = sprintf("%.3f", R[nr + 1 - j])
                cv = sprintf("%.1f%%", 100 * cov)
            } else {
                pr = lo = hi = cv = "-"
            }
            printf "%-15s %-17s %12.4g %12.4g %12.4g %12.4g %8.3f %10s %8s %8s %6s %3d/%-2d %7d\n",
                wl, name[m], pm, quantile(P, np, 0.25), quantile(P, np, 0.75), cm,
                (pm != 0 ? cm / pm : 0), pr, lo, hi, cv, wins, pairs, invalid[wl]
        }
    }
}' "$runs"
