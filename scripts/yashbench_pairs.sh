#!/usr/bin/env bash
# Alternating paired runs of yashbench, the repo's benchmark, on two
# revisions.
#
# Usage: scripts/yashbench_pairs.sh PARENT_REV [CHANGE_REV] [PAIRS] [WORKLOAD...]
#
# CHANGE_REV defaults to HEAD, PAIRS to 10 and the workloads to every one
# BENCHMARK.json lists. Each revision is checked out with `git worktree`
# into target/yashbench-pairs/p and target/yashbench-pairs/c: sibling
# directories whose paths have the same length, because the build
# directory alone moves `verdict_ms` by a few percent. Both are built
# first; then each pair runs BENCHMARK.json's command, with `--workload W
# --seconds S`, once per side, alternating which side runs first. S is
# BENCHMARK.json's `run_seconds`.
#
# Only each run's last line, the JSON summary, is read. Per workload and
# end-to-end metric the script prints each side's median [Q1, Q3], the
# change / parent ratio of the medians and the number of pairs the change
# won (by the metric's `better` direction). Raw outputs stay in
# target/yashbench-pairs/runs; the worktrees are removed on exit.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '5s/^# //p' "$0" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "${2:-HEAD}^{commit}")
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")
fi

work=$root/target/yashbench-pairs
cleanup() {
    for side in p c; do
        git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git -C "$root" worktree prune
}
cleanup
trap cleanup EXIT
rm -rf "$work/runs"
mkdir -p "$work/runs"

# The benchmark command, from the side's own BENCHMARK.json, one word per line.
command_of() {
    python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print("\n".join(b["command"]))' "$1/BENCHMARK.json"
}

for side in p c; do
    rev=$parent
    [ "$side" = c ] && rev=$change
    git -C "$root" worktree add --quiet --detach "$work/$side" "$rev"
    echo "building $side = $(git -C "$root" rev-parse --short "$rev") in $work/$side" >&2
    (cd "$work/$side" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path crates/bench/src/bin/yashbench/Cargo.toml)
done
seconds=$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

run() { # side workload pair
    local -a cmd
    mapfile -t cmd < <(command_of "$work/$1")
    (cd "$work/$1" && env -u CARGO_TARGET_DIR "${cmd[@]}" --workload "$2" --seconds "$seconds") \
        > "$work/runs/$2.$1.$3.out"
}

for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        echo "$w: pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then
            run p "$w" "$i"
            run c "$w" "$i"
        else
            run c "$w" "$i"
            run p "$w" "$i"
        fi
    done
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$pairs" "${workloads[@]}" <<'PY'
import json, statistics, sys

bench, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(bench))["end_to_end"]

def summary(side, w, i):
    lines = [l for l in open(f"{runs}/{w}.{side}.{i}.out") if l.strip()]
    return json.loads(lines[-1])["metrics"]

def fmt(v):
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{pairs} alternating pairs; median [Q1, Q3]; ratio = change / parent medians")
for w in workloads:
    p = [summary("p", w, i) for i in range(pairs)]
    c = [summary("c", w, i) for i in range(pairs)]
    print(w)
    for m in metrics:
        name = m["name"]
        ps = [r[name]["value"] for r in p]
        cs = [r[name]["value"] for r in c]
        lower = m["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(ps, cs))
        pq, cq = quartiles(ps), quartiles(cs)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print(
            f"  {name:<17} parent {fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}]"
            f"  change {fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]"
            f"  ratio {ratio:.3f}  wins {wins}/{pairs}  ({m['better']} is better)"
        )
PY
