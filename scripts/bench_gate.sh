#!/usr/bin/env bash
# Same-runner benchmark gate: benches the merge base and the head on the same
# machine, so the comparison measures code, not hardware.
#
#   scripts/bench_gate.sh [base-ref]    # default base-ref: origin/main
#
# The merge base of HEAD and base-ref is checked out in a temporary git
# worktree. Both trees then run the perfbench eval-sweep workload
# (`python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 10
# --trace 0`) in three alternating pairs, base first in pairs 1 and 3 and
# head first in pair 2, so slow drift of the host hits both sides alike.
#
# The gate fails when any head run reports "correct": false or failed > 0,
# or when head's median pass_ms or runs_per_s is worse than base's median by
# more than that metric's bound in BENCHMARK.json.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base HEAD "${1:-origin/main}")
work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/base" "$base"

if [ ! -f "$work/base/perfbench/run.py" ]; then
	echo "bench gate: merge base $base has no perfbench/run.py; nothing to compare"
	exit 0
fi

# bench DIR OUT runs the workload in checkout DIR and keeps its result line.
bench() {
	echo "bench gate: $(basename "$2") ..." >&2
	(cd "$1" && python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 10 --trace 0) | tail -n 1 >"$2"
}

for pair in 1 2 3; do
	if [ "$pair" = 2 ]; then
		bench "$root" "$work/head.$pair.json"
		bench "$work/base" "$work/base.$pair.json"
	else
		bench "$work/base" "$work/base.$pair.json"
		bench "$root" "$work/head.$pair.json"
	fi
done

python3 - "$root/BENCHMARK.json" "$work" <<'EOF'
import json
import statistics
import sys

spec_path, work = sys.argv[1], sys.argv[2]
bounds = {m["name"]: m for m in json.load(open(spec_path))["end_to_end"]}


def load(side):
    return [json.load(open(f"{work}/{side}.{i}.json")) for i in (1, 2, 3)]


base, head = load("base"), load("head")
ok = True
for i, r in enumerate(head, 1):
    if not r["correct"] or r["failed"] > 0:
        print(f"bench gate: head run {i}: correct={r['correct']} failed={r['failed']}")
        ok = False

for name in ("pass_ms", "runs_per_s"):
    spec = bounds[name]
    b = statistics.median(r["metrics"][name]["value"] for r in base)
    h = statistics.median(r["metrics"][name]["value"] for r in head)
    worse = (h - b) / b if spec["better"] == "lower" else (b - h) / b
    verdict = "FAIL" if worse > spec["bound"] else "ok"
    change = f"{worse:.1%} worse" if worse >= 0 else f"{-worse:.1%} better"
    print(f"bench gate: {name}: base {b:.2f} head {h:.2f} {spec['unit']}, "
          f"head {change} (bound {spec['bound']:.0%} worse) {verdict}")
    if verdict == "FAIL":
        ok = False

sys.exit(0 if ok else 1)
EOF
