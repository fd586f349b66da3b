#!/usr/bin/env bash
# The one entry point for CI: vets and tests the benchmark, runs every
# workload of BENCHMARK.json once untraced and once traced, checks that
# each run printed exactly the metrics BENCHMARK.json declares for it and
# that its answers were correct, and leaves the results in
# benchmarks/out/.
#
#   SEED=3 SECONDS_PER_RUN=2 benchmarks/check.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out"
seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}"

(cd "$here" && go vet ./... && go test ./...)

python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json" |
while read -r workload; do
	for trace in 0 1; do
		result="$out/$workload-trace$trace.txt"
		(cd "$root" && bash benchmarks/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out") >"$result"
		python3 - "$root/BENCHMARK.json" "$result" "$trace" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
last = open(sys.argv[2]).read().strip().splitlines()[-1]
res = json.loads(last)
declared = bench["per_layer"] if sys.argv[3] == "1" else bench["end_to_end"]
want = {m["name"]: m["unit"] for m in declared}
got = {name: m["unit"] for name, m in res["metrics"].items()}
problems = [f"missing {n}" for n in want if n not in got]
problems += [f"undeclared {n}" for n in got if n not in want]
problems += [f"{n}: unit {got[n]}, declared {want[n]}" for n in want if n in got and got[n] != want[n]]
if set(res) != {"correct", "attempted", "failed", "metrics"}:
    problems.append(f"result keys {sorted(res)}")
if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
    problems.append(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
if problems:
    sys.exit(sys.argv[2] + ": " + "; ".join(problems))
PY
		echo "ok $workload trace=$trace -> ${result#"$root"/}"
	done
done
