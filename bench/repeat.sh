#!/usr/bin/env bash
# bench/repeat.sh N [FIRST_SEED]
#
# Runs every workload N times in each of two sets, every run with another
# seed, and prints per end-to-end metric both medians, the quartiles, the
# spread (distance between the first and third quartile as a share of the
# median, as `statistics.quantiles(values, n=4)` gives them) and whether the
# two sets agree within the metric's bound from BENCHMARK.json. Writes what
# it saw next to each bound into bench/spread.json. Exit code 1 if a spread
# exceeds its bound, the sets disagree, or a run was incorrect.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:?usage: bench/repeat.sh N [FIRST_SEED]}"
first_seed="${2:-1000}"
seconds="$(python3 -c "import json; print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")"
mkdir -p "$here/out"
results="$here/out/repeat.jsonl"
: > "$results"

seed="$first_seed"
for set in 1 2; do
    for workload in suite_cold lubm_join lubm_serve lubm_rw; do
        for _ in $(seq "$runs"); do
            seed=$((seed + 1))
            line="$("$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "{\"set\": $set, \"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >> "$results"
            echo "set $set $workload seed $seed done" >&2
        done
    done
done

python3 - "$results" "$here/../BENCHMARK.json" "$here/spread.json" <<'PY'
import json, statistics, sys

results, benchmark, out = sys.argv[1:4]
bench = json.load(open(benchmark))
rows = [json.loads(line) for line in open(results)]
failed = [r for r in rows if not r["result"]["correct"]]
report, ok = {}, not failed
for workload in [w["name"] for w in bench["workloads"]]:
    for metric in bench["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        sets = []
        for s in (1, 2):
            values = [r["result"]["metrics"][name]["value"] for r in rows
                      if r["set"] == s and r["workload"] == workload]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            sets.append({"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median})
        worse = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
        if better == "higher":
            worse = -worse
        steady = name == "setup_s" or max(s["spread"] for s in sets) <= bound
        agree = worse <= bound
        ok = ok and steady and agree
        report[f"{workload}.{name}"] = {"bound": bound, "sets": sets,
                                        "second_worse_by": worse, "steady": steady, "agree": agree}
        print(f"{workload:<11} {name:<24} medians {sets[0]['median']:.6g} / {sets[1]['median']:.6g}  "
              f"quartiles [{sets[0]['q1']:.6g}, {sets[0]['q3']:.6g}] / [{sets[1]['q1']:.6g}, {sets[1]['q3']:.6g}]  "
              f"spread {sets[0]['spread']:.4f} / {sets[1]['spread']:.4f}  bound {bound}  "
              f"{'ok' if steady and agree else 'NOT WITHIN BOUND'}")
json.dump({"runs_per_set": len(rows) // (2 * len(bench["workloads"])), "metrics": report},
          open(out, "w"), indent=1)
print(f"{len(failed)} incorrect runs; wrote {out}")
sys.exit(0 if ok else 1)
PY
