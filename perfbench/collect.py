"""Run the benchmark over several seeds and summarise the spread.

Run from the root of a checkout:

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline-new.json
    python3 perfbench/collect.py --workloads oracle-diag --seeds 0,1,0,1 --trace 1

Each run is a fresh ``perfbench/run.py`` process, one after another, so
that ``peak_rss_mb`` belongs to that run alone.  For every metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, which is the interquartile distance over the median.
Traced runs also say whether the exact counts (``model.calls``,
``rng.perm_draws``, ``diagnostics.gradcheck_loss_calls``) repeat across
runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()

    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "exit": proc.returncode, "result": result, "info": info})
            line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                            if not args.trace or k in ("trace.overhead_frac", "model.calls"))
            print(f"{workload} seed {seed} exit {proc.returncode} correct {result['correct']} {line}",
                  flush=True)
        names = runs[0]["result"]["metrics"]
        summary[workload] = {
            "why": runs[0]["info"]["why"],
            "metrics": {
                name: {"unit": runs[0]["result"]["metrics"][name]["unit"],
                       **summarise([r["result"]["metrics"][name]["value"] for r in runs])}
                for name in names
            },
            "report": {
                name: {"unit": entry["unit"],
                       **summarise([r["info"]["report"][name]["value"] for r in runs])}
                for name, entry in runs[0]["info"]["report"].items()
                if all(r["info"]["report"][name]["value"] is not None for r in runs)
            },
            "all_correct": all(r["result"]["correct"] and r["exit"] == 0 for r in runs),
            "seeds": [r["seed"] for r in runs],
            "runs": [
                {"seed": r["seed"], "attempted": r["result"]["attempted"],
                 "failed": r["result"]["failed"],
                 **{k: r["info"][k] for k in ("setup_cold_s", "pass_s_samples", "untraced_pass_s",
                                              "traced_pass_s", "exact_counts") if k in r["info"]}}
                for r in runs
            ],
            "provenance": runs[0]["info"]["provenance"],
        }
        if args.trace:
            by_seed: dict[int, list] = {}
            for r in runs:
                by_seed.setdefault(r["seed"], []).append(r["info"].get("exact_counts"))
            repeat = all(all(c == cs[0] for c in cs) for cs in by_seed.values())
            summary[workload]["exact_counts_by_seed"] = {s: cs[0] for s, cs in by_seed.items()}
            summary[workload]["exact_counts_repeat"] = repeat
            print(f"  exact counts repeat across runs of one seed: {repeat}")
        if not args.trace:
            for group in ("metrics", "report"):
                for name, m in summary[workload][group].items():
                    print(f"  {group}.{name}: median {m['median']:.6g} spread {m.get('spread')}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
