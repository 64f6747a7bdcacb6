"""Report the benchmark's end-to-end metrics, or test their steadiness.

    python3 perfbench/suite.py                     # one run per workload
    python3 perfbench/suite.py --runs 10 --sets 2  # steadiness: two sets of ten
    python3 perfbench/suite.py --trace             # also one traced run each

Each run is `perfbench/run.py` with its own seed (set s, run r uses seed
seed0 + s*runs + r). For every workload the report gives run_s, setup_s,
peak_rss_mb, ok_frac and failed_frac (= 1 - ok_frac) by name, with unit,
median, quartile spread and sample count. With two or more sets it also
says whether the sets agree within the bounds of BENCHMARK.json: each set's
quartile spread (except setup_s) and the shift of each later set's median
must stay within the bound. Exits 1 if an output check failed, 3 if the
sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    if proc.returncode not in (0, 1) or not path.is_file():
        return None
    return json.loads(path.read_text())


def _spread(values):
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def _e2e(res):
    """This run's end-to-end values, with failed_frac in place of ok_frac."""
    m = {k: v["value"] for k, v in res["metrics"].items()}
    m["failed_frac"] = res["failed"] / res["attempted"]
    return m


def _samples(name, res):
    return {"run_s": len(res["passes"]["nproc"]), "setup_s": len(res["setup_s_samples"]),
            "failed_frac": res["attempted"]}.get(name, 1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=1, help="runs per set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    a = p.parse_args()

    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {name: m["unit"] for name, m in bounds.items()}
    units["failed_frac"] = "fraction"
    shown = list(bounds) + ["failed_frac"]
    incorrect = disagree = False
    summary = {}

    for s in range(a.sets):
        for w in workloads:
            for r in range(a.runs):
                seed = a.seed0 + s * a.runs + r
                res = _run(w, seed, a.seconds, 0)
                if res is None or not res["correct"]:
                    incorrect = True
                    print(f"{w} seed {seed}: run failed or an output check failed",
                          file=sys.stderr)
                    if res is None:
                        continue
                summary.setdefault(w, [[] for _ in range(a.sets)])[s].append(res)

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'unit':<9} {'set':>3} {'median':>12} {'IQR/med':>8} "
              f"{'samples':>8}  verdict")
        sets = summary.get(w, [])
        for name in shown:
            medians = []
            for s, runs in enumerate(sets):
                if not runs:
                    continue
                vals = [_e2e(res)[name] for res in runs]
                med, spread = _spread(vals)
                medians.append(med)
                n = sum(_samples(name, res) for res in runs)
                verdict = ""
                if a.sets > 1 and name in bounds:
                    m = bounds[name]
                    ok = name == "setup_s" or spread <= m["bound"]
                    if s > 0:
                        worse = (med - medians[0]) / medians[0]
                        worse = worse if m["better"] == "lower" else -worse
                        ok = ok and worse <= m["bound"]
                    verdict = f"{'ok' if ok else 'OUTSIDE'} bound {m['bound']}"
                    disagree |= not ok
                print(f"  {name:<12} {units[name]:<9} {s + 1:>3} {med:>12.6g} "
                      f"{spread:>8.4f} {n:>8}  {verdict}")
        if a.trace:
            res = _run(w, a.seed0, a.seconds, 1)
            if res is None or not res["correct"]:
                incorrect = True
                continue
            print("  per-layer (traced, BOSE_THREADS=1):")
            for name, m in res["metrics"].items():
                if m["value"]:
                    print(f"    {name:<55} {m['value']:>14.6g} {m['unit']}")
            for label, top in res["top_self_time"].items():
                shares = ", ".join(f"{f} {share:.0%}" for f, share in top)
                print(f"    self time in {label}: {shares}")

    OUT.mkdir(exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(
        {w: [[_e2e(res) | {"seed": res["seed"]} for res in runs] for runs in sets]
         for w, sets in summary.items()}, indent=1) + "\n")
    if incorrect:
        sys.exit(1)
    if disagree:
        sys.exit(3)


if __name__ == "__main__":
    main()
