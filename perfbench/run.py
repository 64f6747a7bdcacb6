"""Run one workload of the bosegas benchmark and print its metrics.

    python3 perfbench/run.py --workload canonical_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/bosegas. The set-up time is
measured first: several fresh interpreters each import bosegas.cli. Then a
fresh worker process (worker.py) runs the workload's operations for the
given seconds and checks their outputs. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything the run writes goes under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
RUN_TIMEOUT = 170.0

# Every thread pool numpy/scipy may use is pinned to one thread, so the
# process tree runs at most BOSE_THREADS compute threads.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _env(threads):
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["BOSE_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    # keep the CLI's `git describe` from searching above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _setup_seconds(env):
    """Median wall time from interpreter start until `import bosegas.cli` returns."""
    code = "import bosegas.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                _fail("`import bosegas.cli` failed")
        samples.append(t)
    return statistics.median(samples), samples


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "bosegas").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"store this run's output values in {REFERENCE.name}")
    a = p.parse_args()

    if not (SRC / "bosegas" / "cli.py").is_file():
        _fail(f"no bosegas sources under {SRC}; run from a checkout of the repository")
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        _fail(f"unknown workload {a.workload!r}; choose from {names}")
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]

    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ.get("BOSE_THREADS", nproc))
    if threads < 1 or threads > nproc:
        _fail(f"BOSE_THREADS={threads} with single-threaded BLAS would run more "
              f"compute threads than the {nproc} processors available")
    env = _env(threads)

    deadline = time.perf_counter() + RUN_TIMEOUT
    setup_s, setup_samples = _setup_seconds(env)

    OUT.mkdir(exist_ok=True)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(seconds), "--trace", str(a.trace),
           "--threads", str(threads)]
    if REFERENCE.is_file() and not a.record_reference:
        cmd += ["--reference", str(REFERENCE)]
    if a.trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.json")]
    record = OUT / f"reference-{a.workload}.json"
    if a.record_reference:
        cmd += ["--record", str(record)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        _fail("worker did not finish in time")
    if proc.returncode != 0:
        _fail(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if a.record_reference:
        merged = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        merged.update(json.loads(record.read_text()))
        REFERENCE.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")

    if a.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["layers"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"run_s": res["run_s"], "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_mb"], "ok_frac": res["ok_frac"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record_all = {
        "workload": a.workload, "seed": a.seed, "seconds": seconds, "trace": a.trace,
        "host": {**res["host"], "nproc": nproc, "bose_threads": threads,
                 "blas_threads": 1, "git_commit": _git_commit(), "src_sha256": _src_digest()},
        "setup_s_samples": setup_samples,
        **{k: v for k, v in res.items() if k not in ("host", "layers")},
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record_all, indent=1) + "\n")

    for line in res["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"host": record_all["host"], "seed": a.seed,
                      "failures": res["failures"]}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    if not res["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
