"""One benchmark run's operations, in a fresh Python process.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Draws its
operations from the seed, imports bosegas.cli, runs passes over the
operations until the time is used, checks the outputs outside the timed
region and prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads as wl


def _run_pass(ops, limit, tracer=None):
    """Time every operation once.

    Returns (charged seconds, outputs, failures, seconds per operation).
    """
    charged, outputs, failures, seconds = 0.0, [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run_op(op)
            else:
                with tracer.span("op:" + op.label):
                    out = wl.run_op(op)
            err = None
        except wl.OpFailed as exc:
            out, err = None, str(exc)
        except Exception as exc:  # an unexpected error still fails only this operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if err is None and elapsed > limit:
            err = f"took {elapsed:.1f} s, limit {limit:g} s"
        charged += limit if err is not None else elapsed
        outputs.append(out if err is None else None)
        failures.append(err)
        seconds.append(elapsed)
    return charged, outputs, failures, seconds


def _check(ops, passes, reference):
    """Check the outputs of all passes.

    Returns (problems, failures, failed): the output checks that failed, the
    distinct failure messages per operation, and the number of operation
    runs that failed, an operation whose output fails a check included.
    """
    problems, failures, failed = [], [], 0
    for i, op in enumerate(ops):
        errs = {p[2][i] for p in passes if p[2][i] is not None}
        if errs:
            failures.append(f"{op.label}[{i}]: {'; '.join(sorted(errs))}")
        outs = [p[1][i] for p in passes if p[1][i] is not None]
        bad = []
        if outs:
            got = wl.values(op, outs[0])
            if any(wl.values(op, o) != got for o in outs[1:]):
                bad.append("output differs between passes")
            bad += wl.check(op, outs[0])
            if reference is not None and reference[i]["values"] is not None:
                bad += wl.compare(op, got, reference[i]["values"])
        problems += [f"{op.label}[{i}]: {m}" for m in bad]
        failed += len(passes) if bad else len(passes) - len(outs)
    return problems, failures, failed


def _reference_entries(ops, outputs, failures):
    return [{"label": op.label, "args": list(op.args),
             "values": None if err else wl.values(op, out),
             "error": err}
            for op, out, err in zip(ops, outputs, failures)]


def _host():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--reference", help="reference values to compare against")
    p.add_argument("--spans", help="where to write the traced spans")
    p.add_argument("--record", help="write this run's values as the reference")
    a = p.parse_args()

    ops = wl.make_ops(a.workload, a.seed)
    limit = wl.TIME_LIMIT[a.workload]
    import bosegas.cli  # noqa: F401  (the import is part of what a run sets up)

    reference = None
    if a.reference:
        with open(a.reference, encoding="utf-8") as fh:
            ref = json.load(fh).get(a.workload)
        if ref is not None and ref["seed"] == a.seed:
            if [(r["label"], r["args"]) for r in ref["ops"]] != \
                    [(op.label, json.loads(json.dumps(list(op.args)))) for op in ops]:
                sys.exit("reference operations differ from this seed's operations")
            reference = ref["ops"]

    try:
        wl.run_op(wl.warmup_op(a.workload))
    except wl.OpFailed:
        pass

    def threads(n):
        os.environ["BOSE_THREADS"] = str(n)

    modes = ["nproc", "serial", "traced"] if a.trace else ["nproc"]
    passes = {m: [] for m in modes}
    tracer = None
    t_end = time.perf_counter() + a.seconds
    while True:
        for mode in modes:
            threads(a.threads if mode == "nproc" else 1)
            if mode == "traced":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
                try:
                    passes[mode].append(_run_pass(ops, limit, tracer))
                finally:
                    tracer.uninstall()
            else:
                passes[mode].append(_run_pass(ops, limit))
        if time.perf_counter() >= t_end:
            break
    threads(a.threads)

    all_passes = [p for m in modes for p in passes[m]]
    problems, failures, n_failed = _check(ops, all_passes, reference)
    attempted = len(ops) * len(all_passes)
    run_s = {m: statistics.median(p[0] for p in passes[m]) for m in modes}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": n_failed,
        "problems": problems,
        "failures": failures,
        "passes": {m: [p[0] for p in passes[m]] for m in modes},
        "op_seconds": {m: [statistics.median(p[3][i] for p in passes[m])
                           for i in range(len(ops))] for m in modes},
        "op_labels": [op.label for op in ops],
        "run_s": run_s["nproc"],
        "ok_frac": 1.0 - n_failed / attempted,
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "host": _host(),
    }
    if a.trace:
        from tracer import layer_metrics, top_self_time

        spans = tracer.spans
        layers = layer_metrics(spans)
        layers["cli.fanout_speedup"] = run_s["serial"] / run_s["nproc"]
        layers["trace.overhead"] = run_s["traced"] / run_s["serial"] - 1.0
        result["layers"] = layers
        result["top_self_time"] = top_self_time(spans)
        if a.spans:
            tracer.dump(a.spans)
    if a.record:
        with open(a.record, "w", encoding="utf-8") as fh:
            json.dump({a.workload: {"seed": a.seed,
                                    "ops": _reference_entries(ops, *all_passes[0][1:3])}},
                      fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
