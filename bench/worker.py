"""Benchmark worker: a single closed-loop client running one op at a time.

Started by ``run.py`` with the BLAS thread counts pinned to 1 and
``src`` on ``PYTHONPATH``.  It imports nhwind, warms up, prints
``READY`` (the parent times set-up up to that line), then runs passes
over the workload's op list until ``--seconds`` have gone by and
prints one JSON line with the raw measurements.  In untraced passes
the workload's reference kernel from ``calibrate.py`` runs before the
first op and after every op, outside the ops' timed regions.  With ``--trace 1`` untraced and traced passes
alternate.  ``--setup-only`` exits right
after ``READY``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Kernel
from spans import MARK, Tracer, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _import_nhwind():
    import nhwind
    import nhwind.cli

    src = ROOT / "src"
    if src not in Path(nhwind.__file__).resolve().parents:
        raise SystemExit(f"nhwind was imported from {nhwind.__file__}, "
                         f"not from {src}")
    return nhwind


def warm_up(nh, workload: str) -> None:
    """Fill lazy state on the paths the workload's ops take."""
    if workload == "loop":
        model = nh.bloch.lee()
        nh.berry.winding_report(model, nh.bloch.Gauge.FIRST_COMPONENT_ONE,
                                256, lee_normalization=2.0, with_bands=True)
        nh.berry.split_check(model, nh.bloch.Gauge.TRANSPOSE, 256)
    elif workload == "chain":
        model = nh.bloch.lee()
        spectrum = nh.lattice.chain_spectrum(
            model, 8, nh.lattice.Boundary.PERIODIC, with_left=True)
        nh.lattice.localization_profile(spectrum, side="left")


def _lee(nh, op):
    m = op["model"]
    return nh.bloch.lee() if m is None else nh.bloch.lee(
        m["v"], m["r"], m["gamma"])


def run_loop_op(nh, op):
    """Returns ``(latency_s, result or exception)``; the model is built
    outside the timed region."""
    model = _lee(nh, op)
    gauge = nh.bloch.Gauge(op["gauge"])
    t0 = time.perf_counter()
    try:
        report = nh.berry.winding_report(model, gauge, op["grid"],
                                         lee_normalization=2.0,
                                         with_bands=True)
        split = (nh.berry.split_check(model, gauge, op["grid"])
                 if op["model"]["braided"] else None)
    except Exception as exc:
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, (report, split)


def run_chain_op(nh, op):
    model = _lee(nh, op)
    bc = nh.lattice.Boundary(op["bc"])
    t0 = time.perf_counter()
    try:
        result = nh.lattice.chain_spectrum(
            model, op["n"], bc, with_left=op["kind"] in ("paired", "refusal"))
        if op["kind"] == "profile":
            result = (result,
                      nh.lattice.localization_profile(result, side="left"))
    except Exception as exc:
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, result


class CliRunner:
    """Runs each command in a fresh interpreter; traced runs go through
    ``cli_child.py`` and hand their span summary back on stderr."""

    def __init__(self) -> None:
        self.traced = False
        self.spans: list[dict] = []
        self.output_bytes = 0

    def __call__(self, nh, op):
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        else:
            cmd = [sys.executable, "-m", "nhwind.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + op["argv"], capture_output=True,
                              cwd=ROOT, timeout=120)
        latency = time.perf_counter() - t0
        stderr = proc.stderr.decode(errors="replace")
        if self.traced:
            kept = []
            for line in stderr.splitlines():
                if line.startswith(MARK):
                    self.spans.append(json.loads(line[len(MARK):]))
                else:
                    kept.append(line)
            stderr = "\n".join(kept)
            self.output_bytes += len(proc.stdout)
        return latency, (proc.returncode, proc.stdout, stderr)


def _environment() -> dict:
    from importlib import metadata

    import numpy as np

    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    nh = _import_nhwind()
    warm_up(nh, args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from checks import verify
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed)
    kernel = Kernel(args.workload)
    kernel()
    runner = {"loop": run_loop_op, "chain": run_chain_op,
              "cli": CliRunner()}[args.workload]
    digests: dict[int, str] = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    latencies: list[float] = []
    calibration: list[list[float]] = []
    attempted = failed = 0
    problems: list[str] = []
    span_totals: dict = {}
    modes = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    n_pass = 0
    while True:
        tracing = modes[n_pass % len(modes)]
        tracer = Tracer() if tracing and args.workload != "cli" else None
        if args.workload == "cli":
            runner.traced = tracing
        wall = 0.0
        kernel_s = [] if tracing else [kernel()]
        if tracer:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                latency, outcome = runner(nh, op)
                wall += latency
                if not tracing:
                    latencies.append(latency)
                errors = verify(args.workload, op, outcome)
                if args.workload == "cli":
                    digest = hashlib.sha256(outcome[1]).hexdigest()
                    if digests.setdefault(i, digest) != digest:
                        errors.append("output differs between passes")
                attempted += 1
                if errors:
                    failed += 1
                    problems.append(f"{op}: {errors}")
                if not tracing:
                    kernel_s.append(kernel())
        finally:
            if tracer:
                tracer.restore()
        walls[tracing].append(wall)
        if not tracing:
            calibration.append(kernel_s)
        if tracer:
            merge(span_totals, tracer.summary())
        n_pass += 1
        elapsed = time.perf_counter() - start
        if (n_pass >= len(modes)
                and elapsed + elapsed / n_pass > args.seconds):
            break

    if args.workload == "cli":
        for part in runner.spans:
            merge(span_totals, part)
        who = resource.RUSAGE_CHILDREN
    else:
        who = resource.RUSAGE_SELF
    for line in problems[:10]:
        print(f"failed op: {line}", file=sys.stderr)
    print(json.dumps({
        "ops_per_pass": len(ops),
        "untraced_walls": walls[False],
        "traced_walls": walls[True],
        "latencies": latencies,
        "calibration": calibration,
        "reference_s": kernel.reference_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "spans": span_totals,
        "output_bytes": getattr(runner, "output_bytes", 0),
        "environment": _environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
