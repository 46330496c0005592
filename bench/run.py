"""nhwind benchmark: one seeded workload, timed end to end or per layer.

Usage, from the repository root::

    python3 bench/run.py --workload {loop,chain,cli} --seed N \\
        --seconds S --trace {0,1}

Each run starts fresh worker processes (``worker.py``) with the BLAS
thread counts pinned to 1 and ``src`` on ``PYTHONPATH``; nothing needs
building.  With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  The
end-to-end times are scaled to a reference host speed, gauged by the
kernel of ``calibrate.py`` that the worker runs between ops.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the seed, the measured host speed, the unscaled pass wall time and the
machine (core count, Python, numpy, scipy, BLAS).
``bench/README.md`` says which metric belongs to which layer and which
workload should move it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
# Set-up is timed this many times per run and reported as the median.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# Every process this run starts must be gone by then.
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from calibrate import Kernel  # noqa: E402
from spans import ERROR_CLASSES, TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


class Child:
    """A worker process whose stdout (and optionally stderr) is drained
    by threads; ``ready_s`` is the time from launch to its ``READY``."""

    def __init__(self, argv: list[str], capture_stderr: bool = False):
        self.lines: list[str] = []
        self.stderr: list[str] = []
        self.ready_s: float | None = None
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=worker_env(), text=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None)
        self.threads = [threading.Thread(target=self._read_stdout)]
        if capture_stderr:
            self.threads.append(threading.Thread(
                target=lambda: self.stderr.append(self.proc.stderr.read())))
        for thread in self.threads:
            thread.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            if self.ready_s is None and line.strip() == "READY":
                self.ready_s = time.perf_counter() - self.t0
            else:
                self.lines.append(line)

    def finish(self, deadline: float) -> None:
        try:
            self.proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("worker exceeded the run time limit")
        finally:
            for thread in self.threads:
                thread.join()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")


def import_times(report: str) -> tuple[float, float]:
    """``(nhwind, scipy within nhwind)`` cumulative import seconds from
    a ``-X importtime`` report.

    The report lists each module after the modules it imported, two
    spaces deeper per level, so a stack rebuilds the import tree.
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line.split("|", 2)
        name = field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))

    def scipy_us(node) -> int:
        _, name, cumulative, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative
        return sum(scipy_us(child) for child in children)

    ours = [node for node in pending
            if node[1] == "nhwind" or node[1].startswith("nhwind.")]
    if not ours:
        raise BenchError("no nhwind entry in the import-time report")
    return (sum(node[2] for node in ours) * 1e-6,
            sum(scipy_us(node) for node in ours) * 1e-6)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_latencies(result: dict) -> list[list[float]]:
    """Each untraced pass's op latencies at the reference host speed.

    The kernel of ``calibrate.py`` runs right before and right after
    every op.  Each latency is multiplied by the reference kernel time
    over the mean of those two kernel times, so an op run while the
    host is loaded reads about the same as one run while it is idle.
    """
    n = result["ops_per_pass"]
    reference = result["reference_s"]
    out = []
    for i, kernel_s in enumerate(result["calibration"]):
        latencies = result["latencies"][i * n:(i + 1) * n]
        out.append([2.0 * reference * t / (kernel_s[j] + kernel_s[j + 1])
                    for j, t in enumerate(latencies)])
    return out


def host_speed(result: dict) -> float:
    """Reference kernel time over its median time in the run: 1 on the
    reference host, below 1 when the host runs slower."""
    kernel_s = [t for times in result["calibration"] for t in times]
    return result["reference_s"] / statistics.median(kernel_s)


def end_to_end(result: dict, setups: list[float]) -> dict:
    passes = scaled_latencies(result)
    latencies = [t for times in passes for t in times]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(times) for times in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * _quantile(latencies, 90),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": 1.0 - result["failed"] / result["attempted"],
    }


def per_layer(result: dict, imports: list[tuple[float, float]]) -> dict:
    spans = result["spans"]
    passes = len(result["traced_walls"])
    ops = passes * result["ops_per_pass"]
    calls = spans.get("calls", {})
    self_s = spans.get("self_s", {})
    amount = spans.get("amount", {})
    out = {}
    for layer, fname, _ in TRACED:
        if layer != "cli":
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls.get(name, 0) / passes
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for name in ("bloch.hk", "bloch.hk_derivative"):
        out[f"{name}.samples"] = amount.get(name, 0) / passes
    out["berry.tracks_per_op"] = (calls.get("berry.loop_period", 0)
                                  + calls.get("berry.band_winding", 0)) / ops
    evaluated = spans.get("loop_period_hk_samples", 0)
    out["berry.loop_period.kept_ratio"] = (
        amount.get("berry.loop_period", 0) / evaluated if evaluated else 0.0)
    errors = spans.get("errors", {})
    for cls in ERROR_CLASSES + ("other",):
        out[f"berry.errors.{cls}"] = errors.get(cls, 0) / passes
    out["lattice.eig_dense.n3_sum"] = spans.get("n3_sum", 0) / passes
    out["lattice.eig_dense.per_op"] = calls.get("lattice.eig_dense", 0) / ops
    out["lattice.left_vectors.refusals"] = spans.get("refusals", 0) / passes
    out["cli.import_s"] = statistics.median(t[0] for t in imports)
    out["cli.import_scipy_s"] = statistics.median(t[1] for t in imports)
    out["cli.main_s"] = spans.get("total_s", {}).get("cli.main", 0.0) / passes
    out["cli.self_s"] = self_s.get("cli.main", 0.0) / passes
    out["cli.output_bytes"] = result["output_bytes"] / passes
    out["trace.overhead_s"] = (statistics.median(result["traced_walls"])
                               - statistics.median(result["untraced_walls"]))
    return out


def run(args) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups, imports = [], []
    # Set-up is mostly start-up and imports, so it is scaled to the
    # reference host speed by the cli kernel, run before and after
    # every set-up-only worker.
    kernel = Kernel("cli")

    def probe_setups(count: int) -> None:
        before = kernel()
        for _ in range(count):
            child = Child(base + ["--setup-only"])
            child.finish(deadline)
            if child.ready_s is None:
                raise BenchError("set-up probe never became ready")
            after = kernel()
            setups.append(2.0 * kernel.reference_s * child.ready_s
                          / (before + after))
            before = after

    # Some set-up probes run before the measuring worker and the rest
    # after it, so the median spans the whole run.
    before = SETUP_SAMPLES // 2
    if args.trace:
        for _ in range(IMPORT_SAMPLES):
            child = Child([sys.executable, "-X", "importtime", "-c",
                           "import nhwind, nhwind.cli"], capture_stderr=True)
            child.finish(deadline)
            imports.append(import_times("".join(child.stderr)))
    else:
        probe_setups(before)
    child = Child(base + ["--trace", str(args.trace)])
    child.finish(deadline)
    if child.ready_s is None or not child.lines:
        raise BenchError("worker printed no result")
    if not args.trace:
        probe_setups(SETUP_SAMPLES - before)
    result = json.loads(child.lines[-1])
    metrics = (per_layer(result, imports) if args.trace
               else end_to_end(result, setups))
    return result, metrics


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nhwind" / "__init__.py").is_file():
        print(f"error: no nhwind sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Every process the run starts, workers and kernels alike, inherits
    # one BLAS thread from here.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        units = declared(args.trace)
        result, metrics = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(units))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{args.workload:6s} {name:36s} {value:16.6f} {units[name]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "passes": len(result["untraced_walls"]),
                      "ops_per_pass": result["ops_per_pass"],
                      "host_speed": host_speed(result),
                      "unscaled_wall_s": statistics.median(
                          result["untraced_walls"]),
                      "environment": result["environment"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
