"""Seeded op lists for the three benchmark workloads.

Only the standard library is used here, so an op list is a pure
function of ``(workload, seed)`` and can be built and compared without
importing numpy or the package under test.  An op is a plain dict.

The seed draws the models, the boundary conditions, the gauges and the
order of the ops.  How many ops of each kind a pass holds, the grids
and the chain sizes are fixed, so the work in one pass hardly depends
on the seed and runs with different seeds can be compared.
"""
from __future__ import annotations

import random

WORKLOADS = ("loop", "chain", "cli")

LOOP_BRAIDED = 12
LOOP_UNBRAIDED = 4
LOOP_GRIDS = (4096, 8192)
LOOP_GAUGES = ("first", "second", "transpose")
# Stay this far from the braid boundary gamma/2 = v - r and from the
# second exceptional line gamma/2 = v + r: near either, the seed commit
# fails the near-integer check of the loop winding.
BOUNDARY_MARGIN = 0.05

# Plain chains come in size tiers and the left profiles share one
# size: (kind, cells, ops per pass).  Sorted by cost, a pass holds 10
# small ops (the 20-cell tier, the paired ops and the refusal), the
# 64-cell tier, then 11 larger ones (the profiles and the 200-cell
# tier).  So the 50th latency percentile falls in the middle of the
# 64-cell tier and the 90th in the middle of the 200-cell tier, each
# inside a group of equal-size ops instead of between two sizes of
# very different cost.
CHAIN_GROUPS = (("plain", 20, 5), ("plain", 64, 10),
                ("profile", 100, 5), ("plain", 200, 6))
PAIRED_SIZES = (8, 40)
CHAIN_PAIRED = 4
CHAIN_REFUSAL = 1
# Model kinds cycle through these: 1 in 5 Hermitian, 3 in 4 of the rest
# braided.  Paired ops skip the Hermitian kind, whose periodic spectra
# are doubly degenerate.
MODEL_KINDS = ("hermitian", "braided", "braided", "braided", "unbraided")
BOUNDARIES = ("open", "periodic")

# The README's example commands plus its two natural failure triggers
# and the default-grid ``bands`` table (1.65 MB of CSV).  The README's
# ``scan --n-list 10,100,400`` takes about 7 s, almost all of it in
# dense solves that the chain workload already measures, so ``scan``
# runs with its default size list here.
CLI_COMMANDS = (
    ("winding", "--lee-normalization", "2"),
    ("reductio", "--model", "demo"),
    ("reductio",),
    ("bands", "--grid", "256", "--format", "csv"),
    ("bands",),
    ("chain", "--n", "30"),
    ("localize", "--n", "4", "--side", "left"),
    ("scan",),
    ("bands", "--model", "demo"),
    ("winding", "--v", "0.75", "--r", "0.5", "--gamma", "0.5"),
)


def draw_lee(rng: random.Random, braided: bool,
             hermitian: bool = False) -> dict:
    """Parameters of one ``lee(v, r, gamma)`` model with ``v > r``.

    Braided models have ``gamma/2`` between ``v - r`` and ``v + r``,
    unbraided ones below ``v - r``, each at least ``BOUNDARY_MARGIN``
    away from both lines.  ``hermitian`` forces ``gamma = 0``.
    """
    r = rng.uniform(0.3, 0.7)
    d = rng.uniform(0.1, 0.4)
    v = r + d
    if hermitian:
        half = 0.0
    elif braided:
        half = rng.uniform(d + BOUNDARY_MARGIN,
                           min(d + 0.45, v + r - BOUNDARY_MARGIN))
    else:
        half = rng.uniform(0.0, d - BOUNDARY_MARGIN)
    return {"v": v, "r": r, "gamma": 2.0 * half,
            "braided": braided and not hermitian}


def _ladder(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spaced evenly in log between ``lo`` and ``hi``."""
    if count == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [int(round(lo * ratio ** i)) for i in range(count)]


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` items cycling through ``values``, shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _models(rng: random.Random, kinds, count: int) -> list[dict]:
    return [draw_lee(rng, kind != "unbraided", hermitian=kind == "hermitian")
            for kind in _balanced(rng, kinds, count)]


def loop_ops(rng: random.Random) -> list[dict]:
    # Alternating grids, so the first four combos already hold both.
    combos = list(zip(LOOP_GAUGES * 2, LOOP_GRIDS * 3))
    ops = []
    for braided, count in ((True, LOOP_BRAIDED), (False, LOOP_UNBRAIDED)):
        for gauge, grid in _balanced(rng, combos, count):
            ops.append({"kind": "report", "model": draw_lee(rng, braided),
                        "gauge": gauge, "grid": grid})
    rng.shuffle(ops)
    return ops


def chain_ops(rng: random.Random) -> list[dict]:
    ops = []
    for kind, n, count in CHAIN_GROUPS:
        # Op i has boundary i mod 2 and model kind i mod 5, so every ten
        # ops of a group pair each boundary with each kind once and the
        # cost of a group hardly depends on the seed.
        for i in range(count):
            model_kind = MODEL_KINDS[i % len(MODEL_KINDS)]
            model = draw_lee(rng, model_kind != "unbraided",
                             hermitian=model_kind == "hermitian")
            ops.append({"kind": kind, "model": model, "n": n,
                        "bc": BOUNDARIES[i % len(BOUNDARIES)]})
    sizes = _ladder(*PAIRED_SIZES, CHAIN_PAIRED)
    for n, model in zip(sizes, _models(rng, MODEL_KINDS[1:], CHAIN_PAIRED)):
        ops.append({"kind": "paired", "model": model, "n": n,
                    "bc": "periodic"})
    for _ in range(CHAIN_REFUSAL):
        ops.append({"kind": "refusal", "model": None, "n": 30, "bc": "open",
                    "expect": "MatchFailure"})
    rng.shuffle(ops)
    return ops


def cli_ops(rng: random.Random) -> list[dict]:
    ops = [{"kind": "cli", "argv": list(argv)} for argv in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    """The fixed op list of one pass of ``workload`` for ``seed``."""
    builders = {"loop": loop_ops, "chain": chain_ops, "cli": cli_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}:{seed}"))
