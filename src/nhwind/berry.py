"""Biorthogonal Berry phases along tracked spectral loops.

For a non-Hermitian two-band model the energy branches can braid: after
one Brillouin zone the branches swap, and an eigenstate only returns to
itself after two.  The objects here follow one branch by continuity,
detect the true closure period (2 pi or 4 pi), and integrate the
biorthogonal Berry connection

    f(k) = <<l(k)| d/dk |u(k)>> / <<l(k)|u(k)>>

along the whole closed loop.  Every gauge is a row of data in
:class:`~nhwind.bloch.Gauge`: a reference spinor ``c`` that fixes the
right vector as ``u = r / (c . r)``, and a pairing rule for its left
partner ``l``:

    first      c = e1                   inverse
    second     c = e2                   inverse
    transpose  c = e1                   transpose
    smooth     c in REFERENCE_SPINORS   inverse

Inverse pairing takes ``l`` as the row of the inverse eigenvector
matrix (``l @ u = 1``, so the division is trivial); transpose pairing
takes ``l = u^T`` itself (``l @ u = u^T u`` genuinely normalizes).  One
code path serves all four gauges, and the closed-form eigensystem under
it (roots, eigenvectors, the exceptional-point ratio and ``dE/dk``) is
:mod:`nhwind.bloch`'s, the same one :func:`~nhwind.bloch.eig2` uses.
The loop phase is

    gamma_b = -i * integral of f over the loop, taken forward
              (increasing k),

an orientation convention fixed once and for all by requiring the
reference dimerized chain (:func:`nhwind.bloch.demo`) to come out with
winding +1; every quantity in this module and in the command line uses
it consistently.  ``winding_number`` divides by pi, and
``winding_lee`` further divides by a per-Brillouin-zone normalization
constant, which reproduces a fractional count whenever the loop period
is not 2 pi times that constant.

Per-band segment integrals over a single Brillouin zone
(:func:`band_winding`) and the two halves of a braided loop
(:func:`split_check`) use the same orientation map ``w = -i I / pi``,
so the two halves of a 4 pi loop sum exactly to the full loop winding.

Connections in a gauge with a fixed spinor can develop poles where
``c . r`` crosses zero between grid points, and the transpose pairing
can pass through zero the same way.  When a single grid sample
contributes more than 0.5 to the integral the pole is unresolvable at
any grid, and :class:`~nhwind.bloch.GaugeSingular` is raised rather
than returning grid-dependent junk; the guard stays on in every gauge.
On a real-symmetric loop such as the Hermitian topological chain each
real eigenvector component has a genuine zero, so ``first``,
``second`` and ``transpose`` all meet such a pole.  The smooth gauge
(:attr:`~nhwind.bloch.Gauge.SMOOTH`, the default of :func:`loop_period`)
pins ``c . u = 1`` for a reference spinor ``c`` chosen to stay away from
zero along the whole tracked branch, and integrates through.  Changing
``c`` can shift the integer loop winding by an even number; only
``w mod 2`` is gauge invariant, and the smooth gauge's fixed candidate
order is the convention that fixes ``w`` itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .bloch import (_GAUGES, GAUGE_TOL, BlochModel, Defective, Gauge,
                    GaugeSingular, _energy_derivative, _fix_gauge,
                    _null_rows, _parallelism, _pinned_row, _roots,
                    _unit_vectors, hk, hk_derivative)

__all__ = [
    "AmbiguousTracking",
    "NoClosure",
    "Band",
    "LoopTrajectory",
    "WindingReport",
    "SplitWindings",
    "loop_period",
    "berry_phase",
    "winding_number",
    "winding_lee",
    "band_winding",
    "split_check",
    "winding_report",
]

# Relative closure tolerance on (energy, gauge-fixed state) at the loop end.
CLOSURE_TOL = 1e-8
# Two candidate continuations closer than this are a tie.
TIE_TOL = 1e-10
# A single sample contributing more than this to the connection integral
# means an unresolvable pole sits between grid points.
POLE_TOL = 0.5
# An exceptional point sitting exactly on a grid sample is smeared by
# float rounding into a splitting of order sqrt(eps) ~ 1.5e-8, so any
# eigenvector pair closer than ~10x that floor is indistinguishable
# from a genuinely defective sample.
PATH_DEFECTIVE_TOL = 1e-7


class Band(IntEnum):
    """Which of the two energy branches tracking starts on.

    ``PLUS`` is the branch of the principal square root at k = 0,
    ``MINUS`` the other.  Members compare equal to the integers +1 and
    -1, and every op taking a band accepts those integers directly.
    """

    PLUS = +1
    MINUS = -1


class AmbiguousTracking(RuntimeError):
    """Branch continuation cannot be decided: the two candidates are
    equally close in energy and the eigenvector overlaps do not break
    the tie either."""


class NoClosure(RuntimeError):
    """The tracked branch fails to return to its starting state after
    two Brillouin zones (or the stored loop data violate closure)."""


def _track_branches(e1: np.ndarray, e2: np.ndarray, band: int,
                    resolver: Callable[[int, complex],
                                       tuple[float, float]] | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Follow one energy branch through the sample arrays by continuity.

    ``e1``/``e2`` hold the two closed-form roots at each momentum in a
    fixed (unordered) labeling.  Tracking starts on ``e1`` for
    ``Band.PLUS`` and on ``e2`` for ``Band.MINUS`` and always continues
    to the nearer candidate.  On a distance tie,
    ``resolver(j, previous_other_energy)`` must return the eigenvector
    overlaps of the two candidates with the previous state; a missing
    resolver or an overlap tie raises :class:`AmbiguousTracking`.

    Returns ``(tracked, other)`` energy arrays.
    """
    e1 = np.asarray(e1, dtype=complex)
    e2 = np.asarray(e2, dtype=complex)
    if e1.shape != e2.shape or e1.ndim != 1:
        raise ValueError("branch arrays must be equal-length 1-d")
    band = Band(band)
    n = e1.size
    tracked = np.empty(n, dtype=complex)
    other = np.empty(n, dtype=complex)
    cur, oth = (e1[0], e2[0]) if band is Band.PLUS else (e2[0], e1[0])
    tracked[0], other[0] = cur, oth
    for j in range(1, n):
        d1 = abs(e1[j] - cur)
        d2 = abs(e2[j] - cur)
        if abs(d1 - d2) <= TIE_TOL * max(1.0, abs(cur)):
            if resolver is None:
                raise AmbiguousTracking(
                    f"energy tie at sample {j} with no overlap data")
            o1, o2 = resolver(j, complex(oth))
            if abs(o1 - o2) <= TIE_TOL * max(o1, o2, 1e-300):
                raise AmbiguousTracking(
                    f"energy and overlap tie at sample {j}")
            take1 = o1 > o2
        else:
            take1 = d1 < d2
        cur, oth = (e1[j], e2[j]) if take1 else (e2[j], e1[j])
        tracked[j], other[j] = cur, oth
    return tracked, other


def _check_diagonalizable(h: np.ndarray, e1: np.ndarray, e2: np.ndarray,
                          k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raise :class:`Defective` if branches are parallel at any sample.

    The parallelism ratio is symmetric in the two branches, so the check
    runs on the raw (untracked) root pair and catches an exceptional
    point before branch tracking can trip over its degenerate tie.  A
    scalar sample, whose branches carry no eigenvector identity, raises
    :class:`AmbiguousTracking`.  Returns the unit right vectors of
    ``e1`` and ``e2``.
    """
    scale = np.linalg.norm(h, axis=(-2, -1))
    units = []
    for energy in (e1, e2):
        unit, norm = _unit_vectors(h, energy)
        if np.any(norm <= 1e-14 * (scale + abs(energy))):
            raise AmbiguousTracking(
                "scalar Hamiltonian sample on the loop: branches carry no "
                "eigenvector identity to track")
        units.append(unit)
    ratio = _parallelism(*units)
    bad = ratio < PATH_DEFECTIVE_TOL
    if np.any(bad):
        j = int(np.argmax(bad))
        raise Defective(
            f"non-diagonalizable point near k = {float(k[j]):.6f} "
            f"(singular-value ratio {float(ratio[j]):.2e})")
    return units[0], units[1]


def _overlap_resolver(e1: np.ndarray, r1: np.ndarray, r2: np.ndarray,
                      ) -> Callable[[int, complex], tuple[float, float]]:
    """Tie-breaker: overlap of each candidate with the previous state.

    ``r1``/``r2`` are the unit right vectors of the roots ``e1`` and the
    other one at every sample.  The previous left direction is the
    adjugate row of the previous *other*-branch vector, so it
    annihilates the branch a crossover would land on and is maximal on
    the true continuation.
    """
    def resolve(j: int, prev_other_energy: complex) -> tuple[float, float]:
        prev = r1[j - 1] if prev_other_energy == e1[j - 1] else r2[j - 1]
        l_dir = np.array([prev[1], -prev[0]])
        return float(abs(l_dir @ r1[j])), float(abs(l_dir @ r2[j]))
    return resolve


def _tracked_segment(model: BlochModel, k_inc: np.ndarray, gauge: Gauge,
                     start_band: Band):
    """Track one branch over an inclusive momentum grid.

    Shared front end of the loop and segment integrators: builds the
    Hamiltonian samples, tracks the branch with the overlap tie-break,
    runs the per-sample health checks and fixes the gauge on the tracked
    branch.  Returns ``(h, tracked, other, u, l, c)``: the energies of
    both branches, the gauge-fixed right and left vectors of the tracked
    one (see :func:`nhwind.bloch._fix_gauge`) and the spinor ``c`` with
    ``c @ u = 1``, chosen over the tracked branch in the smooth gauge.
    """
    h = hk(model, k_inc)
    e1, e2 = _roots(h)
    r1, r2 = _check_diagonalizable(h, e1, e2, k_inc)
    try:
        e_t, e_o = _track_branches(e1, e2, start_band,
                                   _overlap_resolver(e1, r1, r2))
    except AmbiguousTracking as exc:
        raise AmbiguousTracking(f"{exc} (of {k_inc.size} samples on "
                                f"[0, {k_inc[-1]:.6f}])") from exc
    # The tracker copies each energy from e1 or e2, so equality tells
    # which root's unit vector the branch took at every sample.
    swap = e_t != e1
    r1[swap], r2[swap] = r2[swap], r1[swap]
    u, l, c = _fix_gauge(h, e_t, e_o, r1, r2, gauge)
    return h, e_t, e_o, u, l, c


@dataclass(frozen=True)
class LoopTrajectory:
    """One spectral branch tracked around its full closed loop.

    Samples live on the half-open interval ``[0, period)`` with uniform
    spacing; the state at ``period`` equals the state at ``0`` within
    ``CLOSURE_TOL`` (that mismatch is recorded as ``closure_error``).
    ``states`` holds the gauge-fixed right vectors and ``left_states``
    their left partners: rows of the inverse eigenvector matrix in the
    gauges with inverse pairing, the right vectors themselves in the
    transpose gauge.  ``reference`` is the smooth gauge's spinor ``c``
    (``c @ u = 1`` at every sample) and ``None`` in the other gauges,
    whose spinor the gauge itself fixes.  Construction re-validates
    continuity (each step stays on the nearest branch up to the tracking
    tie band), the left/right pairing rule of the gauge, the
    normalization ``c @ u = 1`` in every gauge, and closure; violations
    raise ``ValueError`` or :class:`NoClosure`.
    """

    model: BlochModel
    gauge: Gauge
    start_band: Band
    period: float
    k_grid: np.ndarray
    energies: np.ndarray
    energies_other: np.ndarray
    states: np.ndarray
    left_states: np.ndarray
    closure_error: float
    reference: np.ndarray | None = None

    def __post_init__(self) -> None:
        k = np.asarray(self.k_grid, dtype=float)
        e_t = np.asarray(self.energies, dtype=complex)
        e_o = np.asarray(self.energies_other, dtype=complex)
        u = np.asarray(self.states, dtype=complex)
        l = np.asarray(self.left_states, dtype=complex)
        m = k.size
        if m < 4:
            raise ValueError("a loop needs at least 4 samples")
        if not (e_t.shape == e_o.shape == (m,) and u.shape == l.shape == (m, 2)):
            raise ValueError("sample arrays have inconsistent shapes")
        object.__setattr__(self, "start_band", Band(self.start_band))
        object.__setattr__(self, "gauge", Gauge(self.gauge))
        if not (self.period > 0 and abs(k[0]) <= 1e-12):
            raise ValueError("loop must start at k = 0 with positive period")
        step = self.period / m
        if np.max(np.abs(np.diff(k) - step)) > 1e-9:
            raise ValueError("loop samples must be uniformly spaced")
        # Continuity: each step (including the wrap back to k = 0) must
        # stay on the nearest branch, up to the tracking tie band inside
        # which the overlap resolver may pick the energy-farther one.
        nxt = np.roll(e_t, -1)
        nxt_other = np.roll(e_o, -1)
        slack = TIE_TOL * np.maximum(1.0, np.abs(e_t))
        if np.any(np.abs(nxt - e_t) > np.abs(nxt_other - e_t) + slack):
            raise ValueError("stored samples are not a continuously "
                             "tracked branch")
        pairing = np.einsum("mi,mi->m", l, u)
        if _GAUGES[self.gauge][1]:
            if not np.array_equal(l, u):
                raise ValueError("transpose-gauge loops store left_states "
                                 "equal to states verbatim")
            norms_sq = np.sum(np.abs(u) ** 2, axis=-1)
            if np.any(np.abs(pairing) < GAUGE_TOL * norms_sq):
                raise GaugeSingular(
                    f"gauge {self.gauge.value!r}: stored loop contains a "
                    f"self-orthogonal transpose pairing")
        elif np.max(np.abs(pairing - 1.0)) > 1e-9:
            raise ValueError("stored left/right pairs are not "
                             "biorthonormalized")
        c = self.reference
        if self.gauge is Gauge.SMOOTH:
            if c is None or np.shape(c) != (2,):
                raise ValueError("smooth-gauge loops record their "
                                 "reference spinor as a 2-vector")
            c = np.asarray(c, dtype=complex)
        elif c is not None:
            raise ValueError("only smooth-gauge loops carry a reference "
                             "spinor")
        if np.max(np.abs(u @ _spinor(self.gauge, c) - 1.0)) > 1e-9:
            raise ValueError("stored states are not normalized to "
                             "c @ u = 1")
        if not (np.isfinite(self.closure_error)
                and self.closure_error >= 0.0):
            raise ValueError("closure_error must be a non-negative number")
        if self.closure_error > CLOSURE_TOL:
            raise NoClosure(
                f"loop endpoint misses its start by {self.closure_error:.3e} "
                f"(tolerance {CLOSURE_TOL:.0e})")
        for name, arr in (("k_grid", k), ("energies", e_t),
                          ("energies_other", e_o), ("states", u),
                          ("left_states", l)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if c is not None:
            c.setflags(write=False)
            object.__setattr__(self, "reference", c)

    @property
    def grid_size(self) -> int:
        """Samples per single Brillouin zone."""
        return int(round(self.k_grid.size * 2.0 * np.pi / self.period))

    @property
    def step(self) -> float:
        return self.period / self.k_grid.size


def _spinor(gauge: Gauge, reference: np.ndarray | None) -> np.ndarray:
    """The ``c`` with ``c @ u = 1``: the recorded ``reference`` in the
    smooth gauge, the gauge's one fixed spinor in the others."""
    return _GAUGES[gauge][0][0] if reference is None else reference


def loop_period(model: BlochModel, grid_size: int = 8192,
                gauge: Gauge = Gauge.SMOOTH,
                start_band: Band = Band.PLUS) -> LoopTrajectory:
    """Track one branch until it closes; return the full loop.

    Probes one Brillouin zone first, then two; the detected period is
    the ``period`` field of the returned trajectory.  ``grid_size`` is
    the number of samples per Brillouin zone and must be even and at
    least 64.  The default gauge is the smooth one, which picks its
    reference spinor over each probe's tracked samples and records it
    as the trajectory's ``reference``; it integrates loops such as the
    Hermitian topological chain on which every component gauge has a
    pole.  Closure compares the energy and the gauge-fixed state ``u``.
    Raises :class:`NoClosure` if the state does not return after two zones,
    :class:`AmbiguousTracking` on an unresolvable branch tie, and
    :class:`~nhwind.bloch.Defective` /
    :class:`~nhwind.bloch.GaugeSingular` on per-sample pathologies.
    """
    if grid_size < 64 or grid_size % 2:
        raise ValueError(f"grid_size must be even and >= 64, "
                         f"got {grid_size}")
    start_band = Band(start_band)
    gauge = Gauge(gauge)
    step = 2.0 * np.pi / grid_size
    closure = np.inf
    for zones in (1, 2):
        m = zones * grid_size
        k_inc = np.arange(m + 1) * step
        _, e_t, e_o, u, l, c = _tracked_segment(model, k_inc, gauge,
                                                start_band)
        err_e = abs(e_t[-1] - e_t[0]) / max(1.0, abs(e_t[0]))
        err_u = np.max(abs(u[-1] - u[0])) / max(1.0, np.max(abs(u[0])))
        closure = float(max(err_e, err_u))
        if closure <= CLOSURE_TOL:
            return LoopTrajectory(
                model=model, gauge=gauge, start_band=start_band,
                period=zones * 2.0 * np.pi, k_grid=k_inc[:-1],
                energies=e_t[:-1], energies_other=e_o[:-1],
                states=u[:-1], left_states=l[:-1], closure_error=closure,
                reference=c if gauge is Gauge.SMOOTH else None)
    raise NoClosure(
        f"branch of {model.label} fails to close after two Brillouin "
        f"zones (final mismatch {closure:.3e})")


def _analytic_du(model: BlochModel, k: np.ndarray, h: np.ndarray,
                 e_t: np.ndarray, e_o: np.ndarray, reference: np.ndarray,
                 ) -> np.ndarray:
    """d u / d k per sample in any gauge: the quotient rule on
    ``u = r / (c @ r)`` with ``c = reference``."""
    dh = hk_derivative(model, k)
    de = _energy_derivative(h, dh, e_t, e_o)
    return _smooth_derivative(h, dh, e_t, de, reference)


def _smooth_derivative(h: np.ndarray, dh: np.ndarray, energy: np.ndarray,
                       denergy: np.ndarray, reference: np.ndarray,
                       ) -> np.ndarray:
    """k-derivative of ``u = r / (c @ r)``, where ``r`` is the row null
    vector that :func:`~nhwind.bloch._pinned_row` picks and ``r'`` the
    same row of :func:`~nhwind.bloch._null_rows` applied to ``(dh, dE)``:

        du = (r' (c @ r) - r (c @ r')) / (c @ r)^2.

    Both rows give the same ``u``, so the choice of row cancels out.
    ``c @ u = 1`` along the path, so ``c @ du = 0``; the last step
    restores that to round-off, which keeps the derivative of a pinned
    basis component exactly 0.
    """
    r, cr, use1 = _pinned_row(h, energy, reference)
    dr = np.where(use1[..., None], *_null_rows(dh, denergy))
    cr = cr[..., None]
    du = (dr * cr - r * (dr @ reference)[..., None]) / (cr * cr)
    du -= np.multiply.outer(du @ reference, reference.conj())
    return du


def _connection_samples(traj: LoopTrajectory, derivative: str) -> np.ndarray:
    """Berry connection f(k) at every stored loop sample."""
    dk = traj.step
    if derivative == "analytic":
        h = hk(traj.model, traj.k_grid)
        du = _analytic_du(traj.model, traj.k_grid, h, traj.energies,
                          traj.energies_other,
                          _spinor(traj.gauge, traj.reference))
    elif derivative == "fd4":
        u = traj.states
        du = (-np.roll(u, -2, axis=0) + 8.0 * np.roll(u, -1, axis=0)
              - 8.0 * np.roll(u, 1, axis=0) + np.roll(u, 2, axis=0)
              ) / (12.0 * dk)
    else:
        raise ValueError(f"derivative must be 'analytic' or 'fd4', "
                         f"got {derivative!r}")
    num = np.einsum("mi,mi->m", traj.left_states, du)
    den = np.einsum("mi,mi->m", traj.left_states, traj.states)
    f = num / den
    _pole_guard(f, dk)
    return f


def _pole_guard(f: np.ndarray, dk: float) -> None:
    worst = float(np.max(np.abs(f))) * dk
    if not np.isfinite(worst) or worst > POLE_TOL:
        raise GaugeSingular(
            f"connection pole between grid points: one sample "
            f"contributes {worst:.3g} to the integral; no grid "
            f"refinement can resolve this in a component gauge; the "
            f"smooth gauge ('smooth') integrates through a component "
            f"that only crosses zero")


def berry_phase(traj: LoopTrajectory, derivative: str = "analytic",
                ) -> complex:
    """Loop Berry phase ``gamma_b = -i * forward connection integral``.

    Uses the periodic trapezoid rule (a plain sample mean times the
    period) on the closed loop.  The default analytic derivative
    applies the quotient rule on ``u = r/(c·r)``, the same formula in
    every gauge, with the branch energy derivative ``dE/dk`` from the
    characteristic polynomial ``E^2 - tr(h) E + det h = 0``; the
    ``fd4`` alternative differentiates the stored vectors with a
    five-point stencil wrapped around the loop.  Either way the
    connection divides by the stored left/right pairing, so the
    transpose gauge needs no extra normalization step.
    """
    return _loop_phase(_connection_samples(traj, derivative), traj.step)


def _loop_phase(f: np.ndarray, dk: float) -> complex:
    """``gamma_b`` from the connection samples of a closed loop."""
    return -1j * (dk * complex(np.sum(f)))


def winding_number(gamma_b: complex) -> complex:
    """Loop winding ``w = gamma_b / pi``; near-integer for closed loops."""
    return complex(gamma_b) / np.pi


def winding_lee(traj: LoopTrajectory, lee_normalization: float,
                derivative: str = "analytic") -> complex:
    """Loop winding divided by a per-Brillouin-zone normalization.

    Computes ``winding_number(berry_phase(traj)) / lee_normalization``.
    Normalizing per zone instead of per loop yields fractional counts
    whenever the true closure period is not ``2 pi * lee_normalization``;
    this op exists to make that mismatch explicit.
    """
    return _per_zone(winding_number(berry_phase(traj, derivative)),
                     lee_normalization)


def _per_zone(w: complex, lee_normalization: float) -> complex:
    if lee_normalization == 0:
        raise ValueError("lee_normalization must be nonzero")
    return w / lee_normalization


def band_winding(model: BlochModel, band: Band = Band.PLUS,
                 gauge: Gauge = Gauge.TRANSPOSE, grid_size: int = 8192,
                 derivative: str = "analytic") -> complex:
    """Single-zone segment winding ``w_b = -i/pi * integral over [0, 2 pi]``.

    The segment is traversed forward along one tracked branch and makes
    no closure claim: on a braided loop it starts on one branch and
    ends on the other.  Endpoints get half weight (ordinary trapezoid).
    The value is NOT gauge invariant; only the sum over both bands is.
    """
    if grid_size < 64 or grid_size % 2:
        raise ValueError(f"grid_size must be even and >= 64, "
                         f"got {grid_size}")
    band = Band(band)
    gauge = Gauge(gauge)
    step = 2.0 * np.pi / grid_size
    k_inc = np.arange(grid_size + 1) * step
    h, e_t, e_o, u, l, c = _tracked_segment(model, k_inc, gauge, band)

    if derivative == "analytic":
        du = _analytic_du(model, k_inc, h, e_t, e_o, c)
    elif derivative == "fd4":
        du = _fd4_segment(u, step)
    else:
        raise ValueError(f"derivative must be 'analytic' or 'fd4', "
                         f"got {derivative!r}")
    num = np.einsum("mi,mi->m", l, du)
    den = np.einsum("mi,mi->m", l, u)
    f = num / den
    _pole_guard(f, step)
    integral = step * (0.5 * f[0] + np.sum(f[1:-1]) + 0.5 * f[-1])
    return complex(-1j * integral / np.pi)


def _fd4_segment(u: np.ndarray, dk: float) -> np.ndarray:
    """Fourth-order derivative on an open segment: centered five-point
    stencil inside, one-sided five-point stencils at the edges."""
    du = np.empty_like(u)
    du[2:-2] = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * dk)
    du[0] = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3]
             - 3.0 * u[4]) / (12.0 * dk)
    du[1] = (-3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2] - 6.0 * u[3]
             + u[4]) / (12.0 * dk)
    du[-2] = (3.0 * u[-1] + 10.0 * u[-2] - 18.0 * u[-3] + 6.0 * u[-4]
              - u[-5]) / (12.0 * dk)
    du[-1] = (25.0 * u[-1] - 48.0 * u[-2] + 36.0 * u[-3] - 16.0 * u[-4]
              + 3.0 * u[-5]) / (12.0 * dk)
    return du


@dataclass(frozen=True)
class SplitWindings:
    """The two single-zone halves of a braided loop and their sum."""

    w_plus: complex
    w_minus: complex
    total: complex


def split_check(model: BlochModel, gauge: Gauge = Gauge.TRANSPOSE,
                grid_size: int = 8192, derivative: str = "analytic",
                ) -> SplitWindings:
    """Track the full loop, split it at the zone boundary, wind each half.

    Each half maps through the same ``-i/pi`` orientation as the full
    loop, so ``w_plus + w_minus`` reproduces the loop winding exactly
    (verified internally to 1e-8).  Models whose loop already closes
    after a single zone have nothing to split and raise ``ValueError``.
    """
    gauge = Gauge(gauge)
    traj = loop_period(model, grid_size=grid_size, gauge=gauge)
    if abs(traj.period - 4.0 * np.pi) > traj.step:
        raise ValueError(
            f"split_check needs a two-zone loop; {model.label} closes "
            f"after {traj.period / np.pi:.3g} pi")
    f = _connection_samples(traj, derivative)
    m = f.size
    half = m // 2
    dk = traj.step
    first = dk * (0.5 * f[0] + np.sum(f[1:half]) + 0.5 * f[half])
    second = dk * (0.5 * f[half] + np.sum(f[half + 1:]) + 0.5 * f[0])
    w1 = complex(-1j * first / np.pi)
    w2 = complex(-1j * second / np.pi)
    total = w1 + w2
    w_loop = winding_number(_loop_phase(f, dk))
    if abs(total - w_loop) > 1e-8:
        raise RuntimeError(
            f"half windings sum to {total:.3e} but the loop gives "
            f"{w_loop:.3e}; inconsistent connection data")
    if traj.start_band is Band.PLUS:
        return SplitWindings(w1, w2, total)
    return SplitWindings(w2, w1, total)


@dataclass(frozen=True)
class WindingReport:
    """Aggregated loop result with its quantization contract.

    For a closed loop the winding must be real and near-integer;
    construction enforces both to 1e-6 and refuses to represent
    anything else.  ``w_plus``/``w_minus`` are the optional per-band
    single-zone windings (gauge dependent, unlike ``w``).
    """

    model_label: str
    gauge: Gauge
    grid_size: int
    period: float
    raw_integral: complex
    gamma_b: complex
    w: complex
    lee_normalization: float | None = None
    w_lee: complex | None = None
    w_plus: complex | None = None
    w_minus: complex | None = None

    def __post_init__(self) -> None:
        if abs(self.w.imag) > 1e-6:
            raise ValueError(
                f"loop winding has imaginary part {self.w.imag:.3e}")
        if abs(self.w.real - round(self.w.real)) > 1e-6:
            raise ValueError(
                f"loop winding {self.w.real!r} is not near-integer")


def winding_report(model: BlochModel, gauge: Gauge = Gauge.TRANSPOSE,
                   grid_size: int = 8192,
                   lee_normalization: float | None = None,
                   derivative: str = "analytic",
                   with_bands: bool = False) -> WindingReport:
    """Track the loop, integrate, and assemble a validated report.

    With ``with_bands`` the report also carries the two single-zone
    band windings (independent quadratures, not halves of the loop).
    """
    gauge = Gauge(gauge)
    traj = loop_period(model, grid_size=grid_size, gauge=gauge)
    gamma_b = berry_phase(traj, derivative=derivative)
    w = winding_number(gamma_b)
    w_lee = None
    if lee_normalization is not None:
        w_lee = _per_zone(w, lee_normalization)
    w_plus = w_minus = None
    if with_bands:
        w_plus = band_winding(model, Band.PLUS, gauge, grid_size, derivative)
        w_minus = band_winding(model, Band.MINUS, gauge, grid_size,
                               derivative)
    return WindingReport(
        model_label=model.label, gauge=gauge, grid_size=grid_size,
        period=traj.period, raw_integral=-1j * gamma_b, gamma_b=gamma_b,
        w=w, lee_normalization=lee_normalization, w_lee=w_lee,
        w_plus=w_plus, w_minus=w_minus)
