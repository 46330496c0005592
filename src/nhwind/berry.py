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
it (roots, eigenvectors and the exceptional-point ratio) is
:mod:`nhwind.bloch`'s, the same one :func:`~nhwind.bloch.eig2` uses.
The analytic ``d u / d k`` is first-order perturbation theory in one
line: with ``c . u = 1`` the derivative lies along ``(-c[1], c[0])``,
and its size is ``(u~ . h' . u) / (E - E_other)`` with the other
branch's left vector ``u~ = (-u[1], u[0])`` (:func:`_analytic_du`).
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

Continuity is a rule on the splitting ``E1 - E2 = 2 sqrt(D)`` alone,
with the discriminant ``D = ((a - d)/2)^2 + b c`` of :mod:`nhwind.bloch`:
the tracked branch is ``tr(h)/2 + sqrt(D)`` continued analytically
along k (:func:`_turns`), so a scalar term ``f(k) * 1`` in ``h(k)``
never moves it.  The tracker (:func:`_track_branches`) returns which
root each sample is on, ``e1 = m + sqrt(D)`` or its trace partner
``e2``; the tracked energies and vectors are both selected from that
one mask.  A tie of the rule (a right-angle turn or a vanishing
splitting) leaves the continuation unresolved by the grid, and the
tracker refuses it with :class:`AmbiguousTracking`.  The braid is the
half-integer phase winding of ``sqrt(D)`` over a zone, the "energy
vorticity" of Shen, Zhen & Fu, PRL 120, 146402 (2018): the continued
splitting flips sign an odd number of times over one zone.
:func:`loop_period` reads the period from that parity before it tracks
anything and tracks the loop once over that period;
:class:`LoopTrajectory`, the record it returns, judges closure as a
validation of that loop.

Per-band segment integrals over a single Brillouin zone
(:func:`band_winding`) and the two halves of a braided loop
(:func:`split_check`) use the same orientation map ``w = -i I / pi``,
so the two halves of a 4 pi loop sum exactly to the full loop winding.

Connections in a gauge with a fixed spinor can develop poles where
``c . r`` crosses zero between grid points, and the transpose pairing
can pass through zero the same way; near an exceptional point the
connection also peaks sharply enough for a coarse grid to miss.  When a
single grid sample contributes more than 0.5 to the integral,
:class:`~nhwind.bloch.GaugeSingular` is raised rather than returning
grid-dependent junk; the guard stays on in every gauge.
On a real-symmetric loop such as the Hermitian topological chain each
real eigenvector component has a genuine zero, so ``first``,
``second`` and ``transpose`` all meet such a pole.  The smooth gauge
(:attr:`~nhwind.bloch.Gauge.SMOOTH`, the default of :func:`loop_period`)
pins ``c . u = 1`` for a reference spinor ``c`` chosen to stay away from
zero along the whole tracked branch, and integrates through.  Changing
``c`` can shift the integer loop winding by an even number; only
``w mod 2`` is gauge invariant.  Every :class:`LoopTrajectory` records
the ``c`` it was pinned with as its ``reference``, the convention that
fixes ``w`` itself; in the smooth gauge the fixed candidate order
picks it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .bloch import (_GAUGES, DEFECTIVE_TOL, BlochModel, Defective, Gauge,
                    GaugeSingular, _adopt, _dot, _eigenvectors, _fix_gauge,
                    _project, _roots, _self_orthogonal, hk, hk_derivative)

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
# A step whose splitting turn Re(s_j conj(s_{j-1})) is within this
# fraction of |s_j| |s_{j-1}| of zero is a tie, which tracking refuses.
TIE_TOL = 1e-10
# A closed-loop winding counts as an integer when its imaginary part and
# its distance to the nearest integer are both within this bound.
INTEGER_TOL = 1e-6
# A single sample contributing more than this to the connection integral
# means a pole sits between grid points.
POLE_TOL = 0.5
# How the connection takes d u / d k (:func:`_analytic_du`), recorded in
# the command line's loop metadata.
DERIVATIVE = "analytic"


class Band(IntEnum):
    """Which of the two energy branches tracking starts on.

    ``PLUS`` is the branch of the principal square root at k = 0,
    ``MINUS`` the other.  Members compare equal to the integers +1 and
    -1, and every op taking a band accepts those integers directly.
    """

    PLUS = +1
    MINUS = -1


class AmbiguousTracking(RuntimeError):
    """Branch continuation cannot be decided: a sample is scalar, or the
    eigenvalue splitting turns by a right angle (or vanishes) between
    two samples, which the grid does not resolve."""


class NoClosure(RuntimeError):
    """The tracked branch fails to return to its starting state over
    the period its splitting's parity gives.  :class:`LoopTrajectory`
    raises it, on the ``closure_error`` it is given."""


def _turns(split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuity rule of a branch splitting, per step ``j - 1 -> j``.

    ``split`` holds ``s = E1 - E2 = 2 sqrt(D)``, or ``sqrt(D)`` itself
    (the rule is scale free), at each sample in some labeling.  The
    continuation of ``s_{j-1}`` is whichever of ``+-s_j`` it turns
    toward, decided by the sign of
    ``turn = Re(s_j conj(s_{j-1}))``: the analytic continuation of
    ``sqrt(D)``, the same as ``unwrap(angle D) / 2``.  The mean energy
    never enters.  Returns ``(flip, tie)``, one entry per step: ``flip``
    where the turn is decisively negative (the branches swap labels),
    ``tie`` where ``|turn| <= TIE_TOL |s_j| |s_{j-1}|``, a right-angle
    turn or a vanishing splitting, which the rule cannot decide.
    """
    turn = (split[1:] * np.conj(split[:-1])).real
    margin = TIE_TOL * abs(split[1:]) * abs(split[:-1])
    return turn < -margin, abs(turn) <= margin


def _track_branches(s: np.ndarray, band: int) -> np.ndarray:
    """Follow one branch through the samples by continuity.

    ``s`` holds the half splitting ``sqrt(D)`` of the two closed-form
    roots ``e1`` and ``e2`` at each momentum, as
    :func:`~nhwind.bloch._roots` returns them.  Tracking starts on
    ``e1`` for ``Band.PLUS`` and on ``e2`` for ``Band.MINUS`` and
    continues ``s`` by :func:`_turns`.  The first tie raises
    :class:`AmbiguousTracking` naming its step: the splitting turns by
    a right angle or vanishes there, and the grid does not resolve
    which way the branch continues.

    Returns ``on2``: per sample, whether the branch sits on ``e2``.
    """
    flip, tie = _turns(s)
    if np.any(tie):
        j = int(np.argmax(tie)) + 1
        raise AmbiguousTracking(
            f"splitting tie at step {j} (samples {j - 1} to {j}): the "
            f"splitting turns by a right angle or vanishes, and the grid "
            f"does not resolve the continuation there")
    return np.logical_xor.accumulate(np.r_[Band(band) is Band.MINUS, flip])


def _braids(s: np.ndarray) -> bool:
    """Whether the branches swap over the zone sampled inclusively by
    the half splitting ``s``: ``s``, continued by :func:`_turns` over
    the zone and then across the wrap from ``k = 2 pi`` back to
    ``k = 0``, flips sign decisively.  A tie anywhere on the way answers
    ``False``, so the zone is tracked as it is and the tracker refuses
    the tie.
    """
    flip, tie = _turns(s)
    end = -s[-1] if np.count_nonzero(flip) % 2 else s[-1]
    wrap_flip, _ = _turns(np.array([s[0], end]))
    return not np.any(tie) and bool(wrap_flip[0])


def _tracked_segment(model: BlochModel, k_inc: np.ndarray, gauge: Gauge,
                     start_band: Band, samples: tuple | None = None):
    """Track one branch over an inclusive momentum grid.

    Shared front end of the loop and segment integrators: takes the
    samples ``(h, e1, e2, s)`` on ``k_inc``, the Hamiltonian and its
    :func:`~nhwind.bloch._roots` (evaluated here unless given), applies
    the closed form's rule of :func:`~nhwind.bloch._eigenvectors` (a
    scalar sample raises :class:`AmbiguousTracking`, an exceptional
    point :class:`~nhwind.bloch.Defective` naming its ``k``), tracks the
    branch by the splitting alone (a tie raises
    :class:`AmbiguousTracking`) and fixes the gauge on the tracked
    branch.  Returns
    ``(tracked, other, u, l, c)``: the energies of both branches, the
    gauge-fixed right and left vectors of the tracked one (see
    :func:`nhwind.bloch._fix_gauge`), component-major, and the spinor
    ``c`` with ``c @ u = 1``, chosen over the tracked branch in the
    smooth gauge.
    """
    if samples is None:
        h = hk(model, k_inc)
        samples = (h, *_roots(h))
    h, e1, e2, s = samples
    r1, r2, ratio = _eigenvectors(h, e1, e2, s)
    # Both checks run on the raw (untracked) root pair, symmetric in the
    # branches, before tracking can trip over a degenerate tie.
    if np.any(np.isnan(ratio)):
        raise AmbiguousTracking(
            "scalar Hamiltonian sample on the loop: branches carry no "
            "eigenvector identity to track")
    bad = ratio < DEFECTIVE_TOL
    if np.any(bad):
        j = int(np.argmax(bad))
        raise Defective(
            f"non-diagonalizable point near k = {float(k_inc[j]):.6f} "
            f"(singular-value ratio {float(ratio[j]):.2e})")
    try:
        on2 = _track_branches(s, start_band)
    except AmbiguousTracking as exc:
        raise AmbiguousTracking(f"{exc} (of {k_inc.size} samples on "
                                f"[0, {k_inc[-1]:.6f}])") from exc
    u, l, c = _fix_gauge(np.where(on2, r2, r1), np.where(on2, r1, r2), gauge)
    return np.where(on2, e2, e1), np.where(on2, e1, e2), u, l, c


@dataclass(frozen=True)
class LoopTrajectory:
    """One spectral branch tracked around its full closed loop.

    Samples live on the half-open interval ``[0, period)`` with uniform
    spacing; the state at ``period`` equals the state at ``0`` within
    ``CLOSURE_TOL`` (that mismatch is recorded as ``closure_error``).
    ``states`` holds the gauge-fixed right vectors and ``left_states``
    their left partners: rows of the inverse eigenvector matrix in the
    gauges with inverse pairing, the right vectors themselves in the
    transpose gauge.  ``reference`` is the spinor ``c`` the gauge
    pinned, ``c @ u = 1`` at every sample: ``e1`` in ``first`` and
    ``transpose``, ``e2`` in ``second``, the picked candidate in
    ``smooth``.  It names the convention that fixes the winding ``w``,
    which a different ``c`` can shift by an even number.  The state
    arrays have shape ``(m, 2)``; the loop stores them as transposed
    views of component-major ``(2, m)`` arrays, so ``states.T[0]`` and
    ``states.T[1]`` are contiguous.  Construction validates closure
    first: a ``closure_error`` above ``CLOSURE_TOL`` raises
    :class:`NoClosure` naming the model and the period, and this record
    is the one place that judges it.  It then re-validates continuity
    (no step flips the splitting ``energies - energies_other``, the
    tracking rule of :func:`_turns`), the left/right pairing rule of
    the gauge (a self-orthogonal transpose pairing, by
    :func:`~nhwind.bloch._self_orthogonal`, raises
    :class:`~nhwind.bloch.GaugeSingular`) and the normalization
    ``c @ u = 1`` for the recorded 2-vector ``reference`` in every
    gauge; violations raise ``ValueError``.  A record of sampled arrays
    adopts the arrays it is given: a valid construction stores them
    without a copy where the dtype already matches (``float`` for
    ``k_grid``, ``complex`` for the rest) and makes them read-only, and
    a refused one leaves them writeable.
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
    reference: np.ndarray

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
        if not (np.isfinite(self.closure_error)
                and self.closure_error >= 0.0):
            raise ValueError("closure_error must be a non-negative number")
        if self.closure_error > CLOSURE_TOL:
            raise NoClosure(
                f"branch of {self.model.label} fails to close over its "
                f"{self.period / np.pi:.3g} pi period (final mismatch "
                f"{self.closure_error:.3e})")
        # Continuity by the tracking rule: no step, the wrap back to
        # k = 0 included, may flip the splitting or tie (a zero
        # splitting ties both of its steps).
        split = e_t - e_o
        flip, tie = _turns(np.append(split, split[0]))
        if np.any(flip | tie):
            raise ValueError("stored samples are not a continuously "
                             "tracked branch")
        if _GAUGES[self.gauge][1]:
            if not np.array_equal(l, u):
                raise ValueError("transpose-gauge loops store left_states "
                                 "equal to states verbatim")
            if np.any(_self_orthogonal(u.T)):
                raise GaugeSingular(
                    f"gauge {self.gauge.value!r}: stored loop contains a "
                    f"self-orthogonal transpose pairing")
        elif np.max(np.abs(_dot(l.T, u.T) - 1.0)) > 1e-9:
            raise ValueError("stored left/right pairs are not "
                             "biorthonormalized")
        if np.shape(self.reference) != (2,):
            raise ValueError("loops record their reference spinor c as a "
                             "2-vector")
        c = np.asarray(self.reference, dtype=complex)
        if np.max(np.abs(_project(c, u.T) - 1.0)) > 1e-9:
            raise ValueError("stored states are not normalized to "
                             "c @ u = 1")
        _adopt(self, "k_grid", dtype=float)
        _adopt(self, "energies", "energies_other", "states", "left_states",
               "reference", dtype=complex)

    @property
    def grid_size(self) -> int:
        """Samples per single Brillouin zone."""
        return int(round(self.k_grid.size * 2.0 * np.pi / self.period))

    @property
    def step(self) -> float:
        return self.period / self.k_grid.size


def _zone_step(grid_size: int, name: str = "grid_size") -> float:
    """Momentum step of a zone of ``grid_size`` samples, which must be
    even and at least 64; the refusal calls the value ``name``."""
    if grid_size < 64 or grid_size % 2:
        raise ValueError(f"{name} must be even and >= 64, got {grid_size}")
    return 2.0 * np.pi / grid_size


def loop_period(model: BlochModel, grid_size: int = 8192,
                gauge: Gauge = Gauge.SMOOTH,
                start_band: Band = Band.PLUS) -> LoopTrajectory:
    """Track one branch until it closes; return the full loop.

    The period comes from the parity of the splitting ``E1 - E2 =
    2 sqrt(D)`` over one Brillouin zone: continued by :func:`_turns`,
    it ends the zone with the sign it started with (period 2 pi) or the
    opposite one (4 pi, the branches braid).  The branch is tracked
    exactly once: over the two-zone grid when the parity is decisively
    odd (no tie in the zone, a wrap turn beyond the tie margin), else
    over the zone-one samples the parity read already holds, where a
    scalar sample, an exceptional point and then a tie meet the
    tracker's checks in that order.  The detected period is the
    ``period`` field of the returned trajectory.  ``grid_size`` is the
    number of samples per Brillouin zone and must be even and at least
    64.  The trajectory records the gauge's spinor ``c`` as its
    ``reference``.  The default gauge is the smooth one, which picks
    ``c`` over the tracked samples; it integrates loops such as the
    Hermitian topological chain on which every component gauge has a
    pole.  This function measures closure, the mismatch of the energy
    and the gauge-fixed state ``u`` at the period, as ``closure_error``,
    and the returned :class:`LoopTrajectory` judges it: the record
    raises :class:`NoClosure` if the state does not return over that
    period.  Raises :class:`AmbiguousTracking` on a scalar sample or a
    splitting tie, and :class:`~nhwind.bloch.Defective` /
    :class:`~nhwind.bloch.GaugeSingular` on per-sample pathologies.
    """
    step = _zone_step(grid_size)
    start_band = Band(start_band)
    gauge = Gauge(gauge)
    k_inc = np.arange(grid_size + 1) * step
    h = hk(model, k_inc)
    samples = (h, *_roots(h))
    # A braided zone ends on the other branch, so only two zones close.
    zones = 2 if _braids(samples[3]) else 1
    if zones == 2:
        k_inc = np.arange(2 * grid_size + 1) * step
        samples = None  # evaluated on the two-zone grid
    e_t, e_o, u, l, c = _tracked_segment(model, k_inc, gauge, start_band,
                                         samples)
    err_e = abs(e_t[-1] - e_t[0]) / max(1.0, abs(e_t[0]))
    err_u = (np.max(abs(u[:, -1] - u[:, 0]))
             / max(1.0, np.max(abs(u[:, 0]))))
    return LoopTrajectory(
        model=model, gauge=gauge, start_band=start_band,
        period=zones * 2.0 * np.pi, k_grid=k_inc[:-1], energies=e_t[:-1],
        energies_other=e_o[:-1], states=u[:, :-1].T,
        left_states=l[:, :-1].T, closure_error=float(max(err_e, err_u)),
        reference=c)


def _analytic_du(dh: np.ndarray, u: np.ndarray, split: np.ndarray,
                 c: np.ndarray) -> np.ndarray:
    """d u / d k per sample in any gauge, component-major, from
    ``dh = d h / d k``, the gauge-fixed ``u``, the splitting ``split =
    E - E_other`` and the spinor ``c`` with ``c @ u = 1``.

    ``c @ du = 0`` puts ``du`` along ``(-c[1], c[0])``.  Differentiating
    ``(h - E) u = 0`` and projecting onto the other branch's left vector
    ``u~ = (-u[1], u[0])`` fixes its size, ``u~ @ du = (u~ @ dh @ u) /
    split``, and ``u~ @ (-c[1], c[0]) = c @ u = 1``.  A component that
    ``c`` pins sits where ``(-c[1], c[0])`` has a zero, so its
    derivative is exactly 0.
    """
    size = (u[0] * (dh[..., 1, 0] * u[0] + dh[..., 1, 1] * u[1])
            - u[1] * (dh[..., 0, 0] * u[0] + dh[..., 0, 1] * u[1])) / split
    return np.stack([-c[1] * size, c[0] * size])


def _connection_samples(traj: LoopTrajectory) -> np.ndarray:
    """Berry connection f(k) at every stored loop sample."""
    return _connection(traj.model, traj.k_grid,
                       traj.energies - traj.energies_other, traj.states.T,
                       traj.left_states.T, traj.reference, traj.step,
                       traj.gauge)


def _connection(model: BlochModel, k: np.ndarray, split: np.ndarray,
                u: np.ndarray, l: np.ndarray, c: np.ndarray, dk: float,
                gauge: Gauge) -> np.ndarray:
    """Berry connection ``f = (l @ du) / (l @ u)`` per sample of the
    component-major vectors at momenta ``k``, ``du`` by
    :func:`_analytic_du` from ``split = E - E_other`` and the spinor
    ``c``.  Refused with :class:`~nhwind.bloch.GaugeSingular` when one
    sample would contribute more than ``POLE_TOL`` to the integral over
    steps ``dk``.
    The refusal names both causes, since no gauge can tell them apart:
    a peak near an exceptional point that the grid under-resolves,
    which a finer grid resolves, or a pinned spinor that vanishes
    between samples: in a component gauge a pinned component that
    crosses zero, which the smooth gauge integrates through, in the
    smooth gauge the reference spinor it picked.
    """
    du = _analytic_du(hk_derivative(model, k), u, split, c)
    f = _dot(l, du) / _dot(l, u)
    worst = float(np.max(np.abs(f))) * dk
    if not np.isfinite(worst) or worst > POLE_TOL:
        vanishing = ("the picked reference spinor vanishes between samples"
                     if gauge is Gauge.SMOOTH else
                     "a pinned component crosses zero there (the library's "
                     "smooth gauge integrates through it)")
        raise GaugeSingular(
            f"connection pole between grid points: one sample "
            f"contributes {worst:.3g} to the integral; either {vanishing} "
            f"or a peak near an exceptional point is under-resolved (a "
            f"finer grid resolves it)")
    return f


def berry_phase(traj: LoopTrajectory) -> complex:
    """Loop Berry phase ``gamma_b = -i * forward connection integral``.

    Uses the periodic trapezoid rule (a plain sample mean times the
    period) on the closed loop.  The derivative ``d u / d k`` is
    first-order perturbation theory on the stored states, splitting and
    spinor (:func:`_analytic_du`), the same formula in every gauge; it
    needs ``dh/dk`` and no ``h``.  The connection divides by the stored
    left/right pairing, so the transpose gauge needs no extra
    normalization step.
    """
    return _loop_phase(_connection_samples(traj), traj.step)


def _loop_phase(f: np.ndarray, dk: float) -> complex:
    """``gamma_b`` from the connection samples of a closed loop."""
    return -1j * (dk * complex(np.sum(f)))


def winding_number(gamma_b: complex) -> complex:
    """Loop winding ``w = gamma_b / pi``; near-integer for closed loops."""
    return complex(gamma_b) / np.pi


def winding_lee(traj: LoopTrajectory, lee_normalization: float) -> complex:
    """Loop winding divided by a per-Brillouin-zone normalization.

    Computes ``winding_number(berry_phase(traj)) / lee_normalization``.
    Normalizing per zone instead of per loop yields fractional counts
    whenever the true closure period is not ``2 pi * lee_normalization``;
    this op exists to make that mismatch explicit.
    """
    _check_normalization(lee_normalization)
    return winding_number(berry_phase(traj)) / lee_normalization


def _check_normalization(value: float, name: str = "lee_normalization"):
    """Refuse a zero or non-finite normalization ``value``, calling it
    ``name``."""
    if value == 0 or not np.isfinite(value):
        raise ValueError(f"{name} must be finite and nonzero, got {value!r}")


def band_winding(model: BlochModel, band: Band = Band.PLUS,
                 gauge: Gauge = Gauge.TRANSPOSE, grid_size: int = 8192,
                 ) -> complex:
    """Single-zone segment winding ``w_b = -i/pi * integral over [0, 2 pi]``.

    The segment is traversed forward along one tracked branch and makes
    no closure claim: on a braided loop it starts on one branch and
    ends on the other.  Endpoints get half weight (ordinary trapezoid).
    The value is NOT gauge invariant; only the sum over both bands is.
    """
    step = _zone_step(grid_size)
    band = Band(band)
    gauge = Gauge(gauge)
    k_inc = np.arange(grid_size + 1) * step
    e_t, e_o, u, l, c = _tracked_segment(model, k_inc, gauge, band)
    return _segment_winding(
        _connection(model, k_inc, e_t - e_o, u, l, c, step, gauge), step)


def _segment_winding(f: np.ndarray, dk: float) -> complex:
    """``w = -i/pi * integral`` of the connection samples ``f`` of an
    open segment: the trapezoid rule, endpoints at half weight."""
    integral = dk * (0.5 * f[0] + np.sum(f[1:-1]) + 0.5 * f[-1])
    return complex(-1j * integral / np.pi)


@dataclass(frozen=True)
class SplitWindings:
    """The two single-zone halves of a braided loop and their sum."""

    w_plus: complex
    w_minus: complex
    total: complex


def split_check(model: BlochModel, gauge: Gauge = Gauge.TRANSPOSE,
                grid_size: int = 8192) -> SplitWindings:
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
    f = _connection_samples(traj)
    half = f.size // 2
    dk = traj.step
    w1 = _segment_winding(f[:half + 1], dk)
    w2 = _segment_winding(np.append(f[half:], f[0]), dk)
    total = w1 + w2
    w_loop = winding_number(_loop_phase(f, dk))
    if abs(total - w_loop) > 1e-8:
        raise RuntimeError(
            f"half windings sum to {total:.3e} but the loop gives "
            f"{w_loop:.3e}; inconsistent connection data")
    return SplitWindings(w1, w2, total)


@dataclass(frozen=True)
class WindingReport:
    """Aggregated loop result with its quantization contract.

    For a closed loop the winding must be real and near-integer;
    construction enforces both to ``INTEGER_TOL`` and refuses to represent
    anything else.  ``w_plus``/``w_minus`` are the optional per-band
    single-zone windings (gauge dependent, unlike ``w``).  The refusal
    is a ``ValueError`` that names the grid: a quadrature too coarse for
    the loop (grid 128 on ``lee(0.8, 0.5, 0.5)``) is its usual cause.
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
        hint = (f"at grid {self.grid_size}: the quadrature is too coarse; "
                f"a finer --grid resolves it")
        if abs(self.w.imag) > INTEGER_TOL:
            raise ValueError(f"loop winding has imaginary part "
                             f"{self.w.imag:.3e} {hint}")
        if abs(self.w.real - round(self.w.real)) > INTEGER_TOL:
            raise ValueError(f"loop winding {self.w.real!r} is not "
                             f"near-integer {hint}")


def winding_report(model: BlochModel, gauge: Gauge = Gauge.TRANSPOSE,
                   grid_size: int = 8192,
                   lee_normalization: float | None = None,
                   with_bands: bool = False) -> WindingReport:
    """Track the loop, integrate, and assemble a validated report.

    With ``with_bands`` the report also carries the two single-zone
    band windings (independent quadratures, not halves of the loop).
    """
    gauge = Gauge(gauge)
    if lee_normalization is not None:
        _check_normalization(lee_normalization)
    traj = loop_period(model, grid_size=grid_size, gauge=gauge)
    gamma_b = berry_phase(traj)
    w = winding_number(gamma_b)
    w_lee = None if lee_normalization is None else w / lee_normalization
    w_plus = w_minus = None
    if with_bands:
        w_plus, w_minus = (band_winding(model, band, gauge, grid_size)
                           for band in Band)
    return WindingReport(
        model_label=model.label, gauge=gauge, grid_size=grid_size,
        period=traj.period, raw_integral=-1j * gamma_b, gamma_b=gamma_b,
        w=w, lee_normalization=lee_normalization, w_lee=w_lee,
        w_plus=w_plus, w_minus=w_minus)
