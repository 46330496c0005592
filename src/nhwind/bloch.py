"""Two-band Bloch Hamiltonians with nearest-cell hopping.

A model is the triple of 2x2 hopping blocks ``(hop_minus, hop_zero,
hop_plus)`` defining the momentum-space Hamiltonian

    h(k) = hop_minus * exp(-i k) + hop_zero + hop_plus * exp(+i k).

The blocks may be non-Hermitian, so left and right eigenvectors differ
and the spectrum is generally complex.  Everything downstream (Berry
phases, winding numbers, finite chains) is built on the closed-form
2x2 eigensystem held here: the roots ``m +- sqrt(D)`` with
``m = tr(h)/2`` and the discriminant ``D = ((a - d)/2)^2 + b c``, the
unit eigenvector (the longer of the row null vectors
``(b, +-sqrt(D) - (a - d)/2)`` and ``(+-sqrt(D) + (a - d)/2, c)`` of
``h - E``, built from the same root and scaled to unit norm) and the
parallelism ratio that detects an exceptional point.  Neither the roots
nor the vectors subtract the mean energy ``m`` back out, so a splitting
far below ``|m|`` keeps its digits in both.
Each is written once, vectorized over any leading shape.  One kernel,
:func:`_eigenvectors`, decides which samples the closed form serves: a
scalar sample has no eigenvector identity, and one whose eigenvectors
are parallel to within ``DEFECTIVE_TOL`` is an exceptional point.
:func:`eig2` applies that rule to a single matrix, :mod:`nhwind.berry`
to a whole sampled loop and :mod:`nhwind.lattice` to the momenta of a
periodic chain.

The kernels work on contiguous entry planes.  :func:`hk` and
:func:`hk_derivative` fill a ``(2, 2) + k.shape`` array entry by entry
and return it with the matrix axes moved last, so the public shape is
``k.shape + (2, 2)`` as ever while each entry ``h[..., i, j]`` is one
contiguous array over the samples.  A batch of spinors is held
component-major, shape ``(2,) + batch``, so ``u[0]`` and ``u[1]`` are
contiguous too.  Every operation then runs one loop over the samples
instead of a loop of length 2 or 4 per sample.

Eigenvectors are fixed in an explicit gauge rather than by norm.  Every
gauge pins ``c . u = 1`` for a reference spinor ``c``, by dividing the
unit eigenvector ``u^`` by ``c . u^``, and pairs ``u`` with a left
vector by one of two rules; the gauges differ only in that data (see
:class:`Gauge`).  A gauge with a single pinned spinor breaks
down at isolated momenta where ``c . r`` vanishes for the right
eigenvector ``r``; those points are reported as :class:`GaugeSingular`
instead of being smoothed over.  The smooth gauge chooses ``c`` from a
small fixed set so that it stays away from zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BlochModel",
    "EigenSystem2",
    "Gauge",
    "GaugeSingular",
    "Defective",
    "lee",
    "demo",
    "hk",
    "hk_derivative",
    "eig2",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Relative threshold below which a fixed gauge component counts as zero.
GAUGE_TOL = 1e-12
# Candidate reference spinors of the smooth gauge, in tie-break order:
# e1, e2, (1, i), (1, -i), (1, 1), (1, -1), each of unit norm.
REFERENCE_SPINORS = np.array(
    [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0j], [1.0, -1.0j], [1.0, 1.0],
     [1.0, -1.0]], dtype=complex)
REFERENCE_SPINORS[2:] /= np.sqrt(2.0)
REFERENCE_SPINORS.setflags(write=False)
# Candidate scores within this relative distance of the best one tie,
# and the earliest tied candidate wins.  Exact ties (e1 and e2 on demo,
# (1, i) and (1, -i) on real loops) split by an ulp in float64.
REFERENCE_TIE_TOL = 1e-9
# Threshold on the singular-value ratio of the eigenvector matrix below
# which the two branches are declared parallel (exceptional point).  An
# exceptional point sitting exactly on a sample is smeared by float
# rounding into a splitting of order sqrt(eps) ~ 1.5e-8, so any
# eigenvector pair closer than ~10x that floor is indistinguishable
# from a genuinely defective sample.
DEFECTIVE_TOL = 1e-7


class GaugeSingular(RuntimeError):
    """A gauge cannot be imposed at this momentum.

    Raised when the spinor a gauge pins ``c . u = 1`` with vanishes on a
    state (in the smooth gauge: when every candidate does), when the
    transpose pairing ``u^T u`` vanishes (self-orthogonal state), or
    when a Berry connection develops a pole between grid points.
    The message names the gauge and which of these causes applies.
    """


class Defective(RuntimeError):
    """The two eigenvectors coincide (exceptional point), so no
    biorthogonal pair of bands exists at this momentum."""


class Gauge(Enum):
    """Eigenvector normalization conventions.

    A gauge is a row of data: the reference spinors ``c`` it may pin
    ``c . u = 1`` with (bilinear, unconjugated product, so the right
    vector is ``u = r / (c . r)`` for any right eigenvector ``r``), and
    the rule that pairs ``u`` with its left vector ``l``:

    =========================  =====================  =========
    gauge                      reference spinors      pairing
    =========================  =====================  =========
    ``FIRST_COMPONENT_ONE``    ``e1``                 inverse
    ``SECOND_COMPONENT_ONE``   ``e2``                 inverse
    ``TRANSPOSE``              ``e1``                 transpose
    ``SMOOTH``                 ``REFERENCE_SPINORS``  inverse
    =========================  =====================  =========

    So ``first`` gives ``u = (1, psi)``, ``second`` gives
    ``u = (phi, 1)`` and ``transpose`` again ``u = (1, psi)``.

    *Inverse* pairing takes ``l`` as the row of the inverse eigenvector
    matrix, so ``l @ u = 1`` biorthogonally.  *Transpose* pairing takes
    ``l = u^T`` verbatim (no conjugate, no rescaling), so ``l @ u =
    u^T u`` is not 1 and every pairing-normalized quantity must divide
    by it explicitly.  ``u^T`` is a true left eigenvector only for
    complex-symmetric ``h``; the pairing can also vanish outright
    (self-orthogonal state), which raises :class:`GaugeSingular`.

    A gauge with several candidates picks the first of them (for
    ``SMOOTH``: e1, e2, (1, i), (1, -i), (1, 1), (1, -1), normalized)
    that maximizes the smallest ``|c . r|`` over the unit right vectors
    ``r`` it must normalize, with scores within a relative
    ``REFERENCE_TIE_TOL`` counted as ties; where ``e1`` wins it equals
    ``FIRST_COMPONENT_ONE``.  The smooth gauge stays regular where a
    real eigenvector component passes through zero (the Hermitian
    topological chain), and raises :class:`GaugeSingular` only when
    every candidate vanishes somewhere.  A different ``c`` can shift a
    loop winding by an even integer, so only ``w mod 2`` is gauge
    invariant.  :class:`EigenSystem2` and
    :class:`~nhwind.berry.LoopTrajectory` record the ``c`` they were
    pinned with as their ``reference`` in every gauge: that is the
    convention that fixes ``w`` itself, and in ``SMOOTH`` the candidate
    order picks it.
    """

    FIRST_COMPONENT_ONE = "first"
    SECOND_COMPONENT_ONE = "second"
    TRANSPOSE = "transpose"
    SMOOTH = "smooth"


# The gauges as data: (reference spinor candidates, transpose pairing).
_GAUGES = {
    Gauge.FIRST_COMPONENT_ONE: (REFERENCE_SPINORS[:1], False),
    Gauge.SECOND_COMPONENT_ONE: (REFERENCE_SPINORS[1:2], False),
    Gauge.TRANSPOSE: (REFERENCE_SPINORS[:1], True),
    Gauge.SMOOTH: (REFERENCE_SPINORS, False),
}


def _reference_spinor(unit: np.ndarray, candidates: np.ndarray,
                      ) -> np.ndarray:
    """Reference spinor for a set of unit right vectors.

    ``unit`` holds one vector per row, shape ``(..., 2)`` (the transpose
    of a component-major batch).  Returns the row of ``candidates``
    with the largest ``min |c . unit|`` (earliest wins among ties), or
    raises :class:`GaugeSingular` when even that minimum is below
    ``GAUGE_TOL``.
    """
    unit = np.asarray(unit, dtype=complex).reshape(-1, 2)
    scores = np.min(np.abs(candidates @ unit.T), axis=1)
    best = float(np.max(scores))
    if best < GAUGE_TOL:
        what = ("its pinned spinor vanishes" if len(candidates) == 1
                else "every candidate reference spinor vanishes")
        raise GaugeSingular(f"{what} on these states (best smallest "
                            f"projection {best:.2e})")
    pick = int(np.argmax(scores >= best * (1.0 - REFERENCE_TIE_TOL)))
    return candidates[pick]


def _roots(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both eigenvalues of ``h`` (shape ``(..., 2, 2)``) in a fixed
    labeling, and the root they split by: ``m + s`` with ``m = tr(h)/2``
    and the principal root ``s = sqrt(D)`` of the discriminant
    ``D = ((a - d)/2)^2 + b c``, the trace partner ``tr(h) - (m + s)``,
    and ``s`` itself, which :func:`_unit_vectors` takes as ``+s`` and
    ``-s``.

    ``D`` equals ``m^2 - det h`` but never subtracts the two, so a
    splitting far below ``|m|`` keeps its digits.  The splitting
    ``E1 - E2`` is ``2 sqrt(D)``, and its continuation along a path is
    what :mod:`nhwind.berry` tracks.
    """
    a, b = h[..., 0, 0], h[..., 0, 1]
    c, d = h[..., 1, 0], h[..., 1, 1]
    m = 0.5 * (a + d)
    half_gap = 0.5 * (a - d)
    s = np.sqrt(half_gap * half_gap + b * c)
    e1 = m + s
    e2 = (a + d) - e1
    return e1, e2, s


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear ``u . v`` per sample of two component-major batches.

    ``einsum`` forms the products in its own scalar arithmetic, the
    same as the per-sample ``einsum("...i,...i")`` it replaces, so the
    results keep their last bits.
    """
    return np.einsum("i...,i...->...", u, v)


def _project(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear ``c . v`` of one spinor ``c`` with each sample of the
    component-major ``v``.

    Written out rather than as ``c @ v``: the elementwise products equal
    the per-sample ``v.T @ c`` bit for bit, and a BLAS matrix-vector
    product does not.
    """
    return c[0] * v[0] + c[1] * v[1]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm per sample of the component-major ``v``, in the
    arithmetic of ``np.linalg.norm(..., axis=-1)``."""
    return np.sqrt(np.sum((v.conj() * v).real, axis=0))


def _unit_vectors(h: np.ndarray, root: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unit right eigenvectors of ``h`` (component-major) at the
    eigenvalues ``m + root``, where ``root`` is ``+s`` or ``-s`` of
    :func:`_roots` per sample, and the norm they were scaled from.

    The vector is the longer of the row null vectors
    ``(b, root - (a - d)/2)`` and ``(root + (a - d)/2, c)`` of
    ``h - E``: these are ``(b, E - a)`` and ``(E - d, c)`` with the mean
    energy ``m`` taken out analytically, so a splitting far below
    ``|m|`` keeps its digits.  At an eigenvalue the two rows are
    parallel, and at least one is nonzero unless ``h`` is scalar.  This
    is the one place an eigenvector is formed from ``h``; every gauge
    rescales the vector returned here.  A zero norm (scalar ``h``, or
    entries so small that their squares underflow) leaves a NaN or
    infinite vector behind, silently; :func:`_eigenvectors` flags
    those samples by the norm.
    """
    half_gap = 0.5 * (h[..., 0, 0] - h[..., 1, 1])
    r1 = np.stack([h[..., 0, 1], root - half_gap])
    r2 = np.stack([root + half_gap, h[..., 1, 0]])
    n1 = _norm(r1)
    n2 = _norm(r2)
    use1 = n1 >= n2
    norm = np.where(use1, n1, n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(use1, r1, r2) / norm
    return unit, norm


def _parallelism(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest-to-largest singular-value ratio of the matrix ``[u, v]``
    of component-major unit vectors, ``|det| / (1 + |u^H v|)``: 0 where
    the two branches coincide (exceptional point), 1 where they are
    orthogonal.
    """
    det = u[0] * v[1] - u[1] * v[0]
    return abs(det) / (1.0 + abs(_dot(u.conj(), v)))


def _eigenvectors(h: np.ndarray, e1: np.ndarray, e2: np.ndarray,
                  s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which samples the closed form serves, and its eigenvectors there.

    ``e1``, ``e2`` and ``s`` are the three arrays of :func:`_roots`.
    Returns ``(r1, r2, ratio)``: the unit right vectors of ``e1`` and
    ``e2`` (component-major, from :func:`_unit_vectors`) and their
    :func:`_parallelism` ratio per sample.  The ratio is NaN on a scalar
    sample, where a root's longer null row is at most
    ``1e-14 (|h|_F + |E|)``: its branches carry no eigenvector
    identity.  Below ``DEFECTIVE_TOL`` the sample is an exceptional
    point.  This is the one rule: :func:`eig2`, the loops of
    :mod:`nhwind.berry` and the periodic chains of
    :mod:`nhwind.lattice` all apply it.  A sample whose rows' squared
    entries underflow to 0 (entries below about 1e-154) counts as
    scalar too, so the verdict there is a float64 limit.  No finite
    sample raises a RuntimeWarning here unless those squares overflow
    (entries above about 1e154), where :func:`_roots` warns first.
    """
    scale = _norm(h.reshape(-1, 4).T)  # Frobenius norm of each sample
    r1, n1 = _unit_vectors(h, s)
    r2, n2 = _unit_vectors(h, -s)
    scalar = ((n1 <= 1e-14 * (scale + abs(e1)))
              | (n2 <= 1e-14 * (scale + abs(e2))))
    with np.errstate(invalid="ignore"):
        ratio = _parallelism(r1, r2)
    return r1, r2, np.where(scalar, np.nan, ratio)


def _pin(unit: np.ndarray, gauge: Gauge) -> tuple[np.ndarray, np.ndarray]:
    """Right eigenvectors ``u`` with ``c @ u = 1`` in ``gauge``, and ``c``.

    ``unit`` holds the eigenvectors at unit norm (component-major), as
    :func:`_unit_vectors` forms them.  ``c`` is picked from the gauge's
    candidates over them, which refuses a spinor that vanishes on any of
    them, and ``u = unit / (c @ unit)``.  The last step restores
    ``c @ u = 1`` to round-off, which keeps a pinned basis component
    exactly 1.
    """
    try:
        c = _reference_spinor(unit.T, _GAUGES[gauge][0])
    except GaugeSingular as exc:
        raise GaugeSingular(f"gauge {gauge.value!r}: {exc}") from exc
    u = unit / _project(c, unit)
    u += (1.0 - _project(c, u)) * c.conj()[:, None]
    return u, c


def _self_orthogonal(u: np.ndarray) -> np.ndarray:
    """Per sample of the component-major ``u``, whether its transpose
    pairing vanishes: ``|u^T u| < GAUGE_TOL (|u_0|^2 + |u_1|^2)``.

    The one test of a self-orthogonal state, for :func:`_fix_gauge` and
    for the stored loops of :class:`~nhwind.berry.LoopTrajectory`.
    """
    return abs(_dot(u, u)) < GAUGE_TOL * (abs(u[0]) ** 2 + abs(u[1]) ** 2)


def _fix_gauge(unit: np.ndarray, unit_other: np.ndarray, gauge: Gauge,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right vectors, left vectors and reference spinor in ``gauge``.

    ``unit`` and ``unit_other`` are the unit right eigenvectors of the
    branch to fix and of the other one, component-major ``(2, m)``.
    Returns ``(u, l, c)``, ``u`` and ``l`` component-major: ``u`` pinned
    by :func:`_pin`, and ``l`` either ``u`` itself (transpose pairing;
    :class:`GaugeSingular` if ``u^T u`` vanishes) or the adjugate row of
    ``[u, o]`` over its determinant, with ``o`` the other branch pinned
    as well (inverse pairing; :class:`Defective` if the determinant
    vanishes).
    """
    u, c = _pin(unit, gauge)
    if _GAUGES[gauge][1]:
        bad = _self_orthogonal(u)
        if np.any(bad):
            raise GaugeSingular(
                f"gauge {gauge.value!r}: self-orthogonal transpose "
                f"pairing u^T u = 0 at {int(np.count_nonzero(bad))} "
                f"state(s)")
        return u, u, c
    # o's scale cancels in l, but pinning it applies the gauge to the
    # other branch too: a component gauge refuses where its component
    # vanishes there, and the smooth gauge picks o's spinor over the
    # other branch itself.
    o = _pin(unit_other, gauge)[0]
    p, q = u[0] * o[1], o[0] * u[1]
    det = p - q
    if np.any(abs(det) < GAUGE_TOL * (abs(p) + abs(q))):
        raise Defective("right vectors of the two branches coincide")
    l = np.stack([o[1], -o[0]]) / det
    return u, l, c


def _locked(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy of ``a``.

    Records of 2x2 blocks and 2-vectors (:class:`BlochModel`,
    :class:`EigenSystem2`) copy what they are given: the copy is a few
    bytes, and the caller keeps a writeable array.
    """
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _adopt(record, *names: str, dtype=None) -> None:
    """Make the named array fields of the frozen ``record`` read-only
    in place.

    Records of sampled arrays (:class:`~nhwind.berry.LoopTrajectory`,
    and :class:`~nhwind.lattice.ChainSpectrum`,
    :class:`~nhwind.lattice.LocalizationProfile` and
    :class:`~nhwind.lattice.ScanRow`) adopt the arrays they are given:
    each field becomes ``np.asarray(value, dtype)``, which is the
    caller's array itself when its dtype already matches, and that
    array is locked.  Copying them instead would allocate every loop's
    trajectory twice.  A ``None`` field stays ``None``.  Records call
    this after validation, so a refused construction leaves the
    caller's arrays writeable.
    """
    for name in names:
        value = getattr(record, name)
        if value is not None:
            value = np.asarray(value, dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(record, name, value)


@dataclass(frozen=True)
class BlochModel:
    """Immutable two-band model given by its three hopping blocks.

    Like every record of 2x2 blocks and 2-vectors, it stores read-only
    complex copies, so the caller's arrays stay writeable and a later
    write to them leaves the model unchanged.
    """

    hop_minus: np.ndarray
    hop_zero: np.ndarray
    hop_plus: np.ndarray
    label: str = "custom"

    def __post_init__(self) -> None:
        for name in ("hop_minus", "hop_zero", "hop_plus"):
            block = _locked(getattr(self, name))
            if block.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {block.shape}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, block)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.hop_minus, self.hop_zero, self.hop_plus


def _check_finite(value: float, name: str) -> None:
    """Refuse a non-finite parameter with ``ValueError``, naming it
    ``name``: :func:`lee` passes its argument names, the command line
    its flags."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def lee(v: float = 0.52, r: float = 0.5, gamma: float = 1.0) -> BlochModel:
    """Non-Hermitian chain with asymmetric on-site gain/loss.

    The Bloch Hamiltonian is ``x(k) sigma_x + z(k) sigma_z`` with
    ``x = v + r cos k`` and ``z = r sin k + i gamma/2``.  For
    ``|v - r| < gamma/2 < v + r`` the two energy branches braid over one
    Brillouin zone and only close after two, which is the regime the
    default parameters sit in: there the discriminant
    ``x^2 + z^2 = (v - gamma/2 + r e^{ik}) (v + gamma/2 + r e^{-ik})``
    winds once around zero.
    """
    for name, value in (("v", v), ("r", r), ("gamma", gamma)):
        _check_finite(value, name)
    hop_zero = v * SIGMA_X + 0.5j * gamma * SIGMA_Z
    hop_plus = 0.5 * r * SIGMA_X - 0.5j * r * SIGMA_Z
    hop_minus = 0.5 * r * SIGMA_X + 0.5j * r * SIGMA_Z
    return BlochModel(hop_minus, hop_zero, hop_plus,
                      label=f"lee(v={v:g},r={r:g},gamma={gamma:g})")


def demo() -> BlochModel:
    """Hermitian dimerized chain used as a known-answer reference.

    ``h(k) = [[0, exp(-i k)], [exp(+i k), 0]]``: flat bands at +-1 and
    a quantized geometric phase of pi around the Brillouin zone.
    """
    hop_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    hop_plus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    hop_zero = np.zeros((2, 2), dtype=complex)
    return BlochModel(hop_minus, hop_zero, hop_plus, label="demo")


def _entry_planes(shape: tuple, terms) -> np.ndarray:
    """``sum_t phase_t * block_t`` over samples of the given ``shape``.

    ``terms`` pairs 1-d per-sample phases with 2x2 blocks; a phase
    after the first may also be a scalar, the same at every sample.
    Each entry ``(i, j)`` is filled as one contiguous plane over the
    samples, the sum running left to right as a sum of
    ``np.multiply.outer`` products would, and the ``(2, 2) + shape``
    array is returned with the matrix axes moved last.
    """
    (first, block), *rest = terms
    out = np.empty((2, 2, first.size), dtype=complex)
    for i in range(2):
        for j in range(2):
            plane = out[i, j]
            np.multiply(first, block[i, j], out=plane)
            for phase, other in rest:
                plane += phase * other[i, j]
    return np.moveaxis(out.reshape((2, 2) + shape), (0, 1), (-2, -1))


def hk(model: BlochModel, k) -> np.ndarray:
    """Bloch Hamiltonian at momentum ``k`` (scalar or array).

    Returns shape ``(2, 2)`` for scalar ``k`` and ``k.shape + (2, 2)``
    otherwise; each entry ``h[..., i, j]`` is contiguous over ``k``.
    """
    k = np.asarray(k, dtype=float)
    mm, m0, mp = model.blocks()
    phase = np.exp(1j * k.ravel())
    # The constant block is multiplied by 1.0, not added as it is: the
    # complex product keeps the signs of zero entries its outer product
    # with ones gave.
    return _entry_planes(k.shape, [(np.conj(phase), mm), (1.0, m0),
                                   (phase, mp)])


def hk_derivative(model: BlochModel, k) -> np.ndarray:
    """d h(k) / d k, same shape conventions as :func:`hk`."""
    k = np.asarray(k, dtype=float)
    mm, _, mp = model.blocks()
    phase = np.exp(1j * k.ravel())
    return _entry_planes(k.shape, [(-1j * np.conj(phase), mm),
                                   (1j * phase, mp)])


@dataclass(frozen=True)
class EigenSystem2:
    """Closed-form eigensystem of one 2x2 Hamiltonian.

    ``u_plus``/``u_minus`` are right eigenvectors in the requested
    gauge.  In the gauges with inverse pairing, ``l_plus``/``l_minus``
    are the rows of the inverse eigenvector matrix, so ``l @ u = 1`` on
    the same branch and ``l @ u = 0`` across branches.  In the
    transpose gauge ``l`` is the transpose of ``u`` verbatim and carries
    no normalization.  ``reference`` is the gauge's spinor ``c``, with
    ``c @ u = 1`` on both bands: ``e1`` in ``first`` and ``transpose``,
    ``e2`` in ``second``, the candidate picked for this matrix in
    ``smooth``.  The vectors are stored as read-only copies, like the
    blocks of :class:`BlochModel`.
    """

    e_plus: complex
    e_minus: complex
    u_plus: np.ndarray
    u_minus: np.ndarray
    l_plus: np.ndarray
    l_minus: np.ndarray
    gauge: Gauge
    reference: np.ndarray

    def __post_init__(self) -> None:
        for name in ("u_plus", "u_minus", "l_plus", "l_minus", "reference"):
            object.__setattr__(self, name, _locked(getattr(self, name)))

    def band(self, band: int) -> tuple[complex, np.ndarray, np.ndarray]:
        """(energy, right vector, left vector) for band +1 or -1."""
        if band == +1:
            return self.e_plus, self.u_plus, self.l_plus
        if band == -1:
            return self.e_minus, self.u_minus, self.l_minus
        raise ValueError(f"band must be +1 or -1, got {band!r}")


def eig2(h: np.ndarray, gauge: Gauge = Gauge.FIRST_COMPONENT_ONE) -> EigenSystem2:
    """Eigensystem of a single 2x2 Hamiltonian in an explicit gauge.

    Energies are ``m +- sqrt(D)`` with ``m = tr(h)/2`` and the
    cancellation-free discriminant ``D = ((a - d)/2)^2 + b c`` (principal
    root), bit for bit as a sampled loop gets them.  Which matrices the
    closed form serves is the rule of :func:`_eigenvectors`, the one
    that loops and periodic chains apply too.  A scalar matrix
    (degenerate but diagonalizable) gets sigma_x's unit eigenbasis,
    ``(1, +-1) / sqrt 2``; eigenvectors parallel to within
    ``DEFECTIVE_TOL`` (an exceptional point, on a sampling grid too)
    raise :class:`Defective` before any gauge normalization is
    attempted.  Both tests are relative, so the verdict does not change
    when ``h`` is scaled, down to entries whose squares underflow
    (below about 1e-154), which count as scalar.  A vanishing pinned
    projection ``c . u`` or transpose pairing raises
    :class:`GaugeSingular`.  The gauge's spinor ``c`` must hold on both
    eigenvectors, so the smooth gauge picks it for this matrix alone,
    over both; the result records it as ``reference``.  Non-finite
    entries raise ``ValueError``.
    """
    gauge = Gauge(gauge)
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"h must be 2x2, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h contains non-finite entries")
    # A one-sample batch: numpy's scalar complex product can differ in
    # the last bit from the array product a sampled loop uses.
    e1, e2, s = _roots(h[None])
    r1, r2, (ratio,) = _eigenvectors(h[None], e1, e2, s)
    if np.isnan(ratio):
        # Scalar matrix: degenerate but diagonalizable.  Any basis is an
        # eigenbasis; sigma_x's unit one, (1, 1) and (1, -1) over sqrt 2,
        # satisfies every gauge here, including the transpose pairing.
        unit = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    elif ratio < DEFECTIVE_TOL:
        # Defectiveness first: the ratio is gauge independent.
        raise Defective(f"eigenvectors are parallel (ratio {ratio:.2e})")
    else:
        unit = np.concatenate([r1, r2], axis=1)
    u, l, reference = _fix_gauge(unit, unit[:, ::-1], gauge)
    (u_plus, u_minus), (l_plus, l_minus) = u.T, l.T
    return EigenSystem2(complex(e1[0]), complex(e2[0]),
                        u_plus, u_minus, l_plus, l_minus, gauge, reference)
