"""Two-band Bloch Hamiltonians with nearest-cell hopping.

A model is the triple of 2x2 hopping blocks ``(hop_minus, hop_zero,
hop_plus)`` defining the momentum-space Hamiltonian

    h(k) = hop_minus * exp(-i k) + hop_zero + hop_plus * exp(+i k).

The blocks may be non-Hermitian, so left and right eigenvectors differ
and the spectrum is generally complex.  Everything downstream (Berry
phases, winding numbers, finite chains) is built on the closed-form
2x2 eigensystem held here: the roots ``m +- sqrt(m^2 - det h)``, the
row null vectors of ``h - E``, the parallelism ratio that detects an
exceptional point and the energy derivative ``dE/dk``.  Each is written
once, vectorized over any leading shape; :func:`eig2` applies them to a
single matrix and :mod:`nhwind.berry` to a whole sampled loop.

Eigenvectors are fixed in an explicit gauge rather than by norm.  Every
gauge pins ``c . u = 1`` for a reference spinor ``c`` and pairs ``u``
with a left vector by one of two rules; the gauges differ only in that
data (see :class:`Gauge`).  A gauge with a single pinned spinor breaks
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
# which the two branches are declared parallel (non-diagonalizable point).
DEFECTIVE_TOL = 1e-10


class GaugeSingular(RuntimeError):
    """A gauge cannot be imposed at this momentum.

    Raised when the spinor a gauge pins ``c . u = 1`` with vanishes on a
    state (in the smooth gauge: when every candidate does), when the
    transpose pairing ``u^T u`` vanishes (self-orthogonal state), or
    when a Berry connection develops a pole that no grid can resolve.
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
    invariant; the candidate order is the convention that fixes ``w``
    itself.
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


def _reference_spinor(unit: np.ndarray,
                      candidates: np.ndarray = REFERENCE_SPINORS,
                      ) -> np.ndarray:
    """Reference spinor for a set of unit right vectors.

    ``unit`` has shape ``(..., 2)``.  Returns the row of ``candidates``
    with the largest ``min |c . unit|`` (earliest wins among ties), or
    raises :class:`GaugeSingular` when even that minimum is below
    ``GAUGE_TOL``.
    """
    unit = np.asarray(unit, dtype=complex).reshape(-1, 2)
    scores = np.min(np.abs(unit @ candidates.T), axis=0)
    best = float(np.max(scores))
    if best < GAUGE_TOL:
        what = ("its pinned spinor vanishes" if len(candidates) == 1
                else "every candidate reference spinor vanishes")
        raise GaugeSingular(f"{what} on these states (best smallest "
                            f"projection {best:.2e})")
    pick = int(np.argmax(scores >= best * (1.0 - REFERENCE_TIE_TOL)))
    return candidates[pick]


def _roots(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both eigenvalues of ``h`` (shape ``(..., 2, 2)``) in a fixed
    labeling: ``m + s`` with the principal root ``s = sqrt(m^2 - det h)``,
    ``m = tr(h)/2``, and the trace partner ``tr(h) - (m + s)``, which
    keeps the pair exact even when ``s`` is tiny relative to ``m``."""
    a, b = h[..., 0, 0], h[..., 0, 1]
    c, d = h[..., 1, 0], h[..., 1, 1]
    m = 0.5 * (a + d)
    s = np.sqrt(m * m - (a * d - b * c))
    e1 = m + s
    e2 = (a + d) - e1
    return e1, e2


def _null_rows(h: np.ndarray, energy: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The row null vectors ``(b, E - a)`` and ``(E - d, c)`` of
    ``h - E``, each of shape ``(..., 2)``.

    At an eigenvalue they are parallel, and at least one is nonzero
    unless ``h`` is scalar.  Applied to ``(dh/dk, dE/dk)`` instead, the
    same map gives their k-derivatives.
    """
    return (np.stack([h[..., 0, 1], energy - h[..., 0, 0]], axis=-1),
            np.stack([energy - h[..., 1, 1], h[..., 1, 0]], axis=-1))


def _unit_vectors(h: np.ndarray, energy: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unit right eigenvectors of ``h`` at ``energy`` and the norm they
    were scaled from: the longer row of :func:`_null_rows`.

    A zero norm (scalar ``h``) leaves a NaN vector behind; callers
    refuse those samples by the norm.
    """
    r1, r2 = _null_rows(h, energy)
    n1 = np.linalg.norm(r1, axis=-1)
    n2 = np.linalg.norm(r2, axis=-1)
    use1 = n1 >= n2
    norm = np.where(use1, n1, n2)
    with np.errstate(invalid="ignore"):
        unit = np.where(use1[..., None], r1, r2) / norm[..., None]
    return unit, norm


def _parallelism(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest-to-largest singular-value ratio of the matrix ``[u, v]``
    of unit vectors, ``|det| / (1 + |u^H v|)``: 0 where the two
    branches coincide (exceptional point), 1 where they are orthogonal.
    """
    det = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return abs(det) / (1.0 + abs(np.einsum("...i,...i->...", np.conj(u), v)))


def _energy_derivative(h: np.ndarray, dh: np.ndarray, energy: np.ndarray,
                       other: np.ndarray) -> np.ndarray:
    """dE/dk of the branch at ``energy``, from differentiating the
    characteristic polynomial ``E^2 - tr(h) E + det h = 0``:

        dE = (tr(dh) E - d(det h)) / (E - E_other).

    Gauge independent and valid wherever the two roots differ.
    """
    a, b = h[..., 0, 0], h[..., 0, 1]
    c, d = h[..., 1, 0], h[..., 1, 1]
    da, db = dh[..., 0, 0], dh[..., 0, 1]
    dc, dd = dh[..., 1, 0], dh[..., 1, 1]
    ddet = da * d + a * dd - db * c - b * dc
    return ((da + dd) * energy - ddet) / (energy - other)


def _pinned_row(h: np.ndarray, energy: np.ndarray, c: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sample, the row of :func:`_null_rows` that ``c`` normalizes
    best: the first where ``use1``, else the second.

    The two rows are parallel, so ``r / (c @ r)`` does not depend on the
    choice; taking the larger ``|c @ r|`` keeps it well conditioned.
    Returns ``(r, c @ r, use1)``.
    """
    r1, r2 = _null_rows(h, energy)
    c0, c1 = c
    cr1 = c0 * r1[..., 0] + c1 * r1[..., 1]
    cr2 = c0 * r2[..., 0] + c1 * r2[..., 1]
    use1 = abs(cr1) >= abs(cr2)
    return np.where(use1[..., None], r1, r2), np.where(use1, cr1, cr2), use1


def _pin(h: np.ndarray, energy: np.ndarray, unit: np.ndarray, gauge: Gauge,
         ) -> tuple[np.ndarray, np.ndarray]:
    """Right eigenvectors ``u`` of ``h`` at ``energy`` with ``c @ u = 1``
    in ``gauge``, and ``c``.

    ``c`` is picked from the gauge's candidates over ``unit``, the same
    eigenvectors at unit norm (shape ``(..., 2)``), and ``u = r /
    (c @ r)`` with ``r`` from :func:`_pinned_row`.  The last step
    restores ``c @ u = 1`` to round-off, which keeps a pinned basis
    component exactly 1.
    """
    try:
        c = _reference_spinor(unit, _GAUGES[gauge][0])
    except GaugeSingular as exc:
        raise GaugeSingular(f"gauge {gauge.value!r}: {exc}") from exc
    r, cr, _ = _pinned_row(h, energy, c)
    u = r / cr[..., None]
    u += np.multiply.outer(1.0 - u @ c, c.conj())
    return u, c


def _fix_gauge(h: np.ndarray, energy: np.ndarray, other: np.ndarray,
               unit: np.ndarray, unit_other: np.ndarray, gauge: Gauge,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right vectors, left vectors and reference spinor in ``gauge``.

    ``h`` holds 2x2 matrices, shape ``(..., 2, 2)``, ``energy`` the
    eigenvalue to fix at each and ``other`` the other one; ``unit`` and
    ``unit_other`` are their right eigenvectors at unit norm.  Returns
    ``(u, l, c)``: ``u`` pinned by :func:`_pin`, and ``l`` either ``u``
    itself (transpose pairing; :class:`GaugeSingular` if ``u^T u``
    vanishes) or the adjugate row of ``[u, o]`` over its determinant,
    with ``o`` the other branch pinned as well (inverse pairing;
    :class:`Defective` if the determinant vanishes).
    """
    u, c = _pin(h, energy, unit, gauge)
    if _GAUGES[gauge][1]:
        pairing = np.einsum("...i,...i->...", u, u)
        bad = abs(pairing) < GAUGE_TOL * np.sum(abs(u) ** 2, axis=-1)
        if np.any(bad):
            raise GaugeSingular(
                f"gauge {gauge.value!r}: self-orthogonal transpose "
                f"pairing u^T u = 0 at {int(np.count_nonzero(bad))} "
                f"state(s)")
        return u, u.copy(), c
    # o's scale cancels in l.  Pinning it like u gives the component
    # gauges' closed form (psi_o, -1) / (psi_o - psi) to the last bit;
    # the smooth gauge picks o's spinor over the other branch itself.
    o, _ = _pin(h, other, unit_other, gauge)
    p, q = u[..., 0] * o[..., 1], o[..., 0] * u[..., 1]
    det = p - q
    if np.any(abs(det) < GAUGE_TOL * (abs(p) + abs(q))):
        raise Defective("right vectors of the two branches coincide")
    l = np.stack([o[..., 1], -o[..., 0]], axis=-1) / det[..., None]
    return u, l, c


def _locked(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlochModel:
    """Immutable two-band model given by its three hopping blocks."""

    hop_minus: np.ndarray
    hop_zero: np.ndarray
    hop_plus: np.ndarray
    label: str = "custom"

    def __post_init__(self) -> None:
        for name in ("hop_minus", "hop_zero", "hop_plus"):
            block = _locked(getattr(self, name))
            if block.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {block.shape}")
            if not np.all(np.isfinite(block.view(float))):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, block)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.hop_minus, self.hop_zero, self.hop_plus


def lee(v: float = 0.52, r: float = 0.5, gamma: float = 1.0) -> BlochModel:
    """Non-Hermitian chain with asymmetric on-site gain/loss.

    The Bloch Hamiltonian is ``x(k) sigma_x + z(k) sigma_z`` with
    ``x = v + r cos k`` and ``z = r sin k + i gamma/2``.  For
    ``gamma > 2 |v - r|`` the two energy branches braid over one
    Brillouin zone and only close after two, which is the regime the
    default parameters sit in.
    """
    for name, value in (("v", v), ("r", r), ("gamma", gamma)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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


def hk(model: BlochModel, k) -> np.ndarray:
    """Bloch Hamiltonian at momentum ``k`` (scalar or array).

    Returns shape ``(2, 2)`` for scalar ``k`` and ``k.shape + (2, 2)``
    otherwise.
    """
    k = np.asarray(k, dtype=float)
    mm, m0, mp = model.blocks()
    phase = np.exp(1j * k)
    out = (np.multiply.outer(np.conj(phase), mm)
           + np.multiply.outer(np.ones_like(k), m0)
           + np.multiply.outer(phase, mp))
    return out


def hk_derivative(model: BlochModel, k) -> np.ndarray:
    """d h(k) / d k, same shape conventions as :func:`hk`."""
    k = np.asarray(k, dtype=float)
    mm, _, mp = model.blocks()
    phase = np.exp(1j * k)
    return (np.multiply.outer(-1j * np.conj(phase), mm)
            + np.multiply.outer(1j * phase, mp))


@dataclass(frozen=True)
class EigenSystem2:
    """Closed-form eigensystem of one 2x2 Hamiltonian.

    ``u_plus``/``u_minus`` are right eigenvectors in the requested
    gauge.  In the gauges with inverse pairing, ``l_plus``/``l_minus``
    are the rows of the inverse eigenvector matrix, so ``l @ u = 1`` on
    the same branch and ``l @ u = 0`` across branches.  In the
    transpose gauge ``l`` is the transpose of ``u`` verbatim and carries
    no normalization.  ``reference`` is the smooth gauge's spinor ``c``
    (``c @ u = 1`` on both bands) and ``None`` in the other gauges,
    whose spinor is fixed.
    """

    e_plus: complex
    e_minus: complex
    u_plus: np.ndarray
    u_minus: np.ndarray
    l_plus: np.ndarray
    l_minus: np.ndarray
    gauge: Gauge
    reference: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("u_plus", "u_minus", "l_plus", "l_minus"):
            object.__setattr__(self, name, _locked(getattr(self, name)))
        if self.reference is not None:
            object.__setattr__(self, "reference", _locked(self.reference))

    def band(self, band: int) -> tuple[complex, np.ndarray, np.ndarray]:
        """(energy, right vector, left vector) for band +1 or -1."""
        if band == +1:
            return self.e_plus, self.u_plus, self.l_plus
        if band == -1:
            return self.e_minus, self.u_minus, self.l_minus
        raise ValueError(f"band must be +1 or -1, got {band!r}")


def eig2(h: np.ndarray, gauge: Gauge = Gauge.FIRST_COMPONENT_ONE) -> EigenSystem2:
    """Eigensystem of a single 2x2 Hamiltonian in an explicit gauge.

    Energies come from the quadratic formula with the principal square
    root, ``E = m +- sqrt(m^2 - det h)``, bit for bit as a sampled loop
    gets them.  Degenerate-but-diagonalizable points (scalar matrices)
    are fine; coinciding eigenvectors raise :class:`Defective` before
    any gauge normalization is attempted, and a vanishing pinned
    projection ``c . u`` or transpose pairing raises
    :class:`GaugeSingular`.  The gauge's spinor ``c`` must hold on both
    eigenvectors, so the smooth gauge picks it for this matrix alone,
    over both.  Non-finite entries raise ``ValueError``.
    """
    gauge = Gauge(gauge)
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"h must be 2x2, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h contains non-finite entries")
    e_plus, e_minus = _roots(h)
    # The gauge takes the eigenvectors as row null vectors of this
    # matrix at these eigenvalues.
    vectors_of, roots = h, np.array([e_plus, e_minus])
    m = 0.5 * (h[0, 0] + h[1, 1])
    if np.linalg.norm(h - m * np.eye(2)) <= 1e-14 * max(np.linalg.norm(h),
                                                       1.0):
        # Scalar matrix: degenerate but diagonalizable.  Any basis is an
        # eigenbasis; sigma_x's, (1, 1) and (1, -1), satisfies every
        # gauge here, including the transpose pairing.
        vectors_of, roots = SIGMA_X, np.array([1.0, -1.0], dtype=complex)
    vectors_of = np.stack([vectors_of, vectors_of])
    # Defectiveness first: the ratio is gauge independent.
    unit, _ = _unit_vectors(vectors_of, roots)
    ratio = float(_parallelism(unit[0], unit[1]))
    if ratio < DEFECTIVE_TOL:
        raise Defective(f"eigenvectors are parallel (ratio {ratio:.2e})")
    (u_plus, u_minus), (l_plus, l_minus), spinor = _fix_gauge(
        vectors_of, roots, roots[::-1], unit, unit[::-1], gauge)
    reference = spinor if gauge is Gauge.SMOOTH else None
    return EigenSystem2(complex(e_plus), complex(e_minus),
                        u_plus, u_minus, l_plus, l_minus, gauge, reference)
