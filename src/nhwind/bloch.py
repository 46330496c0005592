"""Two-band Bloch Hamiltonians with nearest-cell hopping.

A model is the triple of 2x2 hopping blocks ``(hop_minus, hop_zero,
hop_plus)`` defining the momentum-space Hamiltonian

    h(k) = hop_minus * exp(-i k) + hop_zero + hop_plus * exp(+i k).

The blocks may be non-Hermitian, so left and right eigenvectors differ
and the spectrum is generally complex.  Everything downstream (Berry
phases, winding numbers, finite chains) is built on the closed-form
2x2 eigensystem provided here, with eigenvectors fixed in an explicit
gauge rather than by norm.  Component gauges break down at isolated
momenta where the fixed component vanishes; those points are reported
as :class:`GaugeSingular` instead of being smoothed over.  The smooth
gauge pins a reference-spinor projection instead, chosen from a small
fixed set so that it stays away from zero.
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
    """A component gauge cannot be imposed at this momentum.

    Raised when the component that a gauge pins to one vanishes, when
    the transpose pairing ``u^T u`` vanishes (self-orthogonal state),
    or when a Berry connection develops a pole that no grid can
    resolve.
    """


class Defective(RuntimeError):
    """The two eigenvectors coincide (exceptional point), so no
    biorthogonal pair of bands exists at this momentum."""


class Gauge(Enum):
    """Eigenvector normalization conventions.

    ``FIRST_COMPONENT_ONE``
        Right vector ``u = (1, psi)``; left vector from the inverse of
        the eigenvector matrix, so ``l @ u = 1`` biorthogonally.
    ``SECOND_COMPONENT_ONE``
        Right vector ``u = (phi, 1)`` with ``phi = 1/psi``; left vector
        again biorthogonal.
    ``TRANSPOSE``
        Right vector ``u = (1, psi)`` and left vector ``l = u^T``
        verbatim (no conjugate, no rescaling), so ``l @ u = u^T u``
        is not 1 and every pairing-normalized quantity must divide by
        it explicitly.  ``u^T`` is a true left eigenvector only for
        complex-symmetric ``h``; the pairing can also vanish outright
        (self-orthogonal state), which raises :class:`GaugeSingular`.
    ``SMOOTH``
        Right vector ``u = r / (c . r)`` with the bilinear (unconjugated)
        product, so ``c . u = 1`` for a reference spinor ``c``; left
        vector biorthogonal as in the component gauges.  ``c`` is the
        first of ``REFERENCE_SPINORS`` (e1, e2, (1, i), (1, -i), (1, 1),
        (1, -1), normalized) that maximizes the smallest ``|c . r|``
        over the unit right vectors ``r`` it must normalize, with
        scores within a relative ``REFERENCE_TIE_TOL`` counted as ties.
        With ``c = e1`` it equals ``FIRST_COMPONENT_ONE``.  It stays
        regular where a real eigenvector component passes through zero
        (the Hermitian topological chain), and raises
        :class:`GaugeSingular` only when every candidate vanishes
        somewhere.  A different ``c`` can shift a loop winding by an
        even integer, so only ``w mod 2`` is gauge invariant; the
        candidate order is the convention that fixes ``w`` itself.
    """

    FIRST_COMPONENT_ONE = "first"
    SECOND_COMPONENT_ONE = "second"
    TRANSPOSE = "transpose"
    SMOOTH = "smooth"


def _reference_spinor(unit: np.ndarray) -> np.ndarray:
    """Smooth-gauge reference spinor for a set of unit right vectors.

    ``unit`` has shape ``(..., 2)``.  Returns the candidate ``c`` of
    ``REFERENCE_SPINORS`` with the largest ``min |c . unit|`` (earliest
    wins among ties), or raises :class:`GaugeSingular` when even that
    minimum is below ``GAUGE_TOL``.
    """
    unit = np.asarray(unit, dtype=complex).reshape(-1, 2)
    scores = np.min(np.abs(unit @ REFERENCE_SPINORS.T), axis=0)
    best = float(np.max(scores))
    if best < GAUGE_TOL:
        raise GaugeSingular(
            f"every reference spinor of the smooth gauge vanishes on "
            f"these states (best smallest projection {best:.2e})")
    pick = int(np.argmax(scores >= best * (1.0 - REFERENCE_TIE_TOL)))
    return REFERENCE_SPINORS[pick]


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
    gauge.  In the component gauges, ``l_plus``/``l_minus`` are the
    rows of the inverse eigenvector matrix, so ``l @ u = 1`` on the
    same branch (exactly, by construction) and ``l @ u = 0`` across
    branches; the smooth gauge pairs the same way.  In the transpose
    gauge ``l`` is the transpose of ``u`` verbatim and carries no
    normalization.  ``reference`` is the smooth gauge's spinor ``c``
    (``c @ u = 1`` on both bands) and ``None`` in the other gauges.
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


def _raw_pair(h: np.ndarray, energy: complex) -> np.ndarray:
    """Unnormalized eigenvector for one branch, from the better row.

    Both ``(b, E - a)`` and ``(E - d, c)`` are null vectors of
    ``h - E``; the larger one is numerically safer.
    """
    a, b = h[0, 0], h[0, 1]
    c, d = h[1, 0], h[1, 1]
    cand1 = np.array([b, energy - a], dtype=complex)
    cand2 = np.array([energy - d, c], dtype=complex)
    n1 = np.linalg.norm(cand1)
    n2 = np.linalg.norm(cand2)
    scale = np.linalg.norm(h) + abs(energy)
    if max(n1, n2) <= 1e-14 * max(scale, 1.0):
        # h is (numerically) a multiple of the identity: every vector is
        # an eigenvector, so hand back a basis vector and let the gauge
        # rules act on it.
        return np.array([1.0, 0.0], dtype=complex)
    return cand1 if n1 >= n2 else cand2


def eig2(h: np.ndarray, gauge: Gauge = Gauge.FIRST_COMPONENT_ONE) -> EigenSystem2:
    """Eigensystem of a single 2x2 Hamiltonian in an explicit gauge.

    Energies come from the quadratic formula with the principal square
    root, ``E = m +- sqrt(m^2 - det h)``.  Degenerate-but-diagonalizable
    points (scalar matrices) are fine; coinciding eigenvectors raise
    :class:`Defective` before any gauge normalization is attempted, and
    a vanishing gauge component raises :class:`GaugeSingular`.  The
    smooth gauge picks its reference spinor for this matrix alone, over
    both eigenvectors.
    """
    gauge = Gauge(gauge)
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"h must be 2x2, got {h.shape}")
    a, b = h[0, 0], h[0, 1]
    c, d = h[1, 0], h[1, 1]
    m = 0.5 * (a + d)
    s = np.sqrt(m * m - (a * d - b * c))
    e_plus = m + s
    # Trace identity instead of m - s: keeps the pair exact even when
    # s is tiny relative to m.
    e_minus = (a + d) - e_plus

    scale = np.linalg.norm(h)
    if np.linalg.norm(h - m * np.eye(2)) <= 1e-14 * max(scale, 1.0):
        # Scalar matrix: degenerate but diagonalizable.  Any basis is an
        # eigenbasis; the symmetric choice (1, 1), (1, -1) satisfies
        # every gauge here, including the transpose pairing.
        raw_plus = np.array([1.0, 1.0], dtype=complex)
        raw_minus = np.array([1.0, -1.0], dtype=complex)
    else:
        raw_plus = _raw_pair(h, e_plus)
        raw_minus = _raw_pair(h, e_minus)

        # Defectiveness first: the ratio of singular values of the
        # column-normalized eigenvector matrix, which is gauge independent.
        up = raw_plus / np.linalg.norm(raw_plus)
        um = raw_minus / np.linalg.norm(raw_minus)
        det_norm = up[0] * um[1] - up[1] * um[0]
        smax_sq = 1.0 + abs(np.vdot(up, um))
        if abs(det_norm) / smax_sq < DEFECTIVE_TOL:
            raise Defective(
                f"eigenvectors are parallel "
                f"(ratio {abs(det_norm) / smax_sq:.2e})")

    reference = None
    if gauge is Gauge.SMOOTH:
        reference = _reference_spinor(
            [raw_plus / np.linalg.norm(raw_plus),
             raw_minus / np.linalg.norm(raw_minus)])
        u_plus = raw_plus / (reference @ raw_plus)
        u_minus = raw_minus / (reference @ raw_minus)
    else:
        fixed = 0 if gauge in (Gauge.FIRST_COMPONENT_ONE,
                               Gauge.TRANSPOSE) else 1
        for raw in (raw_plus, raw_minus):
            if abs(raw[fixed]) < GAUGE_TOL * np.linalg.norm(raw):
                raise GaugeSingular(
                    f"component {fixed} vanishes; gauge {gauge.value!r} "
                    "is singular here")
        u_plus = raw_plus / raw_plus[fixed]
        u_minus = raw_minus / raw_minus[fixed]

    if gauge is Gauge.TRANSPOSE:
        for u in (u_plus, u_minus):
            if abs(u @ u) < GAUGE_TOL * (np.linalg.norm(u) ** 2):
                raise GaugeSingular("self-orthogonal transpose pairing")
        l_plus = u_plus.copy()
        l_minus = u_minus.copy()
    else:
        det_v = u_plus[0] * u_minus[1] - u_minus[0] * u_plus[1]
        l_plus = np.array([u_minus[1], -u_minus[0]], dtype=complex) / det_v
        l_minus = np.array([-u_plus[1], u_plus[0]], dtype=complex) / det_v

    return EigenSystem2(complex(e_plus), complex(e_minus),
                        u_plus, u_minus, l_plus, l_minus, gauge, reference)
