"""Finite chains built from the two-band hopping blocks.

Real-space Hamiltonians for ``n`` unit cells (2 sites per cell) under
open or periodic boundaries, their spectra, biorthonormal left
eigenvectors, inverse participation ratios, and the spectral summaries
(mid-gap filtering, boundary scans) used to quantify the skin effect:
under open boundaries a non-reciprocal chain piles its eigenstates onto
one edge, its spectrum collapses toward the real axis for moderate
sizes, and the gap shrinks as the chain grows.

Open chains are diagonalized densely: an exactly Hermitian chain
(``h == h^dagger`` entry for entry, as at ``gamma = 0`` and for
``demo()``) by the Hermitian solver, any other by the general
non-symmetric one, which balances before its QR sweep.  A chain with no
imaginary part is solved in real arithmetic, and so is every open chain
of at most ``FRAME_MAX_CELLS`` cells whose model has a real frame: a
per-cell unitary rotation ``V`` that makes all three blocks real
(:func:`_real_frame`; every :func:`~nhwind.bloch.lee` model has one, the
unitary half of its similarity to the Hermitian SSH chain).  Such a
chain is solved as the chain of the rotated blocks, and its vectors are
rotated back cell by cell.  The periodic dense fallback below and longer
open chains solve their own chain, unrotated.  A periodic chain is
block diagonal in momentum: at ``k_j = 2 pi j / n`` it maps
the Bloch wave ``e^{i k c} u`` (cell ``c``) to ``e^{i k c} h(k) u``, so
its spectrum is the closed-form pair of roots of each ``h(k_j)`` from
:mod:`nhwind.bloch`, and its eigenvectors are the unit Bloch waves
``e^{i k c} / sqrt(n) (x) u(k)``.  A chain with a momentum sample that
the closed form does not serve (a scalar ``h(k)``, or an exceptional
point on the grid, by the one rule that :func:`~nhwind.bloch.eig2` and
the loops apply too) falls back to the dense solve, Hermitian or
general.  That choice is made in one place, :func:`_solve`, which
:func:`chain_spectrum` and the left :func:`localization_profile` share.

Left eigenvectors of strongly non-normal matrices are a conditioning
trap.  :func:`left_vectors` takes them as the rows of the inverse of the
right eigenvector matrix, which pairs them biorthonormally by
construction (degenerate eigenvalues included); :func:`chain_spectrum`
inverts the spectrum's own right vectors, whichever solve gave them.
Whether those rows are trustworthy is decided by the per-eigenvalue
condition numbers ``kappa_i = |l_i| |u_i| / |l_i . u_i|``: when the
first-order eigenvalue error bound relative to ``|h|_2``,
``eps max kappa_i``, exceeds 1e-8, as it does for open skin-effect
chains beyond a handful of cells, the pairing is refused with
:class:`MatchFailure` instead of returning rows that are no longer left
eigenvectors.  Participation ratios of the left set do not need pairing
at all, so :func:`localization_profile` takes them for
``side="left"`` from right states and works where pairing must refuse.
The chain of the model with the transposed blocks ``(hop_minus^T,
hop_zero^T, hop_plus^T)``, mirrored in cell order, is the transpose of
the chain entry for entry, under both boundaries and for a one-cell
ring too.  When every block equals its own transpose (every
:func:`~nhwind.bloch.lee` model), that model is the model itself: the
left states are the spectrum's own right states, mirrored, and no
second solve runs.  Any other model's transposed chain is solved by the
same rule as any other chain, and its weights are mirrored.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bloch import DEFECTIVE_TOL, BlochModel, _adopt, _eigenvectors, _roots, hk

__all__ = [
    "Boundary",
    "MatchFailure",
    "ChainSpectrum",
    "GapReport",
    "LocalizationProfile",
    "ScanRow",
    "build_chain",
    "eig_dense",
    "left_vectors",
    "ipr",
    "classify",
    "spectral_gap",
    "defectiveness",
    "chain_spectrum",
    "localization_profile",
    "spectrum_scan",
]

# Largest first-order eigenvalue error bound relative to |h|_2,
# eps max_i kappa_i, at which left/right pairing is still trusted.
MATCH_TOL = 1e-8
# Participation-ratio thresholds: extended states spread over the whole
# chain (ipr near 1/size), localized states over a few sites.
LOCALIZED_IPR = 0.1
EXTENDED_FACTOR = 3.0
# An eigenvalue counts as genuinely complex above this |Im|.
COMPLEX_IM_THRESHOLD = 1e-2
# The non-symmetric dense solver, real or complex, applies a diagonal
# similarity (balancing) before the QR sweep; recorded in command-line
# metadata for reproducibility.  Hermitian chains (the Hermitian solver)
# and periodic chains taken from their momentum blocks run no balanced
# solve.
BALANCING = "on"
# The eigenvector sides localization_profile can weigh.
SIDES = ("right", "left")
# A model has a real frame (_real_frame) when its blocks meet the
# frame's conditions to this multiple of their largest entry.
FRAME_TOL = 8 * np.finfo(float).eps
# Open chains of more cells than this keep the complex solve.  Their
# float64 spectra are round-off in either arithmetic (the exact bulk gap
# of lee() is 0.714 at every size), and the acceptance suite documents
# the complex solve's collapse at 800 cells (gap 0.142; the real frame
# reads 0.27-0.43 there, by the sign convention of the frame).
FRAME_MAX_CELLS = 400
# The Pauli matrices sigma_x, sigma_y, sigma_z.
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class Boundary(Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class MatchFailure(RuntimeError):
    """Left and right eigenvectors cannot be paired to working
    precision: the eigenvector matrix is singular or so ill conditioned
    that the biorthogonal system is numerically out of reach."""


def _check_cells(n_cells: int, name: str = "n_cells") -> None:
    """Refuse a cell count that is not an integer (``TypeError``, by
    :func:`operator.index`) or is below 1, calling it ``name``."""
    if operator.index(n_cells) < 1:
        raise ValueError(f"{name} must be >= 1, got {n_cells}")


def build_chain(model: BlochModel, n_cells: int,
                bc: Boundary = Boundary.OPEN) -> np.ndarray:
    """Real-space chain Hamiltonian, shape ``(2 n_cells, 2 n_cells)``.

    Cell ``j`` couples to cell ``j+1`` through ``hop_plus`` (upper
    block diagonal) and back through ``hop_minus`` (lower).  Periodic
    boundaries add the wrap blocks ``hop_plus`` at (last, first) and
    ``hop_minus`` at (first, last); accumulation (not assignment) keeps
    one- and two-cell rings correct, where wrap and interior couplings
    land on the same block.
    """
    _check_cells(n_cells)
    bc = Boundary(bc)
    mm, m0, mp = model.blocks()
    # h[c, a, d, b] is the entry from site b of cell d to site a of cell c.
    h = np.zeros((n_cells, 2, n_cells, 2), dtype=complex)
    cells = np.arange(n_cells)
    h[cells, :, cells, :] += m0
    h[cells[:-1], :, cells[1:], :] += mp
    h[cells[1:], :, cells[:-1], :] += mm
    if bc is Boundary.PERIODIC:
        h[-1, :, 0, :] += mp
        h[0, :, -1, :] += mm
    return h.reshape(2 * n_cells, 2 * n_cells)


def eig_dense(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit right eigenvectors, sorted by (Re, Im).

    Column ``j`` of the returned vectors goes with eigenvalue ``j``;
    both arrays are complex.  An exactly Hermitian ``h`` (``h ==
    h^dagger`` entry for entry) goes to the Hermitian solver: its
    eigenvalues are real (imaginary part exactly 0) and its vectors
    orthonormal, degenerate eigenspaces included.  Any other ``h``, one
    holding a NaN too, goes to the general solver, which balances the
    matrix (diagonal similarity) before the QR sweep; eigenvalues are
    invariant under that scaling.  A matrix with no imaginary part is
    solved in real arithmetic by either solver, so a non-real
    eigenvalue comes with its exact conjugate and its conjugate vector.
    A failure to converge is re-raised with matrix diagnostics
    attached.
    """
    h = np.asarray(h, dtype=complex)
    if not np.any(h.imag):
        h = h.real
    try:
        if np.array_equal(h, h.conj().T):
            values, vectors = np.linalg.eigh(h)
        else:
            values, vectors = np.linalg.eig(h)
        values = values.astype(complex, copy=False)
        vectors = vectors.astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(h)) if h.size else 0.0
        raise np.linalg.LinAlgError(
            f"dense eigensolver failed on a {h.shape[0]}x{h.shape[1]} "
            f"matrix (norm {norm:.3e}, finite: "
            f"{bool(np.all(np.isfinite(h)))}): {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    return values[order], vectors[:, order]


def left_vectors(h: np.ndarray | None, right: np.ndarray | None = None,
                 ) -> np.ndarray:
    """Left eigenvector rows paired so that ``L[i] @ right[:, i] = 1``.

    ``right`` may be any complete set of unit right eigenvectors of
    ``h``, as columns in eigenvalue order; ``h`` is read only when
    ``right`` is omitted, and :func:`eig_dense` then supplies them.
    The rows are those of ``inv(right)``, biorthonormal to the right
    vectors by construction.  Each pair's condition number ``kappa_i =
    |l_i| |u_i| / |l_i . u_i|`` bounds the first-order error of
    eigenvalue ``i`` by ``eps |h|_2 kappa_i``; when the worst bound
    relative to ``|h|_2``, ``eps max kappa_i``, exceeds ``MATCH_TOL``,
    or ``right`` is singular, :class:`MatchFailure` is raised, because
    the rows are then no longer left eigenvectors to working precision.
    The gate does not change when ``h`` is scaled.
    """
    if right is None:
        _, right = eig_dense(h)
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise MatchFailure(
            f"right eigenvector matrix is singular ({exc}); the "
            f"biorthogonal system is not resolvable at this size") from exc
    overlap = np.abs(np.einsum("ij,ji->i", left, right))
    kappa = (np.linalg.norm(left, axis=1)
             * np.linalg.norm(right, axis=0) / overlap)
    worst = int(np.argmax(kappa))
    bound = np.finfo(float).eps * kappa[worst]
    if not bound <= MATCH_TOL:
        raise MatchFailure(
            f"eigenvalue {worst} has condition number {kappa[worst]:.3e}, "
            f"so its relative first-order error bound {bound:.3e} exceeds "
            f"{MATCH_TOL:.0e}; the biorthogonal system is not resolvable "
            f"at this size")
    return left


def ipr(vectors: np.ndarray) -> np.ndarray:
    """Inverse participation ratio of each column.

    ``sum |psi|^4 / (sum |psi|^2)^2`` ranges from ``1/size`` (uniform)
    to 1 (single site).
    """
    vectors = np.asarray(vectors, dtype=complex)
    p2 = np.sum(np.abs(vectors) ** 2, axis=0)
    p4 = np.sum(np.abs(vectors) ** 4, axis=0)
    return p4 / p2 ** 2


def classify(ipr_value: float, size: int) -> str:
    """'extended', 'localized', or 'intermediate' for one state.

    ``size`` is the total number of lattice sites (the matrix
    dimension), so a uniformly spread state at ``1/size`` sits well
    below the ``3/size`` extended cutoff.
    """
    if ipr_value < EXTENDED_FACTOR / size:
        return "extended"
    if ipr_value > LOCALIZED_IPR:
        return "localized"
    return "intermediate"


def defectiveness(source) -> float:
    """Ratio of smallest to largest singular value of the eigenvector
    matrix: 1 for an orthonormal basis, 0 for a defective one.

    ``source`` is a :class:`ChainSpectrum` (its right-eigenvector
    matrix is used), the matrix itself, or a stack of matrices, shape
    ``(..., m, m)``, taken as their direct sum.
    """
    if isinstance(source, ChainSpectrum):
        vectors = source.right_vectors
    else:
        vectors = np.asarray(source, dtype=complex)
    s = np.linalg.svd(vectors, compute_uv=False)
    return float(s.min() / s.max())


@dataclass(frozen=True)
class GapReport:
    """Real-axis spectral gap after mid-gap filtering.

    Up to two eigenvalues that are simultaneously small (modulus below
    half the median modulus) and localized (ipr above 0.1) are treated
    as boundary modes and excluded; the gap is then the distance
    between the remaining positive and negative real parts, or 0 when
    either side is empty.
    """

    gap: float
    midgap_threshold: float
    excluded: tuple[int, ...]


def spectral_gap(values: np.ndarray, iprs: np.ndarray) -> GapReport:
    values = np.asarray(values, dtype=complex)
    iprs = np.asarray(iprs, dtype=float)
    if values.shape != iprs.shape or values.ndim != 1:
        raise ValueError("values and iprs must be matching 1-d arrays")
    threshold = 0.5 * float(np.median(np.abs(values)))
    candidates = np.flatnonzero((np.abs(values) < threshold)
                                & (iprs > LOCALIZED_IPR))
    candidates = candidates[np.argsort(np.abs(values[candidates]))]
    excluded = tuple(int(i) for i in candidates[:2])
    keep = np.setdiff1d(np.arange(values.size), np.array(excluded, int))
    re = values[keep].real
    pos = re[re > 0]
    neg = re[re < 0]
    gap = float(pos.min() - neg.max()) if pos.size and neg.size else 0.0
    return GapReport(gap=gap, midgap_threshold=threshold, excluded=excluded)


@dataclass(frozen=True)
class ChainSpectrum:
    """Spectrum of one finite chain with its summary statistics.

    ``right_vectors`` columns are unit right eigenstates in eigenvalue
    order (unit Bloch waves for a periodic chain taken from its
    momentum blocks); ``left_vectors`` rows (when computed) are the
    rows of the inverse right eigenvector matrix, so
    ``left_vectors[i] @ right_vectors[:, i] = 1``, computed only when
    every eigenvalue's condition number passes the gate of
    :func:`left_vectors`.
    Eigenvalues are sorted by (Re, Im); construction re-validates the
    ordering and the participation-ratio range.  Like every record of
    sampled arrays, a valid construction adopts the arrays it is given
    (no copy) and makes them read-only; a refused one leaves them
    writeable.
    """

    model: BlochModel
    n_cells: int
    bc: Boundary
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    iprs: np.ndarray
    max_abs_imag: float
    gap: float
    midgap_threshold: float
    excluded: tuple[int, ...]
    defectiveness: float

    def __post_init__(self) -> None:
        values = np.asarray(self.eigenvalues)
        d_re = np.diff(values.real)
        d_im = np.diff(values.imag)
        if np.any(d_re < 0) or np.any((d_re == 0) & (d_im < 0)):
            raise ValueError("eigenvalues must be sorted by (Re, Im)")
        iprs = np.asarray(self.iprs, dtype=float)
        if (np.any(iprs < 1.0 / (2 * self.n_cells) - 1e-12)
                or np.any(iprs > 1.0 + 1e-12)):
            raise ValueError("participation ratios out of [1/size, 1]")
        _adopt(self, "eigenvalues", "right_vectors", "left_vectors", "iprs")

    @property
    def size(self) -> int:
        return 2 * self.n_cells


def _bloch_waves(model: BlochModel, n_cells: int):
    """Eigensystem of the periodic chain from its momentum blocks.

    At ``k_j = 2 pi j / n_cells`` the eigenvalues are the closed-form
    roots of ``h(k_j)`` and the right vectors the unit Bloch waves
    ``e^{i k c} / sqrt(n) (x) u(k)``.  The Fourier factor is unitary, so
    the eigenvector matrix has the singular values of the blocks
    ``[u_1(k), u_2(k)]``.

    Returns ``(values, right, blocks)`` in the order of
    :func:`eig_dense` (``blocks`` stacks the ``[u_1(k), u_2(k)]``), or
    ``None`` where the dense path must decide: a sample the closed form
    does not serve by the rule of :func:`~nhwind.bloch._eigenvectors`
    (scalar ``h(k)``, or eigenvectors parallel to within
    ``DEFECTIVE_TOL``).
    """
    k = 2.0 * np.pi * np.arange(n_cells) / n_cells
    h = hk(model, k)
    e1, e2, s = _roots(h)
    u1, u2, ratio = _eigenvectors(h, e1, e2, s)
    if not np.all(ratio >= DEFECTIVE_TOL):  # a scalar sample's ratio is NaN
        return None
    blocks = np.stack([u1.T, u2.T], axis=-1)
    values = np.stack([e1, e2], axis=-1).ravel()
    order = np.lexsort((values.imag, values.real))
    # e^{i k_j c} from (j c mod n), so the phase stays exact for long chains.
    cells = np.arange(n_cells)
    wave = (np.exp(2j * np.pi * (np.outer(cells, cells) % n_cells) / n_cells)
            / np.sqrt(n_cells))
    size = 2 * n_cells
    right = np.einsum("cj,jab->cajb", wave, blocks).reshape(size, size)
    return values[order], right[:, order], blocks


def _real_frame(model: BlochModel):
    """``(V, rotated)``: a 2x2 unitary ``V`` whose per-cell rotation
    makes every block of ``model`` real, and the model of the rotated
    blocks ``V^dagger m V``; ``None`` when there is no such ``V``.

    Write each block as ``m = t 1 + (a + i b) . sigma`` with ``a`` and
    ``b`` real 3-vectors.  With ``V^dagger (n . sigma) V = sigma_y``
    for a unit ``n``, and ``V^dagger (e . sigma) V`` equal to
    ``sigma_x`` and ``sigma_z`` for ``e1`` and ``e2 = e1 x n``
    perpendicular to it, the rotated block is ``[[t + Z, X + beta],
    [X - beta, t - Z]]`` with ``X = a . e1``, ``Z = a . e2`` and ``beta
    = b . n``.  It is real exactly when ``t`` is real, every ``a`` is
    perpendicular to ``n`` and every ``b`` parallel to it.  ``n`` is
    the unit vector that minimizes ``sum_j (a_j . n)^2 + |b_j x n|^2``,
    and the three conditions must hold to ``FRAME_TOL`` times the
    largest block entry (the test runs on the blocks divided by it, so
    no square over- or underflows).  The rotated blocks are built from
    the components, not as ``V^dagger m V``, so a chain with
    ``hop_minus = hop_plus^dagger`` gets an exact transpose and stays
    exactly Hermitian.  Blocks with no imaginary part get ``V = 1``;
    on :func:`~nhwind.bloch.lee`, ``n`` is the z axis and ``V`` the
    rotation ``exp(-i pi sigma_x / 4)`` up to a phase.
    """
    blocks = np.stack(model.blocks())
    if not np.any(blocks.imag):
        return np.eye(2, dtype=complex), model
    (m00, m01), (m10, m11) = np.moveaxis(blocks, 0, -1)
    t = (m00 + m11) / 2
    c = np.stack([(m01 + m10) / 2, 1j * (m01 - m10) / 2, (m00 - m11) / 2],
                 axis=-1)
    scale = np.max(np.abs(blocks))
    a, b = c.real / scale, c.imag / scale
    gram = a.T @ a + np.sum(b * b) * np.eye(3) - b.T @ b
    n = np.linalg.eigh(gram)[1][:, 0]
    n *= np.sign(n[np.argmax(np.abs(n))])
    misfit = max(np.max(np.abs(t.imag)) / scale, np.max(np.abs(a @ n)),
                 np.max(np.abs(np.cross(b, n))))
    if not misfit <= FRAME_TOL:
        return None
    axis = np.eye(3)[np.argmin(np.abs(n))]
    e1 = axis - (axis @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e1, n)
    w = np.linalg.eigh(np.tensordot(e2, PAULI, 1))[1][:, 1]
    v = np.stack([w, np.tensordot(e1, PAULI, 1) @ w], axis=1)
    x, z, beta, t = c.real @ e1, c.real @ e2, c.imag @ n, t.real
    rotated = np.stack([t + z, x + beta, x - beta, t - z], axis=-1)
    return v, BlochModel(*rotated.reshape(3, 2, 2), label=model.label)


def _solve(model: BlochModel, n_cells: int, bc: Boundary):
    """Eigensystem of one chain, from its momentum blocks where
    :func:`_bloch_waves` can take them and from one dense solve
    otherwise; a cell count below 1 is refused first.

    An open chain of at most ``FRAME_MAX_CELLS`` cells whose model has
    a real frame (:func:`_real_frame`) is solved as the chain of the
    rotated blocks, in real arithmetic, and its vectors are rotated back
    cell by cell: the rotation is unitary, so norms, participation
    ratios, condition numbers and singular values are those of the
    unrotated chain in exact arithmetic.  Every other chain takes the solve of its own
    chain.

    Returns ``(values, right, basis)``: eigenvalues and unit right
    vectors in the order of :func:`eig_dense`, and the matrix or stack
    of blocks whose singular values are those of the right eigenvector
    matrix, for :func:`defectiveness`.
    """
    _check_cells(n_cells)
    waves = (_bloch_waves(model, n_cells)
             if bc is Boundary.PERIODIC else None)
    if waves is not None:
        return waves
    frame = (_real_frame(model) if bc is Boundary.OPEN
             and n_cells <= FRAME_MAX_CELLS else None)
    v, model = frame if frame is not None else (None, model)
    values, right = eig_dense(build_chain(model, n_cells, bc))
    if v is not None:
        right = (v @ right.reshape(n_cells, 2, -1)).reshape(right.shape)
    return values, right, right


def chain_spectrum(model: BlochModel, n_cells: int,
                   bc: Boundary = Boundary.OPEN,
                   with_left: bool = False) -> ChainSpectrum:
    """Build, diagonalize, and summarize one chain.

    Open chains go through one dense solve, in real arithmetic where
    the model has a real frame and the chain has at most
    ``FRAME_MAX_CELLS`` cells; periodic chains are taken from their
    momentum blocks, or densely (in the chain's own arithmetic) when a
    momentum sample is scalar or an exceptional point.  The
    real-frame solve returns each non-real eigenvalue with its exact
    conjugate.  ``with_left=True`` additionally
    pairs left eigenvectors by :func:`left_vectors` on the spectrum's
    own right vectors (the rows of their inverse), which raises
    :class:`MatchFailure` for open skin-effect chains beyond a handful
    of cells; everything else is pairing-free.
    """
    bc = Boundary(bc)
    values, right, basis = _solve(model, n_cells, bc)
    left = left_vectors(None, right) if with_left else None
    iprs = ipr(right)
    report = spectral_gap(values, iprs)
    return ChainSpectrum(
        model=model, n_cells=n_cells, bc=bc,
        eigenvalues=values, right_vectors=right, left_vectors=left,
        iprs=iprs, max_abs_imag=float(np.max(np.abs(values.imag))),
        gap=report.gap, midgap_threshold=report.midgap_threshold,
        excluded=report.excluded, defectiveness=defectiveness(basis))


@dataclass(frozen=True)
class LocalizationProfile:
    """Per-state site weights and participation data for one side.

    ``probabilities[j, i]`` is ``|psi_j|^2`` of state ``i`` at site
    ``j`` (columns are states, like the eigenvector matrices); states
    are unit vectors, so each column sums to 1.  The record adopts its
    arrays and makes them read-only, like :class:`ChainSpectrum`.
    """

    side: str
    eigenvalues: np.ndarray
    probabilities: np.ndarray
    iprs: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        _adopt(self, "eigenvalues", "probabilities", "iprs")

    @property
    def median_ipr(self) -> float:
        return float(np.median(self.iprs))


def localization_profile(spectrum: ChainSpectrum, side: str = "right",
                         ) -> LocalizationProfile:
    """Site-resolved weights of all right or left eigenstates; ``side``
    is one of ``SIDES``.

    ``side="left"`` takes the right eigenstates of the transposed
    chain: participation ratios need no left/right pairing, so this
    works even where :func:`left_vectors` must refuse.  Those states are
    the right eigenstates of the chain of the model with blocks
    ``(hop_minus.T, hop_zero.T, hop_plus.T)``, mirrored in cell order,
    and only their weights are mirrored (the ratios do not depend on
    the site order).  When every block equals its own transpose (every
    :func:`~nhwind.bloch.lee` model) that chain is the chain itself:
    the eigenvalues, right states and ratios are taken from
    ``spectrum`` as they are, with no solve, so the left eigenvalues and
    ratios are the right ones and the left weights the right ones
    mirrored, bit for bit.  Any other model's transposed chain is
    solved by :func:`_solve`, the rule every chain takes.
    """
    if side not in SIDES:
        raise ValueError("side must be {!r} or {!r}, got {!r}".format(
            *SIDES, side))
    values, vectors = spectrum.eigenvalues, spectrum.right_vectors
    iprs = spectrum.iprs
    sites = np.arange(spectrum.size)
    if side == "left":
        blocks = spectrum.model.blocks()
        if not all(np.array_equal(b, b.T) for b in blocks):
            values, vectors = _solve(BlochModel(*(b.T for b in blocks)),
                                     spectrum.n_cells, spectrum.bc)[:2]
            iprs = ipr(vectors)
        sites = sites.reshape(-1, 2)[::-1].ravel()
    labels = tuple(classify(float(p), spectrum.size) for p in iprs)
    return LocalizationProfile(side=side, eigenvalues=values,
                               probabilities=np.abs(vectors[sites]) ** 2,
                               iprs=iprs, labels=labels)


@dataclass(frozen=True)
class ScanRow:
    """Spectral summary of one chain length at one boundary condition.

    ``im_fraction`` is the fraction of eigenvalues with
    ``|Im| > COMPLEX_IM_THRESHOLD``, the coarse signature of the
    spectrum leaving the real axis as the chain grows.  The record
    adopts ``eigenvalues`` and makes it read-only, like
    :class:`ChainSpectrum`.
    """

    n_cells: int
    bc: Boundary
    eigenvalues: np.ndarray
    max_abs_imag: float
    im_fraction: float
    gap: float
    median_ipr: float

    def __post_init__(self) -> None:
        _adopt(self, "eigenvalues")


def spectrum_scan(model: BlochModel, n_list,
                  bc: Boundary = Boundary.OPEN) -> tuple[ScanRow, ...]:
    """Per-length spectral summaries at one boundary condition.

    Lengths are processed independently (results do not depend on the
    order or on any shared state), each through :func:`chain_spectrum`:
    one dense solve for an open chain, the momentum blocks for a
    periodic one.
    """
    bc = Boundary(bc)
    rows = []
    for n_cells in n_list:
        spectrum = chain_spectrum(model, n_cells, bc)
        im = np.abs(spectrum.eigenvalues.imag)
        rows.append(ScanRow(
            n_cells=n_cells,
            bc=bc,
            eigenvalues=spectrum.eigenvalues,
            max_abs_imag=spectrum.max_abs_imag,
            im_fraction=float(np.mean(im > COMPLEX_IM_THRESHOLD)),
            gap=spectrum.gap,
            median_ipr=float(np.median(spectrum.iprs))))
    return tuple(rows)
