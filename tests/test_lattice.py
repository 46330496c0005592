"""Unit tests for finite-chain construction, spectra, and localization."""
import dataclasses
import warnings

import numpy as np
import pytest

from conftest import multiset_distance
from nhwind import (BlochModel, Boundary, ChainSpectrum, MatchFailure,
                    build_chain, chain_spectrum, classify, defectiveness,
                    demo, eig_dense, hk, ipr, lee, left_vectors,
                    localization_profile, spectral_gap, spectrum_scan)
from nhwind.lattice import FRAME_TOL, _real_frame, _solve

# Frozen lee-default observables at 30 cells.
GAP_30 = 0.716589
MIDGAP_THRESHOLD_30 = 0.257010
MEDIAN_IPR_OPEN_30 = 0.3691
MEDIAN_IPR_PERIODIC_30 = 0.0266
MEDIAN_IPR_LEFT_OPEN_30 = 0.369139
MEDIAN_IPR_LEFT_PERIODIC_30 = 0.026588


def test_build_chain_single_cell_is_onsite_block(lee_default):
    assert np.array_equal(build_chain(lee_default, 1), lee_default.hop_zero)


def test_build_chain_demo_two_cells_open(demo_model):
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 1.0  # hop_plus block at (cell 0, cell 1)
    expected[2, 1] = 1.0  # hop_minus block at (cell 1, cell 0)
    assert np.array_equal(build_chain(demo_model, 2), expected)


def test_build_chain_periodic_wrap_accumulates(demo_model, lee_default):
    # One periodic cell carries every hopping on the same block: h(0).
    assert np.allclose(build_chain(lee_default, 1, Boundary.PERIODIC),
                       hk(lee_default, 0.0), atol=1e-15)
    # Two periodic cells: wrap and interior couplings add up.
    ring = build_chain(demo_model, 2, Boundary.PERIODIC)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(ring, expected)


def test_build_chain_equals_the_cell_by_cell_sum(rng):
    # Reference: add each block one cell at a time, wrap blocks last.
    def by_cells(model, n, bc):
        mm, m0, mp = model.blocks()
        h = np.zeros((2 * n, 2 * n), dtype=complex)
        for j in range(n):
            h[2 * j:2 * j + 2, 2 * j:2 * j + 2] += m0
        for j in range(n - 1):
            h[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] += mp
            h[2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] += mm
        if bc is Boundary.PERIODIC:
            h[2 * n - 2:, :2] += mp
            h[:2, 2 * n - 2:] += mm
        return h
    randoms = [BlochModel(*(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2))
                            for _ in range(3))) for _ in range(5)]
    for model in (lee(), demo(), *randoms):
        for bc in Boundary:
            for n in (1, 2, 3, 8, 200):
                assert np.array_equal(build_chain(model, n, bc),
                                      by_cells(model, n, bc)), \
                    (model.label, bc, n)


def test_build_chain_validation(lee_default):
    with pytest.raises(ValueError):
        build_chain(lee_default, 0)
    with pytest.raises(ValueError):
        build_chain(lee_default, 3, "twisted")


def test_periodic_chain_matches_bloch_multiset():
    for model in (lee(), demo()):
        for n in (3, 8, 64):
            chain_vals = np.linalg.eigvals(
                build_chain(model, n, Boundary.PERIODIC))
            bloch_vals = np.linalg.eigvals(
                hk(model, 2 * np.pi * np.arange(n) / n)).ravel()
            assert multiset_distance(chain_vals, bloch_vals) < 1e-9, \
                (model.label, n)


def test_eig_dense_sorting_and_residuals(lee_default):
    h = build_chain(lee_default, 12)
    values, vectors = eig_dense(h)
    key = np.stack([values.real, values.imag])
    assert np.array_equal(np.lexsort(key[::-1]), np.arange(values.size))
    residual = np.linalg.norm(h @ vectors - vectors * values, axis=0)
    assert residual.max() <= 1e-9 * np.linalg.norm(h)


def test_eig_dense_failure_carries_diagnostics():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="finite: False"):
        eig_dense(bad)


def test_left_vectors_biorthonormal_where_conditioned():
    cases = [(lee(), 4, Boundary.OPEN), (lee(), 30, Boundary.PERIODIC),
             (demo(), 30, Boundary.OPEN), (lee(gamma=0.0), 30, Boundary.OPEN)]
    for model, n, bc in cases:
        spectrum = chain_spectrum(model, n, bc, with_left=True)
        product = spectrum.left_vectors @ spectrum.right_vectors
        err = np.abs(product - np.eye(2 * n)).max()
        assert err < 1e-8, (model.label, n, bc, err)


def test_left_vectors_standalone_recompute(lee_default):
    h = build_chain(lee_default, 4)
    left = left_vectors(h)
    _, right = eig_dense(h)
    assert np.abs(left @ right - np.eye(8)).max() < 1e-8


def test_left_vectors_keep_the_supplied_right_vectors(lee_default,
                                                     monkeypatch):
    # A supplied right basis is paired as it is, with or without its
    # eigenvalues; only a missing one takes another dense solve.
    h = build_chain(lee_default, 4)
    _, right = eig_dense(h)

    def no_solve(_):
        raise AssertionError("left_vectors re-ran the dense solve")
    monkeypatch.setattr("nhwind.lattice.eig_dense", no_solve)
    left = left_vectors(h, right)
    assert np.array_equal(left, np.linalg.inv(right))


def test_left_vectors_match_failure_on_ill_conditioned_chain(lee_default):
    # The right spectrum of the open skin-effect chain is so badly
    # conditioned that left and right eigenvalues cannot be paired.
    with pytest.raises(MatchFailure):
        chain_spectrum(lee_default, 30, Boundary.OPEN, with_left=True)


def test_left_vectors_pair_degenerate_hermitian_spectra():
    # Periodic Hermitian chains carry the +-k degeneracy; the pairing
    # must stay biorthonormal inside each degenerate pair.
    for model, n in ((lee(gamma=0.0), 30), (lee(0.3, 0.5, 0.0), 20)):
        spectrum = chain_spectrum(model, n, Boundary.PERIODIC,
                                  with_left=True)
        product = spectrum.left_vectors @ spectrum.right_vectors
        err = np.abs(product - np.eye(2 * n)).max()
        assert err < 1e-8, (model.label, n, err)


def test_left_vectors_open_skin_chain_pairs_below_gate(lee_default):
    spectrum = chain_spectrum(lee_default, 8, Boundary.OPEN, with_left=True)
    product = spectrum.left_vectors @ spectrum.right_vectors
    assert np.abs(product - np.eye(16)).max() < 1e-8


def test_left_vectors_refuse_open_skin_chain_above_gate(lee_default):
    # At 10 open cells the worst eigenvalue condition number is ~1.6e8,
    # so the relative bound eps max kappa_i (3.5e-8) exceeds the 1e-8
    # gate; pairing must refuse rather than return rows that are off by
    # ~1e-3.
    h = build_chain(lee_default, 10, Boundary.OPEN)
    with pytest.raises(MatchFailure, match="condition number"):
        left_vectors(h)


def test_ipr_extremes_and_classification():
    size = 60
    uniform = np.full((size, 1), 1.0 / np.sqrt(size), dtype=complex)
    spike = np.zeros((size, 1), dtype=complex)
    spike[17, 0] = 1.0
    assert ipr(uniform)[0] == pytest.approx(1.0 / size, abs=1e-15)
    assert ipr(spike)[0] == pytest.approx(1.0, abs=1e-15)
    assert classify(float(ipr(uniform)[0]), size) == "extended"
    assert classify(float(ipr(spike)[0]), size) == "localized"
    assert classify(0.07, size) == "intermediate"


def test_similarity_invariance_of_spectrum(lee_default, rng):
    h = build_chain(lee_default, 10)
    scale = rng.uniform(0.5, 2.0, size=20)
    transformed = (scale[:, None] * h) / scale[None, :]
    assert multiset_distance(np.linalg.eigvals(h),
                             np.linalg.eigvals(transformed)) < 1e-9


def test_defectiveness_scales():
    assert defectiveness(np.eye(8)) == pytest.approx(1.0)
    _, jordan_vecs = np.linalg.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert defectiveness(jordan_vecs) < 1e-8


def test_chain_spectrum_frozen_values(lee_default):
    spectrum = chain_spectrum(lee_default, 30)
    assert spectrum.size == 60
    assert spectrum.bc is Boundary.OPEN
    assert spectrum.max_abs_imag < 1e-6
    assert spectrum.gap == pytest.approx(GAP_30, abs=1e-4)
    assert spectrum.midgap_threshold == pytest.approx(MIDGAP_THRESHOLD_30,
                                                  abs=1e-4)
    assert set(spectrum.excluded) == {29, 30}
    # Nearly defective right basis, but not numerically zero.
    assert 1e-32 < spectrum.defectiveness < 1e-18
    assert defectiveness(spectrum) == spectrum.defectiveness
    assert spectrum.left_vectors is None


def test_skin_effect_median_iprs(lee_default):
    open_spectrum = chain_spectrum(lee_default, 30)
    periodic_spectrum = chain_spectrum(lee_default, 30, Boundary.PERIODIC)
    med_open = float(np.median(open_spectrum.iprs))
    med_periodic = float(np.median(periodic_spectrum.iprs))
    assert med_open == pytest.approx(MEDIAN_IPR_OPEN_30, abs=1e-3)
    assert med_periodic == pytest.approx(MEDIAN_IPR_PERIODIC_30, abs=1e-3)
    assert med_open / med_periodic > 5.0

    left_open = localization_profile(open_spectrum, side="left")
    left_periodic = localization_profile(periodic_spectrum, side="left")
    assert left_open.median_ipr == pytest.approx(MEDIAN_IPR_LEFT_OPEN_30,
                                                 abs=1e-3)
    assert left_periodic.median_ipr == pytest.approx(
        MEDIAN_IPR_LEFT_PERIODIC_30, abs=1e-3)
    assert left_open.median_ipr / left_periodic.median_ipr > 5.0


def test_hermitian_limit_has_no_skin_effect():
    med_open = float(np.median(chain_spectrum(lee(gamma=0.0), 30).iprs))
    med_periodic = float(np.median(
        chain_spectrum(lee(gamma=0.0), 30, Boundary.PERIODIC).iprs))
    assert max(med_open / med_periodic, med_periodic / med_open) < 2.0


def test_spectral_gap_empty_side_is_zero():
    values = np.array([0.5, 1.0, 2.0], dtype=complex)
    iprs = np.array([0.02, 0.02, 0.02])
    assert spectral_gap(values, iprs).gap == 0.0


def test_localization_profile_contract(lee_default):
    spectrum = chain_spectrum(lee_default, 6)
    profile = localization_profile(spectrum)
    assert profile.side == "right"
    assert profile.probabilities.shape == (12, 12)
    assert np.allclose(profile.probabilities.sum(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(profile.iprs, spectrum.iprs)
    assert np.array_equal(profile.eigenvalues, spectrum.eigenvalues)
    assert all(label in {"extended", "intermediate", "localized"}
               for label in profile.labels)
    with pytest.raises(ValueError):
        localization_profile(spectrum, side="upside down")


def test_localization_profile_left_side_is_independent(lee_default):
    # Left profiles come from the transposed chain, not from pairing,
    # so they work even where left_vectors raises MatchFailure.
    profile = localization_profile(chain_spectrum(lee_default, 30),
                                   side="left")
    assert profile.side == "left"
    assert np.allclose(profile.probabilities.sum(axis=0), 1.0, atol=1e-12)


def test_chain_spectrum_validation_rejects_corrupted_data(lee_default):
    spectrum = chain_spectrum(lee_default, 4)
    with pytest.raises(ValueError):
        dataclasses.replace(spectrum, eigenvalues=np.array(spectrum.eigenvalues)[::-1])
    with pytest.raises(ValueError):
        dataclasses.replace(spectrum, iprs=np.full(8, 1.5))


def test_spectrum_scan_rows_match_single_spectra(lee_default):
    rows = spectrum_scan(lee_default, (4, 6))
    assert [row.n_cells for row in rows] == [4, 6]
    for row in rows:
        spectrum = chain_spectrum(lee_default, row.n_cells)
        assert row.bc is Boundary.OPEN
        assert np.array_equal(row.eigenvalues, spectrum.eigenvalues)
        assert row.max_abs_imag == spectrum.max_abs_imag
        assert row.gap == spectrum.gap
        assert row.median_ipr == float(np.median(spectrum.iprs))
        assert row.im_fraction == float(
            np.mean(np.abs(spectrum.eigenvalues.imag) > 1e-2))
    periodic = spectrum_scan(lee_default, (4,), Boundary.PERIODIC)
    assert periodic[0].bc is Boundary.PERIODIC
    assert periodic[0].median_ipr == pytest.approx(0.199508268584, abs=1e-9)


def test_boundary_enum_round_trip():
    assert Boundary("open") is Boundary.OPEN
    assert Boundary("periodic") is Boundary.PERIODIC


def test_eig_dense_failure_diagnostics_on_transposed_matrix():
    # A transpose is F-ordered; the finiteness diagnostic must not trip
    # over it and replace the solver error.
    bad = np.array([[np.nan, 0.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="finite: False"):
        eig_dense(bad.T)


# Models for the momentum-block path: braided, trivial Hermitian,
# unbraided non-Hermitian, Hermitian with E(k) = E(-k), flat bands.
BLOCH_MODELS = (lee(), lee(0.7, 0.5, 0.0), lee(0.6, 0.4, 0.5),
                lee(gamma=0.0), demo())
BLOCH_SIZES = (1, 2, 3, 17, 64)


def test_periodic_spectrum_from_momentum_blocks_matches_dense():
    for model in BLOCH_MODELS:
        for n in BLOCH_SIZES:
            h = build_chain(model, n, Boundary.PERIODIC)
            norm = np.linalg.norm(h, 2)
            spectrum = chain_spectrum(model, n, Boundary.PERIODIC,
                                      with_left=True)
            values = spectrum.eigenvalues
            right, left = spectrum.right_vectors, spectrum.left_vectors
            tag = (model.label, n)
            assert multiset_distance(values, eig_dense(h)[0]) \
                <= 1e-12 * norm, tag
            assert np.linalg.norm(h @ right - right * values, 2) \
                <= 1e-13 * norm, tag
            assert np.linalg.norm(left @ h - values[:, None] * left, 2) \
                <= 1e-13 * norm, tag
            assert np.linalg.norm(left @ right - np.eye(2 * n), 2) \
                <= 1e-12, tag
            assert spectrum.defectiveness == pytest.approx(
                defectiveness(spectrum), rel=1e-12), tag
            assert np.array_equal(spectrum.iprs, ipr(right)), tag
            assert np.array_equal(left, left_vectors(None, right)), tag


def test_periodic_left_profile_matches_transposed_dense_solve():
    # Non-degenerate lee(): every eigenvalue of h.T matches one state of
    # the periodic profile, and the two states carry the same
    # participation ratio.  An open chain's transpose is the chain
    # mirrored in cell order, so there the profile is the mirrored right
    # profile, bit for bit, and each mirrored right state solves h.T.
    for bc in (Boundary.PERIODIC, Boundary.OPEN):
        for n in (3, 17, 64):
            spectrum = chain_spectrum(lee(), n, bc)
            profile = localization_profile(spectrum, side="left")
            h = build_chain(lee(), n, bc)
            if bc is Boundary.OPEN:
                states = spectrum.right_vectors[_mirror(n)]
                assert np.array_equal(profile.eigenvalues,
                                      spectrum.eigenvalues)
                assert np.array_equal(profile.probabilities,
                                      np.abs(states) ** 2)
                assert np.array_equal(profile.iprs, spectrum.iprs)
                _assert_left_states(h, spectrum.eigenvalues, states)
                continue
            values, vectors = eig_dense(h.T)
            match = np.argmin(np.abs(profile.eigenvalues[:, None]
                                     - values[None, :]), axis=1)
            assert np.array_equal(np.sort(match), np.arange(2 * n))
            assert np.max(np.abs(profile.eigenvalues
                                 - values[match])) < 1e-12
            assert np.max(np.abs(profile.iprs - ipr(vectors)[match])) < 1e-12


def test_transposed_blocks_build_the_transposed_chain(rng):
    # The left profile solves the chain of (hop_minus.T, hop_zero.T,
    # hop_plus.T) and mirrors it in cell order: that is the transpose
    # of the chain entry for entry, under both boundaries, one-cell ring
    # included (it sums its three blocks in the same order).
    randoms = [BlochModel(*(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2))
                            for _ in range(3))) for _ in range(20)]
    for model in (lee(), demo(), *randoms):
        transposed = _block_transposed(model)
        for bc in Boundary:
            for n in (1, 2, 3, 8):
                h_t = build_chain(transposed, n, bc)
                mirror = _mirror(n)
                assert np.array_equal(h_t[np.ix_(mirror, mirror)],
                                      build_chain(model, n, bc).T), \
                    (model.label, bc, n)


def test_periodic_chain_with_on_grid_exceptional_point_stays_dense():
    # lee(0.75, 0.5, 0.5) coalesces at k = pi, a sample of every even
    # ring: the chain falls back to the dense path, bit for bit, and
    # still pairs as it did before the momentum-block path existed.
    model = lee(0.75, 0.5, 0.5)
    h = build_chain(model, 4, Boundary.PERIODIC)
    values, right = eig_dense(h)
    spectrum = chain_spectrum(model, 4, Boundary.PERIODIC, with_left=True)
    assert np.array_equal(spectrum.eigenvalues, values)
    assert np.array_equal(spectrum.right_vectors, right)
    assert np.array_equal(spectrum.left_vectors,
                          left_vectors(h, right))
    assert np.array_equal(spectrum.iprs, ipr(right))
    assert spectrum.defectiveness == defectiveness(right)
    profile = localization_profile(spectrum, side="left")
    assert np.array_equal(profile.eigenvalues, values)
    assert np.array_equal(profile.iprs, ipr(right))
    assert np.array_equal(profile.probabilities,
                          np.abs(right[_mirror(4)]) ** 2)


def test_periodic_chain_with_scalar_sample_stays_dense():
    # h(k) = (cos k - 1) sigma_x vanishes at k = 0, a sample of every
    # ring, so the momentum blocks cannot label its states.
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = BlochModel(0.5 * sigma_x, -sigma_x, 0.5 * sigma_x)
    h = build_chain(model, 5, Boundary.PERIODIC)
    values, right = eig_dense(h)
    spectrum = chain_spectrum(model, 5, Boundary.PERIODIC, with_left=True)
    assert np.array_equal(spectrum.eigenvalues, values)
    assert np.array_equal(spectrum.right_vectors, right)
    assert np.array_equal(spectrum.left_vectors,
                          left_vectors(h, right))


def test_periodic_hermitian_chains_get_orthonormal_bloch_bases():
    # Degenerate momenta (E(k) = E(-k), the near-scalar h(pi) of
    # lee(0.5, 0.5, 0), demo()'s flat bands) leave the dense solver a
    # free mixture; the Bloch waves are an orthonormal choice, each
    # spread evenly over the cells.
    for model in (lee(gamma=0.0), lee(0.5, 0.5, 0.0), demo()):
        for n in (10, 30):
            spectrum = chain_spectrum(model, n, Boundary.PERIODIC)
            assert spectrum.defectiveness == pytest.approx(1.0, abs=1e-12)
            assert np.max(spectrum.iprs) <= (1.0 + 1e-12) / n


def test_periodic_pairing_gate_agrees_with_dense_gate():
    # Both paths refuse or accept together, with the same message.
    for scale in (1.0, 1e6, 1e9):
        model = BlochModel(*(scale * b for b in lee().blocks()))
        h = build_chain(model, 6, Boundary.PERIODIC)
        try:
            left_vectors(h)
        except MatchFailure as exc:
            with pytest.raises(MatchFailure, match="condition number"):
                chain_spectrum(model, 6, Boundary.PERIODIC, with_left=True)
            assert "condition number" in str(exc)
        else:
            chain_spectrum(model, 6, Boundary.PERIODIC, with_left=True)


def test_eig_dense_hermitian_chain_takes_hermitian_solver():
    # gamma = 0 makes the open chain exactly Hermitian: real eigenvalues
    # and an orthonormal basis, the same spectrum as the general solver.
    h = build_chain(lee(0.8, 0.5, 0.0), 30)
    assert np.array_equal(h, h.conj().T)
    norm = np.linalg.norm(h, 2)
    values, vectors = eig_dense(h)
    assert np.all(values.imag == 0.0)
    assert multiset_distance(values, np.linalg.eig(h)[0]) <= 1e-12 * norm
    assert np.linalg.norm(h @ vectors - vectors * values, 2) \
        <= 1e-13 * norm
    assert np.abs(vectors.conj().T @ vectors - np.eye(60)).max() <= 1e-13


def test_eig_dense_one_ulp_from_hermitian_takes_general_solver(monkeypatch):
    h = build_chain(lee(0.8, 0.5, 0.0), 30)
    near = h.copy()
    near[0, 1] = np.nextafter(near[0, 1].real, np.inf) + 1j * near[0, 1].imag

    def no_eigh(*args, **kwargs):
        raise AssertionError("the Hermitian solver was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    values, vectors = eig_dense(near)
    assert values.shape == (60,) and vectors.shape == (60, 60)
    with pytest.raises(AssertionError, match="Hermitian solver"):
        eig_dense(h)


def test_eig_dense_hermitian_failure_carries_diagnostics(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"dense eigensolver failed on a 60x60 matrix "
                             r"\(norm .*, finite: True\): Eigenvalues did "
                             r"not converge"):
        eig_dense(build_chain(lee(0.8, 0.5, 0.0), 30))


def test_pairing_gate_is_scale_free():
    # The gate reads eps max kappa_i, which scaling h leaves alone: a
    # well-conditioned chain pairs at any scale, a skin-effect chain
    # refuses at any scale, on the dense and the momentum-block path.
    cases = ((6, Boundary.OPEN, True), (10, Boundary.OPEN, False),
             (6, Boundary.PERIODIC, True))
    for scale in (1.0, 1e9, 1e-9):
        model = BlochModel(*(scale * b for b in lee().blocks()))
        for n, bc, pairs in cases:
            h = build_chain(model, n, bc)
            if pairs:
                left_vectors(h)
                chain_spectrum(model, n, bc, with_left=True)
            else:
                with pytest.raises(MatchFailure, match="condition number"):
                    left_vectors(h)
                with pytest.raises(MatchFailure, match="condition number"):
                    chain_spectrum(model, n, bc, with_left=True)


# Argument refusals of the chain helpers: (call, error, message).
ARGUMENT_REFUSALS = {
    "spectral_gap mismatched": (
        lambda: spectral_gap(np.zeros(4, complex), np.zeros(3)),
        ValueError, "matching 1-d arrays"),
    "spectral_gap 2-d": (
        lambda: spectral_gap(np.zeros((2, 2), complex), np.zeros((2, 2))),
        ValueError, "matching 1-d arrays"),
    "left_vectors singular right": (
        lambda: left_vectors(np.eye(2), np.ones((2, 2))),
        MatchFailure, "singular"),
    "chain_spectrum 0 open": (
        lambda: chain_spectrum(lee(), 0, Boundary.OPEN),
        ValueError, "n_cells must be >= 1, got 0"),
    "chain_spectrum 0 periodic": (
        lambda: chain_spectrum(lee(), 0, Boundary.PERIODIC),
        ValueError, "n_cells must be >= 1, got 0"),
    "chain_spectrum 2.5": (
        lambda: chain_spectrum(lee(), 2.5),
        TypeError, "cannot be interpreted as an integer"),
    "spectrum_scan 2.5": (
        lambda: spectrum_scan(lee(), [2.5, 3.9]),
        TypeError, "cannot be interpreted as an integer"),
}


@pytest.mark.parametrize("case", ARGUMENT_REFUSALS)
def test_chain_helpers_refuse_bad_arguments(case):
    call, error, match = ARGUMENT_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()


def _transposed(model):
    mm, m0, mp = model.blocks()
    return BlochModel(mp.T, m0.T, mm.T)


def _block_transposed(model):
    return BlochModel(*(block.T for block in model.blocks()))


def _mirror(n_cells):
    """Site order of the chain mirrored in cell order."""
    return np.arange(2 * n_cells).reshape(n_cells, 2)[::-1].ravel()


def _assert_left_states(h, values, states):
    """Each unit column of ``states`` is a right eigenvector of ``h.T``
    with backward error at most 1e-12 |h|."""
    residual = np.linalg.norm(h.T @ states - states * values, axis=0)
    assert residual.max() <= 1e-12 * np.linalg.norm(h)


SIGMA = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.array([[1, 0], [0, -1]], dtype=complex)}
# h(k) = (cos k - 1) sigma_x + 0.3, scalar at k = 0.
SCALAR_AT_0 = BlochModel(0.5 * SIGMA["x"], 0.3 * np.eye(2) - SIGMA["x"],
                         0.5 * SIGMA["x"])
LEE_SHIFTED = BlochModel(lee().hop_minus, lee().hop_zero + np.diag([.8, .15]),
                         lee().hop_plus)
GENERIC = BlochModel([[0.3, 0.2j], [0.1, -0.4j]],
                     [[0.5 + 0.1j, 0.2], [0.7j, -0.3]],
                     [[0.2, -0.1], [0.4j, 0.6]])
# The lee models of tools/parity.py: braided, Hermitian, unbraided, and
# lee(.75, .5, .5) with an exceptional point on every even ring.
LEE_MODELS = tuple(lee(*p) for p in (
    (), (.7, .5, 0), (.6, .4, .5), (.9, .5, 1.2), (.3, .5, 0),
    (.3, .5, .3), (.8, .5, 3), (.55, .5, .2), (.75, .5, .5)))


def _random_su2(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q / np.sqrt(np.linalg.det(q))


def test_real_frame_of_lee_chains_is_the_z_axis(rng):
    # lee's blocks are t 1 + (a + i b) . sigma with a along x and b along
    # z, so n = z and V^dagger sigma_z V = sigma_y; the rotated blocks are
    # the real intracell hops v +- gamma/2 and intercell hop r.
    q = _random_su2(rng)
    turned = BlochModel(*(q @ b @ q.conj().T for b in lee().blocks()))
    models = (lee(), lee(0.8, 0.5, 0.7), lee(0.3, 0.5, 0.3),
              lee(0.9, 0.5, 1.2), lee(gamma=0.0), _transposed(lee()),
              _transposed(lee(0.6, 0.4, 0.5)), turned)
    for model in models:
        v, rotated = _real_frame(model)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-15
        scale = max(np.abs(b).max() for b in model.blocks())
        for block, real in zip(model.blocks(), rotated.blocks()):
            assert not np.any(real.imag), model
            assert np.abs(v @ real @ v.conj().T - block).max() \
                <= FRAME_TOL * scale, model
        if model is not turned:
            assert np.abs(v.conj().T @ SIGMA["z"] @ v
                          - SIGMA["y"]).max() <= 1e-15
    v, rotated = _real_frame(lee(0.52, 0.5, 1.0))
    assert np.allclose(rotated.hop_zero.real, [[0, 1.02], [0.02, 0]],
                       rtol=0, atol=1e-15)
    assert np.array_equal(rotated.hop_plus, [[0, 0], [0.5, 0]])
    assert np.array_equal(rotated.hop_minus, [[0, 0.5], [0, 0]])


def test_real_frame_of_real_and_frameless_models():
    for model in (demo(), SCALAR_AT_0):
        v, rotated = _real_frame(model)
        assert np.array_equal(v, np.eye(2)) and rotated is model
    for model in (LEE_SHIFTED, GENERIC):
        assert _real_frame(model) is None
        for n in (3, 12):
            values, right = eig_dense(build_chain(model, n))
            spectrum = chain_spectrum(model, n)
            assert np.array_equal(spectrum.eigenvalues, values)
            assert np.array_equal(spectrum.right_vectors, right)


def test_framed_open_chains_are_conjugation_closed_and_small_residual():
    # The real solve pairs every non-real eigenvalue with its exact
    # conjugate; its back-rotated vectors solve the complex chain.
    for model, n in ((lee(), 30), (lee(0.8, 0.5, 0.7), 64), (lee(), 200)):
        spectrum = chain_spectrum(model, n)
        values, right = spectrum.eigenvalues, spectrum.right_vectors
        conj = values.conj()
        assert np.array_equal(conj[np.lexsort((conj.imag, conj.real))],
                              values)
        h = build_chain(model, n)
        residual = np.linalg.norm(h @ right - right * values, axis=0)
        assert residual.max() <= 1e-12 * np.linalg.norm(h)
        assert np.allclose(np.linalg.norm(right, axis=0), 1.0, atol=1e-13)
        assert np.array_equal(spectrum.iprs, ipr(right))


def test_framed_hermitian_open_chain_reaches_the_hermitian_solver(
        monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("the general solver was called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    spectrum = chain_spectrum(lee(0.8, 0.5, 0.0), 30)
    right = spectrum.right_vectors
    assert np.all(spectrum.eigenvalues.imag == 0.0)
    assert np.abs(right.conj().T @ right - np.eye(60)).max() <= 1e-13


def test_framed_left_rows_pair_with_the_back_rotated_vectors():
    spectrum = chain_spectrum(lee(), 6, with_left=True)
    left, right = spectrum.left_vectors, spectrum.right_vectors
    assert np.array_equal(left, left_vectors(None, right))
    assert np.abs(left @ right - np.eye(12)).max() <= 1e-10
    h = build_chain(lee(), 6)
    residual = np.linalg.norm(left @ h - spectrum.eigenvalues[:, None] * left,
                              axis=1)
    assert np.max(residual / np.linalg.norm(left, axis=1)) \
        <= 1e-12 * np.linalg.norm(h)
    with pytest.raises(MatchFailure, match="condition number"):
        chain_spectrum(lee(), 12, with_left=True)


def test_framed_open_chains_at_the_float64_extremes_raise_no_warning():
    reference = chain_spectrum(lee(), 6)
    for scale in (1e-170, 1e160):
        model = BlochModel(*(scale * b for b in lee().blocks()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v, _ = _real_frame(model)
            spectrum = chain_spectrum(model, 6, with_left=True)
        assert np.array_equal(v, _real_frame(lee())[0])
        assert np.abs(spectrum.eigenvalues / scale
                      - reference.eigenvalues).max() <= 1e-12
        assert np.abs(spectrum.iprs - reference.iprs).max() <= 1e-12


def test_left_and_right_open_lee_iprs_agree_where_float64_resolves_them():
    # lee's blocks are symmetric, so the left profile solves the chain
    # itself and mirrors its weights: eigenvalues and participation
    # ratios are the right ones, bit for bit, at every size.
    for model in LEE_MODELS:
        for bc in Boundary:
            for n in (10, 30, 100):
                spectrum = chain_spectrum(model, n, bc)
                left = localization_profile(spectrum, side="left")
                right = localization_profile(spectrum)
                tag = (model.label, bc, n)
                assert np.array_equal(left.eigenvalues,
                                      spectrum.eigenvalues), tag
                assert np.array_equal(left.iprs, spectrum.iprs), tag
                assert np.array_equal(left.probabilities,
                                      right.probabilities[_mirror(n)]), tag


def test_left_profiles_of_models_without_symmetric_blocks():
    # demo() is real but not symmetric, GENERIC and LEE_SHIFTED have no
    # real frame: their left profiles come from a solve of their own,
    # whose mirrored states solve h.T.
    for model in (demo(), GENERIC, LEE_SHIFTED):
        for bc in Boundary:
            for n in (3, 8, 12):
                spectrum = chain_spectrum(model, n, bc)
                profile = localization_profile(spectrum, side="left")
                values, states = _solve(_block_transposed(model), n, bc)[:2]
                states = states[_mirror(n)]
                h = build_chain(model, n, bc)
                tag = (model.label, bc, n)
                assert np.array_equal(profile.eigenvalues, values), tag
                assert np.array_equal(profile.probabilities,
                                      np.abs(states) ** 2), tag
                _assert_left_states(h, values, states)
                assert multiset_distance(
                    values, np.linalg.eigvals(h.T)) \
                    <= 1e-12 * np.linalg.norm(h, 2), tag


def test_symmetric_block_left_profiles_take_no_solve(monkeypatch):
    # Each block of these models equals its transpose, so the left
    # profile takes the record's own right states, mirrored, and no
    # solve: bit for bit what the block-transposed chain's solve gives.
    cases = [(model, n, bc)
             for model in (lee(), lee(0.6, 0.4, 0.5), lee(0.7, 0.5, 0.0))
             for bc in Boundary for n in (3, 8, 30)]
    expected = [(chain_spectrum(model, n, bc),
                 *_solve(_block_transposed(model), n, bc)[:2])
                for model, n, bc in cases]

    def no_solve(*args, **kwargs):
        raise AssertionError("the left profile solved a chain")
    monkeypatch.setattr("nhwind.lattice._solve", no_solve)
    for (model, n, bc), (spectrum, values, states) in zip(cases, expected):
        profile = localization_profile(spectrum, side="left")
        tag = (model.label, bc, n)
        assert np.array_equal(profile.eigenvalues, values), tag
        assert np.array_equal(profile.probabilities,
                              np.abs(states[_mirror(n)]) ** 2), tag
        assert np.array_equal(profile.iprs, ipr(states)), tag


def test_left_profiles_of_non_symmetric_blocks_solve_once(monkeypatch, rng):
    random = BlochModel(*(rng.normal(size=(2, 2))
                          + 1j * rng.normal(size=(2, 2)) for _ in range(3)))
    spectra = [chain_spectrum(model, 8, bc)
               for model in (demo(), random) for bc in Boundary]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _solve(*args, **kwargs)
    monkeypatch.setattr("nhwind.lattice._solve", counted)
    for spectrum in spectra:
        localization_profile(spectrum, side="left")
        assert len(calls) == 1, (spectrum.model.label, spectrum.bc)
        calls.clear()


def test_mirror_gives_the_pairing_condition_numbers():
    # Symmetric blocks make h.T the chain mirrored in cell order (P), so
    # the left eigenvector of lambda_i is P r_i and, for unit r_i, the
    # condition number that left_vectors implies is 1/|r_i^T P r_i|.
    for model in (lee(), lee(0.6, 0.4, 0.5), lee(0.8, 0.5, 3.0)):
        for n in (4, 8):
            spectrum = chain_spectrum(model, n, with_left=True)
            left, right = spectrum.left_vectors, spectrum.right_vectors
            kappa = (np.linalg.norm(left, axis=1)
                     * np.linalg.norm(right, axis=0)
                     / np.abs(np.einsum("ij,ji->i", left, right)))
            mirrored = 1 / np.abs(np.einsum("ji,ji->i", right,
                                            right[_mirror(n)]))
            assert np.allclose(kappa, mirrored, rtol=1e-9, atol=0), \
                (model.label, n)
