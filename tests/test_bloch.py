"""Unit tests for the two-band Bloch models and the 2x2 eigensolver."""
import dataclasses
import warnings

import numpy as np
import pytest

from conftest import multiset_distance
from nhwind import (AmbiguousTracking, BlochModel, Boundary, Defective, Gauge,
                    GaugeSingular, build_chain, chain_spectrum, demo, eig2,
                    eig_dense, hk, hk_derivative, lee, localization_profile,
                    loop_period, spectrum_scan)
from nhwind.bloch import EigenSystem2

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_hk_lee_k0():
    h = hk(lee(), 0.0)
    expected = np.array([[0.5j, 1.02], [1.02, -0.5j]])
    assert np.allclose(h, expected, atol=1e-15)


def test_hk_demo_endpoints():
    assert np.allclose(hk(demo(), 0.0), SIGMA_X, atol=1e-15)
    assert np.allclose(hk(demo(), np.pi), -SIGMA_X, atol=1e-12)


def test_hk_hermitian_limit_near_band_touching():
    # gamma=0 at k=pi: x = v - r is the only surviving entry.
    h = hk(lee(0.52, 0.5, 0.0), np.pi)
    assert np.allclose(h, 0.02 * SIGMA_X, atol=1e-15)


def test_hk_array_shape_matches_scalar():
    k = np.linspace(0.0, 2 * np.pi, 7)
    batch = hk(lee(), k)
    assert batch.shape == (7, 2, 2)
    for j, kj in enumerate(k):
        assert np.array_equal(batch[j], hk(lee(), float(kj)))


def test_hk_and_derivative_batch_shapes_match_scalar_calls():
    # Entry planes are contiguous inside, but the public shape stays
    # k.shape + (2, 2) and every sample equals the scalar call bit for
    # bit, for 1-d and 2-d momentum arrays alike.
    model = lee(0.6, 0.4, 0.5)
    for k in (np.linspace(-1.0, 7.0, 9), np.linspace(0.0, 6.0, 12)
              .reshape(3, 4)):
        for fn in (hk, hk_derivative):
            batch = fn(model, k)
            assert batch.shape == k.shape + (2, 2), fn.__name__
            for idx in np.ndindex(k.shape):
                assert np.array_equal(batch[idx], fn(model, float(k[idx])))
            assert all(batch[..., i, j].flags.c_contiguous
                       for i in range(2) for j in range(2))


def test_hk_derivative_matches_finite_difference():
    model = lee()
    dk = 1e-6
    for k in (0.3, 1.7, 4.4):
        fd = (hk(model, k + dk) - hk(model, k - dk)) / (2 * dk)
        assert np.allclose(hk_derivative(model, k), fd, atol=1e-8)


def test_hopping_blocks_recoverable_from_fourier_modes():
    model = lee()
    n = 64
    k = 2 * np.pi * np.arange(n) / n
    samples = hk(model, k)
    phase = np.exp(1j * k)
    for block, weight in ((model.hop_minus, phase),
                          (model.hop_zero, np.ones(n)),
                          (model.hop_plus, np.conj(phase))):
        recovered = np.einsum("j,jab->ab", weight, samples) / n
        assert np.abs(recovered - block).max() < 1e-14


def test_model_labels():
    assert demo().label == "demo"
    assert lee().label == "lee(v=0.52,r=0.5,gamma=1)"
    assert BlochModel(np.zeros((2, 2)), SIGMA_X, np.zeros((2, 2))).label == \
        "custom"


def test_model_validation():
    with pytest.raises(ValueError):
        BlochModel(np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        BlochModel(np.zeros((2, 2)), np.array([[np.inf, 0], [0, 0]]),
                   np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lee(v=np.nan)


def test_model_accepts_transposed_blocks():
    # Transposes are F-ordered views; the model must take them like any
    # other 2x2 array, and still refuse non-finite entries in them.
    rng = np.random.default_rng(7)
    for dtype in (float, complex):
        blocks = [rng.normal(size=(2, 2)).astype(dtype) for _ in range(3)]
        model = BlochModel(*(b.T for b in blocks))
        copy = BlochModel(*(np.ascontiguousarray(b.T) for b in blocks))
        for got, want in zip(model.blocks(), copy.blocks()):
            assert np.array_equal(got, want)
    bad = np.array([[0.0, np.nan], [0.0, 0.0]]).T
    with pytest.raises(ValueError, match="non-finite"):
        BlochModel(bad, np.zeros((2, 2)), np.zeros((2, 2)))


def test_model_immutability():
    model = lee()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.label = "other"
    with pytest.raises(ValueError):
        model.hop_zero[0, 0] = 5.0


def test_eig2_sigma_x_scaled():
    sys2 = eig2(1.02 * SIGMA_X)
    assert sys2.e_plus == pytest.approx(1.02)
    assert sys2.e_minus == pytest.approx(-1.02)
    assert np.allclose(sys2.u_plus, [1.0, 1.0])
    assert np.allclose(sys2.u_minus, [1.0, -1.0])


def test_eig2_lee_k0_closed_form():
    # E^2 = x^2 + z^2 = 1.02^2 - 0.25 = 0.7904; psi = (E - z)/x.
    h = hk(lee(), 0.0)
    sys2 = eig2(h)
    energy = np.sqrt(0.7904)
    assert sys2.e_plus == pytest.approx(energy, abs=1e-15)
    assert sys2.e_minus == pytest.approx(-energy, abs=1e-15)
    assert sys2.u_plus[0] == 1.0
    assert sys2.u_plus[1] == pytest.approx(
        0.87161218709383792 - 0.49019607843137253j, abs=1e-15)


def test_eig2_matches_dense_solver(rng):
    for _ in range(50):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sys2 = eig2(h)
        dense = np.linalg.eigvals(h)
        assert multiset_distance([sys2.e_plus, sys2.e_minus], dense) < 1e-12
        for band in (+1, -1):
            energy, u, _ = sys2.band(band)
            assert np.linalg.norm(h @ u - energy * u) <= \
                1e-12 * np.linalg.norm(h) * np.linalg.norm(u)


def test_eig2_residuals_on_loop_grid():
    k = 2 * np.pi * np.arange(1024) / 1024
    cases = [(lee(), list(Gauge)),
             (demo(), [Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE])]
    for model, gauges in cases:
        for gauge in gauges:
            for kj in k[::8]:
                h = hk(model, float(kj))
                sys2 = eig2(h, gauge)
                scale = np.linalg.norm(h)
                for band in (+1, -1):
                    energy, u, _ = sys2.band(band)
                    res = np.linalg.norm(h @ u - energy * u)
                    assert res <= 1e-12 * scale * np.linalg.norm(u)


def test_eig2_biorthogonality_component_gauges():
    k = 2 * np.pi * np.arange(256) / 256
    for gauge in (Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE):
        for kj in k[::4]:
            sys2 = eig2(hk(lee(), float(kj)), gauge)
            assert sys2.l_plus @ sys2.u_plus == pytest.approx(1.0, abs=1e-12)
            assert sys2.l_minus @ sys2.u_minus == pytest.approx(1.0, abs=1e-12)
            assert abs(sys2.l_plus @ sys2.u_minus) < 1e-10
            assert abs(sys2.l_minus @ sys2.u_plus) < 1e-10


def test_eig2_left_vectors_are_left_eigenvectors():
    for kj in (0.0, 0.9, 2.5, 5.1):
        h = hk(lee(), kj)
        sys2 = eig2(h, Gauge.SECOND_COMPONENT_ONE)
        for band in (+1, -1):
            energy, _, left = sys2.band(band)
            res = np.linalg.norm(left @ h - energy * left)
            assert res <= 1e-10 * np.linalg.norm(h) * np.linalg.norm(left)


def test_eig2_transpose_pairing_is_verbatim():
    # No symmetry requirement: l is stored as u even when u^T is not a
    # left eigenvector, and the pairing l@u = u^T u is not rescaled.
    h = np.array([[0.3, 1.0], [0.25, -0.1]], dtype=complex)
    sys2 = eig2(h, Gauge.TRANSPOSE)
    assert np.array_equal(sys2.l_plus, sys2.u_plus)
    assert np.array_equal(sys2.l_minus, sys2.u_minus)
    assert sys2.l_plus @ sys2.u_plus != pytest.approx(1.0, abs=1e-3)


def test_eig2_transpose_left_eigenvector_for_symmetric_h():
    # lee models are complex symmetric, so u^T really is a left
    # eigenvector there.
    for kj in (0.4, 2.2, 3.9):
        h = hk(lee(), kj)
        sys2 = eig2(h, Gauge.TRANSPOSE)
        for band in (+1, -1):
            energy, _, left = sys2.band(band)
            res = np.linalg.norm(left @ h - energy * left)
            assert res <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(left)


def test_eig2_transpose_self_orthogonal_raises():
    with pytest.raises(GaugeSingular, match="gauge 'transpose': "
                       "self-orthogonal transpose pairing"):
        eig2(hk(demo(), np.pi / 2), Gauge.TRANSPOSE)


def test_eig2_defective_raises():
    for h in (np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0]]),
              np.array([[1.0, 1.0], [0.0, 1.0]])):
        with pytest.raises(Defective):
            eig2(h)


def test_eig2_refuses_an_on_grid_exceptional_point_as_the_loop_does():
    # lee(0.75, 0.5, 0.5) coalesces at k = pi; float rounding leaves a
    # ratio of 1.1e-8 there, which every sampled path refuses too.
    model = lee(0.75, 0.5, 0.5)
    for gauge in Gauge:
        with pytest.raises(Defective, match=r"parallel \(ratio 1.11e-08\)"):
            eig2(hk(model, np.pi), gauge)
    with pytest.raises(Defective, match="near k = 3.141593"):
        loop_period(model, 128)


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_eig2_is_scale_free(scale):
    h = scale * SIGMA_Z
    sys2 = eig2(h, Gauge.SMOOTH)
    for band in (+1, -1):
        energy, u, _ = sys2.band(band)
        assert (np.linalg.norm(h @ u - energy * u)
                <= 1e-15 * np.linalg.norm(h) * np.linalg.norm(u))
    with pytest.raises(Defective):
        eig2(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    scalar = eig2(scale * (1.0 + 2.0j) * np.eye(2))
    assert np.allclose(scalar.u_plus, [1.0, 1.0], rtol=0, atol=1e-15)
    assert np.allclose(scalar.u_minus, [1.0, -1.0], rtol=0, atol=1e-15)


def test_underflowing_samples_count_as_scalar_without_warning():
    # At 1e-170 the squares of every entry underflow to 0, so no null
    # row has a norm to scale by: a float64 limit, not a property of
    # the model.  Such samples count as scalar, as a zero matrix does.
    model = BlochModel(*(1e-170 * b for b in lee().blocks()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AmbiguousTracking, match="scalar Hamiltonian"):
            loop_period(model, 64)
        values, right = eig_dense(build_chain(model, 4, Boundary.PERIODIC))
        spectrum = chain_spectrum(model, 4, Boundary.PERIODIC)
        assert np.array_equal(spectrum.eigenvalues, values)
        assert np.array_equal(spectrum.right_vectors, right)
        # A null row whose entries have both parts nonzero divides to
        # inf + inf j, whose products must not warn either.
        generic = eig2(1e-170 * (1 + 1j) * (SIGMA_X + SIGMA_Z))
        sys2 = eig2(1e-300 * SIGMA_Z)
    for basis in (generic, sys2):
        assert np.array_equal(basis.u_plus, [1.0, 1.0])
        assert np.array_equal(basis.u_minus, [1.0, -1.0])


def test_eig2_splitting_far_below_the_mean_energy():
    # m^2 - det h cancels to 0 here; the discriminant ((a - d)/2)^2 + bc
    # keeps the 1e-9 splitting of this well-conditioned Hermitian matrix.
    # The vectors keep it too: a null row (b, E - a) would hold 1e-9
    # recovered from (1 + 1e-9) - 1, 8e-8 off, and the residual would
    # not show it.
    h = np.array([[1.0, 1e-9], [1e-9, 1.0]], dtype=complex)
    sys2 = eig2(h)
    assert abs(sys2.e_plus - (1.0 + 1e-9)) <= 1e-15
    assert abs(sys2.e_minus - (1.0 - 1e-9)) <= 1e-15
    for band, exact in ((+1, [1.0, 1.0]), (-1, [1.0, -1.0])):
        energy, u, left = sys2.band(band)
        assert np.linalg.norm(h @ u - energy * u) <= 1e-15
        assert left @ u == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(u - exact) <= 1e-15 * np.linalg.norm(exact)


def test_eig2_gauge_singular_on_vanishing_component():
    for gauge in (Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE,
                  Gauge.TRANSPOSE):
        with pytest.raises(GaugeSingular, match=f"gauge '{gauge.value}': "
                           "its pinned spinor vanishes"):
            eig2(SIGMA_Z, gauge)


def test_eig2_smooth_gauge_regular_where_components_vanish():
    # sigma_z has eigenvectors e1 and e2, so every component gauge
    # raises; the smooth gauge picks (1, i) over both bands.
    sys2 = eig2(SIGMA_Z, Gauge.SMOOTH)
    assert np.allclose(sys2.reference, np.array([1.0, 1.0j]) / np.sqrt(2),
                       rtol=0, atol=1e-15)
    for band in (+1, -1):
        energy, u, left = sys2.band(band)
        assert np.linalg.norm(SIGMA_Z @ u - energy * u) < 1e-15
        assert sys2.reference @ u == pytest.approx(1.0, abs=1e-15)
        assert left @ u == pytest.approx(1.0, abs=1e-15)
    assert abs(sys2.l_plus @ sys2.u_minus) < 1e-15
    # Tie between e1 and e2 (and (1, +-i)): the earliest candidate wins,
    # which reproduces the first-component gauge.
    tied = eig2(SIGMA_X, Gauge.SMOOTH)
    first = eig2(SIGMA_X, Gauge.FIRST_COMPONENT_ONE)
    assert np.array_equal(tied.reference, [1.0, 0.0])
    assert np.array_equal(tied.u_plus, first.u_plus)
    assert np.array_equal(tied.u_minus, first.u_minus)
    assert np.array_equal(first.reference, [1.0, 0.0])


def test_eig2_scalar_matrix_is_not_defective():
    sys2 = eig2((1.0 + 2.0j) * np.eye(2))
    assert sys2.e_plus == pytest.approx(1.0 + 2.0j)
    assert sys2.e_minus == pytest.approx(1.0 + 2.0j)
    assert np.allclose(sys2.u_plus, [1.0, 1.0])
    assert np.allclose(sys2.u_minus, [1.0, -1.0])
    assert sys2.l_plus @ sys2.u_plus == pytest.approx(1.0, abs=1e-15)
    assert abs(sys2.l_plus @ sys2.u_minus) < 1e-15


def test_eig2_hermitian_limit_reality():
    for kj in (0.0, 1.1, 3.0, 5.9):
        sys2 = eig2(hk(lee(gamma=0.0), kj))
        assert abs(sys2.e_plus.imag) < 1e-12
        assert abs(sys2.e_minus.imag) < 1e-12
        # Hermitian case: each left vector is the conjugated right up to
        # scale.  With l@u = 1 fixed, Cauchy-Schwarz turns that into an
        # equality of norms.
        for band in (+1, -1):
            _, u, left = sys2.band(band)
            assert np.linalg.norm(left) * np.linalg.norm(u) == \
                pytest.approx(1.0, rel=1e-10)


def test_eig2_input_validation():
    with pytest.raises(ValueError):
        eig2(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        eig2(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        eig2(np.array([[np.inf, 1.0], [1.0, 0.0]]))


def test_eig2_gauge_strings_match_enum():
    h = hk(lee(), 0.3)
    for gauge in Gauge:
        by_enum = eig2(h, gauge)
        by_string = eig2(h, gauge.value)
        assert by_string.gauge is gauge
        for field in dataclasses.fields(by_enum):
            want = getattr(by_enum, field.name)
            got = getattr(by_string, field.name)
            if want is None or isinstance(want, Gauge):
                assert got is want, (gauge, field.name)
            else:
                assert np.array_equal(got, want), (gauge, field.name)
    with pytest.raises(ValueError):
        eig2(h, "third")


def test_band_accessor_rejects_other_labels():
    sys2 = eig2(SIGMA_X)
    with pytest.raises(ValueError):
        sys2.band(0)


def test_sampled_records_adopt_their_arrays_and_block_records_copy():
    traj = loop_period(lee(), 256)
    spectrum = chain_spectrum(lee(), 4, Boundary.PERIODIC, with_left=True)
    profile = localization_profile(spectrum)
    row = spectrum_scan(lee(), [4])[0]
    # A record of sampled arrays stores the very array it is given and
    # makes it read-only.
    for record, name in ((traj, "k_grid"), (traj, "states"),
                         (spectrum, "eigenvalues"), (spectrum, "left_vectors"),
                         (spectrum, "iprs"), (profile, "probabilities"),
                         (profile, "iprs"), (row, "eigenvalues")):
        given = np.array(getattr(record, name))
        built = dataclasses.replace(record, **{name: given})
        assert getattr(built, name) is given, name
        assert not given.flags.writeable, name
    unpaired = dataclasses.replace(spectrum, left_vectors=None)
    assert unpaired.left_vectors is None
    # A refused construction leaves the given array writeable.
    unsorted = np.array(spectrum.eigenvalues[::-1])
    with pytest.raises(ValueError, match="sorted"):
        dataclasses.replace(spectrum, eigenvalues=unsorted)
    assert unsorted.flags.writeable
    jumped = np.array(traj.energies)
    jumped[5:] = traj.energies_other[5:]
    with pytest.raises(ValueError, match="continuously tracked"):
        dataclasses.replace(traj, energies=jumped)
    assert jumped.flags.writeable
    # Records of 2x2 blocks and 2-vectors keep copies: the given array
    # stays writeable, and writing to it leaves the record as it was.
    block = np.array(SIGMA_X)
    model = BlochModel(block, block, block)
    assert block.flags.writeable
    block[0, 0] = 5.0
    assert np.array_equal(model.hop_zero, SIGMA_X)
    es = eig2(hk(lee(), 0.3))
    u, c = np.array(es.u_plus), np.array(es.reference)
    built = EigenSystem2(es.e_plus, es.e_minus, u, es.u_minus, es.l_plus,
                         es.l_minus, es.gauge, c)
    assert u.flags.writeable and c.flags.writeable
    u[0] = c[0] = 7.0
    assert np.array_equal(built.u_plus, es.u_plus)
    assert np.array_equal(built.reference, es.reference)
