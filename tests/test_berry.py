"""Unit tests for branch tracking, Berry phases, and winding numbers."""
import dataclasses

import numpy as np
import pytest

from nhwind import (AmbiguousTracking, Band, BlochModel, Defective, Gauge,
                    GaugeSingular, LoopTrajectory, NoClosure, SplitWindings,
                    WindingReport, band_winding, berry_phase, demo, eig2,
                    hk, hk_derivative, lee, loop_period, split_check,
                    winding_lee, winding_number, winding_report)
from nhwind import berry
from nhwind.berry import _track_branches, _tracked_segment
from nhwind.bloch import (REFERENCE_SPINORS, EigenSystem2, _reference_spinor,
                          _roots)

# Frozen per-band windings of the lee defaults at grid 8192.
W_PLUS = 0.163074835164099
W_MINUS = 0.836925164835902

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_band_enum_coercion():
    assert Band(+1) is Band.PLUS
    assert Band(-1) is Band.MINUS
    assert Band.PLUS == 1 and Band.MINUS == -1
    with pytest.raises(ValueError):
        Band(0)


def _tracked(e1, e2, band):
    """(tracked, other) energies of the roots ``e1``/``e2`` as the
    tracker's mask selects them."""
    e1, e2 = np.asarray(e1, dtype=complex), np.asarray(e2, dtype=complex)
    on2 = _track_branches(0.5 * (e1 - e2), band)
    return np.where(on2, e2, e1), np.where(on2, e1, e2)


def test_track_branches_follows_nearest():
    e1 = np.array([0.0, 0.1, 0.2], dtype=complex)
    e2 = np.array([1.0, 0.9, 0.8], dtype=complex)
    tracked, other = _tracked(e1, e2, Band.PLUS)
    assert np.array_equal(tracked, e1)
    assert np.array_equal(other, e2)
    tracked, other = _tracked(e1, e2, Band.MINUS)
    assert np.array_equal(tracked, e2)


def test_track_branches_refuses_a_vanishing_splitting():
    # A vanishing splitting at sample 0 ties the continuity rule: no
    # direction of the splitting there says which root sample 1 is on.
    e1 = np.array([0.0, 1.0], dtype=complex)
    e2 = np.array([0.0, -1.0], dtype=complex)
    for band in Band:
        with pytest.raises(AmbiguousTracking,
                           match=r"tie at step 1 \(samples 0 to 1\)"):
            _tracked(e1, e2, band)


def test_track_branches_follows_the_splitting_not_the_mean():
    # The mean energy jumps by 10 between the samples.  The splitting
    # e1 - e2 keeps its sign, so the branch stays on e1, although e2[1]
    # is the nearer energy.
    e1 = np.array([1.0, 11.0], dtype=complex)
    e2 = np.array([-1.0, 9.0], dtype=complex)
    tracked, other = _tracked(e1, e2, Band.PLUS)
    assert np.array_equal(tracked, e1) and np.array_equal(other, e2)
    # A sign change of the splitting swaps the labels, here again onto
    # the farther energy.
    tracked, _ = _tracked([1.0, 9.0], [-1.0, 11.0], Band.PLUS)
    assert np.array_equal(tracked, [1.0, 11.0])


def test_track_branches_refuses_a_right_angle_turn():
    # The splitting turns by a right angle at sample 1 (2 -> 2i), an
    # exact tie of the continuity rule: +2i and -2i are equally near,
    # so the grid does not say which root the branch continues on.
    e1 = np.array([1.0, 1.0j], dtype=complex)
    e2 = -e1
    for band in Band:
        with pytest.raises(AmbiguousTracking,
                           match="tie at step 1 .*does not resolve"):
            _tracked(e1, e2, band)
    # Just off the right angle the rule decides again.
    tracked, _ = _tracked([1.0, 1e-6 + 1.0j], [-1.0, -1e-6 - 1.0j],
                           Band.PLUS)
    assert np.array_equal(tracked, [1.0, 1e-6 + 1.0j])


def test_tracked_segment_refuses_a_right_angle_tie():
    # Explicit samples h_j = R_j diag(s_j, -s_j) R_j^-1 with s = (1, i):
    # the splitting turns by a right angle, an exact tie.  However the
    # eigenvectors of the two samples overlap, every band and gauge
    # refuses the step, and the message names the segment.
    s = np.array([1.0, 1.0j])
    rs = np.array([[[1.0, 0.3 + 0.1j], [0.2, 1.0]],
                   [[0.25, 1.0], [1.0 - 0.05j, 0.35]]], dtype=complex)
    h = np.stack([r @ np.diag([sj, -sj]) @ np.linalg.inv(r)
                  for r, sj in zip(rs, s)])
    k_inc = np.array([0.0, 0.1])
    for band in Band:
        for gauge in Gauge:
            with pytest.raises(AmbiguousTracking,
                               match=r"tie at step 1 .* \(of 2 samples on "
                                     r"\[0, 0\.100000\]\)"):
                _tracked_segment(lee(), k_inc, gauge, band, (h, s, -s, s))


def test_tracked_segment_energies_and_vectors_share_one_mask():
    # The braided lee() loop moves the branch between the roots e1 and
    # e2 over its two zones.  Energies and gauge-fixed vectors are
    # selected from one mask, so each stored u is an eigenvector of its
    # stored energy on both sides of every flip.
    model, grid = lee(), 256
    k_inc = np.arange(2 * grid + 1) * (2 * np.pi / grid)
    h = hk(model, k_inc)
    e1, e2, _ = _roots(h)
    for band in Band:
        for gauge in Gauge:
            tracked, other, u, _, _ = _tracked_segment(model, k_inc, gauge,
                                                       band)
            tag = (band.name, gauge.value)
            on2 = tracked == e2
            assert np.array_equal(np.where(on2, e2, e1), tracked), tag
            assert np.array_equal(np.where(on2, e1, e2), other), tag
            assert on2.any() and not on2.all(), tag
            residual = np.einsum("mij,jm->im", h, u) - tracked * u
            size = np.max(abs(u), axis=0)
            assert np.max(np.max(abs(residual), axis=0) / size) < 1e-12, tag


def _right_angle_tie(grid, j):
    """A braided model whose splitting turns by exactly a right angle
    between samples ``j`` and ``j + 1`` of a ``grid``-sample zone:
    ``D = 0.16 + c0 + 0.3/z + z`` at ``z = e^{ik}`` winds once, and
    ``c0`` makes ``D(k_{j+1}) = -D(k_j)``."""
    z0, z1 = np.exp(2j * np.pi * np.array([j, j + 1]) / grid)
    c0 = -(0.3 * (1 / z0 + 1 / z1) + (z0 + z1) + 0.32) / 2
    return BlochModel([[0, 0], [0.3, 0]], [[0.4, 1], [c0, -0.4]],
                      [[0, 0], [1, 0]], label=f"tie@{grid}")


@pytest.mark.parametrize("j", [10, 66])
def test_loop_period_refuses_a_right_angle_tie_on_a_grid_step(j):
    # The tie sits on step j + 1 of grid 256.  Guessing it from the
    # eigenvector overlaps gave NoClosure below j = 64 and period 2 pi
    # from there on, so split_check said the loop closes after 2 pi.
    # Any grid that moves the tie off a step finds the 4 pi braid.
    grid = 256
    model = _right_angle_tie(grid, j)
    h = hk(model, np.arange(grid + 1) * (2 * np.pi / grid))
    s = _roots(h)[2]
    turn = (s[j + 1] * np.conj(s[j])).real
    assert abs(turn) <= berry.TIE_TOL * abs(s[j + 1]) * abs(s[j])
    step = rf"tie at step {j + 1} \(samples {j} to {j + 1}\)"
    for gauge in Gauge:
        for band in Band:
            with pytest.raises(AmbiguousTracking, match=step):
                loop_period(model, grid, gauge, band)
        with pytest.raises(AmbiguousTracking, match=step):
            split_check(model, gauge, grid)
    for other in (grid + 2, 2048):
        assert loop_period(model, other).period == 4 * np.pi, other


def test_eig2_energies_match_tracked_loop_bit_for_bit():
    # eig2 and the sampled loop share one root formula and one
    # eigenvector construction, so a gauge with a fixed spinor gives
    # both the same vectors.  demo()'s transpose pairing vanishes on
    # the loop, so it has no transpose case.
    for model in (lee(), lee(0.6, 0.4, 0.5), lee(0.9, 0.5, 1.2),
                  lee(0.7, 0.5, 0.2), demo()):
        for gauge in (Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE,
                      Gauge.TRANSPOSE):
            if model.label == "demo" and gauge is Gauge.TRANSPOSE:
                with pytest.raises(GaugeSingular):
                    loop_period(model, 256, gauge)
                continue
            traj = loop_period(model, 256, gauge)
            for j in range(0, traj.k_grid.size, 7):
                tag = (model.label, gauge.value, j)
                system = eig2(hk(model, traj.k_grid[j]), gauge)
                assert ({system.e_plus, system.e_minus}
                        == {traj.energies[j], traj.energies_other[j]}), tag
                band = +1 if system.e_plus == traj.energies[j] else -1
                _, u, l = system.band(band)
                assert np.array_equal(u, traj.states[j]), tag
                assert np.array_equal(l, traj.left_states[j]), tag
                assert np.array_equal(system.reference, traj.reference), tag


def test_loop_period_braided_needs_two_zones(lee_default):
    traj = loop_period(lee_default, grid_size=512)
    assert traj.period == 4 * np.pi
    assert traj.grid_size == 512
    assert traj.k_grid.size == 1024
    assert traj.step == pytest.approx(2 * np.pi / 512)
    assert traj.closure_error <= 1e-8


def test_loop_period_unbraided_closes_in_one_zone():
    assert loop_period(lee(gamma=0.0), 512,
                       Gauge.FIRST_COMPONENT_ONE).period == 2 * np.pi
    assert loop_period(demo(), 512,
                       Gauge.FIRST_COMPONENT_ONE).period == 2 * np.pi


def _count_tracking(monkeypatch):
    """Record the sample count of every tracked segment and every
    ``hk`` evaluation made through ``nhwind.berry``."""
    tracked, evaluated = [], []
    track, evaluate = berry._tracked_segment, berry.hk

    def counting_track(model, k_inc, *args, **kwargs):
        tracked.append(k_inc.size)
        return track(model, k_inc, *args, **kwargs)

    def counting_hk(model, k):
        evaluated.append(np.size(k))
        return evaluate(model, k)

    monkeypatch.setattr(berry, "_tracked_segment", counting_track)
    monkeypatch.setattr(berry, "hk", counting_hk)
    return tracked, evaluated


def test_loop_period_reads_the_period_from_the_splitting(monkeypatch):
    # A braided zone flips the continued splitting an odd number of
    # times, so only the two-zone loop is tracked; the zone-one samples
    # of the parity read are still evaluated.  An even zone is tracked
    # once, on the samples the parity read already holds.
    grid = 256
    tracked, evaluated = _count_tracking(monkeypatch)
    assert loop_period(lee(), grid).period == 4 * np.pi
    assert tracked == [2 * grid + 1]
    assert evaluated == [grid + 1, 2 * grid + 1]
    for model in (lee(gamma=0.0), demo()):
        tracked.clear()
        evaluated.clear()
        traj = loop_period(model, grid, Gauge.FIRST_COMPONENT_ONE)
        assert traj.period == 2 * np.pi, model.label
        assert tracked == [grid + 1], model.label
        assert evaluated == [grid + 1], model.label
    # An exceptional point on the grid is still refused.
    with pytest.raises(Defective):
        loop_period(lee(0.75, 0.5, 0.5), grid)


@pytest.mark.parametrize("v, r, gamma", [
    (0.8, 0.5, 0.2), (0.8, 0.5, 1.0), (0.8, 0.5, 3.0), (1.2, 0.4, 1.2),
    (0.3, 0.5, 0.2), (0.3, 0.5, 0.8), (0.3, 0.5, 2.0), (0.5, 0.8, 1.0)])
def test_loop_period_braids_between_the_braid_lines(v, r, gamma):
    # D = (v - gamma/2 + r e^{ik}) (v + gamma/2 + r e^{-ik}) winds once
    # around 0 over a zone exactly when |v - r| < gamma/2 < v + r, and
    # an odd winding of D is a half turn of sqrt(D): the braid.
    period = (4 if abs(v - r) < gamma / 2 < v + r else 2) * np.pi
    for gauge in Gauge:
        for band in Band:
            traj = loop_period(lee(v, r, gamma), 256, gauge, band)
            assert traj.period == period, (gauge, band)


@pytest.mark.parametrize("model", [lee(), lee(0.6, 0.4, 0.5),
                                   lee(0.9, 0.5, 1.2)],
                         ids=lambda model: model.label)
def test_band_windings_are_the_halves_of_the_braided_loop(model):
    # One band's zone is one half of the two-zone loop, so a report
    # could take its band windings from its own loop.
    for grid in (256, 4096):
        for gauge in Gauge:
            halves = split_check(model, gauge, grid)
            assert band_winding(model, Band.PLUS, gauge, grid) \
                == halves.w_plus, (grid, gauge)
            assert abs(band_winding(model, Band.MINUS, gauge, grid)
                       - halves.w_minus) <= 1e-15, (grid, gauge)


def test_loop_period_splitting_far_below_the_mean_energy():
    # On-site energy 1 and hops of order 1e-9: m^2 - det h cancels to 0
    # at every k, while the discriminant keeps the splitting 2|b(k)|.
    t = 1e-9
    model = BlochModel([[0.0, 0.5 * t], [0.0, 0.0]],
                       np.eye(2) + t * SIGMA_X,
                       [[0.0, 0.0], [0.5 * t, 0.0]])
    traj = loop_period(model, 256)
    assert traj.period == 2 * np.pi
    split = 2 * t * np.abs(1.0 + 0.5 * np.exp(1j * traj.k_grid))
    assert np.max(np.abs(traj.energies - traj.energies_other - split)) \
        < 1e-15


@pytest.mark.parametrize("base, shift", [(lee(0.55, 0.5, 0.2), 4.0),
                                         (lee(), 8.0)])
def test_scalar_shift_leaves_the_branch_in_place(base, shift):
    # Adding shift * 1 to both hops adds 2 shift cos k to h(k), which
    # moves both energies alike and no eigenvector.  Tracking ignores
    # the mean energy, so the loop is the same even on a coarse grid.
    shifted = BlochModel(base.hop_minus + shift * np.eye(2), base.hop_zero,
                         base.hop_plus + shift * np.eye(2))
    for band in Band:
        traj = loop_period(shifted, 64, start_band=band)
        plain = loop_period(base, 64, start_band=band)
        assert traj.period == plain.period == 4 * np.pi
        assert np.max(np.abs(traj.states - plain.states)) < 1e-10
        moved = 2 * shift * np.cos(traj.k_grid)
        assert np.max(np.abs(traj.energies - plain.energies - moved)) < 1e-10


def test_loop_period_grid_validation(lee_default):
    for grid in (63, 62, 8191):
        with pytest.raises(ValueError):
            loop_period(lee_default, grid_size=grid)


def test_trajectory_arrays_are_locked(lee_default):
    traj = loop_period(lee_default, 512)
    with pytest.raises(ValueError):
        traj.k_grid[0] = 1.0
    with pytest.raises(ValueError):
        traj.states[0, 0] = 0.0


def test_trajectory_states_keep_their_shape_in_every_gauge(lee_default):
    for gauge in Gauge:
        traj = loop_period(lee_default, 256, gauge)
        m = traj.k_grid.size
        for states in (traj.states, traj.left_states):
            assert states.shape == (m, 2), gauge
            assert not states.flags.writeable, gauge
            with pytest.raises(ValueError):
                states[0, 1] = 0.0


def test_demo_first_gauge_orientation(demo_model):
    # Pins the sign convention: the raw forward integral is -i pi, so
    # gamma_b = pi and w = +1.
    traj = loop_period(demo_model, 4096, Gauge.FIRST_COMPONENT_ONE)
    gb = berry_phase(traj)
    assert abs(gb - np.pi) < 1e-12
    assert abs(-1j * gb - (-1j * np.pi)) < 1e-12
    assert winding_number(gb) == pytest.approx(1.0, abs=1e-12)


def test_lee_gamma_b_is_pi_in_every_gauge(lee_default):
    for gauge in Gauge:
        gb = berry_phase(loop_period(lee_default, 4096, gauge))
        assert abs(gb - np.pi) < 1e-12, gauge


def test_constant_model_has_zero_phase():
    flat = BlochModel(np.zeros((2, 2)), SIGMA_X, np.zeros((2, 2)),
                      label="flat")
    traj = loop_period(flat, 512)
    assert traj.period == 2 * np.pi
    assert abs(berry_phase(traj)) < 1e-15


def test_frozen_band_windings(lee_default):
    for gauge in (Gauge.TRANSPOSE, Gauge.FIRST_COMPONENT_ONE):
        w_plus = band_winding(lee_default, Band.PLUS, gauge, 8192)
        w_minus = band_winding(lee_default, Band.MINUS, gauge, 8192)
        assert w_plus == pytest.approx(W_PLUS, abs=1e-12)
        assert w_minus == pytest.approx(W_MINUS, abs=1e-12)
        assert w_plus + w_minus == pytest.approx(1.0, abs=1e-12)


def test_band_windings_second_gauge_mirrors(lee_default):
    w_plus = band_winding(lee_default, Band.PLUS,
                          Gauge.SECOND_COMPONENT_ONE, 8192)
    w_minus = band_winding(lee_default, Band.MINUS,
                           Gauge.SECOND_COMPONENT_ONE, 8192)
    assert w_plus == pytest.approx(W_MINUS, abs=1e-12)
    assert w_plus + w_minus == pytest.approx(1.0, abs=1e-12)
    # The per-band values are gauge dependent; only the sum is stable.
    w_plus_first = band_winding(lee_default, Band.PLUS,
                                Gauge.FIRST_COMPONENT_ONE, 8192)
    assert abs(w_plus - w_plus_first) > 1e-3


def test_band_accepts_plain_integers(lee_default):
    assert band_winding(lee_default, band=+1, grid_size=1024) == \
        band_winding(lee_default, band=Band.PLUS, grid_size=1024)
    with pytest.raises(ValueError):
        band_winding(lee_default, band=0, grid_size=1024)


def test_split_check_halves_sum_to_loop(lee_default):
    sw = split_check(lee_default, grid_size=8192)
    assert isinstance(sw, SplitWindings)
    assert sw.total == sw.w_plus + sw.w_minus
    assert sw.total == pytest.approx(1.0, abs=1e-9)
    assert sw.w_plus == pytest.approx(W_PLUS, abs=1e-6)
    assert sw.w_minus == pytest.approx(W_MINUS, abs=1e-6)


def test_split_check_needs_braided_loop(demo_model):
    with pytest.raises(ValueError):
        split_check(demo_model, gauge=Gauge.FIRST_COMPONENT_ONE)


def test_split_check_is_deterministic(lee_default):
    first = split_check(lee_default, grid_size=2048)
    second = split_check(lee_default, grid_size=2048)
    assert first == second


def test_gauge_strings_match_enum(lee_default):
    for gauge in Gauge:
        by_enum = loop_period(lee_default, 512, gauge)
        by_string = loop_period(lee_default, 512, gauge.value)
        assert by_string.gauge is gauge
        for name in ("k_grid", "energies", "states", "left_states"):
            assert np.array_equal(getattr(by_string, name),
                                  getattr(by_enum, name)), (gauge, name)
        assert by_string.period == by_enum.period
    for gauge in (Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE,
                  Gauge.TRANSPOSE):
        assert (winding_report(lee_default, gauge.value, 512, with_bands=True)
                == winding_report(lee_default, gauge, 512, with_bands=True))
        assert (band_winding(lee_default, Band.MINUS, gauge.value, 512)
                == band_winding(lee_default, Band.MINUS, gauge, 512))
        assert (split_check(lee_default, gauge.value, 512)
                == split_check(lee_default, gauge, 512))


def test_unknown_gauge_string_is_rejected(lee_default):
    with pytest.raises(ValueError):
        loop_period(lee_default, 512, "third")
    with pytest.raises(ValueError):
        winding_report(lee_default, "third", 512)
    with pytest.raises(ValueError):
        band_winding(lee_default, Band.PLUS, "third", 512)
    with pytest.raises(ValueError):
        split_check(lee_default, "third", 512)


def test_quadrature_converges_on_grid_doubling():
    for model, gauge in ((lee(), Gauge.TRANSPOSE),
                         (demo(), Gauge.FIRST_COMPONENT_ONE)):
        g1 = berry_phase(loop_period(model, 4096, gauge))
        g2 = berry_phase(loop_period(model, 8192, gauge))
        assert abs(g1 - g2) < 1e-8


def _finite_difference_connection(traj):
    """Connection samples of a stored loop with ``d u / d k`` taken by the
    centered five-point difference of ``traj.states``, periodic around
    the closed loop."""
    u, l = traj.states.T, traj.left_states.T
    ahead = [np.roll(u, -n, axis=1) for n in (1, 2)]
    behind = [np.roll(u, n, axis=1) for n in (1, 2)]
    du = (8.0 * (ahead[0] - behind[0]) - (ahead[1] - behind[1])) / (
        12.0 * traj.step)
    return np.sum(l * du, axis=0) / np.sum(l * u, axis=0)


# The Hermitian topological loop has a pole in every gauge but smooth.
@pytest.mark.parametrize("model, gauges", [
    (lee(), tuple(Gauge)), (lee(0.6, 0.4, 0.5), tuple(Gauge)),
    (lee(0.3, 0.5, 0.0), (Gauge.SMOOTH,))],
    ids=["lee()", "lee(.6,.4,.5)", "lee(.3,.5,0)-smooth"])
def test_analytic_derivative_matches_finite_difference(model, gauges):
    # The loop phase from the stored states alone, and the PLUS band
    # winding from the loop's first zone: its trapezoid over the zone's
    # grid + 1 samples, through the wrap on an unbraided loop.
    grid = 4096
    for gauge in gauges:
        traj = loop_period(model, grid, gauge)
        f = _finite_difference_connection(traj)
        assert abs(-1j * traj.step * np.sum(f)
                   - berry_phase(traj)) < 1e-9, gauge
        zone = np.append(f, f)[:grid + 1]
        w_plus = -1j * traj.step * (np.sum(zone) - (zone[0] + zone[-1]) / 2)
        assert abs(w_plus / np.pi - band_winding(
            model, Band.PLUS, gauge, grid)) < 1e-6, gauge


@pytest.mark.parametrize("gauge, pinned", [
    (Gauge.FIRST_COMPONENT_ONE, 0), (Gauge.SECOND_COMPONENT_ONE, 1),
    (Gauge.TRANSPOSE, 0)])
def test_analytic_derivative_of_a_pinned_component_is_zero(gauge, pinned):
    for model in (lee(), lee(0.6, 0.4, 0.5)):
        traj = loop_period(model, 512, gauge)
        u = traj.states.T
        assert np.all(u[pinned] == 1.0)
        du = berry._analytic_du(
            hk_derivative(model, traj.k_grid), u,
            traj.energies - traj.energies_other,
            REFERENCE_SPINORS[pinned])
        assert np.all(du[pinned] == 0.0), model.label
        assert np.all(du[1 - pinned] != 0.0), model.label


def test_berry_phase_of_a_stored_loop_evaluates_no_hamiltonian(
        monkeypatch, lee_default):
    # The analytic derivative needs dh/dk and the stored states,
    # splitting and spinor; h itself is never evaluated again.
    loops = [loop_period(lee_default, 512, gauge) for gauge in Gauge]
    expected = [berry_phase(t) for t in loops]

    def no_hk(*args, **kwargs):
        raise AssertionError("berry_phase evaluated h(k)")

    monkeypatch.setattr("nhwind.berry.hk", no_hk)
    for traj, gamma_b in zip(loops, expected):
        assert berry_phase(traj) == gamma_b


def test_arguments_are_checked_before_tracking(monkeypatch, lee_default):
    def no_tracking(*args, **kwargs):
        raise AssertionError("tracked before checking the arguments")

    monkeypatch.setattr("nhwind.berry._tracked_segment", no_tracking)
    with pytest.raises(ValueError, match="lee_normalization"):
        winding_report(lee_default, lee_normalization=np.nan)


def test_winding_lee_normalization_identities(demo_model):
    traj = loop_period(demo_model, 4096, Gauge.FIRST_COMPONENT_ONE)
    w = winding_number(berry_phase(traj))
    assert winding_lee(traj, 1.0) == w
    assert winding_lee(traj, 0.5) == 2 * w
    assert winding_lee(traj, 0.5) == pytest.approx(2.0, abs=1e-12)
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            winding_lee(traj, bad)
    with pytest.raises(ValueError):
        winding_report(demo_model, Gauge.FIRST_COMPONENT_ONE, 256,
                       lee_normalization=np.nan)


def test_hermitian_dimerized_limits():
    # v > r: trivial phase, zero winding.
    w_trivial = band_winding(lee(0.7, 0.5, 0.0), Band.PLUS,
                             Gauge.TRANSPOSE, 8192)
    assert abs(w_trivial) < 1e-10
    # v < r: the connection has a pole on the loop (the off-diagonal
    # entry crosses zero), which no component or transpose gauge can
    # integrate through.
    with pytest.raises(GaugeSingular):
        band_winding(lee(0.3, 0.5, 0.0), Band.PLUS, Gauge.TRANSPOSE, 8192)
    traj = loop_period(lee(0.3, 0.5, 0.0), 4096, Gauge.FIRST_COMPONENT_ONE)
    with pytest.raises(GaugeSingular):
        berry_phase(traj)


def test_default_gauge_demo_counts_plus_one(demo_model):
    # e1 and e2 tie on demo up to an ulp; the tie rule keeps e1, which
    # is the first-component gauge and the +1 orientation anchor.
    traj = loop_period(demo_model, 4096)
    assert traj.gauge is Gauge.SMOOTH
    assert np.array_equal(traj.reference, REFERENCE_SPINORS[0])
    assert winding_number(berry_phase(traj)) == pytest.approx(1.0, abs=1e-12)
    first = loop_period(demo_model, 4096, Gauge.FIRST_COMPONENT_ONE)
    assert np.allclose(traj.states, first.states, rtol=0, atol=1e-15)


def test_default_gauge_records_reference_on_topological_loop():
    traj = loop_period(lee(0.3, 0.5, 0.0), 4096)
    assert np.allclose(traj.reference, np.array([1.0, 1.0j]) / np.sqrt(2),
                       rtol=0, atol=1e-15)
    assert np.max(np.abs(traj.states @ traj.reference - 1.0)) < 1e-12


def test_default_gauge_nonhermitian_topological_is_odd():
    # Component gauges hit a pole on this loop too.  Only w mod 2 is
    # gauge invariant; the candidate order fixes w itself at -1.
    model = lee(0.3, 0.5, 0.3)
    with pytest.raises(GaugeSingular):
        berry_phase(loop_period(model, 4096, Gauge.FIRST_COMPONENT_ONE))
    w = winding_number(berry_phase(loop_period(model, 4096)))
    assert abs(w.imag) < 1e-9
    assert round(w.real) % 2 == 1
    assert w.real == pytest.approx(-1.0, abs=1e-9)


def test_reference_spinor_refuses_when_every_candidate_vanishes():
    # Each candidate is bilinearly orthogonal to one of these states:
    # e1 to e2, (1, i) to itself, (1, 1) to (1, -1), and so on.
    path = np.array([[0, 1], [1, 0], [1, 1j], [1, -1j], [1, -1], [1, 1]],
                    dtype=complex)
    path /= np.linalg.norm(path, axis=-1, keepdims=True)
    with pytest.raises(GaugeSingular,
                       match="every candidate reference spinor vanishes"):
        _reference_spinor(path, REFERENCE_SPINORS)
    assert np.array_equal(_reference_spinor(path[:5], REFERENCE_SPINORS),
                          REFERENCE_SPINORS[5])


def test_demo_transpose_pairing_fails_on_loop(demo_model):
    with pytest.raises(GaugeSingular, match="gauge 'transpose': "
                       "self-orthogonal transpose pairing"):
        loop_period(demo_model, 4096, Gauge.TRANSPOSE)


def test_exceptional_point_raises_defective():
    # Band touching exactly on a grid sample: fully degenerate at k=0,
    # float-smeared at k=pi.
    with pytest.raises(Defective):
        loop_period(lee(0.25, 0.25, 1.0), 8192)
    with pytest.raises(Defective):
        loop_period(lee(0.75, 0.5, 0.5), 8192)


def test_winding_report_fields(lee_default):
    rep = winding_report(lee_default, grid_size=8192, lee_normalization=2.0,
                         with_bands=True)
    assert rep.model_label == lee_default.label
    assert rep.gauge is Gauge.TRANSPOSE
    assert rep.grid_size == 8192
    assert rep.period == 4 * np.pi
    assert rep.w == pytest.approx(1.0, abs=1e-9)
    assert rep.raw_integral == pytest.approx(-1j * np.pi, abs=1e-9)
    assert rep.w_lee == pytest.approx(0.5, abs=1e-9)
    assert rep.w_plus == pytest.approx(W_PLUS, abs=1e-12)
    assert rep.w_minus == pytest.approx(W_MINUS, abs=1e-12)
    assert rep.w_plus + rep.w_minus == pytest.approx(rep.w, abs=1e-8)


def test_winding_report_optional_fields_default_to_none(demo_model):
    rep = winding_report(demo_model, gauge=Gauge.FIRST_COMPONENT_ONE,
                         grid_size=1024)
    assert rep.lee_normalization is None
    assert rep.w_lee is None
    assert rep.w_plus is None and rep.w_minus is None


def test_winding_report_rejects_unquantized_w():
    with pytest.raises(ValueError):
        WindingReport(model_label="m", gauge=Gauge.TRANSPOSE, grid_size=64,
                      period=4 * np.pi, raw_integral=-0.5j * np.pi,
                      gamma_b=0.5 * np.pi, w=0.5)
    with pytest.raises(ValueError):
        WindingReport(model_label="m", gauge=Gauge.TRANSPOSE, grid_size=64,
                      period=4 * np.pi, raw_integral=-1j * np.pi,
                      gamma_b=np.pi, w=1.0 + 1e-3j)


def test_trajectory_validation_rejects_corrupted_data(lee_default):
    traj = loop_period(lee_default, 512)

    k_bad = np.array(traj.k_grid)
    k_bad[3] += 1e-6
    with pytest.raises(ValueError):
        dataclasses.replace(traj, k_grid=k_bad)

    e_bad = np.array(traj.energies)
    e_bad[10:12] = traj.energies_other[10:12]  # jump to the other branch
    with pytest.raises(ValueError):
        dataclasses.replace(traj, energies=e_bad)
    # A right-angle turn of the splitting is a tie, which no tracked
    # loop holds.
    e_bad = np.array(traj.energies)
    split = traj.energies - traj.energies_other
    e_bad[10] = traj.energies_other[10] + 1j * split[9]
    with pytest.raises(ValueError, match="continuously tracked"):
        dataclasses.replace(traj, energies=e_bad)

    with pytest.raises(ValueError):
        dataclasses.replace(traj, left_states=np.array(traj.left_states) * 2)

    # Smooth gauge (the default): c @ u = 1 must hold for the stored c.
    with pytest.raises(ValueError):
        dataclasses.replace(traj, reference=REFERENCE_SPINORS[0])
    with pytest.raises(ValueError):
        dataclasses.replace(traj, reference=None)
    with pytest.raises(ValueError):
        traj.reference[0] = 0.0

    with pytest.raises(NoClosure):
        dataclasses.replace(traj, closure_error=2e-8)
    with pytest.raises(ValueError):
        dataclasses.replace(traj, closure_error=np.nan)
    with pytest.raises(ValueError):
        dataclasses.replace(traj, closure_error=-1.0)

    with pytest.raises(ValueError):
        dataclasses.replace(
            traj, k_grid=np.array(traj.k_grid)[:3],
            energies=np.array(traj.energies)[:3],
            energies_other=np.array(traj.energies_other)[:3],
            states=np.array(traj.states)[:3],
            left_states=np.array(traj.left_states)[:3])


def test_trajectory_component_gauge_pairing_check(lee_default):
    traj = loop_period(lee_default, 512, Gauge.FIRST_COMPONENT_ONE)
    with pytest.raises(ValueError):
        dataclasses.replace(traj, left_states=np.array(traj.left_states)
                            * 1.001)
    # A spinor with c @ u != 1 on the stored states is refused.
    with pytest.raises(ValueError):
        dataclasses.replace(traj, reference=REFERENCE_SPINORS[1])
    with pytest.raises(ValueError):
        dataclasses.replace(traj, reference=None)
    # reference has no default in either record.
    fields = {f.name: getattr(traj, f.name)
              for f in dataclasses.fields(traj) if f.name != "reference"}
    with pytest.raises(TypeError):
        LoopTrajectory(**fields)
    system = eig2(hk(lee_default, 0.3))
    with pytest.raises(TypeError):
        EigenSystem2(*dataclasses.astuple(system)[:-1])
    # Each component gauge records its own pinned spinor.  Doubled
    # states with matching left vectors keep the pairing rule but break
    # c @ u = 1 for that spinor.
    for gauge, row in ((Gauge.FIRST_COMPONENT_ONE, 0),
                       (Gauge.SECOND_COMPONENT_ONE, 1), (Gauge.TRANSPOSE, 0)):
        traj = loop_period(lee_default, 512, gauge)
        assert np.array_equal(traj.reference, REFERENCE_SPINORS[row]), gauge
        u = 2.0 * np.array(traj.states)
        left = (u if gauge is Gauge.TRANSPOSE
                else np.array(traj.left_states) / 2.0)
        with pytest.raises(ValueError):
            dataclasses.replace(traj, states=u, left_states=left)


def test_pole_refusal_near_an_exceptional_point_names_both_causes():
    # lee(.751, .5, .5) sits just off the exceptional point at k = pi:
    # at grid 1024 the connection peak falls between samples in every
    # gauge, and at grid 8192 every gauge resolves it.  A component
    # gauge cannot tell that peak from a vanishing component, so its
    # refusal names both causes and promises neither fix.
    model = lee(0.751, 0.5, 0.5)
    for gauge in (Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE,
                  Gauge.TRANSPOSE):
        with pytest.raises(GaugeSingular) as info:
            winding_report(model, gauge, 1024)
        message = str(info.value)
        assert "crosses zero" in message and "smooth gauge" in message
        assert "exceptional point" in message and "finer grid" in message
        assert "no grid refinement" not in message
    for gauge in Gauge:
        w = winding_report(model, gauge, 8192).w
        assert abs(w) < 1e-6, gauge


def test_smooth_gauge_pole_refusal_names_both_causes():
    # The smooth gauge refuses lee(.751, .5, .5) at grid 1024 too, and
    # cannot tell the under-resolved peak from a picked spinor that
    # vanishes between samples; grid 8192 resolves the peak.
    model = lee(0.751, 0.5, 0.5)
    with pytest.raises(GaugeSingular) as info:
        winding_report(model, Gauge.SMOOTH, 1024)
    message = str(info.value)
    assert "picked reference spinor vanishes between samples" in message
    assert "exceptional point" in message and "finer grid" in message
    assert "crosses zero" not in message
    assert abs(winding_report(model, Gauge.SMOOTH, 8192).w) < 1e-6


def _transpose_self_orthogonal(traj):
    # (1, i) has u^T u = 0 and keeps c @ u = 1 for c = e1.
    u = np.array(traj.states)
    u[5] = [1.0, 1.0j]
    return {"states": u, "left_states": u}


# Stored-loop refusals of LoopTrajectory: (gauge, field changes, error,
# message).
TRAJECTORY_REFUSALS = {
    "shapes": (Gauge.SMOOTH, lambda t: {
        "energies_other": np.array(t.energies_other)[:-1]},
        ValueError, "inconsistent shapes"),
    "nonzero start": (Gauge.SMOOTH, lambda t: {
        "k_grid": np.array(t.k_grid) + 0.1},
        ValueError, "start at k = 0"),
    "non-positive period": (Gauge.SMOOTH, lambda t: {"period": -t.period},
                            ValueError, "positive period"),
    "transpose left != right": (Gauge.TRANSPOSE, lambda t: {
        "left_states": 2.0 * np.array(t.left_states)},
        ValueError, "equal to states verbatim"),
    "self-orthogonal pairing": (Gauge.TRANSPOSE, _transpose_self_orthogonal,
                                GaugeSingular, "self-orthogonal"),
}


@pytest.mark.parametrize("case", TRAJECTORY_REFUSALS)
def test_trajectory_refuses_inconsistent_stored_loops(lee_default, case):
    gauge, changes, error, match = TRAJECTORY_REFUSALS[case]
    traj = loop_period(lee_default, 512, gauge)
    with pytest.raises(error, match=match):
        dataclasses.replace(traj, **changes(traj))


def test_trajectory_judges_closure_for_loop_period(monkeypatch, lee_default):
    # loop_period measures closure and the record refuses it, naming
    # the model and the period.
    monkeypatch.setattr(berry, "CLOSURE_TOL", 0.0)
    with pytest.raises(NoClosure, match=r"branch of lee\(v=0.52,r=0.5,"
                       r"gamma=1\) fails to close over its 4 pi period"):
        loop_period(lee_default, 256)
