"""Unit tests for branch tracking, Berry phases, and winding numbers."""
import dataclasses

import numpy as np
import pytest

from nhwind import (AmbiguousTracking, Band, BlochModel, Defective, Gauge,
                    GaugeSingular, LoopTrajectory, NoClosure, SplitWindings,
                    WindingReport, band_winding, berry_phase, demo, eig2,
                    hk, lee, loop_period, split_check, winding_lee,
                    winding_number, winding_report)
from nhwind.berry import _overlap_resolver, _track_branches
from nhwind.bloch import REFERENCE_SPINORS, _reference_spinor

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


def test_track_branches_follows_nearest():
    e1 = np.array([0.0, 0.1, 0.2], dtype=complex)
    e2 = np.array([1.0, 0.9, 0.8], dtype=complex)
    tracked, other = _track_branches(e1, e2, Band.PLUS)
    assert np.array_equal(tracked, e1)
    assert np.array_equal(other, e2)
    tracked, other = _track_branches(e1, e2, Band.MINUS)
    assert np.array_equal(tracked, e2)


def test_track_branches_tie_needs_resolver():
    e1 = np.array([0.0, 1.0], dtype=complex)
    e2 = np.array([0.0, -1.0], dtype=complex)
    with pytest.raises(AmbiguousTracking):
        _track_branches(e1, e2, Band.PLUS, resolver=None)
    tracked, _ = _track_branches(e1, e2, Band.PLUS,
                                 resolver=lambda j, prev: (1.0, 0.1))
    assert tracked[1] == 1.0
    tracked, _ = _track_branches(e1, e2, Band.PLUS,
                                 resolver=lambda j, prev: (0.1, 1.0))
    assert tracked[1] == -1.0
    with pytest.raises(AmbiguousTracking):
        _track_branches(e1, e2, Band.PLUS,
                        resolver=lambda j, prev: (0.5, 0.5))


def test_overlap_resolver_breaks_energy_tie():
    # Sample 1 is an exact energy tie seen from the previous energy 0.
    # The previous other-branch vector is e2, so the left direction is
    # (1, 0): it annihilates r2[1] and keeps the continuation r1[1].
    e1 = np.array([0.0, 1.0], dtype=complex)
    e2 = np.array([2.0, -1.0], dtype=complex)
    r1 = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
    r2 = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
    resolve = _overlap_resolver(e1, r1, r2)
    assert resolve(1, complex(e2[0])) == pytest.approx((0.6, 0.0))
    # Had the branch come from e2, the left direction would be (0, -1).
    assert resolve(1, complex(e1[0])) == pytest.approx((0.8, 1.0))
    tracked, other = _track_branches(e1, e2, Band.PLUS, resolve)
    assert np.array_equal(tracked, e1) and np.array_equal(other, e2)


def test_eig2_energies_match_tracked_loop_bit_for_bit():
    # eig2 and the sampled loop share one root formula.
    for model in (lee(), lee(0.6, 0.4, 0.5), demo()):
        traj = loop_period(model, 256, Gauge.FIRST_COMPONENT_ONE)
        for j in range(0, traj.k_grid.size, 7):
            system = eig2(hk(model, traj.k_grid[j]))
            assert ({system.e_plus, system.e_minus}
                    == {traj.energies[j], traj.energies_other[j]}), (
                        model.label, j)


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


def test_fd4_derivative_agrees_with_analytic(lee_default):
    traj = loop_period(lee_default, 4096, Gauge.FIRST_COMPONENT_ONE)
    assert abs(berry_phase(traj, derivative="fd4")
               - berry_phase(traj)) < 1e-9
    w4 = band_winding(lee_default, Band.PLUS, Gauge.TRANSPOSE, 4096,
                      derivative="fd4")
    wa = band_winding(lee_default, Band.PLUS, Gauge.TRANSPOSE, 4096)
    assert abs(w4 - wa) < 1e-6


def test_derivative_mode_is_validated(lee_default):
    traj = loop_period(lee_default, 512)
    with pytest.raises(ValueError):
        berry_phase(traj, derivative="fd2")


def test_winding_lee_normalization_identities(demo_model):
    traj = loop_period(demo_model, 4096, Gauge.FIRST_COMPONENT_ONE)
    w = winding_number(berry_phase(traj))
    assert winding_lee(traj, 1.0) == w
    assert winding_lee(traj, 0.5) == 2 * w
    assert winding_lee(traj, 0.5) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        winding_lee(traj, 0.0)


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


def test_default_gauge_fd4_agrees_on_topological_loop():
    traj = loop_period(lee(0.3, 0.5, 0.0), 4096)
    assert abs(berry_phase(traj, derivative="fd4")
               - berry_phase(traj)) < 1e-9


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
        _reference_spinor(path)
    assert np.array_equal(_reference_spinor(path[:5]), REFERENCE_SPINORS[5])


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
    assert traj.reference is None
    with pytest.raises(ValueError):
        dataclasses.replace(traj, reference=REFERENCE_SPINORS[0])
    # Doubled states with matching left vectors keep the pairing rule
    # but break c @ u = 1 for the gauge's fixed spinor.
    for gauge in (Gauge.FIRST_COMPONENT_ONE, Gauge.SECOND_COMPONENT_ONE,
                  Gauge.TRANSPOSE):
        traj = loop_period(lee_default, 512, gauge)
        u = 2.0 * np.array(traj.states)
        left = (u if gauge is Gauge.TRANSPOSE
                else np.array(traj.left_states) / 2.0)
        with pytest.raises(ValueError):
            dataclasses.replace(traj, states=u, left_states=left)
