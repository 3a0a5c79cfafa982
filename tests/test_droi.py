"""Critical-width laws, regimes, ROI mapping, and trajectory replay."""

import dataclasses

import numpy as np
import pytest

from microdet.droi import (
    HORIZON_BAND,
    DroiConfig,
    critical_width,
    load_trajectory_csv,
    replay_to_csv_rows,
    replay_trajectory,
    roi_rectangle,
)
from microdet.tensor import DomainError


class TestCriticalWidth:
    def test_straight_at_rest_reverts_to_base(self):
        for deadband in (True, False):
            cfg = DroiConfig(deadband=deadband)
            res = critical_width(0.0, 0.0, cfg)
            assert res.w_c == cfg.w0
            assert res.regime == "straight"
            assert res.shift == 0.0

    def test_verbatim_linear_form(self):
        """theta=45, v=10, W0=3, k1=0.05, k2=0.1: 3 + 2.25 + 1.0."""
        cfg = DroiConfig(deadband=False)
        res = critical_width(45.0, 10.0, cfg)
        assert res.w_c == pytest.approx(6.25, abs=1e-12)
        assert res.regime == "moderate"

    def test_deadband_variant(self):
        """Same inputs with the deadband: 3 + 0.05*15 + 1.0."""
        res = critical_width(45.0, 10.0, DroiConfig(deadband=True))
        assert res.w_c == pytest.approx(4.75, abs=1e-12)

    def test_regime_boundaries(self):
        cfg = DroiConfig()
        assert critical_width(30.0, 0.0, cfg).regime == "straight"
        assert critical_width(30.0001, 0.0, cfg).regime == "moderate"
        assert critical_width(60.0, 0.0, cfg).regime == "moderate"
        assert critical_width(60.0001, 0.0, cfg).regime == "sharp"

    def test_sharp_regime_shifts_laterally(self):
        cfg = DroiConfig()
        right = critical_width(75.0, 5.0, cfg)
        left = critical_width(-75.0, 5.0, cfg)
        assert right.shift == pytest.approx(0.05 * 15)
        assert left.shift == pytest.approx(-0.05 * 15)
        for res in (right, left):
            x1, _, x2, _ = res.roi
            assert (x1 + x2) / 2 == pytest.approx(0.5 + res.shift / 12)

    def test_width_never_below_base(self):
        cfg = DroiConfig()
        rng = np.random.default_rng(0)
        for _ in range(500):
            theta = float(rng.uniform(-90, 90))
            v = float(rng.uniform(0, 40))
            for deadband in (True, False):
                res = critical_width(theta, v, DroiConfig(deadband=deadband))
                assert res.w_c >= cfg.w0 - 1e-12

    def test_monotone_in_theta_and_speed(self):
        for deadband in (True, False):
            cfg = DroiConfig(deadband=deadband)
            thetas = np.linspace(0, 90, 181)
            widths = [critical_width(t, 10.0, cfg).w_c for t in thetas]
            assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))
            speeds = np.linspace(0, 40, 81)
            widths = [critical_width(20.0, v, cfg).w_c for v in speeds]
            assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_deadband_width_continuous_in_theta(self):
        """Dense sweep: adjacent samples differ by at most the local slope."""
        cfg = DroiConfig(deadband=True)
        thetas = np.arange(-90.0, 90.0, 0.01)
        widths = np.array([critical_width(t, 7.0, cfg).w_c for t in thetas])
        jumps = np.abs(np.diff(widths)) - cfg.k1 * 0.01
        assert jumps.max() <= 1e-9

    def test_negative_speed_rejected(self):
        with pytest.raises(DomainError, match="speed"):
            critical_width(0.0, -1.0, DroiConfig())

    @pytest.mark.parametrize("theta, v", [(float("nan"), 3.0), (0.0, float("inf")),
                                          (float("-inf"), 0.0), (0.0, float("nan"))])
    def test_non_finite_input_rejected(self, theta, v):
        with pytest.raises(DomainError, match="finite"):
            critical_width(theta, v, DroiConfig())

    def test_mechanical_bound(self):
        with pytest.raises(DomainError, match="540"):
            critical_width(600.0, 0.0, DroiConfig())

    def test_deadband_is_the_one_key(self):
        assert [f.name for f in dataclasses.fields(DroiConfig)] == ["deadband"]


class TestRoiRectangle:
    def test_full_width_at_cap(self):
        cfg = DroiConfig()
        x1, y1, x2, y2 = roi_rectangle(cfg.w_max, 0.0, cfg)
        assert (x1, x2) == (0.0, 1.0)

    def test_centered_without_shift(self):
        cfg = DroiConfig()
        x1, _, x2, _ = roi_rectangle(6.0, 0.0, cfg)
        assert (x1 + x2) / 2 == pytest.approx(cfg.lane_center)
        assert x2 - x1 == pytest.approx(0.5)

    def test_clamped_inside_image(self):
        cfg = DroiConfig()
        rng = np.random.default_rng(1)
        for _ in range(300):
            w = float(rng.uniform(cfg.w0, 3 * cfg.w_max))
            shift = float(rng.uniform(-20, 20))
            x1, y1, x2, y2 = roi_rectangle(w, shift, cfg)
            assert 0.0 <= x1 < x2 <= 1.0
            assert 0.0 <= y1 < y2 <= 1.0

    def test_monotone_growth_with_theta(self):
        """Increasing steering never shrinks the rectangle (deadband off)."""
        cfg = DroiConfig(deadband=False)
        widths = []
        for theta in np.linspace(0, 90, 91):
            x1, _, x2, _ = critical_width(theta, 10.0, cfg).roi
            widths.append(x2 - x1)
        assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_roi_spans_the_horizon_band(self):
        assert HORIZON_BAND == (0.45, 0.95)
        for w_c, shift in ((3.0, 0.0), (12.0, 0.0), (5.0, -2.0)):
            _, y1, _, y2 = roi_rectangle(w_c, shift, DroiConfig())
            assert (y1, y2) == HORIZON_BAND


class TestReplay:
    def test_constant_straight_log(self):
        cfg = DroiConfig()
        log = [(float(t), 0.0, 5.0) for t in range(10)]
        results, frac = replay_trajectory(log, cfg)
        for _, res in results:
            assert res.w_c == pytest.approx(cfg.w0 + cfg.k2 * 5.0)
        assert 0 < frac < 1

    def test_s_curve_regime_sequence(self):
        """theta sweeping -70 to +70 crosses sharp/moderate/straight bands."""
        cfg = DroiConfig()
        thetas = np.linspace(-70, 70, 141)
        log = [(float(i), float(t), 5.0) for i, t in enumerate(thetas)]
        results, _ = replay_trajectory(log, cfg)
        regimes = [r.regime for _, r in results]
        collapsed = [regimes[0]]
        for r in regimes[1:]:
            if r != collapsed[-1]:
                collapsed.append(r)
        assert collapsed == ["sharp", "moderate", "straight", "moderate", "sharp"]

    def test_mean_fraction_below_one_when_unsaturated(self):
        cfg = DroiConfig()
        log = [(0.0, 0.0, 0.0), (1.0, 10.0, 3.0)]
        _, frac = replay_trajectory(log, cfg)
        assert frac < 1.0

    def test_full_width_fraction_is_the_horizon_band(self):
        """A ROI as wide as the frame still spans only HORIZON_BAND's rows."""
        log = [(0.0, 0.0, 100.0), (1.0, 5.0, 200.0)]
        _, frac = replay_trajectory(log, DroiConfig())
        assert frac == pytest.approx(HORIZON_BAND[1] - HORIZON_BAND[0], rel=1e-12)

    def test_empty_log_rejected(self):
        with pytest.raises(DomainError, match="no samples"):
            replay_trajectory([], DroiConfig())

    def test_non_monotone_timestamps_rejected(self):
        with pytest.raises(DomainError, match="timestamps"):
            replay_trajectory([(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)], DroiConfig())

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("t,theta_deg,speed_mps\n0.0,15.0,5.0\n0.1,-65.0,7.5\n")
        log = load_trajectory_csv(path)
        assert log == [(0.0, 15.0, 5.0), (0.1, -65.0, 7.5)]
        results, _ = replay_trajectory(log, DroiConfig())
        rows = replay_to_csv_rows(results)
        assert rows[0].startswith("t,w_c,regime")
        assert len(rows) == 3
        assert "sharp" in rows[2]

    def test_csv_bad_row(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("t,theta_deg,speed_mps\n1.0,bad,2.0\n")
        with pytest.raises(DomainError, match="unparsable"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("first", ["0,1O,5", "t,1,5", "0,theta,speed"])
    def test_csv_first_line_with_a_number_is_a_sample(self, tmp_path, first):
        """Line 1 is a header only when no field parses: a mistyped first
        sample is reported, not skipped."""
        path = tmp_path / "log.csv"
        path.write_text(f"{first}\n0.1,12.5,4\n0.2,-25,6.5\n")
        with pytest.raises(DomainError, match=f"{path}:1: unparsable"):
            load_trajectory_csv(path)

    @pytest.mark.parametrize("row", ["0,nan,5", "inf,0,5", "0,0,-inf"])
    def test_csv_non_finite_row(self, tmp_path, row):
        path = tmp_path / "log.csv"
        path.write_text(f"t,theta_deg,speed_mps\n{row}\n")
        with pytest.raises(DomainError, match=f"{path}:2: non-finite"):
            load_trajectory_csv(path)
