"""Steering-driven critical-region planning mapped to a normalized image ROI.

The critical width grows linearly with steering magnitude and speed. Three
regimes split on |theta|: straight (<= 30 deg), moderate (30-60], and sharp
(> 60), where the region additionally shifts laterally toward the turn.
Two width laws ship, picked by `deadband`: the verbatim linear form, and a
deadband variant that ignores steering inside the straight band so the width
is continuous and reverts to the base width when driving straight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataio import _read_lines
from .tensor import DomainError


@dataclass(frozen=True)
class DroiConfig:
    """`deadband`, the one key, picks the width law; the rest are constants."""

    w0 = 3.0             # base width, meters
    k1 = 0.05            # meters per steering degree
    k2 = 0.1             # meters per (m/s)
    k3 = 0.05            # lateral shift gain past the sharp threshold
    theta_straight = 30.0
    theta_moderate = 60.0
    w_max = 12.0         # width mapped to the full image
    lane_center = 0.5    # normalized image x of the ego path

    deadband: bool = True


@dataclass(frozen=True)
class DroiResult:
    w_c: float
    regime: str                # straight | moderate | sharp
    shift: float               # lateral offset, meters (signed)
    roi: tuple                 # (x_min, y_min, x_max, y_max), normalized


# the normalized image rows (y_min, y_max) every ROI spans
HORIZON_BAND = (0.45, 0.95)


def critical_width(theta: float, v: float, cfg: DroiConfig) -> DroiResult:
    """Width, regime and ROI for a steering angle (degrees, signed) and speed.

    deadband=False applies w0 + k1|theta| + k2 v verbatim; deadband=True
    replaces |theta| with max(|theta| - theta_straight, 0) so the width is
    continuous across the straight band and equals w0 at theta=0, v=0.
    """
    if not (math.isfinite(theta) and math.isfinite(v)):
        raise DomainError("droi", f"steering and speed must be finite, got theta={theta}, v={v}")
    if v < 0:
        raise DomainError("droi", f"speed must be non-negative, got {v}")
    if abs(theta) > 540:
        raise DomainError("droi", f"|theta| = {abs(theta)} exceeds the 540 deg sanity bound")
    mag = abs(theta)
    if mag <= cfg.theta_straight:
        regime = "straight"
    elif mag <= cfg.theta_moderate:
        regime = "moderate"
    else:
        regime = "sharp"
    steer = max(mag - cfg.theta_straight, 0.0) if cfg.deadband else mag
    w_c = cfg.w0 + cfg.k1 * steer + cfg.k2 * v
    shift = 0.0
    if regime == "sharp":
        sign = 1.0 if theta > 0 else -1.0
        shift = sign * cfg.k3 * (mag - cfg.theta_moderate)
    roi = roi_rectangle(w_c, shift, cfg)
    return DroiResult(w_c, regime, shift, roi)


def roi_rectangle(w_c: float, shift: float, cfg: DroiConfig):
    """Map a metric width and lateral shift to a normalized image rectangle.

    The width fraction is w_c / w_max capped at 1; the center is moved by
    shift / w_max and the rectangle is clamped to stay inside the image.
    The vertical extent is HORIZON_BAND.
    """
    y_min, y_max = HORIZON_BAND
    half = min(w_c / cfg.w_max, 1.0) / 2.0
    center = cfg.lane_center + shift / cfg.w_max
    center = min(max(center, half), 1.0 - half)
    return (center - half, y_min, center + half, y_max)


def replay_trajectory(log, cfg: DroiConfig):
    """Per-sample results for a (t, theta, v) log plus the mean ROI-area fraction.

    The log must be non-empty with strictly increasing timestamps. The mean
    area fraction is the computation-saving proxy; every ROI spans only the
    HORIZON_BAND rows, so it is at most 0.5, for ROIs as wide as the frame.
    """
    if not log:
        raise DomainError("droi", "the trajectory holds no samples")
    results = []
    area_sum = 0.0
    prev_t = None
    for t, theta, v in log:
        if prev_t is not None and t <= prev_t:
            raise DomainError("droi", f"timestamps not strictly increasing at t={t}")
        prev_t = t
        res = critical_width(theta, v, cfg)
        x1, y1, x2, y2 = res.roi
        area_sum += (x2 - x1) * (y2 - y1)
        results.append((t, res))
    return results, area_sum / len(results)


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def load_trajectory_csv(path):
    """CSV `t,theta_deg,speed_mps`; a first line with no numeric field is a
    header, so a mistyped first sample is an error, not skipped.

    Every value must be finite.
    """
    rows = []
    for line_no, line in _read_lines(path):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise DomainError("droi", f"{path}:{line_no}: expected t,theta_deg,speed_mps")
        values = [_number(p) for p in parts]
        if line_no == 1 and all(v is None for v in values):
            continue  # header
        if None in values:
            raise DomainError("droi", f"{path}:{line_no}: unparsable row {line!r}")
        row = tuple(values)
        if not all(math.isfinite(v) for v in row):
            raise DomainError("droi", f"{path}:{line_no}: non-finite value in {line!r}")
        rows.append(row)
    return rows


def replay_to_csv_rows(results):
    """`t,w_c,regime,x_min,y_min,x_max,y_max` rows for the output CSV."""
    rows = ["t,w_c,regime,x_min,y_min,x_max,y_max"]
    for t, res in results:
        x1, y1, x2, y2 = res.roi
        rows.append(f"{t:.17g},{res.w_c:.17g},{res.regime},"
                    f"{x1:.17g},{y1:.17g},{x2:.17g},{y2:.17g}")
    return rows
