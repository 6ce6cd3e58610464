"""Synthetic monthly-temperature fixtures in the pipeline's CSV layout.

Generates station records from the model the pipeline assumes: a
month-of-year seasonal cycle, a linear trend, and AR(1) noise whose
innovation standard deviation is drawn from one of two clusters.  The
returned truth record carries every generating parameter, so tests can
check that the pipeline recovers them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import RngStream
from .normal import std_normal_quantile
from .pipeline import CSV_HEADER

__all__ = ["SyntheticTruth", "write_synthetic_stations"]


@dataclass(frozen=True)
class SyntheticTruth:
    """Generating parameters of a synthetic fixture."""

    n_low: int
    n_high: int
    phi: float
    sd_low: float
    sd_high: float
    seasonal_amplitude: float
    trend_per_decade: float
    first_year: int
    last_year: int
    seed: int

    @property
    def sigma_ratio(self) -> float:
        return self.sd_high / self.sd_low


def _format_value(v: float) -> str:
    return f"{v:.4f}"


def _normals(g, size):
    u = g.random(size)
    u[u == 0.0] = 0.5**53  # keep inverse-CDF arguments inside (0, 1)
    return std_normal_quantile(u)


def write_synthetic_stations(
    path,
    *,
    n_low: int = 24,
    n_high: int = 14,
    phi: float = 0.5,
    sd_low: float = 1.0,
    sd_high: float = 1.5,
    seasonal_amplitude: float = 8.0,
    trend_per_decade: float = 0.3,
    first_year: int = 1980,
    last_year: int = 2025,
    seed: int = 0,
    n_outside_box: int = 2,
    n_sparse: int = 1,
    missing_rate: float = 0.0,
) -> SyntheticTruth:
    """Write a fixture CSV and return the generating truth.

    ``n_low`` / ``n_high`` stations get innovation sd ``sd_low`` /
    ``sd_high``.  ``n_outside_box`` extra stations fall outside the
    default lat/lon box and ``n_sparse`` extra ones carry too few months
    to survive the completeness filter; both must be dropped by a
    correct loader.  ``missing_rate`` > 0 blanks that fraction of values
    (empty CSV fields) on every third in-box station, exercising the
    gap-aware AR(1) pairing.
    """
    from scipy.signal import lfilter  # not at module level: scipy.signal is slow to import

    months = (last_year - first_year + 1) * 12
    t = np.arange(months)
    year = first_year + t // 12
    month = 1 + t % 12
    season = seasonal_amplitude * np.sin(2.0 * math.pi * month / 12.0)
    trend = trend_per_decade * (t / 120.0)

    lines = [",".join(CSV_HEADER)]
    station_counter = 0

    def emit(sid, lat, lon, values, keep):
        for yy, mm, v, k in zip(year, month, values, keep):
            field = _format_value(v) if k else ""
            lines.append(f"{sid},{lat:.4f},{lon:.4f},{yy},{mm},{field}")

    def station_rng(index):
        return RngStream(seed=seed, stream_id=index).generator()

    sds = [sd_low] * n_low + [sd_high] * n_high
    for i, sd in enumerate(sds):
        g = station_rng(i)
        lat = 30.0 + 10.0 * g.random()
        lon = -95.0 + 20.0 * g.random()
        base = 10.0 + 10.0 * g.random()
        innov = sd * _normals(g, months)
        noise = lfilter([1.0], [1.0, -phi], innov)
        values = base + season + trend + noise
        keep = np.ones(months, dtype=bool)
        if missing_rate > 0.0 and i % 3 == 0:
            keep = g.random(months) >= missing_rate
        sid = f"SYN{station_counter:05d}"
        station_counter += 1
        emit(sid, lat, lon, values, keep)

    for j in range(n_outside_box):
        g = station_rng(10_000 + j)
        lat = 45.0 + 2.0 * g.random()  # north of the box
        lon = -95.0 + 20.0 * g.random()
        innov = sd_low * _normals(g, months)
        values = 5.0 + season + lfilter([1.0], [1.0, -phi], innov)
        sid = f"OUT{station_counter:05d}"
        station_counter += 1
        emit(sid, lat, lon, values, np.ones(months, dtype=bool))

    for j in range(n_sparse):
        g = station_rng(20_000 + j)
        lat = 30.0 + 10.0 * g.random()
        lon = -95.0 + 20.0 * g.random()
        innov = sd_low * _normals(g, months)
        values = 5.0 + season + lfilter([1.0], [1.0, -phi], innov)
        keep = np.zeros(months, dtype=bool)
        keep[:120] = True  # below any sane completeness threshold
        sid = f"SPR{station_counter:05d}"
        station_counter += 1
        emit(sid, lat, lon, values, keep)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    return SyntheticTruth(
        n_low=n_low,
        n_high=n_high,
        phi=phi,
        sd_low=sd_low,
        sd_high=sd_high,
        seasonal_amplitude=seasonal_amplitude,
        trend_per_decade=trend_per_decade,
        first_year=first_year,
        last_year=last_year,
        seed=seed,
    )
