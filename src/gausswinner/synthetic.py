"""Synthetic monthly-temperature fixtures in the pipeline's CSV layout.

Generates station records from the model the pipeline assumes: a
month-of-year seasonal cycle, a linear trend, and AR(1) noise whose
innovation standard deviation is drawn from one of two clusters.  The
returned truth record carries the parameters the pipeline should
recover (AR coefficient and the two innovation sds).  Those three, the
seasonal cycle, trend, year range and the stations a loader must drop
are module constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .montecarlo import RngStream
from .normal import std_normal_quantile
from .pipeline import CSV_HEADER

__all__ = ["SyntheticTruth", "write_synthetic_stations"]

SEASONAL_AMPLITUDE = 8.0  # amplitude of the month-of-year sine cycle
TREND_PER_DECADE = 0.3
FIRST_YEAR, LAST_YEAR = 1980, 2025  # the pipeline's default year filter
N_OUTSIDE_BOX = 2  # extra stations north of the default lat/lon box
N_SPARSE = 1  # extra stations with too few months for the completeness filter
PHI = 0.5  # AR(1) coefficient of every station
SD_LOW, SD_HIGH = 1.0, 1.5  # innovation sds of the two clusters


@dataclass(frozen=True)
class SyntheticTruth:
    """Generating parameters of a synthetic fixture."""

    n_low: int
    n_high: int
    phi: float
    sd_low: float
    sd_high: float
    seed: int

    @property
    def sigma_ratio(self) -> float:
        return self.sd_high / self.sd_low


def _normals(g, size):
    u = g.random(size)
    u[u == 0.0] = 0.5**53  # keep inverse-CDF arguments inside (0, 1)
    return std_normal_quantile(u)


def write_synthetic_stations(
    path,
    *,
    n_low: int = 24,
    n_high: int = 14,
    seed: int = 0,
    missing_rate: float = 0.0,
) -> SyntheticTruth:
    """Write a fixture CSV and return the generating truth.

    ``n_low`` / ``n_high`` stations get innovation sd ``SD_LOW`` /
    ``SD_HIGH``.  ``N_OUTSIDE_BOX`` extra stations fall outside the
    default lat/lon box and ``N_SPARSE`` extra ones carry too few months
    to survive the completeness filter; both must be dropped by a
    correct loader.  ``missing_rate`` in [0, 1) blanks that fraction of
    values (empty CSV fields) on every third in-box station, exercising
    the gap-aware AR(1) pairing.  Both counts are integers >= 0.
    """
    if not all(isinstance(n, numbers.Integral) and n >= 0 for n in (n_low, n_high)):
        raise ValueError(f"n_low and n_high must be integers >= 0, got {n_low!r} and {n_high!r}")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must lie in [0, 1), got {missing_rate!r}")
    months = (LAST_YEAR - FIRST_YEAR + 1) * 12
    t = np.arange(months)
    month = 1 + t % 12
    season = SEASONAL_AMPLITUDE * np.sin(2.0 * math.pi * month / 12.0)
    trend = TREND_PER_DECADE * (t / 120.0)
    # every station spans the same months, so the "year,month," middles are shared
    middles = [f"{FIRST_YEAR + k // 12},{1 + k % 12}," for k in range(months)]
    blocks = [",".join(CSV_HEADER)]

    def emit(kind, lat, lon, values, keep):
        sid = f"{kind}{len(blocks) - 1:05d}"  # numbered in write order; blocks[0] is the header
        fields = [f"{v:.4f}" if k else "" for v, k in zip(values.tolist(), keep.tolist())]
        prefix = f"{sid},{lat:.4f},{lon:.4f},"
        blocks.append(prefix + ("\n" + prefix).join(map(str.__add__, middles, fields)))

    def ar1_noise(g, sd):
        """AR(1) noise x_t = e_t + PHI * x_{t-1} from x_{-1} = 0, e_t ~ N(0, sd^2)."""
        acc = 0.0
        return np.array([acc := v + PHI * acc for v in (sd * _normals(g, months)).tolist()])

    def station_rng(index):
        return RngStream(seed=seed, stream_id=index).generator()

    sds = [SD_LOW] * n_low + [SD_HIGH] * n_high
    for i, sd in enumerate(sds):
        g = station_rng(i)
        lat = 30.0 + 10.0 * g.random()
        lon = -95.0 + 20.0 * g.random()
        base = 10.0 + 10.0 * g.random()
        values = base + season + trend + ar1_noise(g, sd)
        keep = np.ones(months, dtype=bool)
        if missing_rate > 0.0 and i % 3 == 0:
            keep = g.random(months) >= missing_rate
        emit("SYN", lat, lon, values, keep)

    for j in range(N_OUTSIDE_BOX):
        g = station_rng(10_000 + j)
        lat = 45.0 + 2.0 * g.random()  # north of the box
        lon = -95.0 + 20.0 * g.random()
        values = 5.0 + season + ar1_noise(g, SD_LOW)
        emit("OUT", lat, lon, values, np.ones(months, dtype=bool))

    for j in range(N_SPARSE):
        g = station_rng(20_000 + j)
        lat = 30.0 + 10.0 * g.random()
        lon = -95.0 + 20.0 * g.random()
        values = 5.0 + season + ar1_noise(g, SD_LOW)
        keep = np.zeros(months, dtype=bool)
        keep[:120] = True  # below any sane completeness threshold
        emit("SPR", lat, lon, values, keep)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(blocks) + "\n")

    return SyntheticTruth(n_low=n_low, n_high=n_high, phi=PHI, sd_low=SD_LOW, sd_high=SD_HIGH, seed=seed)
