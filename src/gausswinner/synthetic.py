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

from .montecarlo import RngStream, _unit
from .normal import std_normal_quantile
from .pipeline import CSV_HEADER, DEFAULT_YEAR_RANGE

__all__ = ["SyntheticTruth", "write_synthetic_stations"]

SEASONAL_AMPLITUDE = 8.0  # amplitude of the month-of-year sine cycle
TREND_PER_DECADE = 0.3
FIRST_YEAR, LAST_YEAR = DEFAULT_YEAR_RANGE  # the pipeline's default year filter
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
    return std_normal_quantile(_unit(g.bit_generator.random_raw(size)))


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
    # (kind, stream, latitude start, latitude width, innovation sd) of every
    # station, in write order, which numbers the ids; OUT lies north of the box
    stations = [("SYN", i, 30.0, 10.0, sd) for i, sd in enumerate([SD_LOW] * n_low + [SD_HIGH] * n_high)]
    stations += [("OUT", 10_000 + j, 45.0, 2.0, SD_LOW) for j in range(N_OUTSIDE_BOX)]
    stations += [("SPR", 20_000 + j, 30.0, 10.0, SD_LOW) for j in range(N_SPARSE)]
    for k, (kind, index, lat_start, lat_width, sd) in enumerate(stations):
        # the stream's draws, in an order the pinned fixture bytes fix: lat, lon,
        # the SYN base level, the normals, then the blank mask
        g = RngStream(seed=seed, stream_id=index).generator()
        lat = lat_start + lat_width * g.random()
        lon = -95.0 + 20.0 * g.random()
        level = 10.0 + 10.0 * g.random() + season + trend if kind == "SYN" else 5.0 + season
        # AR(1) noise x_t = e_t + PHI * x_{t-1} from x_{-1} = 0, e_t ~ N(0, sd^2)
        acc = 0.0
        values = level + np.array([acc := v + PHI * acc for v in (sd * _normals(g, months)).tolist()])
        keep = t < (120 if kind == "SPR" else months)  # SPR: below any sane completeness threshold
        if kind == "SYN" and missing_rate > 0.0 and index % 3 == 0:
            keep = g.random(months) >= missing_rate
        fields = [f"{v:.4f}" if kept else "" for v, kept in zip(values.tolist(), keep.tolist())]
        prefix = f"{kind}{k:05d},{lat:.4f},{lon:.4f},"
        blocks.append(prefix + ("\n" + prefix).join(map(str.__add__, middles, fields)))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(blocks) + "\n")

    return SyntheticTruth(n_low=n_low, n_high=n_high, phi=PHI, sd_low=SD_LOW, sd_high=SD_HIGH, seed=seed)
