"""Empirical bootstrap pipeline for monthly temperature innovations.

Flow: load a station-month temperature CSV -> per-station month-of-year anomaly
-> linear detrend -> AR(1) one-step innovations -> exact 1D two-cluster
split on innovation variances -> pooled low/high variance innovation
groups -> bootstrap winner probabilities against the theoretical limit.

A blank temperature is a month the station does not have, and no row
holds it, so stations may have gaps; innovations are only formed across
pairs of consecutive calendar months, never across a gap.  Pools
concatenate all innovations within a variance cluster and are
standardized by the low-variance pool's standard deviation so the
theory's sigma_1 = 1 normalization holds exactly (winner events are
invariant under common rescaling, so this is observationally neutral).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .montecarlo import McEstimate, RngStream, StudyRow, _critical_grid, _run_rows

__all__ = [
    "StationSeries",
    "Ar1Fit",
    "InnovationPool",
    "PipelineResult",
    "load_stations",
    "kmeans1d_split",
    "build_pools",
    "bootstrap_winner",
    "empirical_study",
    "run_pipeline",
]

CSV_HEADER = ["station_id", "latitude", "longitude", "year", "month", "tavg_c"]
_HEADER_LINE = (",".join(CSV_HEADER) + "\n").encode()
# the bytes of a plain file once each CRLF is read as LF: printable ASCII
# other than the space and the quote, and LF.  csv.reader, str.strip and
# float read the rest differently from np.loadtxt (quoting, a lone CR,
# surrounding whitespace, non-ASCII digits), so a file holding any of them
# goes to the row parser.
_PLAIN = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
_INT64 = range(-(2**63), 2**63)
_RECORD = [("lat", "f8"), ("lon", "f8"), ("year", "i8"), ("month", "i8"), ("value", "f8")]

DEFAULT_LAT_RANGE = (30.0, 40.0)
DEFAULT_LON_RANGE = (-95.0, -75.0)
DEFAULT_YEAR_RANGE = (1980, 2025)
DEFAULT_MIN_MONTHS = 240
_YEAR_MAX = (2**53 - 11) // 12  # the largest |year| whose month indices year * 12 + 11 are exact in a float


@dataclass
class StationSeries:
    """The present monthly observations of one station; a missing month has no row."""

    station_id: str
    latitude: float
    longitude: float
    year: np.ndarray
    month: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        lengths = (len(self.year), len(self.month), len(self.value))
        if len(set(lengths)) > 1:
            raise ValueError(f"station {self.station_id}: year, month and value lengths differ {lengths}")


@dataclass(frozen=True)
class Ar1Fit:
    """AR(1) fit by conditional least squares, its innovations and their sample variance (ddof=1)."""

    phi: float
    innovations: np.ndarray
    variance: float


@dataclass(frozen=True)
class InnovationPool:
    """Pooled standardized innovations of one variance cluster.

    ``values`` are held sorted (a bootstrap draw indexes them by rank);
    ``sd`` is the pooled standard deviation before standardization, and
    ``indices`` are the positions of the stations pooled, when known.
    """

    values: np.ndarray
    sd: float
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", np.sort(self.values))
        if not (self.values.size and np.isfinite(self.values).all()):
            raise ValueError("pool values must be nonempty and finite")


@dataclass(frozen=True)
class PipelineResult:
    """The per-station fits plus the pooled split, whose sigma is ``pool_high.sd / pool_low.sd``."""

    fits: list[Ar1Fit]
    centers: tuple[float, float]
    pool_low: InnovationPool
    pool_high: InnovationPool


def _parse_row(fields, line_no):
    if len(fields) != 6:
        raise ValueError(f"line {line_no}: expected 6 fields, got {len(fields)}")
    sid = fields[0].strip()
    if not sid:
        raise ValueError(f"line {line_no}: empty station_id")
    try:
        lat = float(fields[1])
        lon = float(fields[2])
        year = int(fields[3])
        month = int(fields[4])
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from None
    if not (math.isfinite(lat) and math.isfinite(lon)):
        name, raw = ("latitude", fields[1]) if not math.isfinite(lat) else ("longitude", fields[2])
        raise ValueError(f"line {line_no}: non-finite {name} {raw.strip()!r}")
    if not 1 <= month <= 12:
        raise ValueError(f"line {line_no}: month {month} outside 1..12")
    raw = fields[5].strip()
    if raw == "":
        value = math.nan  # absent
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {line_no}: bad tavg_c value {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {line_no}: non-finite tavg_c value {raw!r}")
    return sid, lat, lon, year, month, value


def _stations_by_rows(path) -> tuple:
    """The reference parser: ``csv.reader``, then ``_parse_row`` on every row.

    Returns the columns ``(ids, lat, lon, year, month, value, starts)``: the
    station ids in order of first appearance and each station's coordinates,
    then the rows of one station after another, each station's in file order
    with NaN for an absent value, and the row where each station begins.  A
    row whose year lies outside the int64 range is checked like any other and
    then left out: no int64 year range holds it.  Every station returned has
    a row.
    """
    rows: dict[str, list] = {}
    coords: dict[str, tuple[float, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:  # a csv.Error (a field above csv.field_size_limit()) gets the line number too
            header = next(reader, None)
            if header is None:
                raise ValueError("line 1: empty file, header required")
            if [h.strip() for h in header] != CSV_HEADER:
                raise ValueError(f"line 1: header must be {','.join(CSV_HEADER)}")
            for fields in reader:
                if not fields:
                    continue
                sid, lat, lon, year, month, value = _parse_row(fields, reader.line_num)
                if sid not in rows:
                    rows[sid] = []
                    coords[sid] = (lat, lon)
                elif coords[sid] != (lat, lon):
                    raise ValueError(f"line {reader.line_num}: station {sid} changes coordinates")
                prev = rows[sid][-1] if rows[sid] else None
                if prev is not None and (year, month) <= (prev[0], prev[1]):
                    raise ValueError(f"line {reader.line_num}: station {sid} has non-increasing (year, month)")
                rows[sid].append((year, month, value))
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    # a station left with no row has no year in any range, and is left out too
    kept = {sid: [row for row in station_rows if row[0] in _INT64] for sid, station_rows in rows.items()}
    kept = {sid: station_rows for sid, station_rows in kept.items() if station_rows}
    flat = [row for station_rows in kept.values() for row in station_rows]
    lat, lon = np.array([coords[sid] for sid in kept], dtype=float).reshape(-1, 2).T
    year = np.array([row[0] for row in flat], dtype=np.int64)
    month = np.array([row[1] for row in flat], dtype=np.int64)
    value = np.array([row[2] for row in flat], dtype=float)
    return list(kept), lat, lon, year, month, value, np.cumsum([0, *map(len, kept.values())])[:-1]


def _stations_in_bulk(path) -> tuple | None:
    """``_stations_by_rows(path)`` from one columnar pass, or None to defer to it.

    Only a plain file is read here: once each CR right before an LF is
    dropped, the exact header line, then lines of six comma-separated fields
    in printable ASCII without a space or a quote, each with a non-empty id.
    Any other file returns None, as does a value ``np.loadtxt`` cannot parse
    as ``float``/``int`` would (``1980.0`` as a year), an id column larger
    than the file, a station whose rows come back after another station's,
    or a failed column check; the row parser then gives the result or the
    error with its line number.  On a plain file ``loadtxt`` and
    ``float``/``int`` parse every field to the same bits.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.startswith(_HEADER_LINE) or data.translate(None, _PLAIN):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(raw == ord("\n"))  # the header's comes first
    starts, ends = newlines[:-1] + 1, newlines[1:]
    commas = np.flatnonzero(raw == ord(","))[5:]  # after the header's five
    if not ends.size or commas.size != 5 * ends.size:
        return None
    # the count here and loadtxt's own field check leave five commas a line,
    # so an id ends at its line's first comma and none may be empty; csv
    # would refuse a field above its size limit; the id column is as wide
    # as the longest id and must not outgrow the file
    width = commas[::5] - starts
    del commas
    if not (
        width.min() > 0
        and (ends - starts).max() <= csv.field_size_limit()
        and width.max() <= len(data) // ends.size
    ):
        return None

    # an empty tavg_c is a line ending in a comma; it is read as "nan".  The
    # file's bytes are freed before the parse, which holds the rewritten copy.
    blank = ends[raw[ends - 1] == ord(",")].tolist()
    cuts = zip([len(_HEADER_LINE), *blank], [*blank, len(data)])
    text = b"nan".join([data[a:b] for a, b in cuts])
    del raw, data
    # some numpy releases read a year or month that int() refuses ("1980.0",
    # "nan", or beyond int64) through a float, with only a DeprecationWarning,
    # which is ignored by default; raised, it fails the parse
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            record = np.loadtxt(
                io.BytesIO(text),
                dtype=np.dtype([("id", f"S{width.max()}"), *_RECORD]),
                delimiter=",",
                comments=None,
                ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None

    # a run is a stretch of rows with the same id.  A station that comes back
    # after other stations has more than one run, and the row parser joins it.
    ids, lat, lon, year, month, value = (record[name] for name in record.dtype.names)
    new_id = ids[1:] != ids[:-1]
    starts = [0, *(np.flatnonzero(new_id) + 1).tolist()]
    later = (year[1:] > year[:-1]) | ((year[1:] == year[:-1]) & (month[1:] > month[:-1]))
    if not (
        len(set(ids[starts].tolist())) == len(starts)
        and np.isfinite(lat).all()
        and np.isfinite(lon).all()
        and ((month >= 1) & (month <= 12)).all()
        and not np.isinf(value).any()
        and np.count_nonzero(np.isnan(value)) == len(blank)  # a literal nan is not a blank
        and (new_id | ((lat[1:] == lat[:-1]) & (lon[1:] == lon[:-1]) & later)).all()
    ):
        return None
    names = [i.decode("ascii") for i in ids[starts].tolist()]
    return names, lat[starts], lon[starts], year, month, value, np.array(starts)


def load_stations(
    path,
    *,
    lat_range: tuple[float, float] = DEFAULT_LAT_RANGE,
    lon_range: tuple[float, float] = DEFAULT_LON_RANGE,
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE,
    min_months: int = DEFAULT_MIN_MONTHS,
) -> list[StationSeries]:
    """Parse and filter a monthly-observation CSV.

    The file must carry the header ``station_id,latitude,longitude,year,
    month,tavg_c``; missing temperatures are empty fields.  Stations are
    kept when their coordinates fall in the half-open lat/lon boxes, they
    have a row in the inclusive year range, and at least ``min_months`` of
    those rows are present; a kept station holds only its present rows.
    Malformed rows raise ValueError naming the line; an empty selection
    returns an empty list.

    A plain file, LF or CRLF, with each station's rows in one block is read
    in one columnar pass (see ``_stations_in_bulk``); any other file, and any
    that fails a column check, goes to the row parser (``csv.reader`` row by
    row), which joins a station that comes back and finds the line at
    fault.  Both give the same arrays, bit for bit.  A row whose year lies
    outside the int64 range passes the row checks and is then dropped.
    """
    columns = _stations_in_bulk(path)
    ids, lat, lon, year, month, value, starts = columns if columns is not None else _stations_by_rows(path)
    in_range = (year >= year_range[0]) & (year <= year_range[1])
    present = in_range & ~np.isnan(value)
    # every station has a row, so no segment of either count is empty
    n_present = np.add.reduceat(present, starts)
    keep = (
        (lat_range[0] <= lat) & (lat < lat_range[1]) & (lon_range[0] <= lon) & (lon < lon_range[1])
        & (np.add.reduceat(in_range, starts) > 0)
        & (n_present >= min_months)
    )
    rows = present & np.repeat(keep, np.diff([*starts, year.size]))
    kept = np.flatnonzero(keep).tolist()
    stops = np.cumsum(n_present[kept]).tolist()
    year, month, value, lat, lon = year[rows], month[rows], value[rows], lat.tolist(), lon.tolist()
    return [
        StationSeries(ids[i], lat[i], lon[i], year[a:b], month[a:b], value[a:b])
        for i, a, b in zip(kept, [0, *stops], stops)
    ]


# Every per-station reduction is one np.add.reduce or ``@`` on the station's
# slice, which sums in the same order as on a fresh array of the station alone.
# np.add.reduceat sums a segment in another order: on the bootstrap fixture it
# gave a different month sum than the slice on 520 of the 1,140 month runs.
def _sums(a, bounds) -> np.ndarray:
    return np.array([np.add.reduce(a[i:j]) for i, j in zip(bounds, bounds[1:])], dtype=float)


def _dots(a, b, bounds) -> np.ndarray:
    return np.array([a[i:j] @ b[i:j] for i, j in zip(bounds, bounds[1:])], dtype=float)


# The stages take all stations' rows end to end, with each row's station or the
# ``bounds`` (each station's first row, then the row count), and check nothing.
def _deseasonalize(month, value, station):
    """Anomalies from each station's month-of-year means, and the station and month of each single-row month."""
    # a stable sort by (station, month) keeps each station's rows in its own
    # range and each month's values in their order, so a mean sums what the
    # month's mask would select; a run is one station's rows of one month
    lo, hi = month.min(initial=0), month.max(initial=0)
    order = np.argsort(station * (hi - lo + 1) + (month - lo), kind="stable")
    month, value = month[order], value[order]
    first = np.flatnonzero((np.diff(month, prepend=month[:1]) != 0) | (np.diff(station, prepend=-1) != 0))
    runs = [*first.tolist(), month.size]
    lengths = np.diff(runs)
    anomalies = np.empty_like(value)
    anomalies[order] = value - np.repeat(_sums(value, runs) / lengths, lengths)
    thin = first[lengths < 2]
    return anomalies, station[thin], month[thin]


def _detrend(x, t, bounds):
    """Residuals of each station's least-squares line in the time index ``t``."""
    sizes = np.diff(bounds)
    tc = t - np.repeat(_sums(t, bounds) / sizes, sizes)
    xc = x - np.repeat(_sums(x, bounds) / sizes, sizes)
    return xc - np.repeat(_dots(tc, xc, bounds) / _dots(tc, tc, bounds), sizes) * tc


def _ar1(x, t, station, n: int):
    """One AR(1) fit for each of the ``n`` stations, then each station's lag-pair count and sum of squared lags.

    phi_hat = sum x_t x_{t-1} / sum x_{t-1}^2 over a station's lag pairs, with
    no intercept (the input is already centered).  A lag pair is two consecutive
    time indices ``t`` of one station, so no pair spans a gap in a station's
    record, nor the boundary between two stations.
    """
    pair = (np.diff(t) == 1) & (np.diff(station) == 0)
    lag, cur = x[:-1][pair], x[1:][pair]
    pairs = np.bincount(station[:-1][pair], minlength=n)
    rows = [0, *np.cumsum(pairs).tolist()]
    lag_sq = _dots(lag, lag, rows)
    phi = _dots(lag, cur, rows) / lag_sq
    innovations = cur - np.repeat(phi, pairs) * lag
    # the sample variance (ddof=1) in np.var's own steps
    deviations = innovations - np.repeat(_sums(innovations, rows) / pairs, pairs)
    variance = _sums(deviations * deviations, rows) / (pairs - 1)
    fits = [Ar1Fit(p, innovations[i:j], v) for p, i, j, v in zip(phi.tolist(), rows, rows[1:], variance.tolist())]
    return fits, pairs, lag_sq


def kmeans1d_split(values) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, float]]:
    """Exact optimal 2-cluster split of scalars by threshold scan.

    In one dimension the optimal 2-means partition is an interval split
    of the sorted values, so scanning all n-1 thresholds and minimizing
    the total within-cluster sum of squares is exact.  Returns the index
    sets (original positions; lower-mean cluster first) and the two
    cluster means.  Deterministic: ties pick the leftmost threshold.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 values to split")
    if not np.isfinite(arr).all():
        raise ValueError(f"split values must be finite, got {arr[~np.isfinite(arr)][0]}")
    if np.unique(arr).size < 2:
        raise ValueError("all values identical: no meaningful split")
    order = np.argsort(arr, kind="stable")
    s = arr[order]
    csum = np.cumsum(s)
    csq = np.cumsum(s * s)
    total_sum, total_sq, n = csum[-1], csq[-1], arr.size

    def sse(sum_, sq_, m):
        return sq_ - sum_ * sum_ / m

    counts = np.arange(1, n)
    left_sse = sse(csum[:-1], csq[:-1], counts)
    right_sse = sse(total_sum - csum[:-1], total_sq - csq[:-1], n - counts)
    split = int(np.argmin(left_sse + right_sse))
    low = tuple(sorted(int(i) for i in order[: split + 1]))
    high = tuple(sorted(int(i) for i in order[split + 1:]))
    center_low = float(csum[split] / (split + 1))
    center_high = float((total_sum - csum[split]) / (n - split - 1))
    return (low, high), (center_low, center_high)


def build_pools(fits: Sequence[Ar1Fit], partition) -> tuple[InnovationPool, InnovationPool]:
    """Concatenate innovations per cluster and standardize to sigma_1 = 1.

    Clusters are labeled low/high by pooled standard deviation (not by
    input order) and both are divided by the low pool's sd; the empirical
    sigma is their ``sd`` ratio, ``high.sd / low.sd``, and must exceed 1.
    """
    idx_a, idx_b = partition
    if len(idx_a) == 0 or len(idx_b) == 0:
        raise ValueError("both clusters must be nonempty")
    pool_a = np.concatenate([fits[i].innovations for i in idx_a])
    pool_b = np.concatenate([fits[i].innovations for i in idx_b])
    sd_a = float(pool_a.std(ddof=1))
    sd_b = float(pool_b.std(ddof=1))
    if sd_b < sd_a:
        pool_a, pool_b = pool_b, pool_a
        sd_a, sd_b = sd_b, sd_a
        idx_a, idx_b = idx_b, idx_a
    ratio = sd_b / sd_a
    if ratio <= 1.0 + 1e-9:
        raise ValueError(f"degenerate variance split: sigma ratio {ratio:.6f} <= 1")
    low = InnovationPool(pool_a / sd_a, sd_a, tuple(idx_a))
    high = InnovationPool(pool_b / sd_a, sd_b, tuple(idx_b))
    return low, high


def bootstrap_winner(
    pool1: InnovationPool,
    pool2: InnovationPool,
    n1: int,
    n2: int,
    b: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> McEstimate:
    """Bootstrap frequency of {max of n1 pool-1 draws > max of n2 pool-2 draws}.

    The maximum of n draws with replacement from a pool of N values has
    CDF F^n, with F the pool's empirical CDF, so it is drawn exactly in
    distribution from one uniform u as the sorted pool's entry at index
    ceil(N u^{1/n}) - 1 (the quantile transform of
    :func:`gausswinner.montecarlo.sample_group_max`).  The cost does not
    grow with n1 or n2.  Iteration t owns stream positions 2t (group 1)
    and 2t+1 (group 2).  A tie, which tied pool values make common, is a
    group-1 loss.
    """
    wins = _run_rows([(rng, b, *_pool_samplers(pool1, pool2, n1, n2))], workers=workers)[0]
    return McEstimate.from_counts(int(wins[0]), b)


def _pool_max(values, n, u):
    """Maxima of n draws with replacement from the sorted ``values``, one per uniform in u."""
    idx = np.ceil(values.size * np.exp(np.log(u) / n)) - 1.0
    return values[np.clip(idx, 0, values.size - 1).astype(np.int64)]


def _pool_samplers(pool1, pool2, n1, n2):
    """The two group samplers of :func:`bootstrap_winner` and no tables: they state no accuracy."""
    if not all(math.isfinite(n) and n >= 1 for n in (n1, n2)):
        raise ValueError(f"n1 and n2 must be finite reals >= 1, got {n1} and {n2}")
    return [functools.partial(_pool_max, pool1.values, n1), functools.partial(_pool_max, pool2.values, n2)], None


def empirical_study(
    pool1: InnovationPool,
    pool2: InnovationPool,
    c_values: Sequence[float],
    n2_grid: Sequence[float],
    b: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> list[StudyRow]:
    """Bootstrap winner probabilities along the critical law vs their limits.

    Rows of :func:`gausswinner.montecarlo._critical_grid` at the pools'
    sigma ratio ``pool2.sd / pool1.sd``, with p_hat counted as
    :func:`bootstrap_winner` counts it.  As in ``simulate``, n1 is the
    critical size's floor up to 2**53 and its real value past it.  A
    group's maximum is its pool's top value with probability
    1 - (1 - 1/N)^n for a pool of N values, so far past both pools every
    draw is a top value: p_hat is 1 or 0 and std_err 0.
    """
    def setup(sizes):
        return [None] * len(sizes), [_pool_samplers(pool1, pool2, n1, n2) for n1, n2 in sizes]

    return _critical_grid(pool2.sd / pool1.sd, list(c_values), list(n2_grid), b, rng, setup, workers=workers)


def _fit_stations(stations: list[StationSeries]) -> list[Ar1Fit]:
    """Anomaly -> detrend -> AR(1) for every station, each stage one pass over all their rows.

    A ValueError names the first station to fail a rule, and its first failed
    rule in the order a station meets them, as a one-by-one fit would.
    """
    sizes = np.array([s.value.size for s in stations])
    bounds = [0, *np.cumsum(sizes).tolist()]
    station = np.repeat(np.arange(sizes.size), sizes)
    year, month, value = (np.concatenate([getattr(s, c) for s in stations]) for c in ("year", "month", "value"))
    t = year * 12 + (month - 1)  # months since year 0
    with np.errstate(divide="ignore", invalid="ignore"):  # a failing station's numbers are never read
        x, thin_station, thin_month = _deseasonalize(month, value.astype(float, copy=False), station)
        x = _detrend(x, t.astype(float), bounds)
        fits, pairs, lag_sq = _ar1(x, t, station, sizes.size)
    back = station[1:][(np.diff(t) <= 0) & (np.diff(station) == 0)]  # rows not after their station's previous row
    rules = [
        (np.bincount(station[(year < -_YEAR_MAX) | (year > _YEAR_MAX)], minlength=sizes.size) > 0,
         f"years must lie in {-_YEAR_MAX}..{_YEAR_MAX}"),
        (np.bincount(station[~np.isfinite(value)], minlength=sizes.size) > 0, "values must be finite"),
        (np.bincount(station[(month < 1) | (month > 12)], minlength=sizes.size) > 0, "months must lie in 1..12"),
        (np.bincount(back, minlength=sizes.size) > 0, "(year, month) must increase from row to row"),
        (np.bincount(thin_station, minlength=sizes.size) > 0, "months {months} have fewer than 2 observations"),
        (sizes < 3, "detrend needs at least 3 points, got {size}"),
        (sizes < 10, "AR(1) fit needs at least 10 points, got {size}"),
        (pairs < 2, "fewer than 2 consecutive lag pairs"),
        (lag_sq == 0.0, "degenerate series: zero lag variance"),
    ]
    bad = np.flatnonzero(np.any([failed for failed, _ in rules], axis=0))
    if bad.size:
        i = int(bad[0])
        message = next(text for failed, text in rules if failed[i])
        months = thin_month[thin_station == i].tolist()
        raise ValueError(f"station {stations[i].station_id}: " + message.format(months=months, size=sizes[i]))
    return fits


def run_pipeline(stations: Sequence[StationSeries]) -> PipelineResult:
    """Per-station innovations, variance split, and standardized pools."""
    stations = list(stations)
    if len(stations) < 2:
        raise ValueError("pipeline needs at least 2 stations")
    fits = _fit_stations(stations)
    partition, centers = kmeans1d_split([f.variance for f in fits])
    pool_low, pool_high = build_pools(fits, partition)
    if pool_low.indices != partition[0]:  # build_pools labels by pooled sd
        centers = (centers[1], centers[0])
    return PipelineResult(
        fits=fits,
        centers=centers,
        pool_low=pool_low,
        pool_high=pool_high,
    )
