"""Ingestion, anomaly pipeline, variance split, pools, bootstrap."""

import csv
import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausswinner.pipeline as pipeline
from gausswinner.montecarlo import RngStream
from gausswinner.pipeline import (
    Ar1Fit,
    InnovationPool,
    StationSeries,
    bootstrap_winner,
    build_pools,
    empirical_study,
    kmeans1d_split,
    load_stations,
    run_pipeline,
)
from gausswinner.synthetic import write_synthetic_stations

import oracles


def make_series(values, sid="T1", lat=35.0, lon=-80.0, start_year=1980):
    """Consecutive months from January of ``start_year``, one per value."""
    values = np.asarray(values, dtype=float)
    t = np.arange(len(values))
    return StationSeries(sid, lat, lon, start_year + t // 12, 1 + t % 12, values)


def _series_at(sid, t, values):
    """A station observed at the month indices ``t`` (months since year 0)."""
    t = np.asarray(t, dtype=np.int64)
    return StationSeries(sid, 35.0, -80.0, t // 12, t % 12 + 1, np.asarray(values, dtype=float))


# the three columnar kernels on the rows of a single station
def _deseasonalize(month, value):
    return pipeline._deseasonalize(np.asarray(month), np.asarray(value, dtype=float), np.zeros(len(value), int))[0]


def _detrend(x, t):
    return pipeline._detrend(np.asarray(x, dtype=float), np.asarray(t, dtype=float), [0, len(x)])


def _ar1(x, t):
    (fit,), _, _ = pipeline._ar1(np.asarray(x, dtype=float), np.asarray(t), np.zeros(len(x), int), 1)
    return fit


def write_csv(path, rows):
    text = "station_id,latitude,longitude,year,month,tavg_c\n" + "\n".join(rows) + "\n"
    path.write_text(text, encoding="utf-8")


class TestLoadStations:
    def test_box_filter(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = []
        for sid, lat in [("A", 35.0), ("B", 39.9), ("C", 45.0)]:
            for m in range(1, 13):
                rows.append(f"{sid},{lat},-80.0,1990,{m},5.0")
        write_csv(p, rows)
        out = load_stations(p, min_months=6)
        assert [s.station_id for s in out] == ["A", "B"]

    def test_month_13_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", "A,35,-80,1990,13,5.0"])
        with pytest.raises(ValueError, match="line 3"):
            load_stations(p)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("C,35,-80,1990,13,5", "line 4: month 13 outside 1..12"),
            ("C,35." + "0" * csv.field_size_limit() + ",-80,1990,1,5", "line 4: field larger than field limit"),
        ],
    )
    def test_error_names_the_rows_last_physical_line(self, tmp_path, row, message):
        # the quoted id spans lines 2-3, so the next row is on line 4, as csv counts lines
        p = tmp_path / "t.csv"
        write_csv(p, ['"A\nB",35,-80,1990,1,5', row])
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_stations(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\nA,35,-80,1990,1,5.0\n")
        with pytest.raises(ValueError, match="header"):
            load_stations(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="^line 1: empty file, header required$"):
            load_stations(p)

    def test_header_of_other_names(self, tmp_path):
        # as long as the right header and as plain, so only its names differ
        p = tmp_path / "t.csv"
        p.write_text(",".join(pipeline.CSV_HEADER).upper() + "\nA,35,-80,1990,1,5.0\n")
        with pytest.raises(ValueError, match="line 1: header must be"):
            load_stations(p)

    def test_bad_float_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,abc"])
        with pytest.raises(ValueError, match="line 2"):
            load_stations(p)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "+Infinity", " -INF "])
    def test_non_finite_value_names_line(self, tmp_path, raw):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", f"A,35,-80,1990,2,{raw}"])
        with pytest.raises(ValueError, match="line 3: non-finite tavg_c"):
            load_stations(p)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,nan,-80,1990,2,5.0", "line 3: non-finite latitude 'nan'"),
            ("A,35, inf ,1990,2,5.0", "line 3: non-finite longitude 'inf'"),
            ("A,-Infinity,-80,1990,2,5.0", "line 3: non-finite latitude '-Infinity'"),
        ],
    )
    def test_non_finite_coordinate_names_line(self, tmp_path, row, message):
        # a NaN latitude used to surface as "changes coordinates" (nan != nan)
        # at the station's next row, and an infinite one was dropped silently
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", row, "A,35,-80,1990,3,5.0"])
        with pytest.raises(ValueError, match=re.escape(message)):
            load_stations(p)

    def test_non_finite_coordinate_on_first_row(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,NaN,-80,1990,1,5.0", "A,NaN,-80,1990,2,5.0"])
        with pytest.raises(ValueError, match="line 2: non-finite latitude 'NaN'"):
            load_stations(p)

    def test_non_finite_longitude_on_every_row(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-inf,1990,1,5.0", "A,35,-inf,1990,2,5.0"])
        with pytest.raises(ValueError, match="line 2: non-finite longitude '-inf'"):
            load_stations(p)

    def test_year_beyond_int64_dropped(self, tmp_path):
        # no int64 year range holds such a year; its row is still checked
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", "A,35,-80,99999999999999999999,2,5.0"])
        (s,) = load_stations(p, min_months=1)
        assert s.year.tolist() == [1990] and s.month.tolist() == [1]
        write_csv(p, ["A,35,-80,99999999999999999999,1,5.0", "A,35,-80,1990,2,5.0"])
        with pytest.raises(ValueError, match="line 3: station A has non-increasing"):
            load_stations(p)

    def test_non_increasing_months(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,2,5.0", "A,35,-80,1990,1,5.0"])
        with pytest.raises(ValueError, match="non-increasing"):
            load_stations(p)

    def test_coordinate_change(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", "A,36,-80,1990,2,5.0"])
        with pytest.raises(ValueError, match="coordinates"):
            load_stations(p)

    def test_longitude_change(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", "A,35,-81,1990,2,5.0"])
        with pytest.raises(ValueError, match="line 3: station A changes coordinates"):
            load_stations(p)

    def test_empty_value_marks_absent(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["A,35,-80,1990,1,5.0", "A,35,-80,1990,2,", "A,35,-80,1990,3,6.0"])
        (s,) = load_stations(p, min_months=2)
        assert s.month.tolist() == [1, 3] and s.value.tolist() == [5.0, 6.0]
        assert load_stations(p, min_months=3) == []

    def test_completeness_and_date_filters(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [f"A,35,-80,1979,{m},5.0" for m in range(1, 13)]
        rows += [f"A,35,-80,1990,{m},5.0" for m in range(1, 7)]
        write_csv(p, rows)
        assert load_stations(p, min_months=7) == []
        out = load_stations(p, min_months=6)
        assert out[0].year.tolist() == [1990] * 6  # the 1979 rows fall outside the range

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_stations(tmp_path / "absent.csv")


def _present_digest(stations):
    """sha256 of every station's (id, lat, lon, year, month, value) over its present rows."""
    h = hashlib.sha256()
    for s in stations:
        keep = ~np.isnan(s.value)
        h.update(f"{s.station_id}\n{s.latitude.hex()}\n{s.longitude.hex()}\n".encode())
        for column, dtype in ((s.year, "<i8"), (s.month, "<i8"), (s.value, "<f8")):
            h.update(np.ascontiguousarray(column[keep], dtype=dtype).tobytes())
    return h.hexdigest()


def test_loaded_present_observations_pinned(tmp_path):
    """Station selection and the present rows kept, pinned on the golden and pipeline fixtures."""
    golden, small, blank = tmp_path / "golden.csv", tmp_path / "small.csv", tmp_path / "blank.csv"
    write_synthetic_stations(golden, n_low=10, n_high=6, seed=42, missing_rate=0.02)
    write_synthetic_stations(small, n_low=3, n_high=2, seed=1, missing_rate=0.05)
    # B has rows in the year range, all blank: with no completeness filter it
    # is kept, empty.  C has no row in the range and is dropped even then.
    rows = [f"A,35,-80,{y},{m},{m % 5}.{y % 7}" for y in (1990, 1991) for m in range(1, 13)]
    rows += [f"B,36,-81,{y},1," for y in (1979, 1990, 1991)]
    write_csv(blank, rows + [f"C,37,-82,1979,{m},5.0" for m in range(1, 13)])
    got = {}
    for path in (golden, small, blank):
        for min_months in (pipeline.DEFAULT_MIN_MONTHS, 0):
            stations = load_stations(path, min_months=min_months)
            got[path.stem, min_months] = (len(stations), _present_digest(stations))
    assert got == {
        ("golden", 240): (16, "9fb65015398c05facb8e84beaa93a9a1e27f56b643eef61a65b469542954e9c8"),
        ("golden", 0): (17, "6d9388ffc0daf9f935abe0772049b23f8a8397ced08300f9776edc8af902aa5a"),
        ("small", 240): (5, "eaa948bc7aecd8510c2751da0349ce45881dae5c9687c903fa1ad0d018701b70"),
        ("small", 0): (6, "195321f2d59c329cc963fc00d75270d00159ddffbf9bfbe893afce9881bd9704"),
        ("blank", 240): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("blank", 0): (2, "657ec70473f1900860bffdd372ff4c448e63620903f53532cade34b88af0e6fc"),
    }
    with pytest.raises(ValueError, match=r"^station B: detrend needs at least 3 points, got 0$"):
        run_pipeline(load_stations(blank, min_months=0))


HEADER = ",".join(pipeline.CSV_HEADER)
# (n_low, n_high, seed, missing_rate) -> sha256 of the fixture bytes, each pinned
# from an earlier writer; the first from one that filtered the AR(1) noise with
# scipy.signal.lfilter.
FIXTURE_DIGESTS = {
    (3, 2, 1, 0.05): "45942c4cc9333966b097ca88581144b27ebac9674f182079d26467b6f59b0d07",
    (0, 0, 0, 0.0): "317d952a7073122fe483a27413b51ef9a338a38e20541b645594ebb7c84603e4",  # only OUT and SPR
    (1, 0, 0, 0.3): "4cebf5530b6e4478ebf8d012ddf5bc883015822a7e183992d7b31cacdb1f140d",
    (2, 3, 0, 0.0): "653e5fa3eb002c7fb51a3c0082f9e950741124cf356f03dd93d541691a3a2a1e",
    (4, 4, 9, 0.2): "9579dacbc3f5a92ffb0d66efb4591ed86b5b757a38deff098d5d9b2617506b82",  # blanks on SYN 0 and 3
}
# long, yet its id column never outgrows a generated file: one line of it
# beside eight 17-byte lines of the other stations still fits
LONG_ID = "S01-USW00013874-ATLANTA"
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def station_rows(draw):
    """Data lines of 1-3 stations, 1-4 months each, with gaps, blanks and varied spellings."""
    rows = []
    ids = draw(st.lists(st.sampled_from(["A", "AB", "B", "S01", "S02", LONG_ID, "#7", "x/y"]), min_size=1, max_size=3, unique=True))
    for sid in ids:
        lat = draw(st.sampled_from(["35", "35.25", "39.9999", "29.5", "0.0", "40"]))
        lon = draw(st.sampled_from(["-80", "-80.125", "-95", "-74.5", "-1e2"]))
        year, month = draw(st.integers(1978, 1982)), draw(st.integers(1, 12))
        for _ in range(draw(st.integers(1, 4))):
            value = draw(
                st.one_of(
                    st.just(""),
                    st.floats(-60, 60).map(lambda v: f"{v:.4f}"),
                    st.floats(-60, 60).map(repr),
                    st.sampled_from(["5", "-0", ".5", "5.", "1e1", "+2.5"]),
                )
            )
            rows.append(f"{sid},{lat},{lon},{year},{month},{value}")
            month += draw(st.integers(1, 14))
            year, month = year + (month - 1) // 12, 1 + (month - 1) % 12
    return rows


def _field(columns, change):
    """A mutation applying ``change(field, k)`` to one field of row k, in a column picked by k."""

    def mutate(rows, k):
        if not rows:
            return rows
        i, column = k % len(rows), columns[k // len(rows) % len(columns)]
        fields = rows[i].split(",")
        if column < len(fields):
            fields[column] = change(fields[column], k)
        return rows[:i] + [",".join(fields)] + rows[i + 1:]

    return mutate


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def _respell(field, k):
    """The same number spelled another way."""
    v = _number(field)
    if v is None:
        return field
    return [repr(v), repr(v) + "e0", field if field[0] in "+-" else "+" + field, "-0.0" if v == 0 else field][k % 4]


def _shift(field, k):
    v = _number(field)
    return field if v is None else repr(v + 0.5)


def _insert(line):
    return lambda rows, k: rows[: k % (len(rows) + 1)] + [line] + rows[k % (len(rows) + 1):]


def _interleave(rows, k):
    by_station = {}
    for row in rows:
        by_station.setdefault(row.split(",")[0], []).append(row)
    return [r for group in itertools.zip_longest(*by_station.values()) for r in group if r is not None]


def _reappear(rows, k):
    """The first station's later rows moved after all other stations."""
    if not rows:
        return rows
    first = [r for r in rows if r.split(",")[0] == rows[0].split(",")[0]]
    cut = (len(first) + 1) // 2
    return first[:cut] + [r for r in rows if r not in first] + first[cut:]


def _swap(rows, k):
    if len(rows) < 2:
        return rows
    i = k % (len(rows) - 1)
    return rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:]


def _unchanged(rows, k):
    return rows


# name -> (mutation of the data lines, whether the columnar pass still reads a plain valid file).
# "crlf" and "no_final_newline" act on the line ends, in _assemble.
MUTATIONS = {
    "crlf": (_unchanged, True),
    "no_final_newline": (_unchanged, True),
    "quote_field": (_field(range(6), lambda f, k: f'"{f}"'), False),
    "spaces_around_field": (_field(range(6), lambda f, k: [f" {f} ", f"\t{f}"][k % 2]), False),
    "blank_line": (_insert(""), False),
    "whitespace_line": (_insert(" \t"), False),
    "interleave": (_interleave, False),  # valid, but a station that comes back defers to the row parser
    "reappear": (_reappear, False),
    "respell_coordinate": (_field((1, 2), _respell), True),
    "repeat_row": (lambda rows, k: rows[: k % len(rows) + 1] + rows[k % len(rows):] if rows else rows, False),
    "swap_rows": (_swap, False),
    "coordinate_change": (_field((1, 2), _shift), False),
    "non_finite": (_field((1, 2, 3, 4, 5), lambda f, k: ["nan", "inf", "-inf", "NaN"][k % 4]), False),
    "month_0_or_13": (_field((4,), lambda f, k: ["0", "13"][k % 2]), False),
    "year_spelling": (
        _field((3,), lambda f, k: [f + ".0", f + "e0", f[:1] + "_" + f[1:], f.translate(ARABIC_INDIC), "9" * 20][k % 5]),
        False,
    ),
    "five_fields": (lambda rows, k: [r.rsplit(",", 1)[0] if i == k % len(rows) else r for i, r in enumerate(rows)], False),
    "seven_fields": (_field((5,), lambda f, k: f + "," + ["", "x", "1"][k % 3]), False),
    "empty_id": (_field((0,), lambda f, k: ""), False),
    "header_only": (lambda rows, k: [], False),
}


def _assemble(rows, names):
    eol = "\r\n" if "crlf" in names else "\n"
    text = eol.join([HEADER, *rows]) + eol
    return text[: -len(eol)] if "no_final_newline" in names else text


def _series_bits(series):
    """Every field of a list of StationSeries, bit for bit."""
    return [
        (s.station_id, type(s.latitude), s.latitude.hex(), type(s.longitude), s.longitude.hex())
        + tuple((a.dtype.str, a.tobytes()) for a in (s.year, s.month, s.value))
        for s in series
    ]


def _columns_bits(columns):
    """Every field of a parser's ``(ids, lat, lon, year, month, value, starts)``, station by station, bit for bit."""
    ids, lat, lon, year, month, value, starts = columns
    assert lat.dtype == lon.dtype == np.float64
    bounds = [*starts.tolist(), year.size]
    return _series_bits(
        [
            StationSeries(sid, la, lo, year[a:b], month[a:b], value[a:b])
            for sid, la, lo, a, b in zip(ids, lat.tolist(), lon.tolist(), bounds, bounds[1:])
        ]
    )


def _outcome(load, path):
    """``load(path)`` as bits, or the text of the ValueError it raises."""
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


class TestLoaderPaths:
    """The columnar pass gives the row parser's result, or defers to it."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        rows=station_rows(),
        mutations=st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 1000)), max_size=3),
    )
    # a station that comes back with other coordinates, with an earlier month,
    # or with its first coordinate respelled (-0.0 for 0.0); an infinite
    # latitude on a station's only row; an empty, a quoted and a spaced id;
    # a header with no data line, a line of seven fields, no final newline;
    # a blank line and then a line with the commas of two
    @example(rows=["A,35,-80,1990,1,5", "A,35,-80,1990,2,5", "B,35,-80,1990,1,5"], mutations=[("reappear", 0), ("coordinate_change", 2)])
    @example(rows=["A,35,-80,1990,1,5", "A,35,-80,1990,2,5", "B,35,-80,1990,1,5"], mutations=[("swap_rows", 0), ("reappear", 0)])
    @example(rows=["A,35,0.0,1990,1,5", "A,35,0.0,1990,2,5", "B,35,0.0,1990,1,5"], mutations=[("reappear", 0), ("respell_coordinate", 11)])
    @example(rows=[f"{LONG_ID},35,-80,1990,1,5", "S01,35,-80,1990,1,", "S01,35,-80,1990,2,5"], mutations=[("reappear", 0), ("crlf", 0)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("non_finite", 5)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("empty_id", 0)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("header_only", 0)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("seven_fields", 0)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("no_final_newline", 0)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("quote_field", 0)])
    @example(rows=["A,35,-80,1990,1,5"], mutations=[("spaces_around_field", 0)])
    @example(rows=["A,35,-80,1990,1,5,6,7,8,9,10"], mutations=[("blank_line", 0)])
    def test_bulk_pass_matches_row_parser(self, tmp_path_factory, rows, mutations):
        for name, k in mutations:
            rows = MUTATIONS[name][0](rows, k)
        names = [name for name, _ in mutations]
        path = tmp_path_factory.mktemp("loader") / "stations.csv"
        path.write_bytes(_assemble(rows, names).encode("utf-8"))

        def load(p):
            return _series_bits(load_stations(p, min_months=1))

        # warnings are recorded, not raised, so both paths run as under the
        # CLI's filters; a loadtxt warning would reach the CLI's stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = _outcome(lambda p: _columns_bits(pipeline._stations_by_rows(p)), path)
            bulk = pipeline._stations_in_bulk(path)
            got = _outcome(load, path)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "_stations_in_bulk", lambda p: None)
                assert got == _outcome(load, path)
        assert [str(w.message) for w in caught] == []
        if bulk is not None:
            assert _columns_bits(bulk) == want
        if all(MUTATIONS[name][1] for name in names):
            assert not isinstance(want, str) and bulk is not None

    @pytest.mark.parametrize(
        "year, month", [("1980.0", "1"), ("1e3", "1"), ("nan", "1"), ("inf", "1"), ("1990", "5.9"), ("9" * 20, "2")]
    )
    def test_integer_read_through_a_float_defers(self, tmp_path, monkeypatch, year, month):
        # some numpy releases read an int field that int() refuses through a
        # float, with only a DeprecationWarning; the bulk pass must not take
        # that value, under the default filters that ignore the warning
        real_loadtxt = np.loadtxt

        def loadtxt_via_float(fh, dtype, **kwargs):
            try:
                return real_loadtxt(fh, dtype=dtype, **kwargs)
            except ValueError:
                fh.seek(0)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            floats = real_loadtxt(fh, dtype=[(n, "f8" if dtype[n].kind == "i" else dtype[n]) for n in dtype.names], **kwargs)
            with np.errstate(invalid="ignore"):
                return floats.astype(dtype)

        path = tmp_path / "t.csv"
        write_csv(path, [f"A,35,-80,{year},{month},5.0", "A,35,-80,9999,12,5.0"])
        want = _outcome(lambda p: _series_bits(load_stations(p, min_months=1)), path)
        monkeypatch.setattr(pipeline.np, "loadtxt", loadtxt_via_float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert pipeline._stations_in_bulk(path) is None
            assert _outcome(lambda p: _series_bits(load_stations(p, min_months=1)), path) == want

    def test_bulk_pass_reads_fixtures(self, tmp_path):
        path, crlf = tmp_path / "fixture.csv", tmp_path / "crlf.csv"
        for n_low, n_high, seed, missing_rate in FIXTURE_DIGESTS:
            write_synthetic_stations(path, n_low=n_low, n_high=n_high, seed=seed, missing_rate=missing_rate)
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            want = _columns_bits(pipeline._stations_by_rows(path))
            assert len(want) == n_low + n_high + 3  # with the OUT and SPR stations
            for p in (path, crlf):
                bulk = pipeline._stations_in_bulk(p)
                assert bulk is not None
                assert _columns_bits(bulk) == want == _columns_bits(pipeline._stations_by_rows(p))

    @pytest.mark.parametrize("mutation", [_interleave, _reappear])
    def test_returning_station_defers(self, tmp_path, mutation):
        # a station whose rows come back after another station's is joined by the row parser alone
        path = tmp_path / "t.csv"
        rows = [f"{sid},35,-80,1990,{m},{m}.5" for sid in ("A", "B") for m in range(1, 5)] + ["C,36,-81,1990,1,7"]
        write_csv(path, mutation(rows, 0))
        assert pipeline._stations_in_bulk(path) is None
        by_rows = pipeline._stations_by_rows(path)
        ids, _, _, _, month, _, starts = by_rows
        assert ids == ["A", "B", "C"] and month[starts[0] : starts[1]].tolist() == [1, 2, 3, 4]
        assert _series_bits(load_stations(path, min_months=0)) == _columns_bits(by_rows)

    def test_lone_cr_defers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(f"{HEADER}\r\nA,35,-80,1990,1,5.0\rA,35,-80,1990,2,5.0\r\n".encode())
        assert pipeline._stations_in_bulk(path) is None
        (s,) = load_stations(path, min_months=1)  # csv.reader ends a line at a lone CR
        assert s.month.tolist() == [1, 2]

    def test_id_column_larger_than_file_defers(self, tmp_path):
        # read at the width of a 50,000-byte id, the 13 ids would take 650 kB
        # for a 50 kB file; the row parser reads it instead
        long_id = "L" * 50_000
        path = tmp_path / "t.csv"
        write_csv(path, [f"{long_id},35,-80,1990,1,5.0"] + [f"A,35,-80,1990,{m},5.0" for m in range(1, 13)])
        assert pipeline._stations_in_bulk(path) is None
        assert [(s.station_id, s.month.size) for s in load_stations(path, min_months=1)] == [(long_id, 1), ("A", 12)]

    def test_field_above_csv_limit_defers(self, tmp_path):
        # csv.reader refuses a field longer than its limit, so the columnar
        # pass must not read a line that could hold one
        path = tmp_path / "t.csv"
        write_csv(path, ["A,35." + "0" * csv.field_size_limit() + ",-80,1990,1,5.0"])
        assert pipeline._stations_in_bulk(path) is None
        with pytest.raises(ValueError, match=r"^line 2: field larger than field limit"):
            load_stations(path, min_months=1)

    @pytest.mark.parametrize("line", [1, 2, 4])
    def test_field_above_csv_limit_names_its_line(self, tmp_path, line):
        # csv.Error used to escape load_stations, and it is not a ValueError
        rows = ["station_id,latitude,longitude,year,month,tavg_c"] + [f"A,35,-80,1990,{m},5.0" for m in (1, 2, 3)]
        rows[line - 1] = rows[line - 1].replace(",", "," + "0" * csv.field_size_limit(), 1)
        path = tmp_path / "t.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^line {line}: field larger than field limit"):
            load_stations(path, min_months=1)


class TestDeseasonalize:
    def test_constant_series(self):
        series = make_series(np.full(48, 7.25))
        out = _deseasonalize(series.month, series.value)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_pure_seasonal_cycle(self):
        series = make_series([float(1 + t % 12) for t in range(48)])
        out = _deseasonalize(series.month, series.value)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_per_month_means_vanish(self):
        g = RngStream(seed=3).generator(0)
        t = np.arange(240)
        vals = 10.0 * np.sin(2 * np.pi * (1 + t % 12) / 12.0) + g.random(240)
        series = make_series(vals)
        out = _deseasonalize(series.month, series.value)
        for m in range(1, 13):
            assert abs(out[series.month == m].mean()) < 1e-9

    def test_idempotent(self):
        g = RngStream(seed=4).generator(0)
        series = make_series(g.random(120) * 3.0 + 5.0)
        once = _deseasonalize(series.month, series.value)
        twice = _deseasonalize(series.month, once)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_thin_month_listed(self):
        # months 1 and 2 appear twice, 3..12 once
        series = make_series(np.arange(14.0), sid="T2")
        with pytest.raises(ValueError) as excinfo:
            run_pipeline([make_series(np.arange(48.0)), series])
        assert str(excinfo.value) == "station T2: months [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] have fewer than 2 observations"


def _deseasonalize_by_masks(series):
    """One boolean mask and one mean per month of the year: the reference the sorted runs must match bit for bit."""
    anomalies = np.empty_like(series.value)
    for m in np.unique(series.month):
        sel = series.month == m
        anomalies[sel] = series.value[sel] - series.value[sel].mean()
    return anomalies


def test_deseasonalize_bits_match_per_month_masks_on_the_bootstrap_fixture(tmp_path):
    # the 95-station layout of the benchmark's bootstrap input
    path = tmp_path / "stations.csv"
    write_synthetic_stations(path, n_low=60, n_high=35, missing_rate=0.02, seed=11)
    stations = load_stations(path)
    assert len(stations) == 95
    for series in stations:
        assert _deseasonalize(series.month, series.value).tobytes() == _deseasonalize_by_masks(series).tobytes()


def test_deseasonalize_bits_match_per_month_masks_on_unsorted_gapped_months():
    # months out of order, with gaps, and month 7 absent altogether
    g = RngStream(seed=5).generator(0)
    month = g.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12], size=301)
    series = StationSeries("U", 35.0, -80.0, np.arange(301) // 12 + 1950, month, g.normal(12.0, 7.0, 301))
    out = _deseasonalize(series.month, series.value)
    assert out.tobytes() == _deseasonalize_by_masks(series).tobytes()


class TestDetrendLinear:
    def test_exact_line_removed(self):
        t = np.arange(60, dtype=float)
        out = _detrend(3.0 + 0.25 * t, t)
        assert np.max(np.abs(out)) < 1e-10

    def test_white_noise_slope_within_se(self):
        g = RngStream(seed=5).generator(0)
        x = g.standard_normal(10_000)
        t = np.arange(10_000, dtype=float)
        out = _detrend(x, t)
        tc = t - t.mean()
        slope_hat = float(tc @ (x - x.mean())) / float(tc @ tc)
        se = 1.0 / math.sqrt(float(tc @ tc))  # OLS slope standard error, sigma = 1
        assert abs(slope_hat) <= 4.0 * se
        assert abs(out.mean()) < 1e-9
        assert abs(float(tc @ out)) / float(tc @ tc) < 1e-12

    def test_idempotent_under_added_line(self):
        g = RngStream(seed=6).generator(0)
        x = g.standard_normal(500)
        t = np.arange(500, dtype=float)
        a = _detrend(x, t)
        b = _detrend(x + 4.0 - 0.37 * t, t)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_short_input(self):
        # two January rows: the month has its 2 observations, the line needs 3
        series = StationSeries("S", 35.0, -80.0, np.array([1990, 1991]), np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError) as excinfo:
            run_pipeline([make_series(np.arange(48.0)), series])
        assert str(excinfo.value) == "station S: detrend needs at least 3 points, got 2"


class TestAr1Innovations:
    def test_white_noise_phi_near_zero(self):
        g = RngStream(seed=7).generator(0)
        x = g.standard_normal(5000)
        fit = _ar1(x, np.arange(x.size))
        assert abs(fit.phi) <= 4.0 / math.sqrt(5000)
        assert fit.innovations.size == 4999

    def test_recovers_phi(self):
        g = RngStream(seed=8).generator(0)
        e = g.standard_normal(5000)
        x = np.empty(5000)
        x[0] = e[0]
        for i in range(1, 5000):
            x[i] = 0.6 * x[i - 1] + e[i]
        fit = _ar1(x, np.arange(x.size))
        assert fit.phi == pytest.approx(0.6, abs=0.05)

    def test_innovations_are_white(self):
        g = RngStream(seed=9).generator(0)
        e = g.standard_normal(4000)
        x = np.empty(4000)
        x[0] = e[0]
        for i in range(1, 4000):
            x[i] = 0.5 * x[i - 1] + e[i]
        fit = _ar1(x, np.arange(x.size))
        inn = fit.innovations
        r1 = float(inn[1:] @ inn[:-1]) / float(inn @ inn)
        assert abs(r1) <= 4.0 / math.sqrt(fit.innovations.size)

    def test_exact_decay(self):
        x = 0.8 ** np.arange(50)
        fit = _ar1(x, np.arange(x.size))
        assert fit.phi == pytest.approx(0.8, rel=1e-12)
        assert np.max(np.abs(fit.innovations)) < 1e-12

    def test_gap_breaks_lag_chain(self):
        x = np.arange(20, dtype=float)
        t = np.arange(20)
        t[10:] += 5  # one gap; pairs across it must be dropped
        fit = _ar1(x, t)
        assert fit.innovations.size == 18

    def test_errors(self):
        for series, message in [
            # January to April of 1990 and 1991: every month twice, 8 points
            (
                _series_at("S", 1990 * 12 + np.array([0, 1, 2, 3, 12, 13, 14, 15]), np.arange(8.0)),
                "station S: AR(1) fit needs at least 10 points, got 8",
            ),
            (make_series(np.full(100, 7.0), sid="S"), "station S: degenerate series: zero lag variance"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                run_pipeline([make_series(np.arange(48.0)), series])
            assert str(excinfo.value) == message


@st.composite
def gapped_stations(draw):
    """2-4 stations of monthly rows with gaps; some too short or too thin to fit, some empty.

    A yearly station has one row a year, all in one month of the year: it
    passes the seasonal and trend stages and forms no lag pair.
    """
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stations = []
    for k in range(draw(st.integers(2, 4))):
        n = int(g.choice([0, 2, 9, 23, 36, 48, 61, 96], p=[0.05, 0.05, 0.05, 0.05, 0.2, 0.2, 0.2, 0.2]))
        if g.random() < 0.1:
            steps = np.full(n, 12)
        else:
            steps = 1 + (g.random(n) < g.choice([0.0, 0.03, 0.1])) * g.integers(1, 14, n)
        t = g.integers(1950 * 12, 1960 * 12) + np.cumsum(steps) - steps[:1]
        values = 10.0 * np.sin(t * np.pi / 6.0) + g.choice([0.5, 1.0, 3.0]) * g.standard_normal(n)
        stations.append(_series_at(f"S{k}", t, values))
    return stations


def _fits_or_error(fit):
    """Each station's (phi, innovations, variance) as bits, or the text of the ValueError raised."""
    try:
        return [(float(phi).hex(), innovations.tobytes(), float(variance).hex()) for phi, innovations, variance in fit()]
    except ValueError as exc:
        return str(exc)


_JAN = 1990 * 12  # the month index of January 1990
_NOISE = RngStream(seed=29).generator(0).standard_normal(60)
_A = _series_at("A", _JAN + np.arange(30), _NOISE[:30])
# two stations whose month indices run on across the boundary: no lag pair joins them
_RUN_ON = [_A, _series_at("B", _JAN + np.arange(30, 60), _NOISE[30:])]
# a month of the year with a single row (December)
_SINGLE_ROW_MONTH = [_A, _series_at("B", _JAN + np.arange(23), _NOISE[:23])]
# a kept station with no present row
_EMPTY_STATION = [_A, _series_at("B", [], [])]
# B fails at the AR(1) stage (yearly rows form no lag pair), C at the seasonal stage
_EARLIER_STATION_LATER_STAGE = [
    _A,
    _series_at("B", _JAN + 12 * np.arange(12), _NOISE[:12]),
    _series_at("C", _JAN + np.arange(23), _NOISE[:23]),
]
# S has 24 consecutive months from January of year 2**55, whose time indices all
# round to one float, and C fails at the seasonal stage
_CONSTANT_TIME_INDEX = [
    _A, _series_at("S", 12 * 2**55 + np.arange(24), _NOISE[:24]), _EARLIER_STATION_LATER_STAGE[2]
]
# S has 48 such months: their time indices round to steps of 32 months, and no other rule fires
_ROUNDED_TIME_INDEX = [_A, _series_at("S", 12 * 2**55 + np.arange(48), _NOISE[:48])]
# W has 48 months from January of year 2**62, whose month indices year * 12 wrap in int64 to those of year 0
_WRAPPED_TIME_INDEX = [
    _A, StationSeries("W", 35.0, -80.0, 2**62 + np.arange(48) // 12, 1 + np.arange(48) % 12, _NOISE[:48])
]
# F has 36 consecutive months, all at 7.0, and C fails at the seasonal stage
_FLAT_SERIES = [_A, _series_at("F", _JAN + np.arange(36), np.full(36, 7.0)), _EARLIER_STATION_LATER_STAGE[2]]
# B holds a NaN, or an infinity, among 48 consecutive months
_NAN_VALUE, _INF_VALUE = (
    [_A, _series_at("B", _JAN + np.arange(48), np.where(np.arange(48) == 17, bad, _NOISE[:48]))]
    for bad in (math.nan, math.inf)
)
# B's June 1990 is labelled May 1990, or month 13, among 48 consecutive months
_MAY_TWICE, _MONTH_13 = ([_A, _series_at("B", _JAN + np.arange(48), _NOISE[:48])] for _ in range(2))
_MAY_TWICE[1].month[5], _MONTH_13[1].month[5] = 5, 13


def _fits(stations):
    return ((f.phi, f.innovations, f.variance) for f in run_pipeline(stations).fits)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(stations=gapped_stations())
@example(stations=_RUN_ON)
@example(stations=_SINGLE_ROW_MONTH)
@example(stations=_EMPTY_STATION)
@example(stations=_EARLIER_STATION_LATER_STAGE)
@example(stations=_CONSTANT_TIME_INDEX)
@example(stations=_ROUNDED_TIME_INDEX)
@example(stations=_WRAPPED_TIME_INDEX)
@example(stations=_FLAT_SERIES)
def test_run_pipeline_fits_match_the_per_station_oracle(stations):
    """The columnar stages give each station's fit, and the first failing station's error, bit for bit."""
    assert _fits_or_error(lambda: _fits(stations)) == _fits_or_error(lambda: map(oracles.process_station, stations))


@pytest.mark.parametrize(
    "stations, message",
    [
        (_SINGLE_ROW_MONTH, "station B: months [12] have fewer than 2 observations"),
        (_EMPTY_STATION, "station B: detrend needs at least 3 points, got 0"),
        (_EARLIER_STATION_LATER_STAGE, "station B: fewer than 2 consecutive lag pairs"),
        (_CONSTANT_TIME_INDEX, "station S: years must lie in -750599937895081..750599937895081"),
        (_FLAT_SERIES, "station F: degenerate series: zero lag variance"),
        (_NAN_VALUE, "station B: values must be finite"),
        (_INF_VALUE, "station B: values must be finite"),
        ([_A], "pipeline needs at least 2 stations"),
        (_MAY_TWICE, "station B: (year, month) must increase from row to row"),
        (_MONTH_13, "station B: months must lie in 1..12"),
        (_ROUNDED_TIME_INDEX, "station S: years must lie in -750599937895081..750599937895081"),
        (_WRAPPED_TIME_INDEX, "station W: years must lie in -750599937895081..750599937895081"),
    ],
)
def test_run_pipeline_names_the_first_failing_station(stations, message):
    with pytest.raises(ValueError) as excinfo:
        run_pipeline(stations)
    assert str(excinfo.value) == message


def test_unequal_lengths_name_the_station():
    year, month = 1990 + np.arange(48) // 12, 1 + np.arange(48) % 12
    with pytest.raises(ValueError) as excinfo:
        run_pipeline([_A, StationSeries("B", 35.0, -80.0, year, month[:47], np.ones(48))])
    assert str(excinfo.value) == "station B: year, month and value lengths differ (48, 47, 48)"


def test_run_pipeline_fits_match_the_per_station_oracle_on_the_bootstrap_fixture(tmp_path):
    path = tmp_path / "stations.csv"
    write_synthetic_stations(path, n_low=60, n_high=35, missing_rate=0.02, seed=11)
    stations = load_stations(path)
    want = _fits_or_error(lambda: map(oracles.process_station, stations))
    assert len(want) == 95
    assert _fits_or_error(lambda: _fits(stations)) == want


class TestKmeans1dSplit:
    def test_obvious_gap(self):
        (low, high), centers = kmeans1d_split([1.0, 1.0, 1.0, 9.0, 9.0])
        assert low == (0, 1, 2) and high == (3, 4)
        assert centers == (1.0, 9.0)

    def test_enumerated_example(self):
        values = [1.0, 2.0, 8.0, 9.0]
        (low, high), _ = kmeans1d_split(values)
        assert low == (0, 1) and high == (2, 3)
        _, oracle_low, oracle_high = oracles.threshold_split_sse(values)
        assert tuple(values[i] for i in low) == oracle_low
        assert tuple(values[i] for i in high) == oracle_high

    def test_permutation_invariance(self):
        g = RngStream(seed=10).generator(0)
        values = list(g.random(9) * 10.0)
        (low, _), _ = kmeans1d_split(values)
        base = sorted(values[i] for i in low)
        for _ in range(10):
            perm = list(g.permutation(len(values)))
            shuffled = [values[i] for i in perm]
            (low_p, _), _ = kmeans1d_split(shuffled)
            assert sorted(shuffled[i] for i in low_p) == base

    def test_exactly_optimal_on_random_instances(self):
        g = RngStream(seed=11).generator(0)
        for trial in range(25):
            n = int(g.integers(2, 13))
            values = list(np.round(g.random(n) * 5.0, 3))
            if len(set(values)) < 2:
                continue
            (low, high), _ = kmeans1d_split(values)
            got = sum((v - np.mean([values[i] for i in low])) ** 2 for v in (values[i] for i in low))
            got += sum(
                (v - np.mean([values[i] for i in high])) ** 2 for v in (values[i] for i in high)
            )
            best_sse, _, _ = oracles.threshold_split_sse(values)
            assert got <= best_sse + 1e-9, f"instance {trial}: {values}"

    def test_identical_values_rejected(self):
        with pytest.raises(ValueError):
            kmeans1d_split([2.0, 2.0, 2.0])

    def test_single_value_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 values to split$"):
            kmeans1d_split([2.0])

    @pytest.mark.parametrize(
        "values, message",
        [([1.0, math.nan, 3.0], "got nan"), ([1.0, 2.0, math.inf], "got inf"), ([-math.inf, 0.0], "got -inf")],
    )
    def test_non_finite_values_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            kmeans1d_split(values)


class TestBuildPools:
    def _fits(self, sds, n, seed):
        g = RngStream(seed=seed).generator(0)
        innovations = [sd * g.standard_normal(n) for sd in sds]
        return [Ar1Fit(phi=0.0, innovations=x, variance=x.var(ddof=1)) for x in innovations]

    def test_ratio_recovery(self):
        fits = self._fits([1.0, 1.0, 2.0, 2.0], 10_000, seed=12)
        low, high = build_pools(fits, ((0, 1), (2, 3)))
        assert high.sd / low.sd == pytest.approx(2.0, abs=0.1)

    def test_standardization(self):
        fits = self._fits([1.0, 1.5], 5_000, seed=13)
        low, high = build_pools(fits, ((0,), (1,)))
        assert low.values.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        assert high.values.std(ddof=1) == pytest.approx(high.sd / low.sd, rel=1e-12)
        assert (low.sd, high.sd) == (fits[0].innovations.std(ddof=1), fits[1].innovations.std(ddof=1))

    def test_label_by_variance_not_input_order(self):
        fits = self._fits([2.0, 1.0], 5_000, seed=14)
        a_low, a_high = build_pools(fits, ((0,), (1,)))
        b_low, b_high = build_pools(fits, ((1,), (0,)))
        assert (a_low.sd, a_high.sd) == (b_low.sd, b_high.sd)
        assert np.array_equal(a_low.values, b_low.values)
        assert np.array_equal(a_high.values, b_high.values)
        assert a_low.indices == b_low.indices == (1,)
        assert a_high.indices == b_high.indices == (0,)

    def test_degenerate_split_rejected(self):
        g = RngStream(seed=15).generator(0)
        shared = g.standard_normal(1000)
        fits = [Ar1Fit(phi=0.0, innovations=shared, variance=shared.var(ddof=1))] * 2
        with pytest.raises(ValueError, match="degenerate"):
            build_pools(fits, ((0,), (1,)))
        with pytest.raises(ValueError, match="^both clusters must be nonempty$"):
            build_pools(fits, ((), (0, 1)))


class TestBootstrapWinner:
    def _pools(self, seed=16, n=5000, s2=1.5):
        g = RngStream(seed=seed).generator(0)
        p1 = InnovationPool(g.standard_normal(n), 1.0)
        p2 = InnovationPool(s2 * g.standard_normal(n), s2)
        return p1, p2

    def test_dominant_pool_wins_never(self):
        p1 = InnovationPool(np.array([0.0, 1.0, 2.0]), 1.0)
        p2 = InnovationPool(np.array([5.0, 6.0]), 1.0)
        est = bootstrap_winner(p1, p2, 4, 3, 500, RngStream(17))
        assert est.p_hat == 0.0

    def test_far_past_the_pools_every_draw_is_a_top_value(self):
        # a maximum of n draws misses its pool's top value with probability (1 - 1/N)^n, 0 at n = 1e12
        p1, p2 = self._pools(n=5000)
        for a, b in [(p1, p2), (p2, p1)]:
            est = bootstrap_winner(a, b, 1e12, 1e12, 2_000, RngStream(21))
            assert (est.p_hat, est.std_err) == (float(a.values[-1] > b.values[-1]), 0.0)

    def test_identical_pools_symmetric(self):
        g = RngStream(seed=18).generator(0)
        vals = g.standard_normal(2000)
        p = InnovationPool(vals, 1.0)
        est = bootstrap_winner(p, p, 10, 10, 10_000, RngStream(19))
        assert abs(est.p_hat - 0.5) <= 4.0 * est.std_err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    def test_sizes_must_be_finite_reals_from_one(self, bad):
        p1, p2 = self._pools(n=50)
        for n1, n2 in [(bad, 5), (5, bad)]:
            with pytest.raises(ValueError, match=re.escape(f"n1 and n2 must be finite reals >= 1, got {n1} and {n2}")):
                bootstrap_winner(p1, p2, n1, n2, 1000, RngStream(0))

    def test_scale_consistency(self):
        p1, p2 = self._pools()
        a = bootstrap_winner(p1, p2, 20, 10, 5_000, RngStream(20))
        p1s = InnovationPool(3.0 * p1.values, p1.sd)
        p2s = InnovationPool(3.0 * p2.values, p2.sd)
        b = bootstrap_winner(p1s, p2s, 20, 10, 5_000, RngStream(20))
        assert a == b

    def test_deterministic(self):
        p1, p2 = self._pools()
        a = bootstrap_winner(p1, p2, 50, 25, 2_000, RngStream(21))
        b = bootstrap_winner(p1, p2, 50, 25, 2_000, RngStream(21), workers=4)
        assert a == b

    def test_oracle_matches_enumeration(self):
        pools = [([0.0, 1.0, 1.0], [1.0, 0.5]), ([2.0, 2.0], [1.0, 2.0, 3.0]), ([0.0, 3.0, 1.0], [1.0, 1.0, 0.0])]
        for v1, v2 in pools:  # tied entries in every pair
            for n1, n2 in [(1, 1), (2, 1), (1, 3), (3, 2)]:
                wins = sum(
                    max(d1) > max(d2)
                    for d1 in itertools.product(v1, repeat=n1)
                    for d2 in itertools.product(v2, repeat=n2)
                )
                exact = wins / (len(v1) ** n1 * len(v2) ** n2)
                assert oracles.ideal_bootstrap_winner(v1, v2, n1, n2) == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (5, 20), (300, 40), (80_000, 150), (10**8, 10)])
    def test_matches_ideal_bootstrap(self, n1, n2):
        # rounding to 0.1 ties values within and across the pools
        p1, p2 = (InnovationPool(np.round(p.values, 1), p.sd) for p in self._pools())
        b = 20_000
        est = bootstrap_winner(p1, p2, n1, n2, b, RngStream(26, stream_id=n2))
        ideal = oracles.ideal_bootstrap_winner(p1.values, p2.values, n1, n2)
        assert 0.01 < ideal < 0.99
        assert abs(est.p_hat - ideal) <= 4.0 * math.sqrt(ideal * (1.0 - ideal) / b)

    def test_pinned_successes_on_tied_pools(self):
        # the tie-heavy pools of test_matches_ideal_bootstrap: a tie is a group-1 loss
        p1, p2 = (InnovationPool(np.round(p.values, 1), p.sd) for p in self._pools())
        est = bootstrap_winner(p1, p2, 300, 40, 20_000, RngStream(26, stream_id=40))
        assert est.p_hat == 7_118 / 20_000

    def test_pool_values_held_sorted(self):
        g = RngStream(seed=27).generator(0)
        values = g.standard_normal(500)
        pool = InnovationPool(values, 1.0)
        assert np.array_equal(pool.values, np.sort(values))
        shuffled = InnovationPool(g.permutation(values), 1.0)
        rival = InnovationPool(1.5 * g.standard_normal(400), 1.5)
        a = bootstrap_winner(pool, rival, 30, 20, 2_000, RngStream(28))
        b = bootstrap_winner(shuffled, rival, 30, 20, 2_000, RngStream(28))
        assert a == b

    def test_domain(self):
        p1, p2 = self._pools(n=100)
        with pytest.raises(ValueError):
            bootstrap_winner(p1, p2, 0, 10, 100, RngStream(0))

    def test_pool_refuses_empty_or_non_finite_values(self):
        g = np.random.default_rng(0)
        a, b = g.normal(0.0, 1.0, 200), g.normal(0.0, 1.5, 200)
        assert bootstrap_winner(InnovationPool(a, 1.0), InnovationPool(b, 1.5), 20, 10, 20_000, RngStream(1)).p_hat == 0.293
        # a NaN sorts to the top ranks and would win every trial that drew it (p_hat 0.44405 with b[:5] NaN)
        for bad in (math.nan, math.inf):
            values = b.copy()
            values[:5] = bad
            with pytest.raises(ValueError, match="^pool values must be nonempty and finite$"):
                InnovationPool(values, 1.5)
        with pytest.raises(ValueError, match="^pool values must be nonempty and finite$"):
            InnovationPool(np.array([]), 1.0)


class TestEmpiricalStudy:
    def test_single_point_reduces_to_bootstrap(self):
        g = RngStream(seed=22).generator(0)
        p1 = InnovationPool(g.standard_normal(20_000), 1.0)
        p2 = InnovationPool(1.5 * g.standard_normal(20_000), 1.5)
        rows = empirical_study(p1, p2, [0.6], [30], 2_000, RngStream(23))
        from gausswinner.scaling import critical_n1

        n1 = critical_n1(30, 1.5, 0.6).floor_value
        direct = bootstrap_winner(p1, p2, n1, 30, 2_000, RngStream(23).substream(0))
        assert rows[0].p_hat == direct.p_hat
        assert rows[0].n1 == float(n1)
        # past 2**53 the row takes the real critical size, as simulate does
        size = critical_n1(1e8, 1.5, 0.6)
        assert size.floor_value is None
        (row,) = empirical_study(p1, p2, [0.6], [1e8], 2_000, RngStream(23))
        direct = bootstrap_winner(p1, p2, size.real_value, 1e8, 2_000, RngStream(23).substream(0))
        assert row.n1 == size.real_value
        assert row.p_hat == direct.p_hat

    def test_p_limit_ordering_in_c(self):
        g = RngStream(seed=24).generator(0)
        p1 = InnovationPool(g.standard_normal(50_000), 1.0)
        p2 = InnovationPool(1.5 * g.standard_normal(50_000), 1.5)
        rows = empirical_study(p1, p2, [0.1, 0.6, 3.0], [40], 4_000, RngStream(25))
        limits_by_c = [r.p_limit for r in rows]
        p_hats = [r.p_hat for r in rows]
        assert limits_by_c[0] < limits_by_c[1] < limits_by_c[2]
        assert p_hats[0] < p_hats[1] < p_hats[2]


class TestEndToEnd:
    def test_synthetic_recovery(self, tmp_path):
        path = tmp_path / "fixture.csv"
        truth = write_synthetic_stations(
            path, n_low=14, n_high=8, seed=42, missing_rate=0.03
        )
        stations = load_stations(path)
        assert len(stations) == truth.n_low + truth.n_high  # OUT/SPR stations dropped
        result = run_pipeline(stations)
        assert len(result.pool_low.indices) == truth.n_low
        assert len(result.pool_high.indices) == truth.n_high
        sigma = result.pool_high.sd / result.pool_low.sd
        assert abs(sigma - truth.sigma_ratio) / truth.sigma_ratio < 0.10
        phis = [f.phi for f in result.fits]
        assert abs(np.mean(phis) - truth.phi) < 0.05
        assert result.pool_low.values.std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_clusters_ordered_by_pooled_sd(self, tmp_path, monkeypatch):
        path = tmp_path / "fixture.csv"
        write_synthetic_stations(path, n_low=3, n_high=2, seed=1, missing_rate=0.05)
        stations = load_stations(path)
        base = run_pipeline(stations)

        def reversed_split(values):
            (low, high), (c_low, c_high) = kmeans1d_split(values)
            return (high, low), (c_high, c_low)

        monkeypatch.setattr(pipeline, "kmeans1d_split", reversed_split)
        swapped = run_pipeline(stations)
        assert swapped.pool_low.indices == base.pool_low.indices
        assert swapped.pool_high.indices == base.pool_high.indices
        assert swapped.centers == base.centers
        assert swapped.centers[0] < swapped.centers[1]
        assert np.array_equal(swapped.pool_low.values, base.pool_low.values)

    @pytest.mark.parametrize("counts", [{"n_low": -3}, {"n_high": 2.5}])
    def test_synthetic_counts_are_integers_from_zero(self, tmp_path, counts):
        path = tmp_path / "fixture.csv"
        with pytest.raises(ValueError, match="must be integers >= 0"):
            write_synthetic_stations(path, **counts)
        assert not path.exists()

    @pytest.mark.parametrize("missing_rate", [1.5, 1.0, -0.1, math.nan])
    def test_synthetic_missing_rate_below_one(self, tmp_path, missing_rate):
        path = tmp_path / "fixture.csv"
        with pytest.raises(ValueError, match=r"missing_rate must lie in \[0, 1\)"):
            write_synthetic_stations(path, missing_rate=missing_rate)
        assert not path.exists()

    def test_fixture_bytes_pinned(self, tmp_path):
        """Output bytes at every parameter set of ``FIXTURE_DIGESTS``."""
        path = tmp_path / "fixture.csv"
        for (n_low, n_high, seed, missing_rate), digest in FIXTURE_DIGESTS.items():
            write_synthetic_stations(path, n_low=n_low, n_high=n_high, seed=seed, missing_rate=missing_rate)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (n_low, n_high, seed, missing_rate)

    @settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        missing_rate=st.sampled_from([0.0, 0.01, 0.1, 0.3]),
        n_low=st.integers(1, 3),
        n_high=st.integers(1, 2),
    )
    def test_synthetic_csv_round_trips(self, tmp_path_factory, seed, missing_rate, n_low, n_high):
        path = tmp_path_factory.mktemp("roundtrip") / "fixture.csv"
        write_synthetic_stations(path, n_low=n_low, n_high=n_high, seed=seed, missing_rate=missing_rate)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        by_station = {}
        for r in rows:
            by_station.setdefault(r["station_id"], []).append(r)
        expected = {
            sid: rs
            for sid, rs in by_station.items()
            if 30.0 <= float(rs[0]["latitude"]) < 40.0
            and -95.0 <= float(rs[0]["longitude"]) < -75.0
            and sum(r["tavg_c"] != "" for r in rs if 1980 <= int(r["year"]) <= 2025) >= 240
        }
        stations = load_stations(path)
        assert len(stations) == len(expected) == n_low + n_high
        assert [s.station_id for s in stations] == list(expected)
        for s in stations:
            rs = [r for r in expected[s.station_id] if r["tavg_c"] != ""]
            assert s.year.tolist() == [int(r["year"]) for r in rs]
            assert s.month.tolist() == [int(r["month"]) for r in rs]
            assert s.value.tolist() == [float(r["tavg_c"]) for r in rs]

    def test_run_pipeline_handles_gaps(self, tmp_path):
        path = tmp_path / "fixture.csv"
        write_synthetic_stations(path, n_low=3, n_high=2, seed=1, missing_rate=0.05)
        stations = load_stations(path)
        gappy = [i for i, s in enumerate(stations) if (np.diff(s.year * 12 + s.month) > 1).any()]
        assert gappy, "fixture should contain gapped stations"
        fits = run_pipeline(stations).fits
        for i in gappy:
            assert fits[i].innovations.size < len(stations[i].value) - 1
            assert math.isfinite(fits[i].phi)
