import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rtflab.empirical import (
    CdfInterpolator,
    EmpiricalSample,
    compare_report,
    interval_report,
    inverse_cdf_sample,
    read_sample_csv,
    sample_from_rows,
    write_sample_csv,
    _ks_distance,
)
from rtflab.measures import plancherel, sato_tate


class TestIngest:
    def test_round_trip_is_lossless(self):
        rows = [(11, 2, 0.123456789012345, 1.0), (13, 2, -1.999999, 0.25)]
        sample, rejected = sample_from_rows(rows)
        assert rejected == 0
        text = write_sample_csv(sample)
        again, rejected2 = read_sample_csv(text)
        assert rejected2 == 0
        assert np.array_equal(again.x, sample.x)
        assert np.array_equal(again.weight, sample.weight)
        assert write_sample_csv(again) == text

    def test_rejects_bad_rows_with_count(self):
        rows = [
            (11, 2, 0.5, 1.0),
            (11, 2, 2.5, 1.0),  # x outside [-2, 2]
            (0, 2, 0.5, 1.0),  # bad level
            (11, 2, 0.5, -1.0),  # negative weight
            (11, 1, 0.5, 1.0),  # bad q
            (11, 3, -0.5, 2.0),
        ]
        sample, rejected = sample_from_rows(rows)
        assert rejected == 4
        assert len(sample) == 2

    def test_header_mandatory(self):
        with pytest.raises(ValueError):
            read_sample_csv("1,2,0.5,1.0\n")
        with pytest.raises(ValueError):
            read_sample_csv("a,b,c,d\n1,2,0.5,1.0\n")


def per_row_oracle(text, lo=-2.0, hi=2.0):
    """The per-row parser that read_sample_csv replaced: csv.reader, one
    int/float per field, one domain check per row.  Returns the kept columns
    and the rejected count, exactly as that route built them."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV")
    if tuple(h.strip() for h in header) != ("level_norm", "place_q", "x", "weight"):
        raise ValueError("bad header")
    kept, rejected = [], 0
    for row in reader:
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"malformed CSV row: {row!r}")
        level_norm, place_q, x, weight = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        if level_norm < 1 or place_q < 2 or not (lo <= x <= hi) or not (
            math.isfinite(weight) and weight >= 0.0
        ):
            rejected += 1
            continue
        kept.append((level_norm, place_q, x, weight))
    arr = np.array(kept, dtype=float).reshape(-1, 4)
    return (arr[:, 0].astype(int), arr[:, 1].astype(int), arr[:, 2], arr[:, 3]), rejected


HEADER = "level_norm,place_q,x,weight\n"

EQUIVALENT_TEXTS = {
    "plain": HEADER + "11,2,0.5,1.0\n13,3,-1.25,0.5\n",
    "quoted fields": '"level_norm","place_q","x","weight"\n"11","2","0.5","1.0"\n13,"3",-1.25,"0.5"\n',
    "quoted with spaces": HEADER + '" 11 ",2," 0.5 ",1.0\n',
    "blank lines": HEADER + "\n11,2,0.5,1.0\n\n\n13,3,-1.25,0.5\n\n",
    "crlf": HEADER.replace("\n", "\r\n") + "11,2,0.5,1.0\r\n13,3,-1.25,0.5\r\n",
    "surrounding spaces": " level_norm , place_q ,x,weight\n 11 , 2 , 0.5 , 1.0 \n\t13,3,\t-1.25\t,0.5\n",
    "signs and exponents": HEADER + "+11,+2,-2.0,1e-3\n12,2,2.0,0\n13,2,.5,5.\n",
    "no final newline": HEADER + "11,2,0.5,1.0",
    "nan and inf in x": HEADER + "1,2,nan,1.0\n1,2,inf,1.0\n1,2,-inf,1.0\n1,2,NaN,1.0\n1,2,0.0,1.0\n",
    "nan and inf in weight": HEADER + "1,2,0.5,nan\n1,2,0.5,inf\n1,2,0.5,-inf\n1,2,0.5,2.0\n",
    "domain rejections": HEADER + "0,2,0.5,1.0\n-4,2,0.5,1.0\n1,1,0.5,1.0\n1,2,2.5,1.0\n1,2,0.5,-1.0\n1,2,0.5,-0.0\n",
    "header only": HEADER,
    "header only without newline": HEADER.rstrip("\n"),
    "float in int column": HEADER + "1.0,2,0.5,1.0\n",
    "exponent in int column": HEADER + "11,1e3,0.5,1.0\n",
    "nan in int column": HEADER + "nan,2,0.5,1.0\n",
    "short row": HEADER + "11,2,0.5\n",
    "long row": HEADER + "11,2,0.5,1.0,7\n",
    "trailing comma": HEADER + "11,2,0.5,1.0,\n",
    "trailing comment": HEADER + "11,2,0.5,1.0 # c\n",
    "comment row": HEADER + "11,2,0.5,1.0\n# c\n",
    "empty field": HEADER + "11,,0.5,1.0\n",
    "whitespace-only line": HEADER + "11,2,0.5,1.0\n   \n",
    "quoted comma": HEADER + '"11,2",0.5,1.0\n',
    "word in float column": HEADER + "11,2,half,1.0\n",
    "empty text": "",
    "wrong header": "a,b,c,d\n11,2,0.5,1.0\n",
    "blank first line": "\n" + HEADER + "11,2,0.5,1.0\n",
}


class TestIngestEquivalence:
    """read_sample_csv against the per-row oracle: same kept columns and
    rejected count, or the same exception type."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENT_TEXTS))
    def test_matches_per_row_oracle(self, name):
        text = EQUIVALENT_TEXTS[name]
        try:
            expected = per_row_oracle(text)
        except ValueError:
            with pytest.raises(ValueError):
                read_sample_csv(text)
            return
        columns, rejected = expected
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file must not warn
            sample, got_rejected = read_sample_csv(text)
        assert got_rejected == rejected
        for got, want in zip((sample.level_norm, sample.place_q, sample.x, sample.weight), columns):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_lambda_window_bounds(self):
        text = HEADER + "1,2,0.0,1.0\n1,2,9.06,1.0\n1,2,9.07,1.0\n1,2,-1e-300,1.0\n"
        columns, rejected = per_row_oracle(text, 0.0, 2.0 * math.pi / math.log(2.0))
        sample, got_rejected = read_sample_csv(text, 0.0, 2.0 * math.pi / math.log(2.0))
        assert (got_rejected, rejected) == (2, 2)
        assert sample.x.tobytes() == columns[2].tobytes()

    def test_bench_sized_sample_matches(self):
        rng = np.random.default_rng(6)
        n = 20_000
        x = rng.uniform(-2.2, 2.2, n)
        weight = rng.uniform(-0.1, 1.5, n)
        level_norm = rng.integers(-2, 10_000, n)
        place_q = rng.integers(1, 4, n)
        lines = [HEADER.rstrip("\n")]
        columns = (level_norm.tolist(), place_q.tolist(), x.tolist(), weight.tolist())
        lines += [f"{a},{b},{c!r},{d!r}" for a, b, c, d in zip(*columns)]
        text = "\n".join(lines) + "\n"
        columns, rejected = per_row_oracle(text)
        sample, got_rejected = read_sample_csv(text)
        assert got_rejected == rejected > 0
        for got, want in zip((sample.level_norm, sample.place_q, sample.x, sample.weight), columns):
            assert got.tobytes() == want.tobytes()

    def test_level_norm_beyond_int64_raises(self):
        # Accepted divergence: the per-row route parsed this with int() and
        # kept it through a float round trip; int64 columns refuse it.
        text = HEADER + "99999999999999999999,2,0.5,1.0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's int64 cast overflows
            assert per_row_oracle(text)[1] == 0
        with pytest.raises(ValueError):
            read_sample_csv(text)

    @pytest.mark.parametrize("row", ["1_000,2,0.5,1.0", "11,2,0.2_5,1.0"])
    def test_digit_group_underscores_raise(self, row):
        # Accepted divergence: int() and float() take PEP 515 underscores;
        # the column parser refuses them like any other non-number.
        text = HEADER + row + "\n"
        assert per_row_oracle(text)[1] == 0
        with pytest.raises(ValueError):
            read_sample_csv(text)

    def test_cr_line_endings_read_as_newlines(self):
        # Accepted divergence: csv.reader raised csv.Error on a bare-CR text
        # given as a string (files read through the CLI never had one, as
        # reading them translates newlines); it now reads like LF.
        lf = HEADER + "11,2,0.5,1.0\n13,3,-1.25,0.5\n"
        sample_cr, rejected_cr = read_sample_csv(lf.replace("\n", "\r"))
        sample_lf, rejected_lf = read_sample_csv(lf)
        assert rejected_cr == rejected_lf == 0
        assert sample_cr.x.tobytes() == sample_lf.x.tobytes()
        assert sample_cr.level_norm.tobytes() == sample_lf.level_norm.tobytes()

    def test_sample_from_rows_shares_the_mask(self):
        rows = [
            (11, 2, 0.5, 1.0),
            (0, 2, 0.5, 1.0),
            (11, 1, 0.5, 1.0),
            (11, 2, float("nan"), 1.0),
            (11, 2, 0.5, float("inf")),
            (11, 2, -2.0, 0.0),
        ]
        text = HEADER + "".join(f"{a},{b},{c!r},{d!r}\n" for a, b, c, d in rows)
        from_rows, rejected_rows = sample_from_rows(rows)
        from_text, rejected_text = read_sample_csv(text)
        assert rejected_rows == rejected_text == 4
        assert from_rows.x.tobytes() == from_text.x.tobytes()
        assert from_rows.level_norm.tobytes() == from_text.level_norm.tobytes()


def read_file_as_cli(path, lo=-2.0, hi=2.0):
    """read_sample_csv on the open file, as `rtflab compare` calls it."""
    with open(path, encoding="utf-8", newline=None) as stream:
        return read_sample_csv(stream, lo, hi)


class TestStreamIngest:
    """A text stream parses exactly like the same text given as a string."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENT_TEXTS))
    def test_file_matches_string(self, tmp_path, name):
        text = EQUIVALENT_TEXTS[name]
        path = tmp_path / "sample.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = read_sample_csv(text)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                read_file_as_cli(path)
            return
        sample, rejected = read_file_as_cli(path)
        assert rejected == expected[1]
        for column in ("level_norm", "place_q", "x", "weight"):
            got, want = getattr(sample, column), getattr(expected[0], column)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_ingest_peak_is_about_the_kept_columns_twice(self, tmp_path):
        # The parsed table and the kept columns are the only sample-sized
        # allocations: the file text is never held whole, and each column is
        # gathered once.  Reading the text into a string first costs ~10x.
        rng = np.random.default_rng(15)
        n = 200_000
        path = tmp_path / "sample.csv"
        path.write_text(
            write_sample_csv(
                EmpiricalSample(
                    rng.integers(1, 10_000, n), np.full(n, 2),
                    rng.uniform(-2.0, 2.0, n), rng.uniform(0.5, 1.5, n),
                )
            ),
            encoding="utf-8",
        )
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sample, rejected = read_file_as_cli(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        kept = sum(c.nbytes for c in (sample.level_norm, sample.place_q, sample.x, sample.weight))
        assert (len(sample), rejected, kept) == (n, 0, 32 * n)
        assert peak <= 3 * kept


def csv_writer_oracle(columns) -> str:
    """The serialization through csv.writer, one row at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("level_norm", "place_q", "x", "weight"))
    for ln, pq, x, w in zip(*columns):
        writer.writerow([int(ln), int(pq), repr(float(x)), repr(float(w))])
    return out.getvalue()


class TestWriteSampleCsv:
    """write_sample_csv formats rows directly; csv.writer is the oracle."""

    INT64_MAX = 2**63 - 1
    INT64_MIN = -(2**63)
    ROWS = [
        (1, 2, 0.5, 1.0),
        (2, 3, -0.0, 5e-324),
        (3, 5, 5e-324, 1e308),
        (INT64_MAX, 7, -2.0, 0.0),
        (INT64_MIN, 2, 2.0, 1.0),
        (4, INT64_MAX, 0.1, 0.3),
        (5, 2, float("nan"), 1.0),
        (6, 2, 0.25, float("inf")),
        (7, 2, float("-inf"), 1.0),
        (8, 2, 1e308, float("nan")),
        (9, 2, -1e308, -0.0),
        (10, 2, 0.1, -1.0),
    ]

    @staticmethod
    def columns(rows):
        ln, pq, x, w = zip(*rows)
        return (
            np.array(ln, dtype=np.int64),
            np.array(pq, dtype=np.int64),
            np.array(x, dtype=np.float64),
            np.array(w, dtype=np.float64),
        )

    def test_special_values_match_csv_writer(self):
        columns = self.columns(self.ROWS)
        text = write_sample_csv(EmpiricalSample(*columns))
        assert text == csv_writer_oracle(columns)
        assert "\n2,3,-0.0,5e-324\n" in text
        assert f"\n{self.INT64_MIN},2,2.0,1.0\n" in text

    def test_random_sample_matches_csv_writer(self):
        # 20 000 rows span several formatting blocks, the last one partial.
        rng = np.random.default_rng(7)
        n = 20_000
        columns = (
            rng.integers(1, 10_000, n),
            np.full(n, 3),
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(0.5, 1.5, n),
        )
        assert write_sample_csv(EmpiricalSample(*columns)) == csv_writer_oracle(columns)

    def test_empty_sample_is_the_header(self):
        empty = EmpiricalSample(*(np.array([], dtype=t) for t in (np.int64, np.int64, float, float)))
        assert write_sample_csv(empty) == "level_norm,place_q,x,weight\n"

    def test_round_trip_keeps_every_bit(self):
        text = write_sample_csv(EmpiricalSample(*self.columns(self.ROWS)))
        again, rejected = read_sample_csv(text)
        kept, rejected_rows = sample_from_rows(self.ROWS)
        assert rejected == rejected_rows > 0
        for got, want in zip(
            (again.level_norm, again.place_q, again.x, again.weight),
            (kept.level_norm, kept.place_q, kept.x, kept.weight),
        ):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert np.signbit(again.x[1])  # -0.0 survives
        assert write_sample_csv(again) == csv_writer_oracle(
            (again.level_norm, again.place_q, again.x, again.weight)
        )


class TestCdf:
    def test_interpolator_total_mass(self):
        interp = CdfInterpolator(sato_tate())
        assert interp.total == pytest.approx(1.0, abs=1e-10)
        assert float(interp(-2.0)) == 0.0
        assert float(interp(2.0)) == pytest.approx(1.0, abs=1e-12)
        assert float(interp(0.0)) == pytest.approx(0.5, abs=1e-10)

    def test_inverse_round_trip(self):
        interp = CdfInterpolator(plancherel(2, 1))
        us = np.linspace(0.01, 0.99, 37)
        xs = interp.inverse(us)
        assert np.max(np.abs(np.asarray(interp(xs)) - us)) <= 1e-9


class TestKs:
    def test_point_mass_against_semicircle(self):
        sample, _ = sample_from_rows([(4, 2, 0.0, 1.0)])
        # CDF jumps from 0 to 1 at the semicircle median, so KS brackets 1/2
        assert compare_report(sample, sato_tate())["ks_distance"] == pytest.approx(0.5, abs=1e-9)

    def test_inverse_cdf_sampling_is_close(self):
        draws = inverse_cdf_sample(plancherel(2, 1), 100_000, seed=20240904)
        sample, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        assert compare_report(sample, plancherel(2, 1))["ks_distance"] < 0.01

    def test_wrong_distribution_detected(self):
        draws = inverse_cdf_sample(plancherel(2, -1), 50_000, seed=3)
        sample, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        assert compare_report(sample, plancherel(2, 1))["ks_distance"] > 0.05

    def test_weighted_cdf(self):
        # halving every weight changes nothing
        draws = inverse_cdf_sample(sato_tate(), 20_000, seed=5)
        s1, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        s2, _ = sample_from_rows([(1, 2, float(x), 0.5) for x in draws])
        assert compare_report(s1, sato_tate())["ks_distance"] == pytest.approx(
            compare_report(s2, sato_tate())["ks_distance"], abs=1e-14
        )

    def test_empty_sample_rejected(self):
        # `compare` exits 2 before reporting (test_cli header-only case)
        sample, _ = sample_from_rows([])
        assert compare_report(sample, sato_tate())["ks_distance"] is None


def concatenate_ks_oracle(sample, interp):
    """The KS formula _ks_distance replaced: the empirical CDF before each
    point as a concatenated array, both gaps through np.maximum."""
    order = np.argsort(sample.x, kind="stable")
    xs = sample.x[order]
    ws = sample.weight[order]
    cum = np.cumsum(ws) / float(np.sum(ws))
    theo = np.asarray(interp(xs))
    below = np.concatenate([[0.0], cum[:-1]])
    return float(np.max(np.maximum(np.abs(cum - theo), np.abs(below - theo))))


def ks_samples():
    rng = np.random.default_rng(8)
    out = {}
    for n in (2, 3, 17, 1000, 20_000):
        # quarter-step x values, so most points are tied with others
        x = rng.integers(-8, 9, n) / 4.0
        out[f"tied x, {n} rows"] = (x, rng.uniform(0.0, 2.0, n))
    out["single row"] = (np.array([1.5]), np.array([0.3]))
    out["single row at the left end"] = (np.array([-2.0]), np.array([1.0]))
    x = rng.uniform(-2.0, 2.0, 500)
    weight = rng.uniform(0.5, 1.5, 500)
    weight[::2] = 0.0
    weight[np.argsort(x)[:40]] = 0.0  # the leading points carry no weight
    out["zero-weight rows"] = (x, weight)
    out["clustered at the right end"] = (rng.uniform(1.9, 2.0, 300), rng.uniform(0.5, 1.5, 300))
    out["unsorted distinct"] = (rng.permutation(np.linspace(-2.0, 2.0, 999)), np.ones(999))
    return out


KS_SAMPLES = ks_samples()


class TestKsInPlace:
    """_ks_distance equals the concatenate/maximum formula bit for bit."""

    @pytest.mark.parametrize("name", sorted(KS_SAMPLES))
    @pytest.mark.parametrize(
        "interp",
        [
            CdfInterpolator(sato_tate()),
            CdfInterpolator(plancherel(3, -1)),
            lambda xs: np.clip((np.asarray(xs) + 2.0) / 4.0, 0.0, 1.0),  # float64, not np.interp
        ],
        ids=["semicircle", "plancherel", "linear"],
    )
    def test_matches_concatenate_formula(self, name, interp):
        x, weight = KS_SAMPLES[name]
        sample = EmpiricalSample(np.ones(len(x), np.int64), np.full(len(x), 2), x.copy(), weight.copy())
        got = _ks_distance(sample, interp)
        assert got == concatenate_ks_oracle(sample, interp)
        assert sample.x.tobytes() == x.tobytes()  # the sample is not written to
        assert sample.weight.tobytes() == weight.tobytes()

    def test_first_point_gap_counts(self):
        # One point high in the semicircle: the CDF gap just before it
        # (|0 - F(1.5)|) is the largest.
        interp = CdfInterpolator(sato_tate())
        sample, _ = sample_from_rows([(1, 2, 1.5, 1.0)])
        assert _ks_distance(sample, interp) == float(interp(1.5)) > 0.5


class TestIntervals:
    def test_empty_interval_has_zero_mass(self):
        sample, _ = sample_from_rows([(1, 2, 0.5, 1.0)])
        rep = interval_report(sample, sato_tate(), [(0.25, 0.25)])
        assert rep[0]["theoretical_mass"] == 0.0
        assert rep[0]["empirical_mass"] == 0.0

    def test_full_interval(self):
        sample, _ = sample_from_rows([(1, 2, 0.5, 1.0), (1, 2, -0.5, 3.0)])
        rep = interval_report(sample, sato_tate(), [(-2.0, 2.0)])
        assert rep[0]["empirical_mass"] == pytest.approx(1.0)
        assert rep[0]["theoretical_mass"] == pytest.approx(1.0, abs=1e-9)

    def test_compare_report_shape(self):
        draws = inverse_cdf_sample(plancherel(3, -1), 5_000, seed=11)
        sample, rejected = sample_from_rows([(1, 3, float(x), 1.0) for x in draws])
        rep = compare_report(sample, plancherel(3, -1), rejected, [(-1.0, 0.0), (0.0, 1.0)])
        assert rep["rows"] == 5_000
        assert rep["rejected_rows"] == 0
        assert rep["ks_distance"] < 0.05
        assert len(rep["intervals"]) == 2
        for entry in rep["intervals"]:
            assert abs(entry["discrepancy"]) < 0.05


    def test_compare_report_builds_one_cdf_table(self, monkeypatch):
        from rtflab import empirical

        built = []

        class CountingInterpolator(empirical.CdfInterpolator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        sample, _ = sample_from_rows([(1, 2, 0.5, 1.0), (1, 2, -0.5, 3.0)])
        monkeypatch.setattr(empirical, "CdfInterpolator", CountingInterpolator)
        rep = compare_report(sample, sato_tate())
        assert len(built) == 1
        assert rep["ks_distance"] == _ks_distance(sample, CdfInterpolator(sato_tate()))


class TestSpectralWindowComparison:
    def test_lambda_window_sample(self):
        from rtflab.fields import RATIONALS
        from rtflab.measures import local_spectral

        density = local_spectral(RATIONALS.place_for_prime(2), -1)
        draws = inverse_cdf_sample(density, 30_000, seed=77)
        sample, rejected = sample_from_rows(
            [(1, 2, float(y), 1.0) for y in draws], density.lo, density.hi
        )
        assert rejected == 0
        assert compare_report(sample, density)["ks_distance"] < 0.02

    def test_window_bounds_enforced(self):
        from rtflab.fields import RATIONALS
        from rtflab.measures import local_spectral

        density = local_spectral(RATIONALS.place_for_prime(2), 1)
        sample, rejected = sample_from_rows(
            [(1, 2, 5.0, 1.0), (1, 2, 100.0, 1.0)], density.lo, density.hi
        )
        assert rejected == 1
        assert len(sample) == 1
