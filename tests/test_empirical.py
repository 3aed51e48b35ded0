import numpy as np
import pytest

from rtflab.empirical import (
    CdfInterpolator,
    compare_report,
    interval_report,
    inverse_cdf_sample,
    ks_distance,
    read_sample_csv,
    sample_from_rows,
    write_sample_csv,
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
        assert ks_distance(sample, sato_tate()) == pytest.approx(0.5, abs=1e-9)

    def test_inverse_cdf_sampling_is_close(self):
        draws = inverse_cdf_sample(plancherel(2, 1), 100_000, seed=20240904)
        sample, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        assert ks_distance(sample, plancherel(2, 1)) < 0.01

    def test_wrong_distribution_detected(self):
        draws = inverse_cdf_sample(plancherel(2, -1), 50_000, seed=3)
        sample, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        assert ks_distance(sample, plancherel(2, 1)) > 0.05

    def test_weighted_cdf(self):
        # halving every weight changes nothing
        draws = inverse_cdf_sample(sato_tate(), 20_000, seed=5)
        s1, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        s2, _ = sample_from_rows([(1, 2, float(x), 0.5) for x in draws])
        assert ks_distance(s1, sato_tate()) == pytest.approx(
            ks_distance(s2, sato_tate()), abs=1e-14
        )

    def test_empty_sample_rejected(self):
        sample, _ = sample_from_rows([])
        with pytest.raises(ValueError):
            ks_distance(sample, sato_tate())


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
        assert rep["ks_distance"] == pytest.approx(ks_distance(sample, sato_tate()), abs=0.0)


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
        assert ks_distance(sample, density) < 0.02

    def test_window_bounds_enforced(self):
        from rtflab.fields import RATIONALS
        from rtflab.measures import local_spectral

        density = local_spectral(RATIONALS.place_for_prime(2), 1)
        sample, rejected = sample_from_rows(
            [(1, 2, 5.0, 1.0), (1, 2, 100.0, 1.0)], density.lo, density.hi
        )
        assert rejected == 1
        assert len(sample) == 1
