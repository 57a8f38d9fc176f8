"""Spectral planner: integration, ranking, CSV ingestion."""
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fso_qkd.errors import SpectrumFormatError, ValidationError
from fso_qkd.linkparams import DetectorParams
from fso_qkd.spectrum import (
    CWDM_GRID_NM,
    SpectralTable,
    dump_spectrum,
    integrate_background,
    load_spectrum,
    pairwise_sum,
    ranking_report,
)

DET = DetectorParams()


def flat_table(level_db: float) -> SpectralTable:
    return SpectralTable(np.array([1200.0, 1600.0]), np.array([level_db, level_db]))


class TestIntegration:
    def test_flat_26db_notch_ceiling(self):
        # 10^2.6 counts/s/nm over a 13-nm passband, all of it inside the
        # 50-nm bandpass (0.79), behind the add/drop filter (0.71)
        rate = integrate_background(flat_table(26.0), 1410.0)
        assert rate == pytest.approx(10**2.6 * 13.0 * 0.79 * 0.71, rel=1e-6)

    def test_zero_psd(self):
        rate = integrate_background(flat_table(-400.0), 1410.0)
        assert rate == pytest.approx(0.0, abs=1e-30)

    def test_default_spectrum_reproduces_channel_floors(self):
        table = load_spectrum()
        solar = integrate_background(table, 1430.0)
        assert solar == pytest.approx(290.0, abs=5.0)
        assert solar + DET.dark_rate == pytest.approx(590.0, abs=5.0)
        for nm in (1390.0, 1410.0):
            assert integrate_background(table, nm) < DET.dark_rate

    def test_linearity_in_linear_psd(self):
        table = load_spectrum()
        doubled = SpectralTable(table.wavelengths_nm,
                                table.psd_db + 10.0 * np.log10(2.0))
        r1 = integrate_background(table, 1410.0)
        r2 = integrate_background(doubled, 1410.0)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)

    def test_channel_outside_domain_rejected(self):
        narrow = SpectralTable(np.array([1400.0, 1412.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValidationError):
            integrate_background(narrow, 1430.0)

    def test_off_grid_channel_rejected(self):
        with pytest.raises(ValidationError, match="not on the CWDM grid"):
            integrate_background(flat_table(0.0), 1550.0)


def bits(values) -> list[bytes]:
    """Each float's IEEE bytes, so that -0.0 differs from 0.0 and nan equals nan."""
    return [struct.pack("<d", v) for v in values]


class TestNumpyArithmetic:
    """The module is pure Python; its arithmetic is numpy's to the bit."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 600), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e-300, 1e300, 1e308]))
    @example(n=300, seed=1, scale=float("inf"))
    def test_pairwise_sum_is_add_reduce(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):  # inf - inf is nan in both sums
            values = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) * scale).tolist()
            expected = float(np.add.reduce(np.array(values)))
        assert bits([pairwise_sum(values)]) == bits([expected])

    @pytest.mark.parametrize("n", [1, 8, 200])
    def test_zero_total_is_numpys_identity(self, n):
        """numpy adds the sum to 0.0, so all -0.0 sums to +0.0."""
        assert bits([pairwise_sum([-0.0] * n)]) == bits([float(np.add.reduce(np.full(n, -0.0)))])

    @settings(max_examples=300, deadline=None)
    @given(knots=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                    st.floats(allow_nan=False, allow_infinity=False)),
                          min_size=2, max_size=30, unique_by=lambda k: k[0]),
           fractions=st.lists(st.floats(0.0, 1.0), max_size=30))
    # a span of inf: 0 * inf from the left knot, so numpy's fallback from the right
    @example(knots=[(-1e308, 0.0), (1e308, 1.0)], fractions=[0.95])
    def test_psd_db_at_is_interp(self, knots, fractions):
        knots.sort()
        table = SpectralTable([k[0] for k in knots], [k[1] for k in knots])
        lo, hi = table.wavelengths_nm[0], table.wavelengths_nm[-1]
        # every knot, both end points and points between them
        queries = list(table.wavelengths_nm) + [min(hi, max(lo, (1.0 - f) * lo + f * hi))
                                                for f in fractions]
        with np.errstate(all="ignore"):
            expected = np.interp(queries, table.wavelengths_nm, table.psd_db).tolist()
        assert bits(table.psd_db_at(queries)) == bits(expected)

    def test_packaged_channel_rates_pinned(self):
        table = load_spectrum()
        rates = [integrate_background(table, nm) for nm in CWDM_GRID_NM]
        assert rates == [4.248586908765296, 4.76473544765002, 290.0026806443522]


class TestRanking:
    def test_default_spectrum_prefers_shorter_channels(self):
        report = ranking_report(load_spectrum(), DET)
        assert [row["channel_nm"] for row in report] == [1390.0, 1410.0, 1430.0]
        assert report[0]["background_cts_s"] < report[2]["background_cts_s"]

    def test_flat_spectrum_ties_break_by_wavelength(self, monkeypatch):
        # 10**-400 underflows, so every channel integrates to exactly 0.0: a true
        # tie, which a flat table at a finite level does not give bit for bit.
        # The grid is listed out of order, so grid order cannot pass for the rule.
        monkeypatch.setattr("fso_qkd.spectrum.CWDM_GRID_NM", (1430.0, 1390.0, 1410.0))
        report = ranking_report(flat_table(-4000.0), DET)
        assert [row["background_cts_s"] for row in report] == [0.0, 0.0, 0.0]
        assert [row["channel_nm"] for row in report] == [1390.0, 1410.0, 1430.0]

    def test_output_is_permutation(self):
        report = ranking_report(load_spectrum(), DET)
        assert sorted(row["channel_nm"] for row in report) == sorted(CWDM_GRID_NM)

    def test_report_flags(self):
        report = ranking_report(load_spectrum(), DET)
        by_nm = {row["channel_nm"]: row for row in report}
        assert by_nm[1390.0]["below_dark"] and by_nm[1410.0]["below_dark"]
        assert by_nm[1430.0]["total_floor_cts_s"] == pytest.approx(590.0, abs=5.0)


class TestCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,psd_db_hz_per_nm\n1300.0,10.0\n1500.0,20.0\n")
        table = load_spectrum(p)
        assert len(table.wavelengths_nm) == 2

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,psd_db_hz_per_nm\n\n1300.0,10.0\n  \n1500.0,20.0\n\n")
        table = load_spectrum(p)
        assert (table.wavelengths_nm, table.psd_db) == ((1300.0, 1500.0), (10.0, 20.0))

    def test_unsorted_rows_error_names_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,psd_db_hz_per_nm\n1300.0,10.0\n1200.0,20.0\n")
        with pytest.raises(SpectrumFormatError, match="line 3"):
            load_spectrum(p)

    def test_non_numeric_error_names_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,psd_db_hz_per_nm\n1300.0,ten\n")
        with pytest.raises(SpectrumFormatError, match="line 2"):
            load_spectrum(p)

    @pytest.mark.parametrize("row", ["1300,nan", "1300,inf", "1300,-inf", "nan,1.0", "inf,1.0"])
    def test_non_finite_error_names_line(self, tmp_path, row):
        p = tmp_path / "s.csv"
        p.write_text(f"wavelength_nm,psd_db_hz_per_nm\n1200.0,1.0\n{row}\n1500.0,2.0\n")
        with pytest.raises(SpectrumFormatError, match="line 3"):
            load_spectrum(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lambda,db\n1300.0,1.0\n")
        with pytest.raises(SpectrumFormatError, match="line 1"):
            load_spectrum(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,psd_db_hz_per_nm\n1300.0,1.0,9\n")
        with pytest.raises(SpectrumFormatError, match="line 2"):
            load_spectrum(p)

    def test_default_spectrum_round_trips(self, tmp_path):
        table = load_spectrum()
        out = tmp_path / "copy.csv"
        dump_spectrum(table, out)
        again = load_spectrum(out)
        assert np.array_equal(table.wavelengths_nm, again.wavelengths_nm)
        assert np.array_equal(table.psd_db, again.psd_db)
