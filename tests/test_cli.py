import math
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import bosegas.cli
import bosegas.coherence
from bosegas import ThermalState, TrapGeometry
from bosegas.coherence import coherence_vs_width
from bosegas.errors import BracketError

BIN = [sys.executable, "-m", "bosegas.cli"]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BIN + list(argv), capture_output=True, text=True, env=env
    )


def parse_csv(text):
    """(metadata dict, header list, rows as list of string lists)."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


def column(rows, header, name):
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


class TestOccupations:
    def test_sweep(self):
        out = run_cli(
            "occupations", "--dim", "1", "--natoms", "200",
            "--t-over-tc", "0.2:1.4:7",
        )
        assert out.returncode == 0
        meta, header, rows = parse_csv(out.stdout)
        assert meta["command"] == "occupations"
        assert len(rows) == 7
        n0 = column(rows, header, "n0_frac")
        assert np.all(np.diff(n0) < 0)  # condensate melts with temperature
        assert 0 < n0[-1] < n0[0] <= 1.0

    def test_explicit_temperatures(self):
        out = run_cli(
            "occupations", "--dim", "1", "--natoms", "100", "--temp", "5.0,20.0"
        )
        assert out.returncode == 0
        _, header, rows = parse_csv(out.stdout)
        assert len(rows) == 2

    def test_missing_sweep_is_usage_error(self):
        out = run_cli("occupations", "--dim", "1", "--natoms", "100")
        assert out.returncode == 2


class TestSticking:
    def test_grand_matches_library(self):
        from bosegas import closed_form_sticking

        out = run_cli(
            "sticking", "--dim", "1", "--ensemble", "grand",
            "--natoms", "1000,100000", "--n0-frac", "0.2",
        )
        assert out.returncode == 0
        _, header, rows = parse_csv(out.stdout)
        r = column(rows, header, "n1_over_n0")
        for n, value in zip((1000, 100000), r):
            assert value == pytest.approx(closed_form_sticking(1, n, 0.2), rel=1e-12)
        assert r[1] < r[0]  # ratio decays (like 1/ln N) with atom number

    def test_both_ensembles_agree_moderately(self):
        out = run_cli(
            "sticking", "--dim", "3", "--natoms", "800", "--n0-frac", "0.2"
        )
        assert out.returncode == 0
        _, header, rows = parse_csv(out.stdout)
        assert len(rows) == 2
        vals = {r[1]: float(r[2]) for r in rows}
        assert abs(vals["canonical"] / vals["grand"] - 1.0) < 0.1

    def test_canonical_cap_refused(self):
        out = run_cli("sticking", "--dim", "1", "--natoms", "5000")
        assert out.returncode == 2
        assert "1600" in out.stderr

    def test_cap_can_be_raised(self):
        out = run_cli(
            "sticking", "--dim", "1", "--natoms", "1700",
            "--canonical-cap", "1700", "--ensemble", "canonical",
        )
        assert out.returncode == 0


class TestTph:
    def test_small_sweep(self):
        out = run_cli("tph", "--dim", "1", "--natoms", "50,100")
        assert out.returncode == 0
        _, header, rows = parse_csv(out.stdout)
        assert len(rows) == 2
        assert all(r[header.index("status")] == "ok" for r in rows)
        frac = column(rows, header, "n0ph_frac")
        assert np.all((frac > 0) & (frac < 1))


class TestAspect:
    def test_isotropy_point_degenerate(self):
        out = run_cli(
            "aspect", "--natoms", "200", "--n0-frac", "0.4",
            "--ratio-range", "0.5:2.0:3",
        )
        assert out.returncode == 0
        _, header, rows = parse_csv(out.stdout)
        assert len(rows) == 3
        ratios = column(rows, header, "aspect_ratio")
        assert ratios[1] == pytest.approx(1.0, rel=1e-12)
        s1 = column(rows, header, "n1_over_n0")[1]
        s2 = column(rows, header, "n2_over_n0")[1]
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_tph_markers(self):
        out = run_cli(
            "aspect", "--natoms", "100", "--ratio-range", "0.1:10:3", "--tph-markers",
        )
        assert out.returncode == 0
        meta, header, rows = parse_csv(out.stdout)
        assert meta["tph_markers"] == "True"
        assert len(rows) == 3
        perp = column(rows, header, "tph_over_omega_perp")
        z = column(rows, header, "tph_over_omega_z")
        assert np.all(np.isfinite(perp) & (perp > 0))
        assert np.all(np.isfinite(z) & (z > 0))
        ratios = column(rows, header, "aspect_ratio")
        assert perp / z == pytest.approx(ratios, rel=1e-12)

    def test_bad_range(self):
        out = run_cli("aspect", "--natoms", "100", "--ratio-range", "2:1:5")
        assert out.returncode == 2


class TestG1:
    def test_profile_output(self):
        out = run_cli(
            "g1", "--dim", "1", "--natoms", "200", "--temp", "15.0",
            "--grid-points", "201",
        )
        assert out.returncode == 0
        meta, header, rows = parse_csv(out.stdout)
        assert len(rows) == 201
        x = column(rows, header, "x")
        g1 = column(rows, header, "g1")
        center = np.argmin(np.abs(x))
        assert x[center] == 0.0
        assert g1[center] == 1.0
        assert np.all(np.abs(g1) <= 1.0 + 1e-12)
        # FWHM footer
        assert float(meta["coherence_length"]) > 0
        assert float(meta["cloud_width"]) > 0

    def test_numerical_failure_exit_code(self):
        # grid far too small: density never falls below half maximum
        out = run_cli(
            "g1", "--dim", "1", "--natoms", "200", "--temp", "15.0",
            "--grid-extent", "0.05", "--grid-points", "11",
        )
        assert out.returncode == 3
        assert "error:" in out.stderr

    def test_coherent_across_the_grid(self):
        # g1 stays above half maximum on the whole grid: infinite coherence
        out = run_cli(
            "g1", "--dim", "1", "--natoms", "200", "--temp", "0.5", "--grid-points", "11",
        )
        assert out.returncode == 0, out.stderr
        meta, _, _ = parse_csv(out.stdout)
        assert meta["coherence_length"] == "inf"
        assert 0 < float(meta["cloud_width"]) < math.inf

    def test_cigar_without_mode_list(self):
        # about 7e8 modes lie below the energy cutoff here; the thermal path
        # needs only the weights of the soft axis
        out = run_cli("g1", "--aspect-ratio", "0.05", "--natoms", "1000", "--temp", "20")
        assert out.returncode == 0, out.stderr
        meta, header, rows = parse_csv(out.stdout)
        assert meta["axis"] == "z"
        assert np.all(np.abs(column(rows, header, "g1")) <= 1.0 + 1e-12)
        assert 0 < float(meta["coherence_length"]) < math.inf
        assert 0 < float(meta["cloud_width"]) < math.inf

    def test_samples_the_tph_probe_profile(self):
        # at the grid and tolerance of the T_ph probes, the footer is the
        # probe's (coherence_length, cloud_width)
        out = run_cli("g1", "--aspect-ratio", "0.05", "--natoms", "1000", "--temp", "20",
                      "--grid-points", "1201", "--cutoff-tol", "1e-8")
        assert out.returncode == 0, out.stderr
        meta, _, _ = parse_csv(out.stdout)
        probe = coherence_vs_width(TrapGeometry.from_aspect_ratio(0.05), ThermalState(1000, 20.0))
        assert [meta["coherence_length"], meta["cloud_width"]] == [format(v, ".17e") for v in probe]

    def test_coldest_temperature(self):
        # n*beta overflows to inf: a pure condensate, with no overflow warning
        out = run_cli("g1", "--dim", "3", "--natoms", "10", "--temp", "3e-308",
                      "--grid-points", "11")
        assert (out.returncode, out.stderr) == (0, "")
        meta, _, _ = parse_csv(out.stdout)
        assert meta["coherence_length"] == "inf"

    def test_requires_state_point(self):
        out = run_cli("g1", "--dim", "1", "--natoms", "100")
        assert out.returncode == 2

    def test_pancake_trap(self):
        # the stiff axis (omega_z = 1e4) must not inflate the mode cutoff
        out = run_cli(
            "g1", "--aspect-ratio", "1e4", "--natoms", "200", "--n0-frac", "0.4",
        )
        assert out.returncode == 0, out.stderr
        meta, header, rows = parse_csv(out.stdout)
        assert meta["axis"] == "x"
        assert len(rows) == 2001
        assert np.all(np.abs(column(rows, header, "g1")) <= 1.0 + 1e-12)
        assert 0 < float(meta["coherence_length"]) < math.inf
        assert 0 < float(meta["cloud_width"]) < math.inf


class TestGeometryFlags:
    def test_exactly_one_geometry_flag(self):
        out = run_cli(
            "occupations", "--dim", "1", "--omega", "1.0",
            "--natoms", "100", "--temp", "5.0",
        )
        assert out.returncode == 2

    def test_omega_list(self):
        out = run_cli(
            "occupations", "--omega", "1.0,0.5", "--natoms", "100",
            "--temp", "5.0",
        )
        assert out.returncode == 0
        meta, _, _ = parse_csv(out.stdout)
        assert meta["dimension"] == "2"

    def test_bad_omega(self):
        out = run_cli(
            "occupations", "--omega", "1.0,zebra", "--natoms", "100",
            "--temp", "5.0",
        )
        assert out.returncode == 2


USAGE_ERRORS = {
    "one_atom_occupations": (
        ["occupations", "--dim", "1", "--natoms", "1", "--temp", "5.0"], None),
    "one_atom_tph": (["tph", "--dim", "1", "--natoms", "1"], None),
    "negative_aspect_ratio": (
        ["occupations", "--aspect-ratio", "-1", "--natoms", "100", "--temp", "5.0"], None),
    "nan_temperature": (
        ["occupations", "--dim", "1", "--natoms", "100", "--temp", "nan"], None),
    "even_grid_points": (
        ["g1", "--dim", "1", "--natoms", "100", "--temp", "5.0", "--grid-points", "4"], None),
    "fraction_above_one": (
        ["g1", "--dim", "1", "--natoms", "100", "--n0-frac", "1.5"], None),
    "bad_thread_count": (
        ["sticking", "--dim", "1", "--natoms", "100", "--ensemble", "canonical"],
        {"BOSE_THREADS": "abc"}),
    "zero_thread_count": (
        ["sticking", "--dim", "1", "--natoms", "100", "--ensemble", "canonical"],
        {"BOSE_THREADS": "0"}),
    "negative_thread_count": (
        ["sticking", "--dim", "1", "--natoms", "100", "--ensemble", "canonical"],
        {"BOSE_THREADS": "-2"}),
    # flags a subcommand does not read are refused, not ignored
    "format_flag": (
        ["occupations", "--dim", "1", "--natoms", "100", "--temp", "5.0",
         "--format", "csv"], None),
    "n0_frac_on_occupations": (
        ["occupations", "--dim", "1", "--natoms", "100", "--temp", "5.0",
         "--n0-frac", "0.3"], None),
    "dim_on_aspect": (
        ["aspect", "--dim", "3", "--natoms", "100", "--ratio-range", "0.5:2:3"], None),
    "cutoff_tol_above_one": (
        ["g1", "--dim", "1", "--natoms", "10", "--temp", "5.0", "--cutoff-tol", "1e300"],
        None),
    # 1/T overflows to inf below the smallest normal float
    "subnormal_temperature": (
        ["occupations", "--dim", "1", "--natoms", "100", "--temp", "1e-320"], None),
    "subnormal_t_over_tc": (
        ["occupations", "--dim", "1", "--natoms", "100", "--t-over-tc", "1e-320:1:3"], None),
    "subnormal_g1_temperature": (
        ["g1", "--dim", "1", "--natoms", "10", "--temp", "1e-320"], None),
    # below the smallest normal frequency, T brackets and tolerances scaled by
    # it underflow
    "subnormal_ratio_range": (
        ["aspect", "--natoms", "10", "--ratio-range", "5e-324:1e-323:2"], None),
    "subnormal_ratio_range_xtol": (
        ["aspect", "--natoms", "10", "--ratio-range", "1e-315:1e-314:2"], None),
    "subnormal_omega_sticking": (
        ["sticking", "--omega", "1,1,5e-324", "--natoms", "10", "--ensemble", "canonical"],
        None),
    "subnormal_omega_g1": (
        ["g1", "--omega", "1,5e-324", "--natoms", "10", "--n0-frac", "0.5"], None),
    # single-point commands refuse a list instead of dropping all but the first
    "natoms_list_occupations": (
        ["occupations", "--dim", "1", "--natoms", "100,5000", "--temp", "5.0"], None),
    "natoms_list_aspect": (
        ["aspect", "--natoms", "100,200", "--ratio-range", "0.5:2:3"], None),
    # T_ph needs N >= 2, even though aspect alone accepts one atom
    "one_atom_aspect_tph_markers": (
        ["aspect", "--natoms", "1", "--ratio-range", "0.1:10:3", "--tph-markers"], None),
    "natoms_list_g1": (
        ["g1", "--dim", "1", "--natoms", "100,200", "--temp", "5.0"], None),
    # a non-integral atom number is refused, not rounded
    "fractional_natoms": (
        ["occupations", "--dim", "1", "--natoms", "100.5", "--temp", "5"], None),
    "fractional_natoms_list": (
        ["sticking", "--dim", "1", "--ensemble", "grand", "--natoms", "100,2.4"], None),
    # no directory can exist under the null device
    "out_in_missing_directory": (
        ["occupations", "--dim", "1", "--natoms", "100", "--temp", "5.0",
         "--out", os.path.join(os.devnull, "missing", "out.csv")], None),
    # "exactly one of" pairs refuse both instead of ignoring one
    "temp_and_n0_frac_on_g1": (
        ["g1", "--dim", "1", "--natoms", "100", "--temp", "5", "--n0-frac", "0.3"], None),
    "temp_and_t_over_tc_on_occupations": (
        ["occupations", "--dim", "1", "--natoms", "100", "--temp", "5",
         "--t-over-tc", "0.2:1:3"], None),
    "zero_canonical_cap": (
        ["sticking", "--dim", "1", "--natoms", "100", "--canonical-cap", "0"], None),
    # refused by the flag itself, also when no canonical point runs
    "zero_canonical_cap_grand": (
        ["sticking", "--dim", "1", "--natoms", "5", "--ensemble", "grand",
         "--canonical-cap", "0"], None),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_2(case):
    argv, env = USAGE_ERRORS[case]
    out = run_cli(*argv, env_extra=env)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "error:" in out.stderr
    assert f"usage: bosegas {argv[0]} " in out.stderr


NUMERICAL_ERRORS = {
    # mode counts beyond int64 must still trip the mode-count limit
    "huge_temperature": ["g1", "--dim", "1", "--natoms", "10", "--temp", "1e300"],
    # the cloud radius overflows, and the cutoff refuses before the grid is built
    "overflowing_extent": ["g1", "--dim", "1", "--natoms", "10", "--temp", "1e308"],
    "overflowing_extent_soft_axis": [
        "g1", "--omega", "1e-300", "--natoms", "20", "--temp", "1e20", "--grid-points", "101"],
    # C*N >= 2^53 rounds the fugacity to 1
    "grand_beyond_2_53": [
        "sticking", "--dim", "1", "--ensemble", "grand", "--natoms", "5e16"],
    # 10 T_c, the upper end of the T bracket, overflows to inf
    "overflowing_bracket_sticking": [
        "sticking", "--omega", "1e308,1e308,1e308", "--natoms", "10", "--ensemble", "canonical"],
    "overflowing_bracket_g1": ["g1", "--omega", "1e307", "--natoms", "5", "--n0-frac", "0.99"],
    # the closed-form grand-canonical T leaves the float range: the frequencies'
    # product times N overflows or underflows, or ln(CN + 1) rounds to 0
    "grand_closed_form_overflow": [
        "sticking", "--omega", "1e102,1e102,1e102", "--natoms", "1000", "--ensemble", "grand"],
    "grand_closed_form_underflow": [
        "sticking", "--omega", "1e-110,1e-110,1e-110", "--natoms", "1000", "--ensemble", "grand"],
    "grand_frequency_product_overflow": ["sticking", "--omega", "10,1e308", "--natoms", "1",
                                         "--n0-frac", "0.1", "--ensemble", "grand"],
    "grand_tiny_condensate": [
        "sticking", "--dim", "1", "--natoms", "1", "--n0-frac", "1e-20", "--ensemble", "grand"],
    # beta*omega_min rounds to 0, so ln Z_1 would be inf
    "beta_omega_underflow": [
        "occupations", "--aspect-ratio", "1e-102", "--natoms", "2", "--temp", "1e222"],
    # the root T is subnormal, where beta = 1/T overflows
    "subnormal_root_g1": [
        "g1", "--omega", "2.3e-308", "--natoms", "2", "--n0-frac", "0.999", "--grid-points", "101"],
    # xi = x sqrt(omega) on the grid, and the density, overflow
    "grid_past_xi_1e154": ["g1", "--omega", "2e204", "--natoms", "1", "--n0-frac", "0.1",
                           "--grid-extent", "1e206", "--grid-points", "3"],
    "density_overflow": ["g1", "--omega", "1e206,1e206,1e206", "--natoms", "2", "--n0-frac", "0.9",
                         "--grid-points", "3"],
    # N_0 underflows to 0, so N_1/N_0 is undefined
    "n0_underflow_cold": [
        "occupations", "--omega", "2.3e-308,2.3e-308,1e307", "--natoms", "5", "--temp", "1e-20"],
    "n0_underflow_hot": [
        "occupations", "--omega", "1e100,1e200,1e200", "--natoms", "2", "--temp", "1.7e308"],
}


@pytest.mark.parametrize("case", sorted(NUMERICAL_ERRORS))
def test_numerical_error_exits_3(case):
    out = run_cli(*NUMERICAL_ERRORS[case])
    assert out.returncode == 3
    # one error line and nothing else: no traceback, no RuntimeWarning
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


@pytest.mark.parametrize("case, temperature", [
    ("n0_underflow_cold", "T = 1e-20"), ("n0_underflow_hot", "T = 1.7e+308")])
def test_underflowed_n0_names_the_temperature(monkeypatch, capsys, case, temperature):
    monkeypatch.setenv("BOSE_THREADS", "1")
    assert bosegas.cli.main(NUMERICAL_ERRORS[case]) == 3
    assert temperature in capsys.readouterr().err


@pytest.mark.parametrize("omega, n_atoms", [
    ("1e308,1e308,1e308", "10"),  # T_c overflows to inf
    ("3.162277660168379e-308", "2"),  # the walk probes subnormal T, where beta overflows
], ids=["overflowing_bracket", "subnormal_probe"])
def test_unrepresentable_tph_probe_is_a_status_row(monkeypatch, capsys, omega, n_atoms):
    monkeypatch.setenv("BOSE_THREADS", "1")
    assert bosegas.cli.main(["tph", "--omega", omega, "--natoms", n_atoms]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert parse_csv(captured.out)[2] == [[n_atoms, "nan", "nan", "NumericalError"]]


def test_t_over_tc_past_the_float_range_reads_inf(monkeypatch, capsys):
    monkeypatch.setenv("BOSE_THREADS", "1")
    assert bosegas.cli.main(["occupations", "--omega", "1e-300", "--natoms", "2",
                             "--temp", "1e10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _, header, rows = parse_csv(captured.out)
    assert column(rows, header, "t_over_tc").tolist() == [math.inf]


# T(N_0/N) roots bracketed across 50 to 300 decades of T: Brent bisects within
# MAX_ITER, also where its extrapolation's denominator underflows to 0
WIDE_BRACKET_ROOTS = {
    "huge_aspect_ratio": ["aspect", "--natoms", "100", "--ratio-range", "1:1e300:3"],
    "aspect_1e300": ["aspect", "--natoms", "10", "--ratio-range", "1e300:1e305:2"],
    "aspect_1e-300": ["aspect", "--natoms", "10", "--ratio-range", "1e-300:1e-299:2"],
    "tiny_omega_sticking": [
        "sticking", "--omega", "1,1,1e-307", "--natoms", "10", "--ensemble", "canonical"],
    "tiny_omega_g1": ["g1", "--omega", "1,1e-307", "--natoms", "10", "--n0-frac", "0.5"],
    "soft_axis_1e-50": ["sticking", "--omega", "1,1,1e-50", "--natoms", "10",
                        "--ensemble", "canonical", "--n0-frac", "0.5"],
    "soft_axis_1e-300": ["sticking", "--omega", "1,1,1e-300", "--natoms", "10",
                         "--ensemble", "canonical", "--n0-frac", "0.5"],
    "stiff_axis_1e300": [
        "sticking", "--omega", "1e300,1,1", "--natoms", "10", "--ensemble", "canonical"],
    "huge_omega_1d": ["sticking", "--omega", "1e200", "--natoms", "3", "--n0-frac", "0.5"],
    "huge_omega_3d": [
        "sticking", "--omega", "1e200,1e200,1e200", "--natoms", "10", "--ensemble", "canonical"],
}


@pytest.mark.parametrize("case", sorted(WIDE_BRACKET_ROOTS))
def test_wide_bracket_root_is_found(monkeypatch, capsys, case):
    monkeypatch.setenv("BOSE_THREADS", "1")
    assert bosegas.cli.main(WIDE_BRACKET_ROOTS[case]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _, header, rows = parse_csv(captured.out)
    if "n0_frac" in header:
        assert column(rows, header, "n0_frac") == pytest.approx(0.4, abs=1e-9)
    if "n1_over_n0" in header:
        ratios = column(rows, header, "n1_over_n0")
        assert np.all((ratios > 0) & (ratios <= 1))


@pytest.mark.parametrize("argv", [
    ["occupations", "--dim", "1", "--natoms", "10", "--temp", "3e-308"],
    ["occupations", "--dim", "3", "--natoms", "1000", "--temp", "1e-306"],
], ids=["1d", "3d"])
def test_pure_condensate_where_n_beta_overflows(argv):
    out = run_cli(*argv)
    assert (out.returncode, out.stderr) == (0, "")
    _, header, rows = parse_csv(out.stdout)
    assert column(rows, header, "n0_frac").tolist() == [1.0]
    assert column(rows, header, "n1_frac").tolist() == [0.0]


# a soft axis leaves N_0/N below the target already at T = 1e-3, the low end
# of the first T bracket
SOFT_AXIS_INVERSIONS = {
    "aspect": ["aspect", "--natoms", "20", "--n0-frac", "0.9", "--ratio-range", "1e-4:1e4:9"],
    "g1": ["g1", "--aspect-ratio", "1e-4", "--natoms", "100", "--n0-frac", "0.8"],
    "sticking": [
        "sticking", "--omega", "1,1,3e-5", "--natoms", "100", "--n0-frac", "0.5",
        "--ensemble", "canonical"],
}


@pytest.mark.parametrize("case", sorted(SOFT_AXIS_INVERSIONS))
def test_soft_axis_inversion_succeeds(case):
    out = run_cli(*SOFT_AXIS_INVERSIONS[case])
    assert out.returncode == 0, out.stderr
    _, header, rows = parse_csv(out.stdout)
    if "n0_frac" in header:
        assert column(rows, header, "n0_frac") == pytest.approx(0.9, abs=1e-9)


@pytest.mark.parametrize("argv, code", [
    # the canonical cap is checked after parsing
    (["sticking", "--dim", "1", "--natoms", "5000"], 2),
    (NUMERICAL_ERRORS["huge_temperature"], 3),
], ids=["canonical_cap", "huge_temperature"])
def test_failed_run_leaves_out_file_untouched(tmp_path, argv, code):
    target = tmp_path / "result.csv"
    target.write_bytes(b"sentinel\n")
    out = run_cli(*argv, "--out", str(target))
    assert out.returncode == code
    assert target.read_bytes() == b"sentinel\n"


def test_unwritable_out_refused_before_computing(tmp_path):
    # the computation itself would fail (exit 3); the --out check comes first
    missing = tmp_path / "missing"
    out = run_cli(*NUMERICAL_ERRORS["huge_temperature"], "--out", str(missing / "a.csv"))
    assert out.returncode == 2
    assert "--out" in out.stderr
    assert not missing.exists()


def test_failed_run_creates_no_out_file(tmp_path):
    target = tmp_path / "result.csv"
    out = run_cli(*NUMERICAL_ERRORS["huge_temperature"], "--out", str(target))
    assert out.returncode == 3
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_error_after_the_check():
    # /dev/full passes the writability check, and then every write to it fails
    out = run_cli("sticking", "--dim", "1", "--ensemble", "grand", "--natoms", "1e6",
                  "--out", "/dev/full")
    assert out.returncode == 2
    assert "cannot write --out" in out.stderr


@pytest.mark.parametrize("argv, points", [
    (["aspect", "--natoms", "200", "--ratio-range", "0.05:0.1:2"], 2),
    (["sticking", "--dim", "3", "--natoms", "200", "--ensemble", "canonical"], 1),
], ids=["aspect", "sticking"])
def test_canonical_point_builds_each_temperature_once(monkeypatch, capsys, table_batches,
                                                      argv, points):
    # the occupations are read from the table of the T(N_0/N) root, not a rebuild
    monkeypatch.setenv("BOSE_THREADS", "1")
    assert bosegas.cli.main(argv) == 0
    # at most one lane per point in each batch, and no (trap, T) is built twice
    assert table_batches
    for batch in table_batches:
        assert len({(system, state.n_atoms) for (system, state), _ in batch}) == len(batch)
        assert len(batch) <= points
    built = [(system, state.temperature) for batch in table_batches for (system, state), _ in batch]
    assert len(built) == len(set(built))


# the chunk boundaries of the batched sweeps move with the worker count
CHUNKED_SWEEPS = {
    "aspect": ["aspect", "--natoms", "200", "--ratio-range", "1e-2:1e2:7"],
    "aspect_tph_markers": ["aspect", "--natoms", "100", "--ratio-range", "0.1:10:3",
                           "--tph-markers"],
    "sticking": ["sticking", "--dim", "3", "--natoms", "20,50,100,150,200",
                 "--ensemble", "canonical"],
    "occupations": ["occupations", "--dim", "2", "--natoms", "300", "--t-over-tc", "0.3:1.2:7"],
    "tph": ["tph", "--dim", "3", "--natoms", "20,30,40"],
}


@pytest.mark.parametrize("case", sorted(CHUNKED_SWEEPS))
def test_batched_sweep_bytes_do_not_depend_on_worker_count(case):
    outputs = []
    for threads in ("1", "2", "3"):
        out = run_cli(*CHUNKED_SWEEPS[case], env_extra={"BOSE_THREADS": threads})
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_default_worker_count_is_the_cpus_the_process_may_use(monkeypatch):
    # a cpuset-limited run gets one worker per allowed CPU, not per host CPU
    monkeypatch.delenv("BOSE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert bosegas.cli._worker_count(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert bosegas.cli._worker_count(None) == 64


def test_batched_sweep_raises_the_first_failed_point_under_any_worker_count():
    # N = 5 and 7 have no T bracket; dealt as (200, 7), (5) to two workers,
    # pool.map would raise N = 7's error first
    argv = ["sticking", "--dim", "1", "--natoms", "200,5,7", "--n0-frac", "0.01",
            "--ensemble", "canonical"]
    errors = []
    for threads in ("1", "2", "3"):
        out = run_cli(*argv, env_extra={"BOSE_THREADS": threads})
        assert out.returncode == 3
        errors.append(out.stderr)
    assert errors[0] == errors[1] == errors[2]
    assert "[0.001, 21.7147]" in errors[0] and "26.5246" not in errors[0]


class TestTphPointErrors:
    """A failed T_ph search, in-process on one worker: tph writes its type as the
    row's status, aspect --tph-markers raises the first failed ratio's error."""

    @staticmethod
    def fail_where(monkeypatch, fails):
        monkeypatch.setenv("BOSE_THREADS", "1")
        coherence_vs_width = bosegas.coherence.coherence_vs_width

        def failing(geometry, state):
            if fails(geometry, state.n_atoms):
                raise BracketError(
                    f"no T_ph at N = {state.n_atoms}, omega_z = {geometry.omega[2]:g}")
            return coherence_vs_width(geometry, state)

        monkeypatch.setattr(bosegas.coherence, "coherence_vs_width", failing)

    def test_tph_status(self, monkeypatch, capsys):
        self.fail_where(monkeypatch, lambda geometry, n_atoms: n_atoms == 30)
        assert bosegas.cli.main(["tph", "--dim", "3", "--natoms", "20,30,40"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["n_atoms", "tph_over_tc", "n0ph_frac", "status"]
        assert rows[1] == ["30", "nan", "nan", "BracketError"]
        assert [rows[0][3], rows[2][3]] == ["ok", "ok"]
        assert all(math.isfinite(float(v)) for v in rows[0][1:3] + rows[2][1:3])

    def test_tph_markers_error(self, monkeypatch, capsys):
        self.fail_where(monkeypatch, lambda geometry, n_atoms: geometry.omega[2] > 0.5)
        argv = ["aspect", "--natoms", "100", "--ratio-range", "0.1:10:3", "--tph-markers"]
        assert bosegas.cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no T_ph at N = 100, omega_z = 1\n"


def test_g1_at_a_fraction_builds_each_temperature_once(table_batches, capsys):
    # the g1 profile reads the table of the T(N_0/N) root instead of rebuilding it
    assert bosegas.cli.main(["g1", "--dim", "1", "--natoms", "300", "--n0-frac", "0.6",
                             "--grid-points", "201"]) == 0
    assert "coherence_length" in capsys.readouterr().out
    built = [
        (table.system, table.n_atoms, table.temperature)
        for batch in table_batches for _, table in batch
    ]
    assert built and len(built) == len(set(built))


class TestVersion:
    SOURCE = os.path.dirname(os.path.abspath(bosegas.cli.__file__))

    @staticmethod
    def version_in(cwd):
        code = "from bosegas.cli import _version_string; print(_version_string())"
        out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_foreign_work_tree_is_not_described(self, tmp_path):
        # a copy inside another repository must not stamp that repository's commit
        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "notes.txt").write_text("not bosegas\n")
        git("add", "notes.txt")
        git("commit", "-q", "-m", "unrelated")
        shutil.copytree(self.SOURCE, tmp_path / "bosegas",
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert self.version_in(tmp_path) == bosegas.__version__

    def test_missing_git_gives_the_package_version(self):
        bosegas.cli._version_string.cache_clear()
        try:
            with mock.patch("bosegas.cli.subprocess.run", side_effect=FileNotFoundError("git")):
                assert bosegas.cli._version_string() == bosegas.__version__
        finally:
            bosegas.cli._version_string.cache_clear()

    def test_checkout_is_described(self):
        tracked = subprocess.run(["git", "ls-files", "--error-unmatch", "cli.py"],
                                 cwd=self.SOURCE, capture_output=True)
        if tracked.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        described = subprocess.run(["git", "describe", "--always", "--dirty"],
                                   cwd=self.SOURCE, capture_output=True, text=True)
        assert self.version_in(os.path.dirname(self.SOURCE)) == described.stdout.strip()
