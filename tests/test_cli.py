"""Command line surface: formats, exit codes, config handling, determinism."""

import csv
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from revgeo import cli, dynamics
from revgeo.errors import IntegrationError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def readme_commands():
    """The command lines of the fenced block in the README's CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_commands_succeed(capsys, tmp_path):
    commands = readme_commands()
    assert len(commands) >= 10
    outs = []
    for words in commands:
        assert words[0] == "revgeo", words
        argv = words[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
            outs.append(Path(argv[i]))
        code, _, err = run(capsys, *argv)
        assert code == 0, (words, err)
    assert outs and all(out.stat().st_size > 0 for out in outs)


# -- potential ---------------------------------------------------------------

def test_potential_csv_values(capsys):
    code, out, _ = run(capsys, "potential", "--ell", "1", "--samples", "5")
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["chi", "U"]
    data = {float(r[0]): float(r[1]) for r in table[1:]}
    # chi grid [-pi, -pi/2, 0, pi/2, pi] on the default ring spec(2,1)
    assert data[0.0] == pytest.approx(1.0 / 18.0, rel=1e-10)
    assert min(data) == pytest.approx(-np.pi, abs=1e-9)
    assert data[max(data)] == pytest.approx(0.5, rel=1e-10)   # U at chi = pi
    assert out.endswith("\n") and "\r" not in out


def test_potential_requires_ell(capsys):
    code, _, err = run(capsys, "potential")
    assert code == 2
    assert "--ell" in err


def test_potential_json_meta(capsys):
    code, out, _ = run(capsys, "potential", "--ell", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "revgeo/1"
    assert doc["command"] == "potential"
    assert doc["meta"]["family"] == "ring"
    assert doc["meta"]["beta_crit"] == pytest.approx(0.3398369095, abs=1e-9)
    assert doc["meta"]["U_outer"] == pytest.approx(4.0 / 18.0, rel=1e-9)


def test_potential_svg_bands_and_levels(capsys):
    # ring: one band + five energy levels
    code, out, _ = run(capsys, "potential", "--ell", "1", "--format", "svg")
    assert code == 0
    assert out.lstrip().startswith("<svg")
    assert out.count("<polyline") == 6
    assert "href" not in out                       # self-contained
    # spindle over [-2pi, 2pi]: the chart splits at the axis into the central
    # well plus the two half-wells of the neighboring period
    code, out, _ = run(capsys, "potential", "--a", "0.5", "--b", "1",
                       "--ell", "0.3", "--format", "svg")
    assert code == 0
    assert out.count("<polyline") == 8


@pytest.mark.parametrize("argv", [
    ("potential", "--ell", "nan"),
    ("potential", "--ell", "inf", "--format", "json"),
    ("potential", "--ell", "1", "--chi-span", "nan"),
    ("potential", "--ell", "1", "--samples", "0"),
    ("geodesic", "--beta0", "0.5", "--samples", "0"),
    ("expmap", "--rays", "3", "--samples", "0"),
    ("potential", "--ell", "1", "--chi-span", "0"),
    ("potential", "--ell", "1", "--chi-span", "-1"),
    ("spectrum", "--m-max", "-1", "--no-verify"),
    ("spectrum", "--n-max", "-1", "--no-verify"),
    ("bvp", "--r1", "0", "--r2", "1", "--dtheta", "1", "--k-max", "-1"),
])
def test_bad_boundary_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("revgeo: ")


# -- geodesic ----------------------------------------------------------------

def test_geodesic_csv_columns_and_events(capsys):
    code, out, _ = run(capsys, "geodesic", "--beta0", "0.5",
                       "--lambda-max", "10", "--samples", "12")
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["lambda", "r", "theta", "vr", "vtheta", "E", "ell",
                        "event"]
    samples = [r for r in table[1:] if r[7] == ""]
    events = [r for r in table[1:] if r[7] != ""]
    assert len(samples) == 12
    assert {r[7] for r in events} <= {"outer-equator", "inner-equator",
                                      "turning-point"}
    assert len(events) >= 2
    # E = 1/2 at unit speed, ell conserved, on every row
    for r in table[1:]:
        assert float(r[5]) == pytest.approx(0.5, abs=1e-9)
        assert float(r[6]) == pytest.approx(3.0 * np.sin(0.5), abs=1e-9)


def test_geodesic_requires_beta0(capsys):
    code, _, err = run(capsys, "geodesic")
    assert code == 2
    assert "beta0" in err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_geodesic_rejects_non_finite_lambda(capsys, lam):
    code, out, err = run(capsys, "geodesic", "--beta0", "0.5", "--lambda-max", lam)
    assert code == 2 and out == ""
    assert "max_lambda" in err


def test_geodesic_zero_lambda(capsys):
    code, out, _ = run(capsys, "geodesic", "--beta0", "0.5", "--lambda-max", "0",
                       "--samples", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["events"] == 0 and len(doc["rows"]) == 3


def test_geodesic_partial_trace_flagged(capsys, monkeypatch):
    # numerical failure: emit the truncated trace, flag it, exit 3
    real = dynamics.integrate

    def boom(spec, state0, config=None):
        trace = real(spec, state0,
                     dynamics.IntegratorConfig(max_lambda=5.0))
        raise IntegrationError("forced stop", trace=trace)

    monkeypatch.setattr(dynamics, "integrate", boom)
    code, out, _ = run(capsys, "geodesic", "--beta0", "0.4",
                       "--lambda-max", "50", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["meta"]["partial"] is True
    assert doc["rows"][-1][0] <= 5.0


# -- spectrum ----------------------------------------------------------------

def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--m-max", "1", "--n-max", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["label", "status", "beta0", "beta0_deg",
                              "length", "frequency", "residual", "message"]
    assert doc["meta"] == {"family": "ring", "solved": 5, "total": 6,
                           "max_residual": doc["meta"]["max_residual"],
                           "verified": True}
    assert doc["meta"]["max_residual"] < 1e-6
    by_label = {r[0]: r for r in doc["rows"]}
    assert by_label["[1,0;0]"][1] == "nonexistent"
    row = by_label["[1,1;0]"]
    assert row[2] == pytest.approx(0.4097039420, abs=1e-9)
    assert row[3] == pytest.approx(np.degrees(0.4097039420), abs=1e-7)
    # solved rows first, ordered by length
    lengths = [r[4] for r in doc["rows"] if r[1] == "solved"]
    assert lengths == sorted(lengths)


def test_spectrum_no_verify_skips_residuals(capsys):
    code, out, _ = run(capsys, "spectrum", "--m-max", "1", "--n-max", "1",
                       "--no-verify", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "max_residual" not in doc["meta"]
    assert all(r[6] is None for r in doc["rows"])


def test_spectrum_rejects_svg_and_sphere(capsys):
    code, _, err = run(capsys, "spectrum", "--format", "svg")
    assert code == 2
    assert "svg" in err
    code, _, err = run(capsys, "spectrum", "--a", "0", "--b", "1",
                       "--no-verify")
    assert code == 2


# -- bvp ---------------------------------------------------------------------

def test_bvp_antipodal(capsys):
    code, out, _ = run(capsys, "bvp", "--r1", "0", "--r2", "0",
                       "--dtheta", str(np.pi), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["tie"] is True
    assert doc["meta"]["minimal_length"] == pytest.approx(7.631123089747,
                                                          abs=1e-6)
    assert doc["rows"][0][2] in ("turn-up", "turn-down")


def test_bvp_usage_and_domain_errors(capsys):
    code, _, err = run(capsys, "bvp", "--r1", "0", "--dtheta", "1")
    assert code == 2 and "--r2" in err
    code, _, err = run(capsys, "bvp", "--a", "0.5", "--b", "1", "--r1", "0",
                       "--r2", "3.0", "--dtheta", "1")
    assert code == 2 and "outside the surface chart" in err


# -- flat --------------------------------------------------------------------

def test_flat_segments_and_lattice(capsys):
    code, out, _ = run(capsys, "flat", "--m", "2", "--n", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4                       # m + n - 1
    assert doc["meta"]["length"] == pytest.approx(np.sqrt(13.0), rel=1e-11)
    code, out, _ = run(capsys, "flat", "--m-max", "6", "--n-max", "6")
    assert code == 0
    assert len(rows_of(out)) == 26                     # header + 25 entries
    code, _, err = run(capsys, "flat")
    assert code == 2 and "--m" in err


# -- kepler ------------------------------------------------------------------

def test_kepler_rows(capsys):
    code, out, _ = run(capsys, "kepler", "--k1", "1", "--ell", "1",
                       "--E", "-0.3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    got = {r[0]: r[1] for r in doc["rows"]}
    assert got["classes"] == "bound"
    assert got["apsidal_angle"] == pytest.approx(np.pi, abs=1e-8)
    assert got["precession"] == pytest.approx(0.0, abs=1e-8)
    assert got["circular_stable_r"] == pytest.approx(1.0, rel=1e-10)


def test_kepler_capture_classes(capsys):
    code, out, _ = run(capsys, "kepler", "--k1", "1", "--k2", "0.02",
                       "--ell", "1", "--E", "40", "--format", "json")
    assert code == 0
    got = {r[0]: r[1] for r in json.loads(out)["rows"]}
    assert got["classes"] == "capture"


def test_kepler_requires_k1(capsys):
    code, _, err = run(capsys, "kepler", "--ell", "1")
    assert code == 2 and "--k1" in err


@pytest.mark.parametrize("flags", [
    ("--k1", "nan", "--ell", "1"),
    ("--k1", "1", "--k2", "inf", "--ell", "1"),
    ("--k1", "1", "--ell", "nan"),
    ("--k1", "1", "--k2", "0.001", "--ell", "1", "--E", "nan"),
    ("--k1", "1", "--ell", "1", "--E=-inf"),
    ("--k1", "1", "--ell", "1", "--r0", "nan", "--t-max", "1"),
    ("--k1", "1", "--ell", "1", "--r0", "1", "--vr0", "inf", "--t-max", "1"),
    ("--k1", "1", "--ell", "1", "--r0", "1", "--t-max", "nan"),
])
def test_kepler_non_finite_input_exits_2(capsys, flags):
    code, out, err = run(capsys, "kepler", *flags)
    assert code == 2 and out == ""
    assert "finite" in err


# -- expmap ------------------------------------------------------------------

def test_expmap_rows(capsys):
    code, out, _ = run(capsys, "expmap", "--rays", "5", "--samples", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 50
    ends = {(round(r[1], 9), round(r[2], 6)) for r in doc["rows"]}
    assert (0.0, round(2.0 * np.pi, 6)) in ends            # meridian circuit
    assert (round(np.pi / 2.0, 9), round(6.0 * np.pi, 6)) in ends


# -- plumbing ----------------------------------------------------------------

def test_config_file_preloads_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ell": 2.0, "samples": 5}))
    code, out, _ = run(capsys, "potential", "--config", str(cfg))
    assert code == 0
    assert len(rows_of(out)) == 6
    # explicit flag beats the file
    code, out2, _ = run(capsys, "potential", "--config", str(cfg),
                        "--ell", "1")
    u0_file = float(rows_of(out)[3][1])
    u0_flag = float(rows_of(out2)[3][1])
    assert u0_file == pytest.approx(4.0 / 18.0, rel=1e-10)
    assert u0_flag == pytest.approx(1.0 / 18.0, rel=1e-10)


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"elll": 2.0}))
    code, _, err = run(capsys, "potential", "--config", str(cfg))
    assert code == 2 and "elll" in err


def test_out_file_and_io_error(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "flat", "--m", "1", "--n", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert rows_of(target.read_text())[0] == ["x0", "y0", "x1", "y1"]
    code, _, err = run(capsys, "flat", "--m", "1", "--n", "1",
                       "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert code == 4


def test_missing_config_file_is_io_error(capsys):
    code, _, _ = run(capsys, "potential", "--ell", "1",
                     "--config", "/nonexistent/cfg.json")
    assert code == 4


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "spectrum", "--m-max", "2", "--n-max", "2",
                     "--no-verify", "--format", "json")
    _, out2, _ = run(capsys, "spectrum", "--m-max", "2", "--n-max", "2",
                     "--no-verify", "--format", "json")
    assert out1 == out2
    _, csv1, _ = run(capsys, "bvp", "--r1", "0", "--r2", "0",
                     "--dtheta", "1.0")
    _, csv2, _ = run(capsys, "bvp", "--r1", "0", "--r2", "0",
                     "--dtheta", "1.0")
    assert csv1 == csv2


def test_unknown_command_usage_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
