"""Command-line interface: argument handling, exit codes, file outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freedeconv.cli import build_parser, main
from freedeconv.contours import ContourRepresentation
from freedeconv.errors import InvalidMomentsError
from freedeconv.experiments import REPORT_COLUMNS
from freedeconv.measures import DiscreteMeasure
from freedeconv.pipeline import deconvolve, forward_measure
from helpers import contour_moment, moments_of

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parser_scenario_defaults():
    args = build_parser().parse_args(["scenario", "--id", "S1"])
    assert args.n == "250,500,1000,2000"
    assert args.method == "contour"
    assert args.seeds == 3
    assert args.out == "report.csv"
    assert args.sigma == 0.5
    assert args.workers == 0


def test_parser_deconvolve_defaults():
    args = build_parser().parse_args(
        ["deconvolve", "--input", "x.json", "--c", "0.2"]
    )
    assert args.max_support == 8
    assert args.out is None
    assert args.dump_contours is None


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc_info:
        main(["bogus"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit):
        main(["scenario"])  # missing required --id


# ---------------------------------------------------------------------------
# deconvolve command
# ---------------------------------------------------------------------------

def test_cli_deconvolve_writes_result_and_contour(tmp_path):
    mu_f = forward_measure(TWO, 0.2, tol=1e-8)
    inp = tmp_path / "mu.json"
    inp.write_text(mu_f.to_json())
    out = tmp_path / "result.json"
    dump = tmp_path / "contours"
    rc = main([
        "deconvolve", "--input", str(inp), "--c", "0.2",
        "--out", str(out), "--dump-contours", str(dump),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    atoms = np.asarray(payload["estimate"]["atoms"])
    weights = np.asarray(payload["estimate"]["weights"])
    assert np.allclose(atoms, [1.0, 2.0], atol=1e-6)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-6)
    rep = ContourRepresentation.from_csv(dump / "m_contour.csv")
    assert rep.n_nodes >= 512


def test_cli_deconvolve_rejects_bad_aspect_ratio(tmp_path, capsys):
    inp = tmp_path / "mu.json"
    inp.write_text(forward_measure(TWO, 0.2, tol=1e-8).to_json())
    rc = main(["deconvolve", "--input", str(inp), "--c", "1.5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_deconvolve_rejects_support_cap_above_moment_budget(
    tmp_path, capsys
):
    inp = tmp_path / "mu.json"
    inp.write_text(forward_measure(TWO, 0.2, tol=1e-8).to_json())
    rc = main([
        "deconvolve", "--input", str(inp), "--c", "0.2", "--max-support", "9",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "max_support must lie in [1, 8], got 9" in err


def test_cli_deconvolve_retries_recovery_on_a_sampled_spectrum(tmp_path):
    # a single recovery at the default rank tolerance rejects the moments
    # of this sampled S1 spectrum; the shared ladder accepts a later rung
    # and records it as the configuration
    mu_n = tmp_path / "mu_n.json"
    assert main([
        "spectrum", "--scenario", "S1", "--p", "100", "--n", "500",
        "--seed", "1", "--out", str(mu_n),
    ]) == 0
    with pytest.raises(InvalidMomentsError):
        deconvolve(DiscreteMeasure.from_json(mu_n.read_text()), 0.2)
    out = tmp_path / "result.json"
    rc = main([
        "deconvolve", "--input", str(mu_n), "--c", "0.2", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"] == {"rank_tol": 1e-3, "max_support": 8}


def test_cli_deconvolve_missing_input_file(tmp_path, capsys):
    rc = main([
        "deconvolve", "--input", str(tmp_path / "nope.json"), "--c", "0.2",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_deconvolve_rejects_malformed_json(tmp_path, capsys):
    inp = tmp_path / "mu.json"
    inp.write_text("{not json")
    rc = main(["deconvolve", "--input", str(inp), "--c", "0.2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# forward command
# ---------------------------------------------------------------------------

def test_cli_forward_contour_moments(tmp_path):
    inp = tmp_path / "pop.json"
    inp.write_text(DiscreteMeasure([1.0], [1.0]).to_json())
    out = tmp_path / "contour.csv"
    rc = main(["forward", "--population", str(inp), "--c", "0.2",
               "--out", str(out)])
    assert rc == 0
    rep = ContourRepresentation.from_csv(out)
    got = [contour_moment(rep, k).real for k in range(3)]
    assert np.allclose(got, [1.0, 1.0, 1.2], atol=1e-6)


def test_cli_forward_rejects_a_negative_atom(tmp_path, capsys):
    inp = tmp_path / "pop.json"
    inp.write_text(DiscreteMeasure([-1.0, 2.0], [0.5, 0.5]).to_json())
    out = tmp_path / "contour.csv"
    rc = main(["forward", "--population", str(inp), "--c", "0.2",
               "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# moments command
# ---------------------------------------------------------------------------

def test_cli_moments_reconstructs_measure(tmp_path):
    inp = tmp_path / "moments.json"
    inp.write_text(moments_of(TWO, 4).to_json())
    out = tmp_path / "measure.json"
    rc = main(["moments", "--input", str(inp), "--out", str(out)])
    assert rc == 0
    mu = DiscreteMeasure.from_json(out.read_text())
    assert np.allclose(mu.atoms, [1.0, 2.0], atol=1e-8)
    assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-8)


def test_cli_moments_reports_numerical_failure(tmp_path, capsys):
    inp = tmp_path / "moments.json"
    inp.write_text("[1.0, 0.0, -1.0, 0.0]")
    rc = main(["moments", "--input", str(inp)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure at stage recover_measure")


def test_cli_rejects_malformed_json_input(tmp_path, capsys):
    # nested arrays, booleans and numeric strings are not read as numbers
    inp = tmp_path / "moments.json"
    inp.write_text("[[1, 1.5], [2.5, 4.5]]")
    assert main(["moments", "--input", str(inp)]) == 2
    assert "flat JSON array" in capsys.readouterr().err
    pop = tmp_path / "pop.json"
    pop.write_text('{"atoms": ["1.0", 2.0], "weights": [0.5, 0.5]}')
    out = tmp_path / "contour.csv"
    rc = main(["forward", "--population", str(pop), "--c", "0.2",
               "--out", str(out)])
    assert rc == 2
    assert "flat JSON array" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------

def test_cli_spectrum_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main(["spectrum", "--scenario", "S3", "--p", "30", "--n", "300",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    mu = DiscreteMeasure.from_json(a.read_text())
    assert mu.n_atoms == 30


# ---------------------------------------------------------------------------
# scenario command
# ---------------------------------------------------------------------------

def test_cli_scenario_writes_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["scenario", "--id", "S1", "--n", "250", "--seeds", "2",
               "--workers", "2", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert f"report written to {out}" in stdout
    assert "S1 contour n=250 median_w1=" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 3  # header + 2 seeds
    assert all(float(r[REPORT_COLUMNS.index("w1_error")]) < 0.5
               for r in rows[1:])


def test_cli_scenario_names_the_modification_of_a_capped_scenario(
    tmp_path, capsys
):
    # S2_2 asks for c = 1 and runs at 0.95: the summary says so before
    # its medians, while the report keeps its columns
    out = tmp_path / "report.csv"
    rc = main(["scenario", "--id", "S2_2", "--n", "250", "--seeds", "1",
               "--workers", "1", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "S2_2: c capped to 0.95 from 1"
    assert lines[1].startswith("S2_2 contour n=250 median_w1=")
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == list(REPORT_COLUMNS)


def test_cli_scenario_rejects_a_non_finite_sigma(tmp_path, capsys):
    out = tmp_path / "report.csv"
    for sigma in ("nan", "inf"):
        rc = main(["scenario", "--id", "S1", "--n", "250", "--seeds", "1",
                   "--workers", "1", "--method", "subordination",
                   "--sigma", sigma, "--out", str(out)])
        assert rc == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# process-level smoke
# ---------------------------------------------------------------------------

def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "freedeconv.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    for cmd in ("deconvolve", "forward", "moments", "scenario", "spectrum"):
        assert cmd in proc.stdout


def test_log_level_shows_package_records_on_stderr(tmp_path):
    inp = tmp_path / "mu.json"
    inp.write_text(forward_measure(TWO, 0.2, tol=1e-8).to_json())

    def run(*level):
        return subprocess.run(
            [sys.executable, "-m", "freedeconv.cli", *level, "deconvolve",
             "--input", str(inp), "--c", "0.2", "--out", str(tmp_path / "r")],
            capture_output=True, text=True,
        )

    quiet, verbose = run(), run("--log-level", "debug")
    assert quiet.returncode == verbose.returncode == 0
    assert quiet.stderr == ""
    assert "DEBUG freedeconv.inversion: lifted 256 targets" in verbose.stderr


# The launcher pip writes for a `[project.scripts]` entry `name = "mod:attr"`.
CONSOLE_SCRIPT_TEMPLATE = r"""#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\.pyw|\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


@pytest.mark.skipif(
    os.name == "nt", reason="the console-script launcher is a POSIX shebang script"
)
def test_console_script_help(tmp_path, monkeypatch):
    """The declared `freedeconv` console script, run by name, prints help.

    The suite runs from source, so no installed script exists. The test
    writes the launcher that installing would write, from the checkout's
    own `pyproject.toml`, and puts it first on PATH: a misspelt entry point
    fails here, and an older install elsewhere on PATH cannot mask it.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, func = scripts["freedeconv"].partition(":")
    launcher = tmp_path / "freedeconv"
    launcher.write_text(CONSOLE_SCRIPT_TEMPLATE.format(
        python=sys.executable, module=module, func=func,
    ))
    launcher.chmod(0o755)
    monkeypatch.setenv(
        "PATH", os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")])
    )

    proc = subprocess.run(
        ["freedeconv", "--help"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: freedeconv ")
