"""The sliced-trace convergence script, run end to end on a short ladder."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_convergence.py"


def _load():
    spec = importlib.util.spec_from_file_location("trace_convergence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_ladder_reports_both_weight_forms(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert _load().main(["--m-max", "16", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {row["weights"] for row in report["rows"]} == {"linear", "exp"}
    assert all(row["slices"] >= 2 for row in report["rows"])
    assert set(report["orders"]) == {"linear", "exp"}
    for order in report["orders"].values():  # first-order slicing error
        assert abs(order - 1.0) < 0.2
    err = capsys.readouterr().err
    assert "linear: fitted order" in err and "exp: fitted order" in err


def test_csv_report_is_the_json_rows_with_lf_line_ends(tmp_path):
    """--format csv writes the JSON report's rows, one line each, ended by a
    bare LF as every bgcs command writes."""
    script, rows = _load(), {}
    for fmt in ("json", "csv"):
        rows[fmt] = tmp_path / f"sweep.{fmt}"
        assert script.main(["--m-max", "16", "--format", fmt, "--out", str(rows[fmt])]) == 0
    data = rows["csv"].read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    expected = json.loads(rows["json"].read_text())["rows"]
    got = list(csv.DictReader(data.decode().splitlines()))
    assert got == [{key: str(value) for key, value in row.items()} for row in expected]
    assert data.decode().splitlines()[0] == "abs_err,rel_err,slices,value,weights"


def test_monte_carlo_options_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        _load().main(["--budget", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --budget 1" in capsys.readouterr().err
