"""The sliced-trace convergence script, run end to end on a short ladder."""

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


def test_monte_carlo_options_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        _load().main(["--budget", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --budget 1" in capsys.readouterr().err
