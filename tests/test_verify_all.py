"""The verification sweep script, run end to end on a small grid."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
ROWS = [
    "series/Bessel reduction",
    "generator algebra + subsidiary",
    "coherent-state eigen property",
    "radial moment identity",
    "resolution of unity",
    "integral formulas A and B",
    "kernel vs spectral trace",
    "sliced trace vs spectral trace",
    "H matrix element vs finite section",
    "amplitude recursion vs closed form",
    "slice exponent, Bessel vs series (N = 1)",
]


def test_small_sweep_passes_every_row(capsys):
    spec = importlib.util.spec_from_file_location("verify_all", SCRIPT)
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    code = verify_all.main(["--n-max", "1", "--labels", "5", "--deg-max", "2", "--cutoff", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == len(ROWS)
    for name, line in zip(ROWS, lines):
        assert line.startswith(f"ok   {name} ")
