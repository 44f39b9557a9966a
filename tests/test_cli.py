"""Command-line contract: report formats, exit codes, determinism, and the
documented example invocations."""

import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgcs
from bgcs import cli, coherent, pathint
from bgcs.mc import DEFAULT_SEED


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rou_quadrature_example(capsys):
    code, out, _ = run(["rou", "--n", "1", "--k", "0.5", "--cutoff", "6",
                        "--mode", "quadrature"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["max_dev"] <= 1e-8
    assert report["passed"] is True


def test_formula_b_domain_error_example(capsys):
    code, out, err = run(["formula-b", "--mu", "0.5", "--nu", "1", "--a", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "mu" in err and "nu" in err


def test_trace_matrix_example(capsys):
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "1",
                        "--m", "64", "--mode", "imaginary", "--backend", "matrix",
                        "--cutoff", "40"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["reference"] == pytest.approx(1.5819767069, rel=1e-9)
    assert abs(report["value"] - report["reference"]) <= 0.01 * report["reference"]
    assert report["weights"] == "linear"


def test_trace_real_time_matrix_reference(capsys):
    """Real time: the reference is sum_n exp(-i t n) over the 21 states of
    the N = 1 basis (mu = 1, c_last = 0), and its imaginary part is kept."""
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--t", "0.1",
                        "--m", "64", "--mode", "real", "--backend", "matrix",
                        "--cutoff", "20", "--tol", "0.05"], capsys)
    report = json.loads(out)
    expected = sum(cmath.exp(-0.1j * n) for n in range(21))
    assert report["reference"] == pytest.approx(expected.real, rel=1e-12)
    assert report["reference_im"] == pytest.approx(expected.imag, rel=1e-12)
    assert code == 0 and report["passed"] is True


def test_trace_falls_back_to_the_truncated_reference(capsys):
    """mu = 0 makes the closed product diverge, so the reference is the
    truncated trace: all 21 levels of the N = 1 basis sit at 0."""
    hp = pathint.HamiltonianParams.from_mu([0.0])
    with pytest.raises(ValueError, match="diverges"):
        pathint.exact_spectral_trace(hp, 1.0, 1.0)
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "0", "--beta", "1",
                        "--m", "64", "--mode", "imaginary", "--backend", "matrix",
                        "--cutoff", "20"], capsys)
    report = json.loads(out)
    assert report["reference"] == 21.0 and "reference_im" not in report
    assert code == 0


def test_trace_montecarlo_without_cutoff_has_no_reference(capsys):
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "1",
                        "--m", "8", "--backend", "montecarlo", "--budget", "2000"], capsys)
    report = json.loads(out)
    assert code == 0
    assert "reference" not in report and "passed" not in report
    assert report["backend"] == "montecarlo" and report["budget"] == 2000


def test_csv_flattens_list_parameters(capsys):
    code, out, _ = run(["eval-f", "--k", "1.5", "--w", "0.3,0.5+0.2j", "--format", "csv"],
                       capsys)
    header, row = (line.split(",") for line in out.strip().splitlines())
    fields = dict(zip(header, row))
    assert code == 0
    assert (fields["params.w_re.0"], fields["params.w_re.1"]) == ("0.3", "0.5")
    assert (fields["params.w_im.0"], fields["params.w_im.1"]) == ("0.0", "0.2")


def test_vector_options_of_the_wrong_length_exit_1(capsys):
    code, out, err = run(["measure-check", "--n", "2", "--k", "1", "--occ", "1"], capsys)
    assert (code, out) == (1, "") and "--occ needs 2 entries, got 1" in err
    code, out, err = run(["formula-a", "--n", "2", "--k", "1", "--s", "0.5,0.2,0.1"], capsys)
    assert (code, out) == (1, "") and "--s needs 2 entries, got 3" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["rou", "--n", "1"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["eval-f", "--k", "1", "--w", "abc"])
    assert info.value.code == 1


def test_domain_error_exit_1(capsys):
    code, out, err = run(["inner", "--k", "1", "--z", "1,2", "--zp", "1"], capsys)
    assert code == 1 and "length" in err
    code, _, err = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--m", "4",
                        "--backend", "matrix", "--cutoff", "6"], capsys)
    assert code == 1 and "--beta" in err


@pytest.mark.parametrize("argv, message", [
    (["eval-f", "--k", "inf", "--w", "1"], "need finite k > 0"),
    (["eval-f", "--k", "nan", "--w", "1"], "need finite k > 0"),
    (["inner", "--k", "inf", "--z", "1", "--zp", "0.5"], "need finite k > 0"),
    (["formula-a", "--n", "1", "--k", "1", "--s", "inf"], "must be finite"),
    (["formula-b", "--mu", "inf", "--nu", "0", "--a", "1"], "must be finite"),
    (["trace", "--n", "1", "--k", "1", "--mu", "1", "--t", "nan", "--mode", "real",
      "--m", "8", "--cutoff", "4"], "need a finite horizon"),
    (["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "inf", "--m", "8",
      "--cutoff", "4"], "need a finite horizon"),
])
def test_non_finite_parameters_exit_1(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert message in err


def test_list_arguments_keep_their_messages(capsys):
    cases = ((["eval-f", "--k", "1", "--w", "1,x"], "numbers", "'1,x'"),
             (["formula-a", "--n", "1", "--k", "1", "--s", "0.5,y"], "reals", "'0.5,y'"),
             (["measure-check", "--n", "2", "--k", "1", "--occ", "1,0.5"], "integers", "'1,0.5'"))
    for argv, noun, text in cases:
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        assert f"expected comma-separated {noun}, got {text}" in capsys.readouterr().err


def test_formula_a_divergent_origin_is_a_domain_error(capsys):
    code, out, err = run(["formula-a", "--n", "3", "--k", "2", "--s=-0.9,-0.9,-0.9"], capsys)
    assert (code, out) == (1, "")
    assert "sum(s) + min(K, N) > 0" in err


def test_sample_small_k_runs_clean():
    """K = 0.07 puts radial_cdf's tanh-sinh nodes at R ~ 1e-300: the
    sampler report must come out with no error and no warning on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(bgcs.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "bgcs", "sample", "--n", "1", "--k", "0.07",
                           "--budget", "1000"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["passed"] is True


@pytest.mark.parametrize("n,k", [("2", "0.1"), ("1", "0.09"), ("3", "0.1")])
def test_sample_small_argument_bessel_runs(n, k):
    """The CDF rows of these models evaluate K_{K-N} at arguments near
    1e-120, which takes the small-argument Bessel form.  At N = 3 that K
    exceeds the largest double while R^p K does not: the density adds logs."""
    env = dict(os.environ, PYTHONPATH=str(Path(bgcs.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "bgcs", "sample", "--n", n, "--k", k,
                           "--budget", "1000"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["passed"] is True


def test_tolerance_breach_exit_2(capsys):
    code, out, _ = run(["measure-check", "--n", "1", "--k", "1", "--occ", "2",
                        "--tol", "1e-18"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False


def test_eval_f_matches_library(capsys):
    code, out, _ = run(["eval-f", "--k", "1.5", "--w", "0.3,0.5+0.2j"], capsys)
    assert code == 0
    report = json.loads(out)
    expected = complex(coherent.f_series(1.5, [0.3, 0.5 + 0.2j]))
    assert report["value_re"] == pytest.approx(expected.real, rel=1e-14)
    assert report["value_im"] == pytest.approx(expected.imag, rel=1e-14)


def test_json_is_canonical(capsys):
    _, out, _ = run(["formula-a", "--n", "1", "--k", "1", "--s", "0.5"], capsys)
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_csv_flat_projection(capsys):
    _, out, _ = run(["formula-b", "--mu", "2", "--nu", "0", "--a", "2",
                     "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "rel_err" in header and "params.mu" in header


def test_csv_rows_table(capsys):
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "5000",
                     "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "estimate_im" or "quantity" in lines[0]
    assert len(lines) > 10  # moments + angular modes + 10 CDF probes


def test_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["rou", "--n", "1", "--k", "1", "--cutoff", "3", "--mode", "montecarlo",
            "--budget", "20000", "--seed", "13", "--workers", "3"]
    assert cli.main(argv + ["--out", str(first)]) in (0, 2)
    assert cli.main(argv + ["--out", str(second)]) in (0, 2)
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) > 0


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.delenv("BGCS_SEED", raising=False)
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "1000"], capsys)
    assert json.loads(out)["seed"] == DEFAULT_SEED
    monkeypatch.setenv("BGCS_SEED", "777")
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "1000"], capsys)
    assert json.loads(out)["seed"] == 777
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "1000",
                     "--seed", "9"], capsys)
    assert json.loads(out)["seed"] == 9


def test_cached_parser_reads_the_seed_per_call(capsys, monkeypatch):
    """The parser is built once per process, so the BGCS_SEED default must
    be read when each command runs, not when the parser is built."""
    assert cli.build_parser() is cli.build_parser()
    seeds = []
    for env in ("11", "12"):
        monkeypatch.setenv("BGCS_SEED", env)
        _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "1000"], capsys)
        seeds.append(json.loads(out)["seed"])
    assert seeds == [11, 12]


def test_out_writes_file_only(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["inner", "--k", "2", "--z", "0.5", "--zp", "0.5",
                        "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["check"] == "inner_product"


def test_help_lists_parameters(capsys):
    for command in ("eval-f", "inner", "measure-check", "formula-a", "formula-b",
                    "rou", "sample", "trace"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "--format" in out and "--out" in out
    with pytest.raises(SystemExit):
        cli.main(["trace", "--help"])
    out = capsys.readouterr().out
    for flag in ("--seed", "--workers", "--budget", "--weights", "--cutoff"):
        assert flag in out


def test_import_loads_no_scipy():
    """scipy is a test-only dependency: importing the package and the CLI
    in a fresh interpreter must not load it, or every command starts slower."""
    code = ("import sys, bgcs, bgcs.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(bgcs.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
