"""The domain contract, one row per public name and per CLI subcommand.

Every numeric parameter is fed nan, +-inf, 0 and -1 (in one component for
a vector).  A value outside the parameter's domain must raise ValueError
whose message names the parameter and the value; at the CLI it must exit
1 with nothing on stdout.  A value inside the domain must return.  A public
name, a signature parameter or a numeric CLI option without a row fails.
"""

import argparse
import inspect
import json
import math
import re

import pytest

import bgcs
from bgcs import cli, coherent, fock, measure, pathint, specfun

PROBES = (math.nan, math.inf, -math.inf, 0, -1)
POSITIVE = ()  # none of the probes lies in (0, inf), or in an integer >= 1
REAL = (0, -1)
AT_LEAST_0 = (0,)

SPACE = fock.rep_space(2, 1.5, 3)
MODEL = measure.MeasureModel(2, 1.5)
HP = pathint.HamiltonianParams.from_mu([1.0, 1.3])

# name: [(call, {parameter: (name in the message, probes in the domain)},
#         parameters with no numeric domain of their own)]
ROWS = {
    "coefficient": [(lambda n=1, k=1.5: coherent.coefficient((n, 0), k),
                     {"n": ("n", AT_LEAST_0), "k": ("k", POSITIVE)}, ())],
    "eigen_residual": [(lambda z=0.1, alpha=1: coherent.eigen_residual([z, 0.2], SPACE, alpha),
                        {"z": ("z", REAL), "alpha": ("alpha", POSITIVE)}, ("space",))],
    "f_series": [(lambda k=1.5, w=0.3: coherent.f_series(k, [0.2, w]),
                  {"k": ("k", POSITIVE), "w": ("w", REAL)}, ())],
    "inner_product": [(lambda z=0.1, zp=0.2, k=1.5: coherent.inner_product([z, 0.5], [zp, 0.1], k),
                       {"z": ("z", REAL), "zp": ("zp", REAL), "k": ("k", POSITIVE)}, ())],
    "state_vector": [(lambda z=0.1: coherent.state_vector([z, 0.2], SPACE),
                      {"z": ("z", REAL)}, ("space",))],
    # built by rep_space, which checks n, k and cutoff
    "TruncatedRepSpace": [(lambda: SPACE, {}, ("n", "k", "cutoff", "occ", "deg", "binom"))],
    "commutator_residual": [(lambda first=1, second=2: fock.commutator_residual(
        SPACE, (first, 2), (second, 1)), {"first": ("generator indices", POSITIVE),
                                          "second": ("generator indices", POSITIVE)}, ("space",))],
    "generator_matrix": [(lambda alpha=1, beta=2: fock.generator_matrix(SPACE, alpha, beta),
                          {"alpha": ("alpha", POSITIVE), "beta": ("beta", POSITIVE)}, ("space",))],
    "rep_space": [(lambda n=2, k=1.5, cutoff=2: fock.rep_space(n, k, cutoff),
                   {"n": ("n", POSITIVE), "k": ("k", POSITIVE), "cutoff": ("cutoff", AT_LEAST_0)},
                   ())],
    "subsidiary_residual": [(lambda: fock.subsidiary_residual(SPACE), {}, ("space",))],
    "MeasureModel": [(lambda n=2, k=1.5: measure.MeasureModel(n, k),
                      {"n": ("n", POSITIVE), "k": ("k", POSITIVE)}, ())],
    "density": [(lambda r=0.5: measure.density(MODEL, [r, 0.3]), {"r": ("r", AT_LEAST_0)},
                 ("model",))],
    "moment_check": [(lambda n_vec=1: measure.moment_check(MODEL, [n_vec, 0]),
                      {"n_vec": ("n_vec", AT_LEAST_0)}, ("model",))],
    "radial_cdf": [(lambda q=1.0: measure.radial_cdf(MODEL, q), {"q": ("q", POSITIVE)},
                    ("model",))],
    "resolution_check": [
        (lambda cutoff=1, budget=200, seed=1, workers=1: measure.resolution_check(
            MODEL, cutoff, mode="montecarlo", budget=budget, seed=seed, workers=workers),
         {"cutoff": ("cutoff", AT_LEAST_0), "budget": ("sample count", POSITIVE),
          "seed": ("seed", AT_LEAST_0), "workers": ("workers", POSITIVE)}, ("model", "mode")),
        (lambda budget=200, seed=1, workers=1: measure.resolution_check(
            MODEL, 1, budget=budget, seed=seed, workers=workers),
         {"budget": ("sample count", POSITIVE), "seed": ("seed", AT_LEAST_0),
          "workers": ("workers", POSITIVE)}, ()),
    ],
    "sample": [(lambda count=10, seed=1, workers=1: measure.sample(MODEL, count, seed, workers),
                {"count": ("sample count", POSITIVE), "seed": ("seed", AT_LEAST_0),
                 "workers": ("workers", POSITIVE)}, ("model",))],
    "sampler_report": [(lambda count=100, seed=1, workers=1: measure.sampler_report(
        MODEL, count, seed, workers), {"count": ("sample count", POSITIVE),
                                       "seed": ("seed", AT_LEAST_0),
                                       "workers": ("workers", POSITIVE)}, ("model",))],
    "verify_formula_a": [(lambda n=2, k=1.5, s=0.5: measure.verify_formula_a(n, k, [s, 0.2]),
                          {"n": ("n", POSITIVE), "k": ("k", POSITIVE), "s": ("s", AT_LEAST_0)},
                          ())],
    "verify_formula_b": [(lambda mu=3.0, nu=0.5, a=1.0: measure.verify_formula_b(mu, nu, a),
                          {"mu": ("mu", POSITIVE), "nu": ("nu", REAL), "a": ("a", POSITIVE)}, ())],
    "HamiltonianParams": [(lambda c=0.5: pathint.HamiltonianParams((c, 0.3)), {"c": ("c", REAL)},
                           ())],
    "TraceConfig": [
        (lambda horizon=1.0, slices=4, cutoff=2, budget=100, seed=1, workers=1: pathint.TraceConfig(
            horizon=horizon, slices=slices, cutoff=cutoff, budget=budget, seed=seed,
            workers=workers),
         {"horizon": ("horizon", POSITIVE), "slices": ("slices", POSITIVE),
          "cutoff": ("cutoff", AT_LEAST_0), "budget": ("budget", POSITIVE),
          "seed": ("seed", AT_LEAST_0), "workers": ("workers", POSITIVE)},
         ("mode", "weights", "backend")),
        (lambda horizon=1.0: pathint.TraceConfig(mode="real", horizon=horizon),
         {"horizon": ("horizon", REAL)}, ()),
    ],
    "diagonal_kernel": [(lambda z=0.5, k=1.5, beta=1.0: pathint.diagonal_kernel(
        [z, 0.2], HP, k, beta),
                         {"z": ("z", REAL), "k": ("k", POSITIVE), "beta": ("beta", REAL)},
                         ("hp",))],
    "exact_kernel_trace": [
        (lambda k=1.5, beta=1.0: pathint.exact_kernel_trace(HP, k, beta),
         {"k": ("k", POSITIVE), "beta": ("beta", POSITIVE)}, ("hp", "mode")),
        (lambda budget=200, seed=1, workers=1: pathint.exact_kernel_trace(
            HP, 1.5, 1.0, mode="montecarlo", budget=budget, seed=seed, workers=workers),
         {"budget": ("sample count", POSITIVE), "seed": ("seed", AT_LEAST_0),
          "workers": ("workers", POSITIVE)}, ()),
        (lambda budget=200, seed=1, workers=1: pathint.exact_kernel_trace(
            HP, 1.5, 1.0, budget=budget, seed=seed, workers=workers),
         {"budget": ("sample count", POSITIVE), "seed": ("seed", AT_LEAST_0),
          "workers": ("workers", POSITIVE)}, ()),
    ],
    "exact_spectral_trace": [(lambda k=1.5, beta=1.0, cutoff=None: pathint.exact_spectral_trace(
        HP, k, beta, cutoff), {"k": ("k", POSITIVE), "beta": ("beta", POSITIVE),
                               "cutoff": ("cutoff", AT_LEAST_0)}, ("hp",))],
    "h_matrix_element": [(lambda z=0.5, zp=0.2, k=1.5: pathint.h_matrix_element(
        [z, 0.1], [zp, 0.3], HP, k), {"z": ("z", REAL), "zp": ("zp", REAL), "k": ("k", POSITIVE)},
        ("hp",))],
    "sliced_trace": [(lambda k=1.5: pathint.sliced_trace(
        HP, k, pathint.TraceConfig(horizon=1.0, slices=4, cutoff=2)), {"k": ("k", POSITIVE)},
        ("hp", "config"))],
    "ConvergenceError": [(lambda: None, {}, ())],
    "bessel_i": [(lambda nu=0.5, x=1.0: specfun.bessel_i(nu, x),
                  {"nu": ("nu", AT_LEAST_0), "x": ("x", AT_LEAST_0)}, ())],
    "bessel_k": [(lambda nu=0.5, x=1.0: specfun.bessel_k(nu, x),
                  {"nu": ("nu", REAL), "x": ("x", POSITIVE)}, ())],
    "gamma": [(lambda p=1.5: specfun.gamma(p), {"p": ("p", POSITIVE)}, ())],
    "log_gamma": [(lambda p=1.5: specfun.log_gamma(p), {"p": ("p", POSITIVE)}, ())],
}


def _names_the_value(message, label, value):
    return re.search(rf"\b{label}\b", message) and str(value) in message


def test_every_export_has_a_row():
    public = {name for name, obj in vars(bgcs).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_export_domain(name):
    obj = getattr(bgcs, name)
    covered = set()
    for call, params, others in ROWS[name]:
        covered |= set(params) | set(others)
        call()
        for param, (label, inside) in params.items():
            for value in PROBES:
                if value in inside:
                    call(**{param: value})
                    continue
                with pytest.raises(ValueError) as info:
                    call(**{param: value})
                assert _names_the_value(str(info.value), label, value), (param, value)
    if not isinstance(obj, type) or not issubclass(obj, Exception):
        assert covered == set(inspect.signature(obj).parameters)


# subcommand: (base options, {option: (name in the message, probes in the domain)});
# a list option gets the probe as its last component
CLI_ROWS = {
    "eval-f": ({"--k": "1.5", "--w": "0.2"},
               {"--k": ("k", POSITIVE), "--w": ("w", REAL)}),
    "inner": ({"--k": "1.5", "--z": "0.1,0.5", "--zp": "0.2,0.1"},
              {"--k": ("k", POSITIVE), "--z": ("z", REAL), "--zp": ("zp", REAL)}),
    "measure-check": ({"--n": "2", "--k": "1.5", "--occ": "1,0"},
                      {"--n": ("n", POSITIVE), "--k": ("k", POSITIVE),
                       "--occ": ("n_vec", AT_LEAST_0), "--tol": ("tol", POSITIVE)}),
    "formula-a": ({"--n": "2", "--k": "1.5", "--s": "0.5,0.2"},
                  {"--n": ("n", POSITIVE), "--k": ("k", POSITIVE), "--s": ("s", AT_LEAST_0),
                   "--tol": ("tol", POSITIVE)}),
    "formula-b": ({"--mu": "3", "--nu": "0.5", "--a": "1"},
                  {"--mu": ("mu", POSITIVE), "--nu": ("nu", REAL), "--a": ("a", POSITIVE),
                   "--tol": ("tol", POSITIVE)}),
    "rou": ({"--n": "1", "--k": "1", "--cutoff": "2", "--mode": "montecarlo", "--budget": "2000"},
            {"--n": ("n", POSITIVE), "--k": ("k", POSITIVE), "--cutoff": ("cutoff", AT_LEAST_0),
             "--tol": ("tol", POSITIVE), "--zmax": ("zmax", POSITIVE),
             "--seed": ("seed", AT_LEAST_0), "--workers": ("workers", POSITIVE),
             "--budget": ("sample count", POSITIVE)}),
    "rou --mode quadrature": ({"--n": "1", "--k": "1", "--cutoff": "2", "--mode": "quadrature"},
                              {"--seed": ("seed", AT_LEAST_0), "--workers": ("workers", POSITIVE),
                               "--budget": ("sample count", POSITIVE)}),
    "sample": ({"--n": "1", "--k": "1", "--budget": "1000"},
               {"--n": ("n", POSITIVE), "--k": ("k", POSITIVE), "--zmax": ("zmax", POSITIVE),
                "--seed": ("seed", AT_LEAST_0), "--workers": ("workers", POSITIVE),
                "--budget": ("sample count", POSITIVE)}),
    "trace": ({"--n": "1", "--k": "1", "--mu": "1", "--beta": "1", "--m": "8", "--cutoff": "4",
               "--budget": "1000"},
              {"--n": ("n", POSITIVE), "--k": ("k", POSITIVE), "--mu": ("mu", REAL),
               "--c-last": ("c_last", REAL), "--beta": ("horizon", POSITIVE),
               "--m": ("slices", POSITIVE), "--cutoff": ("cutoff", AT_LEAST_0),
               "--tol": ("tol", POSITIVE), "--zmax": ("zmax", POSITIVE),
               "--seed": ("seed", AT_LEAST_0), "--workers": ("workers", POSITIVE),
               "--budget": ("budget", POSITIVE)}),
    "trace --t": ({"--n": "1", "--k": "1", "--mu": "1", "--t": "1", "--m": "8", "--cutoff": "4"},
                  {"--t": ("horizon", REAL)}),
}


def _run(options, capsys):
    argv = [options.pop("command")] + [f"{opt}={val}" for opt, val in options.items()]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_subcommand_and_numeric_option_has_a_row():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    rows = {}
    for key, (_, params) in CLI_ROWS.items():
        rows.setdefault(key.split()[0], set()).update(params)
    assert rows == {name: {a.option_strings[0] for a in p._actions if a.type is not None}
                    for name, p in sub.choices.items()}


@pytest.mark.parametrize("key", sorted(CLI_ROWS))
def test_subcommand_domain(key, capsys):
    base, params = CLI_ROWS[key]
    command = key.split()[0]
    code, out, _ = _run(dict(base, command=command), capsys)
    assert code in (0, 2) and json.loads(out)
    for opt, (label, inside) in params.items():
        for value in PROBES:
            text = str(value)
            if opt in base and "," in base[opt]:
                text = base[opt].rsplit(",", 1)[0] + "," + text
            code, out, err = _run(dict(base, command=command, **{opt: text}), capsys)
            if value in inside:
                assert code in (0, 2) and json.loads(out), (opt, value, err)
            else:
                assert (code, out) == (1, ""), (opt, value)
                assert (_names_the_value(err, label, value)
                        or f"argument {opt}: " in err and text in err), (opt, value, err)
