import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starmetric import berry, cli, exprparse, metric, weyl
from starmetric.cli import main
from starmetric.exprparse import parse_poly
from starmetric.latexout import series_latex
from starmetric.metric import UnsolvableOrder
from starmetric.modelio import load_model, model_from_obj, ModelError
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, ParamPoly, RatFunc2
from starmetric.star import ExpQuadForm, star_log

from _helpers import bundled, model_path

ROOT = Path(__file__).parents[1]
GOLDENS = Path(__file__).parent / "goldens"
# the CLI in a fresh interpreter that imports this checkout
CLI = [sys.executable, "-m", "starmetric.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
IX3 = model_path("ix3")
SHIFTED = model_path("shifted")
QUADRATIC = model_path("quadratic")
# ix3 with a declared parameter: V = i a x^3, so ix3 is this model at a = 1
PARAM_IX3 = {
    "name": "param_ix3",
    "hamiltonian": {
        "params": ["a"],
        "terms": [{"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}],
        "coupling": {
            "name": "g",
            "V": [
                {"x": 3, "p": 0, "hbar": 0, "coeff": {"re": "0", "im": "1"}, "params": {"a": 1}}
            ],
        },
    },
}

_term = lambda x, re, im: {"x": x, "p": 0, "hbar": 0, "coeff": {"re": re, "im": im}}
# V = i (x + x^3) + x^2 is PT-symmetric, and its real part makes conj(V) != -V
PT_MIXED = {
    "name": "pt_mixed",
    "hamiltonian": {
        "terms": [{"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}],
        "coupling": {
            "name": "g",
            "V": [_term(1, "0", "1"), _term(2, "1", "0"), _term(3, "0", "1")],
        },
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


def _no_work(*args, **kwargs):
    raise AssertionError("work started past a limit")


class TestSolveAndLog:
    def test_solve_matches_golden_file(self, capsys):
        code, payload = run_json(capsys, "solve", "--model", IX3, "--order", "3")
        assert code == 0
        produced = CouplingSeries.from_json(payload["series"])
        with open(GOLDENS / "ix3_theta_order3.json", encoding="utf-8") as fh:
            golden = CouplingSeries.from_json(json.load(fh))
        assert produced == golden
        assert payload["residual_zero"] is True

    def test_starlog_series_sums_parampoly_entries(self, capsys, tmp_path):
        # one PhasePoly term whose ParamPoly coefficient lists a twice: 1 a + 2 a
        entry = lambda re: {"powers": {"a": 1}, "coeff": {"re": re, "im": "0"}}
        coeff = {"params": ["a"], "terms": [entry("1"), entry("2")]}
        series = {
            "coupling": "g",
            "coeffs": [
                [{"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}}],
                [{"x": 1, "p": 0, "hbar": 0, "coeff": coeff}],
            ],
        }
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series), encoding="utf-8")
        code, payload = run_json(capsys, "starlog", "--series", str(path))
        assert code == 0
        (term,) = payload["log"]["coeffs"][1]
        assert term["coeff"]["terms"] == [{"powers": {"a": 1}, "coeff": {"re": "3", "im": "0"}}]

    def test_starlog_param_series_matches_golden_bytes(self, capsys, tmp_path, monkeypatch):
        # ParamPoly and Gaussian coefficients in one series, a negative p
        # power among them: every star product of the log takes ring
        # coefficients; the relative path keeps "source" fixed
        term = lambda x, p, h, coeff: {"x": x, "p": p, "hbar": h, "coeff": coeff}
        gr = lambda re, im="0": {"re": re, "im": im}
        param = lambda *terms: {
            "params": ["a", "b"],
            "terms": [{"powers": powers, "coeff": gr(*c)} for powers, c in terms],
        }
        series = {
            "coupling": "g",
            "coeffs": [
                [term(0, 0, 0, gr("1"))],
                [term(2, 0, 0, param(({"a": 1}, ("1",)))), term(0, 1, 0, gr("0", "1"))],
                [
                    term(1, 1, 0, param(({"a": 1, "b": 1}, ("1/2",)), ({}, ("0", "-1")))),
                    term(1, -1, 1, param(({"b": 1}, ("3",)))),
                ],
                [
                    term(1, 2, 0, param(({}, ("2",)), ({"a": 1}, ("0", "-1")))),
                    term(3, 0, 0, gr("-3/2")),
                ],
            ],
        }
        monkeypatch.chdir(tmp_path)
        Path("series.json").write_text(json.dumps(series), encoding="utf-8")
        code, out, _ = run(capsys, "starlog", "--series", "series.json", "--latex")
        assert code == 0
        assert out == (GOLDENS / "starlog_param_series.json").read_text(encoding="utf-8")

    def test_starlog_empty_params_series_matches_golden_bytes(self, capsys, tmp_path, monkeypatch):
        # coefficients with "params": [] stay ParamPolys over no parameters
        term = lambda x, p, h, re, im="0": {"x": x, "p": p, "hbar": h, "coeff": {
            "params": [], "terms": [{"coeff": {"re": re, "im": im}}]}}
        series = {
            "coupling": "g",
            "coeffs": [
                [{"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}}],
                [term(1, 1, 0, "1/2", "1"), term(2, -1, 1, "3")],
                [term(0, 2, 0, "0", "-2/3"), term(3, 0, 0, "-1")],
            ],
        }
        monkeypatch.chdir(tmp_path)
        Path("series.json").write_text(json.dumps(series), encoding="utf-8")
        code, out, _ = run(capsys, "starlog", "--series", "series.json", "--latex")
        assert code == 0
        assert out == (GOLDENS / "starlog_empty_params_series.json").read_text(encoding="utf-8")

    def test_starlog_matches_golden_file(self, capsys):
        code, payload = run_json(capsys, "starlog", "--model", IX3, "--order", "3")
        assert code == 0
        produced = CouplingSeries.from_json(payload["log"])
        with open(GOLDENS / "ix3_log_order3.json", encoding="utf-8") as fh:
            golden = CouplingSeries.from_json(json.load(fh))
        assert produced == golden

    def test_solve_param_model_matches_golden_bytes(self, capsys, tmp_path):
        # every coefficient from order 1 on is a ParamPoly, so the solver and
        # the series product take the ring's own arithmetic
        path = tmp_path / "param_ix3.json"
        path.write_text(json.dumps(PARAM_IX3), encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--model", str(path), "--order", "3")
        assert code == 0
        assert out == (GOLDENS / "solve_param_ix3_order3.json").read_text(encoding="utf-8")
        code, payload = run_json(capsys, "certify", "--model", str(path), "--order", "3")
        assert code == 0
        assert payload["hermitian"] is True and payload["residual_zero"] is True

    def test_solve_param_model_order_six_matches_golden_bytes(self, capsys, tmp_path):
        # sums over the parameter a at every order, with denominators that
        # grow with the order
        path = tmp_path / "param_ix3.json"
        path.write_text(json.dumps(PARAM_IX3), encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--model", str(path), "--order", "6")
        assert code == 0
        assert out == (GOLDENS / "solve_param_ix3_order6.json").read_text(encoding="utf-8")

    def test_solve_ix3_order_six_matches_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", IX3, "--order", "6")
        assert code == 0
        assert out == (GOLDENS / "solve_ix3_order6.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["solve", "--model", IX3, "--order", "12"],
             "a604a0fa4f9fe463d591e275be4abf527a025e03282b5a83a3b103506744d1be"),
            (["solve", "--model", IX3, "--order", "24"],
             "35272542e01f3819b7d92901796bf61f257bf0b6d906e19ece6d812767a9e313"),
            (["certify", "--model", IX3, "--order", "12", "--latex"],
             "5ba014a997e22c9fefa35b130027cfee6406488c89396f02d6747f6862ca2cca"),
            (["solve", "--model", "param_ix3", "--order", "12"],
             "7d1ddffc47725f093973b4431739b8286fb5c28bb1ba924233cca24c81829e68"),
        ],
        ids=["solve-ix3-12", "solve-ix3-24", "certify-latex-ix3-12", "solve-param-ix3-12"],
    )
    def test_higher_orders_match_pinned_sha256(self, capsys, tmp_path, argv, digest):
        # byte identity past the order-6 goldens, pinned by the hash of stdout
        path = tmp_path / "param_ix3.json"
        path.write_text(json.dumps(PARAM_IX3), encoding="utf-8")
        argv = [str(path) if a == "param_ix3" else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "golden, command",
        [("solve_pt_mixed_order3.json", "solve"), ("certify_pt_mixed_order3.json", "certify")],
    )
    def test_pt_model_with_real_part_matches_golden_bytes(self, capsys, tmp_path, golden, command):
        path = tmp_path / "pt_mixed.json"
        path.write_text(json.dumps(PT_MIXED), encoding="utf-8")
        code, out, _ = run(capsys, command, "--model", str(path), "--order", "3")
        assert code == 0
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dagger"],
            ["check-hermitian"],
            ["pde"],
            ["star", "--theta", "p^2"],
            ["residual", "--theta", "one"],
            ["emit-latex", "--order", "2"],
        ],
    )
    def test_param_model_with_coupling_exits_as_ix3(self, capsys, tmp_path, argv):
        # the Hamiltonian lifts onto the declared parameter a and the coupling g
        path = tmp_path / "param_ix3.json"
        path.write_text(json.dumps(PARAM_IX3), encoding="utf-8")
        code, payload = run_json(capsys, *argv, "--model", str(path))
        assert code == run_json(capsys, *argv, "--model", IX3)[0]
        if argv == ["emit-latex", "--order", "2"]:
            assert payload["hamiltonian"] == "p^{2} + i a g x^{3}"

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_order_zero_is_the_series_one(self, capsys, command):
        # truncating at g^0 drops V: Theta = 1 solves H0 = p^2
        code, payload = run_json(capsys, command, "--model", IX3, "--order", "0")
        assert code == 0 and payload["residual_zero"] is True
        if command == "solve":
            assert CouplingSeries.from_json(payload["series"]) == CouplingSeries.one("g", 0)
        else:
            assert payload["hermitian"] is True and payload["order"] == 0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "solve", "--model", IX3, "--order", "2")
        _, out2, _ = run(capsys, "solve", "--model", IX3, "--order", "2")
        assert out1 == out2

    @pytest.mark.parametrize("command", ["solve", "starlog", "certify", "emit-latex"])
    def test_options_hbar_is_substituted_into_the_printed_series(self, capsys, tmp_path, command):
        # ix3 at hbar = 2 prints the series of ix3 with hbar set to 2; the
        # verdicts stay those of the symbolic series
        model = json.loads(Path(IX3).read_text(encoding="utf-8"))
        model["options"]["hbar"] = "2"
        path = tmp_path / "ix3_hbar2.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        flags = ["--order", "3"] + ([] if command == "emit-latex" else ["--latex"])
        code, symbolic = run_json(capsys, command, "--model", IX3, *flags)
        expected = {**symbolic, **_printed_at_hbar_2(command)}
        assert run_json(capsys, command, "--model", str(path), *flags) == (code, expected)
        assert code == 0


def _printed_at_hbar_2(command) -> dict:
    """The series that ``command --order 3`` prints for ix3 at hbar = 2."""
    spec = load_model(IX3).spec
    theta = metric.solve_perturbative(spec.h0, spec.v, 3, coupling=spec.coupling_name)
    theta2, log2 = theta.subs_hbar(2), star_log(theta).subs_hbar(2)
    return {
        "solve": {"series": theta2.to_json(), "latex": series_latex(theta2)},
        "starlog": {"log": log2.to_json(), "latex": series_latex(log2)},
        "certify": {"latex": series_latex(theta2)},
        "emit-latex": {"metric_series": series_latex(theta2), "metric_log": series_latex(log2)},
    }[command]


class TestCertifyResidual:
    def test_certify_ix3(self, capsys):
        code, payload = run_json(capsys, "certify", "--model", IX3, "--order", "3")
        assert code == 0
        assert payload["hermitian"] is True and payload["positive"] is True

    def test_certify_matches_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "certify", "--model", IX3, "--order", "4", "--latex")
        assert code == 0
        assert out == (GOLDENS / "certify_ix3_order4.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("pde_ix3.json", ("pde", "--model", IX3)),
            ("pde_quadratic.json", ("pde", "--model", QUADRATIC)),
            ("pde_shifted.json", ("pde", "--model", SHIFTED)),
            (
                "star_shifted_expquad.json",
                ("star", "--model", SHIFTED, "--theta", "expquad:exp(-2p)"),
            ),
            (
                "residual_shifted_expquad.json",
                ("residual", "--model", SHIFTED, "--theta", "expquad:exp(-2p)"),
            ),
            ("family_quadratic_p.json", ("family", "--model", QUADRATIC, "--observable", "p")),
            ("family_quadratic_x.json", ("family", "--model", QUADRATIC, "--observable", "x")),
            # the two-sided Moyal sum over ParamPoly coefficients
            ("dagger_quadratic.json", ("dagger", "--model", QUADRATIC, "--latex")),
            (
                "star_quadratic.json",
                ("star", "--model", QUADRATIC, "--theta", "2*p^2 - 3*i*x*p + x^3/p"),
            ),
            # ParamPoly coefficients through both one-sided sums, with the
            # exponent's x and p derivatives both nonzero
            (
                "star_quadratic_expquad.json",
                ("star", "--model", QUADRATIC, "--theta", "expquad:exp(-2*x*p + p^2)"),
            ),
        ],
    )
    def test_moyal_coefficient_commands_match_golden_bytes(self, capsys, golden, argv):
        # the Moyal sums over ring coefficients: one-sided in the PDE form and
        # the ExpQuadForm products, two-sided in dagger and star
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # the connection does not depend on the point, so this pins every
            # RatFunc2 that berry-osc prints
            ("berry_osc_point.json", ("berry-osc", "--q1=1/2", "--q2=3")),
            ("berry_osc.json", ("berry-osc",)),
            ("scan_locus_ranges.json", ("scan-locus", "--q1=-1/3:7/5:9", "--q2=0:2:5")),
        ],
    )
    def test_berry_commands_match_golden_bytes(self, capsys, golden, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    def test_certify_multiple_models(self, capsys):
        code, payload = run_json(capsys, "certify", "--model", IX3, "--model", IX3, "--order", "1")
        assert code == 0
        assert len(payload["reports"]) == 2

    def test_certify_non_pt_potential_fails(self, capsys, tmp_path):
        # V = i x^2 is not PT-symmetric: the solved metric is not hermitian
        term = lambda x, p, re, im: {"x": x, "p": p, "hbar": 0, "coeff": {"re": re, "im": im}}
        model = {
            "name": "ix2",
            "hamiltonian": {
                "terms": [term(0, 2, "1", "0")],
                "coupling": {"name": "g", "V": [term(2, 0, "0", "1")]},
            },
        }
        path = tmp_path / "ix2.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, payload = run_json(capsys, "certify", "--model", str(path))
        assert code == 1
        assert payload["hermitian"] is False and payload["positive"] is False
        assert payload["residual_zero"] is True

    def test_certify_rejects_uncoupled_model(self, capsys):
        code, out, err = run(capsys, "certify", "--model", SHIFTED)
        assert code == 2

    def test_residual_shifted_expquad(self, capsys):
        code, payload = run_json(
            capsys, "residual", "--model", SHIFTED, "--theta", "expquad:exp(-2p)"
        )
        assert code == 0
        assert payload["residual_zero"] is True

    def test_residual_failure_exit_code(self, capsys):
        code, payload = run_json(
            capsys, "residual", "--model", SHIFTED, "--theta", "expquad:exp(-3p)"
        )
        assert code == 1
        assert payload["residual_zero"] is False

    def test_residual_identity_for_hermitian_candidate(self, capsys):
        code, payload = run_json(capsys, "residual", "--model", IX3, "--theta", "one")
        assert code == 1  # H = p^2 + i g x^3 is not hermitian, Theta = 1 fails


class TestFamily:
    @pytest.mark.parametrize("obs", ["p", "x"])
    def test_exact_branches(self, capsys, obs):
        code, payload = run_json(capsys, "family", "--model", QUADRATIC, "--observable", obs)
        assert code == 0
        assert payload["metric_residual_zero"] is True
        assert payload["observable_residual_zero"] is True
        assert payload["branch_identities_zero"] is True

    def test_x_branch_flags_alternative(self, capsys):
        code, payload = run_json(capsys, "family", "--model", QUADRATIC, "--observable", "x")
        assert payload["alternative_t_c_over_2b_residual_zero"] is False

    def test_number_observable(self, capsys):
        code, payload = run_json(
            capsys, "family", "--model", QUADRATIC, "--observable", "N", "--order", "3"
        )
        assert code == 0
        assert payload["hermitian"] and payload["positive"] and payload["log_linear_in_N"]

    def test_number_observable_at_order_zero(self, capsys):
        code, payload = run_json(
            capsys, "family", "--model", QUADRATIC, "--observable", "N", "--order", "0"
        )
        assert code == 0 and payload["order"] == 0 and payload["metric_residual_zero"] is True


class TestOtherCommands:
    def test_check_hermitian_exit_codes(self, capsys, tmp_path):
        code, payload = run_json(capsys, "check-hermitian", "--model", IX3)
        assert code == 1 and payload["hermitian"] is False
        hermitian_model = {
            "name": "free",
            "hamiltonian": {"terms": [{"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}]},
        }
        path = tmp_path / "free.json"
        path.write_text(json.dumps(hermitian_model), encoding="utf-8")
        code, payload = run_json(capsys, "check-hermitian", "--model", str(path))
        assert code == 0 and payload["hermitian"] is True

    @pytest.mark.parametrize(
        "im_hbar0, im_hbar1, options, hermitian",
        [
            # x p + i hbar/2 is hermitian at every hbar
            ("0", "1/2", {"hbar": "2"}, True),
            # dagger(x p + i) - (x p + i) = i hbar - 2 i: zero at hbar = 2 alone
            ("1", "0", {"hbar": "2"}, True),
            ("1", "0", {}, False),
        ],
    )
    def test_check_hermitian_decides_at_the_models_hbar(
        self, capsys, tmp_path, im_hbar0, im_hbar1, options, hermitian
    ):
        term = lambda x, p, h, re, im: {"x": x, "p": p, "hbar": h, "coeff": {"re": re, "im": im}}
        terms = [term(1, 1, 0, "1", "0"), term(0, 0, 0, "0", im_hbar0), term(0, 0, 1, "0", im_hbar1)]
        model = {"name": "xp", "hamiltonian": {"terms": terms}, "options": options}
        path = tmp_path / "xp.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, payload = run_json(capsys, "check-hermitian", "--model", str(path))
        assert (code, payload) == (0 if hermitian else 1, {"model": "xp", "hermitian": hermitian})

    def test_dagger_output(self, capsys):
        code, payload = run_json(capsys, "dagger", "--model", QUADRATIC, "--latex")
        assert code == 0
        assert "latex" in payload

    def test_star_command(self, capsys):
        code, payload = run_json(capsys, "star", "--model", SHIFTED, "--theta", "p^2")
        assert code == 0
        assert "h_star_theta" in payload and "theta_star_hdagger" in payload

    def test_pde_shifted(self, capsys):
        code, payload = run_json(capsys, "pde", "--model", SHIFTED)
        assert code == 0
        slots = {(c["dx"], c["dp"]) for c in payload["coefficients"]}
        assert slots == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}

    def test_berry_osc(self, capsys):
        code, payload = run_json(capsys, "berry-osc", "--q1", "1", "--q2", "1")
        assert code == 0
        assert payload["curvature_zero"] and payload["residuals_zero"]
        assert payload["point"]["locus_value"] == "5"

    def test_berry2x2(self, capsys):
        code, payload = run_json(capsys, "berry2x2", "--trials", "3", "--seed", "11")
        assert code == 0
        assert payload["rank_deficient_at"] == [[0.0, 1.0], [0.0, -1.0]]

    def test_berry2x2_zero_trials(self, capsys):
        code, payload = run_json(capsys, "berry2x2", "--trials", "0")
        assert code == 0
        assert payload["trials"] == 0
        assert payload["max_connection_mismatch"] == 0.0
        assert payload["max_equation_residual"] == 0.0

    def test_berry2x2_solves_its_trials_in_one_call(self, capsys, monkeypatch):
        from starmetric import berry

        solve = berry.solve_connection_stack
        stacks = []

        def counting(q, *args, **kwargs):
            stacks.append(np.asarray(q).tolist())
            return solve(q, *args, **kwargs)

        monkeypatch.setattr(berry, "solve_connection_stack", counting)
        code, payload = run_json(capsys, "berry2x2", "--trials", "100", "--seed", "7")
        assert code == 0
        # one stack: the trials, then the two exceptional-point probes
        trials = berry.sample_regular_points(np.random.default_rng(7), 100).tolist()
        assert stacks == [trials + [[0.0, 1.0], [0.0, -1.0]]]
        assert payload.pop("max_connection_mismatch") <= 1e-12
        assert payload.pop("max_equation_residual") <= 1e-12
        # what the per-point loop printed; the solver's roundoff is not pinned
        assert payload == {
            "monodromy": [["-1+3.34438437995e-16j", "-3.34438437995e-16-2j"], ["+0+0j", "+1+0j"]],
            "monodromy_error": 5.559355134491135e-16,
            "eigenvector_swap_error": 2.3714374201337736e-16,
            "product_form_error": 4.9349242254803015e-05,
            "trials": 100,
            "rank_deficient_at": [[0.0, 1.0], [0.0, -1.0]],
            "curvature_norm_at_sample": 2.2020249365036136e-10,
        }

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--trials", "0"], "9704a564b30932177c31ddf87f06897a00d7e719f3f6431a2738e9db3aacd215"),
            (["--trials", "1"], "c8d367c66ddab94898f143de40b77ec6805acd9d8eaefcfca49477bd4e830146"),
            (["--trials", "128"], "7b57f74d401812402d36954beff239804e6a3b2184bc5d4cf2007a6f849a34b1"),
            (["--trials", "129"], "909440dedeb59574aa20db6efb4c6d36f2203b30fb606cda3af2684878324a70"),
            (["--trials", "256"], "961427fdb3edf5f64323506da292153a92b2810dcc8113647bc4d5bd10115ea8"),
            (["--trials", "257"], "5a8e85ec0885b454b23008c6d132c25165477d0facf3225567a564b9eb5b59b2"),
            (["--trials", "385"], "eb6e44550f387ec65acf108bfc13c81793919a86d4bdfba8fe422c77a50f2db0"),
            (["--trials", "20", "--seed", "7"],
             "4d0ec42a129bcf28cd3da0bac08c358bc8df6be682351454459f4ba7290e273e"),
        ],
        ids=["0", "1", "128", "129", "256", "257", "385", "readme-20-seed-7"],
    )
    def test_berry2x2_matches_pinned_sha256(self, capsys, argv, digest):
        # 128 trials fill the first block, 129 and 256 solve a second one, 257
        # and 385 end on a partial third and fourth one
        code, out, err = run(capsys, "berry2x2", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "block, bad",
        [([(0.5, 0.25), (0.0, 1.0), (0.3, -0.2)], "(0.0, 1.0)"),
         ([(0.0, -1.0), (0.0, 1.0)], "(0.0, -1.0)"),
         ([(0.0, 1.0)], "(0.0, 1.0)"),
         ([(0.5, 0.25)] * berry.TRIAL_BLOCK + [(0.3, -0.2), (0.0, 1.0)], "(0.0, 1.0)")],
    )
    def test_berry2x2_names_a_singular_trial_point(self, capsys, monkeypatch, block, bad):
        # an exceptional point among the trials fails as that trial, with the
        # probes stacked after the first block; the last case's first block
        # is clean and its second block holds (0, 1)
        points = iter(block)
        monkeypatch.setattr(
            berry, "sample_regular_points",
            lambda rng, count: np.array([next(points) for _ in range(count)]),
        )
        with pytest.raises(berry.RankDeficient) as exc:
            main(["berry2x2", "--trials", str(len(block))])
        assert str(exc.value) == f"connection system singular at q = {bad}"
        assert capsys.readouterr() == ("", "")

    def test_scan_locus_grid(self, capsys):
        code, payload = run_json(capsys, "scan-locus", "--q1=-1:1:3", "--q2=0:2:2")
        assert code == 0
        assert payload["count"] == 6
        signs = {(r["q1"], r["q2"]): r["region_sign"] for r in payload["records"]}
        assert signs[(-1.0, 0.0)] == -1 and signs[(1.0, 2.0)] == 1
        assert signs[(-1.0, 2.0)] == 0  # 4(-1) + 4 = 0: on the locus

    def test_scan_locus_sign_is_exact_where_the_float_underflows(self, capsys):
        # 4 q1 + q2^2 is -3e-400, 1e-400 and 5e-400: every float is a zero
        code, payload = run_json(capsys, "scan-locus", "--q1=-1e-400:1e-400:3", "--q2=1e-200")
        assert code == 0
        got = [(repr(r["locus_value"]), r["region_sign"]) for r in payload["records"]]
        assert got == [("-0.0", -1), ("0.0", 1), ("0.0", 1)]
        code, payload = run_json(capsys, "scan-locus", "--q1=1e-400", "--q2=0")
        assert code == 0
        (rec,) = payload["records"]
        assert (repr(rec["locus_value"]), rec["region_sign"]) == ("0.0", 1)

    def test_scan_locus_jobs_deterministic(self, capsys):
        _, out1, _ = run(capsys, "scan-locus", "--q1=-1:1:3", "--q2=0:2:2", "--jobs", "2")
        _, out2, _ = run(capsys, "scan-locus", "--q1=-1:1:3", "--q2=0:2:2")
        assert json.loads(out1)["records"] == json.loads(out2)["records"]

    def test_scan_locus_oscillator_point(self, capsys):
        code, payload = run_json(
            capsys, "scan-locus", "--omega", "1", "--alpha", "0", "--beta", "0"
        )
        assert code == 0
        rec = payload["records"][0]
        assert rec["locus_value"] == 4.0 and rec["region_sign"] == 1

    @pytest.mark.xfail(
        strict=True,
        reason="--omega, --alpha and --beta are parsed as floats; the benchmark's own "
        "tracer test still counts this point as a known failure",
    )
    def test_scan_locus_oscillator_point_on_locus(self, capsys):
        # alpha * beta = 0.09 * 0.25 = 0.3^2 / 4 = omega^2 / 4 exactly
        code, payload = run_json(
            capsys, "scan-locus", "--omega=0.3", "--alpha=0.09", "--beta=0.25"
        )
        assert code == 0
        (rec,) = payload["records"]
        assert rec["region_sign"] == 0 and rec["locus_value"] == 0.0
        assert (rec["q1"], rec["q2"]) == (-16.0, 8.0)
        assert (rec["omega"], rec["alpha"], rec["beta"]) == (0.3, 0.09, 0.25)

    def test_finite_oracle(self, capsys):
        code, payload = run_json(
            capsys, "finite-oracle", "--n", "3", "--trials", "5", "--seed", "9"
        )
        assert code == 0
        assert payload["failures"] == 0

    def test_finite_oracle_without_trials(self, capsys):
        code, out, err = run(capsys, "finite-oracle", "--n", "3", "--trials", "0")
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "n": 3,\n  "trials": 0,\n  "passes": 0,\n  "failures": 0,\n'
            '  "max_deviation": 0.0,\n  "tolerance": 1e-10\n}\n'
        )

    def test_emit_latex(self, capsys):
        code, payload = run_json(capsys, "emit-latex", "--model", IX3, "--order", "1")
        assert code == 0
        assert payload["hamiltonian"] == "p^{2} + i g x^{3}"
        assert "metric_series" in payload


class TestErrorHandling:
    @pytest.mark.parametrize("command", ["solve", "certify", "starlog"])
    def test_unsolvable_order_is_a_failed_verification(self, capsys, monkeypatch, command):
        def unsolvable(*args, **kwargs):
            raise UnsolvableOrder("triangular system inconsistent at order 1")

        monkeypatch.setattr(cli, "solve_perturbative", unsolvable)
        code, out, err = run(capsys, command, "--model", IX3, "--order", "1")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "triangular system inconsistent at order 1"}

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_wrong_solution_fails_the_solvers_residual_check(self, capsys, monkeypatch, command):
        # solve and certify report residual_zero from the solver's own check
        # of each order's residual: a wrong Theta_n must end in UnsolvableOrder
        solution = metric._exchange_solution

        def corrupted(*args):
            theta = solution(*args)
            key = max(theta.terms)
            return theta + PhasePoly({key: theta.terms[key]})

        monkeypatch.setattr(metric, "_exchange_solution", corrupted)
        code, out, err = run(capsys, command, "--model", IX3, "--order", "2")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "triangular system inconsistent at order 1"}

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_solved_series_residual_is_not_recomputed(self, capsys, monkeypatch, command):
        def not_computed(*args):
            raise AssertionError("the residual was recomputed")

        monkeypatch.setattr(cli, "metric_residual", not_computed)
        code, payload = run_json(capsys, command, "--model", IX3, "--order", "3")
        assert code == 0 and payload["residual_zero"] is True

    def test_coupling_named_like_a_declared_parameter_exits_2(self, capsys, tmp_path):
        model = copy.deepcopy(PARAM_IX3)
        model["hamiltonian"]["coupling"]["name"] = "a"
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "solve", "--model", str(path), "--order", "1")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "coupling 'a' is also a declared parameter"}

    def test_malformed_json_line_column(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": oops\n}', encoding="utf-8")
        code, out, err = run(capsys, "residual", "--model", str(path), "--theta", "one")
        assert code == 2
        assert "line 2" in err and "column" in err

    def test_unknown_model_keys_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps({"name": "m", "hamiltonian": {"terms": []}, "surprise": 1}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "solve", "--model", str(path))
        assert code == 2 and "surprise" in err

    def test_unknown_option_keys_rejected(self, tmp_path):
        path = tmp_path / "opt.json"
        path.write_text(
            json.dumps({"name": "m", "hamiltonian": {"terms": []}, "options": {"tolerance": 1}}),
            encoding="utf-8",
        )
        with pytest.raises(ModelError):
            load_model(path)

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", "--model", "nope.json")
        assert code == 2

    def test_bad_theta_expression(self, capsys):
        code, out, err = run(capsys, "residual", "--model", SHIFTED, "--theta", "exp(-2p")
        assert code == 2

    @pytest.mark.parametrize("theta", ["x/0", "1/(0)", "x/(p-p)"])
    def test_division_by_zero_in_theta_names_it(self, capsys, theta):
        code, out, err = run(capsys, "star", "--model", SHIFTED, "--theta", theta)
        assert code == 2 and not out
        assert json.loads(err) == {"error": "division by zero"}

    def test_scan_locus_degenerate_oscillator_point(self, capsys):
        # omega = alpha + beta makes a = 0, so (q1, q2) is undefined
        code, out, err = run(
            capsys, "scan-locus", "--omega", "1", "--alpha", "0.5", "--beta", "0.5"
        )
        assert code == 2 and not out
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--omega", "1e400", "--alpha", "0", "--beta", "0"),
            ("--omega", "1", "--alpha", "inf", "--beta", "0"),
        ],
    )
    def test_scan_locus_infinite_oscillator_parameter_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "scan-locus", *flags)
        assert code == 2 and not out
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "flags", [("--q1=1e400", "--q2=0"), ("--q1=0", "--q2=1e200"), ("--q1=0:1e400:2", "--q2=0")]
    )
    def test_scan_locus_grid_past_float_range_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "scan-locus", *flags)
        assert code == 2 and not out
        assert "float" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("berry-osc", "--q1=1/0"), "--q1 and --q2"),
            (("berry-osc", "--q2=1"), "--q1 and --q2"),
            (("scan-locus", "--alpha=1"), "--omega, --alpha and --beta"),
            (("scan-locus", "--beta=1", "--q1=0"), "--omega, --alpha and --beta"),
            (("scan-locus", "--omega=1", "--alpha=0.1", "--beta=0.2", "--q1=1"), "--q1"),
            (("scan-locus", "--omega=1", "--alpha=0.1", "--beta=0.2", "--q2=1"), "--q2"),
            # an empty value is a given flag, not an absent one
            (("scan-locus", "--q1="), "--q1 needs a value"),
            (("scan-locus", "--q2="), "--q2 needs a value"),
            (("scan-locus", "--q1=0", "--q2", ""), "--q2 needs a value"),
            (("starlog", "--series=", "--model", IX3), "--series needs a value"),
            (("starlog", "--model", IX3, "--series", ""), "--series needs a value"),
        ],
    )
    def test_incomplete_flag_set_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert message in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "coeff, options",
        [
            ({"re": 0.1, "im": "0"}, {}),
            ({"re": "1", "im": True}, {}),
            ({"re": "1", "im": "0"}, {"hbar": 0.5}),
            ({"re": "1", "im": "0"}, {"numeric": {"a": "3/2", "b": 0.5}}),
            ({"re": "1/0", "im": "0"}, {}),
            ({"re": "1", "im": "0"}, {"hbar": "1/0"}),
        ],
    )
    def test_model_with_non_exact_rational_exits_2(self, capsys, tmp_path, coeff, options):
        term = {"x": 0, "p": 2, "hbar": 0, "coeff": coeff}
        hamiltonian = {"params": ["a", "b"], "terms": [term]}
        model = {"name": "m", "hamiltonian": hamiltonian, "options": options}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "dagger", "--model", str(path))
        assert code == 2 and not out
        assert "exact rational" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["berry-osc", "--q1", "1e100000000", "--q2", "0"],
            ["scan-locus", "--q1", "1E-1_0000_0000", "--q2", "0"],
            ["dagger", "--model", "{model}"],
        ],
    )
    def test_huge_decimal_exponent_exits_2_fast(self, tmp_path, argv):
        # Fraction would build 10^(10^8) for minutes before any check ran
        term = {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1e100000000", "im": "0"}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"name": "m", "hamiltonian": {"terms": [term]}}))
        argv = [arg.format(model=path) for arg in argv]
        proc = subprocess.run(CLI + argv, env=CLI_ENV, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2 and not proc.stdout
        assert "exponent" in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["berry-osc", "--q1", "1e4300", "--q2", "0"],
            ["berry-osc", "--q1", "0", "--q2", "1e2200"],  # locus value q2^2 has 4401 digits
            ["dagger", "--model", "{model}"],
            ["dagger", "--model", "{model}", "--latex"],
            ["family", "--model", "{model}", "--observable", "N", "--order", "1"],
        ],
    )
    def test_result_past_the_output_digit_limit_exits_2(self, capsys, tmp_path, argv):
        # 1e4300 is the largest decimal exponent as_fraction reads; printed,
        # it has 4301 digits
        model = json.loads(Path(QUADRATIC).read_text(encoding="utf-8"))
        model["hamiltonian"]["terms"].append(
            {"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1e4300", "im": "0"}}
        )
        model["options"]["numeric"]["a"] = "1e4300"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(model=path) for arg in argv))
        assert code == 2 and not out
        assert "output limit of 4300 digits" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--model", "{model}", "--order", "2"],
            ["star", "--model", "{model}", "--theta", "x"],
            ["starlog", "--model", "{model}", "--order", "2"],
        ],
    )
    def test_series_past_the_output_digit_limit_exits_2(self, capsys, tmp_path, argv):
        # the payload holds the PhasePoly or CouplingSeries itself, and its
        # text is written inside main's error handling: V x has the printed
        # 1e4300 x^2, and Theta_2 numerators near 10^8600
        model = json.loads(Path(IX3).read_text(encoding="utf-8"))
        model["hamiltonian"]["coupling"]["V"].append(
            {"x": 1, "p": 0, "hbar": 0, "coeff": {"re": "1e4300", "im": "0"}}
        )
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(model=path) for arg in argv))
        assert code == 2 and not out
        assert "output limit of 4300 digits" in json.loads(err)["error"]

    @pytest.mark.parametrize("where", ["flag", "model", "theta-coefficient", "theta-exponent"])
    def test_number_past_the_input_digit_limit_exits_2(self, capsys, tmp_path, where):
        # Fraction, or int in the --theta parser, would stop at CPython's int
        # parse limit with a message that names none of ours
        ones = "1" * 4400
        if where == "flag":
            argv = ("berry-osc", "--q1", ones, "--q2", "0")
        elif where == "theta-coefficient":
            argv = ("star", "--model", SHIFTED, "--theta", f"{ones} x + p")
        elif where == "theta-exponent":
            argv = ("star", "--model", SHIFTED, "--theta", f"x^{ones}")
        else:
            term = {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": ones, "im": "0"}}
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"name": "m", "hamiltonian": {"terms": [term]}}))
            argv = ("dagger", "--model", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert "input limit of 4300 digits" in error and "set_int_max_str_digits" not in error

    def test_numeric_value_for_an_undeclared_parameter_exits_2(self, capsys, tmp_path):
        model = json.loads(Path(IX3).read_text(encoding="utf-8"))
        model.setdefault("options", {})["numeric"] = {"z": "1"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "dagger", "--model", str(path))
        assert code == 2 and not out
        assert "numeric" in json.loads(err)["error"]

    def test_series_with_float_coefficient_exits_2(self, capsys, tmp_path):
        one = {"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        x = {"x": 1, "p": 0, "hbar": 0, "coeff": {"re": "0", "im": 0.5}}
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"coupling": "g", "coeffs": [[one], [x]]}), encoding="utf-8")
        code, out, err = run(capsys, "starlog", "--series", str(path))
        assert code == 2 and not out
        assert "exact rational" in json.loads(err)["error"]

    def test_model_with_non_integral_order_exits_2(self, capsys, tmp_path):
        p2 = {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        ix3 = {"x": 3, "p": 0, "hbar": 0, "coeff": {"re": "0", "im": "1"}}
        model = {
            "name": "m",
            "hamiltonian": {"terms": [p2], "coupling": {"name": "g", "V": [ix3]}},
            "options": {"order": 2.7},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "solve", "--model", str(path))
        assert code == 2 and not out
        assert "2.7" in json.loads(err)["error"]

    def test_model_with_bool_order_exits_2(self, capsys, tmp_path):
        p2 = {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        ix3 = {"x": 3, "p": 0, "hbar": 0, "coeff": {"re": "0", "im": "1"}}
        model = {
            "name": "m",
            "hamiltonian": {"terms": [p2], "coupling": {"name": "g", "V": [ix3]}},
            "options": {"order": True},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "solve", "--model", str(path))
        assert code == 2 and not out
        assert "exponent" in json.loads(err)["error"]

    def test_model_with_bool_exponent_exits_2(self, capsys, tmp_path):
        p2 = {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        term = {"x": True, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        model = {"name": "m", "hamiltonian": {"terms": [p2, term]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "dagger", "--model", str(path))
        assert code == 2 and not out
        assert "exponent" in json.loads(err)["error"]

    def test_series_with_non_integral_order_exits_2(self, capsys, tmp_path):
        one = {"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        series = {"coupling": "g", "order": 2.7, "coeffs": [[one], [], []]}
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series), encoding="utf-8")
        code, out, err = run(capsys, "starlog", "--series", str(path))
        assert code == 2 and not out
        assert "2.7" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("pde",),
            ("residual", "--theta", "expquad:exp(-2p)"),
            ("star", "--theta", "expquad:exp(-2p)"),
        ],
        ids=["pde", "residual-expquad", "star-expquad"],
    )
    def test_pde_with_negative_p_power_in_dagger_exits_2(self, tmp_path, argv):
        # H = p^2 + i x/p: the p-derivative chain of dagger(H) never vanishes,
        # in the PDE form and in the products with a Gaussian alike
        model = {
            "name": "inverse-p",
            "hamiltonian": {
                "terms": [
                    {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}},
                    {"x": 1, "p": -1, "hbar": 0, "coeff": {"re": "0", "im": "1"}},
                ]
            },
        }
        path = tmp_path / "inverse_p.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        proc = subprocess.run(
            CLI + [argv[0], "--model", str(path), *argv[1:]],
            env=CLI_ENV,
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 2 and not proc.stdout
        assert "p powers" in json.loads(proc.stderr)["error"]

    def test_closed_stdout_is_not_a_traceback(self):
        argv = CLI + ["star", "--model", SHIFTED, "--theta", "expquad:exp(-2p)"]
        with subprocess.Popen(
            argv, env=CLI_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            proc.stdout.close()  # before the child has printed anything
            try:
                _, err = proc.communicate(timeout=30)
            finally:
                proc.kill()
        assert proc.returncode == 0
        assert b"Traceback" not in err and b"Exception ignored" not in err

    def test_reader_closing_a_long_report_is_not_an_error(self):
        # about 4 MB: more than a pipe holds, so the write itself breaks
        argv = CLI + ["scan-locus", "--q1=-3:3:200", "--q2=-3:3:200"]
        with subprocess.Popen(
            argv, env=CLI_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            try:
                assert proc.stdout.readline() == b"{\n"
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (0, b"")

    def test_deeply_nested_theta_exits_2(self, capsys):
        theta = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run(capsys, "star", "--model", SHIFTED, "--theta", theta)
        assert code == 2 and not out
        assert "nested too deeply" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "theta, limit",
        [
            ("3^99999999", "output limit of 4300 digits"),
            ("3^3000000", "output limit of 4300 digits"),
            ("3^9013", "output limit of 4300 digits"),
            ("(p/3)^-9013", "output limit of 4300 digits"),
            ("(x+p+hbar)^300", "limit of 1000 terms"),
            ("((x+p)^20)^5000", "limit of 1000 terms"),
            # an exponent past what a float holds
            pytest.param("3^1" + "0" * 400, "output limit of 4300 digits", id="3^1e400"),
            pytest.param("(x+p)^1" + "0" * 400, "limit of 1000 terms", id="(x+p)^1e400"),
        ],
    )
    def test_theta_power_past_a_limit_exits_2_fast(self, theta, limit):
        # each power ran for seconds to minutes before the output limit, if
        # any, refused its result
        argv = CLI + ["star", "--model", SHIFTED, "--theta", theta]
        proc = subprocess.run(argv, env=CLI_ENV, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2 and not proc.stdout
        error = json.loads(proc.stderr)["error"]
        assert "power" in error and limit in error

    @pytest.mark.parametrize(
        "theta, limit",
        [
            ("(x+p+hbar)^30*(x+p+hbar)^30", "limit of 1000 terms"),
            ("(x+p+hbar)^30 (x+p+hbar)^30", "limit of 1000 terms"),
            ("(x+p+hbar)^40*(1+x+p+hbar)", "limit of 1000 terms"),
            ("(2/3+x/5)^999", "work limit"),
            ("(123456789/987654321+x/5)^400", "work limit"),
            ("(2/3+x/5)^500*(2/3+x/5)^499", "work limit"),
        ],
    )
    def test_theta_product_past_a_limit_exits_2_fast(self, theta, limit):
        # each product or power was inside the term and digit limits alone,
        # and ran for seconds to minutes
        argv = CLI + ["star", "--model", SHIFTED, "--theta", theta]
        proc = subprocess.run(argv, env=CLI_ENV, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2 and not proc.stdout
        assert limit in json.loads(proc.stderr)["error"]

    def test_theta_work_is_budgeted_per_expression(self):
        # P parses in about half a second, inside every limit; a sum of
        # copies of P ran for as many times that
        one = "(2/3+x/5)^150*(2/3+x/5)^150"
        parser = exprparse._Parser(exprparse._tokenize(one))
        assert len(parser.expr().terms) == 301
        copies = int(exprparse.MAX_WORK // parser.work) + 1
        argv = CLI + ["star", "--model", SHIFTED, "--theta", "+".join([one] * copies)]
        proc = subprocess.run(argv, env=CLI_ENV, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2 and not proc.stdout
        assert "work limit" in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize(
        "theta, terms",
        [
            ("x^99999999", 1),
            pytest.param("x^1" + "0" * 400, 1, id="x^1e400"),
            ("i^-1", 1),
            ("3^9012", 1),
            ("(1+i)^20000", 1),
            ("(x+p+hbar)^43", 990),
        ],
    )
    def test_theta_power_within_the_limits_runs(self, capsys, theta, terms):
        # 3^9012 has 4300 digits, the most that print; (1+i)^20000 = 2^10000
        # has 3011, and (x+p+hbar)^43 has 990 terms
        assert len(parse_poly(theta).terms) == terms
        code, payload = run_json(capsys, "star", "--model", SHIFTED, "--theta", theta)
        assert code == 0 and set(payload) == {"h_star_theta", "theta_star_hdagger"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--model", "{deep}"),
            ("starlog", "--series", "{deep}"),
            ("residual", "--model", IX3, "--theta", "series:{deep}"),
            ("star", "--model", SHIFTED, "--theta", "expquad:{deep}"),
        ],
        ids=["model", "starlog-series", "theta-series", "theta-expquad"],
    )
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(deep=deep) for arg in argv))
        assert code == 2 and not out
        assert "nested too deeply" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "series, key",
        [
            ({"coupling": "g", "coeffs": [[{"x": 0, "p": 0, "hbar": 0}]]}, "coeff"),
            ({"coupling": "g", "coeffs": [[{"coeff": {"params": ["a"]}}]]}, "terms"),
            ({"coupling": "g", "coeffs": [[{"coeff": {"params": ["a"], "terms": [{}]}}]]}, "coeff"),
            ({"coupling": "g"}, "coeffs"),
            ({"coeffs": [[]]}, "coupling"),
        ],
    )
    def test_series_without_required_key_exits_2(self, capsys, tmp_path, series, key):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series), encoding="utf-8")
        code, out, err = run(capsys, "starlog", "--series", str(path))
        assert code == 2 and not out
        assert repr(key) in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "term",
        [
            {"x": 1.5, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}},
            {"x": 0, "p": "1/2", "hbar": 0, "coeff": {"re": "1", "im": "0"}},
            {"x": 0, "p": 0, "hbar": None, "coeff": {"re": "1", "im": "0"}},
            {"coeff": {"params": ["a"], "terms": [{"powers": {"a": 0.5}, "coeff": {"re": "1"}}]}},
        ],
    )
    def test_series_with_non_integer_exponent_exits_2(self, capsys, tmp_path, term):
        one = {"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"coupling": "g", "coeffs": [[one], [term]]}), encoding="utf-8")
        code, out, err = run(capsys, "starlog", "--series", str(path))
        assert code == 2 and not out
        assert "exponent" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "term",
        [
            {"x": 2.5, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}},
            {"x": 2, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}, "params": {"a": 1.5}},
        ],
    )
    def test_model_with_non_integer_exponent_exits_2(self, capsys, tmp_path, term):
        p2 = {"x": 0, "p": 2, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
        model = {"name": "m", "hamiltonian": {"params": ["a"], "terms": [p2, term]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "dagger", "--model", str(path))
        assert code == 2 and not out
        assert "exponent" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("berry-osc", "--q1=1/0", "--q2=0"),
            ("scan-locus", "--q1=1/0", "--q2=0"),
            ("scan-locus", "--q1=0:1:2", "--q2=1/0"),
        ],
    )
    def test_zero_denominator_flag_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "denominator" in json.loads(err)["error"]

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_finite_oracle_below_two_exits_2(self, capsys, n):
        for trials in ("2", "0"):
            code, out, err = run(capsys, "finite-oracle", "--n", n, "--trials", trials)
            assert code == 2 and not out
            assert "at least 2" in json.loads(err)["error"]

    def test_finite_oracle_past_the_size_limit_exits_2(self, capsys, monkeypatch):
        # N = 10^5 would need 10^10-entry tables: refused before any is built
        def no_tables(n):
            raise AssertionError(f"the N = {n} tables were built")

        monkeypatch.setattr(weyl, "_tables", no_tables)
        code, out, err = run(capsys, "finite-oracle", "--n", "100000")
        assert code == 2 and not out
        message = f"--n 100000 is past the limit of N = {cli.MAX_ORACLE_N}"
        assert json.loads(err) == {"error": message}

    def test_berry2x2_trials_at_and_past_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BERRY_TRIALS", 3)
        code, payload = run_json(capsys, "berry2x2", "--trials", "3")
        assert code == 0 and payload["trials"] == 3
        monkeypatch.setattr(berry, "holonomy_exceptional", _no_work)
        monkeypatch.setattr(berry, "trial_errors", _no_work)
        code, out, err = run(capsys, "berry2x2", "--trials", "4")
        assert code == 2 and not out
        assert json.loads(err) == {"error": "--trials 4 is past the limit of 3 trials"}

    def test_finite_oracle_work_at_and_past_the_limit(self, capsys, monkeypatch):
        # trials x (N^3 + 512): 2 trials at N = 3 are 1078
        monkeypatch.setattr(cli, "MAX_ORACLE_WORK", 1078)
        code, payload = run_json(capsys, "finite-oracle", "--n", "3", "--trials", "2")
        assert code == 0 and payload["trials"] == 2
        monkeypatch.setattr(weyl, "oracle_run", _no_work)
        for argv in (("--n", "3", "--trials", "3"), ("--n", "4", "--trials", "2")):
            code, out, err = run(capsys, "finite-oracle", *argv)
            assert code == 2 and not out
            n, trials = argv[1], argv[3]
            message = (
                f"--trials {trials} at N = {n} is past the limit of 1078 for trials x (N^3 + 512)"
            )
            assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize(
        "argv",
        [
            ("berry2x2", "--trials", str(cli.MAX_BERRY_TRIALS + 1)),
            ("finite-oracle", "--n", "2", "--trials", str(cli.MAX_ORACLE_WORK // 520 + 1)),
            ("finite-oracle", "--n", "128",
             "--trials", str(cli.MAX_ORACLE_WORK // (128**3 + 512) + 1)),
        ],
        ids=["berry2x2", "finite-oracle-n2", "finite-oracle-n128"],
    )
    def test_trials_one_past_the_real_limit_exit_2_at_once(self, capsys, monkeypatch, argv):
        # refused before any work: a call at the limit runs about 10 s
        monkeypatch.setattr(berry, "holonomy_exceptional", _no_work)
        monkeypatch.setattr(berry, "trial_errors", _no_work)
        monkeypatch.setattr(weyl, "oracle_run", _no_work)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert "is past the limit of" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "command, model",
        [
            (("solve",), IX3),
            (("certify",), IX3),
            (("starlog",), IX3),
            (("emit-latex",), IX3),
            (("family", "--observable", "N"), QUADRATIC),
        ],
    )
    def test_order_past_the_size_limit_exits_2(
        self, capsys, monkeypatch, tmp_path, command, model
    ):
        # an order of 10^8 runs unbounded: refused, from --order or from
        # options.order, before any series is built
        def no_series(*args, **kwargs):
            raise AssertionError("a series was built")

        monkeypatch.setattr(cli, "solve_perturbative", no_series)
        monkeypatch.setattr(cli, "expand_gaussian_in_coupling", no_series)
        obj = json.loads(Path(model).read_text(encoding="utf-8"))
        obj.setdefault("options", {})["order"] = 10**8
        in_options = tmp_path / "model.json"
        in_options.write_text(json.dumps(obj), encoding="utf-8")
        message = f"order 100000000 is past the limit of order {cli.MAX_ORDER}"
        for flags in (("--model", model, "--order", "100000000"), ("--model", str(in_options))):
            code, out, err = run(capsys, *command, *flags)
            assert code == 2 and not out
            assert json.loads(err) == {"error": message}

    def test_series_file_past_the_size_limit_exits_2(self, capsys, monkeypatch, tmp_path):
        def not_computed(*args):
            raise AssertionError("a series was computed")

        monkeypatch.setattr(cli, "star_log", not_computed)
        monkeypatch.setattr(cli, "metric_residual", not_computed)
        series = tmp_path / "series.json"
        coeffs = [[{"coeff": {"re": "1", "im": "0"}}]] + [[] for _ in range(1000)]
        series.write_text(json.dumps({"coupling": "g", "coeffs": coeffs}), encoding="utf-8")
        message = f"order 1000 is past the limit of order {cli.MAX_ORDER}"
        for argv in (
            ("starlog", "--series", str(series)),
            ("residual", "--model", IX3, "--theta", f"series:{series}"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert json.loads(err) == {"error": message}

    def test_certify_checks_every_order_before_solving(self, capsys, monkeypatch, tmp_path):
        def no_series(*args, **kwargs):
            raise AssertionError("a series was built")

        monkeypatch.setattr(cli, "solve_perturbative", no_series)
        obj = json.loads(Path(IX3).read_text(encoding="utf-8"))
        obj.setdefault("options", {})["order"] = 10**8
        high = tmp_path / "high.json"
        high.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--model", IX3, "--model", str(high))
        assert code == 2 and not out
        message = f"order 100000000 is past the limit of order {cli.MAX_ORDER}"
        assert json.loads(err) == {"error": message}

    def test_order_at_the_size_limit_reaches_the_solver(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(h0, v, order, coupling):
            raise Reached(order)

        monkeypatch.setattr(cli, "solve_perturbative", reached)
        with pytest.raises(Reached) as exc:
            main(["solve", "--model", IX3, "--order", str(cli.MAX_ORDER)])
        assert exc.value.args == (cli.MAX_ORDER,)

    @pytest.mark.parametrize("spec", ["1:2:0", "1:2:1", "1:2:-3"])
    def test_scan_locus_range_count_below_two(self, capsys, spec):
        code, out, err = run(capsys, "scan-locus", f"--q1={spec}", "--q2=0")
        assert code == 2 and not out
        assert "count" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ("--q1=0:1:1000000000000",),
                "range '0:1:1000000000000': count is past the limit of {} grid points",
            ),
            (
                ("--q1=0:1:1001", "--q2=0:1:1001"),
                "grid of 1001 x 1001 points is past the limit of {} points",
            ),
        ],
    )
    def test_scan_locus_grid_past_the_point_limit_exits_2(self, capsys, flags, message):
        # the first range alone would be 10^12 Fractions: refused before any is built
        code, out, err = run(capsys, "scan-locus", *flags)
        assert code == 2 and not out
        assert json.loads(err) == {"error": message.format(cli.MAX_GRID_POINTS)}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1:2", "expected the form min:max:count"),
            ("0:1:3:4", "expected the form min:max:count"),
            ("0:1:x", "count 'x' is not an integer in min:max:count"),
            ("0:1:2.5", "count '2.5' is not an integer in min:max:count"),
        ],
    )
    def test_malformed_range_names_the_form(self, capsys, spec, message):
        for flags in ((f"--q1={spec}",), ("--q1=0", f"--q2={spec}")):
            code, out, err = run(capsys, "scan-locus", *flags)
            assert code == 2 and not out
            assert json.loads(err) == {"error": f"range {spec!r}: {message}"}

    @pytest.mark.parametrize(
        "argv", [("berry2x2", "--trials", "-3"), ("finite-oracle", "--n", "3", "--trials", "-2")]
    )
    def test_negative_trials_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "--trials" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("berry2x2", "--model", IX3),
            ("pde", "--model", IX3, "--order", "2"),
            ("finite-oracle", "--latex"),
            ("star", "--model", SHIFTED, "--theta", "p^2", "--jobs", "2"),
            ("certify", "--model", IX3, "--jobs", "2"),
        ],
    )
    def test_command_rejects_flags_it_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


def _theta_leaf():
    """(text, PhasePoly) of a --theta primary: an integer, i, x, p or hbar."""
    named = [("i", PhasePoly.const(GaussianRational(0, 1))), ("x", PhasePoly.x()),
             ("p", PhasePoly.p()), ("hbar", PhasePoly.hbar())]
    ints = st.integers(0, 12).map(lambda n: (str(n), PhasePoly.const(n)))
    return st.one_of(ints, st.sampled_from(named))


def _theta_monomial():
    """(text, PhasePoly, inverse) of a monomial c i^e p^j hbar^k with no x,
    as a primary, and its inverse built from c, e, j and k."""

    def build(c, e, j, k):
        text = f"({c}*i^{e} p^{j} hbar^{k})"
        coeff = GaussianRational(c) * GaussianRational(0, 1) ** e
        inverse = GaussianRational(Fraction(1, c)) * GaussianRational(0, -1) ** e
        return text, PhasePoly.monomial(coeff, 0, j, k), PhasePoly.monomial(inverse, 0, -j, -k)

    return st.builds(build, st.integers(1, 9), st.integers(0, 3), st.integers(-2, 3),
                     st.integers(-2, 2))


def _theta_node(children):
    """(text, PhasePoly) of a sum, difference, negation, product, adjacent
    product, power, quotient by a monomial or negative power of one, each
    parenthesized so that it is a primary again."""
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: (f"({ab[0][0]} + {ab[1][0]})", ab[0][1] + ab[1][1])),
        pair.map(lambda ab: (f"({ab[0][0]} - {ab[1][0]})", ab[0][1] - ab[1][1])),
        children.map(lambda a: (f"(-{a[0]})", -a[1])),
        pair.map(lambda ab: (f"({ab[0][0]}*{ab[1][0]})", ab[0][1] * ab[1][1])),
        pair.map(lambda ab: (f"({ab[0][0]} {ab[1][0]})", ab[0][1] * ab[1][1])),
        st.tuples(children, st.integers(0, 3)).map(
            lambda ak: (f"({ak[0][0]}^{ak[1]})", ak[0][1] ** ak[1])
        ),
        st.tuples(children, _theta_monomial()).map(
            lambda am: (f"({am[0][0]}/{am[1][0]})", am[0][1] * am[1][2])
        ),
        st.tuples(_theta_monomial(), st.integers(1, 3)).map(
            lambda mk: (f"({mk[0][0]}^-{mk[1]})", mk[0][2] ** mk[1])
        ),
    )


class TestThetaExpressions:
    """`exprparse` against `PhasePoly` arithmetic, and its work charge
    against the products it really takes."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(case=st.recursive(_theta_leaf(), _theta_node, max_leaves=8))
    def test_parse_equals_phasepoly_arithmetic(self, case):
        text, want = case
        pairs = []
        mul = PhasePoly.__mul__

        def counting(a, b):
            if isinstance(b, PhasePoly):
                pairs.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PhasePoly, "__mul__", counting)
            parser = exprparse._Parser(exprparse._tokenize(text))
            got = parser.expr()
        assert parser.peek() is None
        assert got == want, text
        assert parser.work >= sum(pairs), text

    def test_a_product_past_the_terms_limit_is_refused_before_it_is_taken(self, monkeypatch):
        # counting its terms after the product would first build all 490 000
        x_side = "+".join(["1"] + [f"x^{k}" for k in range(1, 700)])
        p_side = "+".join(["1"] + [f"p^{k}" for k in range(1, 700)])
        big = []
        mul = PhasePoly.__mul__

        def counting(a, b):
            if isinstance(b, PhasePoly) and len(a.terms) * len(b.terms) > exprparse.MAX_TERMS:
                big.append((len(a.terms), len(b.terms)))
            return mul(a, b)

        monkeypatch.setattr(PhasePoly, "__mul__", counting)
        with pytest.raises(exprparse.ExprError, match="limit of 1000 terms"):
            parse_poly(f"({x_side})*({p_side})")
        assert big == []


class TestParser:
    """Usage and error texts at 80 columns: they must not depend on which
    subparsers a call builds."""

    COMMANDS = (
        "{star,dagger,check-hermitian,pde,residual,solve,starlog,certify,family,"
        "berry2x2,berry-osc,scan-locus,finite-oracle,emit-latex}"
    )
    USAGE = f"usage: starmetric [-h]\n                  {COMMANDS}\n                  ...\n"

    def parse(self, capsys, monkeypatch, *argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def test_unread_flag_of_a_known_command(self, capsys, monkeypatch):
        code, out, err = self.parse(capsys, monkeypatch, "solve", "--jobs", "2")
        assert (code, out) == (2, "")
        assert err == self.USAGE + "starmetric: error: unrecognized arguments: --jobs 2\n"

    def test_unknown_command(self, capsys, monkeypatch):
        code, out, err = self.parse(capsys, monkeypatch, "frobnicate")
        assert (code, out) == (2, "")
        choices = ", ".join(f"'{c}'" for c in self.COMMANDS.strip("{}").split(","))
        assert err == (
            self.USAGE
            + "starmetric: error: argument cmd: invalid choice: 'frobnicate' "
            + f"(choose from {choices})\n"
        )

    def test_top_level_help_lists_every_command(self, capsys, monkeypatch):
        code, out, err = self.parse(capsys, monkeypatch, "-h")
        assert (code, err) == (0, "")
        assert out == (
            self.USAGE
            + "\nExact star-product calculus for metric operators and Berry connections\n"
            + f"\npositional arguments:\n  {self.COMMANDS}\n"
            + "\noptions:\n  -h, --help            show this help message and exit\n"
        )

    def test_subcommand_usage(self, capsys, monkeypatch):
        code, out, err = self.parse(capsys, monkeypatch, "certify", "--order", "x")
        assert (code, out) == (2, "")
        assert err == (
            "usage: starmetric certify [-h] [--model MODEL] [--order ORDER] [--latex]\n"
            "starmetric certify: error: argument --order: invalid int value: 'x'\n"
        )

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["starmetric", "dagger", "--model", SHIFTED])
        assert main() == 0
        assert "dagger" in json.loads(capsys.readouterr().out)


class TestCommandParser:
    """A call that names a command is read from the flag table when it
    spells each of its own flags in full, and parsed by the full parser
    otherwise; the flag table must parse as the full parser does."""

    TAILS = (
        [],
        ["-h"],
        ["--he"],
        ["--model", "m.json"],
        ["--model=m.json", "--model", "n.json"],
        ["--mod", "m"],
        ["--order", "x"],
        ["--order=-3"],
        ["--order"],
        ["--jobs", "2"],
        ["foo"],
        ["--", "--model", "a"],
        ["-3"],
        ["--la", "--latex"],
        ["--observable", "q"],
        ["--n", "5", "--trials", "2", "--seed", "x"],
        ["--q1", "-0.5", "--omega", "1e3"],
        ["--theta=-p", "--series", "s.json"],
        ["--model", "a", "--zzz"],
        ["--model", "a", "--zzz", "-h"],
        # the edge of the direct path (`cli._direct_args`)
        ["--latex=1"],
        ["--latex", "--latex"],
        ["--order", ""],
        ["--model", ""],
        ["--model="],
        ["--q1=-1", "--q2", "2"],
        ["--order", "\u0663"],
        ["--order", " 7 "],
        ["--order", "1_0"],
        ["--order", "2", "--order", "3"],
        ["--observable=N"],
        ["--omega", "nan"],
        ["--seed", "2", "--seed=x"],
        ["--model=--"],
        # values that start with "-" and hold a space
        ["--theta", "-3*p^2 + 2*i*x*p"],
        ["--theta", "- x"],
        ["--theta", "-h x"],
        ["--theta", "--theta=x y"],
        ["--theta", "--ord=1 x"],
        ["--theta", "-x y=2"],
        ["--model", "-- a"],
        ["--q1", "-1 ", "--q2", "- 2"],
        ["--order", "-3 "],
        ["--latex", "-p + x"],
    )
    # tokens for random argvs: every flag of every command, abbreviations,
    # help, the end of options and values of each kind
    OTHER_TOKENS = sorted(
        {f"--{flag}" for flag in cli._FLAGS}
        | {"--mod", "--o", "--la", "--q", "--zzz", "-h", "--help", "--", "-3"}
    )
    VALUES = (
        "", "1", "2", "-1", "0.5", "x", "nan", "p", "N", " 7 ", "\u0663", "m.json", "--", "--latex",
        "-p + x", "- 1", "-h x", "--order=1 x", "--latex x", "-1 ",
    )

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = repr(sorted(vars(parse(list(argv))).items()))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_same_as_the_full_parser(self, monkeypatch, command):
        def full(argv):
            return cli._build_parser().parse_args(argv)

        for columns, tail in itertools.product(("80", "37"), self.TAILS):
            monkeypatch.setenv("COLUMNS", columns)
            argv = [command, *tail]
            assert self.outcome(cli._parse_args, argv) == self.outcome(full, argv), argv

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_random_argvs_parse_as_the_full_parser(self, data):
        command = data.draw(st.sampled_from(list(cli._COMMANDS)))
        own = [f"--{flag}" for flag in cli._COMMANDS[command][1]]
        # half the argvs use only the command's own flags
        flag = st.sampled_from(own if data.draw(st.booleans()) else own + self.OTHER_TOKENS)
        value = st.sampled_from(self.VALUES)
        form = st.sampled_from(("spaced", "joined", "spaced", "joined", "bare"))
        group = st.tuples(form, flag, value).map(
            lambda g: {"spaced": g[1:], "joined": ["=".join(g[1:])], "bare": g[1:2]}[g[0]]
        )
        argv = [command, *itertools.chain.from_iterable(data.draw(st.lists(group, max_size=3)))]
        full = cli._build_parser().parse_args
        assert self.outcome(cli._parse_args, argv) == self.outcome(full, argv), argv

    def test_certify_models_do_not_carry_over(self, capsys, tmp_path):
        pt = tmp_path / "pt_mixed.json"
        pt.write_text(json.dumps(PT_MIXED), encoding="utf-8")
        _, both = run_json(capsys, "certify", "--model", IX3, "--model", str(pt), "--order", "2")
        assert [r["model"] for r in both["reports"]] == ["ix3", "pt_mixed"]
        code, one = run_json(capsys, "certify", "--model", IX3, "--order", "2")
        assert code == 0 and "reports" not in one and one["model"] == "ix3"

    def test_failed_parse_leaves_the_next_call_as_if_alone(self, capsys):
        good = ("certify", "--model", IX3, "--order", "2")
        alone = run(capsys, *good)
        with pytest.raises(SystemExit):
            main(["certify", "--order", "x"])
        capsys.readouterr()
        assert run(capsys, *good) == alone


# Runs the commands given as a JSON list of argvs in one fresh interpreter and
# prints, after the import and after each command, the exit code and whether
# numpy and argparse are loaded, and then each command's stdout.
_IMPORT_PROBE = """\
import contextlib, io, json, sys
from starmetric import cli
from starmetric.cli import main
from starmetric.metric import UnsolvableOrder
loaded = [[None, "numpy" in sys.modules, "argparse" in sys.modules]]
stdout = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded.append([code, "numpy" in sys.modules, "argparse" in sys.modules])
    stdout.append(out.getvalue())
print(json.dumps({"loaded": loaded, "stdout": stdout}))
"""


def _import_probe(*argvs):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        env=dict(CLI_ENV, COLUMNS="80"), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImports:
    def test_exact_commands_load_no_numpy(self):
        argvs = [[cmd, "--model", IX3, "--order", "3"] for cmd in ("solve", "certify", "starlog")]
        argvs += [["berry-osc", "--q1=1", "--q2=1"], ["scan-locus"]]
        assert _import_probe(*argvs)["loaded"] == [[None, False, False]] + [[0, False, False]] * 5

    def test_a_parse_argparse_decides_loads_it(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        probe = _import_probe(["solve", "--mod", IX3], ["solve", "-h"])
        assert probe["loaded"] == [[None, False, False], [0, False, True], [0, False, True]]
        assert probe["stdout"][0] == run(capsys, "solve", "--model", IX3)[1]
        full = cli._build_parser().parse_args
        assert probe["stdout"][1] == TestCommandParser.outcome(full, ["solve", "-h"])[1]

    def test_a_negative_theta_is_read_without_argparse(self, capsys):
        # a value that starts with "-" and holds a space is a value to
        # argparse too, unless it starts with "-h" or holds an "="
        argv = ["star", "--model", SHIFTED, "--theta", "-3*p^2 + 2*i*x*p - x^2"]
        probe = _import_probe(argv)
        assert probe["loaded"] == [[None, False, False], [0, False, False]]
        assert probe["stdout"][0] == run(capsys, *argv)[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["berry2x2", "--trials", "2"],
            ["finite-oracle", "--n", "3", "--trials", "2"],
            ["berry-osc", "--q1=1/2", "--q2=3"],
            ["scan-locus", "--q1=0:1:2", "--q2=1"],
        ],
    )
    def test_float_commands_run_in_a_fresh_interpreter(self, argv):
        # only the float commands load numpy
        numpy = argv[0] in ("berry2x2", "finite-oracle")
        assert _import_probe(argv)["loaded"][-1] == [0, numpy, False]


def _readme_cli_lines():
    """The ``starmetric ...`` lines of the README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("starmetric ")]


class TestReadme:
    def test_cli_block_is_found(self):
        assert len(_readme_cli_lines()) >= 16

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_cli_line_runs(self, capsys, monkeypatch, line):
        # paths in the README are relative to the repository root
        monkeypatch.chdir(ROOT)
        argv = shlex.split(line)[1:]
        first = run(capsys, *argv)
        code, out, _ = first
        assert code in (0, 1) and isinstance(json.loads(out), dict)
        assert_indent_2_text(out)
        # a second run in the same process, after whatever the first one
        # cached, gives the same exit code, stdout and stderr
        assert run(capsys, *argv) == first


def assert_indent_2_text(out):
    """stdout is the ``json.dumps(indent=2)`` text of what it parses to:
    floats and every other report value survive the round trip exactly."""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Str(str):
    def __str__(self):
        return "ignored"


class _Int(int):
    def __repr__(self):
        return "ignored"


class _Float(float):
    def __repr__(self):
        return "ignored"


class _Dict(dict):
    pass


class _List(list):
    pass


# every code point (controls and lone surrogates too), and LaTeX backslashes
_texts = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["\\frac{1}{2}", "x^{-1} \\hbar", "\x00\x1f\x7f\"", "\u00e9\u2202\u2028\U0001d54f"]
)
_ints = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
_floats = st.floats() | st.sampled_from(
    [-0.0, 1e-300, 1e16, float("nan"), float("inf"), float("-inf")]
)
_scalars = st.none() | st.booleans() | _ints | _floats | _texts
_subclassed = _texts.map(_Str) | _ints.map(_Int) | _floats.map(_Float)
json_trees = st.recursive(
    _scalars | _subclassed,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4).map(_List)
    | st.dictionaries(_scalars | _subclassed, inner, max_size=4)
    | st.dictionaries(_texts, inner, max_size=4).map(_Dict),
    max_leaves=24,
)


class TestJsonText:
    """`cli._json_text` is ``json.dumps(indent=2)``, byte for byte."""

    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(json_trees)
    def test_equals_json_dumps_indent_2(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [{1, 2}, 1j, Fraction(1, 2), b"x", [0, {"a": 1j}], {"a": [Fraction(1)]},
         {(1, 2): 0}, {"a": {frozenset(): 0}}],
    )
    def test_raises_type_error_where_json_does(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_text(value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "argv",
        [
            ("berry2x2", "--trials", "5"),
            ("finite-oracle", "--n", "3", "--trials", "2"),
            ("scan-locus", "--omega", "2", "--alpha", "0.5", "--beta", "0.25"),
        ],
    )
    def test_reports_without_a_golden_are_indent_2_text(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert_indent_2_text(out)


_numerators = st.integers(-9, 9) | st.integers(2**200, 2**260) | st.integers(-(2**260), -(2**200))
_gaussians = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    _numerators,
    _numerators,
    st.integers(1, 12) | st.integers(2**200, 2**210),
)


def _param_polys(params, exponents):
    keys = st.tuples(*[exponents] * len(params))
    return st.dictionaries(keys, _gaussians, max_size=3).map(lambda t: ParamPoly(params, t))


_ratfuncs = st.builds(
    RatFunc2,
    _param_polys(RatFunc2.PARAMS, st.integers(0, 2)),
    _param_polys(RatFunc2.PARAMS, st.integers(0, 2)).filter(lambda den: not den.is_zero),
)
_coeffs = _gaussians | _param_polys(("a", "b"), st.integers(-2, 2)) | _ratfuncs
_keys = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(-4, 4))
_polys = st.just(PhasePoly.zero()) | st.dictionaries(_keys, _coeffs, max_size=5).map(PhasePoly)
_series = st.builds(
    CouplingSeries, st.sampled_from(["g", "c"]) | _texts, st.lists(_polys, min_size=1, max_size=4)
)
payloads = st.recursive(
    _scalars | _polys | _series,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_scalars, inner, max_size=4),
    max_leaves=8,
)


def _as_trees(value):
    """``value`` with each PhasePoly and CouplingSeries replaced by its to_json()."""
    if isinstance(value, (PhasePoly, CouplingSeries)):
        return value.to_json()
    if isinstance(value, dict):
        return {key: _as_trees(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_trees(item) for item in value]
    return value


_a, _b = ParamPoly.generators("a", "b")
_q1, _q2 = ParamPoly.generators(*RatFunc2.PARAMS)
# a poly with ParamPoly and RatFunc2 coefficients only, so no term takes the
# Gaussian template
_NON_GAUSSIAN = PhasePoly({(1, 2, -1): _a * _b**-2, (2, 0, 0): RatFunc2(_q1, _q2 + 4)})


class TestJsonTextOfObjects:
    """`cli._json_text` writes a PhasePoly or CouplingSeries in a payload as
    ``json.dumps`` writes its ``to_json()`` tree, byte for byte."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(payloads)
    @example({"a": [{"b": CouplingSeries("g", [PhasePoly.one(), PhasePoly.x()])}]})
    @example([CouplingSeries("c", [PhasePoly.zero(), _NON_GAUSSIAN])])
    @example(_NON_GAUSSIAN)
    def test_equals_json_dumps_of_the_trees(self, payload):
        assert cli._json_text(payload) == json.dumps(_as_trees(payload), indent=2)

    def test_the_writer_reads_every_coefficient_kind(self):
        # one poly of each: a Gaussian coefficient with a numerator past 200
        # bits, negative p and hbar exponents, a ParamPoly and a RatFunc2
        big = GaussianRational(Fraction(-(3**150), 7), 2**201)
        a, b = ParamPoly.generators("a", "b")
        q1, q2 = ParamPoly.generators(*RatFunc2.PARAMS)
        poly = PhasePoly({(0, -3, -2): big, (1, 2, -1): a * b**-2, (2, 0, 0): RatFunc2(q1, q2 + 4)})
        series = CouplingSeries("g", [poly, PhasePoly.zero(), poly.conjugate()])
        payload = {"poly": poly, "series": series, "list": [PhasePoly.zero(), series]}
        assert cli._json_text(payload) == json.dumps(_as_trees(payload), indent=2)


# scan-locus range specs: rational and decimal endpoints, signed zeros, and
# values that underflow, are subnormal or lie near the float maximum
_endpoints = (
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 12))
    | st.builds(
        "{}.{}e{}".format,
        st.integers(-99, 99),
        st.integers(0, 99),
        st.integers(-3, 3) | st.integers(-400, -300) | st.integers(150, 160)
        | st.integers(305, 308),
    )
    | st.sampled_from(
        ["0", "-0", "1e-400", "-1e-400", "5e-324", "-5e-324", "1e-162", "-2.5e-162",
         "1.7976931348623157e308", "-1.7976931348623157e308", "1.3407807929942596e154"]
    )
)
_range_specs = _endpoints | st.builds(
    "{}:{}:{}".format, _endpoints, _endpoints, st.integers(2, 9)
)


def _locus_record(q1, q2):
    """The scan-locus record of one point, from its Fractions alone."""
    value = 4 * q1 + q2 * q2
    return {
        "q1": float(q1),
        "q2": float(q2),
        "locus_value": float(value),
        "region_sign": (value > 0) - (value < 0),
    }


class TestLocusRecords:
    """`cli.LocusRecords` writes the ``json.dumps`` text of its ``to_json()``
    records, and those records are the exact locus values of the grid."""

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(_range_specs, _range_specs)
    @example("-1/3:7/5:9", "0:2:5")
    @example("-1e-400:1e-400:3", "1e-200")
    @example("0:1.7976931348623157e308:3", "-1")
    def test_writes_its_records_as_json_dumps_does(self, spec1, spec2):
        q1s, q2s = cli._parse_range(spec1), cli._parse_range(spec2)
        grid = berry.locus_grid(q1s, q2s)
        try:
            expected = [_locus_record(q1, q2) for q1 in q1s for q2 in q2s]
        except OverflowError:
            with pytest.raises(cli.CliInputError, match="past the float range"):
                cli.LocusRecords(q1s, q2s, grid)
            return
        records = cli.LocusRecords(q1s, q2s, grid)
        # as text, so that -0.0 and 0.0 differ
        assert json.dumps(records.to_json()) == json.dumps(expected)
        count = len(q1s) * len(q2s)
        text = cli._json_text({"count": count, "records": records})
        assert text == json.dumps({"count": count, "records": records.to_json()}, indent=2)


class TestBundledModels:
    def test_all_bundled_models_load(self):
        for name in ("ix3", "shifted", "quadratic"):
            model = bundled(name)
            assert model.name


# ---------------------------------------------------------------------------
# the JSON readers: any one malformed node is a ValueError, never a traceback

ONE_TERM = {"x": 0, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}}
PARAMPOLY_COEFF = {
    "params": ["a", "b"],
    "terms": [{"powers": {"a": 1, "b": -2}, "coeff": {"re": "1/2", "im": "3"}}],
}
RATFUNC_COEFF = {
    "num": {"params": ["q1", "q2"], "terms": [{"powers": {"q1": 1}, "coeff": {"re": "1"}}]},
    "den": {
        "params": ["q1", "q2"],
        "terms": [{"powers": {"q2": 2}, "coeff": {"re": "1"}}, {"coeff": {"re": "4"}}],
    },
}
SERIES_DOC = {
    "coupling": "g",
    "order": 2,
    "coeffs": [
        [ONE_TERM],
        [{"x": 1, "p": 0, "hbar": 0, "coeff": PARAMPOLY_COEFF}],
        [{"x": 0, "p": 2, "hbar": -1, "coeff": RATFUNC_COEFF}],
    ],
}
EXPQUAD_DOC = {
    "prefactor": [ONE_TERM],
    "exponent": [{"x": 0, "p": 1, "hbar": -1, "coeff": {"re": "-2", "im": "0"}}],
}
def _bundled(name):
    return json.loads(Path(model_path(name)).read_text(encoding="utf-8"))


READERS = {
    **{name: (model_from_obj, _bundled(name)) for name in ("ix3", "shifted", "quadratic")},
    "series": (CouplingSeries.from_json, SERIES_DOC),
    "expquad": (ExpQuadForm.from_json, EXPQUAD_DOC),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(node, path=()):
    """The key path of ``node`` and of every node below it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run_replaced(capsys, tmp_path, doc, path, value, command=()):
    """Run ``command`` (by default dagger on a model, starlog on a series) on
    the bundled model ``doc``, or on SERIES_DOC, with the node at ``path``
    replaced by ``value``."""
    series = doc == "series"
    file = tmp_path / "doc.json"
    text = json.dumps(_replaced(SERIES_DOC if series else _bundled(doc), path, value))
    file.write_text(text, encoding="utf-8")
    command = command or (("starlog",) if series else ("dagger",))
    return run(capsys, *command, "--series" if series else "--model", str(file))


class TestReaders:
    @pytest.mark.parametrize("reader, doc", READERS.values(), ids=list(READERS))
    def test_valid_documents_read(self, reader, doc):
        reader(doc)

    @pytest.mark.parametrize("reader, doc", READERS.values(), ids=list(READERS))
    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(data=st.data())
    def test_one_replaced_node_reads_or_raises_value_error(self, reader, doc, data):
        path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
        value = data.draw(json_values, label="value")
        try:
            reader(_replaced(doc, path, value))
        except ValueError:
            pass

    @pytest.mark.parametrize(
        "doc, path, value",
        [
            ("quadratic", ("options",), []),
            ("quadratic", ("options",), None),
            ("quadratic", ("options", "numeric"), 5),
            ("ix3", ("hamiltonian", "terms"), 5),
            ("quadratic", ("hamiltonian", "params"), 5),
            ("quadratic", ("hamiltonian", "terms", 0, "params"), 5),
            ("ix3", ("hamiltonian", "coupling", "V"), 5),
            ("series", ("coeffs",), 5),
            ("series", ("coeffs", 1, 0, "coeff", "params"), 5),
            ("series", ("coeffs", 1, 0, "coeff", "terms"), 5),
            ("series", ("coeffs", 1, 0, "coeff", "terms", 0, "powers"), 5),
        ],
    )
    def test_wrong_container_exits_2(self, capsys, tmp_path, doc, path, value):
        code, out, err = _run_replaced(capsys, tmp_path, doc, path, value)
        assert code == 2 and not out
        assert json.loads(err)["error"]

    @pytest.mark.parametrize(
        "doc, path, value, command, message",
        [
            ("quadratic", ("hamiltonian", "params"), "abc", (), "must be a list"),
            ("quadratic", ("hamiltonian", "params"), ["a", "b", 3], (), "distinct strings"),
            ("quadratic", ("hamiltonian", "params"), ["a", "b", "c", "a"], (), "distinct strings"),
            ("ix3", ("hamiltonian", "coupling", "name"), 7, ("dagger", "--latex"), "a string"),
            ("ix3", ("hamiltonian", "coupling", "name"), 7, ("emit-latex",), "a string"),
            ("series", ("coupling",), 7, ("starlog", "--latex"), "a string"),
            ("series", ("coeffs", 1, 0, "coeff", "params"), "ab", (), "must be a list"),
            ("series", ("coeffs", 1, 0, "coeff", "params"), ["a", "a"], (), "distinct strings"),
        ],
    )
    def test_names_must_be_strings(self, capsys, tmp_path, doc, path, value, command, message):
        code, out, err = _run_replaced(capsys, tmp_path, doc, path, value, command)
        assert code == 2 and not out
        assert message in json.loads(err)["error"]

    def test_zero_hbar_rejected(self, capsys, tmp_path):
        term = {"p": 2, "hbar": -1, "coeff": {"re": "1"}}
        model = {"name": "m", "hamiltonian": {"terms": [term]}, "options": {"hbar": "0"}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code, out, err = run(capsys, "dagger", "--model", str(path))
        assert code == 2 and not out
        assert "hbar must be nonzero" in json.loads(err)["error"]

    def test_readme_model_block_reads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Model files", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        model = model_from_obj(json.loads(block))
        assert model.name == "ix3" and model.order == 3 and model.spec.has_coupling
