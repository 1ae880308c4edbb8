import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starmetric.cli import main
from starmetric.modelio import bundled_model_path, load_model, model_from_obj, ModelError
from starmetric.phasepoly import CouplingSeries
from starmetric.star import ExpQuadForm

GOLDENS = Path(__file__).parent / "goldens"
# the CLI in a fresh interpreter that imports this checkout
CLI = [sys.executable, "-m", "starmetric.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
IX3 = str(bundled_model_path("ix3"))
SHIFTED = str(bundled_model_path("shifted"))
QUADRATIC = str(bundled_model_path("quadratic"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


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

    def test_starlog_matches_golden_file(self, capsys):
        code, payload = run_json(capsys, "starlog", "--model", IX3, "--order", "3")
        assert code == 0
        produced = CouplingSeries.from_json(payload["log"])
        with open(GOLDENS / "ix3_log_order3.json", encoding="utf-8") as fh:
            golden = CouplingSeries.from_json(json.load(fh))
        assert produced == golden

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "solve", "--model", IX3, "--order", "2")
        _, out2, _ = run(capsys, "solve", "--model", IX3, "--order", "2")
        assert out1 == out2


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
        ],
    )
    def test_moyal_coefficient_commands_match_golden_bytes(self, capsys, golden, argv):
        # the one-sided Moyal sums: the PDE form and the ExpQuadForm products
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # the connection does not depend on the point, so this pins every
            # RatFunc2 that berry-osc prints
            ("berry_osc_point.json", ("berry-osc", "--q1=1/2", "--q2=3")),
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

    def test_scan_locus_grid(self, capsys):
        code, payload = run_json(capsys, "scan-locus", "--q1=-1:1:3", "--q2=0:2:2")
        assert code == 0
        assert payload["count"] == 6
        signs = {(r["q1"], r["q2"]): r["region_sign"] for r in payload["records"]}
        assert signs[(-1.0, 0.0)] == -1 and signs[(1.0, 2.0)] == 1
        assert signs[(-1.0, 2.0)] == 0  # 4(-1) + 4 = 0: on the locus

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

    def test_emit_latex(self, capsys):
        code, payload = run_json(capsys, "emit-latex", "--model", IX3, "--order", "1")
        assert code == 0
        assert payload["hamiltonian"] == "p^{2} + i g x^{3}"
        assert "metric_series" in payload


class TestErrorHandling:
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

    def test_pde_with_negative_p_power_in_dagger_exits_2(self, tmp_path):
        # H = p^2 + i x/p: the p-derivative chain of dagger(H) never vanishes
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
            CLI + ["pde", "--model", str(path)], env=CLI_ENV, capture_output=True, timeout=30
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

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_finite_oracle_below_two_exits_2(self, capsys, n):
        code, out, err = run(capsys, "finite-oracle", "--n", n, "--trials", "2")
        assert code == 2 and not out
        assert "at least 2" in json.loads(err)["error"]

    @pytest.mark.parametrize("spec", ["1:2:0", "1:2:1", "1:2:-3"])
    def test_scan_locus_range_count_below_two(self, capsys, spec):
        code, out, err = run(capsys, "scan-locus", f"--q1={spec}", "--q2=0")
        assert code == 2 and not out
        assert "count" in json.loads(err)["error"]

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


class TestBundledModels:
    def test_all_bundled_models_load(self):
        for name in ("ix3", "shifted", "quadratic"):
            model = load_model(bundled_model_path(name))
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
    return json.loads(bundled_model_path(name).read_text(encoding="utf-8"))


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
