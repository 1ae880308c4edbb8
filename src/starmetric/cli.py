"""Command-line front end.

Every command reads UTF-8 JSON (model files) and prints a JSON report to
stdout.  Exit codes: 0 success, 1 verification failure, 2 input error.
Output is deterministic for fixed inputs and seed: containers are built in
canonical term order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import berry, weyl
from .exprparse import parse_theta
from .latexout import param_poly_latex, poly_latex, series_latex
from .metric import (
    HamiltonianSpec,
    certify_metric,
    expand_gaussian_in_coupling,
    gaussian_branch_identities,
    gaussian_exponent,
    log_linear_in_n_check,
    metric_residual,
    number_observable,
    observable_residual,
    pde_operator,
    solve_perturbative,
)
from .modelio import Model, load_model
from .phasepoly import CouplingSeries, PhasePoly
from .scalars import GaussianRational, I, ParamPoly, PoleAtPoint, as_fraction
from .star import ExpQuadForm, dagger, is_hermitian, star, star_log, star_poly_expquad


class CliInputError(ValueError):
    pass


def _require(condition, message):
    if not condition:
        raise CliInputError(message)


def _model(args) -> Model:
    _require(args.model, "this command needs --model PATH")
    return load_model(args.model)


def _maybe_hbar(model: Model, value):
    return value if model.hbar is None else value.subs_hbar(model.hbar)


def _order(args, model: Model, default=3) -> int:
    if args.order is not None:
        return args.order
    if model.order is not None:
        return model.order
    return default


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, verified)


def cmd_star(args):
    model = _model(args)
    _require(args.theta, "star needs --theta SPEC")
    kind, theta = parse_theta(args.theta)
    h = model.spec.symbolic_total()
    if kind == "poly":
        left, right = star(h, theta), star(theta, dagger(h))
        payload = {
            "h_star_theta": _maybe_hbar(model, left).to_json(),
            "theta_star_hdagger": _maybe_hbar(model, right).to_json(),
        }
    elif kind == "expquad":
        left = star_poly_expquad(h, theta, "left")
        right = star_poly_expquad(dagger(h), theta, "right")
        payload = {
            "h_star_theta": _maybe_hbar(model, left).to_json(),
            "theta_star_hdagger": _maybe_hbar(model, right).to_json(),
        }
    else:
        raise CliInputError("star supports polynomial and expquad candidates")
    return payload, True


def cmd_dagger(args):
    model = _model(args)
    result = _maybe_hbar(model, dagger(model.spec.symbolic_total()))
    payload = {"dagger": result.to_json()}
    if args.latex:
        payload["latex"] = poly_latex(result)
    return payload, True


def cmd_check_hermitian(args):
    model = _model(args)
    result = is_hermitian(_maybe_hbar(model, model.spec.symbolic_total()))
    return {"model": model.name, "hermitian": result}, result


def cmd_pde(args):
    model = _model(args)
    op = _maybe_hbar(model, pde_operator(model.spec))
    payload = {"model": model.name, "coefficients": op.normalized().to_json()}
    return payload, True


def cmd_residual(args):
    model = _model(args)
    _require(args.theta, "residual needs --theta SPEC")
    kind, theta = parse_theta(args.theta)
    zero = _maybe_hbar(model, metric_residual(model.spec, theta)).is_zero
    payload = {"model": model.name, "theta_kind": kind}
    if kind == "series":
        payload["order"] = theta.order
    payload["residual_zero"] = zero
    return payload, zero


def _solved_series(args, model: Model) -> CouplingSeries:
    _require(model.spec.has_coupling, f"model {model.name!r} has no coupling to expand in")
    order = _order(args, model)
    return solve_perturbative(
        model.spec.h0, model.spec.v, order, coupling=model.spec.coupling_name
    )


def cmd_solve(args):
    model = _model(args)
    theta = _solved_series(args, model)
    residual_zero = metric_residual(model.spec, theta).is_zero
    payload = {"model": model.name, "series": theta.to_json(), "residual_zero": residual_zero}
    if args.latex:
        payload["latex"] = series_latex(theta)
    return payload, residual_zero


def cmd_starlog(args):
    model = None
    if args.series:
        with open(args.series, encoding="utf-8") as fh:
            theta = CouplingSeries.from_json(json.load(fh))
        payload = {"source": args.series}
    else:
        model = _model(args)
        theta = _solved_series(args, model)
        payload = {"model": model.name}
    log = star_log(theta)
    payload["log"] = log.to_json()
    if args.latex:
        payload["latex"] = series_latex(log)
    return payload, True


def _certify_payload(args, model: Model) -> dict:
    theta = _solved_series(args, model)
    out = {"model": model.name}
    out.update(certify_metric(theta).to_json())
    out["residual_zero"] = metric_residual(model.spec, theta).is_zero
    if args.latex:
        out["latex"] = series_latex(theta)
    return out


def cmd_certify(args):
    _require(args.model, "certify needs at least one --model PATH")
    models = []
    for path in args.model:
        model = load_model(path)
        message = f"model {path!r} has no coupling; certify works on series metrics"
        _require(model.spec.has_coupling, message)
        models.append(model)
    reports = [_certify_payload(args, model) for model in models]
    ok = all(r["hermitian"] and r["positive"] and r["residual_zero"] for r in reports)
    payload = {"reports": reports} if len(reports) > 1 else reports[0]
    return payload, ok


def _quadratic_generators(model: Model):
    coeffs = list(model.spec.h0.terms.values())
    _require(
        coeffs and all(isinstance(c, ParamPoly) and c.params == ("a", "b", "c") for c in coeffs),
        "family analysis needs the quadratic model with symbolic parameters a, b, c",
    )
    return ParamPoly.generators("a", "b", "c")


def cmd_family(args):
    model = _model(args)
    _require(args.observable, "family needs --observable {p|x|N}")
    a, b, c = _quadratic_generators(model)
    spec = model.spec
    x_poly, p_poly = PhasePoly.x(), PhasePoly.p()
    if args.observable == "p":
        r = PhasePoly.monomial(c / (b * 2), 0, 0, -1).scaled(-1)
        zero = PhasePoly.zero()
        e = ExpQuadForm.pure_exponent(gaussian_exponent(r, zero, zero))
        ids = gaussian_branch_identities(a, b, c, r, zero, zero)
        payload = {
            "observable": "p",
            "exponent": "r p^2 with r = -c/(2 b hbar)",
            "metric_residual_zero": metric_residual(spec, e).is_zero,
            "observable_residual_zero": observable_residual(p_poly, e).is_zero,
            "branch_identities_zero": all(i.is_zero for i in ids),
        }
        ok = all(payload[k] for k in payload if k.endswith("zero"))
        return payload, ok
    if args.observable == "x":
        t = PhasePoly.monomial(c / (a * 2), 0, 0, -1)
        t_printed = PhasePoly.monomial(c / (b * 2), 0, 0, -1)
        zero = PhasePoly.zero()
        e = ExpQuadForm.pure_exponent(gaussian_exponent(zero, zero, t))
        e_printed = ExpQuadForm.pure_exponent(gaussian_exponent(zero, zero, t_printed))
        ids = gaussian_branch_identities(a, b, c, zero, zero, t)
        payload = {
            "observable": "x",
            "exponent": "t x^2 with t = c/(2 a hbar)",
            "metric_residual_zero": metric_residual(spec, e).is_zero,
            "observable_residual_zero": observable_residual(x_poly, e).is_zero,
            "branch_identities_zero": all(i.is_zero for i in ids),
            "alternative_t_c_over_2b_residual_zero": metric_residual(
                spec, e_printed
            ).is_zero,
        }
        ok = (
            payload["metric_residual_zero"]
            and payload["observable_residual_zero"]
            and payload["branch_identities_zero"]
        )
        return payload, ok
    if args.observable == "N":
        _require(
            set(model.numeric) >= {"a", "b"},
            "the N-observable expansion needs numeric rationals for a and b in options.numeric",
        )
        order = _order(args, model)
        av, bv = model.numeric["a"], model.numeric["b"]
        theta = expand_gaussian_in_coupling(av, bv, order)
        report = certify_metric(theta)
        n_obs = number_observable()
        spec_num = _numeric_quadratic_spec(av, bv)
        payload = {
            "observable": "N",
            "a": str(av),
            "b": str(bv),
            "order": order,
            "hermitian": report.hermitian,
            "positive": report.positive,
            "metric_residual_zero": metric_residual(spec_num, theta).is_zero,
            "observable_residual_zero": observable_residual(n_obs, theta).is_zero,
            "log_linear_in_N": log_linear_in_n_check(av, bv, order),
        }
        ok = all(v is not False for v in payload.values())
        return payload, ok
    raise CliInputError(f"unknown observable {args.observable!r}")


def _numeric_quadratic_spec(av: Fraction, bv: Fraction):
    h0 = PhasePoly.monomial(GaussianRational(av), 0, 2, 0) + PhasePoly.monomial(
        GaussianRational(bv), 2, 0, 0
    )
    return HamiltonianSpec(h0, ("c", PhasePoly.monomial(I, 1, 1, 0)))


def cmd_berry2x2(args):
    rng = np.random.default_rng(args.seed)
    f = berry.holonomy_exceptional()
    f_expected = np.array([[-1.0, -2j], [0.0, 1.0]])
    monodromy_err = float(np.max(np.abs(f - f_expected)))
    up, um = berry.coalescing_eigenvectors(0.05 * np.exp(0.7j))
    swap_err = float(
        max(np.max(np.abs(f @ up - um)), np.max(np.abs(f @ um - up)))
    )
    product_err = float(np.max(np.abs(berry.holonomy_product_form(100000) - f_expected)))
    worst_solve = 0.0
    worst_residual = 0.0
    trials = _trials(args)
    done = 0
    while done < trials:
        q = rng.uniform(-1.5, 1.5, size=2)
        z = q[0] + 1j * q[1]
        if abs(1 + z * z) < 0.1:
            continue
        done += 1
        a_solved = berry.solve_connection_2x2(q)
        a_ref = berry.gauge_fixed_connection(q)
        worst_solve = max(
            worst_solve, max(float(np.max(np.abs(s - r))) for s, r in zip(a_solved, a_ref))
        )
        worst_residual = max(
            worst_residual,
            berry.verify_connection_matrix(
                berry.model_hamiltonian(q), berry.model_partials(q), a_solved
            ),
        )
    rank_deficient = []
    for point in ((0.0, 1.0), (0.0, -1.0)):
        try:
            berry.solve_connection_2x2(point)
        except berry.RankDeficient:
            rank_deficient.append(list(point))
    curvature_norm = float(
        np.max(np.abs(berry.curvature_of_field(berry.gauge_fixed_connection, (0.5, 1.0 / 3.0))))
    )
    payload = {
        "monodromy": [[_cstr(v) for v in row] for row in f],
        "monodromy_error": monodromy_err,
        "eigenvector_swap_error": swap_err,
        "product_form_error": product_err,
        "trials": trials,
        "max_connection_mismatch": worst_solve,
        "max_equation_residual": worst_residual,
        "rank_deficient_at": rank_deficient,
        "curvature_norm_at_sample": curvature_norm,
    }
    ok = (
        monodromy_err <= 1e-12
        and swap_err <= 1e-12
        and product_err <= 1e-4
        and worst_solve <= 1e-10
        and worst_residual <= 1e-10
        and len(rank_deficient) == 2
        and curvature_norm <= 1e-8
    )
    return payload, ok


def _trials(args) -> int:
    _require(args.trials >= 0, "--trials must be nonnegative")
    return args.trials


def _cstr(v: complex) -> str:
    return f"{v.real:+.12g}{v.imag:+.12g}j"


def cmd_berry_osc(args):
    conn = berry.moyal_connection_solve()
    res1, res2 = berry.connection_residual(conn)
    curvature = berry.moyal_curvature(conn)
    locus = berry.singular_locus(conn)
    payload = {
        "connection": conn.to_json(),
        "residuals_zero": res1.is_zero and res2.is_zero,
        "curvature_zero": curvature.is_zero,
        "locus": locus.to_json(),
        "locus_latex": param_poly_latex(locus),
    }
    if args.q1 is not None and args.q2 is not None:
        q1, q2 = as_fraction(args.q1), as_fraction(args.q2)
        value = berry.locus_value(q1, q2)
        point = {"q1": str(q1), "q2": str(q2), "locus_value": str(value)}
        if value == 0:
            point["on_locus"] = True
        else:
            evals = {}
            for name, coeff in (
                ("a1_xp", conn.s1),
                ("a1_xx", conn.t1),
                ("a2_xp", conn.s2),
                ("a2_xx", conn.t2),
            ):
                evals[name] = repr(coeff.eval(q1, q2))
            point["coefficients"] = evals
        payload["point"] = point
    ok = payload["residuals_zero"] and payload["curvature_zero"]
    return payload, ok


def _parse_range(spec: str):
    if ":" in spec:
        lo, hi, count = spec.split(":")
        lo, hi, count = as_fraction(lo), as_fraction(hi), int(count)
        _require(count >= 2, f"range {spec!r}: count must be at least 2")
        step = (hi - lo) / (count - 1)
        return [lo + k * step for k in range(count)]
    return [as_fraction(spec)]


def _scan_record(q1: Fraction, q2: Fraction) -> dict:
    value = berry.locus_value(q1, q2)
    sign = 0 if value == 0 else (1 if value > 0 else -1)
    return {
        "q1": float(q1),
        "q2": float(q2),
        "locus_value": float(value),
        "region_sign": sign,
    }


def cmd_scan_locus(args):
    if args.omega is not None:
        _require(
            args.alpha is not None and args.beta is not None,
            "oscillator mapping needs --omega, --alpha and --beta",
        )
        try:
            q1, q2 = berry.oscillator_parameters(args.omega, args.alpha, args.beta)
        except (ZeroDivisionError, OverflowError) as exc:
            raise CliInputError(str(exc)) from exc
        record = _scan_record(q1, q2)
        record["omega"], record["alpha"], record["beta"] = args.omega, args.alpha, args.beta
        record["distance_origin_to_locus"] = berry.locus_distance_from_origin(args.omega)
        return {"records": [record]}, True
    # one integer numerator per point over the grid's common denominator: its
    # sign is the region, and int / int rounds as float(Fraction); --jobs is unused
    q1s = _parse_range(args.q1 or "-3:3:25")
    q2s = _parse_range(args.q2 or "-3:3:25")
    rows, den = berry.locus_grid(q1s, q2s)
    f2s = [float(q2) for q2 in q2s]
    records = [
        {"q1": f1, "q2": f2, "locus_value": n / den, "region_sign": (n > 0) - (n < 0)}
        for f1, row in zip(map(float, q1s), rows)
        for f2, n in zip(f2s, row)
    ]
    return {"count": len(records), "records": records}, True


def cmd_finite_oracle(args):
    report = weyl.oracle_run(args.n, _trials(args), args.seed)
    return report, report["failures"] == 0


def cmd_emit_latex(args):
    model = _model(args)
    h = _maybe_hbar(model, model.spec.symbolic_total())
    payload = {"model": model.name, "hamiltonian": poly_latex(h)}
    if model.spec.has_coupling and (args.order is not None or model.order is not None):
        theta = _solved_series(args, model)
        payload["metric_series"] = series_latex(theta)
        payload["metric_log"] = series_latex(star_log(theta))
    return payload, True


# each command with the only flags its handler reads
_COMMANDS = {
    "star": (cmd_star, ("model", "theta")),
    "dagger": (cmd_dagger, ("model", "latex")),
    "check-hermitian": (cmd_check_hermitian, ("model",)),
    "pde": (cmd_pde, ("model",)),
    "residual": (cmd_residual, ("model", "theta")),
    "solve": (cmd_solve, ("model", "order", "latex")),
    "starlog": (cmd_starlog, ("model", "series", "order", "latex")),
    "certify": (cmd_certify, ("model", "order", "latex")),
    "family": (cmd_family, ("model", "observable", "order")),
    "berry2x2": (cmd_berry2x2, ("trials", "seed")),
    "berry-osc": (cmd_berry_osc, ("q1", "q2")),
    "scan-locus": (cmd_scan_locus, ("q1", "q2", "omega", "alpha", "beta", "jobs")),
    "finite-oracle": (cmd_finite_oracle, ("n", "trials", "seed")),
    "emit-latex": (cmd_emit_latex, ("model", "order")),
}

_FLAGS = {
    "model": {},
    "order": {"type": int},
    "observable": {"choices": ["p", "x", "N"]},
    "theta": {},
    "series": {},
    "q1": {},
    "q2": {},
    "omega": {"type": float},
    "alpha": {"type": float},
    "beta": {"type": float},
    "n": {"type": int, "default": 4},
    "trials": {"type": int, "default": 20},
    "seed": {"type": int, "default": 7},
    "jobs": {"type": int, "default": 1},
    "latex": {"action": "store_true"},
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subparser of the command that
    ``argv[0]`` names, or with all of them when it names none (``-h``, an
    unknown command).  The metavar keeps the top-level usage listing every
    command either way."""
    parser = argparse.ArgumentParser(
        prog="starmetric",
        description="Exact star-product calculus for metric operators and Berry connections",
    )
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name in [command] if command else _COMMANDS:
        p = sub.add_parser(name)
        for flag in _COMMANDS[name][1]:
            spec = {"action": "append"} if (name, flag) == ("certify", "model") else _FLAGS[flag]
            p.add_argument(f"--{flag}", **spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        payload, ok = _COMMANDS[args.cmd][0](args)
    except json.JSONDecodeError as exc:
        msg = f"malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        print(json.dumps({"error": msg}), file=sys.stderr)
        return 2
    except (ValueError, PoleAtPoint, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    status = 0 if ok else 1
    try:
        print(json.dumps(payload, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send the rest of the output, and the flush
        # at exit, to devnull (the recipe of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
