"""Command-line front end.

Every command reads UTF-8 JSON (model files) and prints a JSON report to
stdout: the ``json.dumps(payload, indent=2)`` text, built by one direct
writer (`_json_text`) inside the error handling, so a result past the
output digit limit exits 2.  ``solve``, ``starlog``, ``star`` and
``dagger`` put their `PhasePoly` and `CouplingSeries` results into the
payload as they are, and the writer prints them from their terms with
their ``write_json``; the term layout lives in `phasepoly`, next to
``to_json``.  ``scan-locus`` puts its grid in as a `LocusRecords`, which
the writer prints straight from the integer grid.  Exit codes: 0 success,
1 verification failure, 2 input error.  Output is deterministic for fixed
inputs and seed: containers are built in canonical term order.  A call that
names a command and spells each of its own flags in full is read straight
from the flag table (`_direct_args`), with no parser and no argparse import;
any other call is parsed by argparse (`_parse_args`), which alone prints
help and errors.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .exprparse import parse_theta
from .latexout import param_poly_latex, poly_latex, series_latex
from .metric import (
    HamiltonianSpec,
    UnsolvableOrder,
    certify_metric,
    expand_gaussian_in_coupling,
    gaussian_branch_identities,
    gaussian_exponent,
    log_linear_in_n_check,
    metric_residual,
    number_observable,
    observable_residual,
    pde_operator,
    quadratic_hamiltonian,
    solve_perturbative,
)
from .modelio import Model, load_model, read_json
from .phasepoly import CouplingSeries, PhasePoly
from .scalars import I, ParamPoly, PoleAtPoint, as_fraction, fraction_str
from .star import ExpQuadForm, dagger, is_hermitian, star, star_log, star_poly_expquad


class CliInputError(ValueError):
    pass


def _require(condition, message):
    if not condition:
        raise CliInputError(message)


def _given(value, flag: str) -> bool:
    """Whether ``--flag`` was given; an empty value is given, and an error."""
    _require(value != "", f"--{flag} needs a value")
    return value is not None


def _model(args) -> Model:
    _require(args.model, "this command needs --model PATH")
    return load_model(args.model)


def _maybe_hbar(model: Model, value):
    return value if model.hbar is None else value.subs_hbar(model.hbar)


# the highest series order, from --order, options.order or a series file
# (starlog --series, residual --theta series:FILE), checked before any series
# is computed
MAX_ORDER = 256


def _limited(order: int) -> int:
    _require(order <= MAX_ORDER, f"order {order} is past the limit of order {MAX_ORDER}")
    return order


def _order(args, model: Model) -> int:
    if args.order is not None:
        return _limited(args.order)
    if model.order is not None:
        return _limited(model.order)
    return 3


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
            "h_star_theta": _maybe_hbar(model, left),
            "theta_star_hdagger": _maybe_hbar(model, right),
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
    payload = {"dagger": result}
    if args.latex:
        payload["latex"] = poly_latex(result)
    return payload, True


def cmd_check_hermitian(args):
    model = _model(args)
    h = model.spec.symbolic_total()
    if model.hbar is None:
        result = is_hermitian(h)
    else:
        # decided at the model's hbar, as residual is: the adjoint's Moyal
        # sum brings hbar back into an H with hbar substituted
        result = (dagger(h) - h).subs_hbar(model.hbar).is_zero
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
    if kind == "series":
        _limited(theta.order)
    zero = _maybe_hbar(model, metric_residual(model.spec, theta)).is_zero
    payload = {"model": model.name, "theta_kind": kind}
    if kind == "series":
        payload["order"] = theta.order
    payload["residual_zero"] = zero
    return payload, zero


def _solved_series(args, model: Model) -> CouplingSeries:
    """The solved metric series.  The solver raises UnsolvableOrder unless
    every order's residual is exactly zero, so a returned series has
    residual_zero true."""
    _require(model.spec.has_coupling, f"model {model.name!r} has no coupling to expand in")
    order = _order(args, model)
    return solve_perturbative(
        model.spec.h0, model.spec.v, order, coupling=model.spec.coupling_name
    )


def cmd_solve(args):
    model = _model(args)
    theta = _maybe_hbar(model, _solved_series(args, model))
    payload = {"model": model.name, "series": theta, "residual_zero": True}
    if args.latex:
        payload["latex"] = series_latex(theta)
    return payload, True


def cmd_starlog(args):
    if _given(args.series, "series"):
        theta = CouplingSeries.from_json(read_json(args.series))
        _limited(theta.order)
        payload = {"source": args.series}
        log = star_log(theta)
    else:
        model = _model(args)
        payload = {"model": model.name}
        log = _maybe_hbar(model, star_log(_solved_series(args, model)))
    payload["log"] = log
    if args.latex:
        payload["latex"] = series_latex(log)
    return payload, True


def _certify_payload(args, model: Model) -> dict:
    theta = _solved_series(args, model)
    out = {"model": model.name}
    out.update(certify_metric(theta, solved=True).to_json())
    out["residual_zero"] = True
    if args.latex:
        out["latex"] = series_latex(_maybe_hbar(model, theta))
    return out


def cmd_certify(args):
    _require(args.model, "certify needs at least one --model PATH")
    models = []
    for path in args.model:
        model = load_model(path)
        message = f"model {path!r} has no coupling; certify works on series metrics"
        _require(model.spec.has_coupling, message)
        _order(args, model)  # every model's order is checked before any is solved
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
    if args.observable == "N":
        return _family_number_observable(args, model)
    zero = PhasePoly.zero()
    if args.observable == "p":
        rst = (PhasePoly.monomial(c / (b * 2), 0, 0, -1).scaled(-1), zero, zero)
        observable, exponent = PhasePoly.p(), "r p^2 with r = -c/(2 b hbar)"
    else:
        rst = (zero, zero, PhasePoly.monomial(c / (a * 2), 0, 0, -1))
        observable, exponent = PhasePoly.x(), "t x^2 with t = c/(2 a hbar)"
    e = ExpQuadForm.pure_exponent(gaussian_exponent(*rst))
    payload = {
        "observable": args.observable,
        "exponent": exponent,
        "metric_residual_zero": metric_residual(model.spec, e).is_zero,
        "observable_residual_zero": observable_residual(observable, e).is_zero,
        "branch_identities_zero": all(
            i.is_zero for i in gaussian_branch_identities(a, b, c, *rst)
        ),
    }
    ok = all(payload[k] for k in payload if k.endswith("zero"))
    if args.observable == "x":
        # t = c/(2 b hbar) is not in the family: reported, and false by design
        t = PhasePoly.monomial(c / (b * 2), 0, 0, -1)
        e = ExpQuadForm.pure_exponent(gaussian_exponent(zero, zero, t))
        payload["alternative_t_c_over_2b_residual_zero"] = metric_residual(model.spec, e).is_zero
    return payload, ok


def _family_number_observable(args, model: Model):
    _require(
        set(model.numeric) >= {"a", "b"},
        "the N-observable expansion needs numeric rationals for a and b in options.numeric",
    )
    order = _order(args, model)
    av, bv = model.numeric["a"], model.numeric["b"]
    theta = expand_gaussian_in_coupling(av, bv, order)
    report = certify_metric(theta)
    spec = HamiltonianSpec(
        quadratic_hamiltonian(av, bv, 0).h0, ("c", PhasePoly.monomial(I, 1, 1, 0))
    )
    payload = {
        "observable": "N",
        "a": fraction_str(av),
        "b": fraction_str(bv),
        "order": order,
        "hermitian": report.hermitian,
        "positive": report.positive,
        "metric_residual_zero": metric_residual(spec, theta).is_zero,
        "observable_residual_zero": observable_residual(number_observable(), theta).is_zero,
        "log_linear_in_N": log_linear_in_n_check(theta),
    }
    return payload, all(v is not False for v in payload.values())


# the most berry2x2 trials, checked before any work: about 12 us each, so a
# call at the limit runs about 10 s
MAX_BERRY_TRIALS = 800_000


def cmd_berry2x2(args):
    trials = _trials(args)
    _require(
        trials <= MAX_BERRY_TRIALS,
        f"--trials {trials} is past the limit of {MAX_BERRY_TRIALS} trials",
    )
    import numpy as np

    from . import berry

    rng = np.random.default_rng(args.seed)
    f = berry.holonomy_exceptional()
    f_expected = np.array([[-1.0, -2j], [0.0, 1.0]])
    monodromy_err = float(np.max(np.abs(f - f_expected)))
    up, um = berry.coalescing_eigenvectors(0.05 * np.exp(0.7j))
    swap_err = float(
        max(np.max(np.abs(f @ up - um)), np.max(np.abs(f @ um - up)))
    )
    product_err = float(np.max(np.abs(berry.holonomy_product_form() - f_expected)))
    # every trial block is one stacked solve, the first with the exceptional
    # points appended as probes
    worst_solve, worst_residual, rank_deficient = berry.trial_errors(rng, trials)
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
    from . import berry

    _require((args.q1 is None) == (args.q2 is None), "a point needs both --q1 and --q2")
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
    if args.q1 is not None:
        q1, q2 = as_fraction(args.q1), as_fraction(args.q2)
        value = berry.locus_value(q1, q2)
        point = {
            "q1": fraction_str(q1),
            "q2": fraction_str(q2),
            "locus_value": fraction_str(value),
        }
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


# the most points one scan-locus grid may have, and so one range
MAX_GRID_POINTS = 10**6


def _parse_range(spec: str):
    if ":" not in spec:
        return [as_fraction(spec)]
    parts = spec.split(":")
    _require(len(parts) == 3, f"range {spec!r}: expected the form min:max:count")
    lo, hi = as_fraction(parts[0]), as_fraction(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        message = f"range {spec!r}: count {parts[2]!r} is not an integer in min:max:count"
        raise CliInputError(message) from None
    _require(count >= 2, f"range {spec!r}: count must be at least 2")
    _require(
        count <= MAX_GRID_POINTS,
        f"range {spec!r}: count is past the limit of {MAX_GRID_POINTS} grid points",
    )
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


class LocusRecords:
    """The scan-locus records of the grid q1s x q2s, whose `berry.locus_grid`
    is ``grid``: one record per point, q1 by q1.  Each point is an integer
    numerator over the grid's common denominator: its sign is the region,
    and int / int rounds as float(Fraction).  ``to_json()`` is the list of
    record dicts; `write_json` writes the same text straight from the
    integer rows.  A value past the float range is an input error, raised
    here, before any text is written: int / int is monotone in the
    numerator, so the largest |numerator| is the only one to try."""

    def __init__(self, q1s, q2s, grid):
        self.rows, self.den = grid
        try:
            self.f1s, self.f2s = [float(q) for q in q1s], [float(q) for q in q2s]
            max(max(max(row), -min(row)) for row in self.rows) / self.den
        except OverflowError as exc:
            raise CliInputError(f"scan value past the float range: {exc}") from exc

    def to_json(self) -> list:
        den = self.den
        return [
            {"q1": f1, "q2": f2, "locus_value": n / den, "region_sign": (n > 0) - (n < 0)}
            for f1, row in zip(self.f1s, self.rows)
            for f2, n in zip(self.f2s, row)
        ]

    def write_json(self, out: list, newline: str) -> None:
        """Append to ``out`` the ``json.dumps(self.to_json(), indent=2)`` text,
        at the level whose line break and indent is ``newline``, one string
        per q1.  Each q1's record head, each q2's text up to the locus value
        and the three region-sign tails are built once, so a record adds
        only its locus value."""
        item = newline + "  "
        field, comma = item + "  ", "," + item
        # indexed by the region sign (n > 0) - (n < 0), so -1 takes the last
        tails = tuple(f',{field}"region_sign": {sign}{item}}}' for sign in (0, 1, -1))
        mids = [f'{_float_text(f2)},{field}"locus_value": ' for f2 in self.f2s]
        den, sep = self.den, "[" + item
        for f1, row in zip(self.f1s, self.rows):
            head = f'{{{field}"q1": {_float_text(f1)},{field}"q2": '
            out.append(sep)
            out.append(comma.join([
                f"{head}{mid}{n / den!r}{tails[(n > 0) - (n < 0)]}"
                for mid, n in zip(mids, row)
            ]))
            sep = comma
        out.append(newline + "]")


def cmd_scan_locus(args):
    from . import berry

    oscillator = (args.omega, args.alpha, args.beta)
    if oscillator != (None, None, None):
        _require(None not in oscillator, "oscillator mapping needs --omega, --alpha and --beta")
        _require(args.q1 is None and args.q2 is None, "oscillator mapping takes no --q1 or --q2")
        try:
            q1, q2 = berry.oscillator_parameters(*oscillator)
        except (ZeroDivisionError, OverflowError) as exc:
            raise CliInputError(str(exc)) from exc
        (record,) = LocusRecords([q1], [q2], berry.locus_grid([q1], [q2])).to_json()
        record.update(omega=args.omega, alpha=args.alpha, beta=args.beta)
        record["distance_origin_to_locus"] = berry.locus_distance_from_origin(args.omega)
        return {"records": [record]}, True
    # --jobs is unused
    q1s = _parse_range(args.q1 if _given(args.q1, "q1") else "-3:3:25")
    q2s = _parse_range(args.q2 if _given(args.q2, "q2") else "-3:3:25")
    _require(
        len(q1s) * len(q2s) <= MAX_GRID_POINTS,
        f"grid of {len(q1s)} x {len(q2s)} points is past the limit of {MAX_GRID_POINTS} points",
    )
    records = LocusRecords(q1s, q2s, berry.locus_grid(q1s, q2s))
    return {"count": len(q1s) * len(q2s), "records": records}, True


# the largest finite-oracle N, checked before any N x N table is built: a
# trial's N^3 complex star intermediates are then near 32 MB each
MAX_ORACLE_N = 128
# the most finite-oracle work, trials x (N^3 + 512), checked before any work:
# a trial's star sums cost N^3 and its fixed cost about 512 of those units,
# each 5-40 ns, so a call at the limit runs at most about 10 s
MAX_ORACLE_WORK = 250_000_000


def cmd_finite_oracle(args):
    _require(args.n <= MAX_ORACLE_N, f"--n {args.n} is past the limit of N = {MAX_ORACLE_N}")
    trials = _trials(args)
    _require(
        trials * (args.n**3 + 512) <= MAX_ORACLE_WORK,
        f"--trials {trials} at N = {args.n} is past the limit of {MAX_ORACLE_WORK}"
        " for trials x (N^3 + 512)",
    )
    from . import weyl

    report = weyl.oracle_run(args.n, trials, args.seed)
    return report, report["failures"] == 0


def cmd_emit_latex(args):
    model = _model(args)
    h = _maybe_hbar(model, model.spec.symbolic_total())
    payload = {"model": model.name, "hamiltonian": poly_latex(h)}
    if model.spec.has_coupling and (args.order is not None or model.order is not None):
        theta = _solved_series(args, model)
        payload["metric_series"] = series_latex(_maybe_hbar(model, theta))
        payload["metric_log"] = series_latex(_maybe_hbar(model, star_log(theta)))
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


def _action(name, flag) -> dict:
    """The argparse keywords of ``--flag`` in command ``name``."""
    return {"action": "append"} if (name, flag) == ("certify", "model") else _FLAGS[flag]


def _build_parser():
    """The full parser, with the subparser of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="starmetric",
        description="Exact star-product calculus for metric operators and Berry connections",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, flags) in _COMMANDS.items():
        command = sub.add_parser(name)
        for flag in flags:
            command.add_argument(f"--{flag}", **_action(name, flag))
    return parser


def _flag_like(token: str) -> bool:
    """Whether argparse may read ``token`` as a flag rather than a value: it
    starts with "-" and has no space, or has an "=" or starts with "-h", the
    one short flag.  A token that starts with "-" and holds a space, such as
    a negative --theta, is a value."""
    return token.startswith("-") and (" " not in token or "=" in token or token.startswith("-h"))


def _direct_args(name, tokens):
    """The namespace the full parser gives ``[name, *tokens]`` when every
    token is one of ``name``'s flags spelled in full, as ``--flag=value``,
    ``--flag value`` with a value that argparse cannot read as a flag
    (`_flag_like`), or a bare store_true flag, and every value passes its
    type and choices.  None for any other ``tokens``: argparse decides
    those."""
    flags = _COMMANDS[name][1]
    values = {}
    for flag in flags:
        spec = _action(name, flag)
        values[flag] = spec.get("default", False if spec.get("action") == "store_true" else None)
    i = 0
    while i < len(tokens):
        flag, eq, value = tokens[i].partition("=")
        i += 1
        if not flag.startswith("--") or flag[2:] not in flags:
            return None
        flag = flag[2:]
        spec = _action(name, flag)
        if spec.get("action") == "store_true":
            if eq:
                return None
            values[flag] = True
            continue
        if not eq:
            if i == len(tokens) or _flag_like(tokens[i]):
                return None
            value = tokens[i]
            i += 1
        elif value == "--":  # argparse drops this value
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if spec.get("action") == "append":
            values[flag] = (values[flag] or []) + [value]
        else:
            values[flag] = value
    return SimpleNamespace(**values, cmd=name)


def _parse_args(argv):
    """Parse ``argv``.  When ``argv[0]`` names a command whose flags
    `_direct_args` reads in full, no parser is built; any other ``argv`` is
    parsed by the full parser, which alone prints help and errors."""
    if argv and argv[0] in _COMMANDS:
        args = _direct_args(argv[0], argv[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


_int_text = int.__repr__
_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = _float_repr(value)
    return _NONFINITE.get(text, text)


def _scalar_text(value):
    """The JSON text of a str, None, bool, int or float (or a subclass), as
    json writes it; None for any other value."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key) -> str:
    """A dict key as json converts it to a string before quoting it."""
    if isinstance(key, str):
        return key
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return text


def _write_json(out: list, value, newline: str) -> None:
    """Append to ``out`` the ``json.dumps(value, indent=2)`` text of
    ``value``, which sits at the level whose line break and indent is
    ``newline``.  The loops write exact str, int and float items in place
    and recurse for any other item.  Three objects write themselves by
    their ``write_json``: a `PhasePoly` from its terms (tested for first,
    so each series coefficient costs one check), a `CouplingSeries` as a
    dict of its coefficients, and a `LocusRecords` grid from its integer
    rows.  Being module-level recursion over one list, a call builds no
    closure and leaves no reference cycle."""
    if type(value) is PhasePoly:
        value.write_json(out, newline, _write_json)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in value.items():
            key = _quote(key if type(key) is str else _key_text(key))
            kind = type(item)
            if kind is str:
                out.append(f"{sep}{key}: {_quote(item)}")
            elif kind is int:
                out.append(f"{sep}{key}: {_int_text(item)}")
            elif kind is float:
                out.append(f"{sep}{key}: {_float_text(item)}")
            else:
                out.append(f"{sep}{key}: ")
                _write_json(out, item, inner)
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(sep + _quote(item))
            elif kind is int:
                out.append(sep + _int_text(item))
            elif kind is float:
                out.append(sep + _float_text(item))
            else:
                out.append(sep)
                _write_json(out, item, inner)
            sep = comma
        out.append(newline + "]")
    else:
        text = _scalar_text(value)
        if text is not None:
            out.append(text)
        elif isinstance(value, CouplingSeries):
            value.write_json(out, newline, _write_json)
        elif isinstance(value, LocusRecords):
            value.write_json(out, newline)
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2)``, where a `PhasePoly`,
    `CouplingSeries` or `LocusRecords` in ``payload`` stands for its
    ``to_json()`` tree.  With an indent, json drops its C encoder for
    pure-Python generators; this writer calls the C string quoter,
    ``int.__repr__`` and ``float.__repr__`` directly, and writes those three
    objects by their own ``write_json``: a `PhasePoly` straight from its
    terms, which keeps the term layout in `phasepoly`, a `CouplingSeries` as
    a dict of its `PhasePoly` coefficients, and the scan-locus records
    straight from the integer grid."""
    out = []
    _write_json(out, payload, "\n")
    return "".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        payload, ok = _COMMANDS[args.cmd][0](args)
        text = _json_text(payload)
    except json.JSONDecodeError as exc:
        msg = f"malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        print(json.dumps({"error": msg}), file=sys.stderr)
        return 2
    except (ValueError, PoleAtPoint, OSError, UnsolvableOrder) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, UnsolvableOrder) else 2
    status = 0 if ok else 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: send the rest of the output, and the flush
        # at exit, to devnull (the recipe of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
