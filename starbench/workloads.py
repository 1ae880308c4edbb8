"""Seeded inputs for the three workloads.

``build(workload, seed, workdir)`` writes the generated model files into
``workdir`` and returns one round of operations.  Every round of a run
repeats the same operations, so the share of failed operations is the same
in every run.  The program receives only the generated argv lists and model
files; the seed never reaches it except as the seed of its own float trials.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Tuple

import oracle

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "src" / "starmetric" / "models"

IX3_TOP_ORDER = 6
POTENTIALS = 3
POTENTIAL_ORDERS = (2, 3)

# On the singular curve alpha*beta = omega^2/4 exactly (0.09*0.25 = 0.3^2/4),
# so the right answer is region_sign 0.  The CLI parses these flags as
# floats, so today it answers -1.
ON_LOCUS = ("0.3", "0.09", "0.25")
ON_LOCUS_FAULT = "scan-locus parses --omega/--alpha/--beta as float (cli._build_parser)"


@dataclass(frozen=True)
class Op:
    """One CLI command of a round and the check of its output."""

    label: str
    argv: Tuple[str, ...]
    check: Callable = field(compare=False)
    known_fault: Optional[str] = None


def build(workload: str, seed: int, workdir: Path):
    recipes = {
        "certify-ladder": _certify_ladder,
        "symbolic-mix": _symbolic_mix,
        "float-oracle": _float_oracle,
    }
    if workload not in recipes:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(recipes)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"starbench:{workload}:{seed}")
    return recipes[workload](rng, workdir)


def _small_rational(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))


def _term(x, p, hbar, re=0, im=0, **params):
    out = {"x": x, "p": p, "hbar": hbar, "coeff": {"re": str(Fraction(re)), "im": str(Fraction(im))}}
    if params:
        out["params"] = params
    return out


def _write_model(workdir: Path, name, hamiltonian, options=None):
    obj = {"name": name, "hamiltonian": hamiltonian}
    if options:
        obj["options"] = options
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return str(path)


def pt_potential(rng):
    """V(x) = i (c1 x + c3 x^3) + c2 x^2: PT-symmetric, seeded coefficients."""
    c1, c3, c2 = (_small_rational(rng) for _ in range(3))
    return [_term(1, 0, 0, im=c1), _term(3, 0, 0, im=c3), _term(2, 0, 0, re=c2)]


def _ladder(model, orders, exact_coeffs=()):
    ops = []
    name = Path(model).stem
    for order in orders:
        o = str(order)
        ops.append(Op(f"solve {name} order={o}", ("solve", "--model", model, "--order", o),
                      partial(oracle.check_solve, model_path=model, order=order, exact_coeffs=exact_coeffs)))
        ops.append(Op(f"certify {name} order={o}", ("certify", "--model", model, "--order", o),
                      partial(oracle.check_certify, order=order)))
    return ops


def _certify_ladder(rng, workdir):
    ops = _ladder(str(MODELS / "ix3.json"), range(2, IX3_TOP_ORDER + 1), oracle.IX3_PAPER_COEFFS)
    p2 = [_term(0, 2, 0, re=1)]
    for j in range(POTENTIALS):
        v = pt_potential(rng)
        model = _write_model(workdir, f"pt{j}", {"terms": p2, "coupling": {"name": "g", "V": v}})
        ops += _ladder(model, POTENTIAL_ORDERS)
    return ops


def theta_poly(rng):
    """Seeded polynomial candidate: its --theta text and the checker's dict."""
    c = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(4)]
    monos = (("p^2", (0, 2, 0), False), ("i*x*p", (1, 1, 0), True),
             ("x^2", (2, 0, 0), False), ("x^3/p", (3, -1, 0), False))
    text = ""
    theta = {}
    for ci, (mono, key, imag) in zip(c, monos):
        sign = "-" if ci < 0 else "+"
        text += f" {sign} {abs(ci)}*{mono}" if text else f"{'-' if ci < 0 else ''}{abs(ci)}*{mono}"
        theta[key] = oracle.q(0, ci) if imag else oracle.q(ci)
    return text, theta


def hermitian_model(rng):
    """H = c1 p^2 + c2 x^2 + c3 (x p + i hbar / 2) + c4 x^4, real c_k."""
    c1, c2, c3, c4 = (_small_rational(rng) for _ in range(4))
    return {"terms": [_term(0, 2, 0, re=c1), _term(2, 0, 0, re=c2), _term(1, 1, 0, re=c3),
                      _term(0, 0, 1, im=c3 / 2), _term(4, 0, 0, re=c4)]}


def _off_locus_point(rng):
    while True:
        q1, q2 = _small_rational(rng), _small_rational(rng)
        if 4 * q1 + q2 * q2:
            return q1, q2


def _off_locus_oscillator(rng):
    """Decimal (omega, alpha, beta) with omega != alpha + beta, off the locus."""
    while True:
        omega, alpha, beta = (Fraction(rng.randint(-99, 99), 100) for _ in range(3))
        if omega == alpha + beta:
            continue
        q1, q2 = oracle.oscillator_q(omega, alpha, beta)
        if abs(4 * q1 + q2 * q2) >= Fraction(1, 10):
            return tuple(f"{float(v):.2f}" for v in (omega, alpha, beta))


def _scan_osc_op(label, omega, alpha, beta, known_fault=None):
    argv = ("scan-locus", f"--omega={omega}", f"--alpha={alpha}", f"--beta={beta}")
    check = partial(oracle.check_scan_oscillator, omega=Fraction(omega),
                    alpha=Fraction(alpha), beta=Fraction(beta))
    return Op(label, argv, check, known_fault)


def _symbolic_mix(rng, workdir):
    quadratic = str(MODELS / "quadratic.json")
    shifted = str(MODELS / "shifted.json")
    ix3 = str(MODELS / "ix3.json")
    base = json.loads(Path(quadratic).read_text(encoding="utf-8"))
    while True:
        a, b = _small_rational(rng), _small_rational(rng)
        if a != b:
            break
    base["options"]["numeric"] = {"a": str(a), "b": str(b)}
    quad_n = _write_model(workdir, "quadratic-n", base["hamiltonian"], base["options"])
    herm = _write_model(workdir, "hermitian", hermitian_model(rng))
    grid = oracle.grid(Fraction(-3), Fraction(3), 25)
    scan_check = partial(oracle.check_scan_grid, q1s=grid, q2s=grid)

    ops = [
        Op("family p", ("family", "--model", quadratic, "--observable", "p"),
           partial(oracle.check_family, observable="p")),
        Op("family x", ("family", "--model", quadratic, "--observable", "x"),
           partial(oracle.check_family, observable="x")),
        Op("family N", ("family", "--model", quad_n, "--observable", "N"),
           partial(oracle.check_family, observable="N", a=a, b=b)),
    ]
    for k in range(2):
        q1, q2 = _off_locus_point(rng)
        ops.append(Op(f"berry-osc point {k}", ("berry-osc", f"--q1={q1}", f"--q2={q2}"),
                      partial(oracle.check_berry_osc, q1=q1, q2=q2)))
    ops += [
        Op("scan-locus grid", ("scan-locus",), scan_check),
        Op("scan-locus grid --jobs 2", ("scan-locus", "--jobs", "2"), scan_check),
        _scan_osc_op("scan-locus on-locus oscillator", *ON_LOCUS, known_fault=ON_LOCUS_FAULT),
        _scan_osc_op("scan-locus off-locus oscillator", *_off_locus_oscillator(rng)),
    ]
    probes = [{(2, 3, 0): oracle.Q1}, {(3, -1, 0): oracle.QI}, {(1, 2, 0): oracle.Q1}]
    for model in (ix3, quadratic, shifted):
        ops.append(Op(f"pde {Path(model).stem}", ("pde", "--model", model),
                      partial(oracle.check_pde, model_path=model, probes=probes)))
    for model in (quadratic, herm):
        ops.append(Op(f"dagger --latex {Path(model).stem}", ("dagger", "--model", model, "--latex"),
                      partial(oracle.check_dagger, model_path=model)))
    for model in (ix3, herm):
        ops.append(Op(f"check-hermitian {Path(model).stem}", ("check-hermitian", "--model", model),
                      partial(oracle.check_hermitian, model_path=model)))
    for model in (shifted, herm):
        text, theta = theta_poly(rng)
        ops.append(Op(f"star {Path(model).stem}", ("star", "--model", model, "--theta", text),
                      partial(oracle.check_star, model_path=model, theta=theta)))
    for model in (ix3, herm):
        text, theta = theta_poly(rng)
        ops.append(Op(f"residual {Path(model).stem}", ("residual", "--model", model, "--theta", text),
                      partial(oracle.check_residual_poly, model_path=model, theta=theta)))
    ops += [
        Op("residual hermitian one", ("residual", "--model", herm, "--theta", "one"),
           partial(oracle.check_residual_poly, model_path=herm, theta={(0, 0, 0): oracle.Q1})),
        Op("residual shifted expquad", ("residual", "--model", shifted, "--theta", "expquad:exp(-2p)"),
           partial(oracle.check_residual_expquad, model_path=shifted, p_rate=-2)),
        Op("emit-latex ix3 order=2", ("emit-latex", "--model", ix3, "--order", "2"),
           partial(oracle.check_emit_latex, hamiltonian="p^{2} + i g x^{3}", order=2)),
    ]
    return ops


ORACLE_SIZES = (3, 5, 8)
ORACLE_TRIALS = 12
BERRY_TRIALS = 100


def _float_oracle(rng, workdir):
    ops = []
    for n in ORACLE_SIZES:
        s = str(rng.randrange(1, 10**6))
        ops.append(Op(f"finite-oracle n={n}",
                      ("finite-oracle", "--n", str(n), "--trials", str(ORACLE_TRIALS), "--seed", s),
                      partial(oracle.check_finite_oracle, n=n, trials=ORACLE_TRIALS)))
    for k in range(2):
        s = str(rng.randrange(1, 10**6))
        ops.append(Op(f"berry2x2 {k}", ("berry2x2", "--trials", str(BERRY_TRIALS), "--seed", s),
                      partial(oracle.check_berry2x2, trials=BERRY_TRIALS)))
    return ops
