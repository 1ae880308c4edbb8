"""Tests of the benchmark itself: the checker rejects wrong outputs, a seed
fixes the inputs, and tracing does not change what the program prints.

    PYTHONPATH=src python3 -m pytest -q starbench
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

IX3 = str(workloads.MODELS / "ix3.json")


def _cli(*argv):
    rc, out, err, _, _ = run.call_cli(argv)
    return rc, json.loads(out)


def test_checker_accepts_and_rejects_a_flipped_series_coefficient():
    rc, out = _cli("solve", "--model", IX3, "--order", "3")
    assert oracle.check_solve(rc, out, IX3, 3, oracle.IX3_PAPER_COEFFS) == []
    for n in (1, 2, 3):
        bad = copy.deepcopy(out)
        term = bad["series"]["coeffs"][n][-1]
        part = "im" if term["coeff"]["im"] != "0" else "re"
        term["coeff"][part] = str(-Fraction(term["coeff"][part]))
        assert oracle.check_solve(rc, bad, IX3, 3), f"flip at order {n} not caught"


def test_checker_rejects_a_wrong_locus_and_wrong_point_values():
    q1, q2 = Fraction(1, 3), Fraction(-2)
    rc, out = _cli("berry-osc", f"--q1={q1}", f"--q2={q2}")
    assert oracle.check_berry_osc(rc, out, q1, q2) == []
    bad = copy.deepcopy(out)
    bad["locus"]["terms"][0]["coeff"]["re"] = "2"
    assert oracle.check_berry_osc(rc, bad, q1, q2)
    bad = copy.deepcopy(out)
    bad["point"]["coefficients"]["a2_xx"] = "1/15"
    assert oracle.check_berry_osc(rc, bad, q1, q2)


def test_checker_rejects_a_wrong_region_sign():
    grid = oracle.grid(Fraction(-3), Fraction(3), 25)
    rc, out = _cli("scan-locus")
    assert oracle.check_scan_grid(rc, out, grid, grid) == []
    bad = copy.deepcopy(out)
    bad["records"][7]["region_sign"] *= -1
    assert oracle.check_scan_grid(rc, bad, grid, grid)
    rc, out = _cli("scan-locus", "--omega=0.5", "--alpha=0.1", "--beta=0.2")
    good = oracle.check_scan_oscillator(rc, out, Fraction("0.5"), Fraction("0.1"), Fraction("0.2"))
    assert good == []
    out["records"][0]["region_sign"] *= -1
    assert oracle.check_scan_oscillator(rc, out, Fraction("0.5"), Fraction("0.1"), Fraction("0.2"))


def test_independent_star_matches_known_products():
    x, p = {(1, 0, 0): oracle.Q1}, {(0, 1, 0): oracle.Q1}
    assert oracle.star(x, p) == {(1, 1, 0): oracle.Q1, (0, 0, 1): oracle.QI}
    assert oracle.star(p, x) == {(1, 1, 0): oracle.Q1}
    assert oracle.is_hermitian({(1, 1, 0): oracle.Q1, (0, 0, 1): oracle.q(0, Fraction(1, 2))})
    assert not oracle.is_hermitian({(1, 1, 0): oracle.Q1})


def _inputs(workload, seed, workdir):
    ops = workloads.build(workload, seed, workdir)
    files = {f.name: f.read_text() for f in sorted(workdir.iterdir())}
    argvs = [tuple(a.replace(str(workdir), "<work>") for a in op.argv) for op in ops]
    return argvs, files


@pytest.mark.parametrize("workload", ["certify-ladder", "symbolic-mix", "float-oracle"])
def test_a_seed_fixes_the_inputs(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    assert first == _inputs(workload, 5, tmp_path / "b")
    assert first != _inputs(workload, 6, tmp_path / "c")


def test_traced_outputs_equal_untraced_and_tracer_restores_the_program(tmp_path):
    import importlib

    cli, scalars, star = (importlib.import_module(f"starmetric.{m}") for m in ("cli", "scalars", "star"))
    ops = workloads.build("symbolic-mix", 3, tmp_path)
    ops = [op for op in ops if not op.label.startswith(("berry-osc point 1", "scan-locus grid --jobs"))]
    ops += workloads._ladder(IX3, (2, 3), oracle.IX3_PAPER_COEFFS)
    originals = (cli.main, cli.star, star.star, scalars.GaussianRational.__dict__["__mul__"])
    rec = run.Recorder(ops)
    rec.run_round("untraced")
    tracer = layers.Tracer()
    with tracer:
        assert cli.star is not originals[1]
        rec.run_round("traced")
    assert (cli.main, cli.star, star.star, scalars.GaussianRational.__dict__["__mul__"]) == originals
    assert rec.differing == []
    metrics = tracer.metrics()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    extra = {"setup.import_numpy_s", "setup.import_starmetric_s", "trace.overhead_s"}
    assert set(metrics) | extra == {m["name"] for m in bench["per_layer"]}
    assert metrics["cli.main.calls"] == len(ops)
    assert metrics["star.star.calls"] > 0 and metrics["scalars.gr_mul.calls"] > 0
    assert metrics["metric.certify_metric.total_s"] > 0
    attempted, failed, correct, problems = run.verdicts(rec)
    assert correct, problems
    assert (attempted, failed) == (2 * len(ops), 2)  # the on-locus scan point, once per round
