"""Benchmark of the starmetric CLI: one workload per run, one JSON line out.

    python3 starbench/run.py --workload certify-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Operations call
``starmetric.cli.main(argv)`` in this process with stdout captured, so one
interpreter start per command does not swamp the figures; the import cost a
command-line user pays on every command is measured apart as ``setup_s``.

A run repeats whole rounds of its workload's operations until ``--seconds``
have passed (at least ``MIN_ROUNDS`` rounds).  Every operation is timed
between two runs of the calibration kernel (``calib.py``) and its time is
scaled by the kernel's reference time over the mean of those two runs.
``wall_s`` and ``cpu_s`` are the per-operation medians over the rounds,
summed over one round.  ``setup_s`` is the median import time over
``SETUP_REPEATS`` fresh interpreters started between the rounds, scaled
against a reference import timed in an interpreter of its own next to each.
Outputs are checked by ``oracle.py`` after the timed region and after
``peak_rss_mb`` has been read, so the checker adds neither time nor memory
to the figures.

``--trace 1`` runs the first half of the time untraced and the second half
with ``layers.Tracer`` installed, prints the per-layer metrics (medians over
the traced rounds, times scaled by the round's kernel factor) and requires
the traced outputs to equal the untraced ones.

Every run also writes its per-round figures, raw and scaled, to
``starbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("certify-ladder", "symbolic-mix", "float-oracle")

MIN_ROUNDS = 3
SETUP_REPEATS = 15

_PROGRAM_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[1]); import starmetric.cli; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)
_REFERENCE_PROBE = (
    f"import time; t0 = time.perf_counter(); import {calib.REFERENCE_MODULES}; "
    "print(time.perf_counter() - t0)"
)


# numpy's import starts an OpenBLAS thread per core.  On the 2-vCPU reference
# host that start-up alone took 0.06 to 0.1 s and switched between the two
# levels for minutes at a time, so the probes run with one BLAS thread; a
# command-line user pays the thread start-up on top of setup_s.
_PROBE_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _probe(code, *args):
    """The numbers a fresh interpreter running code prints."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=_PROBE_ENV,
                          capture_output=True, text=True, check=True, timeout=60)
    return [float(x) for x in done.stdout.split()]


class ImportProbes:
    """Import times of numpy and of starmetric in fresh interpreters that read
    the bytecode cache, taken between rounds so that they sample the whole
    run rather than one moment of it.

    Each probe's times are scaled by ``calib.REFERENCE_IMPORT_S`` over the
    time a second fresh interpreter, started right before or right after it
    (in turn), takes to import ``calib.REFERENCE_MODULES``; being apart, the
    reference does not depend on what the program imports (README,
    "Calibrated seconds")."""

    def __init__(self, total):
        self.total = total
        self.numpy_s, self.starmetric_s = [], []

    def take_until(self, fraction):
        """Probe until that fraction of the total number has been taken."""
        due = max(1, math.ceil(self.total * min(fraction, 1.0)))
        while len(self.numpy_s) < due:
            if len(self.numpy_s) % 2:
                (ref,), (a, b) = _probe(_REFERENCE_PROBE), _probe(_PROGRAM_PROBE, str(SRC))
            else:
                (a, b), (ref,) = _probe(_PROGRAM_PROBE, str(SRC)), _probe(_REFERENCE_PROBE)
            self.numpy_s.append(a * calib.REFERENCE_IMPORT_S / ref)
            self.starmetric_s.append(b * calib.REFERENCE_IMPORT_S / ref)

    def figures(self):
        self.take_until(1.0)
        return {
            "setup_s": statistics.median(a + b for a, b in zip(self.numpy_s, self.starmetric_s)),
            "setup.import_numpy_s": statistics.median(self.numpy_s),
            "setup.import_starmetric_s": statistics.median(self.starmetric_s),
        }


def _cpu_now():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def call_cli(argv):
    """Run one command in process: (exit code, stdout, stderr, wall, cpu)."""
    from starmetric import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback escaping the CLI is a wrong answer
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = _cpu_now()
    return rc, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0


class Recorder:
    """Per-round operation times with the kernel samples around them, the
    first output of every operation, and any later output that differs."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.differing = []  # (op index, phase)
        self.rounds = {}  # phase -> [{"wall": [...], "cpu": [...], "kernel": [(w, c), ...]}]

    def run_round(self, phase):
        walls, cpus, kernel = [], [], [calib.sample()]
        for i, op in enumerate(self.ops):
            rc, out, err, w, c = call_cli(op.argv)
            kernel.append(calib.sample())
            walls.append(w)
            cpus.append(c)
            if self.first[i] is None:
                self.first[i] = (rc, out, err)
            elif (rc, out, err) != self.first[i]:
                self.differing.append((i, phase))
        self.rounds.setdefault(phase, []).append({"wall": walls, "cpu": cpus, "kernel": kernel})

    def run_for(self, seconds, phase, min_rounds, after_round):
        """Whole rounds until seconds have passed; after_round gets the
        fraction of the time used so far."""
        start = time.perf_counter()
        while (len(self.rounds.get(phase, ())) < min_rounds
               or time.perf_counter() - start < seconds):
            self.run_round(phase)
            after_round((time.perf_counter() - start) / seconds)

    def summed(self, phase, kind, scaled=True):
        """Per-operation median over the phase's rounds, summed over a round.

        kind is "wall" or "cpu"; scaled times are in calibrated seconds."""
        rounds = self.rounds[phase]
        k = 0 if kind == "wall" else 1

        def value(r, i):
            if not scaled:
                return r[kind][i]
            around = (r["kernel"][i][k] + r["kernel"][i + 1][k]) / 2
            return r[kind][i] * calib.REFERENCE_S / around

        return sum(statistics.median(value(r, i) for r in rounds) for i in range(len(self.ops)))


def check_output(op, result):
    rc, out, err = result
    try:
        payload = json.loads(out) if out else {}
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {out[:200]!r}"]
    try:
        return op.check(rc, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"output not understood ({type(exc).__name__}: {exc}); rc={rc!r} stderr={err[:200]!r}"]


def verdicts(rec: Recorder):
    """(attempted, failed, correct, problems) over every round of the run.

    An operation fails when its output does not pass its check.  ``correct``
    is false when an operation fails that is not a known fault, or when an
    operation's output changes between rounds or under tracing."""
    problems = [f"{rec.ops[i].label}: {phase} output differs from the first output"
                for i, phase in rec.differing]
    n_rounds = sum(len(r) for r in rec.rounds.values())
    failed_ops = 0
    correct = not rec.differing
    for op, result in zip(rec.ops, rec.first):
        msgs = check_output(op, result)
        failed_ops += bool(msgs)
        correct = correct and (not msgs or op.known_fault is not None)
        tag = f"known fault ({op.known_fault})" if op.known_fault else "FAILED"
        problems += [f"{op.label}: {tag}: {msg}" for msg in msgs]
    return n_rounds * len(rec.ops), n_rounds * failed_ops, correct, problems


def _unit(name):
    return "s" if name.endswith("_s") else ("bits" if name.endswith("_bits") else "count")


def run(workload, seed, seconds, trace):
    # The probes import from a warm bytecode cache, as an installed CLI does,
    # even where PYTHONDONTWRITEBYTECODE keeps the import itself from writing it.
    compileall.compile_dir(SRC / "starmetric", quiet=1)
    sys.path.insert(0, str(SRC))
    import starmetric.cli  # noqa: F401  (imported here so that no timed operation pays for it)

    import layers
    import workloads

    probes = ImportProbes(SETUP_REPEATS)
    probes.take_until(0)
    workdir = HERE / "_work" / f"{workload}-{os.getpid()}"
    try:
        ops = workloads.build(workload, seed, workdir)
        rec = Recorder(ops)
        if not trace:
            rec.run_for(seconds, "untraced", MIN_ROUNDS, probes.take_until)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": rec.summed("untraced", "wall"),
                "cpu_s": rec.summed("untraced", "cpu"),
                "peak_rss_mb": peak_mb,
                "setup_s": probes.figures()["setup_s"],
            }
            extra = {"raw_wall_s": rec.summed("untraced", "wall", scaled=False),
                     "raw_cpu_s": rec.summed("untraced", "cpu", scaled=False)}
        else:
            rec.run_for(seconds / 2, "untraced", 2, lambda f: probes.take_until(f / 2))
            tracer = layers.Tracer()
            per_round = []
            with tracer:
                start = time.perf_counter()
                while len(per_round) < 2 or time.perf_counter() - start < seconds / 2:
                    tracer.reset()
                    rec.run_round("traced")
                    scale = calib.factor(rec.rounds["traced"][-1]["kernel"])
                    per_round.append({k: v * scale if _unit(k) == "s" else v
                                      for k, v in tracer.metrics().items()})
                    probes.take_until(0.5 + (time.perf_counter() - start) / seconds)
            setup = probes.figures()
            metrics = {"setup.import_numpy_s": setup["setup.import_numpy_s"],
                       "setup.import_starmetric_s": setup["setup.import_starmetric_s"]}
            for name in per_round[0]:
                metrics[name] = statistics.median(m[name] for m in per_round)
            metrics["trace.overhead_s"] = rec.summed("traced", "wall") - rec.summed("untraced", "wall")
            edges = sorted(tracer.call_edges().items(), key=lambda kv: -kv[1][1])
            extra = {"last_round_layer_self_s": tracer.layer_self(),
                     "last_round_call_edges": {k: {"calls": c, "total_s": t} for k, (c, t) in edges}}
        attempted, failed, correct, problems = verdicts(rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in problems:
        print(line, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else _unit(k)}
                    for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  ops=[op.label for op in ops], rounds=rec.rounds, problems=problems, **extra)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starmetric" / "cli.py").is_file():
        print(f"no starmetric sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
