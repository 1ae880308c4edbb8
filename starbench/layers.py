"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of each ``starmetric``
module, and the arithmetic methods of its scalar and polynomial classes, with
timing wrappers; ``uninstall()`` puts the originals back.  A function is
replaced under every name that refers to it in any ``starmetric`` module,
because ``metric`` and ``cli`` import ``star``, ``certify_metric`` and others
by name.

Each call is a span with a name, a start, an end and the span that caused
it.  Spans of the exact layers above the scalars are kept in memory; the
scalar and polynomial operations run hundreds of thousands of times a round,
so for them only counts and times are accumulated.  A name's self time is
its duration minus the time of the traced calls it made; its total time
counts only the outermost of nested calls to the same name.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

FUNCTIONS = {
    "cli": ("main",),
    "modelio": ("load_model",),
    "exprparse": ("parse_theta",),
    "latexout": ("poly_latex", "series_latex", "param_poly_latex"),
    "metric": ("solve_perturbative", "metric_residual", "certify_metric",
               "expand_gaussian_in_coupling", "pde_operator", "observable_residual",
               "log_linear_in_n_check"),
    "star": ("star", "star_series", "star_log", "dagger", "is_hermitian",
             "star_poly_expquad", "star_commutator"),
    "berry": ("moyal_connection_solve", "connection_residual", "moyal_curvature",
              "singular_locus", "solve_connection_2x2", "holonomy_exceptional",
              "holonomy_product_form"),
    "weyl": ("op_to_fun", "fun_to_op", "discrete_star", "discrete_dagger", "oracle_run"),
}

# (module, class): {method: trace name}.  Methods that only call other traced
# methods (GaussianRational.__truediv__, PhasePoly.__sub__, ...) are left out
# so that one operation is counted once.
METHODS = {
    ("scalars", "GaussianRational"): {
        "__mul__": "gr_mul", "__rmul__": "gr_mul",
        "__add__": "gr_add", "__radd__": "gr_add", "__sub__": "gr_add",
        "__neg__": "gr_other", "inverse": "gr_other", "conjugate": "gr_other",
    },
    ("scalars", "ParamPoly"): {"__mul__": "parampoly_mul", "__rmul__": "parampoly_mul"},
    ("scalars", "RatFunc2"): {
        name: "ratfunc2"
        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__neg__",
                     "__eq__", "partial", "eval", "conjugate")
    },
    ("phasepoly", "PhasePoly"): {
        "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
        "derivative": "derivative",
    },
}

# Layers whose individual spans are not kept (see the module docstring).
COUNT_ONLY = ("scalars", "phasepoly")


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.layer_total = Counter()
        self.depth = Counter()
        self.stack = []  # open frames: [child_time]
        self.span_stack = []  # ids of open kept spans
        self.spans = []  # (id, name, start, end, parent id)
        self.counters = Counter()
        self.maxima = Counter()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        layer = name.split(".", 1)[0]
        keep = layer not in COUNT_ONLY
        tracer = self

        def traced(*args, **kwargs):
            stack, depth = tracer.stack, tracer.depth
            st = tracer.stats.get(name)
            if st is None:
                st = tracer.stats[name] = [0, 0.0, 0.0]
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            depth[layer] += 1
            if keep:
                span_id = len(tracer.spans) + len(tracer.span_stack)
                parent = tracer.span_stack[-1] if tracer.span_stack else None
                tracer.span_stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                st[0] += 1
                st[1] += dt - frame[0]
                depth[name] -= 1
                if not depth[name]:
                    st[2] += dt
                depth[layer] -= 1
                if not depth[layer]:
                    tracer.layer_total[layer] += dt
                if stack:
                    stack[-1][0] += dt
                if keep:
                    tracer.span_stack.pop()
                    tracer.spans.append((span_id, name, t0, t1, parent))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gr_mul_hook(self, args, result):
        if result is NotImplemented:
            return
        bits = max(result.re.numerator.bit_length(), result.re.denominator.bit_length(),
                   result.im.numerator.bit_length(), result.im.denominator.bit_length())
        if bits > self.maxima["scalars.max_coeff_bits"]:
            self.maxima["scalars.max_coeff_bits"] = bits

    def _pp_mul_hook(self, args, result):
        a, b = args
        if type(b) is not type(a):
            return
        self.counters["phasepoly.mul.term_pairs"] += len(a.terms) * len(b.terms)
        size = max(len(a.terms), len(b.terms), len(result.terms))
        if size > self.maxima["phasepoly.max_terms"]:
            self.maxima["phasepoly.max_terms"] = size

    # -- install / uninstall --------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: importlib.import_module(f"starmetric.{n}")
                   for n in set(FUNCTIONS) | {m for m, _ in METHODS}}
        package = [m for n, m in sys.modules.items()
                   if (n == "starmetric" or n.startswith("starmetric.")) and m is not None]
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        hooks = {"scalars.gr_mul": self._gr_mul_hook, "phasepoly.mul": self._pp_mul_hook}
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            wrappers = {}
            for attr, short in methods.items():
                name = f"{mod_name}.{short}"
                original = cls.__dict__[attr]
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original, hooks.get(name))
                self._patch(cls, attr, wrappers[original])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def _stat(self, name, index):
        return self.stats.get(name, (0, 0.0, 0.0))[index]

    def metrics(self):
        """The per-layer metrics of the spans recorded since the last reset."""
        calls = lambda n: self._stat(n, 0)
        self_s = lambda n: self._stat(n, 1)
        total_s = lambda n: self._stat(n, 2)
        out = {
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "modelio.load_model.calls": calls("modelio.load_model"),
            "modelio.load_model.total_s": total_s("modelio.load_model"),
            "exprparse.parse_theta.total_s": total_s("exprparse.parse_theta"),
            "latexout.total_s": self.layer_total["latexout"],
        }
        for fn in ("solve_perturbative", "metric_residual", "certify_metric",
                   "expand_gaussian_in_coupling", "pde_operator"):
            out[f"metric.{fn}.total_s"] = total_s(f"metric.{fn}")
        for fn in ("star", "star_series"):
            out[f"star.{fn}.calls"] = calls(f"star.{fn}")
            out[f"star.{fn}.self_s"] = self_s(f"star.{fn}")
        for fn in ("star_log", "dagger", "is_hermitian"):
            out[f"star.{fn}.calls"] = calls(f"star.{fn}")
            out[f"star.{fn}.total_s"] = total_s(f"star.{fn}")
        out["star.star_poly_expquad.total_s"] = total_s("star.star_poly_expquad")
        out["phasepoly.mul.calls"] = calls("phasepoly.mul")
        out["phasepoly.mul.self_s"] = self_s("phasepoly.mul")
        out["phasepoly.mul.term_pairs"] = self.counters["phasepoly.mul.term_pairs"]
        out["phasepoly.add.calls"] = calls("phasepoly.add")
        out["phasepoly.add.self_s"] = self_s("phasepoly.add")
        out["phasepoly.derivative.calls"] = calls("phasepoly.derivative")
        out["phasepoly.max_terms"] = self.maxima["phasepoly.max_terms"]
        out["scalars.gr_mul.calls"] = calls("scalars.gr_mul")
        out["scalars.gr_add.calls"] = calls("scalars.gr_add")
        out["scalars.gr.self_s"] = sum(self_s(f"scalars.{n}") for n in ("gr_mul", "gr_add", "gr_other"))
        out["scalars.parampoly_mul.calls"] = calls("scalars.parampoly_mul")
        out["scalars.ratfunc2.calls"] = calls("scalars.ratfunc2")
        out["scalars.ratfunc2.self_s"] = self_s("scalars.ratfunc2")
        out["scalars.max_coeff_bits"] = self.maxima["scalars.max_coeff_bits"]
        for fn in ("moyal_connection_solve", "singular_locus"):
            out[f"berry.{fn}.total_s"] = total_s(f"berry.{fn}")
        out["berry.solve_connection_2x2.calls"] = calls("berry.solve_connection_2x2")
        out["berry.solve_connection_2x2.total_s"] = total_s("berry.solve_connection_2x2")
        out["berry.holonomy_product_form.total_s"] = total_s("berry.holonomy_product_form")
        for fn in ("op_to_fun", "discrete_star"):
            out[f"weyl.{fn}.calls"] = calls(f"weyl.{fn}")
            out[f"weyl.{fn}.self_s"] = self_s(f"weyl.{fn}")
        out["weyl.discrete_dagger.self_s"] = self_s("weyl.discrete_dagger")
        return out

    def layer_self(self):
        """Self time summed per layer (module)."""
        out = Counter()
        for name, (_, s, _) in self.stats.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def call_edges(self):
        """Time and calls of each kept (caller, callee) pair of names."""
        names = {sid: name for sid, name, _, _, _ in self.spans}
        edges = {}
        for sid, name, t0, t1, parent in self.spans:
            key = f"{names.get(parent, '-')} -> {name}"
            calls, total = edges.get(key, (0, 0.0))
            edges[key] = (calls + 1, total + (t1 - t0))
        return edges
