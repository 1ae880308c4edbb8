"""No library code that only tests call.

The AST of every `starmetric` module is walked from `cli.main` and from the
code that runs at import (module and class bodies, decorators, default
values).  A function, class or method is reached when some reached code
names it: a bare name or an attribute reaches the functions and classes of
that name, an attribute reaches the methods of that name, and `Cls.name`
reaches only `Cls`'s own method when it has one.  Dunder methods of a
reached class count as reached.  Annotations are not evaluated (every
module has ``from __future__ import annotations``), so they reach nothing.

Every definition must be reached, be traced by name in
`starbench/layers.py`, or be an oracle listed below.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starmetric"

# (module, qualified name): why the definition stays although only tests call it
ORACLES = (
    ("star", "star_exp", "the inverse of star_log, checked against it"),
    ("berry", "plaquette_transport", "the transport around a plaquette that curvature predicts"),
    ("berry", "plaquette_defect", "the plaquette check of curvature_of_field"),
    ("berry", "MoyalConnection.a1", "A_1 as a phase-space function, for the bracket checks"),
    ("berry", "MoyalConnection.a2", "A_2 as a phase-space function, for the bracket checks"),
    ("metric", "PDEOperator.apply", "checks that pde_operator reproduces metric_residual"),
    ("metric", "solution_family_closure", "f(H) * Theta * g(dagger(H)) solves the metric equation"),
    ("weyl", "clock_shift", "the Weyl pair whose commutation the finite-N algebra rests on"),
    ("weyl", "isomorphism_trial", "one finite-N star product against the matrix product"),
    ("weyl", "discrete_is_hermitian", "the finite-N hermiticity criterion"),
    ("weyl", "TorusFunction.basis", "the basis functions of the finite-N star rule"),
)


def _load_layers():
    spec = importlib.util.spec_from_file_location("_layers", ROOT / "starbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _traced():
    layers = _load_layers()
    out = {(mod, name) for mod, names in layers.FUNCTIONS.items() for name in names}
    out |= {(mod, f"{cls}.{attr}") for (mod, cls), methods in layers.METHODS.items()
            for attr in methods}
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Refs(ast.NodeVisitor):
    """The names, attributes and (class, attribute) pairs a piece of code uses,
    annotations left out."""

    def __init__(self):
        self.names, self.attrs, self.qualified = set(), set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            self.qualified.add((node.value.id, node.attr))
        else:
            self.attrs.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        self.visit_header(node)
        for stmt in node.body:
            self.visit(stmt)

    def visit_header(self, node):
        """What runs when a def statement runs: decorators and default values."""
        for child in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if child is not None:
                self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _import_time(node, refs: _Refs):
    """Visit what runs when a module-level definition is executed."""
    if isinstance(node, ast.ClassDef):
        for child in node.decorator_list + node.bases + node.keywords:
            refs.visit(child)
        for stmt in node.body:
            _import_time(stmt, refs)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        refs.visit_header(node)
    else:
        refs.visit(node)


def _definitions():
    """{(module, qualified name): node} of the module-level functions and
    classes and of the methods of those classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[(mod, node.name)] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out[(mod, f"{node.name}.{item.name}")] = item
    return out


def _unreached():
    defs = _definitions()
    refs = _Refs()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            _import_time(node, refs)
    reached = {("cli", "main")}
    methods = {}  # class name -> its method names
    for _, qual in defs:
        if "." in qual:
            cls, attr = qual.split(".")
            methods.setdefault(cls, set()).add(attr)
    walked = set()
    while True:
        for key, node in defs.items():
            if key not in reached or key in walked:
                continue
            walked.add(key)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _is_dunder(item.name):
                        reached.add((key[0], f"{node.name}.{item.name}"))
            else:
                for stmt in node.body:
                    refs.visit(stmt)
        used = refs.names | refs.attrs | {attr for _, attr in refs.qualified}
        loose = refs.attrs | {
            attr for cls, attr in refs.qualified if attr not in methods.get(cls, ())
        }
        new = set()
        for mod, qual in defs:
            if "." not in qual:
                hit = qual in used
            else:
                cls, attr = qual.split(".")
                hit = attr in loose or (cls, attr) in refs.qualified
            if hit:
                new.add((mod, qual))
        if new <= reached:
            break
        reached |= new
    return {key for key in defs if key not in reached}


def test_every_definition_is_reached_traced_or_an_oracle():
    oracles = {(mod, name) for mod, name, _ in ORACLES}
    stray = _unreached() - _traced() - oracles
    assert not stray, f"library code that only tests call: {sorted(stray)}"


def test_every_oracle_exists_and_is_not_otherwise_reached():
    defs, unreached, traced = _definitions(), _unreached(), _traced()
    for mod, name, reason in ORACLES:
        assert (mod, name) in defs, f"{mod}.{name} is listed but not defined"
        assert (mod, name) in unreached and (mod, name) not in traced, (
            f"{mod}.{name} is reached without the list"
        )
        assert reason
