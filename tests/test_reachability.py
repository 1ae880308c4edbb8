"""No library code that only tests call, and no parameter or flag that no
caller uses.

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

The same AST gives the parameters.  A defaulted parameter must be set by
some call in `starmetric`, and every parameter must be read in its
function's body; a CLI flag must be read as ``args.<flag>``.  Each exception
is listed below with its reason, and an exception that is no longer needed
fails as well.
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
    ("metric", "solution_family_closure", "f(H) * Theta * g(dagger(H)) solves the metric equation"),
    ("weyl", "clock_shift", "the Weyl pair whose commutation the finite-N algebra rests on"),
    ("weyl", "isomorphism_trial", "one finite-N star product against the matrix product"),
    ("weyl", "discrete_is_hermitian", "the finite-N hermiticity criterion"),
    ("weyl", "TorusFunction.basis", "the basis functions of the finite-N star rule"),
)

# (module, function, parameter): why the default stays although no call in
# starmetric sets it
DEFAULTS = (
    ("cli", "main", "argv", "the console entry point calls main() with no arguments"),
    ("phasepoly", "PhasePoly.hbar", "power", "the signature of PhasePoly.x and PhasePoly.p"),
    ("metric", "solve_perturbative", "integration_functions", "documented in the README"),
)
# (flag, why it stays although no handler reads it)
UNREAD_FLAGS = (
    ("jobs", "the benchmark's symbolic-mix workload runs scan-locus with --jobs 2"),
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


def _functions():
    """(module, qualified name, node, class name or None) of every module-level
    function and method."""
    for (mod, qual), node in _definitions().items():
        if not isinstance(node, ast.ClassDef):
            yield mod, qual, node, qual.split(".")[0] if "." in qual else None


def _calls():
    """(callee name, call node, enclosing class name or None) of every call in
    starmetric; the callee name is that of a bare name or an attribute."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                yield name, child, inner
            yield from walk(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), None)


def _receiver(node: ast.FunctionDef, cls) -> int:
    """1 when the first parameter is the instance or class, else 0."""
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    return int(cls is not None and not static)


def _callee_names(qual: str, cls) -> set:
    """The names a call of this function goes by: a constructor is called by
    its class name, or as ``cls`` inside its class."""
    name = qual.split(".")[-1]
    return {cls, "cls"} if name in ("__init__", "__new__") else {name}


def _unset_defaults():
    """(module, function, parameter) of each defaulted parameter that no call
    in starmetric sets, by keyword, by position or through * or **.  A call
    is matched by name, so a call of another function of the same name
    counts too.  Dunder methods other than constructors are left out."""
    calls = list(_calls())
    out = set()
    for mod, qual, node, cls in _functions():
        name = qual.split(".")[-1]
        if _is_dunder(name) and name not in ("__init__", "__new__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        names, skip = _callee_names(qual, cls), _receiver(node, cls)
        for index, param in defaulted:
            if not any(
                any(k.arg in (None, param) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index - skip)
                for callee, call, where in calls
                if callee in names and (callee != "cls" or where == cls)
            ):
                out.add((mod, qual, param))
    return out


def _unread_parameters():
    """(module, function, parameter) of each parameter that its function's
    body never reads; the instance or class parameter of a method and dunder
    methods are left out."""
    out = set()
    for mod, qual, node, cls in _functions():
        if _is_dunder(qual.split(".")[-1]):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for param in params[_receiver(node, cls):]:
            if param.arg not in read:
                out.add((mod, qual, param.arg))
    return out


def _unread_flags():
    from starmetric import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    read = {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and getattr(n.value, "id", None) == "args"
    }
    return set(cli._FLAGS) - read


def test_every_defaulted_parameter_is_set_by_some_call():
    listed = {(mod, qual, param) for mod, qual, param, _ in DEFAULTS}
    stray = _unset_defaults() - listed
    assert not stray, f"defaults that no call in starmetric sets: {sorted(stray)}"


def test_every_parameter_is_read():
    stray = _unread_parameters()
    assert not stray, f"parameters that their function never reads: {sorted(stray)}"


def test_every_flag_is_read():
    listed = {flag for flag, _ in UNREAD_FLAGS}
    stray = _unread_flags() - listed
    assert not stray, f"flags that no handler reads: {sorted(stray)}"


def test_every_exception_is_still_needed():
    unset, unread = _unset_defaults(), _unread_flags()
    for mod, qual, param, reason in DEFAULTS:
        assert (mod, qual, param) in unset and reason, f"{mod}.{qual} {param} is set by a call"
    for flag, reason in UNREAD_FLAGS:
        assert flag in unread and reason, f"--{flag} is read or gone"
