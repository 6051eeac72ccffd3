"""Source-level rules that keep one policy in one place."""

import ast
import inspect
import pathlib

import nearvec
from nearvec.mult_auto import enumerate_mult_autos
from nearvec.nearfield import distributive_elements
from nearvec.nvspace import anchored_add


class _RaiseSites(ast.NodeVisitor):
    """The innermost enclosing function of every ``raise <name>`` or
    ``raise <name>(...)``, module-level raises included."""

    def __init__(self, name):
        self.name = name
        self.scope = ["<module>"]
        self.sites = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) == self.name:
            self.sites.add(self.scope[-1])
        self.generic_visit(node)


def _raise_sites(name):
    sites = set()
    for path in pathlib.Path(nearvec.__file__).parent.glob("*.py"):
        visitor = _RaiseSites(name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites.update((path.stem, scope) for scope in visitor.sites)
    return sorted(sites)


def test_bound_refusals_go_through_charge():
    # every sweep refuses through errors.charge; galois._check_order is the
    # field-order cap, which tests p and n before it computes p**n
    assert _raise_sites("BoundExceededError") == [
        ("errors", "charge"),
        ("galois", "_check_order"),
    ]


def _imports_nearvec(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "nearvec"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "nearvec" for alias in node.names)
    return False


def test_no_function_imports_a_nearvec_module():
    # the import graph is the module-level one; a module needing a function
    # of a higher layer is a sign the function belongs lower
    sites = set()
    for path in pathlib.Path(nearvec.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_imports_nearvec(node) for node in ast.walk(fn)):
                    sites.add((path.stem, fn.name))
    assert sorted(sites) == []


def test_memoized_layers_stay_plain_functions():
    # bench/tracing.py wraps and counts plain module functions only, so a
    # per-base memo lives inside the body, never in a functools wrapper
    for fn in (enumerate_mult_autos, distributive_elements, anchored_add):
        assert inspect.isfunction(fn) and not hasattr(fn, "__wrapped__"), fn
