"""Source-level rules that keep one policy in one place."""

import ast
import importlib
import inspect
import pathlib

import nearvec
from nearvec.mult_auto import enumerate_mult_autos
from nearvec.nearfield import distributive_elements
from nearvec.nvspace import anchored_add

PACKAGE = pathlib.Path(nearvec.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


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
    for path in PACKAGE.glob("*.py"):
        visitor = _RaiseSites(name)
        visitor.visit(_tree(path))
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
    for path in PACKAGE.glob("*.py"):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_imports_nearvec(node) for node in ast.walk(fn)):
                    sites.add((path.stem, fn.name))
    assert sorted(sites) == []


def test_memoized_layers_stay_plain_functions():
    # bench/tracing.py wraps and counts plain module functions only, so a
    # per-base memo lives inside the body, never in a functools wrapper
    for fn in (enumerate_mult_autos, distributive_elements, anchored_add):
        assert inspect.isfunction(fn) and not hasattr(fn, "__wrapped__"), fn


def test_package_init_imports_nothing():
    # each name has one import path, its defining module
    tree = _tree(PACKAGE / "__init__.py")
    assert [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


def test_each_module_is_its_package_attribute():
    # nothing in the package rebinds a module's name to something else
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"nearvec.{path.stem}")
            assert getattr(nearvec, path.stem) is module, path.stem


# public names no CLI action, bench file or acceptance test reaches, each
# kept for the reason given
UNREACHED_BY_DESIGN = {
    "basis_transport_check": "the witness check that basis images span and stay independent",
    "divisionring_transport_check": "a paper lemma; its check-base field would move goldens",
    "decompose_over_real": "the paper's complexification coordinates; a field would move goldens",
    "reconstruct_from_real": "the inverse of decompose_over_real, kept with it",
    "vector_from_json": "the reference the round-trip tests check vector_to_json against",
}


def test_every_public_name_is_reached():
    # a top-level public function or class is named somewhere in the
    # package (its own module counts, its def does not), the bench or the
    # acceptance tests; a wrapper only its own unit test calls goes
    public = set()
    for path in PACKAGE.glob("*.py"):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
    reached = set()
    readers = [*PACKAGE.glob("*.py"), *(REPO / "bench").glob("*.py")]
    for path in [*readers, REPO / "tests" / "test_acceptance.py"]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name)
    assert sorted(public - reached) == sorted(UNREACHED_BY_DESIGN)


# the one function that turns a finite map into an index list
CODES = ("mult_auto", "MultAuto.codes")
# the others that take an ``apply`` as a value, each for the reason given
APPLY_AS_VALUE = {
    ("mult_auto", "mult_properties_check"): "f = auto.apply: it checks apply itself",
    ("canonical", "_vector_law_check"): "functools.cache(m.apply) memoizes an IsoMap, not an automorphism",
}


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _is_elements(node):
    """``x.elements()``, ``x.nonzero_elements()`` or ``x.elements``."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Attribute) and node.attr in ("elements", "nonzero_elements")


class _TabulatingSites(ast.NodeVisitor):
    """The qualified name of every function that passes an ``apply`` as a
    value, or applies a map in a comprehension over a base's elements
    (read directly or through a name bound to them in the function)."""

    def __init__(self):
        self.scope = []
        self.sites = set()

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        body = list(ast.walk(node))
        called = {id(n.func) for n in body if isinstance(n, ast.Call)}
        element_names = {
            t.id
            for n in body
            if isinstance(n, ast.Assign) and _is_elements(n.value)
            for t in n.targets
            if isinstance(t, ast.Name)
        }

        def over_elements(gen):
            it = gen.iter
            return _is_elements(it) or (isinstance(it, ast.Name) and it.id in element_names)

        for n in body:
            if isinstance(n, ast.Attribute) and n.attr == "apply" and id(n) not in called:
                self.sites.add(".".join(self.scope))
            if isinstance(n, COMPREHENSIONS) and any(map(over_elements, n.generators)):
                if any(isinstance(c, ast.Attribute) and c.attr == "apply" for c in ast.walk(n)):
                    self.sites.add(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def test_finite_maps_are_tabulated_by_codes():
    sites = set()
    for path in PACKAGE.glob("*.py"):
        visitor = _TabulatingSites()
        visitor.visit(_tree(path))
        sites.update((path.stem, name) for name in visitor.sites)
    # every other sweep over a finite map reads its codes
    assert sorted(sites) == sorted([CODES, *APPLY_AS_VALUE])
