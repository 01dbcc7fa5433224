"""Census of the public API: every function and every option must have
a caller.

Every public function, method and property in ``src/repro`` must be
referenced by production code: code in ``src/``, ``benchmarks/``,
``examples/`` or ``e2ebench/``. A function only tests call is test
code; it belongs in ``tests/``. Two rules keep the count honest:

* a name a ``src/repro/**/__init__.py`` imports to re-export it is not
  a reference: re-exporting a function does not call it;
* a method or property is referenced only when production code reads it
  as an attribute (``obj.name``) or names it to ``getattr``; a local
  variable of the same name (``move = propose(span)``) is not a use.

Matching is by name, so a function the census reports is named nowhere
in production code.

A defaulted parameter of a public function, method or constructor in
``src/repro`` is an option. It stays only when some call in ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``e2ebench/`` passes it,
by keyword or by position; otherwise it is a constant wearing a
parameter's clothes. The census matches calls to definitions by name
(``f(...)``, ``obj.f(...)``, ``Class(...)`` for ``Class.__init__``), so
it over-approximates the set of callers: a parameter it reports is
named by no call anywhere. Values forwarded through a splatted dict are
invisible to it; the few parameters set only that way are allowlisted,
each with its reason.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "e2ebench")
#: Where a public function must be referenced: everywhere but the tests.
REFERENCE_DIRS = tuple(d for d in CALLER_DIRS if d != "tests")

_SPEC_PARAM = (
    "a gen: spec parameter: GeneratorSpec.build passes it from the spec "
    "string through the GENERATOR_FAMILIES table"
)
_SPEC_NAME = (
    "GeneratorSpec.build passes name= through the GENERATOR_FAMILIES table; "
    "build_mixed_assay's sub-graphs keep the default"
)

#: ``module:Qualname.param`` -> why it stays without a caller that sets it.
ALLOWLIST: dict[str, str] = {
    "repro.workload.generator:build_mix_tree_assay.store_pct": _SPEC_PARAM,
    "repro.workload.generator:build_diamond_assay.max_arm": _SPEC_PARAM,
    "repro.workload.generator:build_dilution_ladder_assay.depth": _SPEC_PARAM,
    "repro.workload.generator:build_panel_assay.reagents": _SPEC_PARAM,
    "repro.workload.generator:build_mix_tree_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_diamond_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_dilution_ladder_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_panel_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_mixed_assay.name": (
        "GeneratorSpec.build passes name= through the GENERATOR_FAMILIES table"
    ),
}


#: ``module:Qualname`` -> why it stays with no reference outside tests.
FUNCTION_ALLOWLIST: dict[str, str] = {
    "repro.geometry.rect:Rect.expanded": (
        "the inverse of Rect.inset, kept beside it so the segregation ring "
        "round-trips; the geometry tests pin the pair"
    ),
    "repro.sim.droplet:Droplet.concentration": (
        "reads a product droplet's mix ratio, the quantity a dilution "
        "assay's output is judged by"
    ),
    "repro.testing.chaos:ChaosPolicy.describe": (
        "one-line summary of a chaos policy for reading a fault-injection "
        "run's setup"
    ),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """``(name, positional index after self/cls or None)`` of defaulted params."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound and positional else 0
    first_default = len(positional) - len(args.defaults)
    out = [
        (a.arg, i - skip)
        for i, a in enumerate(positional)
        if i >= first_default and i >= skip
    ]
    out += [
        (a.arg, None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    return out


def _definitions() -> dict[str, tuple[str, list[tuple[str, int | None]]]]:
    """``module:Qualname`` -> (call name, defaulted params) of the public API."""
    defs = {}
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{module}:{node.name}"] = (node.name, _defaulted(node, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name.startswith("_") and item.name != "__init__":
                        continue
                    decorators = {getattr(d, "id", None) for d in item.decorator_list}
                    if "property" in decorators:
                        continue
                    bound = "staticmethod" not in decorators
                    name = node.name if item.name == "__init__" else item.name
                    defs[f"{module}:{node.name}.{item.name}"] = (
                        name, _defaulted(item, bound)
                    )
    return defs


def _public_functions() -> dict[str, tuple[str, bool]]:
    """``module:Qualname`` -> (name, is a method or property) of every
    public function, method and property in ``src/repro``."""
    defs = {}
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{module}:{node.name}"] = (node.name, False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{module}:{node.name}.{item.name}"] = (item.name, True)
    return defs


def _is_reexport(path: Path) -> bool:
    """True for a package ``__init__.py`` under ``src/repro``."""
    return path.name == "__init__.py" and SOURCE in path.parents


def _referenced_names() -> tuple[set[str], set[str]]:
    """``(names, attributes)`` production code references.

    *names* holds every bare name used or imported by name, except the
    imports of a package ``__init__.py`` (re-exports); *attributes*
    every name read as an attribute or passed to ``getattr`` as a
    string constant.
    """
    names: set[str] = set()
    attributes: set[str] = set()
    for top in REFERENCE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            reexport = _is_reexport(path)
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexport:
                    names.update(alias.name for alias in node.names)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    attributes.add(node.args[1].value)
    return names, attributes


def unreferenced() -> list[str]:
    """Every public function, method and property production code does
    not reference."""
    names, attributes = _referenced_names()
    return sorted(
        key
        for key, (name, is_member) in _public_functions().items()
        if name not in attributes and (is_member or name not in names)
    )


class _CallVisitor(ast.NodeVisitor):
    """Collects, per call name, the keywords passed and the most positionals.

    ``super().__init__(...)`` inside ``class C(Base)`` is a call to
    ``Base``, and ``runner(fn, kwargs={"k": ...})`` (pytest-benchmark's
    ``pedantic``) passes ``k`` to ``fn``. Otherwise splatted
    ``*args``/``**kwargs`` set nothing the census can see: a parameter
    forwarded that way is set only if some caller names it.
    """

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = defaultdict(set)
        self.positional: dict[str, int] = defaultdict(int)
        self._bases: list[list[str]] = [[]]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                 for b in node.bases]
        self._bases.append(bases)
        self.generic_visit(node)
        self._bases.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            names = [func.id]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
            if func.attr == "__init__" and isinstance(func.value, ast.Call):
                names = self._bases[-1]
        else:
            names = []
        count = sum(not isinstance(a, ast.Starred) for a in node.args)
        for name in names:
            self.keywords[name].update(kw.arg for kw in node.keywords if kw.arg)
            self.positional[name] = max(self.positional[name], count)
        for kw in node.keywords:
            if kw.arg == "kwargs" and isinstance(kw.value, ast.Dict) and node.args:
                target = node.args[0]
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                self.keywords[name].update(
                    k.value for k in kw.value.keys if isinstance(k, ast.Constant)
                )
        self.generic_visit(node)


def _calls() -> tuple[dict[str, set[str]], dict[str, int]]:
    """Keywords passed and the most positional arguments seen, per call name."""
    visitor = _CallVisitor()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            visitor.visit(_parse(path))
    return visitor.keywords, visitor.positional


def never_set() -> list[str]:
    """Every defaulted public parameter that no call sets, as ``module:Qual.param``."""
    keywords, positional = _calls()
    found = []
    for key, (name, params) in _definitions().items():
        for param, index in params:
            by_keyword = param in keywords[name]
            by_position = index is not None and positional[name] > index
            if not (by_keyword or by_position):
                found.append(f"{key}.{param}")
    return sorted(found)


def test_every_defaulted_parameter_has_a_caller():
    unlisted = [p for p in never_set() if p not in ALLOWLIST]
    assert unlisted == [], (
        "defaulted parameters no call sets; make each a constant, or "
        f"allowlist it with a reason: {unlisted}"
    )


def test_allowlist_names_live_parameters():
    stale = sorted(set(ALLOWLIST) - set(never_set()))
    assert stale == [], f"allowlist entries that are set or gone: {stale}"


def test_allowlist_reasons_are_one_line():
    for key, reason in ALLOWLIST.items():
        assert reason.strip() and "\n" not in reason, key


def test_every_public_function_is_referenced_outside_tests():
    unlisted = [f for f in unreferenced() if f not in FUNCTION_ALLOWLIST]
    assert unlisted == [], (
        "public functions only tests reference; move each into tests/, "
        f"delete it, or allowlist it with a reason: {unlisted}"
    )


def test_function_allowlist_names_live_functions():
    stale = sorted(set(FUNCTION_ALLOWLIST) - set(unreferenced()))
    assert stale == [], f"function allowlist entries that are referenced or gone: {stale}"


def test_function_allowlist_reasons_are_one_line():
    for key, reason in FUNCTION_ALLOWLIST.items():
        assert reason.strip() and "\n" not in reason, key
