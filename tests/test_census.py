"""Census of the public API: every function and every option must have
a production caller.

Production code is code in ``src/``, ``benchmarks/``, ``examples/`` or
``e2ebench/``; a test is not a caller. A function only tests call is
test code and belongs in ``tests/``; an option only tests set is a
constant.

Every public function, method and property in ``src/repro`` must be
referenced by production code. Two rules keep the count honest:

* a name a ``src/repro/**/__init__.py`` imports to re-export it is not
  a reference: re-exporting a function does not call it;
* a method or property is referenced only when production code reads it
  as an attribute (``obj.name``) or names it to ``getattr``; a local
  variable of the same name (``move = propose(span)``) is not a use.

Matching is by name, so a function the census reports is named nowhere
in production code.

An option is a defaulted parameter of a public function, method or
constructor in ``src/repro``, or a defaulted field of a public frozen
dataclass there. (A mutable dataclass is run state its producers fill
in; its fields are not options.) An option stays only when production
code sets it:

* by keyword or by position: ``f(k=v)``, ``obj.f(v)``, ``Class(v)``
  for ``Class.__init__`` or a dataclass field;
* through ``cls(...)`` in a classmethod of the class, or
  ``super().__init__(...)`` in a subclass;
* through ``dataclasses.replace(obj, field=v)``;
* through pytest-benchmark: ``benchmark(fn, *args, **kwargs)`` calls
  ``fn(*args, **kwargs)``, and ``runner(fn, kwargs={"k": v})`` sets
  ``fn``'s ``k``.

Otherwise it is a constant wearing a parameter's clothes. The census
matches calls to definitions by name, so it over-approximates the set
of setters: an option it reports is set by no production call
anywhere. Values forwarded through a splatted dict are invisible to it.
An option may stay on the allowlist for one of four reasons only
(``REASONS``), each entry with a one-line detail.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE_DIR = "src/repro"
#: Production code: where a function must be referenced and an option set.
PRODUCTION_DIRS = ("src", "benchmarks", "examples", "e2ebench")

#: The test oracles substitute this reference or fake for the production one.
REFERENCE = "a reference or fake the test oracles substitute"
#: It injects faults, which production runs do not.
FAULT_INJECTION = "fault injection"
#: Production sets it, in a way the census cannot resolve.
UNRESOLVED = "a production setter the census cannot resolve"
#: A tier-1 test needs a value production never uses, to stay short or
#: to reach a branch.
TEST_VALUE = "a tier-1 test needs a value production never uses"
REASONS = (REFERENCE, FAULT_INJECTION, UNRESOLVED, TEST_VALUE)

_SPEC_PARAM = (
    UNRESOLVED,
    "GeneratorSpec.build passes it from the gen: spec string through the "
    "GENERATOR_FAMILIES table",
)
_SPEC_NAME = (
    UNRESOLVED,
    "GeneratorSpec.build passes name= through the GENERATOR_FAMILIES table; "
    "build_mixed_assay's sub-graphs keep the default",
)

#: ``module:Qualname.option`` -> (one of ``REASONS``, one-line detail).
ALLOWLIST: dict[str, tuple[str, str]] = {
    "repro.workload.generator:build_mix_tree_assay.store_pct": _SPEC_PARAM,
    "repro.workload.generator:build_diamond_assay.max_arm": _SPEC_PARAM,
    "repro.workload.generator:build_dilution_ladder_assay.depth": _SPEC_PARAM,
    "repro.workload.generator:build_panel_assay.reagents": _SPEC_PARAM,
    "repro.workload.generator:build_mix_tree_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_diamond_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_dilution_ladder_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_panel_assay.name": _SPEC_NAME,
    "repro.workload.generator:build_mixed_assay.name": (
        UNRESOLVED,
        "GeneratorSpec.build passes name= through the GENERATOR_FAMILIES table",
    ),
    "repro.routing.timegrid:TimeGrid.__init__.shape": (
        UNRESOLVED,
        "RoutingSynthesizer.synthesize passes it through its grid_factory "
        "attribute, which defaults to TimeGrid",
    ),
    "repro.routing.synthesis:RoutingSynthesizer.__init__.router": (
        REFERENCE,
        "the routing parity tests route with a router that counts its searches",
    ),
    "repro.testing.chaos:ChaosPolicy.explicit_plan.sleep_s": (
        FAULT_INJECTION,
        "how long an injected hang sleeps; the supervision tests shorten it",
    ),
    "repro.testing.chaos:ChaosPolicy.from_env.environ": (
        FAULT_INJECTION,
        "the chaos tests read a policy from a dict instead of os.environ",
    ),
    "repro.pipeline.portfolio:run_portfolio.chaos": (
        FAULT_INJECTION,
        "the portfolio tests kill and hang its workers",
    ),
    "repro.placement.two_stage:TwoStagePlacer.__init__.stage2_params": (
        TEST_VALUE,
        "the LTSA golden pin and parity tests run a short stage-2 schedule",
    ),
    "repro.experiments.scaling:run_scaling_study.leaf_counts": (
        TEST_VALUE,
        "the scaling test runs two small trees to stay short",
    ),
    "repro.experiments.scaling:run_scaling_study.params": (
        TEST_VALUE,
        "the scaling test runs a tiny annealing schedule to stay short",
    ),
    "repro.synthesis.architect:ArchitecturalExplorer.explore.concurrency_caps": (
        TEST_VALUE,
        "the explorer tests sweep fewer caps to stay short",
    ),
    "repro.placement.incremental:IncrementalCostEvaluator.__init__.resync_every": (
        TEST_VALUE,
        "the compiled-round parity tests resync every step, every 7 steps or "
        "never, to reach each resync branch",
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


def _repo_files() -> dict[str, str]:
    """Repo-relative path -> source of every production Python file."""
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for top in PRODUCTION_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _parsed(files: dict[str, str] | None) -> dict[str, ast.Module]:
    """Parse the production files among *files* (the repo's by default)."""
    if files is None:
        files = _repo_files()
    return {
        path: ast.parse(text, filename=path)
        for path, text in sorted(files.items())
        if path.split("/", 1)[0] in PRODUCTION_DIRS
    }


def _sources(trees: dict[str, ast.Module]) -> list[tuple[str, ast.Module]]:
    """``(module, tree)`` of every file under ``src/repro``."""
    return [
        (".".join(Path(path).relative_to("src").with_suffix("").parts), tree)
        for path, tree in trees.items()
        if path.startswith(SOURCE_DIR + "/")
    ]


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


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        if isinstance(d, ast.Call) and ast.unparse(d.func) in (
            "dataclass", "dataclasses.dataclass"
        ):
            if any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value
                for k in d.keywords
            ):
                return True
    return False


def _fields(node: ast.ClassDef) -> list[tuple[str, int | None]]:
    """``(name, positional index)`` of a dataclass's defaulted init fields."""
    out = []
    index = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and ast.unparse(value.func) in (
            "field", "dataclasses.field"
        ):
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if "default" not in keywords and "default_factory" not in keywords:
                value = None
        if value is not None:
            out.append((item.target.id, index))
        index += 1
    return out


def _options(
    trees: dict[str, ast.Module],
) -> dict[str, tuple[str, list[tuple[str, int | None]], bool]]:
    """``module:Qualname`` -> (call name, options, is a dataclass) of the
    public API.

    A frozen dataclass's options are its defaulted fields, keyed by the
    class; every other public function, method and constructor's are
    its defaulted parameters.
    """
    defs = {}
    for module, tree in _sources(trees):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{module}:{node.name}"] = (
                    node.name, _defaulted(node, False), False
                )
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_frozen_dataclass(node):
                    defs[f"{module}:{node.name}"] = (node.name, _fields(node), True)
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
                        name, _defaulted(item, bound), False
                    )
    return defs


def _public_functions(trees: dict[str, ast.Module]) -> dict[str, tuple[str, bool]]:
    """``module:Qualname`` -> (name, is a method or property) of every
    public function, method and property in ``src/repro``."""
    defs = {}
    for module, tree in _sources(trees):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{module}:{node.name}"] = (node.name, False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{module}:{node.name}.{item.name}"] = (item.name, True)
    return defs


def _is_reexport(path: str) -> bool:
    """True for a package ``__init__.py`` under ``src/repro``."""
    return path.startswith(SOURCE_DIR + "/") and path.endswith("/__init__.py")


def _referenced_names(trees: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """``(names, attributes)`` production code references.

    *names* holds every bare name used or imported by name, except the
    imports of a package ``__init__.py`` (re-exports); *attributes*
    every name read as an attribute or passed to ``getattr`` as a
    string constant.
    """
    names: set[str] = set()
    attributes: set[str] = set()
    for path, tree in trees.items():
        reexport = _is_reexport(path)
        for node in ast.walk(tree):
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


def unreferenced(files: dict[str, str] | None = None) -> list[str]:
    """Every public function, method and property production code does
    not reference."""
    trees = _parsed(files)
    names, attributes = _referenced_names(trees)
    return sorted(
        key
        for key, (name, is_member) in _public_functions(trees).items()
        if name not in attributes and (is_member or name not in names)
    )


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _CallVisitor(ast.NodeVisitor):
    """Collects, per call name, the keywords passed and the most
    positionals, following the setter forms the module docstring lists.

    Splatted ``*args``/``**kwargs`` set nothing the census can see: a
    parameter forwarded that way is set only if some caller names it.
    """

    #: Keywords of ``replace(obj, ...)``, which set the fields they name.
    REPLACED = "<replace>"

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = defaultdict(set)
        self.positional: dict[str, int] = defaultdict(int)
        self._classes: list[tuple[str, list[str]]] = []
        self._in_classmethod: list[bool] = [False]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = [_call_name(b) or "" for b in node.bases]
        self._classes.append((node.name, bases))
        self._in_classmethod.append(False)
        self.generic_visit(node)
        self._in_classmethod.pop()
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        self._in_classmethod.append(bool(self._classes) and "classmethod" in decorators)
        self.generic_visit(node)
        self._in_classmethod.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _record(self, name: str | None, args: list[ast.expr], keywords) -> None:
        if name is None:
            return
        self.keywords[name].update(kw.arg for kw in keywords if kw.arg)
        count = sum(not isinstance(a, ast.Starred) for a in args)
        self.positional[name] = max(self.positional[name], count)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        names = [_call_name(func)]
        if isinstance(func, ast.Name) and func.id == "cls" and self._in_classmethod[-1]:
            names = [self._classes[-1][0]]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and self._classes
        ):
            names = self._classes[-1][1]
        elif names[0] == "replace" and len(node.args) == 1 and node.keywords:
            names = [self.REPLACED]
        elif names[0] == "benchmark" and node.args:
            # pytest-benchmark's benchmark(fn, *args, **kwargs) calls fn.
            self._record(_call_name(node.args[0]), node.args[1:], node.keywords)
        for name in names:
            self._record(name, node.args, node.keywords)
        for kw in node.keywords:
            if kw.arg == "kwargs" and isinstance(kw.value, ast.Dict) and node.args:
                self.keywords[_call_name(node.args[0])].update(
                    k.value for k in kw.value.keys if isinstance(k, ast.Constant)
                )
        self.generic_visit(node)


def never_set(files: dict[str, str] | None = None) -> list[str]:
    """Every option no production code sets, as ``module:Qual.option``.

    *files* maps repo-relative paths to source; by default the repo's.
    Files outside the production directories are ignored.
    """
    trees = _parsed(files)
    visitor = _CallVisitor()
    for tree in trees.values():
        visitor.visit(tree)
    replaced = visitor.keywords[visitor.REPLACED]
    found = []
    for key, (name, options, is_dataclass) in _options(trees).items():
        for option, index in options:
            by_keyword = option in visitor.keywords[name]
            by_position = index is not None and visitor.positional[name] > index
            by_replace = is_dataclass and option in replaced
            if not (by_keyword or by_position or by_replace):
                found.append(f"{key}.{option}")
    return sorted(found)


def test_every_option_has_a_production_setter():
    unlisted = [p for p in never_set() if p not in ALLOWLIST]
    assert unlisted == [], (
        "options no production code sets; make each a constant, or "
        f"allowlist it with one of the four reasons: {unlisted}"
    )


def test_allowlist_names_live_options():
    stale = sorted(set(ALLOWLIST) - set(never_set()))
    assert stale == [], f"allowlist entries that are set or gone: {stale}"


def test_allowlist_reasons_are_the_four():
    for key, (reason, detail) in ALLOWLIST.items():
        assert reason in REASONS, key
        assert detail.strip() and "\n" not in detail, key


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


# -- the setter rules, each on a small source tree ------------------------------

_LIBRARY = """
from dataclasses import dataclass


def scale(x, factor=1, offset=0):
    return x * factor + offset


class Widget:
    def __init__(self, size=1):
        self.size = size

    @classmethod
    def large(cls):
        return cls(size=9)


class Gadget:
    def __init__(self, power=1):
        self.power = power

    def charge(self, rate=1, *, limit=None):
        return rate

    def _drain(self, amount=1):
        return amount


def _helper(x, k=1):
    return x + k


@dataclass(frozen=True)
class Config:
    name: str
    depth: int = 1
    width: int = 2


@dataclass
class RunState:
    steps: int = 0
"""


def _never_set_in_library(**callers: str) -> set[str]:
    """Options of ``repro.lib`` the census reports, given caller files
    (keyword: repo-relative path with ``/`` spelled ``__``)."""
    files = {"src/repro/lib.py": _LIBRARY}
    files.update({path.replace("__", "/"): text for path, text in callers.items()})
    return {key for key in never_set(files) if key.startswith("repro.lib:")}


_ALL = {
    "repro.lib:scale.factor",
    "repro.lib:scale.offset",
    "repro.lib:Config.depth",
    "repro.lib:Config.width",
    "repro.lib:Gadget.__init__.power",
    "repro.lib:Gadget.charge.rate",
    "repro.lib:Gadget.charge.limit",
}


class TestSetterRules:
    def test_unset_options_are_reported(self):
        assert _never_set_in_library() == _ALL

    def test_keyword(self):
        found = _never_set_in_library(examples__demo_py="scale(2, offset=1)\n")
        assert found == _ALL - {"repro.lib:scale.offset"}

    def test_position(self):
        found = _never_set_in_library(src__repro__use_py="scale(2, 3)\n")
        assert found == _ALL - {"repro.lib:scale.factor"}

    def test_dataclass_field_by_keyword_and_position(self):
        found = _never_set_in_library(
            e2ebench__run_py="Config('a', depth=2)\nConfig('b', 1, 2)\n"
        )
        assert found == _ALL - {"repro.lib:Config.depth", "repro.lib:Config.width"}

    def test_cls_in_a_classmethod_calls_its_class(self):
        # Widget.large sets size through cls(...), so only the library's
        # own options stay reported.
        assert "repro.lib:Widget.__init__.size" not in _never_set_in_library()

    def test_dataclasses_replace(self):
        found = _never_set_in_library(
            src__repro__use_py=(
                "import dataclasses\n"
                "dataclasses.replace(Config('a'), width=5)\n"
            )
        )
        assert found == _ALL - {"repro.lib:Config.width"}

    def test_pytest_benchmark_call(self):
        found = _never_set_in_library(
            benchmarks__bench_scale_py=(
                "def test_scale(benchmark):\n"
                "    benchmark(scale, 2, 3, offset=4)\n"
            )
        )
        assert found == _ALL - {"repro.lib:scale.factor", "repro.lib:scale.offset"}

    def test_a_caller_only_in_tests_does_not_count(self):
        found = _never_set_in_library(
            tests__test_lib_py="scale(2, factor=3)\nConfig('a', depth=2)\n"
        )
        assert found == _ALL

    def test_mutable_dataclass_fields_are_not_options(self):
        assert not any("RunState" in key for key in _never_set_in_library())

    def test_private_functions_and_methods_are_not_options(self):
        found = _never_set_in_library()
        assert not any("_helper" in key or "_drain" in key for key in found)

    def test_super_init_sets_the_base_class_parameters(self):
        found = _never_set_in_library(
            examples__turbo_py=(
                "class Turbo(Gadget):\n"
                "    def __init__(self):\n"
                "        super().__init__(power=2)\n"
            )
        )
        assert found == _ALL - {"repro.lib:Gadget.__init__.power"}

    def test_method_position_counts_after_self(self):
        found = _never_set_in_library(src__repro__use_py="Gadget().charge(2)\n")
        assert found == _ALL - {"repro.lib:Gadget.charge.rate"}

    def test_keyword_only_parameter_is_set_by_keyword_alone(self):
        by_position = _never_set_in_library(src__repro__use_py="Gadget().charge(2, 3)\n")
        assert "repro.lib:Gadget.charge.limit" in by_position
        by_keyword = _never_set_in_library(src__repro__use_py="Gadget().charge(limit=3)\n")
        assert by_keyword == _ALL - {"repro.lib:Gadget.charge.limit"}

    def test_runner_kwargs_dict(self):
        found = _never_set_in_library(
            benchmarks__bench_scale_py="run_task(scale, kwargs={'factor': 2})\n"
        )
        assert found == _ALL - {"repro.lib:scale.factor"}

    def test_splatted_arguments_set_nothing(self):
        found = _never_set_in_library(
            src__repro__use_py="scale(*xs, **opts)\nConfig(*fields)\n"
        )
        assert found == _ALL
