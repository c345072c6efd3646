"""The package imports exactly the third-party modules it declares, its
modules import each other without cycles, its dense oracle stays out of the
eigenbasis, its losses take only the forward pass from ``spectral``, and
every public name it exports and every flag its CLI defines has a documented
use; a module's ``__all__`` lists only names it defines.  A Gaussian has two
types, one per view, the sampler, loss and other choice names each have one
owner, a schedule is checked where it is made and where it is written, and
numpy is silenced only where a computation starts."""

import argparse
import ast
import graphlib
import importlib
import re
import sys
import tomllib
import types
from pathlib import Path

import diffsched
from diffsched.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diffsched"


def _top_level_imports(path: Path) -> set[str]:
    """Top-level module names of every absolute import in ``path``, those
    inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _requirement_names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_runtime_imports_are_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    imported = set().union(
        *(_top_level_imports(path) for path in PACKAGE.glob("*.py"))
    )
    third_party = imported - set(sys.stdlib_module_names) - {"diffsched"}
    assert third_party == _requirement_names(project["dependencies"])
    # scipy is the tests' oracle, not a runtime dependency
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])


def _package_imports_of(node: ast.AST) -> set[tuple[str, str]]:
    """``(module, name)`` of ``node`` if it imports from inside the package;
    ``from . import x`` and ``import diffsched.x`` give module ``""``."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            module = node.module or ""
        elif node.module.partition(".")[0] == "diffsched":
            module = node.module.partition(".")[2]
        else:
            return set()
        return {(module, alias.name) for alias in node.names}
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return {("", name) for name in names if name.partition(".")[0] == "diffsched"}
    return set()


def _package_imports(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` of every import from inside the package in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return set().union(*map(_package_imports_of, ast.walk(tree)))


def test_dense_oracle_takes_only_the_step_kernel_from_spectral():
    # simulate checks the eigenbasis closed forms, so it may share the scalar
    # step coefficients, the schedule type and the input checks with them,
    # but nothing that works in the eigenbasis
    assert _package_imports(PACKAGE / "simulate.py") == {
        ("spectral", "Schedule"),
        ("spectral", "_require_finite"),
        ("spectral", "_require_integer"),
        ("spectral", "_require_process"),
        ("spectral", "_step_coefficients"),
    }


def test_losses_take_only_the_forward_pass_from_spectral():
    # spectral owns the step gains and the local gradients through them; the
    # losses see the whole-run arrays and the pullback, never the per-step ones
    assert _package_imports(PACKAGE / "losses.py") == {
        ("spectral", "LAMBDA_FLOOR"),
        ("spectral", "SpectralModel"),
        ("spectral", "Transfer"),
        ("spectral", "_check_dims"),
        ("spectral", "_transfer_arrays"),
    }


def test_package_imports_are_module_level_and_acyclic():
    # a deferred import inside a function would hide a cycle from this graph
    graph, deferred = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = set()
        for node in ast.walk(tree):
            imported = {module or "__init__" for module, _ in _package_imports_of(node)}
            if imported and node not in tree.body:
                deferred.append((path.stem, sorted(imported)))
            graph[path.stem] |= imported
    assert deferred == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_every_public_name_has_a_documented_use():
    # A name the package or one of its modules exports stays only if the CLI,
    # the README, the acceptance suite or the benchmark uses it; what only
    # unit tests reach is private to its module.
    paths = [ROOT / "src/diffsched/cli.py", ROOT / "README.md", ROOT / "tests/test_acceptance.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in paths)
    public = [
        name
        for name, value in vars(diffsched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"diffsched.{path.stem}")
        public += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())]
    unused = [
        name for name in public
        if not re.search(rf"\b{re.escape(name.rpartition('.')[2])}\b", text)
    ]
    assert public and unused == []


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by ``def``, ``class`` or
    assignment; what it imports is not among them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_all_lists_only_names_the_module_defines():
    # A name is exported from its home module alone; a re-export in another
    # module's __all__ gives the name a second home
    listed, reexported = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = _defined_names(module)
        for node in module.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names = ast.literal_eval(node.value)
                listed += names
                reexported += [f"{path.stem}.{name}" for name in names if name not in defined]
    assert listed and reexported == []


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and of its subcommands' parsers."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _option_strings(sub)
    return options


def test_every_cli_flag_has_a_documented_use():
    # A flag stays only if the README shows what it is for
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    flags = _option_strings(build_parser()) - {"-h", "--help"}
    undocumented = sorted(
        flag for flag in flags if not re.search(rf"{re.escape(flag)}(?![\w-])", readme)
    )
    assert flags and undocumented == []


_GAUSSIAN_FIELDS = {"mean", "covariance", "variance", "eigenvalues", "mean_spectral"}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass``, ``@dataclasses.dataclass`` or either called with options."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def test_a_gaussian_has_two_types_one_per_view():
    # SpectralModel holds a Gaussian in the eigenbasis of its covariance,
    # DenseGaussian in the original coordinates; a state or an estimate is
    # one of the two (or a subclass adding no moment), never a third container
    holders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                map(_is_dataclass_decorator, node.decorator_list)
            ):
                holders.update(
                    node.name
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id in _GAUSSIAN_FIELDS
                )
    assert holders == {"SpectralModel", "DenseGaussian"}


# Each set of names is spelled as a collection in its owner module alone:
# the samplers in ``spectral.PROCESSES``, the CLI's loss names in
# ``losses._CLI_NAMES``, the optimizer's modes and inits in
# ``optimize.MODES`` and ``optimize.INITS``, the estimate structures in
# ``estimate.STRUCTURES``; every other module reads them from there.
_NAME_OWNERS = [
    ({"ddim", "ddpm"}, "spectral.py"),
    ({"w2", "kl", "wl1"}, "losses.py"),
    ({"constrained", "free"}, "optimize.py"),
    ({"linear", "cosine", "random"}, "optimize.py"),
    ({"linear", "cosine", "sigmoid", "edm"}, "schedules.py"),
    ({"circulant", "symmetric"}, "estimate.py"),
]


def test_sampler_and_loss_names_have_one_owner():
    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = node.keys
            else:
                continue
            strings = {item.value for item in items if isinstance(item, ast.Constant)}
            spelled += [
                (path.name, node.lineno)
                for names, owner in _NAME_OWNERS
                if names <= strings and path.name != owner
            ]
    assert spelled == []


def _attribute_calls(node: ast.AST, attr: str, scope: str = "") -> list[str]:
    """The scope, ``Class.method``, ``function`` or ``function.inner``, of
    each ``.attr(`` call under ``node``."""
    calls = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == attr
        ):
            calls.append(scope)
        calls += _attribute_calls(child, attr, inner)
    return calls


def _package_calls(attr: str) -> list[str]:
    """``module.py:scope`` of each ``.attr(`` call in the package, sorted."""
    return sorted(
        f"{path.name}:{scope}"
        for path in PACKAGE.glob("*.py")
        for scope in _attribute_calls(ast.parse(path.read_text(encoding="utf-8")), attr)
    )


def test_schedules_are_checked_where_made_and_where_written():
    # A schedule checks itself on construction, so no operation checks it
    # again; only the writers re-check, against fields changed since
    assert _package_calls("validate") == [
        "io.py:save_schedule",
        "io.py:save_ve_schedule",
        "spectral.py:Schedule.__post_init__",
        "spectral.py:VeSchedule.__post_init__",
    ]


def test_numpy_is_silenced_where_a_computation_starts():
    # Floating-point exceptions are silenced at the entry to a computation
    # whose non-finite result is refused, or backed off from, where it
    # leaves; no kernel or pullback below an entry takes the decision back
    assert _package_calls("errstate") == [
        "estimate.py:covariance_from_windows",
        "estimate.py:spectral_model_from_covariance",
        "estimate.py:synthetic_circulant_model",
        "losses.py:loss_from_alpha_bar",
        "losses.py:transfer_loss",
        "optimize.py:fit_parametric.sum_sq",
        "optimize.py:optimize_schedule",
        "schedules.py:_family_schedule",
        "spectral.py:ve_to_vp",
        "spectral.py:w2_dynamics",
    ]
