"""The names the traced benchmark wraps, imports and calls must stay in the
package.

``bench/layers.py`` lists, per traced boundary, the module whose namespace
holds a name and the name itself, and the workloads import names from
``diffsched`` and its modules.  A name removed from the package would
otherwise only fail the benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from diffsched import cosine_schedule, vp_to_ve
from diffsched.spectral import Schedule, VeSchedule

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import BOUNDARIES

    assert BOUNDARIES
    missing = [
        (module, name)
        for module, name, *_ in BOUNDARIES
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_name_the_benchmark_imports_exists():
    # ``from diffsched[.x] import name`` anywhere in bench/*.py, function
    # bodies included; a name may be an attribute or a submodule
    # (``from diffsched import cli``)
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module == "diffsched" or node.module.startswith("diffsched."))
        for alias in node.names
    ]
    assert {"design.py", "session.py"} <= {file for file, *_ in imported}
    missing = [
        (file, module, name)
        for file, module, name in imported
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []


def test_schedule_validate_takes_no_argument_and_returns_self():
    # bench/design.py and bench/session.py call ``validate()`` on both types
    for cls in (Schedule, VeSchedule):
        assert list(inspect.signature(cls.validate).parameters) == ["self"]
    schedule = cosine_schedule(4)
    ve = vp_to_ve(schedule)
    assert schedule.validate() is schedule
    assert ve.validate() is ve
