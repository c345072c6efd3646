"""The names the traced benchmark wraps, and the calls it makes, must stay
in the package.

``bench/layers.py`` lists, per traced boundary, the module whose namespace
holds a name and the name itself.  A name removed from the package would
otherwise only fail the traced benchmark run.
"""

import importlib
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


def test_schedule_validate_takes_no_argument_and_returns_self():
    # bench/design.py and bench/session.py call ``validate()`` on both types
    for cls in (Schedule, VeSchedule):
        assert list(inspect.signature(cls.validate).parameters) == ["self"]
    schedule = cosine_schedule(4)
    ve = vp_to_ve(schedule)
    assert schedule.validate() is schedule
    assert ve.validate() is ve
