"""The names the traced benchmark wraps must stay in the package.

``bench/layers.py`` lists, per traced boundary, the module whose namespace
holds a name and the name itself.  A name removed from the package would
otherwise only fail the traced benchmark run.
"""

import importlib
from pathlib import Path

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
