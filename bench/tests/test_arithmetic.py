"""The benchmark's own arithmetic: the tail rule, self time, the geometric
mean gain, failure counting, and the traced boundaries.

    python3 -m pytest bench/tests
"""

import json
import sys
import types

import pytest

from layers import summarize_pass
from stats import TAIL_BEYOND, Tally, geometric_mean, median, tail, union_length
from tracer import BoundaryMissing, Tracer, self_times


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    t = tail(range(1, 101))
    assert (t.value, t.percentile, t.samples) == (90.0, 90.0, 100)
    above = [v for v in range(1, 101) if v > t.value]
    assert len(above) == TAIL_BEYOND


def test_tail_with_eleven_samples_is_the_smallest():
    t = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert t.value == 1.0
    assert t.percentile == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(TAIL_BEYOND))


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_union_length_merges_overlaps():
    assert union_length([(1, 3), (2, 5), (8, 10), (9, 9.5)]) == 6
    assert union_length([]) == 0.0


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: the overlap counts once
        ["c", 8.0, 12.0, 0, 0],  # runs past its parent: clipped at 10
        ["grandchild", 1.5, 2.5, 1, 0],
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_times_of_a_pass_sum_to_its_root():
    tr = Tracer()
    with tr.span("bench.pass"):
        with tr.span("optimize.optimize_schedule"):
            with tr.span("losses.loss_from_alpha_bar"):
                with tr.span("spectral._transfer_arrays"):
                    pass
    selfs = self_times(tr.spans)
    root = tr.spans[0][2] - tr.spans[0][1]
    assert sum(selfs) == pytest.approx(root, abs=1e-9)
    figures = summarize_pass(tr.spans, tr.attrs, selfs, range(len(tr.spans)))
    assert figures["losses.objective_calls"] == 1
    assert figures["spectral.calls"] == 1
    assert figures["losses.fd_eval_frac"] == 0.0


def test_geometric_mean_gain():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert geometric_mean([1.25] * 6) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([])


def test_a_failed_check_fails_its_operation_once():
    tally = Tally()
    ops = [tally.attempt() for _ in range(3)]
    assert tally.check(ops[0], True, "fine")
    assert not tally.check(ops[1], False, "first reason")
    tally.fail(ops[1], "second reason")
    tally.fail(ops[2], "other")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failures[ops[1]] == "first reason"
    with pytest.raises(ValueError):
        tally.fail(7, "never attempted")


def test_missing_boundary_fails_loudly(monkeypatch):
    module = types.ModuleType("fake_layer")
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tr = Tracer()
    with pytest.raises(BoundaryMissing, match="fake_layer.renamed"):
        with tr.installed([("fake_layer", "renamed", "losses.renamed", None)]):
            pass


def test_wrapped_boundary_records_spans_and_is_restored(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.double = lambda x: 2 * x
    original = module.double
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tr = Tracer()
    seen = []
    hook = lambda tracer, idx, args, kwargs, result: seen.append((idx, result))
    with tr.installed([("fake_layer", "double", "losses.double", hook)]):
        with tr.span("bench.pass"):
            assert module.double(3) == 6
    assert module.double is original
    assert [s[0] for s in tr.spans] == ["bench.pass", "losses.double"]
    assert tr.spans[1][3] == 0
    assert seen == [(1, 6)]


def test_benchmark_json_names_every_figure():
    from design import POINT_NAMES
    from layers import BOUNDARIES
    from run import ROOT
    from session import COMMANDS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(summarize_pass([], {}, [], [])) <= names
    for point in POINT_NAMES:
        for kind in ("wall_s", "iterations", "objective_evals"):
            assert f"optimize.{kind}.{point}" in names
    for command in COMMANDS:
        assert f"cli.cmd_inproc_s.{command}" in names
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "pass_s", "peak_rss_mb"]
    # every traced boundary resolves on the current package
    with Tracer().installed(BOUNDARIES):
        pass
