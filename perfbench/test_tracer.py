"""Checks of the span recorder.  Run: python3 -m pytest perfbench/test_tracer.py"""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import END, NAME, PARENT, START, Tracer  # noqa: E402


def _module():
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        mod.inner()
        mod.inner()
        time.sleep(0.01)

    def broken():
        raise ValueError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    return mod


def test_self_time_is_span_minus_children():
    mod = _module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    own = tracer.self_times()
    spans = tracer.spans
    children = sum(s[END] - s[START] for s in spans[1:])
    assert own[0] == pytest.approx(spans[0][END] - spans[0][START] - children, abs=1e-12)
    assert sum(own) == pytest.approx(spans[0][END] - spans[0][START], abs=1e-12)
    assert tracer.roots() == [0, 0, 0]


def test_uninstall_restores_originals_and_errors_close_spans():
    mod = _module()
    originals = dict(vars(mod))
    tracer = Tracer()
    tracer.wrap(mod, "broken", "broken")
    with pytest.raises(ValueError):
        mod.broken()
    assert tracer.spans[0][END] >= tracer.spans[0][START] > 0
    assert tracer._stack == []
    tracer.uninstall()
    assert vars(mod) == originals


def test_hook_runs_in_its_own_span():
    mod = _module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner",
                hook=lambda t, args, kwargs, result: t.count("calls", 1))
    mod.inner()
    assert [s[NAME] for s in tracer.spans] == ["inner", "trace.count"]
    assert [s[PARENT] for s in tracer.spans] == [-1, -1]
    assert [(e.name, e.value) for e in tracer.events] == [("calls", 1)]
