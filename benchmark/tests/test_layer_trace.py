"""Tests of the benchmark's tracer.  Run: python3 -m pytest benchmark/tests"""

import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layer_trace as tr  # noqa: E402

PKG = "fakepkg_trace_test"

MODULES = {
    "beta": """
        import numpy as np

        def inner(n):
            return np.fft.irfft(np.ones(n // 2 + 1), n)
    """,
    "alpha": f"""
        import numpy as np
        from {PKG}.beta import inner

        def outer(n):
            np.fft.rfft(np.ones(n))
            return inner(n)
    """,
    "experiments": f"""
        from concurrent.futures import ThreadPoolExecutor
        from {PKG}.beta import inner

        def ensemble_reduce(worker, n_ensemble, jobs, reducer, state):
            with ThreadPoolExecutor(max_workers=jobs) as ex:
                for k, res in zip(range(n_ensemble), ex.map(worker, range(n_ensemble))):
                    state = reducer(state, k, res)
            return state

        def run(n_ensemble, jobs):
            return ensemble_reduce(lambda k: inner(8).size, n_ensemble, jobs,
                                   lambda s, k, r: s + r, 0)
    """,
}


@pytest.fixture
def pkg():
    root = types.ModuleType(PKG)
    sys.modules[PKG] = root
    mods = {}
    try:
        for name, src in MODULES.items():
            mod = types.ModuleType(f"{PKG}.{name}")
            sys.modules[mod.__name__] = mod
            exec(textwrap.dedent(src), mod.__dict__)
            mods[name] = mod
        yield mods
    finally:
        for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
            del sys.modules[name]


def _span(sid, layer, start, end, parent=None):
    return tr.Span(sid, layer, f"f{sid}", start, parent, None, end=end)


def test_self_time_subtracts_union_of_children():
    # root [0,10] has two overlapping children (as concurrent members do),
    # A [1,4] and B [3,6]; A has a child C [2,3] back in the root's layer
    spans = [
        _span(0, "x", 0.0, 10.0),
        _span(1, "y", 1.0, 4.0, parent=0),
        _span(2, "y", 3.0, 6.0, parent=0),
        _span(3, "x", 2.0, 3.0, parent=1),
    ]
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})

    layers = tr.summarize(spans)
    assert layers["x"].self_s == pytest.approx(6.0)
    assert layers["y"].self_s == pytest.approx(5.0)
    assert layers["x"].calls == 2 and layers["y"].calls == 2
    assert tr.coverage(spans, -10.0, 10.0) == pytest.approx(0.5)


def test_tracer_nests_spans_on_one_thread():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("x", "outer"):
        with tracer.span("y", "inner"):
            pass
        with tracer.span("y", "inner"):
            pass
    outer, a, b = tracer.spans
    assert a.parent == outer.sid and b.parent == outer.sid
    assert tr.self_times(tracer.spans)[outer.sid] == pytest.approx(3.0)
    assert tr.summarize(tracer.spans)["y"].calls == 2


def test_fft_attributed_to_innermost_span(pkg):
    tracer = tr.Tracer()
    orig_rfft = np.fft.rfft
    with tr.instrument(tracer, package=PKG,
                       layers={"alpha": ("outer",), "beta": ("inner",)}):
        pkg["alpha"].outer(64)
    outer, inner = tracer.spans
    assert (outer.layer, inner.layer) == ("alpha", "beta")
    assert inner.parent == outer.sid
    assert (outer.fft_calls, outer.fft_points) == (1, 64)
    assert (inner.fft_calls, inner.fft_points) == (1, 64)
    # originals are back in every binding module
    assert np.fft.rfft is orig_rfft
    assert pkg["alpha"].inner is pkg["beta"].inner


def test_member_spans_share_member_index(pkg):
    tracer = tr.Tracer()
    with tr.instrument(tracer, package=PKG, layers={
            "beta": ("inner",), "experiments": ("ensemble_reduce",)}):
        assert pkg["experiments"].run(6, 3) == 6 * 8
    spans = {s.sid: s for s in tracer.spans}
    members = [s for s in spans.values() if s.name == tr.MEMBER]
    assert sorted(s.member for s in members) == list(range(6))
    for s in spans.values():
        if s.name == "inner":
            assert spans[s.parent].name == tr.MEMBER
            assert s.member == spans[s.parent].member
    assert len([s for s in spans.values() if s.name == tr.REDUCE]) == 6


def test_resolution_guard_lists_every_missing_name(pkg):
    shadow = types.ModuleType(f"{PKG}.gamma")
    exec("def inner(n):\n    return n\n", shadow.__dict__)
    sys.modules[shadow.__name__] = shadow
    orig_outer = pkg["alpha"].outer
    with pytest.raises(tr.ResolutionError) as err:
        with tr.instrument(tr.Tracer(), package=PKG, layers={
                "alpha": ("outer", "renamed_away"),
                "beta": ("inner",),
                "deleted": ("anything",)}):
            pass
    assert sorted(err.value.missing) == sorted([
        f"{PKG}.alpha.renamed_away",
        f"{PKG}.deleted.anything",
        f"{PKG}.gamma.inner (shadows {PKG}.beta.inner)",
    ])
    assert pkg["alpha"].outer is orig_outer


@pytest.mark.parametrize("n", [11, 24, 32, 100, 1000])
def test_tail_percentile_leaves_ten_members_beyond(n):
    import measure

    members = np.random.default_rng(n).exponential(size=n)
    ptail = np.percentile(members, measure._tail_percentile(n))
    assert (members > ptail).sum() == 10
