"""Outside-in tracing of sedlab's layers for the benchmark.

The tracer wraps each layer's public functions from outside the package:
every sedlab module that binds a wrapped function (``experiments`` imports
by name, so ``sedlab.experiments.simulate_oscillator`` is the same object
as ``sedlab.dynamics.simulate_oscillator``) gets the wrapper, and
``numpy.fft.{rfft,irfft,fft,ifft}`` are wrapped so that each transform is
attributed to the innermost active span of the calling thread.
``ensemble_reduce``'s worker and reducer arguments are wrapped too, which
gives one span per ensemble member and per reduction step.

Spans live in memory until the run ends.  A layer's self time is the sum
over its spans of the span duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy.fft

#: Public functions wrapped per layer (the module ``sedlab.<layer>``).
#: Every name must resolve; a refactor that deletes or renames one fails
#: the traced run instead of silently zeroing a layer.
LAYER_FUNCTIONS = {
    "core": ("validate", "burn_in_samples"),
    "analytic": (
        "ground_state", "heisenberg_product", "energy_fluctuation",
        "free_particle", "dipole_prediction", "planck_prediction",
        "boltzmann_mean_energy",
    ),
    "spectra": ("field_spectrum", "position_transfer"),
    "noise": ("synthesize_series", "synthesize_field", "synthesize_pair"),
    "dynamics": (
        "simulate_oscillator", "simulate_dipoles", "sample_from_spectrum",
        "canonical_momentum",
    ),
    "estimators": (
        "periodogram", "correlation", "two_sided_correlation", "commutator",
        "commutator_from_spectrum", "hilbert_transform", "structure_function",
        "windowed_energy", "ks_distance", "ks_critical", "decorrelated",
    ),
    "experiments": ("run_scenario", "ensemble_reduce"),
    "acceptance": ("criterion_9_properties",),
}

FFT_FUNCTIONS = ("rfft", "irfft", "fft", "ifft")

#: Span name of one ensemble member and of one reduction step.
MEMBER, REDUCE = "member", "reduce"


class ResolutionError(RuntimeError):
    """Raised when wrapped names are missing or shadowed."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__("tracer could not resolve: " + ", ".join(self.missing))


@dataclass
class Span:
    sid: int
    layer: str
    name: str
    start: float
    parent: int | None
    member: int | None
    end: float = float("nan")
    fft_calls: int = 0
    fft_points: int = 0
    fft_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "layer": self.layer, "name": self.name,
            "start": self.start, "end": self.end, "parent": self.parent,
            "member": self.member, "fft_calls": self.fft_calls,
            "fft_points": self.fft_points, "fft_s": self.fft_s,
            "counts": self.counts,
        }


_CURRENT = object()


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, layer: str, name: str, parent=_CURRENT, member=None):
        """Record a span; ``parent`` defaults to this thread's innermost span."""
        stack = self._stack()
        par = (stack[-1] if stack else None) if parent is _CURRENT else parent
        if member is None and par is not None:
            member = par.member
        with self._lock:
            sp = Span(next(self._ids), layer, name, self.clock(),
                      par.sid if par is not None else None, member)
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            stack.pop()

    def record_fft(self, points: int, seconds: float):
        sp = self.current()
        if sp is not None:
            sp.fft_calls += 1
            sp.fft_points += points
            sp.fft_s += seconds


# ---------------------------------------------------------------------------
# self time and per-layer summaries

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.sid, ())
            if min(c.end, sp.end) > max(c.start, sp.start)
        ]
        out[sp.sid] = (sp.end - sp.start) - _union_length(covered)
    return out


def coverage(spans, t0: float, t1: float) -> float:
    """Share of [t0, t1] that lies inside some root span."""
    roots = [(max(s.start, t0), min(s.end, t1)) for s in spans
             if s.parent is None and min(s.end, t1) > max(s.start, t0)]
    return _union_length(roots) / (t1 - t0)


@dataclass
class LayerSummary:
    calls: int = 0          # entries into the layer from another layer
    self_s: float = 0.0
    fft_calls: int = 0
    fft_points: int = 0
    fft_s: float = 0.0
    by_name: dict = field(default_factory=dict)   # span name -> self seconds
    counts: dict = field(default_factory=dict)    # summed span counters


def summarize(spans) -> dict[str, LayerSummary]:
    selfs = self_times(spans)
    by_id = {sp.sid: sp for sp in spans}
    out: dict[str, LayerSummary] = {}
    for sp in spans:
        s = out.setdefault(sp.layer, LayerSummary())
        par = by_id.get(sp.parent)
        if par is None or par.layer != sp.layer:
            s.calls += 1
        s.self_s += selfs[sp.sid]
        s.by_name[sp.name] = s.by_name.get(sp.name, 0.0) + selfs[sp.sid]
        s.fft_calls += sp.fft_calls
        s.fft_points += sp.fft_points
        s.fft_s += sp.fft_s
        for k, v in sp.counts.items():
            s.counts[k] = s.counts.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# wrapping

def _fft_points(name: str, args, kwargs) -> int:
    a = args[0]
    n = args[1] if len(args) > 1 else kwargs.get("n")
    if n is not None:
        return int(n)
    last = a.shape[-1] if hasattr(a, "shape") else len(a)
    return 2 * (last - 1) if name == "irfft" else int(last)


def _traced_fft(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        tracer.record_fft(_fft_points(name, args, kwargs), time.perf_counter() - t0)
        return out
    return traced


def _traced_call(tracer: Tracer, layer: str, name: str, fn, counter=None):
    sig = inspect.signature(fn) if counter is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer, name) as sp:
            out = fn(*args, **kwargs)
            if counter is not None:
                counter(sp, sig.bind(*args, **kwargs).arguments, out)
        return out
    return traced


def _traced_ensemble_reduce(tracer: Tracer, fn):
    """Wrap ``ensemble_reduce`` so each member and reduction step is a span."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        worker, reducer = bound.arguments["worker"], bound.arguments["reducer"]
        with tracer.span("experiments", "ensemble_reduce") as owner:
            def member(k):
                with tracer.span("experiments", MEMBER, parent=owner, member=k):
                    return worker(k)

            def reduce_step(state, k, res):
                with tracer.span("experiments", REDUCE, member=k):
                    return reducer(state, k, res)

            bound.arguments["worker"] = member
            bound.arguments["reducer"] = reduce_step
            return fn(*bound.args, **bound.kwargs)
    return traced


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _binders(modules, obj) -> list:
    return [(m, attr) for m in modules for attr, v in list(vars(m).items()) if v is obj]


@contextmanager
def instrument(tracer: Tracer, package: str = "sedlab", layers=None, counters=None):
    """Wrap every listed function in every module of ``package`` that binds it.

    ``counters`` maps ``"layer.name"`` to ``f(span, arguments, result)``,
    which adds work counts to the span.  Raises ResolutionError, before
    anything is replaced, listing every name that is missing from its
    layer's module or shadowed by a different object of the same name in
    another module of the package.  The originals are restored on exit.
    """
    layers = LAYER_FUNCTIONS if layers is None else layers
    counters = counters or {}

    modules = _package_modules(package)
    plan, missing = [], []
    for layer, names in layers.items():
        home = sys.modules.get(f"{package}.{layer}")
        for name in names:
            orig = getattr(home, name, None) if home is not None else None
            if not callable(orig):
                missing.append(f"{package}.{layer}.{name}")
                continue
            if name == "ensemble_reduce":
                wrapper = _traced_ensemble_reduce(tracer, orig)
            else:
                wrapper = _traced_call(tracer, layer, name, orig,
                                       counters.get(f"{layer}.{name}"))
            binders = _binders(modules, orig)
            shadows = [f"{m.__name__}.{name}" for m in modules
                       if callable(getattr(m, name, None))
                       and getattr(m, name) is not orig]
            missing.extend(f"{s} (shadows {package}.{layer}.{name})" for s in shadows)
            plan.append((orig, wrapper, binders))
    for name in FFT_FUNCTIONS:
        orig = getattr(numpy.fft, name, None)
        if not callable(orig):
            missing.append(f"numpy.fft.{name}")
            continue
        wrapper = _traced_fft(tracer, name, orig)
        plan.append((orig, wrapper, [(numpy.fft, name)] + _binders(modules, orig)))
    if missing:
        raise ResolutionError(missing)

    done = []
    try:
        for orig, wrapper, binders in plan:
            for mod, attr in binders:
                setattr(mod, attr, wrapper)
                done.append((mod, attr, orig))
        yield
    finally:
        for mod, attr, orig in reversed(done):
            setattr(mod, attr, orig)


def sedlab_counters(burn_in_samples) -> dict:
    """Work counters for synthesis and integration.

    ``burn_in_samples`` is the unwrapped ``sedlab.core.burn_in_samples``,
    so counting adds no spans.
    """
    def synthesized(sp, args, out):
        arrays = out if isinstance(out, tuple) else (out,)
        sp.counts["samples"] = sum(a.size for a in arrays)

    def integrated(sp, args, out):
        fld = args["field"]
        nb = args.get("burn_in")
        sp.counts["integrated"] = fld.samples.size
        sp.counts["discarded"] = (burn_in_samples(args["params"], fld.dt)
                                  if nb is None else int(nb))

    return {"noise.synthesize_series": synthesized,
            "dynamics.simulate_oscillator": integrated}
