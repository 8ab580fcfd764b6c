"""The benchmark under ``benchmark/`` drives sedlab from outside: its tracer
wraps named functions of every layer, and its set-up probe replaces
``experiments.ensemble_reduce``.  These tests fail when a refactor of
sedlab breaks that contract, instead of ``--trace 1`` failing later."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from sedlab import acceptance, core, experiments
from sedlab.core import ZPF, GridSpec, SystemParams
from sedlab.dynamics import simulate_dipoles
from sedlab.noise import synthesize_pair

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name: str):
    """The benchmark's module ``name``.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"sedlab_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


def _layer_trace():
    return _load("layer_trace")


def test_tracer_resolves_every_layer_function():
    tr = _layer_trace()
    originals = {name: getattr(experiments, name)
                 for name in tr.LAYER_FUNCTIONS["experiments"]}
    with tr.instrument(tr.Tracer()):
        assert experiments.ensemble_reduce is not originals["ensemble_reduce"]
    for name, fn in originals.items():
        assert getattr(experiments, name) is fn


def test_ensemble_reduce_signature():
    params = list(inspect.signature(experiments.ensemble_reduce).parameters)
    assert params == ["worker", "n_ensemble", "jobs", "reducer", "state"]


def test_ks_subsamples_are_estimators_spans_with_their_fold():
    # benchmark's estimators.ks_s adds up the self time of these spans
    tr = _layer_trace()
    tracer = tr.Tracer()
    grid = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=16.0, n_ensemble=2)
    with tr.instrument(tracer):
        experiments.run_scenario("ground_state", grid=grid)
    folds = [sp for sp in tracer.spans
             if sp.layer == "estimators" and sp.name == "decorrelated"]
    assert len(folds) == 3 * grid.n_ensemble
    assert all(sp.fft_calls == 1 and 32 * sp.fft_points <= grid.n_samples for sp in folds)
    assert tr.summarize(tracer.spans)["estimators"].by_name["decorrelated"] > 0.0


def test_work_counters_read_the_integrators_arguments():
    # sedlab_counters reads simulate_oscillator's field (its .samples and
    # .dt) and burn_in by name, which only a traced run would otherwise
    # check; the linearity property integrates three 2^15-sample fields,
    # each with the default burn-in
    tr = _layer_trace()
    tracer = tr.Tracer()
    with tr.instrument(tracer, counters=tr.sedlab_counters(core.burn_in_samples)):
        _, ok = acceptance._property_linearity(1)
    assert ok
    counts = tr.summarize(tracer.spans)["dynamics"].counts
    assert counts["integrated"] == 3 * (1 << 15)
    assert counts["discarded"] == 3 * core.burn_in_samples(SystemParams(tau=0.01), 0.1)

    # the dipoles pass their modes a common burn-in, longer than one mode's own
    params = SystemParams(tau=0.01, K=0.1)
    grid = GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=4.0)
    pair = synthesize_pair(ZPF, params, grid, 3)
    nb = [core.burn_in_samples(params.mode_params(s), grid.dt) for s in (+1, -1)]
    assert nb[0] != nb[1]
    tracer = tr.Tracer()
    with tr.instrument(tracer, counters=tr.sedlab_counters(core.burn_in_samples)):
        simulate_dipoles(params, pair)
    counts = tr.summarize(tracer.spans)["dynamics"].counts
    assert counts["integrated"] == 2 * (1 << 15)
    assert counts["discarded"] == 2 * max(nb)


@pytest.mark.parametrize("workload", ["lag_spectra", "trajectories"])
def test_setup_probe_reaches_the_ensemble_of_every_scenario(workload, monkeypatch):
    # the probe replaces experiments.ensemble_reduce and raises at the first
    # member; a scenario that bound it elsewhere would finish without one
    measure = _load("measure")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the probe prepends src/
    orig = experiments.ensemble_reduce
    assert measure.measure_setup(measure.WORKLOADS[workload], 1)["setup_s"] > 0.0
    assert experiments.ensemble_reduce is orig
