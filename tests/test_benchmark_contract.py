"""The benchmark under ``benchmark/`` drives sedlab from outside: its tracer
wraps named functions of every layer, and its set-up probe replaces
``experiments.ensemble_reduce``.  These tests fail when a refactor of
sedlab breaks that contract, instead of ``--trace 1`` failing later."""

import importlib.util
import inspect
import sys
from pathlib import Path

import sedlab.acceptance  # noqa: F401  (binds the acceptance layer)
from sedlab import experiments

LAYER_TRACE = Path(__file__).resolve().parents[1] / "benchmark" / "layer_trace.py"


def _layer_trace():
    spec = importlib.util.spec_from_file_location("sedlab_layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


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
