"""The layer names of the traced benchmark run still name critsep objects.

``bench/tracing.py`` wraps each entry of its ``LAYERS`` table by name: a
module function, or a method found in the ``__dict__`` of a class.  A rename
or a lost binding would leave a layer untraced, and only the benchmark's own
smoke test would notice; this test loads the table by path and checks every
entry.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()
# Layers whose critsep object is deleted while bench/tracing.py, which
# changes only together with the benchmark, still lists them.  The tracer
# skips a missing layer; each one here must stay gone.
RETIRED = {"functional.scaling_grid_start"}


def _target(name):
    mod, attr, cls = LAYERS[name]
    owner = importlib.import_module(f"critsep.{mod}")
    if cls:
        return vars(vars(owner)[cls]).get(attr)
    return getattr(owner, attr, None)


@pytest.mark.parametrize("name", sorted(set(LAYERS) - RETIRED))
def test_traced_layer_exists(name):
    assert callable(_target(name)), name


@pytest.mark.parametrize("name", sorted(RETIRED & set(LAYERS)))
def test_retired_layer_is_gone(name):
    assert _target(name) is None, name
