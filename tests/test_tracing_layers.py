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


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_traced_layer_exists(name):
    mod, attr, cls = LAYERS[name]
    owner = importlib.import_module(f"critsep.{mod}")
    if cls:
        target = vars(vars(owner)[cls]).get(attr)
    else:
        target = getattr(owner, attr, None)
    assert callable(target), name
