"""The benchmark's calls into critsep still resolve.

``bench/tracing.py`` wraps each entry of its ``LAYERS`` table by name: a
module function, or a method found in the ``__dict__`` of a class.  A rename
or a lost binding would leave a layer untraced, and only the benchmark's own
smoke test would notice; this test loads the table by path and checks every
entry.  It runs the plane suite of ``bench/workloads.py`` once the same way,
so that a change to the ``scalar`` signatures it calls fails here too, and
loads every config file the workloads write, so that a config key the CLI
no longer reads fails here and not as a benchmark run that exits 2.
"""

import importlib
import importlib.util
import json
import os

import pytest

from critsep.cli import config_to_tree, load_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load("tracing").LAYERS
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


def test_benchmark_plane_suite_runs():
    op = _load("workloads")._plane_suite_op(1)
    outcomes = op.check(op.call())
    assert [(o.ok, o.wrong) for o in outcomes] == [(True, False)], outcomes


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_benchmark_configs_load(tmp_path, workload):
    # building a workload writes its config files and runs nothing; each one
    # loads, and the config emits its leaves as the benchmark wrote them
    _load("workloads").WORKLOADS[workload](0, str(tmp_path))
    paths = sorted(tmp_path.rglob("config.json"))
    assert paths
    for path in paths:
        tree = json.loads(path.read_text())
        emitted = config_to_tree(load_config(str(path)))
        assert {s: {k: tree[s][k] for k in leaves} for s, leaves in emitted.items()} == emitted
