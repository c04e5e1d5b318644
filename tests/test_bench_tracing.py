"""The benchmark's per-layer tracer still installs on the package.

``bench/tracing.py`` wraps the public functions it names, wherever a module
holds them by name, and refuses to install when one is gone or a checked
by-name import is missed. Only ``bench/run.py --trace 1`` runs it, so a
refactor that renames a traced function would otherwise break the
benchmark without failing a test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from hobnet import population, spectral

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("hobnet_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    tracing = load_tracing()
    originals = {
        (site, attr): getattr(sys.modules[f"hobnet.{site}"], attr, None)
        for site, attr in tracing.IMPORT_SITES
    }
    classify, propagate = population.gcn_classify, spectral.first_order_propagation
    rng = np.random.default_rng(0)
    y = rng.normal(size=(4, 3))
    head = population.build_population_head(3, seed=0)
    with tracing.Tracer() as tracer:
        for site, attr in tracing.IMPORT_SITES:
            assert getattr(sys.modules[f"hobnet.{site}"], attr) is not originals[site, attr]
        population.gcn_classify(y, np.eye(4), head)
    assert tracer.calls["population.gcn_classify"] == 1
    assert tracer.calls["spectral.first_order_propagation"] == 1
    assert population.gcn_classify is classify
    assert spectral.first_order_propagation is propagate
    for (site, attr), original in originals.items():
        assert getattr(sys.modules[f"hobnet.{site}"], attr) is original
