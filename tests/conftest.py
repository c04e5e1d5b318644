"""Shared builders for hierarchies, synthetic time series and parameters."""

import numpy as np
import pytest

from hobnet.connectivity import AtlasHierarchy, RoiTimeSeries
from hobnet.ffc import ModelParams
from hobnet.harness import nested_hierarchy as _nested_hierarchy


def make_nested_hierarchy(n_networks=2, groups_per_network=2, rois_per_group=2) -> AtlasHierarchy:
    """Uniform nested parcellation with generated names."""
    return _nested_hierarchy(n_networks, groups_per_network, rois_per_group)


def toy_hierarchy_4_6_10() -> AtlasHierarchy:
    """Irregular toy parcellation: 4 networks, 6 groups, 10 regions."""
    man = {
        "r0": "g0", "r1": "g0",
        "r2": "g1",
        "r3": "g2", "r4": "g2",
        "r5": "g3",
        "r6": "g4",
        "r7": "g5", "r8": "g5", "r9": "g5",
    }
    wan = {"g0": "n0", "g1": "n0", "g2": "n1", "g3": "n2", "g4": "n3", "g5": "n3"}
    return AtlasHierarchy(rois=[f"r{i}" for i in range(10)], man_partition=man, wan_partition=wan)


def random_timeseries(n_rois: int, n_timepoints: int = 40, seed: int = 0, names=None) -> RoiTimeSeries:
    rng = np.random.default_rng(seed)
    return RoiTimeSeries(
        subject_id=f"seed{seed}",
        samples=rng.normal(size=(n_timepoints, n_rois)),
        roi_names=names or [f"r{i}" for i in range(n_rois)],
    )


def params_of(values: dict) -> ModelParams:
    """A ``ModelParams`` holding each named array, in the dict's order."""
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
    params = ModelParams((name, a.shape) for name, a in arrays.items())
    for name, a in arrays.items():
        params[name].data[...] = a
    return params


@pytest.fixture
def nested_hierarchy():
    return make_nested_hierarchy()


@pytest.fixture
def toy_hierarchy():
    return toy_hierarchy_4_6_10()
