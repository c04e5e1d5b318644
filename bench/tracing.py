"""Per-layer tracing of the hobnet package, installed from outside it.

`Tracer` replaces each public function named in `TRACED` with a wrapper
that counts calls and accumulates self time (inclusive time minus the time
of wrapped callees), at every module-level reference to it: the defining
module, every package module that imported the function by name, and the
benchmark's own modules.
The wrappers pass arguments and results through untouched, so a traced run
computes bit-for-bit what an untraced run computes. Leaving the `with`
block puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

from hobnet.connectivity import LEVELS

# module -> public functions wrapped in it; "ModelParams.zero_grad" is a method
TRACED: dict[str, tuple[str, ...]] = {
    "autodiff": (
        "matmul", "transpose", "add", "scale", "hadamard", "relu", "softmax", "concat",
        "conv1d", "mean_over_axis", "upper_triangle_flatten", "outer", "per_block_norm",
        "dropout", "cross_entropy", "backward",
    ),
    "connectivity": (
        "rv_coefficient", "level_connectivity", "composite_connectivity", "build_graph_set",
        "pearson_fc",
    ),
    "spectral": ("normalized_laplacian", "cheb_apply", "first_order_propagation"),
    "hgnn": ("level_encoder", "afm_combine", "branch_high_order"),
    "hcnn": ("hcnn_first_order", "hop_concat"),
    "layers": ("mlp_forward",),
    "ffc": (
        "select_cohort_gammas", "prepare_subject", "model_forward", "fused_features",
        "adam_step", "score_subjects", "ModelParams.zero_grad",
    ),
    "population": (
        "embed_subjects", "similarity_m1", "weight_matrix", "population_adjacency",
        "train_population_head", "gcn_classify",
    ),
    "harness": ("synth_generate", "evaluate_fit"),
}

# Imports by name that a wrapper must reach; install fails if one is missed.
IMPORT_SITES: tuple[tuple[str, str], ...] = (
    ("ffc", "backward"),
    ("population", "backward"),
    ("hgnn", "cheb_apply"),
    ("ffc", "normalized_laplacian"),
    ("ffc", "composite_connectivity"),
    ("ffc", "build_graph_set"),
    ("hgnn", "mlp_forward"),
    ("hcnn", "mlp_forward"),
    ("ffc", "mlp_forward"),
    ("population", "mlp_forward"),
    ("population", "adam_step"),
    ("population", "fused_features"),
)

RV = "connectivity.rv_coefficient"


def _metric_name(module: str, function: str) -> str:
    return f"{module}.{function.rsplit('.', 1)[-1]}"


FUNCTIONS: tuple[str, ...] = tuple(
    _metric_name(module, fn) for module, fns in TRACED.items() for fn in fns
)


class TraceError(RuntimeError):
    pass


class Tracer:
    """Call counts, self times and tape sizes of one traced stretch of work."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.level_s = {f"hgnn.{level}": 0.0 for level in LEVELS}
        self.tape_nodes = 0
        self.tape_subjects = 0
        self._train_forwards = 0
        self._child_s = [0.0]
        self._wrappers: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks that read arguments before the wrapped call -------------------

    def _before_backward(self, args, kwargs) -> None:
        tape = args[0] if args else kwargs["tape"]
        if self._train_forwards:
            self.tape_nodes += len(tape.nodes)
            self.tape_subjects += self._train_forwards
            self._train_forwards = 0

    def _before_model_forward(self, args, kwargs) -> None:
        if kwargs.get("train", args[3] if len(args) > 3 else False):
            self._train_forwards += 1

    def _wrap(self, name: str, fn):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s
        before = {
            "autodiff.backward": self._before_backward,
            "ffc.model_forward": self._before_model_forward,
        }.get(name)
        level_s = self.level_s if name == "hgnn.level_encoder" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - child_s.pop()
                child_s[-1] += elapsed
                calls[name] += 1
                if level_s is not None:
                    level_s[args[1] if len(args) > 1 else kwargs["prefix"]] += elapsed

        return wrapper

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        by_id: dict[int, tuple[object, object]] = {}
        try:
            for module_name, functions in TRACED.items():
                module = importlib.import_module(f"hobnet.{module_name}")
                for fn in functions:
                    owner_name, _, attr = fn.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = getattr(owner, attr)
                    wrapper = self._wrap(_metric_name(module_name, fn), original)
                    self._wrappers.add(wrapper)
                    if owner_name:  # a method: its class is the only site
                        self._replace(owner, attr, original, wrapper)
                    else:
                        by_id[id(original)] = (original, wrapper)
            # every module-level reference, in the package and in its callers
            for site in list(sys.modules.values()):
                namespace = getattr(site, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    hit = by_id.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._replace(site, key, value, hit[1])
            for site_name, attr in IMPORT_SITES:
                if getattr(sys.modules[f"hobnet.{site_name}"], attr) not in self._wrappers:
                    raise TraceError(f"hobnet.{site_name}.{attr} is not wrapped")
        except BaseException:
            self._restore_all()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore_all()

    def _replace(self, site, attr: str, original, wrapper) -> None:
        setattr(site, attr, wrapper)
        self._restore.append((site, attr, original))

    def _restore_all(self) -> None:
        while self._restore:
            site, attr, original = self._restore.pop()
            setattr(site, attr, original)

    # -- readings -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for prefix, seconds in self.level_s.items():
            out[f"{prefix}.s"] = (seconds, "s")
        per_subject = self.tape_nodes / self.tape_subjects if self.tape_subjects else 0.0
        out["autodiff.tape_nodes_per_subject"] = (per_subject, "count")
        return out
