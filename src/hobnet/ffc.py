"""Fusion, classification head, loss, optimizer, and the training loop.

Assembles the graph branch and the convolutional branch into one model:
builds the named parameter collection, runs the fused forward pass, trains
with Adam on cross-entropy, and round-trips checkpoints bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import hcnn as hcnn_mod
from . import hgnn as hgnn_mod
from .autodiff import Dropout, NonFiniteValue, Parameter, Tape, Tensor, backward
from .connectivity import (
    GAMMA_GRID,
    LEVELS,
    AtlasHierarchy,
    RoiTimeSeries,
    build_graph_set,
    check_json,
    composite_connectivity,
    fc_columns,
    gram_stack,
    pearson_fc,
    retained_fractions,
    select_cutoff,
    subject_chunks,
)
from .hcnn import HcnnConfig, dr_flatten
from .hgnn import HgnnConfig, LevelBatch
from .layers import initial_values, mlp_forward, mlp_layout
from .rng import named_stream
from .spectral import GraphLaplacian, first_order_propagation, normalized_laplacian


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchToggles:
    """Which branches run and whether their high-order paths are active."""

    name: str
    graph: bool
    graph_high_order: bool
    cnn: bool
    cnn_high_order: bool
    lan_only: bool = False

    def __post_init__(self):
        if not (self.graph or self.cnn):
            raise ModelError(f"toggles {self.name!r}: all branches disabled; enable the graph or CNN branch")


TOGGLES: dict[str, BranchToggles] = {
    t.name.lower(): t
    for t in (
        BranchToggles("GNN-lan-only", True, False, False, False, lan_only=True),
        BranchToggles("GNN", True, False, False, False),
        BranchToggles("CNN", False, False, True, False),
        BranchToggles("HGNN", True, True, False, False),
        BranchToggles("HCNN", False, False, True, True),
        BranchToggles("HCNN+GNN", True, False, True, True),
        BranchToggles("HGNN+CNN", True, True, True, False),
        BranchToggles("HGNN+HCNN", True, True, True, True),
    )
}


def parse_toggles(name: str) -> BranchToggles:
    key = name.strip().lower()
    if key not in TOGGLES:
        raise ModelError(f"unknown toggles {name!r}; choose from {sorted(t.name for t in TOGGLES.values())}")
    return TOGGLES[key]


@dataclass
class ModelConfig:
    toggles: BranchToggles = field(default_factory=lambda: TOGGLES["hgnn+hcnn"])
    hgnn: HgnnConfig = field(default_factory=HgnnConfig)
    hcnn: HcnnConfig = field(default_factory=HcnnConfig)
    head_hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        if any(w < 1 for w in self.head_hidden):
            raise ModelError(f"head widths must all be >= 1, got {list(self.head_hidden)}")

    def graph_levels(self) -> list[str]:
        return ["lan"] if self.toggles.lan_only else list(LEVELS)

    def fused_width(self) -> int:
        """Width of the fused row: each graph level's part, then the CNN part."""
        t = self.toggles
        graph = self.hgnn.hidden_dim * (1 + t.graph_high_order) * len(self.graph_levels()) if t.graph else 0
        return graph + (self.hcnn.out_dim * (1 + t.cnn_high_order) if t.cnn else 0)

    def to_dict(self) -> dict:
        return {
            "toggles": self.toggles.name,
            "hgnn": asdict(self.hgnn),
            "hcnn": asdict(self.hcnn),
            "head_hidden": list(self.head_hidden),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        payload = _config_kwargs(cls, payload, "model_config")
        check_json(payload["toggles"], str, "model_config.toggles", ModelError)
        return cls(
            toggles=parse_toggles(payload["toggles"]),
            hgnn=HgnnConfig(**_config_kwargs(HgnnConfig, payload["hgnn"], "model_config.hgnn")),
            hcnn=HcnnConfig(**_config_kwargs(HcnnConfig, payload["hcnn"], "model_config.hcnn")),
            head_hidden=payload["head_hidden"],
        )


def _config_kwargs(cls, payload: dict, where: str) -> dict:
    """``payload`` as keyword arguments of ``cls``, JSON arrays as tuples. A
    payload that is not an object, a key it has no field for, a value of
    another JSON kind than the field's default, and a tuple field's entry
    that is not an integer are errors."""
    check_json(payload, dict, where, ModelError)
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(payload) - set(defaults))
    if unknown:
        raise ModelError(f"{where} has unknown key {unknown[0]!r}")
    for key, value in payload.items():
        if defaults[key] is not MISSING:
            kind = type(defaults[key])
            check_json(value, kind, f"{where}.{key}", ModelError, int if kind is tuple else None)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}


PRESETS: dict[str, dict] = {
    "abide1": {"learning_rate": 1e-4, "dropout": 0.3, "epochs": 240},
    "abide2": {"learning_rate": 1e-4, "dropout": 0.25, "epochs": 200},
    "adhd200": {"learning_rate": 1e-4, "dropout": 0.3, "epochs": 300},
}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    dropout: float = 0.0
    batch_size: int | None = None
    seed: int = 0
    preset: str = "custom"

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:  # also refuses NaN
            raise ModelError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ModelError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ModelError(f"batch size must be >= 1 (or None for full batch), got {self.batch_size}")


def preset_train_config(name: str, seed: int = 0, **overrides) -> TrainConfig:
    key = name.strip().lower()
    if key == "custom":
        return TrainConfig(seed=seed, **overrides)
    if key not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; choose from {[*PRESETS, 'custom']}")
    kwargs = dict(PRESETS[key])
    kwargs.update(overrides)
    return TrainConfig(seed=seed, preset=key, **kwargs)


# ---------------------------------------------------------------------------
# parameter collection
# ---------------------------------------------------------------------------


class ModelParams(Mapping):
    """Name-keyed parameters whose values share one float64 buffer.

    Made from ``(name, shape)`` pairs, names unique: ``data`` is one zeroed
    buffer and each parameter is a tensor over a reshaped view of its slice,
    in order; ``bounds`` holds the offsets. ``zero_grad`` alone makes gradient
    memory: ``grad`` the same way, on first use, with each parameter's view
    bound; after that it only zeroes it. A scored model holds no gradients.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]] = ()):
        shapes = list(shapes)
        self.bounds = np.cumsum([0] + [math.prod(shape) for _, shape in shapes])
        self.data, self.grad = np.zeros(self.bounds[-1]), None
        self._params: dict[str, Parameter] = {}
        for (name, shape), lo, hi in zip(shapes, self.bounds, self.bounds[1:]):
            if name in self._params:
                raise ModelError(f"duplicate parameter name {name!r}")
            self._params[name] = Parameter(name, self.data[lo:hi].reshape(shape))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)
            return
        self.grad = np.zeros_like(self.data)
        for p, lo, hi in zip(self._params.values(), self.bounds, self.bounds[1:]):
            p.grad = self.grad[lo:hi].reshape(p.shape)

    def release_grads(self) -> None:
        """Drop the gradient buffer; the next ``zero_grad`` makes it again."""
        self.grad = None
        for p in self._params.values():
            p.grad = None

    def total_size(self) -> int:
        return self.data.size

    def name_at(self, index: int) -> str:
        """The name of the parameter that holds entry ``index`` of ``data``."""
        return list(self._params)[np.searchsorted(self.bounds, index, side="right") - 1]

    def non_finite(self) -> str | None:
        """The name of the first parameter holding NaN or Inf, if one does."""
        finite = np.isfinite(self.data)
        return None if finite.all() else self.name_at(np.argmin(finite))


# ---------------------------------------------------------------------------
# prepared subjects
# ---------------------------------------------------------------------------


@dataclass
class SubjectBatch:
    """The constant model inputs of a stack of subjects, as preparation
    makes them and training and scoring read them: the subject ids, ``[N]``
    labels, a ``LevelBatch`` per level and ``[N, 1, fc_len]`` FC vectors.
    ``batch[i]`` is subject ``i``'s view into these arrays, no copy."""

    subject_ids: list[str]
    labels: np.ndarray
    levels: dict[str, LevelBatch]
    fc_input: np.ndarray

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __iter__(self) -> Iterator[SubjectInputs]:
        return (SubjectInputs(self, i) for i in range(len(self)))

    def __getitem__(self, index: int) -> SubjectInputs:
        return SubjectInputs(self, range(len(self))[index])

    @property
    def level_widths(self) -> dict[str, int]:
        return {lv: level.width for lv, level in self.levels.items()}

    @property
    def fc_len(self) -> int:
        return self.fc_input.shape[-1]

    def take(self, index: slice | np.ndarray) -> "SubjectBatch":
        """The subjects at ``index``, in that order; a slice gives views, no copy."""
        return SubjectBatch(
            subject_ids=[self.subject_ids[i] for i in np.arange(len(self))[index]],
            labels=self.labels[index],
            levels={lv: level.take(index) for lv, level in self.levels.items()},
            fc_input=self.fc_input[index],
        )


@dataclass(frozen=True)
class SubjectInputs:
    """Subject ``index`` of a ``SubjectBatch``, for reading one subject's
    inputs: views of its rows, no copy, each level's built when ``levels``
    is read. Training and scoring read the batch, never these."""

    batch: SubjectBatch
    index: int

    @property
    def subject_id(self) -> str:
        return self.batch.subject_ids[self.index]

    @property
    def label(self) -> int:
        return int(self.batch.labels[self.index])

    @property
    def levels(self) -> dict[str, LevelBatch]:
        return {lv: level.take(self.index) for lv, level in self.batch.levels.items()}

    @property
    def fc_input(self) -> Tensor:
        """The FC vector as ``[1, fc_len]``."""
        return Tensor(self.batch.fc_input[self.index])

    @property
    def fc_len(self) -> int:
        return self.batch.fc_len


def eval_batches(batch: SubjectBatch) -> Iterator[SubjectBatch]:
    """``batch`` in order, in the stacks of one eval-mode forward each: as
    many subjects as have their FC vectors fit in ``autodiff.CHUNK_BYTES``
    (``chunk_slices``), or one. That is 1,092 subjects at 16 ROIs and 6 at
    196, where the CNN branch runs its convolutions a subject at a time
    (``HcnnConfig.stack_chunks``), so a stack's conv outputs never exist
    at once."""
    for rows in ad.chunk_slices(len(batch), 8 * batch.fc_len):
        yield batch.take(rows)


@dataclass
class CohortConnectivity:
    """The threshold-free half of preparing a stack of subjects: their
    series and every level's composite connectivity as one checked
    ``[N, m, m]`` stack. Gamma selection reads the stacks, and preparation
    thresholds them and keeps them as the node features, so a caller that
    does both computes them once.
    """

    series: Sequence[RoiTimeSeries]
    levels: dict[str, np.ndarray]

    @classmethod
    def build(cls, series: Sequence[RoiTimeSeries], hierarchy: AtlasHierarchy) -> "CohortConnectivity":
        """Each chunk's rows (``connectivity.subject_chunks``) from one Gram
        matrix per subject, written into stacks allocated once."""
        widths = {lv: len(hierarchy.level_nodes(lv)) for lv in LEVELS}
        levels = {lv: np.empty((len(series), m, m)) for lv, m in widths.items()}
        for rows in subject_chunks(len(series), hierarchy):
            grams = gram_stack(series[rows], hierarchy)
            for lv, stack in levels.items():
                stack[rows] = composite_connectivity(grams, hierarchy, lv)
        return cls(series, levels)

    def __len__(self) -> int:
        return len(self.series)


def select_cohort_gammas(
    series: Sequence[RoiTimeSeries] | CohortConnectivity,
    hierarchy: AtlasHierarchy,
) -> dict[str, float]:
    """Per-level cutoff from the inflection of the cohort-mean retained curve.

    ``series`` is the subjects' time series, or their ``CohortConnectivity``.
    The curves are added in subject order, as one subject at a time would.
    """
    if not isinstance(series, CohortConnectivity):
        series = CohortConnectivity.build(series, hierarchy)
    if not len(series):
        raise ModelError("gamma selection needs at least one subject")
    gammas: dict[str, float] = {}
    for level in LEVELS:
        mean_curve = np.zeros(GAMMA_GRID.size)
        blocks = hierarchy.layout(level).blocks
        for rows in subject_chunks(len(series), hierarchy):
            for curve in retained_fractions(series.levels[level][rows], blocks, GAMMA_GRID):
                mean_curve += curve
        mean_curve /= len(series)
        if np.all(mean_curve == 0.0):
            # edgeless level: every threshold gives the same adjacency
            gammas[level] = 1.0
        else:
            gammas[level] = select_cutoff(list(zip(GAMMA_GRID.tolist(), mean_curve.tolist())))
    return gammas


def prepare_stack(
    connectivity: CohortConnectivity,
    hierarchy: AtlasHierarchy,
    gammas: dict[str, float] | float,
    labels: Sequence[int],
    encoder: str = "res-cheb",
) -> SubjectBatch:
    """Build the constant model inputs of every subject.

    The node features are the connectivity's stacks, not copies of them.
    The Laplacians (or GCN propagations) and FC vectors are allocated at
    the cohort's size and filled chunk by chunk: each chunk's rows are
    thresholded, and their graph matrices and FC vectors built, as stacks.
    """
    n, series = len(connectivity), connectivity.series
    if not n:
        raise ModelError("no subjects to prepare")
    if len(labels) != n:
        raise ModelError(f"{len(labels)} labels for {n} subjects; give one per subject")
    r = fc_columns(series)
    fc = np.empty((n, 1, r * (r - 1) // 2))
    graph = {lv: np.empty_like(stack) for lv, stack in connectivity.levels.items()}
    lambda_max = {lv: np.empty(n) for lv in LEVELS}
    for rows in subject_chunks(n, hierarchy):
        fc[rows, 0] = dr_flatten(pearson_fc(series[rows]))
        graphs = build_graph_set({lv: stack[rows] for lv, stack in connectivity.levels.items()}, gammas)
        for lv in LEVELS:
            if encoder == "gcn":
                graph[lv][rows] = first_order_propagation(graphs[lv])
            else:
                lap = normalized_laplacian(graphs[lv], hierarchy.layout(lv).blocks)
                graph[lv][rows], lambda_max[lv][rows] = lap.laplacian, lap.lambda_max
    level_batches = {}
    for lv in LEVELS:
        lap = None if encoder == "gcn" else GraphLaplacian(graph[lv], lambda_max[lv])
        propagation = graph[lv] if encoder == "gcn" else None
        level_batches[lv] = LevelBatch(connectivity.levels[lv], hierarchy.layout(lv).blocks, lap, propagation)
    ids = [ts.subject_id for ts in series]
    return SubjectBatch(ids, np.array([int(label) for label in labels]), level_batches, fc)


def prepare_subject(
    ts: RoiTimeSeries,
    hierarchy: AtlasHierarchy,
    gammas: dict[str, float] | float,
    label: int = 0,
    encoder: str = "res-cheb",
) -> SubjectBatch:
    """Build the constant model inputs for one subject: a stack of one."""
    return prepare_stack(CohortConnectivity.build([ts], hierarchy), hierarchy, gammas, [label], encoder)


def prepare_cohort(
    cohort,
    hierarchy: AtlasHierarchy,
    gammas: dict[str, float] | float,
    encoder: str = "res-cheb",
    subject_ids: Iterable[str] | None = None,
) -> SubjectBatch:
    """The cohort's subjects (those of ``subject_ids``, in cohort order)
    prepared as one stack; an id the cohort lacks is refused."""
    records = cohort.select(subject_ids, "scored")
    connectivity = CohortConnectivity.build([r.timeseries for r in records], hierarchy)
    return prepare_stack(connectivity, hierarchy, gammas, [r.label for r in records], encoder)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


def param_layout(
    cfg: ModelConfig,
    level_widths: dict[str, int],
    fc_len: int,
) -> list[tuple[str, tuple[int, ...], str]]:
    """The ``(name, shape, init)`` row of every parameter both branches and
    the head read, in creation order: the one statement of their names and shapes."""
    rows, d = [], cfg.hgnn.hidden_dim
    if cfg.toggles.graph:
        for level in cfg.graph_levels():
            prefix = f"hgnn.{level}"
            rows += [(f"{prefix}.proj.w", (level_widths[level], d), "glorot"),
                     (f"{prefix}.proj.b", (d,), "zeros")]
            for i in range(cfg.hgnn.blocks):
                block = f"{prefix}.block{i}"
                kernels = ["w"] if cfg.hgnn.encoder == "gcn" else [f"theta{k}" for k in range(cfg.hgnn.k)]
                rows += [(f"{block}.{kernel}", (d, d), "glorot") for kernel in kernels]
                rows += [(f"{block}.norm.gain", (d,), "ones"), (f"{block}.norm.shift", (d,), "small-positive")]
            rows.append((f"{prefix}.afm.r", (cfg.hgnn.blocks,), "small-normal"))
            if cfg.toggles.graph_high_order:
                rows += mlp_layout(f"{prefix}.ghop", [d * (d + 1) // 2, d, d])
    if cfg.toggles.cnn:
        c = cfg.hcnn
        for i, c_in in enumerate((1, c.channels[0])):
            rows += [(f"hcnn.conv{i}.w", (c.channels[i], c_in, c.kernel_sizes[i]), "glorot"),
                     (f"hcnn.conv{i}.b", (c.channels[i],), "zeros")]
        rows += mlp_layout("hcnn.mlp", [c.conv_output_length(fc_len), *c.mlp_hidden, c.out_dim])
        if cfg.toggles.cnn_high_order:
            rows += mlp_layout("hcnn.hop", [c.out_dim * (c.out_dim + 1) // 2, c.out_dim, c.out_dim])
    return rows + mlp_layout("head", [cfg.fused_width(), *cfg.head_hidden, 2])


def init_params(rows: list[tuple[str, tuple[int, ...], str]], seed: int) -> ModelParams:
    """The parameters of ``(name, shape, init)`` rows, each initial value
    drawn from ``seed`` and written into its view."""
    params = ModelParams((name, shape) for name, shape, _ in rows)
    for name, values in initial_values(rows, seed):
        params[name].data[...] = values
    return params


def build_model_params(
    cfg: ModelConfig,
    level_widths: dict[str, int],
    fc_len: int,
    seed: int,
) -> ModelParams:
    """Every parameter of ``param_layout``, with initial values drawn from ``seed``."""
    return init_params(param_layout(cfg, level_widths, fc_len), seed)


def fused_features(
    params: ModelParams,
    cfg: ModelConfig,
    batch: SubjectBatch,
    train: Dropout | None = None,
) -> Tensor:
    """Fused feature rows ``[B, fused_width]``: one concat of the enabled
    parts, each graph level's in ``graph_levels()`` order, then the CNN's;
    a single part is returned as is. ``train`` is None to score, or the
    dropout rate and stream of a training forward."""
    t, parts = cfg.toggles, []
    if t.graph:
        for level in cfg.graph_levels():
            z = hgnn_mod.level_encoder(params, f"hgnn.{level}", batch.levels[level], cfg.hgnn, train)
            parts.append(hgnn_mod.branch_high_order(z, params, f"hgnn.{level}.ghop", t.graph_high_order))
    if t.cnn:
        z_fc = hcnn_mod.hcnn_first_order(params, "hcnn", Tensor(batch.fc_input), cfg.hcnn, train)
        parts.append(hcnn_mod.hop_concat(z_fc, params, "hcnn.hop") if t.cnn_high_order else z_fc)
    return parts[0] if len(parts) == 1 else ad.concat(*parts, axis=-1)


def model_forward(
    params: ModelParams,
    cfg: ModelConfig,
    batch: SubjectBatch,
    train: Dropout | None = None,
) -> Tensor:
    """Class probabilities ``[B, 2]`` of a stack of subjects; ``train`` as
    for ``fused_features``."""
    return ad.softmax(mlp_forward(fused_features(params, cfg, batch, train), params, "head"))


def score_subjects(params: ModelParams, cfg: ModelConfig, batch: SubjectBatch) -> np.ndarray:
    """Positive-class probability per subject, eval mode; none for no subjects."""
    scores = [model_forward(params, cfg, part).data[:, 1] for part in eval_batches(batch)]
    return np.concatenate(scores) if scores else np.zeros(0)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adam's step count ``t`` and its moments ``m`` and ``v`` over
    ``params``: flat float64 buffers in the layout of ``params.data``; and
    the two scratch buffers a step works in, each a quarter of
    ``autodiff.CHUNK_BYTES`` long, or the whole layout when that is shorter."""

    def __init__(self, params: ModelParams):
        self.params, self.t = params, 0
        self.m, self.v = np.zeros_like(params.data), np.zeros_like(params.data)
        size = max(1, min(params.data.size, ad.CHUNK_BYTES // 32))
        self.step, self.denom = np.empty(size), np.empty(size)


def adam_step(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``state.params`` from their gradients.

    The moments and the parameters update in place over the flat buffers,
    in slices as long as the state's scratch buffers, so a step makes no
    array at any model width, in the operation order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``.
    """
    params = state.params
    if params.grad is None:
        raise ModelError("adam_step: no gradients; zero_grad makes them before the backward pass")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    c1, c2 = 1.0 - beta1**state.t, 1.0 - beta2**state.t
    x, g, m, v = params.data, params.grad, state.m, state.v
    size = state.step.size
    for start in range(0, x.size, size):
        part = slice(start, start + size)
        xs, gs, ms, vs = x[part], g[part], m[part], v[part]
        step, denom = state.step[: xs.size], state.denom[: xs.size]
        np.multiply(gs, 1.0 - beta1, out=step)
        ms *= beta1
        ms += step
        np.multiply(gs, 1.0 - beta2, out=step)
        step *= gs
        vs *= beta2
        vs += step
        np.divide(ms, c1, out=step)
        step *= lr
        np.divide(vs, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        xs -= step
    if (name := params.non_finite()) is not None:
        raise NonFiniteValue(f"parameter {name!r} became non-finite after the update")


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    params: ModelParams
    config: ModelConfig
    train_config: TrainConfig
    gammas: dict[str, float]
    loss_trace: list[float]
    level_widths: dict[str, int]
    fc_len: int
    subject_ids: list[str]
    source: str = "the fit"  # what refusals name; load_fit sets the checkpoint's path

    def check_atlas(self, cohort, hierarchy: AtlasHierarchy) -> None:
        """Refuse a cohort whose level widths or FC length differ from those
        this fit trained on; the hierarchy gives the widths and the first
        subject's columns the FC length, so nothing is prepared."""
        got = {lv: len(hierarchy.level_nodes(lv)) for lv in LEVELS}
        if cohort.subjects:
            r = cohort.subjects[0].timeseries.samples.shape[1]
            got["FC"] = r * (r - 1) // 2
        trained = {**self.level_widths, "FC": self.fc_len}
        for key in got:  # LEVELS order; a loaded fit's widths come back key-sorted
            if got[key] != trained[key]:
                raise ModelError(
                    f"{self.source}: trained on {key} width {trained[key]}, but the cohort gives "
                    f"{got[key]}; score it with a model trained on the same atlas"
                )


def fit(
    cohort,
    hierarchy: AtlasHierarchy,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    subject_ids: Iterable[str] | None = None,
) -> FitResult:
    """Train the fused model on (a subset of) the cohort.

    Thresholds are the inflection of the cohort-mean retained-edge curve
    per level, computed on the training subjects only. Training is
    full-batch unless ``train_cfg.batch_size`` says otherwise. The subjects
    are prepared as one stack; each mini-batch is taken from it by index
    and runs as one stacked forward pass on one tape. Every random choice
    is drawn from streams named by the seed, so equal seeds give
    bitwise-equal traces.
    """
    records = cohort.select(subject_ids, "training")
    if not records:
        raise ModelError("no training subjects selected")
    connectivity = CohortConnectivity.build([r.timeseries for r in records], hierarchy)
    gammas = select_cohort_gammas(connectivity, hierarchy)
    cohort_batch = prepare_stack(
        connectivity, hierarchy, gammas, [r.label for r in records], encoder=model_cfg.hgnn.encoder
    )
    params = build_model_params(model_cfg, cohort_batch.level_widths, cohort_batch.fc_len, train_cfg.seed)

    state = AdamState(params)
    train = (train_cfg.dropout, named_stream(train_cfg.seed, "dropout"))
    shuffle_rng = named_stream(train_cfg.seed, "batch-shuffle")
    n = len(cohort_batch)
    batch = n if train_cfg.batch_size is None else min(train_cfg.batch_size, n)

    trace: list[float] = []
    for _ in range(train_cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            mini = cohort_batch.take(order[start : start + batch])
            params.zero_grad()
            with Tape() as tape:
                probs = model_forward(params, model_cfg, mini, train=train)
                batch_loss = ad.cross_entropy(probs, mini.labels)
            backward(tape, batch_loss)
            adam_step(state, train_cfg.learning_rate)
            epoch_loss += batch_loss.item() * len(mini.labels)
        trace.append(epoch_loss / n)
    params.release_grads()
    return FitResult(
        params=params,
        config=model_cfg,
        train_config=train_cfg,
        gammas=gammas,
        loss_trace=trace,
        level_widths=cohort_batch.level_widths,
        fc_len=cohort_batch.fc_len,
        subject_ids=cohort_batch.subject_ids,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "hobnet-checkpoint-v3"

# the type of each meta record besides the two configs, and of its entries
# if it is an object or an array
_META_RECORDS = {"gammas": (dict, float), "loss_trace": (list, float), "level_widths": (dict, int),
                 "fc_len": (int, None), "subject_ids": (list, str)}


def save_checkpoint(path: str | Path, params: ModelParams, meta: dict) -> None:
    """One JSON header line, then the values buffer as raw little-endian float64."""
    header = {
        "format": _CHECKPOINT_FORMAT,
        "meta": meta,
        "params": [{"name": p.name, "shape": list(p.shape)} for p in params.parameters()],
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.data.astype("<f8", copy=False))


def _read_header(fh, path: str | Path) -> tuple[dict, list[tuple[str, tuple[int, ...]]]]:
    """The meta and the ``(name, shape)`` of each parameter, in order, from
    the header line of the checkpoint ``fh`` reads."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise ModelError(f"{path}: not a checkpoint file ({exc})") from None
    check_json(header, dict, f"{path}: checkpoint header", ModelError)
    if (fmt := header.get("format")) != _CHECKPOINT_FORMAT:
        raise ModelError(f"{path}: checkpoint format {fmt!r} is not {_CHECKPOINT_FORMAT!r}; retrain it")
    check_json(header.get("meta"), dict, f"{path}: meta", ModelError)
    check_json(header.get("params"), list, f"{path}: params", ModelError, entry=dict)
    shapes: dict[str, tuple[int, ...]] = {}
    for i, entry in enumerate(header["params"]):
        check_json(entry.get("name"), str, f"{path}: params[{i}]['name']", ModelError)
        check_json(entry.get("shape"), list, f"{path}: params[{i}]['shape']", ModelError, entry=int)
        if min(entry["shape"], default=0) < 0:
            raise ModelError(f"{path}: params[{i}]['shape'] must hold sizes >= 0, got {entry['shape']}")
        if entry["name"] in shapes:
            raise ModelError(f"{path}: duplicate parameter name {entry['name']!r}")
        shapes[entry["name"]] = tuple(entry["shape"])
    return header["meta"], list(shapes.items())


def _read_payloads(fh, path: str | Path, shapes: list[tuple[str, tuple[int, ...]]]) -> ModelParams:
    """The named parameters, their values read in one pass straight from the
    little-endian payload into their buffer; a short, non-finite or trailing
    payload is refused, naming the parameter. The file's size is checked
    first, so a header that claims more bytes than follow it allocates nothing."""
    left, end = os.fstat(fh.fileno()).st_size - fh.tell(), 0
    for name, shape in shapes:
        end += 8 * math.prod(shape)
        if end > left:
            raise ModelError(f"{path}: truncated payload for parameter {name!r}")
    params = ModelParams(shapes)
    read = fh.readinto(params.data.view(np.uint8))
    if read != params.data.nbytes:
        raise ModelError(f"{path}: truncated payload for parameter {params.name_at(read // 8)!r}")
    if sys.byteorder == "big":  # the payload is "<f8"
        params.data.byteswap(inplace=True)
    if (name := params.non_finite()) is not None:
        raise ModelError(f"{path}: parameter {name!r} holds NaN or Inf values")
    if fh.read(1):
        raise ModelError(f"{path}: trailing bytes after final parameter")
    return params


def checkpoint_meta(result: FitResult) -> dict:
    return {
        "model_config": result.config.to_dict(),
        "train_config": asdict(result.train_config),
        **{key: getattr(result, key) for key in _META_RECORDS},
    }


def load_fit(path: str | Path) -> FitResult:
    """Inverse of ``save_checkpoint(path, result.params, checkpoint_meta(result))``:
    the header must list ``param_layout`` of the checked meta, and the payload
    is read once, straight into the values buffer; no value is drawn."""
    with Path(path).open("rb") as fh:
        meta, shapes = _read_header(fh, path)
        try:
            for key, (kind, entry) in _META_RECORDS.items():
                check_json(meta[key], kind, key, ModelError, entry)
            for key in ("gammas", "level_widths"):
                if sorted(meta[key]) != sorted(LEVELS):
                    raise ModelError(f"{key} must have exactly the keys {list(LEVELS)}, got {list(meta[key])}")
            for level in LEVELS:
                if not 0.0 <= meta["gammas"][level] <= 1.0:
                    raise ModelError(f"gammas[{level!r}] must be in [0, 1], got {meta['gammas'][level]}")
                if meta["level_widths"][level] < 1:
                    raise ModelError(f"level_widths[{level!r}] must be >= 1, got {meta['level_widths'][level]}")
            config = ModelConfig.from_dict(meta["model_config"])
            train_config = TrainConfig(**_config_kwargs(TrainConfig, meta["train_config"], "train_config"))
            layout = param_layout(config, meta["level_widths"], meta["fc_len"])
        except KeyError as exc:
            raise ModelError(f"{path}: checkpoint has no {exc} record; retrain it") from None
        except (ModelError, hgnn_mod.HgnnError, hcnn_mod.HcnnError) as exc:
            raise ModelError(f"{path}: {exc}") from None
        for got, want in zip_longest(shapes, [(name, shape) for name, shape, _ in layout]):
            if got != want:
                raise ModelError(
                    f"{path}: checkpoint parameter {got} does not match {want} built from its config"
                )
        params = _read_payloads(fh, path, shapes)
    return FitResult(params, config, train_config, source=str(path), **{key: meta[key] for key in _META_RECORDS})
