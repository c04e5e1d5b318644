"""Fusion, classification head, loss, optimizer, and the training loop.

Assembles the graph branch and the convolutional branch into one model:
builds the named parameter collection, runs the fused forward pass, trains
with Adam on cross-entropy, and round-trips checkpoints bit for bit.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from . import hcnn as hcnn_mod
from . import hgnn as hgnn_mod
from .autodiff import NonFiniteValue, Parameter, Tape, Tensor, backward
from .connectivity import (
    GAMMA_GRID,
    LEVELS,
    AtlasHierarchy,
    RoiTimeSeries,
    build_graph_set,
    composite_connectivity,
    pearson_fc,
    retained_edge_curve,
    select_cutoff,
)
from .hcnn import HcnnConfig, dr_flatten
from .hgnn import HgnnConfig, LevelInput
from .layers import init_mlp, init_param, mlp_forward
from .rng import named_stream
from .spectral import first_order_propagation, normalized_laplacian


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

    def graph_levels(self) -> list[str]:
        return ["lan"] if self.toggles.lan_only else list(LEVELS)

    def graph_width(self) -> int:
        per_level = self.hgnn.hidden_dim * (2 if self.toggles.graph_high_order else 1)
        return per_level * len(self.graph_levels()) if self.toggles.graph else 0

    def cnn_width(self) -> int:
        if not self.toggles.cnn:
            return 0
        return self.hcnn.out_dim * (2 if self.toggles.cnn_high_order else 1)

    def fused_width(self) -> int:
        return self.graph_width() + self.cnn_width()

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
        hgnn_kwargs = _config_kwargs(HgnnConfig, payload["hgnn"], "model_config.hgnn")
        if hgnn_kwargs.get("ghop_mlp_hidden") is not None:
            hgnn_kwargs["ghop_mlp_hidden"] = tuple(hgnn_kwargs["ghop_mlp_hidden"])
        hcnn_kwargs = _config_kwargs(HcnnConfig, payload["hcnn"], "model_config.hcnn")
        for key in ("kernel_sizes", "channels", "strides", "mlp_hidden"):
            hcnn_kwargs[key] = tuple(hcnn_kwargs[key])
        if hcnn_kwargs.get("hop_mlp_hidden") is not None:
            hcnn_kwargs["hop_mlp_hidden"] = tuple(hcnn_kwargs["hop_mlp_hidden"])
        return cls(
            toggles=parse_toggles(payload["toggles"]),
            hgnn=HgnnConfig(**hgnn_kwargs),
            hcnn=HcnnConfig(**hcnn_kwargs),
            head_hidden=tuple(payload["head_hidden"]),
        )


def _config_kwargs(cls, payload: dict, where: str) -> dict:
    """``payload`` as keyword arguments of ``cls``; a key it has no field for is an error."""
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ModelError(f"{where} has unknown key {unknown[0]!r}")
    return dict(payload)


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
        if self.learning_rate <= 0:
            raise ModelError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ModelError(f"epochs must be >= 1, got {self.epochs}")


def preset_train_config(name: str, seed: int = 0, **overrides) -> TrainConfig:
    key = name.strip().lower()
    if key == "custom":
        return TrainConfig(seed=seed, **overrides)
    if key not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; choose abide1, abide2, adhd200, or custom")
    kwargs = dict(PRESETS[key])
    kwargs.update(overrides)
    return TrainConfig(seed=seed, preset=key, **kwargs)


# ---------------------------------------------------------------------------
# parameter collection
# ---------------------------------------------------------------------------


class ModelParams(Mapping):
    """Name-keyed parameter collection; names are unique by construction."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, values) -> Parameter:
        if name in self._params:
            raise ModelError(f"duplicate parameter name {name!r}")
        param = Parameter(name, values)
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name) -> bool:
        return name in self._params

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def total_size(self) -> int:
        return sum(p.value.size for p in self._params.values())


# ---------------------------------------------------------------------------
# per-subject constant inputs
# ---------------------------------------------------------------------------


@dataclass
class SubjectInputs:
    """Graph views and the flattened FC vector for one subject."""

    subject_id: str
    label: int
    levels: dict[str, LevelInput]
    fc_input: Tensor

    @property
    def fc_len(self) -> int:
        return self.fc_input.shape[1]


def select_cohort_gammas(
    series: Sequence[RoiTimeSeries],
    hierarchy: AtlasHierarchy,
) -> dict[str, float]:
    """Per-level cutoff from the inflection of the cohort-mean retained curve."""
    if not series:
        raise ModelError("gamma selection needs at least one subject")
    gammas: dict[str, float] = {}
    for level in LEVELS:
        mean_curve = np.zeros(GAMMA_GRID.size)
        for ts in series:
            cm = composite_connectivity(ts, hierarchy, level)
            mean_curve += [f for _, f in retained_edge_curve(cm, GAMMA_GRID)]
        mean_curve /= len(series)
        if np.all(mean_curve == 0.0):
            # edgeless level: every threshold gives the same adjacency
            gammas[level] = 1.0
        else:
            gammas[level] = select_cutoff(list(zip(GAMMA_GRID.tolist(), mean_curve.tolist())))
    return gammas


def prepare_subject(
    ts: RoiTimeSeries,
    hierarchy: AtlasHierarchy,
    gammas: dict[str, float] | float,
    label: int = 0,
    encoder: str = "res-cheb",
    fc_source: RoiTimeSeries | None = None,
) -> SubjectInputs:
    """Build the constant model inputs for one subject.

    ``fc_source`` lets the Euclidean branch use a different parcellation of
    the same recording than the graph hierarchy; by default both branches
    share ``ts``.
    """
    graphs = build_graph_set(ts, hierarchy, gammas=gammas)
    levels: dict[str, LevelInput] = {}
    for level in LEVELS:
        adjacency = graphs.adjacency[level]
        levels[level] = LevelInput(
            name=level,
            features=graphs.features[level],
            norm_blocks=hierarchy.level_blocks(level),
            lap=None if encoder == "gcn" else normalized_laplacian(adjacency),
            propagation=first_order_propagation(adjacency) if encoder == "gcn" else None,
        )
    fc = pearson_fc(fc_source if fc_source is not None else ts)
    fc_vec = dr_flatten(fc)
    return SubjectInputs(
        subject_id=ts.subject_id,
        label=int(label),
        levels=levels,
        fc_input=Tensor(fc_vec[None, :]),
    )


def prepare_cohort(
    cohort,
    hierarchy: AtlasHierarchy,
    gammas: dict[str, float] | float,
    encoder: str = "res-cheb",
    subject_ids: Iterable[str] | None = None,
) -> list[SubjectInputs]:
    wanted = None if subject_ids is None else set(subject_ids)
    prepared = []
    for record in cohort.subjects:
        if wanted is not None and record.subject_id not in wanted:
            continue
        prepared.append(
            prepare_subject(
                record.timeseries,
                hierarchy,
                gammas,
                label=record.label,
                encoder=encoder,
            )
        )
    return prepared


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


def build_model_params(
    cfg: ModelConfig,
    level_widths: dict[str, int],
    fc_len: int,
    seed: int,
) -> ModelParams:
    """Create every named parameter both branches and the head will read."""
    store = ModelParams()
    d = cfg.hgnn.hidden_dim
    if cfg.toggles.graph:
        for level in cfg.graph_levels():
            prefix = f"hgnn.{level}"
            width = level_widths[level]
            init_param(store, f"{prefix}.proj.w", (width, d), seed)
            init_param(store, f"{prefix}.proj.b", (d,), seed, kind="zeros")
            for i in range(cfg.hgnn.blocks):
                block = f"{prefix}.block{i}"
                if cfg.hgnn.encoder == "gcn":
                    init_param(store, f"{block}.w", (d, d), seed)
                else:
                    for k in range(cfg.hgnn.k):
                        init_param(store, f"{block}.theta{k}", (d, d), seed)
                init_param(store, f"{block}.norm.gain", (d,), seed, kind="ones")
                init_param(store, f"{block}.norm.shift", (d,), seed, kind="small-positive")
            init_param(store, f"{prefix}.afm.r", (cfg.hgnn.blocks,), seed, kind="small-normal")
            if cfg.toggles.graph_high_order:
                tri = d * (d + 1) // 2
                init_mlp(store, f"{prefix}.ghop", [tri, *cfg.hgnn.ghop_hidden, d], seed)
    if cfg.toggles.cnn:
        c = cfg.hcnn
        init_param(store, "hcnn.conv0.w", (c.channels[0], 1, c.kernel_sizes[0]), seed)
        init_param(store, "hcnn.conv0.b", (c.channels[0],), seed, kind="zeros")
        init_param(store, "hcnn.conv1.w", (c.channels[1], c.channels[0], c.kernel_sizes[1]), seed)
        init_param(store, "hcnn.conv1.b", (c.channels[1],), seed, kind="zeros")
        init_mlp(store, "hcnn.mlp", [c.conv_output_length(fc_len), *c.mlp_hidden, c.out_dim], seed)
        if cfg.toggles.cnn_high_order:
            tri = c.out_dim * (c.out_dim + 1) // 2
            init_mlp(store, "hcnn.hop", [tri, *c.hop_hidden, c.out_dim], seed)
    init_mlp(store, "head", [cfg.fused_width(), *cfg.head_hidden, 2], seed)
    return store


def fuse(z_graph: Tensor, z_fc: Tensor, expected: tuple[int, int] | None = None) -> Tensor:
    """Concatenate branch features, graph features first."""
    if z_graph.ndim != 1 or z_fc.ndim != 1:
        raise ModelError(f"fuse expects 1-D features, got {z_graph.shape} and {z_fc.shape}")
    if expected is not None and (z_graph.shape[0], z_fc.shape[0]) != expected:
        raise ModelError(
            f"fuse width mismatch: got ({z_graph.shape[0]}, {z_fc.shape[0]}), expected {expected}"
        )
    return ad.concat(z_graph, z_fc)


def fused_features(
    params: ModelParams,
    cfg: ModelConfig,
    sub: SubjectInputs,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Concatenated per-subject feature vector from the enabled branches."""
    if not (cfg.toggles.graph or cfg.toggles.cnn):
        raise ModelError("all branches disabled; enable the graph branch, the CNN branch, or both")
    if rng is None:
        rng = named_stream(0, "eval-unused")
    graph_feat = None
    if cfg.toggles.graph:
        per_level = []
        for level in cfg.graph_levels():
            z = hgnn_mod.level_encoder(params, f"hgnn.{level}", sub.levels[level], cfg.hgnn, train, rng)
            per_level.append(
                hgnn_mod.branch_high_order(
                    z, params, f"hgnn.{level}.ghop", high_order=cfg.toggles.graph_high_order
                )
            )
        graph_feat = hgnn_mod.multiview_fuse(*per_level) if len(per_level) == 3 else per_level[0]
    cnn_feat = None
    if cfg.toggles.cnn:
        z_fc = hcnn_mod.hcnn_first_order(params, "hcnn", sub.fc_input, cfg.hcnn, train, rng)
        cnn_feat = (
            hcnn_mod.hop_concat(z_fc, params, "hcnn.hop") if cfg.toggles.cnn_high_order else z_fc
        )
    if graph_feat is not None and cnn_feat is not None:
        return fuse(graph_feat, cnn_feat, expected=(cfg.graph_width(), cfg.cnn_width()))
    return graph_feat if graph_feat is not None else cnn_feat


def predict(z: Tensor, params: ModelParams) -> Tensor:
    """Two-class probability vector from the fused features."""
    return ad.softmax(mlp_forward(z, params, "head"))


def loss(probs: Tensor, labels) -> Tensor:
    """Mean cross-entropy over the positive-class probabilities."""
    return ad.cross_entropy(probs, labels)


def model_forward(
    params: ModelParams,
    cfg: ModelConfig,
    sub: SubjectInputs,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    return predict(fused_features(params, cfg, sub, train, rng), params)


def predict_proba(params: ModelParams, cfg: ModelConfig, sub: SubjectInputs) -> np.ndarray:
    """Eval-mode class probabilities (dropout off, nothing recorded)."""
    return model_forward(params, cfg, sub, train=False).data.copy()


def score_subjects(
    params: ModelParams, cfg: ModelConfig, subs: Sequence[SubjectInputs]
) -> np.ndarray:
    """Positive-class probability per subject, eval mode."""
    return np.array([predict_proba(params, cfg, sub)[1] for sub in subs])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Iterable[Parameter]) -> "AdamState":
        params = list(params)
        return cls(
            m={p.name: np.zeros_like(p.data) for p in params},
            v={p.name: np.zeros_like(p.data) for p in params},
        )


def adam_step(
    params: Iterable[Parameter],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update from the parameters' current gradients."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    t = state.t
    for p in params:
        g = p.grad
        m = state.m[p.name] = beta1 * state.m[p.name] + (1.0 - beta1) * g
        v = state.v[p.name] = beta2 * state.v[p.name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.value.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if not np.all(np.isfinite(p.value.data)):
            raise NonFiniteValue(f"parameter {p.name!r} became non-finite after the update")


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


def fit(
    cohort,
    hierarchy: AtlasHierarchy,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    subject_ids: Iterable[str] | None = None,
    gammas: dict[str, float] | float | None = None,
) -> FitResult:
    """Train the fused model on (a subset of) the cohort.

    Thresholds default to the inflection of the cohort-mean retained-edge
    curve per level, computed on the training subjects only. Training is
    full-batch unless ``train_cfg.batch_size`` says otherwise, and every
    random choice is drawn from streams named by the seed, so equal seeds
    give bitwise-equal traces.
    """
    if not (model_cfg.toggles.graph or model_cfg.toggles.cnn):
        raise ModelError("all branches disabled; nothing to train")
    model_cfg = replace(
        model_cfg,
        hgnn=replace(model_cfg.hgnn, dropout=train_cfg.dropout),
        hcnn=replace(model_cfg.hcnn, dropout=train_cfg.dropout),
    )

    wanted = None if subject_ids is None else set(subject_ids)
    series = [
        r.timeseries for r in cohort.subjects if wanted is None or r.subject_id in wanted
    ]
    if not series:
        raise ModelError("no training subjects selected")
    if gammas is None:
        gammas = select_cohort_gammas(series, hierarchy)
    subs = prepare_cohort(
        cohort,
        hierarchy,
        gammas,
        encoder=model_cfg.hgnn.encoder,
        subject_ids=wanted,
    )
    level_widths = {level: subs[0].levels[level].width for level in LEVELS}
    fc_len = subs[0].fc_len
    params = build_model_params(model_cfg, level_widths, fc_len, train_cfg.seed)

    state = AdamState.for_params(params.parameters())
    drop_rng = named_stream(train_cfg.seed, "dropout")
    shuffle_rng = named_stream(train_cfg.seed, "batch-shuffle")
    n = len(subs)
    batch = n if train_cfg.batch_size is None else min(train_cfg.batch_size, n)

    trace: list[float] = []
    for _ in range(train_cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            chunk = order[start : start + batch]
            params.zero_grad()
            with Tape() as tape:
                batch_loss = None
                for i in chunk:
                    probs = model_forward(params, model_cfg, subs[i], train=True, rng=drop_rng)
                    ce = loss(probs, [subs[i].label])
                    batch_loss = ce if batch_loss is None else ad.add(batch_loss, ce)
                batch_loss = ad.scale(batch_loss, 1.0 / len(chunk))
            backward(tape, batch_loss)
            adam_step(params.parameters(), state, train_cfg.learning_rate)
            epoch_loss += batch_loss.item() * len(chunk)
        trace.append(epoch_loss / n)
    return FitResult(
        params=params,
        config=model_cfg,
        train_config=train_cfg,
        gammas=dict(gammas) if isinstance(gammas, dict) else {level: float(gammas) for level in LEVELS},
        loss_trace=trace,
        level_widths=level_widths,
        fc_len=fc_len,
        subject_ids=[sub.subject_id for sub in subs],
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "hobnet-checkpoint-v1"


def save_checkpoint(path: str | Path, params: ModelParams, meta: dict) -> None:
    """One JSON header line, then raw little-endian float64 payloads in order."""
    header = {
        "format": _CHECKPOINT_FORMAT,
        "meta": meta,
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in params.parameters()],
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in params.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    with Path(path).open("rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(f"{path}: not a checkpoint file ({exc})") from None
        if header.get("format") != _CHECKPOINT_FORMAT:
            raise ModelError(f"{path}: unsupported checkpoint format {header.get('format')!r}")
        params = ModelParams()
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            payload = fh.read(count * 8)
            if len(payload) != count * 8:
                raise ModelError(f"{path}: truncated payload for parameter {entry['name']!r}")
            values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            if not np.all(np.isfinite(values)):
                raise ModelError(f"{path}: parameter {entry['name']!r} holds NaN or Inf values")
            params.create(entry["name"], values)
        if fh.read(1):
            raise ModelError(f"{path}: trailing bytes after final parameter")
    return params, header["meta"]


def checkpoint_meta(result: FitResult) -> dict:
    return {
        "seed": result.train_config.seed,
        "model_config": result.config.to_dict(),
        "train_config": asdict(result.train_config),
        "gammas": result.gammas,
        "loss_trace": result.loss_trace,
        "level_widths": result.level_widths,
        "fc_len": result.fc_len,
        "subject_ids": result.subject_ids,
    }


def load_fit(path: str | Path) -> FitResult:
    """Inverse of ``save_checkpoint(path, result.params, checkpoint_meta(result))``."""
    params, meta = load_checkpoint(path)
    if meta.get("adjacency_mode", "binary") != "binary":
        raise ModelError(f"{path}: checkpoint uses weighted graphs, which are no longer built; retrain it")
    try:
        result = FitResult(
            params=params,
            config=ModelConfig.from_dict(meta["model_config"]),
            train_config=TrainConfig(
                **_config_kwargs(TrainConfig, meta["train_config"], "train_config")
            ),
            gammas=meta["gammas"],
            loss_trace=meta["loss_trace"],
            level_widths=meta["level_widths"],
            fc_len=meta["fc_len"],
            subject_ids=meta["subject_ids"],
        )
    except KeyError as exc:
        raise ModelError(f"{path}: checkpoint has no {exc} record; retrain it") from None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    built = build_model_params(
        result.config, result.level_widths, result.fc_len, result.train_config.seed
    )
    for got, want in zip_longest(_param_shapes(params), _param_shapes(built)):
        if got != want:
            raise ModelError(
                f"{path}: checkpoint parameter {got} does not match {want} built from its config"
            )
    return result


def _param_shapes(params: ModelParams) -> list[tuple[str, tuple[int, ...]]]:
    return [(p.name, p.value.shape) for p in params.parameters()]
