"""Phenotype-aware population graph over per-subject embeddings.

Subjects become nodes carrying the trained model's fused features. Edges
combine an embedding-similarity kernel with phenotype agreement, binarized
by top-quantile retention and weighted by cosine similarity of a shared
phenotype encoder. A one-layer graph convolution plus MLP head classifies
the nodes transductively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .ffc import (
    AdamState,
    ModelConfig,
    ModelParams,
    SubjectBatch,
    adam_step,
    eval_batches,
    fused_features,
    init_params,
)
from .layers import mlp_forward, mlp_layout
from .spectral import first_order_propagation


class PopulationError(ValueError):
    pass


@dataclass
class PhenotypeRecord:
    subject_id: str
    gender: str
    age: float
    site: str

    def __post_init__(self):
        self.age = float(self.age)
        if not 0 < self.age < np.inf:
            raise PopulationError(
                f"subject {self.subject_id}: age must be positive and finite, got {self.age}"
            )
        for name in ("gender", "site"):
            if not getattr(self, name):
                raise PopulationError(f"subject {self.subject_id}: missing {name}")


AGE_KERNEL_YEARS = 5.0
GCN_DIM = 32
HEAD_HIDDEN = 16


def embed_subjects(params: ModelParams, cfg: ModelConfig, batch: SubjectBatch) -> np.ndarray:
    """Fused feature vector per subject, eval mode; rows follow ``batch``,
    and no subjects give no rows."""
    if not params:
        raise PopulationError("embed_subjects needs trained model parameters")
    rows = [fused_features(params, cfg, part).data for part in eval_batches(batch)]
    return np.vstack(rows) if rows else np.zeros((0, cfg.fused_width()))


def _pearson_rows(y: np.ndarray) -> np.ndarray:
    centered = y - y.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    flat = np.where(norms == 0.0)[0]
    if flat.size:
        raise PopulationError(f"subject row {flat[0]} has a constant embedding; correlation undefined")
    # byte-symmetric: numpy runs x @ x.T as one symmetric product, and n_i * n_j commutes
    corr = (centered @ centered.T) / np.outer(norms, norms)
    return np.clip(corr, -1.0, 1.0)


def similarity_m1(y: np.ndarray) -> np.ndarray:
    """Gaussian kernel over squared correlation distance between embeddings.

    The bandwidth is the mean squared correlation distance over distinct
    pairs; identical embeddings therefore map to similarity exactly 1.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 2:
        raise PopulationError(f"need at least 2 embedding rows, got shape {y.shape}")
    rho = 1.0 - _pearson_rows(y)
    np.fill_diagonal(rho, 0.0)
    rho_sq = rho * rho
    m = y.shape[0]
    sigma_sq = rho_sq[np.triu_indices(m, k=1)].mean()
    if sigma_sq == 0.0:
        return np.ones((m, m))
    return np.exp(-rho_sq / (2.0 * sigma_sq))


def phenotype_similarity_m2(records: Sequence[PhenotypeRecord]) -> np.ndarray:
    """Mean of categorical agreement and a Gaussian age kernel, in [0, 1]."""
    if len(records) < 2:
        raise PopulationError("need at least 2 phenotype records")
    genders = np.array([r.gender for r in records])
    sites = np.array([r.site for r in records])
    ages = np.array([r.age for r in records])
    same_gender = (genders[:, None] == genders[None, :]).astype(np.float64)
    same_site = (sites[:, None] == sites[None, :]).astype(np.float64)
    age_gap = ages[:, None] - ages[None, :]
    age_kernel = np.exp(-(age_gap**2) / (2.0 * AGE_KERNEL_YEARS**2))
    return (same_gender + same_site + age_kernel) / 3.0


def standardize_phenotypes(records: Sequence[PhenotypeRecord]) -> np.ndarray:
    """Feature rows: z-scored age plus one-hot gender and site."""
    ages = np.array([r.age for r in records], dtype=np.float64)
    std = ages.std()
    z_age = (ages - ages.mean()) / std if std > 0 else np.zeros_like(ages)
    genders = np.array([r.gender for r in records])
    sites = np.array([r.site for r in records])
    # sorted(set(...)) is np.unique's order; np.unique imports numpy.ma
    return np.column_stack(
        [
            z_age,
            genders[:, None] == np.array(sorted(set(genders))),
            sites[:, None] == np.array(sorted(set(sites))),
        ]
    )


def build_phenotype_encoder(n_features: int, seed: int) -> ModelParams:
    """Shared-weight encoder applied to every subject's phenotype vector."""
    return init_params(mlp_layout("phenotype", [n_features, 16, 8]), seed)


def weight_matrix(records: Sequence[PhenotypeRecord], encoder: ModelParams) -> np.ndarray:
    """Cosine similarity of encoded phenotypes, mapped to [0, 1]."""
    features = standardize_phenotypes(records)
    encoded = mlp_forward(Tensor(features), encoder, "phenotype").data
    norms = np.linalg.norm(encoded, axis=1)
    zero = np.where(norms == 0.0)[0]
    if zero.size:
        raise PopulationError(
            f"subject {records[zero[0]].subject_id}: phenotype encoder output is the zero vector"
        )
    cosine = np.clip((encoded @ encoded.T) / np.outer(norms, norms), -1.0, 1.0)
    w = (cosine + 1.0) / 2.0
    np.fill_diagonal(w, 1.0)  # a cosine's diagonal can miss 1 by an ulp
    return w


def linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of a 1-D array, bit for bit.

    ``np.quantile`` imports ``numpy.ma`` on first use, about 1.2 MiB of
    resident memory that nothing else here needs. The default ``linear``
    method interpolates between the order statistics around ``(n - 1) q``.
    """
    n = values.size
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return float(values.max())
    lo = math.floor(virtual)
    low, high = np.partition(values, (lo, lo + 1))[lo : lo + 2]
    t = virtual - lo
    diff = high - low
    return float(high - diff * (1 - t) if t >= 0.5 else low + diff * t)


def population_adjacency(
    m1: np.ndarray,
    m2: np.ndarray,
    w: np.ndarray,
    retain_fraction: float = 0.10,
) -> tuple[np.ndarray, np.ndarray]:
    """Binarize the combined similarity and weight the surviving edges.

    Keeps the top ``retain_fraction`` of off-diagonal combined similarities
    (plus the diagonal), then multiplies elementwise by the phenotype weight
    matrix. Returns ``(binary_graph, weighted_adjacency)``.
    """
    if not 0.0 <= retain_fraction <= 1.0:
        raise PopulationError(f"retain fraction must be in [0, 1], got {retain_fraction}")
    if not (m1.shape == m2.shape == w.shape):
        raise PopulationError(
            f"shape mismatch: {m1.shape}, {m2.shape}, {w.shape} must all agree"
        )
    combined = m1 * m2
    n = combined.shape[0]
    off_mask = ~np.eye(n, dtype=bool)
    off_values = combined[off_mask]
    if np.ptp(off_values) == 0.0:
        raise PopulationError("binarization undefined: all combined similarities are equal")
    if retain_fraction == 0.0:
        binary = np.eye(n)
    else:
        threshold = linear_quantile(off_values, 1.0 - retain_fraction)
        binary = np.where(combined >= threshold, 1.0, 0.0) * off_mask + np.eye(n)
    adjacency = binary * w
    return binary, adjacency


def build_population_head(embed_dim: int, seed: int) -> ModelParams:
    rows = [("gcn.w", (embed_dim, GCN_DIM), "glorot"), *mlp_layout("head", [GCN_DIM, HEAD_HIDDEN, 2])]
    return init_params(rows, seed)


def gcn_classify(
    y: np.ndarray,
    adjacency: np.ndarray,
    head: ModelParams,
) -> Tensor:
    """Per-node class probabilities from one propagation layer plus the head."""
    return head_forward(Tensor(first_order_propagation(adjacency) @ y), head)


def head_forward(y: Tensor, head: ModelParams) -> Tensor:
    """The head on already-mixed node features, one row per node; with
    unmixed features it is the identity-adjacency baseline."""
    hidden = ad.relu(ad.matmul(y, head["gcn.w"]))
    return ad.softmax(mlp_forward(hidden, head, "head"))


@dataclass
class PopulationResult:
    head: ModelParams
    loss_trace: list[float] = field(default_factory=list)


def train_population_head(
    y: np.ndarray,
    adjacency: np.ndarray,
    labels: np.ndarray,
    train_index: np.ndarray,
    seed: int = 0,
    epochs: int = 200,
    lr: float = 1e-3,
) -> PopulationResult:
    """Fit the node classifier on the labeled subset, transductively."""
    labels = np.asarray(labels)
    train_index = np.asarray(train_index, dtype=np.intp)
    if train_index.size == 0:
        raise PopulationError("no labeled subjects to train on")
    head = build_population_head(y.shape[1], seed)
    state = AdamState(head)
    # the propagation has no parameter and the head works row by row
    mixed_train = Tensor((first_order_propagation(adjacency) @ y)[train_index])
    train_labels = labels[train_index]
    trace = []
    for _ in range(epochs):
        head.zero_grad()
        with Tape() as tape:
            ce = ad.cross_entropy(head_forward(mixed_train, head), train_labels)
        backward(tape, ce)
        adam_step(state, lr)
        trace.append(ce.item())
    return PopulationResult(head=head, loss_trace=trace)
