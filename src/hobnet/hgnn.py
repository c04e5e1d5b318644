"""Graph branch: parallel level encoders with high-order pooling.

Each graph view (whole-brain, sub-network, region level) runs through its
own stack of spectral convolution blocks. A block is convolution, per-block
feature normalization, ReLU, and dropout, with an identity skip connection
in the residual variant. The per-block outputs are mixed by softmax-weighted
adaptive feature maps, pooled into a first-order readout plus a Gram-matrix
high-order readout, and the three views are concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import mlp_forward
from .spectral import GraphLaplacian, cheb_apply

ENCODERS = ("gcn", "cheb", "res-cheb")


class HgnnError(ValueError):
    pass


@dataclass
class HgnnConfig:
    """Graph-branch hyperparameters; defaults follow the tuned operating point."""

    k: int = 3
    blocks: int = 3
    hidden_dim: int = 64
    dropout: float = 0.0
    encoder: str = "res-cheb"
    ghop_mlp_hidden: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.k < 1 or self.blocks < 1 or self.hidden_dim < 1:
            raise HgnnError("k, blocks, and hidden_dim must all be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise HgnnError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.encoder not in ENCODERS:
            raise HgnnError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")

    @property
    def ghop_hidden(self) -> tuple[int, ...]:
        return (self.hidden_dim,) if self.ghop_mlp_hidden is None else tuple(self.ghop_mlp_hidden)


@dataclass
class LevelInput:
    """Constant per-subject inputs for one graph view."""

    name: str
    features: np.ndarray
    norm_blocks: list[np.ndarray]
    lap: GraphLaplacian | None = None
    propagation: np.ndarray | None = None
    _feature_tensor: Tensor = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self._feature_tensor = Tensor(self.features)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]


def afm_weights(r: Tensor) -> Tensor:
    """Softmax mixing weights over the block outputs."""
    return ad.softmax(r)


def afm_combine(block_outputs: list[Tensor], r: Tensor) -> Tensor:
    """Softmax-weighted sum of same-shape block embeddings."""
    if not block_outputs:
        raise HgnnError("afm_combine needs at least one block output")
    shape = block_outputs[0].shape
    for out in block_outputs[1:]:
        if out.shape != shape:
            raise HgnnError(f"block output shapes differ: {shape} vs {out.shape}")
    if r.shape != (len(block_outputs),):
        raise HgnnError(f"need {len(block_outputs)} mixing weights, got shape {r.shape}")
    columns = ad.concat(*(ad.reshape(out, (-1, 1)) for out in block_outputs), axis=1)
    return ad.reshape(ad.matmul(columns, afm_weights(r)), shape)


def ghop(z: Tensor) -> Tensor:
    """Gram matrix of node embeddings: symmetric PSD high-order statistics."""
    return ad.matmul(ad.transpose(z), z)


def chebconv_block(
    h_in: Tensor,
    level: LevelInput,
    params,
    prefix: str,
    cfg: HgnnConfig,
    train: bool,
    rng: np.random.Generator,
) -> Tensor:
    """One convolution block: filter, per-block norm, ReLU, dropout and,
    for ``res-cheb``, the identity skip."""
    if cfg.encoder == "gcn":
        conv = ad.matmul(
            ad.matmul(Tensor(level.propagation), h_in), params[f"{prefix}.w"].value
        )
    else:
        thetas = [params[f"{prefix}.theta{k}"].value for k in range(cfg.k)]
        conv = cheb_apply(level.lap, h_in, thetas)
    normed = ad.per_block_norm(
        conv,
        params[f"{prefix}.norm.gain"].value,
        params[f"{prefix}.norm.shift"].value,
        blocks=level.norm_blocks,
    )
    out = ad.dropout(ad.relu(normed), cfg.dropout, rng, train)
    if cfg.encoder == "res-cheb":
        out = ad.add(out, h_in)
    return out


def level_encoder(
    params,
    prefix: str,
    level: LevelInput,
    cfg: HgnnConfig,
    train: bool,
    rng: np.random.Generator,
) -> Tensor:
    """Project raw node features to the hidden width, run the block stack,
    and mix the per-block embeddings with adaptive feature maps."""
    h = ad.add(
        ad.matmul(level._feature_tensor, params[f"{prefix}.proj.w"].value),
        params[f"{prefix}.proj.b"].value,
    )
    outputs = []
    for i in range(cfg.blocks):
        h = chebconv_block(h, level, params, f"{prefix}.block{i}", cfg, train, rng)
        outputs.append(h)
    return afm_combine(outputs, params[f"{prefix}.afm.r"].value)


def branch_high_order(
    z: Tensor,
    params,
    prefix: str,
    high_order: bool = True,
) -> Tensor:
    """Per-graph feature vector: mean readout, plus re-embedded Gram features.

    The high-order half flattens the upper triangle (diagonal included) of
    the Gram matrix and maps it back to the hidden width through an MLP;
    with ``high_order=False`` only the first-order readout remains.
    """
    first = ad.mean_over_axis(z, axis=0)
    if not high_order:
        return first
    gram_flat = ad.upper_triangle_flatten(ghop(z), include_diagonal=True)
    high = mlp_forward(gram_flat, params, prefix)
    return ad.concat(first, high)


def multiview_fuse(z_wan: Tensor, z_man: Tensor, z_lan: Tensor) -> Tensor:
    """Concatenate the three view vectors in top-down order."""
    if not (z_wan.shape == z_man.shape == z_lan.shape):
        raise HgnnError(
            f"view features must share one length, got {z_wan.shape}, {z_man.shape}, {z_lan.shape}"
        )
    return ad.concat(z_wan, z_man, z_lan)
