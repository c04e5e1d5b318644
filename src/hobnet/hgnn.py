"""Graph branch: parallel level encoders with high-order pooling.

Each graph view (whole-brain, sub-network, region level) runs through its
own stack of spectral convolution blocks. A block is convolution, per-block
feature normalization, ReLU, and dropout, with an identity skip connection
in the residual variant. The per-block outputs are mixed by softmax-weighted
adaptive feature maps, pooled into a first-order readout plus a Gram-matrix
high-order readout, and ``ffc.fused_features`` concatenates the views. Each
function takes one subject's tensors or a stack of subjects with a batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Dropout, RowBlocks, Tensor
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
    encoder: str = "res-cheb"

    def __post_init__(self):
        if self.k < 1 or self.blocks < 1 or self.hidden_dim < 1:
            raise HgnnError("k, blocks, and hidden_dim must all be >= 1")
        if self.encoder not in ENCODERS:
            raise HgnnError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")


@dataclass
class LevelBatch:
    """One graph view of a stack of subjects, as preparation makes it: node
    features ``[N, m, w]`` and either the normalized Laplacians
    (``[N, m, m]`` with ``[N]`` dominant eigenvalues) or, for the ``gcn``
    encoder, the renormalized propagations ``[N, m, m]``. Every subject has
    the same ``m`` nodes, split into the same normalization blocks."""

    features: np.ndarray
    norm_blocks: RowBlocks
    lap: GraphLaplacian | None = None
    propagation: np.ndarray | None = None

    @property
    def width(self) -> int:
        return self.features.shape[-1]

    @property
    def operator(self) -> np.ndarray:
        """The matrices the encoder filters with: the rescaled Laplacians,
        built on each read, or the propagations."""
        return self.propagation if self.lap is None else self.lap.rescaled

    def take(self, index: int | slice | np.ndarray) -> "LevelBatch":
        """The subjects at ``index``, in that order; an int gives one
        subject's view, without the batch axis. Ints and slices give views
        of these arrays, no copy."""
        lap = self.lap
        if lap is not None:
            lam = lap.lambda_max[index]
            lap = GraphLaplacian(lap.laplacian[index], float(lam) if np.ndim(lam) == 0 else lam)
        propagation = None if self.propagation is None else self.propagation[index]
        return LevelBatch(self.features[index], self.norm_blocks, lap, propagation)


def afm_weights(r: Tensor) -> Tensor:
    """Softmax mixing weights over the block outputs."""
    return ad.softmax(r)


def afm_combine(block_outputs: list[Tensor], r: Tensor) -> Tensor:
    """Softmax-weighted sum of same-shape block embeddings: the outputs
    stacked on a new last axis, times the weights."""
    stacked = ad.concat(*(ad.reshape(out, out.shape + (1,)) for out in block_outputs), axis=-1)
    return ad.matmul(stacked, afm_weights(r))


def chebconv_block(
    h_in: Tensor,
    operator: Tensor,
    norm_blocks: RowBlocks,
    params,
    prefix: str,
    cfg: HgnnConfig,
    train: Dropout | None,
) -> Tensor:
    """One convolution block: filter with ``operator`` (a level's
    ``LevelBatch.operator``), per-block norm, ReLU, dropout when ``train``
    gives its rate and stream and, for ``res-cheb``, the identity skip."""
    if cfg.encoder == "gcn":
        conv = ad.matmul(ad.matmul(operator, h_in), params[f"{prefix}.w"])
    else:
        thetas = [params[f"{prefix}.theta{k}"] for k in range(cfg.k)]
        conv = cheb_apply(operator, h_in, thetas)
    normed = ad.per_block_norm(
        conv,
        params[f"{prefix}.norm.gain"],
        params[f"{prefix}.norm.shift"],
        blocks=norm_blocks,
    )
    out = ad.relu(normed)
    if train is not None:
        out = ad.dropout(out, *train)
    if cfg.encoder == "res-cheb":
        out = ad.add(out, h_in)
    return out


def level_encoder(
    params,
    prefix: str,
    level: LevelBatch,
    cfg: HgnnConfig,
    train: Dropout | None = None,
) -> Tensor:
    """Project raw node features to the hidden width, run the block stack,
    and mix the per-block embeddings with adaptive feature maps. The level's
    operator is derived once, for every block."""
    operator = Tensor(level.operator)
    h = ad.affine(Tensor(level.features), params[f"{prefix}.proj.w"], params[f"{prefix}.proj.b"])
    outputs = []
    for i in range(cfg.blocks):
        h = chebconv_block(h, operator, level.norm_blocks, params, f"{prefix}.block{i}", cfg, train)
        outputs.append(h)
    return afm_combine(outputs, params[f"{prefix}.afm.r"])


def branch_high_order(
    z: Tensor,
    params,
    prefix: str,
    high_order: bool = True,
) -> Tensor:
    """Per-graph feature vector: mean readout, plus re-embedded Gram features.

    ``z`` is ``[m, d]`` or a batch ``[B, m, d]``, and the result ``[2d]`` or
    ``[B, 2d]``. The high-order half flattens the upper triangle (diagonal
    included) of the Gram matrix and maps it back to the hidden width
    through an MLP; with ``high_order=False`` only the first-order readout
    remains.
    """
    first = ad.mean_over_axis(z)
    if not high_order:
        return first
    gram_flat = ad.upper_triangle_flatten(ad.matmul(ad.transpose(z), z))
    high = mlp_forward(gram_flat, params, prefix)
    return ad.concat(first, high, axis=-1)
