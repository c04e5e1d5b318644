"""Euclidean branch: 1-D convolutions over the vectorized FC matrix.

The upper triangle of the functional-connectivity matrix is flattened in
row order and passed through two strided 1-D convolution layers. Each
channel of their output is averaged into at most ``POOL_BINS`` near-equal
bins (the fixed-length pooling of SPP-net), so the MLP that maps the
flattened bins to a fixed-width first-order feature vector has the same
size at every atlas. That vector is enriched with an outer-product
high-order term re-embedded by a second MLP. The forward functions take one
subject's vector or a stack of them with a leading batch axis.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Dropout, Tensor
from .layers import mlp_forward


# bins per channel of the conv output; a shorter output is read unpooled
POOL_BINS = 32


class HcnnError(ValueError):
    pass


@dataclass
class HcnnConfig:
    """Convolution stack and MLP widths for the FC branch."""

    kernel_sizes: tuple[int, int] = (7, 5)
    channels: tuple[int, int] = (8, 16)
    strides: tuple[int, int] = (2, 2)
    mlp_hidden: tuple[int, ...] = (128,)
    out_dim: int = 64

    def __post_init__(self):
        if len(self.kernel_sizes) != 2 or len(self.channels) != 2 or len(self.strides) != 2:
            raise HcnnError("exactly two convolution layers are configured")
        if any(k < 1 for k in self.kernel_sizes) or any(s < 1 for s in self.strides):
            raise HcnnError("kernel sizes and strides must be >= 1")
        if min(self.channels + self.mlp_hidden + (self.out_dim,)) < 1:
            raise HcnnError("channels, MLP widths and out_dim must all be >= 1")

    def conv_output_length(self, input_length: int) -> int:
        """Flattened width after both conv layers and the pool; validates
        kernel spans."""
        length = input_length
        for k, s in zip(self.kernel_sizes, self.strides):
            if k > length:
                raise HcnnError(f"kernel size {k} exceeds input length {length}")
            length = (length - k) // s + 1
        return self.channels[1] * min(length, POOL_BINS)

    def stack_chunks(self, n: int, input_length: int) -> Iterator[slice]:
        """The row chunks ``hcnn_first_order`` runs the conv stack over: as
        many of ``n`` inputs as have their first conv output fit in
        ``autodiff.CHUNK_BYTES`` (``chunk_slices``), or one. That is one
        subject at 196 ROIs and 287 at 16 ROIs."""
        n_out0 = (input_length - self.kernel_sizes[0]) // self.strides[0] + 1
        return ad.chunk_slices(n, 8 * self.channels[0] * n_out0)


def dr_flatten(fc: np.ndarray) -> np.ndarray:
    """Strict upper triangle of a symmetric matrix, row-major order; a stack
    ``[N, n, n]`` gives one row per matrix."""
    values = np.asarray(fc, dtype=np.float64)
    if values.ndim not in (2, 3) or values.shape[-2] != values.shape[-1]:
        raise HcnnError(f"FC matrix must be square, got shape {values.shape}")
    n = values.shape[-1]
    if n < 2:
        raise HcnnError("FC matrix needs at least 2 regions to flatten")
    rows, cols = ad.triu_indices(n, 1)
    return values[..., rows, cols]


def hcnn_first_order(
    params,
    prefix: str,
    x: Tensor,
    cfg: HcnnConfig,
    train: Dropout | None = None,
) -> Tensor:
    """conv -> ReLU -> conv -> ReLU -> pool -> flatten -> MLP, to the branch
    width, with dropout after each ReLU when ``train`` gives its rate and
    stream. The pool runs only on an output longer than ``POOL_BINS``.

    ``x`` is one FC vector ``[1, L]`` or a batch of them ``[B, 1, L]``. A
    batch runs the convolutions and the pool one row chunk at a time
    (``HcnnConfig.stack_chunks``), so only one chunk's conv outputs and
    window matrices exist at once, and each kernel gradient is one product
    over a chunk's windows; one concat joins the pooled rows. A batch of
    one chunk, every batch at 16 ROIs, records no concat. With dropout and
    more than one chunk (atlas-scale training), the masks are drawn chunk
    by chunk, both layers' for one chunk before the next chunk's: a
    different draw order from one mask per layer over the whole batch.
    """
    pooled = []
    for rows in cfg.stack_chunks(len(x.data), x.shape[-1]):
        h = ad.take_rows(x, rows)
        for i, stride in enumerate(cfg.strides):
            w, b = params[f"{prefix}.conv{i}.w"], params[f"{prefix}.conv{i}.b"]
            # without a tape, the conv input is freed before the ReLU makes
            # its output, and a chunk's conv outputs before the next chunk's
            h = ad.conv1d(h, w, b, stride=stride)
            h = ad.relu(h)
            if train is not None:
                h = ad.dropout(h, *train)
        pooled.append(ad.bin_mean(h, POOL_BINS) if h.shape[-1] > POOL_BINS else h)
    h = pooled[0] if len(pooled) == 1 else ad.concat(*pooled)
    return mlp_forward(ad.reshape(h, h.shape[:-2] + (-1,)), params, f"{prefix}.mlp")


def hop_concat(z: Tensor, params, prefix: str) -> Tensor:
    """First-order features joined with the re-embedded outer-product terms."""
    flat = ad.upper_triangle_flatten(ad.outer(z, z))
    return ad.concat(z, mlp_forward(flat, params, prefix), axis=-1)
