"""Small shared building blocks: MLP stacks and parameter
layouts (lists of ``(name, shape, init)`` rows) with their initializer."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import named_stream


def glorot(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform initial values; conv kernels count their window size."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    elif len(shape) == 2:
        fan_in, fan_out = shape
    elif len(shape) == 3:
        c_out, c_in, k = shape
        fan_in, fan_out = c_in * k, c_out * k
    else:
        raise ValueError(f"no fan convention for shape {shape}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def initial_values(rows, seed: int) -> Iterator[tuple[str, np.ndarray]]:
    """``(name, values)`` for each ``(name, shape, init)`` row, in order; each
    value is drawn from its own per-name deterministic stream."""
    for name, shape, kind in rows:
        rng = named_stream(seed, f"init/{name}")
        if kind == "glorot":
            values = glorot(shape, rng)
        elif kind == "zeros":
            values = np.zeros(shape)
        elif kind == "ones":
            values = np.ones(shape)
        elif kind == "small-normal":
            values = 0.1 * rng.normal(size=shape)
        elif kind == "small-positive":
            # keeps normalized activations off the ReLU kink at initialization
            values = np.full(shape, 0.01)
        else:
            raise ValueError(f"unknown init kind {kind!r}")
        yield name, values


def mlp_layout(prefix: str, widths: list[int]) -> list[tuple[str, tuple[int, ...], str]]:
    """The parameter rows of an MLP given the full width chain [in, ..., out]."""
    rows = []
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        rows += [(f"{prefix}.l{i}.w", (w_in, w_out), "glorot"), (f"{prefix}.l{i}.b", (w_out,), "zeros")]
    return rows


def mlp_forward(x: Tensor, params, prefix: str) -> Tensor:
    """Affine+ReLU hidden layers, affine final layer; layer count from params."""
    n_layers = 0
    while f"{prefix}.l{n_layers}.w" in params:
        n_layers += 1
    if n_layers == 0:
        raise KeyError(f"no MLP parameters under prefix {prefix!r}")
    h = x
    for i in range(n_layers):
        h = ad.affine(h, params[f"{prefix}.l{i}.w"], params[f"{prefix}.l{i}.b"])
        if i < n_layers - 1:
            h = ad.relu(h)
    return h
