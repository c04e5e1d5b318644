"""Graph Laplacians, Chebyshev polynomial filtering and GCN propagation.

The symmetric normalized Laplacian is rescaled by its dominant eigenvalue so
its spectrum fits in [-1, 1], which is where the Chebyshev recurrence is
stable; a level's graph connects nodes only within their parent blocks, so
that eigenvalue is the largest of the blocks' own. ``cheb_apply`` is one
autodiff primitive: the whole K-term filter, recurrence and its transpose
included, is a single tape node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import RowBlocks, ShapeMismatch, Tensor, _record

_LAMBDA_TOL = 1e-9


class SpectralError(ValueError):
    """Invalid filter or feature shapes."""


@dataclass
class GraphLaplacian:
    """Normalized Laplacian with its dominant eigenvalue: one graph's
    ``[m, m]`` matrix and float, or a stack ``[N, m, m]`` and ``[N]``."""

    laplacian: np.ndarray
    lambda_max: float | np.ndarray

    @property
    def rescaled(self) -> np.ndarray:
        """``(2 / lambda_max) L - I``, spectrum in [-1, 1]; built on each read,
        so a prepared stack holds one matrix per graph, not two. A read makes
        one array: the identity comes off its diagonal in place."""
        scale = 2.0 / np.asarray(self.lambda_max)[..., None, None]
        out = scale * self.laplacian
        diag = np.arange(out.shape[-1])
        out[..., diag, diag] -= 1.0
        return out


def normalized_laplacian(adjacency: np.ndarray, blocks: RowBlocks) -> GraphLaplacian:
    """I - D^{-1/2} A D^{-1/2} with isolated-node rows left as identity,
    built and eigensolved block by block.

    Takes one symmetric, non-negative float64 adjacency ``[m, m]`` or a
    stack ``[N, m, m]`` whose entries outside the diagonal blocks of
    ``blocks`` (a level's parent blocks; the top level is one block) are
    exactly 0.0, as ``connectivity.build_adjacency`` makes them from
    ``composite_connectivity``. Its Laplacian is then block-diagonal too:
    each block's is built in the padded layout of ``blocks``, where the
    padding's rows and columns stay zero and so add only zero eigenvalues,
    and scattered into the dense stack. The dominant eigenvalue is the
    largest over the blocks' ``np.linalg.eigvalsh``, exact to rounding and
    independent of node order; a Laplacian without a positive eigenvalue
    (self-loops only) takes the spectral upper bound 2 instead, so the
    rescaled spectrum never exceeds [-1, 1].
    """
    a = blocks.gather(adjacency)
    degrees = a.sum(axis=-1)
    inv_sqrt = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
    lap = inv_sqrt[..., :, None] * a
    lap *= inv_sqrt[..., None, :]
    np.subtract(blocks.gather(np.eye(blocks.m)), lap, out=lap)
    lap = lap + np.swapaxes(lap, -1, -2)
    lap /= 2.0
    lam = np.linalg.eigvalsh(lap)[..., -1].max(axis=-1)
    lam = np.where(lam <= _LAMBDA_TOL, 2.0, lam)
    return GraphLaplacian(laplacian=blocks.scatter(lap), lambda_max=float(lam) if lam.ndim == 0 else lam)


def cheb_apply(rescaled: Tensor, features: Tensor, thetas: list[Tensor]) -> Tensor:
    """Sum_k T_k(rescaled L) @ H @ theta_k via the three-term recurrence, as
    one tape node.

    ``rescaled`` is the rescaled Laplacian ``[..., m, m]`` and ``features``
    ``[..., m, d]`` with the same leading axes; each ``theta_k`` is one
    ``[d, out_dim]`` matrix shared by the stack. The forward keeps every
    ``Z_k = T_k(L) H``; the backward runs the recurrence transposed,
    ``dZ_k = -dZ_{k+2} + L^T (2 dZ_{k+1}) + g theta_k^T``, and returns the
    features' gradient as up to three terms (``-dZ_2``, ``L^T dZ_1``,
    ``g theta_0^T``), so every gradient is summed in the order of the same
    recurrence written with ``matmul``, ``scale`` and ``add`` nodes.
    Differentiable with respect to the features and every filter matrix;
    the Laplacian itself is a constant of the graph.
    """
    if not thetas:
        raise SpectralError("cheb_apply needs at least one filter matrix (K >= 1)")
    if features.ndim < 2:
        raise SpectralError(f"features must be [..., nodes, dim], got shape {features.shape}")
    lap, h = rescaled.data, features.data
    m, d = h.shape[-2:]
    if lap.shape != h.shape[:-2] + (m, m):
        raise ShapeMismatch(f"cheb-conv: Laplacian shape {lap.shape} does not match features {h.shape}")
    p = thetas[0].shape[-1]
    if any(t.shape != (d, p) for t in thetas):
        raise ShapeMismatch(
            f"cheb-conv: filters {[t.shape for t in thetas]} do not all map {d} features to {p}"
        )
    k_max = len(thetas)
    zs = [h] if k_max == 1 else [h, np.matmul(lap, h)]
    while len(zs) < k_max:
        z = np.matmul(lap, zs[-1])
        z *= 2.0
        z -= zs[-2]
        zs.append(z)
    flat = [z.reshape(-1, d) for z in zs]
    out = flat[0] @ thetas[0].data
    for z, theta in zip(flat[1:], thetas[1:]):
        out += z @ theta.data

    def backward(g: np.ndarray):
        g2 = g.reshape(-1, p)
        lap_t = np.swapaxes(lap, -1, -2)
        dz: list = [None] * k_max

        def terms(k: int) -> list[np.ndarray]:
            """The gradient terms of ``Z_k``, in the order the recurrence's
            own nodes would hand them back."""
            out = [-dz[k + 2]] if k + 2 < k_max else []
            if k + 1 < k_max:  # Z_{k+1} = 2 L Z_k - Z_{k-1}, but Z_1 = L Z_0
                out.append(np.matmul(lap_t, dz[k + 1] * 2.0 if k else dz[1]))
            out.append((g2 @ thetas[k].data.T).reshape(h.shape))
            return out

        for k in range(k_max - 1, 0, -1):
            parts = terms(k)
            dz[k] = sum(parts[1:], parts[0])
        return (*terms(0), *(z.T @ g2 for z in reversed(flat)))

    # features once per gradient term; the filters newest first, the order
    # in which the recurrence's own nodes would hand back their gradients
    inputs = (features,) * min(k_max, 3) + tuple(reversed(thetas))
    return _record("cheb-conv", inputs, out.reshape(h.shape[:-1] + (p,)), backward)


def first_order_propagation(adjacency: np.ndarray) -> np.ndarray:
    """Renormalized propagation D^{-1/2} (A + I) D^{-1/2} for plain GCN layers,
    of an adjacency or a stack of them as ``normalized_laplacian`` takes it."""
    a_hat = adjacency + np.eye(adjacency.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    a_hat *= inv_sqrt[..., :, None]
    a_hat *= inv_sqrt[..., None, :]
    return a_hat
