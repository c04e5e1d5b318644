"""Graph Laplacians, Chebyshev polynomial filtering and GCN propagation.

The symmetric normalized Laplacian is rescaled by its dominant eigenvalue so
its spectrum fits in [-1, 1], which is where the Chebyshev recurrence is
stable. ``cheb_apply`` runs the recurrence through the autodiff primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

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


def normalized_laplacian(adjacency: np.ndarray) -> GraphLaplacian:
    """I - D^{-1/2} A D^{-1/2} with isolated-node rows left as identity.

    Takes one symmetric, non-negative float64 adjacency ``[m, m]`` or a
    stack ``[N, m, m]``, as ``connectivity.build_adjacency`` and
    ``population.population_adjacency`` make them. The dominant
    eigenvalue is the last of ``np.linalg.eigvalsh``, exact to rounding and
    independent of node order; a Laplacian without a positive eigenvalue
    (self-loops only) takes the spectral upper bound 2 instead, so the
    rescaled spectrum never exceeds [-1, 1].
    """
    degrees = adjacency.sum(axis=-1)
    inv_sqrt = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
    lap = inv_sqrt[..., :, None] * adjacency
    lap *= inv_sqrt[..., None, :]
    np.subtract(np.eye(adjacency.shape[-1]), lap, out=lap)
    lap = lap + np.swapaxes(lap, -1, -2)
    lap /= 2.0
    lam = np.linalg.eigvalsh(lap)[..., -1]
    lam = np.where(lam <= _LAMBDA_TOL, 2.0, lam)
    return GraphLaplacian(laplacian=lap, lambda_max=float(lam) if lam.ndim == 0 else lam)


def cheb_apply(rescaled: Tensor, features: Tensor, thetas: list[Tensor]) -> Tensor:
    """Sum_k T_k(rescaled L) @ H @ theta_k via the three-term recurrence.

    ``rescaled`` is the rescaled Laplacian ``[m, m]`` and ``features``
    ``[m, d]``, or stacks of them ``[B, m, m]`` and ``[B, m, d]``; each
    ``theta_k`` is one ``[d, out_dim]`` matrix shared by the stack.
    Differentiable with respect to the features and every filter matrix;
    the Laplacian itself is a constant of the graph.
    """
    if not thetas:
        raise SpectralError("cheb_apply needs at least one filter matrix (K >= 1)")
    if features.ndim < 2:
        raise SpectralError(f"features must be [..., nodes, dim], got shape {features.shape}")
    out = ad.matmul(features, thetas[0])
    if len(thetas) == 1:
        return out
    z_prev2 = features
    z_prev1 = ad.matmul(rescaled, features)
    out = ad.add(out, ad.matmul(z_prev1, thetas[1]))
    for k in range(2, len(thetas)):
        z_k = ad.add(ad.scale(ad.matmul(rescaled, z_prev1), 2.0), ad.scale(z_prev2, -1.0))
        out = ad.add(out, ad.matmul(z_k, thetas[k]))
        z_prev2, z_prev1 = z_prev1, z_k
    return out


def first_order_propagation(adjacency: np.ndarray) -> np.ndarray:
    """Renormalized propagation D^{-1/2} (A + I) D^{-1/2} for plain GCN layers,
    of an adjacency or a stack of them as ``normalized_laplacian`` takes it."""
    a_hat = adjacency + np.eye(adjacency.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    a_hat *= inv_sqrt[..., :, None]
    a_hat *= inv_sqrt[..., None, :]
    return a_hat
