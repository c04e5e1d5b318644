"""Graph Laplacians, Chebyshev polynomial filtering, and an exact oracle.

The symmetric normalized Laplacian is rescaled by its dominant eigenvalue so
its spectrum fits in [-1, 1], which is where the Chebyshev recurrence is
stable. ``cheb_apply`` runs the recurrence through the autodiff primitives;
``spectral_filter_exact`` evaluates the same filter through a dense
eigendecomposition and exists purely as a test oracle for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_EXACT_MAX_NODES = 64
_LAMBDA_TOL = 1e-9


class SpectralError(ValueError):
    """Invalid adjacency, shapes, or oracle misuse."""


@dataclass
class GraphLaplacian:
    """Normalized Laplacian with its dominant eigenvalue and rescaled form."""

    laplacian: np.ndarray
    lambda_max: float
    rescaled: np.ndarray


def _checked_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """``adjacency`` as float64, refused unless square, symmetric and non-negative."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectralError(f"adjacency must be square, got shape {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise SpectralError("adjacency is asymmetric beyond 1e-12")
    if a.min() < 0.0:
        raise SpectralError("adjacency entries must be non-negative")
    return a


def normalized_laplacian(adjacency: np.ndarray) -> GraphLaplacian:
    """I - D^{-1/2} A D^{-1/2} with isolated-node rows left as identity.

    The dominant eigenvalue is the last of ``np.linalg.eigvalsh``, exact to
    rounding and independent of node order; a Laplacian without a positive
    eigenvalue (self-loops only) takes the spectral upper bound 2 instead, so
    the rescaled spectrum never exceeds [-1, 1].
    """
    a = _checked_adjacency(adjacency)
    degrees = a.sum(axis=1)
    inv_sqrt = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
    lap = np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0
    lam = np.linalg.eigvalsh(lap)[-1]
    if lam <= _LAMBDA_TOL:
        lam = 2.0
    rescaled = (2.0 / lam) * lap - np.eye(a.shape[0])
    return GraphLaplacian(laplacian=lap, lambda_max=float(lam), rescaled=rescaled)


def cheb_apply(lap: GraphLaplacian, features: Tensor, thetas: list[Tensor]) -> Tensor:
    """Sum_k T_k(rescaled L) @ H @ theta_k via the three-term recurrence.

    Differentiable with respect to the features and every filter matrix; the
    Laplacian itself is a constant of the graph.
    """
    if not thetas:
        raise SpectralError("cheb_apply needs at least one filter matrix (K >= 1)")
    if features.ndim != 2:
        raise SpectralError(f"features must be [nodes, dim], got shape {features.shape}")
    m, d = features.shape
    if lap.rescaled.shape[0] != m:
        raise SpectralError(
            f"graph has {lap.rescaled.shape[0]} nodes but features have {m} rows"
        )
    for k, theta in enumerate(thetas):
        if theta.ndim != 2 or theta.shape[0] != d:
            raise SpectralError(
                f"filter {k} has shape {theta.shape}, expected ({d}, out_dim)"
            )
    lt = Tensor(lap.rescaled)
    out = ad.matmul(features, thetas[0])
    if len(thetas) == 1:
        return out
    z_prev2 = features
    z_prev1 = ad.matmul(lt, features)
    out = ad.add(out, ad.matmul(z_prev1, thetas[1]))
    for k in range(2, len(thetas)):
        z_k = ad.add(ad.scale(ad.matmul(lt, z_prev1), 2.0), ad.scale(z_prev2, -1.0))
        out = ad.add(out, ad.matmul(z_k, thetas[k]))
        z_prev2, z_prev1 = z_prev1, z_k
    return out


def spectral_filter_exact(lap: GraphLaplacian, features: Tensor, thetas: list[Tensor]) -> np.ndarray:
    """Eigendecomposition evaluation of the same filter; test oracle only.

    Applies U (sum_k theta_k T_k(rescaled eigenvalues)) U^T per feature and
    is not differentiable. Restricted to small graphs by design.
    """
    m = lap.laplacian.shape[0]
    if m > _EXACT_MAX_NODES:
        raise SpectralError(
            f"exact filter is limited to {_EXACT_MAX_NODES} nodes (got {m}); use cheb_apply"
        )
    if not thetas:
        raise SpectralError("spectral_filter_exact needs at least one filter matrix")
    eigvals, eigvecs = np.linalg.eigh(lap.laplacian)
    lam_t = (2.0 / lap.lambda_max) * eigvals - 1.0
    polys = [np.ones_like(lam_t), lam_t]
    while len(polys) < len(thetas):
        polys.append(2.0 * lam_t * polys[-1] - polys[-2])
    h = features.data
    out = np.zeros((h.shape[0], thetas[0].shape[1]))
    for theta, poly in zip(thetas, polys):
        out += (eigvecs * poly) @ (eigvecs.T @ (h @ theta.data))
    return out


def first_order_propagation(adjacency: np.ndarray) -> np.ndarray:
    """Renormalized propagation D^{-1/2} (A + I) D^{-1/2} for plain GCN layers."""
    a = _checked_adjacency(adjacency)
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]
