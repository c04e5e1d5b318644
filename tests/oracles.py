"""Reference implementations the tests check the package against.

None of these run on a model path: each is a slow, plain or dense form of
something the package computes another way, or a helper that builds test
inputs and losses.
"""

import numpy as np

from hobnet import autodiff as ad
from hobnet.autodiff import Tensor
from hobnet.connectivity import ConnectivityError
from hobnet.spectral import GraphLaplacian, SpectralError

_EXACT_MAX_NODES = 64


def total(x: Tensor) -> Tensor:
    """Sum of all entries, as the dot product of the flattened tensor with ones."""
    return ad.matmul(ad.reshape(x, (-1,)), Tensor(np.ones(x.size)))


def spectral_filter_exact(lap: GraphLaplacian, features: Tensor, thetas: list[Tensor]) -> np.ndarray:
    """Eigendecomposition evaluation of the filter ``cheb_apply`` computes.

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


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """Stack square blocks along the diagonal, exact zeros elsewhere."""
    if not blocks:
        raise ConnectivityError("block_diagonal needs at least one block")
    mats = [np.asarray(b, dtype=np.float64) for b in blocks]
    for b in mats:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ConnectivityError(f"block_diagonal: non-square block of shape {b.shape}")
    size = sum(b.shape[0] for b in mats)
    out = np.zeros((size, size))
    offset = 0
    for b in mats:
        k = b.shape[0]
        out[offset : offset + k, offset : offset + k] = b
        offset += k
    return out


def dr_unflatten(flat: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``hcnn.dr_flatten`` up to the zero diagonal."""
    out = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    out[rows, cols] = flat
    return out + out.T
