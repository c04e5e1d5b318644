"""Reference implementations the tests check the package against.

None of these run on a model path: each is a slow, plain or dense form of
something the package computes another way, or a helper that builds test
inputs and losses.
"""

import numpy as np

from hobnet import autodiff as ad
from hobnet.autodiff import Tensor
from hobnet.connectivity import ConnectivityError
from hobnet.layers import mlp_forward
from hobnet.rng import named_stream
from hobnet.spectral import GraphLaplacian, SpectralError, cheb_apply

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


# ---------------------------------------------------------------------------
# the per-subject forward pass that ffc.fused_features runs on stacked batches
# ---------------------------------------------------------------------------


def subject_level_encoder(params, prefix, level, cfg, train, rng) -> Tensor:
    """One subject's view through projection, block stack and AFM mix, on 2-D tensors."""
    h = ad.add(
        ad.matmul(Tensor(level.features), params[f"{prefix}.proj.w"].value),
        params[f"{prefix}.proj.b"].value,
    )
    outputs = []
    for i in range(cfg.blocks):
        block = f"{prefix}.block{i}"
        if cfg.encoder == "gcn":
            conv = ad.matmul(ad.matmul(Tensor(level.propagation), h), params[f"{block}.w"].value)
        else:
            thetas = [params[f"{block}.theta{k}"].value for k in range(cfg.k)]
            conv = cheb_apply(Tensor(level.lap.rescaled), h, thetas)
        normed = ad.per_block_norm(
            conv, params[f"{block}.norm.gain"].value, params[f"{block}.norm.shift"].value,
            blocks=level.norm_blocks,
        )
        out = ad.dropout(ad.relu(normed), cfg.dropout, rng, train)
        h = ad.add(out, h) if cfg.encoder == "res-cheb" else out
        outputs.append(h)
    columns = ad.concat(*(ad.reshape(out, (-1, 1)) for out in outputs), axis=1)
    mixed = ad.matmul(columns, ad.softmax(params[f"{prefix}.afm.r"].value))
    return ad.reshape(mixed, outputs[0].shape)


def subject_features(params, cfg, sub, train=False, rng=None) -> Tensor:
    """One subject's fused feature vector ``[fused_width]``."""
    rng = named_stream(0, "eval-unused") if rng is None else rng
    parts = []
    if cfg.toggles.graph:
        for level in cfg.graph_levels():
            z = subject_level_encoder(
                params, f"hgnn.{level}", sub.levels[level], cfg.hgnn, train, rng
            )
            first = ad.mean_over_axis(z)
            if cfg.toggles.graph_high_order:
                gram = ad.upper_triangle_flatten(ad.matmul(ad.transpose(z), z))
                first = ad.concat(first, mlp_forward(gram, params, f"hgnn.{level}.ghop"))
            parts.append(first)
    if cfg.toggles.cnn:
        c = cfg.hcnn
        h = sub.fc_input
        for i in range(2):
            h = ad.conv1d(
                h, params[f"hcnn.conv{i}.w"].value, params[f"hcnn.conv{i}.b"].value,
                stride=c.strides[i],
            )
            h = ad.dropout(ad.relu(h), c.dropout, rng, train)
        z = mlp_forward(ad.reshape(h, (-1,)), params, "hcnn.mlp")
        if cfg.toggles.cnn_high_order:
            flat = ad.upper_triangle_flatten(ad.outer(z, z))
            z = ad.concat(z, mlp_forward(flat, params, "hcnn.hop"))
        parts.append(z)
    return ad.concat(*parts)


def subject_forward(params, cfg, sub, train=False, rng=None) -> Tensor:
    """One subject's class probabilities ``[2]``."""
    return ad.softmax(mlp_forward(subject_features(params, cfg, sub, train, rng), params, "head"))


def subject_batch_loss(params, cfg, subs, train=False, rng=None) -> Tensor:
    """Mean cross-entropy of a mini-batch as a running sum of per-subject losses."""
    total_loss = None
    for sub in subs:
        ce = ad.cross_entropy(subject_forward(params, cfg, sub, train, rng), [sub.label])
        total_loss = ce if total_loss is None else ad.add(total_loss, ce)
    return ad.scale(total_loss, 1.0 / len(subs))


def adam_step(params, state, lr: float) -> None:
    """One bias-corrected Adam update, one temporary array per operation."""
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
