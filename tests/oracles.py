"""Reference implementations the tests check the package against.

None of these run on a model path: each is a slow, plain or dense form of
something the package computes another way, or a helper that builds test
inputs and losses or measures a call's traced memory.
"""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np

from hobnet import autodiff as ad
from hobnet.autodiff import Tensor
from hobnet.connectivity import (
    GAMMA_GRID,
    LAN,
    LEVELS,
    MAN,
    WAN,
    ConnectivityError,
    select_cutoff,
)
from hobnet.ffc import fused_features, model_forward
from hobnet.hcnn import POOL_BINS
from hobnet.hgnn import LevelBatch
from hobnet.layers import mlp_forward
from hobnet.spectral import GraphLaplacian, SpectralError

_EXACT_MAX_NODES = 64


def traced_peak(fn):
    """Run ``fn()`` under tracemalloc: its result, the peak traced bytes, and
    the bytes still traced when it returns."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


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


def cheb_apply_composed(rescaled: Tensor, features: Tensor, thetas: list[Tensor]) -> Tensor:
    """``spectral.cheb_apply`` as the three-term recurrence written with
    ``matmul``, ``scale`` and ``add`` nodes: ten nodes at K = 3."""
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


def affine_composed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``ad.affine`` as a ``matmul`` node and an ``add`` node."""
    return ad.add(ad.matmul(x, w), b)


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


def subject_level_encoder(params, prefix, level, cfg, train) -> Tensor:
    """One subject's view through projection, block stack and AFM mix, on 2-D tensors."""
    h = affine_composed(Tensor(level.features), params[f"{prefix}.proj.w"], params[f"{prefix}.proj.b"])
    outputs = []
    for i in range(cfg.blocks):
        block = f"{prefix}.block{i}"
        if cfg.encoder == "gcn":
            conv = ad.matmul(ad.matmul(Tensor(level.propagation), h), params[f"{block}.w"])
        else:
            thetas = [params[f"{block}.theta{k}"] for k in range(cfg.k)]
            conv = cheb_apply_composed(Tensor(level.lap.rescaled), h, thetas)
        normed = ad.per_block_norm(
            conv, params[f"{block}.norm.gain"], params[f"{block}.norm.shift"],
            blocks=level.norm_blocks,
        )
        out = ad.relu(normed) if train is None else ad.dropout(ad.relu(normed), *train)
        h = ad.add(out, h) if cfg.encoder == "res-cheb" else out
        outputs.append(h)
    columns = ad.concat(*(ad.reshape(out, (-1, 1)) for out in outputs), axis=1)
    mixed = ad.matmul(columns, ad.softmax(params[f"{prefix}.afm.r"]))
    return ad.reshape(mixed, outputs[0].shape)


def bin_means(x: Tensor, bins: int) -> Tensor:
    """``ad.bin_mean`` one bin at a time: the mean of ``[i * L // bins,
    (i + 1) * L // bins)`` of the last axis for each ``i``. Forward only:
    the result is a new tensor that records no tape node."""
    length = x.shape[-1]
    means = [x.data[..., i * length // bins : (i + 1) * length // bins].mean(-1) for i in range(bins)]
    return Tensor(np.stack(means, axis=-1))


def hcnn_whole_stack(params, prefix, x, cfg, train=None) -> Tensor:
    """``hcnn.hcnn_first_order`` with each layer run over the whole stack
    before the next starts: one conv output per layer for every subject,
    one dropout mask per layer."""
    h = x
    for i, stride in enumerate(cfg.strides):
        h = ad.conv1d(h, params[f"{prefix}.conv{i}.w"], params[f"{prefix}.conv{i}.b"], stride=stride)
        h = ad.relu(h)
        if train is not None:
            h = ad.dropout(h, *train)
    if h.shape[-1] > POOL_BINS:
        h = ad.bin_mean(h, POOL_BINS)
    return mlp_forward(ad.reshape(h, h.shape[:-2] + (-1,)), params, f"{prefix}.mlp")


def subject_features(params, cfg, sub, train=None) -> Tensor:
    """One subject's fused feature vector ``[fused_width]``; ``train`` is
    None or the dropout rate and stream."""
    parts = []
    if cfg.toggles.graph:
        for level in cfg.graph_levels():
            z = subject_level_encoder(params, f"hgnn.{level}", sub.levels[level], cfg.hgnn, train)
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
                h, params[f"hcnn.conv{i}.w"], params[f"hcnn.conv{i}.b"],
                stride=c.strides[i],
            )
            h = ad.relu(h) if train is None else ad.dropout(ad.relu(h), *train)
        if h.shape[-1] > POOL_BINS:
            h = bin_means(h, POOL_BINS)
        z = mlp_forward(ad.reshape(h, (-1,)), params, "hcnn.mlp")
        if cfg.toggles.cnn_high_order:
            flat = ad.upper_triangle_flatten(ad.outer(z, z))
            z = ad.concat(z, mlp_forward(flat, params, "hcnn.hop"))
        parts.append(z)
    return ad.concat(*parts)


def subject_forward(params, cfg, sub, train=None) -> Tensor:
    """One subject's class probabilities ``[2]``."""
    return ad.softmax(mlp_forward(subject_features(params, cfg, sub, train), params, "head"))


def subject_batch_loss(params, cfg, subs, train=None) -> Tensor:
    """Mean cross-entropy of a mini-batch as a running sum of per-subject losses."""
    total_loss = None
    for sub in subs:
        ce = ad.cross_entropy(subject_forward(params, cfg, sub, train), [sub.label])
        total_loss = ce if total_loss is None else ad.add(total_loss, ce)
    return ad.scale(total_loss, 1.0 / len(subs))


def in_stacks_of_eight(batch):
    """``batch`` in order, eight subjects at a time: the fixed eval stacks
    scoring ran in before ``ffc.eval_batches`` sized them by the chunk budget."""
    return [batch.take(slice(start, start + 8)) for start in range(0, len(batch), 8)]


def scores_in_eights(params, cfg, batch) -> np.ndarray:
    """``ffc.score_subjects`` one eval forward per eight subjects."""
    return np.concatenate([model_forward(params, cfg, part).data[:, 1] for part in in_stacks_of_eight(batch)])


def embeddings_in_eights(params, cfg, batch) -> np.ndarray:
    """``population.embed_subjects`` one eval forward per eight subjects."""
    return np.vstack([fused_features(params, cfg, part).data for part in in_stacks_of_eight(batch)])


def adam_step(state, lr: float) -> None:
    """One bias-corrected Adam update, one temporary array per operation."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    t = state.t
    for p in state.params.parameters():
        g = p.grad
        m = state.m[p.name] = beta1 * state.m[p.name] + (1.0 - beta1) * g
        v = state.v[p.name] = beta2 * state.v[p.name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def per_parameter_adam_state(params) -> SimpleNamespace:
    """``AdamState(params)`` with a moment array of each parameter's own
    shape in place of the flat ones, keyed by name."""
    return SimpleNamespace(
        params=params,
        t=0,
        m={name: np.zeros_like(params[name].data) for name in params},
        v={name: np.zeros_like(params[name].data) for name in params},
    )


def adam_step_per_parameter(state, lr: float) -> None:
    """The in-place Adam update run parameter by parameter, in slices of
    ``autodiff.CHUNK_BYTES`` along each parameter's first axis."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    c1, c2 = 1.0 - beta1**state.t, 1.0 - beta2**state.t
    for p in state.params.parameters():
        x, g, m, v = p.data, p.grad, state.m[p.name], state.v[p.name]
        rows = max(1, ad.CHUNK_BYTES // (8 * x[0].size))
        for r in range(0, len(x), rows):
            xs, gs, ms, vs = x[r : r + rows], g[r : r + rows], m[r : r + rows], v[r : r + rows]
            step = np.multiply(gs, 1.0 - beta1)
            ms *= beta1
            ms += step
            np.multiply(gs, 1.0 - beta2, out=step)
            step *= gs
            vs *= beta2
            vs += step
            np.divide(ms, c1, out=step)
            step *= lr
            denom = np.divide(vs, c2)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            xs -= step


def relu_where(x):
    """``ad.relu`` on arrays in its mask form: the output ``np.where(x > 0,
    x, 0.0)`` and ``g -> (g * mask,)``, the bool mask kept for the backward."""
    mask = x > 0
    return np.where(mask, x, 0.0), lambda g: (g * mask,)


def conv1d_im2col(x, kernel, bias, stride=1):
    """``ad.conv1d`` on arrays, with its window matrix built once and kept
    alive in the backward closure: the output and ``g -> (dx, dk, db)``."""
    c_out, c_in, k = kernel.shape
    lead = x.shape[:-2]
    kd = kernel.reshape(c_out, c_in * k)
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)[..., ::stride, :]
    n_out = windows.shape[-2]
    cols = np.swapaxes(windows, -3, -2).reshape(-1, c_in * k)
    out = np.ascontiguousarray(np.swapaxes((cols @ kd.T).reshape(lead + (n_out, c_out)), -1, -2))
    out += bias[:, None]

    def backward(g):
        g2 = np.swapaxes(g, -1, -2).reshape(-1, c_out)
        dk = (g2.T @ cols).reshape(kernel.shape)
        db = g2.sum(axis=0)
        dcols = np.swapaxes((g2 @ kd).reshape(lead + (n_out, c_in, k)), -3, -2)
        dx = np.zeros_like(x)
        for j in range(k):
            dx[..., j : j + stride * (n_out - 1) + 1 : stride] += dcols[..., j]
        return dx, dk, db

    return out, backward


def rescaled_two_arrays(lap: GraphLaplacian) -> np.ndarray:
    """``GraphLaplacian.rescaled`` as a scaled copy minus a full identity."""
    scale = 2.0 / np.asarray(lap.lambda_max)[..., None, None]
    return scale * lap.laplacian - np.eye(lap.laplacian.shape[-1])


def row_runs(blocks: ad.RowBlocks) -> list[np.ndarray]:
    """The node rows of each run in ``blocks``, in order."""
    return np.split(np.arange(blocks.m), np.cumsum(blocks.sizes)[:-1])


def per_block_norm_loop(x, gain, shift, blocks, g):
    """``per_block_norm`` block by block over the runs of ``blocks``: the
    output for ``x`` and the gradients of ``x``, ``gain`` and ``shift`` for
    the output gradient ``g``."""
    d = x.shape[-1]
    xhat = np.empty_like(x)
    inv_std = []
    runs = row_runs(blocks)
    for idx in runs:
        xb = x[..., idx, :]
        mu = xb.mean(axis=-2, keepdims=True)
        var = xb.var(axis=-2, keepdims=True)
        istd = 1.0 / np.sqrt(var + 1e-5)
        xhat[..., idx, :] = (xb - mu) * istd
        inv_std.append(istd)
    out = xhat * gain + shift
    dgain = (g * xhat).reshape(-1, d).sum(axis=0)
    dshift = g.reshape(-1, d).sum(axis=0)
    dx = np.empty_like(x)
    for idx, istd in zip(runs, inv_std):
        gb = g[..., idx, :] * gain
        xh = xhat[..., idx, :]
        mean_gb = gb.mean(axis=-2, keepdims=True)
        mean_gbxh = (gb * xh).mean(axis=-2, keepdims=True)
        dx[..., idx, :] = istd * (gb - mean_gb - xh * mean_gbxh)
    return out, dx, dgain, dshift


# ---------------------------------------------------------------------------
# the per-subject preparation that ffc.prepare_stack runs on stacks
# ---------------------------------------------------------------------------


def group_columns(hierarchy, level, roi_names) -> list[np.ndarray]:
    """Column indices into ``roi_names`` for each node at ``level``."""
    pos = {name: i for i, name in enumerate(roi_names)}
    missing = [r for r in hierarchy.rois if r not in pos]
    if missing:
        raise ConnectivityError(f"time series is missing hierarchy ROI {missing[0]!r}")
    if level == LAN:
        return [np.array([pos[r]]) for r in hierarchy.ordered_rois]
    if level == MAN:
        return [
            np.array([pos[r] for r in hierarchy.ordered_rois if hierarchy.man_partition[r] == g])
            for g in hierarchy.groups
        ]
    return [
        np.array(
            [
                pos[r]
                for r in hierarchy.ordered_rois
                if hierarchy.wan_partition[hierarchy.man_partition[r]] == net
            ]
        )
        for net in hierarchy.networks
    ]


def level_connectivity(ts, hierarchy, level) -> np.ndarray:
    """One subject's RV matrix at ``level`` from its own cross-product of the level's columns."""
    columns = group_columns(hierarchy, level, ts.roi_names)
    x = ts.samples[:, np.concatenate(columns)]
    membership = np.repeat(np.eye(len(columns)), [len(cols) for cols in columns], axis=0)
    cross = x.T @ x
    sums = membership.T @ (cross * cross) @ membership
    sums = (sums + sums.T) / 2.0
    norms = np.sqrt(np.diag(sums))
    if np.any(norms == 0.0):
        raise ConnectivityError("rv_coefficient: all-zero block, coefficient undefined")
    values = np.minimum(sums / np.outer(norms, norms), 1.0)
    np.fill_diagonal(values, 1.0)
    return values


def composite_connectivity(ts, hierarchy, level) -> np.ndarray:
    """``level_connectivity`` with entries outside the parent blocks zeroed."""
    values = level_connectivity(ts, hierarchy, level)
    if level == WAN:
        return values
    m = values.shape[-1]
    mask = np.zeros((m, m), dtype=bool)
    for idx in row_runs(hierarchy.layout(level).blocks):
        mask[np.ix_(idx, idx)] = True
    return np.where(mask, values, 0.0)


def retained_edge_curve(values, gammas) -> list[tuple[float, float]]:
    """One count per threshold of one ``[m, m]`` matrix."""
    m = values.shape[-1]
    off = values[~np.eye(m, dtype=bool)]
    total = m * (m - 1)
    return [(float(g), float(np.count_nonzero(off > g) / total)) for g in gammas]


def select_cohort_gammas(series, hierarchy) -> dict[str, float]:
    """Per-level cutoff of the mean curve, one subject and one level at a time."""
    gammas = {}
    for level in LEVELS:
        mean_curve = np.zeros(GAMMA_GRID.size)
        for ts in series:
            values = composite_connectivity(ts, hierarchy, level)
            mean_curve += [f for _, f in retained_edge_curve(values, GAMMA_GRID)]
        mean_curve /= len(series)
        if np.all(mean_curve == 0.0):
            gammas[level] = 1.0
        else:
            gammas[level] = select_cutoff(list(zip(GAMMA_GRID.tolist(), mean_curve.tolist())))
    return gammas


def normalized_laplacian(adjacency) -> GraphLaplacian:
    """One graph's I - D^{-1/2} A D^{-1/2} and its dominant eigenvalue."""
    a = np.asarray(adjacency, dtype=np.float64)
    degrees = a.sum(axis=1)
    inv_sqrt = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
    lap = np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0
    lam = np.linalg.eigvalsh(lap)[-1]
    return GraphLaplacian(laplacian=lap, lambda_max=2.0 if lam <= 1e-9 else float(lam))


def first_order_propagation(adjacency) -> np.ndarray:
    """One graph's D^{-1/2} (A + I) D^{-1/2}."""
    a_hat = np.asarray(adjacency, dtype=np.float64) + np.eye(len(adjacency))
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def pearson_fc(ts) -> np.ndarray:
    """One subject's Pearson matrix in its own column order."""
    x = ts.samples - ts.samples.mean(axis=0)
    norms = np.sqrt((x * x).sum(axis=0))
    corr = (x.T @ x) / np.outer(norms, norms)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def prepare_subject(ts, hierarchy, gammas, label=0, encoder="res-cheb"):
    """One subject's model inputs, each level built from its own cross-product,
    with the fields of a prepared subject's view."""
    levels = {}
    for level in LEVELS:
        values = composite_connectivity(ts, hierarchy, level)
        gamma = gammas[level] if isinstance(gammas, dict) else float(gammas)
        adjacency = (values > gamma).astype(np.float64)
        np.fill_diagonal(adjacency, 1.0)
        levels[level] = LevelBatch(
            features=values.copy(),
            norm_blocks=hierarchy.layout(level).blocks,
            lap=None if encoder == "gcn" else normalized_laplacian(adjacency),
            propagation=first_order_propagation(adjacency) if encoder == "gcn" else None,
        )
    fc = pearson_fc(ts)
    rows, cols = np.triu_indices(fc.shape[0], k=1)
    return SimpleNamespace(
        subject_id=ts.subject_id,
        label=int(label),
        levels=levels,
        fc_input=Tensor(fc[rows, cols][None, :]),
    )


def as_old_checkpoint(path, out, version: int) -> None:
    """Write ``path``'s checkpoint to ``out`` with the header format
    ``version`` gave it: its own format tag and, in v1, a copy of the seed
    and each branch config's dropout rate and high-order MLP widths. The
    parameter payload is unchanged."""
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    if version == 1:
        meta = header["meta"]
        meta["seed"] = meta["train_config"]["seed"]
        meta["model_config"]["hgnn"].update(dropout=0.0, ghop_mlp_hidden=None)
        meta["model_config"]["hcnn"].update(dropout=0.0, hop_mlp_hidden=None)
    header["format"] = f"hobnet-checkpoint-v{version}"
    out.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
