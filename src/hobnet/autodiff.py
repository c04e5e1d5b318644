"""Dense-tensor reverse-mode differentiation engine.

All values are 64-bit floats in numpy arrays. Primitive applications record
onto an explicit gradient tape (``Tape`` used as a context manager); running
``backward`` replays the tape once, in reverse, and accumulates gradients
into the leaf tensors that requested them; a trainable leaf is a
:class:`Parameter`, a tensor with a name. A central finite-difference
checker verifies analytic gradients against numeric ones.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .rng import named_stream


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested primitive."""


class NonFiniteValue(ValueError):
    """A NaN or Inf appeared at construction or during a compute step."""


class TapeError(RuntimeError):
    """Tape misuse: double backward, non-scalar loss, missing recording."""


class Tensor:
    """Dense n-dimensional array of float64 values.

    ``grad`` stays ``None`` until a backward pass deposits a gradient, or
    ``ModelParams.zero_grad`` binds a parameter's to its model's buffer.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteValue("tensor construction received NaN or Inf values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = arr
        out.grad = None
        out.requires_grad = requires_grad
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable leaf tensor with a name; the forward pass records it as is."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.shape})"


@dataclass
class TapeNode:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], tuple]


@dataclass
class Tape:
    """Ordered record of primitive applications, consumed by one backward.

    A tape and the tensors recorded on it belong to a single worker; run
    concurrent models in separate processes, each with its own tape stack.
    """

    nodes: list[TapeNode] = field(default_factory=list)
    consumed: bool = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self


_TAPE_STACK: list[Tape] = []


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, backward) -> Tensor:
    if not np.isfinite(out_data).all():
        raise NonFiniteValue(f"{op} produced NaN or Inf values")
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    needs_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, requires_grad=needs_grad)
    if needs_grad:
        tape.nodes.append(TapeNode(op, tuple(inputs), out, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    A 1-D lhs is a row and a 1-D rhs a column. A 1-D or 2-D rhs is shared by
    every row of a batched lhs ``[..., n, k]``: the product runs as one
    ``[N*n, k] @ [k, p]`` call, and the rhs gradient reduces over the batch in
    one more. A batched rhs ``[..., k, p]`` pairs with a lhs of the same
    leading axes, matrix by matrix. A constant operand (``requires_grad``
    False) gets no gradient: the backward hands back None for it.
    """
    if a.ndim < 1 or b.ndim < 1 or (b.ndim > 2 and a.shape[:-2] != b.shape[:-2]):
        raise ShapeMismatch(f"matmul: cannot multiply shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeMismatch(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")

    if b.ndim > 2:
        out = np.matmul(a.data, b.data)

        def backward(g: np.ndarray):
            da = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
            return da, np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None

        return _record("matmul", (a, b), out, backward)

    a2 = a.data.reshape(-1, a.shape[-1])
    b2 = b.data if b.ndim == 2 else b.data[:, None]
    out = (a2 @ b2).reshape(a.shape[:-1] + b.shape[1:])

    def backward(g: np.ndarray):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        da = (g2 @ b2.T).reshape(a.shape) if a.requires_grad else None
        return da, (a2.T @ g2).reshape(b.shape) if b.requires_grad else None

    return _record("matmul", (a, b), out, backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: a ``[k, p]`` weight shared by every row of
    ``x`` ``[..., k]``, and a ``[p]`` bias. Forward and backward run the
    numpy operations of ``add(matmul(x, w), b)``; a constant input gets no
    gradient, as in ``matmul``."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"affine: cannot map shape {x.shape} by {w.shape} plus {b.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    out = (x2 @ w.data).reshape(x.shape[:-1] + b.shape)
    out += b.data

    def backward(g: np.ndarray):
        g2 = g.reshape(x2.shape[0], -1)
        return (
            (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            x2.T @ g2 if w.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _record("affine", (x, w, b), out, backward)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeMismatch(f"transpose expects a matrix or a stack of them, got shape {x.shape}")
    out = np.ascontiguousarray(np.swapaxes(x.data, -1, -2))

    def backward(g: np.ndarray):
        return (np.ascontiguousarray(np.swapaxes(g, -1, -2)),)

    return _record("transpose", (x,), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), out, backward)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a constant scalar (the constant receives no gradient)."""
    c = float(factor)
    out = x.data * c

    def backward(g: np.ndarray):
        return (g * c,)

    return _record("scalar-scale", (x,), out, backward)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"hadamard: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("hadamard", (a, b), out, backward)


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)``, with ``+0.0`` for every ``x <= 0`` (``-0.0`` too). The
    backward masks by ``out > 0``, true exactly where ``x > 0``, so the tape
    keeps no mask beside the output it already holds."""
    out = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray):
        return (g * (out > 0),)

    return _record("relu", (x,), out, backward)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _record("softmax", (x,), s, backward)


def concat(*parts: Tensor, axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat needs at least one input")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeMismatch(f"concat: {exc}") from None
    sizes = [p.data.shape[axis if axis >= 0 else p.ndim + axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return _record("concat", parts, out, backward)


def reshape(x: Tensor, shape) -> Tensor:
    """Row-major view of the same entries in a new shape (one ``-1`` allowed)."""
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeMismatch(f"reshape: cannot view shape {x.shape} as {shape}") from None

    def backward(g: np.ndarray):
        return (g.reshape(x.shape),)

    return _record("reshape", (x,), out, backward)


def take_rows(x: Tensor, rows: slice) -> Tensor:
    """Rows ``rows`` of the leading axis, a view; the backward writes the
    gradient into zeros of ``x``'s shape."""
    out = x.data[rows]

    def backward(g: np.ndarray):
        dx = np.zeros_like(x.data)
        dx[rows] = g
        return (dx,)

    return _record("take-rows", (x,), out, backward)


# bytes of one chunk's working array: conv1d's window matrix holds one
# subject for either conv at 196 ROIs and a whole batch of 8 at 16 ROIs;
# preparation's [n, R, R] Gram stack holds a 200-subject cohort at 16 ROIs
# and 3 subjects at 196 ROIs, where larger chunks only add to the peak
# memory (4 MiB: about 2 MiB more); each of an Adam step's two scratch
# arrays takes a quarter of it, 32,768 parameters: they stay alive through
# fit's forward and backward, where its peak lies, and slices of 4,096 cost
# more in per-slice overhead than they save; the HCNN runs its conv stack
# over chunks of subjects whose first conv outputs [n, 8, n_out] fit, 287
# subjects at 16 ROIs and one at 196 ROIs (an 8-subject eval peaks at 3.2
# MiB traced, as one subject does); an eval stack's [n, 1, fc_len] FC
# vectors hold 1,092 subjects at 16 ROIs, so one forward scores a
# 200-subject cohort (3.7 MiB traced), and 6 at 196 ROIs
CHUNK_BYTES = 1 << 20


def chunk_slices(n: int, item_bytes: int) -> Iterator[slice]:
    """Slices of ``n`` items in order, each at most ``CHUNK_BYTES`` of
    ``item_bytes``-sized items or one item; reads the budget when called."""
    size = max(1, CHUNK_BYTES // item_bytes)
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid-mode 1-D convolution (sliding dot product, no kernel flip).

    ``x`` is ``[channels_in, length]`` or a batch ``[batch, channels_in,
    length]``, ``kernel`` is ``[channels_out, channels_in, k]`` and ``bias``
    is ``[channels_out]``. Every output position of an input is one row of a
    window matrix. The forward builds that matrix for a chunk of inputs at a
    time (``chunk_slices``) and writes each chunk's matrix product straight
    into the output; backward computes the input gradient in the same
    chunks. The kernel gradient stays one product over the window matrix of
    all of ``x``, rebuilt from it: summed chunk by chunk, it would round
    differently. ``hcnn_first_order`` passes one chunk of its stack at a
    time, so at 196 ROIs that matrix holds one subject's windows. A
    constant input gets no gradient, as in ``matmul``.
    """
    if stride < 1:
        raise ShapeMismatch(f"conv1d: stride must be >= 1, got {stride}")
    if kernel.ndim != 3:
        raise ShapeMismatch(f"conv1d: kernel must be 3-D, got shape {kernel.shape}")
    c_out, c_in, k = kernel.shape
    if x.ndim not in (2, 3) or x.shape[-2] != c_in:
        raise ShapeMismatch(
            f"conv1d: input shape {x.shape} does not match kernel shape {kernel.shape}"
        )
    length = x.shape[-1]
    if k < 1 or k > length:
        raise ShapeMismatch(f"conv1d: kernel size {k} invalid for input length {length}")
    if bias.shape != (c_out,):
        raise ShapeMismatch(f"conv1d: bias shape {bias.shape} incompatible with {c_out} channels")
    xs = x.data.reshape((-1, c_in, length))
    kd = kernel.data.reshape(c_out, c_in * k)
    n_out = (length - k) // stride + 1
    chunks = list(chunk_slices(len(xs), 8 * n_out * c_in * k))

    def window_matrix(inputs: np.ndarray) -> np.ndarray:
        # rows: (input, output position); columns: (input channel, kernel tap)
        windows = np.lib.stride_tricks.sliding_window_view(inputs, k, axis=-1)[..., ::stride, :]
        return np.swapaxes(windows, -3, -2).reshape(-1, c_in * k)

    out = np.empty((len(xs), c_out, n_out))
    for chunk in chunks:
        out[chunk] = np.swapaxes((window_matrix(xs[chunk]) @ kd.T).reshape(-1, n_out, c_out), -1, -2)
    out += bias.data[:, None]

    def backward(g: np.ndarray):
        g2 = np.swapaxes(g.reshape(-1, c_out, n_out), -1, -2).reshape(-1, c_out)
        dk = (g2.T @ window_matrix(xs)).reshape(kernel.shape) if kernel.requires_grad else None
        db = g2.sum(axis=0) if bias.requires_grad else None
        if not x.requires_grad:
            return None, dk, db
        dx = np.zeros_like(xs)
        for chunk in chunks:
            rows = slice(chunk.start * n_out, chunk.stop * n_out)
            dcols = np.swapaxes((g2[rows] @ kd).reshape(-1, n_out, c_in, k), -3, -2)
            for j in range(k):
                dx[chunk, :, j : j + stride * (n_out - 1) + 1 : stride] += dcols[..., j]
        return dx.reshape(x.shape), dk, db

    return _record("conv1d", (x, kernel, bias), out.reshape(x.shape[:-2] + (c_out, n_out)), backward)


def mean_over_axis(x: Tensor) -> Tensor:
    """Arithmetic mean over the node axis, the second to last (rows of each matrix)."""
    if x.ndim < 2:
        raise ShapeMismatch(f"mean-over-axis expects [..., nodes, features], got shape {x.shape}")
    out = np.mean(x.data, axis=-2)
    n = x.shape[-2]

    def backward(g: np.ndarray):
        return (np.broadcast_to(g[..., None, :], x.shape) / n,)

    return _record("mean-over-axis", (x,), out, backward)


def bin_mean(x: Tensor, bins: int) -> Tensor:
    """Mean of each of ``bins`` near-equal runs of the last axis; run ``i``
    spans ``[i * L // bins, (i + 1) * L // bins)`` of its length ``L``."""
    if x.ndim < 1 or not 1 <= bins <= x.shape[-1]:
        raise ShapeMismatch(f"bin-mean: cannot split shape {x.shape} into {bins} bins")
    edges = (np.arange(bins + 1) * x.shape[-1]) // bins
    counts = np.diff(edges)
    out = np.add.reduceat(x.data, edges[:-1], axis=-1) / counts

    def backward(g: np.ndarray):
        return (np.repeat(g / counts, counts, axis=-1),)

    return _record("bin-mean", (x,), out, backward)


@cache
def triu_indices(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)``, made once per size and read-only."""
    rows, cols = np.triu_indices(n, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def upper_triangle_flatten(x: Tensor) -> Tensor:
    """Row-major flatten of the upper triangle, diagonal included, of each square matrix."""
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ShapeMismatch(f"upper-triangle-flatten expects square matrices, got {x.shape}")
    rows, cols = triu_indices(x.shape[-1])
    out = x.data[..., rows, cols]

    def backward(g: np.ndarray):
        dx = np.zeros_like(x.data)
        dx[..., rows, cols] = g
        return (dx,)

    return _record("upper-triangle-flatten", (x,), out, backward)


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of the last axes: ``[..., n]`` and ``[..., p]`` give ``[..., n, p]``."""
    if a.ndim not in (1, 2) or a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatch(f"outer-product expects vectors or rows of them, got {a.shape}, {b.shape}")
    out = a.data[..., :, None] * b.data[..., None, :]

    def backward(g: np.ndarray):
        return (g @ b.data[..., :, None])[..., 0], (a.data[..., None, :] @ g)[..., 0, :]

    return _record("outer-product", (a, b), out, backward)


class RowBlocks:
    """A level's blocks (its nodes' parents) as runs of consecutive node
    rows, given by their lengths ``sizes``, and the padded layout
    ``per_block_norm`` takes their statistics in.

    The layout is ``[..., blocks, size, features]``: a reshape when the
    runs are equal (every level of a nested hierarchy), else a scatter into
    zero-padded rows of the longest run's size. The diagonal blocks of
    ``[..., m, m]`` matrices take the same layout, ``[..., blocks, size,
    size]`` (``gather`` and ``scatter``). Built once per level.
    """

    def __init__(self, sizes):
        self.sizes = sizes = np.asarray(sizes, dtype=np.intp).reshape(-1)
        if not sizes.size or sizes.min() < 1:
            raise ShapeMismatch(f"per-block-norm: needs one or more runs of length >= 1, got {sizes.tolist()}")
        self.m = int(sizes.sum())
        self.shape = (sizes.size, int(sizes.max()))
        self.counts = sizes.astype(np.float64)[:, None, None]
        held = np.arange(self.shape[1]) < sizes[:, None]
        # each row's place in the padded layout, and the places that hold a row
        self.rows = self.mask = None
        if (sizes != self.shape[1]).any():
            self.rows = np.flatnonzero(held)
            self.mask = held[..., None]
        # each diagonal-block cell's flat index into an [m, m] matrix (cell 0
        # for the padding), and the cells that hold one
        nodes = (np.cumsum(sizes) - sizes)[:, None] + np.arange(self.shape[1])
        self.held = held[:, :, None] & held[:, None, :]
        self.cells = np.where(self.held, nodes[:, :, None] * self.m + nodes[:, None, :], 0)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The diagonal blocks of ``[..., m, m]`` matrices as ``[..., blocks,
        size, size]``, zeros in the padding; entries outside them are not read."""
        if a.shape[-2:] != (self.m, self.m):
            raise ShapeMismatch(f"row-blocks: blocks partition {self.m} nodes, got matrices {a.shape}")
        out = a.reshape(a.shape[:-2] + (-1,))[..., self.cells]
        if self.rows is not None:
            np.copyto(out, 0.0, where=~self.held)
        return out

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of ``gather``: the ``[..., m, m]`` matrices with these
        diagonal blocks and exact zeros elsewhere."""
        out = np.zeros(blocks.shape[:-3] + (self.m * self.m,))
        out[..., self.cells[self.held]] = blocks[..., self.held]
        return out.reshape(blocks.shape[:-3] + (self.m, self.m))

    def pad(self, a: np.ndarray) -> np.ndarray:
        """``[..., m, d]`` rows in the ``[..., blocks, size, d]`` layout, zeros in the padding."""
        padded = a.shape[:-2] + self.shape + a.shape[-1:]
        if self.rows is None:
            return a.reshape(padded)
        out = np.zeros(a.shape[:-2] + (self.shape[0] * self.shape[1],) + a.shape[-1:])
        out[..., self.rows, :] = a
        return out.reshape(padded)

    def unpad(self, a: np.ndarray) -> np.ndarray:
        """Inverse of ``pad``: the ``[..., m, d]`` rows of a padded layout."""
        flat = a.reshape(a.shape[:-3] + (-1,) + a.shape[-1:])
        return flat if self.rows is None else flat[..., self.rows, :]


def per_block_norm(x: Tensor, gain: Tensor, shift: Tensor, blocks: RowBlocks) -> Tensor:
    """Normalize features over the node rows of each block independently.

    ``x`` is ``[nodes, features]`` or a batch ``[batch, nodes, features]``;
    ``blocks`` splits the node rows into runs. Statistics (mean, biased variance)
    are taken per matrix, per block and per feature column, then a
    learnable per-feature affine ``gain * xhat + shift`` is applied.
    Cross-block statistics are never mixed, which preserves the
    block-diagonal locality of the composite graphs. Every block's
    statistics come from one sum over the padded layout, row by row in
    block order as a per-block ``mean``/``var`` sums.
    """
    if x.ndim not in (2, 3):
        raise ShapeMismatch(f"per-block-norm expects [..., nodes, features], got {x.shape}")
    m, d = x.shape[-2:]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeMismatch(
            f"per-block-norm: gain/shift must have shape ({d},), got {gain.shape} and {shift.shape}"
        )
    if blocks.m != m:
        raise ShapeMismatch(f"per-block-norm: blocks partition {blocks.m} node rows, got {m}")

    dev = blocks.pad(x.data)
    dev = dev - dev.sum(axis=-2, keepdims=True) / blocks.counts
    if blocks.mask is not None:
        dev *= blocks.mask
    inv_std = 1.0 / np.sqrt((dev * dev).sum(axis=-2, keepdims=True) / blocks.counts + 1e-5)
    xhat_p = dev * inv_std
    xhat = blocks.unpad(xhat_p)
    out = xhat * gain.data + shift.data

    def backward(g: np.ndarray):
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dshift = g.reshape(-1, d).sum(axis=0)
        gb = blocks.pad(g) * gain.data
        mean_gb = gb.sum(axis=-2, keepdims=True) / blocks.counts
        mean_gbxh = (gb * xhat_p).sum(axis=-2, keepdims=True) / blocks.counts
        return blocks.unpad(inv_std * (gb - mean_gb - xhat_p * mean_gbxh)), dgain, dshift

    return _record("per-block-norm", (x, gain, shift), out, backward)


# a training forward's dropout: the rate and the stream its masks are drawn
# from, in forward order; hcnn_first_order draws its conv masks chunk by
# chunk, so a stack of several chunks (196-ROI training) draws them in
# another order than one mask per layer over the whole stack would
Dropout = tuple[float, np.random.Generator]


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate), so a forward that
    skips it (scoring) needs no rescale; rate 0 draws no mask."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate  # the tape holds one byte per unit, not a float mask

    def backward(g: np.ndarray):
        return (g * (keep / (1.0 - rate)),)

    return _record("dropout", (x,), x.data * (keep / (1.0 - rate)), backward)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy from two-class probability rows.

    ``probs`` is ``[2]`` or ``[n, 2]``; the second column is the
    positive-class probability, clamped at 1e-12 before the log. Gradients
    do not flow through clamped entries.
    """
    y = np.atleast_1d(np.asarray(labels))
    if not np.all((y == 0) | (y == 1)):
        raise ValueError(f"cross-entropy labels must be 0 or 1, got {np.unique(y)}")
    y = y.astype(np.float64)
    p2 = probs.data if probs.ndim == 2 else probs.data[None, :]
    if p2.ndim != 2 or p2.shape[1] != 2 or p2.shape[0] != y.shape[0]:
        raise ShapeMismatch(
            f"cross-entropy: probs shape {probs.shape} incompatible with {y.shape[0]} labels"
        )
    lo, hi = 1e-12, 1.0 - 1e-12
    raw = p2[:, 1]
    p = np.clip(raw, lo, hi)
    n = y.shape[0]
    out = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))

    def backward(g: np.ndarray):
        inside = (raw >= lo) & (raw <= hi)
        dpos = -(y / p - (1.0 - y) / (1.0 - p)) / n * inside
        dp = np.zeros_like(p2)
        dp[:, 1] = dpos * g
        return (dp.reshape(probs.shape),)

    return _record("cross-entropy", (probs,), np.asarray(out), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) through the tape, newest node first.

    Gradients accumulate into ``.grad`` of every leaf tensor that requires
    them, in place where one is held; leaves the loss misses keep theirs.
    A tape can be consumed exactly once: each node leaves it once its
    gradient has flowed back, freeing the arrays the node saved.
    """
    if tape.consumed:
        raise TapeError("backward already ran on this tape; rerun the forward pass first")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape.nodes and loss is not tape.nodes[-1].output:
        produced = any(loss is n.output for n in tape.nodes)
        if not produced and loss.requires_grad:
            raise TapeError("loss tensor was not produced on this tape")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    while tape.nodes:
        node = tape.nodes.pop()
        g = grads.pop(id(node.output), None)
        holders.pop(id(node.output), None)
        if g is None:
            continue
        for tensor, gi in zip(node.inputs, node.backward(g)):
            if gi is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                holders[key] = tensor
    for key, g in grads.items():
        leaf = holders[key]
        if leaf.grad is None:
            leaf.grad = g.copy()
        else:
            leaf.grad += g


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


@dataclass
class FdEntry:
    name: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float
    skipped: bool


@dataclass
class FdReport:
    entries: list[FdEntry]
    tolerance: float

    @property
    def checked(self) -> list[FdEntry]:
        return [e for e in self.entries if not e.skipped]

    @property
    def skipped(self) -> list[FdEntry]:
        return [e for e in self.entries if e.skipped]

    @property
    def max_rel_error(self) -> float:
        checked = self.checked
        return max((e.rel_error for e in checked), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.rel_error <= self.tolerance for e in self.checked)


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Iterable[Parameter],
    h: float = 1e-5,
    tolerance: float = 1e-6,
    max_entries: int | None = None,
    seed: int = 0,
) -> FdReport:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` must be a deterministic zero-argument forward pass over ``params``
    returning a scalar; non-determinism is detected by re-evaluation. The
    relative error per entry is ``|analytic - numeric| / max(1, |numeric|)``.
    Entries whose one-sided slopes differ by more than 5% of the larger
    slope, or of 1 (activation kinks), are skipped and reported, not judged.
    Held gradients are zeroed in place, not rebound; unreached parameters read 0.
    """
    if h <= 0:
        raise ValueError(f"step size h must be positive, got {h}")
    params = list(params)

    def evaluate() -> float:
        out = f()
        if out.data.size != 1:
            raise TapeError(f"finite_difference_check: f must return a scalar, got {out.shape}")
        return out.item()

    base = evaluate()
    if evaluate() != base:
        raise RuntimeError("finite_difference_check: f is not deterministic (re-evaluation mismatch)")

    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)
    with Tape() as tape:
        out = f()
    backward(tape, out)
    analytic = {p.name: np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in params}

    entries = [(p, idx) for p in params for idx in np.ndindex(p.shape)]
    if max_entries is not None and len(entries) > max_entries:
        stream = named_stream(seed, "finite-difference-sample")
        chosen = stream.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[i] for i in sorted(chosen)]

    report: list[FdEntry] = []
    for p, idx in entries:
        original = p.data[idx]
        p.data[idx] = original + h
        f_plus = evaluate()
        p.data[idx] = original - h
        f_minus = evaluate()
        p.data[idx] = original

        numeric = (f_plus - f_minus) / (2.0 * h)
        slope_plus = (f_plus - base) / h
        slope_minus = (base - f_minus) / h
        denom = max(1.0, abs(slope_plus), abs(slope_minus))
        kinked = abs(slope_plus - slope_minus) / denom > 0.05
        rel = abs(analytic[p.name][idx] - numeric) / max(1.0, abs(numeric))
        report.append(FdEntry(p.name, idx, float(analytic[p.name][idx]), numeric, rel, kinked))

    return FdReport(entries=report, tolerance=tolerance)
