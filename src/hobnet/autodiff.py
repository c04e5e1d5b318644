"""Dense-tensor reverse-mode differentiation engine.

All values are 64-bit floats in numpy arrays. Primitive applications record
onto an explicit gradient tape (``Tape`` used as a context manager); running
``backward`` replays the tape once, in reverse, and accumulates gradients
into the leaf tensors that requested them. A central finite-difference
checker verifies analytic gradients against numeric ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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

    ``grad`` stays ``None`` until a backward pass deposits a gradient; leaf
    tensors owned by a :class:`Parameter` keep a persistent zero-initialized
    buffer instead so optimizers can always read them.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
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


class Parameter:
    """Named trainable tensor with a persistent gradient buffer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value):
        self.name = name
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.value.requires_grad = True
        self.value.grad = np.zeros_like(self.value.data)

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self) -> np.ndarray:
        assert self.value.grad is not None
        return self.value.grad

    def zero_grad(self) -> None:
        self.value.grad = np.zeros_like(self.value.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.value.shape})"


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

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, backward) -> Tensor:
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteValue(f"{op} produced NaN or Inf values")
    tape = _active_tape()
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
    """Matrix product; 1-D operands are treated as a row (lhs) or column (rhs)."""
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeMismatch(f"matmul supports 1-D/2-D operands, got {a.shape} and {b.shape}")
    a2 = a.data if a.ndim == 2 else a.data[None, :]
    b2 = b.data if b.ndim == 2 else b.data[:, None]
    if a2.shape[1] != b2.shape[0]:
        raise ShapeMismatch(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    out = a2 @ b2
    if a.ndim == 1:
        out = out[0]
    if b.ndim == 1:
        out = out[..., 0]

    def backward(g: np.ndarray):
        g2 = g
        if a.ndim == 1:
            g2 = g2[None, ...]
        if b.ndim == 1:
            g2 = g2[..., None]
        da = (g2 @ b2.T).reshape(a.shape)
        db = (a2.T @ g2).reshape(b.shape)
        return da, db

    return _record("matmul", (a, b), out, backward)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeMismatch(f"transpose expects a 2-D tensor, got shape {x.shape}")
    out = np.ascontiguousarray(x.data.T)

    def backward(g: np.ndarray):
        return (np.ascontiguousarray(g.T),)

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
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

    def backward(g: np.ndarray):
        return (g * mask,)

    return _record("relu", (x,), out, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        inner = (g * s).sum(axis=axis, keepdims=True)
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


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid-mode 1-D convolution (sliding dot product, no kernel flip).

    ``x`` is ``[length]`` or ``[channels_in, length]``; ``kernel`` is
    ``[k]`` (single channel) or ``[channels_out, channels_in, k]``.
    A 1-D input with a 1-D kernel yields a 1-D output.
    """
    if stride < 1:
        raise ShapeMismatch(f"conv1d: stride must be >= 1, got {stride}")
    flat_io = x.ndim == 1 and kernel.ndim == 1
    xd = x.data if x.ndim == 2 else x.data[None, :]
    if kernel.ndim == 1:
        kd = kernel.data[None, None, :]
    elif kernel.ndim == 3:
        kd = kernel.data
    else:
        raise ShapeMismatch(f"conv1d: kernel must be 1-D or 3-D, got shape {kernel.shape}")
    c_out, c_in, k = kd.shape
    if xd.ndim != 2 or xd.shape[0] != c_in:
        raise ShapeMismatch(
            f"conv1d: input shape {x.shape} does not match kernel shape {kernel.shape}"
        )
    length = xd.shape[1]
    if k < 1 or k > length:
        raise ShapeMismatch(f"conv1d: kernel size {k} invalid for input length {length}")
    bd = np.broadcast_to(bias.data.reshape(-1), (c_out,)) if bias.size in (1, c_out) else None
    if bd is None:
        raise ShapeMismatch(f"conv1d: bias shape {bias.shape} incompatible with {c_out} channels")
    windows = np.lib.stride_tricks.sliding_window_view(xd, k, axis=1)[:, ::stride, :]
    n_out = windows.shape[1]
    out = np.einsum("ocj,cij->oi", kd, windows) + bd[:, None]
    if flat_io:
        out = out[0]

    def backward(g: np.ndarray):
        g2 = g if g.ndim == 2 else g[None, :]
        dk = np.einsum("oi,cij->ocj", g2, windows)
        db = g2.sum(axis=1)
        dx = np.zeros_like(xd)
        for j in range(k):
            dx[:, j : j + stride * (n_out - 1) + 1 : stride] += np.einsum(
                "oi,oc->ci", g2, kd[:, :, j]
            )
        if x.ndim == 1:
            dx = dx[0]
        if kernel.ndim == 1:
            dk = dk[0, 0]
        if bias.size == 1:
            db = db.sum().reshape(bias.shape)
        return dx, dk, db

    return _record("conv1d", (x, kernel, bias), out, backward)


def mean_over_axis(x: Tensor, axis: int | None = None) -> Tensor:
    """Arithmetic mean along one axis (``axis=None`` reduces to a scalar)."""
    out = np.mean(x.data, axis=axis)
    n = x.size if axis is None else x.data.shape[axis]

    def backward(g: np.ndarray):
        if axis is None:
            return (np.full(x.shape, g / n),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape) / n,)

    return _record("mean-over-axis", (x,), np.asarray(out), backward)


def upper_triangle_flatten(x: Tensor, include_diagonal: bool = False) -> Tensor:
    """Row-major flatten of the (strict) upper triangle of a square matrix."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeMismatch(f"upper-triangle-flatten expects a square matrix, got {x.shape}")
    n = x.shape[0]
    if n < 2 and not include_diagonal:
        raise ShapeMismatch("upper-triangle-flatten: strict triangle needs n >= 2")
    rows, cols = np.triu_indices(n, k=0 if include_diagonal else 1)
    out = x.data[rows, cols]

    def backward(g: np.ndarray):
        dx = np.zeros_like(x.data)
        dx[rows, cols] = g
        return (dx,)

    return _record("upper-triangle-flatten", (x,), out, backward)


def outer(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeMismatch(f"outer-product expects 1-D operands, got {a.shape} and {b.shape}")
    out = np.outer(a.data, b.data)

    def backward(g: np.ndarray):
        return g @ b.data, a.data @ g

    return _record("outer-product", (a, b), out, backward)


def per_block_norm(
    x: Tensor,
    gain: Tensor,
    shift: Tensor,
    blocks: Sequence[np.ndarray] | None = None,
) -> Tensor:
    """Normalize features over the node rows of each block independently.

    Statistics (mean, biased variance) are taken per block and per feature
    column, then a learnable per-feature affine ``gain * xhat + shift`` is
    applied. Cross-block statistics are never mixed, which preserves the
    block-diagonal locality of the composite graphs.
    """
    if x.ndim != 2:
        raise ShapeMismatch(f"per-block-norm expects [nodes, features], got {x.shape}")
    m, d = x.shape
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeMismatch(
            f"per-block-norm: gain/shift must have shape ({d},), got {gain.shape} and {shift.shape}"
        )
    if blocks is None:
        blocks = [np.arange(m)]
    blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
    if sum(len(b) for b in blocks) != m:
        raise ShapeMismatch("per-block-norm: blocks must partition the node rows")

    xhat = np.empty_like(x.data)
    inv_std = []
    for idx in blocks:
        xb = x.data[idx]
        mu = xb.mean(axis=0)
        var = xb.var(axis=0)
        istd = 1.0 / np.sqrt(var + 1e-5)
        xhat[idx] = (xb - mu) * istd
        inv_std.append(istd)
    out = xhat * gain.data + shift.data

    def backward(g: np.ndarray):
        dgain = (g * xhat).sum(axis=0)
        dshift = g.sum(axis=0)
        dx = np.empty_like(x.data)
        for idx, istd in zip(blocks, inv_std):
            gb = g[idx] * gain.data
            xh = xhat[idx]
            dx[idx] = istd * (gb - gb.mean(axis=0) - xh * (gb * xh).mean(axis=0))
        return dx, dgain, dshift

    return _record("per-block-norm", (x, gain, shift), out, backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate) so eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g: np.ndarray):
        return (g * mask,)

    return _record("dropout", (x,), x.data * mask, backward)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy from two-class probability rows.

    ``probs`` is ``[2]`` or ``[n, 2]``; the second column is the
    positive-class probability, clamped at 1e-12 before the log. Gradients
    do not flow through clamped entries.
    """
    y = np.atleast_1d(np.asarray(labels))
    if not np.all(np.isin(y, (0, 1))):
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


def total(x: Tensor) -> Tensor:
    """Sum of all entries, composed from mean-over-axis and scalar-scale."""
    return scale(mean_over_axis(x, axis=None), float(x.size))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) through the tape, newest node first.

    Gradients accumulate into ``.grad`` of every leaf tensor that requires
    them; parameters untouched by the forward pass keep their zero buffers.
    A tape can be consumed exactly once.
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
    for node in reversed(tape.nodes):
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
        p.zero_grad()
    with Tape() as tape:
        out = f()
    backward(tape, out)
    analytic = {p.name: p.grad.copy() for p in params}

    entries = [(p, idx) for p in params for idx in np.ndindex(p.value.shape)]
    if max_entries is not None and len(entries) > max_entries:
        stream = named_stream(seed, "finite-difference-sample")
        chosen = stream.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[i] for i in sorted(chosen)]

    report: list[FdEntry] = []
    for p, idx in entries:
        original = p.value.data[idx]
        p.value.data[idx] = original + h
        f_plus = evaluate()
        p.value.data[idx] = original - h
        f_minus = evaluate()
        p.value.data[idx] = original

        numeric = (f_plus - f_minus) / (2.0 * h)
        slope_plus = (f_plus - base) / h
        slope_minus = (base - f_minus) / h
        denom = max(1.0, abs(slope_plus), abs(slope_minus))
        kinked = abs(slope_plus - slope_minus) / denom > 0.05
        rel = abs(analytic[p.name][idx] - numeric) / max(1.0, abs(numeric))
        report.append(FdEntry(p.name, idx, float(analytic[p.name][idx]), numeric, rel, kinked))

    return FdReport(entries=report, tolerance=tolerance)
