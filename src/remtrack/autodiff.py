"""Minimal reverse-mode autodiff over dense float64 arrays.

Covers exactly the operations the relation module, its regression heads and
the training loss need: ``add``, ``mul``, ``affine``, ``affine_rows``,
``dot``, ``concat``, ``stack``, ``take``, ``leaky_relu``, ``softmax`` and
the fused GRU, once for one vector (``gru_cell``) and once for every row of a
run of frames (``gru_scan``): its input-side products run over all rows at
once, its state-side products frame by frame. ``Tensor`` has no arithmetic
operators: every tape node comes from one of these functions by name. A
fused operation outside this module (the GIoU loss, the occlusion head's
box, the relation module's projections and its attention over a run's
messages) builds its own tape node with ``_make``. Forward passes are
deterministic: the same inputs in the same order give the same bits.
Results may depend on the order of summed terms, so callers that need order
independence fix the order themselves (the relation module sorts each
receiver's neighbors by content).

A row's bits never depend on the rows it shares a product with. A BLAS
product can give a row different bits depending on how many rows it shares a
call with (one row runs gemv, a few rows one gemm kernel, many rows another).
``affine`` over a matrix runs one gemv per row, a broadcast ``np.matmul``, so
every row has the bits of a one-vector call (the regression heads). The
relation module multiplies through ``_block_matmul`` (and ``affine_rows``),
which runs zero-padded blocks of exactly ``BLOCK_ROWS`` rows, always the same
kernel, so a row's bits depend on that row alone.

Weight gradients are formed as row factors, not as dense outer products. A
backward closure returns the gradient of a weight as ``_Rows(u, v)``, which
stands for ``u.T @ v`` (a 1-D ``u`` or ``v`` is one row). ``backward``
collects the factors of each leaf parameter over the whole sweep and reduces
them with one matrix product per parameter at the end, so a weight used by a
hundred calls costs one product instead of a hundred dense temporaries. The
reduction order is fixed by the tape, so gradients still repeat bit for bit.

Also provides parameter management (stores with Xavier-initialized matrices,
Adam, JSON-checkpoint-ready state) and a central finite-difference gradient
checker. ``no_grad`` switches tape recording off for the whole process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

# Tape recording is on unless a no_grad block is active.
_grad_enabled = True

# Row height of the blocks ``_block_matmul`` multiplies.
BLOCK_ROWS = 8


class no_grad:
    """Context manager that disables tape recording (forward-only mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 tensor with an optional gradient buffer.

    ``data`` is stored row-major; ``grad`` (same shape) is populated by
    :func:`backward`. Tensors created from operations on gradient-requiring
    inputs carry closures used to propagate gradients to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Rows(NamedTuple):
    """Gradient ``u.T @ v`` of a 2-D parent held as row factors; a 1-D ``u``
    or ``v`` is a single row."""

    u: np.ndarray
    v: np.ndarray


def _stack_rows(parts: list[np.ndarray]) -> np.ndarray:
    # one array filled with every row in order, without a 2-D view per row
    return np.concatenate(parts, axis=None).reshape(-1, parts[0].shape[-1])


def _reduce_rows(us: list[np.ndarray], vs: list[np.ndarray]) -> np.ndarray:
    return _stack_rows(us).T @ _stack_rows(vs)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _block_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` for a 2-D ``x``, computed as one batched product over
    zero-padded blocks of exactly ``BLOCK_ROWS`` rows, so that each row of
    the result has the bits it would have alone."""
    x, w_t = np.ascontiguousarray(x), np.ascontiguousarray(w).T
    (m, k), n = x.shape, w.shape[0]
    whole = m - m % BLOCK_ROWS
    out = np.empty((whole + BLOCK_ROWS, n))
    np.matmul(x[:whole].reshape(-1, BLOCK_ROWS, k), w_t, out=out[:whole].reshape(-1, BLOCK_ROWS, n))
    if whole < m:  # the last rows, zero-padded to a block
        tail = np.zeros((1, BLOCK_ROWS, k))
        tail[0, : m - whole] = x[whole:]
        np.matmul(tail, w_t, out=out[whole:].reshape(1, BLOCK_ROWS, n))
    return out[:m]


def _scatter_ranks(index: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The order in which ``np.add.at`` adds rows along ``index``, for
    ``_add_at``: one (positions, targets) pair per k, holding the rows that
    are the k-th aimed at their target, whose targets are distinct. One
    ranking serves every scatter along the same index."""
    order = np.argsort(index, kind="stable")
    grouped = index[order]
    rank = np.arange(len(index)) - np.searchsorted(grouped, grouped)
    by_rank = order[np.argsort(rank, kind="stable")]
    return [(at, index[at]) for at in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1])]


def _add_at(x: np.ndarray, ranks: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray) -> None:
    """``np.add.at(x, index, rows)`` with its bits, for the ``ranks`` of
    ``_scatter_ranks(index)``: each entry of ``x`` adds the rows aimed at it
    one after another, in their order in ``index``, as one fancy add per
    rank."""
    for at, targets in ranks:
        x[targets] += rows[at]


def _check_vector(x: Tensor, name: str) -> None:
    if x.data.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {x.data.shape}")


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape and a.data.ndim and b.data.ndim:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    data = a.data + b.data

    def bw(g):
        return (_reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return (_reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Scalars broadcast against vectors in add/mul; fold gradients back down.
    g = np.asarray(g)
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if shape == () else np.broadcast_to(g, shape).copy()


def affine(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """w @ x (+ b) for a 2-D weight and a 1-D input, or for every row of a
    2-D input. Each row runs its own matrix-vector product, so a row has the
    bits of a one-vector call whatever the other rows."""
    if w.data.ndim != 2:
        raise ValueError(f"affine weight must be 2-D, got shape {w.data.shape}")
    if x.data.ndim not in (1, 2):
        raise ValueError(f"affine input must be a vector or a matrix of rows, got shape {x.data.shape}")
    if w.data.shape[1] != x.data.shape[-1]:
        raise ValueError(
            f"affine shape mismatch: weight {w.data.shape} applied to input of length {x.data.shape[-1]}"
        )
    w_data, x_data = w.data, x.data
    data = np.matmul(w_data, x_data[..., None])[..., 0]
    parents: tuple[Tensor, ...] = (w, x)
    if b is not None:
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(
                f"affine bias shape {b.data.shape} does not match weight rows {w.data.shape[0]}"
            )
        data += b.data
        parents = (w, x, b)

    def bw(g):
        # the bias gradient adds the rows one after another, in row order
        db = g if g.ndim == 1 else g.sum(axis=0)
        return (_Rows(g, x_data), np.matmul(w_data.T, g[..., None])[..., 0], db)[: len(parents)]

    return _make(data, parents, bw)


def affine_rows(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` for every row of a 2-D ``x``, through
    ``_block_matmul``: the relation module's form of ``affine`` over rows."""
    w_data, x_data = w.data, x.data
    data = _block_matmul(x_data, w_data)
    data += b.data

    def bw(g):
        return (_Rows(g, x_data), g @ w_data, g.sum(axis=0))

    return _make(data, (w, x, b), bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check_vector(a, "dot lhs")
    _check_vector(b, "dot rhs")
    if a.data.shape != b.data.shape:
        raise ValueError(f"dot shape mismatch: {a.data.shape} vs {b.data.shape}")
    data = np.array(a.data @ b.data)

    def bw(g):
        return (g * b.data, g * a.data)

    return _make(data, (a, b), bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along their last axis: vectors end to end, or the
    columns of matrices with the same number of rows."""
    parts = tuple(as_tensor(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=-1)
    sizes = [p.data.shape[-1] for p in parts]

    def bw(g):
        out, ofs = [], 0
        for n in sizes:
            out.append(g[..., ofs : ofs + n])
            ofs += n
        return tuple(out)

    return _make(data, parts, bw)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Build a vector out of scalar tensors."""
    parts = tuple(as_tensor(p) for p in parts)
    data = np.array([float(p.data) for p in parts])

    def bw(g):
        return tuple(np.asarray(g[k]).reshape(()) for k in range(len(parts)))

    return _make(data, parts, bw)


def take(x: Tensor, index) -> Tensor:
    """Rows of ``x`` at ``index`` along its first axis: one row for an
    integer, a matrix of rows for an integer array. Index -1 gives a row of
    zeros, for a node that has no row in ``x``."""
    index = np.asarray(index, dtype=np.intp)
    found = index >= 0
    data = np.zeros(index.shape + x.data.shape[1:])
    data[found] = x.data[index[found]]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index[found], g[found])
        return (gx,)

    return _make(data, (x,), bw)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    d = x.data
    out = np.where(d >= 0, d, slope * d)

    def bw(g):
        return (g * np.where(d >= 0, 1.0, slope),)

    return _make(out, (x,), bw)


def softmax(logits: Tensor) -> Tensor:
    """Softmax over a vector; exact denominator, order-independent."""
    _check_vector(logits, "softmax input")
    if logits.data.shape[0] == 0:
        raise ValueError("softmax over an empty vector is undefined")
    shifted = logits.data - np.max(logits.data)
    exps = np.exp(shifted)
    denom = math.fsum(exps.tolist()) if exps.shape[0] > 2 else float(np.sum(exps))
    out = exps / denom

    def bw(g):
        inner = float(np.dot(g, out))
        return (out * (g - inner),)

    return _make(out, (logits,), bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into ``grad``."""
    if loss.data.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones((), dtype=np.float64)
    # Reversed topological order: a node's grad is complete before its
    # backward runs, so the first contribution may alias the source buffer
    # as long as accumulation stays out-of-place. Row factors for a leaf wait
    # until the sweep ends; an inner node needs its gradient before its own
    # closure runs, so its factors are multiplied out at once.
    rows: dict[Tensor, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        contribs = node._backward(node.grad)
        for parent, contrib in zip(node._parents, contribs):
            if contrib is None or not parent.requires_grad:
                continue
            if isinstance(contrib, _Rows):
                if parent._backward is None:
                    us, vs = rows.setdefault(parent, ([], []))
                    us.append(contrib.u)
                    vs.append(contrib.v)
                    continue
                contrib = _reduce_rows([contrib.u], [contrib.v])
            if parent.grad is None:
                parent.grad = np.asarray(contrib, dtype=np.float64)
            else:
                parent.grad = parent.grad + contrib
    for parent, (us, vs) in rows.items():
        total = _reduce_rows(us, vs)
        parent.grad = total if parent.grad is None else parent.grad + total


# ---------------------------------------------------------------------------
# parameters


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Xavier/Glorot sample in +-sqrt(6/(rows+cols))."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class ParameterStore:
    """Named learnable tensors plus per-parameter Adam state, which the
    first ``adam_step`` creates, so a model that is never trained holds
    none."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t: dict[str, int] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter '{name}' already registered")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def matrix(self, name: str, rows: int, cols: int, rng: np.random.Generator) -> Tensor:
        return self.register(name, Tensor(_xavier(rng, rows, cols)))

    def zeros(self, name: str, *shape: int) -> Tensor:
        return self.register(name, Tensor(np.zeros(shape)))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return ((n, self._params[n]) for n in self.names())

    def clear_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def n_scalars(self) -> int:
        return sum(p.data.size for p in self._params.values())


# Adam's conventional beta1, beta2 and eps
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParameterStore, lr: float) -> None:
    """Bias-corrected Adam update in place; clears gradients afterwards."""
    for name in store.names():
        param = store[name]
        if param.grad is None:
            raise ValueError(f"missing gradient for parameter '{name}'")
        g = param.grad
        if name not in store._adam_t:
            store._adam_m[name] = np.zeros_like(param.data)
            store._adam_v[name] = np.zeros_like(param.data)
        m = store._adam_m[name]
        v = store._adam_v[name]
        t = store._adam_t[name] = store._adam_t.get(name, 0) + 1
        # Two work arrays per parameter instead of a temporary per
        # operation, in the operation order of lr * m_hat / (sqrt(v_hat) + eps).
        step = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += step
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v *= ADAM_BETA2
        v += step
        denom = np.divide(v, 1.0 - ADAM_BETA2**t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
        step *= lr
        step /= denom
        param.data -= step
    store.clear_grads()


@dataclass
class GruCellParams:
    """Gate weights for one GRU cell (update z, reset r, candidate h)."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor
    input_dim: int
    hidden_dim: int

    def __post_init__(self):
        i, h = self.input_dim, self.hidden_dim
        for name, t, shape in (
            ("w_z", self.w_z, (h, i)),
            ("u_z", self.u_z, (h, h)),
            ("b_z", self.b_z, (h,)),
            ("w_r", self.w_r, (h, i)),
            ("u_r", self.u_r, (h, h)),
            ("b_r", self.b_r, (h,)),
            ("w_h", self.w_h, (h, i)),
            ("u_h", self.u_h, (h, h)),
            ("b_h", self.b_h, (h,)),
        ):
            if t.data.shape != shape:
                raise ValueError(f"GRU {name} has shape {t.data.shape}, expected {shape}")

    @classmethod
    def create(
        cls,
        store: ParameterStore,
        prefix: str,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ) -> "GruCellParams":
        return cls(
            w_z=store.matrix(f"{prefix}.w_z", hidden_dim, input_dim, rng),
            u_z=store.matrix(f"{prefix}.u_z", hidden_dim, hidden_dim, rng),
            b_z=store.zeros(f"{prefix}.b_z", hidden_dim),
            w_r=store.matrix(f"{prefix}.w_r", hidden_dim, input_dim, rng),
            u_r=store.matrix(f"{prefix}.u_r", hidden_dim, hidden_dim, rng),
            b_r=store.zeros(f"{prefix}.b_r", hidden_dim),
            w_h=store.matrix(f"{prefix}.w_h", hidden_dim, input_dim, rng),
            u_h=store.matrix(f"{prefix}.u_h", hidden_dim, hidden_dim, rng),
            b_h=store.zeros(f"{prefix}.b_h", hidden_dim),
            input_dim=input_dim,
            hidden_dim=hidden_dim,
        )


def _sigmoid_stable(d: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) where d >= 0, else e / (1 + e), with e = exp(-|d|); in
    # place, so a matrix of rows costs two work arrays
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(d >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def gru_cell(params: GruCellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Standard GRU update: h = (1-z)*h_prev + z*h_cand.

    Fused into one tape node: the whole cell would otherwise dominate the
    graph with a dozen small nodes per call. Each gate weight's gradient is
    returned as one row factor (the gate's pre-activation gradient times the
    input or state it multiplied), which ``backward`` reduces together with
    every other call's row in one product per weight.
    """
    _check_vector(x, "gru input")
    _check_vector(h_prev, "gru hidden")
    if x.data.shape[0] != params.input_dim:
        raise ValueError(f"gru input has length {x.data.shape[0]}, expected {params.input_dim}")
    if h_prev.data.shape[0] != params.hidden_dim:
        raise ValueError(f"gru hidden has length {h_prev.data.shape[0]}, expected {params.hidden_dim}")

    p = params
    xd, hd = x.data, h_prev.data
    z = _sigmoid_stable(p.w_z.data @ xd + p.b_z.data + p.u_z.data @ hd)
    r = _sigmoid_stable(p.w_r.data @ xd + p.b_r.data + p.u_r.data @ hd)
    rh = r * hd
    cand = np.tanh(p.w_h.data @ xd + p.b_h.data + p.u_h.data @ rh)
    out = hd + z * (cand - hd)

    def bw(g):
        daz = g * (cand - hd) * z * (1.0 - z)
        dah = g * z * (1.0 - cand * cand)
        drh = p.u_h.data.T @ dah
        dar = drh * hd * r * (1.0 - r)
        dx = p.w_z.data.T @ daz + p.w_r.data.T @ dar + p.w_h.data.T @ dah
        dh = g * (1.0 - z) + p.u_z.data.T @ daz + p.u_r.data.T @ dar + drh * r
        return (
            _Rows(daz, xd),  # w_z
            _Rows(daz, hd),  # u_z
            daz,  # b_z
            _Rows(dar, xd),  # w_r
            _Rows(dar, hd),  # u_r
            dar,  # b_r
            _Rows(dah, xd),  # w_h
            _Rows(dah, rh),  # u_h
            dah,  # b_h
            dx,
            dh,
        )

    return _make(
        out,
        (p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r, p.w_h, p.u_h, p.b_h, x, h_prev),
        bw,
    )


def gru_scan(
    params: GruCellParams, x: Tensor, h0: Tensor, prev: np.ndarray, bounds: np.ndarray
) -> Tensor:
    """``gru_cell`` over a run of frames, as one tape node.

    Frame k's rows are ``bounds[k]:bounds[k + 1]`` of ``x`` and of the
    result. Row p's previous state is row ``prev[p]`` of ``h0``'s rows
    followed by the run's own output rows (which must lie in an earlier
    frame), or zeros where ``prev[p]`` is -1; a frame names each previous row
    at most once. The input-side product of each
    gate runs once over every row; only the state-side products run frame by
    frame. Each row is computed in ``gru_cell``'s operation order
    (``x w^T + b``, then ``+ h u^T``), every product through
    ``_block_matmul``, so a row has the bits it would have alone.
    """
    p = params
    xd, h0d = x.data, h0.data
    m, (n, f) = len(h0d), (len(xd), p.hidden_dim)
    frames = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    prev = np.asarray(prev, dtype=np.intp)

    def pre(w, b):
        a = _block_matmul(xd, w.data)
        a += b.data
        return a

    # each gate's pre-activation, turned into the gate in place frame by frame
    z, r, cand = pre(p.w_z, p.b_z), pre(p.w_r, p.b_r), pre(p.w_h, p.b_h)
    hd, rh, out = np.zeros((n, f)), np.empty((n, f)), np.empty((n, f))
    for a, b in frames:
        h = hd[a:b]
        at = prev[a:b]
        old, new = (at >= 0) & (at < m), at >= m
        h[old] = h0d[at[old]]
        h[new] = out[at[new] - m]
        z[a:b] += _block_matmul(h, p.u_z.data)
        z[a:b] = _sigmoid_stable(z[a:b])
        r[a:b] += _block_matmul(h, p.u_r.data)
        r[a:b] = _sigmoid_stable(r[a:b])
        np.multiply(r[a:b], h, out=rh[a:b])
        cand[a:b] += _block_matmul(rh[a:b], p.u_h.data)
        np.tanh(cand[a:b], out=cand[a:b])
        out[a:b] = h + z[a:b] * (cand[a:b] - h)

    def bw(g):
        g = g.copy()  # later frames add their state gradients into it
        dh0 = np.zeros_like(h0d)
        daz, dar, dah = np.empty((n, f)), np.empty((n, f)), np.empty((n, f))
        biases = np.zeros((3, f))
        for a, b in reversed(frames):
            gs, zs, rs, cs, h = g[a:b], z[a:b], r[a:b], cand[a:b], hd[a:b]
            daz[a:b] = gs * (cs - h) * zs * (1.0 - zs)
            dah[a:b] = gs * zs * (1.0 - cs * cs)
            drh = dah[a:b] @ p.u_h.data
            dar[a:b] = drh * h * rs * (1.0 - rs)
            dh = gs * (1.0 - zs) + daz[a:b] @ p.u_z.data + dar[a:b] @ p.u_r.data + drh * rs
            at = prev[a:b]
            old, new = (at >= 0) & (at < m), at >= m
            dh0[at[old]] += dh[old]  # a frame names a previous row at most once
            g[at[new] - m] += dh[new]
            biases += [d[a:b].sum(axis=0) for d in (daz, dar, dah)]
        dx = daz @ p.w_z.data + dar @ p.w_r.data + dah @ p.w_h.data
        # Weight-gradient rows and bias sums go last frame first, the order
        # in which one call per frame leaves them on the tape, so the
        # reductions add the same numbers in the same order.
        order = np.arange(n)
        if len(frames) > 1:
            order = np.concatenate([order[a:b] for a, b in reversed(frames)])
        xs, hs, rhs = xd[order], hd[order], rh[order]
        daz, dar, dah = daz[order], dar[order], dah[order]
        return (
            _Rows(daz, xs),  # w_z
            _Rows(daz, hs),  # u_z
            biases[0],  # b_z
            _Rows(dar, xs),  # w_r
            _Rows(dar, hs),  # u_r
            biases[1],  # b_r
            _Rows(dah, xs),  # w_h
            _Rows(dah, rhs),  # u_h
            biases[2],  # b_h
            dx,
            dh0,
        )

    return _make(
        out,
        (p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r, p.w_h, p.u_h, p.b_h, x, h0),
        bw,
    )


# ---------------------------------------------------------------------------
# verification


def gradient_check(
    loss_fn: Callable[[], Tensor],
    store: ParameterStore,
    epsilon: float = 1e-5,
) -> float:
    """Compare reverse-mode gradients against central finite differences.

    Returns the worst relative error over every scalar entry of every
    parameter. The denominator is floored at 1e-6 so entries whose true
    gradient is ~0 are judged on absolute error.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    store.clear_grads()
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise ValueError("loss is not finite")
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in store.items()
    }
    store.clear_grads()

    worst = 0.0
    with no_grad():
        for name, param in store.items():
            flat = param.data.reshape(-1)
            ga = analytic[name].reshape(-1)
            for k in range(flat.shape[0]):
                orig = flat[k]
                flat[k] = orig + epsilon
                f_plus = float(loss_fn().data)
                flat[k] = orig - epsilon
                f_minus = float(loss_fn().data)
                flat[k] = orig
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise ValueError(f"non-finite loss while perturbing '{name}'")
                gf = (f_plus - f_minus) / (2.0 * epsilon)
                err = abs(ga[k] - gf) / max(abs(ga[k]) + abs(gf), 1e-6)
                if err > worst:
                    worst = err
    return worst
