"""Minimal reverse-mode autodiff over dense float64 arrays.

Covers exactly the operations the relation module and its regression heads
need: affine maps, concatenation, sigmoid/tanh/LeakyReLU/softplus, softmax,
and elementwise arithmetic. Forward passes are deterministic: the same inputs
in the same order give the same bits. Results may depend on the order of
summed terms, so callers that need order independence fix the order
themselves (the relation module sorts each receiver's neighbors by content).

Also provides parameter management (stores with Xavier-initialized matrices,
Adam, JSON-checkpoint-ready state) and a central finite-difference gradient
checker. ``no_grad`` switches tape recording off for the whole process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# Tape recording is on unless a no_grad block is active.
_grad_enabled = True


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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Convenience arithmetic; the module-level functions are the primitives.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


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


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def bw(g):
        return (_reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return (_reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return (_reduce_to(ga, a.data.shape), _reduce_to(gb, b.data.shape))

    return _make(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Scalars broadcast against vectors in add/mul; fold gradients back down.
    g = np.asarray(g)
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if shape == () else np.broadcast_to(g, shape).copy()


def affine(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """w @ x (+ b) for a 2-D weight and 1-D input."""
    if w.data.ndim != 2:
        raise ValueError(f"affine weight must be 2-D, got shape {w.data.shape}")
    _check_vector(x, "affine input")
    if w.data.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"affine shape mismatch: weight {w.data.shape} applied to input of length {x.data.shape[0]}"
        )
    data = w.data @ x.data
    parents: tuple[Tensor, ...]
    w_data, x_data = w.data, x.data
    if b is not None:
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(
                f"affine bias shape {b.data.shape} does not match weight rows {w.data.shape[0]}"
            )
        data = data + b.data
        parents = (w, x, b)

        def bw(g):
            return (g[:, None] * x_data, w_data.T @ g, g)

    else:
        parents = (w, x)

        def bw(g):
            return (g[:, None] * x_data, w_data.T @ g)

    return _make(data, parents, bw)


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
    parts = tuple(as_tensor(p) for p in parts)
    for p in parts:
        _check_vector(p, "concat part")
    data = np.concatenate([p.data for p in parts])
    sizes = [p.data.shape[0] for p in parts]

    def bw(g):
        out, ofs = [], 0
        for n in sizes:
            out.append(g[ofs : ofs + n])
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


def get(x: Tensor, index: int) -> Tensor:
    _check_vector(x, "get input")
    data = np.asarray(x.data[index])

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return _make(data, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    # Stable on both tails.
    d = x.data
    out = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _make(out, (x,), bw)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    d = x.data
    out = np.where(d >= 0, d, slope * d)

    def bw(g):
        return (g * np.where(d >= 0, 1.0, slope),)

    return _make(out, (x,), bw)


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(0.0, x.data)

    def bw(g):
        return (g / (1.0 + np.exp(-x.data)),)

    return _make(out, (x,), bw)


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    data = np.where(take_a, a.data, b.data)

    def bw(g):
        return (
            _reduce_to(g * take_a, a.data.shape),
            _reduce_to(g * ~take_a, b.data.shape),
        )

    return _make(data, (a, b), bw)


def minimum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    data = np.where(take_a, a.data, b.data)

    def bw(g):
        return (
            _reduce_to(g * take_a, a.data.shape),
            _reduce_to(g * ~take_a, b.data.shape),
        )

    return _make(data, (a, b), bw)


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
    # as long as accumulation stays out-of-place.
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        contribs = node._backward(node.grad)
        for parent, contrib in zip(node._parents, contribs):
            if contrib is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.asarray(contrib, dtype=np.float64)
            else:
                parent.grad = parent.grad + contrib


# ---------------------------------------------------------------------------
# parameters


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Xavier/Glorot sample in +-sqrt(6/(rows+cols))."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class ParameterStore:
    """Named learnable tensors plus per-parameter Adam state."""

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
        self._adam_m[name] = np.zeros_like(tensor.data)
        self._adam_v[name] = np.zeros_like(tensor.data)
        self._adam_t[name] = 0
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

    def step_count(self, name: str) -> int:
        return self._adam_t[name]

    def clear_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def n_scalars(self) -> int:
        return sum(p.data.size for p in self._params.values())


def adam_step(
    store: ParameterStore,
    lr: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update in place; clears gradients afterwards.

    The default learning rate matches the training recipe used throughout
    this package. beta1/beta2/eps are the conventional defaults.
    """
    for name in store.names():
        param = store[name]
        if param.grad is None:
            raise ValueError(f"missing gradient for parameter '{name}'")
        g = param.grad
        m = store._adam_m[name]
        v = store._adam_v[name]
        store._adam_t[name] += 1
        t = store._adam_t[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
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
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gru_cell(params: GruCellParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """Standard GRU update: h = (1-z)*h_prev + z*h_cand.

    Fused into one tape node: the whole cell would otherwise dominate the
    graph with a dozen small nodes per call.
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
            daz[:, None] * xd,  # w_z
            daz[:, None] * hd,  # u_z
            daz,  # b_z
            dar[:, None] * xd,  # w_r
            dar[:, None] * hd,  # u_r
            dar,  # b_r
            dah[:, None] * xd,  # w_h
            dah[:, None] * rh,  # u_h
            dah,  # b_h
            dx,
            dh,
        )

    return _make(
        out,
        (p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r, p.w_h, p.u_h, p.b_h, x, h_prev),
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
