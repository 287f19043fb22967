"""A small reverse-mode autograd engine on NumPy.

This is the tensor substrate the functional Ratel runtime trains on —
the stand-in for PyTorch's autograd in the paper's implementation.  It
supports exactly what a GPT/DiT training loop needs: matmul,
broadcasting arithmetic, reshapes/transposes, basic indexing, softmax,
GELU, embedding gather and reductions, plus one-node ``linear``,
``layer_norm``, ``attention`` and ``cross_entropy`` ops with
hand-written backwards.  ``linear`` and ``attention`` round exactly as
the primitive-op graphs they replace; ``layer_norm``'s backward is the
analytic form and ``cross_entropy`` is a log-sum-exp.

Design notes:

* every op appends a node with a closure ``backward`` that accumulates
  into the parents' ``grad`` arrays; only a leaf or a hooked tensor owns
  (copies) its gradient, and an interior node keeps the array it is
  handed (:meth:`Tensor._accumulate` argues why nothing writes it);
* :meth:`Tensor.backward` topologically sorts the graph and runs the
  closures in reverse, invoking per-tensor *gradient hooks* the moment a
  leaf's gradient is complete — that is the mechanism Ratel's active
  gradient offloading (§IV-C) attaches to;
* each closure captures its output, so a graph is a set of reference
  cycles; ``backward`` frees every node whose closure it ran (leaves
  keep their gradients), and a second ``backward`` through the same
  graph raises :class:`AutogradError`;
* the row sums of softmax, LayerNorm and cross-entropy, and the
  leading-axis sums that reduce a broadcast gradient, are products
  with a vector of ones: one BLAS call instead of a NumPy loop per row;
* computation uses float32 for numerical fidelity; the *storage* dtype
  (fp16 in mixed-precision training) is an accounting property handled
  by :mod:`repro.runtime.storage`.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable

import numpy as np


class AutogradError(RuntimeError):
    """Raised for invalid autograd usage (double backward, shape bugs...)."""


class IndexRangeError(IndexError):
    """Raised for an index outside its table: an embedding id, a class
    target or a sequence longer than a model's positions."""


_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (for recompute phases)."""

    def __enter__(self) -> None:
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Whether new ops record backward graph edges."""
    return _grad_enabled


class Tensor:
    """An N-D array with an optional gradient and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents", "_hooks")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._hooks: list[Callable[[Tensor], None]] = []

    # -- properties ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{label}, requires_grad={self.requires_grad})"

    # -- graph plumbing ----------------------------------------------------------

    def register_hook(self, hook: Callable[["Tensor"], None]) -> None:
        """Call ``hook(self)`` once this tensor's gradient is finalised.

        Hooks fire during :meth:`backward`, in reverse-topological order —
        for a stacked transformer that means the *last* block's parameters
        first, exactly the arrival order §IV-C assumes.
        """
        self._hooks.append(hook)

    def _make_node(
        self, parents: Iterable["Tensor"], backward: Callable[[], None]
    ) -> None:
        parent_tuple = tuple(parent for parent in parents if isinstance(parent, Tensor))
        if _grad_enabled and any(parent.requires_grad for parent in parent_tuple):
            self.requires_grad = True
            self._parents = parent_tuple
            self._backward = backward

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one gradient contribution to :attr:`grad`.

        A gradient that leaves the graph — a leaf's, or a hooked tensor's
        — reaches gradient handlers, the optimizer and the in-place scale
        of :func:`~repro.runtime.optim.clip_gradients`, so its first
        contribution is copied into an array the tensor owns, and later
        ones add in place.

        An interior node's gradient is read only by the node's own
        backward closure, so the node keeps the array it is handed, often
        a child's ``out.grad`` that other parents hold too.  No one
        writes a borrowed array afterwards: a second contribution
        replaces it with a fresh float32 sum instead of adding in place
        (``a + b`` rounds exactly as ``a += b``); the node's backward runs
        only after all of its contributions, reads the array and writes
        only fresh ones; and ``backward`` frees the node's graph once the
        closure ran.  A broadcast view (a zero stride) is copied all the
        same, so a matmul or reduction over it takes the path it takes
        over an ordinary array.
        """
        grad = _unbroadcast(grad, self.data.shape)
        owner = self._backward is None or bool(self._hooks)
        if self.grad is None:
            if owner or grad.dtype != np.float32 or 0 in grad.strides:
                self.grad = grad.astype(np.float32, copy=True)
            else:
                self.grad = grad
        elif owner:
            self.grad += grad
        else:
            self.grad = np.add(self.grad, grad, out=np.empty_like(self.grad))

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (for scalar losses it is the usual 1).
        Gradient hooks fire as each node's contribution set completes.
        """
        if not self.requires_grad:
            raise AutogradError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float32))

        # Count how many times each tensor appears as a parent so hooks
        # fire only when the gradient is complete.
        pending: dict[int, int] = {}
        for node in topo:
            for parent in node._parents:
                pending[id(parent)] = pending.get(id(parent), 0) + 1

        for node in reversed(topo):
            ran = node._backward is not None and node.grad is not None
            if ran:
                node._backward()
            for parent in node._parents:
                pending[id(parent)] -= 1
                if pending[id(parent)] == 0:
                    for hook in parent._hooks:
                        hook(parent)
            if ran:
                # The closure holds ``node`` itself: dropping it breaks the
                # cycle, so the graph is freed by reference counting.
                node._parents = ()
                node._backward = _freed_graph
        for hook in self._hooks:
            hook(self)

    def detach(self) -> "Tensor":
        """A view of the data cut off from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data + other.data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(out.grad)

        out._make_node((self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        out._make_node((self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data * other.data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * other.data)
            if other.requires_grad:
                other._accumulate(out.grad * self.data)

        out._make_node((self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data / other.data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / other.data)
            if other.requires_grad:
                other._accumulate(-out.grad * self.data / (other.data**2))

        out._make_node((self, other), backward)
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        out = Tensor(self.data**exponent)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._make_node((self,), backward)
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        """Batched matrix multiply (NumPy semantics)."""
        other = _as_tensor(other)
        out = Tensor(self.data @ other.data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ out.grad)

        out._make_node((self, other), backward)
        return out

    __matmul__ = matmul

    # -- shape ops ------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape preserving gradient flow."""
        out = Tensor(self.data.reshape(shape))
        original = self.data.shape

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(original))

        out._make_node((self,), backward)
        return out

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes preserving gradient flow."""
        out = Tensor(self.data.transpose(axes))
        inverse = np.argsort(axes)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        out._make_node((self,), backward)
        return out

    def __getitem__(self, index) -> "Tensor":
        """Basic indexing (integers and slices) preserving gradient flow."""
        out = Tensor(self.data[index])

        def backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                grad[index] = out.grad
                self._accumulate(grad)

        out._make_node((self,), backward)
        return out

    # -- reductions / nonlinearities ---------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Summation with gradient broadcast back."""
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))
        shape = self.data.shape

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, shape))

        out._make_node((self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean via sum."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out = Tensor(np.exp(self.data))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        out._make_node((self,), backward)
        return out

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        out = Tensor(np.log(self.data))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out._make_node((self,), backward)
        return out

    def tanh(self) -> "Tensor":
        """Elementwise tanh."""
        out = Tensor(np.tanh(self.data))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data**2))

        out._make_node((self,), backward)
        return out

    def gelu(self) -> "Tensor":
        """GELU (tanh approximation, as GPT implementations use)."""
        x = self.data
        c = np.float32(np.sqrt(2.0 / np.pi))
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        out = Tensor(0.5 * x * (1.0 + t))

        def backward() -> None:
            if not self.requires_grad:
                return
            dt = (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x**2)
            self._accumulate(out.grad * (0.5 * (1.0 + t) + 0.5 * x * dt))

        out._make_node((self,), backward)
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax."""
        probs = _softmax(np.moveaxis(self.data, axis, -1))
        out = Tensor(np.moveaxis(probs, -1, axis))

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = np.moveaxis(out.grad, axis, -1)
            dot = _row_sum(grad * probs)
            self._accumulate(np.moveaxis(probs * (grad - dot), -1, axis))

        out._make_node((self,), backward)
        return out

    def linear(self, weight: "Tensor", bias: "Tensor") -> "Tensor":
        """The affine map ``self @ weight + bias`` as one node."""
        x, w = self.data, weight.data
        out = Tensor(x @ w + bias.data)

        def backward() -> None:
            grad = out.grad
            if bias.requires_grad:
                bias._accumulate(grad)
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(w, -1, -2))
            if weight.requires_grad:
                weight._accumulate(np.swapaxes(x, -1, -2) @ grad)

        out._make_node((self, weight, bias), backward)
        return out

    def layer_norm(self, gain: "Tensor", shift: "Tensor", eps: float) -> "Tensor":
        """Normalise over the last axis, then scale by ``gain`` and add ``shift``."""
        x = self.data
        inv_n = np.float32(1.0 / x.shape[-1])
        centred = x - _row_sum(x) * inv_n
        var = _row_sum(centred * centred) * inv_n
        rstd = (var + np.float32(eps)) ** -0.5
        normed = centred * rstd
        out = Tensor(normed * gain.data + shift.data)

        def backward() -> None:
            grad = out.grad
            if shift.requires_grad:
                shift._accumulate(grad)
            if gain.requires_grad:
                gain._accumulate(grad * normed)
            if self.requires_grad:
                dnormed = grad * gain.data
                mean = _row_sum(dnormed) * inv_n
                along = _row_sum(dnormed * normed) * inv_n
                self._accumulate(rstd * (dnormed - mean - normed * along))

        out._make_node((self, gain, shift), backward)
        return out

    def cross_entropy(self, targets: np.ndarray) -> "Tensor":
        """Mean cross entropy of logits ``(..., vocab)`` against int ``targets``.

        Log-sum-exp per row: with ``s = z - max(z)`` a row's loss is
        ``log(sum(exp(s))) - s[target]`` and its gradient is
        ``(softmax - onehot) / rows``.  No step overflows or divides by
        zero for finite logits, however far the target trails the top.
        """
        logits = self.data.reshape(-1, self.data.shape[-1])
        picks = _checked_indices(targets, logits.shape[1], "target").reshape(-1)
        rows = np.arange(picks.size)
        shifted = logits - _row_max(logits)
        exp = np.exp(shifted)
        total = _row_sum(exp)
        out = Tensor((np.log(total[:, 0]) - shifted[rows, picks]).mean(dtype=np.float64))

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = exp / total
            grad[rows, picks] -= 1.0
            grad *= out.grad * np.float32(1.0 / picks.size)
            self._accumulate(grad.reshape(self.data.shape))

        out._make_node((self,), backward)
        return out

    def attention(self, n_heads: int, causal: bool) -> "Tensor":
        """Multi-head scaled dot-product attention as one node.

        ``self`` is the packed ``(batch, seq, 3 * dim)`` query/key/value
        projection, each third split into ``n_heads`` heads; the result is
        the per-token context ``(batch, seq, dim)``, heads concatenated.
        With ``causal`` a token attends only to itself and earlier ones.
        """
        batch, seq, width = self.data.shape
        dim = width // 3
        head_dim = dim // n_heads
        rows = batch * n_heads
        qkv = (
            self.data.reshape(batch, seq, 3, n_heads, head_dim)
            .transpose(2, 0, 3, 1, 4)
            .reshape(3, rows, seq, head_dim)
        )
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = np.float32(1.0 / np.sqrt(head_dim))
        # A stacked matmul runs twice as fast on a contiguous right
        # operand as on a transposed view, and gives the same bits.
        scores = (q @ np.ascontiguousarray(k.transpose(0, 2, 1))) * scale
        if causal:
            scores = scores + _causal_mask(seq)
        probs = _softmax(scores)
        context = (probs @ v).reshape(batch, n_heads, seq, head_dim)
        out = Tensor(context.transpose(0, 2, 1, 3).reshape(batch, seq, dim))

        def backward() -> None:
            if not self.requires_grad:
                return
            dcontext = (
                out.grad.reshape(batch, seq, n_heads, head_dim)
                .transpose(0, 2, 1, 3)
                .reshape(rows, seq, head_dim)
            )
            dprobs = dcontext @ np.ascontiguousarray(np.swapaxes(v, -1, -2))
            # Not ``probs``: a transposed copy on the left is slower and
            # rounds differently.
            dv = np.swapaxes(probs, -1, -2) @ dcontext
            dot = _row_sum(dprobs * probs)
            dscores = (probs * (dprobs - dot)) * scale
            dq = dscores @ k
            dk = (np.swapaxes(q, -1, -2) @ dscores).transpose(0, 2, 1)
            dqkv = np.zeros((3, rows, seq, head_dim), dtype=np.float32)
            dqkv[0] += dq
            dqkv[1] += dk
            dqkv[2] += dv
            self._accumulate(
                dqkv.reshape(3, batch, n_heads, seq, head_dim)
                .transpose(1, 3, 0, 2, 4)
                .reshape(batch, seq, width)
            )

        out._make_node((self,), backward)
        return out

    def embedding(self, ids: np.ndarray) -> "Tensor":
        """Row gather: ``self`` is a (vocab, dim) table, ``ids`` int array."""
        ids = _checked_indices(ids, self.data.shape[0], "embedding id")
        out = Tensor(self.data[ids])

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = np.zeros_like(self.data)
            np.add.at(grad, ids.reshape(-1), out.grad.reshape(-1, self.data.shape[-1]))
            self._accumulate(grad)

        out._make_node((self,), backward)
        return out


def _freed_graph() -> None:
    """Stands in for the closure of a node whose backward has already run."""
    raise AutogradError(
        "backward() reached a graph that an earlier backward() already freed; "
        "run the forward again to build a new one"
    )


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float32))


def _checked_indices(ids, size: int, what: str) -> np.ndarray:
    """``ids`` as an integer array; raise unless each lies in ``[0, size)``."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise IndexRangeError(f"{what}s must be integers in [0, {size - 1}], got {ids.dtype}")
    if ids.size:
        low, high = ids.min(), ids.max()
        if low < 0 or high >= size:
            bad = low if low < 0 else high
            raise IndexRangeError(f"{what} {bad} is outside [0, {size - 1}]")
    return ids


def _row_max(x: np.ndarray) -> np.ndarray:
    """The maximum over the last axis, kept as an axis of length 1."""
    # A reduction along short contiguous rows runs one tiny loop per row;
    # across a transposed copy it is one vectorised pass per column.
    # Both give the exact maximum.
    peak = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T).max(axis=0)
    return peak.reshape(*x.shape[:-1], 1)


# Bounded: a step sums rows of a few lengths, but generation runs every
# sequence length up to its window.
@functools.lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    """A read-only float32 vector of ``n`` ones, built once per length."""
    ones = np.ones(n, dtype=np.float32)
    ones.flags.writeable = False
    return ones


def _row_sum(x: np.ndarray) -> np.ndarray:
    """The sum over the last axis, kept as an axis of length 1."""
    # NumPy runs one inner-loop call per short row; a product with ones
    # is one BLAS matrix-vector call over all rows, 4-7 times faster.
    # It adds in BLAS's order, so it rounds unlike NumPy's pairwise sum.
    n = x.shape[-1]
    return (x.reshape(-1, n) @ _ones(n)).reshape(*x.shape[:-1], 1)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the exact maximum."""
    exp = np.exp(x - _row_max(x))
    return exp / _row_sum(exp)


# Bounded: generation runs every length up to its window, and a mask
# holds seq**2 floats.
@functools.lru_cache(maxsize=8)
def _causal_mask(seq: int) -> np.ndarray:
    """``-1e9`` above the diagonal: added to scores, it hides later tokens."""
    mask = np.triu(np.full((seq, seq), -1e9, dtype=np.float32), k=1)
    mask.flags.writeable = False
    return mask


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        # One BLAS product of ones with the rows, as in ``_row_sum``.
        kept = grad.shape[extra:]
        rows = grad.reshape(math.prod(grad.shape[:extra]), math.prod(kept))
        grad = (_ones(rows.shape[0]) @ rows).reshape(kept)
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad
