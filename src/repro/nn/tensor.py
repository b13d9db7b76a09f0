"""Reverse-mode automatic differentiation on numpy arrays.

PyTorch is not available in the reproduction environment, so this module
implements the minimal-but-complete tensor substrate PathRank needs: a
:class:`Tensor` wrapping a :class:`numpy.ndarray`, a dynamic computation
graph built as operations execute, and :meth:`Tensor.backward` running
reverse-mode differentiation over a topological ordering of that graph.

Design notes
------------
* Gradients are plain numpy arrays accumulated into ``Tensor.grad``.
* Every operation is broadcast-aware: gradients flowing into an operand
  whose shape was broadcast are summed back to the operand's shape by
  :func:`unbroadcast`.
* A module-level no-grad switch (:func:`no_grad`) disables graph
  construction for inference paths, which both saves memory and matches
  the usual deep-learning-framework contract.
* ``float64`` is the default dtype: the test-suite validates every
  operator against central finite differences, which needs the headroom.
* Backward closures capture their inputs, never their own output, and
  route adjoints through the free function :func:`_send`; so a graph is
  acyclic and reference counting frees it as soon as the last output is
  dropped, without waiting for the cyclic collector.
* An op may be a whole computation, not one arithmetic step: a fused op
  (e.g. :func:`repro.nn.functional.gru_sequence`) is one node whose
  backward is hand-derived.  Such an op has a composite reference built
  from the primitive ops, kept in the tests, that it must match.
* :func:`stable_sigmoid` is the one sigmoid of the package: ``Tensor``,
  the fused GRU recurrence and the inference kernel all call it.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator

import numpy as np

from repro.errors import GradientError, ShapeError

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor", "stable_sigmoid"]

_GRAD_ENABLED = True

# Adjoint staging area for the backward pass currently in flight.  Backward
# passes are synchronous and never nested, so a module-level dict (keyed by
# tensor identity) is sufficient and avoids storing traversal state on the
# slotted Tensor instances themselves.
_ACTIVE_ADJOINTS: dict[int, np.ndarray] | None = None


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables computation-graph construction."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the computation graph."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting.

    Broadcasting either prepends new axes or stretches size-1 axes; its
    adjoint sums over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically-stable sigmoid, written into ``out`` (may alias ``x``).

    Uses the identity ``sigmoid(x) = (tanh(x / 2) + 1) / 2``: ``tanh``
    saturates instead of overflowing, and the four ufunc calls beat the
    piecewise ``e^{-|x|}`` formulation's eight — recurrences run this
    once per gate block per timestep, so call count matters.
    """
    if out is None:
        out = np.empty_like(x)
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _send(parent: "Tensor", grad: np.ndarray) -> None:
    """Route ``grad`` to ``parent`` during a backward pass.

    Leaves accumulate into ``.grad``; interior nodes stage the adjoint in
    the traversal's dictionary so each op's backward runs exactly once
    with the full adjoint.  A free function, so that no backward closure
    needs a reference to its own output: every graph node stays acyclic
    and is freed by reference counting the moment the graph is dropped.
    """
    if not parent.requires_grad:
        return
    if parent._backward is None:
        parent._accumulate(grad)
        return
    assert _ACTIVE_ADJOINTS is not None, "_send outside an active backward pass"
    existing = _ACTIVE_ADJOINTS.get(id(parent))
    _ACTIVE_ADJOINTS[id(parent)] = grad if existing is None else existing + grad


def _is_basic_index(index: object) -> bool:
    """True for ints, slices, ``None`` and ``...`` (alone or in a tuple):
    indices that address every selected element at most once."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items
    )


def scatter_add_rows(target: np.ndarray, rows: np.ndarray,
                     updates: np.ndarray) -> None:
    """``np.add.at(target, rows, updates)`` for an integer row index, as
    one pass over the flattened, C-contiguous ``target``.

    ``np.add.at`` applies its adds one after another in index order, and
    the flat indices ``row * width + column`` keep that order for every
    cell, so the result is bitwise the row-wise one; the flat form only
    drops numpy's per-row overhead.
    """
    if not target.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous target")
    rows = np.where(rows < 0, rows + target.shape[0], rows).reshape(-1, 1)
    width = int(np.prod(target.shape[1:]))
    np.add.at(target.reshape(-1), (rows * width + np.arange(width)).reshape(-1),
              updates.reshape(-1))


def _coerce_array(data: object, dtype: np.dtype | None) -> np.ndarray:
    array = np.asarray(data, dtype=dtype if dtype is not None else None)
    if array.dtype.kind in "iub":  # integers/bools promote to float for autodiff
        array = array.astype(np.float64)
    return array


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything :func:`numpy.asarray` accepts.  Integer and boolean
        inputs are promoted to ``float64`` because gradients only make
        sense for floating-point leaves.
    requires_grad:
        Whether gradients should be accumulated into this tensor when
        :meth:`backward` runs on a descendant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "__weakref__")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        dtype: np.dtype | None = None,
        name: str | None = None,
    ) -> None:
        self.data = _coerce_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        """True when this tensor was created by the user, not an op."""
        return not self._parents

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        name_note = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_note}{name_note})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        if self.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a new leaf tensor with a copy of this tensor's data."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output, wiring the graph only when grad is enabled."""
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if needs_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` seeds the output adjoint; it defaults to 1.0 and is only
        optional for scalar tensors.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise GradientError(
                    f"backward() on non-scalar tensor of shape {self.shape} requires an "
                    "explicit gradient seed"
                )
            seed = np.ones_like(self.data)
        else:
            seed = np.broadcast_to(np.asarray(grad, dtype=self.data.dtype), self.shape).copy()

        global _ACTIVE_ADJOINTS
        if _ACTIVE_ADJOINTS is not None:
            raise GradientError("nested backward() calls are not supported")
        order = self._topological_order()
        adjoints: dict[int, np.ndarray] = {id(self): seed}
        _ACTIVE_ADJOINTS = adjoints
        try:
            for node in order:
                adjoint = adjoints.pop(id(node), None)
                if adjoint is None:
                    continue
                if node._backward is None:
                    # A leaf (or a detached node): accumulate into .grad.
                    if node.requires_grad:
                        node._accumulate(adjoint)
                    continue
                node._backward(adjoint)
        finally:
            _ACTIVE_ADJOINTS = None

    def _topological_order(self) -> list["Tensor"]:
        """Reverse topological order (outputs first) via iterative DFS."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Arithmetic ops (broadcast-aware)
    # ------------------------------------------------------------------
    def _binary(
        self,
        other: "Tensor | float",
        forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
        grad_a: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        grad_b: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        other_t = as_tensor(other)
        a, b = self, other_t
        data = forward(a.data, b.data)

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                _send(a, unbroadcast(grad_a(g, a.data, b.data), a.shape))
            if b.requires_grad:
                _send(b, unbroadcast(grad_b(g, a.data, b.data), b.shape))

        return Tensor._make(data, (a, b), backward)

    def __add__(self, other: "Tensor | float") -> "Tensor":
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        return self._binary(
            other,
            np.divide,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            _send(a, -g)

        return Tensor._make(-a.data, (a,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self
        data = a.data**exponent

        def backward(g: np.ndarray) -> None:
            _send(a, g * exponent * a.data ** (exponent - 1))

        return Tensor._make(data, (a,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self, as_tensor(other)
        if a.ndim < 1 or b.ndim < 1:
            raise ShapeError("matmul requires tensors with at least one dimension")
        data = a.data @ b.data

        def backward(g: np.ndarray) -> None:
            if a.ndim == 1 and b.ndim == 1:  # inner product
                if a.requires_grad:
                    _send(a, g * b.data)
                if b.requires_grad:
                    _send(b, g * a.data)
                return
            if a.requires_grad:
                if b.ndim == 1:
                    ga = np.outer(g, b.data) if a.ndim == 2 else g[..., None] * b.data
                else:
                    ga = g @ np.swapaxes(b.data, -1, -2)
                _send(a, unbroadcast(ga, a.shape))
            if b.requires_grad:
                if a.ndim == 1:
                    gb = np.outer(a.data, g)
                else:
                    gb = np.swapaxes(a.data, -1, -2) @ g
                _send(b, unbroadcast(gb, b.shape))

        return Tensor._make(data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def _unary(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        grad_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        """``grad_fn(g, x, y)`` receives the adjoint, the input, the output."""
        a = self
        data = forward(a.data)

        def backward(g: np.ndarray) -> None:
            _send(a, grad_fn(g, a.data, data))

        return Tensor._make(data, (a,), backward)

    def exp(self) -> "Tensor":
        return self._unary(np.exp, lambda g, x, y: g * y)

    def log(self) -> "Tensor":
        return self._unary(np.log, lambda g, x, y: g / x)

    def sqrt(self) -> "Tensor":
        return self._unary(np.sqrt, lambda g, x, y: g / (2.0 * y))

    def tanh(self) -> "Tensor":
        return self._unary(np.tanh, lambda g, x, y: g * (1.0 - y * y))

    def sigmoid(self) -> "Tensor":
        return self._unary(stable_sigmoid, lambda g, x, y: g * y * (1.0 - y))

    def clip(self, low: float, high: float) -> "Tensor":
        if low > high:
            raise ValueError(f"clip bounds are inverted: [{low}, {high}]")
        return self._unary(
            lambda x: np.clip(x, low, high),
            lambda g, x, y: g * ((x >= low) & (x <= high)).astype(x.dtype),
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(ax % a.ndim for ax in axes):
                    grad = np.expand_dims(grad, ax)
            _send(a, np.broadcast_to(grad, a.shape).copy())

        return Tensor._make(data, (a,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[ax] for ax in axes]))
        if count == 0:
            raise ShapeError("mean over zero elements")
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = data if keepdims or axis is None else np.expand_dims(data, axis)
            grad_out = g if keepdims or axis is None else np.expand_dims(g, axis)
            mask = (a.data == expanded).astype(a.data.dtype)
            # Split the adjoint between ties, matching the subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            _send(a, np.broadcast_to(grad_out, a.shape) * mask / counts)

        return Tensor._make(data, (a,), backward)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        data = a.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            _send(a, g.reshape(a.shape))

        return Tensor._make(data, (a,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        a = self
        order = axes if axes else tuple(reversed(range(a.ndim)))
        data = a.data.transpose(order)
        inverse = np.argsort(order)

        def backward(g: np.ndarray) -> None:
            _send(a, g.transpose(inverse))

        return Tensor._make(data, (a,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-compatible alias
        return self.transpose()

    def __getitem__(self, index: object) -> "Tensor":
        a = self
        data = a.data[index]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(a.data)
            if _is_basic_index(index):
                grad[index] = g
            elif isinstance(index, np.ndarray) and index.dtype.kind in "iu":
                grad = np.ascontiguousarray(grad)  # a row lookup
                scatter_add_rows(grad, index, g)
            else:  # integer arrays may repeat an index: scatter-add
                np.add.at(grad, index, g)
            _send(a, grad)

        return Tensor._make(np.ascontiguousarray(data), (a,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows by integer index — the embedding-lookup primitive.

        Equivalent to ``self[indices]`` but documents intent and keeps the
        scatter-add backward (duplicate indices accumulate, which is what
        an embedding matrix shared across a batch requires).
        """
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise TypeError("take_rows requires integer indices")
        return self[idx]


def as_tensor(value: "Tensor | float | np.ndarray", dtype: np.dtype | None = None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)
