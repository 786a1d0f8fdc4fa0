"""Dense tensors with an explicit reverse-mode tape.

Ops record onto the innermost active Tape (a `with Tape():` block). With no
tape active, or when no input carries gradient, ops run forward-only; frozen
parameters are shareable for concurrent inference while a training step owns
its tape exclusively. The tape stack and checked mode are per thread.

backward() consumes the tape: its sweep releases each recorded node, and with
it the activations the node holds, as soon as it has passed the node, so a
step's memory is freed during the sweep rather than by the cyclic garbage
collector. A second backward() through the same tape raises TapeConsumedError.
It returns each leaf's gradient as an ndarray in a map; a Tensor holds no
gradient, so none outlives the step that reads it.

Importing the module sets the process's glibc malloc policy so that memory the
sweep frees stays mapped for the next step (see _keep_freed_memory_mapped).
"""

from __future__ import annotations

import ctypes
import platform
import threading
from typing import Callable, Iterable, Optional

import numpy as np

from ..errors import NonFiniteValueError, NonScalarLossError, TapeConsumedError


class _ThreadState(threading.local):
    def __init__(self):
        self.tapes: list = []
        self.checked = False


_state = _ThreadState()


def active_tape():
    tapes = _state.tapes
    return tapes[-1] if tapes else None


class checked_mode:
    """Context manager enabling NaN/Inf screening of every op output (and
    backward gradients) in the calling thread within a block."""

    def __enter__(self):
        self._prev = _state.checked
        _state.checked = True
        return self

    def __exit__(self, *exc):
        _state.checked = self._prev
        return False


def guard_finite(data: np.ndarray, op_name: str) -> None:
    if _state.checked and not np.all(np.isfinite(data)):
        raise NonFiniteValueError(f"{op_name} produced non-finite values")


class Tensor:
    """Shape + row-major buffer; leaves may carry requires_grad."""

    __slots__ = ("data", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype == np.float16 or not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.tape = None  # set when an op on an active tape produced this tensor

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    __slots__ = ("op_name", "inputs", "output", "backward_fn")

    def __init__(self, op_name: str, inputs: tuple, output: Tensor,
                 backward_fn: Callable[[np.ndarray], Iterable[Optional[np.ndarray]]]):
        self.op_name = op_name
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Append-only op record; node inputs always precede the node."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self):
        _state.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _state.tapes.pop()
        return False

    def record(self, op_name, inputs, output, backward_fn) -> None:
        output.requires_grad = True
        output.tape = self
        self.nodes.append(Node(op_name, tuple(inputs), output, backward_fn))

    def __len__(self):
        return len(self.nodes)


def backward(loss: Tensor) -> dict:
    """Reverse sweep from a scalar loss.

    Returns {leaf Tensor: gradient ndarray} for every requires_grad leaf the
    loss depends on, each in its leaf's shape, since every op's backward
    returns its inputs' shapes. The leaves themselves are left unchanged, so a
    gradient lives only as long as the caller keeps the map. Gradients sum
    across fan-out. Consumes the loss's tape: each node is released once the
    sweep passes it.
    """
    if loss.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    tape: Optional[Tape] = loss.tape
    if tape is None:
        return {}
    if tape.consumed:
        raise TapeConsumedError("backward() already ran through this tape")
    # Each output points at its tape and the tape's nodes point back at their
    # outputs; dropping the node list breaks that cycle.
    tape.consumed = True
    nodes, tape.nodes = tape.nodes, []
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    while nodes:
        # Popping frees each node, and the arrays its backward_fn captured,
        # as soon as the sweep has passed it.
        node = nodes.pop()
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for tensor, ig in zip(node.inputs, input_grads):
            if ig is None or not tensor.requires_grad:
                continue
            guard_finite(ig, f"{node.op_name} backward")
            key = id(tensor)
            acc = grads.get(key)
            grads[key] = ig if acc is None else acc + ig
            if tensor.tape is None:
                leaves[key] = tensor
    return {leaf: grads[key] for key, leaf in leaves.items()}


# glibc <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_mapped() -> tuple:
    """Stop glibc handing the memory backward() frees back to the kernel.

    By default glibc gives the free top of its heap back to the kernel, and
    the sweep frees a step's activations while that top is otherwise free; the
    next step's forward then page-faults the same memory in again (~1.6 M
    minor faults in 20 s of desk sincnet training). A 1 GiB trim threshold
    keeps it. Setting it switches off glibc's dynamic mmap threshold, so the
    mmap threshold is pinned too, at 32 MiB, the ceiling that dynamic threshold
    reaches on 64-bit: smaller arrays come from the heap and are reused, larger
    ones keep their own mappings and cannot fragment it. The cost is that RSS
    stays near its peak until the process exits. The policy changes speed,
    never a computed value. Other C libraries are left alone.

    Returns mallopt's results (1 = accepted), or () off glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return ()
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 1 << 30))


_keep_freed_memory_mapped()
