"""Dense device tensors with functional and symbolic execution modes.

A :class:`DeviceTensor` is a shape/dtype descriptor plus an optional NumPy
payload, tied to an allocation on a :class:`~repro.device.device.VirtualGPU`.

* In :attr:`Mode.FUNCTIONAL` the payload is a real ``ndarray`` and every
  kernel computes real results — used by tests, examples and scaled
  benchmark runs, so the reproduction is *numerically* faithful.
* In :attr:`Mode.SYMBOLIC` the payload is ``None``; kernels only account
  cost and memory. This is how the benchmark harness "runs" graphs such
  as ogbn-papers100M (111M vertices / 1.61B edges) that cannot be
  materialised in host RAM: the schedule, byte counts and timings are
  exactly those of a functional run.

Tensors do not implement autograd — the paper's framework computes
backward passes manually (eqs. (8)–(11)), and so does ours in
:mod:`repro.nn.gcn_layer`.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import ModeError, ShapeError
from repro.device.memory import Allocation


class Mode(enum.Enum):
    """Execution mode of a tensor (and, transitively, of a run)."""

    FUNCTIONAL = "functional"
    SYMBOLIC = "symbolic"


class DeviceTensor:
    """A 2-D (or 1-D) dense tensor resident on a virtual GPU.

    Instances are created through :meth:`VirtualGPU.empty` /
    :meth:`VirtualGPU.from_numpy`, which perform the memory accounting.
    """

    __slots__ = ("shape", "dtype", "device", "mode", "data", "allocation", "name")

    def __init__(
        self,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        device: "VirtualGPU",
        mode: Mode,
        data: Optional[np.ndarray],
        allocation: Optional[Allocation],
        name: str = "",
    ):
        if any(int(s) < 0 for s in shape):
            raise ShapeError(f"negative dimension in shape {shape}")
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.device = device
        self.mode = mode
        self.data = data
        self.allocation = allocation
        self.name = name
        if mode is Mode.FUNCTIONAL:
            if data is None:
                raise ModeError(f"functional tensor {name!r} requires data")
            if tuple(data.shape) != self.shape:
                raise ShapeError(
                    f"tensor {name!r}: data shape {data.shape} != declared {self.shape}"
                )
            if data.dtype != self.dtype:
                raise ShapeError(
                    f"tensor {name!r}: data dtype {data.dtype} != declared {self.dtype}"
                )
        elif data is not None:
            raise ModeError(f"symbolic tensor {name!r} must not carry data")

    # -- geometry -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def rows(self) -> int:
        """First dimension (0 for 0-d tensors)."""
        return self.shape[0] if self.shape else 0

    @property
    def cols(self) -> int:
        """Second dimension; 1 for 1-D tensors."""
        if self.ndim >= 2:
            return self.shape[1]
        return 1

    # -- payload access -------------------------------------------------------

    def require_data(self) -> np.ndarray:
        """Return the NumPy payload; error in symbolic mode."""
        if self.data is None:
            raise ModeError(
                f"tensor {self.name!r} is symbolic; operation requires functional mode"
            )
        return self.data

    def copy_to_numpy(self) -> np.ndarray:
        """A host copy of the payload (functional mode only)."""
        return self.require_data().copy()

    def fill_(self, value: float) -> "DeviceTensor":
        """In-place fill (no-op in symbolic mode)."""
        if self.data is not None:
            self.data.fill(value)
        return self

    def load_(self, array: np.ndarray) -> "DeviceTensor":
        """In-place overwrite of the payload from a host array."""
        if self.mode is Mode.SYMBOLIC:
            return self
        if tuple(array.shape) != self.shape:
            raise ShapeError(
                f"tensor {self.name!r}: cannot load shape {array.shape} "
                f"into {self.shape}"
            )
        np.copyto(self.require_data(), array.astype(self.dtype, copy=False))
        return self

    def view(self, rows: int) -> "DeviceTensor":
        """A leading-rows view sharing this tensor's allocation.

        Used by the broadcast buffers: the same physical buffer holds
        whatever tile is currently in flight, and a stage operates on a
        row-prefix view sized to that tile (no copy, no new allocation) —
        the core of the paper's buffer-reuse scheme.
        """
        if self.ndim != 2:
            raise ShapeError(f"view requires a 2-D tensor, got shape {self.shape}")
        if rows < 0 or rows > self.shape[0]:
            raise ShapeError(
                f"view of {rows} rows out of range for shape {self.shape}"
            )
        data = self.data[:rows] if self.data is not None else None
        return DeviceTensor(
            shape=(rows, self.shape[1]),
            dtype=self.dtype,
            device=self.device,
            mode=self.mode,
            data=data,
            allocation=None,  # views never own memory
            name=f"{self.name}[:{rows}]",
        )

    def view2d(self, rows: int, cols: int) -> "DeviceTensor":
        """A top-left ``(rows, cols)`` window view (shares the allocation).

        The shared ``HW`` scratch and broadcast buffers are allocated at
        their maximum geometry and windowed per layer/stage, so one
        physical buffer serves operands of different widths — the
        mechanism behind the paper's L+3 buffer count.
        """
        if self.ndim != 2:
            raise ShapeError(f"view2d requires a 2-D tensor, got shape {self.shape}")
        if not (0 <= rows <= self.shape[0] and 0 <= cols <= self.shape[1]):
            raise ShapeError(
                f"view2d ({rows}, {cols}) out of range for shape {self.shape}"
            )
        data = self.data[:rows, :cols] if self.data is not None else None
        return DeviceTensor(
            shape=(rows, cols),
            dtype=self.dtype,
            device=self.device,
            mode=self.mode,
            data=data,
            allocation=None,
            name=f"{self.name}[:{rows},:{cols}]",
        )

    def free(self) -> None:
        """Release the underlying device memory (owning tensors only)."""
        if self.allocation is not None:
            self.allocation.free()
            self.allocation = None
        self.data = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeviceTensor({self.name!r}, shape={self.shape}, dtype={self.dtype}, "
            f"device={self.device.name}, mode={self.mode.value})"
        )


def check_same_mode(*tensors: DeviceTensor) -> Mode:
    """All tensors must share one mode; returns it."""
    modes = {t.mode for t in tensors}
    if len(modes) != 1:
        raise ModeError(
            "mixed functional/symbolic tensors in one kernel: "
            + ", ".join(f"{t.name}:{t.mode.value}" for t in tensors)
        )
    return modes.pop()
