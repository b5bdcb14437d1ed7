"""Kernel-backend protocol and registry.

A :class:`KernelBackend` implements the *array-level* primitives the
timed kernels in :mod:`repro.kernels.ops` build their functional
closures from. Backends receive raw ``np.ndarray`` payloads (and
:class:`~repro.sparse.csr.CSRMatrix` tiles) — never engine, stream or
tensor objects — so they stay oblivious to the discrete-event layer and
can be swapped without touching any scheduler.

Backends register under a short name via :func:`register_backend` with
an optional availability probe (e.g. "is its runtime importable?"); resolution
via :func:`get_backend` caches one instance per name (backends are
stateless).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class BackendUnavailableError(ConfigurationError):
    """Requested backend exists but its runtime dependency is missing."""


class KernelBackend:
    """Array-level kernel primitives; subclasses override what they speed up.

    The base-class bodies are *exactly* the reference numpy semantics;
    a subclass only overrides the primitives it implements differently
    (e.g. ``gemm_batch`` for stacked BLAS, ``spmm`` for a compiled
    kernel) and inherits the rest.
    """

    #: registry name, set on subclasses
    name = "base"
    #: True when results are bit-identical to the numpy reference (the
    #: parity suite asserts equality instead of allclose when set).
    bit_identical = True

    # -- dense -----------------------------------------------------------------

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray,
        transpose_a: bool = False,
        transpose_b: bool = False,
        accumulate: bool = False,
    ) -> None:
        """``out (+)= op(a) @ op(b)``."""
        lhs = a.T if transpose_a else a
        rhs = b.T if transpose_b else b
        product = lhs @ rhs
        if accumulate:
            out += product
        else:
            np.copyto(out, product)

    def gemm_batch(
        self,
        ops: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        transpose_a: bool = False,
        transpose_b: bool = False,
        accumulate: bool = False,
    ) -> None:
        """A group of same-shape GeMMs ``[(a, b, out), ...]``.

        The reference implementation loops :meth:`gemm`; batched backends
        may stack the group into one kernel launch. All operands in one
        call share shapes, dtypes and flags (the callers batch per layer,
        where this holds by construction).
        """
        for a, b, out in ops:
            self.gemm(a, b, out, transpose_a=transpose_a,
                      transpose_b=transpose_b, accumulate=accumulate)

    # -- sparse ----------------------------------------------------------------

    def spmm(self, tile, dense: np.ndarray, out: np.ndarray,
             accumulate: bool = True) -> None:
        """``out (+)= tile @ dense`` for a CSR tile."""
        tile.spmm_into(dense, out, accumulate=accumulate)

    # -- activations / epilogues -----------------------------------------------

    def relu(self, x: np.ndarray) -> None:
        """In-place ReLU."""
        np.maximum(x, 0.0, out=x)

    def relu_grad(self, grad: np.ndarray, activated: np.ndarray) -> None:
        """In-place ``grad *= (activated > 0)``."""
        grad *= activated > 0

    def gemm_relu_grad(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray,
        transpose_b: bool = True,
    ) -> None:
        """``out = (a @ op(b)) * (out > 0)`` — GeMM with ReLU-mask epilogue."""
        rhs = b.T if transpose_b else b
        product = a @ rhs
        np.multiply(product, out > 0, out=out)


# -- registry ------------------------------------------------------------------

_REGISTRY: Dict[str, Tuple[Callable[[], KernelBackend],
                           Optional[Callable[[], bool]]]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    available: Optional[Callable[[], bool]] = None,
) -> None:
    """Register ``factory`` under ``name``.

    ``available`` is an optional zero-arg probe; when it returns False,
    :func:`get_backend` raises :class:`BackendUnavailableError` and
    :func:`available_backends` omits the name.
    """
    _REGISTRY[name] = (factory, available)
    _INSTANCES.pop(name, None)


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend by name (cached singleton per name)."""
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        )
    factory, available = entry
    if available is not None and not available():
        raise BackendUnavailableError(
            f"kernel backend {name!r} is registered but unavailable "
            f"(missing runtime dependency)"
        )
    inst = factory()
    _INSTANCES[name] = inst
    return inst


def available_backends() -> List[str]:
    """Names of registered backends whose availability probes pass."""
    out: List[str] = []
    for name, (_, available) in sorted(_REGISTRY.items()):
        if available is None or available():
            out.append(name)
    return out


def registered_backends() -> List[Tuple[str, bool]]:
    """Every registered ``(name, available)`` pair, sorted by name."""
    return [
        (name, available is None or bool(available()))
        for name, (_, available) in sorted(_REGISTRY.items())
    ]
