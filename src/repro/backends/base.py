"""Array-level kernel primitives: GeMM, CSR SpMM, ReLU and epilogues.

:class:`KernelBackend` implements the primitives the timed kernels in
:mod:`repro.kernels.ops` build their functional closures from. It
receives raw ``np.ndarray`` payloads (and
:class:`~repro.sparse.csr.CSRMatrix` tiles) — never engine, stream or
tensor objects — so the numerics stay oblivious to the discrete-event
layer.
"""

from __future__ import annotations

import numpy as np


class KernelBackend:
    """Array-level kernel primitives (stateless; one instance is shared)."""

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
