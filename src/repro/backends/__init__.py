"""The kernel set behind the functional NumPy compute layer.

The discrete-event engine separates *time* (the roofline cost model)
from *results* (functional closures mutating device buffers in place).
:class:`~repro.backends.base.KernelBackend` holds the array-level
primitives the kernel closures in :mod:`repro.kernels.ops` call — dense
GeMM, CSR SpMM, activation and the fused ReLU-mask epilogue — the
reproduction's stand-in for cuBLAS and cuSPARSE. Every engine reads
the one shared instance on ``Engine.backend``.
"""

from repro.backends.base import KernelBackend

__all__ = ["KernelBackend"]
