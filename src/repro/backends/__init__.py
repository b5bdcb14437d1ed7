"""Pluggable kernel backends for the functional NumPy compute layer.

The discrete-event engine separates *time* (the roofline cost model)
from *results* (functional closures mutating device buffers in place).
This package makes the result side pluggable: a
:class:`~repro.backends.base.KernelBackend` supplies the array-level
primitives the kernel closures in :mod:`repro.kernels.ops` call —
dense GeMM, CSR SpMM, activation (+ fused epilogues) and their batched
forms — while the timing, stream, capture and telemetry machinery is
untouched. Backend choice flows through ``TrainerConfig.kernel_backend``
/ ``ServingConfig.kernel_backend`` (and the ``--backend`` CLI flags)
onto ``Engine.backend``, so no call site outside the registry changes.

Registered backends:

``numpy``
    The reference implementation — exactly the closure bodies the
    kernels always ran. Every other backend is validated against it.
``blas_batched``
    Batches groups of same-shape GeMMs (the per-rank frontier/layer
    loops) into single stacked ``np.matmul`` calls. Bit-identical to
    ``numpy`` per slice (batched BLAS runs the same kernel per matrix).
"""

from repro.backends.base import (
    BackendUnavailableError,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.backends.blas_batched import BlasBatchedBackend
from repro.backends.numpy_backend import NumpyBackend

__all__ = [
    "BackendUnavailableError",
    "KernelBackend",
    "NumpyBackend",
    "BlasBatchedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
]
