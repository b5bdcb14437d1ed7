"""Unit: the kernel-backend registry and backend/reference parity.

Every non-reference backend must produce results matching the ``numpy``
reference: bitwise when it advertises ``bit_identical`` (blas_batched —
numpy's 3-D matmul runs the same 2-D GEMM kernel per slice), within
rtol=1e-5 otherwise. The matrix of
shapes x dtypes x transpose/accumulate flags below covers the operand
layouts the trainers actually submit, plus the ragged-group fallback
path of ``blas_batched``. The ``backends`` marker guards a longer
randomized sweep (deselected from tier-1 by default).
"""

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailableError,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.errors import ConfigurationError
from repro.sparse.csr import CSRMatrix

REFERENCE = get_backend("numpy")

#: every registered backend whose probe passes, reference excluded.
NON_REFERENCE = [n for n in available_backends() if n != "numpy"]


def _random_csr(rng, rows, cols, density=0.3, dtype=np.float32):
    dense = rng.standard_normal((rows, cols)).astype(dtype)
    dense[rng.random((rows, cols)) > density] = 0.0
    return CSRMatrix.from_dense(dense)


def _assert_matches(backend, got, want):
    if backend.bit_identical:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


class TestRegistry:
    def test_reference_and_blas_always_available(self):
        names = available_backends()
        assert "numpy" in names
        assert "blas_batched" in names

    def test_registered_backends_lists_unavailable_too(self):
        register_backend("always_off", KernelBackend, available=lambda: False)
        try:
            status = dict(registered_backends())
            assert status["numpy"] is True
            assert status["always_off"] is False
        finally:
            from repro.backends.base import _INSTANCES, _REGISTRY

            _REGISTRY.pop("always_off", None)
            _INSTANCES.pop("always_off", None)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("tensorrt")

    def test_unavailable_backend_raises_specific_error(self):
        register_backend("always_off", KernelBackend, available=lambda: False)
        try:
            with pytest.raises(BackendUnavailableError):
                get_backend("always_off")
            assert "always_off" not in available_backends()
        finally:
            from repro.backends.base import _INSTANCES, _REGISTRY

            _REGISTRY.pop("always_off", None)
            _INSTANCES.pop("always_off", None)

    def test_get_backend_is_singleton_per_name(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("blas_batched") is not get_backend("numpy")


@pytest.mark.parametrize("name", NON_REFERENCE)
class TestGemmParity:
    SHAPES = [(1, 1, 1), (7, 3, 5), (32, 16, 8), (64, 1, 9)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transpose_a", [False, True])
    @pytest.mark.parametrize("transpose_b", [False, True])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_gemm_flag_matrix(self, name, dtype, transpose_a, transpose_b,
                              accumulate):
        backend = get_backend(name)
        rng = np.random.default_rng(3)
        for m, k, n in self.SHAPES:
            a = rng.standard_normal((k, m) if transpose_a else (m, k))
            b = rng.standard_normal((n, k) if transpose_b else (k, n))
            a = a.astype(dtype)
            b = b.astype(dtype)
            seed_out = rng.standard_normal((m, n)).astype(dtype)
            want = seed_out.copy()
            got = seed_out.copy()
            REFERENCE.gemm(a, b, want, transpose_a=transpose_a,
                           transpose_b=transpose_b, accumulate=accumulate)
            backend.gemm(a, b, got, transpose_a=transpose_a,
                         transpose_b=transpose_b, accumulate=accumulate)
            _assert_matches(backend, got, want)

    @pytest.mark.parametrize("group", [1, 2, 5])
    @pytest.mark.parametrize("transpose_a", [False, True])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_gemm_batch_uniform_group(self, name, group, transpose_a,
                                      accumulate):
        backend = get_backend(name)
        rng = np.random.default_rng(11)
        m, k, n = 12, 6, 4
        ops_ref, ops_got = [], []
        for _ in range(group):
            a = rng.standard_normal(
                (k, m) if transpose_a else (m, k)
            ).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            out = rng.standard_normal((m, n)).astype(np.float32)
            ops_ref.append((a, b, out.copy()))
            ops_got.append((a, b, out.copy()))
        REFERENCE.gemm_batch(ops_ref, transpose_a=transpose_a,
                             accumulate=accumulate)
        backend.gemm_batch(ops_got, transpose_a=transpose_a,
                           accumulate=accumulate)
        for (_, _, want), (_, _, got) in zip(ops_ref, ops_got):
            _assert_matches(backend, got, want)

    def test_gemm_batch_ragged_group_falls_back(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(5)
        shapes = [(8, 4, 3), (8, 4, 3), (5, 4, 3)]  # ragged last block
        ops_ref, ops_got = [], []
        for m, k, n in shapes:
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            ops_ref.append((a, b, np.empty((m, n), dtype=np.float32)))
            ops_got.append((a, b, np.empty((m, n), dtype=np.float32)))
        REFERENCE.gemm_batch(ops_ref)
        backend.gemm_batch(ops_got)
        for (_, _, want), (_, _, got) in zip(ops_ref, ops_got):
            _assert_matches(backend, got, want)


@pytest.mark.parametrize("name", NON_REFERENCE)
class TestSparseAndEpilogueParity:
    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (9, 13), (40, 24)])
    def test_spmm(self, name, shape, accumulate):
        backend = get_backend(name)
        rng = np.random.default_rng(17)
        rows, cols = shape
        tile = _random_csr(rng, rows, cols)
        dense = rng.standard_normal((cols, 6)).astype(np.float32)
        seed_out = rng.standard_normal((rows, 6)).astype(np.float32)
        want = seed_out.copy()
        got = seed_out.copy()
        REFERENCE.spmm(tile, dense, want, accumulate=accumulate)
        backend.spmm(tile, dense, got, accumulate=accumulate)
        _assert_matches(backend, got, want)

    def test_spmm_empty_tile(self, name):
        backend = get_backend(name)
        tile = CSRMatrix.empty((4, 4))
        dense = np.ones((4, 3), dtype=np.float32)
        want = np.full((4, 3), 2.0, dtype=np.float32)
        got = want.copy()
        REFERENCE.spmm(tile, dense, want, accumulate=False)
        backend.spmm(tile, dense, got, accumulate=False)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, 0.0)

    def test_relu_and_grad(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(23)
        x_want = rng.standard_normal((11, 7)).astype(np.float32)
        x_got = x_want.copy()
        REFERENCE.relu(x_want)
        backend.relu(x_got)
        np.testing.assert_array_equal(x_got, x_want)

        grad_want = rng.standard_normal((11, 7)).astype(np.float32)
        grad_got = grad_want.copy()
        REFERENCE.relu_grad(grad_want, x_want)
        backend.relu_grad(grad_got, x_got)
        np.testing.assert_array_equal(grad_got, grad_want)

    def test_gemm_relu_grad(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(29)
        a = rng.standard_normal((10, 4)).astype(np.float32)
        b = rng.standard_normal((6, 4)).astype(np.float32)
        seed_out = rng.standard_normal((10, 6)).astype(np.float32)
        want = seed_out.copy()
        got = seed_out.copy()
        REFERENCE.gemm_relu_grad(a, b, want)
        backend.gemm_relu_grad(a, b, got)
        _assert_matches(backend, got, want)


@pytest.mark.backends
@pytest.mark.parametrize("name", NON_REFERENCE)
class TestRandomizedSweep:
    """Property-style sweep over random shapes/densities (long; opt-in)."""

    def test_gemm_random_shapes(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(101)
        for _ in range(200):
            m, k, n = (int(v) for v in rng.integers(1, 48, size=3))
            ta, tb, acc = (bool(v) for v in rng.integers(0, 2, size=3))
            dtype = np.float32 if rng.integers(0, 2) else np.float64
            a = rng.standard_normal((k, m) if ta else (m, k)).astype(dtype)
            b = rng.standard_normal((n, k) if tb else (k, n)).astype(dtype)
            seed_out = rng.standard_normal((m, n)).astype(dtype)
            want = seed_out.copy()
            got = seed_out.copy()
            REFERENCE.gemm(a, b, want, transpose_a=ta, transpose_b=tb,
                           accumulate=acc)
            backend.gemm(a, b, got, transpose_a=ta, transpose_b=tb,
                         accumulate=acc)
            _assert_matches(backend, got, want)

    def test_gemm_batch_random_groups(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(103)
        for _ in range(100):
            group = int(rng.integers(1, 9))
            m, k, n = (int(v) for v in rng.integers(1, 32, size=3))
            acc = bool(rng.integers(0, 2))
            ops_ref, ops_got = [], []
            for _ in range(group):
                a = rng.standard_normal((m, k)).astype(np.float32)
                b = rng.standard_normal((k, n)).astype(np.float32)
                out = rng.standard_normal((m, n)).astype(np.float32)
                ops_ref.append((a, b, out.copy()))
                ops_got.append((a, b, out.copy()))
            REFERENCE.gemm_batch(ops_ref, accumulate=acc)
            backend.gemm_batch(ops_got, accumulate=acc)
            for (_, _, want), (_, _, got) in zip(ops_ref, ops_got):
                _assert_matches(backend, got, want)

    def test_spmm_random_tiles(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(107)
        for _ in range(100):
            rows = int(rng.integers(1, 64))
            cols = int(rng.integers(1, 64))
            width = int(rng.integers(1, 16))
            density = float(rng.uniform(0.0, 0.5))
            acc = bool(rng.integers(0, 2))
            tile = _random_csr(rng, rows, cols, density=density)
            dense = rng.standard_normal((cols, width)).astype(np.float32)
            seed_out = rng.standard_normal((rows, width)).astype(np.float32)
            want = seed_out.copy()
            got = seed_out.copy()
            REFERENCE.spmm(tile, dense, want, accumulate=acc)
            backend.spmm(tile, dense, got, accumulate=acc)
            _assert_matches(backend, got, want)
