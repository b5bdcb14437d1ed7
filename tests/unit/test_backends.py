"""Unit: the numerics of the one kernel set, :class:`KernelBackend`.

Each primitive, and the per-rank GeMM group closure of
:func:`~repro.kernels.ops.gemm_many` built on it, is checked against
the plain NumPy expression it stands for. GeMM, ReLU and the fused
ReLU-mask epilogue run the same NumPy calls as that expression, so they
must match bitwise; CSR SpMM sums in a different order than a dense
product, so it matches within rtol. The matrix of shapes x dtypes x
transpose/accumulate flags covers the operand layouts the trainers
submit; the randomized sweeps at the end cover arbitrary shapes and
densities.
"""

import numpy as np
import pytest

from repro.backends import KernelBackend
from repro.device import Engine, VirtualGPU
from repro.hardware.machines import V100
from repro.kernels.cost import CostModel
from repro.kernels.ops import gemm_many
from repro.sparse.csr import CSRMatrix

KERNELS = KernelBackend()


def _random_csr(rng, rows, cols, density=0.3, dtype=np.float32):
    """A random CSR tile and the dense matrix it was built from."""
    dense = rng.standard_normal((rows, cols)).astype(dtype)
    dense[rng.random((rows, cols)) > density] = 0.0
    return CSRMatrix.from_dense(dense), dense


def _gemm_expected(a, b, seed_out, transpose_a, transpose_b, accumulate):
    product = (a.T if transpose_a else a) @ (b.T if transpose_b else b)
    return seed_out + product if accumulate else product


def _check_gemm(rng, m, k, n, dtype, transpose_a, transpose_b, accumulate):
    a = rng.standard_normal((k, m) if transpose_a else (m, k)).astype(dtype)
    b = rng.standard_normal((n, k) if transpose_b else (k, n)).astype(dtype)
    seed_out = rng.standard_normal((m, n)).astype(dtype)
    got = seed_out.copy()
    KERNELS.gemm(a, b, got, transpose_a=transpose_a,
                 transpose_b=transpose_b, accumulate=accumulate)
    want = _gemm_expected(a, b, seed_out, transpose_a, transpose_b,
                          accumulate)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


def _check_spmm(rng, rows, cols, width, accumulate, density=0.3):
    tile, tile_dense = _random_csr(rng, rows, cols, density=density)
    dense = rng.standard_normal((cols, width)).astype(np.float32)
    seed_out = rng.standard_normal((rows, width)).astype(np.float32)
    got = seed_out.copy()
    KERNELS.spmm(tile, dense, got, accumulate=accumulate)
    product = tile_dense @ dense
    want = seed_out + product if accumulate else product
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestGemmParity:
    SHAPES = [(1, 1, 1), (7, 3, 5), (32, 16, 8), (64, 1, 9)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transpose_a", [False, True])
    @pytest.mark.parametrize("transpose_b", [False, True])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_gemm_flag_matrix(self, dtype, transpose_a, transpose_b,
                              accumulate):
        rng = np.random.default_rng(3)
        for m, k, n in self.SHAPES:
            _check_gemm(rng, m, k, n, dtype, transpose_a, transpose_b,
                        accumulate)


class TestGemmMany:
    """One group closure runs every rank's GeMM of a per-rank loop."""

    @staticmethod
    def _check_group(shapes, transpose_a=False, accumulate=False):
        rng = np.random.default_rng(11)
        cost = CostModel(V100)
        items, expected = [], []
        for rank, (m, k, n) in enumerate(shapes):
            dev = VirtualGPU(V100, rank=rank)
            a = rng.standard_normal((k, m) if transpose_a else (m, k))
            a = a.astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            seed_out = rng.standard_normal((m, n)).astype(np.float32)
            items.append((dev.compute_stream, cost, dev.from_numpy(a),
                          dev.from_numpy(b), dev.from_numpy(seed_out), ()))
            expected.append(_gemm_expected(a, b, seed_out, transpose_a,
                                           False, accumulate))
        gemm_many(Engine(), items, transpose_a=transpose_a,
                  accumulate=accumulate)
        for (_, _, _, _, out, _), want in zip(items, expected):
            np.testing.assert_array_equal(out.data, want)

    @pytest.mark.parametrize("group", [1, 2, 5])
    @pytest.mark.parametrize("transpose_a", [False, True])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_uniform_group(self, group, transpose_a, accumulate):
        self._check_group([(12, 6, 4)] * group, transpose_a, accumulate)

    def test_ragged_group(self):
        # the uniform row partition's ragged last block
        self._check_group([(8, 4, 3), (8, 4, 3), (5, 4, 3)])


class TestSparseAndEpilogueParity:
    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (9, 13), (40, 24)])
    def test_spmm(self, shape, accumulate):
        rows, cols = shape
        _check_spmm(np.random.default_rng(17), rows, cols, 6, accumulate)

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_spmm_empty_tile(self, accumulate):
        tile = CSRMatrix.empty((4, 4))
        dense = np.ones((4, 3), dtype=np.float32)
        out = np.full((4, 3), 2.0, dtype=np.float32)
        KERNELS.spmm(tile, dense, out, accumulate=accumulate)
        np.testing.assert_array_equal(out, 2.0 if accumulate else 0.0)

    def test_relu_and_grad(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((11, 7)).astype(np.float32)
        want_x = np.maximum(x, 0.0)
        KERNELS.relu(x)
        np.testing.assert_array_equal(x, want_x)

        grad = rng.standard_normal((11, 7)).astype(np.float32)
        want_grad = grad * (x > 0)
        KERNELS.relu_grad(grad, x)
        np.testing.assert_array_equal(grad, want_grad)

    @pytest.mark.parametrize("transpose_b", [True, False])
    def test_gemm_relu_grad(self, transpose_b):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((10, 4)).astype(np.float32)
        b = rng.standard_normal((6, 4) if transpose_b else (4, 6))
        b = b.astype(np.float32)
        seed_out = rng.standard_normal((10, 6)).astype(np.float32)
        got = seed_out.copy()
        KERNELS.gemm_relu_grad(a, b, got, transpose_b=transpose_b)
        want = (a @ (b.T if transpose_b else b)) * (seed_out > 0)
        np.testing.assert_array_equal(got, want)


class TestRandomizedSweep:
    """Random shapes, densities and flags (a few hundred tiny cases)."""

    def test_gemm_random_shapes(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            m, k, n = (int(v) for v in rng.integers(1, 48, size=3))
            ta, tb, acc = (bool(v) for v in rng.integers(0, 2, size=3))
            dtype = np.float32 if rng.integers(0, 2) else np.float64
            _check_gemm(rng, m, k, n, dtype, ta, tb, acc)

    def test_spmm_random_tiles(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            rows = int(rng.integers(1, 64))
            cols = int(rng.integers(1, 64))
            width = int(rng.integers(1, 16))
            density = float(rng.uniform(0.0, 0.5))
            acc = bool(rng.integers(0, 2))
            _check_spmm(rng, rows, cols, width, acc, density=density)
