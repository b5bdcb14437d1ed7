"""Timed kernels: functional NumPy compute + simulated duration.

Each kernel:

1. builds a functional *closure* that performs the real computation
   in-place on the output tensor's payload (no closure in symbolic mode),
2. executes the closure eagerly, in host program order,
3. submits a cost-model duration to the given stream, handing the
   closure to the engine so an active epoch capture
   (:mod:`repro.plan`) can record it for replay,
4. returns the op's completion :class:`~repro.device.stream.Event`.

Functional compute happens eagerly in host program order, which is a
valid sequentialisation of the simulated schedule because the schedulers
in :mod:`repro.core` submit ops in data-dependency order per buffer —
and it is exactly the order a replayed plan re-runs the closures in.

Closures dereference tensor payloads (``t.data``) at call time, so they
stay valid as long as buffers are mutated in place (the invariant the
shared-buffer scheme already relies on).

Array-level math is delegated to the engine's shared
:class:`~repro.backends.KernelBackend` (``engine.backend``), the one
kernel set every path calls. Beyond the single-op kernels, this
module provides *batched* submission (:func:`gemm_many` /
:func:`spmm_many` / :func:`relu_many` /
:func:`gemm_relu_backward_many` — one ``Engine.submit_many`` call and one
group closure for a per-rank loop), bit-identical to the op-at-a-time
kernels; the trainer's eager epoch runs every per-rank loop through them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.engine import Engine
from repro.device.stream import Event, Stream
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ShapeError
from repro.kernels.cost import CostModel
from repro.sparse.csr import CSRMatrix


def _functional(*tensors: DeviceTensor) -> bool:
    """True when every tensor carries data (functional run)."""
    return all(t.data is not None for t in tensors)


def _dims(t: DeviceTensor, transpose: bool) -> Tuple[int, int]:
    r, c = t.rows, t.cols
    return (c, r) if transpose else (r, c)


def gemm(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    a: DeviceTensor,
    b: DeviceTensor,
    out: DeviceTensor,
    transpose_a: bool = False,
    transpose_b: bool = False,
    accumulate: bool = False,
    deps: Sequence[Event] = (),
    name: str = "gemm",
    bw_fraction: float = 1.0,
) -> Event:
    """``out (+)= op(a) @ op(b)`` — the cuBLAS-style dense kernel."""
    m, k = _dims(a, transpose_a)
    k2, n = _dims(b, transpose_b)
    if k != k2:
        raise ShapeError(
            f"{name}: inner dims differ: op(a)={m}x{k}, op(b)={k2}x{n}"
        )
    if (out.rows, out.cols) != (m, n):
        raise ShapeError(f"{name}: out is {out.rows}x{out.cols}, expected {m}x{n}")
    compute: Optional[Callable[[], None]] = None
    if _functional(a, b, out):
        backend = engine.backend

        def compute() -> None:
            backend.gemm(
                a.data, b.data, out.data,
                transpose_a=transpose_a,
                transpose_b=transpose_b,
                accumulate=accumulate,
            )

        compute()
    duration = cost.gemm_time(m, n, k, itemsize=out.dtype.itemsize,
                              bw_fraction=bw_fraction)
    return engine.submit(stream, name, "gemm", duration, deps=deps,
                         compute=compute, flops=2.0 * m * n * k)


def _spmm_duration(
    cost: CostModel,
    rows: int,
    nnz: int,
    d: int,
    dense_rows: int,
    itemsize: int,
    bw_fraction: float,
    overlap_comm_time: float,
) -> float:
    """SpMM duration with §6.3's bounded overlap derate (see :func:`spmm`).

    Memoized on the cost model alongside the plain kernel times: the
    derate arithmetic runs once per distinct operand signature, then
    every per-tile submission is a single cache hit.
    """
    return cost._memoize(
        ("spmm_overlap", rows, nnz, d, dense_rows, itemsize, bw_fraction,
         overlap_comm_time),
        lambda: _spmm_duration_uncached(cost, rows, nnz, d, dense_rows,
                                        itemsize, bw_fraction,
                                        overlap_comm_time),
    )


def _spmm_duration_uncached(
    cost: CostModel,
    rows: int,
    nnz: int,
    d: int,
    dense_rows: int,
    itemsize: int,
    bw_fraction: float,
    overlap_comm_time: float,
) -> float:
    base = cost.spmm_time(
        rows=rows, nnz=nnz, d=d, dense_rows=dense_rows,
        itemsize=itemsize, bw_fraction=1.0,
    )
    if overlap_comm_time > 0.0 and bw_fraction < 1.0:
        fully_derated = cost.spmm_time(
            rows=rows, nnz=nnz, d=d, dense_rows=dense_rows,
            itemsize=itemsize, bw_fraction=bw_fraction,
        )
        partially_derated = base + overlap_comm_time * (1.0 - bw_fraction)
        return min(fully_derated, partially_derated)
    if bw_fraction < 1.0:
        return cost.spmm_time(
            rows=rows, nnz=nnz, d=d, dense_rows=dense_rows,
            itemsize=itemsize, bw_fraction=bw_fraction,
        )
    return base


def spmm(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    tile,
    dense: DeviceTensor,
    out: DeviceTensor,
    accumulate: bool = True,
    deps: Sequence[Event] = (),
    stage: Optional[int] = None,
    name: str = "spmm",
    bw_fraction: float = 1.0,
    overlap_comm_time: float = 0.0,
) -> Event:
    """``out (+)= tile @ dense`` — the cuSPARSE-style CSR SpMM.

    ``tile`` may be a :class:`CSRMatrix` (functional) or a
    :class:`~repro.sparse.symbolic.SymbolicCSR` (symbolic runs).

    ``overlap_comm_time`` models §6.3's bandwidth sharing: while a
    broadcast of that duration is in flight, the SpMM runs at
    ``bw_fraction`` of its memory bandwidth; once the broadcast drains,
    it runs at full speed. The slowdown is therefore bounded both by
    the fully-derated duration and by ``base + B * (1 - f)``.
    """
    rows, k = tile.shape
    if dense.rows != k:
        raise ShapeError(
            f"{name}: tile is {rows}x{k} but dense operand has {dense.rows} rows"
        )
    if (out.rows, out.cols) != (rows, dense.cols):
        raise ShapeError(
            f"{name}: out is {out.rows}x{out.cols}, expected {rows}x{dense.cols}"
        )
    compute: Optional[Callable[[], None]] = None
    if isinstance(tile, CSRMatrix) and _functional(dense, out):
        backend = engine.backend

        def compute() -> None:
            backend.spmm(tile, dense.data, out.data, accumulate=accumulate)

        compute()
    duration = _spmm_duration(
        cost, rows, tile.nnz, dense.cols, k, out.dtype.itemsize,
        bw_fraction, overlap_comm_time,
    )
    return engine.submit(stream, name, "spmm", duration, deps=deps,
                         stage=stage, compute=compute,
                         flops=2.0 * tile.nnz * dense.cols)


def gemm_relu_backward(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    a: DeviceTensor,
    b: DeviceTensor,
    out: DeviceTensor,
    transpose_b: bool = True,
    deps: Sequence[Event] = (),
    name: str = "gemm_relu_bwd",
) -> Event:
    """``out = (a @ op(b)) * (out > 0)`` — eq. (11) fused with eq. (8).

    The GeMM producing the propagated gradient ``H_G = HW_G W^T`` writes
    directly into the previous layer's output buffer, with an epilogue
    that multiplies each element by that buffer's ReLU mask *as it is
    overwritten*. This fusion (a cuBLAS epilogue in the real system) is
    what lets the gradient share the forward activation's buffer and is
    load-bearing for the paper's L+3 buffer count.
    """
    m, k = a.rows, a.cols
    kb, n = _dims(b, transpose_b)
    if k != kb:
        raise ShapeError(f"{name}: inner dims differ: {k} vs {kb}")
    if (out.rows, out.cols) != (m, n):
        raise ShapeError(f"{name}: out is {out.rows}x{out.cols}, expected {m}x{n}")
    compute: Optional[Callable[[], None]] = None
    if _functional(a, b, out):
        backend = engine.backend

        def compute() -> None:
            backend.gemm_relu_grad(a.data, b.data, out.data,
                                   transpose_b=transpose_b)

        compute()
    duration = cost.gemm_time(m, n, k, itemsize=out.dtype.itemsize)
    return engine.submit(stream, name, "gemm", duration, deps=deps,
                         compute=compute, flops=2.0 * m * n * k + m * n)


def gemm_relu_backward_many(
    engine: Engine,
    items: Sequence[tuple],
    transpose_b: bool = True,
    name: str = "gemm_relu_bwd",
) -> List[Event]:
    """A per-rank fused gradient-GeMM loop as one engine call.

    ``items`` is ``[(stream, cost, a, b, out, deps), ...]``; each runs
    ``out = (a @ op(b)) * (out > 0)`` like :func:`gemm_relu_backward`.
    Bit-identical to calling it per item in order.
    """
    if not items:
        return []
    backend = engine.backend
    specs = []
    group = []
    for stream, cost, a, b, out, deps in items:
        m, k = a.rows, a.cols
        kb, n = _dims(b, transpose_b)
        if k != kb:
            raise ShapeError(f"{name}: inner dims differ: {k} vs {kb}")
        if (out.rows, out.cols) != (m, n):
            raise ShapeError(
                f"{name}: out is {out.rows}x{out.cols}, expected {m}x{n}"
            )
        if _functional(a, b, out):
            group.append((a, b, out))
        duration = cost.gemm_time(m, n, k, itemsize=out.dtype.itemsize)
        specs.append((stream, name, "gemm", duration, tuple(deps), None, 0,
                      None, None, 2.0 * m * n * k + m * n))
    compute: Optional[Callable[[], None]] = None
    if group:

        def compute() -> None:
            for a, b, out in group:
                backend.gemm_relu_grad(a.data, b.data, out.data,
                                       transpose_b=transpose_b)

    return submit_group(engine, specs, compute)


def relu_forward(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    tensor: DeviceTensor,
    deps: Sequence[Event] = (),
    name: str = "relu",
) -> Event:
    """In-place ReLU (the paper applies sigma in-place on the AHW buffer)."""
    compute: Optional[Callable[[], None]] = None
    if tensor.data is not None:
        backend = engine.backend

        def compute() -> None:
            backend.relu(tensor.data)

        compute()
    duration = cost.elementwise_time(tensor.size, reads=1, writes=1,
                                     itemsize=tensor.dtype.itemsize)
    return engine.submit(stream, name, "activation", duration, deps=deps,
                         compute=compute, flops=float(tensor.size))


def relu_backward(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    grad: DeviceTensor,
    activated: DeviceTensor,
    deps: Sequence[Event] = (),
    name: str = "relu_bwd",
) -> Event:
    """In-place ``grad *= (activated > 0)`` — eq. (8)'s sigma'.

    ``activated`` holds the *post*-activation values (ReLU was applied
    in-place), whose positivity mask equals the pre-activation mask.
    """
    if grad.shape != activated.shape:
        raise ShapeError(
            f"{name}: grad {grad.shape} vs activation {activated.shape}"
        )
    compute: Optional[Callable[[], None]] = None
    if _functional(grad, activated):
        backend = engine.backend

        def compute() -> None:
            backend.relu_grad(grad.data, activated.data)

        compute()
    duration = cost.elementwise_time(grad.size, reads=2, writes=1,
                                     itemsize=grad.dtype.itemsize)
    return engine.submit(stream, name, "activation", duration, deps=deps,
                         compute=compute, flops=float(grad.size))


def softmax_cross_entropy(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    logits: DeviceTensor,
    labels: Optional[np.ndarray],
    mask: Optional[np.ndarray],
    grad_out: DeviceTensor,
    total_train: int,
    deps: Sequence[Event] = (),
    name: str = "softmax_xent",
) -> Tuple[float, Event]:
    """Fused softmax + cross-entropy loss + gradient.

    ``labels``/``mask`` are host arrays local to this device's row block
    (labels int64, mask bool; ``mask`` selects training vertices).
    ``grad_out`` receives ``(softmax - onehot) / total_train`` on masked
    rows and zero elsewhere; ``total_train`` is the global number of
    training vertices so that partitioned and single-device runs compute
    identical gradients. Returns ``(local_loss_sum, event)`` — the caller
    is responsible for reducing losses across devices. Under capture the
    closure's return value is what replay re-accumulates per epoch.
    """
    if (grad_out.rows, grad_out.cols) != (logits.rows, logits.cols):
        raise ShapeError(
            f"{name}: grad_out {grad_out.shape} != logits {logits.shape}"
        )
    if total_train <= 0:
        raise ValueError(f"{name}: total_train must be positive, got {total_train}")
    loss_value = 0.0
    compute: Optional[Callable[[], float]] = None
    if _functional(logits, grad_out) and labels is not None:

        def compute() -> float:
            z = logits.data
            row_mask = mask if mask is not None else np.ones(z.shape[0], dtype=bool)
            rows = np.nonzero(row_mask)[0]
            # Read the logits *before* clearing grad_out: the trainer
            # aliases grad_out to the logits buffer (the gradient replaces
            # the layer output in the paper's buffer-reuse scheme, eq. (19)).
            loss = 0.0
            probs = None
            if rows.size:
                sub = z[rows].copy()
                shifted = sub - sub.max(axis=1, keepdims=True)
                exp = np.exp(shifted)
                denom = exp.sum(axis=1, keepdims=True)
                log_probs = shifted - np.log(denom)
                picked = log_probs[np.arange(rows.size), labels[rows]]
                loss = float(-picked.sum())
                probs = exp / denom
                probs[np.arange(rows.size), labels[rows]] -= 1.0
            grad_out.data.fill(0.0)
            if probs is not None:
                grad_out.data[rows] = probs / total_train
            return loss

        loss_value = compute()
    duration = cost.softmax_xent_time(logits.rows, logits.cols,
                                      itemsize=logits.dtype.itemsize)
    event = engine.submit(stream, name, "loss", duration, deps=deps,
                          compute=compute,
                          flops=5.0 * logits.rows * logits.cols)
    return loss_value, event


def adam_step_op(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: Union[int, Callable[[], int]],
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    deps: Sequence[Event] = (),
    name: str = "adam",
) -> Event:
    """One Adam update over host-resident (replicated) weight arrays.

    Weights are replicated per-device in the real system; the simulated
    epoch charges the update once per device (the trainer submits this op
    on every device's stream). Functional math runs once on the shared
    arrays — pass ``param=None`` on replicas to skip recomputation.

    ``t`` may be an int or a zero-arg callable returning the current
    step; trainers that support epoch replay pass a callable so the
    captured closure reads the live step count each epoch instead of
    baking in the capture epoch's value.
    """
    compute: Optional[Callable[[], None]] = None
    if param is not None:

        def compute() -> None:
            step = t() if callable(t) else t
            # explicit out= forms of m *= ..., m += ... etc.: augmented
            # assignment would rebind the enclosing-scope names.
            np.multiply(m, beta1, out=m)
            np.add(m, (1.0 - beta1) * grad, out=m)
            np.multiply(v, beta2, out=v)
            np.add(v, (1.0 - beta2) * np.square(grad), out=v)
            m_hat = m / (1.0 - beta1**step)
            v_hat = v / (1.0 - beta2**step)
            np.subtract(param, lr * m_hat / (np.sqrt(v_hat) + eps), out=param)

        compute()
        size = param.size
        itemsize = param.dtype.itemsize
    else:
        size = grad.size
        itemsize = grad.dtype.itemsize
    duration = cost.adam_time(size, itemsize=itemsize)
    return engine.submit(stream, name, "adam", duration, deps=deps,
                         compute=compute, flops=10.0 * size)


def memset(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    tensor: DeviceTensor,
    value: float = 0.0,
    deps: Sequence[Event] = (),
    name: str = "memset",
) -> Event:
    """Fill a tensor (models cudaMemsetAsync)."""

    def compute() -> None:
        tensor.fill_(value)

    compute()
    duration = cost.memset_time(tensor.nbytes)
    return engine.submit(stream, name, "memset", duration, deps=deps,
                         compute=compute)


def scale(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    tensor: DeviceTensor,
    factor: float,
    deps: Sequence[Event] = (),
    name: str = "scale",
) -> Event:
    """In-place ``tensor *= factor``."""
    compute: Optional[Callable[[], None]] = None
    if tensor.data is not None:

        def compute() -> None:
            tensor.data *= factor

        compute()
    duration = cost.elementwise_time(tensor.size, reads=1, writes=1,
                                     itemsize=tensor.dtype.itemsize)
    return engine.submit(stream, name, "elementwise", duration, deps=deps,
                         compute=compute, flops=float(tensor.size))


def add_(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    dst: DeviceTensor,
    src: DeviceTensor,
    deps: Sequence[Event] = (),
    name: str = "add",
) -> Event:
    """In-place ``dst += src`` (both on the same device)."""
    if dst.shape != src.shape:
        raise ShapeError(f"{name}: {dst.shape} += {src.shape}")
    compute: Optional[Callable[[], None]] = None
    if _functional(dst, src):

        def compute() -> None:
            dst.data += src.data

        compute()
    duration = cost.elementwise_time(dst.size, reads=2, writes=1,
                                     itemsize=dst.dtype.itemsize)
    return engine.submit(stream, name, "elementwise", duration, deps=deps,
                         compute=compute, flops=float(dst.size))


# -- batched submission --------------------------------------------------------


def submit_group(
    engine: Engine,
    specs: List[tuple],
    compute: Optional[Callable[[], None]],
) -> List[Event]:
    """Run a group's closure, then submit its specs as one engine call.

    The closure rides on the first op, so replay runs it once at that
    op's slot (program order of the batch is preserved). ``compute`` is
    None when no item is functional.
    """
    if compute is not None:
        compute()
        specs[0] = specs[0][:7] + (compute, None, specs[0][9])
    return engine.submit_many(specs)


def gemm_many(
    engine: Engine,
    items: Sequence[tuple],
    transpose_a: bool = False,
    transpose_b: bool = False,
    accumulate: bool = False,
    name: str = "gemm",
) -> List[Event]:
    """A per-rank GeMM loop as one engine call.

    ``items`` is ``[(stream, cost, a, b, out, deps), ...]`` sharing the
    flag set. Functionally one group closure runs every item's
    ``backend.gemm``, and the group is submitted with one
    :meth:`Engine.submit_many`. Timing, events and trace are
    bit-identical to calling :func:`gemm` per item in order.
    """
    if not items:
        return []
    backend = engine.backend
    # Specs are built inline so the batched path pays no per-item
    # closure allocation — one of the two Python dispatch costs this
    # helper exists to remove.
    specs = []
    functional = True
    for stream, cost, a, b, out, deps in items:
        m, k = _dims(a, transpose_a)
        k2, n = _dims(b, transpose_b)
        if k != k2:
            raise ShapeError(
                f"{name}: inner dims differ: op(a)={m}x{k}, op(b)={k2}x{n}"
            )
        if (out.rows, out.cols) != (m, n):
            raise ShapeError(
                f"{name}: out is {out.rows}x{out.cols}, expected {m}x{n}"
            )
        if a.data is None or b.data is None or out.data is None:
            functional = False
        duration = cost.gemm_time(m, n, k, itemsize=out.dtype.itemsize,
                                  bw_fraction=1.0)
        specs.append((stream, name, "gemm", duration, tuple(deps), None, 0,
                      None, None, 2.0 * m * n * k))
    compute: Optional[Callable[[], None]] = None
    if functional:
        triples = [(a, b, out) for _, _, a, b, out, _ in items]

        def compute() -> None:
            for a, b, out in triples:
                backend.gemm(a.data, b.data, out.data,
                             transpose_a=transpose_a,
                             transpose_b=transpose_b,
                             accumulate=accumulate)

    return submit_group(engine, specs, compute)


def build_spmm_group(
    engine: Engine,
    items: Sequence[tuple],
    accumulate: bool = True,
    stage: Optional[int] = None,
    name: str = "spmm",
    bw_fraction: float = 1.0,
    overlap_comm_time: float = 0.0,
) -> tuple:
    """Validate one SpMM group; return its ``(specs, compute)`` pair.

    ``items`` is ``[(stream, cost, tile, dense, out, deps), ...]``.
    Shared by :func:`spmm_many` (which executes and submits immediately)
    and :mod:`repro.core.spmm_mg`, whose stages keep these per-tile specs
    but, without a training cache, drop the group closure for one
    row-block closure per call. The returned group closure runs one
    backend SpMM per item; it is NOT yet executed and not attached to
    any spec, and is ``None`` when no item is functional.
    """
    backend = engine.backend
    # inline spec construction: no per-item closure allocation.
    specs = []
    group = []
    for stream, cost, tile, dense, out, deps in items:
        rows, k = tile.shape
        d = dense.cols
        nnz = tile.nnz
        if dense.rows != k:
            raise ShapeError(
                f"{name}: tile is {rows}x{k} but dense operand has "
                f"{dense.rows} rows"
            )
        if (out.rows, out.cols) != (rows, d):
            raise ShapeError(
                f"{name}: out is {out.rows}x{out.cols}, expected {rows}x{d}"
            )
        if isinstance(tile, CSRMatrix) and dense.data is not None \
                and out.data is not None:
            group.append((tile, dense, out))
        duration = _spmm_duration(cost, rows, nnz, d, k, out.dtype.itemsize,
                                  bw_fraction, overlap_comm_time)
        specs.append((stream, name, "spmm", duration, tuple(deps), stage, 0,
                      None, None, 2.0 * nnz * d))
    if not group:
        return specs, None

    def compute() -> None:
        # deref .data at call time, like the single-op closures, so
        # replay sees in-place buffer mutations.
        for tile, dense, out in group:
            backend.spmm(tile, dense.data, out.data, accumulate=accumulate)

    return specs, compute


def spmm_many(
    engine: Engine,
    items: Sequence[tuple],
    accumulate: bool = True,
    stage: Optional[int] = None,
    name: str = "spmm",
    bw_fraction: float = 1.0,
    overlap_comm_time: float = 0.0,
) -> List[Event]:
    """A per-rank SpMM group (one multi-stage stage) as one engine call.

    ``items`` is ``[(stream, cost, tile, dense, out, deps), ...]``; the
    group shares ``accumulate``/``stage``/derating. One group closure
    runs every rank's CSR SpMM through the backend; one
    :meth:`Engine.submit_many` schedules them. Bit-identical to calling
    :func:`spmm` per item in order.
    """
    if not items:
        return []
    specs, compute = build_spmm_group(
        engine, items, accumulate=accumulate, stage=stage, name=name,
        bw_fraction=bw_fraction, overlap_comm_time=overlap_comm_time,
    )
    return submit_group(engine, specs, compute)


def relu_many(
    engine: Engine,
    items: Sequence[tuple],
    name: str = "relu",
) -> List[Event]:
    """A per-rank in-place ReLU loop as one engine call.

    ``items`` is ``[(stream, cost, tensor, deps), ...]``. Bit-identical
    to calling :func:`relu_forward` per item in order.
    """
    if not items:
        return []
    backend = engine.backend
    # inline spec construction: no per-item closure allocation.
    specs = []
    group = []
    for stream, cost, tensor, deps in items:
        if tensor.data is not None:
            group.append(tensor)
        duration = cost.elementwise_time(tensor.size, reads=1, writes=1,
                                         itemsize=tensor.dtype.itemsize)
        specs.append((stream, name, "activation", duration, tuple(deps),
                      None, 0, None, None, float(tensor.size)))
    compute: Optional[Callable[[], None]] = None
    if group:

        def compute() -> None:
            for tensor in group:
                backend.relu(tensor.data)

    return submit_group(engine, specs, compute)
