"""Adam (Kingma & Ba): the reference optimizer and the replicated one.

* :class:`AdamOptimizer` steps a list of host weight arrays. It is the
  optimizer of the oracle (:class:`~repro.nn.reference.ReferenceGCN`)
  and of the mini-batch trainer.
* :class:`ReplicatedAdam` owns every simulated GPU's replica of the
  weights, their gradients and the Adam moments, plus the step counter.
  MG-GCN and the CAGNET/DGL baselines all step through it, so they take
  the same replicated-weight Adam step (§4.1) with one set of
  hyper-parameters, and each update is charged on every rank's stream.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.kernels.cost import CostModel
from repro.kernels.ops import adam_step_op
from repro.nn.init import init_weights


class AdamOptimizer:
    """Adam with bias correction; state arrays match the weights' dtypes."""

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0) or not (0.0 <= beta2 < 1.0):
            raise ConfigurationError(
                f"betas must be in [0, 1), got ({beta1}, {beta2})"
            )
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.weights = list(weights)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: List[np.ndarray] = [np.zeros_like(w) for w in self.weights]
        self.v: List[np.ndarray] = [np.zeros_like(w) for w in self.weights]

    @property
    def num_state_bytes(self) -> int:
        """Device bytes of the optimizer state (m and v)."""
        return sum(a.nbytes for a in self.m) + sum(a.nbytes for a in self.v)

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """Apply one Adam update in place on the registered weights."""
        if len(grads) != len(self.weights):
            raise ConfigurationError(
                f"got {len(grads)} gradients for {len(self.weights)} weights"
            )
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for w, g, m, v in zip(self.weights, grads, self.m, self.v):
            if g.shape != w.shape:
                raise ConfigurationError(
                    f"gradient shape {g.shape} != weight shape {w.shape}"
                )
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            m_hat = m / bc1
            v_hat = v / bc2
            w -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReplicatedAdam:
    """Every rank's weights ``W{l}``, gradients ``WG{l}`` and Adam
    moments ``m{l}``/``v{l}``, and the step that updates them.

    Allocates, on every device of ``ctx`` in rank order, each layer's
    four ``(d_l, d_{l+1})`` tensors. In FUNCTIONAL mode the weights start
    from :func:`~repro.nn.init.init_weights` and the rest at zero; in
    SYMBOLIC mode all four are metadata-only. Replicas start identical,
    and stay identical as long as every rank steps with the same reduced
    gradient.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, ctx: SimContext, layer_dims: Sequence[int],
                 lr: float, seed: int):
        self.ctx = ctx
        self.lr = lr
        #: Adam step counter; a trainer advances it once per epoch.
        self.t = 0
        self.weights: List[List[DeviceTensor]] = []
        self.grads: List[List[DeviceTensor]] = []
        self.m: List[List[DeviceTensor]] = []
        self.v: List[List[DeviceTensor]] = []
        functional = ctx.mode is Mode.FUNCTIONAL
        init = init_weights(layer_dims, seed=seed) if functional else None
        for rank in range(ctx.num_gpus):
            dev = ctx.device(rank)
            w_l, g_l, m_l, v_l = [], [], [], []
            for l in range(len(layer_dims) - 1):
                shape = (layer_dims[l], layer_dims[l + 1])
                if functional:
                    w_l.append(dev.from_numpy(init[l].copy(), name=f"W{l}",
                                              tag="weights"))
                    g_l.append(dev.zeros(shape, name=f"WG{l}", tag="weights"))
                    m_l.append(dev.zeros(shape, name=f"m{l}", tag="adam"))
                    v_l.append(dev.zeros(shape, name=f"v{l}", tag="adam"))
                else:
                    w_l.append(dev.symbolic(shape, name=f"W{l}", tag="weights"))
                    g_l.append(dev.symbolic(shape, name=f"WG{l}", tag="weights"))
                    m_l.append(dev.symbolic(shape, name=f"m{l}", tag="adam"))
                    v_l.append(dev.symbolic(shape, name=f"v{l}", tag="adam"))
            self.weights.append(w_l)
            self.grads.append(g_l)
            self.m.append(m_l)
            self.v.append(v_l)

    def _step_count(self) -> int:
        return self.t

    def step(self, rank: int, layer: int, cost: CostModel,
             deps: Sequence[Event] = ()) -> Event:
        """Update ``rank``'s replica of layer ``layer`` from its gradient.

        Submits ``adam{layer}`` on the rank's compute stream. The step
        count is read through a callable when the update runs, so an
        epoch captured into an execution plan replays with the live
        count rather than the capture epoch's.
        """
        engine = self.ctx.engine
        stream = self.ctx.device(rank).compute_stream
        w = self.weights[rank][layer]
        if self.ctx.mode is Mode.FUNCTIONAL:
            return adam_step_op(
                engine, cost, stream, w.data, self.grads[rank][layer].data,
                self.m[rank][layer].data, self.v[rank][layer].data,
                t=self._step_count, lr=self.lr, beta1=self.BETA1,
                beta2=self.BETA2, eps=self.EPS, deps=deps,
                name=f"adam{layer}",
            )
        return engine.submit(stream, f"adam{layer}", "adam",
                             cost.adam_time(w.size), deps=deps,
                             flops=10.0 * w.size)
