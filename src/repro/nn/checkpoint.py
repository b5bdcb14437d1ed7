"""Trainer checkpointing: save/restore weights + Adam state.

Checkpoints are single ``.npz`` files holding the replicated model
state from rank 0 (weights, Adam first/second moments, step counter,
epoch counter) plus the architecture for validation at load time.
Loading redistributes the state to every rank's replica, so training
resumes bit-identically in FUNCTIONAL mode.

Writes are **atomic** (staged to a temp file in the target directory,
then ``os.replace``-d into place) so a crash mid-save never leaves a
truncated checkpoint where a good one used to be, and each payload
carries a SHA-256 **checksum** over its arrays that is verified on
load — silent corruption surfaces as :class:`~repro.errors.CheckpointError`
instead of garbage weights. Checksum-less checkpoints from older
writers still load.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.device.tensor import Mode
from repro.errors import CheckpointError, ConfigurationError
from repro.nn.model import GCNModelSpec

PathLike = Union[str, os.PathLike]

_FORMAT_VERSION = 1
#: payload keys excluded from the checksum (the checksum itself).
_CHECKSUM_KEY = "checksum_sha256"


def _payload_digest(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and raw bytes."""
    h = hashlib.sha256()
    for key in sorted(payload):
        if key == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(payload[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _atomic_savez(payload: Dict[str, np.ndarray], path: PathLike) -> None:
    """Checksum ``payload`` and write it atomically to ``path``(.npz)."""
    payload[_CHECKSUM_KEY] = np.frombuffer(
        _payload_digest(payload).encode(), dtype=np.uint8
    )
    # np.savez appends ".npz" to bare paths; resolve the real target so
    # the staged file is replaced onto the same name the loader opens.
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    directory = os.path.dirname(final) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(final) + ".", suffix=".tmp", dir=directory
    )
    try:
        # hand savez the open file object: it must not "helpfully"
        # append .npz to the temp name, or the replace below misses.
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **payload)
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint(trainer, path: PathLike) -> None:
    """Persist an :class:`~repro.core.trainer.MGGCNTrainer`'s state
    (its :class:`~repro.nn.adam.ReplicatedAdam` and epoch counter).

    The write is atomic: readers of ``path`` see either the previous
    complete checkpoint or the new complete checkpoint, never a
    partial file.
    """
    if trainer.mode is not Mode.FUNCTIONAL:
        raise ConfigurationError("checkpointing requires functional mode")
    adam = trainer.adam
    payload = {
        "format_version": np.asarray(_FORMAT_VERSION),
        "layer_dims": np.asarray(trainer.model.layer_dims, dtype=np.int64),
        "adam_t": np.asarray(adam.t, dtype=np.int64),
        "epochs_trained": np.asarray(trainer.epochs_trained, dtype=np.int64),
    }
    for layer in range(trainer.model.num_layers):
        payload[f"w{layer}"] = adam.weights[0][layer].data
        payload[f"m{layer}"] = adam.m[0][layer].data
        payload[f"v{layer}"] = adam.v[0][layer].data
    _atomic_savez(payload, path)


def load_checkpoint(trainer, path: PathLike) -> None:
    """Restore a checkpoint into ``trainer`` (all replicas), in place."""
    if trainer.mode is not Mode.FUNCTIONAL:
        raise ConfigurationError("checkpointing requires functional mode")
    with np.load(path, allow_pickle=False) as bundle:
        if "format_version" not in bundle:
            raise ConfigurationError(f"{path}: not a repro checkpoint")
        version = int(bundle["format_version"])
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported checkpoint version {version}"
            )
        payload = {key: bundle[key] for key in bundle.files}
        if _CHECKSUM_KEY in payload:
            stored = bytes(payload[_CHECKSUM_KEY]).decode()
            actual = _payload_digest(payload)
            if stored != actual:
                raise CheckpointError(
                    f"{path}: checksum mismatch (stored {stored[:12]}…, "
                    f"computed {actual[:12]}…) — checkpoint is corrupt"
                )
        dims = tuple(int(d) for d in payload["layer_dims"])
        if dims != trainer.model.layer_dims:
            raise ConfigurationError(
                f"{path}: checkpoint architecture {dims} != trainer "
                f"{trainer.model.layer_dims}"
            )
        adam = trainer.adam
        adam.t = int(payload["adam_t"])
        trainer.epochs_trained = int(payload["epochs_trained"])
        for layer in range(trainer.model.num_layers):
            w = payload[f"w{layer}"]
            m = payload[f"m{layer}"]
            v = payload[f"v{layer}"]
            for rank in range(trainer.ctx.num_gpus):
                adam.weights[rank][layer].load_(w)
                adam.m[rank][layer].load_(m)
                adam.v[rank][layer].load_(v)


# -- inference-only restore (no trainer) -------------------------------------


def save_weights(weights: Sequence[np.ndarray], path: PathLike) -> None:
    """Persist bare layer weights as an inference-only checkpoint.

    The payload carries only ``layer_dims`` + per-layer ``w{l}`` arrays
    (no optimizer state), checksummed and written atomically — the
    export format a serving process restores with :func:`load_weights`.
    ``weights[l]`` must be the 2-D ``(d_l, d_{l+1})`` weight of layer
    ``l`` with conforming widths.
    """
    if not weights:
        raise ConfigurationError("save_weights: empty weight list")
    dims: List[int] = []
    for l, w in enumerate(weights):
        w = np.asarray(w)
        if w.ndim != 2:
            raise ConfigurationError(
                f"save_weights: weight {l} must be 2-D, got shape {w.shape}"
            )
        if l == 0:
            dims.append(int(w.shape[0]))
        elif w.shape[0] != dims[-1]:
            raise ConfigurationError(
                f"save_weights: layer {l} input width {w.shape[0]} != "
                f"layer {l - 1} output width {dims[-1]}"
            )
        dims.append(int(w.shape[1]))
    payload: Dict[str, np.ndarray] = {
        "format_version": np.asarray(_FORMAT_VERSION),
        "layer_dims": np.asarray(dims, dtype=np.int64),
    }
    for l, w in enumerate(weights):
        payload[f"w{l}"] = np.ascontiguousarray(w, dtype=FLOAT_DTYPE)
    _atomic_savez(payload, path)


def load_weights(path: PathLike) -> Tuple[List[np.ndarray], GCNModelSpec]:
    """Restore layer weights + model spec without constructing a trainer.

    Accepts both trainer checkpoints (:func:`save_checkpoint`; optimizer
    state is ignored) and inference-only exports (:func:`save_weights`).
    Unlike :func:`load_checkpoint` — which tolerates checksum-less files
    from older writers — this path is strict: a serving process must not
    start on unverifiable weights, so a missing or mismatched payload
    digest raises :class:`~repro.errors.CheckpointError`.
    """
    with np.load(path, allow_pickle=False) as bundle:
        if "format_version" not in bundle:
            raise ConfigurationError(f"{path}: not a repro checkpoint")
        version = int(bundle["format_version"])
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported checkpoint version {version}"
            )
        payload = {key: bundle[key] for key in bundle.files}
    if _CHECKSUM_KEY not in payload:
        raise CheckpointError(
            f"{path}: no payload digest — inference restore requires a "
            f"checksummed checkpoint"
        )
    stored = bytes(payload[_CHECKSUM_KEY]).decode()
    actual = _payload_digest(payload)
    if stored != actual:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored {stored[:12]}…, "
            f"computed {actual[:12]}…) — checkpoint is corrupt"
        )
    spec = GCNModelSpec(tuple(int(d) for d in payload["layer_dims"]))
    weights: List[np.ndarray] = []
    for layer in range(spec.num_layers):
        key = f"w{layer}"
        if key not in payload:
            raise CheckpointError(
                f"{path}: missing weight {key} for {spec.num_layers}-layer "
                f"model"
            )
        w = np.asarray(payload[key], dtype=FLOAT_DTYPE)
        if w.shape != spec.dims_of(layer):
            raise CheckpointError(
                f"{path}: weight {key} shape {w.shape} != spec "
                f"{spec.dims_of(layer)}"
            )
        weights.append(w)
    return weights, spec
