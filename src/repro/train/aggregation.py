"""Gradient sharding: frames, jobs, and deterministic accumulation.

One data-parallel training step splits the batch into chunks whose
boundaries depend **only** on the configured worker count (never on which
workers happen to be alive), encodes each chunk as a self-contained *frame*,
and ships the frames through :class:`~repro.serve.ShmWorkerPool` as
:class:`GradStepJob` work items.  Each frame carries the step-start
parameters and buffers alongside its slice of the batch, which is what makes
the whole scheme crash-safe:

* a frame is a **pure function input** — the reply (per-chunk loss sum,
  gradient sums, updated BN/observer buffers) depends on nothing but the
  frame bytes, so a retried shard after a worker death is bit-identical to
  the original;
* the degraded path (total pool loss) simply runs the *same* compiled job on
  the *same* frames in the parent process, so inline results match pooled
  results bit for bit;
* the host accumulates replies in fixed chunk-index order, so the final
  gradient never depends on worker scheduling.

Frame layout (one contiguous float64 vector)::

    [n, c, h, w] + params_flat + buffers_flat + labels + images_flat

Reply layout (``2 + n_params + n_buffers`` float64)::

    [loss_sum, n] + grad_sums_flat + updated_buffers_flat

Gradients are *sums* over the chunk's samples (the worker seeds backward
with the chunk size, cancelling the loss's mean reduction), so the host-side
mean is a single chunk-ordered ``sum / batch_size``.  Updated buffers are
combined as the chunk-index-ordered mean — the standard data-parallel
treatment of BatchNorm running statistics.
"""

from __future__ import annotations

import copy

import numpy as np

from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor

__all__ = ["GradStepJob", "chunk_bounds", "flatten_state", "encode_frame",
           "accumulate_replies", "apply_step_results"]

_HEADER = 4

_LOSSES = {
    "cross_entropy": lambda logits, labels, images: F.cross_entropy(logits, labels),
}


def resolve_loss(loss):
    """``loss(logits, labels, images)`` for a name in ``_LOSSES`` or a callable.

    A callable such as :class:`~repro.quant.TeacherDistillation` sees the
    images its teacher runs on.  Every loss is a batch mean, which sharded
    steps turn back into per-chunk sums.
    """
    if callable(loss):
        return loss
    if loss not in _LOSSES:
        raise ValueError(f"unknown loss {loss!r}; "
                         f"expected one of {sorted(_LOSSES)} or a callable")
    return _LOSSES[loss]


def chunk_bounds(n: int, num_shards: int) -> list[tuple[int, int]]:
    """Deterministic shard boundaries: fixed by ``num_shards``, even split.

    Matches the pool's own chunking convention (``ceil(n / num_shards)``
    rows per shard) so a 4-worker trainer always produces the same shards
    for a given batch size, healthy or degraded.
    """
    if n < 1:
        raise ValueError("cannot shard an empty batch")
    chunk = -(-n // max(int(num_shards), 1))
    return [(start, min(start + chunk, n)) for start in range(0, n, chunk)]


def flatten_state(model: Module) -> tuple[np.ndarray, np.ndarray]:
    """``(params_flat, buffers_flat)`` in deterministic traversal order."""
    params = [param.data.ravel() for _, param in model.named_parameters()]
    buffers = [np.asarray(buf, dtype=np.float64).ravel()
               for _, buf in model.named_buffers()]
    params_flat = (np.concatenate(params) if params
                   else np.empty(0, dtype=np.float64))
    buffers_flat = (np.concatenate(buffers) if buffers
                    else np.empty(0, dtype=np.float64))
    return params_flat.astype(np.float64, copy=False), buffers_flat


def encode_frame(images: np.ndarray, labels: np.ndarray,
                 params_flat: np.ndarray, buffers_flat: np.ndarray
                 ) -> np.ndarray:
    """Pack one chunk plus the step-start model state into a flat vector."""
    n, c, h, w = images.shape
    return np.concatenate([
        np.array([n, c, h, w], dtype=np.float64),
        params_flat,
        buffers_flat,
        np.asarray(labels, dtype=np.float64).ravel(),
        np.asarray(images, dtype=np.float64).ravel(),
    ])


class GradStepJob:
    """Pool job computing one gradient shard: forward + backward in-worker.

    Implements the pool-job protocol (``compile`` / ``out_shape`` /
    ``out_dtype``, see :class:`~repro.engine.ConvJob`).  The job carries a
    deep-copied snapshot of the model purely as an *architecture template* —
    every frame overwrites all parameters and buffers before computing, so
    workers never go stale as training advances the parent's weights.
    ``loss`` rides in the job as given (see :func:`resolve_loss`), so a
    distillation loss brings its frozen teacher to every worker.
    """

    def __init__(self, model: Module, loss="cross_entropy"):
        resolve_loss(loss)
        self.loss = loss
        self.model = copy.deepcopy(model)
        self.model.zero_grad()
        self.param_shapes = [param.shape
                             for _, param in self.model.named_parameters()]
        self.buffer_shapes = [np.asarray(buf).shape
                              for _, buf in self.model.named_buffers()]
        self.n_params = int(sum(np.prod(s, dtype=np.int64)
                                for s in self.param_shapes))
        self.n_buffers = int(sum(np.prod(s, dtype=np.int64)
                                 for s in self.buffer_shapes))

    # -- pool-job protocol ------------------------------------------------ #
    @property
    def reply_size(self) -> int:
        return 2 + self.n_params + self.n_buffers

    def out_shape(self, in_shape: tuple) -> tuple:
        return (self.reply_size,)

    def out_dtype(self, in_dtype) -> np.dtype:
        return np.dtype(np.float64)

    def compile(self) -> "_CompiledGradStep":
        return _CompiledGradStep(self)


class _CompiledGradStep:
    """The per-worker executable: decode frame, forward+backward, encode reply.

    Deep-copies the job's template so repeated inline compiles (parent-side
    degraded mode next to a live pool snapshot) never share parameter
    storage.
    """

    def __init__(self, job: GradStepJob):
        self.job = job
        self.model = copy.deepcopy(job.model)
        self.loss_fn = resolve_loss(job.loss)

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        job = self.job
        frame = np.asarray(frame, dtype=np.float64).ravel()
        n, c, h, w = (int(v) for v in frame[:_HEADER])
        cursor = _HEADER
        for (_, param), shape in zip(self.model.named_parameters(),
                                     job.param_shapes):
            size = int(np.prod(shape, dtype=np.int64))
            param.data = frame[cursor:cursor + size].reshape(shape).copy()
            cursor += size
        for owner, local, shape in _buffer_slots(self.model):
            size = int(np.prod(shape, dtype=np.int64))
            owner.set_buffer(local,
                             frame[cursor:cursor + size].reshape(shape).copy())
            cursor += size
        labels = frame[cursor:cursor + n].astype(np.int64)
        cursor += n
        images = frame[cursor:cursor + n * c * h * w].reshape(n, c, h, w).copy()

        self.model.train()
        logits = self.model(Tensor(images))
        loss = self.loss_fn(logits, labels, images)
        self.model.zero_grad()
        # Seed backward with the chunk size: the loss is a mean over the
        # chunk, so this yields per-chunk gradient *sums*, which the host
        # can combine across unevenly-sized shards exactly.
        loss.backward(np.float64(n))

        reply = np.empty(job.reply_size, dtype=np.float64)
        reply[0] = float(loss.data) * n
        reply[1] = float(n)
        cursor = 2
        for (_, param), shape in zip(self.model.named_parameters(),
                                     job.param_shapes):
            size = int(np.prod(shape, dtype=np.int64))
            grad = param.grad
            if grad is None:
                reply[cursor:cursor + size] = 0.0
            else:
                reply[cursor:cursor + size] = np.asarray(
                    grad, dtype=np.float64).ravel()
            cursor += size
        for _, buf in self.model.named_buffers():
            flat = np.asarray(buf, dtype=np.float64).ravel()
            reply[cursor:cursor + flat.size] = flat
            cursor += flat.size
        return reply


def _buffer_slots(model: Module):
    """(owner module, local name, shape) per buffer, in traversal order."""
    for prefix, module in model.named_modules():
        for name in module._buffers:
            yield module, name, np.asarray(module._buffers[name]).shape


def accumulate_replies(replies: list[np.ndarray], job: GradStepJob
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Combine shard replies in chunk-index order.

    Returns ``(mean_loss, grad_mean_flat, buffers_mean_flat)``.  The loops
    run in list order — which the trainer keeps equal to chunk-index order —
    so float accumulation is deterministic across retries, respawns, and the
    degraded inline path.
    """
    if not replies:
        raise ValueError("no shard replies to accumulate")
    loss_sum = 0.0
    count = 0.0
    grad_sum = np.zeros(job.n_params, dtype=np.float64)
    buf_sum = np.zeros(job.n_buffers, dtype=np.float64)
    for reply in replies:
        reply = np.asarray(reply, dtype=np.float64).ravel()
        if reply.size != job.reply_size:
            raise ValueError(f"shard reply has size {reply.size}, "
                             f"expected {job.reply_size}")
        loss_sum += reply[0]
        count += reply[1]
        grad_sum += reply[2:2 + job.n_params]
        buf_sum += reply[2 + job.n_params:]
    return (loss_sum / count, grad_sum / count, buf_sum / len(replies))


def apply_step_results(model: Module, job: GradStepJob,
                       grad_flat: np.ndarray, buffers_flat: np.ndarray) -> None:
    """Scatter accumulated gradients and combined buffers back onto ``model``."""
    cursor = 0
    for (_, param), shape in zip(model.named_parameters(), job.param_shapes):
        size = int(np.prod(shape, dtype=np.int64))
        param.grad = grad_flat[cursor:cursor + size].reshape(shape).copy()
        cursor += size
    cursor = 0
    for owner, local, shape in _buffer_slots(model):
        size = int(np.prod(shape, dtype=np.int64))
        value = buffers_flat[cursor:cursor + size].reshape(shape)
        owner.set_buffer(local, value.astype(
            np.asarray(owner._buffers[local]).dtype, copy=True))
        cursor += size
