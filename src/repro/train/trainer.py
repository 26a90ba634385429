"""Checkpointable training loops: inline and data-parallel over the shm pool.

:class:`Trainer` owns the batch iteration (replicating
:class:`~repro.nn.data.DataLoader` semantics exactly, including its RNG
stream) so that *every* piece of state a step depends on — model parameters,
optimizer slots, scheduler epochs, the loader's shuffle/augment RNG, the
global RNG streams, and the position inside the current epoch — can be
snapshotted at a step boundary and restored bit-exactly.  Combined with the
atomic :class:`~repro.train.CheckpointStore`, that gives the robustness
guarantee of this subsystem: ``kill -9`` the training process at any moment,
call :meth:`Trainer.resume`, and the finished run's weights are bit-identical
to an uninterrupted run's.

:class:`DataParallelTrainer` shards each step's gradients through a
:class:`~repro.engine.BatchRunner` over a supervised
:class:`~repro.serve.ShmWorkerPool` (see :mod:`repro.train.aggregation` for
why shard retries and the inline-degraded path are bit-exact); the runner
falls back to inline execution of the *same* shard frames when the pool is
lost for good.
"""

from __future__ import annotations

import os
import signal

import numpy as np

from ..engine.arena import ArenaPool, use_arena
from ..engine.runner import BatchRunner
from ..nn.data import DataLoader
from ..nn.module import Module
from ..nn.optim import Optimizer
from ..nn.tensor import Tensor
from ..obs import trace as _trace
from ..utils.seeding import rng_state, set_rng_state
from .aggregation import (GradStepJob, accumulate_replies, apply_step_results,
                          encode_frame, flatten_state, resolve_loss)
from .checkpoint import CheckpointStore

__all__ = ["Trainer", "DataParallelTrainer"]


class Trainer:
    """Single-process, crash-safe training loop.

    Parameters
    ----------
    model / optimizer / loader:
        The training triple.  The trainer drives ``loader.dataset`` itself
        (using ``loader``'s own RNG) so mid-epoch state is checkpointable;
        the resulting batch stream is bit-identical to iterating ``loader``.
    schedulers:
        LR schedulers stepped once per finished epoch.
    loss:
        A loss name or callable, see
        :func:`~repro.train.aggregation.resolve_loss`.  ``optimizer`` may be
        a :class:`~repro.nn.optim.ChainedOptimizer`.
    store / checkpoint_every:
        When a :class:`CheckpointStore` is given, a checkpoint is committed
        after every ``checkpoint_every``-th optimizer step (and the final
        step of :meth:`fit`).
    arena_pool:
        Optional :class:`~repro.engine.ArenaPool`; each step leases one
        arena and installs it with :func:`~repro.engine.use_arena`, so the
        executor's autograd workspaces are reused instead of reallocated.
        An aborted step reclaims (and clears) the lease.
    faults:
        Optional :class:`~repro.serve.FaultPlan`; the trainer honours
        ``trainer_kill_step`` by SIGKILLing its own process right after
        committing that step's checkpoint (deterministic crash drills).
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 loader: DataLoader, *, schedulers=(), loss="cross_entropy",
                 store: CheckpointStore | None = None,
                 checkpoint_every: int = 1,
                 arena_pool: ArenaPool | None = None, faults=None):
        self.model = model
        self.optimizer = optimizer
        self.loader = loader
        self.schedulers = list(schedulers)
        self.loss = loss
        self._loss_fn = resolve_loss(loss)
        self.store = store
        self.checkpoint_every = max(int(checkpoint_every), 1)
        self.arena_pool = arena_pool
        self.faults = faults
        self.global_step = 0
        self.epoch = 0
        self.history: list[float] = []          # per-step mean losses
        self._order: np.ndarray | None = None   # current epoch's sample order
        self._pos = 0                           # next batch start within order
        self._batch_idx = 0                     # batches executed this epoch

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def fit(self, epochs: int, max_batches: int | None = None) -> list[float]:
        """Train until ``epochs`` epochs are complete; returns the history.

        Safe to call on a freshly-:meth:`resume`-d trainer: the loop picks
        up mid-epoch from the restored order/position.
        """
        dataset = self.loader.dataset
        n = len(dataset)
        batch = self.loader.batch_size
        while self.epoch < epochs:
            if self._order is None:
                self._order = self._draw_order(n)
                self._pos = 0
                self._batch_idx = 0
            self.model.train()
            while self._pos < n:
                if max_batches is not None and self._batch_idx >= max_batches:
                    break
                idx = self._order[self._pos:self._pos + batch]
                if self.loader.drop_last and len(idx) < batch:
                    break
                images = dataset.images[idx]
                labels = dataset.labels[idx]
                if dataset.transform is not None:
                    images = dataset.transform(images, self.loader._rng)
                loss = self._step(images, labels)
                self.history.append(loss)
                self._pos += batch
                self._batch_idx += 1
                self.global_step += 1
                if self.store is not None and \
                        self.global_step % self.checkpoint_every == 0:
                    self._commit()
                self._maybe_kill_self()
            for scheduler in self.schedulers:
                scheduler.step()
            self.epoch += 1
            self._order = None
            self._pos = 0
            self._batch_idx = 0
        if self.store is not None:
            self._commit()
        return self.history

    def _draw_order(self, n: int) -> np.ndarray:
        # Bit-identical to DataLoader.__iter__'s shuffle, on the loader's
        # own generator, so existing accuracy streams are unchanged.
        order = np.arange(n)
        if self.loader.shuffle:
            self.loader._rng.shuffle(order)
        return order

    # ------------------------------------------------------------------ #
    # One optimizer step
    # ------------------------------------------------------------------ #
    def _step(self, images: np.ndarray, labels: np.ndarray) -> float:
        with _trace.span("train.step", cat="train", step=self.global_step,
                         batch=int(images.shape[0])):
            if self.arena_pool is not None:
                with self.arena_pool.lease() as arena, use_arena(arena):
                    return self._compute_step(images, labels)
            return self._compute_step(images, labels)

    def _compute_step(self, images: np.ndarray, labels: np.ndarray) -> float:
        logits = self.model(Tensor(images))
        loss = self._loss_fn(logits, labels, images)
        self.model.zero_grad()
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        return {
            "global_step": self.global_step,
            "epoch": self.epoch,
            "pos": self._pos,
            "batch_idx": self._batch_idx,
            "order": None if self._order is None else self._order.copy(),
            "history": list(self.history),
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "schedulers": [s.state_dict() for s in self.schedulers],
            "loader_rng": self.loader._rng.bit_generator.state,
            "rng": rng_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.global_step = int(state["global_step"])
        self.epoch = int(state["epoch"])
        self._pos = int(state["pos"])
        self._batch_idx = int(state["batch_idx"])
        order = state["order"]
        self._order = None if order is None else np.asarray(order).copy()
        self.history = list(state["history"])
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        if len(state["schedulers"]) != len(self.schedulers):
            raise ValueError(
                f"trainer has {len(self.schedulers)} schedulers, "
                f"checkpoint has {len(state['schedulers'])}")
        for scheduler, saved in zip(self.schedulers, state["schedulers"]):
            scheduler.load_state_dict(saved)
        self.loader._rng.bit_generator.state = state["loader_rng"]
        set_rng_state(state["rng"])

    def _commit(self) -> None:
        with _trace.span("train.checkpoint_commit", cat="train",
                         step=self.global_step):
            self.store.save(self.global_step, self.state_dict())

    def resume(self) -> int:
        """Restore the newest valid checkpoint; returns its step (0 if none).

        A subsequent :meth:`fit` then reproduces the uninterrupted run
        bit-exactly: every random stream, the mid-epoch position, and all
        model/optimizer/scheduler state are restored to the committed step
        boundary.
        """
        if self.store is None:
            raise RuntimeError("resume() needs a CheckpointStore")
        found = self.store.latest()
        if found is None:
            return 0
        _, payload = found
        self.load_state_dict(payload)
        return self.global_step

    def _maybe_kill_self(self) -> None:
        if self.faults is not None and \
                getattr(self.faults, "trainer_kill_step", None) == self.global_step:
            os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        pass

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class DataParallelTrainer(Trainer):
    """Shards each step's gradients across supervised shm pool workers.

    Every step: snapshot the model, encode ``num_workers`` frames with
    boundaries fixed by :func:`~repro.serve.pool.chunk_bounds`, and run them
    through a :class:`~repro.engine.BatchRunner` over a
    :class:`~repro.train.aggregation.GradStepJob` (the pool's supervision
    handles deaths, stalls, and corrupt replies with bit-exact retries);
    then accumulate the replies in chunk-index order.  When the pool is lost
    for good the runner computes the *same* frames inline — mid-run, with
    bit-identical results — and stays inline from then on.

    ``num_workers=0`` skips the pool (and the sharding) entirely, collapsing
    to the plain :class:`Trainer` step.  The remaining keywords configure
    the pool (see :class:`~repro.serve.ShmWorkerPool`).
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 loader: DataLoader, *, num_workers: int = 0,
                 mp_context: str | None = None,
                 heartbeat_interval: float | None = 0.25,
                 heartbeat_timeout: float | None = 5.0, **kwargs):
        super().__init__(model, optimizer, loader, **kwargs)
        self.num_workers = int(num_workers)
        self._runner: BatchRunner | None = None
        if self.num_workers > 0:
            self._runner = BatchRunner(
                GradStepJob(model, loss=self.loss), self.num_workers,
                mp_context=mp_context, faults=self.faults,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout)

    @property
    def degraded(self) -> bool:
        """True when sharded steps run inline (pool lost or never started)."""
        return self._runner is not None and self._runner.degraded

    def pool_stats(self) -> dict:
        return {} if self._runner is None else self._runner.pool_stats()

    # ------------------------------------------------------------------ #
    def _compute_step(self, images: np.ndarray, labels: np.ndarray) -> float:
        if self._runner is None:
            return super()._compute_step(images, labels)
        from ..serve.pool import chunk_bounds
        job = self._runner.job
        n = images.shape[0]
        with _trace.span("train.encode_shards", cat="train", shards=self.num_workers):
            params_flat, buffers_flat = flatten_state(self.model)
            frames = [encode_frame(images[lo:hi], labels[lo:hi],
                                   params_flat, buffers_flat)
                      for lo, hi in chunk_bounds(n, self.num_workers)]
        # Shard dispatch + wait: the pool's own spans (pool.map, pool.job,
        # worker.job) break this window down further.
        with _trace.span("train.shard_dispatch", cat="train",
                         shards=len(frames)):
            replies = self._runner.map(frames)
        with _trace.span("train.apply", cat="train"):
            mean_loss, grad_flat, bufs_flat = accumulate_replies(replies, job)
            apply_step_results(self.model, job, grad_flat, bufs_flat)
            self.optimizer.step()
        return float(mean_loss)

    def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
