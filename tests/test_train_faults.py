"""Chaos suite: fault injection against fault-tolerant training (PR 8).

The three headline guarantees of :mod:`repro.train`, each held to bit-exact
equality with an undisturbed run:

* **worker SIGKILL / stall / corrupt reply mid-step** — the supervisor
  respawns and retries the shard; because shard frames are pure function
  inputs with chunk boundaries fixed by the configured worker count, the
  final weights match a fault-free run bit for bit;
* **``kill -9`` of the training process itself** — scripted through
  ``FaultPlan.kill_trainer`` to die right after a checkpoint commit; a fresh
  process's :meth:`Trainer.resume` + ``fit`` reproduces the uninterrupted
  run's weights and loss history exactly;
* **total pool loss mid-run** — the trainer degrades to inline execution of
  the same shard frames and finishes with weights identical to a run that
  never had a pool at all.

Real worker processes are spawned here; in-process training semantics live
in ``test_train.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.synthetic import make_shapes_dataset
from repro.models.small import MicroNet
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.layers import Identity
from repro.nn.optim import SGD
from repro.quant import (QatConfig, TeacherDistillation, calibrate_model,
                         convert_model, enable_learned_scales,
                         finetune_optimizer, freeze_calibration)
from repro.serve import FaultPlan
from repro.train import CheckpointStore, DataParallelTrainer, Trainer
from repro.utils import seed_everything

_REPO = Path(__file__).resolve().parents[1]


def _make_parts(seed=0):
    seed_everything(seed)
    raw = make_shapes_dataset(num_samples=24, num_classes=4, size=8, seed=seed)
    loader = DataLoader(ArrayDataset(raw.images, raw.labels), batch_size=12,
                        shuffle=True, seed=seed)
    model = MicroNet(num_classes=4, seed=seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    return model, optimizer, loader, "cross_entropy"


def _make_qat_parts(seed=0, batch_norm=True):
    """The paper's fine-tuning recipe on MicroNet: a calibrated tap-wise F4
    QAT model with frozen observers and learned power-of-two
    Winograd-domain scales, SGD on the weights then Adam on the scales, and
    the float model as the KD teacher riding in the pool job."""
    teacher, _, loader, _ = _make_parts(seed)
    if not batch_norm:
        teacher.bn1, teacher.bn2 = Identity(), Identity()
    model = convert_model(teacher, QatConfig(algorithm="F4", tapwise=True,
                                             power_of_two=True))
    calibrate_model(model, loader, max_batches=2)
    freeze_calibration(model)
    scales = enable_learned_scales(model)
    optimizer = finetune_optimizer(model, scales, lr=0.05, scale_lr=0.01)
    return model, optimizer, loader, TeacherDistillation(teacher)


def _dp_trainer(expect_degraded=False, parts=_make_parts, **kwargs):
    model, optimizer, loader, loss = parts()
    trainer = DataParallelTrainer(model, optimizer, loader, num_workers=2,
                                  loss=loss, **kwargs)
    if trainer.degraded and not expect_degraded:  # pragma: no cover
        pytest.skip("multiprocessing/shared memory unavailable")
    return trainer, model


def _state_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# --------------------------------------------------------------------------- #
# Guarantee 1: shard faults never change the trained weights
# --------------------------------------------------------------------------- #
class TestShardChaos:
    def test_worker_kill_and_corrupt_mid_step_bit_exact(self):
        clean, clean_model = _dp_trainer()
        with clean:
            clean.fit(epochs=3)

        plan = FaultPlan().kill(worker=0, step=2).corrupt(worker=1, step=3)
        chaos, chaos_model = _dp_trainer(faults=plan)
        with chaos:
            chaos.fit(epochs=3)
            assert not chaos.degraded          # survived without degrading
            stats = chaos.pool_stats()
        assert stats["deaths"] >= 1
        assert stats["restarts"] >= 1
        assert stats["retried_jobs"] >= 2
        assert stats["corrupt_replies"] >= 1
        assert _state_equal(clean_model.state_dict(), chaos_model.state_dict())
        assert clean.history == chaos.history

    def test_qat_worker_kill_and_corrupt_bit_exact(self):
        """The fused tap-wise QAT node (STE masks, learned-scale gradients)
        is as deterministic across retried shards as a float conv."""
        clean, clean_model = _dp_trainer(parts=_make_qat_parts)
        with clean:
            clean.fit(epochs=2)

        plan = FaultPlan().kill(worker=0, step=1).corrupt(worker=1, step=2)
        chaos, chaos_model = _dp_trainer(parts=_make_qat_parts, faults=plan)
        with chaos:
            chaos.fit(epochs=2)
            stats = chaos.pool_stats()
        assert stats["deaths"] >= 1 and stats["corrupt_replies"] >= 1
        assert _state_equal(clean_model.state_dict(), chaos_model.state_dict())
        assert clean.history == chaos.history

    def test_worker_stall_detected_and_retried_bit_exact(self):
        clean, clean_model = _dp_trainer()
        with clean:
            clean.fit(epochs=2)

        plan = FaultPlan().drop(worker=0, step=1)
        chaos, chaos_model = _dp_trainer(faults=plan,
                                         heartbeat_interval=0.05,
                                         heartbeat_timeout=0.5)
        with chaos:
            chaos.fit(epochs=2)
            stats = chaos.pool_stats()
        assert stats["deaths"] >= 1 and stats["restarts"] >= 1
        assert _state_equal(clean_model.state_dict(), chaos_model.state_dict())

    def test_pooled_matches_degraded_inline_bit_exact(self, parts=_make_parts):
        pooled, pooled_model = _dp_trainer(parts=parts)
        with pooled:
            pooled.fit(epochs=2)
            assert not pooled.degraded

        # An unknown start method fails pool construction: degraded at birth,
        # every shard frame runs inline through the same compiled job.
        inline, inline_model = _dp_trainer(expect_degraded=True, parts=parts,
                                           mp_context="__no_such_context__")
        assert inline.degraded
        inline.fit(epochs=2)
        assert _state_equal(pooled_model.state_dict(),
                            inline_model.state_dict())
        assert pooled.history == inline.history

    def test_qat_pooled_matches_degraded_inline_bit_exact(self):
        self.test_pooled_matches_degraded_inline_bit_exact(parts=_make_qat_parts)

    def test_two_shard_kd_step_matches_single_process(self):
        """The teacher runs in each worker on its own chunk, and the
        per-chunk sums of the batch-mean KD loss add up to the
        single-process step.  BatchNorm is left out: per-shard batch
        statistics would differ from the full batch's by design."""
        single_model, optimizer, loader, loss = _make_qat_parts(batch_norm=False)
        single = Trainer(single_model, optimizer, loader, loss=loss)
        single.fit(epochs=1, max_batches=1)

        sharded, sharded_model = _dp_trainer(
            parts=lambda: _make_qat_parts(batch_norm=False))
        with sharded:
            sharded.fit(epochs=1, max_batches=1)
            assert not sharded.degraded
        assert sharded.history == pytest.approx(single.history, rel=1e-9)
        for (name, p), (_, q) in zip(single_model.named_parameters(),
                                     sharded_model.named_parameters()):
            np.testing.assert_allclose(q.data, p.data, rtol=1e-9, atol=1e-12,
                                       err_msg=name)


# --------------------------------------------------------------------------- #
# Guarantee 2: kill -9 the training process, resume bit-exactly
# --------------------------------------------------------------------------- #
_TRAIN_SCRIPT = """
import sys
from repro.datasets.synthetic import make_shapes_dataset
from repro.models.small import MicroNet
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.optim import SGD
from repro.serve import FaultPlan
from repro.train import CheckpointStore, Trainer
from repro.utils import seed_everything

store_dir, kill_step = sys.argv[1], int(sys.argv[2])
seed_everything(0)
raw = make_shapes_dataset(num_samples=24, num_classes=4, size=8, seed=0)
loader = DataLoader(ArrayDataset(raw.images, raw.labels), batch_size=12,
                    shuffle=True, seed=0)
model = MicroNet(num_classes=4, seed=0)
optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
faults = FaultPlan().kill_trainer(kill_step) if kill_step else None
trainer = Trainer(model, optimizer, loader,
                  store=CheckpointStore(store_dir), faults=faults)
trainer.resume()
trainer.fit(epochs=3)
"""


def _run_training_process(store_dir, kill_step: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    try:
        return subprocess.run(
            [sys.executable, "-c", _TRAIN_SCRIPT, str(store_dir), str(kill_step)],
            env=env, cwd=_REPO, capture_output=True, text=True, timeout=120)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"subprocess unavailable: {exc}")


class TestTrainerKill:
    def test_kill9_at_step_boundary_then_resume_bit_exact(self, tmp_path):
        # Run 1: scripted SIGKILL right after committing step 4's checkpoint.
        result = _run_training_process(tmp_path, kill_step=4)
        assert result.returncode == -signal.SIGKILL, result.stderr
        store = CheckpointStore(tmp_path)
        step, payload = store.latest()
        assert step == 4 and payload["global_step"] == 4

        # Run 2: a fresh process resumes from the committed boundary and
        # finishes cleanly (the restored step can never re-trigger the kill).
        result = _run_training_process(tmp_path, kill_step=0)
        assert result.returncode == 0, result.stderr
        step, payload = store.latest()
        assert step == 6                       # 3 epochs x 2 batches

        # Reference: the same run, never interrupted, in this process.
        model, optimizer, loader, _ = _make_parts()
        reference = Trainer(model, optimizer, loader)
        reference.fit(epochs=3)
        assert _state_equal(payload["model"], model.state_dict())
        assert payload["history"] == reference.history

    def test_kill_trainer_requires_positive_step(self):
        with pytest.raises(ValueError):
            FaultPlan().kill_trainer(0)

    def test_serving_pool_ignores_trainer_kill(self):
        # The field rides on the shared FaultPlan but only Trainer honours
        # it; worker-side fault scheduling must not even see it.
        plan = FaultPlan().kill_trainer(3)
        assert len(plan) == 0
        assert plan.for_worker(0) == {}


# --------------------------------------------------------------------------- #
# Guarantee 3: total pool loss degrades inline mid-run, bit-exactly
# --------------------------------------------------------------------------- #
class TestTotalPoolLoss:
    def test_pool_wipeout_mid_run_finishes_inline_bit_exact(self):
        trainer, model = _dp_trainer()
        with trainer:
            trainer.fit(epochs=1)
            assert not trainer.degraded
            pool = trainer._runner._pool
            pool.supervisor.max_respawn_attempts = 0   # forbid revival
            for index in range(pool.num_workers):
                pool.kill_worker(index)
            for worker in pool._workers:
                worker.proc.join(5)
            trainer.fit(epochs=3)                      # degrades mid-run
            assert trainer.degraded
            assert trainer.pool_stats() == {}

        reference, reference_model = _dp_trainer(
            expect_degraded=True, mp_context="__no_such_context__")
        reference.fit(epochs=3)
        assert _state_equal(model.state_dict(), reference_model.state_dict())
        assert trainer.history == reference.history
