"""Tier-1 tests for the fault-tolerant training subsystem (``repro.train``).

Chaos tests with real worker processes live in ``test_train_faults.py``;
everything here runs in-process: RNG capture, optimizer/scheduler/module
serialization, the atomic checkpoint store, trainer determinism and resume,
gradient-shard aggregation, and arena-backed autograd workspaces.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.datasets.synthetic import make_shapes_dataset
from repro.engine import ArenaPool, use_arena
from repro.models.small import MicroNet
from repro.nn import functional as F
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, ChainedOptimizer, CosineAnnealingLR, StepLR
from repro.nn.tensor import Tensor
from repro.quant import (QatConfig, TeacherDistillation, calibrate_model,
                         convert_model, enable_learned_scales,
                         finetune_optimizer, freeze_calibration)
from repro.train import (CheckpointStore, DataParallelTrainer, GradStepJob,
                         Trainer, accumulate_replies, chunk_bounds,
                         encode_frame, flatten_state)
from repro.utils import rng_state, seed_everything, set_rng_state


def _flip(images, rng):
    """A deterministic-but-rng-consuming augmentation."""
    mask = rng.random(len(images)) < 0.5
    out = images.copy()
    out[mask] = out[mask][:, :, :, ::-1]
    return out


def _qat_recipe(teacher, loader):
    """The paper's fine-tuning of ``teacher``: tap-wise F4 with learned
    power-of-two scales and frozen observers, SGD on the weights then Adam
    on the scales, distilling from ``teacher``."""
    model = convert_model(teacher, QatConfig(algorithm="F4", power_of_two=True,
                                             learned_log2=True))
    calibrate_model(model, loader, max_batches=2)
    scales = enable_learned_scales(model)
    freeze_calibration(model)
    optimizer = finetune_optimizer(model, scales, lr=0.05, scale_lr=0.01)
    return model, optimizer, TeacherDistillation(teacher)


def _build(seed=0, num_workers=0, transform=None, qat=False, **kwargs):
    seed_everything(seed)
    raw = make_shapes_dataset(num_samples=48, num_classes=4, size=8, seed=seed)
    dataset = ArrayDataset(raw.images, raw.labels, transform=transform)
    loader = DataLoader(dataset, batch_size=12, shuffle=True, seed=seed)
    model = MicroNet(num_classes=4, seed=seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    if qat:
        model, optimizer, kwargs["loss"] = _qat_recipe(model, loader)
    if num_workers:
        trainer = DataParallelTrainer(model, optimizer, loader,
                                      num_workers=num_workers, **kwargs)
    else:
        trainer = Trainer(model, optimizer, loader, **kwargs)
    return trainer, model, loader


def _params_equal(a, b) -> bool:
    return all(np.array_equal(p.data, q.data)
               for p, q in zip(a.parameters(), b.parameters()))


def _buffers_equal(a, b) -> bool:
    return all(np.array_equal(np.asarray(p), np.asarray(q))
               for (_, p), (_, q) in zip(a.named_buffers(), b.named_buffers()))


def _optimizer_states_equal(a, b) -> bool:
    """Every slot and hyperparameter equal, nested through chained optimizers."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _optimizer_states_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _optimizer_states_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# Seeding / RNG capture (satellite: the 2**32 - 1 modulus bug)
# --------------------------------------------------------------------------- #
class TestSeeding:
    def test_max_uint32_seed_does_not_collapse_to_zero(self):
        seed_everything(2 ** 32 - 1)
        a = np.random.rand(4)
        seed_everything(0)
        b = np.random.rand(4)
        assert not np.array_equal(a, b)

    def test_rng_state_round_trip_restores_all_streams(self):
        from repro.nn import init as nn_init
        seed_everything(7)
        state = rng_state()
        first = (random.random(), np.random.rand(3),
                 nn_init.default_rng().normal(size=3))
        set_rng_state(state)
        second = (random.random(), np.random.rand(3),
                  nn_init.default_rng().normal(size=3))
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])
        np.testing.assert_array_equal(first[2], second[2])

    def test_rng_state_is_picklable(self):
        import pickle
        seed_everything(1)
        state = pickle.loads(pickle.dumps(rng_state()))
        draw = np.random.rand(2)
        set_rng_state(state)
        np.testing.assert_array_equal(np.random.rand(2), draw)


# --------------------------------------------------------------------------- #
# Optimizer and scheduler serialization (satellite: scheduler state_dicts)
# --------------------------------------------------------------------------- #
class TestOptimizerState:
    def _train_steps(self, optimizer, params, steps, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            for p in params:
                p.grad = rng.normal(size=p.shape)
            optimizer.step()

    @pytest.mark.parametrize("make_opt", [
        lambda ps: SGD(ps, lr=0.1, momentum=0.9, weight_decay=1e-4),
        lambda ps: SGD(ps, lr=0.1, momentum=0.9, nesterov=True),
        lambda ps: Adam(ps, lr=1e-2),
        lambda ps: ChainedOptimizer(SGD(ps[:1], lr=0.1, momentum=0.9),
                                    Adam(ps[1:], lr=1e-2)),
    ])
    def test_round_trip_resumes_bit_exact(self, make_opt):
        def fresh():
            rng = np.random.default_rng(0)
            return [Parameter(rng.normal(size=(3, 2))),
                    Parameter(rng.normal(size=(2,)))]

        ps_a = fresh()
        opt_a = make_opt(ps_a)
        self._train_steps(opt_a, ps_a, 3)
        state = opt_a.state_dict()
        snap = [p.data.copy() for p in ps_a]

        ps_b = fresh()
        opt_b = make_opt(ps_b)
        for p, data in zip(ps_b, snap):
            p.data = data.copy()
        opt_b.load_state_dict(state)
        # Continue both for two more (identical) steps: bit-exact tracks.
        self._train_steps(opt_a, ps_a, 2, seed=1)
        self._train_steps(opt_b, ps_b, 2, seed=1)
        for p, q in zip(ps_a, ps_b):
            np.testing.assert_array_equal(p.data, q.data)

    def test_state_dict_uses_positions_not_ids(self):
        ps = [Parameter(np.ones((2, 2)))]
        opt = SGD(ps, lr=0.1, momentum=0.9)
        self._train_steps(opt, ps, 1)
        state = opt.state_dict()
        assert set(state["state"]) == {0}
        assert state["param_groups"][0]["params"] == [0]
        assert state["param_groups"][0]["lr"] == 0.1

    def test_load_rejects_group_count_mismatch(self):
        opt = SGD([Parameter(np.ones(2))], lr=0.1)
        other = SGD([{"params": [Parameter(np.ones(2))]},
                     {"params": [Parameter(np.ones(2))], "lr": 0.5}], lr=0.1)
        with pytest.raises(ValueError):
            opt.load_state_dict(other.state_dict())

    def test_chain_steps_in_order_and_rejects_length_mismatch(self):
        ps = [Parameter(np.ones(2)), Parameter(np.ones(2))]
        first, second = SGD(ps[:1], lr=0.1), Adam(ps[1:], lr=0.1)
        calls = []
        first.step = lambda: calls.append("sgd")
        second.step = lambda: calls.append("adam")
        chain = ChainedOptimizer(first, second)
        chain.step()
        assert calls == ["sgd", "adam"]
        with pytest.raises(ValueError):
            ChainedOptimizer(first).load_state_dict(chain.state_dict())

    def test_hyperparameters_restored(self):
        ps = [Parameter(np.ones(2))]
        opt = SGD(ps, lr=0.1)
        opt.param_groups[0]["lr"] = 0.025      # e.g. a scheduler decayed it
        state = opt.state_dict()
        opt2 = SGD([Parameter(np.ones(2))], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.param_groups[0]["lr"] == 0.025


class TestSchedulerState:
    @pytest.mark.parametrize("make_sched", [
        lambda opt: StepLR(opt, step_size=2, gamma=0.5),
        lambda opt: CosineAnnealingLR(opt, t_max=7, eta_min=1e-4),
    ])
    def test_round_trip_continues_schedule(self, make_sched):
        opt_a = SGD([Parameter(np.ones(2))], lr=0.2)
        sched_a = make_sched(opt_a)
        for _ in range(3):
            sched_a.step()
        state = sched_a.state_dict()

        opt_b = SGD([Parameter(np.ones(2))], lr=0.2)
        sched_b = make_sched(opt_b)
        sched_b.load_state_dict(state)
        assert sched_b.epoch == 3
        assert sched_b.get_last_lr() == sched_a.get_last_lr()
        for _ in range(4):
            sched_a.step()
            sched_b.step()
        assert sched_b.get_last_lr() == sched_a.get_last_lr()

    def test_load_without_state_dict_was_the_bug(self):
        # Schedulers used to restart silently from epoch 0 on reload; the
        # state dict now carries the epoch so the decayed lr survives.
        opt = SGD([Parameter(np.ones(2))], lr=0.2)
        sched = StepLR(opt, step_size=1, gamma=0.1)
        sched.step()
        state = sched.state_dict()
        opt2 = SGD([Parameter(np.ones(2))], lr=0.2)
        sched2 = StepLR(opt2, step_size=1, gamma=0.1)
        sched2.load_state_dict(state)
        assert opt2.param_groups[0]["lr"] == pytest.approx(0.02)


class TestModuleLoadStateDict:
    def test_missing_keys_detected(self):
        net = Linear(4, 2)
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict({"weight": np.zeros((2, 4))})

    def test_unexpected_keys_detected(self):
        net = Linear(4, 2)
        state = net.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            net.load_state_dict(state)

    def test_non_strict_allows_partial(self):
        net = Linear(4, 2)
        net.load_state_dict({"weight": np.zeros((2, 4)),
                             "extra": np.zeros(1)}, strict=False)
        np.testing.assert_array_equal(net.weight.data, np.zeros((2, 4)))


# --------------------------------------------------------------------------- #
# CheckpointStore
# --------------------------------------------------------------------------- #
class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {"step": 3, "array": np.arange(5.0)}
        store.save(3, payload)
        loaded = store.load(3)
        assert loaded["step"] == 3
        np.testing.assert_array_equal(loaded["array"], payload["array"])
        assert store.latest()[0] == 3

    def test_missing_is_a_clean_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load(7) is None
        assert store.latest() is None

    @pytest.mark.parametrize("corruption", ["truncate", "flip", "magic",
                                            "version", "empty"])
    def test_corrupt_files_load_as_misses(self, tmp_path, corruption):
        store = CheckpointStore(tmp_path)
        store.save(1, {"ok": True})
        store.save(2, {"ok": True})
        path = store.path_for(2)
        raw = bytearray(path.read_bytes())
        if corruption == "truncate":
            raw = raw[:len(raw) // 2]
        elif corruption == "flip":
            raw[-3] ^= 0xFF
        elif corruption == "magic":
            raw[:4] = b"XXXX"
        elif corruption == "version":
            raw[4] ^= 0xFF
        elif corruption == "empty":
            raw = bytearray()
        path.write_bytes(bytes(raw))
        assert store.load(2) is None
        # latest() falls back to the previous good checkpoint.
        step, payload = store.latest()
        assert step == 1 and payload == {"ok": True}

    def test_no_temp_debris_after_commit(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"x": 1})
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["ckpt-000000000001.ckpt"]

    def test_keep_last_prunes(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in range(1, 6):
            store.save(step, {"step": step})
        assert store.steps() == [4, 5]

    def test_rewrite_same_step_is_atomic_replace(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"v": 1})
        store.save(1, {"v": 2})
        assert store.load(1) == {"v": 2}
        assert store.steps() == [1]


# --------------------------------------------------------------------------- #
# Trainer determinism and resume
# --------------------------------------------------------------------------- #
class TestTrainer:
    def test_matches_dataloader_loop_bit_exact(self):
        trainer, model, _ = _build(transform=_flip)
        trainer.fit(epochs=2)

        seed_everything(0)
        raw = make_shapes_dataset(num_samples=48, num_classes=4, size=8, seed=0)
        dataset = ArrayDataset(raw.images, raw.labels, transform=_flip)
        loader = DataLoader(dataset, batch_size=12, shuffle=True, seed=0)
        model2 = MicroNet(num_classes=4, seed=0)
        opt2 = SGD(model2.parameters(), lr=0.05, momentum=0.9)
        for _ in range(2):
            model2.train()
            for images, labels in loader:
                logits = model2(Tensor(images))
                loss = F.cross_entropy(logits, labels)
                model2.zero_grad()
                loss.backward()
                opt2.step()
        assert _params_equal(model, model2)
        assert _buffers_equal(model, model2)

    def test_max_batches_matches_harness_break_semantics(self):
        trainer, model, _ = _build()
        trainer.fit(epochs=3, max_batches=2)
        assert trainer.global_step == 6

        seed_everything(0)
        raw = make_shapes_dataset(num_samples=48, num_classes=4, size=8, seed=0)
        loader = DataLoader(ArrayDataset(raw.images, raw.labels),
                            batch_size=12, shuffle=True, seed=0)
        model2 = MicroNet(num_classes=4, seed=0)
        opt2 = SGD(model2.parameters(), lr=0.05, momentum=0.9)
        for _ in range(3):
            model2.train()
            for batch_idx, (images, labels) in enumerate(loader):
                logits = model2(Tensor(images))
                loss = F.cross_entropy(logits, labels)
                model2.zero_grad()
                loss.backward()
                opt2.step()
                if batch_idx + 1 >= 2:
                    break
        assert _params_equal(model, model2)

    @pytest.mark.parametrize("interrupt_step,qat", [
        pytest.param(1, False, id="1"), pytest.param(5, False, id="5"),
        pytest.param(9, False, id="9"), pytest.param(5, True, id="qat-5")])
    def test_resume_mid_epoch_is_bit_exact(self, tmp_path, interrupt_step, qat):
        # qat=True resumes the paper's fine-tuning: learned log2 t scales,
        # SGD chained with Adam, a KD teacher, frozen observers.
        trainer_a, model_a, _ = _build(transform=_flip, qat=qat)
        trainer_a.fit(epochs=3)

        class _Interrupt(Exception):
            pass

        store = CheckpointStore(tmp_path, keep_last=2)
        trainer_b, _, _ = _build(transform=_flip, qat=qat, store=store)
        original = trainer_b._maybe_kill_self

        def interrupt():
            original()
            if trainer_b.global_step == interrupt_step:
                raise _Interrupt

        trainer_b._maybe_kill_self = interrupt
        with pytest.raises(_Interrupt):
            trainer_b.fit(epochs=3)

        # A "fresh process": rebuild everything from the seed, then resume.
        trainer_c, model_c, _ = _build(transform=_flip, qat=qat, store=store)
        assert trainer_c.resume() == interrupt_step
        trainer_c.fit(epochs=3)
        assert _params_equal(model_a, model_c)
        assert _buffers_equal(model_a, model_c)
        assert trainer_a.history == trainer_c.history
        assert _optimizer_states_equal(trainer_a.optimizer.state_dict(),
                                       trainer_c.optimizer.state_dict())

    def test_resume_with_schedulers_restores_lr(self, tmp_path):
        store = CheckpointStore(tmp_path)

        def build_with_sched(store=None):
            trainer, model, _ = _build(store=store)
            sched = StepLR(trainer.optimizer, step_size=1, gamma=0.5)
            trainer.schedulers = [sched]
            return trainer, model

        trainer_a, model_a = build_with_sched()
        trainer_a.fit(epochs=3)

        trainer_b, _ = build_with_sched(store=store)
        trainer_b.fit(epochs=2)        # commits at the epoch-2 boundary
        trainer_c, model_c = build_with_sched(store=store)
        assert trainer_c.resume() == trainer_b.global_step
        assert trainer_c.optimizer.param_groups[0]["lr"] == \
            trainer_b.optimizer.param_groups[0]["lr"]
        trainer_c.fit(epochs=3)
        assert _params_equal(model_a, model_c)

    def test_resume_without_store_raises(self):
        trainer, _, _ = _build()
        with pytest.raises(RuntimeError):
            trainer.resume()

    def test_resume_on_empty_store_returns_zero(self, tmp_path):
        trainer, _, _ = _build(store=CheckpointStore(tmp_path))
        assert trainer.resume() == 0


# --------------------------------------------------------------------------- #
# Gradient sharding (no processes: pure aggregation semantics)
# --------------------------------------------------------------------------- #
class TestAggregation:
    def test_chunk_bounds_keyed_to_num_workers(self):
        assert chunk_bounds(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]
        assert chunk_bounds(10, 4) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert chunk_bounds(3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert chunk_bounds(5, 1) == [(0, 5)]
        with pytest.raises(ValueError):
            chunk_bounds(0, 4)

    def test_single_shard_matches_direct_backward(self):
        seed_everything(0)
        raw = make_shapes_dataset(num_samples=8, num_classes=4, size=8, seed=0)
        model = MicroNet(num_classes=4, seed=0)
        job = GradStepJob(model)
        params_flat, buffers_flat = flatten_state(model)
        frame = encode_frame(raw.images, raw.labels, params_flat, buffers_flat)
        reply = job.compile()(frame)
        n = len(raw.images)
        assert reply.shape == (job.reply_size,)
        assert reply[1] == n

        model.train()
        logits = model(Tensor(raw.images))
        loss = F.cross_entropy(logits, raw.labels)
        model.zero_grad()
        loss.backward(np.float64(n))
        assert reply[0] == pytest.approx(float(loss.data) * n)
        cursor = 2
        for _, param in model.named_parameters():
            seg = reply[cursor:cursor + param.size]
            np.testing.assert_array_equal(seg, param.grad.ravel())
            cursor += param.size

    def test_sharded_step_equals_degraded_pool_semantics(self):
        # The inline num_workers=2 path (no processes) is the oracle the
        # chaos suite holds the real pool to; here we pin its determinism:
        # same frames, same chunk order -> same result, repeatably.
        results = []
        for _ in range(2):
            # An unknown start method makes pool construction fail, which is
            # exactly the degrade-at-birth path (no worker processes needed).
            trainer, model, _ = _build(num_workers=2,
                                       mp_context="__no_such_context__")
            assert trainer.degraded
            trainer.fit(epochs=1)
            results.append([p.data.copy() for p in model.parameters()])
        for p, q in zip(*results):
            np.testing.assert_array_equal(p, q)

    def test_accumulate_replies_validates_size(self):
        model = MicroNet(num_classes=4, seed=0)
        job = GradStepJob(model)
        with pytest.raises(ValueError):
            accumulate_replies([np.zeros(3)], job)
        with pytest.raises(ValueError):
            accumulate_replies([], job)

    def test_job_protocol_shape_and_dtype(self):
        model = MicroNet(num_classes=4, seed=0)
        job = GradStepJob(model)
        assert job.out_shape((999,)) == (job.reply_size,)
        assert job.out_dtype(np.float32) == np.float64

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            GradStepJob(MicroNet(num_classes=4, seed=0), loss="hinge")
        with pytest.raises(ValueError):
            _build(loss="hinge")


# --------------------------------------------------------------------------- #
# Arena-backed autograd workspaces (satellite: lease reclamation coverage)
# --------------------------------------------------------------------------- #
class TestTrainingArena:
    def test_steady_state_training_reuses_workspaces(self):
        pool = ArenaPool()
        trainer, model, _ = _build(arena_pool=pool)
        trainer.fit(epochs=1)
        assert pool.created == 1
        assert pool.leased == 0
        assert pool.reclaimed == 0
        [arena] = pool._all
        assert len(arena) > 0          # the padded stages actually landed
        sizes = arena.nbytes
        trainer.fit(epochs=2)          # same shapes: no growth
        assert pool.created == 1 and arena.nbytes == sizes

    def test_training_results_unchanged_by_arena(self):
        trainer_a, model_a, _ = _build()
        trainer_a.fit(epochs=2)
        trainer_b, model_b, _ = _build(arena_pool=ArenaPool())
        trainer_b.fit(epochs=2)
        assert _params_equal(model_a, model_b)
        assert _buffers_equal(model_a, model_b)

    def test_exception_mid_step_reclaims_and_clears_lease(self):
        pool = ArenaPool()
        trainer, model, _ = _build(arena_pool=pool)
        trainer.fit(epochs=1, max_batches=1)   # warm: one arena, buffers live
        [arena] = pool._all
        assert len(arena) > 0

        class _Boom(Exception):
            pass

        original_forward = model.forward

        def exploding_forward(x):
            raise _Boom("aborted mid-step")

        model.forward = exploding_forward
        with pytest.raises(_Boom):
            trainer.fit(epochs=2)
        model.forward = original_forward

        # The aborted step's lease came back via the exception path: the
        # arena was reclaimed *and* cleared, and nothing is left leased.
        assert pool.reclaimed == 1
        assert pool.leased == 0
        assert len(arena) == 0 and arena.nbytes == 0

        # The pool is healthy afterwards: training proceeds on a re-leased
        # (re-populated) arena.
        trainer.fit(epochs=2)
        assert pool.leased == 0 and len(arena) > 0

    def test_use_arena_scopes_and_restores_on_exception(self):
        from repro.engine import current_arena
        pool = ArenaPool()
        assert current_arena() is None
        with pytest.raises(RuntimeError):
            with pool.lease() as arena, use_arena(arena):
                assert current_arena() is arena
                raise RuntimeError("abort")
        assert current_arena() is None
        assert pool.reclaimed == 1
