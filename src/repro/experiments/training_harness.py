"""Shared training harness for the accuracy experiments (Tables II and III).

The paper fine-tunes ImageNet/CIFAR networks for many epochs on GPUs; this
reproduction runs the same *flow* — float baseline training, conversion to a
quantized Winograd network, calibration, optional learned-scale enabling,
fine-tuning with or without knowledge distillation, evaluation — on synthetic
datasets and scaled-down models so that a full ablation completes on a CPU in
minutes.  The absolute accuracies differ from the paper; the orderings between
quantization configurations are what the experiments (and tests) check.  The
baseline and every fine-tune run on one loop, :class:`repro.train.Trainer`
(sharded and crash-safe as :class:`StudySettings` asks).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..datasets.synthetic import make_shapes_dataset
from ..nn.data import ArrayDataset, DataLoader, train_val_split
from ..nn.module import Module
from ..nn.optim import SGD
from ..quant.kd import TeacherDistillation
from ..quant.qat import (QatConfig, calibrate_model, convert_model,
                         enable_learned_scales, evaluate, finetune_optimizer,
                         freeze_calibration)
from ..train import CheckpointStore, DataParallelTrainer, Trainer
from ..utils.seeding import seed_everything

__all__ = ["StudySettings", "StudyRow", "QuantizationStudy", "train_float_baseline"]


@dataclass
class StudySettings:
    """Size/duration knobs of one accuracy study."""

    num_train: int = 256
    num_test: int = 128
    num_classes: int = 10
    image_size: int = 32
    batch_size: int = 32
    baseline_epochs: int = 3
    finetune_epochs: int = 1
    max_batches: int | None = None
    lr: float = 0.05
    scale_lr: float = 0.01
    noise_level: float = 1.5
    seed: int = 0
    num_workers: int = 0              # gradient-shard workers, every training
    checkpoint_dir: str | None = None  # baseline here, fine-tunes in <dir>/<label>
    checkpoint_every: int = 1

    @staticmethod
    def fast() -> "StudySettings":
        """A configuration that completes in seconds (used by tests/benches)."""
        return StudySettings(num_train=160, num_test=80, num_classes=10,
                             image_size=16, batch_size=16, baseline_epochs=6,
                             finetune_epochs=1, max_batches=8, lr=0.08,
                             noise_level=2.5)


@dataclass
class StudyRow:
    """Result of evaluating one quantization configuration."""

    label: str
    config: QatConfig | None
    top1: float
    drop: float


def train_float_baseline(model: Module, train_loader: DataLoader,
                         val_loader: DataLoader, epochs: int, lr: float,
                         max_batches: int | None = None, *,
                         num_workers: int = 0,
                         store: CheckpointStore | None = None,
                         checkpoint_every: int = 1,
                         resume: bool = False) -> float:
    """Train the FP32 baseline with SGD + momentum; returns final top-1.

    Runs on :class:`repro.train.Trainer` (crash-safe when ``store`` is set;
    pass ``resume=True`` to pick up from the newest committed checkpoint) or
    :class:`repro.train.DataParallelTrainer` when ``num_workers > 0``.  The
    inline batch/gradient stream is bit-identical to the pre-trainer loop,
    so accuracy results are unchanged.
    """
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9, weight_decay=1e-4)
    _fit(model, optimizer, train_loader, epochs, max_batches,
         num_workers=num_workers, store=store,
         checkpoint_every=checkpoint_every, resume=resume)
    return evaluate(model, val_loader, max_batches=max_batches)


def _fit(model: Module, optimizer, loader: DataLoader, epochs: int,
         max_batches: int | None, *, num_workers: int,
         store: CheckpointStore | None, checkpoint_every: int,
         loss="cross_entropy", resume: bool = False) -> None:
    """One run on ``Trainer``, or ``DataParallelTrainer`` with workers."""
    if num_workers > 0:
        trainer = DataParallelTrainer(model, optimizer, loader, loss=loss,
                                      num_workers=num_workers, store=store,
                                      checkpoint_every=checkpoint_every)
    else:
        trainer = Trainer(model, optimizer, loader, loss=loss, store=store,
                          checkpoint_every=checkpoint_every)
    with trainer:
        if resume and store is not None:
            trainer.resume()
        trainer.fit(epochs=epochs, max_batches=max_batches)


class QuantizationStudy:
    """Runs a float baseline once, then a list of quantization configurations."""

    def __init__(self, model_fn, settings: StudySettings | None = None,
                 dataset: ArrayDataset | None = None, log_fn=None):
        self.settings = settings or StudySettings()
        self.model_fn = model_fn
        self.log_fn = log_fn
        seed_everything(self.settings.seed)
        if dataset is None:
            dataset = make_shapes_dataset(
                num_samples=self.settings.num_train + self.settings.num_test,
                num_classes=self.settings.num_classes,
                size=self.settings.image_size,
                noise_level=self.settings.noise_level,
                seed=self.settings.seed)
        test_images = dataset.images[self.settings.num_train:]
        test_labels = dataset.labels[self.settings.num_train:]
        train_set = ArrayDataset(dataset.images[:self.settings.num_train],
                                 dataset.labels[:self.settings.num_train])
        self.test_set = ArrayDataset(test_images, test_labels)
        self.train_set, self.val_set = train_val_split(train_set, 0.2,
                                                       seed=self.settings.seed)
        self.train_loader = DataLoader(self.train_set, self.settings.batch_size,
                                       shuffle=True, seed=self.settings.seed)
        self.val_loader = DataLoader(self.val_set, self.settings.batch_size,
                                     shuffle=False)
        self.test_loader = DataLoader(self.test_set, self.settings.batch_size,
                                      shuffle=False)
        self._baseline_model: Module | None = None
        self._baseline_top1: float | None = None

    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        if self.log_fn is not None:
            self.log_fn(message)

    def _store(self, *subdir: str) -> CheckpointStore | None:
        if not self.settings.checkpoint_dir:
            return None
        return CheckpointStore(os.path.join(self.settings.checkpoint_dir, *subdir))

    def baseline(self) -> tuple[Module, float]:
        """Train (once) and cache the FP32 baseline."""
        if self._baseline_model is None:
            model = self.model_fn(num_classes=self.settings.num_classes,
                                  seed=self.settings.seed)
            train_float_baseline(model, self.train_loader, self.val_loader,
                                 epochs=self.settings.baseline_epochs,
                                 lr=self.settings.lr,
                                 max_batches=self.settings.max_batches,
                                 num_workers=self.settings.num_workers,
                                 store=self._store(),
                                 checkpoint_every=self.settings.checkpoint_every)
            top1 = evaluate(model, self.test_loader,
                            max_batches=self.settings.max_batches)
            self._baseline_model = model
            self._baseline_top1 = top1
            self._log(f"FP32 baseline top-1 = {top1:.3f}")
        return self._baseline_model, self._baseline_top1

    def run_config(self, config: QatConfig) -> StudyRow:
        """Convert, calibrate, fine-tune and evaluate one configuration."""
        baseline_model, baseline_top1 = self.baseline()
        if not config.quantize:
            return StudyRow(label=config.label(), config=config,
                            top1=baseline_top1, drop=0.0)

        model = convert_model(baseline_model, config)
        calibrate_model(model, self.train_loader, max_batches=2)
        scales = enable_learned_scales(model) if config.learned_log2 else []
        freeze_calibration(model)

        optimizer = finetune_optimizer(model, scales, lr=self.settings.lr * 0.2,
                                       scale_lr=self.settings.scale_lr)
        loss = (TeacherDistillation(baseline_model, config.kd_temperature,
                                    config.kd_alpha)
                if config.knowledge_distillation else "cross_entropy")
        _fit(model, optimizer, self.train_loader, self.settings.finetune_epochs,
             self.settings.max_batches, num_workers=self.settings.num_workers,
             store=self._store(config.label().replace("/", "_")),
             checkpoint_every=self.settings.checkpoint_every, loss=loss)
        top1 = evaluate(model, self.test_loader, max_batches=self.settings.max_batches)
        self._log(f"{config.label():32s} top-1 = {top1:.3f} "
                  f"(drop {top1 - baseline_top1:+.3f})")
        return StudyRow(label=config.label(), config=config, top1=top1,
                        drop=top1 - baseline_top1)

    def run(self, configs: list[QatConfig]) -> list[StudyRow]:
        baseline_model, baseline_top1 = self.baseline()
        rows = [StudyRow(label="FP32 baseline", config=None, top1=baseline_top1,
                         drop=0.0)]
        rows.extend(self.run_config(config) for config in configs)
        return rows
