"""Tests of the training-side experiment runners (Tables II and III).

These use the ``StudySettings.fast()`` preset so the whole file runs in well
under a minute on a CPU.  The assertions target the orderings that carry over
from the paper, not absolute accuracies (see DESIGN.md).
"""

import dataclasses

import pytest

from repro.experiments import (QuantizationStudy, StudySettings, run_table2,
                               run_table3, table2_configs, table3_configs)
from repro.models.small import TinyConvNet
from repro.quant import QatConfig
from repro.train import CheckpointStore


@pytest.fixture(scope="module")
def fast_settings():
    return StudySettings.fast()


@pytest.fixture(scope="module")
def mini_study(fast_settings):
    def model_fn(num_classes, seed):
        return TinyConvNet(num_classes=num_classes, channels=(8, 16, 16), seed=seed)
    return QuantizationStudy(model_fn, fast_settings)


class TestStudyHarness:
    def test_baseline_is_cached(self, mini_study):
        model1, top1_a = mini_study.baseline()
        model2, top1_b = mini_study.baseline()
        assert model1 is model2
        assert top1_a == top1_b
        assert top1_a > 0.5  # the synthetic task is learnable

    def test_run_config_produces_row(self, mini_study):
        row = mini_study.run_config(QatConfig(algorithm="F4", tapwise=True))
        assert 0.0 <= row.top1 <= 1.0
        assert row.label.startswith("F4")

    def test_finetune_checkpoints_per_config(self, tmp_path):
        """A fine-tune commits to <checkpoint_dir>/<label>, with the slots of
        both optimizers: SGD on the weights, Adam on the learned scales."""
        settings = dataclasses.replace(StudySettings.fast(), baseline_epochs=1,
                                       checkpoint_dir=str(tmp_path))
        study = QuantizationStudy(
            lambda num_classes, seed: TinyConvNet(num_classes, (8, 8, 8), seed=seed),
            settings)
        config = QatConfig(algorithm="F4", tapwise=True, power_of_two=True,
                           learned_log2=True, knowledge_distillation=True)
        study.run_config(config)
        step, payload = CheckpointStore(tmp_path / config.label()).latest()
        assert step == settings.max_batches
        sgd, adam = payload["optimizer"]["optimizers"]
        assert sgd["state"] and adam["state"]
        assert all("exp_avg" in slots for slots in adam["state"].values())

    def test_unquantized_config_matches_baseline(self, mini_study):
        _, baseline_top1 = mini_study.baseline()
        row = mini_study.run_config(QatConfig(quantize=False))
        assert row.top1 == baseline_top1
        assert row.drop == 0.0


class TestTable2:
    def test_config_grid_covers_paper_axes(self):
        configs = table2_configs()
        assert len(configs) == 15
        algorithms = {config.algorithm for config in configs}
        assert algorithms == {"im2col", "F2", "F4"}
        assert any(config.learned_log2 for config in configs)
        assert any(config.knowledge_distillation for config in configs)
        assert any(config.wino_bits == 10 for config in configs)

    def test_reduced_ablation_orderings(self, fast_settings):
        """Layer-wise F4 degrades; tap-wise F4 recovers to ~int8-im2col level."""
        configs = [
            QatConfig(algorithm="im2col"),
            QatConfig(algorithm="F4", tapwise=False),
            QatConfig(algorithm="F4", tapwise=True),
            QatConfig(algorithm="F4", tapwise=True, wino_bits=10),
            QatConfig(algorithm="F4", tapwise=True, power_of_two=True),
        ]
        result = run_table2(fast_settings, configs=configs)
        top1 = {row[0]: row[-2] for row in result.rows}
        baseline = result.metadata["baseline_top1"]
        layerwise = top1["F4-int8-WA"]
        tapwise = top1["F4-int8-WA+tap"]
        tapwise_10 = top1["F4-int8/10-WA+tap"]
        pow2 = top1["F4-int8-WA+tap+2x"]
        # Core orderings from Table II.
        assert tapwise >= layerwise
        assert tapwise_10 >= layerwise
        assert tapwise >= baseline - 0.1
        assert pow2 >= layerwise - 0.05
        # Layer-wise F4 shows a visible drop on this substitute task.
        assert layerwise <= baseline

    def test_table_formatting_columns(self, fast_settings):
        result = run_table2(fast_settings,
                            configs=[QatConfig(algorithm="F4", tapwise=True)])
        assert result.headers[-2:] == ["top1", "drop"]
        assert len(result.rows) == 2  # baseline + one config
        text = result.to_text()
        assert "F4-int8-WA+tap" in text


class TestTable3:
    def test_config_list_methods(self):
        configs = table3_configs()
        assert any(config.tapwise for config in configs)
        assert any(not config.tapwise for config in configs)

    def test_runs_on_both_models_and_ours_wins(self, fast_settings):
        configs = [
            QatConfig(algorithm="F4", tapwise=False),                      # WA static
            QatConfig(algorithm="F4", tapwise=True, power_of_two=True),    # ours
        ]
        result = run_table3(fast_settings, configs=configs)
        models = {row[0] for row in result.rows}
        assert models == {"resnet20", "vgg_nagadomi"}
        for model_name in models:
            rows = [r for r in result.as_dicts() if r["model"] == model_name]
            ours = [r["top1"] for r in rows if "ours" in r["method"]]
            static = [r["top1"] for r in rows
                      if r["method"].startswith("Winograd-aware static")]
            assert ours and static
            assert max(ours) >= max(static) - 0.05
