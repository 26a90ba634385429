"""Tests for the Module system, layers, and optimizers."""

import numpy as np
import pytest

from repro.nn import (SGD, Adam, BatchNorm2d, Conv2d, CosineAnnealingLR, Dropout,
                      Flatten, GlobalAvgPool2d, Linear, MaxPool2d, Module,
                      ModuleList, Parameter, ReLU, Sequential, StepLR, Tensor)
from repro.nn import functional as F


class TestModule:
    def test_parameter_and_submodule_registration(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(4, 2)
                self.scale = Parameter(np.ones(1))

            def forward(self, x):
                return self.fc(x) * self.scale

        net = Net()
        names = [name for name, _ in net.named_parameters()]
        assert "scale" in names and "fc.weight" in names and "fc.bias" in names
        assert net.num_parameters() == 4 * 2 + 2 + 1

    def test_state_dict_roundtrip(self):
        net = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4), ReLU(),
                         GlobalAvgPool2d(), Linear(4, 2))
        state = net.state_dict()
        net2 = Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4), ReLU(),
                          GlobalAvgPool2d(), Linear(4, 2))
        net2.load_state_dict(state)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        net.eval(); net2.eval()
        np.testing.assert_allclose(net(x).data, net2(x).data, atol=1e-12)

    def test_load_state_dict_shape_mismatch_raises(self):
        net = Linear(4, 2)
        bad = {"weight": np.zeros((3, 3)), "bias": np.zeros(2)}
        with pytest.raises(ValueError):
            net.load_state_dict(bad)

    def test_train_eval_propagates(self):
        net = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4), Dropout(0.5))
        net.eval()
        assert all(not module.training for module in net.modules())
        net.train()
        assert all(module.training for module in net.modules())

    def test_module_list(self):
        blocks = ModuleList([Linear(2, 2) for _ in range(3)])
        assert len(blocks) == 3
        assert len(list(blocks.parameters())) == 6
        with pytest.raises(RuntimeError):
            blocks(Tensor(np.zeros((1, 2))))

    def test_zero_grad(self):
        layer = Linear(3, 2)
        out = layer(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_conv_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1)
        out = layer(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 8, 8, 8)

    def test_batchnorm_normalises_in_train_mode(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(8, 4, 6, 6)))
        out = bn(x).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-2

    def test_batchnorm_running_stats_used_in_eval(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)
        x = rng.normal(loc=1.0, size=(16, 2, 4, 4))
        bn(Tensor(x))                      # updates running stats
        bn.eval()
        out = bn(Tensor(x)).data
        assert abs(out.mean()) < 0.1

    def test_batchnorm_fold(self, rng):
        bn = BatchNorm2d(3, momentum=1.0)
        x = rng.normal(size=(4, 3, 5, 5))
        bn(Tensor(x))
        bn.eval()
        scale, shift = bn.fold_scale_shift()
        folded = x * scale.reshape(1, 3, 1, 1) + shift.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(folded, bn(Tensor(x)).data, atol=1e-6)

    def test_maxpool_flatten_linear_pipeline(self, rng):
        net = Sequential(Conv2d(1, 2, 3, padding=1), MaxPool2d(2), Flatten(),
                         Linear(2 * 4 * 4, 3))
        out = net(Tensor(rng.normal(size=(5, 1, 8, 8))))
        assert out.shape == (5, 3)


class TestOptim:
    @staticmethod
    def _quadratic_problem():
        target = np.array([1.0, -2.0, 3.0])
        param = Parameter(np.zeros(3))

        def loss_fn():
            diff = param - Tensor(target)
            return (diff * diff).sum()

        return param, target, loss_fn

    def test_sgd_converges_on_quadratic(self):
        param, target, loss_fn = self._quadratic_problem()
        opt = SGD([param], lr=0.1, momentum=0.9)
        for _ in range(150):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=2e-2)

    def test_adam_converges_on_quadratic(self):
        param, target, loss_fn = self._quadratic_problem()
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.ones(4) * 10.0)
        opt = SGD([param], lr=0.1, weight_decay=0.5)
        for _ in range(50):
            (param * 0.0).sum().backward()
            opt.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_parameter_groups_have_independent_lr(self):
        p1, p2 = Parameter(np.ones(1)), Parameter(np.ones(1))
        opt = SGD([{"params": [p1], "lr": 0.1}, {"params": [p2], "lr": 0.0}])
        for p in (p1, p2):
            p.grad = np.ones(1)
        opt.step()
        assert p1.data[0] < 1.0
        assert p2.data[0] == 1.0

    def test_step_lr_schedule(self):
        param = Parameter(np.ones(1))
        opt = SGD([param], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(sched.get_last_lr()[0])
        assert lrs == [1.0, pytest.approx(0.1), pytest.approx(0.1), pytest.approx(0.01)]

    def test_cosine_schedule_monotonically_decreases(self):
        param = Parameter(np.ones(1))
        opt = SGD([param], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10)
        last = 1.0
        for _ in range(10):
            sched.step()
            current = sched.get_last_lr()[0]
            assert current <= last + 1e-12
            last = current
        assert last < 0.05


class TestTraining:
    def test_small_network_learns_xor_like_task(self, rng):
        """End-to-end: the framework can fit a small nonlinear problem."""
        x = rng.normal(size=(128, 2))
        labels = ((x[:, 0] * x[:, 1]) > 0).astype(np.int64)
        net = Sequential(Linear(2, 16), ReLU(), Linear(16, 2))
        opt = SGD(net.parameters(), lr=0.1, momentum=0.9)
        for _ in range(150):
            logits = net(Tensor(x))
            loss = F.cross_entropy(logits, labels)
            net.zero_grad()
            loss.backward()
            opt.step()
        preds = np.argmax(net(Tensor(x)).data, axis=-1)
        assert (preds == labels).mean() > 0.9


def _composed_batchnorm(bn, x: Tensor) -> Tensor:
    """Training-mode BatchNorm2d as the original graph of Tensor ops."""
    axes = (0, 2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    with np.errstate(all="ignore"):
        bn.set_buffer("running_mean", (1 - bn.momentum) * bn.running_mean
                      + bn.momentum * mean.data.reshape(-1))
        bn.set_buffer("running_var", (1 - bn.momentum) * bn.running_var
                      + bn.momentum * var.data.reshape(-1))
    x_hat = (x - mean) / (var + bn.eps).sqrt()
    c = bn.num_features
    return x_hat * bn.weight.reshape(1, c, 1, 1) + bn.bias.reshape(1, c, 1, 1)


class TestFusedBatchNorm:
    @pytest.mark.parametrize("shape", [(8, 4, 6, 6), (2, 16, 5, 7), (1, 3, 1, 9)])
    def test_training_node_matches_composed_graph(self, rng, shape):
        gamma, beta = rng.normal(size=shape[1]) + 1.0, rng.normal(size=shape[1])
        fused, composed = BatchNorm2d(shape[1]), BatchNorm2d(shape[1])
        for bn in (fused, composed):
            bn.weight.data, bn.bias.data = gamma.copy(), beta.copy()
        for _ in range(2):                       # running stats accumulate
            x = rng.normal(loc=2.0, scale=3.0, size=shape)
            grad = rng.normal(size=shape)
            xs = [Tensor(x, requires_grad=True) for _ in range(2)]
            for bn in (fused, composed):
                bn.zero_grad()
            out_f = fused(xs[0])
            out_c = _composed_batchnorm(composed, xs[1])
            out_f.backward(grad)
            out_c.backward(grad)
            np.testing.assert_array_equal(out_f.data, out_c.data)
            np.testing.assert_array_equal(fused.running_mean, composed.running_mean)
            np.testing.assert_array_equal(fused.running_var, composed.running_var)
            for got, want in ((xs[0].grad, xs[1].grad),
                              (fused.weight.grad, composed.weight.grad),
                              (fused.bias.grad, composed.bias.grad)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_eval_branch_is_the_composed_graph(self, rng):
        bn = BatchNorm2d(3)
        bn.set_buffer("running_mean", rng.normal(size=3))
        bn.set_buffer("running_var", rng.random(size=3) + 0.5)
        bn.eval()
        x = rng.normal(size=(2, 3, 4, 4))
        want = ((x - bn.running_mean.reshape(1, 3, 1, 1))
                / np.sqrt(bn.running_var.reshape(1, 3, 1, 1) + bn.eps)
                * bn.weight.data.reshape(1, 3, 1, 1) + bn.bias.data.reshape(1, 3, 1, 1))
        np.testing.assert_array_equal(bn(Tensor(x)).data, want)
