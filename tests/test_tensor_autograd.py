"""Tests of the reverse-mode autograd engine (repro.nn.tensor)."""

import copy
import inspect
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestBasicOps:
    def test_add_backward_broadcast(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        out = (a + b).sum()
        out.backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_backward(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_neg_sub_rsub(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (5.0 - a) - (-a)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [5.0, 5.0])
        np.testing.assert_allclose(a.grad, [0.0, 0.0])

    def test_matmul_backward_matches_numeric(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        at = Tensor(a.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        ((at @ bt) ** 2).sum().backward()
        num = numeric_grad(lambda x: float(((x @ b) ** 2).sum()), a.copy())
        np.testing.assert_allclose(at.grad, num, atol=1e-5)

    def test_batched_matmul_broadcast(self, rng):
        a = Tensor(rng.normal(size=(5, 2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (5, 2, 3, 4)
        assert b.grad.shape == (4, 4)

    def test_exp_log_sqrt_abs(self, rng):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        xt = Tensor(x.copy(), requires_grad=True)
        out = (xt.exp().log() + xt.sqrt() + xt.abs()).sum()
        out.backward()
        num = numeric_grad(lambda v: float(np.sum(np.log(np.exp(v)) + np.sqrt(v) + np.abs(v))),
                           x.copy())
        np.testing.assert_allclose(xt.grad, num, atol=1e-4)

    def test_relu_clamp_gradients(self):
        x = Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0, 0, 1, 1])
        y = Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)
        y.clamp(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(y.grad, [0, 1, 1, 0])

    def test_sigmoid_tanh_grads_numeric(self, rng):
        x = rng.normal(size=(5,))
        xt = Tensor(x.copy(), requires_grad=True)
        (xt.sigmoid() * xt.tanh()).sum().backward()
        num = numeric_grad(
            lambda v: float(np.sum(1 / (1 + np.exp(-v)) * np.tanh(v))), x.copy())
        np.testing.assert_allclose(xt.grad, num, atol=1e-5)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        x.sum(axis=(0, 2)).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_mean_var(self, rng):
        data = rng.normal(size=(3, 5))
        x = Tensor(data, requires_grad=True)
        assert np.isclose(x.mean().item(), data.mean())
        assert np.isclose(x.var().item(), data.var())

    def test_max_backward_distributes_to_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_min(self):
        x = Tensor([[3.0, -1.0, 2.0]])
        assert x.min().item() == -1.0

    def test_reshape_transpose_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = x.reshape(6, 4).T.reshape(4, 6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_getitem_backward(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        x[0].sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1, 1], [0, 0, 0]])

    def test_pad_backward(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        x.pad(((1, 1), (0, 2))).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))

    def test_stack_concatenate(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        Tensor.stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        a.zero_grad(); b.zero_grad()
        Tensor.concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_flatten_swapaxes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.flatten(1).shape == (2, 12)
        assert x.swapaxes(0, 2).shape == (4, 3, 2)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulation_over_two_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_detach_stops_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        (x.detach() * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
            leafless = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        assert not y.requires_grad and not leafless.requires_grad
        (y * x).sum().backward()            # y enters the graph as a constant
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_diamond_graph_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])
        x.zero_grad()
        (x * x).sum().backward()            # both operands are one leaf
        np.testing.assert_array_equal(x.grad, [6.0])
        x.zero_grad()
        h = x.exp()                         # an intermediate used twice
        (h * h + h).sum().backward()
        e = np.exp(3.0)
        np.testing.assert_allclose(x.grad, [2 * e * e + e], rtol=1e-14)

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_as_tensor_idempotent(self):
        x = Tensor([1.0])
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestGraphSemantics:
    def test_non_grad_parent_gets_no_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        (w * c).sum().backward()
        np.testing.assert_array_equal(w.grad, [3.0, 4.0])
        assert c.grad is None

    def test_from_op_none_gradient_is_skipped(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = Tensor.from_op(a.data + b.data, (a, b), lambda g: (g, None))
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0])
        assert b.grad is None

    def test_second_backward_on_same_graph_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_float32_leaf_keeps_float32_grad(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        (x * 3.0).sum().backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_deepcopy_after_backward_sends_grads_to_the_copy(self, rng):
        from repro.nn.layers import Linear
        model = Linear(3, 2)
        x = Tensor(rng.normal(size=(4, 3)))
        model(x).sum().backward()          # caches the parameters' leaf nodes
        clone = copy.deepcopy(model)
        model.zero_grad()
        clone.zero_grad()
        clone(x).sum().backward()
        assert all(p.grad is None for p in model.parameters())
        assert all(p.grad is not None for p in clone.parameters())


class TestGradModeThreads:
    """``no_grad`` switches autograd off for the calling thread only."""

    def test_overlapping_no_grad_blocks_leave_grad_on(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                start = threading.Barrier(3)

                def work():
                    start.wait()
                    for _ in range(200):
                        with no_grad():
                            Tensor(np.ones(4), requires_grad=True)

                threads = [threading.Thread(target=work) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert is_grad_enabled()
        finally:
            sys.setswitchinterval(previous)

    def test_no_grad_in_one_thread_leaves_other_threads_on(self):
        inside, checked = threading.Event(), threading.Event()

        def hold():
            with no_grad():
                inside.set()
                checked.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert inside.wait(10)
            assert is_grad_enabled()
            assert Tensor(np.ones(2), requires_grad=True).requires_grad
        finally:
            checked.set()
            thread.join()


class TestGraphMemory:
    def test_only_arrays_saved_by_a_backward_outlive_the_forward(self, rng):
        from repro.nn.layers import BatchNorm2d
        bn = BatchNorm2d(4)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        h = x * 2.0                 # saves x and 2.0, not its output
        y = bn(h)                   # saves x_hat, not its input or output
        z = y.relu()                # saves the mask, not y or z
        loss = z.sum()
        dropped = [weakref.ref(t.data) for t in (h, y, z)]
        x_hat = weakref.ref(
            inspect.getclosurevars(y._node.backward).nonlocals["x_hat"])
        del h, y, z
        assert [ref() for ref in dropped] == [None, None, None]
        assert x_hat() is not None
        loss.backward()
        assert x.grad.shape == x.shape and np.isfinite(x.grad).all()

    def test_tapwise_qat_step_peak_memory(self):
        # One tap-wise F4 resnet_tiny fwd+bwd at batch 8 peaks at ~14 MB with
        # only saved arrays alive; a graph that keeps every activation peaks
        # at ~28 MB.
        from repro.datasets.synthetic import make_shapes_dataset
        from repro.models.resnet_cifar import resnet_tiny
        from repro.nn.data import DataLoader
        from repro.nn.functional import cross_entropy
        from repro.quant import QatConfig, calibrate_model, convert_model
        model = convert_model(resnet_tiny(seed=3),
                              QatConfig(algorithm="F4", tapwise=True,
                                        power_of_two=True))
        calib = make_shapes_dataset(num_samples=16, seed=4)
        calibrate_model(model, DataLoader(calib, batch_size=8, shuffle=False),
                        max_batches=2)
        model.train()
        data = make_shapes_dataset(num_samples=8, seed=5)
        tracemalloc.start()
        try:
            cross_entropy(model(Tensor(data.images)), data.labels).backward()
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb <= 18.0


class TestHypothesisProperties:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_sum_matches_numpy(self, values):
        x = Tensor(np.array(values))
        assert np.isclose(x.sum().item(), np.sum(values))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    def test_matmul_forward_matches_numpy(self, n, k, m):
        rng = np.random.default_rng(n * 100 + k * 10 + m)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, atol=1e-12)

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_mul_gradient_is_other_operand(self, n, m):
        rng = np.random.default_rng(n * 7 + m)
        a = rng.normal(size=(n, m))
        b = rng.normal(size=(n, m))
        at = Tensor(a, requires_grad=True)
        (at * Tensor(b)).sum().backward()
        np.testing.assert_allclose(at.grad, b, atol=1e-12)
