"""Tests for the Winograd convolution (float, autograd and tap-wise QAT paths)."""

import copy
from dataclasses import dataclass, replace

import numpy as np
import pytest
from composed_winograd import composed_qat_forward
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import use_backend
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quant import QuantWinogradConv2d
from repro.winograd import (get_transform, winograd_conv2d, winograd_conv2d_tensor,
                            winograd_f2, winograd_f4, winograd_f6)
from repro.winograd.conv import winograd_output_shape


class TestFloatEquivalence:
    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_matches_im2col_same_padding(self, factory, rng, small_image_batch,
                                         small_kernel):
        ref = F.conv2d_numpy(small_image_batch, small_kernel, padding=1)
        out = winograd_conv2d(small_image_batch, small_kernel, factory(), padding=1)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_im2col_other_paddings(self, padding, rng):
        x = rng.normal(size=(1, 2, 11, 13))
        w = rng.normal(size=(3, 2, 3, 3))
        ref = F.conv2d_numpy(x, w, padding=padding)
        out = winograd_conv2d(x, w, winograd_f4(), padding=padding)
        np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_with_bias(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        ref = F.conv2d_numpy(x, w, b, padding=1)
        out = winograd_conv2d(x, w, winograd_f4(), bias=b, padding=1)
        np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_f6_still_accurate_in_float(self, rng):
        x = rng.normal(size=(1, 2, 12, 12))
        w = rng.normal(size=(2, 2, 3, 3))
        ref = F.conv2d_numpy(x, w, padding=1)
        out = winograd_conv2d(x, w, winograd_f6(), padding=1)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_wrong_kernel_size_raises(self, rng):
        with pytest.raises(ValueError):
            winograd_conv2d(rng.normal(size=(1, 1, 8, 8)),
                            rng.normal(size=(1, 1, 5, 5)), winograd_f4())

    @given(st.integers(4, 17), st.integers(4, 17))
    def test_arbitrary_spatial_sizes(self, h, w):
        """Non-multiple-of-m sizes exercise the zero-padding waste path."""
        rng = np.random.default_rng(h * 31 + w)
        x = rng.normal(size=(1, 2, h, w))
        weight = rng.normal(size=(2, 2, 3, 3))
        ref = F.conv2d_numpy(x, weight, padding=1)
        out = winograd_conv2d(x, weight, winograd_f4(), padding=1)
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_output_shape_helper(self):
        assert winograd_output_shape(32, 32) == (32, 32)
        assert winograd_output_shape(15, 20, r=3, padding=0) == (13, 18)


class TestAutogradPath:
    def test_forward_matches_conv2d(self, rng, small_image_batch, small_kernel):
        ref = F.conv2d(Tensor(small_image_batch), Tensor(small_kernel), padding=1)
        out = winograd_conv2d_tensor(Tensor(small_image_batch), Tensor(small_kernel),
                                     winograd_f4(), padding=1)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-10)

    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_gradients_match_im2col_conv(self, factory, rng):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))

        x1, w1, b1 = (Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                      Tensor(b, requires_grad=True))
        (winograd_conv2d_tensor(x1, w1, factory(), bias=b1, padding=1) ** 2).sum().backward()

        x2, w2, b2 = (Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                      Tensor(b, requires_grad=True))
        (F.conv2d(x2, w2, b2, padding=1) ** 2).sum().backward()

        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-8)
        np.testing.assert_allclose(w1.grad, w2.grad, atol=1e-8)
        np.testing.assert_allclose(b1.grad, b2.grad, atol=1e-8)


# --------------------------------------------------------------------------- #
# Tap-wise QAT: one fused node per layer vs the composed graph
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class QatCase:
    transform: str
    n: int
    cin: int
    cout: int
    h: int
    w: int
    padding: int
    learned: bool
    granularity: str
    spatial_bits: int | None
    seed: int

    @property
    def geometry(self) -> str:
        return (f"{self.transform}-n{self.n}-c{self.cin}x{self.cout}-"
                f"{self.h}x{self.w}-p{self.padding}")

    def __str__(self) -> str:
        return (f"{self.geometry}-"
                f"{'learned' if self.learned else 'observed'}-"
                f"{self.granularity}-s{self.spatial_bits}")


def _qat_cases() -> list[QatCase]:
    """Seeded geometries: F2/F4, padding 0-2, odd and prime sizes, Cin 1..32,
    learned and observed scales, every granularity."""
    gen = np.random.default_rng(20261018)
    granularities = ["per_tap", "per_tap", "per_tensor", "per_channel",
                     "per_channel_and_tap"]
    cases = []
    for i in range(16):
        learned = i % 4 >= 2
        cases.append(QatCase(
            transform=("F2", "F4")[i % 2],
            n=int(gen.integers(1, 4)),
            cin=[1, 32][i] if i < 2 else int(gen.integers(1, 33)),
            cout=int(gen.integers(1, 9)),
            h=int(gen.choice([5, 7, 9, 11, 13, 15, 17])),
            w=int(gen.choice([5, 7, 9, 11, 13, 15, 17])),
            padding=int(gen.integers(0, 3)),
            learned=learned,
            granularity=granularities[i % len(granularities)],
            spatial_bits=None if i % 5 == 4 else 8,
            seed=int(gen.integers(2 ** 31))))
    return cases


def _qat_layer(case: QatCase) -> tuple[QuantWinogradConv2d, np.ndarray, np.ndarray]:
    """A calibrated layer (learned scales enabled when asked), an input and
    an upstream gradient."""
    rng = np.random.default_rng(case.seed)
    layer = QuantWinogradConv2d(
        case.cin, case.cout, transform=case.transform, padding=case.padding,
        spatial_bits=case.spatial_bits, granularity=case.granularity,
        power_of_two=case.learned or case.seed % 2 == 0, rng=rng)
    layer.bias.data = rng.normal(size=case.cout)
    with use_backend("reference"):
        composed_qat_forward(layer, Tensor(rng.normal(size=(
            case.n, case.cin, case.h, case.w))))
    if case.learned:
        layer.enable_learned_scales()
    x = rng.normal(size=(case.n, case.cin, case.h, case.w))
    out_h, out_w = winograd_output_shape(case.h, case.w, padding=case.padding)
    return layer, x, rng.normal(size=(case.n, case.cout, out_h, out_w))


def _qat_step(layer: QuantWinogradConv2d, x: np.ndarray, grad: np.ndarray,
              backend: str, composed: bool) -> dict:
    """One fwd+bwd on a copy of ``layer``: output, gradients, observer state."""
    layer = copy.deepcopy(layer)
    xt = Tensor(x, requires_grad=True)
    with use_backend(backend):
        out = composed_qat_forward(layer, xt) if composed else layer(xt)
    out.backward(grad)
    result = {"out": out.data, "dx": xt.grad, "dw": layer.weight.grad,
              "db": layer.bias.grad}
    for name, q in (("input", layer.input_wino_quant),
                    ("weight", layer.weight_wino_quant),
                    ("act", layer.act_quant), ("spatial", layer.weight_quant)):
        if q is None:
            continue
        if q.log2_t is not None:
            result[f"dlog2_{name}"] = q.log2_t.grad
        result[f"running_max_{name}"] = q.observer.running_max
    return result


@pytest.mark.parametrize("case", _qat_cases(), ids=str)
class TestQatConv:
    def test_reference_is_the_composed_graph(self, case):
        layer, x, grad = _qat_layer(case)
        fused = _qat_step(layer, x, grad, "reference", composed=False)
        composed = _qat_step(layer, x, grad, "reference", composed=True)
        assert fused.keys() == composed.keys()
        for key, want in composed.items():
            assert fused[key].shape == want.shape, key
            np.testing.assert_array_equal(fused[key], want, err_msg=key)

    def test_fast_matches_reference(self, case):
        layer, x, grad = _qat_layer(case)
        fast = _qat_step(layer, x, grad, "fast", composed=False)
        ref = _qat_step(layer, x, grad, "reference", composed=False)
        assert fast.keys() == ref.keys()
        for key, want in ref.items():
            assert fast[key].shape == want.shape, key
            err = np.abs(fast[key] - want).max()
            assert err <= 1e-10 * max(np.abs(want).max(), 1e-300), (key, err)


def _float_cases() -> list[QatCase]:
    """The sweep's geometries, plus each F4 one again as F6, for the float
    step (which ignores the quantizer fields)."""
    cases = _qat_cases()
    return cases + [replace(c, transform="F6") for c in cases
                    if c.transform == "F4"]


@pytest.mark.parametrize("case", _float_cases(), ids=lambda c: c.geometry)
class TestFloatStep:
    def test_fast_matches_reference(self, case):
        """The fused step with no quantizers: output and every gradient."""
        rng = np.random.default_rng(case.seed)
        x = rng.normal(size=(case.n, case.cin, case.h, case.w))
        w = rng.normal(size=(case.cout, case.cin, 3, 3))
        b = rng.normal(size=case.cout)
        out_h, out_w = winograd_output_shape(case.h, case.w, padding=case.padding)
        grad = rng.normal(size=(case.n, case.cout, out_h, out_w))
        results = {}
        for backend in ("fast", "reference"):
            xt, wt, bt = (Tensor(v.copy(), requires_grad=True) for v in (x, w, b))
            out = winograd_conv2d_tensor(xt, wt, get_transform(case.transform),
                                         bias=bt, padding=case.padding,
                                         backend=backend)
            out.backward(grad)
            results[backend] = {"out": out.data, "dx": xt.grad, "dw": wt.grad,
                                "db": bt.grad}
        for key, want in results["reference"].items():
            got = results["fast"][key]
            assert got.shape == want.shape, key
            err = np.abs(got - want).max()
            assert err <= 1e-10 * max(np.abs(want).max(), 1e-300), (key, err)
