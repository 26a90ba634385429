"""Calibration observers: tracking the dynamic range of tensors.

The paper calibrates the clipping threshold ``x_max`` as "a running average of
the maximum values obtained during the training of the full network"
(Section III).  The observers here implement that policy at different
granularities:

* **per-tensor** (layer-wise) — a single scalar per tensor,
* **per-channel** — one value per output channel (the classic fine-grained
  strategy the paper compares against in Section V-A4),
* **per-tap** — one value per Winograd tap, i.e. per ``(i, j)`` position of
  the ``alpha x alpha`` tile (the paper's contribution),
* **per-channel-and-tap** — the combined strategy of Fig. 4b.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["Granularity", "reduction_axes", "scale_shape", "RunningMaxObserver",
           "MinMaxObserver", "PercentileObserver"]


class Granularity(str, Enum):
    """Quantization granularity (which axes share a scale factor)."""

    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"
    PER_TAP = "per_tap"
    PER_CHANNEL_AND_TAP = "per_channel_and_tap"

    @staticmethod
    def parse(value: "Granularity | str") -> "Granularity":
        if isinstance(value, Granularity):
            return value
        return Granularity(str(value))


def reduction_axes(granularity: Granularity | str, ndim: int,
                   channel_axis: int = 0) -> tuple[int, ...]:
    """Axes to reduce over when computing the calibration statistic.

    Conventions: tensors in the Winograd domain carry the two tap axes as the
    *last two* dimensions; channels sit at ``channel_axis``.
    """
    granularity = Granularity.parse(granularity)
    all_axes = list(range(ndim))
    if granularity is Granularity.PER_TENSOR:
        return tuple(all_axes)
    if granularity is Granularity.PER_CHANNEL:
        return tuple(ax for ax in all_axes if ax != channel_axis % ndim)
    if granularity is Granularity.PER_TAP:
        if ndim < 2:
            raise ValueError("per-tap granularity requires at least 2 dimensions")
        return tuple(all_axes[:-2])
    if granularity is Granularity.PER_CHANNEL_AND_TAP:
        if ndim < 3:
            raise ValueError("per-channel-and-tap requires at least 3 dimensions")
        keep = {channel_axis % ndim, ndim - 2, ndim - 1}
        return tuple(ax for ax in all_axes if ax not in keep)
    raise ValueError(f"unknown granularity {granularity}")


def abs_max(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``|values|.max(axes)`` with kept dims, as ``max(max, -min)``.

    Two read-only reductions instead of an ``abs`` temporary the size of
    ``values`` plus a third pass; equal to the ``abs`` form except that a
    group of zeros may give ``-0.0``, which the observers' ``1e-12`` floor
    absorbs.
    """
    if not axes:
        return np.abs(values)
    return np.maximum(values.max(axis=axes, keepdims=True),
                      -values.min(axis=axes, keepdims=True))


def scale_shape(granularity: Granularity | str, shape: tuple[int, ...],
                channel_axis: int = 0) -> tuple[int, ...]:
    """Shape of the scale tensor, broadcastable against ``shape``."""
    axes = reduction_axes(granularity, len(shape), channel_axis)
    return tuple(1 if ax in axes else dim for ax, dim in enumerate(shape))


class RunningMaxObserver:
    """Exponential running average of the per-group absolute maximum.

    This is the paper's calibration method.  ``momentum`` controls how fast
    the estimate tracks the latest batch; during pure (post-training)
    calibration a momentum of 1/num_batches approximates a plain average.
    """

    def __init__(self, granularity: Granularity | str = Granularity.PER_TENSOR,
                 channel_axis: int = 0, momentum: float = 0.1):
        self.granularity = Granularity.parse(granularity)
        self.channel_axis = channel_axis
        self.momentum = float(momentum)
        self.running_max: np.ndarray | None = None
        self.num_updates = 0

    def reset(self) -> None:
        self.running_max = None
        self.num_updates = 0

    def update(self, values: np.ndarray) -> np.ndarray:
        """Observe a new tensor and return the current running max."""
        values = np.asarray(values)
        axes = reduction_axes(self.granularity, values.ndim, self.channel_axis)
        batch_max = np.maximum(abs_max(values, axes), 1e-12)
        if self.running_max is None:
            self.running_max = batch_max.astype(np.float64)
        else:
            self.running_max = ((1.0 - self.momentum) * self.running_max
                                + self.momentum * batch_max)
        self.num_updates += 1
        return self.running_max

    def max_value(self) -> np.ndarray:
        if self.running_max is None:
            raise RuntimeError("observer has not seen any data yet")
        return self.running_max

    def has_data(self) -> bool:
        return self.running_max is not None


class MinMaxObserver(RunningMaxObserver):
    """Tracks the all-time absolute maximum (no averaging)."""

    def update(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        axes = reduction_axes(self.granularity, values.ndim, self.channel_axis)
        batch_max = np.maximum(abs_max(values, axes), 1e-12)
        if self.running_max is None:
            self.running_max = batch_max.astype(np.float64)
        else:
            self.running_max = np.maximum(self.running_max, batch_max)
        self.num_updates += 1
        return self.running_max


class PercentileObserver(RunningMaxObserver):
    """Uses a high percentile of |x| instead of the absolute maximum.

    More robust to activation outliers; useful in the ablation studies of the
    calibration strategy (not part of the paper's main flow).
    """

    def __init__(self, granularity: Granularity | str = Granularity.PER_TENSOR,
                 channel_axis: int = 0, momentum: float = 0.1,
                 percentile: float = 99.9):
        super().__init__(granularity, channel_axis, momentum)
        self.percentile = float(percentile)

    def update(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        axes = reduction_axes(self.granularity, values.ndim, self.channel_axis)
        magnitude = np.abs(values)
        if axes:
            batch_stat = np.percentile(magnitude, self.percentile, axis=axes, keepdims=True)
        else:
            batch_stat = magnitude
        batch_stat = np.maximum(batch_stat, 1e-12)
        if self.running_max is None:
            self.running_max = np.asarray(batch_stat, dtype=np.float64)
        else:
            self.running_max = ((1.0 - self.momentum) * self.running_max
                                + self.momentum * batch_stat)
        self.num_updates += 1
        return self.running_max
