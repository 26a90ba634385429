"""Shared helpers for the operator performance models."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...models.layer_specs import Conv2DSpec
from ..profile import CycleBreakdown

__all__ = ["ceil_div", "LayerWorkload", "assemble_critical_path"]


def ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


@dataclass(frozen=True)
class LayerWorkload:
    """A Conv2D layer shape bound to a batch size (what one operator runs on)."""

    spec: Conv2DSpec
    batch: int = 1

    @property
    def macs(self) -> int:
        return self.spec.macs(self.batch)

    @property
    def ifm_bytes(self) -> int:
        return self.spec.ifm_bytes(self.batch)

    @property
    def weight_bytes(self) -> int:
        return self.spec.weight_bytes()

    @property
    def ofm_bytes(self) -> int:
        return self.spec.ofm_bytes(self.batch)

    @property
    def out_positions(self) -> int:
        return self.batch * self.spec.out_h * self.spec.out_w

    @staticmethod
    def from_shape(name: str, batch: int, cin: int, cout: int, out_h: int,
                   out_w: int, kernel: int = 3, stride: int = 1) -> "LayerWorkload":
        """Convenience constructor used by the synthetic Table IV sweep."""
        spec = Conv2DSpec(name=name, cin=cin, cout=cout, kernel=kernel,
                          stride=stride, out_h=out_h, out_w=out_w)
        return LayerWorkload(spec=spec, batch=batch)


def tiles_per_dim(extent: int, m: int) -> int:
    """Number of Winograd output tiles covering ``extent`` output pixels."""
    return math.ceil(extent / m)


def assemble_critical_path(stage_times: dict[str, float],
                           prologue: list[tuple[str, float]],
                           prologue_cycles: float,
                           ifm_bytes: float,
                           l1_size_bytes: int,
                           ) -> tuple[CycleBreakdown, float, str]:
    """Critical-path model shared by the im2col and Winograd operators.

    The exposed prologue (weight load, and for Winograd the on-the-fly weight
    transformation) precedes the steady state; in steady state the slowest
    pipeline stage dominates and every other stage is exposed only for its
    pipeline-fill share (one outer-loop block out of ``num_outer``).

    Parameters
    ----------
    stage_times:
        Per-stage cycles of the steady-state pipeline.
    prologue:
        ``(stage_name, cycles)`` entries accounted before the steady state
        (their cycles are itemised in the breakdown).
    prologue_cycles:
        Total exposed prologue time added to the critical path (passed
        separately so callers can use e.g. ``max(load, xform)`` overlap
        models while still itemising both components).
    ifm_bytes / l1_size_bytes:
        Determine the number of outer-loop blocks (pipeline-fill exposure).

    Returns ``(breakdown, total_cycles, bottleneck_stage)``.
    """
    bottleneck = max(stage_times, key=stage_times.get)
    l2_tile_size = l1_size_bytes // 2   # bytes per outer-loop block
    num_outer = max(8, ceil_div(int(ifm_bytes), l2_tile_size))

    breakdown = CycleBreakdown()
    for stage, cycles in prologue:
        breakdown.add(stage, cycles)
    total = prologue_cycles + stage_times[bottleneck]
    breakdown.add(bottleneck, stage_times[bottleneck])
    for stage, time in stage_times.items():
        if stage == bottleneck:
            continue
        fill = time / num_outer
        breakdown.add(stage, fill)
        total += fill
    return breakdown, total, bottleneck
