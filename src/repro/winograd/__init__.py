"""Winograd convolution algorithms, transforms, and hardware-engine models."""

from .conv import (winograd_conv2d, winograd_conv2d_tensor, winograd_output_shape)
from .cook_toom import cook_toom_matrices, default_points, verify_transform_1d
from .dfg import TransformDFG, csd_decompose, shift_add_cost, transform_2d_cost
from .engines import (EngineSpec, RowByRowEngine, TapByTapEngine,
                      make_input_engine, make_output_engine, make_weight_engine)
from .tiling import assemble_output_tiles, pad_for_tiling, tile_counts
from .transforms import (IntegerTransformMatrices, WinogradTransform, bit_growth,
                         get_transform, integer_transform_matrices,
                         inverse_weight_transform, macs_reduction,
                         transform_input_tile, transform_output_tile,
                         transform_weight, winograd_f2, winograd_f4, winograd_f6)

__all__ = [
    "WinogradTransform", "winograd_f2", "winograd_f4", "winograd_f6", "get_transform",
    "IntegerTransformMatrices", "integer_transform_matrices",
    "transform_input_tile", "transform_weight", "transform_output_tile",
    "inverse_weight_transform", "bit_growth", "macs_reduction",
    "winograd_conv2d", "winograd_conv2d_tensor", "winograd_output_shape",
    "cook_toom_matrices", "default_points", "verify_transform_1d",
    "TransformDFG", "csd_decompose", "shift_add_cost", "transform_2d_cost",
    "EngineSpec", "RowByRowEngine", "TapByTapEngine",
    "make_input_engine", "make_weight_engine", "make_output_engine",
    "pad_for_tiling", "assemble_output_tiles", "tile_counts",
]
