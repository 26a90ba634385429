"""Fast kernel backend: batched-GEMM formulations of the hot primitives.

The accelerator's whole dataflow (Section IV-B2 of the paper) rests on the
observation that the tap-wise Winograd contraction

    (N, Cin, nH, nW, a, a) x (Cout, Cin, a, a) -> (N, Cout, nH, nW, a, a)

is ``alpha²`` *independent* MatMuls — one per tap.  The reference backend
expresses it as a 6-D ``np.einsum`` that numpy executes with generic C loops;
this backend keeps the operands in a tap-major batched layout

    (a², Cout, Cin) @ (a², Cin, N·nH·nW)

so ``np.matmul`` dispatches each tap to BLAS.  The integer tap-wise forward
(``winograd_forward(quant=TapRequant(...))``) carries the integers in
float64, which BLAS multiplies exactly while every partial sum stays below
2**53.  The pair transform that binds weights is one Kronecker GEMM instead
of thousands of broadcast ``alpha x alpha`` matmuls, and the im2col
convolution runs as BLAS GEMMs too.

There is one fused Winograd pipeline.  It folds the batch into the tile
axis and runs the same tap-major stages (gather, separable ``BT x B``, tap
contraction, separable ``AT y A``, scatter) on blocks of that axis.
Inference (``winograd_forward``, float and integer) streams cache-sized
blocks of whole images or tile rows; training (``winograd_autograd``, float
and tap-wise QAT alike) runs the whole layer as one block, so each stage,
and each of its adjoints, is one numpy call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .fake_quant import fake_quantize, learned_scale_grad, signed_range
from .registry import KernelBackend, TapFakeQuant, TapRequant

__all__ = ["BACKEND", "transform_weights_tap_major"]


# --------------------------------------------------------------------------- #
# Pair transforms as one whole-batch GEMM (cached Kronecker matrices)
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def _pair_kron_cached(left_bytes: bytes, left_shape: tuple, left_dtype: str,
                      right_bytes: bytes, right_shape: tuple, right_dtype: str
                      ) -> np.ndarray:
    """Flattened-GEMM matrix for ``y = L t R``: ``kron(L, Rᵀ)ᵀ``.

    ``y[i,l] = Σ_{j,k} L[i,j] t[j,k] R[k,l]``, so with row-major flattening
    ``vec(y) = vec(t) @ kron(L, Rᵀ)ᵀ``.  The transform matrices are a few
    hundred bytes, so keying the cache on their raw bytes is cheap and keeps
    the cache correct for arbitrary (including user-supplied) matrices.
    """
    left = np.frombuffer(left_bytes, dtype=left_dtype).reshape(left_shape)
    right = np.frombuffer(right_bytes, dtype=right_dtype).reshape(right_shape)
    mat = np.ascontiguousarray(np.kron(left, right.T).T)
    mat.setflags(write=False)
    return mat


def _pair_kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return _pair_kron_cached(left.tobytes(), left.shape, left.dtype.str,
                             right.tobytes(), right.shape, right.dtype.str)


def apply_transform_pair(tiles: np.ndarray, left: np.ndarray,
                         right: np.ndarray) -> np.ndarray:
    """``left @ t @ right`` per trailing 2-D tile, as one flat GEMM.

    The reference backend broadcasts ``left @ tiles @ right``, which numpy
    executes as one tiny matmul per tile.  Here the whole batch is flattened
    to ``(B, p·q)`` and multiplied by the cached ``(p·q, o·s)`` Kronecker
    matrix — a single GEMM whose output is already in the target layout, so
    no output copy is needed.  Integer operands stay exact (integer GEMM).
    """
    o = left.shape[0]
    s = right.shape[1]
    p, q = tiles.shape[-2], tiles.shape[-1]
    kmat = _pair_kron(left, right)
    flat = np.ascontiguousarray(tiles).reshape(-1, p * q)
    return (flat @ kmat).reshape(tiles.shape[:-2] + (o, s))


# --------------------------------------------------------------------------- #
# The fused Winograd pipeline (tap-major end to end)
# --------------------------------------------------------------------------- #
# Target working-set size per pipeline block, in bytes.  Keeping the gathered
# tile block, its Winograd-domain image and the accumulator inside the
# private caches makes the kernel robust against co-runners evicting a large
# streaming working set (and is how the real accelerator tiles its L1).
# Empirically 64-160KB is a broad optimum on current cores; larger blocks
# amortise GEMM/interpreter overhead slightly better but fall out of L2
# under cache pressure: at 512 KiB the batch-8 F4 stem of ``resnet_tiny``
# (3 -> 8 channels, 32x32) took 2.8 ms instead of 1.0 ms (2-vCPU x86-64
# host, one BLAS thread).
_BLOCK_BYTES = 144 * 1024


def _tap_view(x_padded: np.ndarray, m: int, a: int) -> np.ndarray:
    """Read-only tap-major view ``(a, a, C, N, nH, nW)`` of the overlapping
    ``a x a`` tiles (stride ``m``) of the whole padded batch — no copy."""
    n, c, hp, wp = x_padded.shape
    s0, s1, s2, s3 = x_padded.strides
    return np.lib.stride_tricks.as_strided(
        x_padded, shape=(a, a, c, n, (hp - a) // m + 1, (wp - a) // m + 1),
        strides=(s2, s3, s1, s0, s2 * m, s3 * m), writeable=False)


def _blocks(n: int, n_h: int, row_bytes: int):
    """Blocks ``(images, rows)`` (two slices) over the batch-folded ``N·nH``
    tile rows: whole images while an image's ``n_h`` rows of ``row_bytes``
    fit :data:`_BLOCK_BYTES`, otherwise chunks of one image's rows."""
    rows = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    images, rows = max(1, rows // n_h), min(rows, n_h)
    for n0, i0 in product(range(0, n, images), range(0, n_h, rows)):
        yield slice(n0, min(n0 + images, n)), slice(i0, min(i0 + rows, n_h))


def _transform_taps(left: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``left @ t @ leftᵀ`` over the two leading tap axes of ``taps``.

    ``(p, p, ...) -> (o, o, ...)`` as two skinny GEMMs, one per tap axis
    (``a³`` MACs per tile instead of a Kronecker GEMM's ``a⁴``).  ``taps``
    is consumed: every caller hands over a contiguous buffer of its own,
    and the result reuses its memory when it fits, sparing the page faults
    of a fresh buffer.
    """
    o, p = left.shape
    half = np.matmul(left, taps.reshape(p, p, -1))           # second tap axis
    into = None
    if o <= p and taps.dtype == half.dtype:
        into = taps.reshape(-1)[:half.size // p * o].reshape(o, -1)
    out = np.matmul(left, half.reshape(p, -1), out=into)
    return out.reshape((o, o) + taps.shape[2:])


def _output_tiles(at: np.ndarray, acc: np.ndarray, dst: np.ndarray) -> None:
    """``AT y A`` on a block's ``(a², Cout, T)`` accumulator (consumed),
    scattered into its ``(images, Cout, rows, m, nW, m)`` output tiles."""
    nb, cout, rb, m, n_w, _ = dst.shape
    a = at.shape[1]
    dst[...] = _transform_taps(at, acc.reshape(a, a, cout, nb, rb, n_w)
                               ).transpose(3, 2, 4, 0, 5, 1)


def _output_workspace(out: np.ndarray | None, shape: tuple,
                      dtype) -> np.ndarray:
    """The given uncropped output workspace, checked, or a fresh one."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(f"out workspace must be {shape} of {np.dtype(dtype)}, "
                         f"got {out.shape} of {out.dtype}")
    return out


def transform_weights_tap_major(weight: np.ndarray, transform) -> np.ndarray:
    """``G f GT`` in the tap-major ``(a², Cout, Cin)`` layout of the fused kernel.

    Execution plans bind this once per layer (the weights of an inference
    stream are constant) so repeated :func:`winograd_forward` calls skip the
    per-call weight transformation entirely.
    """
    cout, cin, r, _ = weight.shape
    a = transform.alpha
    w_flat = weight.reshape(cout * cin, r * r) @ _pair_kron(transform.G,
                                                            transform.G.T)
    return np.ascontiguousarray(w_flat.T).reshape(a * a, cout, cin)


def winograd_forward(x_padded: np.ndarray, weight: np.ndarray, transform,
                     out_h: int, out_w: int,
                     w_r: np.ndarray | None = None,
                     out: np.ndarray | None = None,
                     quant: TapRequant | None = None,
                     stats: dict | None = None) -> np.ndarray:
    """Whole Winograd pipeline on the already-padded input, without bias.

    This is the dataflow the accelerator actually runs (Listing 1 of the
    paper): everything between the input transform and the output
    back-transform lives in a *tap-major* layout.  Per block of
    :func:`_blocks` the stages are

    1. the gather of the block's tiles from :func:`_tap_view`;
    2. ``BT x B`` as two skinny GEMMs (:func:`_transform_taps`);
    3. with a :class:`TapRequant` ``quant``, the tap-wise requantization;
    4. ``a²`` batched ``(Cout, Cin) @ (Cin, tiles)`` GEMMs for the channel
       accumulation (the Cube Unit);
    5. with ``quant``, the ``S_BG`` rescale;
    6. ``AT y A`` as two skinny GEMMs; and
    7. the scatter into the NCHW output.

    The blocks keep the whole working set cache-resident.  Running the
    whole layer as one block, as the training step does, is slower here:
    an integer ``(8, 16, 32, 32)`` layer took 9.0 ms instead of 5.1 ms, and
    the float batch-8 stem of ``resnet_tiny`` 2.7 ms instead of 1.0 ms
    (2-vCPU x86-64 host, one BLAS thread).

    With ``quant`` (the integer tap-wise path) the gather casts the integer
    input to float64, the ``BT x B`` taps are requantized in place (scale,
    ``rint``, ``clip``) and the accumulator is rescaled by ``S_BG`` before
    ``AT y A``.  Every value up to the rescale is an integer below 2**53, so
    float64 BLAS computes it exactly and the result is bit-identical to the
    integer ``reference``.

    ``out`` optionally supplies the *uncropped* ``(N, Cout, n_h*m, n_w*m)``
    output workspace (e.g. from a :class:`repro.engine.WorkspaceArena`), so
    steady-state serving loops do zero fresh large allocations here.

    With a :class:`TapFakeQuant` ``quant`` the forward of the whole-layer
    training step runs instead (:func:`_whole_layer_step`).
    """
    if isinstance(quant, TapFakeQuant):
        out, _ = _whole_layer_step(x_padded, weight, transform, out_h, out_w,
                                   quant, w_r=w_r, out=out)
        return out
    m, a = transform.m, transform.alpha
    view = _tap_view(x_padded, m, a)
    cin, n, n_h, n_w = view.shape[2:]
    cout = weight.shape[0]

    if w_r is None:
        # Transformed weights, tap-major: (a², Cout, Cin).
        w_r = transform_weights_tap_major(weight, transform)

    gather_dtype = x_padded.dtype
    if quant is not None:
        gather_dtype = np.dtype(np.float64)
        w_r = w_r.astype(np.float64, copy=False)
        in_ratio = np.reshape(quant.in_ratio, (a * a, 1, 1))
        out_scale = np.reshape(quant.out_scale, (a * a, 1, 1))
        tile_max = acc_max = q_max = 0.0
    out = _output_workspace(out, (n, cout, n_h * m, n_w * m),
                            np.result_type(gather_dtype, w_r.dtype))
    out_tiles = out.reshape(n, cout, n_h, m, n_w, m)
    for images, rows in _blocks(n, n_h, a * a * cin * n_w * gather_dtype.itemsize):
        # The gather always copies, even a contiguous slice: BT x B
        # consumes it.
        f = np.array(view[:, :, :, images, rows], dtype=gather_dtype, order="C")
        x_r = _transform_taps(transform.BT, f).reshape(a * a, cin, -1)
        if quant is not None:
            if stats is not None:
                tile_max = max(tile_max, np.abs(x_r).max())
            x_r *= in_ratio
            np.rint(x_r, out=x_r)
            np.clip(x_r, quant.qmin, quant.qmax, out=x_r)

        acc = np.matmul(w_r, x_r)                        # (a², Cout, tiles)
        if quant is not None:
            if stats is not None:
                q_max = max(q_max, np.abs(x_r).max())
                acc_max = max(acc_max, np.abs(acc).max())
            acc *= out_scale
        _output_tiles(transform.AT, acc, out_tiles[images, :, rows])
    if quant is not None and stats is not None:
        stats.update(input_tile_int_max=int(tile_max),
                     accumulator_int_max=int(acc_max), input_q_max=int(q_max))
    if out.shape[2:] == (out_h, out_w):
        return out
    return np.ascontiguousarray(out[:, :, :out_h, :out_w])


# --------------------------------------------------------------------------- #
# Whole-layer Winograd training step (batch folded into the tile axis)
# --------------------------------------------------------------------------- #
# The canonical Winograd-domain layouts the scale callbacks see, as
# permutations of the kernel's tap-major ones: inputs (N, Cin, nH, nW, a, a)
# <-> (a, a, Cin, N, nH, nW), weights (Cout, Cin, a, a) <-> (a, a, Cout, Cin).
_INPUT_FROM_TAPS, _INPUT_TO_TAPS = (3, 2, 4, 5, 0, 1), (4, 5, 1, 0, 2, 3)
_WEIGHT_PERM = (2, 3, 0, 1)                   # its own inverse

# The float step's spec: both scale callbacks leave their side unquantized.
_UNQUANTIZED = TapFakeQuant(input_bits=0, weight_bits=0,
                            input_scale=lambda taps: None,
                            weight_scale=lambda taps: None)

def _scatter_taps(dt: np.ndarray, padded_shape: tuple, m: int) -> np.ndarray:
    """Overlap scatter-add of tap-major tile gradients ``(a, a, C, N, nH, nW)``.

    The adjoint of the tile gather: one strided add per tap, each reading a
    contiguous ``(C, N, nH, nW)`` slab.  Returns an ``(N, C, Hp, Wp)`` view
    of a channel-major buffer.
    """
    a, _, c = dt.shape[:3]
    n, _, hp, wp = padded_shape
    n_h, n_w = dt.shape[4], dt.shape[5]
    out = np.zeros((c, n, hp, wp), dtype=dt.dtype)
    for u in range(a):
        for v in range(a):
            out[:, :, u:u + m * n_h:m, v:v + m * n_w:m] += dt[u, v]
    return out.transpose(1, 0, 2, 3)


def _fake_quant_taps(taps: np.ndarray, from_taps, to_taps, scale_fn,
                     bits: int, log2_t, owned: bool):
    """Fake-quantize one tap-major side; returns ``(quantized, backward)``.

    ``scale_fn`` sees the canonical view and returns the canonical scale,
    which is laid out tap-major to broadcast against ``taps``.  ``taps`` is
    quantized in place when ``owned`` and no learned scale needs the
    unquantized values later.  ``backward(grad)`` applies the clipped STE
    (in place on ``grad``) and returns ``(grad, dlog2_t or None)``.
    """
    scale = scale_fn(taps.transpose(from_taps))
    if scale is None:
        return taps, lambda grad: (grad, None)
    scale = np.asarray(scale)
    scale_taps = scale.reshape((1,) * (taps.ndim - scale.ndim) + scale.shape
                               ).transpose(to_taps)
    qmin, qmax = signed_range(bits)
    learned = log2_t is not None
    quantized, inside = fake_quantize(
        taps, scale_taps, qmin, qmax,
        out=taps if owned and not learned else None)

    def backward(grad: np.ndarray):
        dlog2 = None
        if learned:
            dlog2 = learned_scale_grad(grad, taps, scale_taps, qmin, qmax
                                       ).transpose(from_taps).reshape(scale.shape)
        grad *= inside
        return grad, dlog2

    return quantized, backward


def _whole_layer_step(x_padded: np.ndarray, weight: np.ndarray, transform,
                      out_h: int, out_w: int, quant: TapFakeQuant | None,
                      w_r: np.ndarray | None = None,
                      out: np.ndarray | None = None):
    """Batch-folded Winograd training step; returns ``(out, backward)``.

    Winograd-aware training (Sec. III-A) runs the stages of
    :func:`winograd_forward` on one block, the whole layer: the input taps
    must all exist before the first is quantized (the scale callback
    observes all of them), and the backward needs them again, so nothing is
    gained by streaming.  Between ``BT x B`` and the contraction, a
    :class:`TapFakeQuant` ``quant`` fake-quantizes the input taps and the
    (given or transformed) ``G f GT`` weight taps with the spec's scales;
    with ``None`` both sides stay float.

    ``backward(grad)`` runs the adjoints in reverse, on the same layouts,
    and returns ``(dx_padded, dweight)``, followed by ``(dlog2_t_input,
    dlog2_t_weight)`` when ``quant`` is given.
    """
    spec = _UNQUANTIZED if quant is None else quant
    m, r, a = transform.m, transform.r, transform.alpha
    view = _tap_view(x_padded, m, a)
    cin, n, n_h, n_w = view.shape[2:]
    cout = weight.shape[0]
    bt, at = transform.BT, transform.AT

    # (a, a, Cin, N, nH, nW) input taps of the whole layer.
    v = _transform_taps(bt, np.array(view, order="C"))
    v_shape, padded_shape = v.shape, x_padded.shape
    v_q, input_backward = _fake_quant_taps(
        v, _INPUT_FROM_TAPS, _INPUT_TO_TAPS, spec.input_scale,
        spec.input_bits, spec.input_log2_t, owned=True)
    owned = w_r is None
    if owned:
        # ``G f GT`` exactly as the reference backend computes it: the
        # observer's scale puts each tap's largest weight on the clip
        # boundary, so its STE mask bit depends on the last ulp.
        w_r = np.ascontiguousarray(
            (transform.G @ weight @ transform.G.T).transpose(2, 3, 0, 1))
    w_q, weight_backward = _fake_quant_taps(
        w_r.reshape(a, a, cout, cin), _WEIGHT_PERM, _WEIGHT_PERM,
        spec.weight_scale, spec.weight_bits, spec.weight_log2_t, owned)
    v_q = v_q.reshape(a * a, cin, -1)
    w_q = w_q.reshape(a * a, cout, cin)
    acc = np.matmul(w_q, v_q)                                # (a², Cout, T)
    full_shape = (n, cout, n_h * m, n_w * m)
    out = _output_workspace(out, full_shape, np.result_type(acc, at))
    _output_tiles(at, acc, out.reshape(n, cout, n_h, m, n_w, m))
    # Each whole-layer temporary is dropped as soon as it is dead, so the
    # next one reuses its memory instead of faulting in fresh pages (a
    # quarter fewer page faults per F4 step on a (4, 32, 32, 32) layer).
    del acc
    if full_shape[2:] != (out_h, out_w):
        out = np.ascontiguousarray(out[:, :, :out_h, :out_w])

    def backward(grad: np.ndarray) -> tuple:
        if full_shape[2:] == (out_h, out_w):
            g_full = grad
        else:
            g_full = np.zeros(full_shape, dtype=grad.dtype)
            g_full[:, :, :out_h, :out_w] = grad
        g = np.ascontiguousarray(
            g_full.reshape(n, cout, n_h, m, n_w, m).transpose(3, 5, 1, 0, 2, 4))
        dacc = _transform_taps(at.T, g).reshape(a * a, cout, -1)
        del g
        # The Cube Unit's two transposed GEMMs, then the STE (and Eq. 3).
        dv, dlog2_in = input_backward(
            np.matmul(w_q.transpose(0, 2, 1), dacc).reshape(v_shape))
        dw, dlog2_w = weight_backward(
            np.matmul(dacc, v_q.transpose(0, 2, 1)).reshape(a, a, cout, cin))
        del dacc
        dt = _transform_taps(bt.T, dv)
        del dv
        dx_padded = _scatter_taps(dt, padded_shape, m)
        kmat = _pair_kron(transform.G, transform.G.T)         # (r², a²)
        dweight = (kmat @ dw.reshape(a * a, cout * cin)).T.reshape(
            cout, cin, r, r)
        if quant is None:
            return dx_padded, dweight
        return dx_padded, dweight, dlog2_in, dlog2_w

    return out, backward


def winograd_autograd(x_padded: np.ndarray, weight: np.ndarray, transform,
                      out_h: int, out_w: int,
                      quant: TapFakeQuant | None = None):
    """Fused Winograd training step: :func:`_whole_layer_step`.

    Returns ``(out, backward)`` where ``backward(grad)`` yields
    ``(dx_padded, dweight)``, plus ``(dlog2_t_input, dlog2_t_weight)`` with
    a :class:`TapFakeQuant` ``quant``.  Float and tap-wise QAT training run
    the same batch-folded, whole-layer tap-major pipeline; the float step
    only skips the two fake-quant stages.  The forward keeps the layer's
    Winograd-domain input taps alive until the backward, which reuses them
    for the weight gradient instead of recomputing them.
    """
    return _whole_layer_step(x_padded, weight, transform, out_h, out_w, quant)


# --------------------------------------------------------------------------- #
# im2col lowering and its GEMMs
# --------------------------------------------------------------------------- #
def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int = 1,
           padding: int = 0) -> np.ndarray:
    """Sliding windows as columns ``(N, C·kh·kw, out_h·out_w)``.

    Identical layout to the reference, but without the trailing forced-copy:
    for every kernel larger than 1x1 the ``reshape`` of the window view
    already materialises a contiguous array, and the consumer is a GEMM
    either way.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    if np.may_share_memory(cols, x):
        # 1x1/unit-stride degenerates to a pure reshape: the result would be
        # a read-only alias of the caller's input, which backward closures
        # capture — take the copy the reference semantics promise.
        cols = cols.copy()
    return cols


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int = 1, padding: int = 0) -> np.ndarray:
    """Adjoint of :func:`im2col` (kh·kw strided adds — already vectorised)."""
    n, c, h, w = input_shape
    kh, kw = kernel
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols_reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            x[:, :, i:i_end:stride, j:j_end:stride] += cols_reshaped[:, :, i, j]
    if padding > 0:
        x = x[:, :, padding:-padding, padding:-padding]
    return x


def conv2d_gemm(w2d: np.ndarray, cols: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """``(O, K) @ (N, K, P) -> (N, O, P)`` — one BLAS GEMM per batch item.

    ``out`` optionally supplies the ``(N, O, P)`` result workspace.
    """
    if out is not None:
        return np.matmul(w2d, cols, out=out)
    return np.matmul(w2d, cols)


def conv2d_gemm_dw(grad2d: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``sum_n grad[n] @ cols[n].T`` folded into a single ``(O, N·P) @ (N·P, K)``."""
    n, o, p = grad2d.shape
    k = cols.shape[1]
    g = np.ascontiguousarray(grad2d.transpose(1, 0, 2)).reshape(o, n * p)
    c = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(k, n * p)
    return g @ c.T


def conv2d_gemm_dcols(w2d: np.ndarray, grad2d: np.ndarray) -> np.ndarray:
    """``(K, O) @ (N, O, P) -> (N, K, P)`` batched GEMM."""
    return np.matmul(w2d.T, grad2d)


BACKEND = KernelBackend(
    name="fast",
    apply_transform_pair=apply_transform_pair,
    im2col=im2col,
    col2im=col2im,
    conv2d_gemm=conv2d_gemm,
    conv2d_gemm_dw=conv2d_gemm_dw,
    conv2d_gemm_dcols=conv2d_gemm_dcols,
    winograd_forward=winograd_forward,
    winograd_autograd=winograd_autograd,
)
