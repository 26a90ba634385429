"""Fast kernel backend: batched-GEMM formulations of the hot primitives.

The accelerator's whole dataflow (Section IV-B2 of the paper) rests on the
observation that the tap-wise Winograd contraction

    (N, Cin, nH, nW, a, a) x (Cout, Cin, a, a) -> (N, Cout, nH, nW, a, a)

is ``alpha²`` *independent* MatMuls — one per tap.  The reference backend
expresses it as a 6-D ``np.einsum`` that numpy executes with generic C loops;
this backend reshapes the operands into a tap-major batched layout

    (a², Cout, Cin) @ (a², Cin, N·nH·nW)

so ``np.matmul`` dispatches each tap to BLAS (floats) or to the tight gufunc
integer loop (the bit-exact integer simulation path).  The same treatment is
applied to both adjoints, to the pair transforms (two ``tensordot`` GEMMs
instead of thousands of broadcast ``alpha x alpha`` matmuls), to the im2col
convolution GEMMs, and to :func:`scatter_tiles_add` (a handful of strided
block adds instead of an ``n_h x n_w`` Python loop).

``extract_tiles`` returns the read-only strided *view* instead of forcing an
``ascontiguousarray`` copy: every consumer in this backend is a GEMM that
buffers its operands anyway, so the copy would be pure overhead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .einsum_cache import cached_einsum
from .registry import KernelBackend

__all__ = ["BACKEND", "transform_weights_tap_major"]


def _is_float(*arrays: np.ndarray) -> bool:
    """True when every operand is a BLAS-eligible float array.

    The GEMM reshapes only pay off when the GEMM itself runs in BLAS; for
    integer operands (the bit-exact accelerator simulation path) numpy falls
    back to generic loops, where the reference formulations do strictly less
    scalar work.  The integer results are identical either way — integer
    arithmetic is exact — so dispatching on dtype is purely a perf choice.
    """
    return all(a.dtype in (np.float32, np.float64) for a in arrays)


def _tap_major(x: np.ndarray) -> np.ndarray:
    """``(O1, O2, ..., a, a) -> (a², O1, O2·...·Ok)`` contiguous reshape.

    Moves the two tap axes to the front (flattened) and keeps the first
    remaining axis as the GEMM row/column dimension.
    """
    a = x.shape[-1]
    lead = x.shape[:-2]
    perm = (x.ndim - 2, x.ndim - 1) + tuple(range(x.ndim - 2))
    flat = np.ascontiguousarray(x.transpose(perm)).reshape(a * a, lead[0], -1)
    return flat


# --------------------------------------------------------------------------- #
# Tap-wise contraction as alpha² batched GEMMs
# --------------------------------------------------------------------------- #
def tile_contract(tiles_w: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    """Forward: ``out[n,o,i,j,:,:] = sum_c w[o,c,:,:] * x[n,c,i,j,:,:]``."""
    if not _is_float(tiles_w, weight_w):
        return cached_einsum("ncijab,ocab->noijab", tiles_w, weight_w)
    n, cin, nh, nw, a, _ = tiles_w.shape
    cout = weight_w.shape[0]
    # (a², Cin, N·nH·nW): tap-major activations, channels as the GEMM K dim.
    x_r = np.ascontiguousarray(tiles_w.transpose(4, 5, 1, 0, 2, 3)
                               ).reshape(a * a, cin, n * nh * nw)
    # (a², Cout, Cin): tap-major weights.
    w_r = _tap_major(weight_w)
    prod = np.matmul(w_r, x_r)                       # (a², Cout, N·nH·nW)
    out = prod.reshape(a, a, cout, n, nh, nw).transpose(3, 2, 4, 5, 0, 1)
    return np.ascontiguousarray(out)


def tile_contract_dx(grad: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    """Adjoint wrt the input tiles: ``(a², Cin, Cout) @ (a², Cout, M)``."""
    if not _is_float(grad, weight_w):
        return cached_einsum("noijab,ocab->ncijab", grad, weight_w)
    n, cout, nh, nw, a, _ = grad.shape
    cin = weight_w.shape[1]
    g_r = np.ascontiguousarray(grad.transpose(4, 5, 1, 0, 2, 3)
                               ).reshape(a * a, cout, n * nh * nw)
    wt_r = np.ascontiguousarray(weight_w.transpose(2, 3, 1, 0)
                                ).reshape(a * a, cin, cout)
    dx = np.matmul(wt_r, g_r)                        # (a², Cin, N·nH·nW)
    out = dx.reshape(a, a, cin, n, nh, nw).transpose(3, 2, 4, 5, 0, 1)
    return np.ascontiguousarray(out)


def tile_contract_dw(grad: np.ndarray, tiles_w: np.ndarray) -> np.ndarray:
    """Adjoint wrt the weights: ``(a², Cout, M) @ (a², M, Cin)``."""
    if not _is_float(grad, tiles_w):
        return cached_einsum("noijab,ncijab->ocab", grad, tiles_w)
    n, cout, nh, nw, a, _ = grad.shape
    cin = tiles_w.shape[1]
    g_r = np.ascontiguousarray(grad.transpose(4, 5, 1, 0, 2, 3)
                               ).reshape(a * a, cout, n * nh * nw)
    x_r = np.ascontiguousarray(tiles_w.transpose(4, 5, 0, 2, 3, 1)
                               ).reshape(a * a, n * nh * nw, cin)
    dw = np.matmul(g_r, x_r)                         # (a², Cout, Cin)
    return np.ascontiguousarray(dw.reshape(a, a, cout, cin).transpose(2, 3, 0, 1))


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
    no output copy is needed.  Integer inputs stay exact (integer GEMM).
    """
    if not _is_float(tiles, left, right):
        return left @ tiles @ right
    o = left.shape[0]
    s = right.shape[1]
    p, q = tiles.shape[-2], tiles.shape[-1]
    kmat = _pair_kron(left, right)
    flat = np.ascontiguousarray(tiles).reshape(-1, p * q)
    return (flat @ kmat).reshape(tiles.shape[:-2] + (o, s))


# --------------------------------------------------------------------------- #
# Tiling primitives
# --------------------------------------------------------------------------- #
def extract_tiles(x_padded: np.ndarray, m: int, r: int) -> np.ndarray:
    """Overlapping tile view ``(N, C, n_h, n_w, alpha, alpha)`` — no copy.

    The returned array is a read-only strided view into ``x_padded``; the
    GEMM consumers buffer it internally, so materialising a contiguous copy
    here (as the reference backend does) would only add memory traffic.
    """
    alpha = m + r - 1
    n, c, hp, wp = x_padded.shape
    n_h = (hp - (r - 1)) // m
    n_w = (wp - (r - 1)) // m
    s0, s1, s2, s3 = x_padded.strides
    return np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, n_h, n_w, alpha, alpha),
        strides=(s0, s1, s2 * m, s3 * m, s2, s3),
        writeable=False,
    )


def scatter_tiles_add(grad_tiles: np.ndarray, padded_shape: tuple[int, int, int, int],
                      m: int, r: int) -> np.ndarray:
    """Adjoint of :func:`extract_tiles`, vectorised over all tiles.

    Each ``alpha x alpha`` tile is split into ``ceil(alpha/m)²`` blocks of at
    most ``m x m``; for a fixed block index the scatter targets of all tiles
    are disjoint ``m``-strided slices, so the whole scatter collapses to a few
    (4 for F2/F4) strided ``+=`` operations on a block view of the output.
    """
    alpha = m + r - 1
    n, c, hp, wp = padded_shape
    n_h, n_w = grad_tiles.shape[2], grad_tiles.shape[3]
    nb = -(-alpha // m)                       # blocks per tile dimension
    big = np.zeros((n, c, (n_h + nb - 1) * m, (n_w + nb - 1) * m),
                   dtype=grad_tiles.dtype)
    view = big.reshape(n, c, n_h + nb - 1, m, n_w + nb - 1, m)
    for bi in range(nb):
        h0 = bi * m
        hb = min(m, alpha - h0)
        for bj in range(nb):
            w0 = bj * m
            wb = min(m, alpha - w0)
            block = grad_tiles[:, :, :, :, h0:h0 + hb, w0:w0 + wb]
            view[:, :, bi:bi + n_h, :hb, bj:bj + n_w, :wb] += \
                block.transpose(0, 1, 2, 4, 3, 5)
    if big.shape[2] == hp and big.shape[3] == wp:
        return big
    return np.ascontiguousarray(big[:, :, :hp, :wp])


# --------------------------------------------------------------------------- #
# Fused Winograd forward (tap-major end to end)
# --------------------------------------------------------------------------- #
# Target working-set size per pipeline block, in bytes.  Keeping the gathered
# tile block, its Winograd-domain image and the accumulator inside the
# private caches makes the kernel robust against co-runners evicting a large
# streaming working set (and is how the real accelerator tiles its L1).
# Empirically 64-160KB is a broad optimum on current cores; larger blocks
# amortise GEMM/interpreter overhead slightly better but fall out of L2
# under cache pressure.
_BLOCK_BYTES = 144 * 1024


def _rows_per_block(a: int, cin: int, n_h: int, n_w: int, itemsize: int) -> int:
    """Rows of Winograd tiles per block, keeping a gathered block near
    :data:`_BLOCK_BYTES`."""
    row_bytes = a * a * cin * n_w * itemsize
    return min(n_h, max(1, _BLOCK_BYTES // max(row_bytes, 1)))


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
                     out: np.ndarray | None = None) -> np.ndarray:
    """Whole Winograd pipeline on the already-padded input, without bias.

    This is the dataflow the accelerator actually runs (Listing 1 of the
    paper): everything between the input transform and the output
    back-transform lives in a *tap-major* layout, so per block the stages are

    1. two skinny GEMMs for the separable ``BT x B`` (a³ MACs per tile per
       stage instead of the a⁴ of a one-shot Kronecker formulation),
    2. ``a²`` batched ``(Cout, Cin) @ (Cin, tiles)`` GEMMs for the channel
       accumulation (the Cube Unit), and
    3. two skinny GEMMs for ``AT y A``,

    with one gather (the tile view) in front and one scatter (the output
    permutation) behind.  The pipeline is blocked over rows of Winograd
    tiles so the whole working set stays cache-resident.

    ``out`` optionally supplies the *uncropped* ``(N, Cout, n_h*m, n_w*m)``
    output workspace (e.g. from a :class:`repro.engine.WorkspaceArena`), so
    steady-state serving loops do zero fresh large allocations here.
    """
    m, r, a = transform.m, transform.r, transform.alpha
    n, cin, hp, wp = x_padded.shape
    cout = weight.shape[0]
    n_h = (hp - (r - 1)) // m
    n_w = (wp - (r - 1)) // m
    bt, at = transform.BT, transform.AT

    if w_r is None:
        # Transformed weights, tap-major: (a², Cout, Cin).
        w_r = transform_weights_tap_major(weight, transform)

    out_dtype = np.result_type(x_padded.dtype, w_r.dtype)
    full_shape = (n, cout, n_h * m, n_w * m)
    if out is None:
        out = np.empty(full_shape, dtype=out_dtype)
    elif out.shape != full_shape or out.dtype != out_dtype:
        raise ValueError(f"out workspace must be {full_shape} of {out_dtype}, "
                         f"got {out.shape} of {out.dtype}")

    rows_per_block = _rows_per_block(a, cin, n_h, n_w, x_padded.itemsize)

    for nn in range(n):
        image = x_padded[nn]
        s1, s2, s3 = image.strides
        # Tap-major overlapping-tile view of the image: (a, a, Cin, nH, nW).
        view = np.lib.stride_tricks.as_strided(
            image,
            shape=(a, a, cin, n_h, n_w),
            strides=(s2, s3, s1, s2 * m, s3 * m),
            writeable=False,
        )
        out_img = out[nn].reshape(cout, n_h, m, n_w, m)
        for i0 in range(0, n_h, rows_per_block):
            rb = min(rows_per_block, n_h - i0)
            tiles = rb * n_w
            f3 = np.ascontiguousarray(view[:, :, :, i0:i0 + rb]
                                      ).reshape(a, a, cin * tiles)
            g1 = np.matmul(bt, f3)                       # 1-D BT over 2nd tap axis
            x_r = (bt @ g1.reshape(a, -1)).reshape(a * a, cin, tiles)

            acc = np.matmul(w_r, x_r)                    # (a², Cout, tiles)

            t1 = np.matmul(at, acc.reshape(a, a, cout * tiles))
            ot = (at @ t1.reshape(a, -1)).reshape(m, m, cout, rb, n_w)
            out_img[:, i0:i0 + rb] = ot.transpose(2, 3, 0, 4, 1)
    if out.shape[2] == out_h and out.shape[3] == out_w:
        return out
    return np.ascontiguousarray(out[:, :, :out_h, :out_w])


# --------------------------------------------------------------------------- #
# Fused Winograd forward+backward (training fast path, tap-major end to end)
# --------------------------------------------------------------------------- #
def _separable_pair(t3: np.ndarray, left: np.ndarray, right: np.ndarray
                    ) -> np.ndarray:
    """``left @ t @ right`` on the two leading tap axes of ``(a0, a1, K)``.

    Two skinny GEMMs (a³ MACs per tile per stage) instead of the a⁴ one-shot
    Kronecker formulation — the same separable trick :func:`winograd_forward`
    uses, shared here with the fused backward.
    """
    a0, _a1, k = t3.shape
    s1 = np.matmul(right.T, t3)                   # applies ``right`` on axis 1
    o1 = s1.shape[1]
    return (left @ s1.reshape(a0, o1 * k)).reshape(left.shape[0], o1, k)


def winograd_autograd(x_padded: np.ndarray, weight: np.ndarray, transform,
                      out_h: int, out_w: int):
    """Fused Winograd training step: blocked forward now, blocked adjoints later.

    Returns ``(out, backward)`` where ``backward(grad)`` yields
    ``(dx_padded, dweight)``.  The forward is exactly
    :func:`winograd_forward` (cache-blocked, tap-major) with the transformed
    weights hoisted so they are shared with the backward.  The backward runs
    the same block structure in reverse: per block of Winograd tile rows it
    *recomputes* the separable input transform from the checkpointed padded
    input (a³ work, cache-resident — cheaper than storing and re-streaming
    the 2.25x-larger Winograd-domain activations), then applies the
    output-transform adjoint, both channel-GEMM adjoints (accumulating the
    tap-major ``dW``), the input-transform adjoint, and a block-local
    overlap scatter-add.

    Keeping every stage inside one ~:data:`_BLOCK_BYTES` working set is what
    beats the composed graph: the composed adjoint primitives each stream
    whole-layer tensors through memory (plus two layout copies per
    contraction call), while here nothing larger than the block leaves cache
    between stages.
    """
    m, r, a = transform.m, transform.r, transform.alpha
    n, cin, hp, wp = x_padded.shape
    cout = weight.shape[0]
    n_h = (hp - (r - 1)) // m
    n_w = (wp - (r - 1)) // m
    bt, at, g = transform.BT, transform.AT, transform.G

    w_r = transform_weights_tap_major(weight, transform)             # (a²,O,I)
    out = winograd_forward(x_padded, weight, transform, out_h, out_w, w_r=w_r)

    full_h, full_w = n_h * m, n_w * m
    rows_per_block = _rows_per_block(a, cin, n_h, n_w, x_padded.itemsize)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if full_h == out_h and full_w == out_w:
            g_full = grad
        else:
            g_full = np.zeros((n, cout, full_h, full_w), dtype=grad.dtype)
            g_full[:, :, :out_h, :out_w] = grad
        acc_dtype = np.result_type(grad.dtype, x_padded.dtype, np.float64)
        dw_r = np.zeros((a * a, cout, cin), dtype=acc_dtype)
        dx_padded = np.zeros((n, cin, hp, wp), dtype=acc_dtype)
        w_rt = np.ascontiguousarray(w_r.transpose(0, 2, 1))          # (a²,I,O)

        for nn in range(n):
            image = x_padded[nn]
            s1, s2, s3 = image.strides
            view = np.lib.stride_tricks.as_strided(
                image,
                shape=(a, a, cin, n_h, n_w),
                strides=(s2, s3, s1, s2 * m, s3 * m),
                writeable=False,
            )
            g_img = g_full[nn].reshape(cout, n_h, m, n_w, m)
            dx_img = dx_padded[nn]
            for i0 in range(0, n_h, rows_per_block):
                rb = min(rows_per_block, n_h - i0)
                tiles = rb * n_w
                # Recompute the block's Winograd-domain input (checkpointing).
                f3 = np.ascontiguousarray(view[:, :, :, i0:i0 + rb]
                                          ).reshape(a, a, cin * tiles)
                x_r = _separable_pair(f3, bt, bt.T).reshape(a * a, cin, tiles)
                # Output-transform adjoint: dacc = ATᵀ g AT.
                g3 = np.ascontiguousarray(
                    g_img[:, i0:i0 + rb].transpose(2, 4, 0, 1, 3)
                ).reshape(m, m, cout * tiles)
                dacc = _separable_pair(g3, at.T, at).reshape(a * a, cout, tiles)
                # Channel-GEMM adjoints (the Cube Unit's two transposes).
                dx_r = np.matmul(w_rt, dacc)                         # (a²,I,T)
                dw_r += np.matmul(dacc, x_r.transpose(0, 2, 1))      # (a²,O,I)
                # Input-transform adjoint + block-local overlap scatter-add.
                dt3 = _separable_pair(dx_r.reshape(a, a, cin * tiles),
                                      bt.T, bt)
                dtiles = np.ascontiguousarray(
                    dt3.reshape(a, a, cin, rb, n_w).transpose(2, 3, 4, 0, 1))
                block = scatter_tiles_add(
                    dtiles[None], (1, cin, rb * m + r - 1, wp), m, r)
                h0 = i0 * m
                dx_img[:, h0:h0 + rb * m + r - 1] += block[0]

        dw_wino = np.ascontiguousarray(
            dw_r.reshape(a, a, cout, cin).transpose(2, 3, 0, 1))
        dw = g.T @ dw_wino @ g
        return dx_padded, dw

    return out, backward


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
    tile_contract=tile_contract,
    tile_contract_dx=tile_contract_dx,
    tile_contract_dw=tile_contract_dw,
    apply_transform_pair=apply_transform_pair,
    extract_tiles=extract_tiles,
    scatter_tiles_add=scatter_tiles_add,
    im2col=im2col,
    col2im=col2im,
    conv2d_gemm=conv2d_gemm,
    conv2d_gemm_dw=conv2d_gemm_dw,
    conv2d_gemm_dcols=conv2d_gemm_dcols,
    winograd_forward=winograd_forward,
    winograd_autograd=winograd_autograd,
)
