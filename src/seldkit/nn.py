"""Dense-array neural layers with explicit forward and backward passes.

Everything operates on plain numpy arrays. Convolutions run channel-first
((C, T, F) for 2-D, (C, T) for 1-D), dense layers frame-first (T, features).
Backward functions take the upstream gradient plus what the forward saw or
saved (conv2d's patch matrix, batchnorm's centred input and variance, the
pool's window winners) and return gradients in the same order as the inputs;
batchnorm_backward consumes what it was handed. Compute dtype follows the input
dtype: float32 in training/inference, float64 for gradient checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from .errors import InputError, NumericError, ShapeError, StateError

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(dy, x):
    return np.where(x > 0.0, dy, 0.0)


# ---------------------------------------------------------------------------
# 2-D convolution (3x3, stride 1, zero 'same' padding)
# ---------------------------------------------------------------------------

def _pad_3x3(x):
    """(C, T, F) -> (C, T+2, F+2) with one frame and one bin of zeros around."""
    c, t, f = x.shape
    xp = np.zeros((c, t + 2, f + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    return xp


def _patches_3x3(xp, t0, cols):
    """Fill cols (C, 9, n, F) with the 3x3 patches of padded `xp` for output
    frames t0..t0+n; returns them as a (C*9, n*F) matrix, rows ordered
    (c, kt, kf)."""
    c, _, n, f = cols.shape
    for kt in range(3):
        for kf in range(3):
            cols[:, kt * 3 + kf] = xp[:, t0 + kt:t0 + kt + n, kf:kf + f]
    return cols.reshape(c * 9, n * f)


def _im2col_3x3(x):
    """(C, T, F) -> contiguous (C*9, T*F) patch matrix, rows ordered (c, kt, kf)."""
    c, t, f = x.shape
    return _patches_3x3(_pad_3x3(x), 0, np.empty((c, 9, t, f), dtype=x.dtype))


def conv2d(x, w, b, cols_out=None):
    """3x3 'same' convolution: (C_in, T, F) -> (C_out, T, F).

    Passing a list as cols_out stashes the (C_in*9, T*F) patch matrix there;
    conv2d_backward reads the weight gradient from it.
    """
    if x.ndim != 3 or w.ndim != 4 or w.shape[1:] != (x.shape[0], 3, 3):
        raise ShapeError(f"conv2d: input {x.shape} incompatible with weights {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv2d: bias {b.shape} does not match {w.shape[0]} filters")
    c_out = w.shape[0]
    _, t, f = x.shape
    cols = _im2col_3x3(x)
    if cols_out is not None:
        cols_out.append(cols)
    y = w.reshape(c_out, -1) @ cols
    y += b[:, None]
    return y.reshape(c_out, t, f)


def conv2d_backward(dy, cols, w, need_dx=True):
    """Gradients of conv2d w.r.t. (input, weights, bias).

    `cols` is the patch matrix the forward pass stashed in cols_out. Pass
    need_dx=False at the first layer to skip the most expensive gemm (dx
    comes back as None).
    """
    c_out = w.shape[0]
    dy2 = dy.reshape(c_out, -1)
    dw = (dy2 @ cols.T).reshape(w.shape)
    db = dy2.sum(axis=1)
    dx = None
    if need_dx:
        # dx is the 'full' correlation of dy with spatially flipped,
        # transposed kernels, which is again a 3x3 'same' pass over dy.
        w_t = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        dx = conv2d(dy, w_t, np.zeros(w.shape[1], dtype=dy.dtype))
    return dx, dw, db


# ---------------------------------------------------------------------------
# Frequency max pooling
# ---------------------------------------------------------------------------

def _pool_max(y, width, winners=None):
    """Max over non-overlapping windows of `width` along the last axis.

    Accumulates np.maximum over the strided views y[..., k::width] in place.
    max is exact, so the result equals
    y.reshape(..., F // width, width).max(axis=-1) bit for bit, without the
    slow reduction over a short innermost axis. Given a zeroed unsigned
    `winners` array of the output's shape, it also records each window's
    winning offset, first max winning ties as argmax does.
    """
    out = y[..., ::width].copy()
    if winners is not None:
        taken = np.empty(out.shape, dtype=bool)
        step = np.empty_like(winners)
    for k in range(1, width):
        if winners is not None:
            # only a strictly greater value takes a window; k grows, so the
            # max of the recorded offsets is the latest taker's
            np.greater(y[..., k::width], out, out=taken)
            np.multiply(taken.view(np.uint8), winners.dtype.type(k), out=step)
            np.maximum(winners, step, out=winners)
        np.maximum(out, y[..., k::width], out=out)
    return out


def conv2d_relu_pool(x, w, b, width):
    """Fused inference path: conv2d + bias + frequency max pool + ReLU.

    Equivalent to relu(maxpool_freq(conv2d(x, w, b), width)), the layer
    order training runs unfused, up to float rounding in the gemm; the
    pooling itself is the same code as maxpool_freq, so it is bit-identical
    to it. The input is padded once and the patch matrix is built one time
    tile at a time, so neither the full (C*9, T*F) patch matrix nor the full
    pre-pool activation materializes.
    BN folding happens in the caller (scale into w and b beforehand).
    """
    c, t, f = x.shape
    if f % width != 0:
        raise ShapeError(f"conv2d_relu_pool: F={f} not divisible by width={width}")
    c_out = w.shape[0]
    w2 = np.ascontiguousarray(w.reshape(c_out, -1))
    xp = _pad_3x3(x)
    out = np.empty((c_out, t, f // width), dtype=x.dtype)

    # A tile's patch rows plus its gemm output fit a 2 MiB budget, so both
    # stay cache-resident between the fill, the gemm and the pool. Pooling
    # runs BEFORE bias + ReLU (the bias is constant per channel and ReLU is
    # monotone, so max commutes), which moves those passes onto the
    # width-times-smaller pooled tensor. The buffers are flat so that the
    # shorter last tile gets contiguous views of them too.
    bt = min(t, max(1, (1 << 21) // ((c * 9 + c_out) * f * x.dtype.itemsize)))
    cols_buf = np.empty(c * 9 * bt * f, dtype=x.dtype)
    tile_buf = np.empty(c_out * bt * f, dtype=x.dtype)
    for t0 in range(0, t, bt):
        n = min(bt, t - t0)
        cols = _patches_3x3(xp, t0, cols_buf[:c * 9 * n * f].reshape(c, 9, n, f))
        tile = tile_buf[:c_out * n * f].reshape(c_out, n * f)
        np.matmul(w2, cols, out=tile)
        out[:, t0:t0 + n] = _pool_max(tile.reshape(c_out, n, f), width)
    out += b[:, None, None]
    np.maximum(out, 0.0, out=out)
    return out


def maxpool_freq(x, width, winners_out=None):
    """Max over non-overlapping frequency windows: (C, T, F) -> (C, T, F/width).

    Passing a list as winners_out stashes each window's winning offset there,
    in the smallest unsigned dtype that holds width - 1 (first max wins on
    ties); maxpool_freq_backward scatters from them, so the pre-pool input
    need not be kept. The pooled values are the same either way.
    """
    c, t, f = x.shape
    if f % width != 0:
        raise ShapeError(f"maxpool_freq: F={f} not divisible by width={width}")
    if winners_out is None:
        return _pool_max(x, width)
    winners = np.zeros((c, t, f // width), dtype=np.min_scalar_type(width - 1))
    winners_out.append(winners)
    return _pool_max(x, width, winners)


def maxpool_freq_backward(dy, winners, width):
    """(C, T, F/width) -> (C, T, F): each window's gradient goes to the offset
    maxpool_freq stashed in winners_out, zeros everywhere else."""
    if winners.shape != dy.shape:
        raise ShapeError(f"maxpool_freq_backward: winners {winners.shape} != dy {dy.shape}")
    c, t, f = dy.shape
    dx = np.zeros((c, t, f * width), dtype=dy.dtype)
    at = np.arange(0, dx.size, width, dtype=np.intp)
    at += winners.reshape(-1)
    dx.reshape(-1)[at] = dy.reshape(-1)
    return dx


# ---------------------------------------------------------------------------
# Batch normalization over the channel axis
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics for one BN layer."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    num_updates: int = 0

    @classmethod
    def create(cls, channels, dtype=np.float32):
        return cls(
            gamma=np.ones(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


def batchnorm_affine(state: BatchNormState, dtype):
    """Infer-mode BN as per-channel (scale, shift): batchnorm(x) = x * scale + shift."""
    if state.num_updates == 0:
        raise StateError("batchnorm: running statistics were never updated")
    return _bn_scale_shift(state, state.running_mean.astype(dtype),
                           state.running_var.astype(dtype))


def _bn_scale_shift(state: BatchNormState, mean, var):
    scale = state.gamma.astype(mean.dtype) / np.sqrt(var + BN_EPS)
    return scale, state.beta.astype(mean.dtype) - mean * scale


def batchnorm(x, state: BatchNormState, mode: str, stats_out=None):
    """Normalize per channel (axis 0) over every remaining axis.

    Train mode uses the statistics of `x` and folds them into the running
    estimates with momentum BN_MOMENTUM; infer mode uses the running
    estimates (see batchnorm_affine). Passing a list as stats_out stashes
    the train-mode (centred input, var) there; batchnorm_backward reads them.
    """
    shape = (-1,) + (1,) * (x.ndim - 1)
    if mode == "train":
        axes = tuple(range(1, x.ndim))
        mean = x.mean(axis=axes)
        xc = x - mean.reshape(shape)
        var = (xc * xc).mean(axis=axes)  # x.var's own steps, with the mean computed once
        if stats_out is not None:
            stats_out.append((xc, var))
        m = BN_MOMENTUM
        state.running_mean[:] = m * state.running_mean + (1 - m) * mean
        state.running_var[:] = m * state.running_var + (1 - m) * var
        state.num_updates += 1
        scale, shift = _bn_scale_shift(state, mean, var)
    elif mode == "infer":
        scale, shift = batchnorm_affine(state, x.dtype)
    else:
        raise InputError(f"batchnorm: unknown mode {mode!r}")
    y = x * scale.reshape(shape)
    y += shift.reshape(shape)
    return y


def batchnorm_backward(dy, state: BatchNormState, saved):
    """Train-mode gradients w.r.t. (input, gamma, beta).

    `saved` is the (centred input, var) the forward pass stashed in stats_out.
    The call consumes it: dx is computed in the centred input's memory and
    returned, so besides it the call allocates one full-size buffer. `dy` is
    left unchanged.
    """
    xc, var = saved
    axes = tuple(range(1, xc.ndim))
    shape = (-1,) + (1,) * (xc.ndim - 1)
    n = xc.size // xc.shape[0]
    inv_std = 1.0 / np.sqrt(var.reshape(shape) + BN_EPS)
    gamma = state.gamma.astype(xc.dtype).reshape(shape)
    xhat = np.multiply(xc, inv_std, out=xc)

    buf = dy * xhat
    dgamma = buf.sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    # dx = inv_std / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)) with
    # dxhat = dy * gamma, in the reference formula's operation order, which
    # tests pin byte for byte. dxhat is formed twice so that one buffer serves.
    dxhat = np.multiply(dy, gamma, out=buf)
    sum_dxhat = dxhat.sum(axis=axes).reshape(shape)
    dxhat *= xhat
    dx = np.multiply(xhat, dxhat.sum(axis=axes).reshape(shape), out=xhat)
    dxhat = np.multiply(dy, gamma, out=buf)
    dxhat *= n
    dxhat -= sum_dxhat
    np.subtract(dxhat, dx, out=dx)
    dx *= inv_std / n
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Non-causal dilated 1-D convolution (kernel 3)
# ---------------------------------------------------------------------------

def _taps_1d(x, d):
    """(C, T) -> (3C, T) taps x(t-d), x(t), x(t+d), rows (k, c), zero outside x."""
    c, t = x.shape
    s = min(d, t)
    taps = np.empty((3, c, t), dtype=x.dtype)
    taps[0, :, :s] = taps[2, :, t - s:] = 0.0
    taps[0, :, s:] = x[:, :t - s]
    taps[1] = x
    taps[2, :, :t - s] = x[:, s:]
    return taps.reshape(3 * c, t)


def dilated_conv1d(x, w, b, dilation):
    """y[o, t] = b[o] + sum_c sum_k x[c, t + k*d] * w[o, c, k+1], k in {-1, 0, 1}.

    Zero padding of `dilation` on both sides keeps the length, so the output
    at t sees `dilation` frames ahead; one gemm over the (3C, T) tap matrix.
    """
    if x.ndim != 2 or w.ndim != 3 or w.shape[1] != x.shape[0] or w.shape[2] != 3:
        raise ShapeError(f"dilated_conv1d: input {x.shape} incompatible with weights {w.shape}")
    d = int(dilation)
    if d < 1:
        raise InputError("dilation must be >= 1")
    y = w.transpose(0, 2, 1).reshape(w.shape[0], -1) @ _taps_1d(x, d)
    y += b[:, None]
    return y


def dilated_conv1d_backward(dy, x, w, dilation):
    """Gradients of dilated_conv1d w.r.t. (input, weights, bias)."""
    o, c, _ = w.shape
    dw = (dy @ _taps_1d(x, int(dilation)).T).reshape(o, 3, c).transpose(0, 2, 1)
    # dx: the same conv of dy with the tap-reversed, transposed kernels
    w_t = w.transpose(1, 0, 2)[:, :, ::-1]
    return dilated_conv1d(dy, w_t, np.zeros(c, dtype=dy.dtype), dilation), dw, dy.sum(axis=1)


def conv1x1(x, w, b):
    """Pointwise channel mix: (C_in, T) -> (C_out, T) with w (C_out, C_in)."""
    if w.shape[1] != x.shape[0]:
        raise ShapeError(f"conv1x1: input {x.shape} incompatible with weights {w.shape}")
    return w @ x + b[:, None]


def conv1x1_backward(dy, x, w):
    return w.T @ dy, dy @ x.T, dy.sum(axis=1)


# ---------------------------------------------------------------------------
# Gated activation and spatial dropout
# ---------------------------------------------------------------------------

def gated_activation(z):
    """tanh(z) * sigmoid(z), elementwise, on a single shared pre-activation."""
    return np.tanh(z) * sigmoid(z)


def gated_activation_backward(dy, z):
    th = np.tanh(z)
    s = sigmoid(z)
    return dy * (s * (1.0 - th * th) + th * s * (1.0 - s))


def spatial_dropout(x, rate=0.5, mode="train", rng=None):
    """Channel-granular inverted dropout on (C, T).

    Train mode zeroes whole channels with probability `rate` and scales the
    survivors by 1/(1-rate); infer mode is the identity. Returns (y, mask)
    where mask is the per-channel multiplier used (needed for backprop).
    """
    if not 0.0 <= rate < 1.0:
        raise InputError("dropout rate must lie in [0, 1)")
    if mode == "infer" or rate == 0.0:
        return x, np.ones(x.shape[0], dtype=x.dtype)
    keep = (np.random.default_rng(rng).random(x.shape[0]) >= rate).astype(x.dtype)
    mask = keep / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask[:, None], mask


def spatial_dropout_backward(dy, mask):
    return dy * mask[:, None]


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------

def dense(x, w, b):
    """Per-frame affine map: (T, I) @ (I, O) + (O,)."""
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input {x.shape} incompatible with weights {w.shape}")
    return x @ w + b


def dense_backward(dy, x, w):
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


# ---------------------------------------------------------------------------
# GRU (forward only; the recurrent baseline is not trained)
# ---------------------------------------------------------------------------

@dataclass
class GruParams:
    """One direction's gate parameters: w_* (I, H), u_* (H, H), b_* (H,)."""

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray


def gru_forward(x, p: GruParams):
    """Single-direction GRU over (T, I) with zero initial state -> (T, H).

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    hcand = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * hcand
    """
    if x.shape[1] != p.w_z.shape[0]:
        raise ShapeError(f"gru: input {x.shape} incompatible with w_z {p.w_z.shape}")
    t_len = x.shape[0]
    hidden = p.u_z.shape[0]
    h = np.zeros(hidden, dtype=x.dtype)
    out = np.empty((t_len, hidden), dtype=x.dtype)
    for t in range(t_len):
        xt = x[t]
        z = sigmoid(xt @ p.w_z + h @ p.u_z + p.b_z)
        r = sigmoid(xt @ p.w_r + h @ p.u_r + p.b_r)
        hcand = np.tanh(xt @ p.w_h + (r * h) @ p.u_h + p.b_h)
        h = (1.0 - z) * h + z * hcand
        out[t] = h
    return out


def bigru_forward(x, fwd: GruParams, bwd: GruParams):
    """Bidirectional GRU: per frame [h_fwd(t) ; h_bwd(t)] -> (T, 2H)."""
    h_f = gru_forward(x, fwd)
    h_b = gru_forward(x[::-1], bwd)[::-1]
    return np.concatenate([h_f, h_b], axis=1)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam moments for a named parameter set."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def create(cls, params):
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params, grads, state: AdamState):
    """One in-place Adam update over a name -> array parameter dict."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adam_step: non-finite gradient for {name!r}")
        if g.shape != params[name].shape:
            raise ShapeError(f"adam_step: gradient shape mismatch for {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params[name] -= ADAM_LR * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_array: str | None = None
    worst_index: int | None = None
    n_checked: int = 0

    def __str__(self):
        return (
            f"grad check: max rel err {self.max_rel_err:.3e} over "
            f"{self.n_checked} elements (worst: {self.worst_array}[{self.worst_index}])"
        )


def grad_check(loss_fn, arrays, analytic, h_rel=1e-5, scale_floor=1e-6,
               max_elements_per_array=None, rng=None):
    """Compare analytic gradients against central finite differences.

    loss_fn is re-evaluated after perturbing `arrays` (name -> float64 array)
    in place; `analytic` maps the same names to the gradients under test.
    Relative error uses max(|analytic|, |numeric|, scale_floor) as the
    denominator. Perturbation steps are h_rel * max(1, |value|).
    """
    rng = np.random.default_rng(rng)
    report = GradCheckReport(max_rel_err=0.0)
    for name, a in arrays.items():
        if a.dtype != np.float64:
            raise InputError(f"grad_check requires float64 arrays ({name!r} is {a.dtype})")
        flat = a.reshape(-1)
        indices = np.arange(flat.size)
        if max_elements_per_array is not None and flat.size > max_elements_per_array:
            indices = rng.choice(flat.size, size=max_elements_per_array, replace=False)
        ana_flat = analytic[name].reshape(-1)
        for i in indices:
            orig = flat[i]
            h = h_rel * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(numeric), abs(ana_flat[i]), scale_floor)
            rel = abs(numeric - ana_flat[i]) / denom
            report.n_checked += 1
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst_array = name
                report.worst_index = int(i)
    return report
