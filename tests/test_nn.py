"""Layer forward/backward tests: worked examples, properties, gradient checks."""

import numpy as np
import pytest

from seldkit import models, nn
from seldkit.errors import InputError, NumericError, ShapeError, StateError


def ref_dilated_conv1d(x, w, b, d):
    """Loop oracle for the dilated convolution formula."""
    c_out, c_in, _ = w.shape
    _, t_len = x.shape
    y = np.zeros((c_out, t_len), dtype=x.dtype)
    for o in range(c_out):
        for t in range(t_len):
            acc = b[o]
            for c in range(c_in):
                for k in (-1, 0, 1):
                    src = t + k * d
                    if 0 <= src < t_len:
                        acc += x[c, src] * w[o, c, k + 1]
            y[o, t] = acc
    return y


def ref_dilated_conv1d_three_gemm(x, w, b, d):
    """The dilated conv as one gemm per tap over a padded input."""
    c, t = x.shape
    xp = np.zeros((c, t + 2 * d), dtype=x.dtype)
    xp[:, d:d + t] = x
    w_m1, w_0, w_p1 = (np.ascontiguousarray(w[:, :, k]) for k in range(3))
    y = w_0 @ x
    y += w_m1 @ xp[:, 0:t]
    y += w_p1 @ xp[:, 2 * d:2 * d + t]
    return y + b[:, None]


def ref_dilated_conv1d_backward_three_gemm(dy, x, w, d):
    """Its backward: a padded dy and two per-tap gemms for each of dx and dw."""
    c, t = x.shape
    xp = np.zeros((c, t + 2 * d), dtype=x.dtype)
    xp[:, d:d + t] = x
    dyp = np.zeros((w.shape[0], t + 2 * d), dtype=dy.dtype)
    dyp[:, d:d + t] = dy
    w_m1, w_0, w_p1 = (np.ascontiguousarray(w[:, :, k].T) for k in range(3))
    dx = w_0 @ dy
    dx += w_m1 @ dyp[:, 2 * d:2 * d + t]
    dx += w_p1 @ dyp[:, 0:t]
    dw = np.stack([dy @ xp[:, 0:t].T, dy @ x.T, dy @ xp[:, 2 * d:2 * d + t].T], axis=2)
    return dx, dw, dy.sum(axis=1)


def ref_maxpool_freq(x, width):
    """Reduction oracle for the frequency max pool."""
    c, t, f = x.shape
    return x.reshape(c, t, f // width, width).max(axis=3)


def ref_maxpool_freq_backward(dy, x, width):
    """Pool backward that recomputes each window's argmax from the pool input."""
    c, t, f = x.shape
    xr = x.reshape(c, t, f // width, width)
    idx = xr.argmax(axis=3)  # first max wins on ties
    dxr = np.zeros_like(xr)
    np.put_along_axis(dxr, idx[..., None], dy[..., None], axis=3)
    return dxr.reshape(c, t, f)


def pool_with_winners(x, width):
    """maxpool_freq with its winners stashed: (pooled, winners)."""
    winners = []
    return nn.maxpool_freq(x, width, winners_out=winners), winners[0]


def ref_conv2d_relu_pool(x, w, b, width):
    """The fused kernel as a whole-input im2col, one gemm, the reduction pool,
    then bias and ReLU on the pooled tensor."""
    c, t, f = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.stack([xp[:, kt:kt + t, kf:kf + f] for kt in range(3) for kf in range(3)],
                    axis=1).reshape(c * 9, t * f)
    y = (w.reshape(w.shape[0], -1) @ cols).reshape(-1, t, f)
    return np.maximum(ref_maxpool_freq(y, width) + b[:, None, None], 0.0)


def ref_conv2d_backward_dx(dy, w):
    """conv2d's input gradient as its own im2col of dy and one gemm."""
    w_t = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    c_in, (_, t, f) = w.shape[1], dy.shape
    return np.matmul(w_t.reshape(c_in, -1), nn._im2col_3x3(dy)).reshape(c_in, t, f)


def ref_batchnorm_train(x, state):
    """Train-mode BN with numpy's own mean and var: (y, (mean, var))."""
    shape = (-1,) + (1,) * (x.ndim - 1)
    axes = tuple(range(1, x.ndim))
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    m = nn.BN_MOMENTUM
    state.running_mean[:] = m * state.running_mean + (1 - m) * mean
    state.running_var[:] = m * state.running_var + (1 - m) * var
    state.num_updates += 1
    scale = state.gamma.astype(x.dtype) / np.sqrt(var + nn.BN_EPS)
    shift = state.beta.astype(x.dtype) - mean * scale
    return x * scale.reshape(shape) + shift.reshape(shape), (mean, var)


def ref_batchnorm_backward(dy, x, state, stats):
    """BN backward that re-centres the forward input from (mean, var)."""
    axes = tuple(range(1, x.ndim))
    shape = (-1,) + (1,) * (x.ndim - 1)
    n = x.size // x.shape[0]
    mean, var = (s.reshape(shape) for s in stats)
    inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
    xhat = (x - mean) * inv_std
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * state.gamma.astype(x.dtype).reshape(shape)
    dx = (inv_std / n) * (
        n * dxhat
        - dxhat.sum(axis=axes).reshape(shape)
        - xhat * (dxhat * xhat).sum(axis=axes).reshape(shape)
    )
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 6, 5)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = nn.conv2d(x, w, np.zeros(3, np.float32))
        assert np.allclose(y, x, atol=1e-6)

    def test_all_ones_hand_convolution(self):
        x = np.ones((1, 3, 3), np.float64)
        w = np.ones((1, 1, 3, 3), np.float64)
        y = nn.conv2d(x, w, np.zeros(1))
        assert y[0, 1, 1] == 9.0
        assert y[0, 0, 0] == 4.0
        assert y[0, 2, 2] == 4.0
        assert y[0, 0, 1] == 6.0

    def test_paper_scale_shape(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 256, 256)).astype(np.float32)
        w = (rng.standard_normal((64, 8, 3, 3)) * 0.05).astype(np.float32)
        y = nn.conv2d(x, w, np.zeros(64, np.float32))
        assert y.shape == (64, 256, 256)

    def test_shape_mismatch(self):
        x = np.zeros((3, 4, 4), np.float32)
        w = np.zeros((2, 5, 3, 3), np.float32)
        with pytest.raises(ShapeError):
            nn.conv2d(x, w, np.zeros(2, np.float32))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5, 4))
        w = rng.standard_normal((2, 3, 3, 3)) * 0.4
        b = rng.standard_normal(2)
        r = rng.standard_normal((2, 5, 4))

        def loss():
            return float(np.sum(nn.conv2d(x, w, b) * r))

        cols = []
        nn.conv2d(x, w, b, cols_out=cols)
        dx, dw, db = nn.conv2d_backward(r, cols[0], w)
        rep = nn.grad_check(loss, {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db})
        assert rep.max_rel_err < 1e-4, str(rep)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_dx_matches_im2col_reference(self, dtype):
        rng = np.random.default_rng(3)
        for c_in, c_out, t, f in [(8, 32, 17, 256), (32, 32, 9, 32), (3, 2, 1, 1)]:
            x = rng.standard_normal((c_in, t, f)).astype(dtype)
            w = (rng.standard_normal((c_out, c_in, 3, 3)) * 0.1).astype(dtype)
            dy = rng.standard_normal((c_out, t, f)).astype(dtype)
            dy[:, ::2] = 0.0  # the zero rows a pool scatter leaves
            cols = []
            nn.conv2d(x, w, np.zeros(c_out, dtype), cols_out=cols)
            dx, _, _ = nn.conv2d_backward(dy, cols[0], w)
            assert dx.dtype == dtype
            assert dx.tobytes() == ref_conv2d_backward_dx(dy, w).tobytes()


# ---------------------------------------------------------------------------
# maxpool_freq
# ---------------------------------------------------------------------------

class TestMaxpoolFreq:
    def test_pool_8_shrinks_256_to_32(self):
        x = np.random.default_rng(3).standard_normal((2, 4, 256)).astype(np.float32)
        assert nn.maxpool_freq(x, 8).shape == (2, 4, 32)

    def test_constant_input(self):
        x = np.full((1, 3, 16), 0.25, np.float32)
        assert np.all(nn.maxpool_freq(x, 2) == 0.25)

    def test_direct_max_example(self):
        x = np.array([[[1, 5, 2, 4, 3, 9, 0, 7]]], np.float32)
        assert nn.maxpool_freq(x, 8)[0, 0, 0] == 9.0

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            nn.maxpool_freq(np.zeros((1, 2, 10), np.float32), 8)

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_equals_reduction_oracle(self, width):
        rng = np.random.default_rng(width)
        x = rng.standard_normal((3, 7, 32)).astype(np.float32)
        ties = rng.integers(-2, 3, size=(3, 7, 32)).astype(np.float32)
        for arr in (x, ties, np.abs(x) * (x > 0)):
            assert np.array_equal(nn.maxpool_freq(arr, width), ref_maxpool_freq(arr, width))

    def test_backward_routes_to_argmax(self):
        x = np.array([[[1.0, 5.0, 2.0, 4.0]]])
        dy = np.array([[[3.0, 7.0]]])
        p, winners = pool_with_winners(x, 2)
        assert np.array_equal(p, [[[5.0, 4.0]]])
        assert winners.tolist() == [[[1, 1]]]
        dx = nn.maxpool_freq_backward(dy, winners, 2)
        assert np.array_equal(dx, [[[0.0, 3.0, 0.0, 7.0]]])

    @pytest.mark.parametrize("width, dtype", [(1, np.uint8), (2, np.uint8), (8, np.uint8),
                                              (256, np.uint8), (512, np.uint16)])
    def test_winners_in_smallest_unsigned_dtype(self, width, dtype):
        x = np.random.default_rng(width).standard_normal((2, 3, 2 * width)).astype(np.float32)
        p, winners = pool_with_winners(x, width)
        assert winners.dtype == dtype and winners.shape == p.shape
        assert np.array_equal(winners, x.reshape(2, 3, 2, width).argmax(axis=3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_winner_scatter_matches_argmax_backward(self, width, dtype):
        """Scattering from the stashed winners equals recomputing the argmax,
        byte for byte, ties included: the first max of a window wins."""
        rng = np.random.default_rng(20 + width)
        x = rng.standard_normal((3, 7, 32)).astype(dtype)
        ties = rng.integers(-2, 3, size=(3, 7, 32)).astype(dtype)
        signed_zeros = np.where(rng.random((3, 7, 32)) < 0.5, -0.0, 0.0).astype(dtype)
        flat = np.full((3, 7, 32), 0.5, dtype)  # every window all-equal
        for arr in (x, ties, signed_zeros, flat, -np.abs(x)):
            dy = rng.standard_normal((3, 7, 32 // width)).astype(dtype)
            dy[0, 0] = -0.0
            p, winners = pool_with_winners(arr, width)
            assert p.tobytes() == nn.maxpool_freq(arr, width).tobytes()
            got = nn.maxpool_freq_backward(dy, winners, width)
            ref = ref_maxpool_freq_backward(dy, arr, width)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        _, winners = pool_with_winners(flat, width)
        assert not winners.any()  # an all-equal window routes to offset 0

    def test_backward_rejects_mismatched_winners(self):
        _, winners = pool_with_winners(np.zeros((1, 2, 8), np.float32), 2)
        with pytest.raises(ShapeError):
            nn.maxpool_freq_backward(np.zeros((1, 2, 2), np.float32), winners, 4)

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_pool_then_relu_matches_relu_then_pool(self, width):
        """Training pools before the ReLU; the old order is the reference."""
        rng = np.random.default_rng(10 + width)
        x = rng.standard_normal((3, 7, 32)).astype(np.float32)
        ties = rng.integers(-2, 3, size=(3, 7, 32)).astype(np.float32)
        negative = -np.abs(x)  # every window's max is <= 0
        zeros = x * (rng.random(x.shape) < 0.5)  # exact zeros, some windows all zero
        zeros[0] = 0.0
        for n in (x, ties, negative, zeros, -ties):
            dy = rng.standard_normal((3, 7, 32 // width)).astype(np.float32)
            r = nn.relu(n)
            p, winners = pool_with_winners(n, width)
            assert np.array_equal(nn.relu(p), nn.maxpool_freq(r, width))
            new = nn.maxpool_freq_backward(nn.relu_backward(dy, p), winners, width)
            old = nn.relu_backward(ref_maxpool_freq_backward(dy, r, width), n)
            assert new.tobytes() == old.tobytes()


class TestConv2dReluPool:
    def test_matches_composed_ops(self):
        rng = np.random.default_rng(40)
        for c_in, c_out, t, f, width in [(8, 64, 37, 256, 8), (3, 5, 4, 16, 2),
                                         (64, 64, 9, 32, 8)]:
            x = rng.standard_normal((c_in, t, f)).astype(np.float32)
            w = (rng.standard_normal((c_out, c_in, 3, 3)) * 0.1).astype(np.float32)
            b = rng.standard_normal(c_out).astype(np.float32)
            fused = nn.conv2d_relu_pool(x, w, b, width)
            composed = nn.relu(nn.maxpool_freq(nn.conv2d(x, w, b), width))
            assert fused.shape == composed.shape
            assert np.allclose(fused, composed, atol=1e-5)

    # T = 16 and 26 are one time tile + 1 for layer 0 (8 -> 64 channels,
    # 256 bins) and layer 1 (64 -> 64, 32 bins) of the paper's front-end.
    @pytest.mark.parametrize("c_in,f,width,t", [
        (8, 256, 8, 1), (8, 256, 8, 16), (8, 256, 8, 513),
        (64, 32, 8, 1), (64, 32, 8, 26), (64, 32, 8, 513), (3, 16, 1, 29),
    ])
    def test_bit_identical_to_whole_input_oracle(self, c_in, f, width, t):
        rng = np.random.default_rng(t)
        x = rng.standard_normal((c_in, t, f)).astype(np.float32)
        w = (rng.standard_normal((64, c_in, 3, 3)) * 0.1).astype(np.float32)
        b = rng.standard_normal(64).astype(np.float32)
        assert np.array_equal(nn.conv2d_relu_pool(x, w, b, width),
                              ref_conv2d_relu_pool(x, w, b, width))

    @pytest.mark.parametrize("kind", ["seldtcn", "seldnet"])
    def test_model_predictions_unchanged(self, kind, monkeypatch):
        cfg = models.ModelConfig(n_sed=11)
        model = models.build_model(cfg, kind, seed=7)
        x = np.random.default_rng(7).standard_normal((8, 40, 256)).astype(np.float32)
        model.forward(x, dropout_rng=np.random.default_rng(7))  # prime BN stats
        model.mode = "infer"
        fused = model.forward(x)
        monkeypatch.setattr(nn, "conv2d_relu_pool", ref_conv2d_relu_pool)
        ref = model.forward(x)
        assert np.array_equal(fused.sed, ref.sed)
        assert np.array_equal(fused.doa, ref.doa)

    def test_indivisible_width_rejected(self):
        with pytest.raises(ShapeError):
            nn.conv2d_relu_pool(np.zeros((1, 2, 10), np.float32),
                                np.zeros((1, 1, 3, 3), np.float32),
                                np.zeros(1, np.float32), 4)


class TestConv1x1:
    def test_is_channel_matmul(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((3, 7)).astype(np.float32)
        w = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        assert np.allclose(nn.conv1x1(x, w, b), w @ x + b[:, None])

    def test_gradcheck(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        r = rng.standard_normal((4, 6))

        def loss():
            return float(np.sum(nn.conv1x1(x, w, b) * r))

        dx, dw, db = nn.conv1x1_backward(r, x, w)
        rep = nn.grad_check(loss, {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db})
        assert rep.max_rel_err < 1e-4, str(rep)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

class TestBatchnorm:
    def test_standardized_input_passthrough(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2000)).astype(np.float64)
        x -= x.mean(axis=1, keepdims=True)
        x /= x.std(axis=1, keepdims=True)
        state = nn.BatchNormState.create(3, dtype=np.float64)
        y = nn.batchnorm(x, state, mode="train")
        assert np.max(np.abs(y - x)) < 1e-3

    def test_constant_input_returns_beta(self):
        state = nn.BatchNormState.create(2, dtype=np.float64)
        state.beta[:] = [1.5, -0.5]
        x = np.full((2, 4, 4), 3.0)
        y = nn.batchnorm(x, state, mode="train")
        assert np.allclose(y[0], 1.5) and np.allclose(y[1], -0.5)

    def test_infer_before_update_rejected(self):
        state = nn.BatchNormState.create(2)
        with pytest.raises(StateError):
            nn.batchnorm(np.zeros((2, 5), np.float32), state, mode="infer")

    def test_infer_is_the_running_affine(self):
        rng = np.random.default_rng(44)
        for dtype in (np.float32, np.float64):
            state = nn.BatchNormState.create(3, dtype=dtype)
            state.gamma[:] = rng.uniform(0.5, 1.5, 3)
            state.beta[:] = rng.standard_normal(3)
            state.running_mean[:] = rng.standard_normal(3)
            state.running_var[:] = rng.uniform(0.1, 2.0, 3)
            state.num_updates = 1
            x = rng.standard_normal((3, 4, 5)).astype(dtype)
            scale = state.gamma / np.sqrt(state.running_var + nn.BN_EPS)
            shift = state.beta - state.running_mean * scale
            got_scale, got_shift = nn.batchnorm_affine(state, dtype)
            assert got_scale.tobytes() == scale.tobytes()
            assert got_shift.tobytes() == shift.tobytes()
            y = nn.batchnorm(x, state, mode="infer")
            assert y.tobytes() == (x * scale[:, None, None] + shift[:, None, None]).tobytes()

    def test_affine_before_update_rejected(self):
        with pytest.raises(StateError):
            nn.batchnorm_affine(nn.BatchNormState.create(2), np.float32)

    def test_running_stats_converge(self):
        rng = np.random.default_rng(5)
        state = nn.BatchNormState.create(1, dtype=np.float64)
        x = 2.0 + 3.0 * rng.standard_normal((1, 5000))
        for _ in range(120):
            nn.batchnorm(x, state, mode="train")
        assert state.running_mean[0] == pytest.approx(2.0, abs=0.1)
        assert state.running_var[0] == pytest.approx(9.0, rel=0.05)
        y = nn.batchnorm(x, state, mode="infer")
        assert abs(y.mean()) < 0.05

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 32, 16), (4, 64)])
    def test_matches_reference_bytes(self, dtype, shape):
        rng = np.random.default_rng(61)
        x = (1.5 + 2.0 * rng.standard_normal(shape)).astype(dtype)
        x[2] = 0.75  # one constant channel: var 0, centred input all zero
        dy = rng.standard_normal(shape).astype(dtype)
        states = []
        for _ in range(2):
            st = nn.BatchNormState.create(shape[0], dtype=dtype)
            st.gamma[:] = [0.5, 1.25, 2.0, -0.75]
            st.beta[:] = [0.3, -1.1, 0.0, 2.5]
            st.running_mean[:] = [0.1, 0.2, -0.3, 0.4]
            st.running_var[:] = [1.5, 0.5, 2.0, 1.0]
            states.append(st)
        got_state, ref_state = states
        saved = []
        y = nn.batchnorm(x, got_state, "train", stats_out=saved)
        ref_y, ref_stats = ref_batchnorm_train(x, ref_state)
        assert y.tobytes() == ref_y.tobytes()
        assert saved[0][1].tobytes() == ref_stats[1].tobytes()
        assert got_state.running_mean.tobytes() == ref_state.running_mean.tobytes()
        assert got_state.running_var.tobytes() == ref_state.running_var.tobytes()
        assert got_state.num_updates == ref_state.num_updates == 1
        got = nn.batchnorm_backward(dy, got_state, saved[0])
        ref = ref_batchnorm_backward(dy, x, ref_state, ref_stats)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("shape", [(4, 32, 16), (4, 64)])
    def test_backward_consumes_saved_and_keeps_dy(self, shape):
        rng = np.random.default_rng(62)
        x = rng.standard_normal(shape).astype(np.float32)
        dy = rng.standard_normal(shape).astype(np.float32)
        dy_before = dy.copy()
        state = nn.BatchNormState.create(shape[0])
        saved = []
        nn.batchnorm(x, state, "train", stats_out=saved)
        dx, _, _ = nn.batchnorm_backward(dy, state, saved[0])
        assert dy.tobytes() == dy_before.tobytes()
        assert np.shares_memory(dx, saved[0][0])  # dx is built in the centred input

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5))
        state = nn.BatchNormState.create(3, dtype=np.float64)
        state.gamma[:] = rng.uniform(0.5, 1.5, 3)
        state.beta[:] = rng.standard_normal(3)
        r = rng.standard_normal((3, 4, 5))

        def loss():
            return float(np.sum(nn.batchnorm(x, state, mode="train") * r))

        stats = []
        nn.batchnorm(x, state, mode="train", stats_out=stats)
        dx, dgamma, dbeta = nn.batchnorm_backward(r, state, stats[0])
        rep = nn.grad_check(
            loss,
            {"x": x, "gamma": state.gamma, "beta": state.beta},
            {"x": dx, "gamma": dgamma, "beta": dbeta},
        )
        assert rep.max_rel_err < 1e-4, str(rep)


# ---------------------------------------------------------------------------
# dilated conv1d
# ---------------------------------------------------------------------------

class TestDilatedConv1d:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 4, 8):
            x = rng.standard_normal((3, 20))
            w = rng.standard_normal((2, 3, 3))
            b = rng.standard_normal(2)
            assert np.allclose(nn.dilated_conv1d(x, w, b, d), ref_dilated_conv1d(x, w, b, d))

    def test_impulse_response_placement(self):
        for d in (1, 4):
            x = np.zeros((1, 32))
            t0 = 16
            x[0, t0] = 1.0
            w = np.array([[[2.0, 3.0, 5.0]]])  # [a, b, c]
            y = nn.dilated_conv1d(x, w, np.zeros(1), d)
            assert y[0, t0 - d] == 5.0  # c
            assert y[0, t0] == 3.0      # b
            assert y[0, t0 + d] == 2.0  # a
            mask = np.ones(32, bool)
            mask[[t0 - d, t0, t0 + d]] = False
            assert np.all(y[0, mask] == 0.0)

    def test_future_dependence(self):
        rng = np.random.default_rng(8)
        d = 4
        x = rng.standard_normal((2, 30))
        w = rng.standard_normal((2, 2, 3))
        b = np.zeros(2)
        y0 = nn.dilated_conv1d(x, w, b, d)
        x2 = x.copy()
        x2[:, 20] += 1.0
        y1 = nn.dilated_conv1d(x2, w, b, d)
        assert not np.allclose(y0[:, 20 - d], y1[:, 20 - d])

    def test_locality_exact(self):
        # Property: the output at t is exactly invariant to perturbations
        # farther than d frames away.
        rng = np.random.default_rng(9)
        for d in (1, 2, 8):
            x = rng.standard_normal((2, 64)).astype(np.float32)
            w = rng.standard_normal((2, 2, 3)).astype(np.float32)
            b = rng.standard_normal(2).astype(np.float32)
            y0 = nn.dilated_conv1d(x, w, b, d)
            t0 = 30
            x2 = x.copy()
            x2[:, t0] += 5.0
            y1 = nn.dilated_conv1d(x2, w, b, d)
            changed = np.where(np.any(y0 != y1, axis=0))[0]
            assert changed.min() >= t0 - d and changed.max() <= t0 + d

    # the paper's dilations 1..512, odd ones, d >= T, T = 1 and C_in != C_out
    @pytest.mark.parametrize("c_in,c_out,t", [(5, 3, 1), (3, 5, 7), (16, 16, 100),
                                              (8, 12, 600)])
    def test_matches_three_gemm_reference(self, c_in, c_out, t):
        rng = np.random.default_rng(c_in * t)
        for d in (1, 2, 3, 4, 8, 16, 32, 64, 99, 128, 256, 512, t - 1, t, t + 1, 2 * t):
            if d < 1:
                continue
            x = rng.standard_normal((c_in, t))
            w = rng.standard_normal((c_out, c_in, 3))
            b = rng.standard_normal(c_out)
            dy = rng.standard_normal((c_out, t))
            y = nn.dilated_conv1d(x, w, b, d)
            assert np.max(np.abs(y - ref_dilated_conv1d_three_gemm(x, w, b, d))) < 1e-12
            got = nn.dilated_conv1d_backward(dy, x, w, d)
            want = ref_dilated_conv1d_backward_three_gemm(dy, x, w, d)
            for g, r in zip(got, want):
                assert g.shape == r.shape and g.dtype == r.dtype
                assert np.max(np.abs(g - r)) < 1e-12

    def test_taps_are_shifted_copies(self):
        x = np.arange(1.0, 9.0).reshape(2, 4)
        taps = nn._taps_1d(x, 1).reshape(3, 2, 4)
        assert np.array_equal(taps[0], [[0, 1, 2, 3], [0, 5, 6, 7]])
        assert np.array_equal(taps[1], x)
        assert np.array_equal(taps[2], [[2, 3, 4, 0], [6, 7, 8, 0]])
        for d in (4, 5):
            far = nn._taps_1d(x, d).reshape(3, 2, 4)
            assert not far[0].any() and not far[2].any()

    def test_seldtcn_predictions_match_three_gemm(self, monkeypatch):
        cfg = models.ModelConfig(n_sed=11)
        model = models.build_model(cfg, "seldtcn", seed=7)
        x = np.random.default_rng(7).standard_normal((8, 512, 256)).astype(np.float32)
        model.forward(x, dropout_rng=np.random.default_rng(7))  # prime BN stats
        model.mode = "infer"
        new = model.forward(x)
        monkeypatch.setattr(nn, "dilated_conv1d", ref_dilated_conv1d_three_gemm)
        old = model.forward(x)
        assert np.max(np.abs(new.sed - old.sed)) < 1e-5
        assert np.max(np.abs(new.doa - old.doa)) < 1e-5

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 12))
        w = rng.standard_normal((3, 2, 3)) * 0.5
        b = rng.standard_normal(3)
        r = rng.standard_normal((3, 12))
        d = 2

        def loss():
            return float(np.sum(nn.dilated_conv1d(x, w, b, d) * r))

        dx, dw, db = nn.dilated_conv1d_backward(r, x, w, d)
        rep = nn.grad_check(loss, {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db})
        assert rep.max_rel_err < 1e-4, str(rep)


# ---------------------------------------------------------------------------
# gated activation, dropout, dense
# ---------------------------------------------------------------------------

class TestGatedActivation:
    def test_zero_maps_to_zero(self):
        assert nn.gated_activation(np.zeros(4))[0] == 0.0

    def test_asymptotes(self):
        z = np.array([60.0, -60.0])
        y = nn.gated_activation(z)
        assert y[0] == pytest.approx(1.0, abs=1e-9)
        assert y[1] == pytest.approx(0.0, abs=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((3, 7))
        r = rng.standard_normal((3, 7))

        def loss():
            return float(np.sum(nn.gated_activation(z) * r))

        dz = nn.gated_activation_backward(r, z)
        rep = nn.grad_check(loss, {"z": z}, {"z": dz})
        assert rep.max_rel_err < 1e-4, str(rep)


class TestSpatialDropout:
    def test_infer_is_identity(self):
        x = np.random.default_rng(12).standard_normal((4, 9)).astype(np.float32)
        y, mask = nn.spatial_dropout(x, rate=0.5, mode="infer", rng=0)
        assert np.array_equal(y, x)
        assert np.all(mask == 1.0)

    def test_rate_zero_identity_in_train(self):
        x = np.random.default_rng(13).standard_normal((4, 9)).astype(np.float32)
        y, _ = nn.spatial_dropout(x, rate=0.0, mode="train", rng=0)
        assert np.array_equal(y, x)

    def test_channel_granularity(self):
        x = np.ones((8, 16), np.float32)
        y, _ = nn.spatial_dropout(x, rate=0.5, mode="train", rng=7)
        for c in range(8):
            row = y[c]
            assert np.all(row == 0.0) or np.all(row == 2.0)

    def test_inverted_scaling_expectation(self):
        # Property: averaging over many seeds reproduces the input within 2%.
        rng = np.random.default_rng(14)
        x = rng.uniform(0.5, 1.5, (6, 20)).astype(np.float64)
        acc = np.zeros_like(x)
        n = 10_000
        for seed in range(n):
            y, _ = nn.spatial_dropout(x, rate=0.5, mode="train", rng=seed)
            acc += y
        avg = acc / n
        rel = np.linalg.norm(avg - x) / np.linalg.norm(x)
        assert rel < 0.02

    def test_bad_rate_rejected(self):
        with pytest.raises(InputError):
            nn.spatial_dropout(np.zeros((2, 2)), rate=1.0, mode="train")


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(15).standard_normal((5, 4)).astype(np.float32)
        y = nn.dense(x, np.eye(4, dtype=np.float32), np.zeros(4, np.float32))
        assert np.allclose(y, x)

    def test_hand_example(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 1.0])
        assert np.array_equal(nn.dense(x, w, b), [[2.0, 3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.dense(np.zeros((3, 4)), np.zeros((5, 2)), np.zeros(2))

    def test_gradcheck(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        r = rng.standard_normal((6, 3))

        def loss():
            return float(np.sum(nn.dense(x, w, b) * r))

        dx, dw, db = nn.dense_backward(r, x, w)
        rep = nn.grad_check(loss, {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db})
        assert rep.max_rel_err < 1e-4, str(rep)


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def make_gru_params(rng, n_in, hidden, dtype=np.float32, scale=0.2):
    def w(shape):
        return (rng.standard_normal(shape) * scale).astype(dtype)

    return nn.GruParams(
        w_z=w((n_in, hidden)), u_z=w((hidden, hidden)), b_z=w(hidden),
        w_r=w((n_in, hidden)), u_r=w((hidden, hidden)), b_r=w(hidden),
        w_h=w((n_in, hidden)), u_h=w((hidden, hidden)), b_h=w(hidden),
    )


class TestGru:
    def test_all_zero_everything_gives_zero(self):
        p = nn.GruParams(*[np.zeros(s, np.float32) for s in
                           [(4, 3), (3, 3), 3, (4, 3), (3, 3), 3, (4, 3), (3, 3), 3]])
        out = nn.gru_forward(np.zeros((6, 4), np.float32), p)
        assert np.all(out == 0.0)

    def test_bigru_output_width(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((10, 128)).astype(np.float32)
        fwd = make_gru_params(rng, 128, 128)
        bwd = make_gru_params(rng, 128, 128)
        assert nn.bigru_forward(x, fwd, bwd).shape == (10, 256)

    def test_time_reversal_swaps_halves(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((9, 5)).astype(np.float64)
        fwd = make_gru_params(rng, 5, 4, dtype=np.float64)
        bwd = make_gru_params(rng, 5, 4, dtype=np.float64)
        out = nn.bigru_forward(x, fwd, bwd)
        # Reversing input and swapping direction parameters time-reverses
        # the output with its halves exchanged.
        swapped = nn.bigru_forward(x[::-1], bwd, fwd)
        assert np.allclose(out[:, :4], swapped[::-1, 4:], atol=1e-12)
        assert np.allclose(out[:, 4:], swapped[::-1, :4], atol=1e-12)

    def test_hand_evaluated_single_step(self):
        # One timestep against the gate equations evaluated by hand.
        p = nn.GruParams(
            w_z=np.array([[0.5]]), u_z=np.array([[0.0]]), b_z=np.array([0.1]),
            w_r=np.array([[1.0]]), u_r=np.array([[0.0]]), b_r=np.array([0.0]),
            w_h=np.array([[2.0]]), u_h=np.array([[0.3]]), b_h=np.array([0.0]),
        )
        x = np.array([[1.0]])
        out = nn.gru_forward(x, p)
        z = 1 / (1 + np.exp(-0.6))
        hcand = np.tanh(2.0)  # h starts at 0, so the recurrent term drops
        assert out[0, 0] == pytest.approx(z * hcand, rel=1e-12)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0], np.float64)}
        state = nn.AdamState.create(params)
        nn.adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude(self):
        params = {"w": np.array([1.0])}
        state = nn.AdamState.create(params)
        nn.adam_step(params, {"w": np.array([0.5])}, state)
        # Bias correction makes the first step ~lr regardless of |g|.
        assert abs((1.0 - params["w"][0]) - 0.001) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        grads = [rng.standard_normal(4) for _ in range(10)]
        results = []
        for _ in range(2):
            params = {"w": np.ones(4)}
            state = nn.AdamState.create(params)
            for g in grads:
                nn.adam_step(params, {"w": g}, state)
            results.append(params["w"].copy())
        assert np.array_equal(results[0], results[1])

    def test_nan_gradient_rejected(self):
        params = {"w": np.ones(2)}
        state = nn.AdamState.create(params)
        with pytest.raises(NumericError):
            nn.adam_step(params, {"w": np.array([np.nan, 0.0])}, state)


# ---------------------------------------------------------------------------
# Cross-op properties
# ---------------------------------------------------------------------------

class TestProperties:
    def test_time_dimension_preserved(self):
        rng = np.random.default_rng(20)
        for t_len in (1, 7, 33):
            x3 = rng.standard_normal((4, t_len, 16)).astype(np.float32)
            assert nn.conv2d(x3, rng.standard_normal((5, 4, 3, 3)).astype(np.float32),
                             np.zeros(5, np.float32)).shape[1] == t_len
            assert nn.maxpool_freq(x3, 2).shape[1] == t_len
            state = nn.BatchNormState.create(4)
            assert nn.batchnorm(x3, state, "train").shape[1] == t_len
            x2 = rng.standard_normal((4, t_len)).astype(np.float32)
            assert nn.dilated_conv1d(
                x2, rng.standard_normal((4, 4, 3)).astype(np.float32),
                np.zeros(4, np.float32), 2).shape[1] == t_len
            assert nn.gated_activation(x2).shape[1] == t_len
            assert nn.spatial_dropout(x2, 0.5, "train", rng=1)[0].shape[1] == t_len
            xd = rng.standard_normal((t_len, 6)).astype(np.float32)
            assert nn.dense(xd, rng.standard_normal((6, 3)).astype(np.float32),
                            np.zeros(3, np.float32)).shape[0] == t_len

    def test_finite_in_finite_out(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = (rng.standard_normal((3, 8, 8)) * 10).astype(np.float32)
            w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
            y = nn.conv2d(x, w, rng.standard_normal(4).astype(np.float32))
            assert np.all(np.isfinite(y))
            z = rng.standard_normal((5, 30)).astype(np.float32) * 50
            assert np.all(np.isfinite(nn.gated_activation(z)))
            p = make_gru_params(rng, 6, 4)
            assert np.all(np.isfinite(nn.gru_forward(
                rng.standard_normal((12, 6)).astype(np.float32) * 5, p)))
