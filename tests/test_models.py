"""Model assembly, loss, weights, config, counters, and training-loop tests."""

import ast
import math
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seldkit import dsp, models, nn, synth
from seldkit.errors import (
    ConfigError,
    DataError,
    FormatError,
    InputError,
    ShapeError,
    StateError,
    TruncatedFileError,
    SeldError,
    UnsupportedError,
)
from traced_memory import traced_peak
from weight_stores import same_store

TINY = dict(n_sed=2, n_feature_channels=2, n_bins=16, conv_filters=3,
            pool_schedule=(2, 2, 2), tcn_filters=6, tcn_blocks=2,
            tcn_out_filters=5, fc_units=4, seq_len=8, rnn_hidden=5)


def tiny_cfg(**over):
    kw = dict(TINY)
    kw.update(over)
    return models.ModelConfig(**kw)


def random_features(cfg, t_len, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (cfg.n_feature_channels, t_len, cfg.n_bins)).astype(dtype)


def crafted_weights_header(dims):
    """A one-entry SELDW1 header declaring a float32 array of shape `dims`."""
    return (models.WEIGHTS_MAGIC + struct.pack("<IH", 1, 1) + b"w"
            + struct.pack("<BB", 0, len(dims)) + struct.pack(f"<{len(dims)}I", *dims))


@st.composite
def small_configs(draw):
    """A small random ModelConfig with 1 to 4 pool stages."""
    pools = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=4))
    return models.ModelConfig(
        n_sed=draw(st.integers(1, 4)), n_feature_channels=draw(st.integers(1, 4)),
        n_bins=math.prod(pools) * draw(st.integers(1, 3)), pool_schedule=pools,
        conv_filters=draw(st.integers(1, 6)), rnn_hidden=draw(st.integers(1, 6)),
        tcn_filters=draw(st.integers(1, 8)), tcn_blocks=draw(st.integers(1, 4)),
        tcn_out_filters=draw(st.integers(1, 6)), fc_units=draw(st.integers(1, 6)))


class TestModelConfig:
    def test_defaults_are_paper_values(self):
        cfg = models.ModelConfig(n_sed=11)
        assert cfg.conv_filters == 64
        assert cfg.pool_schedule == (8, 8, 2)
        assert cfg.rnn_hidden == 128
        assert cfg.tcn_filters == 256
        assert cfg.tcn_blocks == 10
        assert cfg.dilations == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        assert cfg.temporal_in_width == 128

    def test_bins_must_divide_pooling(self):
        with pytest.raises(ConfigError):
            models.ModelConfig(n_sed=2, n_bins=100)

    def test_block_count_bounded(self):
        with pytest.raises(ConfigError):
            models.ModelConfig(n_sed=2, tcn_blocks=17)


class TestConfigFile:
    def test_roundtrip_with_extras(self, tmp_path):
        cfg = tiny_cfg(loss_weight_doa=2.5)
        path = tmp_path / "run.cfg"
        models.save_config(path, cfg, {"sample_rate_hz": 16000, "dataset_dir": "data"})
        cfg2, extras = models.load_config(path)
        assert cfg2 == cfg
        assert extras == {"sample_rate_hz": 16000, "dataset_dir": "data"}

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\nn_sed = 3   # trailing\n\npool_schedule=8,8,2\n")
        cfg, extras = models.load_config(path)
        assert cfg.n_sed == 3 and cfg.pool_schedule == (8, 8, 2)
        assert extras == {}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("n_sed = 2\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError):
            models.load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("n_sed = two\n")
        with pytest.raises(ConfigError):
            models.load_config(path)

    def test_missing_n_sed_rejected(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("conv_filters = 8\n")
        with pytest.raises(ConfigError):
            models.load_config(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "n.cfg"
        path.write_bytes(b"n_sed = 2\ndataset_dir = \xff\n")
        with pytest.raises(ConfigError):
            models.load_config(path)

    @pytest.mark.parametrize("pools", ["0", "8,0,2", "-2,-2,-2,-2", "4294967296,4294967296"])
    def test_degenerate_pool_schedule_rejected(self, tmp_path, pools):
        # a zero width, or a product that wraps to 0 in int64, divided by zero
        path = tmp_path / "p.cfg"
        path.write_text(f"n_sed = 2\npool_schedule = {pools}\n")
        with pytest.raises(ConfigError):
            models.load_config(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-1.0"])
    def test_bad_loss_weight_doa_rejected(self, tmp_path, weight):
        path = tmp_path / "w.cfg"
        path.write_text(f"n_sed = 2\nloss_weight_doa = {weight}\n")
        with pytest.raises(ConfigError):
            models.load_config(path)

    KEYS = st.sampled_from([f.name for f in fields(models.ModelConfig)]
                           + list(models.EXTRA_CONFIG_KEYS) + ["bogus", ""])
    VALUES = st.one_of(
        st.integers(-3, 600).map(str),
        st.floats().map(repr),
        st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(
            lambda v: ",".join(map(str, v))),
        st.sampled_from(["", "8,8,2", "2**64", str(2 ** 64), "1e999", "nan", "0x10"]),
        st.text(max_size=6),
    )

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.tuples(KEYS, VALUES), max_size=6), n_sed=st.booleans())
    def test_fuzz_lines(self, tmp_path_factory, lines, n_sed):
        path = tmp_path_factory.mktemp("fuzz") / "f.cfg"
        text = "".join(f"{k} = {v}\n" for k, v in ([("n_sed", "2")] if n_sed else []) + lines)
        path.write_text(text, encoding="utf-8")
        self.parse_or_config_error(path)

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_fuzz_bytes(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("fuzz") / "b.cfg"
        path.write_bytes(b"n_sed = 2\n" + blob)
        self.parse_or_config_error(path)

    @staticmethod
    def parse_or_config_error(path):
        """Parse or raise ConfigError; what parses saves and loads back equal."""
        try:
            cfg, extras = models.load_config(path)
        except ConfigError:
            return
        again = path.with_suffix(".again")
        models.save_config(again, cfg, extras)
        assert models.load_config(again) == (cfg, extras)


class TestWeightStore:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "a.b": rng.standard_normal(7).astype(np.float64),
            "scalar": np.array([1.5], np.float32),
            "signs": np.array([-0.0, 0.0, np.nan, -np.nan], np.float64),
        }
        path = tmp_path / "w.seldw"
        models.save_weights(store, path)
        back = models.load_weights(path)
        assert same_store(back, store)
        for array in back.values():
            assert array.flags.writeable and array.flags.c_contiguous

    def test_empty_store_roundtrips(self, tmp_path):
        path = tmp_path / "e.seldw"
        models.save_weights({}, path)
        assert len(models.load_weights(path)) == 0

    def test_rank0_and_strided_arrays_save_as_rank1_c_order(self, tmp_path):
        grid = np.arange(12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "r.seldw"
        models.save_weights({"s": np.array(2.5), "t": grid.T}, path)
        assert same_store(models.load_weights(path),
                          {"s": np.array([2.5]), "t": np.ascontiguousarray(grid.T)})

    def test_rank0_entry_loads_as_rank1(self, tmp_path):
        path = tmp_path / "r0.seldw"
        path.write_bytes(crafted_weights_header(()) + struct.pack("<f", 3.0))
        assert same_store(models.load_weights(path), {"w": np.array([3.0], np.float32)})

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.seldw"
        path.write_bytes(b"NOTSELD" + b"\x00" * 16)
        with pytest.raises(FormatError):
            models.load_weights(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.seldw"
        models.save_weights({"w": np.ones((8, 8), np.float32)}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(TruncatedFileError):
            models.load_weights(path)

    @pytest.mark.parametrize("dims", [
        (0xFFFFFFFF,) * 4, (65536,) * 4, (2**31, 2**31, 4, 1),
    ])
    def test_huge_declared_shape_is_truncation(self, tmp_path, dims):
        path = tmp_path / "huge.seldw"
        path.write_bytes(crafted_weights_header(dims) + b"\x00" * 64)
        with pytest.raises(TruncatedFileError):
            models.load_weights(path)

    def test_empty_entry_with_overflowing_dims_rejected(self, tmp_path):
        path = tmp_path / "empty.seldw"
        path.write_bytes(crafted_weights_header((0, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)))
        with pytest.raises(FormatError):
            models.load_weights(path)

    def test_non_utf8_entry_name_rejected(self, tmp_path):
        path = tmp_path / "name.seldw"
        path.write_bytes(models.WEIGHTS_MAGIC + struct.pack("<IH", 1, 1) + b"\xff"
                         + struct.pack("<BBI", 0, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError):
            models.load_weights(path)

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=64))
    def test_fuzz_bytes_after_magic(self, tmp_path_factory, tail):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.seldw"
        path.write_bytes(models.WEIGHTS_MAGIC + tail)
        self.parse_or_seld_error(path)

    ENTRY = st.tuples(
        st.binary(max_size=4),                                     # name
        st.integers(0, 3),                                         # dtype code
        st.lists(st.sampled_from([0, 1, 2, 3, 65536, 2 ** 32 - 1]), max_size=5),
        st.binary(max_size=24),                                    # payload
    )

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(ENTRY, max_size=3), count_delta=st.integers(-1, 1))
    def test_fuzz_entries(self, tmp_path_factory, entries, count_delta):
        blob = models.WEIGHTS_MAGIC + struct.pack("<I", max(len(entries) + count_delta, 0))
        for name, code, dims, payload in entries:
            blob += struct.pack("<H", len(name)) + name + struct.pack("<BB", code, len(dims))
            blob += struct.pack(f"<{len(dims)}I", *dims) + payload
        path = tmp_path_factory.mktemp("fuzz") / "entries.seldw"
        path.write_bytes(blob)
        self.parse_or_seld_error(path)

    @staticmethod
    def parse_or_seld_error(path):
        try:
            store = models.load_weights(path)
        except SeldError:
            return
        for name, array in store.items():
            assert isinstance(name, str) and array.dtype in (np.float32, np.float64)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.seldw"
        entry = crafted_weights_header((2,))[len(models.WEIGHTS_MAGIC) + 4:] + b"\x00" * 8
        path.write_bytes(models.WEIGHTS_MAGIC + struct.pack("<I", 2) + entry + entry)
        with pytest.raises(FormatError, match="duplicate"):
            models.load_weights(path)

    def test_int_arrays_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            models.save_weights({"w": np.ones(2, np.int32)}, tmp_path / "i.seldw")

    @pytest.mark.parametrize("name, array", [
        ("w", np.ones(2, np.float16)),
        ("n" * 65536, np.ones(2, np.float32)),
        ("w", np.ones((0, 2 ** 32), np.float32)),
        ("\ud800", np.ones(2, np.float32)),  # a lone surrogate has no UTF-8 form
    ], ids=["float16", "long_name", "huge_dim", "surrogate_name"])
    def test_unstorable_entry_rejected(self, tmp_path, name, array):
        path = tmp_path / "u.seldw"
        with pytest.raises(FormatError):
            models.save_weights({"ok": np.ones(1, np.float32), name: array}, path)
        assert not path.exists()

    def test_longest_name_roundtrips(self, tmp_path):
        path = tmp_path / "l.seldw"
        store = {"n" * 65535: np.ones(2, np.float32)}
        models.save_weights(store, path)
        assert same_store(models.load_weights(path), store)

    def test_store_does_not_follow_training(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=15)
        store = model.to_store()
        before = {name: array.copy() for name, array in store.items()}
        model.mode = "train"  # the forward also moves the BN running statistics
        seq = make_toy_sequences(cfg, 1, seed=16)[0]
        _, grads = models.loss_and_grads(model, seq.features, seq.sed, seq.doa)
        nn.adam_step(model.params, grads, nn.AdamState.create(model.params))
        assert not np.array_equal(model.params["proj.w"], before["proj.w"])
        assert not np.array_equal(model.bn_states["bn0"].running_mean,
                                  before["bn0.running_mean"])
        for name, array in store.items():
            assert np.array_equal(array, before[name]), name


class TestBuildAndForward:
    def test_same_seed_same_weights(self):
        cfg = tiny_cfg()
        a = models.build_model(cfg, "seldtcn", seed=5)
        b = models.build_model(cfg, "seldtcn", seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_fallback_dropout_stream_is_not_the_init_stream(self):
        # a train-mode forward without a generator draws its dropout masks
        # from the model's own stream, which must not replay the uniforms
        # that drew the weights
        for seed in (0, 3, 7):
            model = models.build_model(tiny_cfg(), "seldtcn", seed=seed)
            init = np.random.default_rng(seed).random(64)
            assert not np.isin(model._rng.random(64), init).any()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            models.build_model(tiny_cfg(), "transformer")

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_bad_seed_is_input_error(self, seed):
        # numpy's own error for -1 is a bare ValueError
        with pytest.raises(InputError, match="seed"):
            models.build_model(tiny_cfg(), "seldtcn", seed=seed)

    @pytest.mark.parametrize("kind", ["seldtcn", "seldnet"])
    @pytest.mark.parametrize("t_len", [1, 9, 33])
    def test_forward_shapes_and_ranges(self, kind, t_len):
        cfg = tiny_cfg()
        model = models.build_model(cfg, kind, seed=1)
        pred = model.forward(random_features(cfg, t_len))
        assert pred.sed.shape == (t_len, cfg.n_sed)
        assert pred.doa.shape == (t_len, 3 * cfg.n_sed)
        assert np.all((pred.sed > 0) & (pred.sed < 1))
        assert np.all((pred.doa > -1) & (pred.doa < 1))

    def test_infer_deterministic(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=2)
        x = random_features(cfg, 12)
        model.mode = "train"
        model.forward(x)  # prime BN stats
        model.mode = "infer"
        assert np.array_equal(model.forward(x).sed, model.forward(x).sed)

    def test_infer_fused_front_matches_layer_graph(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=21)
        x = random_features(cfg, 10)
        model.mode = "train"
        model.forward(x)  # prime BN stats
        model.mode = "infer"
        fast = model._front_forward(model._check_input(x), None)
        ref = model._check_input(x)
        for i, width in enumerate(cfg.pool_schedule):
            a = nn.conv2d(ref, model.params[f"conv{i}.w"], model.params[f"conv{i}.b"])
            normed = nn.batchnorm(a, model.bn_states[f"bn{i}"], "infer")
            ref = nn.maxpool_freq(nn.relu(normed), width)
        assert np.allclose(fast, ref, atol=1e-5)

    def test_concurrent_inference_is_safe(self):
        # infer mode is read-only over parameters; parallel calls must agree
        from concurrent.futures import ThreadPoolExecutor
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=22)
        x = random_features(cfg, 12)
        model.mode = "train"
        model.forward(x)
        model.mode = "infer"
        expected = model.forward(x)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: model.forward(x), range(8)))
        for pred in results:
            assert np.array_equal(pred.sed, expected.sed)
            assert np.array_equal(pred.doa, expected.doa)

    def test_forward_cached_needs_train_mode(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=23)
        x = random_features(cfg, 6)
        model.forward(x)  # prime BN stats
        model.mode = "infer"
        with pytest.raises(StateError, match="train mode"):
            model.forward_cached(x)

    def test_bin_mismatch_rejected(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((cfg.n_feature_channels, 4, 32), np.float32))

    def test_channel_mismatch_rejected(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((5, 4, cfg.n_bins), np.float32))

    def test_standardization_applied(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=3)
        model.mode = "train"
        x = random_features(cfg, 8)
        base = model.forward(x, dropout_rng=np.random.default_rng(0)).sed
        model.set_feature_stats(np.full(cfg.n_feature_channels, 5.0),
                                np.full(cfg.n_feature_channels, 2.0))
        shifted = model.forward(x * 2.0 + 5.0, dropout_rng=np.random.default_rng(0)).sed
        assert np.allclose(base, shifted, atol=1e-5)


class TestResBlockAndTcn:
    def test_zero_weights_degeneracy(self):
        cfg = tiny_cfg(dropout_rate=0.0)
        model = models.build_model(cfg, "seldtcn", seed=0)
        model.mode = "train"
        f = cfg.tcn_filters
        for name in ("block0.conv.w", "block0.skip.w"):
            model.params[name][:] = 0.0
        model.params["block0.skip.b"][:] = np.arange(f, dtype=np.float32)
        x = np.random.default_rng(1).standard_normal((f, 10)).astype(np.float32)
        residual, skip = model.resblock_forward(x, 0)
        assert np.allclose(skip, np.arange(f, dtype=np.float32)[:, None] * np.ones((f, 10)))
        assert np.allclose(residual, skip + x)

    def test_residual_minus_skip_is_input(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=4)
        model.mode = "train"
        x = np.random.default_rng(2).standard_normal((cfg.tcn_filters, 12)).astype(np.float32)
        residual, skip = model.resblock_forward(x, 1)
        assert np.allclose(residual - skip, x, atol=1e-6)

    def test_resblock_infer_locality(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=5)
        model.mode = "train"
        rng = np.random.default_rng(3)
        x = rng.standard_normal((cfg.tcn_filters, 40)).astype(np.float32)
        model.resblock_forward(x, 1)  # prime BN
        model.mode = "infer"
        d = cfg.dilations[1]
        base, _ = model.resblock_forward(x, 1)
        x2 = x.copy()
        x2[:, 20] += 3.0
        pert, _ = model.resblock_forward(x2, 1)
        changed = np.where(np.any(base != pert, axis=0))[0]
        assert changed.min() >= 20 - d and changed.max() <= 20 + d

    def test_tcn_output_shape(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=6)
        model.mode = "train"
        for t_len in (1, 5, 17):
            h = np.random.default_rng(4).standard_normal(
                (t_len, cfg.temporal_in_width)).astype(np.float32)
            assert model.tcn_forward(h).shape == (t_len, cfg.tcn_out_filters)

    def test_tcn_receptive_field_exact(self):
        # 2 blocks, kernel 3: field = 1 + 2*(1+2) = 7, i.e. +-3 frames.
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=7)
        model.mode = "train"
        rng = np.random.default_rng(5)
        h = rng.standard_normal((64, cfg.temporal_in_width)).astype(np.float32)
        model.tcn_forward(h)
        model.mode = "infer"
        base = model.tcn_forward(h)
        h2 = h.copy()
        h2[30] += 10.0
        pert = model.tcn_forward(h2)
        changed = np.where(np.any(base != pert, axis=1))[0]
        assert changed.min() == 30 - 3 and changed.max() == 30 + 3

    def test_tcn_noncausal(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=8)
        model.mode = "train"
        h = np.random.default_rng(6).standard_normal(
            (20, cfg.temporal_in_width)).astype(np.float32)
        model.tcn_forward(h)
        model.mode = "infer"
        base = model.tcn_forward(h)
        h2 = h.copy()
        h2[11] += 1.0  # future frame relative to t=10
        assert not np.allclose(base[10], model.tcn_forward(h2)[10])

    def test_tcn_ops_rejected_on_seldnet(self):
        model = models.build_model(tiny_cfg(), "seldnet", seed=0)
        with pytest.raises(UnsupportedError):
            model.tcn_forward(np.zeros((4, model.cfg.temporal_in_width), np.float32))


class TestLoss:
    def test_perfect_prediction_floor(self):
        rng = np.random.default_rng(7)
        sed = (rng.random((6, 3)) < 0.5).astype(np.float64)
        doa = rng.uniform(-0.9, 0.9, (6, 9))
        pred = models.Prediction(sed=np.clip(sed, 1e-7, 1 - 1e-7), doa=doa)
        assert models.loss(pred, sed, doa) < 1e-5

    def test_bce_at_half_is_ln2(self):
        sed = (np.random.default_rng(8).random((5, 4)) < 0.5).astype(np.float64)
        pred = models.Prediction(sed=np.full((5, 4), 0.5), doa=np.zeros((5, 12)))
        assert models.loss(pred, sed, np.zeros((5, 12))) == pytest.approx(np.log(2))

    def test_doa_weight_scales_mse_term(self):
        rng = np.random.default_rng(9)
        sed = np.full((4, 2), 0.5)
        tsed = (rng.random((4, 2)) < 0.5).astype(np.float64)
        doa = rng.uniform(-0.5, 0.5, (4, 6))
        tdoa = rng.uniform(-0.5, 0.5, (4, 6))
        pred = models.Prediction(sed=sed, doa=doa)
        l1 = models.loss(pred, tsed, tdoa, loss_weight_doa=1.0)
        l2 = models.loss(pred, tsed, tdoa, loss_weight_doa=2.0)
        mse = models.mse_loss(doa, tdoa)
        assert l2 - l1 == pytest.approx(mse, rel=1e-9)

    def test_shape_mismatch(self):
        pred = models.Prediction(sed=np.zeros((4, 2)), doa=np.zeros((4, 6)))
        with pytest.raises(ShapeError):
            models.loss(pred, np.zeros((4, 3)), np.zeros((4, 6)))


class TestPersistence:
    def test_model_store_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=9)
        model.mode = "train"
        x = random_features(cfg, 8, seed=1)
        model.forward(x)
        model.set_feature_stats(np.ones(cfg.n_feature_channels),
                                2 * np.ones(cfg.n_feature_channels))
        path = tmp_path / "m.seldw"
        models.save_weights(model.to_store(), path)
        loaded = models.model_from_store(cfg, models.load_weights(path))
        assert loaded.kind == "seldtcn"
        pred_a = loaded.forward(x)
        model.mode = "infer"
        pred_b = model.forward(x)
        assert np.array_equal(pred_a.sed, pred_b.sed)
        assert np.array_equal(pred_a.doa, pred_b.doa)

    def test_kind_inferred_for_seldnet(self, tmp_path):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldnet", seed=10)
        model.mode = "train"
        model.forward(random_features(cfg, 8))
        path = tmp_path / "n.seldw"
        models.save_weights(model.to_store(), path)
        assert models.model_from_store(cfg, models.load_weights(path)).kind == "seldnet"

    def test_store_config_mismatch_rejected(self, tmp_path):
        model = models.build_model(tiny_cfg(), "seldtcn", seed=0)
        model.mode = "train"
        model.forward(random_features(tiny_cfg(), 8))
        path = tmp_path / "x.seldw"
        models.save_weights(model.to_store(), path)
        other = tiny_cfg(tcn_filters=8)
        with pytest.raises(ConfigError):
            models.model_from_store(other, models.load_weights(path))

    @pytest.mark.parametrize("name, value", [
        ("meta.bn_updates", np.array([np.nan])),
        ("meta.bn_updates", np.array([np.inf])),
        ("meta.bn_updates", np.array([-1.0])),
        ("meta.bn_updates", np.zeros(0)),
        ("block0.bn.running_var", np.ones(7, np.float32)),
        ("bn1.running_mean", np.zeros(2, np.float32)),
        ("features.mean", np.zeros(3, np.float32)),
        ("features.std", None),  # a mean without its std
        ("conv0.w", np.full((3, 2, 3, 3), np.nan, np.float32)),
        ("bn0.running_var", np.array([1.0, -1.0, 1.0], np.float32)),
        ("block0.bn.running_var", np.full(6, np.inf, np.float32)),
        ("features.std", np.zeros(2, np.float32)),
        ("features.mean", np.array([0.0, -np.inf], np.float32)),
    ])
    def test_crafted_entry_rejected(self, name, value):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=0)
        model.set_feature_stats(np.zeros(cfg.n_feature_channels),
                                np.ones(cfg.n_feature_channels))
        store = {entry: array if entry != name else value
                 for entry, array in model.to_store().items()}
        if value is None:
            del store[name]
        with pytest.raises((ConfigError, FormatError), match=re.escape(name)):
            models.model_from_store(cfg, store)

    def test_zero_running_var_accepted(self):
        # a constant channel's float32 running variance decays to exactly 0
        cfg = tiny_cfg()
        store = models.build_model(cfg, "seldtcn", seed=0).to_store()
        store["bn0.running_var"][:] = 0.0
        model = models.model_from_store(cfg, store)
        assert not model.bn_states["bn0"].running_var.any()


class TestCounters:
    def test_dense_layer_hand_count(self):
        # I=128, O=11 -> 1419 parameters and 1408 MACs per frame.
        assert 128 * 11 + 11 == 1419
        cfg = models.ModelConfig(n_sed=11)
        macs_t1 = models.count_macs(cfg, "seldnet", 1)
        macs_head_share = cfg.fc_units * cfg.n_sed
        assert macs_head_share == 1408
        assert macs_t1 > macs_head_share

    @pytest.mark.parametrize("kind", ["seldtcn", "seldnet"])
    @settings(max_examples=40, deadline=None)
    @given(drawn=small_configs())
    def test_self_consistency_with_built_model(self, kind, drawn):
        for cfg in (tiny_cfg(), models.ModelConfig(n_sed=3, n_bins=128,
                                                   conv_filters=8, tcn_filters=12,
                                                   tcn_blocks=3, tcn_out_filters=6,
                                                   fc_units=7, rnn_hidden=9), drawn):
            model = models.build_model(cfg, kind, seed=0)
            assert model.num_params() == models.count_params(cfg, kind)

    @pytest.mark.parametrize("kind, params, macs", [
        ("seldnet", 643_436, 1_571_553_280),
        ("seldtcn", 2_831_724, 2_687_238_144),
    ])
    def test_default_config_pinned(self, kind, params, macs):
        cfg = models.ModelConfig(n_sed=11)
        assert models.count_params(cfg, kind) == params
        assert models.count_macs(cfg, kind, 512) == macs

    def test_macs_scale_linearly_with_time(self):
        cfg = tiny_cfg()
        for kind in ("seldtcn", "seldnet"):
            m1 = models.count_macs(cfg, kind, 10)
            m2 = models.count_macs(cfg, kind, 20)
            assert m2 == 2 * m1


def make_toy_sequences(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        feats = rng.standard_normal(
            (cfg.n_feature_channels, cfg.seq_len, cfg.n_bins)).astype(np.float32)
        sed = (rng.random((cfg.seq_len, cfg.n_sed)) < 0.3).astype(np.float32)
        doa = np.zeros((cfg.seq_len, 3 * cfg.n_sed), np.float32)
        out.append(models.Sequence(features=feats, sed=sed, doa=doa))
    return out


class TestTraining:
    def test_loss_and_grads_memory_bounded(self):
        # criterion 5's toy config. The cache holds only what backward reads,
        # and backward frees each layer's record once its gradients are
        # taken (49.9 MiB measured)
        cfg = models.ModelConfig(n_sed=2, conv_filters=32, tcn_filters=32, tcn_blocks=4,
                                 tcn_out_filters=128, fc_units=128, seq_len=256)
        model = models.build_model(cfg, "seldtcn", seed=7)
        seq = make_toy_sequences(cfg, 1)[0]
        peak = traced_peak(models.loss_and_grads, model, seq.features, seq.sed, seq.doa,
                           dropout_rng=np.random.default_rng(0)).peak
        assert peak <= 64 * 2 ** 20

    def test_backward_consumes_its_cache(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=2)
        model.mode = "train"
        seq = make_toy_sequences(cfg, 1)[0]
        _, cache = model.forward_cached(seq.features, dropout_rng=np.random.default_rng(0))
        d_sed = np.ones((cfg.seq_len, cfg.n_sed), np.float32)
        d_doa = np.ones((cfg.seq_len, 3 * cfg.n_sed), np.float32)
        grads = model.backward(cache, d_sed, d_doa)
        assert set(grads) == set(model.params)
        assert not cache["front"] and not cache["blocks"]
        with pytest.raises(StateError, match="consumed"):
            model.backward(cache, d_sed, d_doa)

    def test_overfit_single_batch(self):
        # run-based oracle: 200 steps on one fixed batch cut the loss >= 10x
        cfg = tiny_cfg(dropout_rate=0.0, conv_filters=6, tcn_filters=12,
                       tcn_out_filters=16, fc_units=16)
        model = models.build_model(cfg, "seldtcn", seed=11)
        model.mode = "train"
        seqs = make_toy_sequences(cfg, 2, seed=3)
        adam = nn.AdamState.create(model.params)
        first = None
        for _ in range(200):
            total = 0.0
            grads_acc = None
            for seq in seqs:
                value, grads = models.loss_and_grads(model, seq.features, seq.sed, seq.doa)
                total += value
                if grads_acc is None:
                    grads_acc = grads
                else:
                    for k, g in grads.items():
                        grads_acc[k] += g
            for k in grads_acc:
                grads_acc[k] /= len(seqs)
            nn.adam_step(model.params, grads_acc, adam)
            if first is None:
                first = total
        assert total < first / 10.0

    def test_patience_zero_stops_at_first_plateau(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=12)
        ds = models.SequenceDataset(train=make_toy_sequences(cfg, 3, 1),
                                    val=make_toy_sequences(cfg, 2, 2))
        log = models.train(model, ds, epochs=30, batch_size=4, patience=0, seed=0)
        # stops at the first epoch whose val loss fails to improve
        assert log.stopped_early
        assert len(log.records) < 30
        assert log.best_epoch == len(log.records) - 1

    def test_early_stop_restores_best_epoch(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=12)
        ds = models.SequenceDataset(train=make_toy_sequences(cfg, 3, 1),
                                    val=make_toy_sequences(cfg, 2, 2))
        log = models.train(model, ds, epochs=30, batch_size=4, patience=0, seed=0)
        assert log.stopped_early
        assert log.records[-1].val_loss != log.best_val_loss
        assert model.mode == "infer"
        val_loss = 0.0
        for seq in ds.val:
            val_loss += models.loss(model.forward(seq.features), seq.sed.astype(model.dtype),
                                    seq.doa.astype(model.dtype), cfg.loss_weight_doa)
        assert val_loss / len(ds.val) == log.best_val_loss

    def test_training_deterministic(self):
        cfg = tiny_cfg()
        losses = []
        for _ in range(2):
            model = models.build_model(cfg, "seldtcn", seed=13)
            ds = models.SequenceDataset(train=make_toy_sequences(cfg, 4, 5),
                                        val=make_toy_sequences(cfg, 2, 6))
            log = models.train(model, ds, epochs=3, batch_size=2, patience=50, seed=9)
            losses.append([(r.train_loss, r.val_loss) for r in log.records])
        assert losses[0] == losses[1]

    def test_seldnet_training_rejected(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldnet", seed=0)
        ds = models.SequenceDataset(train=make_toy_sequences(cfg, 2, 1),
                                    val=make_toy_sequences(cfg, 1, 2))
        with pytest.raises(UnsupportedError):
            models.train(model, ds)

    def test_empty_split_rejected(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=0)
        ds = models.SequenceDataset(train=[], val=make_toy_sequences(cfg, 1, 2))
        with pytest.raises(DataError):
            models.train(model, ds)

    def test_epochs_bounded(self):
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=0)
        ds = models.SequenceDataset(train=make_toy_sequences(cfg, 2, 1),
                                    val=make_toy_sequences(cfg, 1, 2))
        with pytest.raises(InputError):
            models.train(model, ds, epochs=501)

    def test_gradient_flow_every_parameter(self):
        # one train step on random data: every parameter sees a nonzero
        # gradient in at least one of 10 batches
        cfg = tiny_cfg()
        model = models.build_model(cfg, "seldtcn", seed=14)
        model.mode = "train"
        seen = {name: False for name in model.params}
        for batch in range(10):
            seq = make_toy_sequences(cfg, 1, seed=100 + batch)[0]
            _, grads = models.loss_and_grads(model, seq.features, seq.sed, seq.doa)
            for name, g in grads.items():
                if np.any(g != 0.0):
                    seen[name] = True
        dead = [name for name, ok in seen.items() if not ok]
        assert not dead, f"no gradient reached: {dead}"


class TestDatasetLoading:
    def test_load_sequence_dataset(self, tmp_path):
        synth.make_dataset(5, 2, tmp_path, seed=3, duration_s=2.0, sample_rate_hz=8000)
        cfg = tiny_cfg(n_feature_channels=8, n_bins=256, seq_len=16)
        ds = models.load_sequence_dataset(tmp_path, cfg, 8000)
        assert len(ds.train) >= 1 and len(ds.val) >= 1 and len(ds.test) >= 1
        seq = ds.train[0]
        assert seq.features.shape == (8, 16, 256)
        assert seq.sed.shape == (16, 2)
        assert seq.doa.shape == (16, 6)

    def test_resamples_to_the_config_rate(self, tmp_path):
        synth.make_dataset(5, 2, tmp_path, seed=4, duration_s=2.0, sample_rate_hz=16000)
        cfg = tiny_cfg(n_feature_channels=8, n_bins=256, seq_len=16)
        ds = models.load_sequence_dataset(tmp_path, cfg, 8000)
        want = {split: [] for split in synth.SPLITS}
        for split, clip, events in synth.read_dataset(tmp_path):
            assert clip.sample_rate_hz == 16000
            feats = dsp.stft_features(dsp.resample(clip, 8000)).values
            sed, doa = synth.frame_targets(events, feats.shape[1], dsp.HOP / 8000, cfg.n_sed)
            for lo in range(0, feats.shape[1] - cfg.seq_len + 1, cfg.seq_len):
                want[split].append((feats[:, lo:lo + cfg.seq_len], sed[lo:lo + cfg.seq_len],
                                    doa[lo:lo + cfg.seq_len]))
        for split in synth.SPLITS:
            got = getattr(ds, split)
            assert len(got) == len(want[split]) > 0
            for seq, (features, sed, doa) in zip(got, want[split]):
                assert np.array_equal(seq.features, features)
                assert np.array_equal(seq.sed, sed)
                assert np.array_equal(seq.doa, doa)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            models.load_sequence_dataset(tmp_path, tiny_cfg(), 8000)

    def test_feature_stats(self):
        cfg = tiny_cfg()
        seqs = make_toy_sequences(cfg, 3, seed=20)
        mean, std = models.feature_stats(seqs)
        stacked = np.concatenate([s.features for s in seqs], axis=1)
        assert np.allclose(mean, stacked.mean(axis=(1, 2)), atol=1e-5)
        assert np.allclose(std, stacked.std(axis=(1, 2)), atol=1e-4)


class TestBenchmarkTracerContract:
    """Names the benchmark in perfbench/ reaches into by attribute lookup."""

    def test_traced_names_exist(self):
        source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        methods = next(
            ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "MODEL_METHODS" for t in node.targets))
        assert methods
        for attr in methods:
            assert callable(vars(models.SeldModel).get(attr)), attr
        for name in ("macs_conv2d", "macs_conv1d", "macs_dense", "macs_gru_direction",
                     "count_macs"):
            assert callable(getattr(models, name, None)), name
        model = models.build_model(tiny_cfg(), "seldtcn", seed=0)
        assert model.kind == "seldtcn"
        assert isinstance(model.cfg, models.ModelConfig)

    def test_reference_layer_names_exist(self):
        # perfbench/reference.py is the benchmark's correctness oracle; it
        # reaches the layers as attributes of the `nn` module it is handed
        source = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
        names = {node.attr for node in ast.walk(ast.parse(source.read_text()))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "nn"}
        assert {"conv2d", "batchnorm", "relu", "maxpool_freq"} <= names
        for name in names:
            assert callable(getattr(nn, name, None)), name

    @staticmethod
    def _sk_module(node):
        """'models' for the expression `sk.models`, else None."""
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sk"):
            return node.attr
        return None

    @staticmethod
    def _ref(node):
        """'m' for the name m, 'self.cli' for self.cli, else None."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        return None

    def test_workload_lookups_exist(self):
        # the workloads and the runner are handed the modules as attributes
        # of `sk` and reach names as sk.<module>.<name>, or through a name
        # bound to sk.<module> (m = sk.models, self.cli = sk.cli)
        from seldkit import cli, dsp, metrics
        modules = {"cli": cli, "dsp": dsp, "metrics": metrics, "models": models,
                   "nn": nn, "synth": synth}
        root = Path(__file__).resolve().parents[1] / "perfbench"
        lookups = set()
        for name in ("workloads.py", "run.py"):
            tree = ast.parse((root / name).read_text())
            aliases = {self._ref(t): self._sk_module(node.value)
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Assign) and self._sk_module(node.value)
                       for t in node.targets}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    module = self._sk_module(node.value) or aliases.get(self._ref(node.value))
                    if module:
                        lookups.add((module, node.attr))
        assert {("models", "train"), ("models", "macs_conv2d"), ("cli", "main"),
                ("dsp", "resample"), ("metrics", "doa_vectors_from_prediction")} <= lookups
        for module, attr in sorted(lookups):
            assert hasattr(modules[module], attr), f"{module}.{attr}"

    def test_workload_command_lines_parse(self):
        # evaluate each `self.argv = [...]` of perfbench/workloads.py with the
        # module's and the class's literal constants, then parse it
        from seldkit import cli
        tree = ast.parse(
            (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text())

        def constants(body):
            return {t.id: ast.literal_eval(node.value) for node in body
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    for t in node.targets if isinstance(t, ast.Name)}

        class Instance:  # class constants, and a path for anything prepare() sets
            def __init__(self, attrs):
                self.__dict__.update(attrs)

            def __getattr__(self, name):
                return Path(name)

        commands = set()
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Assign)
                        and [self._ref(t) for t in node.targets] == ["self.argv"]):
                    argv = eval(compile(ast.Expression(node.value), "workloads.py", "eval"),
                                {"str": str, **constants(tree.body)},
                                {"self": Instance(constants(cls.body)), "d": Path("work"),
                                 "seed": 42})
                    args = cli.build_parser().parse_args(argv)
                    assert args.command == argv[0]
                    commands.add(args.command)
        assert commands == {"infer", "eval"}
