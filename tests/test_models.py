"""Model assembly, loss, weights, config, counters, and training-loop tests."""

import struct

import numpy as np
import pytest

from seldkit import models, nn, synth
from seldkit.errors import (
    ConfigError,
    DataError,
    FormatError,
    InputError,
    ShapeError,
    StateError,
    TruncatedFileError,
    UnsupportedError,
)

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


class TestWeightStore:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = models.WeightStore()
        store.put("a.w", rng.standard_normal((3, 4)).astype(np.float32))
        store.put("a.b", rng.standard_normal(7).astype(np.float64))
        store.put("scalar", np.array([1.5], np.float32))
        path = tmp_path / "w.seldw"
        models.save_weights(store, path)
        back = models.load_weights(path)
        assert back == store
        assert back.names() == store.names()

    def test_empty_store_roundtrips(self, tmp_path):
        path = tmp_path / "e.seldw"
        models.save_weights(models.WeightStore(), path)
        assert len(models.load_weights(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.seldw"
        path.write_bytes(b"NOTSELD" + b"\x00" * 16)
        with pytest.raises(FormatError):
            models.load_weights(path)

    def test_truncation(self, tmp_path):
        store = models.WeightStore()
        store.put("w", np.ones((8, 8), np.float32))
        path = tmp_path / "t.seldw"
        models.save_weights(store, path)
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

    def test_duplicate_put_rejected(self):
        store = models.WeightStore()
        store.put("w", np.ones(2, np.float32))
        with pytest.raises(FormatError):
            store.put("w", np.ones(2, np.float32))

    def test_int_arrays_rejected(self):
        store = models.WeightStore()
        with pytest.raises(FormatError):
            store.put("w", np.ones(2, np.int32))


class TestBuildAndForward:
    def test_same_seed_same_weights(self):
        cfg = tiny_cfg()
        a = models.build_model(cfg, "seldtcn", seed=5)
        b = models.build_model(cfg, "seldtcn", seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            models.build_model(tiny_cfg(), "transformer")

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
    def test_self_consistency_with_built_model(self, kind):
        for cfg in (tiny_cfg(), models.ModelConfig(n_sed=3, n_bins=128,
                                                   conv_filters=8, tcn_filters=12,
                                                   tcn_blocks=3, tcn_out_filters=6,
                                                   fc_units=7, rnn_hidden=9)):
            model = models.build_model(cfg, kind, seed=0)
            assert model.num_params() == models.count_params(cfg, kind)

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
