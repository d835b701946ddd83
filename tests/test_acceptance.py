"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The toy-training criterion builds its dataset in a session tmp dir
and is the long pole (several minutes on a laptop-class CPU).
"""

from fractions import Fraction

import numpy as np
import pytest

from seldkit import cli, metrics, models, nn, synth
from oracle_metrics import oracle_doa_error, oracle_segment_er_f1, random_metric_case
from weight_stores import same_store


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {description}{' - ' if detail else ''}{detail}")
    assert ok, f"criterion {number} failed: {description} {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite
# ---------------------------------------------------------------------------

N_GRAD_SEEDS = 20
TOL_SINGLE = 1e-4
TOL_COMPOSED = 1e-3


def _check(loss_fn, arrays, analytic, **kw):
    rep = nn.grad_check(loss_fn, arrays, analytic, **kw)
    return rep.max_rel_err


class TestCriterion1Gradients:
    def test_conv2d(self):
        worst = 0.0
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((3, 5, 4))
            w = rng.standard_normal((2, 3, 3, 3)) * 0.5
            b = rng.standard_normal(2)
            r = rng.standard_normal((2, 5, 4))
            cols = []
            nn.conv2d(x, w, b, cols_out=cols)
            dx, dw, db = nn.conv2d_backward(r, cols[0], w)
            worst = max(worst, _check(
                lambda: float(np.sum(nn.conv2d(x, w, b) * r)),
                {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db}))
        report(1, f"conv2d gradients ({N_GRAD_SEEDS} seeds)", worst < TOL_SINGLE,
               f"max rel err {worst:.2e}")

    def test_dilated_conv1d(self):
        worst = 0.0
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(100 + seed)
            d = int(rng.choice([1, 2, 4, 8]))
            x = rng.standard_normal((3, 14))
            w = rng.standard_normal((2, 3, 3)) * 0.5
            b = rng.standard_normal(2)
            r = rng.standard_normal((2, 14))
            dx, dw, db = nn.dilated_conv1d_backward(r, x, w, d)
            worst = max(worst, _check(
                lambda: float(np.sum(nn.dilated_conv1d(x, w, b, d) * r)),
                {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db}))
        report(1, f"dilated conv1d gradients ({N_GRAD_SEEDS} seeds)",
               worst < TOL_SINGLE, f"max rel err {worst:.2e}")

    def test_batchnorm(self):
        worst = 0.0
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(200 + seed)
            x = rng.standard_normal((3, 6, 4))
            state = nn.BatchNormState.create(3, dtype=np.float64)
            state.gamma[:] = rng.uniform(0.5, 1.5, 3)
            state.beta[:] = rng.standard_normal(3)
            r = rng.standard_normal(x.shape)
            stats = []
            nn.batchnorm(x, state, "train", stats_out=stats)
            dx, dgamma, dbeta = nn.batchnorm_backward(r, state, stats[0])
            worst = max(worst, _check(
                lambda: float(np.sum(nn.batchnorm(x, state, "train") * r)),
                {"x": x, "gamma": state.gamma, "beta": state.beta},
                {"x": dx, "gamma": dgamma, "beta": dbeta}))
        report(1, f"batchnorm gradients ({N_GRAD_SEEDS} seeds)", worst < TOL_SINGLE,
               f"max rel err {worst:.2e}")

    def test_gated_activation(self):
        worst = 0.0
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(300 + seed)
            z = rng.standard_normal((4, 9)) * 2.0
            r = rng.standard_normal(z.shape)
            dz = nn.gated_activation_backward(r, z)
            worst = max(worst, _check(
                lambda: float(np.sum(nn.gated_activation(z) * r)), {"z": z}, {"z": dz}))
        report(1, f"gated activation gradients ({N_GRAD_SEEDS} seeds)",
               worst < TOL_SINGLE, f"max rel err {worst:.2e}")

    def test_dense(self):
        worst = 0.0
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(400 + seed)
            x = rng.standard_normal((6, 4))
            w = rng.standard_normal((4, 3))
            b = rng.standard_normal(3)
            r = rng.standard_normal((6, 3))
            dx, dw, db = nn.dense_backward(r, x, w)
            worst = max(worst, _check(
                lambda: float(np.sum(nn.dense(x, w, b) * r)),
                {"x": x, "w": w, "b": b}, {"x": dx, "w": dw, "b": db}))
        report(1, f"dense gradients ({N_GRAD_SEEDS} seeds)", worst < TOL_SINGLE,
               f"max rel err {worst:.2e}")

    def test_full_resblock(self):
        # Composed block wired from the primitives, backward chained by hand.
        worst = 0.0
        for seed in range(N_GRAD_SEEDS):
            rng = np.random.default_rng(500 + seed)
            c, t, d = 4, 12, 2
            x = rng.standard_normal((c, t))
            w_d = rng.standard_normal((c, c, 3)) * 0.5
            b_d = rng.standard_normal(c)
            state = nn.BatchNormState.create(c, dtype=np.float64)
            state.gamma[:] = rng.uniform(0.5, 1.5, c)
            w_s = rng.standard_normal((c, c)) * 0.5
            b_s = rng.standard_normal(c)
            r_res = rng.standard_normal((c, t))
            r_skip = rng.standard_normal((c, t))
            mask_rng = 600 + seed

            def forward():
                z = nn.dilated_conv1d(x, w_d, b_d, d)
                bn = nn.batchnorm(z, state, "train")
                g = nn.gated_activation(bn)
                dropped, _ = nn.spatial_dropout(g, 0.5, "train",
                                                np.random.default_rng(mask_rng))
                s = nn.conv1x1(dropped, w_s, b_s)
                return x + s, s

            def loss_fn():
                residual, skip = forward()
                return float(np.sum(residual * r_res) + np.sum(skip * r_skip))

            z = nn.dilated_conv1d(x, w_d, b_d, d)
            stats = []
            bn = nn.batchnorm(z, state, "train", stats_out=stats)
            g = nn.gated_activation(bn)
            dropped, mask = nn.spatial_dropout(g, 0.5, "train",
                                               np.random.default_rng(mask_rng))
            d_s = r_res + r_skip
            d_dropped, dw_s, db_s = nn.conv1x1_backward(d_s, dropped, w_s)
            d_g = nn.spatial_dropout_backward(d_dropped, mask)
            d_bn = nn.gated_activation_backward(d_g, bn)
            d_z, dgamma, dbeta = nn.batchnorm_backward(d_bn, state, stats[0])
            d_x, dw_d, db_d = nn.dilated_conv1d_backward(d_z, x, w_d, d)
            d_x = d_x + r_res

            worst = max(worst, _check(
                loss_fn,
                {"x": x, "w_d": w_d, "b_d": b_d, "gamma": state.gamma,
                 "beta": state.beta, "w_s": w_s, "b_s": b_s},
                {"x": d_x, "w_d": dw_d, "b_d": db_d, "gamma": dgamma,
                 "beta": dbeta, "w_s": dw_s, "b_s": db_s}))
        report(1, f"composed ResBlock gradients ({N_GRAD_SEEDS} seeds)",
               worst < TOL_COMPOSED, f"max rel err {worst:.2e}")

    @staticmethod
    def _kink_margin(model, x, theta):
        """Smallest distance of any ReLU input / pool tie to its kink.

        Central differences are only valid away from the piecewise-linear
        kinks (ReLU zero crossings, pooling argmax ties); seeds that land a
        baseline activation within theta of one are screened out.
        """
        model.mode = "train"
        pool, pool_inputs = nn.maxpool_freq, []  # the BN outputs, which the cache drops

        def recording_pool(x, width, **kwargs):
            pool_inputs.append(x)
            return pool(x, width, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "maxpool_freq", recording_pool)
            _, cache = model.forward_cached(x, dropout_rng=np.random.default_rng(999))
        margin = np.inf
        for n, width in zip(pool_inputs, model.cfg.pool_schedule):
            margin = min(margin, float(np.min(np.abs(n))))
            # screened on n, not relu(n): when a window's top exceeds theta,
            # ReLU keeps it, and a negative runner-up only widens the gap
            c, t, f = n.shape
            win = np.sort(n.reshape(c, t, f // width, width), axis=3)
            gap = win[..., -1] - win[..., -2]
            ties = (gap < theta) & (win[..., -1] > theta)
            if ties.any():
                return 0.0
        _, skip_sum, _, v2, _ = cache["tcn"]
        return min(margin, float(np.min(np.abs(skip_sum))), float(np.min(np.abs(v2))))

    def test_full_model_loss(self):
        cfg = models.ModelConfig(
            n_sed=2, n_feature_channels=2, n_bins=16, conv_filters=3,
            pool_schedule=(2, 2, 2), tcn_filters=5, tcn_blocks=2,
            tcn_out_filters=4, fc_units=5, seq_len=6, dropout_rate=0.5)
        worst = 0.0
        checked = 0
        seed = 0
        while checked < N_GRAD_SEEDS:
            seed += 1
            rng = np.random.default_rng(700 + seed)
            model = models.build_model(cfg, "seldtcn", seed=seed, dtype=np.float64)
            x = rng.standard_normal((2, 6, 16))
            if self._kink_margin(model, x, theta=1e-3) < 1e-3:
                continue
            tsed = (rng.random((6, 2)) < 0.4).astype(np.float64)
            tdoa = rng.uniform(-0.7, 0.7, (6, 6))

            def loss_fn():
                model.mode = "train"
                pred = model.forward(x, dropout_rng=np.random.default_rng(999))
                return models.loss(pred, tsed, tdoa, cfg.loss_weight_doa)

            model.mode = "train"
            _, grads = models.loss_and_grads(
                model, x, tsed, tdoa, dropout_rng=np.random.default_rng(999))
            worst = max(worst, _check(loss_fn, model.params, grads, h_rel=1e-5,
                                      max_elements_per_array=4, rng=seed))
            checked += 1
        report(1, f"full SELD-TCN loss gradients ({N_GRAD_SEEDS} seeds, "
               f"{seed - N_GRAD_SEEDS} kink-adjacent seeds screened)",
               worst < TOL_COMPOSED, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 2: shape/range suite
# ---------------------------------------------------------------------------

class TestCriterion2ShapeRange:
    def test_forward_shapes_and_ranges(self):
        checked = 0
        for n_sed in (2, 8, 11):
            cfg = models.ModelConfig(n_sed=n_sed)
            for kind in ("seldtcn", "seldnet"):
                model = models.build_model(cfg, kind, seed=n_sed)
                model.mode = "train"
                for t_len in (1, 17, 256, 512):
                    x = np.random.default_rng(t_len).standard_normal(
                        (8, t_len, 256)).astype(np.float32)
                    x3 = model._front_forward(model._check_input(x), None)
                    assert x3.shape[1] == t_len, "front-end lost the time axis"
                    pred = model.forward(x, dropout_rng=np.random.default_rng(0))
                    assert pred.sed.shape == (t_len, n_sed)
                    assert pred.doa.shape == (t_len, 3 * n_sed)
                    assert np.all((pred.sed >= 0) & (pred.sed <= 1))
                    assert np.all((pred.doa >= -1) & (pred.doa <= 1))
                    checked += 1
        report(2, "shape/range sweep", checked == 24,
               f"T x N_SED x kind grid: {checked} forwards, temporal axis preserved")

    def test_range_invariant_over_seeds(self):
        cfg = models.ModelConfig(
            n_sed=3, n_feature_channels=2, n_bins=16, conv_filters=3,
            pool_schedule=(2, 2, 2), tcn_filters=5, tcn_blocks=2,
            tcn_out_filters=4, fc_units=5)
        ok = True
        for seed in range(50):
            model = models.build_model(cfg, "seldtcn", seed=seed)
            model.mode = "train"
            x = np.random.default_rng(seed).standard_normal((2, 9, 16)).astype(np.float32)
            pred = model.forward(x)
            ok &= bool(np.all((pred.sed >= 0) & (pred.sed <= 1)))
            ok &= bool(np.all((pred.doa >= -1) & (pred.doa <= 1)))
        report(2, "output ranges across 50 random-weight seeds", ok)


# ---------------------------------------------------------------------------
# Criterion 3: receptive field and causality
# ---------------------------------------------------------------------------

class TestCriterion3ReceptiveField:
    def test_tcn_receptive_field(self):
        cfg = models.ModelConfig(n_sed=11)  # 10 blocks, dilations 1..512
        model = models.build_model(cfg, "seldtcn", seed=3)
        rng = np.random.default_rng(0)
        model.mode = "train"
        model.tcn_forward(rng.standard_normal((64, 128)).astype(np.float32))
        model.mode = "infer"

        t_total, center = 2200, 1100
        h = rng.standard_normal((t_total, 128)).astype(np.float32)
        base = model.tcn_forward(h)
        h2 = h.copy()
        h2[center] += 1.0
        pert = model.tcn_forward(h2)
        changed = np.where(np.any(base != pert, axis=1))[0]

        half = 1023  # analytic: 1 + 2*(1+2+...+512) = 2047 frames total
        non_causal = changed.min() < center
        tight_lo = changed.min() == center - half
        tight_hi = changed.max() == center + half
        report(3, "non-causal dependence on future frames", non_causal,
               f"earliest changed frame {changed.min()} < perturbed {center}")
        report(3, "exact invariance beyond +-1023 frames", tight_lo and tight_hi,
               f"changed span [{changed.min()}, {changed.max()}], "
               f"expected [{center - half}, {center + half}]")


# ---------------------------------------------------------------------------
# Criterion 4: metric oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion4MetricOracles:
    def test_er_f1_de_against_bruteforce(self):
        rng = np.random.default_rng(42)
        n_cases = 200
        for _ in range(n_cases):
            pred_ann, ref_ann, n_classes, fps = random_metric_case(rng)
            pred = metrics.annotation_activity(pred_ann, n_classes)
            ref = metrics.annotation_activity(ref_ann, n_classes)

            counts = metrics.segment_counts(pred, ref, fps)
            er_o, f1_o = oracle_segment_er_f1(pred, ref, fps)
            if er_o is None:
                assert counts.er is None
            else:
                assert Fraction(counts.s + counts.d + counts.i, counts.n_ref) == er_o
            if f1_o is None:
                assert counts.f1 is None
            else:
                assert Fraction(2 * counts.tp,
                                2 * counts.tp + counts.fp + counts.fn) == f1_o

            de = metrics.doa_error(pred_ann, ref_ann)
            de_o = oracle_doa_error(pred_ann, ref_ann)
            if de_o is None:
                assert de is None
            else:
                assert de == pytest.approx(de_o, abs=1e-9)
        report(4, "metric oracle equivalence", True,
               f"{n_cases} random cases: ER/F1 rational-equal, DE within 1e-9 deg")


# ---------------------------------------------------------------------------
# Criterion 5: toy-scale learning
# ---------------------------------------------------------------------------

TOY_SCENES = 10
TOY_DURATION_S = 30.0
TOY_SR = 16000
TOY_MAX_OVERLAP = 2
TOY_DOA_WEIGHT = 10.0
TOY_EPOCHS = 50


def evaluate_sequences(model, sequences, fps):
    """Aggregate ER/F1/FR/DE of model predictions over sequences."""
    counts = metrics.SedCounts()
    total_deg, pairs, fr_hits, fr_frames = 0.0, 0, 0, 0
    for seq in sequences:
        pred = model.forward(seq.features)
        act = metrics.binarize_sed(pred.sed)
        ref_act = seq.sed > 0.5
        counts = counts + metrics.segment_counts(act, ref_act, fps)
        pred_ann = metrics.doa_vectors_from_prediction(act, pred.doa)
        ref_ann = metrics.doa_vectors_from_prediction(ref_act, seq.doa)
        deg, n = metrics.doa_error_accumulate(pred_ann, ref_ann)
        total_deg += deg
        pairs += n
        fr_hits += sum(1 for p, r in zip(pred_ann, ref_ann) if len(p) == len(r))
        fr_frames += len(pred_ann)
    return (counts.er, counts.f1, 100.0 * fr_hits / fr_frames,
            total_deg / pairs if pairs else None)


@pytest.mark.slow
class TestCriterion5ToyLearning:
    def test_toy_training_reaches_targets(self, tmp_path):
        import time
        t_start = time.perf_counter()
        synth.make_dataset(TOY_SCENES, class_count=2, out_dir=tmp_path, seed=42,
                           duration_s=TOY_DURATION_S, sample_rate_hz=TOY_SR,
                           max_overlap=TOY_MAX_OVERLAP)
        cfg = models.ModelConfig(
            n_sed=2, conv_filters=32, tcn_filters=32, tcn_blocks=4,
            tcn_out_filters=128, fc_units=128, seq_len=256,
            loss_weight_doa=TOY_DOA_WEIGHT)
        dataset = models.load_sequence_dataset(tmp_path, cfg, TOY_SR)
        model = models.build_model(cfg, "seldtcn", seed=7)
        log = models.train(model, dataset, epochs=TOY_EPOCHS, batch_size=16,
                           patience=50, seed=7)
        fps = round(TOY_SR / 256)
        er, f1, fr, de = evaluate_sequences(model, dataset.test, fps)
        minutes = (time.perf_counter() - t_start) / 60.0
        detail = (f"test F1={f1:.3f} (>=0.85) ER={er:.3f} (<=0.3) "
                  f"DE={de:.1f} deg (<=15) FR={fr:.1f} | "
                  f"{len(log.records)} epochs, {minutes:.1f} min (<30)")
        ok = f1 >= 0.85 and er <= 0.3 and de is not None and de <= 15.0 and minutes < 30.0
        report(5, "toy-scale learning", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 6: complexity counters
# ---------------------------------------------------------------------------

class TestCriterion6Counters:
    def test_single_layer_hand_counts(self):
        fixtures = [
            ("dense 128->11", models.params_dense(128, 11), 128 * 11 + 11,
             models.macs_dense(128, 11, 1), 128 * 11),
            ("conv2d 8->64 3x3", models.params_conv2d(8, 64), 64 * 8 * 9 + 64,
             models.macs_conv2d(8, 64, 10, 32), 64 * 8 * 9 * 10 * 32),
            ("conv1d 256->256 k3", models.params_conv1d(256, 256),
             256 * 256 * 3 + 256, models.macs_conv1d(256, 256, 7), 256 * 256 * 3 * 7),
            ("conv1x1 256->128", models.params_conv1x1(256, 128), 256 * 128 + 128,
             models.macs_dense(256, 128, 5), 256 * 128 * 5),
            ("gru dir 128,128", models.params_gru_direction(128, 128),
             3 * (128 * 128 + 128 * 128 + 128),
             models.macs_gru_direction(128, 128, 4), 3 * 128 * 256 * 4),
        ]
        ok = all(got_p == want_p and got_m == want_m
                 for _, got_p, want_p, got_m, want_m in fixtures)
        report(6, "single-layer counters equal hand counts", ok,
               "; ".join(f"{name}: {got_p}p/{got_m}m" for name, got_p, _, got_m, _ in fixtures))
        assert models.params_dense(128, 11) == 1419
        assert models.macs_dense(128, 11, 1) == 1408

    def test_seldnet_near_table_reference(self):
        cfg = models.ModelConfig(n_sed=11)
        params = models.count_params(cfg, "seldnet")
        rel = abs(params / 0.51e6 - 1.0)
        report(6, "SELDnet params within +-30% of the published 0.51M",
               rel <= 0.30, f"{params} ({rel * 100:.1f}% off)")
        # SELD-TCN reference: the published 1.52M cannot be reconciled with
        # 10 blocks of 256 size-3 filters under any wiring; our counter gives
        # the shared-conv reading (~2.8M) and is validated by hand instead.
        tcn = models.count_params(cfg, "seldtcn")
        print(f"       note: SELD-TCN counter gives {tcn} "
              f"(published reference 1.52M; see README reconciliation note)")

    def test_self_consistency_with_built_models(self):
        ok = True
        for kind in ("seldtcn", "seldnet"):
            for cfg in (models.ModelConfig(n_sed=11),
                        models.ModelConfig(n_sed=2, n_bins=128, conv_filters=8,
                                           tcn_filters=12, tcn_blocks=3,
                                           tcn_out_filters=6, fc_units=7,
                                           rnn_hidden=9)):
                model = models.build_model(cfg, kind, seed=0)
                ok &= model.num_params() == models.count_params(cfg, kind)
        report(6, "count_params equals built parameter store totals", ok)


# ---------------------------------------------------------------------------
# Criterion 7: latency direction
# ---------------------------------------------------------------------------

class TestCriterion7Latency:
    def test_tcn_beats_gru_by_2x(self):
        tcn = cli.run_benchmark("seldtcn", seq_len=512, repeats=7, warmup=2, seed=0)
        net = cli.run_benchmark("seldnet", seq_len=512, repeats=7, warmup=2, seed=0)
        ratio = net.mean_s / tcn.mean_s
        detail = (f"seldtcn {tcn.mean_s * 1000:.1f} ms vs seldnet "
                  f"{net.mean_s * 1000:.1f} ms, ratio {ratio:.2f} "
                  f"(paper: 0.012s vs 0.384s on GPU)")
        report(7, "SELD-TCN forward at least 2x faster than SELDnet",
               tcn.mean_s < net.mean_s and ratio > 2.0, detail)


# ---------------------------------------------------------------------------
# Criterion 8: round trips
# ---------------------------------------------------------------------------

class TestCriterion8RoundTrips:
    def test_weight_roundtrip_bit_exact(self, tmp_path):
        cfg = models.ModelConfig(n_sed=3, n_feature_channels=4, n_bins=128,
                                 conv_filters=6, tcn_filters=8, tcn_blocks=3,
                                 tcn_out_filters=6, fc_units=5)
        model = models.build_model(cfg, "seldtcn", seed=11)
        model.mode = "train"
        model.forward(np.random.default_rng(0).standard_normal(
            (4, 12, 128)).astype(np.float32))
        model.set_feature_stats(np.arange(4, dtype=np.float32),
                                np.arange(1, 5, dtype=np.float32))
        store = model.to_store()
        path = tmp_path / "rt.seldw"
        models.save_weights(store, path)
        loaded = models.load_weights(path)
        ok = same_store(loaded, store)
        report(8, "weight save/load round-trip bit-exact", ok,
               f"{len(store)} tensors")

    def test_synth_targets_metrics_self_evaluation(self):
        spec_events = [
            synth.EventSpec(class_id=0, onset_s=0.4, offset_s=2.1,
                            azimuth_deg=30.0, elevation_deg=-20.0,
                            source_kind="tone", base_freq_hz=300.0),
            synth.EventSpec(class_id=1, onset_s=1.2, offset_s=3.0,
                            azimuth_deg=-120.0, elevation_deg=40.0,
                            source_kind="tone", base_freq_hz=600.0),
        ]
        scene = synth.SceneSpec(duration_s=4.0, sample_rate_hz=16000,
                                events=spec_events, seed=5)
        _, annotations = synth.synth_scene(scene)
        sed, doa = synth.frame_targets(annotations, n_frames=240,
                                       hop_s=256 / 16000, n_sed=2)
        activity = metrics.binarize_sed(sed, 0.5)
        ann = metrics.doa_vectors_from_prediction(activity, doa)
        rep = metrics.evaluate_annotations(ann, ann, n_classes=2,
                                           frames_per_segment=round(16000 / 256))
        ok = (rep.er == 0.0 and rep.f1 == 1.0 and rep.fr == 100.0 and rep.de == 0.0)
        report(8, "synth -> targets -> metrics self-evaluation is perfect", ok,
               f"ER={rep.er} F1={rep.f1} FR={rep.fr} DE={rep.de}")
