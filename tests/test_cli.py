"""End-to-end CLI tests: flags, exit codes, file outputs, determinism."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seldkit import cli, dsp, metrics, models, synth
from traced_memory import traced_peak


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def run_seld(*argv):
    """Run the command line in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "seldkit.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def assert_clean_exit_one(result):
    """Exit 1 with an `error:` line and no Python traceback."""
    assert result.returncode == 1, result.stderr
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds")
    synth.make_dataset(5, 2, path, seed=3, duration_s=2.0, sample_rate_hz=8000)
    return path


@pytest.fixture(scope="module")
def tiny_train_cfg(tmp_path_factory, dataset_dir):
    cfg = models.ModelConfig(
        n_sed=2, conv_filters=4, tcn_filters=6, tcn_blocks=2,
        tcn_out_filters=5, fc_units=4, seq_len=8)
    path = tmp_path_factory.mktemp("cfg") / "toy.cfg"
    models.save_config(path, cfg, {"sample_rate_hz": 8000,
                                   "dataset_dir": str(dataset_dir)})
    return path


def dataset_copy(dataset_dir, train_cfg, tmp_path):
    """A copy of the dataset and a config that trains on it: (directory, config)."""
    copy = tmp_path / "ds"
    copy.mkdir()
    for src in dataset_dir.iterdir():
        (copy / src.name).write_bytes(src.read_bytes())
    cfg, extras = models.load_config(train_cfg)
    config = tmp_path / "copy.cfg"
    models.save_config(config, cfg, dict(extras, dataset_dir=str(copy)))
    return copy, config


@pytest.fixture(scope="module")
def trained_weights(tmp_path_factory, tiny_train_cfg):
    out = tmp_path_factory.mktemp("w") / "toy.seldw"
    rc = run_cli("train", "--config", tiny_train_cfg, "--out", out,
                 "--epochs", 2, "--seed", 5)
    assert rc == 0
    return out


class TestSynthCommand:
    def test_creates_dataset(self, tmp_path, capsys):
        rc = run_cli("synth", "--scenes", 10, "--classes", 2,
                     "--out", tmp_path / "d", "--seed", 7,
                     "--duration", 2.0, "--sr", 8000)
        assert rc == 0
        wavs = sorted((tmp_path / "d").glob("*.wav"))
        csvs = sorted((tmp_path / "d").glob("scene_*.csv"))
        assert len(wavs) == 10 and len(csvs) == 10
        train = (tmp_path / "d" / "train.txt").read_text().splitlines()
        assert len(train) == 6

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--scenes", 5, "--classes", 2)
        assert exc.value.code == 2

    def test_same_seed_identical_manifests(self, tmp_path):
        for sub in ("a", "b"):
            run_cli("synth", "--scenes", 5, "--classes", 2,
                    "--out", tmp_path / sub, "--seed", 9,
                    "--duration", 2.0, "--sr", 8000)
        for name in ("train.txt", "val.txt", "test.txt", "scene_0000.csv"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SELD_SEED", "9")
        run_cli("synth", "--scenes", 5, "--classes", 2, "--out", tmp_path / "env",
                "--duration", 2.0, "--sr", 8000)
        run_cli("synth", "--scenes", 5, "--classes", 2, "--out", tmp_path / "flag",
                "--seed", 9, "--duration", 2.0, "--sr", 8000)
        assert (tmp_path / "env" / "scene_0000.csv").read_text() == \
            (tmp_path / "flag" / "scene_0000.csv").read_text()

    @pytest.mark.parametrize("argv", [
        ("synth", "--scenes", 5, "--classes", 2, "--out", "ds", "--seed", -1),
        ("bench", "--model", "seldtcn", "--seq-len", 8, "--repeats", 3, "--seed", -1),
    ])
    def test_negative_seed_flag_rejected(self, tmp_path, argv):
        assert_clean_exit_one(run_seld(*(tmp_path / a if a == "ds" else a for a in argv)))
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_bad_duration_exits_one(self, tmp_path, capsys, duration):
        rc = run_cli("synth", "--scenes", 5, "--classes", 2, "--out", tmp_path / "ds",
                     "--duration", duration, "--sr", 8000)
        assert rc == 1
        assert "finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("duration, sr", [("1e300", 16000), ("16777.3", 16000),
                                              ("0.001", 300_000_000)])
    def test_scene_past_wav_limits_exits_one(self, tmp_path, capsys, duration, sr):
        # a 4-channel float32 WAV holds at most 268,435,453 frames, at a byte
        # rate that fits 32 bits
        rc = run_cli("synth", "--scenes", 5, "--classes", 2, "--out", tmp_path / "ds",
                     "--duration", duration, "--sr", sr)
        assert rc == 1
        assert "does not fit a float32 WAV" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("value", ["-3", "abc"])
    def test_bad_seed_env_rejected(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("SELD_SEED", value)
        result = run_seld("synth", "--scenes", 5, "--classes", 2, "--out", tmp_path / "ds",
                          "--duration", 2.0, "--sr", 8000)
        assert_clean_exit_one(result)
        assert "SELD_SEED" in result.stderr


class TestTrainCommand:
    def test_trains_and_saves(self, trained_weights, tiny_train_cfg):
        assert trained_weights.exists()
        sidecar = trained_weights.parent / (trained_weights.name + ".cfg")
        assert sidecar.exists()
        cfg, extras = models.load_config(sidecar)
        assert cfg.n_sed == 2 and extras["sample_rate_hz"] == 8000
        log = trained_weights.parent / (trained_weights.name + ".log.csv")
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,seconds"
        assert len(lines) == 3  # header + 2 epochs

    def test_seldnet_training_rejected(self, tiny_train_cfg, tmp_path, capsys):
        # `seld train` only builds SELD-TCN, so asking for a kind is a usage error
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", tiny_train_cfg,
                    "--model", "seldnet", "--out", tmp_path / "x.seldw")
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_sed = 2\nbogus_key = 1\n")
        rc = run_cli("train", "--config", bad, "--out", tmp_path / "w.seldw")
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n_sed = 2\n\xff\n")
        rc = run_cli("train", "--config", bad, "--out", tmp_path / "w.seldw")
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [b"1.0,2.0,0,10.0,0.0\xff", b"0.5,1.5,-1,10.0,0.0",
                                     b"nan,1.5,0,10.0,0.0"])
    def test_corrupt_annotation_exits_one(self, tiny_train_cfg, dataset_dir, tmp_path,
                                          capsys, row):
        corrupt, config = dataset_copy(dataset_dir, tiny_train_cfg, tmp_path)
        csv_path = corrupt / "scene_0000.csv"
        csv_path.write_bytes(csv_path.read_bytes() + row + b"\n")
        rc = run_cli("train", "--config", config, "--out", tmp_path / "w.seldw",
                     "--epochs", 1)
        assert rc == 1
        assert "scene_0000.csv" in capsys.readouterr().err


class TestEvalCommand:
    def write_ann(self, path, ann):
        metrics.write_prediction_csv(path, ann)

    def test_perfect_match(self, tmp_path, capsys):
        ann = [{0: np.array([1.0, 0.0, 0.0])}, {}, {1: np.array([0.0, 1.0, 0.0])}]
        self.write_ann(tmp_path / "p.csv", ann)
        self.write_ann(tmp_path / "r.csv", ann)
        rc = run_cli("eval", "--pred", tmp_path / "p.csv", "--ref", tmp_path / "r.csv",
                     "--sr", 8000, "--hop", 4000, "--out", tmp_path / "rep.txt")
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.0000" in out and "100.0000%" in out
        kv = read_kv(tmp_path / "rep.txt")
        assert float(kv["er"]) == 0.0
        assert float(kv["f1"]) == 1.0
        assert float(kv["fr"]) == 100.0
        assert float(kv["de"]) == 0.0

    def test_substitution_fixture(self, tmp_path):
        # two 1-frame segments; segment 0: ref {A, B} vs pred {A, C}
        ref = [{0: np.array([1.0, 0, 0]), 1: np.array([0, 1.0, 0])}, {}]
        pred = [{0: np.array([1.0, 0, 0]), 2: np.array([0, 0, 1.0])}, {}]
        self.write_ann(tmp_path / "r.csv", ref)
        self.write_ann(tmp_path / "p.csv", pred)
        rc = run_cli("eval", "--pred", tmp_path / "p.csv", "--ref", tmp_path / "r.csv",
                     "--sr", 100, "--hop", 100, "--out", tmp_path / "rep.txt")
        assert rc == 0
        kv = read_kv(tmp_path / "rep.txt")
        assert float(kv["er"]) == 0.5
        assert float(kv["f1"]) == 0.5

    def test_empty_reference_warns_exit_zero(self, tmp_path, capsys):
        self.write_ann(tmp_path / "p.csv", [{0: np.array([1.0, 0, 0])}])
        self.write_ann(tmp_path / "r.csv", [{}])
        rc = run_cli("eval", "--pred", tmp_path / "p.csv", "--ref", tmp_path / "r.csv",
                     "--sr", 100, "--hop", 100, "--out", tmp_path / "rep.txt")
        assert rc == 0
        captured = capsys.readouterr()
        assert "undefined" in captured.err
        assert read_kv(tmp_path / "rep.txt")["er"] == "absent"

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = run_cli("eval", "--pred", tmp_path / "no.csv", "--ref", tmp_path / "no.csv",
                     "--sr", 100, "--hop", 100)
        assert rc == 1

    @pytest.mark.parametrize("row", [b"0,99999999999,1,0,0", b"99999999999,0,1,0,0",
                                     b"0,0,1,0,0\xff"])
    def test_hostile_csv_exits_one(self, tmp_path, row):
        self.write_ann(tmp_path / "r.csv", [{0: np.array([1.0, 0, 0])}])
        (tmp_path / "p.csv").write_bytes(b"frame_index,class_id,x,y,z\n" + row + b"\n")
        rc = run_cli("eval", "--pred", tmp_path / "p.csv", "--ref", tmp_path / "r.csv",
                     "--sr", 100, "--hop", 100)
        assert rc == 1

    def test_oversized_activity_exits_one(self, tmp_path, capsys):
        # both indices pass the reader's limits, but frames x classes does not
        path = tmp_path / "p.csv"
        path.write_text(f"frame_index,class_id,x,y,z\n{2 ** 20},1023,1,0,0\n")
        rc = run_cli("eval", "--pred", path, "--ref", path, "--sr", 100, "--hop", 100)
        assert rc == 1
        assert "activity cells" in capsys.readouterr().err

    @pytest.mark.parametrize("class_id, code", [(0, 0), (40, 1)])
    def test_two_rows_at_the_last_frame_index(self, tmp_path, capsys, class_id, code):
        # 8,388,608 frames: scored from the two rows, not from one dict per
        # frame (which took 1.26 GB); with 41 classes the activity-cell limit
        # is hit before any (frames, classes) array exists
        path = tmp_path / "p.csv"
        path.write_text(f"frame_index,class_id,x,y,z\n0,0,1,0,0\n"
                        f"{metrics.MAX_FRAMES - 1},{class_id},0,0,1\n")
        rc, peak, _ = traced_peak(cli.main, ["eval", "--pred", str(path), "--ref", str(path),
                                             "--sr", "100", "--hop", "2"])
        captured = capsys.readouterr()
        assert rc == code
        assert peak < 64 * 2 ** 20
        if code:
            assert "activity cells" in captured.err
            assert peak < 2 ** 20
        else:
            assert f"frames           : {metrics.MAX_FRAMES} (50 per segment)" in captured.out
            assert "frame recall(FR) : 100.0000%" in captured.out


class TestBenchCommand:
    def test_repeats_below_three_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--model", "seldtcn", "--repeats", 1)
        assert exc.value.code == 2

    def test_smoke_report(self, tmp_path, capsys):
        rc = run_cli("bench", "--model", "seldtcn", "--seq-len", 32,
                     "--repeats", 3, "--warmup", 1, "--classes", 2,
                     "--seed", 0, "--out", tmp_path / "b.txt")
        assert rc == 0
        kv = read_kv(tmp_path / "b.txt")
        assert kv["model"] == "seldtcn"
        assert int(kv["seq_len"]) == 32
        assert float(kv["mean_s"]) > 0
        assert float(kv["run0_s"]) > 0
        cfg = models.ModelConfig(n_sed=2, seq_len=32)
        assert int(kv["params"]) == models.count_params(cfg, "seldtcn")
        assert int(kv["macs"]) == models.count_macs(cfg, "seldtcn", 32)


@pytest.fixture()
def sample_wav(tmp_path):
    spec = synth.SceneSpec(
        duration_s=2.0, sample_rate_hz=8000,
        events=[synth.EventSpec(class_id=0, onset_s=0.3, offset_s=1.6,
                                azimuth_deg=40.0, elevation_deg=0.0,
                                source_kind="tone", base_freq_hz=300.0)],
        seed=4)
    clip, _ = synth.synth_scene(spec)
    path = tmp_path / "scene.wav"
    dsp.write_wav(path, clip, encoding="float32")
    return path


def meshgrid_feature_csv(path, values):
    """Reference writer: one float64 row table over every feature value."""
    c, t, f = values.shape
    ch_idx, fr_idx, b_idx = np.meshgrid(
        np.arange(c), np.arange(t), np.arange(f), indexing="ij")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cli.FEATURE_CSV_HEADER) + "\n")
        np.savetxt(fh, np.column_stack([
            ch_idx.reshape(-1), fr_idx.reshape(-1), b_idx.reshape(-1),
            values.reshape(-1),
        ]), fmt=("%d", "%d", "%d", "%.7g"), delimiter=",")


class TestFeaturizeCommand:
    @pytest.mark.parametrize("block_rows", [None, 3 * 256, 100])
    def test_matches_meshgrid_reference(self, sample_wav, tmp_path, monkeypatch, block_rows):
        if block_rows is not None:  # split each channel's 61 frames mid-clip
            monkeypatch.setattr(cli, "_FEATURE_CSV_BLOCK_ROWS", block_rows)
        out, ref = tmp_path / "f.csv", tmp_path / "ref.csv"
        assert run_cli("featurize", "--wav", sample_wav, "--out", out) == 0
        meshgrid_feature_csv(ref, dsp.stft_features(dsp.read_wav(sample_wav)).values)
        assert out.read_bytes() == ref.read_bytes()

    def test_transient_memory_bounded(self, tmp_path):
        # 14 frames keep the traced write short; the meshgrid writer's peak
        # is about 16x the feature tensor at any length
        x = np.random.default_rng(5).uniform(-0.5, 0.5, (4, 4000)).astype(np.float32)
        wav = tmp_path / "a.wav"
        dsp.write_wav(wav, dsp.AudioClip(x, 16000), encoding="float32")
        feature_bytes = dsp.stft_features(dsp.read_wav(wav)).values.nbytes
        rc, peak, _ = traced_peak(run_cli, "featurize", "--wav", wav, "--out", tmp_path / "f.csv")
        assert rc == 0
        assert peak < 8 * feature_bytes

    def test_frame_count_in_csv(self, sample_wav, tmp_path):
        out = tmp_path / "f.csv"
        rc = run_cli("featurize", "--wav", sample_wav, "--out", out)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "feature_channel,frame,bin,value"
        frames = {int(line.split(",")[1]) for line in lines[1:]}
        expected = 1 + (16000 - 512) // 256
        assert max(frames) + 1 == expected

    def test_resample_flag_changes_frame_count(self, sample_wav, tmp_path):
        out = tmp_path / "f4k.csv"
        rc = run_cli("featurize", "--wav", sample_wav, "--out", out, "--sr", 4000)
        assert rc == 0
        frames = {int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]}
        assert max(frames) + 1 == 1 + (8000 - 512) // 256

    def test_augment_flags_deterministic(self, sample_wav, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = run_cli("featurize", "--wav", sample_wav, "--out", out,
                         "--snr", 10, "--reverb", 40, "--seed", 3)
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestInferCommand:
    def test_infer_writes_interchange_csv(self, trained_weights, sample_wav, tmp_path):
        out = tmp_path / "pred.csv"
        rc = run_cli("infer", "--weights", trained_weights, "--wav", sample_wav,
                     "--out", out)
        assert rc == 0
        ann, n_frames = metrics.read_prediction_csv(out)
        assert n_frames <= 1 + (16000 - 512) // 256

    def test_bad_magic_exits_one(self, sample_wav, tmp_path, capsys):
        bogus = tmp_path / "bogus.seldw"
        bogus.write_bytes(b"WRONGMAGIC" + b"\x00" * 32)
        cfg = models.ModelConfig(n_sed=2)
        models.save_config(f"{bogus}.cfg", cfg, {"sample_rate_hz": 8000})
        rc = run_cli("infer", "--weights", bogus, "--wav", sample_wav,
                     "--out", tmp_path / "p.csv")
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_huge_declared_shape_exits_one(self, sample_wav, tmp_path, capsys):
        crafted = tmp_path / "huge.seldw"
        crafted.write_bytes(models.WEIGHTS_MAGIC + struct.pack("<IH", 1, 1) + b"w"
                            + struct.pack("<BB4I", 0, 4, *(65536,) * 4))
        models.save_config(f"{crafted}.cfg", models.ModelConfig(n_sed=2),
                           {"sample_rate_hz": 8000})
        rc = run_cli("infer", "--weights", crafted, "--wav", sample_wav,
                     "--out", tmp_path / "p.csv")
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    def test_nan_wav_exits_one(self, trained_weights, tmp_path, capsys):
        wav = tmp_path / "nan.wav"
        clip = dsp.AudioClip(np.full((4, 8000), 0.25, np.float32), 8000)
        clip.samples[2, 4000] = np.nan
        dsp.write_wav(wav, clip, encoding="float32")
        rc = run_cli("infer", "--weights", trained_weights, "--wav", wav,
                     "--out", tmp_path / "p.csv")
        assert rc == 1
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("meta.bn_updates", np.array([np.nan])),
        ("bn0.running_var", np.ones(3, np.float32)),
        ("features.mean", np.zeros(3, np.float32)),
        ("conv0.w", np.full((4, 8, 3, 3), np.nan, np.float32)),
        ("bn0.running_var", np.full(4, -1.0, np.float32)),
        ("block0.bn.running_var", np.full(6, np.inf, np.float32)),
    ])
    def test_crafted_weights_exit_one(self, trained_weights, sample_wav, tmp_path,
                                      capsys, name, value):
        store = {entry: value if entry == name else array
                 for entry, array in models.load_weights(trained_weights).items()}
        crafted = tmp_path / "crafted.seldw"
        models.save_weights(store, crafted)
        (tmp_path / "crafted.seldw.cfg").write_bytes(
            (trained_weights.parent / (trained_weights.name + ".cfg")).read_bytes())
        rc = run_cli("infer", "--weights", crafted, "--wav", sample_wav,
                     "--out", tmp_path / "p.csv")
        assert rc == 1
        assert name in capsys.readouterr().err

    def test_sidecar_sample_rate_used(self, tmp_path, capsys):
        # a scene stored at 48 kHz, a model whose sidecar says it was trained at 16 kHz
        spec = synth.SceneSpec(
            duration_s=4.0, sample_rate_hz=48000,
            events=[synth.EventSpec(class_id=1, onset_s=0.5, offset_s=3.0,
                                    azimuth_deg=-70.0, elevation_deg=20.0,
                                    source_kind="tone", base_freq_hz=600.0)],
            seed=6)
        wav = tmp_path / "scene48k.wav"
        dsp.write_wav(wav, synth.synth_scene(spec)[0], encoding="float32")
        cfg = models.ModelConfig(n_sed=2, conv_filters=4, tcn_filters=6, tcn_blocks=2,
                                 tcn_out_filters=5, fc_units=4)
        model = models.build_model(cfg, "seldtcn", seed=3)
        model.forward(np.random.default_rng(3).standard_normal((8, 16, 256)))  # BN statistics
        weights = tmp_path / "m.seldw"
        models.save_weights(model.to_store(), weights)
        models.save_config(f"{weights}.cfg", cfg, {"sample_rate_hz": 16000})
        outs = {}
        for flags in ((), ("--sr", 16000)):
            outs[flags] = tmp_path / f"pred{len(flags)}.csv"
            assert run_cli("infer", "--weights", weights, "--wav", wav,
                           "--out", outs[flags], *flags) == 0
            assert capsys.readouterr().out.startswith(f"{1 + (4 * 16000 - 512) // 256} frames")
        assert outs[()].read_bytes() == outs[("--sr", 16000)].read_bytes()
        assert run_cli("infer", "--weights", weights, "--wav", wav,
                       "--out", tmp_path / "p.csv", "--sr", 48000) == 1
        assert "sample_rate_hz 16000" in capsys.readouterr().err

    def test_cli_eval_matches_library(self, trained_weights, dataset_dir, tmp_path, capsys):
        # no CLI-layer drift: eval of infer output against ground truth
        # equals calling the metric library directly
        wav = dataset_dir / "scene_0004.wav"
        pred_csv = tmp_path / "pred.csv"
        rc = run_cli("infer", "--weights", trained_weights, "--wav", wav,
                     "--out", pred_csv)
        assert rc == 0

        clip = dsp.read_wav(wav)
        feats = dsp.stft_features(clip)
        events = synth.read_annotation_csv(wav.with_suffix(".csv"))
        sed, doa = synth.frame_targets(events, feats.n_frames, 256 / 8000, 2)
        ref_ann = metrics.doa_vectors_from_prediction(sed > 0.5, doa)
        ref_csv = tmp_path / "ref.csv"
        metrics.write_prediction_csv(ref_csv, ref_ann)

        report_path = tmp_path / "rep.txt"
        rc = run_cli("eval", "--pred", pred_csv, "--ref", ref_csv,
                     "--sr", 8000, "--hop", 256, "--out", report_path)
        assert rc == 0
        kv = read_kv(report_path)

        pred_ann, n_pred = metrics.read_prediction_csv(pred_csv)
        n = max(n_pred, len(ref_ann))
        pred_ann += [dict() for _ in range(n - n_pred)]
        ref_full = ref_ann + [dict() for _ in range(n - len(ref_ann))]
        direct = metrics.evaluate_annotations(pred_ann, ref_full, 3, round(8000 / 256))
        assert float(kv["fr"]) == pytest.approx(direct.fr, abs=1e-8)
        if direct.er is not None:
            assert float(kv["er"]) == pytest.approx(direct.er, abs=1e-8)
        if direct.de is not None:
            assert float(kv["de"]) == pytest.approx(direct.de, abs=1e-8)


class TestHostileInvocations:
    """Inputs that once ended in a traceback; each now exits 1 with an error line."""

    @pytest.mark.parametrize("prefix, message", [
        (b"\xff\xfe", "not a UTF-8 text file"),
        (b"scene_0000.wav\x00\n", "NUL"),
    ])
    def test_train_on_hostile_manifest(self, tiny_train_cfg, dataset_dir, tmp_path,
                                       prefix, message):
        copy, config = dataset_copy(dataset_dir, tiny_train_cfg, tmp_path)
        manifest = copy / "train.txt"
        manifest.write_bytes(prefix + manifest.read_bytes())
        result = run_seld("train", "--config", config, "--out", tmp_path / "w.seldw",
                          "--epochs", 1)
        assert_clean_exit_one(result)
        assert "train.txt" in result.stderr and message in result.stderr

    @pytest.mark.parametrize("sr, hop", [(100, 0), (0, 100), (100, -1), (100, 300)])
    def test_eval_rate_or_hop_below_one(self, tmp_path, sr, hop):
        # rejected before either (missing) CSV is opened; 100 / 300 rounds
        # to 0 frames per segment
        result = run_seld("eval", "--pred", tmp_path / "no.csv", "--ref", tmp_path / "no.csv",
                          "--sr", sr, "--hop", hop)
        assert_clean_exit_one(result)
        assert "--sr and --hop" in result.stderr

    def test_featurize_noise_file_without_noise_wav(self, sample_wav, tmp_path):
        result = run_seld("featurize", "--wav", sample_wav, "--out", tmp_path / "f.csv",
                          "--snr", 10, "--noise-kind", "noise_file")
        assert_clean_exit_one(result)
        assert "noise clip" in result.stderr

    @pytest.mark.parametrize("snr", ["1e308", "-1e308"])
    def test_featurize_snr_outside_float_range(self, sample_wav, tmp_path, snr):
        result = run_seld("featurize", "--wav", sample_wav, "--out", tmp_path / "f.csv",
                          f"--snr={snr}")
        assert_clean_exit_one(result)
        assert "snr_db" in result.stderr

    def test_infer_noise_file_without_noise_wav(self, trained_weights, sample_wav, tmp_path):
        result = run_seld("infer", "--weights", trained_weights, "--wav", sample_wav,
                          "--out", tmp_path / "p.csv", "--snr", 10,
                          "--noise-kind", "noise_file")
        assert_clean_exit_one(result)
        assert "noise clip" in result.stderr
