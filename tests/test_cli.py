"""End-to-end CLI tests: flags, exit codes, file outputs, determinism."""

import struct

import numpy as np
import pytest

from seldkit import cli, dsp, metrics, models, synth


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


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
        rc = run_cli("train", "--config", tiny_train_cfg,
                     "--model", "seldnet", "--out", tmp_path / "x.seldw")
        assert rc == 1
        assert "inference-only" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_sed = 2\nbogus_key = 1\n")
        rc = run_cli("train", "--config", bad, "--out", tmp_path / "w.seldw")
        assert rc == 1
        assert "error" in capsys.readouterr().err


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


class TestFeaturizeCommand:
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
