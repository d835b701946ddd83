"""The four benchmark workloads: inputs from a seed, one op, and its check.

Each workload has
- `setup(sk, d, seed)`: the library work a user pays before the first op
  (generating inputs, building and saving a model), written into `d`. It
  returns digests of generated inputs that never reach a file. The runner
  times it, repeats it, and checks the repeats are byte-identical.
- `build_reference(sk, d, seed)`: the benchmark's own expected outputs,
  built once from the inputs in `d`; not part of set-up time.
- `prepare(sk, d, seed)`: load what the ops need, in the measuring process.
- `op(i)`: one operation; returns what `check` inspects.
- `check(out)`: raise CheckFailed unless the output is correct; returns
  per-op figures to record.
- `named(records)`: the workload's own end-to-end figures, as
  {name: (value, unit)}.

`sk` is a namespace holding the seldkit modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import eval_oracle, model_reference, read_annotations

SR = 16000
HOP = 256
N_CLASSES = 11


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _p(values, q):
    return float(np.percentile(values, q))


def _quiet(fn, *args):
    """Run a CLI call with its progress line sent to /dev/null."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return fn(*args)


def init_like_run_benchmark(sk, cfg, kind, seed):
    """Random model with BN statistics set exactly as `cli.run_benchmark` does."""
    model = sk.models.build_model(cfg, kind, seed=seed)
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal(
        (cfg.n_feature_channels, cfg.seq_len, cfg.n_bins)).astype(np.float32)
    model.mode = "train"
    model.forward(feats, dropout_rng=np.random.default_rng(seed))
    model.mode = "infer"
    return model, feats


def random_events(sk, rng, duration_s, n_classes, max_overlap, n_events):
    """A fixed number of grid-direction events under an overlap budget.

    A fixed count per scene (rather than the library's random count) keeps
    the event density, and so the per-op work, steady from seed to seed.
    """
    events = []
    for _ in range(50 * n_events):
        if len(events) == n_events:
            break
        dur = float(rng.uniform(0.8, 2.5))
        onset = float(rng.uniform(0.0, duration_s - dur))
        class_id = int(rng.integers(n_classes))
        kind, freq = sk.synth.class_template(class_id)
        event = sk.synth.EventSpec(
            class_id=class_id, onset_s=round(onset, 6), offset_s=round(onset + dur, 6),
            azimuth_deg=float(rng.integers(-18, 18) * 10),
            elevation_deg=float(rng.integers(-6, 7) * 10),
            source_kind=kind, base_freq_hz=freq)
        if sk.synth.max_concurrent_events(events + [event]) <= max_overlap:
            events.append(event)
    return events


def array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------

class Seq512:
    """Infer-mode forwards of both default 11-class models at T = 512."""

    name = "seq512"
    item = "frames"
    warmup_ops = 1
    kinds = ("seldtcn", "seldnet")
    # float32 fused path against the float64 unfused reference, absolute,
    # on sigmoid/tanh outputs in [-1, 1]
    tol = 1e-3

    def _cfg(self, sk):
        return sk.models.ModelConfig(n_sed=N_CLASSES, seq_len=512)

    def setup(self, sk, d, seed):
        for kind in self.kinds:
            model, feats = init_like_run_benchmark(sk, self._cfg(sk), kind, seed)
            sk.models.save_weights(model.to_store(), d / f"{kind}.seldw")
        np.save(d / "features.npy", feats)
        return {}

    def build_reference(self, sk, d, seed):
        feats = np.load(d / "features.npy")
        ref = {}
        for kind in self.kinds:
            store = sk.models.load_weights(d / f"{kind}.seldw")
            ref[f"{kind}.sed"], ref[f"{kind}.doa"] = model_reference(
                sk, store, self._cfg(sk), feats)
        np.savez(d / "reference.npz", **ref)

    def prepare(self, sk, d, seed):
        cfg = self._cfg(sk)
        self.models = {kind: sk.models.model_from_store(
            cfg, sk.models.load_weights(d / f"{kind}.seldw")) for kind in self.kinds}
        self.features = np.load(d / "features.npy")
        self.ref = dict(np.load(d / "reference.npz"))
        self.items_per_op = len(self.kinds) * self.features.shape[1]
        self.input_counts = {}

    def op(self, i):
        out = {}
        order = self.kinds if i % 2 == 0 else self.kinds[::-1]
        for kind in order:
            t0 = perf_counter()
            pred = self.models[kind].forward(self.features)
            out[f"{kind}_ms"] = (perf_counter() - t0) * 1e3
            out[kind] = pred
        return out

    def check(self, out):
        rec = {}
        for kind in self.kinds:
            pred = out[kind]
            rec[f"{kind}_ms"] = out[f"{kind}_ms"]
            rec[f"{kind}_max_err"] = err = max(
                float(np.max(np.abs(getattr(pred, part) - self.ref[f"{kind}.{part}"])))
                for part in ("sed", "doa"))
            if not err <= self.tol:
                raise CheckFailed(f"{kind} output differs from the float64 "
                                  f"reference by {err:.3g} > {self.tol}")
        return rec

    def named(self, records):
        tcn = [r["seldtcn_ms"] for r in records]
        gru = [r["seldnet_ms"] for r in records]
        return {
            "tcn_forward_ms_p50": (_p(tcn, 50), "ms"),
            "tcn_forward_ms_p90": (_p(tcn, 90), "ms"),
            "gru_forward_ms_p50": (_p(gru, 50), "ms"),
            "gru_forward_ms_p90": (_p(gru, 90), "ms"),
            "gru_tcn_ratio": (_p(gru, 50) / _p(tcn, 50), "ratio"),
        }


# ---------------------------------------------------------------------------

class InferFile:
    """`seld infer` on a 30 s FOA scene stored at 48 kHz, README flags."""

    name = "infer_file"
    item = "audio_s"
    warmup_ops = 0
    duration_s = 30.0
    source_sr = 48000
    snr_db = 20.0
    reverb = 50.0
    sed_tol = 1e-3   # on the sigmoid output; closer calls to 0.5 are not judged
    doa_tol = 1e-3   # on the raw tanh output, before normalization

    def _cfg(self, sk):
        return sk.models.ModelConfig(n_sed=N_CLASSES)

    def setup(self, sk, d, seed):
        rng = np.random.default_rng(seed)
        events = random_events(sk, rng, self.duration_s, N_CLASSES, 3, 15)
        spec = sk.synth.SceneSpec(duration_s=self.duration_s, sample_rate_hz=self.source_sr,
                                  events=events, max_overlap=3, seed=seed)
        clip, _ = sk.synth.synth_scene(spec)
        sk.dsp.write_wav(d / "scene.wav", clip, encoding="float32")
        model, _ = init_like_run_benchmark(sk, self._cfg(sk), "seldtcn", seed)
        sk.models.save_weights(model.to_store(), d / "model.seldw")
        sk.models.save_config(d / "model.seldw.cfg", self._cfg(sk))
        return {}

    def _features(self, sk, d, seed):
        """The op's ingestion chain, called stage by stage."""
        dsp = sk.dsp
        clip = dsp.resample(dsp.read_wav(d / "scene.wav"), SR)
        clip = dsp.add_noise(clip, dsp.AugmentSpec(kind="awgn", snr_db=self.snr_db,
                                                    rng_seed=seed))
        clip = dsp.apply_reverb(clip, dsp.AugmentSpec(kind="reverb",
                                                      reverb_strength=self.reverb,
                                                      rng_seed=seed))
        return dsp.stft_features(clip).values

    def build_reference(self, sk, d, seed):
        feats = self._features(sk, d, seed)
        store = sk.models.load_weights(d / "model.seldw")
        sed, doa = model_reference(sk, store, self._cfg(sk), feats)
        np.savez(d / "reference.npz", sed=sed, doa=doa)

    def prepare(self, sk, d, seed):
        self.cli = sk.cli
        self.out = d / "pred.csv"
        self.argv = ["infer", "--weights", str(d / "model.seldw"), "--wav", str(d / "scene.wav"),
                     "--out", str(self.out), "--sr", str(SR), "--snr", f"{self.snr_db:g}",
                     "--noise-kind", "awgn", "--reverb", f"{self.reverb:g}",
                     "--seed", str(seed)]
        ref = np.load(d / "reference.npz")
        self.ref_sed, self.ref_doa = ref["sed"], ref["doa"]
        self.items_per_op = self.duration_s
        self.first_csv = None
        self.input_counts = {}

    def op(self, i):
        return _quiet(self.cli.main, self.argv)

    def check(self, rc):
        if rc != 0:
            raise CheckFailed(f"seld infer exited {rc}")
        data = self.out.read_bytes()
        if self.first_csv is None:
            self._check_against_reference()
            self.first_csv = data
        elif data != self.first_csv:
            raise CheckFailed("prediction CSV differs from the first op's")
        return {}

    def _check_against_reference(self):
        ann = read_annotations(self.out)
        t_len, n_cls = self.ref_sed.shape
        if len(ann) > t_len:
            raise CheckFailed(f"CSV has frame {len(ann) - 1} beyond {t_len} frames")
        act = np.zeros((t_len, n_cls), dtype=bool)
        for t, frame in enumerate(ann):
            for c, v in frame.items():
                act[t, c] = True
                r = self.ref_doa[t, 3 * c:3 * c + 3]
                norm = float(np.linalg.norm(r))
                want = r / norm if norm > 0.0 else np.zeros(3)
                got = np.zeros(3) if v is None else v
                # a raw-output error e moves the unit vector by at most 2e/|r|
                if not np.max(np.abs(got - want)) <= 2 * self.doa_tol / max(norm, 1e-12) + 1e-9:
                    raise CheckFailed(f"DOA at frame {t} class {c}: {got} vs {want}")
        judged = np.abs(self.ref_sed - 0.5) > self.sed_tol
        wrong = judged & (act != (self.ref_sed > 0.5))
        if wrong.any():
            t, c = np.argwhere(wrong)[0]
            raise CheckFailed(f"activity at frame {t} class {c} disagrees with the reference")

    def named(self, records):
        s = [r["op_ms"] / 1e3 for r in records]
        return {
            "infer_s_p50": (_p(s, 50), "s"),
            "infer_x_realtime": (self.duration_s * len(s) / sum(s), "x"),
        }


# ---------------------------------------------------------------------------

class TrainToy:
    """One training epoch on acceptance criterion 5's config and data."""

    name = "train_toy"
    item = "sequences"
    warmup_ops = 0
    n_train = 42

    def _cfg(self, sk):
        return sk.models.ModelConfig(
            n_sed=2, conv_filters=32, tcn_filters=32, tcn_blocks=4,
            tcn_out_filters=128, fc_units=128, seq_len=256, loss_weight_doa=10.0)

    def setup(self, sk, d, seed):
        sk.synth.make_dataset(10, class_count=2, out_dir=d / "data", seed=seed,
                              duration_s=30.0, sample_rate_hz=SR, max_overlap=2)
        ds = sk.models.load_sequence_dataset(d / "data", self._cfg(sk), SR)
        sk.models.build_model(self._cfg(sk), "seldtcn", seed=seed)
        seqs = ds.train + ds.val + ds.test
        return {"features": array_digest(*(s.features for s in seqs)),
                "targets": array_digest(*(a for s in seqs for a in (s.sed, s.doa)))}

    def build_reference(self, sk, d, seed):
        pass  # the check is on the losses themselves

    def prepare(self, sk, d, seed):
        self.models = sk.models
        self.seed = seed
        self.dataset = sk.models.load_sequence_dataset(d / "data", self._cfg(sk), SR)
        if len(self.dataset.train) != self.n_train:
            raise CheckFailed(f"{len(self.dataset.train)} train sequences, "
                              f"expected {self.n_train}")
        self.model = sk.models.build_model(self._cfg(sk), "seldtcn", seed=seed)
        self.items_per_op = len(self.dataset.train)
        self.input_counts = {}

    def op(self, i):
        return self.models.train(self.model, self.dataset, epochs=1, batch_size=16,
                                 patience=50, seed=self.seed)

    def check(self, log):
        if len(log.records) != 1:
            raise CheckFailed(f"{len(log.records)} epoch records for one epoch")
        rec = log.records[0]
        if not (np.isfinite(rec.train_loss) and np.isfinite(rec.val_loss)):
            raise CheckFailed(f"non-finite loss: train {rec.train_loss} val {rec.val_loss}")
        return {"train_loss": rec.train_loss, "val_loss": rec.val_loss}

    def named(self, records):
        s = [r["op_ms"] / 1e3 for r in records]
        return {
            "train_epoch_s_p50": (_p(s, 50), "s"),
            "train_seq_per_s": (self.n_train * len(s) / sum(s), "1/s"),
        }


# ---------------------------------------------------------------------------

class EvalDense:
    """`seld eval` of a dense, perturbed prediction against a synth reference."""

    name = "eval_dense"
    item = "frames"
    warmup_ops = 0
    n_scenes = 10
    scene_s = 30.0
    events_per_scene = 20
    # Scenes are drawn until their matching work is within `work_tol` of
    # `work_target`, so that the op's cost does not swing with the seed: the
    # work is the sum over frames of the ordered assignments an exhaustive
    # matcher tries for 0..3 reference events against 6 predicted ones.
    # The target is the median over scenes of this generator.
    assignments_per_frame = (0, 6, 30, 120)
    work_target = 31000
    work_tol = 0.03
    max_active = 6
    p_delete = 0.1
    p_zero = 0.05
    jitter = 0.1          # per-axis Gaussian, about 6 degrees
    report_tol = 1e-9 + 5e-9  # on DE (deg) and FR (%): 1e-9 plus the report's 8-decimal rounding

    def setup(self, sk, d, seed):
        rng = np.random.default_rng(seed)
        n_frames = 1 + (int(self.scene_s * SR) - 2 * HOP) // HOP
        ref = []
        for _ in range(self.n_scenes):
            sed, doa = self._scene(sk, rng, n_frames)
            ref += sk.metrics.doa_vectors_from_prediction(sed > 0.5, doa)
        pred = [self._perturb(frame, rng) for frame in ref]
        sk.metrics.write_prediction_csv(d / "ref.csv", ref)
        sk.metrics.write_prediction_csv(d / "pred.csv", pred)
        return {}

    def _scene(self, sk, rng, n_frames):
        best = None
        for _ in range(1000):
            events = random_events(sk, rng, self.scene_s, N_CLASSES, 3, self.events_per_scene)
            sed, doa = sk.synth.frame_targets(events, n_frames, HOP / SR, N_CLASSES)
            work = np.take(self.assignments_per_frame, sed.sum(axis=1).astype(int)).sum()
            miss = abs(work / self.work_target - 1.0)
            if best is None or miss < best[0]:
                best = (miss, sed, doa)
            if miss <= self.work_tol:
                break
        return best[1], best[2]

    def _perturb(self, frame, rng):
        out = {}
        for c, v in frame.items():
            u = rng.random()
            if u < self.p_delete:
                continue
            if u < self.p_delete + self.p_zero or v is None:
                out[c] = None
                continue
            w = v + rng.normal(0.0, self.jitter, 3)
            out[c] = w / np.linalg.norm(w)
        target = int(rng.integers(len(out), self.max_active + 1))
        free = [c for c in range(N_CLASSES) if c not in out]
        for c in rng.permutation(free)[:target - len(out)]:
            w = rng.standard_normal(3)
            out[int(c)] = w / np.linalg.norm(w)
        return out

    def build_reference(self, sk, d, seed):
        oracle = eval_oracle(read_annotations(d / "pred.csv"),
                             read_annotations(d / "ref.csv"), round(SR / HOP))
        (d / "oracle.json").write_text(json.dumps(oracle))

    def prepare(self, sk, d, seed):
        self.cli = sk.cli
        self.report = d / "report.txt"
        self.argv = ["eval", "--pred", str(d / "pred.csv"), "--ref", str(d / "ref.csv"),
                     "--sr", str(SR), "--hop", str(HOP), "--out", str(self.report)]
        self.oracle = json.loads((d / "oracle.json").read_text())
        self.items_per_op = self.oracle["n_frames"]
        self.input_counts = {"assignments": self.oracle["assignments"]}

    def op(self, i):
        return _quiet(self.cli.main, self.argv)

    def check(self, rc):
        if rc != 0:
            raise CheckFailed(f"seld eval exited {rc}")
        got = dict(line.split(" = ") for line in self.report.read_text().splitlines())
        for key in ("tp", "fp", "fn", "substitutions", "deletions", "insertions",
                    "n_ref", "matched_pairs"):
            if int(got[key]) != self.oracle[key]:
                raise CheckFailed(f"{key} = {got[key]}, oracle {self.oracle[key]}")
        for key in ("de", "fr"):
            if not abs(float(got[key]) - self.oracle[key]) <= self.report_tol:
                raise CheckFailed(f"{key} = {got[key]}, oracle {self.oracle[key]!r}")
        return {}

    def named(self, records):
        s = [r["op_ms"] / 1e3 for r in records]
        return {
            "eval_s_p50": (_p(s, 50), "s"),
            "eval_frames_per_s": (self.items_per_op * len(s) / sum(s), "1/s"),
        }


WORKLOADS = {w.name: w for w in (Seq512, InferFile, TrainToy, EvalDense)}


def file_digests(d):
    """sha256 of every input file under `d`, keyed by relative path."""
    root = Path(d)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}

