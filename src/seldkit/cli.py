"""Operator command line: synth, train, eval, bench, featurize, infer.

Every command is deterministic given its flags and seeds (wall-clock fields
in benchmark reports excepted). Exit codes: 0 success, 1 runtime or data
error, 2 usage error. The environment variable SELD_SEED supplies a global
seed fallback when --seed is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp, metrics, models, synth
from .errors import ConfigError, InputError, SeldError, check_seed

FEATURE_CSV_HEADER = ["feature_channel", "frame", "bin", "value"]
_FEATURE_CSV_BLOCK_ROWS = 65536


def _resolve_seed(seed):
    """--seed, else the SELD_SEED environment variable, else 0."""
    if seed is not None:
        source, text = "--seed", str(seed)
    else:
        source, text = "SELD_SEED", os.environ.get("SELD_SEED") or "0"
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"{source} must be a non-negative integer, got {text!r}") from None
    return check_seed(value, source)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args):
    manifest = synth.make_dataset(
        n_scenes=args.scenes,
        class_count=args.classes,
        out_dir=args.out,
        seed=_resolve_seed(args.seed),
        duration_s=args.duration,
        sample_rate_hz=args.sr,
        max_overlap=args.max_overlap,
    )
    for split, names in manifest.items():
        print(f"{split}: {len(names)} scenes")
    print(f"dataset written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args):
    cfg, extras = models.load_config(args.config)
    if "dataset_dir" not in extras:
        raise ConfigError(f"{args.config}: missing dataset_dir")
    if "sample_rate_hz" not in extras:
        raise ConfigError(f"{args.config}: missing sample_rate_hz")
    sample_rate = extras["sample_rate_hz"]
    dataset_dir = Path(extras["dataset_dir"])
    if not dataset_dir.is_absolute():
        dataset_dir = Path(args.config).parent / dataset_dir

    seed = _resolve_seed(args.seed)
    dataset = models.load_sequence_dataset(dataset_dir, cfg, sample_rate)
    model = models.build_model(cfg, "seldtcn", seed=seed)
    print(f"training seldtcn: {model.num_params()} parameters, "
          f"{len(dataset.train)} train / {len(dataset.val)} val sequences")
    log = models.train(model, dataset, epochs=args.epochs, batch_size=args.batch,
                       patience=args.patience, seed=seed)
    for r in log.records:
        print(f"epoch {r.epoch}: train_loss {r.train_loss:.6f} "
              f"val_loss {r.val_loss:.6f} ({r.seconds:.1f}s)")

    models.save_weights(model.to_store(), args.out)
    models.save_config(f"{args.out}.cfg", cfg,
                       {"sample_rate_hz": sample_rate, "dataset_dir": extras["dataset_dir"]})
    log_path = args.log or f"{args.out}.log.csv"
    log.to_csv(log_path)
    print(f"best val_loss {log.best_val_loss:.6f} at epoch {log.best_epoch}")
    print(f"weights: {args.out}")
    print(f"log: {log_path}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _fmt(value, suffix=""):
    return "absent" if value is None else f"{value:.4f}{suffix}"


def cmd_eval(args):
    if args.sr < 1 or args.hop < 1:
        raise InputError("--sr and --hop must be at least 1")
    fps = round(args.sr / args.hop)
    if fps < 1:
        raise InputError(f"--sr and --hop give round({args.sr} / {args.hop}) = 0 frames "
                         f"per segment; the hop must be under twice the rate")
    pred = metrics.read_prediction_rows(args.pred)
    ref = metrics.read_prediction_rows(args.ref)
    n_frames = max(pred.n_frames, ref.n_frames)
    n_classes = 1 + int(max(pred.class_id.max(initial=0), ref.class_id.max(initial=0)))
    report = metrics.evaluate_rows(pred, ref, n_classes, fps)

    if report.er is None:
        print("warning: reference contains no events; ER is undefined", file=sys.stderr)
    print(f"frames           : {n_frames} ({fps} per segment)")
    print(f"error rate  (ER) : {_fmt(report.er)}")
    print(f"f-score     (F1) : {_fmt(None if report.f1 is None else 100 * report.f1, '%')}")
    print(f"frame recall(FR) : {_fmt(report.fr, '%')}")
    print(f"doa error   (DE) : {_fmt(report.de, ' deg')}")

    if args.out:
        models.write_kv(args.out, [
            ("er", "absent" if report.er is None else f"{report.er:.8f}"),
            ("f1", "absent" if report.f1 is None else f"{report.f1:.8f}"),
            ("fr", f"{report.fr:.8f}"),
            ("de", "absent" if report.de is None else f"{report.de:.8f}"),
            ("tp", report.counts.tp),
            ("fp", report.counts.fp),
            ("fn", report.counts.fn),
            ("substitutions", report.counts.s),
            ("deletions", report.counts.d),
            ("insertions", report.counts.i),
            ("n_ref", report.counts.n_ref),
            ("matched_pairs", report.n_matched_pairs),
        ])
        print(f"report: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    """Latency measurements for one model kind at one sequence length."""

    model: str
    seq_len: int
    repeats: int
    runs_s: list = field(default_factory=list)
    mean_s: float = 0.0
    p50_s: float = 0.0
    params: int = 0
    macs: int = 0


def run_benchmark(kind, seq_len, repeats, warmup, seed=0, n_classes=11) -> BenchReport:
    """Time infer-mode forward passes on random weights and input."""
    cfg = models.ModelConfig(n_sed=n_classes, seq_len=seq_len)
    model = models.build_model(cfg, kind, seed=seed)
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal(
        (cfg.n_feature_channels, seq_len, cfg.n_bins)).astype(np.float32)

    # one train-mode pass initializes the BN running statistics
    model.mode = "train"
    model.forward(feats, dropout_rng=np.random.default_rng(seed))
    model.mode = "infer"

    for _ in range(warmup):
        model.forward(feats)
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.forward(feats)
        runs.append(time.perf_counter() - t0)

    return BenchReport(
        model=kind,
        seq_len=seq_len,
        repeats=repeats,
        runs_s=runs,
        mean_s=float(np.mean(runs)),
        p50_s=float(np.median(runs)),
        params=models.count_params(cfg, kind),
        macs=models.count_macs(cfg, kind, seq_len),
    )


def cmd_bench(args):
    report = run_benchmark(
        kind=args.model, seq_len=args.seq_len, repeats=args.repeats,
        warmup=args.warmup, seed=_resolve_seed(args.seed),
        n_classes=args.classes,
    )
    print(f"model        : {report.model}")
    print(f"seq_len      : {report.seq_len}")
    print(f"parameters   : {report.params}")
    print(f"macs         : {report.macs}")
    print(f"repeats      : {report.repeats} (after {args.warmup} warmup)")
    print(f"mean latency : {report.mean_s * 1000:.2f} ms")
    print(f"p50 latency  : {report.p50_s * 1000:.2f} ms")
    if args.out:
        pairs = [
            ("model", report.model),
            ("seq_len", report.seq_len),
            ("repeats", report.repeats),
            ("params", report.params),
            ("macs", report.macs),
            ("mean_s", f"{report.mean_s:.6f}"),
            ("p50_s", f"{report.p50_s:.6f}"),
        ]
        pairs += [(f"run{i}_s", f"{r:.6f}") for i, r in enumerate(report.runs_s)]
        models.write_kv(args.out, pairs)
        print(f"report: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# featurize / infer
# ---------------------------------------------------------------------------

def _check_noise_flags(args):
    """--noise-wav is read only with --noise-kind noise_file and an --snr."""
    if args.noise_wav is not None and (args.noise_kind != "noise_file" or args.snr is None):
        raise InputError("--noise-wav needs --noise-kind noise_file and --snr")


def _load_augmented(args, sample_rate_hz):
    """Shared ingestion: read wav, then resample (if a rate is given) -> noise -> reverb."""
    clip = dsp.read_wav(args.wav)
    seed = _resolve_seed(args.seed)
    if sample_rate_hz is not None and sample_rate_hz != clip.sample_rate_hz:
        clip = dsp.resample(clip, sample_rate_hz)
    if args.snr is not None:
        spec = dsp.AugmentSpec(kind=args.noise_kind, snr_db=args.snr, rng_seed=seed)
        noise = None if args.noise_wav is None else dsp.read_wav(args.noise_wav)
        clip = dsp.add_noise(clip, spec, noise=noise)
    if args.reverb is not None:
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=args.reverb, rng_seed=seed)
        clip = dsp.apply_reverb(clip, spec)
    return clip


def cmd_featurize(args):
    _check_noise_flags(args)
    clip = _load_augmented(args, args.sr)
    feats = dsp.stft_features(clip)
    c, t, f = feats.values.shape
    # Rows are formatted and written a block of frames at a time, so the
    # formatted text stays a fixed size however long the clip is.
    block = max(1, _FEATURE_CSV_BLOCK_ROWS // f)
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(FEATURE_CSV_HEADER) + "\n")
        for ch in range(c):
            for t0 in range(0, t, block):
                rows = feats.values[ch, t0:t0 + block].tolist()
                fh.write("".join(
                    "%d,%d,%d,%.7g\n" % (ch, frame, b, v)
                    for frame, row in enumerate(rows, t0) for b, v in enumerate(row)))
    print(f"features: {c} channels x {t} frames x {f} bins -> {args.out}")
    return 0


def cmd_infer(args):
    _check_noise_flags(args)
    cfg, extras = models.load_config(f"{args.weights}.cfg")
    # featurize at the rate the model was trained at, when its sidecar says
    sample_rate = extras.get("sample_rate_hz", args.sr)
    if args.sr is not None and args.sr != sample_rate:
        raise InputError(f"--sr {args.sr} contradicts sample_rate_hz {sample_rate} "
                         f"of {args.weights}.cfg")
    model = models.model_from_store(cfg, models.load_weights(args.weights))
    pred = model.forward(dsp.stft_features(_load_augmented(args, sample_rate)))
    activity = metrics.binarize_sed(pred.sed)
    ann = metrics.doa_vectors_from_prediction(activity, pred.doa)
    metrics.write_prediction_csv(args.out, ann)
    n_active = int(activity.sum())
    print(f"{pred.n_frames} frames, {n_active} active (frame, class) pairs -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="seld",
        description="Sound event localization and detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic FOA dataset")
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--sr", type=int, default=16000)
    p.add_argument("--max-overlap", type=int, default=3)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a SELD-TCN on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a prediction CSV against a reference CSV")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--sr", type=int, required=True)
    p.add_argument("--hop", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure forward-pass latency")
    p.add_argument("--model", choices=models.MODEL_KINDS, required=True)
    p.add_argument("--seq-len", type=int, default=512)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--classes", type=int, default=11)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    for name, func in (("featurize", cmd_featurize), ("infer", cmd_infer)):
        p = sub.add_parser(name, help=f"{name} a WAV file")
        if name == "infer":
            p.add_argument("--weights", required=True)
        p.add_argument("--wav", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--sr", type=int, default=None)
        p.add_argument("--snr", type=float, default=None)
        p.add_argument("--noise-kind", choices=("awgn", "noise_file"), default="awgn")
        p.add_argument("--noise-wav", default=None)
        p.add_argument("--reverb", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.repeats < 3:
        parser.error("--repeats must be at least 3")
    if args.command == "bench" and args.warmup < 0:
        parser.error("--warmup must be at least 0")
    try:
        return args.func(args)
    except (SeldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
