"""seldkit benchmark: one workload per process, one op in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding `src/seldkit`). The
benchmark first runs the workload's set-up `SETUP_REPEATS` times in a child
process, so that set-up memory never masks the ops' peak RSS in this
process, and builds its float64/oracle references there too. It then runs
ops in a closed loop with one client until `--seconds` have passed (at least
`MIN_OPS` ops), checking every op's output.

With `--trace 0` the ops run untraced and the last stdout line reports the
end-to-end metrics of BENCHMARK.json. With `--trace 1` traced and untraced
ops alternate, and the last line reports the per-layer metrics. Each run
also writes `perfbench/results/<workload>-s<seed>-t<trace>.json` (every
figure, per-op times, the environment block) and, when traced, the spans as
`...-spans.csv`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_OPS = 3
MIN_TRACED_OPS = 2
DEADLINE_S = 165.0      # stop starting ops after this much process time
SETUP_TIMEOUT_S = 120.0
# Generated inputs that must change with the seed; the suffix "" covers the
# in-memory digests a set-up returns (e.g. train_toy's feature arrays).
SEEDED_SUFFIXES = (".wav", ".csv", ".npy", ".seldw", "")
DEFAULT_SEED = 42  # README: 1789 is the held-out seed for re-checking gains

sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, file_digests  # noqa: E402

T_START = perf_counter()


def import_seldkit():
    if not (SRC / "seldkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no seldkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seldkit
    from seldkit import cli, dsp, metrics, models, nn, synth
    if Path(seldkit.__file__).resolve().parent != (SRC / "seldkit").resolve():
        raise SystemExit(f"error: imported seldkit from {seldkit.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, dsp=dsp, metrics=metrics, models=models,
                                 nn=nn, synth=synth, pkg="seldkit")


# ---------------------------------------------------------------------------
# Per-layer metric table: name -> (unit, better, how it is computed)
#   ("incl", span)          inclusive span time per op, ms
#   ("self", span)          self time per op (span minus wrapped children), ms
#   ("gmac", span)          span's `macs` counter / inclusive time, GMAC/s
#   ("count", span, key)    counter `key` summed over the op's spans
#   ("per_call", span, key) counter `key` per call of the span
#   ("input", key)          a count the workload computed from its inputs
#   ("setup", span)         inclusive span time in one traced set-up, ms
# ---------------------------------------------------------------------------

def _ms(span):
    return ("ms", "lower", ("incl", span))


LAYER_METRICS = {
    "dsp.read_wav.ms": _ms("dsp.read_wav"),
    "dsp.resample.ms": _ms("dsp.resample"),
    "dsp.add_noise.ms": _ms("dsp.add_noise"),
    "dsp.apply_reverb.ms": _ms("dsp.apply_reverb"),
    "dsp.apply_reverb.gmac_per_s": ("GMAC/s", "higher", ("gmac", "dsp.apply_reverb")),
    "dsp.stft_features.ms": _ms("dsp.stft_features"),
    "dsp.stft_features.frames": ("count", "higher", ("count", "dsp.stft_features", "frames")),
    "models.load_weights.ms": _ms("models.load_weights"),
    "models.model_from_store.ms": _ms("models.model_from_store"),
    "models.forward.self_ms": ("ms", "lower", ("self", "models.forward")),
    **{f"nn.conv2d_relu_pool.l{i}.ms": _ms(f"nn.conv2d_relu_pool.l{i}") for i in range(3)},
    **{f"nn.conv2d_relu_pool.l{i}.gmac_per_s":
       ("GMAC/s", "higher", ("gmac", f"nn.conv2d_relu_pool.l{i}")) for i in range(3)},
    "models.tcn_forward.ms": _ms("models.tcn_forward"),
    "models.tcn_forward.gmac_per_s": ("GMAC/s", "higher", ("gmac", "models.tcn_forward")),
    "nn.dilated_conv1d.ms": _ms("nn.dilated_conv1d"),
    "nn.conv1x1.ms": _ms("nn.conv1x1"),
    "nn.batchnorm.ms": _ms("nn.batchnorm"),
    "nn.gated_activation.ms": _ms("nn.gated_activation"),
    "nn.bigru_forward.ms": _ms("nn.bigru_forward"),
    "nn.bigru_forward.gmac_per_s": ("GMAC/s", "higher", ("gmac", "nn.bigru_forward")),
    "nn.dense.ms": _ms("nn.dense"),
    "models.macs_per_forward": ("count", "lower",
                                ("per_call", "models.forward", "count_macs")),
    "models.loss_and_grads.ms": _ms("models.loss_and_grads"),
    "models.forward_cached.ms": _ms("models.forward_cached"),
    "models.backward.ms": _ms("models.backward"),
    "models.train.self_ms": ("ms", "lower", ("self", "models.train")),
    "nn.adam_step.ms": _ms("nn.adam_step"),
    **{f"nn.{k}_backward.ms": _ms(f"nn.{k}_backward") for k in (
        "conv2d", "maxpool_freq", "relu", "batchnorm", "dilated_conv1d", "conv1x1",
        "gated_activation", "dense")},
    "nn.conv2d.ms": _ms("nn.conv2d"),
    "nn.maxpool_freq.ms": _ms("nn.maxpool_freq"),
    "nn.relu.ms": _ms("nn.relu"),
    "metrics.read_prediction_csv.ms": _ms("metrics.read_prediction_csv"),
    "metrics.read_prediction_csv.rows": ("count", "higher",
                                         ("count", "metrics.read_prediction_csv", "rows")),
    "metrics.evaluate_annotations.ms": _ms("metrics.evaluate_annotations"),
    "metrics.annotation_activity.ms": _ms("metrics.annotation_activity"),
    "metrics.segment_counts.ms": _ms("metrics.segment_counts"),
    "metrics.frame_recall.ms": _ms("metrics.frame_recall"),
    "metrics.doa_error_accumulate.ms": _ms("metrics.doa_error_accumulate"),
    "metrics.doa_error_accumulate.assignments": ("count", "lower", ("input", "assignments")),
    "metrics.matched_pairs": ("count", "higher",
                              ("count", "metrics.evaluate_annotations", "matched_pairs")),
    "metrics.binarize_sed.ms": _ms("metrics.binarize_sed"),
    "metrics.doa_vectors_from_prediction.ms": _ms("metrics.doa_vectors_from_prediction"),
    "metrics.write_prediction_csv.ms": _ms("metrics.write_prediction_csv"),
    "metrics.write_prediction_csv.rows": ("count", "higher",
                                          ("count", "metrics.write_prediction_csv", "rows")),
    **{f"{span}.ms": ("ms", "lower", ("setup", span)) for span in (
        "synth.make_dataset", "synth.synth_scene", "models.load_sequence_dataset")},
    "cli.main.self_ms": ("ms", "lower", ("self", "cli.main")),
    "trace.coverage": ("ratio", "higher", ("coverage",)),
    "trace.overhead": ("ratio", "lower", ("overhead",)),
}

# End-to-end metrics, reported by every workload: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def tcn_macs(m, cfg, t):
    f, out = cfg.tcn_filters, cfg.tcn_out_filters
    return (m.macs_dense(cfg.temporal_in_width, f, t)
            + cfg.tcn_blocks * (m.macs_conv1d(f, f, t) + m.macs_dense(f, f, t))
            + m.macs_dense(f, out, t) + m.macs_dense(out, out, t))


def stage_macs(m, cfg, kind, t):
    """MACs per forward stage from the `macs_*` helpers."""
    stages = {}
    c_in, f_bins = cfg.n_feature_channels, cfg.n_bins
    for i, width in enumerate(cfg.pool_schedule):
        stages[f"conv{i}"] = m.macs_conv2d(c_in, cfg.conv_filters, t, f_bins)
        c_in, f_bins = cfg.conv_filters, f_bins // width
    if kind == "seldnet":
        h = cfg.rnn_hidden
        stages["bigru"] = 2 * (m.macs_gru_direction(cfg.temporal_in_width, h, t)
                               + m.macs_gru_direction(2 * h, h, t))
        fc_in = 2 * h
    else:
        stages["tcn"] = tcn_macs(m, cfg, t)
        fc_in = cfg.tcn_out_filters
    stages["heads"] = sum(m.macs_dense(fc_in, cfg.fc_units, t)
                          + m.macs_dense(cfg.fc_units, n_out, t)
                          for n_out in (cfg.n_sed, 3 * cfg.n_sed))
    return stages


def span_counters(sk):
    m = sk.models
    make_ir = sk.dsp.make_reverb_ir  # the unwrapped function, read before patching
    return {
        "dsp.apply_reverb": lambda a, r: {"macs": a[0].n_channels * a[0].n_samples * len(
            make_ir(a[1].reverb_strength, a[0].sample_rate_hz, a[1].rng_seed))},
        "dsp.stft_features": lambda a, r: {"frames": r.n_frames},
        "nn.conv2d_relu_pool": lambda a, r: {"macs": m.macs_conv2d(
            a[0].shape[0], a[1].shape[0], a[0].shape[1], a[0].shape[2])},
        "models.tcn_forward": lambda a, r: {"macs": tcn_macs(m, a[0].cfg, a[1].shape[0])},
        "nn.bigru_forward": lambda a, r: {"macs": 2 * m.macs_gru_direction(
            a[0].shape[1], a[1].u_z.shape[0], a[0].shape[0])},
        "nn.dense": lambda a, r: {"macs": m.macs_dense(a[1].shape[0], a[1].shape[1],
                                                       a[0].shape[0])},
        "models.forward": lambda a, r: {"count_macs": m.count_macs(
            a[0].cfg, a[0].kind, r.sed.shape[0])},
        "metrics.read_prediction_csv": lambda a, r: {"rows": sum(map(len, r[0]))},
        "metrics.write_prediction_csv": lambda a, r: {"rows": sum(map(len, a[1]))},
        "metrics.evaluate_annotations": lambda a, r: {"matched_pairs": r.n_matched_pairs},
    }


def mac_accounting(sk):
    """Closed-form check: stage MACs sum to count_macs for both kinds."""
    cfg = sk.models.ModelConfig(n_sed=11)
    rows = []
    for kind in sk.models.MODEL_KINDS:
        for t in (512, 1874):
            stages = stage_macs(sk.models, cfg, kind, t)
            rows.append({"kind": kind, "t": t, "stages": stages,
                         "sum": sum(stages.values()),
                         "count_macs": sk.models.count_macs(cfg, kind, t)})
    return rows


def layer_metrics(per_op, untraced_ms, traced_ms, input_counts, setup_incl):
    n = len(per_op)
    out = {}
    for name, (unit, _, how) in LAYER_METRICS.items():
        kind = how[0]
        if kind == "incl":
            value = sum(op["incl"].get(how[1], 0.0) for op in per_op) / n * 1e3
        elif kind == "self":
            value = sum(op["self"].get(how[1], 0.0) for op in per_op) / n * 1e3
        elif kind == "gmac":
            macs = sum(op["counts"].get(how[1], {}).get("macs", 0) for op in per_op)
            secs = sum(op["incl"].get(how[1], 0.0) for op in per_op)
            value = macs / secs / 1e9 if secs else 0.0
        elif kind == "count":
            value = sum(op["counts"].get(how[1], {}).get(how[2], 0) for op in per_op) / n
        elif kind == "per_call":
            calls = sum(op["calls"].get(how[1], 0) for op in per_op)
            total = sum(op["counts"].get(how[1], {}).get(how[2], 0) for op in per_op)
            value = total / calls if calls else 0.0
        elif kind == "input":
            value = input_counts.get(how[1], 0)
        elif kind == "setup":
            value = setup_incl.get(how[1], 0.0) * 1e3
        elif kind == "coverage":
            value = statistics.median(op["top_level"] / op["wall"] for op in per_op)
        else:  # overhead
            value = statistics.median(traced_ms) / statistics.median(untraced_ms)
        out[name] = (float(value), unit)
    return out


# ---------------------------------------------------------------------------
# Set-up child
# ---------------------------------------------------------------------------

def setup_child(wl, seed, work, trace):
    t0 = perf_counter()
    sk = import_seldkit()
    import_s = perf_counter() - t0
    setup_s, digests = [], []
    for r in range(SETUP_REPEATS):
        d = work / f"rep{r}"
        d.mkdir(parents=True)
        t0 = perf_counter()
        extra = wl.setup(sk, d, seed)
        setup_s.append(perf_counter() - t0)
        digests.append({**file_digests(d), **extra})
        if r:
            shutil.rmtree(work / f"rep{r - 1}")
    other = work / "other-seed"
    other.mkdir()
    extra = wl.setup(sk, other, seed + 1)
    other_digests = {**file_digests(other), **extra}
    shutil.rmtree(other)
    setup_incl = {}
    if trace:  # one more set-up, traced, for the set-up layers' figures
        traced = work / "traced"
        traced.mkdir()
        tracer = tracing.Tracer()
        with tracer.op(0, sk.pkg, {}):
            wl.setup(sk, traced, seed)
        setup_incl = tracing.summarize(tracer)[0]["incl"]
        shutil.rmtree(traced)
    d = work / f"rep{SETUP_REPEATS - 1}"
    t0 = perf_counter()
    wl.build_reference(sk, d, seed)
    reference_s = perf_counter() - t0
    (work / "setup.json").write_text(json.dumps({
        "import_s": import_s, "setup_s": setup_s, "reference_s": reference_s,
        "digests": digests, "other_seed_digests": other_digests, "input_dir": d.name,
        "traced_setup_incl_s": setup_incl,
        "child_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


def run_setup(args, work):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--setup-into", str(work)]
    proc = subprocess.run(cmd, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads((work / "setup.json").read_text())


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def run_op(wl, i, tracer=None, sk=None, counters=None):
    """One op: returns a record with its wall time and check outcome."""
    rec = {"op": i, "traced": tracer is not None}
    t0 = perf_counter()
    try:
        if tracer is None:
            out = wl.op(i)
        else:
            with tracer.op(i, sk.pkg, counters):
                out = wl.op(i)
        rec["op_ms"] = (perf_counter() - t0) * 1e3
        rec.update(wl.check(out))
        rec["ok"] = True
    except Exception as exc:  # an op that raises or fails its check counts as failed
        rec.setdefault("op_ms", (perf_counter() - t0) * 1e3)
        rec["ok"] = False
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def run_ops(wl, seconds, trace, sk):
    warmup = [run_op(wl, -1 - i) for i in range(wl.warmup_ops)]
    tracer = tracing.Tracer() if trace else None
    counters = span_counters(sk) if trace else None
    records = []
    t_begin = perf_counter()
    while True:
        n_traced = sum(r["traced"] for r in records)
        enough = (len(records) - n_traced >= (MIN_TRACED_OPS if trace else MIN_OPS)
                  and n_traced >= (MIN_TRACED_OPS if trace else 0))
        last = records[-1]["op_ms"] / 1e3 if records else 0.0
        if enough and (perf_counter() - t_begin >= seconds
                       or perf_counter() - T_START + last > DEADLINE_S):
            break
        traced = trace and len(records) % 2 == 1
        records.append(run_op(wl, len(records), tracer if traced else None, sk, counters))
    return warmup, records, tracer


# ---------------------------------------------------------------------------

def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != E2E_METRICS or layers != {k: v[:2] for k, v in LAYER_METRICS.items()}:
        raise SystemExit("error: BENCHMARK.json metrics differ from perfbench/run.py")
    if set(w["name"] for w in spec["workloads"]) != set(WORKLOADS):
        raise SystemExit("error: BENCHMARK.json workloads differ from perfbench/workloads.py")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]()

    if args.setup_into is not None:
        setup_child(wl, args.seed, args.setup_into, args.trace)
        return 0

    if not (SRC / "seldkit" / "__init__.py").is_file():
        print(f"error: no seldkit sources under {SRC}", file=sys.stderr)
        return 2
    load_spec()
    env = envinfo.collect(ROOT)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = run_setup(args, work)
        sk = import_seldkit()
        wl.prepare(sk, work / setup["input_dir"], args.seed)
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        warmup, records, tracer = run_ops(wl, args.seconds, args.trace, sk)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    problems = [f"op {r['op']}: {r['error']}" for r in warmup + records if not r["ok"]]
    digests = setup["digests"][0]
    if any(d != digests for d in setup["digests"]):
        problems.append("set-up repeats with one seed produced different inputs")
    same = [k for k, v in setup["other_seed_digests"].items()
            if Path(k).suffix in SEEDED_SUFFIXES and digests.get(k) == v]
    if same:
        problems.append(f"seed {args.seed + 1} produced the same inputs as seed "
                        f"{args.seed}: {', '.join(same[:4])}")
    # figures come from the ops that passed; if none did, from all of them
    ok_records = [r for r in records if r["ok"]]
    timed = ok_records or records
    ms = [r["op_ms"] for r in timed if not r["traced"]]
    figures = {
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "items_per_s": (wl.items_per_op * len(ms) / (sum(ms) / 1e3), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    untraced_ok = [r for r in ok_records if not r["traced"]]
    named = wl.named(untraced_ok) if untraced_ok else {}
    failed = sum(not r["ok"] for r in records)
    named["failed_op_ratio"] = (failed / len(records), "ratio")

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup": setup,
              "rss_before_ops_mb": rss_before, "item": wl.item,
              "items_per_op": wl.items_per_op, "ops": records}
    layer = {}
    if args.trace:
        per_op = tracing.summarize(tracer)
        layer = layer_metrics(per_op, ms, [r["op_ms"] for r in timed if r["traced"]],
                              wl.input_counts, setup["traced_setup_incl_s"])
        detail["mac_accounting"] = mac_accounting(sk)
        detail["forward_mac_checks"] = tracing.forward_mac_checks(tracer)
        for row in detail["mac_accounting"]:
            if row["sum"] != row["count_macs"]:
                problems.append(f"stage MACs {row['sum']} != count_macs {row['count_macs']} "
                                f"for {row['kind']} at T={row['t']}")
        for expected, observed in detail["forward_mac_checks"]:
            if expected != observed:
                problems.append(f"traced stage MACs {observed} != count_macs {expected}")
        tracer.write_csv(results / f"{args.workload}-s{args.seed}-t1-spans.csv")
        detail["per_op_spans"] = per_op
    detail["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in {**figures, **named, **layer}.items()}
    detail["problems"] = problems
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=float))

    for name, (value, unit) in {**figures, **named, **layer}.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(env))
    reported = layer if args.trace else figures
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
