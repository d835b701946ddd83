"""Independent references the benchmark checks the library's outputs against.

`model_reference` recomputes a model's infer-mode prediction in float64 from
a saved weight store, through the unfused layer functions (`nn.conv2d`,
`nn.batchnorm`, `nn.relu`, `nn.maxpool_freq`, the TCN and GRU layers and
`nn.dense`), wired here from the architecture description rather than
through `SeldModel`. `SeldModel.forward_cached` cannot serve instead: in
infer mode it raises IndexError, because batchnorm leaves its stats list
empty outside train mode.

`eval_oracle` scores two interchange CSVs with its own parser, set-based
segment counts and scipy's optimal assignment for DOA matching, against the
library's exhaustive permutation search.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import expit

# Each front-end layer is a 3x3 conv, so three layers see 3 frames either
# side; chunks with this halo reproduce the whole-sequence front-end exactly
# while bounding the float64 working set.
FRONT_HALO = 3
FRONT_CHUNK = 128


def _bn_state(nn, store, name):
    return nn.BatchNormState(
        gamma=store.get(f"{name}.gamma").astype(np.float64),
        beta=store.get(f"{name}.beta").astype(np.float64),
        running_mean=store.get(f"{name}.running_mean").astype(np.float64),
        running_var=store.get(f"{name}.running_var").astype(np.float64),
        num_updates=1,
    )


def _front_end(nn, store, cfg, x):
    t_len = x.shape[1]
    out = []
    for lo in range(0, t_len, FRONT_CHUNK):
        hi = min(lo + FRONT_CHUNK, t_len)
        a_lo, a_hi = max(0, lo - FRONT_HALO), min(t_len, hi + FRONT_HALO)
        h = x[:, a_lo:a_hi]
        for i, width in enumerate(cfg.pool_schedule):
            w = store.get(f"conv{i}.w").astype(np.float64)
            b = store.get(f"conv{i}.b").astype(np.float64)
            a = nn.batchnorm(nn.conv2d(h, w, b), _bn_state(nn, store, f"bn{i}"), "infer")
            h = nn.maxpool_freq(nn.relu(a), width)
        out.append(h[:, lo - a_lo:lo - a_lo + hi - lo])
    return np.concatenate(out, axis=1)


def _tcn(nn, store, cfg, h):
    g = {name: arr.astype(np.float64) for name, arr in store.items()}
    u = nn.conv1x1(h.T, g["proj.w"], g["proj.b"])
    skip_sum = np.zeros_like(u)
    for k, d in enumerate(cfg.dilations):
        z = nn.dilated_conv1d(u, g[f"block{k}.conv.w"], g[f"block{k}.conv.b"], d)
        act = nn.gated_activation(nn.batchnorm(z, _bn_state(nn, store, f"block{k}.bn"), "infer"))
        s = nn.conv1x1(act, g[f"block{k}.skip.w"], g[f"block{k}.skip.b"])
        u = u + s
        skip_sum += s
    v = nn.relu(nn.conv1x1(nn.relu(skip_sum), g["out1.w"], g["out1.b"]))
    return nn.conv1x1(v, g["out2.w"], g["out2.b"]).T


def _bigru_stack(nn, store, h):
    keys = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")
    for layer in range(2):
        fwd, bwd = (
            nn.GruParams(**{k: store.get(f"gru{layer}.{d}.{k}").astype(np.float64)
                            for k in keys})
            for d in ("fwd", "bwd"))
        h = nn.bigru_forward(h, fwd, bwd)
    return h


def model_reference(seldkit, store, cfg, features):
    """float64 infer-mode (sed, doa) for (C, T, F) features and a weight store."""
    nn = seldkit.nn
    x = np.asarray(features, dtype=np.float64)
    if "features.mean" in store:
        mean = store.get("features.mean").astype(np.float64)
        std = store.get("features.std").astype(np.float64)
        x = (x - mean[:, None, None]) / std[:, None, None]
    front = _front_end(nn, store, cfg, x)
    c_f, t_len, f3 = front.shape
    h = front.transpose(1, 0, 2).reshape(t_len, c_f * f3)
    q = _tcn(nn, store, cfg, h) if "proj.w" in store else _bigru_stack(nn, store, h)

    def head(branch):
        w1, b1 = (store.get(f"{branch}_fc.{p}").astype(np.float64) for p in "wb")
        w2, b2 = (store.get(f"{branch}_out.{p}").astype(np.float64) for p in "wb")
        return nn.dense(nn.dense(q, w1, b1), w2, b2)

    return expit(head("sed")), np.tanh(head("doa"))


# ---------------------------------------------------------------------------
# Evaluation oracle
# ---------------------------------------------------------------------------

def read_annotations(path):
    """Interchange CSV -> list of {class: unit vector or None} per frame."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line in reader:
            rows.append((int(line[0]), int(line[1]), float(line[2]),
                         float(line[3]), float(line[4])))
    n_frames = 1 + max((r[0] for r in rows), default=-1)
    ann = [dict() for _ in range(n_frames)]
    for t, c, x, y, z in rows:
        v = np.array([x, y, z])
        norm = np.sqrt(v @ v)
        ann[t][c] = v / norm if norm > 0.0 else None
    return ann


def _angle_deg(u, v):
    cross = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                      u[0] * v[1] - u[1] * v[0]])
    return np.degrees(np.arctan2(np.sqrt(cross @ cross), u @ v))


def assignment_count(n_a, n_b):
    """Ordered selections P(max, min): what an exhaustive matcher enumerates."""
    hi, lo = max(n_a, n_b), min(n_a, n_b)
    count = 1
    for k in range(hi - lo + 1, hi + 1):
        count *= k
    return count if lo else 0


def eval_oracle(pred, ref, fps):
    """Counts, FR and DE for two annotation lists, as `seld eval` reports them."""
    n_frames = max(len(pred), len(ref))
    pred = pred + [dict() for _ in range(n_frames - len(pred))]
    ref = ref + [dict() for _ in range(n_frames - len(ref))]
    out = dict(tp=0, fp=0, fn=0, substitutions=0, deletions=0, insertions=0,
               n_ref=0, matched_pairs=0, assignments=0, n_frames=n_frames)
    for lo in range(0, n_frames, fps):
        p_set = set().union(*pred[lo:lo + fps])
        r_set = set().union(*ref[lo:lo + fps])
        fn, fp = len(r_set - p_set), len(p_set - r_set)
        out["tp"] += len(p_set & r_set)
        out["fp"] += fp
        out["fn"] += fn
        out["substitutions"] += min(fn, fp)
        out["deletions"] += max(0, fn - fp)
        out["insertions"] += max(0, fp - fn)
        out["n_ref"] += len(r_set)

    total_deg = 0.0
    hits = 0
    for p, r in zip(pred, ref):
        hits += len(p) == len(r)
        pv = [v for v in p.values() if v is not None]
        rv = [v for v in r.values() if v is not None]
        out["assignments"] += assignment_count(len(pv), len(rv))
        if not pv or not rv:
            continue
        cost = np.array([[_angle_deg(u, v) for v in rv] for u in pv])
        rows, cols = linear_sum_assignment(cost)
        total_deg += cost[rows, cols].sum()
        out["matched_pairs"] += len(rows)
    out["fr"] = 100.0 * hits / n_frames
    out["de"] = total_deg / out["matched_pairs"] if out["matched_pairs"] else None
    return out
