"""Independent brute-force metric implementations used as test oracles.

Deliberately written with different machinery than the library: exact
rational arithmetic for the segment counts, and an exhaustive permutation
search over an arccos cost for the DOA matching (the library solves the
assignment with scipy). Exhaustive search is factorial in the number of
events, so duel it only on small frames.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np


def oracle_activity(ann, n_classes):
    """Boolean (frames, n_classes) activity of frame annotations, one cell at a time."""
    act = np.zeros((len(ann), n_classes), dtype=bool)
    for t, frame in enumerate(ann):
        for c in frame:
            act[t, c] = True
    return act


def oracle_segment_er_f1(pred_activity, ref_activity, frames_per_segment):
    """(ER, F1) as exact Fractions (or None), via per-segment set algebra."""
    pred = np.asarray(pred_activity, dtype=bool)
    ref = np.asarray(ref_activity, dtype=bool)
    t_total, n_classes = pred.shape
    n_segments = (t_total + frames_per_segment - 1) // frames_per_segment

    tp = fp = fn = sdi = n_ref = 0
    for s in range(n_segments):
        lo, hi = s * frames_per_segment, min((s + 1) * frames_per_segment, t_total)
        p_set = {c for c in range(n_classes) if pred[lo:hi, c].any()}
        r_set = {c for c in range(n_classes) if ref[lo:hi, c].any()}
        seg_fn = len(r_set - p_set)
        seg_fp = len(p_set - r_set)
        tp += len(p_set & r_set)
        fp += seg_fp
        fn += seg_fn
        # S + D + I collapses to max(FN, FP)
        sdi += max(seg_fn, seg_fp)
        n_ref += len(r_set)

    er = Fraction(sdi, n_ref) if n_ref > 0 else None
    denom = 2 * tp + fp + fn
    f1 = Fraction(2 * tp, denom) if denom > 0 else None
    return er, f1


def oracle_doa_error(pred_ann, ref_ann):
    """Mean matched angle via exhaustive permutation search; None if no pairs."""
    total = 0.0
    pairs = 0
    for p_frame, r_frame in zip(pred_ann, ref_ann):
        pv = [v for v in p_frame.values() if v is not None]
        rv = [v for v in r_frame.values() if v is not None]
        if not pv or not rv:
            continue
        cost = np.zeros((len(pv), len(rv)))
        for i, u in enumerate(pv):
            for j, w in enumerate(rv):
                cost[i, j] = np.degrees(np.arccos(np.clip(np.dot(u, w), -1.0, 1.0)))
        if len(pv) > len(rv):
            cost = cost.T
        n_small, n_large = cost.shape
        total += min(
            sum(cost[i, perm[i]] for i in range(n_small))
            for perm in permutations(range(n_large), n_small)
        )
        pairs += n_small
    if pairs == 0:
        return None
    return total / pairs


def random_metric_case(rng, max_classes=4, max_segments=20, fps=4, max_sources=3):
    """Random (pred_ann, ref_ann, n_classes, fps) fixture for oracle duels."""
    n_classes = int(rng.integers(1, max_classes + 1))
    n_frames = int(rng.integers(1, max_segments * fps + 1))
    def make(density):
        ann = []
        for _ in range(n_frames):
            k = min(int(rng.binomial(max_sources, density)), n_classes)
            classes = rng.choice(n_classes, size=k, replace=False)
            frame = {}
            for c in classes:
                v = rng.standard_normal(3)
                n = np.linalg.norm(v)
                v = v / n if n > 0 else np.array([1.0, 0.0, 0.0])
                # occasionally drop the direction to exercise the None path
                frame[int(c)] = None if rng.random() < 0.05 else v
            ann.append(frame)
        return ann
    return make(rng.uniform(0.1, 0.7)), make(rng.uniform(0.1, 0.7)), n_classes, fps
