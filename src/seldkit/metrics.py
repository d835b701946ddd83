"""Segment-based SED metrics and frame-based localization metrics.

Four numbers summarize a prediction/reference pair: segment error rate (ER)
and F1 for detection, frame recall (FR, percent of frames whose predicted
event count matches the reference) and DOA error (DE, mean angular distance
in degrees over optimally matched event pairs) for localization.

Frame annotations are lists with one dict per frame mapping class_id to a
unit DOA vector, or to None for events whose direction is unusable (these
still count toward frame cardinality but never enter angle matching).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, FormatError, InputError, NumericError

CSV_HEADER = ["frame_index", "class_id", "x", "y", "z"]
# The reader allocates one entry per frame up to the largest frame index, and
# evaluation a (frames, classes) activity matrix, so both indices are bounded
# before anything is allocated. 2**23 frames is about 37 h at 62.5 frames/s
# (16 kHz, hop 256); SELD class sets have tens of classes.
MAX_FRAMES = 2 ** 23
MAX_CLASSES = 1024


def binarize_sed(sed, threshold=0.5):
    """Activity mask from sigmoid outputs: active iff sed > threshold."""
    return np.asarray(sed) > threshold


# ---------------------------------------------------------------------------
# Segment ER / F1
# ---------------------------------------------------------------------------

@dataclass
class SedCounts:
    """Integer accumulators behind ER and F1; addable across evaluations."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    s: int = 0
    d: int = 0
    i: int = 0
    n_ref: int = 0

    def __add__(self, other: "SedCounts") -> "SedCounts":
        return SedCounts(*(a + b for a, b in zip(self._tuple(), other._tuple())))

    def _tuple(self):
        return (self.tp, self.fp, self.fn, self.s, self.d, self.i, self.n_ref)

    @property
    def er(self):
        """Substitutions + deletions + insertions over reference count; None if no references."""
        if self.n_ref == 0:
            return None
        return (self.s + self.d + self.i) / self.n_ref

    @property
    def f1(self):
        """2TP / (2TP + FP + FN); None when the denominator is zero."""
        denom = 2 * self.tp + self.fp + self.fn
        if denom == 0:
            return None
        return 2 * self.tp / denom


def segment_counts(pred_activity, ref_activity, frames_per_segment) -> SedCounts:
    """Accumulate segment-level TP/FP/FN and S/D/I counts.

    A class is active in a segment if it is active in any frame of it; the
    trailing partial segment is kept. Per segment, S = min(FN, FP),
    D = max(0, FN - FP), I = max(0, FP - FN).
    """
    pred = np.asarray(pred_activity, dtype=bool)
    ref = np.asarray(ref_activity, dtype=bool)
    if pred.shape != ref.shape:
        raise InputError(f"activity shapes differ: {pred.shape} vs {ref.shape}")
    if frames_per_segment < 1:
        raise InputError("frames_per_segment must be >= 1")

    counts = SedCounts()
    t_total = pred.shape[0]
    for start in range(0, t_total, frames_per_segment):
        p = pred[start:start + frames_per_segment].any(axis=0)
        r = ref[start:start + frames_per_segment].any(axis=0)
        tp = int(np.sum(p & r))
        fp = int(np.sum(p & ~r))
        fn = int(np.sum(~p & r))
        counts.tp += tp
        counts.fp += fp
        counts.fn += fn
        counts.s += min(fn, fp)
        counts.d += max(0, fn - fp)
        counts.i += max(0, fp - fn)
        counts.n_ref += int(np.sum(r))
    return counts


def segment_er_f1(pred_activity, ref_activity, frames_per_segment):
    """Segment error rate and F1 as a pair (either may be None, see SedCounts)."""
    counts = segment_counts(pred_activity, ref_activity, frames_per_segment)
    return counts.er, counts.f1


# ---------------------------------------------------------------------------
# Frame recall and DOA error
# ---------------------------------------------------------------------------

def frame_recall(pred_ann, ref_ann):
    """Percent of frames whose predicted event count equals the reference count."""
    if len(pred_ann) != len(ref_ann):
        raise InputError(f"frame counts differ: {len(pred_ann)} vs {len(ref_ann)}")
    if len(ref_ann) == 0:
        raise InputError("cannot compute frame recall over zero frames")
    hits = sum(1 for p, r in zip(pred_ann, ref_ann) if len(p) == len(r))
    return 100.0 * hits / len(ref_ann)


def angular_distance_deg(u, v):
    """Angle in degrees between unit vectors, broadcast over leading axes.

    Computed as atan2(|u x v|, u . v): identical to arccos of the clamped
    dot product in exact arithmetic, but stable near 0 and 180 degrees and
    exactly 0 for identical vectors. Two 1-D vectors give a float.
    """
    u, v = np.asarray(u), np.asarray(v)
    cross = np.linalg.norm(np.cross(u, v), axis=-1)
    return np.degrees(np.arctan2(cross, np.sum(u * v, axis=-1)))


def _match_frame(pred_vecs, ref_vecs):
    """Minimal total angle over all assignments of min(|P|, |R|) pairs.

    Optimal (Hungarian) assignment on the (|P|, |R|) angle matrix, as
    SELDnet's DE defines it; polynomial in the number of events.
    """
    if not pred_vecs or not ref_vecs:
        return 0.0, 0
    angles = angular_distance_deg(np.array(pred_vecs)[:, None], np.array(ref_vecs)[None])
    try:
        rows, cols = linear_sum_assignment(angles)
    except ValueError as exc:  # the solver rejects NaN angles
        raise NumericError("DOA vectors must be finite") from exc
    return angles[rows, cols].sum(), len(rows)


def doa_error_accumulate(pred_ann, ref_ann):
    """Total matched angle (degrees) and pair count, pooled over all frames."""
    if len(pred_ann) != len(ref_ann):
        raise InputError(f"frame counts differ: {len(pred_ann)} vs {len(ref_ann)}")
    total = 0.0
    pairs = 0
    for p, r in zip(pred_ann, ref_ann):
        pv = [v for v in p.values() if v is not None]
        rv = [v for v in r.values() if v is not None]
        angle, n = _match_frame(pv, rv)
        total += angle
        pairs += n
    return total, pairs


def doa_error(pred_ann, ref_ann):
    """Mean matched angular distance in degrees; None if no pairs matched."""
    total, pairs = doa_error_accumulate(pred_ann, ref_ann)
    if pairs == 0:
        return None
    return total / pairs


def doa_vectors_from_prediction(sed_activity, doa):
    """Frame annotations from an activity mask and raw (T, 3N) DOA output.

    Each active (frame, class) contributes its (x, y, z) triple normalized
    to unit length; zero-norm vectors are kept as None so they still count
    toward frame cardinality but are excluded from angle matching.
    """
    activity = np.asarray(sed_activity, dtype=bool)
    doa = np.asarray(doa, dtype=np.float64)
    t_len, n_classes = activity.shape
    if doa.shape != (t_len, 3 * n_classes):
        raise InputError(f"doa shape {doa.shape} does not match activity {activity.shape}")
    ann = []
    for t in range(t_len):
        frame = {}
        for c in np.nonzero(activity[t])[0]:
            v = doa[t, 3 * c:3 * c + 3]
            norm = np.linalg.norm(v)
            frame[int(c)] = v / norm if norm > 0.0 else None
        ann.append(frame)
    return ann


def annotation_activity(ann, n_classes):
    """Boolean (T, n_classes) activity implied by frame annotations."""
    act = np.zeros((len(ann), n_classes), dtype=bool)
    for t, frame in enumerate(ann):
        for c in frame:
            if c >= n_classes:
                raise DataError(f"class_id {c} out of range (n_classes={n_classes})")
            act[t, c] = True
    return act


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """ER/F1/FR/DE plus the raw accumulators they came from."""

    er: float | None
    f1: float | None
    fr: float
    de: float | None
    counts: SedCounts
    n_matched_pairs: int


def evaluate_annotations(pred_ann, ref_ann, n_classes, frames_per_segment) -> EvalReport:
    """Compute the full metric report from two frame annotation lists."""
    pred_act = annotation_activity(pred_ann, n_classes)
    ref_act = annotation_activity(ref_ann, n_classes)
    counts = segment_counts(pred_act, ref_act, frames_per_segment)
    total, pairs = doa_error_accumulate(pred_ann, ref_ann)
    return EvalReport(
        er=counts.er,
        f1=counts.f1,
        fr=frame_recall(pred_ann, ref_ann),
        de=total / pairs if pairs else None,
        counts=counts,
        n_matched_pairs=pairs,
    )


# ---------------------------------------------------------------------------
# Interchange CSV
# ---------------------------------------------------------------------------

def write_prediction_csv(path, ann):
    """One row per (frame, event): frame_index, class_id, x, y, z."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for t, frame in enumerate(ann):
            for c in sorted(frame):
                v = frame[c]
                x, y, z = (0.0, 0.0, 0.0) if v is None else (v[0], v[1], v[2])
                writer.writerow([t, c, f"{x:.10g}", f"{y:.10g}", f"{z:.10g}"])


def read_prediction_csv(path):
    """Read interchange CSV into frame annotations.

    Returns (annotations, n_frames); the list spans up to the largest frame
    index present. Zero vectors become None entries (direction unusable);
    all other vectors are normalized.
    Undecodable bytes are a FormatError; indices beyond MAX_FRAMES or
    MAX_CLASSES and vectors without a finite length are a DataError.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != CSV_HEADER:
                raise FormatError(f"{path}: expected header {','.join(CSV_HEADER)}")
            for line in reader:
                if not line:
                    continue
                try:
                    t, c = int(line[0]), int(line[1])
                    x, y, z = float(line[2]), float(line[3]), float(line[4])
                except (ValueError, IndexError) as exc:
                    raise FormatError(f"{path}: malformed row {line!r}") from exc
                if t < 0 or c < 0:
                    raise DataError(f"{path}: negative frame or class index")
                if t >= MAX_FRAMES or c >= MAX_CLASSES:
                    raise DataError(f"{path}: frame index {t} or class id {c} exceeds "
                                    f"the limit of {MAX_FRAMES} frames, {MAX_CLASSES} classes")
                rows.append((t, c, x, y, z))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a UTF-8 CSV file: {exc}") from exc

    v = np.fromiter((f for r in rows for f in r[2:]), np.float64, 3 * len(rows)).reshape(-1, 3)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v, axis=1)
    bad = np.flatnonzero(~np.isfinite(norm))
    if bad.size:
        t, c = rows[bad[0]][:2]
        raise DataError(f"{path}: direction of frame {t}, class {c} has no finite length")
    positive = norm > 0.0
    np.divide(v, norm[:, None], out=v, where=positive[:, None])
    n_frames = 1 + max((r[0] for r in rows), default=-1)
    ann = [dict() for _ in range(n_frames)]
    for (t, c, *_), u, ok in zip(rows, v, positive.tolist()):
        ann[t][c] = u if ok else None
    return ann, n_frames
