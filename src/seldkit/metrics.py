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

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, FormatError, InputError, NumericError

CSV_HEADER = ["frame_index", "class_id", "x", "y", "z"]
# The reader allocates one entry per frame up to the largest frame index, so
# it bounds both indices while parsing. 2**23 frames is about 37 h at 62.5
# frames/s (16 kHz, hop 256); SELD class sets have tens of classes.
MAX_FRAMES = 2 ** 23
MAX_CLASSES = 1024
# Evaluation's (frames, classes) activity matrices, 256 MiB of bool each; the
# two index limits above would allow 2**33 cells.
_MAX_ACTIVITY_CELLS = 2 ** 28


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

    if pred.shape[0] == 0:
        return SedCounts()
    starts = np.arange(0, pred.shape[0], frames_per_segment)
    p = np.logical_or.reduceat(pred, starts, axis=0)
    r = np.logical_or.reduceat(ref, starts, axis=0)
    fp = np.count_nonzero(p & ~r, axis=1)
    fn = np.count_nonzero(~p & r, axis=1)
    return SedCounts(
        tp=int(np.count_nonzero(p & r)),
        fp=int(fp.sum()),
        fn=int(fn.sum()),
        s=int(np.minimum(fn, fp).sum()),
        d=int(np.maximum(0, fn - fp).sum()),
        i=int(np.maximum(0, fp - fn).sum()),
        n_ref=int(np.count_nonzero(r)),
    )


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
    exactly 0 for identical vectors. The cross product is written out from
    its components, several times cheaper than a general cross-product call
    on small stacks. Two 1-D vectors give a float.
    """
    u, v = np.asarray(u), np.asarray(v)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    cx = u1 * v2 - u2 * v1
    cy = u2 * v0 - u0 * v2
    cz = u0 * v1 - u1 * v0
    cross = np.sqrt(cx * cx + cy * cy + cz * cz)
    return np.degrees(np.arctan2(cross, u0 * v0 + u1 * v1 + u2 * v2))


# Frames gathered per step of doa_error_accumulate: bounds its transient
# arrays (vectors, offsets, angle stacks) whatever the input length.
_DOA_BLOCK = 2048


def _usable_vectors(block):
    """Per-frame counts and the flat (sum, 3) float64 stack of non-None vectors."""
    vecs = [[v for v in frame.values() if v is not None] for frame in block]
    counts = np.fromiter(map(len, vecs), np.intp, len(vecs))
    flat = [v for frame in vecs for v in frame]
    return counts, np.array(flat, dtype=np.float64).reshape(len(flat), 3)


def _match_block(pred_block, ref_block):
    """Total matched angle and pair count over one block of frames.

    Frames are grouped by (|P|, |R|) and each group's (G, |P|, |R|) angle
    stack comes from one angular_distance_deg call. With one event on either
    side the optimum is the smallest angle; only frames of 2x2 or larger go
    to the assignment solver, one frame at a time.
    """
    n_pred, pred = _usable_vectors(pred_block)
    n_ref, ref = _usable_vectors(ref_block)
    start_pred = np.cumsum(n_pred) - n_pred
    start_ref = np.cumsum(n_ref) - n_ref
    shapes = n_pred * (1 + n_ref.max(initial=0)) + n_ref  # one key per (|P|, |R|)
    matched = (n_pred > 0) & (n_ref > 0)
    total = 0.0
    pairs = 0
    for shape in np.unique(shapes[matched]).tolist():
        frames = np.flatnonzero(shapes == shape)
        p, r = int(n_pred[frames[0]]), int(n_ref[frames[0]])
        u = pred[start_pred[frames, None] + np.arange(p)]
        v = ref[start_ref[frames, None] + np.arange(r)]
        angles = angular_distance_deg(u[:, :, None], v[:, None])
        if np.isnan(angles).any():
            raise NumericError("DOA vectors must be finite")
        if min(p, r) == 1:
            total += angles.reshape(len(frames), -1).min(axis=1).sum()
        else:
            rows, cols = np.array([linear_sum_assignment(a) for a in angles]).transpose(1, 0, 2)
            total += angles[np.arange(len(frames))[:, None], rows, cols].sum()
        pairs += len(frames) * min(p, r)
    return total, pairs


def doa_error_accumulate(pred_ann, ref_ann):
    """Total matched angle (degrees) and pair count, pooled over all frames.

    Each frame pairs its non-None predicted and reference vectors by optimal
    (Hungarian) assignment on their angle matrix, as SELDnet's DE defines
    it. Frames are taken _DOA_BLOCK at a time and grouped by shape, so the
    angles come from a few vectorized calls and only frames with at least
    two events on each side reach the solver.
    """
    if len(pred_ann) != len(ref_ann):
        raise InputError(f"frame counts differ: {len(pred_ann)} vs {len(ref_ann)}")
    total = 0.0
    pairs = 0
    for start in range(0, len(ref_ann), _DOA_BLOCK):
        angle, n = _match_block(pred_ann[start:start + _DOA_BLOCK],
                                ref_ann[start:start + _DOA_BLOCK])
        total += angle
        pairs += n
    return total, pairs


def doa_error(pred_ann, ref_ann):
    """Mean matched angular distance in degrees; None if no pairs matched."""
    total, pairs = doa_error_accumulate(pred_ann, ref_ann)
    if pairs == 0:
        return None
    return total / pairs


def _annotations_from_rows(n_frames, frames, classes, v):
    """Frame annotations from (frame, class, xyz) rows; v is float64 (N, 3).

    Each xyz is scaled to unit length in place, or becomes None where its
    norm is not positive (zero or NaN); a later row for the same (frame,
    class) replaces an earlier one.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v, axis=1)
    positive = norm > 0.0
    np.divide(v, norm[:, None], out=v, where=positive[:, None])
    ann = [dict() for _ in range(n_frames)]
    for t, c, u, ok in zip(frames, classes, v, positive.tolist()):
        ann[t][c] = u if ok else None
    return ann


def doa_vectors_from_prediction(sed_activity, doa):
    """Frame annotations from an activity mask and raw (T, 3N) DOA output.

    Each active (frame, class) contributes its (x, y, z) triple normalized
    to unit length; vectors whose norm is not positive (zero or NaN) are kept
    as None so they still count toward frame cardinality but are excluded
    from angle matching.
    """
    activity = np.asarray(sed_activity, dtype=bool)
    doa = np.asarray(doa, dtype=np.float64)
    t_len, n_classes = activity.shape
    if doa.shape != (t_len, 3 * n_classes):
        raise InputError(f"doa shape {doa.shape} does not match activity {activity.shape}")
    t, c = np.nonzero(activity)
    v = doa.reshape(t_len, n_classes, 3)[t, c]
    return _annotations_from_rows(t_len, t.tolist(), c.tolist(), v)


def annotation_activity(ann, n_classes):
    """Boolean (T, n_classes) activity implied by frame annotations (at most 2**28 cells)."""
    if len(ann) * n_classes > _MAX_ACTIVITY_CELLS:
        raise DataError(f"{len(ann)} frames x {n_classes} classes exceeds the limit of "
                        f"{_MAX_ACTIVITY_CELLS} activity cells")
    lengths = np.fromiter(map(len, ann), np.intp, len(ann))
    frames = np.repeat(np.arange(len(ann)), lengths)
    classes = np.fromiter(chain.from_iterable(ann), np.intp, len(frames))
    out_of_range = np.flatnonzero((classes < 0) | (classes >= n_classes))
    if out_of_range.size:
        raise DataError(f"class_id {classes[out_of_range[0]]} out of range (n_classes={n_classes})")
    act = np.zeros((len(ann), n_classes), dtype=bool)
    act[frames, classes] = True
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
    """One row per (frame, event): frame_index, class_id, x, y, z.

    Classes ascend within a frame; components are written as %.10g and a
    None direction as 0,0,0. The file is formatted in memory and written
    with one call.
    """
    lines = [",".join(CSV_HEADER)]
    for t, frame in enumerate(ann):
        for c in sorted(frame):
            v = frame[c]
            x, y, z = (0.0, 0.0, 0.0) if v is None else v.tolist()
            lines.append("%d,%d,%.10g,%.10g,%.10g" % (t, c, x, y, z))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_rows(path, header, dtype):
    """The rows of a CSV whose first line is `header`, as one structured array.

    The body is parsed by one np.loadtxt pass into the fields of `dtype`, one
    column each; cells may carry surrounding spaces, blank lines are skipped
    and columns past the header's are ignored. Non-ASCII bytes, a wrong
    header and a cell that does not parse as its field's type are a
    FormatError; a missing file raises OSError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        # np.loadtxt (numpy 2.4) can crash the process while it reports an
        # unparsable cell holding a character beyond U+FFFF, so it only ever
        # sees ASCII
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
        raise FormatError(f"{path}: non-ASCII characters in a CSV file")
    del data
    with open(path, encoding="ascii") as fh:
        if [h.strip() for h in fh.readline().split(",")] != header:
            raise FormatError(f"{path}: expected header {','.join(header)}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # comments=None: a '#' is a malformed cell, not the start of a
                # comment that would silently drop the rest of its row
                return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                  usecols=range(len(header)), ndmin=1)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed row: {exc}") from exc


_PREDICTION_ROW = np.dtype([("t", "<i8"), ("c", "<i8"), ("v", "<f8", 3)])


def read_prediction_csv(path):
    """Read interchange CSV into frame annotations.

    Returns (annotations, n_frames); the list spans up to the largest frame
    index present. Zero vectors become None entries (direction unusable);
    all other vectors are normalized.
    A cell that is not a plain ASCII number is a FormatError: quoted cells,
    digit separators such as 1_0, non-ASCII digits and any non-ASCII byte.
    Negative indices, indices beyond MAX_FRAMES or MAX_CLASSES and vectors
    without a finite length are a DataError; the whole file is parsed before
    these are checked, so a malformed row anywhere is reported first.
    """
    rows = _csv_rows(path, CSV_HEADER, _PREDICTION_ROW)
    t, c = rows["t"], rows["c"]
    if t.size and min(t.min(), c.min()) < 0:
        raise DataError(f"{path}: negative frame or class index")
    over = np.flatnonzero((t >= MAX_FRAMES) | (c >= MAX_CLASSES))
    if over.size:
        i = over[0]
        raise DataError(f"{path}: frame index {t[i]} or class id {c[i]} exceeds "
                        f"the limit of {MAX_FRAMES} frames, {MAX_CLASSES} classes")
    v = np.ascontiguousarray(rows["v"])
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(np.linalg.norm(v, axis=1)))
    if bad.size:
        i = bad[0]
        raise DataError(f"{path}: direction of frame {t[i]}, class {c[i]} has no finite length")
    n_frames = int(t.max()) + 1 if t.size else 0
    return _annotations_from_rows(n_frames, t.tolist(), c.tolist(), v), n_frames
