"""Segment-based SED metrics and frame-based localization metrics.

Four numbers summarize a prediction/reference pair: segment error rate (ER)
and F1 for detection, frame recall (FR, percent of frames whose predicted
event count matches the reference) and DOA error (DE, mean angular distance
in degrees over optimally matched event pairs) for localization.

Scoring takes `EventRows` tables, one row per (frame, class) event as flat
arrays in ascending (frame, class) order: `read_prediction_rows` reads one
from the interchange CSV and `evaluate_rows` scores two of them, which is
what `seld eval` does. A table holds a set of events, so the order of a
file's rows never changes a score. A model's output becomes frame
annotations, lists with one dict per frame mapping class_id to a unit DOA
vector, or to None for an event whose direction is unusable (it still
counts toward frame cardinality but never enters angle matching);
`write_prediction_csv` writes them and `rows_from_annotations` turns them
into a table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, FormatError, InputError, NumericError

CSV_HEADER = ["frame_index", "class_id", "x", "y", "z"]
# read_prediction_rows bounds both indices while parsing, which keeps _kept_rows'
# (frame, class) key and the activity size in range. 2**23 frames is about 37 h
# at 62.5 frames/s (16 kHz, hop 256); SELD class sets have tens of classes.
MAX_FRAMES = 2 ** 23
MAX_CLASSES = 1024
# Evaluation's (frames, classes) activity matrices, 256 MiB of bool each; the
# two index limits above would allow 2**33 cells.
_MAX_ACTIVITY_CELLS = 2 ** 28


def binarize_sed(sed, threshold=0.5):
    """Activity mask from sigmoid outputs: active iff sed > threshold."""
    return np.asarray(sed) > threshold


# ---------------------------------------------------------------------------
# Event tables and frame annotations
# ---------------------------------------------------------------------------

@dataclass
class EventRows:
    """One annotation table as flat arrays, one row per (frame, class) event.

    Rows strictly ascend by (frame, class), so no key repeats: every
    producer emits this order and the scorers rely on it. `doa` is float64
    (N, 3): a unit vector where `usable`, elsewhere the raw triple of a
    direction without a positive length. `n_frames` is the number of frames
    the table spans.
    """

    frame: np.ndarray     # (N,) int
    class_id: np.ndarray  # (N,) int
    doa: np.ndarray       # (N, 3) float64
    usable: np.ndarray    # (N,) bool
    n_frames: int


def _row_norms(v):
    """Euclidean length of each row of v (N, 3), bit for bit np.linalg.norm's
    but with one column of transient memory; an overflow gives inf."""
    with np.errstate(over="ignore"):
        norm = v[:, 0] * v[:, 0]
        norm += v[:, 1] * v[:, 1]
        norm += v[:, 2] * v[:, 2]
        return np.sqrt(norm, out=norm)


def _event_rows(n_frames, frame, class_id, v, norm):
    """EventRows from (frame, class, xyz) rows and their norms.

    v is float64 (N, 3) and is scaled to unit length in place where its norm
    is positive; other rows (norm zero or NaN) are not usable.
    """
    usable = norm > 0.0
    np.divide(v, norm[:, None], out=v, where=usable[:, None])
    return EventRows(frame, class_id, v, usable, n_frames)


def _annotations(rows):
    """Frame annotations of an event table: one dict per frame."""
    ann = [dict() for _ in range(rows.n_frames)]
    for t, c, u, ok in zip(rows.frame.tolist(), rows.class_id.tolist(), rows.doa,
                           rows.usable.tolist()):
        ann[t][c] = u if ok else None
    return ann


def rows_from_annotations(ann):
    """The event table of frame annotations, each frame's classes in ascending
    order; vectors are taken as they are."""
    classes = [sorted(f) for f in ann]
    frame = np.repeat(np.arange(len(ann)), np.fromiter(map(len, ann), np.intp, len(ann)))
    class_id = np.fromiter(chain.from_iterable(classes), np.intp, len(frame))
    vecs = [f[c] for f, cs in zip(ann, classes) for c in cs]
    usable = np.fromiter((v is not None for v in vecs), bool, len(vecs))
    doa = np.zeros((len(vecs), 3))
    doa[usable] = np.array([v for v in vecs if v is not None], np.float64).reshape(-1, 3)
    return EventRows(frame, class_id, doa, usable, len(ann))


def _activity(frame, class_id, n_frames, n_classes):
    """Boolean (n_frames, n_classes) activity of the events at (frame, class_id).

    The cell limit and the class range are checked before it is allocated.
    """
    if n_frames * n_classes > _MAX_ACTIVITY_CELLS:
        raise DataError(f"{n_frames} frames x {n_classes} classes exceeds the limit of "
                        f"{_MAX_ACTIVITY_CELLS} activity cells")
    out_of_range = np.flatnonzero((class_id < 0) | (class_id >= n_classes))
    if out_of_range.size:
        raise DataError(f"class_id {class_id[out_of_range[0]]} out of range (n_classes={n_classes})")
    act = np.zeros((n_frames, n_classes), dtype=bool)
    act[frame, class_id] = True
    return act


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

def _runs(index):
    """The distinct values of an ascending index array, and how often each occurs."""
    starts = np.flatnonzero(np.diff(index, prepend=-1))
    return index[starts], np.diff(starts, append=len(index))


def _frame_recall(pred_frame, ref_frame, n_frames):
    """FR from the ascending frame index of every event on each side.

    Only frames that hold events are visited: a frame without events on
    either side is a hit.
    """
    if n_frames == 0:
        raise InputError("cannot compute frame recall over zero frames")
    pf, pc = _runs(pred_frame)
    rf, rc = _runs(ref_frame)
    both, ip, ir = np.intersect1d(pf, rf, assume_unique=True, return_indices=True)
    misses = len(pf) + len(rf) - len(both) - int(np.count_nonzero(pc[ip] == rc[ir]))
    return 100.0 * (n_frames - misses) / n_frames


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


# Frames matched per step: bounds doa_error_accumulate's transient arrays
# (vectors, offsets, angle stacks) whatever the input length, and fixes the
# order in which every DOA total is summed.
_DOA_BLOCK = 2048


def _match_block(n_pred, pred, n_ref, ref):
    """Total matched angle and pair count over one block of frames.

    Each side gives its per-frame vector counts, each at least 1, and its
    flat (sum, 3) stack of vectors, frame by frame. Frames are grouped by
    (|P|, |R|) and each group's (G, |P|, |R|) angle stack comes from one
    angular_distance_deg call. With one event on either side the optimum is
    the smallest angle; only frames of 2x2 or larger go to the assignment
    solver, one frame at a time.
    """
    start_pred = np.cumsum(n_pred) - n_pred
    start_ref = np.cumsum(n_ref) - n_ref
    shapes = n_pred * (1 + n_ref.max(initial=0)) + n_ref  # one key per (|P|, |R|)
    total = 0.0
    pairs = 0
    for shape in np.unique(shapes).tolist():
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


def _block_counts(rows, lo, hi, start):
    """Frames (from `start`) and usable mask of rows [lo, hi), and usable counts per frame."""
    frame = rows.frame[lo:hi] - start
    usable = rows.usable[lo:hi]
    return frame, usable, np.bincount(frame[usable], minlength=_DOA_BLOCK)


def doa_error_accumulate(pred, ref):
    """Total matched angle (degrees) and pair count of two event tables.

    Each frame pairs its usable predicted and reference vectors by optimal
    (Hungarian) assignment on their angle matrix, as SELDnet's DE defines
    it. Frames are matched _DOA_BLOCK at a time, each block's rows found by
    binary search, and the block totals are summed in frame order.
    """
    edges = np.arange(0, max(pred.n_frames, ref.n_frames) + _DOA_BLOCK, _DOA_BLOCK)
    at_pred = np.searchsorted(pred.frame, edges).tolist()
    at_ref = np.searchsorted(ref.frame, edges).tolist()
    total = 0.0
    pairs = 0
    for start, p0, p1, r0, r1 in zip(edges.tolist(), at_pred, at_pred[1:], at_ref, at_ref[1:]):
        if p0 == p1 or r0 == r1:
            continue
        pf, pu, n_pred = _block_counts(pred, p0, p1, start)
        rf, ru, n_ref = _block_counts(ref, r0, r1, start)
        both = (n_pred > 0) & (n_ref > 0)
        angle, n = _match_block(n_pred[both], pred.doa[p0:p1][pu & both[pf]],
                                n_ref[both], ref.doa[r0:r1][ru & both[rf]])
        total += angle
        pairs += n
    return total, pairs


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
    return _annotations(_event_rows(t_len, t, c, v, _row_norms(v)))


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


def evaluate_rows(pred, ref, n_classes, frames_per_segment) -> EvalReport:
    """Compute the full metric report from two event tables.

    Both are scored over the longer table's frames; the other's missing
    frames are empty. The activity limits are checked before anything of
    size frames x classes is allocated.
    """
    n_frames = max(pred.n_frames, ref.n_frames)
    counts = segment_counts(_activity(pred.frame, pred.class_id, n_frames, n_classes),
                            _activity(ref.frame, ref.class_id, n_frames, n_classes),
                            frames_per_segment)
    total, pairs = doa_error_accumulate(pred, ref)
    return EvalReport(
        er=counts.er,
        f1=counts.f1,
        fr=_frame_recall(pred.frame, ref.frame, n_frames),
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


def _kept_rows(t, c):
    """Index of the rows an event table keeps: the last row of each (frame,
    class) key, in ascending key order. Rows whose keys already strictly
    ascend, as write_prediction_csv writes them, are all kept: the index is
    then a slice, so taking them copies nothing.
    """
    key = t * MAX_CLASSES + c  # one key per (frame, class): c < MAX_CLASSES
    if np.all(key[1:] > key[:-1]):
        return slice(None)
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), bool)
    last[:-1] = key[1:] != key[:-1]
    return order[last]


def read_prediction_rows(path) -> EventRows:
    """Read interchange CSV into an event table.

    Rows come back in ascending (frame, class) order, one per key, whatever
    the file's row order; a repeated key keeps its last row's vector.
    n_frames is one past the largest frame index present. Zero vectors are
    not usable (direction unknown); all other vectors are normalized.
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
    v = rows["v"]
    norm = _row_norms(v)
    bad = np.flatnonzero(~np.isfinite(norm))
    if bad.size:
        i = bad[0]
        raise DataError(f"{path}: direction of frame {t[i]}, class {c[i]} has no finite length")
    n_frames = int(t.max()) + 1 if t.size else 0
    keep = _kept_rows(t, c)
    return _event_rows(n_frames, t[keep], c[keep], v[keep], norm[keep])
