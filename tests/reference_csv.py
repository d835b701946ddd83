"""The csv-module CSV readers, kept as references for the np.loadtxt readers.

They parse each row with the `csv` module, `int()` and `float()`, as the
library's prediction reader and `synth.read_annotation_csv` once did, and
accept a superset of what `metrics.read_prediction_rows` and
`synth.read_annotation_csv` now accept: quoted cells, digit separators
(`1_0`) and non-ASCII digits. The prediction reader returns frame
annotations, one dict per frame; `rows_image` compares them with an event
table through `metrics.rows_from_annotations`.
"""

import csv

import numpy as np

from seldkit import metrics, synth
from seldkit.errors import DataError, FormatError


def csv_module_rows(path, header):
    """Non-blank rows of a UTF-8 CSV whose first row is `header` (cells stripped)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise FormatError(f"{path}: expected header {','.join(header)}")
            for line in reader:
                if line:
                    yield line
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a UTF-8 CSV file: {exc}") from exc


def read_prediction_csv(path):
    """(annotations, n_frames), checking each row as it is parsed."""
    rows = []
    for line in csv_module_rows(path, metrics.CSV_HEADER):
        try:
            t, c = int(line[0]), int(line[1])
            x, y, z = float(line[2]), float(line[3]), float(line[4])
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}: malformed row {line!r}") from exc
        if t < 0 or c < 0:
            raise DataError(f"{path}: negative frame or class index")
        if t >= metrics.MAX_FRAMES or c >= metrics.MAX_CLASSES:
            raise DataError(f"{path}: frame index {t} or class id {c} out of range")
        rows.append((t, c, x, y, z))

    v = np.fromiter((f for r in rows for f in r[2:]), np.float64, 3 * len(rows)).reshape(-1, 3)
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(np.linalg.norm(v, axis=1)))
    if bad.size:
        t, c = rows[bad[0]][:2]
        raise DataError(f"{path}: direction of frame {t}, class {c} has no finite length")
    n_frames = 1 + max((r[0] for r in rows), default=-1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v, axis=1)
    ann = [dict() for _ in range(n_frames)]
    for (t, c, *_), u, n in zip(rows, v, norm):  # a later row replaces an earlier one
        ann[t][c] = u / n if n > 0.0 else None
    return ann, n_frames


def read_annotation_csv(path):
    """EventSpecs, one per row; a row that is not a valid event is a FormatError."""
    events = []
    for line in csv_module_rows(path, synth.ANNOTATION_HEADER):
        try:
            class_id = int(line[2])
            kind, freq = synth.class_template(class_id)
            events.append(synth.EventSpec(
                class_id=class_id,
                onset_s=float(line[0]),
                offset_s=float(line[1]),
                azimuth_deg=float(line[3]),
                elevation_deg=float(line[4]),
                source_kind=kind,
                base_freq_hz=freq,
            ))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}: malformed row {line!r}") from exc
    return events


def rows_image(rows):
    """A comparable image of an event table: n_frames, then each row's frame,
    class and usability, with its vector's bytes where it is usable."""
    return rows.n_frames, [(t, c, ok, v.tobytes() if ok else None)
                           for t, c, ok, v in zip(rows.frame.tolist(), rows.class_id.tolist(),
                                                  rows.usable.tolist(), rows.doa)]


def event_fields(events):
    """Each EventSpec's fields with their types, so 1 and 1.0 or 0.0 and -0.0 differ."""
    return [[(type(x), repr(x)) for x in vars(e).values()] for e in events]
