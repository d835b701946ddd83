"""Deterministic synthetic first-order-ambisonics scenes with exact ground truth.

Scenes place class-templated sources (tones by default) on a 10-degree
angular grid, encode them to 4-channel FOA (W, X, Y, Z) and sum them.
Datasets are written as WAV + annotation CSV pairs plus train/val/test
split manifests, and read back by read_dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .errors import DataError, FormatError, InputError, check_seed
from .metrics import _csv_rows

FADE_S = 0.010
PEAK_NORM = 0.9
ANNOTATION_HEADER = ["onset_s", "offset_s", "class_id", "azimuth_deg", "elevation_deg"]
SOURCE_KINDS = ("tone", "noise_burst", "chirp")
SPLITS = ("train", "val", "test")
_TRAIN_FRACTION, _VAL_FRACTION = 0.6, 0.2  # the test split takes the rest


@dataclass
class EventSpec:
    """One sound event: class, time span, direction, and source template."""

    class_id: int
    onset_s: float
    offset_s: float
    azimuth_deg: float
    elevation_deg: float
    source_kind: str = "tone"
    base_freq_hz: float = 440.0

    def __post_init__(self):
        if self.class_id < 0:
            raise InputError("class_id must be >= 0")
        if not (np.isfinite(self.onset_s) and np.isfinite(self.offset_s)):
            raise InputError("event onset and offset must be finite")
        if self.offset_s <= self.onset_s:
            raise InputError("event offset must be after onset")
        if self.source_kind not in SOURCE_KINDS:
            raise InputError(f"unknown source kind {self.source_kind!r}")
        if not -180.0 <= self.azimuth_deg < 180.0:
            raise InputError("azimuth must lie in [-180, 180)")
        if not -60.0 <= self.elevation_deg <= 60.0:
            raise InputError("elevation must lie in [-60, 60]")


@dataclass
class SceneSpec:
    """A full scene: duration, rate, events, and the rendering seed."""

    duration_s: float
    sample_rate_hz: int
    events: list = field(default_factory=list)
    max_overlap: int = 3
    seed: int = 0


def unit_vector(azimuth_deg, elevation_deg):
    """Unit DOA vector (x, y, z) for an azimuth/elevation pair in degrees."""
    az = np.radians(azimuth_deg)
    el = np.radians(elevation_deg)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


def encode_foa(mono, azimuth_deg, elevation_deg):
    """Encode a mono source into 4-channel FOA (W, X, Y, Z order).

    W carries the source unscaled; X/Y/Z carry the SN3D-style dipole gains
    cos(az)cos(el), sin(az)cos(el), sin(el), the direction's unit_vector.
    """
    if not (np.isfinite(azimuth_deg) and np.isfinite(elevation_deg)):
        raise InputError("angles must be finite")
    mono = np.asarray(mono, dtype=np.float64)
    gains = np.concatenate(([1.0], unit_vector(azimuth_deg, elevation_deg)))
    return gains[:, None] * mono[None, :]


def _render_source(event: EventSpec, sample_rate_hz, rng):
    """Render the mono waveform of one event, including cosine fades."""
    n = int(round((event.offset_s - event.onset_s) * sample_rate_hz))
    if n <= 0:
        raise InputError("event is shorter than one sample")
    t = np.arange(n) / sample_rate_hz
    if event.source_kind == "tone":
        x = np.sin(2 * np.pi * event.base_freq_hz * t)
    elif event.source_kind == "chirp":
        # linear sweep from the base frequency to twice the base frequency
        dur = n / sample_rate_hz
        x = np.sin(2 * np.pi * (event.base_freq_hz * t + event.base_freq_hz / (2 * dur) * t * t))
    else:  # noise_burst
        x = rng.uniform(-1.0, 1.0, n)

    n_fade = min(int(round(FADE_S * sample_rate_hz)), n // 2)
    if n_fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)
        x[:n_fade] *= ramp
        x[-n_fade:] *= ramp[::-1]
    return x


def max_concurrent_events(events):
    """Largest number of events overlapping at any time instant."""
    edges = []
    for e in events:
        edges.append((e.onset_s, 1))
        edges.append((e.offset_s, -1))
    edges.sort()
    level = peak = 0
    for _, delta in edges:
        level += delta
        peak = max(peak, level)
    return peak


def _check_duration_and_rate(duration_s, sample_rate_hz):
    if not (0 < duration_s < np.inf and 0 < sample_rate_hz < np.inf):
        raise InputError("scene duration and sample rate must be finite and positive")


def synth_scene(spec: SceneSpec):
    """Render a scene to an AudioClip; returns (clip, annotations).

    Each event is rendered from its class template, FOA-encoded at its
    direction and summed; the mix is peak-normalized to 0.9. Annotations
    echo the event list exactly.
    """
    _check_duration_and_rate(spec.duration_s, spec.sample_rate_hz)
    for e in spec.events:
        if e.onset_s < 0 or e.offset_s > spec.duration_s:
            raise InputError("event extends outside the scene")
    if max_concurrent_events(spec.events) > spec.max_overlap:
        raise InputError(f"more than {spec.max_overlap} events overlap")

    n = int(round(spec.duration_s * spec.sample_rate_hz))
    mix = np.zeros((4, n), dtype=np.float64)
    for i, event in enumerate(sorted(spec.events, key=lambda e: (e.onset_s, e.class_id))):
        rng = np.random.default_rng((spec.seed, i))
        mono = _render_source(event, spec.sample_rate_hz, rng)
        start = int(round(event.onset_s * spec.sample_rate_hz))
        stop = min(start + len(mono), n)
        mix[:, start:stop] += encode_foa(mono[:stop - start],
                                         event.azimuth_deg, event.elevation_deg)
    peak = np.max(np.abs(mix))
    if peak > 0.0:
        mix *= PEAK_NORM / peak
    clip = dsp.AudioClip(samples=mix.astype(np.float32), sample_rate_hz=spec.sample_rate_hz)
    return clip, list(spec.events)


def class_template(class_id):
    """Deterministic source template for a class: a tone at 300*(c+1) Hz."""
    return "tone", 300.0 * (class_id + 1)


def _random_scene(rng, class_count, duration_s, sample_rate_hz, max_overlap, seed):
    """Sample a scene spec with grid angles and the overlap budget enforced."""
    n_events = int(rng.integers(2, max(3, int(duration_s / 2.0)) + 1))
    events = []
    for _ in range(n_events):
        for _attempt in range(60):
            dur = float(rng.uniform(0.8, 2.5))
            onset = float(rng.uniform(0.0, max(duration_s - dur, 1e-3)))
            class_id = int(rng.integers(class_count))
            kind, freq = class_template(class_id)
            candidate = EventSpec(
                class_id=class_id,
                onset_s=round(onset, 6),
                offset_s=round(min(onset + dur, duration_s), 6),
                azimuth_deg=float(rng.integers(-18, 18) * 10),
                elevation_deg=float(rng.integers(-6, 7) * 10),
                source_kind=kind,
                base_freq_hz=freq,
            )
            if max_concurrent_events(events + [candidate]) <= max_overlap:
                events.append(candidate)
                break
    return SceneSpec(
        duration_s=duration_s,
        sample_rate_hz=sample_rate_hz,
        events=events,
        max_overlap=max_overlap,
        seed=seed,
    )


def write_annotation_csv(path, events):
    """One row per event; times as %.6f, angles as %.1f, written with one call."""
    rows = ["%.6f,%.6f,%d,%.1f,%.1f\n" % (e.onset_s, e.offset_s, e.class_id,
                                          e.azimuth_deg, e.elevation_deg) for e in events]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ANNOTATION_HEADER) + "\n" + "".join(rows))


_ANNOTATION_ROW = np.dtype([("onset_s", "<f8"), ("offset_s", "<f8"), ("class_id", "<i8"),
                            ("azimuth_deg", "<f8"), ("elevation_deg", "<f8")])


def read_annotation_csv(path):
    """Annotation CSV back into EventSpec objects (templates re-derived).

    A cell that does not parse, or a row that is not a valid EventSpec, is a
    FormatError.
    """
    events = []
    for onset, offset, class_id, az, el in _csv_rows(path, ANNOTATION_HEADER,
                                                     _ANNOTATION_ROW).tolist():
        kind, freq = class_template(class_id)
        try:
            events.append(EventSpec(class_id=class_id, onset_s=onset, offset_s=offset,
                                    azimuth_deg=az, elevation_deg=el,
                                    source_kind=kind, base_freq_hz=freq))
        except InputError as exc:
            raise FormatError(f"{path}: invalid event {(onset, offset, class_id, az, el)}: "
                              f"{exc}") from exc
    return events


def make_dataset(n_scenes, class_count, out_dir, seed=0,
                 duration_s=10.0, sample_rate_hz=16000, max_overlap=3):
    """Write a synthetic dataset: WAV + CSV per scene, plus split manifests.

    Splits are assigned by scene order: floor(0.6 n) train, floor(0.2 n)
    validation, remainder test. Returns the manifest as a dict of
    split name -> list of relative WAV paths.
    """
    if n_scenes < 5:
        raise InputError("need at least 5 scenes for non-empty splits")
    if class_count < 1:
        raise InputError("class_count must be >= 1")
    _check_duration_and_rate(duration_s, sample_rate_hz)
    check_seed(seed)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create dataset directory {out}: {exc}") from exc

    rng = np.random.default_rng(seed)
    names = []
    for i in range(n_scenes):
        scene_seed = int(rng.integers(0, 2 ** 62))
        spec = _random_scene(rng, class_count, duration_s, sample_rate_hz,
                             max_overlap, scene_seed)
        clip, events = synth_scene(spec)
        name = f"scene_{i:04d}"
        dsp.write_wav(out / f"{name}.wav", clip, encoding="float32")
        write_annotation_csv(out / f"{name}.csv", events)
        names.append(f"{name}.wav")

    n_train = int(n_scenes * _TRAIN_FRACTION)
    ends = (0, n_train, n_train + int(n_scenes * _VAL_FRACTION), n_scenes)
    manifest = {split: names[a:b] for split, a, b in zip(SPLITS, ends, ends[1:])}
    for split, entries in manifest.items():
        (out / f"{split}.txt").write_text("".join(e + "\n" for e in entries), "utf-8")
    return manifest


def read_dataset(dataset_dir):
    """Yield (split, clip, events) per scene of a make_dataset directory, lazily.

    All three manifests (UTF-8, one WAV name per line) are checked before the
    first scene is read: a missing one or a name containing NUL is a
    DataError, undecodable bytes a FormatError.
    """
    root = Path(dataset_dir)
    scenes = []
    for split in SPLITS:
        manifest = root / f"{split}.txt"
        if not manifest.exists():
            raise DataError(f"missing split manifest {manifest}")
        try:
            names = [name for name in manifest.read_text("utf-8").splitlines() if name]
        except UnicodeDecodeError as exc:
            raise FormatError(f"{manifest}: not a UTF-8 text file: {exc}") from exc
        if any("\0" in name for name in names):
            raise DataError(f"{manifest}: a scene name contains a NUL byte")
        scenes += [(split, root / name) for name in names]
    for split, wav in scenes:
        yield split, dsp.read_wav(wav), read_annotation_csv(wav.with_suffix(".csv"))


def frame_targets(annotations, n_frames, hop_s, n_sed):
    """Per-frame SED/DOA training targets from event annotations.

    A class is active at frame t when an event of that class covers the
    frame-center time (t + 0.5) * hop_s. Active classes carry their unit
    DOA vector; inactive classes carry the zero vector.
    """
    sed = np.zeros((n_frames, n_sed), dtype=np.float32)
    doa = np.zeros((n_frames, 3 * n_sed), dtype=np.float32)
    centers = (np.arange(n_frames) + 0.5) * hop_s
    for event in annotations:
        if event.class_id >= n_sed:
            raise DataError(f"class_id {event.class_id} >= n_sed {n_sed}")
        active = (centers >= event.onset_s) & (centers < event.offset_s)
        c = event.class_id
        sed[active, c] = 1.0
        doa[active, 3 * c:3 * c + 3] = unit_vector(
            event.azimuth_deg, event.elevation_deg)
    return sed, doa
