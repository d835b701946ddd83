"""Tests for FOA encoding, scene synthesis, dataset generation, frame targets."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_csv
from seldkit import dsp, metrics, synth
from seldkit.errors import DataError, FormatError, InputError, SeldError

ANNOTATION_HEADER = b"onset_s,offset_s,class_id,azimuth_deg,elevation_deg\n"


def simple_event(class_id=0, onset=1.0, offset=2.0, az=0.0, el=0.0, kind="tone", freq=440.0):
    return synth.EventSpec(
        class_id=class_id, onset_s=onset, offset_s=offset,
        azimuth_deg=az, elevation_deg=el, source_kind=kind, base_freq_hz=freq,
    )


def csv_writer_annotation_csv(path, events):
    """Reference writer: one csv.writer row per event."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(synth.ANNOTATION_HEADER)
        for e in events:
            writer.writerow([
                f"{e.onset_s:.6f}", f"{e.offset_s:.6f}", e.class_id,
                f"{e.azimuth_deg:.1f}", f"{e.elevation_deg:.1f}",
            ])


class TestEncodeFoa:
    @pytest.mark.parametrize("az,el,gains", [
        (0.0, 0.0, (1.0, 1.0, 0.0, 0.0)),
        (90.0, 0.0, (1.0, 0.0, 1.0, 0.0)),
        (0.0, 90.0, (1.0, 0.0, 0.0, 1.0)),
        (-90.0, 0.0, (1.0, 0.0, -1.0, 0.0)),
    ])
    def test_cardinal_gains(self, az, el, gains):
        mono = np.ones(10)
        out = synth.encode_foa(mono, az, el)
        assert out.shape == (4, 10)
        for ch, g in enumerate(gains):
            assert np.allclose(out[ch], g, atol=1e-12)

    def test_channel_energy_ratios(self):
        # Property: per-channel energy matches the analytic gains within 1%.
        rng = np.random.default_rng(0)
        mono = rng.uniform(-1, 1, 8000)
        az, el = 40.0, -30.0
        out = synth.encode_foa(mono, az, el)
        e_w = np.sum(out[0] ** 2)
        expected = np.array([
            1.0,
            (np.cos(np.radians(az)) * np.cos(np.radians(el))) ** 2,
            (np.sin(np.radians(az)) * np.cos(np.radians(el))) ** 2,
            np.sin(np.radians(el)) ** 2,
        ])
        actual = np.sum(out ** 2, axis=1) / e_w
        assert np.allclose(actual, expected, rtol=0.01, atol=1e-12)

    def test_nonfinite_angles_rejected(self):
        with pytest.raises(InputError):
            synth.encode_foa(np.ones(4), np.nan, 0.0)


class TestEventSpec:
    def test_negative_class_rejected(self):
        with pytest.raises(InputError):
            simple_event(class_id=-1)

    @pytest.mark.parametrize("onset, offset", [
        (float("nan"), 2.0), (1.0, float("nan")), (1.0, float("inf")), (-float("inf"), 2.0),
    ])
    def test_non_finite_times_rejected(self, onset, offset):
        with pytest.raises(InputError):
            simple_event(onset=onset, offset=offset)


class TestSynthScene:
    def test_empty_scene_is_silent(self):
        clip, ann = synth.synth_scene(synth.SceneSpec(duration_s=1.0, sample_rate_hz=8000))
        assert clip.samples.shape == (4, 8000)
        assert np.all(clip.samples == 0.0)
        assert ann == []

    def test_energy_confined_to_event_span(self):
        # Oracle: integrate energy inside and outside [onset, offset].
        spec = synth.SceneSpec(
            duration_s=4.0, sample_rate_hz=16000,
            events=[simple_event(onset=1.0, offset=2.0, freq=500.0)], seed=3,
        )
        clip, _ = synth.synth_scene(spec)
        energy = clip.samples[0].astype(np.float64) ** 2
        inside = energy[16000:32000].sum()
        outside = energy.sum() - inside
        assert outside < 0.01 * energy.sum()
        assert inside > 0.0

    def test_peak_normalized(self):
        spec = synth.SceneSpec(
            duration_s=2.0, sample_rate_hz=8000,
            events=[simple_event(onset=0.2, offset=1.5)], seed=1,
        )
        clip, _ = synth.synth_scene(spec)
        assert np.max(np.abs(clip.samples)) == pytest.approx(0.9, abs=1e-6)

    def test_deterministic(self):
        spec = synth.SceneSpec(
            duration_s=2.0, sample_rate_hz=8000,
            events=[simple_event(kind="noise_burst"), simple_event(class_id=1, onset=0.1, offset=0.9)],
            seed=42,
        )
        a, _ = synth.synth_scene(spec)
        b, _ = synth.synth_scene(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_overlap_violation_rejected(self):
        events = [simple_event(onset=0.0, offset=2.0),
                  simple_event(class_id=1, onset=0.5, offset=2.0)]
        spec = synth.SceneSpec(duration_s=2.0, sample_rate_hz=8000,
                               events=events, max_overlap=1)
        with pytest.raises(InputError):
            synth.synth_scene(spec)

    def test_event_outside_duration_rejected(self):
        spec = synth.SceneSpec(duration_s=1.0, sample_rate_hz=8000,
                               events=[simple_event(onset=0.5, offset=1.5)])
        with pytest.raises(InputError):
            synth.synth_scene(spec)

    @pytest.mark.parametrize("duration_s, sample_rate_hz", [
        (float("nan"), 8000), (float("inf"), 8000), (-1.0, 8000), (0.0, 8000),
        (1.0, float("nan")), (1.0, float("inf")), (1.0, 0),
    ])
    def test_bad_duration_or_rate_rejected(self, duration_s, sample_rate_hz):
        spec = synth.SceneSpec(duration_s=duration_s, sample_rate_hz=sample_rate_hz)
        with pytest.raises(InputError, match="finite and positive"):
            synth.synth_scene(spec)

    def test_wav_limits(self):
        # checked before anything is rendered; the limits themselves pass
        synth._check_duration_and_rate(float(synth._MAX_WAV_FRAMES), 1)
        synth._check_duration_and_rate(1e-6, synth._MAX_WAV_RATE_HZ)
        for duration_s, sample_rate_hz in [(synth._MAX_WAV_FRAMES + 1.0, 1),
                                           (1e300, 16000), (1e-6, synth._MAX_WAV_RATE_HZ + 1)]:
            spec = synth.SceneSpec(duration_s=duration_s, sample_rate_hz=sample_rate_hz)
            with pytest.raises(InputError, match="does not fit a float32 WAV"):
                synth.synth_scene(spec)

    @pytest.mark.parametrize("kind", ["tone", "noise_burst", "chirp"])
    def test_source_kinds_render(self, kind):
        spec = synth.SceneSpec(
            duration_s=1.0, sample_rate_hz=8000,
            events=[simple_event(onset=0.05, offset=0.9, kind=kind, freq=600.0)], seed=5,
        )
        clip, _ = synth.synth_scene(spec)
        assert np.all(np.isfinite(clip.samples))
        assert np.max(np.abs(clip.samples)) == pytest.approx(0.9, abs=1e-6)


class TestMakeDataset:
    def test_split_counts_and_files(self, tmp_path):
        manifest = synth.make_dataset(
            10, class_count=2, out_dir=tmp_path, seed=7,
            duration_s=2.0, sample_rate_hz=8000)
        assert len(manifest["train"]) == 6
        assert len(manifest["val"]) == 2
        assert len(manifest["test"]) == 2
        for split in ("train", "val", "test"):
            listed = (tmp_path / f"{split}.txt").read_text().splitlines()
            assert listed == manifest[split]
            for name in listed:
                assert (tmp_path / name).exists()
                assert (tmp_path / name).with_suffix(".csv").exists()

    def test_class_ids_bounded(self, tmp_path):
        synth.make_dataset(6, class_count=3, out_dir=tmp_path, seed=1,
                           duration_s=2.0, sample_rate_hz=8000)
        for csv_path in tmp_path.glob("*.csv"):
            for e in synth.read_annotation_csv(csv_path):
                assert 0 <= e.class_id < 3

    @pytest.mark.parametrize("duration_s, sample_rate_hz", [
        (float("nan"), 8000), (float("inf"), 8000), (-1.0, 8000), (2.0, float("nan")),
    ])
    def test_bad_duration_or_rate_rejected_before_writing(self, tmp_path, duration_s,
                                                          sample_rate_hz):
        with pytest.raises(InputError, match="finite and positive"):
            synth.make_dataset(5, 2, tmp_path / "ds", seed=1, duration_s=duration_s,
                               sample_rate_hz=sample_rate_hz)
        assert not (tmp_path / "ds").exists()

    def test_regeneration_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        synth.make_dataset(5, 2, a_dir, seed=9, duration_s=2.0, sample_rate_hz=8000)
        synth.make_dataset(5, 2, b_dir, seed=9, duration_s=2.0, sample_rate_hz=8000)
        for f in sorted(a_dir.iterdir()):
            assert (b_dir / f.name).read_bytes() == f.read_bytes()

    def test_overlap_constraint_holds_everywhere(self, tmp_path):
        synth.make_dataset(8, 3, tmp_path, seed=11, duration_s=4.0,
                           sample_rate_hz=8000, max_overlap=2)
        for csv_path in tmp_path.glob("*.csv"):
            events = synth.read_annotation_csv(csv_path)
            assert synth.max_concurrent_events(events) <= 2

    def test_too_few_scenes_rejected(self, tmp_path):
        with pytest.raises(InputError):
            synth.make_dataset(4, 2, tmp_path)

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_bad_seed_rejected_before_any_file(self, tmp_path, seed):
        with pytest.raises(InputError, match="seed"):
            synth.make_dataset(5, 2, tmp_path / "out", seed=seed)
        assert not (tmp_path / "out").exists()

    def test_annotation_roundtrip(self, tmp_path):
        events = [simple_event(az=-170.0, el=60.0, freq=300.0),
                  simple_event(class_id=1, onset=2.25, offset=3.5, az=10.0, freq=600.0)]
        path = tmp_path / "ann.csv"
        synth.write_annotation_csv(path, events)
        back = synth.read_annotation_csv(path)
        assert len(back) == 2
        for orig, got in zip(events, back):
            assert got.class_id == orig.class_id
            assert got.onset_s == pytest.approx(orig.onset_s, abs=1e-6)
            assert got.offset_s == pytest.approx(orig.offset_s, abs=1e-6)
            assert got.azimuth_deg == orig.azimuth_deg
            assert got.elevation_deg == orig.elevation_deg

    def test_annotation_writer_matches_csv_writer_reference(self, tmp_path):
        events = [simple_event(onset=0.0, offset=1e-6, az=-180.0, el=-60.0),
                  simple_event(class_id=12, onset=1.0000005, offset=29.9999994,
                               az=-0.04, el=-0.0),
                  simple_event(class_id=3, onset=1 / 3, offset=2 / 3, az=179.95, el=59.96)]
        for n in (0, 1, 3):
            out, ref = tmp_path / f"out{n}.csv", tmp_path / f"ref{n}.csv"
            synth.write_annotation_csv(out, events[:n])
            csv_writer_annotation_csv(ref, events[:n])
            assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("body", [
        b"1.0,2.0,0,10.0,0.0\xff\n",   # not UTF-8
        b"1.0,2.0,-1,10.0,0.0\n",      # negative class id
        b"nan,2.0,0,10.0,0.0\n",       # would give all-zero targets
        b"1.0,inf,0,10.0,0.0\n",
    ])
    def test_hostile_rows_rejected(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(ANNOTATION_HEADER + body)
        with pytest.raises(FormatError):
            synth.read_annotation_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=64))
    def test_fuzz_bytes_after_header(self, tmp_path_factory, tail):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.csv"
        path.write_bytes(ANNOTATION_HEADER + tail)
        self.parse_or_seld_error(path)

    FIELDS = st.one_of(
        st.integers(-3, 40).map(str),
        st.floats().map(repr),
        st.sampled_from(["", " 1", "nan", "-inf", "1e308", "1_0", "180", "-60", str(2 ** 64)]),
        st.text(max_size=4),
    )

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(FIELDS, max_size=6), max_size=5))
    def test_fuzz_rows(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "rows.csv"
        text = "".join(",".join(r) + "\n" for r in rows)
        path.write_bytes(ANNOTATION_HEADER + text.encode("utf-8"))
        self.parse_or_seld_error(path)

    @staticmethod
    def parse_or_seld_error(path):
        """Parse or raise SeldError; what parses gives well-formed targets."""
        try:
            events = synth.read_annotation_csv(path)
        except SeldError:
            return
        for e in events:
            assert e.class_id >= 0 and np.isfinite(e.onset_s) and e.onset_s < e.offset_s
        try:
            synth.frame_targets(events, 8, 0.5, 3)
        except DataError:  # a class id beyond n_sed
            pass


class TestAnnotationReaderReference:
    """read_annotation_csv against the csv-module reference in reference_csv."""

    @staticmethod
    def assert_same_events(path):
        got = reference_csv.event_fields(synth.read_annotation_csv(path))
        assert got == reference_csv.event_fields(reference_csv.read_annotation_csv(path))

    def test_matches_csv_module_on_random_scenes(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "ann.csv"
        for i in range(20):
            spec = synth._random_scene(rng, 11, 30.0, 16000, 3, i)
            synth.write_annotation_csv(path, spec.events)
            self.assert_same_events(path)

    def test_matches_csv_module_on_odd_but_valid_text(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_bytes(b" onset_s , offset_s,class_id,azimuth_deg , elevation_deg \r\n\n"
                         b" 0.1 , 2.5e0 , +3 , -0.0 , 60 ,extra\r\n\n"
                         b"1e-3,1.0000005,007,-180,-60.0\n"
                         b"0,1,0,179.9999,0")
        self.assert_same_events(path)
        assert len(synth.read_annotation_csv(path)) == 3

    @pytest.mark.parametrize("body", [
        b"1.0,2.0,0,10.0,0.0\xff\n",
        b"1.0,2.0,-1,10.0,0.0\n",
        b"nan,2.0,0,10.0,0.0\n",
        b"1.0,inf,0,10.0,0.0\n",
        b"2.0,1.0,0,10.0,0.0\n",      # offset before onset
        b"1.0,2.0,0,180.0,0.0\n",     # azimuth outside [-180, 180)
        b"1.0,2.0,0,10.0,61\n",
        b"1.0,2.0,zero,10.0,0.0\n",
        b"1.0,2.0,1.0,10.0,0.0\n",    # a float class id
        b"1.0,2.0,0,10.0\n",
        b"  \n",
    ])
    def test_hostile_input_same_error_class(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(ANNOTATION_HEADER + body)
        with pytest.raises(SeldError) as want:
            reference_csv.read_annotation_csv(path)
        with pytest.raises(want.type):
            synth.read_annotation_csv(path)

    @pytest.mark.parametrize("body", [
        "1.0,2.0,\U0001f600,10.0,0.0\n",
        "1.0,2.0,\u0661,10.0,0.0\n",     # ARABIC-INDIC DIGIT ONE, which int() accepts
        "1.0,2.0,0,10.0,0.0 #\n",
        '1.0,2.0,"0",10.0,0.0\n',
        "1.0,2.0,1_0,10.0,0.0\n",
        f"1.0,2.0,{2 ** 64},10.0,0.0\n",  # a class id beyond int64
    ])
    def test_narrowed_accept_set(self, tmp_path, body):
        path = tmp_path / "narrow.csv"
        path.write_bytes(ANNOTATION_HEADER + body.encode("utf-8"))
        with pytest.raises(FormatError):
            synth.read_annotation_csv(path)

    ASCII_FIELDS = st.one_of(
        st.integers(-3, 40).map(str),
        st.floats().map(repr),
        st.sampled_from(["", " 1", "+2", "007", "nan", "-inf", "1e308", ".5", "180", "-60",
                         "1_0", '"1"', "0x1", "#", "\t3", str(2 ** 64)]),
        st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=4),
    )

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(ASCII_FIELDS, max_size=6), max_size=5))
    def test_fuzz_agrees_with_csv_module(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "rows.csv"
        text = "".join(",".join(r) + "\n" for r in rows)
        path.write_bytes(ANNOTATION_HEADER + text.encode("ascii"))
        try:
            want = reference_csv.event_fields(reference_csv.read_annotation_csv(path))
        except SeldError:
            want = None
        try:
            got = reference_csv.event_fields(synth.read_annotation_csv(path))
        except SeldError:
            got = None
        if got is not None:
            assert got == want
        elif want is not None:
            assert "_" in text or '"' in text or str(2 ** 64) in text


class TestReadDataset:
    def test_make_dataset_roundtrip(self, tmp_path, monkeypatch):
        written = []

        def record(write, kind):
            def wrapper(path, value, *args, **kwargs):
                written.append((kind, path.name, value))
                return write(path, value, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(synth.dsp, "write_wav", record(synth.dsp.write_wav, "clip"))
        monkeypatch.setattr(synth, "write_annotation_csv",
                            record(synth.write_annotation_csv, "events"))
        manifest = synth.make_dataset(5, 3, tmp_path, seed=7, duration_s=3.0,
                                      sample_rate_hz=8000)
        clips = {name: v for kind, name, v in written if kind == "clip"}
        events = {name: v for kind, name, v in written if kind == "events"}

        scenes = list(synth.read_dataset(tmp_path))
        listed = [(split, name) for split in synth.SPLITS for name in manifest[split]]
        assert [split for split, _, _ in scenes] == [split for split, _ in listed] \
            == ["train"] * 3 + ["val", "test"]
        for (_, clip, got), (_, name) in zip(scenes, listed):
            assert clip.sample_rate_hz == clips[name].sample_rate_hz == 8000
            assert clip.samples.dtype == np.float32
            assert np.array_equal(clip.samples, clips[name].samples)
            assert got == events[name.replace(".wav", ".csv")]

    def test_blank_manifest_lines_skipped(self, tmp_path):
        manifest = synth.make_dataset(5, 2, tmp_path, seed=1, duration_s=2.0,
                                      sample_rate_hz=8000)
        (tmp_path / "val.txt").write_text("\n" + manifest["val"][0] + "\n\n")
        assert [s for s, _, _ in synth.read_dataset(tmp_path)].count("val") == 1

    @pytest.fixture()
    def dataset(self, tmp_path):
        synth.make_dataset(5, 2, tmp_path, seed=1, duration_s=2.0, sample_rate_hz=8000)
        return tmp_path

    @pytest.mark.parametrize("split", synth.SPLITS)
    def test_undecodable_manifest_is_format_error(self, dataset, split):
        manifest = dataset / f"{split}.txt"
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        with pytest.raises(FormatError, match=f"{split}.txt"):
            list(synth.read_dataset(dataset))

    def test_nul_in_name_is_data_error(self, dataset):
        manifest = dataset / "val.txt"
        manifest.write_bytes(b"scene_0003.wav\x00\n" + manifest.read_bytes())
        with pytest.raises(DataError, match="NUL"):
            list(synth.read_dataset(dataset))

    @pytest.mark.parametrize("split", synth.SPLITS)
    def test_missing_manifest_is_data_error(self, dataset, split):
        (dataset / f"{split}.txt").unlink()
        with pytest.raises(DataError, match=f"missing split manifest .*{split}.txt"):
            list(synth.read_dataset(dataset))

    def test_manifests_checked_before_any_scene_is_read(self, dataset, monkeypatch):
        (dataset / "test.txt").unlink()
        monkeypatch.setattr(synth.dsp, "read_wav", None)  # any scene read would fail
        with pytest.raises(DataError):
            next(synth.read_dataset(dataset))


class TestFrameTargets:
    def test_doa_target_at_azimuth_zero(self):
        events = [simple_event(onset=0.0, offset=1.0, az=0.0, el=0.0)]
        sed, doa = synth.frame_targets(events, n_frames=10, hop_s=0.05, n_sed=2)
        assert sed[0, 0] == 1.0
        assert np.allclose(doa[0, :3], [1.0, 0.0, 0.0])
        assert np.all(doa[0, 3:] == 0.0)

    def test_inactive_frames_all_zero(self):
        events = [simple_event(onset=1.0, offset=2.0)]
        sed, doa = synth.frame_targets(events, n_frames=10, hop_s=0.05, n_sed=1)
        assert np.all(sed == 0.0) is not None
        assert sed.sum() == 0.0  # all frame centers fall before the onset
        assert np.all(doa == 0.0)

    def test_frame_center_coverage_count(self):
        # Event covering frame centers 10..20 -> exactly 11 active frames.
        hop = 0.1
        onset = (10 + 0.5) * hop - 1e-9
        offset = (20 + 0.5) * hop + 1e-9
        events = [simple_event(onset=onset, offset=offset)]
        sed, _ = synth.frame_targets(events, n_frames=40, hop_s=hop, n_sed=1)
        assert sed[:, 0].sum() == 11
        assert np.array_equal(np.nonzero(sed[:, 0])[0], np.arange(10, 21))

    def test_class_out_of_range_rejected(self):
        with pytest.raises(DataError):
            synth.frame_targets([simple_event(class_id=5)], 10, 0.1, n_sed=2)

    def test_unit_vector_definition(self):
        v = synth.unit_vector(90.0, 0.0)
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)
        v = synth.unit_vector(45.0, 45.0)
        c = np.cos(np.radians(45.0))
        assert np.allclose(v, [c * c, c * c, np.sin(np.radians(45.0))], atol=1e-12)

    def test_roundtrip_through_metrics_is_perfect(self):
        # Invariant: targets from annotations, decoded back into frame
        # annotations, evaluate perfectly against themselves.
        events = [
            simple_event(onset=0.5, offset=2.0, az=30.0, el=-20.0),
            simple_event(class_id=1, onset=1.0, offset=2.4, az=-50.0, el=10.0),
        ]
        sed, doa = synth.frame_targets(events, n_frames=50, hop_s=0.06, n_sed=2)
        activity = metrics.binarize_sed(sed, 0.5)
        ann = metrics.doa_vectors_from_prediction(activity, doa)
        report = metrics.evaluate_annotations(ann, ann, n_classes=2, frames_per_segment=16)
        assert report.er == 0.0 and report.f1 == 1.0
        assert report.fr == 100.0 and report.de == 0.0


class TestSceneFeaturesIntegration:
    def test_tone_class_dominates_expected_bin(self):
        # End-to-end sanity: a class-0 tone at 300 Hz shows up at the right
        # STFT bin of the W channel.
        spec = synth.SceneSpec(
            duration_s=2.0, sample_rate_hz=16000,
            events=[simple_event(onset=0.3, offset=1.7, freq=300.0)], seed=2,
        )
        clip, _ = synth.synth_scene(spec)
        feats = dsp.stft_features(clip)
        mid = feats.values[0, feats.n_frames // 2]
        expected_bin = round(300.0 * 512 / 16000) - 1  # DC dropped
        assert abs(int(np.argmax(mid)) - expected_bin) <= 1
