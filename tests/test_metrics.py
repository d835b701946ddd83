"""Metric tests: worked examples, invariants, and brute-force oracle duels."""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seldkit import metrics
from seldkit.errors import DataError, FormatError, InputError, NumericError, SeldError
from oracle_metrics import oracle_doa_error, oracle_segment_er_f1, random_metric_case


class TestBinarize:
    def test_boundary_is_inactive(self):
        sed = np.full((3, 2), 0.5)
        assert not metrics.binarize_sed(sed).any()

    def test_threshold_zero(self):
        sed = np.array([[0.0, 1e-9, 0.9]])
        assert np.array_equal(metrics.binarize_sed(sed, 0.0), [[False, True, True]])

    def test_idempotent_on_binary(self):
        act = np.array([[0.0, 1.0], [1.0, 0.0]])
        once = metrics.binarize_sed(act)
        twice = metrics.binarize_sed(once.astype(float))
        assert np.array_equal(once, twice)


class TestSegmentErF1:
    def test_perfect_prediction(self):
        act = np.zeros((8, 3), bool)
        act[1, 0] = act[5, 2] = True
        er, f1 = metrics.segment_er_f1(act, act, 4)
        assert er == 0.0 and f1 == 1.0

    def test_substitution_example(self):
        # one segment; ref {A,B}, pred {A,C} -> S=1, ER=0.5, F1=0.5
        ref = np.zeros((4, 3), bool)
        ref[:, 0] = ref[:, 1] = True
        pred = np.zeros((4, 3), bool)
        pred[:, 0] = pred[:, 2] = True
        counts = metrics.segment_counts(pred, ref, 4)
        assert (counts.tp, counts.fp, counts.fn, counts.s) == (1, 1, 1, 1)
        assert counts.er == 0.5
        assert counts.f1 == 0.5

    def test_empty_prediction_is_all_deletions(self):
        ref = np.zeros((4, 5), bool)
        ref[:, :3] = True  # k = 3 classes
        pred = np.zeros((4, 5), bool)
        counts = metrics.segment_counts(pred, ref, 4)
        assert counts.d == 3
        assert counts.er == 1.0
        assert counts.f1 == 0.0

    def test_zero_reference_gives_absent_er(self):
        pred = np.zeros((4, 2), bool)
        pred[0, 0] = True
        er, f1 = metrics.segment_er_f1(pred, np.zeros((4, 2), bool), 4)
        assert er is None
        assert f1 == 0.0

    def test_partial_trailing_segment_counts(self):
        ref = np.zeros((6, 1), bool)
        ref[5, 0] = True  # only in the trailing 2-frame segment
        pred = np.zeros((6, 1), bool)
        counts = metrics.segment_counts(pred, ref, 4)
        assert counts.n_ref == 1 and counts.d == 1

    def test_er_zero_iff_identical_segment_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            ref = rng.random((12, 3)) < 0.3
            if not ref.any():
                continue
            pred = ref.copy()
            assert metrics.segment_er_f1(pred, ref, 4)[0] == 0.0
            # flip a bit in an empty (segment, class) cell -> ER > 0
            seg_ref = ref.reshape(3, 4, 3).any(axis=1)
            empty = np.argwhere(~seg_ref)
            if len(empty) == 0:
                continue
            s, c = empty[rng.integers(len(empty))]
            pred[s * 4 + rng.integers(4), c] = True
            assert metrics.segment_er_f1(pred, ref, 4)[0] > 0.0

    def test_single_corruption_moves_both_metrics(self):
        rng = np.random.default_rng(1)
        ref = rng.random((16, 4)) < 0.4
        ref[0, 0] = True
        base = metrics.segment_counts(ref, ref, 4)
        seg_ref = ref.reshape(4, 4, 4).any(axis=1)
        empty = np.argwhere(~seg_ref)
        s, c = empty[0]
        pred = ref.copy()
        pred[s * 4, c] = True
        corrupted = metrics.segment_counts(pred, ref, 4)
        assert corrupted.f1 < base.f1
        assert corrupted.er > base.er

    def test_accumulator_concatenation(self):
        rng = np.random.default_rng(2)
        a_pred, a_ref = rng.random((8, 3)) < 0.4, rng.random((8, 3)) < 0.4
        b_pred, b_ref = rng.random((12, 3)) < 0.4, rng.random((12, 3)) < 0.4
        joint = metrics.segment_counts(
            np.vstack([a_pred, b_pred]), np.vstack([a_ref, b_ref]), 4)
        split = metrics.segment_counts(a_pred, a_ref, 4) + metrics.segment_counts(b_pred, b_ref, 4)
        assert joint == split


class TestFrameRecall:
    def make_ann(self, counts):
        return [{c: np.array([1.0, 0.0, 0.0]) for c in range(k)} for k in counts]

    def test_perfect(self):
        ann = self.make_ann([1, 0, 2, 1])
        assert metrics.frame_recall(ann, ann) == 100.0

    def test_silent_prediction_against_40pct_active(self):
        ref = self.make_ann([1, 1, 0, 0, 0, 1, 1, 0, 0, 0])
        pred = self.make_ann([0] * 10)
        assert metrics.frame_recall(pred, ref) == 60.0

    def test_cardinality_only(self):
        ref = [{0: np.array([1.0, 0, 0])}]
        pred = [{3: np.array([0.0, 1.0, 0])}]  # wrong class, same count
        assert metrics.frame_recall(pred, ref) == 100.0

    def test_zero_frames_rejected(self):
        with pytest.raises(InputError):
            metrics.frame_recall([], [])


class TestDoaError:
    def test_identical_gives_zero(self):
        ann = [{0: np.array([0.0, 0.0, 1.0]), 2: np.array([1.0, 0.0, 0.0])}]
        assert metrics.doa_error(ann, ann) == 0.0

    def test_antipodal_is_180(self):
        pred = [{0: np.array([0.0, 0.0, 1.0])}]
        ref = [{0: np.array([0.0, 0.0, -1.0])}]
        assert metrics.doa_error(pred, ref) == pytest.approx(180.0)
        angle = metrics.angular_distance_deg(pred[0][0], ref[0][0])
        assert isinstance(angle, float) and angle == pytest.approx(180.0)

    def test_assignment_swaps(self):
        ref = [{0: np.array([1.0, 0, 0]), 1: np.array([0, 1.0, 0])}]
        pred = [{0: np.array([0, 1.0, 0]), 1: np.array([1.0, 0, 0])}]
        assert metrics.doa_error(pred, ref) == pytest.approx(0.0)

    def test_non_finite_vector_rejected(self):
        pred = [{0: np.array([np.nan, 0.0, 0.0])}]
        ref = [{0: np.array([1.0, 0.0, 0.0])}]
        with pytest.raises(NumericError):
            metrics.doa_error(pred, ref)

    def test_no_pairs_returns_none(self):
        assert metrics.doa_error([{}], [{}]) is None

    def test_none_vectors_skip_matching_but_count_for_recall(self):
        pred = [{0: None}]
        ref = [{0: np.array([1.0, 0, 0])}]
        assert metrics.doa_error(pred, ref) is None
        assert metrics.frame_recall(pred, ref) == 100.0

    def test_dense_frame_is_fast(self):
        # 11 events per side: 11! permutations would take minutes
        rng = np.random.default_rng(8)
        vecs = rng.standard_normal((11, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ref = [{c: vecs[c] for c in range(11)}]
        pred = [{c: vecs[(c + 4) % 11] for c in range(11)}]
        t0 = time.perf_counter()
        total, pairs = metrics.doa_error_accumulate(pred, ref)
        assert time.perf_counter() - t0 < 1.0
        assert pairs == 11
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_with_equal_cardinality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            def frame():
                out = {}
                for c in range(rng.integers(1, 4)):
                    v = rng.standard_normal(3)
                    out[c] = v / np.linalg.norm(v)
                return out
            f = frame()
            g = {c: v for c, v in zip(f, frame().values())}
            while len(g) < len(f):
                v = rng.standard_normal(3)
                g[len(g) + 10] = v / np.linalg.norm(v)
            g = dict(list(g.items())[:len(f)])
            a = metrics.doa_error([f], [g])
            b = metrics.doa_error([g], [f])
            assert a == pytest.approx(b, abs=1e-9)


class TestDoaVectorsFromPrediction:
    def test_normalizes(self):
        act = np.array([[True]])
        doa = np.array([[0.9, 0.0, 0.0]])
        ann = metrics.doa_vectors_from_prediction(act, doa)
        assert np.allclose(ann[0][0], [1.0, 0.0, 0.0])

    def test_inactive_produces_nothing(self):
        act = np.array([[False, True]])
        doa = np.array([[0.5, 0, 0, 0, 0.7, 0]])
        ann = metrics.doa_vectors_from_prediction(act, doa)
        assert 0 not in ann[0] and 1 in ann[0]

    def test_zero_vector_becomes_none(self):
        act = np.array([[True]])
        doa = np.zeros((1, 3))
        ann = metrics.doa_vectors_from_prediction(act, doa)
        assert ann[0][0] is None


class TestOracleDuels:
    def test_er_f1_match_fraction_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            pred_ann, ref_ann, n_classes, fps = random_metric_case(rng)
            pred = metrics.annotation_activity(pred_ann, n_classes)
            ref = metrics.annotation_activity(ref_ann, n_classes)
            counts = metrics.segment_counts(pred, ref, fps)
            er_o, f1_o = oracle_segment_er_f1(pred, ref, fps)
            if er_o is None:
                assert counts.er is None
            else:
                assert Fraction(counts.s + counts.d + counts.i, counts.n_ref) == er_o
            if f1_o is None:
                assert counts.f1 is None
            else:
                assert Fraction(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn) == f1_o

    def test_doa_matches_assignment_oracle(self):
        rng = np.random.default_rng(5)
        cases = [random_metric_case(rng) for _ in range(60)]
        # denser frames (this draw reaches 6 vs 6), still cheap for the
        # oracle's permutation search
        cases.append(random_metric_case(np.random.default_rng(8), max_classes=7,
                                        max_segments=5, max_sources=7))
        for pred_ann, ref_ann, _, _ in cases:
            mine = metrics.doa_error(pred_ann, ref_ann)
            oracle = oracle_doa_error(pred_ann, ref_ann)
            if oracle is None:
                assert mine is None
            else:
                assert mine == pytest.approx(oracle, abs=1e-9)

    def test_doa_accumulator_concatenation(self):
        rng = np.random.default_rng(6)
        a_p, a_r, _, _ = random_metric_case(rng)
        b_p, b_r, _, _ = random_metric_case(rng)
        t1, n1 = metrics.doa_error_accumulate(a_p, a_r)
        t2, n2 = metrics.doa_error_accumulate(b_p, b_r)
        t, n = metrics.doa_error_accumulate(a_p + b_p, a_r + b_r)
        assert n == n1 + n2
        assert t == pytest.approx(t1 + t2, abs=1e-9)


class TestCsvInterchange:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        ann, _, n_classes, _ = random_metric_case(rng)
        path = tmp_path / "pred.csv"
        metrics.write_prediction_csv(path, ann)
        back, n_frames = metrics.read_prediction_csv(path)
        assert n_frames <= len(ann)
        for t in range(n_frames):
            assert set(back[t]) == set(ann[t])
            for c, v in ann[t].items():
                if v is None:
                    assert back[t][c] is None
                else:
                    assert np.allclose(back[t][c], v, atol=1e-9)

    @staticmethod
    def per_row_reader(path):
        """Reference reader: one np.linalg.norm per row, in file order."""
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n_frames = 1 + int(rows[:, 0].max(initial=-1))
        ann = [dict() for _ in range(n_frames)]
        for t, c, *xyz in rows:
            v = np.array(xyz)
            norm = np.linalg.norm(v)
            ann[int(t)][int(c)] = v / norm if norm > 0.0 else None
        return ann, n_frames

    def test_vectorized_norm_matches_per_row(self, tmp_path):
        # the one vectorized norm may differ from the per-row norm in the
        # last bit; the stated tolerance is DE within 1e-12 degrees
        rng = np.random.default_rng(45)
        for case in range(5):
            pred, ref, _, _ = random_metric_case(rng, max_segments=200)
            n = len(pred)
            lines = ["frame_index,class_id,x,y,z"]
            for t, frame in enumerate(pred):
                for c in frame:
                    v = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
                    if rng.random() < 0.05:
                        v[:] = 0.0
                    lines.append(f"{t},{c}," + ",".join(repr(float(a)) for a in v))
            lines.append(f"{n - 1},0,3.0,-4.0,12.0")  # a repeated key: the last row wins
            path = tmp_path / f"pred{case}.csv"
            path.write_text("\n".join(lines) + "\n")
            got, n_got = metrics.read_prediction_csv(path)
            want, n_want = self.per_row_reader(path)
            assert n_got == n_want == n
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                for c in g:
                    assert (g[c] is None) == (w[c] is None)
                    if g[c] is not None:
                        assert np.max(np.abs(g[c] - w[c])) < 1e-15
            de_got, de_want = metrics.doa_error(got, ref), metrics.doa_error(want, ref)
            assert (de_got is None) == (de_want is None)
            if de_got is not None:
                assert abs(de_got - de_want) < 1e-12

    def test_first_bad_direction_is_named(self, tmp_path):
        path = tmp_path / "two_bad.csv"
        path.write_text("frame_index,class_id,x,y,z\n0,0,1,0,0\n3,1,nan,0,0\n2,2,inf,0,0\n")
        with pytest.raises(DataError, match="frame 3, class 1 "):
            metrics.read_prediction_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1,0,0\n")
        with pytest.raises(FormatError):
            metrics.read_prediction_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("frame_index,class_id,x,y,z\n0,zero,1,0,0\n")
        with pytest.raises(FormatError):
            metrics.read_prediction_csv(path)

    @pytest.mark.parametrize("body, error", [
        (b"0,0,1,0,0\xff\n", FormatError),          # not UTF-8
        (b"0,99999999999,1,0,0\n", DataError),       # would size a 93 GiB activity matrix
        (b"99999999999,0,1,0,0\n", DataError),       # would size a 10**11-frame list
        (b"0,0,nan,0,0\n", DataError),               # no usable direction
        (b"0,0,1e308,1e308,0\n", DataError),         # length overflows
    ])
    def test_hostile_rows_rejected_quickly(self, tmp_path, body, error):
        path = tmp_path / "hostile.csv"
        path.write_bytes(b"frame_index,class_id,x,y,z\n" + body)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(error):
                metrics.read_prediction_csv(path)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=64))
    def test_fuzz_bytes_after_header(self, tmp_path_factory, tail):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.csv"
        path.write_bytes(b"frame_index,class_id,x,y,z\n" + tail)
        self.parse_or_seld_error(path)

    FIELDS = st.one_of(
        st.integers(-3, 40).map(str),
        st.floats().map(repr),
        st.sampled_from(["", " 1", "nan", "-inf", "1e308", "1_0", "0x1",
                         str(metrics.MAX_FRAMES), str(metrics.MAX_CLASSES), str(2 ** 64)]),
        st.text(max_size=4),
    )

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(FIELDS, max_size=7), max_size=6))
    def test_fuzz_rows(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "rows.csv"
        text = "frame_index,class_id,x,y,z\n" + "".join(",".join(r) + "\n" for r in rows)
        path.write_text(text, encoding="utf-8")
        self.parse_or_seld_error(path)

    @staticmethod
    def parse_or_seld_error(path):
        try:
            ann, n_frames = metrics.read_prediction_csv(path)
        except SeldError:
            return
        assert len(ann) == n_frames
        for frame in ann:
            for v in frame.values():
                assert v is None or abs(np.linalg.norm(v) - 1.0) < 1e-9


class TestEvaluateAnnotations:
    def test_perfect_report(self):
        ann = [{0: np.array([1.0, 0, 0])}, {}, {1: np.array([0, 1.0, 0])}]
        rep = metrics.evaluate_annotations(ann, ann, n_classes=2, frames_per_segment=2)
        assert rep.er == 0.0 and rep.f1 == 1.0
        assert rep.fr == 100.0 and rep.de == 0.0
