"""Metric tests: worked examples, invariants, and brute-force oracle duels."""

import contextlib
import csv
import io
import os
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import reference_csv
from seldkit import cli, metrics, synth
from seldkit.errors import DataError, FormatError, InputError, NumericError, SeldError
from oracle_metrics import (oracle_activity, oracle_doa_error, oracle_segment_counts,
                            oracle_segment_er_f1, random_metric_case)
from traced_memory import traced_peak


def tables(*anns):
    """The event table of each frame annotation list."""
    return [metrics.rows_from_annotations(ann) for ann in anns]


def evaluate(pred_ann, ref_ann, n_classes=None, frames_per_segment=1):
    """evaluate_rows on two frame annotation lists; n_classes defaults to one
    past the largest class id on either side."""
    pred, ref = tables(pred_ann, ref_ann)
    if n_classes is None:
        n_classes = 1 + int(max(pred.class_id.max(initial=0), ref.class_id.max(initial=0)))
    return metrics.evaluate_rows(pred, ref, n_classes, frames_per_segment)


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
        counts = metrics.segment_counts(act, act, 4)
        assert counts.er == 0.0 and counts.f1 == 1.0

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
        counts = metrics.segment_counts(pred, np.zeros((4, 2), bool), 4)
        assert counts.er is None
        assert counts.f1 == 0.0

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
            assert metrics.segment_counts(pred, ref, 4).er == 0.0
            # flip a bit in an empty (segment, class) cell -> ER > 0
            seg_ref = ref.reshape(3, 4, 3).any(axis=1)
            empty = np.argwhere(~seg_ref)
            if len(empty) == 0:
                continue
            s, c = empty[rng.integers(len(empty))]
            pred[s * 4 + rng.integers(4), c] = True
            assert metrics.segment_counts(pred, ref, 4).er > 0.0

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

    @staticmethod
    def per_segment_loop(pred, ref, frames_per_segment):
        """Reference counter: one Python step per segment."""
        counts = metrics.SedCounts()
        for start in range(0, pred.shape[0], frames_per_segment):
            p = pred[start:start + frames_per_segment].any(axis=0)
            r = ref[start:start + frames_per_segment].any(axis=0)
            fp, fn = int(np.sum(p & ~r)), int(np.sum(~p & r))
            counts += metrics.SedCounts(int(np.sum(p & r)), fp, fn, min(fn, fp),
                                        max(0, fn - fp), max(0, fp - fn), int(np.sum(r)))
        return counts

    def test_counts_equal_per_segment_loop(self):
        rng = np.random.default_rng(18)
        for t_len, n_classes, fps in [(0, 3, 4), (1, 1, 4), (7, 2, 10), (50, 11, 50),
                                      (203, 11, 50), (64, 5, 1), (97, 4, 8)]:
            pred = rng.random((t_len, n_classes)) < 0.2
            ref = rng.random((t_len, n_classes)) < 0.2
            got = metrics.segment_counts(pred, ref, fps)
            assert got == self.per_segment_loop(pred, ref, fps)
            assert all(type(x) is int for x in got._tuple())

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
        assert evaluate(ann, ann).fr == 100.0

    def test_silent_prediction_against_40pct_active(self):
        ref = self.make_ann([1, 1, 0, 0, 0, 1, 1, 0, 0, 0])
        pred = self.make_ann([0] * 10)
        assert evaluate(pred, ref).fr == 60.0

    def test_cardinality_only(self):
        ref = [{0: np.array([1.0, 0, 0])}]
        pred = [{3: np.array([0.0, 1.0, 0])}]  # wrong class, same count
        assert evaluate(pred, ref).fr == 100.0

    def test_zero_frames_rejected(self):
        with pytest.raises(InputError):
            evaluate([], [])


class TestDoaError:
    def test_identical_gives_zero(self):
        ann = [{0: np.array([0.0, 0.0, 1.0]), 2: np.array([1.0, 0.0, 0.0])}]
        assert evaluate(ann, ann).de == 0.0

    def test_antipodal_is_180(self):
        pred = [{0: np.array([0.0, 0.0, 1.0])}]
        ref = [{0: np.array([0.0, 0.0, -1.0])}]
        assert evaluate(pred, ref).de == pytest.approx(180.0)
        angle = metrics.angular_distance_deg(pred[0][0], ref[0][0])
        assert isinstance(angle, float) and angle == pytest.approx(180.0)

    def test_assignment_swaps(self):
        ref = [{0: np.array([1.0, 0, 0]), 1: np.array([0, 1.0, 0])}]
        pred = [{0: np.array([0, 1.0, 0]), 1: np.array([1.0, 0, 0])}]
        assert evaluate(pred, ref).de == pytest.approx(0.0)

    def test_non_finite_vector_rejected(self):
        pred = [{0: np.array([np.nan, 0.0, 0.0])}]
        ref = [{0: np.array([1.0, 0.0, 0.0])}]
        with pytest.raises(NumericError):
            evaluate(pred, ref)

    def test_no_pairs_returns_none(self):
        assert evaluate([{}], [{}]).de is None

    def test_none_vectors_skip_matching_but_count_for_recall(self):
        pred = [{0: None}]
        ref = [{0: np.array([1.0, 0, 0])}]
        report = evaluate(pred, ref)
        assert report.de is None
        assert report.fr == 100.0

    def test_dense_frame_is_fast(self):
        # 11 events per side: 11! permutations would take minutes
        rng = np.random.default_rng(8)
        vecs = rng.standard_normal((11, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ref = [{c: vecs[c] for c in range(11)}]
        pred = [{c: vecs[(c + 4) % 11] for c in range(11)}]
        pred, ref = tables(pred, ref)
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
            a = evaluate([f], [g]).de
            b = evaluate([g], [f]).de
            assert a == pytest.approx(b, abs=1e-9)


def cross_formula_deg(u, v):
    """Reference angle: atan2 of the np.cross norm over the dot product."""
    u, v = np.asarray(u), np.asarray(v)
    cross = np.linalg.norm(np.cross(u, v), axis=-1)
    return np.degrees(np.arctan2(cross, np.sum(u * v, axis=-1)))


def per_frame_doa(pred_ann, ref_ann):
    """Reference matcher: one angle matrix and one assignment per frame."""
    total, pairs = 0.0, 0
    for p, r in zip(pred_ann, ref_ann):
        pv = [v for v in p.values() if v is not None]
        rv = [v for v in r.values() if v is not None]
        if not pv or not rv:
            continue
        angles = cross_formula_deg(np.array(pv)[:, None], np.array(rv)[None])
        rows, cols = linear_sum_assignment(angles)
        total += angles[rows, cols].sum()
        pairs += len(rows)
    return total, pairs


def blockwise_doa(pred_ann, ref_ann):
    """DE's (total, pairs) with each _DOA_BLOCK slice of the frame annotations
    converted and matched on its own, the block totals summed in order."""
    total, pairs = 0.0, 0
    for start in range(0, max(len(pred_ann), len(ref_ann)), metrics._DOA_BLOCK):
        end = start + metrics._DOA_BLOCK
        angle, n = metrics.doa_error_accumulate(*tables(pred_ann[start:end],
                                                        ref_ann[start:end]))
        total += angle
        pairs += n
    return total, pairs


def unit_rows(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def shaped_frames(rng, shapes, p_none=0.1):
    """(pred, ref) annotations with the given (|P|, |R|) per frame; each
    vector is None with probability p_none, on top of the stated counts."""
    pred, ref = [], []
    for n_p, n_r in shapes:
        for ann, n in ((pred, n_p), (ref, n_r)):
            frame = {}
            for c, v in enumerate(unit_rows(rng, n)):
                frame[c] = v
                if rng.random() < p_none:
                    frame[c + 20] = None
            ann.append(frame)
    return pred, ref


class TestGroupedDoaMatching:
    def test_matches_per_frame_reference(self):
        rng = np.random.default_rng(11)
        cases = [random_metric_case(rng) for _ in range(40)]
        cases.append(random_metric_case(np.random.default_rng(8), max_classes=7,
                                        max_segments=5, max_sources=7))
        cases = [(p, r) for p, r, _, _ in cases]
        # every shape up to 7x7, including empty, 1xk and kx1 frames
        shapes = [(a, b) for a in range(8) for b in range(8)] * 3
        cases.append(shaped_frames(rng, [shapes[i] for i in rng.permutation(len(shapes))]))
        # more than two blocks, with a shape mix like a dense evaluation
        n = 2 * metrics._DOA_BLOCK + 37
        cases.append(shaped_frames(rng, zip(rng.integers(0, 7, n), rng.integers(0, 4, n))))
        for pred, ref in cases:
            total, pairs = metrics.doa_error_accumulate(*tables(pred, ref))
            want_total, want_pairs = per_frame_doa(pred, ref)
            assert pairs == want_pairs
            assert abs(total - want_total) <= 1e-9

    def test_solver_only_for_two_by_two_or_larger(self, monkeypatch):
        calls = []
        def counting(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)
        monkeypatch.setattr(metrics, "linear_sum_assignment", counting)
        rng = np.random.default_rng(12)
        n = metrics._DOA_BLOCK + 500
        shapes = list(zip(rng.integers(0, 6, n), rng.integers(0, 6, n)))
        pred, ref = shaped_frames(rng, shapes)
        metrics.doa_error_accumulate(*tables(pred, ref))
        want = sorted((int(a), int(b)) for a, b in shapes if min(a, b) >= 2)
        assert sorted(calls) == want
        calls.clear()
        pred, ref = shaped_frames(rng, [(1, 5), (4, 1), (1, 1), (0, 3), (2, 0)] * 50)
        metrics.doa_error_accumulate(*tables(pred, ref))
        assert calls == []

    @pytest.mark.parametrize("n_pred, n_ref", [(1, 3), (3, 1), (2, 2), (4, 3)])
    def test_nan_vector_raises_numeric_error(self, n_pred, n_ref):
        rng = np.random.default_rng(13)
        pred, ref = shaped_frames(rng, [(2, 3), (n_pred, n_ref), (0, 2)], p_none=0.0)
        pred[1][n_pred - 1] = np.array([0.0, np.nan, 1.0])
        with pytest.raises(NumericError):
            metrics.doa_error_accumulate(*tables(pred, ref))
        ref[1][0] = np.array([np.nan, 0.0, 0.0])
        pred[1][n_pred - 1] = unit_rows(rng, 1)[0]
        with pytest.raises(NumericError):
            metrics.doa_error_accumulate(*tables(pred, ref))

    def test_total_is_the_sum_of_block_slices(self):
        # the DE total pools block totals in frame order, as when each
        # _DOA_BLOCK slice of the annotations was matched on its own; the
        # criterion 5 figure is pooled this way, so it must not drift
        rng = np.random.default_rng(19)
        n = 2 * metrics._DOA_BLOCK + 37
        cases = [shaped_frames(rng, zip(rng.integers(0, 7, n), rng.integers(0, 4, n)))]
        for t_len in (n, 3 * metrics._DOA_BLOCK):
            sides = []
            for _ in range(2):
                act = rng.random((t_len, 4)) < 0.5
                doa = np.tanh(rng.standard_normal((t_len, 12))).astype(np.float32)
                doa.reshape(t_len, 4, 3)[rng.random((t_len, 4)) < 0.05] = 0.0
                sides.append(metrics.doa_vectors_from_prediction(act, doa))
            cases.append(sides)
        pred, ref = cases[0]
        cases.append((pred, ref[:metrics._DOA_BLOCK + 5]))  # unequal lengths
        for pred, ref in cases:
            total, pairs = metrics.doa_error_accumulate(*tables(pred, ref))
            want_total, want_pairs = blockwise_doa(pred, ref)
            assert pairs == want_pairs > 0
            assert total.hex() == want_total.hex()

    def test_angle_matches_cross_formula(self):
        rng = np.random.default_rng(14)
        u = unit_rows(rng, 500).reshape(50, 10, 1, 3)
        v = unit_rows(rng, 400).reshape(50, 1, 8, 3)
        v[0, 0, :4] = u[0, :4, 0]       # identical pairs
        v[1, 0, :4] = -u[1, :4, 0]      # antipodal pairs
        got = metrics.angular_distance_deg(u, v)
        want = cross_formula_deg(u, v)
        assert got.shape == want.shape == (50, 10, 8)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(got[0, np.arange(4), np.arange(4)] == 0.0)
        assert metrics.angular_distance_deg(u[0, 0, 0], u[0, 0, 0]) == 0.0

    def test_memory_stays_flat_over_dense_input(self):
        # 20,000 frames of up to 6 predicted against up to 3 reference
        # events; the frames are walked in blocks, so the transient peak
        # does not grow with the input
        rng = np.random.default_rng(15)
        n = 20000
        pred, ref = tables(*shaped_frames(rng, zip(rng.integers(0, 7, n), rng.integers(0, 4, n)),
                                          p_none=0.05))
        peak = traced_peak(metrics.doa_error_accumulate, pred, ref).peak
        print(f"doa_error_accumulate peak over {n} frames: {peak / 2 ** 20:.2f} MiB")
        assert peak < 1.25 * 2 ** 20  # about twice the measured 0.64 MiB


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

    @staticmethod
    def per_row_builder(sed_activity, doa):
        """Reference builder: one np.linalg.norm per active (frame, class)."""
        activity = np.asarray(sed_activity, dtype=bool)
        doa = np.asarray(doa, dtype=np.float64)
        ann = []
        for t in range(activity.shape[0]):
            frame = {}
            for c in np.nonzero(activity[t])[0]:
                v = doa[t, 3 * c:3 * c + 3]
                norm = np.linalg.norm(v)
                frame[int(c)] = v / norm if norm > 0.0 else None
            ann.append(frame)
        return ann

    @staticmethod
    def model_style_case(rng, t_len, n_classes):
        """float32 tanh DOA output with exact-zero components, zero vectors,
        NaN components and frames without an active class."""
        act = rng.random((t_len, n_classes)) < 0.6
        act[::7] = False
        doa = np.tanh(2.0 * rng.standard_normal((t_len, 3 * n_classes))).astype(np.float32)
        doa[rng.random(doa.shape) < 0.1] = 0.0
        doa.reshape(t_len, n_classes, 3)[rng.random((t_len, n_classes)) < 0.05] = 0.0
        doa[rng.random(doa.shape) < 0.02] = np.nan
        return act, doa

    def test_vectorized_builder_matches_per_row(self):
        # float32 squares are exact in float64, so the one vectorized norm
        # equals the per-row norm bit for bit on model outputs
        rng = np.random.default_rng(46)
        n_none = 0
        for t_len, n_classes in [(0, 3), (1, 1), (40, 11), (257, 4), (1874, 11)]:
            act, doa = self.model_style_case(rng, t_len, n_classes)
            got = metrics.doa_vectors_from_prediction(act, doa)
            want = self.per_row_builder(act, doa)
            assert len(got) == len(want) == t_len
            for g, w in zip(got, want):
                assert list(g) == list(w)
                assert all(type(c) is int for c in g)
                for c in g:
                    assert (g[c] is None) == (w[c] is None)
                    if g[c] is None:
                        n_none += 1
                    else:
                        assert g[c].tobytes() == w[c].tobytes()
        assert n_none > 0

    def test_nan_and_zero_components(self):
        act = np.ones((1, 4), bool)
        doa = np.array([[np.nan, 0.0, 0.0, 0.0, 0.0, 0.0,
                         0.0, -0.5, 0.0, 0.0, 0.0, np.nan]], np.float32)
        ann = metrics.doa_vectors_from_prediction(act, doa)
        assert ann[0][0] is None and ann[0][1] is None and ann[0][3] is None
        assert ann[0][2].tobytes() == np.array([0.0, -1.0, 0.0]).tobytes()

    def test_float64_input_within_one_ulp_of_per_row(self):
        # float64 squares round, and the per-row dot may fuse the multiply
        # and add, so float64 input is stated to agree within 1e-15
        rng = np.random.default_rng(47)
        act = rng.random((300, 5)) < 0.6
        doa = rng.standard_normal((300, 15)) * 10.0 ** rng.uniform(-3, 3, (300, 15))
        got = metrics.doa_vectors_from_prediction(act, doa)
        want = self.per_row_builder(act, doa)
        for g, w in zip(got, want):
            assert list(g) == list(w)
            for c in g:
                assert np.max(np.abs(g[c] - w[c])) < 1e-15

    def test_input_not_modified(self):
        act = np.ones((2, 1), bool)
        doa = np.array([[3.0, 0.0, 4.0], [0.0, 2.0, 0.0]])
        before = doa.copy()
        metrics.doa_vectors_from_prediction(act, doa)
        assert np.array_equal(doa, before)


class TestAnnotationActivity:
    def test_class_out_of_range_is_named(self):
        ann = [{0: None}, {}, {2: None, 4: None, 7: None}]
        with pytest.raises(DataError, match="class_id 4 out of range"):
            evaluate(ann, ann, 4)

    @pytest.mark.parametrize("bad", [-1, -5, 3])
    def test_class_outside_zero_to_n_classes_is_named(self, bad):
        # -1 would index class 2 from the end, -5 lies past the front
        ann = [{0: None}, {1: None, bad: None}, {-2: None}]
        with pytest.raises(DataError, match=f"class_id {bad} out of range"):
            evaluate(ann, ann, 3)

    def test_matches_per_frame_loop(self):
        rng = np.random.default_rng(16)
        for k in range(20):
            pred_ann, ref_ann, n_classes, fps = random_metric_case(
                rng, max_classes=11, max_sources=6, fps=1 + k)
            counts = evaluate(pred_ann, ref_ann, n_classes, fps).counts
            assert asdict(counts) == oracle_segment_counts(
                oracle_activity(pred_ann, n_classes), oracle_activity(ref_ann, n_classes), fps)

    def test_many_cells_score_in_bounded_memory(self):
        # 2**20 + 1 frames x 1024 classes is over 2**30 (frame, class) cells; the
        # segments are counted from the one row
        rows = metrics.rows_from_annotations([dict() for _ in range(2 ** 20)] + [{1023: None}])
        report, peak, _ = traced_peak(metrics.evaluate_rows, rows, rows, 1024, 50)
        assert (report.er, report.f1, report.fr) == (0.0, 1.0, 100.0)
        assert report.counts == metrics.SedCounts(tp=1, n_ref=1)
        assert peak < 2 ** 20

    def test_key_space_past_int64_is_data_error(self):
        # 3 segments x 2**62 classes would wrap an int64 (segment, class) key
        rows = metrics.rows_from_annotations([{}, {}, {2 ** 40: None}])
        assert metrics.evaluate_rows(rows, rows, 2 ** 40 + 1, 1).er == 0.0
        with pytest.raises(DataError, match="int64"):
            metrics.evaluate_rows(rows, rows, 2 ** 62, 1)


class TestOracleDuels:
    def test_er_f1_match_fraction_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            pred_ann, ref_ann, n_classes, fps = random_metric_case(rng)
            counts = evaluate(pred_ann, ref_ann, n_classes, fps).counts
            er_o, f1_o = oracle_segment_er_f1(oracle_activity(pred_ann, n_classes),
                                              oracle_activity(ref_ann, n_classes), fps)
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
        for pred_ann, ref_ann, n_classes, fps in cases:
            mine = evaluate(pred_ann, ref_ann, n_classes, fps).de
            oracle = oracle_doa_error(pred_ann, ref_ann)
            if oracle is None:
                assert mine is None
            else:
                assert mine == pytest.approx(oracle, abs=1e-9)

    def test_doa_accumulator_concatenation(self):
        rng = np.random.default_rng(6)
        a_p, a_r, _, _ = random_metric_case(rng)
        b_p, b_r, _, _ = random_metric_case(rng)
        t1, n1 = metrics.doa_error_accumulate(*tables(a_p, a_r))
        t2, n2 = metrics.doa_error_accumulate(*tables(b_p, b_r))
        t, n = metrics.doa_error_accumulate(*tables(a_p + b_p, a_r + b_r))
        assert n == n1 + n2
        assert t == pytest.approx(t1 + t2, abs=1e-9)


class TestCsvInterchange:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        ann, _, n_classes, _ = random_metric_case(rng)
        path = tmp_path / "pred.csv"
        metrics.write_prediction_csv(path, ann)
        back = metrics.read_prediction_rows(path)
        assert back.n_frames <= len(ann)
        got = row_vectors(back)
        want = {(t, c): v for t, frame in enumerate(ann[:back.n_frames]) for c, v in frame.items()}
        assert got.keys() == want.keys()
        for key, v in want.items():
            if v is None:
                assert got[key] is None
            else:
                assert np.allclose(got[key], v, atol=1e-9)

    @staticmethod
    def csv_module_writer(path, ann):
        """Reference writer: one csv.writer row per (frame, event)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(metrics.CSV_HEADER)
            for t, frame in enumerate(ann):
                for c in sorted(frame):
                    v = frame[c]
                    x, y, z = (0.0, 0.0, 0.0) if v is None else (v[0], v[1], v[2])
                    writer.writerow([t, c, f"{x:.10g}", f"{y:.10g}", f"{z:.10g}"])

    def test_writer_bytes_match_csv_module(self, tmp_path):
        rng = np.random.default_rng(17)
        dense, _, _, _ = random_metric_case(rng, max_classes=11, max_sources=6)
        f32 = [{c: None if v is None else v.astype(np.float32) for c, v in frame.items()}
               for frame in dense]
        odd = [{}, {3: np.array([-0.0, 0.0, -1.0]), 0: None}, {},
               {1: np.array([1e-300, -2.5e-7, 123456789.123]), 2: np.array([0.1, 1 / 3, -0.0])},
               {}]
        for i, ann in enumerate([dense, f32, odd, [], [{}, {}]]):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            metrics.write_prediction_csv(got, ann)
            self.csv_module_writer(want, ann)
            assert got.read_bytes() == want.read_bytes()

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
            got = metrics.read_prediction_rows(path)
            want, n_want = self.per_row_reader(path)
            assert got.n_frames == n_want == n
            got_v = row_vectors(got)
            assert list(got_v) == [(t, c) for t, w in enumerate(want) for c in sorted(w)]
            for (t, c), g in got_v.items():
                w = want[t][c]
                assert (g is None) == (w is None)
                if g is not None:
                    assert np.max(np.abs(g - w)) < 1e-15
            de_got = metrics.evaluate_rows(got, *tables(ref), 4, 4).de
            de_want = evaluate(want, ref, 4, 4).de
            assert (de_got is None) == (de_want is None)
            if de_got is not None:
                assert abs(de_got - de_want) < 1e-12

    def test_first_bad_direction_is_named(self, tmp_path):
        path = tmp_path / "two_bad.csv"
        path.write_text("frame_index,class_id,x,y,z\n0,0,1,0,0\n3,1,nan,0,0\n2,2,inf,0,0\n")
        with pytest.raises(DataError, match="frame 3, class 1 "):
            metrics.read_prediction_rows(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1,0,0\n")
        with pytest.raises(FormatError):
            metrics.read_prediction_rows(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("frame_index,class_id,x,y,z\n0,zero,1,0,0\n")
        with pytest.raises(FormatError):
            metrics.read_prediction_rows(path)

    @pytest.mark.parametrize("body, error", [
        (b"0,0,1,0,0\xff\n", FormatError),          # not UTF-8
        (b"0,99999999999,1,0,0\n", DataError),       # would size a 93 GiB activity matrix
        (b"99999999999,0,1,0,0\n", DataError),       # would span 10**11 frames
        (b"0,0,nan,0,0\n", DataError),               # no usable direction
        (b"0,0,1e308,1e308,0\n", DataError),         # length overflows
    ])
    def test_hostile_rows_rejected_quickly(self, tmp_path, body, error):
        path = tmp_path / "hostile.csv"
        path.write_bytes(b"frame_index,class_id,x,y,z\n" + body)

        def read():
            t0 = time.perf_counter()
            with pytest.raises(error):
                metrics.read_prediction_rows(path)
            return time.perf_counter() - t0

        elapsed, peak, _ = traced_peak(read)
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
            rows = metrics.read_prediction_rows(path)
        except SeldError:
            return
        assert np.all(rows.frame < rows.n_frames)
        assert np.all(np.abs(np.linalg.norm(rows.doa[rows.usable], axis=1) - 1.0) < 1e-9)


def row_vectors(rows):
    """An event table as {(frame, class): unit vector, or None where not usable}, in row order."""
    return {(t, c): v if ok else None
            for t, c, v, ok in zip(rows.frame.tolist(), rows.class_id.tolist(), rows.doa,
                                   rows.usable.tolist())}


def reference_image(path):
    """reference_csv's reading of a prediction CSV, as a rows image."""
    ann, _ = reference_csv.read_prediction_csv(path)
    return reference_csv.rows_image(metrics.rows_from_annotations(ann))


def dense_prediction_lines(rng, n_frames, n_classes=11, max_active=6):
    """Rows shaped like the dense eval benchmark's: up to 6 events a frame, some zero."""
    lines = []
    for t in range(n_frames):
        for c in np.sort(rng.choice(n_classes, int(rng.integers(0, max_active + 1)), False)):
            v = np.zeros(3) if rng.random() < 0.05 else rng.standard_normal(3)
            lines.append("%d,%d,%.10g,%.10g,%.10g" % (t, c, *v))
    return lines


# U+E1A3A and U+DF4BD crashed numpy 2.4.6's loadtxt in every fresh process
# that fed it one in an unparsable cell; U+50000 and U+10FFFF crashed some.
NON_BMP = ["\U000e1a3a", "\U000df4bd", "\U00050000", "\U0010ffff"]

# Reads one prediction and one annotation CSV; prints each error class.
_READ_BOTH = """
import sys
from seldkit import metrics, synth
for read, path in ((metrics.read_prediction_rows, sys.argv[1]),
                   (synth.read_annotation_csv, sys.argv[2])):
    try:
        read(path)
        print("parsed")
    except Exception as exc:
        print(type(exc).__name__)
"""


class TestLoadtxtReader:
    """The np.loadtxt readers against the csv-module references in reference_csv."""

    @staticmethod
    def assert_same_annotations(path):
        got = reference_csv.rows_image(metrics.read_prediction_rows(path))
        assert got == reference_image(path)

    def test_matches_csv_module_on_metric_cases(self, tmp_path):
        rng = np.random.default_rng(101)
        path = tmp_path / "pred.csv"
        for _ in range(10):
            pred, ref, _, _ = random_metric_case(rng, max_classes=11, max_sources=6)
            for ann in (pred, ref):
                metrics.write_prediction_csv(path, ann)
                self.assert_same_annotations(path)

    def test_matches_csv_module_on_dense_file(self, tmp_path):
        lines = dense_prediction_lines(np.random.default_rng(3), 2000)
        path = tmp_path / "dense.csv"
        path.write_text(",".join(metrics.CSV_HEADER) + "\n" + "\n".join(lines) + "\n")
        self.assert_same_annotations(path)

    def test_matches_csv_module_on_odd_but_valid_text(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_bytes(b" frame_index , class_id,x,y , z \r\n\r\n"
                         b"  3 , +1 , 1e-300 ,-0.0, 2.5E+3 \r\n"
                         b"007,0,1,2,3,extra,cells\n\n"
                         b"3,1,0,0,0\n"          # a repeated key: the last row wins
                         b"1,2,0.1,0.2,0.3")      # no final newline
        self.assert_same_annotations(path)
        rows = metrics.read_prediction_rows(path)
        assert rows.n_frames == 8 and row_vectors(rows)[3, 1] is None

    def test_empty_body_parses_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        for body in ("", "\n\n"):
            path.write_text(",".join(metrics.CSV_HEADER) + "\n" + body)
            rows = metrics.read_prediction_rows(path)
            assert rows.n_frames == 0 and rows.frame.size == 0
        assert not recwarn.list

    HOSTILE = [
        b"0,0,1,0,0\xff\n",                 # not UTF-8
        b"0,99999999999,1,0,0\n",
        b"99999999999,0,1,0,0\n",
        b"-1,0,1,0,0\n",
        b"0,-1,1,0,0\n",
        b"0,0,nan,0,0\n",
        b"0,0,1e308,1e308,0\n",
        b"0,0,1,0,0\n3,1,nan,0,0\n2,2,inf,0,0\n",
        b"0,zero,1,0,0\n",
        b"0,0,1,0\n",
        b"   \n",
        b"0,0,,1,0\n",
        b"0.5,0,1,0,0\n",
        b"0,0,0x1,0,0\n",
    ]

    @pytest.mark.parametrize("body", HOSTILE)
    def test_hostile_input_same_error_class(self, tmp_path, body):
        path = tmp_path / "hostile.csv"
        path.write_bytes(b"frame_index,class_id,x,y,z\n" + body)
        with pytest.raises(SeldError) as want:
            reference_csv.read_prediction_csv(path)
        with pytest.raises(want.type):
            metrics.read_prediction_rows(path)

    @pytest.mark.parametrize("text", ["0,0,1,0,0\n", "frame_index;class_id;x;y;z\n", ""])
    def test_wrong_header_same_error_class(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text)
        for read in (reference_csv.read_prediction_csv, metrics.read_prediction_rows):
            with pytest.raises(FormatError):
                read(path)

    @pytest.mark.parametrize("body", [
        "0,\U0001f600,1,0,0\n",     # an emoji
        "\u0661,0,1,0,0\n",         # ARABIC-INDIC DIGIT ONE, which int() accepts
        "0,0,1,0,0 # note\n",      # a '#' is a malformed cell, not a comment
        '"1",0,1,0,0\n',            # a quoted cell
        "1_0,0,1,0,0\n",            # a digit separator, which int() accepts
        f"{2 ** 64},0,1,0,0\n",     # an index beyond int64, once a range DataError
    ])
    def test_narrowed_accept_set(self, tmp_path, body):
        path = tmp_path / "narrow.csv"
        path.write_text("frame_index,class_id,x,y,z\n" + body, encoding="utf-8")
        with pytest.raises(FormatError):
            metrics.read_prediction_rows(path)

    def test_malformed_row_reported_before_earlier_range_violation(self, tmp_path):
        path = tmp_path / "both.csv"
        path.write_text("frame_index,class_id,x,y,z\n-1,0,1,0,0\n0,x,1,0,0\n")
        with pytest.raises(DataError):
            reference_csv.read_prediction_csv(path)
        with pytest.raises(FormatError):
            metrics.read_prediction_rows(path)

    ASCII_FIELDS = st.one_of(
        st.integers(-3, 40).map(str),
        st.floats().map(repr),
        st.sampled_from(["", " 1", "+2", "007", "nan", "-inf", "Infinity", "1e308", ".5",
                         "1_0", '"1"', "0x1", "1 2", "#", "\t3\t", "\x0b4", "1e", "-",
                         str(metrics.MAX_FRAMES), str(metrics.MAX_CLASSES), str(2 ** 64)]),
        st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=4),
    )

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(ASCII_FIELDS, max_size=7), max_size=6))
    def test_fuzz_agrees_with_csv_module(self, tmp_path_factory, rows):
        # what the reader parses the reference parses identically; what the
        # reference parses the reader parses too, unless it quotes a cell or
        # writes a digit separator
        path = tmp_path_factory.mktemp("fuzz") / "rows.csv"
        text = "frame_index,class_id,x,y,z\n" + "".join(",".join(r) + "\n" for r in rows)
        path.write_bytes(text.encode("ascii"))
        try:
            want = reference_image(path)
        except SeldError:
            want = None
        try:
            got = reference_csv.rows_image(metrics.read_prediction_rows(path))
        except SeldError:
            got = None
        if got is not None:
            assert got == want
        elif want is not None:
            assert "_" in text or '"' in text

    def test_transient_memory_of_a_dense_read(self, tmp_path):
        # the csv-module reader peaked at 1.96x what its frame dicts retained
        # (Python tuples per row); the table reader peaks at about 1.4x its
        # table, whose columns are views of the parsed array
        lines = dense_prediction_lines(np.random.default_rng(11), 18_600)
        assert len(lines) > 55_000
        path = tmp_path / "dense.csv"
        path.write_text(",".join(metrics.CSV_HEADER) + "\n" + "\n".join(lines) + "\n")
        result, peak, retained = traced_peak(metrics.read_prediction_rows, path)
        assert result.n_frames == 18_600
        assert peak < 1.75 * retained

    @pytest.mark.parametrize("column", [0, 2])
    @pytest.mark.parametrize("char", NON_BMP)
    def test_non_bmp_character_is_format_error_not_a_crash(self, tmp_path, char, column):
        pred_cells, ann_cells = ["0", "0", "1", "0", "0"], ["1.0", "2.0", "0", "10.0", "0.0"]
        pred_cells[column] = ann_cells[column] = char
        pred, ann = tmp_path / "pred.csv", tmp_path / "ann.csv"
        pred.write_text("frame_index,class_id,x,y,z\n" + ",".join(pred_cells) + "\n",
                        encoding="utf-8")
        ann.write_text(",".join(synth.ANNOTATION_HEADER) + "\n" + ",".join(ann_cells) + "\n",
                       encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(metrics.__file__)))
        children = [subprocess.Popen([sys.executable, "-c", _READ_BOTH, str(pred), str(ann)],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     text=True, env=env) for _ in range(3)]
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            assert out.split() == ["FormatError", "FormatError"]


class TestEvaluateAnnotations:
    def test_perfect_report(self):
        ann = [{0: np.array([1.0, 0, 0])}, {}, {1: np.array([0, 1.0, 0])}]
        rep = evaluate(ann, ann, n_classes=2, frames_per_segment=2)
        assert rep.er == 0.0 and rep.f1 == 1.0
        assert rep.fr == 100.0 and rep.de == 0.0


def write_rows(path, rows):
    """An interchange CSV with the given (frame, class, xyz) rows, in that order."""
    path.write_text(",".join(metrics.CSV_HEADER) + "\n"
                    + "".join("%d,%d,%.10g,%.10g,%.10g\n" % (t, c, *v) for t, c, v in rows))


def report_image(report):
    """Everything an EvalReport holds, with each float as its exact hex."""
    def exact(x):
        return None if x is None else float(x).hex()
    return (exact(report.er), exact(report.f1), exact(report.fr), exact(report.de),
            report.counts, report.n_matched_pairs)


class TestEventRows:
    COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(-10.0, 10.0, allow_nan=False))
    VECTOR = st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(COMPONENT, COMPONENT, COMPONENT))
    # small frame and class ranges: rows arrive unsorted and repeat (frame,
    # class) keys, and the two sides end at different frames
    ROWS = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5), VECTOR), max_size=40)

    @settings(max_examples=300, deadline=None)
    @given(pred=ROWS, ref=ROWS, fps=st.integers(1, 4))
    def test_rows_score_as_padded_annotations(self, tmp_path_factory, pred, ref, fps):
        d = tmp_path_factory.mktemp("rows")
        write_rows(d / "p.csv", pred)
        write_rows(d / "r.csv", ref)
        rows = [metrics.read_prediction_rows(d / name) for name in ("p.csv", "r.csv")]
        anns = []
        for name, side in zip(("p.csv", "r.csv"), rows):
            # one row per reference dict entry, in ascending (frame, class) order
            ann, _ = reference_csv.read_prediction_csv(d / name)
            from_ann = metrics.rows_from_annotations(ann)
            assert keys_ascend(side) and keys_ascend(from_ann)
            assert reference_csv.rows_image(side) == reference_csv.rows_image(from_ann)
            anns.append(ann)
        n_frames = max(len(ann) for ann in anns)
        pred_ann, ref_ann = (ann + [dict() for _ in range(n_frames - len(ann))] for ann in anns)
        n_classes = 1 + max((c for ann in (pred_ann, ref_ann) for frame in ann for c in frame),
                            default=0)
        padded = tables(pred_ann, ref_ann)
        if n_frames == 0:  # both sides empty
            for args in (rows, padded):
                with pytest.raises(InputError, match="zero frames"):
                    metrics.evaluate_rows(*args, n_classes, fps)
            return
        # tables of different lengths score as if padded with empty frames
        got = metrics.evaluate_rows(*rows, n_classes, fps)
        assert report_image(got) == report_image(metrics.evaluate_rows(*padded, n_classes, fps))
        # the table matcher and the per-slice sum agree bit for bit
        total, pairs = blockwise_doa(pred_ann, ref_ann)
        assert pairs == got.n_matched_pairs
        assert report_image(got)[3] == (None if pairs == 0 else (total / pairs).hex())
        hits = sum(len(p) == len(r) for p, r in zip(pred_ann, ref_ann))
        assert got.fr == 100.0 * hits / n_frames

    def test_rows_ascend_and_keep_last_vector(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(path, [(2, 3, (1, 0, 0)), (0, 1, (0, 0, 2)), (2, 0, (0, 0, 0)),
                          (2, 3, (0, 3, 0)), (0, 1, (0, 0, 0))])
        rows = metrics.read_prediction_rows(path)
        assert rows.n_frames == 3
        assert rows.frame.tolist() == [0, 2, 2]
        assert rows.class_id.tolist() == [1, 0, 3]
        assert rows.usable.tolist() == [False, False, True]
        assert rows.doa[2].tolist() == [0.0, 1.0, 0.0]
        # a repeat that does not break ascending file order
        write_rows(path, [(0, 1, (1, 0, 0)), (0, 1, (0, 0, 2)), (1, 0, (0, 3, 0))])
        rows = metrics.read_prediction_rows(path)
        assert rows.frame.tolist() == [0, 1] and rows.class_id.tolist() == [1, 0]
        assert rows.doa.tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_dense_rows_match_annotations(self, tmp_path):
        # more than two _DOA_BLOCK blocks, shaped like the dense eval benchmark
        rng = np.random.default_rng(48)
        paths = []
        for name, max_active in (("p.csv", 6), ("r.csv", 3)):
            lines = dense_prediction_lines(rng, 2 * metrics._DOA_BLOCK + 300, max_active=max_active)
            paths.append(tmp_path / name)
            paths[-1].write_text(",".join(metrics.CSV_HEADER) + "\n" + "\n".join(lines) + "\n")
        got = metrics.evaluate_rows(*map(metrics.read_prediction_rows, paths), 11, 62)
        pred_ann, ref_ann = (reference_csv.read_prediction_csv(p)[0] for p in paths)
        n_frames = max(len(pred_ann), len(ref_ann))
        for ann in (pred_ann, ref_ann):
            ann += [dict() for _ in range(n_frames - len(ann))]
        want = metrics.evaluate_rows(*tables(pred_ann, ref_ann), 11, 62)
        assert report_image(got) == report_image(want)
        total, pairs = blockwise_doa(pred_ann, ref_ann)
        assert got.n_matched_pairs == pairs > 0
        assert got.de == total / pairs


def keys_ascend(rows):
    """Whether an event table's (frame, class) keys strictly ascend."""
    key = rows.frame * metrics.MAX_CLASSES + rows.class_id
    return bool(np.all(key[1:] > key[:-1]))


class TestCanonicalOrder:
    @staticmethod
    def seld_eval(pred, ref, out):
        """(exit code, stdout, stderr, report bytes) of `seld eval --out`."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(["eval", "--pred", str(pred), "--ref", str(ref), "--sr", "16000",
                           "--hop", "4000", "--out", str(out)])
        report = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, stdout.getvalue(), stderr.getvalue(), report

    @staticmethod
    def random_events(rng):
        """Distinct (frame, class, xyz) rows in ascending key order: up to 6
        events a frame, so frames of 2x2 and larger sum several angles."""
        keys = [(t, c) for t in range(int(rng.integers(0, 9))) for c in range(6)
                if rng.random() < 0.5]
        v = rng.standard_normal((len(keys), 3))
        v[rng.random(len(keys)) < 0.05] = 0.0
        return [(t, c, tuple(x)) for (t, c), x in zip(keys, v.tolist())]

    def test_row_order_never_changes_the_report(self, tmp_path):
        rng = np.random.default_rng(50)
        out = tmp_path / "report.txt"
        for case in range(150):
            sides = [self.random_events(rng) for _ in range(2)]
            results = []
            for name in ("sorted", "shuffled"):
                paths = [tmp_path / f"{name}_{side}.csv" for side in ("p", "r")]
                for path, rows in zip(paths, sides):
                    if name == "shuffled":
                        rows = [rows[i] for i in rng.permutation(len(rows))]
                    write_rows(path, rows)
                tables_read = [metrics.read_prediction_rows(path) for path in paths]
                assert all(map(keys_ascend, tables_read))
                image = None
                if max(t.n_frames for t in tables_read):
                    image = report_image(metrics.evaluate_rows(*tables_read, 6, 4))
                results.append((self.seld_eval(*paths, out), image))
            assert results[0] == results[1], case


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: metrics.segment_counts(np.zeros((4, 2)), np.zeros((4, 3)), 4),
                 InputError, "activity shapes differ", id="segment-counts-shapes"),
    pytest.param(lambda: metrics.segment_counts(np.ones((4, 2)), np.ones((4, 2)), 0),
                 InputError, "frames_per_segment", id="segment-counts-zero-fps"),
    pytest.param(lambda: metrics.doa_vectors_from_prediction(np.ones((2, 2)), np.zeros((2, 5))),
                 InputError, "does not match activity", id="doa-vectors-shape"),
])
def test_library_raise_sites(call, error, match):
    with pytest.raises(error, match=match) as exc:
        call()
    assert isinstance(exc.value, SeldError)
