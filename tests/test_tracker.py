"""Box tracker: IoU, assignment optimality, registration gating."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment  # the oracle the port must match

from targetsim.detector import Detection
from targetsim.tracker import BoxTracker, TrackerConfig, hungarian_assign, iou


TIES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 3999.0])


def brute_force_best(cost: np.ndarray, maximize: bool):
    """Independent oracle: try every injective row->col map."""
    n, m = cost.shape
    best = None
    k = min(n, m)
    rows_choices = itertools.combinations(range(n), k)
    for rows in rows_choices:
        for cols in itertools.permutations(range(m), k):
            total = sum(cost[r, c] for r, c in zip(rows, cols))
            if best is None or (total > best if maximize else total < best):
                best = total
    return best


def det(bbox):
    return Detection(np.asarray(bbox, dtype=float), 1.0)


class TestIou:
    def test_identical_boxes(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_known_overlap(self):
        assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(2.0 / 6.0)

    @given(
        st.tuples(
            st.floats(0, 100), st.floats(0, 100),
            st.floats(1, 50), st.floats(1, 50),
        ),
        st.tuples(
            st.floats(0, 100), st.floats(0, 100),
            st.floats(1, 50), st.floats(1, 50),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        box_a = (a[0], a[1], a[0] + a[2], a[1] + a[3])
        box_b = (b[0], b[1], b[0] + b[2], b[1] + b[3])
        assert iou(box_a, box_b) == pytest.approx(iou(box_b, box_a))
        assert 0.0 <= iou(box_a, box_b) <= 1.0
        assert iou(box_a, box_a) == 1.0


class TestHungarian:
    def test_single_cell(self):
        pairs, ur, uc = hungarian_assign(np.array([[3.0]]))
        assert pairs == [(0, 0)] and ur == [] and uc == []

    def test_identity_cost_maximize_is_diagonal(self):
        pairs, _, _ = hungarian_assign(np.eye(4), maximize=True)
        assert sorted(pairs) == [(i, i) for i in range(4)]

    def test_matches_brute_force_on_random_integer_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n, m = rng.integers(1, 4, size=2)
            cost = rng.integers(0, 20, size=(n, m)).astype(float)
            for maximize in (False, True):
                pairs, _, _ = hungarian_assign(cost, maximize=maximize)
                total = sum(cost[r, c] for r, c in pairs)
                assert total == brute_force_best(cost, maximize)

    def test_rectangular_reports_unmatched(self):
        cost = np.zeros((2, 5))
        pairs, ur, uc = hungarian_assign(cost)
        assert len(pairs) == 2 and ur == [] and len(uc) == 3

    @given(
        st.integers(0, 7),
        st.integers(0, 7),
        st.booleans(),
        st.sampled_from(
            [
                TIES,  # few distinct values: equal costs and equal sums everywhere
                st.floats(allow_nan=False, allow_infinity=False),
                st.one_of(TIES, st.just(math.inf)),  # feasible or infeasible
            ]
        ),
        st.data(),
    )
    @settings(max_examples=600, deadline=None)
    def test_small_shapes_match_scipy(self, n_rows, n_cols, maximize, values, data):
        # the port returns scipy's pairs, and raises exactly when it does
        cells = data.draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        cost = np.array(cells, dtype=float).reshape(n_rows, n_cols)
        try:
            rows, cols = (idx.tolist() for idx in linear_sum_assignment(cost, maximize=maximize))
        except ValueError:
            with pytest.raises(ValueError):
                hungarian_assign(cost, maximize=maximize)
            return
        pairs, unmatched_rows, unmatched_cols = hungarian_assign(cost, maximize=maximize)
        assert pairs == list(zip(rows, cols))
        assert unmatched_rows == [r for r in range(n_rows) if r not in rows]
        assert unmatched_cols == [c for c in range(n_cols) if c not in cols]

    @pytest.mark.parametrize("maximize", [False, True])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_single_cell_raises_as_scipy_does(self, value, maximize):
        with pytest.raises(ValueError):
            linear_sum_assignment([[value]], maximize=maximize)
        with pytest.raises(ValueError):
            hungarian_assign(np.array([[value]]), maximize=maximize)


class TestBoxTracker:
    BOX = [100.0, 100.0, 140.0, 150.0]

    def test_registers_exactly_on_min_hits_frame(self):
        tracker = BoxTracker(TrackerConfig(min_hits=3, max_misses=5))
        assert tracker.step([det(self.BOX)]) == []  # frame 1
        assert tracker.step([det(self.BOX)]) == []  # frame 2
        out = tracker.step([det(self.BOX)])  # frame 3
        assert len(out) == 1
        assert out[0].hit_streak == 3

    def test_single_frame_fp_never_registers_and_dies(self):
        tracker = BoxTracker(TrackerConfig(min_hits=3, max_misses=5))
        assert tracker.step([det(self.BOX)]) == []
        for _ in range(5):
            assert tracker.step([]) == []
        assert tracker.track_count == 0

    def test_track_survives_single_dropped_frame(self):
        # constant-velocity box with one missed detection mid-stream: the
        # track must coast through the gap and re-associate afterwards
        tracker = BoxTracker(TrackerConfig(min_hits=3, max_misses=5))
        ids = set()
        for frame in range(30):
            if frame == 15:
                out = tracker.step([])
            else:
                u = 100.0 + 3.0 * frame
                out = tracker.step([det([u, 100.0, u + 40.0, 150.0])])
            ids.update(b.track_id for b in out)
        assert ids == {1}  # never re-spawned under a new id
        assert tracker.track_count == 1

    def test_track_deleted_after_max_misses(self):
        tracker = BoxTracker(TrackerConfig(min_hits=1, max_misses=4))
        assert len(tracker.step([det(self.BOX)])) == 1
        for i in range(3):
            tracker.step([])
            assert tracker.track_count == 1
        tracker.step([])
        assert tracker.track_count == 0

    def test_no_two_tracks_share_a_detection(self):
        tracker = BoxTracker(TrackerConfig(min_hits=1, max_misses=3))
        a = [0.0, 0.0, 40.0, 40.0]
        b = [30.0, 0.0, 70.0, 40.0]  # overlaps a
        tracker.step([det(a), det(b)])
        out = tracker.step([det(a), det(b)])
        assert len(out) == 2
        streaks = sorted(t.hit_streak for t in out)
        assert streaks == [2, 2]  # each detection fed exactly one track

    def test_track_ids_never_reused(self):
        tracker = BoxTracker(TrackerConfig(min_hits=1, max_misses=1))
        seen = []
        for _ in range(5):
            out = tracker.step([det(self.BOX)])
            seen.extend(b.track_id for b in out)
            tracker.step([])  # kill it
        assert len(seen) == len(set(seen)) == 5

    def test_coasting_track_survives_but_stays_silent(self):
        tracker = BoxTracker(TrackerConfig(min_hits=2, max_misses=4))
        tracker.step([det(self.BOX)])
        assert len(tracker.step([det(self.BOX)])) == 1
        out = tracker.step([])  # miss: identity survives, nothing published
        assert out == []
        assert tracker.track_count == 1
        out = tracker.step([det(self.BOX)])  # re-detected: same id again
        assert len(out) == 1 and out[0].track_id == 1
