"""Box tracker: IoU, assignment optimality, registration gating, and the
Kalman filter against its 7x7 matrix form."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment  # the oracle the port must match

from targetsim import tracker
from targetsim.detector import Detection
from targetsim.tracker import BoxTracker, TrackerConfig, hungarian_assign, iou, iou_matrix

from tests import missions

ROOT = Path(__file__).resolve().parents[1]


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


def pair_iou(a, b) -> float:
    """An independent per-pair IoU, each pair converted on its own."""
    a0, a1, a2, a3 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2, b3 = np.asarray(b, dtype=float).tolist()
    iw = min(a2, b2) - max(a0, b0)
    ih = min(a3, b3) - max(a1, b1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a2 - a0) * (a3 - a1) + (b2 - b0) * (b3 - b1) - inter
    return inter / union if union else math.nan


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

    def test_matrix_equals_per_pair_iou(self):
        # disjoint, touching, nested, point and NaN boxes, as arrays and as lists
        rng = np.random.default_rng(5)
        rows = [np.sort(rng.uniform(0.0, 40.0, (2, 2)), axis=0).ravel()[[0, 2, 1, 3]]
                for _ in range(6)] + [np.array([3.0, 3.0, 3.0, 3.0])]
        cols = [box.tolist() for box in rows[::-1]] + [[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 2.0, 1.0]]
        rows.append(np.array([math.nan, 0.0, 30.0, 30.0]))
        for r, c in ((rows, cols), (cols, rows), (rows[:0], cols), (rows, cols[:0])):
            want = np.array([[pair_iou(a, b) for b in c] for a in r]).reshape(len(r), len(c))
            got = iou_matrix(r, c)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            per_pair = np.array([[iou(a, b) for b in c] for a in r]).reshape(got.shape)
            assert per_pair.tobytes() == got.tobytes()
        assert np.isnan(iou_matrix(rows[-1:], cols)).any()


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
    @pytest.mark.parametrize("column", [False, True], ids=["1xn", "nx1"])
    @pytest.mark.parametrize(
        "values",
        [
            [2.0, 5.0, 5.0, 1.0, 5.0],  # equal maxima
            [1.0, -1.0, -1.0, 4.0],  # equal minima
            [0.0, -0.0, 0.0],  # 0.0 and -0.0 tie
            [-0.0, 0.0, -0.0],
            [-0.0, 0.0, 1.0, -1.0],
            [3.0],
            [1.0, math.inf, 2.0],
            [math.inf, 7.0, math.inf, 7.0],
            [-math.inf, 1.0],
            [1.0, math.inf, -math.inf],
            [math.inf, math.inf, math.inf],  # infeasible
            [math.inf],
            [1.0, math.nan, 0.0],
            [math.nan],
        ],
    )
    def test_one_row_matches_scipy(self, values, column, maximize):
        cost = np.array([values]).T if column else np.array([values])
        try:
            rows, cols = (idx.tolist() for idx in linear_sum_assignment(cost, maximize=maximize))
        except ValueError:
            with pytest.raises(ValueError):
                hungarian_assign(cost, maximize=maximize)
            return
        n_rows, n_cols = cost.shape
        assert hungarian_assign(cost, maximize=maximize) == (
            list(zip(rows, cols)),
            [r for r in range(n_rows) if r not in rows],
            [c for c in range(n_cols) if c not in cols],
        )

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
        assert tracker._tracks[0].hit_streak == 3

    def test_single_frame_fp_never_registers_and_dies(self):
        tracker = BoxTracker(TrackerConfig(min_hits=3, max_misses=5))
        assert tracker.step([det(self.BOX)]) == []
        for _ in range(5):
            assert tracker.step([]) == []
        assert len(tracker._tracks) == 0

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
        assert len(tracker._tracks) == 1

    def test_track_deleted_after_max_misses(self):
        tracker = BoxTracker(TrackerConfig(min_hits=1, max_misses=4))
        assert len(tracker.step([det(self.BOX)])) == 1
        for i in range(3):
            tracker.step([])
            assert len(tracker._tracks) == 1
        tracker.step([])
        assert len(tracker._tracks) == 0

    def test_no_two_tracks_share_a_detection(self):
        tracker = BoxTracker(TrackerConfig(min_hits=1, max_misses=3))
        a = [0.0, 0.0, 40.0, 40.0]
        b = [30.0, 0.0, 70.0, 40.0]  # overlaps a
        tracker.step([det(a), det(b)])
        out = tracker.step([det(a), det(b)])
        assert len(out) == 2
        streaks = sorted(t.hit_streak for t in tracker._tracks)
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
        assert len(tracker._tracks) == 1
        out = tracker.step([det(self.BOX)])  # re-detected: same id again
        assert len(out) == 1 and out[0].track_id == 1


class MatrixKalman:
    """The box filter in its 7x7 matrix form, with numpy's BLAS and LAPACK:
    the oracle that tracker._KalmanBoxState equals byte for byte. F adds each
    velocity to its position and H reads the first four entries; both are
    written out as slices. The update copies P[:, :4] into a (7, 4) array of
    its own, and counts the predicts whose area guard zeroed ds."""

    def __init__(self, bbox, cfg):
        self.x = np.zeros(7)
        self.x[:4] = tracker._bbox_to_z(bbox)
        self.P = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])
        self.Q = cfg.process_noise_scale * np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 1e-4])
        self.R = cfg.measurement_noise_scale * np.diag([1.0, 1.0, 10.0, 10.0])
        self.guarded = 0

    def predict(self):
        x, p = self.x, self.P
        if x[2] + x[6] <= 0:  # keep predicted area positive
            x[6] = 0.0
            self.guarded += 1
        x[:3] += x[4:]
        p[:3] += p[4:]  # F P
        p[:, :3] += p[:, 4:]  # (F P) F^T
        p += self.Q

    def update(self, bbox):
        y = np.array(tracker._bbox_to_z(bbox)) - self.x[:4]
        k = self.P[:, :4].copy() @ np.linalg.inv(self.P[:4, :4] + self.R)
        self.x = self.x + k @ y
        i_kh = np.eye(7)
        i_kh[:, :4] -= k
        self.P = i_kh @ self.P


# the 2x2 blocks {0, 4}, {1, 5} and {2, 6} of (u, v, s, r, du, dv, ds), and {3}
BLOCKS = np.eye(7, dtype=bool) | np.eye(7, k=4, dtype=bool) | np.eye(7, k=-4, dtype=bool)


def assembled(kf) -> tuple[np.ndarray, np.ndarray]:
    """The scalar filter's state as the matrix form's x and P."""
    x, p = np.zeros(7), np.zeros((7, 7))
    for i in range(3):
        x[i], x[i + 4] = kf.x[i], kf.dx[i]
        p[i, i], p[i, i + 4], p[i + 4, i], p[i + 4, i + 4] = kf.P[i]
    x[3], p[3, 3] = kf.r, kf.p_r
    return x, p


def assert_same_state(kf, oracle):
    x, p = assembled(kf)
    assert (oracle.P[~BLOCKS] == 0.0).all()
    assert x.tobytes() == oracle.x.tobytes()
    assert p.tobytes() == oracle.P.tobytes()
    assert np.array(kf.bbox()).tobytes() == oracle_bbox(oracle.x).tobytes()


def oracle_bbox(x):
    u, v, s, r = x[:4].tolist()
    w = math.sqrt(max(s, 1e-9) * max(r, 1e-9))
    h = max(s, 1e-9) / w
    return np.array([u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0])


class SteppedBeside(tracker._KalmanBoxState):
    """The scalar filter with the matrix form stepped beside it, compared
    after every step."""

    def __init__(self, bbox, cfg):
        super().__init__(bbox, cfg)
        self.oracle = MatrixKalman(bbox, cfg)
        self.steps = 0
        assert_same_state(self, self.oracle)

    def predict(self):
        super().predict()
        self.oracle.predict()
        self.check()

    def update(self, bbox):
        super().update(bbox)
        self.oracle.update(bbox)
        self.check()

    def check(self):
        self.steps += 1
        assert_same_state(self, self.oracle)


BOX_SIDES = st.floats(0.5, 200.0)
CORNERS = st.tuples(st.floats(-50.0, 640.0), st.floats(-50.0, 480.0), BOX_SIDES, BOX_SIDES)
# a box 400 px wide, then boxes of a few px: the area's velocity turns
# negative, and the coast after it trips the area guard
SHRINKING = [(0, (100.0, 100.0, 400.0, 300.0)), (1, (300.0, 250.0, 2.0, 1.5)),
             (1, (300.0, 250.0, 1.0, 1.0)), (1, (300.0, 250.0, 0.5, 0.5)), (40, None)]


def corners_box(corners) -> np.ndarray:
    u0, v0, w, h = corners
    return np.array([u0, v0, u0 + w, v0 + h])


def step_beside(start, noise, steps) -> SteppedBeside:
    """steps is (predicts, box or None) pairs: each predicts that many
    times, then updates with the box if there is one."""
    cfg = TrackerConfig(process_noise_scale=noise[0], measurement_noise_scale=noise[1])
    kf = SteppedBeside(corners_box(start), cfg)
    for predicts, corners in steps:
        for _ in range(predicts):
            kf.predict()
        if corners is not None:
            kf.update(corners_box(corners))
    return kf


class TestKalmanAgainstMatrixForm:
    @given(
        CORNERS,
        st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)).filter(lambda n: 1.0 not in n),
        st.lists(st.tuples(st.integers(0, 30), st.none() | CORNERS), max_size=12),
    )
    @example(SHRINKING[0][1], (0.5, 2.0), SHRINKING[1:])
    @settings(max_examples=200, deadline=None)
    def test_scalar_filters_equal_the_matrix_form(self, start, noise, steps):
        step_beside(start, noise, steps)  # compares the bytes after every step

    def test_shrinking_box_trips_the_area_guard(self):
        kf = step_beside(SHRINKING[0][1], (0.5, 2.0), SHRINKING[1:])
        assert kf.oracle.guarded > 0 and kf.dx[2] == 0.0

    def test_nominal_mission_steps_equal_the_matrix_form(self, monkeypatch, shared_run):
        # a new tracker stepped through the nominal run's detections publishes its tracks
        s = missions.scenario("nominal")
        records = shared_run(s).records
        filters = []

        def beside(bbox, cfg):
            filters.append(SteppedBeside(bbox, cfg))
            return filters[-1]

        monkeypatch.setattr(tracker, "_KalmanBoxState", beside)
        boxes = BoxTracker(s.tracker)
        for record in records:
            detections = [Detection(np.array(d["bbox"]), d["score"]) for d in record["detections"]]
            published = boxes.step(detections)
            tracks = [{"id": b.track_id, "bbox": b.bbox.tolist()} for b in published]
            assert tracks == record["tracks"], record["frame"]
        assert len(records) == 1860 and len(filters) > 1
        assert sum(kf.steps for kf in filters) > 1860

    def test_tracker_calls_no_inverse(self, monkeypatch):
        # the busy frames of benchmarks/test_kernels.py, with LAPACK's inverse gone
        path = ROOT / "benchmarks" / "test_kernels.py"
        spec = importlib.util.spec_from_file_location("kernel_benchmarks", path)
        kernels = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernels)

        def no_inverse(*args, **kwargs):
            raise AssertionError("the tracker inverted a matrix")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        kinds = kernels.busy_frames(kernels.tracker_frames())
        assert len(kinds) == 32 and (1, 2) in kinds
