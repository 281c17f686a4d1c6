"""Multi-box tracker in the SORT style.

Tracks axis-aligned boxes with a constant-velocity Kalman filter over
(center u, center v, area, aspect ratio), associates detections by IoU
with the Hungarian algorithm, and gates what it publishes downstream:
a track is registered only after `min_hits` consecutive detections and
deleted after `max_misses` consecutive missed frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import Detection


def iou_matrix(rows, cols) -> np.ndarray:
    """The intersection over union of each (u_min, v_min, u_max, v_max) box
    in rows with each in cols, (len(rows), len(cols)) even if empty. Each box
    is converted to floats once; float arithmetic rounds as numpy's. NaN for
    a zero union, as numpy's 0 / 0 (a zero union has a zero intersection)."""
    cols = [np.asarray(c, dtype=float).tolist() for c in cols]
    ious = np.zeros((len(rows), len(cols)))
    for i, (a0, a1, a2, a3) in enumerate(np.asarray(r, dtype=float).tolist() for r in rows):
        for j, (b0, b1, b2, b3) in enumerate(cols):
            iw = min(a2, b2) - max(a0, b0)
            ih = min(a3, b3) - max(a1, b1)
            if not (iw <= 0 or ih <= 0):  # a NaN coordinate gives NaN
                inter = iw * ih
                union = (a2 - a0) * (a3 - a1) + (b2 - b0) * (b3 - b1) - inter
                ious[i, j] = inter / union if union else math.nan
    return ious


def iou(a, b) -> float:
    """The IoU of two boxes, as iou_matrix computes it."""
    return iou_matrix([a], [b]).item()


def hungarian_assign(cost: np.ndarray, maximize: bool = False):
    """Optimal one-to-one assignment, the pairs that scipy's
    linear_sum_assignment returns, ties included: a port of its rectangular
    shortest augmenting path solver (Crouse 2016, "On implementing 2D
    rectangular assignment algorithms") to Python floats, which round and
    compare as its doubles. Raises ValueError on a NaN, on an entry that is
    -inf once maximize negates the matrix, and on an infeasible matrix.

    Returns (pairs, unmatched_rows, unmatched_cols) where pairs is a list
    of (row, col) tuples in row order.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape  # a ValueError unless a matrix, as in scipy
    transpose = n_cols < n_rows  # solve for the shorter side's rows
    c = (cost.T if transpose else cost).tolist()
    if maximize:
        c = [[-x for x in row] for row in c]
    nr, nc = (n_cols, n_rows) if transpose else (n_rows, n_cols)
    if not all(x > -math.inf for row in c for x in row):  # false for NaN and -inf
        raise ValueError("cost matrix holds NaN or -inf")
    if nr == 1:  # the scan below takes the first column holding the row's least cost
        j = c[0].index(min(c[0]))
        if c[0][j] == math.inf:
            raise ValueError("cost matrix is infeasible")
        rest = [*range(j), *range(j + 1, nc)]
        return ([(j, 0)], rest, []) if transpose else ([(0, j)], [], rest)

    u, v = [0.0] * nr, [0.0] * nc  # the dual variables
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    # columns are scanned from the last, so that a constant matrix gives the identity
    columns = list(range(nc - 1, -1, -1))
    for cur_row in range(nr):
        # the shortest augmenting path from cur_row to an unassigned column
        shortest = [math.inf] * nc
        seen_rows, seen_cols = [], []
        remaining = columns.copy()
        min_val = 0.0
        i, sink = cur_row, -1
        while sink == -1:
            index, lowest = -1, math.inf
            seen_rows.append(i)
            row, u_i = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s_j = shortest[j]
                if r < s_j:
                    path[j] = i
                    shortest[j] = s_j = r
                # of equal costs, take an unassigned column: a new sink
                if s_j < lowest or (s_j == lowest and row4col[j] == -1):
                    lowest = s_j
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]  # the last remaining column takes j's place
            remaining.pop()

        u[cur_row] += min_val
        for i in seen_rows[1:]:  # seen_rows[0] is cur_row
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]

        j = sink  # augment the assignment along the path
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    # every solved row is assigned; the columns left are the unmatched ones
    unassigned = [j for j in range(nc) if row4col[j] == -1]
    if transpose:
        return sorted((r, j) for j, r in enumerate(col4row)), unassigned, []
    return list(enumerate(col4row)), [], unassigned


@dataclass(frozen=True)
class TrackerConfig:
    min_hits: int = 3  # consecutive detections before a track registers
    max_misses: int = 5  # consecutive missed frames before deletion
    iou_min: float = 0.3
    process_noise_scale: float = 1.0
    measurement_noise_scale: float = 1.0

    def __post_init__(self):
        if self.min_hits < 1 or self.max_misses < 1:
            raise ValueError("min_hits and max_misses must be >= 1")
        if not 0.0 < self.iou_min < 1.0:
            raise ValueError("iou_min must be in (0, 1)")
        if self.process_noise_scale <= 0 or self.measurement_noise_scale <= 0:
            raise ValueError("process_noise_scale and measurement_noise_scale must be > 0")


@dataclass(frozen=True)
class TrackedBox:
    """Immutable snapshot of a registered track."""

    track_id: int
    bbox: np.ndarray


def _bbox_to_z(bbox: np.ndarray) -> tuple:
    u0, v0, u1, v1 = bbox.tolist()  # float arithmetic rounds as numpy's and costs less
    w = u1 - u0
    h = v1 - v0
    return u0 + w / 2.0, v0 + h / 2.0, w * h, w / h


class _KalmanBoxState:
    """Constant-velocity filter over (u, v, s, r, du, dv, ds), measured in
    (u, v, s, r): the 7x7 Kalman filter as three (position, velocity) filters
    for u, v and s, each with its 2x2 covariance (a, b, c, d), and a scalar
    one for r, in Python floats. F, Q, H and R couple only these blocks, so P
    stays block-diagonal with exact zeros off them; H P H^T + R is diagonal,
    and LAPACK's inverse of it is the reciprocals; each entry of K and of K y
    is one product, and each of (I - K H) P sums at most two terms, in index
    order. So every entry rounds as in the matrix form, which the tests step
    beside this one. b and c are both kept, since updates round them apart."""

    def __init__(self, bbox: np.ndarray, cfg: TrackerConfig):
        q, m = cfg.process_noise_scale, cfg.measurement_noise_scale
        *self.x, self.r = _bbox_to_z(bbox)  # u, v, s and r
        self.dx = [0.0, 0.0, 0.0]
        self.P = [(10.0, 0.0, 0.0, 1e4)] * 3  # (a, b, c, d) of each pair
        self.q = ((q, q * 0.01), (q, q * 0.01), (q, q * 1e-4))
        self.noise = (m, m, m * 10.0)
        self.p_r, self.q_r, self.noise_r = 10.0, q, m * 10.0

    def predict(self):
        """x = F x, P = F P F^T + Q in numpy's slice order; Q adds 0.0 off the diagonal."""
        x, dx, p = self.x, self.dx, self.P
        if x[2] + dx[2] <= 0:  # keep predicted area positive
            dx[2] = 0.0
        for i, (q, q_dx) in enumerate(self.q):
            a, b, c, d = p[i]
            x[i] += dx[i]
            p[i] = ((a + c) + (b + d)) + q, (b + d) + 0.0, (c + d) + 0.0, d + q_dx
        self.p_r += self.q_r

    def update(self, bbox: np.ndarray):
        *z, r = _bbox_to_z(bbox)
        x, dx, p = self.x, self.dx, self.P
        for i, noise in enumerate(self.noise):
            a, b, c, d = p[i]
            inv = 1.0 / (a + noise)
            k, k_dx, y = a * inv, c * inv, z[i] - x[i]
            x[i] += k * y
            dx[i] += k_dx * y
            p[i] = (1.0 - k) * a, (1.0 - k) * b, (0.0 - k_dx) * a + c, (0.0 - k_dx) * b + d
        k = self.p_r * (1.0 / (self.p_r + self.noise_r))
        self.r += k * (r - self.r)
        self.p_r *= 1.0 - k

    def bbox(self) -> tuple:
        (u, v, s), r = self.x, max(self.r, 1e-9)
        s = max(s, 1e-9)
        w = math.sqrt(s * r)
        h = s / w
        return u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0


class _Track:
    def __init__(self, track_id: int, bbox: np.ndarray, cfg: TrackerConfig):
        self.track_id = track_id
        self.kf = _KalmanBoxState(bbox, cfg)
        self.hit_streak = 1
        self.miss_streak = 0
        self.registered = False

    def snapshot(self) -> TrackedBox:
        return TrackedBox(self.track_id, np.array(self.kf.bbox()))


class BoxTracker:
    """Stateful per-frame tracker; call step() once per frame in order."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self._tracks: list[_Track] = []
        self._next_id = 1

    def step(self, detections: list[Detection]) -> list[TrackedBox]:
        """Predict, associate, update; returns registered tracks only."""
        if not detections and not self._tracks:
            return []  # an idle frame: nothing to predict, match or spawn
        cfg = self.cfg
        for track in self._tracks:
            track.kf.predict()

        det_boxes = [d.bbox for d in detections]
        track_boxes = [t.kf.bbox() for t in self._tracks]  # each predicted box once
        pairs, unmatched_dets = [], list(range(len(det_boxes)))
        if det_boxes and track_boxes:
            ious = iou_matrix(det_boxes, track_boxes)
            pairs, unmatched_dets, _ = hungarian_assign(ious, maximize=True)

        matched_track_idx = set()
        for d_idx, t_idx in pairs:
            if ious[d_idx, t_idx] < cfg.iou_min:
                unmatched_dets.append(d_idx)
                continue
            track = self._tracks[t_idx]
            track.kf.update(det_boxes[d_idx])
            track.hit_streak += 1
            track.miss_streak = 0
            if track.hit_streak >= cfg.min_hits:
                track.registered = True
            matched_track_idx.add(t_idx)

        for t_idx, track in enumerate(self._tracks):
            if t_idx not in matched_track_idx:
                track.miss_streak += 1
                track.hit_streak = 0

        for d_idx in sorted(unmatched_dets):
            track = _Track(self._next_id, det_boxes[d_idx], cfg)
            self._next_id += 1
            if cfg.min_hits <= 1:
                track.registered = True
            self._tracks.append(track)

        self._tracks = [t for t in self._tracks if t.miss_streak < cfg.max_misses]
        # publish only tracks that matched a detection this frame; a track
        # coasting through misses keeps its identity but stays silent
        return [t.snapshot() for t in self._tracks if t.registered and t.miss_streak == 0]
