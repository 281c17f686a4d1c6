"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
alongside the pytest report.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from targetsim.bounding_cylinder import BoundingCylinder, fit_bounding_cylinder
from targetsim.detector import Detection
from targetsim.geometry import CameraIntrinsics, project_points
from targetsim.harness import run
from targetsim.points_filter import (
    FilterConfig,
    GaussianSummary,
    PointsFilter,
    differential_entropy,
    generate_points,
    kl_divergence,
)
from targetsim.trace import read_trace
from targetsim.tracker import BoxTracker, TrackerConfig, hungarian_assign
from targetsim.uav import camera_pose
from targetsim.view_planner import PlannerConfig, mapping_circles

from tests import missions
from tests.test_geometry import random_pose, rt
from tests.test_view_planner import in_some_wedge, wall_points

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@contextmanager
def verdict(n, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {label}")


@pytest.fixture(scope="module")
def nominal_result(shared_run):
    scenario = missions.scenario("nominal")
    return scenario, shared_run(scenario, traced=True)


@pytest.fixture(scope="module")
def noisy_result(shared_run):
    scenario = missions.scenario("survey5 seed 12")
    return scenario, shared_run(scenario, traced=True)


def event_error(result, kind, scenario):
    """Distance from each `kind` event's estimate to the nearest true center,
    read from the run's trace."""
    errs = []
    for rec in read_trace(result.trace_path)[1]:
        for ev in rec["events"]:
            if ev["type"] != kind:
                continue
            entry = next(t for t in rec["targets"] if t["id"] == ev["target"])
            mean = np.asarray(entry["mean"])
            errs.append(
                min(np.linalg.norm(mean - t.center) for t in scenario.targets)
            )
    return errs


def test_criterion_1_nominal_closed_loop(nominal_result):
    with verdict(1, "nominal run: mapped, centroid < 0.5 m, all stages 100%, < 30 s"):
        scenario, result = nominal_result
        assert result.completed and result.mapped_true_ids == {"rock_a"}
        errs = event_error(result, "converged", scenario)
        assert len(errs) == 1 and errs[0] < 0.5
        for stage, score in result.metrics.items():
            assert score["precision"] == 1.0, stage
            assert score["recall"] == 1.0, stage
        assert result.wall_time < 30.0


def test_criterion_2_five_targets_noisy(noisy_result):
    with verdict(2, "5 noisy targets: all mapped, converged/mapped 100%, < 5 min"):
        scenario, result = noisy_result
        assert result.completed
        assert result.mapped_true_ids == {t.id for t in scenario.targets}
        m = result.metrics
        assert m["converged"]["precision"] == 1.0
        assert m["mapped"]["precision"] == 1.0
        assert m["mapped"]["recall"] == 1.0
        # zero FP-originated targets ever reach converged: every converged
        # event sits on a true target
        errs = event_error(result, "converged", scenario)
        assert all(e <= scenario.match_dist for e in errs)
        assert result.wall_time < 300.0


def test_criterion_3_fp_robustness():
    with verdict(3, "FP boxes: short ones never register, lone-view ones die in grace"):
        t_hit, t_missing = 3, 5
        grace = 20
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tracker = BoxTracker(TrackerConfig(min_hits=t_hit, max_misses=t_missing))
            flt = PointsFilter(K, FilterConfig(max_depth=50.0, max_missed_updates=grace))
            u0, v0 = rng.uniform(60, 400), rng.uniform(60, 300)
            w, h = rng.uniform(15, 60), rng.uniform(15, 60)
            fp = np.array([u0, v0, u0 + w, v0 + h])

            # (a) an FP shorter than the registration gate never registers
            short = int(rng.integers(1, t_hit))
            for _ in range(short):
                jittered = fp + rng.normal(0, 0.3, 4)
                assert tracker.step([Detection(jittered, 0.5)]) == []
            for frame in range(short, short + t_missing + 2):
                assert tracker.step([]) == []
            assert len(tracker._tracks) == 0

            # (b) a persistent FP seen from one viewpoint only: it spawns a
            # cloud, never converges, and deregisters within the grace period
            tracker = BoxTracker(TrackerConfig(min_hits=t_hit, max_misses=t_missing))
            persist = int(rng.integers(t_hit, 26))
            kinds = []
            last_update_tick = None
            dereg_tick = None
            tick = 0
            for frame in range(persist + grace + t_missing + 5):
                x = 0.1 * frame  # the camera keeps moving along its lane
                camera = camera_pose(0.0, [x, 0.0, 30.0], np.deg2rad(60.0))
                if frame < persist:
                    dets = [Detection(fp + rng.normal(0, 0.3, 4), 0.5)]
                else:
                    dets = []
                boxes = tracker.step(dets)
                events, updated = flt.tick(boxes, camera.rotation, camera.translation, rng)
                tick += 1
                if updated or any(e.kind == "spawned" for e in events):
                    last_update_tick = tick
                kinds += [e.kind for e in events]
                if "deregistered" in [e.kind for e in events]:
                    dereg_tick = tick
                    break
            assert "spawned" in kinds  # the persistent FP did fool the tracker
            assert "converging" not in kinds and "converged" not in kinds
            assert dereg_tick is not None
            assert dereg_tick - last_update_tick <= grace


def test_criterion_4_generation_oracle():
    with verdict(4, "Alg-1 oracle: 100 poses x 1000 points all inside cone, 0 violations"):
        rng = np.random.default_rng(123)
        cfg = FilterConfig(m=1000, max_depth=50.0)
        violations = 0
        for _ in range(100):
            world_from_cam = random_pose(rng)
            u0, v0 = rng.uniform(5, 400), rng.uniform(5, 300)
            bbox = np.array(
                [u0, v0, u0 + rng.uniform(10, 230), v0 + rng.uniform(10, 170)]
            )
            corner_scale = K.unit_rays(
                np.array([[bbox[0], bbox[1]], [bbox[2], bbox[1]],
                          [bbox[2], bbox[3]], [bbox[0], bbox[3]]])
            )[:, 2].max()
            pts = generate_points(bbox, *rt(world_from_cam), K, cfg, rng)
            cam_from_world = world_from_cam.inverse()
            uv, depths = project_points(
                pts, cam_from_world.rotation, cam_from_world.translation, K
            )
            ok = (
                (depths > 0)
                & (depths <= cfg.max_depth * corner_scale + 1e-9)
                & (uv[:, 0] >= bbox[0] - 1e-9)
                & (uv[:, 0] <= bbox[2] + 1e-9)
                & (uv[:, 1] >= bbox[1] - 1e-9)
                & (uv[:, 1] <= bbox[3] + 1e-9)
            )
            violations += int((~ok).sum())
        assert violations == 0


def test_criterion_5_entropy_kld_analytics():
    with verdict(5, "entropy/KLD analytic identities and non-negativity"):
        h_i = differential_entropy(GaussianSummary(np.zeros(3), np.eye(3)))
        assert abs(h_i - 4.256816) <= 1e-6
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            cov = a @ a.T + 1e-3 * np.eye(3)
            c = rng.uniform(0.05, 20.0)
            h0 = differential_entropy(GaussianSummary(np.zeros(3), cov))
            h1 = differential_entropy(GaussianSummary(np.zeros(3), c * cov))
            assert abs((h1 - h0) - 1.5 * np.log(c)) <= 1e-9
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            s = GaussianSummary(rng.normal(size=3), a @ a.T + 1e-3 * np.eye(3))
            assert abs(kl_divergence(s, s)) <= 1e-12
        n0 = GaussianSummary(np.zeros(3), np.eye(3))
        n1 = GaussianSummary(np.array([0.0, 1.0, 0.0]), np.eye(3))
        assert abs(kl_divergence(n0, n1) - 0.5) <= 1e-12
        for _ in range(10_000):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            p = GaussianSummary(rng.normal(size=3), a @ a.T + 1e-3 * np.eye(3))
            q = GaussianSummary(rng.normal(size=3), b @ b.T + 1e-3 * np.eye(3))
            assert kl_divergence(p, q) >= 0.0


def test_criterion_6_hungarian_oracle():
    with verdict(6, "assignment equals exhaustive optimum on 1000 matrices <= 6x6"):
        rng = np.random.default_rng(6)

        def brute(cost, maximize):
            n, m = cost.shape
            k = min(n, m)
            best = None
            for rows in itertools.combinations(range(n), k):
                for cols in itertools.permutations(range(m), k):
                    total = sum(cost[r, c] for r, c in zip(rows, cols))
                    if best is None or (total > best if maximize else total < best):
                        best = total
            return best

        for i in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            cost = rng.integers(0, 50, size=(n, m)).astype(float)
            maximize = bool(rng.integers(2))
            pairs, _, _ = hungarian_assign(cost, maximize=maximize)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == brute(cost, maximize)


def test_criterion_7_bounding_cylinder():
    with verdict(7, "unit-cube cylinder exact; min/translation properties on 1000 clouds"):
        cube = np.array(
            [
                [-0.5, -0.5, -0.5], [0.5, -0.5, -0.5], [0.5, 0.5, -0.5], [-0.5, 0.5, -0.5],
                [-0.5, -0.5, 0.5], [0.5, -0.5, 0.5], [0.5, 0.5, 0.5], [-0.5, 0.5, 0.5],
            ]
        )
        cyl = fit_bounding_cylinder(cube)
        assert abs(cyl.radius - np.sqrt(0.5)) <= 1e-9
        assert abs(cyl.height - 1.0) <= 1e-9
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pts = rng.normal(size=(int(rng.integers(4, 60)), 3)) * rng.uniform(0.1, 5.0, 3)
            c = fit_bounding_cylinder(pts)
            centroid = pts.mean(axis=0)
            sigma = pts.std(axis=0)
            r1 = np.max(np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1]))
            h1 = pts[:, 2].max() - pts[:, 2].min()
            assert abs(c.radius - min(r1, 3 * max(sigma[0], sigma[1]))) <= 1e-12
            assert abs(c.height - min(h1, 6 * sigma[2])) <= 1e-12
            shift = rng.uniform(-100, 100, 3)
            moved = fit_bounding_cylinder(pts + shift)
            assert np.allclose(moved.center, c.center + shift, atol=1e-9)
            assert abs(moved.radius - c.radius) <= 1e-12
            assert abs(moved.height - c.height) <= 1e-12


def test_criterion_8_mapping_coverage():
    with verdict(8, "100 random cylinders: every wall sample inside a scan wedge"):
        cfg = PlannerConfig(
            cam_depression=np.deg2rad(60.0), scan_fov=np.deg2rad(40.0), standoff=4.0
        )
        rng = np.random.default_rng(8)
        uncovered = 0
        for _ in range(100):
            cyl = BoundingCylinder(
                center=np.array([rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(2, 30)]),
                radius=rng.uniform(0.5, 3.0),
                height=rng.uniform(1.0, 6.0),
            )
            wps = mapping_circles(cyl, cfg, cyl.center)
            covered = in_some_wedge(
                wall_points(cyl, n_angle=72, n_height=24), wps,
                cfg.cam_depression, cfg.scan_fov,
            )
            uncovered += int((~covered).sum())
        assert uncovered == 0


def test_criterion_9_determinism(noisy_result, tmp_path):
    with verdict(9, "same scenario + seed produce byte-identical traces"):
        scenario, first = noisy_result
        second = run(scenario, out_dir=tmp_path)
        assert first.trace_path.read_bytes() == second.trace_path.read_bytes()
        for cloud in sorted(first.trace_path.parent.glob("cloud_*.xyz")):
            other = tmp_path / cloud.name
            assert other.exists()
            assert cloud.read_bytes() == other.read_bytes()


def check_row(name, shared_run):
    """Run PINS row name as the table says, traced or metrics-only, and
    check its pins. A traced run keeps no records: its trace replays to
    the pinned records."""
    pins = missions.PINS[name].pins
    result, got, _ = missions.row_outputs(name, shared_run)
    assert result.completed and (result.records is None) == ("trace" in pins)
    assert {key: got[key] for key in pins} == pins


def test_nominal_trace_digest_pinned(shared_run):
    check_row("nominal", shared_run)


def test_noisy_trace_and_clouds_digests_pinned(shared_run):
    check_row("survey5 seed 12", shared_run)


def test_smoke_clutter_records_digest_pinned(shared_run):
    check_row("smoke clutter", shared_run)


@pytest.mark.parametrize("serve", [False, True])
def test_queue_records_digest_pinned(shared_run, serve):
    # the benchmark workloads never queue a target; this run does, with
    # either way of serving a queued converging target
    check_row("queue, served from the queue" if serve else "queue, served on re-detection",
              shared_run)


def test_metrics_only_nominal_records_digest_pinned(shared_run):
    result = shared_run(missions.scenario("nominal"))
    assert missions.records_digest(result.records) == missions.PINS["nominal"].pins["records"]


def test_benchmark_pins_agree_with_the_table():
    # perfbench/worker.py keeps its own copy of its workloads' pins, which a
    # re-baseline of the table must move too
    assert missions.WORKER.PINNED
    for (workload, seed), pinned in missions.WORKER.PINNED.items():
        row = missions.PINS[f"{workload} seed {seed}"]
        assert row.scenario() == missions.WORKER.make_scenario(workload, seed, False)
        assert {key: row.pins[key] for key in pinned} == pinned, (workload, seed)
