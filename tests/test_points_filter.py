"""Sampling filter: generation, weighting, resampling, statistics, lifecycle,
and the whole filter stepped beside its plain form."""

import collections
import json
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from targetsim import harness, points_filter
from targetsim.detector import ellipsoid_target
from targetsim.geometry import CameraIntrinsics, Pose, project_points, yaw_rotation
from targetsim.points_filter import (
    AllZeroWeights,
    DegenerateBox,
    FilterConfig,
    GaussianSummary,
    PointsFilter,
    PointTarget,
    TargetState,
    associate,
    check_already_mapped,
    differential_entropy,
    enlarge_bbox,
    generate_points,
    kl_divergence,
    mixture_weights,
    on_image_edge,
    pose_delta,
    projection_count_costs,
    systematic_resample,
    update_points,
    viewing_pyramid,
)
from targetsim.tracker import TrackedBox
from targetsim.uav import camera_pose

from tests import missions
from tests.plain_filter import PlainFilter, counts, fit, update_weights
from tests.test_detector import box_alone
from tests.test_geometry import IDENTITY, from_yaw, project, rt, transform

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)

DE_IDENTITY = 1.5 + 1.5 * np.log(2.0 * np.pi)  # = 4.2568155996...


def random_psd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return a @ a.T * scale + 1e-3 * np.eye(3)


class TestGaussianSummary:
    @pytest.mark.parametrize("m", [400, 1000, 4000])
    def test_from_points_covariance_exactly_symmetric(self, m):
        # trace records and the entropy and KL tests read the covariance as
        # from_points builds it, without symmetrising it first
        rng = np.random.default_rng(m)
        for _ in range(100):
            spread = 10.0 ** rng.uniform(-4.0, 1.0, size=3)  # 1e-4 m to 10 m per axis
            mix = np.linalg.qr(rng.normal(size=(3, 3)))[0]  # correlate the axes
            points = rng.uniform(-100.0, 100.0, size=3) + (rng.normal(size=(m, 3)) * spread) @ mix
            cov = GaussianSummary.from_points(points).covariance
            assert cov.shape == (3, 3) and np.array_equal(cov, cov.T)

    @given(
        m=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e4),
        offset=st.floats(-1e4, 1e4),
        zeros=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    @example(m=1, seed=0, scale=1.0, offset=0.0, zeros=1.0)
    def test_mean_and_det_equal_numpy(self, m, seed, scale, offset, zeros):
        # the mean sums the rows in order, as mean(axis=0) does, bit for bit;
        # a share of the coordinates is -0.0 (all of them in the example)
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(m, 3)) * scale + offset * rng.uniform(-1.0, 1.0, 3)
        points[rng.random((m, 3)) < zeros] = -0.0
        s = GaussianSummary.from_points(points)
        assert s.mean.tobytes() == points.mean(axis=0).tobytes()
        assert s.det == float(np.linalg.det(s.covariance))


class TestDifferentialEntropy:
    def test_identity_covariance(self):
        h = differential_entropy(GaussianSummary(np.zeros(3), np.eye(3)))
        assert h == pytest.approx(4.256816, abs=1e-6)
        assert h == pytest.approx(DE_IDENTITY, abs=1e-12)

    def test_scaling_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cov = random_psd(rng)
            c = rng.uniform(0.1, 10.0)
            h0 = differential_entropy(GaussianSummary(np.zeros(3), cov))
            h1 = differential_entropy(GaussianSummary(np.zeros(3), c * cov))
            assert h1 - h0 == pytest.approx(1.5 * np.log(c), abs=1e-9)

    def test_four_identity_increases_by_half_log_64(self):
        h0 = differential_entropy(GaussianSummary(np.zeros(3), np.eye(3)))
        h1 = differential_entropy(GaussianSummary(np.zeros(3), 4.0 * np.eye(3)))
        assert h1 - h0 == pytest.approx(0.5 * np.log(64.0), abs=1e-12)

    def test_singular_covariance_is_neg_inf(self):
        h = differential_entropy(GaussianSummary(np.zeros(3), np.zeros((3, 3))))
        assert h == float("-inf")

    def test_monte_carlo_entropy_estimate(self):
        # sampling oracle: entropy == E[-log pdf] under the distribution
        rng = np.random.default_rng(42)
        cov = np.diag([2.0, 0.5, 1.3])
        samples = rng.multivariate_normal(np.zeros(3), cov, size=100_000)
        mc = -multivariate_normal(np.zeros(3), cov).logpdf(samples).mean()
        h = differential_entropy(GaussianSummary(np.zeros(3), cov))
        assert h == pytest.approx(mc, abs=0.05)


class TestKlDivergence:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = GaussianSummary(rng.normal(size=3), random_psd(rng))
            assert kl_divergence(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self):
        a = GaussianSummary(np.zeros(3), np.eye(3))
        b = GaussianSummary(np.array([1.0, 0.0, 0.0]), np.eye(3))
        assert kl_divergence(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            a = GaussianSummary(rng.normal(size=3), random_psd(rng, rng.uniform(0.1, 5)))
            b = GaussianSummary(rng.normal(size=3), random_psd(rng, rng.uniform(0.1, 5)))
            assert kl_divergence(a, b) >= 0.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scales=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        shift=st.floats(-1e3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_non_negative_and_zero_on_identical_hypothesis(self, seed, log_scales, shift):
        # covariances with eigenvalues in [1e-3, 1e3] and any orientation
        rng = np.random.default_rng(seed)

        def summary(log_scale):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            cov = q @ np.diag(10.0 ** np.asarray(log_scale)) @ q.T
            return GaussianSummary(rng.normal(size=3) * 10.0 + shift, (cov + cov.T) / 2.0)

        a, b = summary(log_scales[:3]), summary(log_scales[3:])
        for n0, n1 in ((a, b), (b, a), (a, a), (b, b)):
            assert kl_divergence(n0, n1) >= 0.0
        assert kl_divergence(a, a) == pytest.approx(0.0, abs=1e-9)
        assert kl_divergence(b, b) == pytest.approx(0.0, abs=1e-9)

    def test_singular_covariance_is_inf(self):
        # a collapsed cloud never counts toward the low-KLD streak
        good = GaussianSummary(np.zeros(3), np.eye(3))
        bad = GaussianSummary(np.zeros(3), np.zeros((3, 3)))
        assert kl_divergence(good, bad) == float("inf")
        assert kl_divergence(bad, good) == float("inf")


class TestGeneratePoints:
    CFG = FilterConfig(max_depth=50.0)

    def test_containment_and_depth_bounds(self):
        # oracle: reproject every generated point; it must land inside the
        # source box with depth in (0, max_depth * max corner z-scale]
        rng = np.random.default_rng(7)
        from tests.test_geometry import random_pose

        for _ in range(20):
            world_from_cam = random_pose(rng)
            u0, v0 = rng.uniform(10, 400), rng.uniform(10, 300)
            bbox = np.array([u0, v0, u0 + rng.uniform(10, 200), v0 + rng.uniform(10, 150)])
            pts = generate_points(bbox, *rt(world_from_cam), K, self.CFG, rng)
            assert pts.shape == (self.CFG.m, 3)
            corner_scale = K.unit_rays(
                np.array([[bbox[0], bbox[1]], [bbox[2], bbox[1]],
                          [bbox[2], bbox[3]], [bbox[0], bbox[3]]])
            )[:, 2].max()
            cam_from_world = world_from_cam.inverse()
            for p in pts:
                pixel, depth = project(p, cam_from_world, K)
                assert bbox[0] - 1e-9 <= pixel[0] <= bbox[2] + 1e-9
                assert bbox[1] - 1e-9 <= pixel[1] <= bbox[3] + 1e-9
                assert 0.0 < depth <= self.CFG.max_depth * corner_scale + 1e-9

    def test_single_point_vertex_case(self):
        # force the convex weights to (1, 0, 0, 0) and depth to max_depth:
        # the point must sit on the first corner ray at that depth
        class StubRng:
            def __init__(self):
                self.calls = 0

            def uniform(self, size):
                self.calls += 1
                if self.calls == 1:
                    return np.array([[1.0], [0.0], [0.0], [0.0]])
                return np.array([1.0])

        cfg = FilterConfig(m=1, max_depth=50.0)
        bbox = np.array([100.0, 80.0, 200.0, 160.0])
        world_from_cam = from_yaw(0.3, [5.0, -2.0, 20.0])
        pts = generate_points(bbox, *rt(world_from_cam), K, cfg, StubRng())
        expected = transform(world_from_cam, K.unit_rays(np.array([[100.0, 80.0]]))[0] * 50.0)
        np.testing.assert_allclose(pts[0], expected, atol=1e-9)

    def test_projection_coverage_spans_box(self):
        # seeded run: the empirical support must span the box. Normalized
        # uniform corner weights put only ~2e-4 mass within 2% of an edge,
        # so the honest bound for m=1000 is 5% of the box dimension.
        rng = np.random.default_rng(0)
        bbox = np.array([100.0, 80.0, 300.0, 240.0])
        pts = generate_points(bbox, *rt(IDENTITY), K, self.CFG, rng)
        uv = np.array([project(p, IDENTITY, K)[0] for p in pts])
        w, h = bbox[2] - bbox[0], bbox[3] - bbox[1]
        assert uv[:, 0].min() <= bbox[0] + 0.05 * w
        assert uv[:, 0].max() >= bbox[2] - 0.05 * w
        assert uv[:, 1].min() <= bbox[1] + 0.05 * h
        assert uv[:, 1].max() >= bbox[3] - 0.05 * h

    def test_degenerate_box_raises(self):
        with pytest.raises(DegenerateBox):
            generate_points(
                np.array([10.0, 10.0, 10.0, 50.0]), *rt(IDENTITY), K, self.CFG,
                np.random.default_rng(0),
            )


class TestMixtureWeights:
    BBOX = np.array([100.0, 150.0, 160.0, 190.0])  # 60 x 40 box

    def test_pure_uniform(self):
        area = 60.0 * 40.0
        inside = mixture_weights(np.array([130.0]), np.array([170.0]), self.BBOX, 0.0, 1.0)
        outside = mixture_weights(np.array([99.0]), np.array([170.0]), self.BBOX, 0.0, 1.0)
        assert inside[0] == pytest.approx(1.0 / area, abs=1e-15)
        assert outside[0] == 0.0

    def test_pure_gaussian_peak(self):
        su, sv = 30.0, 20.0
        peak = mixture_weights(np.array([130.0]), np.array([170.0]), self.BBOX, 1.0, 0.0)
        assert peak[0] == pytest.approx(1.0 / (2.0 * np.pi * su * sv), rel=1e-12)

    def test_mixture_integrates_to_one(self):
        # quadrature oracle: midpoint rule over +-10 sigma
        su, sv = 30.0, 20.0
        cu, cv = 130.0, 170.0
        n = 1500
        us = np.linspace(cu - 10 * su, cu + 10 * su, n)
        vs = np.linspace(cv - 10 * sv, cv + 10 * sv, n)
        du = us[1] - us[0]
        dv = vs[1] - vs[0]
        uu, vv = np.meshgrid(us, vs)
        total = mixture_weights(uu.ravel(), vv.ravel(), self.BBOX, 0.5, 0.5).sum() * du * dv
        assert total == pytest.approx(1.0, abs=1e-3)


class TestSystematicResample:
    def test_equal_weights_identity(self):
        idx = systematic_resample(np.ones(100), np.random.default_rng(0))
        np.testing.assert_array_equal(idx, np.arange(100))

    def test_zero_weight_points_never_selected(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(size=500)
        w[::3] = 0.0
        for _ in range(20):
            idx = systematic_resample(w, rng)
            assert np.all(w[idx] > 0)

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroWeights):
            systematic_resample(np.zeros(10), np.random.default_rng(0))

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-300)),
            min_size=1, max_size=300,
        ),
        draw=st.floats(0.0, 1.0, exclude_max=True),
    )
    # ten equal weights sum to 0.9999999999999999, so a draw just under 1
    # lands past the last cumulative weight unless it is clamped to 1
    @example(weights=[0.1] * 10, draw=float(np.nextafter(1.0, 0.0)))
    @settings(max_examples=300, deadline=None)
    def test_sorted_in_range_or_all_zero_hypothesis(self, weights, draw):
        w = np.array(weights)
        rng = type("Rng", (), {"random": lambda self: draw})()  # the one offset draw
        if w.sum() == 0.0:
            with pytest.raises(AllZeroWeights):
                systematic_resample(w, rng)
            return
        idx = systematic_resample(w, rng)
        assert idx.shape == (len(w),)
        assert (idx >= 0).all() and (idx < len(w)).all()
        assert (np.diff(idx) >= 0).all()

    def test_proportionality(self):
        # a point with half the total mass gets about half the slots
        w = np.ones(100)
        w[0] = 99.0
        idx = systematic_resample(w, np.random.default_rng(2))
        assert abs((idx == 0).sum() - 50) <= 1


class TestUpdatePoints:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        yaw=st.floats(-np.pi, np.pi),
        noise_var=st.sampled_from([1e-300, 1e-4, 0.01, 1.0]),
        w_gauss=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    @example(seed=1, n=300, yaw=0.0, noise_var=1e-300, w_gauss=0.3)
    def test_equals_pixel_pair_oracle(self, seed, n, yaw, noise_var, w_gauss):
        # bit-equal weights and points on random clouds. Under a yaw the
        # camera-frame z is world z + 4 exactly, so at noise 1e-300 (too
        # small to move a coordinate) points at z = -4 lie at depth 0 and
        # points below it behind the camera; at yaw 0 the camera frame is
        # exact too, and points at camera (+-8, 0, 15) and (0, +-6, 15)
        # project onto the image's edges. The box's edges are pixels of
        # points in the image, which lie on them
        rng = np.random.default_rng(seed)
        cfg = FilterConfig(m=n, update_noise_var=noise_var, w_gauss=w_gauss,
                           w_uniform=1.0 - w_gauss)
        rotation, translation = yaw_rotation(yaw), np.array([1.5, -2.0, 4.0])
        points = np.column_stack([rng.uniform(-8.0, 8.0, (n, 2)), rng.uniform(-6.0, 20.0, n)])
        kind = rng.integers(0, 5, n)  # 0, 1: as drawn; 2: at depth 0; 3: behind; 4: image edge
        points[kind == 2, 2] = -4.0
        points[kind == 3, 2] = -4.0 - rng.uniform(0.0, 3.0, (kind == 3).sum())
        edge = np.array([[8.0, 0.0, 15.0], [-8.0, 0.0, 15.0], [0.0, 6.0, 15.0], [0.0, -6.0, 15.0]])
        points[kind == 4] = (edge[rng.integers(0, 4, (kind == 4).sum())] - translation) @ rotation
        bbox = np.array([100.0, 100.0, 300.0, 300.0])
        pc = rotation @ points.T + translation[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            u, v = K.fx * pc[0] / pc[2] + K.cx, K.fy * pc[1] / pc[2] + K.cy
        seen = (pc[2] > 0) & (u >= 0) & (u <= K.width) & (v >= 0) & (v <= K.height)
        if seen.sum() >= 2:
            us, vs, q = np.sort(u[seen]), np.sort(v[seen]), seen.sum() // 4
            edges = np.array([us[q], vs[q], us[-1 - q], vs[-1 - q]])
            if edges[0] < edges[2] and edges[1] < edges[3]:
                bbox = edges
        resampled = []
        resample = points_filter.systematic_resample

        def recorded(w, rng):
            resampled.append(w.copy())
            return resample(w, rng)

        with mock.patch.object(points_filter, "systematic_resample", recorded):
            try:
                got = update_points(points, bbox, rotation, translation, K, cfg,
                                    np.random.default_rng(seed))
            except AllZeroWeights:
                got = None
        oracle_rng = np.random.default_rng(seed)
        perturbed, weights = update_weights(points, bbox, rotation, translation, K, cfg,
                                            oracle_rng)
        assert resampled[0].tobytes() == weights.tobytes()
        try:
            want = perturbed[systematic_resample(weights, oracle_rng)]
        except AllZeroWeights:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()

    def test_same_box_tiny_noise_keeps_support(self):
        rng = np.random.default_rng(3)
        cfg = FilterConfig(
            m=200, max_depth=50.0, update_noise_var=1e-12, w_gauss=0.0, w_uniform=1.0
        )
        bbox = np.array([200.0, 150.0, 400.0, 330.0])
        points = generate_points(bbox, *rt(IDENTITY), K, cfg, rng)
        new_points = update_points(points, bbox, *rt(IDENTITY), K, cfg, rng)
        # equal uniform weights: systematic resampling keeps every point
        np.testing.assert_allclose(new_points, points, atol=1e-5)
        kld = kl_divergence(
            GaussianSummary.from_points(new_points), GaussianSummary.from_points(points)
        )
        assert kld == pytest.approx(0.0, abs=1e-9)
        assert new_points.shape == points.shape

    def test_resampled_points_project_inside_box(self):
        # support property: zero-weight (outside-box) points never survive
        rng = np.random.default_rng(4)
        cfg = FilterConfig(m=500, max_depth=50.0, w_gauss=0.0, w_uniform=1.0)
        wide = np.array([100.0, 100.0, 500.0, 400.0])
        narrow = np.array([250.0, 200.0, 350.0, 300.0])
        points = generate_points(wide, *rt(IDENTITY), K, cfg, rng)
        new_points = update_points(points, narrow, *rt(IDENTITY), K, cfg, rng)
        assert new_points.shape == (500, 3)
        for p in new_points:
            pixel, depth = project(p, IDENTITY, K)
            assert depth > 0
            assert narrow[0] <= pixel[0] <= narrow[2]
            assert narrow[1] <= pixel[1] <= narrow[3]

    def test_all_points_behind_camera_raises(self):
        cfg = FilterConfig(m=50, max_depth=50.0)
        points = np.tile([0.0, 0.0, -10.0], (50, 1))  # behind an identity camera
        with pytest.raises(AllZeroWeights):
            update_points(
                points, np.array([300.0, 220.0, 340.0, 260.0]), *rt(IDENTITY), K,
                cfg, np.random.default_rng(0),
            )

    def test_closed_loop_convergence_on_orbit(self):
        # end-to-end oracle: orbiting viewpoints with exact boxes must pull
        # the cloud centroid onto the true target within 0.5 m
        rng = np.random.default_rng(0)
        true_center = np.array([50.0, 40.0, 1.0])
        target = ellipsoid_target("t", true_center, [1.0, 1.0, 1.0])
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        alt = 30.0
        radius = (alt - true_center[2]) / np.tan(np.deg2rad(45.0))
        kinds = []
        for i in range(120):
            theta = 4.0 * np.pi * i / 120
            pos = true_center + np.array(
                [radius * np.cos(theta), radius * np.sin(theta), 0.0]
            )
            pos[2] = alt
            yaw = np.arctan2(true_center[1] - pos[1], true_center[0] - pos[0])
            bbox = box_alone(target, camera_pose(yaw, pos, np.deg2rad(60.0)).inverse(), K)
            assert bbox is not None
            camera = rt(camera_pose(yaw, pos, np.deg2rad(60.0)))
            events, _ = flt.tick([TrackedBox(1, bbox)], *camera, rng)
            kinds += [e.kind for e in events]
            assert flt.targets[0].points.shape == (flt.cfg.m, 3)
        assert kinds[:2] == ["spawned", "converging"]
        err = np.linalg.norm(flt.targets[0].summary.mean - true_center)
        assert err < 0.5


@pytest.mark.parametrize("seed", range(12))
def test_entropy_does_not_rise_under_consistent_boxes(seed):
    # an orbit of keyframe-spaced views (0.3 rad, ~8.7 m apart), each with
    # the target's exact box: every tick is a keyframe update, and the
    # cloud's entropy falls from one update to the next until it nears its
    # floor, set by the 1 m target and the update jitter (1.4-1.8 nats
    # here), where resampling makes it wobble by a few hundredths; so the
    # property is checked while the entropy is at least 2 nats, which spans
    # the converging threshold (3 nats)
    rng = np.random.default_rng(seed)
    center = np.array([50.0, 40.0, 1.0])
    target = ellipsoid_target("t", center, [1.0, 1.0, 1.0])
    flt = PointsFilter(K, FilterConfig(max_depth=50.0))
    radius = 29.0  # the 45 degree orbit at 30 m
    entropies = []
    for i in range(20):
        theta = 0.3 * i
        pos = center + [radius * np.cos(theta), radius * np.sin(theta), 29.0]
        yaw = np.arctan2(center[1] - pos[1], center[0] - pos[0])
        camera = camera_pose(yaw, pos, np.deg2rad(60.0))
        bbox = box_alone(target, camera.inverse(), K)
        _, updated = flt.tick([TrackedBox(1, bbox)], *rt(camera), rng)
        assert len(flt.targets) == 1 and updated == ([] if i == 0 else [1])
        entropies.append(flt.targets[0].last_entropy)
    above = [(a, b) for a, b in zip(entropies, entropies[1:]) if a >= 2.0]
    assert len(above) >= 4 and entropies[0] > 4.0
    assert all(b <= a for a, b in above), entropies


def point_target(points, hull=None):
    points = np.asarray(points, dtype=float)
    return PointTarget(0, points, TargetState.TRACKING, rt(IDENTITY), hull=hull)


def spawned(bbox, world_from_cam, cfg, rng):
    """A cloud as tick spawns it: sampled in the box's viewing pyramid, which is its hull."""
    bbox = np.asarray(bbox, dtype=float)
    points = generate_points(bbox, *rt(world_from_cam), K, cfg, rng)
    return point_target(points, viewing_pyramid(bbox, *rt(world_from_cam), K, cfg.max_depth))


class TestAssociate:
    def make_target(self, points):
        return point_target(points)

    def test_full_containment_cost(self):
        rng = np.random.default_rng(5)
        cfg = FilterConfig(m=300, max_depth=50.0)
        bbox = np.array([200.0, 150.0, 400.0, 330.0])
        pts = generate_points(bbox, *rt(IDENTITY), K, cfg, rng)
        pairs, unmatched = associate(
            [bbox], [self.make_target(pts)], *rt(IDENTITY), K, cfg.min_points_in_box
        )
        assert pairs == [(0, 0)] and unmatched == []

    def test_below_gate_rejected(self):
        # cloud mostly elsewhere: fewer than min_points land in the box
        rng = np.random.default_rng(6)
        cfg = FilterConfig(m=1000, max_depth=50.0)
        source = np.array([100.0, 100.0, 500.0, 400.0])
        pts = generate_points(source, *rt(IDENTITY), K, cfg, rng)
        tiny = np.array([110.0, 110.0, 130.0, 130.0])
        pairs, unmatched = associate(
            [tiny], [self.make_target(pts)], *rt(IDENTITY), K, cfg.min_points_in_box
        )
        assert pairs == [] and unmatched == [0]

    def test_crossed_costs_matches_brute_force(self):
        from tests.test_tracker import brute_force_best

        rng = np.random.default_rng(8)
        cfg = FilterConfig(m=1000, max_depth=50.0)
        box_a = np.array([100.0, 100.0, 250.0, 220.0])
        box_b = np.array([400.0, 260.0, 550.0, 400.0])
        cloud_a = generate_points(box_a, *rt(IDENTITY), K, cfg, rng)
        cloud_b = generate_points(box_b, *rt(IDENTITY), K, cfg, rng)
        targets = [self.make_target(cloud_b), self.make_target(cloud_a)]
        costs = projection_count_costs([box_a, box_b], targets, *rt(IDENTITY), K)
        pairs, _ = associate([box_a, box_b], targets, *rt(IDENTITY), K, 100)
        total = sum(costs[i, j] for i, j in pairs)
        assert total == brute_force_best(costs, maximize=True)
        assert sorted(pairs) == [(0, 1), (1, 0)]


class TestProjectionCounts:
    def test_vectorised_counts_equal_per_box_loop(self):
        # boxes whose edges are projected pixels of the clouds themselves,
        # so points lie exactly on each edge; points at depth 0 and behind
        # the camera, where the behind ones mirror in-box points
        rng = np.random.default_rng(43)
        cfg = FilterConfig(m=600, max_depth=50.0)
        for _ in range(30):
            world_from_cam = from_yaw(rng.uniform(-np.pi, np.pi), rng.uniform(-20, 20, 3))
            cam_from_world = world_from_cam.inverse()
            targets = []
            for _ in range(int(rng.integers(1, 5))):
                u0, v0 = rng.uniform(10, 400), rng.uniform(10, 300)
                box = [u0, v0, u0 + rng.uniform(5, 200), v0 + rng.uniform(5, 150)]
                cam_pts = transform(cam_from_world, spawned(box, world_from_cam, cfg, rng).points)
                cam_pts[:20] *= -1.0  # behind the camera, same pixels
                cam_pts[20:25, 2] = 0.0  # depth 0
                targets.append(point_target(transform(world_from_cam, cam_pts)))
            boxes, sources = [], rng.integers(len(targets), size=int(rng.integers(1, 6)))
            for j in sources:
                uv, depths = project_points(targets[j].points, *rt(cam_from_world), K)
                front = uv[depths > 0]
                a, b = front[rng.choice(len(front), 2, replace=False)]
                boxes.append(np.array([*np.minimum(a, b), *np.maximum(a, b)]))
            got = projection_count_costs(boxes, targets, *rt(cam_from_world), K)
            want = counts(boxes, [t.points for t in targets], *rt(cam_from_world), K)
            assert np.array_equal(got, want) and got.shape == (len(boxes), len(targets))
            # the two points on the box's edges count
            assert (got[np.arange(len(boxes)), sources] >= 2).all()
        no_boxes = projection_count_costs([], targets, *rt(cam_from_world), K)
        assert no_boxes.shape == (0, len(targets))

    @given(
        seed=st.integers(0, 2**32 - 1),
        moved=st.booleans(),
        refit=st.lists(st.booleans(), min_size=1, max_size=4),
        apex=st.booleans(),
    )
    @example(seed=3, moved=False, refit=[False, False, False], apex=False)
    @example(seed=0, moved=False, refit=[False], apex=True)  # culled with no cull margin
    @settings(max_examples=60, deadline=None)
    def test_cull_and_reuse_count_as_brute_force(self, seed, moved, refit, apex):
        # clouds spawned as tick spawns them (hull: the viewing pyramid), with
        # or without points within ulps of the pyramid's apex, or refit (hull: the
        # bounding box), some of them with points at depth
        # 0 and behind the counting camera; counted from a camera moved off
        # the spawn camera or from the spawn camera itself, whose centre is
        # every pyramid's apex; boxes with projected points on their edges
        # and boxes anywhere. Every count equals the brute-force loop, twice
        # under one rotation (the second reuses the rotated points) and
        # again after set_points.
        rng = np.random.default_rng(seed)
        cfg = FilterConfig(m=200, max_depth=50.0)
        gamma = np.deg2rad(rng.uniform(30.0, 90.0))
        yaw, position = rng.uniform(-np.pi, np.pi), [*rng.uniform(-50, 50, 2), 30.0]
        spawn_camera = camera_pose(yaw, position, gamma)
        if moved:
            step = rng.normal(0.0, 3.0, 3)
            camera = camera_pose(yaw + rng.normal(0.0, 0.2), position + step, gamma)
        else:
            camera = spawn_camera
        view = rt(camera.inverse())
        targets = []
        for refitted in refit:
            u0, v0 = rng.uniform(0, 560), rng.uniform(0, 400)
            box = [u0, v0, u0 + rng.uniform(8, 80), v0 + rng.uniform(8, 80)]
            target = spawned(box, spawn_camera, cfg, rng)
            if refitted:
                cam_pts = transform(camera.inverse(), target.points)
                cam_pts[:10] *= -1.0  # behind the counting camera
                cam_pts[10:15, 2] = 0.0  # at its depth 0
                target.set_points(transform(camera, cam_pts))
            elif apex:  # points within ulps of the apex: from there they project anywhere
                centre = spawn_camera.translation
                near = centre + (target.points[:4] - centre) * [[0.0], [1e-16], [1e-15], [1e-14]]
                target.set_points(np.vstack([near, target.points[4:]]), target.hull)
            targets.append(target)
        boxes = []
        for target in targets:
            uv, depths = project_points(target.points, *view, K)
            sane = (depths > 0) & (np.abs(uv) < 1e4).all(axis=1)
            if sane.sum() < 2:
                continue
            a, b = uv[sane][rng.choice(sane.sum(), 2, replace=False)]
            boxes.append(np.array([*np.minimum(a, b), *np.maximum(a, b)]))
            # boxes of a few pixels around the points that project furthest
            # left, right, up and down, which only a hull that holds every
            # point keeps from culling
            for c in uv[sane][[*np.argmin(uv[sane], axis=0), *np.argmax(uv[sane], axis=0)]]:
                boxes.append(np.concatenate([c - rng.uniform(0, 2, 2), c + rng.uniform(0, 2, 2)]))
        for _ in range(2):
            u0, v0 = rng.uniform(0, 600), rng.uniform(0, 440)
            boxes.append(np.array([u0, v0, u0 + rng.uniform(8, 200), v0 + rng.uniform(8, 150)]))
        for _ in range(2):
            got = projection_count_costs(boxes, targets, *view, K)
            assert np.array_equal(got, counts(boxes, [t.points for t in targets], *view, K))
        targets[0].set_points(targets[0].points[::2] + rng.normal(0.0, 0.1, (cfg.m // 2, 3)))
        got = projection_count_costs(boxes, targets, *view, K)
        assert np.array_equal(got, counts(boxes, [t.points for t in targets], *view, K))

    def test_culled_clouds_are_not_projected(self, monkeypatch):
        # seen 3 m further along the lane, a cloud spawned near the left
        # edge is culled by a box between it and the image centre, and
        # counts zero without being projected; one that the box sees is
        # projected once per call, and its rotated points are reused under
        # the same rotation until set_points. (From the spawn camera nothing
        # is culled: the pyramid's apex is the camera centre, on the plane
        # of every cull row.)
        rng = np.random.default_rng(2)
        cfg = FilterConfig(m=300, max_depth=50.0)
        spawn_camera = camera_pose(0.0, [0.0, 0.0, 30.0], np.deg2rad(60.0))
        view = rt(camera_pose(0.0, [3.0, 0.0, 30.0], np.deg2rad(60.0)).inverse())
        left = spawned([20.0, 200.0, 80.0, 260.0], spawn_camera, cfg, rng)
        right = spawned([220.0, 200.0, 280.0, 260.0], spawn_camera, cfg, rng)
        projected, rotated = [], []
        pixel_rows = points_filter.pixel_rows
        monkeypatch.setattr(
            points_filter, "pixel_rows", lambda pc, k: projected.append(pc) or pixel_rows(pc, k)
        )
        box = np.array([200.0, 180.0, 300.0, 280.0])
        for _ in range(2):
            costs = projection_count_costs([box], [left, right], *view, K)
            assert costs[0, 0] == 0 and costs[0, 1] > 0
            rotated.append(right._rotated[1])
        assert len(projected) == 2 and rotated[0] is rotated[1]
        # the kept rows are the rotated points still: pixel_rows, which
        # writes into its input, projected a translated copy of them
        assert rotated[1].tobytes() == (view[0] @ right.points.T).tobytes()
        right.set_points(right.points)
        assert right._rotated is None


class TestTickLifecycle:
    def overhead_cam(self, x=0.0):
        """tick's camera arguments: its world-from-camera rotation and translation."""
        return rt(camera_pose(0.0, [x, 0.0, 30.0], np.deg2rad(60.0)))

    def test_fp_starvation_deregisters_without_converging(self):
        # a target that stops receiving boxes dies after the grace period
        rng = np.random.default_rng(9)
        cfg = FilterConfig(max_depth=50.0, max_missed_updates=10)
        flt = PointsFilter(K, cfg)
        bbox = np.array([300.0, 220.0, 330.0, 250.0])
        events, _ = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(0.0), rng)
        assert [e.kind for e in events] == ["spawned"]
        events, _ = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(1.0), rng)
        kinds = []
        for _ in range(10):
            events, _ = flt.tick([], *self.overhead_cam(2.0), rng)
            kinds += [e.kind for e in events]
        assert kinds == ["deregistered"]
        assert flt.targets == []
        assert "converging" not in kinds

    def test_tick_inverts_the_camera_it_is_given(self, monkeypatch):
        # the run gives tick a row of a rotation stack whose other rows are
        # other cameras, and the estimated position; tick's spawn, keyframe
        # and update see that camera, inverted exactly as a one-camera
        # Pose.inverse inverts it
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        gamma = np.deg2rad(60.0)
        seen = []

        def spied(points, box, rotation, translation, *args):
            seen.append((rotation, translation))
            return update_points(points, box, rotation, translation, *args)

        monkeypatch.setattr(points_filter, "update_points", spied)
        runs = []
        for camera_at in (
            lambda x: (
                camera_pose([2.0, 0.0], [[40.0, -30.0, 50.0], [x, 1.0, 30.0]], gamma).rotation[1],
                np.array([x, 0.0, 30.0]),
            ),
            self.overhead_cam,
        ):
            rng = np.random.default_rng(18)
            flt = PointsFilter(K, FilterConfig(max_depth=50.0))
            spawned, _ = flt.tick([TrackedBox(1, bbox)], *camera_at(0.0), rng)
            spawn_points = flt.targets[0].points.copy()
            rotation, translation = camera_at(1.0)
            events, updated = flt.tick([TrackedBox(1, bbox)], rotation, translation, rng)
            target = flt.targets[0]
            assert [e.kind for e in spawned] == ["spawned"] and updated == [target.target_id]
            assert target.last_keyframe[0] is rotation and target.last_keyframe[1] is translation
            views = camera_pose([0.0], [[1.0, 0.0, 30.0]], gamma).inverse()
            assert np.array_equal(seen[-1][0], views.rotation[0])
            assert np.array_equal(seen[-1][1], views.translation[0])
            runs.append((spawn_points, target.points, [e.to_dict() for e in events]))
        stacked, alone = runs
        assert np.array_equal(stacked[0], alone[0]) and np.array_equal(stacked[1], alone[1])
        assert stacked[2] == alone[2] and len(seen) == 2

    def test_mapped_target_consumes_box_without_update(self):
        rng = np.random.default_rng(10)
        cfg = FilterConfig(max_depth=50.0)
        flt = PointsFilter(K, cfg)
        cam = self.overhead_cam()
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        flt.tick([TrackedBox(1, bbox)], *cam, rng)
        target = flt.targets[0]
        flt.mark_mapped(target.target_id, target.points)
        before = target.points.copy()
        for x in (1.0, 2.0, 3.0):
            events, updated = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(x), rng)
            assert events == [] and updated == []
        assert target.state is TargetState.MAPPED
        np.testing.assert_array_equal(target.points, before)
        assert len(flt.targets) == 1  # permanently registered

    def test_unmatched_box_spawns_new_target(self):
        rng = np.random.default_rng(12)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        cam = self.overhead_cam()
        a = np.array([100.0, 100.0, 160.0, 160.0])
        b = np.array([480.0, 300.0, 540.0, 360.0])
        flt.tick([TrackedBox(1, a)], *cam, rng)
        events, _ = flt.tick([TrackedBox(1, a), TrackedBox(2, b)], *cam, rng)
        spawned = [e for e in events if e.kind == "spawned"]
        assert len(spawned) == 1
        assert len(flt.targets) == 2

    def test_edge_boxes_dropped_entirely(self):
        rng = np.random.default_rng(13)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        edge_box = np.array([0.0, 100.0, 60.0, 160.0])
        events, _ = flt.tick([TrackedBox(1, edge_box)], *self.overhead_cam(), rng)
        assert events == [] and flt.targets == []

    def test_entropy_direction_flag(self):
        # with entropy_below=False the comparison flips: a freshly spawned
        # wide cloud (high entropy) promotes on its first update
        rng = np.random.default_rng(21)
        cfg = FilterConfig(max_depth=50.0, entropy_below=False, entropy_converging=3.0)
        flt = PointsFilter(K, cfg)
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(0.0), rng)
        events, _ = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(1.0), rng)
        assert [e.kind for e in events] == ["converging"]

    def test_keyframe_gate_blocks_stationary_updates(self):
        rng = np.random.default_rng(14)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        cam = self.overhead_cam()
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        flt.tick([TrackedBox(1, bbox)], *cam, rng)
        for _ in range(5):  # same pose: no keyframe, counts as missed
            _, updated = flt.tick([TrackedBox(1, bbox)], *cam, rng)
            assert updated == []
        assert flt.targets[0].miss_counter == 5

    def test_failed_update_emits_event(self, monkeypatch):
        def no_support(*args):
            raise AllZeroWeights("weights sum to zero")

        rng = np.random.default_rng(16)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(0.0), rng)
        target = flt.targets[0]
        monkeypatch.setattr(points_filter, "update_points", no_support)
        events, updated = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(1.0), rng)
        assert [e.to_dict() for e in events] == [
            {"type": "update_failed", "target": target.target_id}
        ]
        assert updated == [] and target.miss_counter == 1

    def test_zero_area_box_on_a_target_emits_update_failed(self):
        # a cloud collapsed onto one point counts every point in the
        # zero-area box around its pixel; the box weights nothing
        rng = np.random.default_rng(17)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        flt.tick([TrackedBox(1, np.array([280.0, 200.0, 360.0, 280.0]))],
                 *self.overhead_cam(0.0), rng)
        target = flt.targets[0]
        target.set_points(np.tile(target.points[0], (len(target.points), 1)))
        moved = self.overhead_cam(1.0)
        uv, _ = project_points(target.points, *rt(Pose(*moved).inverse()), K)
        u, v = uv[0]
        events, updated = flt.tick([TrackedBox(1, np.array([u, v, u, v]))], *moved, rng)
        assert [e.to_dict() for e in events] == [
            {"type": "update_failed", "target": target.target_id}
        ]
        assert updated == [] and target.miss_counter == 1

    def test_zero_area_box_emits_spawn_failed(self):
        rng = np.random.default_rng(17)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        flat = np.array([300.0, 200.0, 300.0, 260.0])
        events, _ = flt.tick([TrackedBox(1, flat)], *self.overhead_cam(), rng)
        assert [e.to_dict() for e in events] == [
            {"type": "spawn_failed", "bbox": [300.0, 200.0, 300.0, 260.0]}
        ]
        assert flt.targets == []

    def test_cached_summary_equals_fresh_fit(self):
        # the summary is refitted only where the points change: spawn,
        # keyframe update and mark_mapped
        def assert_fresh(target):
            fresh = GaussianSummary.from_points(target.points)
            np.testing.assert_array_equal(target.summary.mean, fresh.mean)
            np.testing.assert_array_equal(target.summary.covariance, fresh.covariance)

        rng = np.random.default_rng(15)
        flt = PointsFilter(K, FilterConfig(max_depth=50.0))
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(0.0), rng)
        target = flt.targets[0]
        assert_fresh(target)
        spawned = target.points
        _, updated = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(1.0), rng)
        assert updated == [target.target_id] and target.points is not spawned
        assert_fresh(target)
        cloud = rng.normal(size=(50, 3))
        flt.mark_mapped(target.target_id, cloud)
        np.testing.assert_array_equal(target.points, cloud)
        assert_fresh(target)

    def test_last_kld_compares_new_fit_with_old(self):
        # the update's KL divergence is taken between the cached fits
        # before and after the update, and its low-KLD test feeds the streak
        rng = np.random.default_rng(18)
        cfg = FilterConfig(max_depth=50.0)
        flt = PointsFilter(K, cfg)
        bbox = np.array([280.0, 200.0, 360.0, 280.0])
        flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(0.0), rng)
        target = flt.targets[0]
        for x in (1.0, 2.0, 3.0):
            old = target.summary
            _, updated = flt.tick([TrackedBox(1, bbox)], *self.overhead_cam(x), rng)
            assert updated == [target.target_id] and target.summary is not old
            assert target.last_kld == kl_divergence(target.summary, old)
        assert 0.0 < target.last_kld < float("inf")


class TestCheckAlreadyMapped:
    def test_no_mapped_targets(self):
        assert check_already_mapped(np.zeros(3), [], 2.0) is False

    def test_close_center(self):
        assert check_already_mapped(np.zeros(3), [np.array([0.1, 0.0, 0.0])], 2.0) is True

    def test_exactly_at_threshold_is_false(self):
        assert check_already_mapped(np.zeros(3), [np.array([2.0, 0.0, 0.0])], 2.0) is False


class TestHelpers:
    def test_enlarge_bbox_symmetric_and_clipped(self):
        bbox = np.array([100.0, 100.0, 200.0, 180.0])
        out = enlarge_bbox(bbox, 0.2, K)
        np.testing.assert_allclose(out, [90.0, 92.0, 210.0, 188.0])
        near_edge = np.array([2.0, 2.0, 102.0, 82.0])
        out = enlarge_bbox(near_edge, 0.5, K)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_on_image_edge(self):
        assert on_image_edge(np.array([0.0, 50.0, 60.0, 90.0]), K, 1.0)
        assert on_image_edge(np.array([600.0, 50.0, 639.5, 90.0]), K, 1.0)
        assert not on_image_edge(np.array([50.0, 50.0, 90.0, 90.0]), K, 1.0)

    def test_pose_delta(self):
        a = from_yaw(0.0, [0.0, 0.0, 0.0])
        b = from_yaw(0.25, [3.0, 4.0, 0.0])
        dt, dr = pose_delta(rt(a), rt(b))
        assert dt == pytest.approx(5.0)
        assert dr == pytest.approx(0.25, abs=1e-12)

    def test_filter_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(w_gauss=0.7, w_uniform=0.5)
        assert FilterConfig(m=1000).min_points_in_box == 100


class SteppedBeside(PointsFilter):
    """PointsFilter with tests/plain_filter.py's PlainFilter stepped beside
    it on a twin of each tick's generator. After every tick, mark_mapped and
    deregister the two must hold the same events and updated ids, count
    matrices, generator state and targets: each target's trace entry (id,
    state, mean, covariance, entropy, KL divergence and point count), miss
    and streak counters, and cloud, byte for byte."""

    def __init__(self, k, cfg=None):
        super().__init__(k, cfg)
        self.plain = PlainFilter(k, self.cfg)
        self.calls = collections.Counter()
        self.kinds = set()  # the kinds of event that tick returned

    def tick(self, boxes, rotation, translation, rng):
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = rng.bit_generator.state
        costs, kernel = [], points_filter.projection_count_costs

        def recorded(*args):
            costs.append(kernel(*args))
            return costs[-1]

        with mock.patch.object(points_filter, "projection_count_costs", recorded):
            events, updated = super().tick(boxes, rotation, translation, rng)
        plain_events, plain_updated = self.plain.tick(boxes, rotation, translation, twin)
        assert [(c.shape, c.tobytes()) for c in costs] == \
            [(c.shape, c.tobytes()) for c in self.plain.costs]
        assert rng.bit_generator.state == twin.bit_generator.state
        self.check("tick", ([e.to_dict() for e in events], updated),
                   ([e.to_dict() for e in plain_events], plain_updated))
        self.kinds.update(e.kind for e in events)
        return events, updated

    def mark_mapped(self, target_id, cloud):
        super().mark_mapped(target_id, cloud)
        self.plain.mark_mapped(target_id, cloud)
        self.check("mark_mapped", None, None)

    def deregister(self, target_id):
        event = super().deregister(target_id)
        self.check("deregister", event.to_dict(), self.plain.deregister(target_id).to_dict())
        return event

    def check(self, call, got, want):
        self.calls[call] += 1
        assert json.dumps(got) == json.dumps(want)
        assert [target_bytes(t, t.summary.mean, t.summary.covariance) for t in self.targets] == \
            [target_bytes(t, *fit(t.points)) for t in self.plain.targets]


def target_bytes(t, mean, cov) -> tuple:
    return (t.target_id, t.state.value, mean.tobytes(), cov.tobytes(), repr(t.last_entropy),
            repr(t.last_kld), t.miss_counter, t.kld_streak, t.points.shape, t.points.tobytes())


@pytest.mark.parametrize("mission", [
    missions.nominal, partial(missions.survey5, 12, smoke=True),
    partial(missions.clutter1, 7, smoke=True),
], ids=["nominal", "smoke_survey5", "smoke_clutter1"])
def test_missions_step_beside_the_plain_filter(shared_run, mission):
    # the shared run's filter calls replayed, each tick from its recorded generator state
    s = harness.scenario_from_dict(mission())
    result = shared_run(s)
    flt = missions.replay(SteppedBeside, s, result.recording.calls)
    assert result.completed and flt.calls["tick"] == result.frames
    assert flt.calls["mark_mapped"] == len(result.mapped_true_ids) and "converged" in flt.kinds


GAMMA = np.deg2rad(60.0)
CENTRE_BOX = ("free", 280.0, 200.0, 80.0, 80.0)
# ("tick", (x, yaw), boxes): a tick seen from camera_pose(yaw, (x, 0, 30)); a
# box is ("cloud", j, q), between the q and 1 - q quantiles of the pixels of
# live target j's points in front of the camera, ("point", j, i), 2 px
# around one of those pixels, or ("free", u0, v0, w, h)
BOXES = st.one_of(
    st.tuples(st.just("cloud"), st.integers(0, 3), st.sampled_from([0.0, 0.1, 0.3])),
    st.tuples(st.just("point"), st.integers(0, 3), st.integers(0, 5)),
    st.tuples(st.just("free"), st.floats(0.0, 600.0), st.floats(0.0, 440.0),
              st.sampled_from([0.0, 8.0, 60.0, 200.0]), st.sampled_from([0.0, 8.0, 60.0])),
)
TICKS = st.tuples(
    st.just("tick"),
    st.tuples(st.sampled_from([0.0, 0.3, 1.0, 3.0]), st.sampled_from([0.0, 0.05, 0.3])),
    st.lists(BOXES, max_size=3),
)
CALLS = st.one_of(
    st.none(), st.none(),
    st.tuples(st.just("map"), st.integers(0, 3), st.sampled_from(["empty", "half", "moved"])),
    st.tuples(st.just("drop"), st.integers(0, 3)),
)
# ticks, each followed by a mark_mapped, a deregister or no call
OPS = st.lists(st.tuples(TICKS, CALLS), min_size=3, max_size=12).map(
    lambda pairs: [op for pair in pairs for op in pair if op is not None]
)
CONFIGS = st.fixed_dictionaries({
    "m": st.sampled_from([20, 200]),
    "update_noise_var": st.sampled_from([0.01, 1.0, 1e4]),
    "w_gauss": st.sampled_from([0.0, 0.5, 1.0]),
    "max_missed_updates": st.integers(1, 4),
    "kld_streak_needed": st.integers(1, 3),
    "entropy_converging": st.sampled_from([3.0, 8.0]),
})


def box_of(spec, flt, camera) -> np.ndarray:
    kind, *args = spec
    if kind != "free" and flt.targets:
        points = flt.targets[args[0] % len(flt.targets)].points
        uv, depths = project_points(points, *rt(camera.inverse()), K)
        front = uv[depths > 0]
        if len(front) and kind == "cloud":
            lo, hi = np.quantile(front, [args[1], 1.0 - args[1]], axis=0)
            return np.array([*lo, *hi])
        if len(front):  # a 2 px box around the first, the last or an extreme pixel
            pixel = front[[0, -1, *np.argmin(front, axis=0), *np.argmax(front, axis=0)][args[1]]]
            return np.concatenate([pixel - 1.0, pixel + 1.0])
    _, u0, v0, w, h = spec if kind == "free" else CENTRE_BOX
    return np.array([u0, v0, u0 + w, v0 + h])


def step_sequence(config, seed, ops) -> SteppedBeside:
    """Step a SteppedBeside through ops: ticks, mark_mapped of live target j
    (with no points, every other point, or its points moved 1 m) and
    deregister of live target j."""
    flt = SteppedBeside(K, FilterConfig(max_depth=50.0, w_uniform=1.0 - config["w_gauss"],
                                        **config))
    rng = np.random.default_rng(seed)
    for op, *args in ops:
        if op == "tick":
            (x, yaw), specs = args
            camera = camera_pose(yaw, [x, 0.0, 30.0], GAMMA)
            boxes = [TrackedBox(n, box_of(spec, flt, camera)) for n, spec in enumerate(specs)]
            flt.tick(boxes, *rt(camera), rng)
        elif flt.targets:
            target = flt.targets[args[0] % len(flt.targets)]
            if op == "drop":
                flt.deregister(target.target_id)
            else:
                cloud = {"empty": np.empty((0, 3)), "half": target.points[::2],
                         "moved": target.points + 1.0}[args[1]]
                flt.mark_mapped(target.target_id, cloud)
    return flt


DEFAULTS = {"m": 200, "update_noise_var": 0.01, "w_gauss": 0.5, "max_missed_updates": 4,
            "kld_streak_needed": 3, "entropy_converging": 3.0}
SPAWN = ("tick", (0.0, 0.0), [CENTRE_BOX])
MOVED = (3.0, 0.0)
# one sequence for each way a target's life ends, or a call the filter owns
LIFECYCLE = {
    "deregistered": ({**DEFAULTS, "max_missed_updates": 2}, 1,
                     [SPAWN, ("tick", MOVED, []), ("tick", MOVED, [])]),
    "update_failed": ({**DEFAULTS, "m": 20, "update_noise_var": 1e4, "w_gauss": 0.0}, 2,
                      [SPAWN, ("tick", MOVED, [("cloud", 0, 0.3)])]),
    "spawn_failed": (DEFAULTS, 3, [("tick", (0.0, 0.0), [("free", 300.0, 200.0, 0.0, 60.0)])]),
    "mark_mapped": (DEFAULTS, 4, [SPAWN, ("map", 0, "half"), ("tick", MOVED, [("cloud", 0, 0.1)])]),
    "deregister": (DEFAULTS, 5, [SPAWN, ("drop", 0), ("tick", MOVED, [CENTRE_BOX])]),
}


@given(config=CONFIGS, seed=st.integers(0, 2**32 - 1), ops=OPS)
@example(*LIFECYCLE["deregistered"])
@example(*LIFECYCLE["update_failed"])
@example(*LIFECYCLE["spawn_failed"])
@example(*LIFECYCLE["mark_mapped"])
@example(*LIFECYCLE["deregister"])
@example(  # an update collapses the cloud to one point, whose zero-area box then matches it
    {**DEFAULTS, "m": 20, "update_noise_var": 1e4, "max_missed_updates": 1, "kld_streak_needed": 1},
    7120,
    [("tick", (0.0, 0.0), [("cloud", 0, 0.0), ("cloud", 0, 0.0)]), ("drop", 0),
     ("tick", (3.0, 0.0), [("cloud", 0, 0.0)]), ("tick", (0.0, 0.0), [("cloud", 0, 0.0)])],
)
@settings(max_examples=60, deadline=None)
def test_box_sequences_step_beside_the_plain_filter(config, seed, ops):
    step_sequence(config, seed, ops)  # compares the bytes after every call


@pytest.mark.parametrize("end", LIFECYCLE)
def test_sequences_reach_every_lifecycle_end(end):
    flt = step_sequence(*LIFECYCLE[end])
    reached = flt.kinds | {call for call in ("mark_mapped", "deregister") if flt.calls[call]}
    assert end in reached
