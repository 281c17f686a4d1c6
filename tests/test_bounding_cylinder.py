"""Bounding cylinder fit: enclosing vs statistical candidates, intersection.
The unit cube, the minimum of the candidates and translation equivariance
on random clouds are acceptance criterion 7."""

import numpy as np
import pytest

from targetsim.bounding_cylinder import (
    BoundingCylinder,
    DegeneratePoints,
    fit_bounding_cylinder,
)


def reference_fit(points):
    """Direct evaluation of the two-candidate definition (formula oracle)."""
    centroid = points.mean(axis=0)
    sigma = points.std(axis=0)
    r1 = np.max(np.hypot(points[:, 0] - centroid[0], points[:, 1] - centroid[1]))
    h1 = points[:, 2].max() - points[:, 2].min()
    r2 = 3.0 * max(sigma[0], sigma[1])
    h2 = 6.0 * sigma[2]
    return centroid, min(r1, r2), min(h1, h2)


def test_tall_thin_column_statistical_radius_clips():
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.normal(0, 0.05, 5000), rng.normal(0, 0.05, 5000), rng.uniform(0, 10, 5000)]
    )
    # one horizontal outlier: enclosing radius blows up, 3-sigma clips it
    pts[0, 0] = 5.0
    cyl = fit_bounding_cylinder(pts)
    centroid, radius, height = reference_fit(pts)
    np.testing.assert_allclose(cyl.center, centroid, atol=1e-12)
    assert cyl.radius == pytest.approx(radius, abs=1e-12)
    assert cyl.height == pytest.approx(height, abs=1e-12)
    assert cyl.radius < 1.0  # the outlier at 5 m did not set the radius


def test_isotropic_gaussian_height_is_six_sigma():
    rng = np.random.default_rng(1)
    pts = rng.normal(0.0, 1.0, size=(10_000, 3))
    cyl = fit_bounding_cylinder(pts)
    # z-extent of 10^4 unit-Gaussian samples is ~7.5, so 6 sigma wins
    assert cyl.height == pytest.approx(6.0, rel=0.05)


def test_rejects_too_few_or_degenerate():
    with pytest.raises(ValueError):
        fit_bounding_cylinder(np.eye(3))  # three points
    with pytest.raises(DegeneratePoints):
        fit_bounding_cylinder(np.tile([1.0, 2.0, 3.0], (10, 1)))


def test_z_bounds():
    cyl = BoundingCylinder(center=[0.0, 0.0, 5.0], radius=1.0, height=4.0)
    assert cyl.z_bottom == 3.0 and cyl.z_top == 7.0
