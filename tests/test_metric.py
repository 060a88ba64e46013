import math
import random

import pytest

from oltsp_lab.metric import (
    EPS,
    EdgePoint,
    General,
    Line,
    MetricError,
    Ring,
    SemiLine,
    Star,
)


def test_ring_wraparound_distance():
    r = Ring(1.0)
    assert r.distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-12)
    assert r.distance(0.0, 0.5) == pytest.approx(0.5)


def test_star_cross_ray_distance():
    s = Star(3)
    assert s.distance((0, 0.5), (1, 0.3)) == pytest.approx(0.8)
    assert s.distance((0, 0.4), (0, 0.1)) == pytest.approx(0.3)
    # the hub compares equal regardless of ray index
    assert s.distance((0, 0.0), (2, 0.0)) == 0.0
    assert s.distance((2, 0.0), (1, 0.7)) == pytest.approx(0.7)


def test_general_reference_matrix_distance(example1):
    assert example1.space.distance(1, 3) == 1
    assert example1.space.distance(0, 2) == 2


def test_travel_semiline_midpoint():
    assert SemiLine().travel(0.0, 1.0, 0.5) == pytest.approx(0.5)


def test_travel_ring_counterclockwise_shortcut():
    r = Ring(1.0)
    assert r.travel(0.0, 0.9, 0.05) == pytest.approx(0.95)
    # antipodal tie breaks clockwise
    assert r.travel(0.0, 0.5, 0.1) == pytest.approx(0.1)


def test_travel_star_through_hub():
    s = Star(3)
    ray, depth = s.travel((0, 0.5), (1, 0.3), 0.6)
    assert (ray, depth) == (1, pytest.approx(0.1))


def test_travel_endpoint_laws():
    r = Ring(2.0)
    a, b = 0.3, 1.2
    assert r.travel(a, b, 0.0) == pytest.approx(a)
    assert r.travel(a, b, r.distance(a, b)) == pytest.approx(b)
    with pytest.raises(MetricError):
        r.travel(a, b, -0.1)
    with pytest.raises(MetricError):
        r.travel(a, b, r.distance(a, b) + 1.0)


def test_validate_space_triangle_violation():
    bad = General.from_rows([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    issues = bad.validate()
    assert any("triangle violation (0,2,1)" in v for v in issues)


def test_validate_space_ring_ok():
    assert Ring(1.0).validate() == []
    assert Ring(-1.0).validate() != []
    assert Star(0).validate() != []


def test_validate_space_asymmetric_allowed():
    asym = General.from_rows([[0, 2], [3, 0]], symmetric=False)
    assert asym.validate() == []
    # the same matrix with the symmetric flag set is flagged
    sym = General.from_rows([[0, 2], [3, 0]], symmetric=True)
    assert any("asymmetry" in v for v in sym.validate())


def test_point_domain_errors():
    with pytest.raises(MetricError):
        SemiLine().distance(-0.5, 0.2)
    with pytest.raises(MetricError):
        Star(2).distance((2, 0.1), (0, 0.1))
    with pytest.raises(MetricError):
        General.from_rows([[0.0]]).distance(0, 3)


@pytest.mark.parametrize("space,points", [
    (SemiLine(), [0.0, 0.4, 1.7, 3.0]),
    (Line(), [-2.0, -0.3, 0.0, 1.1]),
    (Ring(1.0), [0.0, 0.2, 0.55, 0.9]),
    (Star(4), [(0, 0.0), (1, 0.6), (3, 0.2), (2, 1.4)]),
])
def test_path_consistency(space, points):
    # distance(travel(a,b,e1), travel(a,b,e2)) == e2 - e1 along any shortest path
    rng = random.Random(7)
    for a in points:
        for b in points:
            d = space.distance(a, b)
            if d <= EPS:
                continue
            for _ in range(8):
                e1, e2 = sorted(rng.uniform(0.0, d) for _ in range(2))
                p1 = space.travel(a, b, e1)
                p2 = space.travel(a, b, e2)
                assert space.distance(p1, p2) == pytest.approx(e2 - e1, abs=1e-9)


def test_path_consistency_general_edges():
    g = General.from_rows([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    mid = g.travel(1, 2, 1.0)
    assert isinstance(mid, EdgePoint)
    assert g.distance(mid, 2) == pytest.approx(3.0)  # ahead 3 vs back 1 + 4
    assert g.distance(mid, 0) == pytest.approx(3.0)  # back 1+2 vs ahead 3+3
    assert g.distance(1, mid) == pytest.approx(1.0)
    for e1, e2 in [(0.0, 1.0), (0.5, 3.0), (1.0, 4.0)]:
        p1, p2 = g.travel(1, 2, e1), g.travel(1, 2, e2)
        assert g.distance(p1, p2) == pytest.approx(e2 - e1)


def test_ring_distance_at_most_half_circumference():
    rng = random.Random(3)
    r = Ring(2.5)
    for _ in range(200):
        a, b = rng.uniform(0, 2.5), rng.uniform(0, 2.5)
        assert r.distance(a, b) <= 1.25 + EPS


def test_general_symmetric_distance_symmetrical():
    rng = random.Random(11)
    pts = [(rng.random(), rng.random()) for _ in range(5)]
    rows = [[math.dist(p, q) for q in pts] for p in pts]
    g = General.from_rows(rows)
    for i in range(5):
        for j in range(5):
            assert g.distance(i, j) == g.distance(j, i)
