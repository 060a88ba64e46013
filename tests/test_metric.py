import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oltsp_lab.metric import (
    EPS,
    SPACE_KINDS,
    EdgePoint,
    General,
    Line,
    MetricError,
    Ring,
    SemiLine,
    Star,
    distance_table,
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
    assert SemiLine().plan_move(0.0, 1.0).point_at(0.5) == pytest.approx(0.5)


def test_travel_ring_counterclockwise_shortcut():
    r = Ring(1.0)
    assert r.plan_move(0.0, 0.9).point_at(0.05) == pytest.approx(0.95)
    # antipodal tie breaks clockwise
    assert r.plan_move(0.0, 0.5).point_at(0.1) == pytest.approx(0.1)


def test_travel_star_through_hub():
    s = Star(3)
    ray, depth = s.plan_move((0, 0.5), (1, 0.3)).point_at(0.6)
    assert (ray, depth) == (1, pytest.approx(0.1))


def test_travel_endpoint_laws():
    r = Ring(2.0)
    a, b = 0.3, 1.2
    assert r.plan_move(a, b).point_at(0.0) == pytest.approx(a)
    assert r.plan_move(a, b).point_at(r.distance(a, b)) == pytest.approx(b)
    with pytest.raises(MetricError):
        r.plan_move(a, b).point_at(-0.1)
    with pytest.raises(MetricError):
        r.plan_move(a, b).point_at(r.distance(a, b) + 1.0)


def test_validate_space_triangle_violation():
    bad = General.from_rows([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    issues = bad.validate()
    assert any("triangle violation (0,2,1)" in v for v in issues)


def test_validate_space_ring_ok():
    assert Ring(1.0).validate() == []
    assert Ring(-1.0).validate() != []
    assert Star(0).validate() != []
    for c in (math.nan, math.inf):
        assert Ring(c).validate() != []


def test_validate_space_asymmetric_allowed():
    asym = General.from_rows([[0, 2], [3, 0]], symmetric=False)
    assert asym.validate() == []
    # the same matrix with the symmetric flag set is flagged
    sym = General.from_rows([[0, 2], [3, 0]], symmetric=True)
    assert any("asymmetry" in v for v in sym.validate())


def test_point_domain_errors():
    with pytest.raises(MetricError):
        SemiLine().distance(-0.5, 0.2)
    with pytest.raises(MetricError):  # a depth below 0 would give negative distances
        Star(2).distance((1, -1e-12), (0, 0.0))
    with pytest.raises(MetricError):
        General.from_rows([[0, 1], [1, 0]]).distance(EdgePoint(0, 1, -1e-12), 1)
    with pytest.raises(MetricError):
        Star(2).distance((2, 0.1), (0, 0.1))
    with pytest.raises(MetricError):
        General.from_rows([[0.0]]).distance(0, 3)
    # an infinite coordinate is outside every domain
    assert not SemiLine().contains(math.inf)
    assert not Star(2).contains((1, math.inf))


@pytest.mark.parametrize("space,points", [
    (SemiLine(), [0.0, 0.4, 1.7, 3.0]),
    (Line(), [-2.0, -0.3, 0.0, 1.1]),
    (Ring(1.0), [0.0, 0.2, 0.55, 0.9]),
    (Star(4), [(0, 0.0), (1, 0.6), (3, 0.2), (2, 1.4)]),
])
def test_path_consistency(space, points):
    # the positions e1 and e2 along a shortest path a -> b lie e2 - e1 apart
    rng = random.Random(7)
    for a in points:
        for b in points:
            d = space.distance(a, b)
            if d <= EPS:
                continue
            for _ in range(8):
                e1, e2 = sorted(rng.uniform(0.0, d) for _ in range(2))
                p1 = space.plan_move(a, b).point_at(e1)
                p2 = space.plan_move(a, b).point_at(e2)
                assert space.distance(p1, p2) == pytest.approx(e2 - e1, abs=1e-9)


def test_path_consistency_general_edges():
    g = General.from_rows([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    mid = g.plan_move(1, 2).point_at(1.0)
    assert isinstance(mid, EdgePoint)
    assert g.distance(mid, 2) == pytest.approx(3.0)  # ahead 3 vs back 1 + 4
    assert g.distance(mid, 0) == pytest.approx(3.0)  # back 1+2 vs ahead 3+3
    assert g.distance(1, mid) == pytest.approx(1.0)
    for a, b, spans in [
        (1, 2, [(0.0, 1.0), (0.5, 3.0), (1.0, 4.0)]),
        # two points on one edge, as left when two events interrupt one move
        (EdgePoint(1, 2, 0.5), EdgePoint(1, 2, 3.0), [(0.0, 1.0), (0.5, 2.0), (1.0, 2.5)]),
        (EdgePoint(1, 2, 3.0), EdgePoint(1, 2, 0.5), [(0.0, 1.0), (0.5, 2.0), (1.0, 2.5)]),
    ]:
        for e1, e2 in spans:
            p1, p2 = g.plan_move(a, b).point_at(e1), g.plan_move(a, b).point_at(e2)
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


def _coords(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _moves(draw):
    """A space of a random kind and two in-domain points of it."""
    kind = draw(st.sampled_from(SPACE_KINDS))
    if kind == "semiline":
        space, point = SemiLine(), _coords(0.0, 10.0)
    elif kind == "line":
        space, point = Line(), _coords(-10.0, 10.0)
    elif kind == "ring":
        c = draw(_coords(0.1, 10.0))
        space, point = Ring(c), _coords(-c, 2 * c)
    elif kind == "star":
        k = draw(st.integers(1, 5))
        space = Star(k)
        point = st.tuples(st.integers(0, k - 1), st.just(0.0) | _coords(0.0, 10.0))
    else:
        n = draw(st.integers(2, 5))
        if draw(st.booleans()):  # Euclidean
            xy = draw(st.lists(st.tuples(_coords(0.0, 1.0), _coords(0.0, 1.0)),
                               min_size=n, max_size=n))
            rows = [[math.dist(p, q) for q in xy] for p in xy]
        else:  # asymmetric: off-diagonal entries in [1, 2] keep the triangle inequality
            rows = [[0.0 if i == j else draw(_coords(1.0, 2.0)) for j in range(n)]
                    for i in range(n)]
        space = General.from_rows(rows, symmetric=False)

        @st.composite
        def node_or_edge_point(draw):
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if a == b:
                return a
            return EdgePoint(a, b, draw(_coords(0.0, space.matrix[a][b])))

        point = node_or_edge_point()
    return space, draw(point), draw(point)


# A star plan takes a depth within EPS of the hub as the hub itself, which can
# shift an offset by up to 2 EPS; on the other kinds only rounding separates them.
PLAN_TOL = 4 * EPS


@settings(max_examples=300, deadline=None)
@given(_moves(), st.floats(0.0, 1.0))
def test_move_plan_contract(move, frac):
    space, a, b = move
    plan = space.plan_move(a, b)
    assert plan.total == pytest.approx(space.distance(a, b), abs=PLAN_TOL)
    assert space.distance(a, plan.point_at(0.0)) <= PLAN_TOL
    assert space.distance(b, plan.point_at(plan.total)) <= PLAN_TOL
    assert plan.hit(b) == pytest.approx(plan.total, abs=PLAN_TOL)
    if space.kind != "general":
        f = frac * plan.total
        assert plan.hit(plan.point_at(f)) == pytest.approx(f, abs=PLAN_TOL)


_SYMMETRIC = General.from_rows([[0, 3, 2], [3, 0, 4], [2, 4, 0]])
_ASYMMETRIC = General.from_rows([[0, 1.5, 2], [1, 0, 1.25], [1.75, 2, 0]], symmetric=False)


@settings(max_examples=500, deadline=None)
@given(_moves())
@example((Ring(1.0), -0.05, 0.97))  # wrap-around on both sides of the origin
@example((Ring(2.5), 4.9, 0.1))
@example((Star(4), (1, 0.0), (3, 0.0)))  # the hub, named from two rays
@example((Star(4), (2, 0.0), (0, 0.75)))
@example((_SYMMETRIC, EdgePoint(1, 2, 1.5), EdgePoint(2, 1, 0.5)))
@example((_SYMMETRIC, EdgePoint(0, 1, 0.5), EdgePoint(0, 1, 2.25)))
@example((_ASYMMETRIC, EdgePoint(0, 2, 0.5), EdgePoint(2, 1, 1.0)))
@example((_ASYMMETRIC, EdgePoint(1, 2, 0.75), 0))
def test_unchecked_distance_is_distance_bit_for_bit(move):
    space, a, b = move
    for p, q in ((a, b), (b, a), (a, a)):
        assert space.unchecked_distance(p, q).hex() == space.distance(p, q).hex()


@settings(max_examples=300, deadline=None)
@given(_moves())
@example((SemiLine(), -EPS, 0.0))  # the semi-line's tolerance band below 0
@example((Star(3), (1, 0.0), (2, 0.0)))
@example((_ASYMMETRIC, EdgePoint(0, 2, 0.0), 0))
@example((_ASYMMETRIC, EdgePoint(0, 2, 2.0), 2))
def test_unchecked_distance_is_never_negative(move):
    space, a, b = move
    assert space.contains(a) and space.contains(b)
    assert space.unchecked_distance(a, b) >= 0
    assert space.unchecked_distance(b, a) >= 0


def test_ring_arc_is_directed_and_a_loop_is_zero():
    r = Ring(2.0)
    assert r.arc(0.5, 0.2, 1.0) == pytest.approx(1.7)
    assert r.arc(0.5, 0.2, -1.0) == pytest.approx(0.3)
    assert r.arc(1.5, 0.25, 1.0) == pytest.approx(0.75)  # through the origin
    assert r.arc(0.5, 0.5, -1.0) == 0.0
    assert r.arc(0.5, 0.5 - EPS / 2, 1.0) == 0.0  # a wrapped zero, not a loop


def test_ring_line_like_above_half_by_more_than_eps():
    """A gap beyond C/2 by at most EPS is not line-like, for alg2's delegation
    and the generator's non-line-like filter alike."""
    r = Ring(2.0)
    assert not r.line_like([0.6, 1.2])  # gaps 0.6, 0.6, 0.8
    assert r.line_like([0.2, 0.5])  # gap 1.5
    assert r.line_like([])  # the whole ring
    assert not r.line_like([1.0])  # two gaps of exactly C/2
    assert not r.line_like([1.0 + EPS / 2])
    assert r.line_like([1.0 + 2 * EPS])
    assert r.line_like([-0.5])  # at 1.5: a gap of 1.5


def test_distance_table_is_float64_arrays():
    space = General.from_rows([[0, 1, 2], [1, 0, 3], [2, 3, 0]], symmetric=True)
    d0, dret, dmat = distance_table(space, [2, 1])
    assert [a.dtype for a in (d0, dret, dmat)] == [np.float64] * 3
    assert (d0.tolist(), dret.tolist(), dmat.tolist()) == ([2, 1], [2, 1], [[0, 3], [3, 0]])
    shapes = [a.shape for a in distance_table(SemiLine(), [])]
    assert shapes == [(0,), (0,), (0, 0)]
    with pytest.raises(MetricError):
        distance_table(SemiLine(), [0.5, -1.0])
