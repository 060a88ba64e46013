import pytest
from hypothesis import strategies as st

from oltsp_lab import CLOSED, OPEN, GenParams, Instance, Request, generate_random
from oltsp_lab.metric import General


# Reference three-request instance on a symmetric four-node matrix
# (origin, q1, q2, q3) used across the suite.  Distances: the four outer
# legs are 3, the origin-to-q2 chord is 2, the q1-to-q3 chord is 1;
# releases are 2, 6 and 8.
EX1_MATRIX = [
    [0, 3, 2, 3],
    [3, 0, 3, 1],
    [2, 3, 0, 3],
    [3, 1, 3, 0],
]


def make_instance(space, variant, pts_rel, knowledge="locations"):
    reqs = tuple(Request(i + 1, p, float(r)) for i, (p, r) in enumerate(pts_rel))
    return Instance(space=space, variant=variant, requests=reqs, knowledge=knowledge)


@pytest.fixture
def example1() -> Instance:
    return Instance(
        space=General.from_rows(EX1_MATRIX),
        variant=CLOSED,
        requests=(Request(1, 1, 2.0), Request(2, 2, 6.0), Request(3, 3, 8.0)),
    )


@st.composite
def tie_heavy_instances(draw, kinds, max_n, min_n=1):
    """A generated instance of one of ``kinds`` (``(kind, space_params)``
    pairs) with ``min_n`` to ``max_n`` requests, often with ties: requests
    moved onto earlier requests' points or all onto the origin, and releases
    zero or snapped to a coarse grid."""
    kind, space_params = draw(st.sampled_from(kinds))
    n = draw(st.integers(min_n, max_n))
    variant = draw(st.sampled_from((OPEN, CLOSED)))
    inst = generate_random(
        GenParams(n=n, seed=draw(st.integers(0, 2**32)),
                  release_horizon=draw(st.sampled_from((0.0, 0.5, 2.0))),
                  space_params=space_params),
        kind, variant=variant,
    )
    origin = inst.space.origin()
    points = [r.point for r in inst.requests]
    placement = draw(st.sampled_from(("generated", "shared", "origin")))
    if placement == "shared":  # each request keeps its point, or takes an earlier one's or the origin
        for j in range(n):
            src = draw(st.integers(-1, j))
            points[j] = origin if src < 0 else points[src]
    elif placement == "origin":  # a zero-length tour
        points = [origin] * n
    releases = [r.release for r in inst.requests]
    if draw(st.booleans()):
        releases = [0.5 * round(r / 0.5) for r in releases]
    # sorted: semi-line and ring instances list requests in position order
    return make_instance(inst.space, variant, list(zip(sorted(points), releases)))
