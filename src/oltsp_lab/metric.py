"""Metric spaces for a unit-speed server: semi-line, line, ring, star, general.

Every space exposes the same small surface: an origin, a distance, shortest-path
interpolation (``travel``), and a ``plan_move`` primitive that the simulation
engine uses to walk a shortest path and detect the requests it passes over.

Point representations are deliberately plain:

* semi-line / line: a float coordinate (semi-line coordinates are >= 0),
* ring:             a float clockwise arc position in [0, C),
* star:             a ``(ray_index, depth)`` tuple; depth 0 is the hub
                    regardless of ray index,
* general:          an int node id (0 is the origin) or an :class:`EdgePoint`
                    for a position mid-way along a direct node-to-node move.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

EPS = 1e-9

Point = Any


class MetricError(ValueError):
    """Raised for points outside a space's domain or invalid travel arguments."""


@dataclass(frozen=True)
class EdgePoint:
    """Position ``traveled`` along the direct move from node ``a`` to node ``b``."""

    a: int
    b: int
    traveled: float


class MovePlan:
    """A concrete shortest path: total length, interpolation and pass-over hits.

    ``legs`` is a list of ``(length, locator)`` pairs where ``locator(f)``
    returns the point after traveling ``f`` (0 <= f <= length) along the leg.
    ``hit_offsets`` maps candidate points to their first offset on the path.
    """

    def __init__(self, legs, hits):
        self.legs = legs
        self._hits = hits
        self.total = sum(length for length, _ in legs)

    def point_at(self, offset: float) -> Point:
        if offset < -EPS or offset > self.total + EPS:
            raise MetricError(f"offset {offset} outside [0, {self.total}]")
        f = min(max(offset, 0.0), self.total)
        for length, locator in self.legs:
            if f <= length + EPS:
                return locator(min(f, length))
            f -= length
        return self.legs[-1][1](self.legs[-1][0])

    def hit(self, point: Point) -> Optional[float]:
        """Smallest offset at which the path passes ``point``, if it does."""
        return self._hits(point)


class MetricSpace:
    kind = "?"

    def origin(self) -> Point:
        raise NotImplementedError

    def contains(self, p: Point) -> bool:
        raise NotImplementedError

    def distance(self, a: Point, b: Point) -> float:
        raise NotImplementedError

    def plan_move(self, a: Point, b: Point) -> MovePlan:
        raise NotImplementedError

    def validate(self) -> list:
        """Empty list when the space's structural invariants hold."""
        return []

    # Shared helpers -------------------------------------------------------

    def travel(self, a: Point, b: Point, elapsed: float) -> Point:
        """Position after moving ``elapsed`` along a shortest path a -> b."""
        self._check_point(a)
        self._check_point(b)
        plan = self.plan_move(a, b)
        if elapsed < -EPS or elapsed > plan.total + EPS:
            raise MetricError(
                f"elapsed {elapsed} outside [0, {plan.total}] for travel on {self.kind}"
            )
        return plan.point_at(elapsed)

    def points_equal(self, a: Point, b: Point) -> bool:
        return self.distance(a, b) <= EPS

    def _check_point(self, p: Point) -> None:
        if not self.contains(p):
            raise MetricError(f"point {p!r} outside {self.kind} domain")


def _linear_plan(a: float, b: float):
    length = abs(b - a)
    sign = 1.0 if b >= a else -1.0

    def locator(f: float) -> float:
        return a + sign * f

    def hits(p: Point) -> Optional[float]:
        if not isinstance(p, (int, float)):
            return None
        off = (p - a) * sign
        if -EPS <= off <= length + EPS:
            return min(max(off, 0.0), length)
        return None

    return MovePlan([(length, locator)], hits)


@dataclass(frozen=True)
class SemiLine(MetricSpace):
    kind = "semiline"

    def origin(self) -> float:
        return 0.0

    def contains(self, p: Point) -> bool:
        return isinstance(p, (int, float)) and not isinstance(p, bool) and p >= -EPS

    def distance(self, a: float, b: float) -> float:
        self._check_point(a)
        self._check_point(b)
        return abs(a - b)

    def plan_move(self, a: float, b: float) -> MovePlan:
        return _linear_plan(a, b)


@dataclass(frozen=True)
class Line(MetricSpace):
    kind = "line"

    def origin(self) -> float:
        return 0.0

    def contains(self, p: Point) -> bool:
        return isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p)

    def distance(self, a: float, b: float) -> float:
        self._check_point(a)
        self._check_point(b)
        return abs(a - b)

    def plan_move(self, a: float, b: float) -> MovePlan:
        return _linear_plan(a, b)


@dataclass(frozen=True)
class Ring(MetricSpace):
    """Circle of given circumference; positions are clockwise arc lengths from O."""

    circumference: float = 1.0
    kind = "ring"

    def origin(self) -> float:
        return 0.0

    def norm(self, p: float) -> float:
        return p % self.circumference

    def contains(self, p: Point) -> bool:
        return isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p)

    def distance(self, a: float, b: float) -> float:
        self._check_point(a)
        self._check_point(b)
        delta = abs(self.norm(a) - self.norm(b))
        return min(delta, self.circumference - delta)

    def plan_move(self, a: float, b: float) -> MovePlan:
        c = self.circumference
        a0, b0 = self.norm(a), self.norm(b)
        cw = (b0 - a0) % c
        # Antipodal tie resolves clockwise.
        if cw <= c / 2 + EPS:
            direction, length = 1.0, cw
        else:
            direction, length = -1.0, c - cw

        def locator(f: float) -> float:
            return (a0 + direction * f) % c

        def hits(p: Point) -> Optional[float]:
            if not isinstance(p, (int, float)):
                return None
            off = ((self.norm(p) - a0) * direction) % c
            if off <= length + EPS:
                return min(off, length)
            if off >= c - EPS:  # numerically wrapped zero
                return 0.0
            return None

        return MovePlan([(length, locator)], hits)

    def validate(self) -> list:
        if self.circumference <= 0:
            return [f"ring circumference must be positive, got {self.circumference}"]
        return []


@dataclass(frozen=True)
class Star(MetricSpace):
    """k rays glued at a hub; a point is (ray, depth) with depth 0 the hub."""

    ray_count: int = 3
    kind = "star"

    def origin(self):
        return (0, 0.0)

    def contains(self, p: Point) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        ray, depth = p
        return (
            isinstance(ray, int)
            and 0 <= ray < self.ray_count
            and isinstance(depth, (int, float))
            and depth >= -EPS
        )

    def distance(self, a, b) -> float:
        self._check_point(a)
        self._check_point(b)
        (ra, da), (rb, db) = a, b
        if ra == rb or da <= EPS or db <= EPS:
            return abs(da - db) if ra == rb else da + db
        return da + db

    def plan_move(self, a, b) -> MovePlan:
        (ra, da), (rb, db) = a, b
        if ra == rb:
            return self._ray_leg_plan(ra, da, db, 0.0)
        if da <= EPS:  # starting at the hub
            return self._ray_leg_plan(rb, 0.0, db, 0.0)
        if db <= EPS:  # ending at the hub
            return self._ray_leg_plan(ra, da, 0.0, 0.0)

        inward = self._ray_leg_plan(ra, da, 0.0, 0.0)
        outward = self._ray_leg_plan(rb, 0.0, db, da)
        legs = inward.legs + outward.legs

        def hits(p: Point) -> Optional[float]:
            h1 = inward.hit(p)
            if h1 is not None:
                return h1
            h2 = outward.hit(p)
            if h2 is not None:
                return da + h2
            return None

        return MovePlan(legs, hits)

    def _ray_leg_plan(self, ray: int, d_from: float, d_to: float, base: float) -> MovePlan:
        length = abs(d_to - d_from)
        sign = 1.0 if d_to >= d_from else -1.0

        def locator(f: float):
            return (ray, d_from + sign * f)

        def hits(p: Point) -> Optional[float]:
            if not (isinstance(p, tuple) and len(p) == 2):
                return None
            pr, pd = p
            if pr != ray and pd > EPS:
                return None
            off = (pd - d_from) * sign
            if -EPS <= off <= length + EPS:
                return min(max(off, 0.0), length)
            return None

        return MovePlan([(length, locator)], hits)

    def validate(self) -> list:
        if self.ray_count < 1:
            return [f"star ray count must be >= 1, got {self.ray_count}"]
        return []


@dataclass(frozen=True)
class General(MetricSpace):
    """Complete distance matrix over {origin} + request nodes.

    Movement between nodes is along the direct edge; a position part-way
    through such a move is an :class:`EdgePoint`.  The distance from an
    edge point back to a node is the cheaper of backing up to the edge's
    tail or finishing the edge, which keeps asymmetric matrices coherent.
    """

    matrix: tuple
    symmetric: bool = True
    kind = "general"

    @staticmethod
    def from_rows(rows: Sequence[Sequence[float]], symmetric: bool = True) -> "General":
        return General(tuple(tuple(float(x) for x in row) for row in rows), symmetric)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def origin(self) -> int:
        return 0

    def contains(self, p: Point) -> bool:
        if isinstance(p, bool):
            return False
        if isinstance(p, int):
            return 0 <= p < self.size
        if isinstance(p, EdgePoint):
            if not (0 <= p.a < self.size and 0 <= p.b < self.size):
                return False
            return -EPS <= p.traveled <= self.matrix[p.a][p.b] + EPS
        return False

    def distance(self, a: Point, b: Point) -> float:
        self._check_point(a)
        self._check_point(b)
        if isinstance(a, int) and isinstance(b, int):
            return self.matrix[a][b]
        if isinstance(a, EdgePoint) and isinstance(b, int):
            back = a.traveled + self.matrix[a.a][b]
            ahead = (self.matrix[a.a][a.b] - a.traveled) + self.matrix[a.b][b]
            return min(back, ahead)
        if isinstance(a, int) and isinstance(b, EdgePoint):
            return self.matrix[a][b.a] + b.traveled
        if isinstance(a, EdgePoint) and isinstance(b, EdgePoint):
            if (a.a, a.b) == (b.a, b.b):
                return abs(a.traveled - b.traveled)
            return min(
                a.traveled + self.matrix[a.a][b.a] + b.traveled,
                (self.matrix[a.a][a.b] - a.traveled) + self.matrix[a.b][b.a] + b.traveled,
            )
        raise MetricError(f"unsupported point pair {a!r}, {b!r}")

    def plan_move(self, a: Point, b: Point) -> MovePlan:
        if isinstance(a, int) and isinstance(b, int):
            return self._edge_plan(a, b)
        if isinstance(a, EdgePoint):
            edge_len = self.matrix[a.a][a.b]
            back = a.traveled + self.distance(a.a, b)
            ahead = (edge_len - a.traveled) + self.distance(a.b, b)
            if ahead <= back:
                first = self._edge_part_plan(a.a, a.b, a.traveled, edge_len)
                rest = self.plan_move(a.b, b)
            else:
                first = self._edge_part_plan(a.a, a.b, a.traveled, 0.0)
                rest = self.plan_move(a.a, b)
            return _concat_plans(first, rest)
        if isinstance(a, int) and isinstance(b, EdgePoint):
            first = self._edge_plan(a, b.a)
            rest = self._edge_part_plan(b.a, b.b, 0.0, b.traveled)
            return _concat_plans(first, rest)
        raise MetricError(f"unsupported move {a!r} -> {b!r}")

    def _edge_plan(self, a: int, b: int) -> MovePlan:
        length = self.matrix[a][b]

        def locator(f: float) -> Point:
            if f <= EPS:
                return a
            if f >= length - EPS:
                return b
            return EdgePoint(a, b, f)

        def hits(p: Point) -> Optional[float]:
            if isinstance(p, int):
                if p == a:
                    return 0.0
                if p == b:
                    return length
                return None
            if isinstance(p, EdgePoint) and (p.a, p.b) == (a, b):
                if -EPS <= p.traveled <= length + EPS:
                    return min(max(p.traveled, 0.0), length)
            return None

        return MovePlan([(length, locator)], hits)

    def _edge_part_plan(self, a: int, b: int, t_from: float, t_to: float) -> MovePlan:
        length = abs(t_to - t_from)
        sign = 1.0 if t_to >= t_from else -1.0
        edge_len = self.matrix[a][b]

        def locator(f: float) -> Point:
            t = t_from + sign * f
            if t <= EPS:
                return a
            if t >= edge_len - EPS:
                return b
            return EdgePoint(a, b, t)

        def hits(p: Point) -> Optional[float]:
            if isinstance(p, int):
                t = 0.0 if p == a else edge_len if p == b else None
                if t is None:
                    return None
            elif isinstance(p, EdgePoint) and (p.a, p.b) == (a, b):
                t = p.traveled
            else:
                return None
            off = (t - t_from) * sign
            if -EPS <= off <= length + EPS:
                return min(max(off, 0.0), length)
            return None

        return MovePlan([(length, locator)], hits)

    def validate(self) -> list:
        issues = []
        n = self.size
        for row in self.matrix:
            if len(row) != n:
                issues.append("matrix is not square")
                return issues
        for i in range(n):
            if abs(self.matrix[i][i]) > EPS:
                issues.append(f"nonzero diagonal at ({i},{i})")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] < -EPS:
                    issues.append(f"negative entry ({i},{j})")
                if self.symmetric and abs(self.matrix[i][j] - self.matrix[j][i]) > EPS:
                    issues.append(f"asymmetry at ({i},{j}) with symmetric flag set")
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if self.matrix[i][j] > self.matrix[i][k] + self.matrix[k][j] + EPS:
                        issues.append(f"triangle violation ({i},{k},{j})")
        return issues


def _concat_plans(first: MovePlan, second: MovePlan) -> MovePlan:
    legs = first.legs + second.legs
    base = first.total

    def hits(p: Point) -> Optional[float]:
        h = first.hit(p)
        if h is not None:
            return h
        h = second.hit(p)
        if h is not None:
            return base + h
        return None

    return MovePlan(legs, hits)


def distance_table(space: MetricSpace, points: Sequence[Point]):
    """Distances from the origin to each point, from each point back to the
    origin, and between every ordered pair of points, as nested lists."""
    o = space.origin()
    d0 = [space.distance(o, p) for p in points]
    dret = [space.distance(p, o) for p in points]
    dmat = [[space.distance(a, b) for b in points] for a in points]
    return d0, dret, dmat


SPACE_KINDS = ("semiline", "line", "ring", "star", "general")
