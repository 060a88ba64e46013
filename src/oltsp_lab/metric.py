"""Metric spaces for a unit-speed server: semi-line, line, ring, star, general.

Every space exposes the same small surface: an origin, a distance, and a
``plan_move`` primitive that the simulation engine uses to walk a shortest path
and detect the requests it passes over.
``distance`` checks both points; ``unchecked_distance`` is the same formula
without the checks, for points checked once where they entered the program.

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

import numpy as np

EPS = 1e-9

Point = Any


class MetricError(ValueError):
    """Raised for points outside a space's domain or offsets outside a move."""


@dataclass(frozen=True)
class EdgePoint:
    """Position ``traveled`` along the direct move from node ``a`` to node ``b``."""

    a: int
    b: int
    traveled: float


class MovePlan:
    """A concrete shortest path as a sequence of straight legs.

    Each leg is ``(x_from, x_to, to_point, coord)`` on a one-dimensional chart:
    the server moves at unit speed from chart coordinate ``x_from`` to ``x_to``,
    ``to_point(x)`` is the point at coordinate ``x`` and ``coord(p)`` is the
    coordinate of point ``p`` on the chart, or None when ``p`` is off it.
    """

    def __init__(self, legs):
        self.legs = legs
        self.total = sum(abs(x_to - x_from) for x_from, x_to, _, _ in legs)

    def point_at(self, offset: float) -> Point:
        if offset < -EPS or offset > self.total + EPS:
            raise MetricError(f"offset {offset} outside [0, {self.total}]")
        f = min(max(offset, 0.0), self.total)
        for x_from, x_to, to_point, _ in self.legs:
            length = abs(x_to - x_from)
            if f <= length + EPS:
                break
            f -= length
        sign = 1.0 if x_to >= x_from else -1.0
        return to_point(x_from + sign * min(f, length))

    def hit(self, point: Point) -> Optional[float]:
        """Smallest offset at which the path passes ``point``, if it does."""
        base = 0.0
        for x_from, x_to, _, coord in self.legs:
            x = coord(point)
            if x is not None:
                if x_to >= x_from:
                    off, length = x - x_from, x_to - x_from
                else:
                    off, length = x_from - x, x_from - x_to
                if -EPS <= off <= length + EPS:
                    return base + min(max(off, 0.0), length)
            base += abs(x_to - x_from)
        return None


class MetricSpace:
    kind = "?"

    def origin(self) -> Point:
        raise NotImplementedError

    def contains(self, p: Point) -> bool:
        raise NotImplementedError

    def unchecked_distance(self, a: Point, b: Point) -> float:
        """``distance`` without the domain checks, for points already checked."""
        raise NotImplementedError

    def distance(self, a: Point, b: Point) -> float:
        """``unchecked_distance`` after checking both points.  Each space class
        names this method in its own body, where a per-class wrapper can
        replace it."""
        self.check_point(a)
        self.check_point(b)
        return self.unchecked_distance(a, b)

    def plan_move(self, a: Point, b: Point) -> MovePlan:
        raise NotImplementedError

    def validate(self) -> list:
        """Empty list when the space's structural invariants hold."""
        return []

    def check_point(self, p: Point) -> None:
        """Raise :class:`MetricError` when ``p`` is outside the domain."""
        if not self.contains(p):
            raise MetricError(f"point {p!r} outside {self.kind} domain")


def _line_point(x: float) -> float:
    return x


def _line_coord(p: Point) -> Optional[float]:
    return p if isinstance(p, (int, float)) else None


@dataclass(frozen=True)
class Line(MetricSpace):
    kind = "line"

    def origin(self) -> float:
        return 0.0

    def contains(self, p: Point) -> bool:
        return isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p)

    def unchecked_distance(self, a: float, b: float) -> float:
        return abs(a - b)

    distance = MetricSpace.distance

    def plan_move(self, a: float, b: float) -> MovePlan:
        return MovePlan([(a, b, _line_point, _line_coord)])


@dataclass(frozen=True)
class SemiLine(Line):
    """The line's half at coordinates >= 0."""

    kind = "semiline"

    def contains(self, p: Point) -> bool:
        return isinstance(p, (int, float)) and not isinstance(p, bool) and -EPS <= p < math.inf

    distance, plan_move = Line.distance, Line.plan_move


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

    def unchecked_distance(self, a: float, b: float) -> float:
        delta = abs(self.norm(a) - self.norm(b))
        return min(delta, self.circumference - delta)

    distance = MetricSpace.distance

    def plan_move(self, a: float, b: float) -> MovePlan:
        c = self.circumference
        a0, b0 = self.norm(a), self.norm(b)
        cw = (b0 - a0) % c
        # Antipodal tie resolves clockwise.
        if cw <= c / 2 + EPS:
            direction, length = 1.0, cw
        else:
            direction, length = -1.0, c - cw

        def to_point(x: float) -> float:
            return (a0 + direction * x) % c

        def coord(p: Point) -> Optional[float]:
            return self.arc(a0, p % c, direction) if isinstance(p, (int, float)) else None

        return MovePlan([(0.0, length, to_point, coord)])

    def arc(self, a: float, b: float, direction: float) -> float:
        """Arc from ``a`` to ``b`` going clockwise (``direction`` 1.0) or
        counter-clockwise (-1.0); a full loop, or one short of it by at most
        EPS (a numerically wrapped zero), is 0."""
        c = self.circumference
        x = ((b - a) * direction) % c
        return 0.0 if x >= c - EPS else x

    def line_like(self, points) -> bool:
        """Whether some arc between neighbouring points of the origin plus
        ``points`` is longer than half the circumference by more than EPS: a
        tour can then leave that arc out and visit the points as on a line."""
        c = self.circumference
        ring_pts = sorted([0.0] + [self.norm(p) for p in points])
        gaps = [b - a for a, b in zip(ring_pts, ring_pts[1:])]
        gaps.append(c - ring_pts[-1] + ring_pts[0])
        return max(gaps) > c / 2 + EPS

    def validate(self) -> list:
        if not 0 < self.circumference < math.inf:
            return [f"ring circumference must be positive and finite, got {self.circumference}"]
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
            and 0 <= depth < math.inf
        )

    def unchecked_distance(self, a, b) -> float:
        (ra, da), (rb, db) = a, b
        return abs(da - db) if ra == rb else da + db

    distance = MetricSpace.distance

    def plan_move(self, a, b) -> MovePlan:
        (ra, da), (rb, db) = a, b
        if ra == rb:
            return MovePlan([self._ray_leg(ra, da, db)])
        if da <= EPS:  # starting at the hub
            return MovePlan([self._ray_leg(rb, 0.0, db)])
        if db <= EPS:  # ending at the hub
            return MovePlan([self._ray_leg(ra, da, 0.0)])
        return MovePlan([self._ray_leg(ra, da, 0.0), self._ray_leg(rb, 0.0, db)])

    @staticmethod
    def _ray_leg(ray: int, d_from: float, d_to: float) -> tuple:
        """Leg charted by depth on ``ray``; the hub lies on every ray."""

        def to_point(x: float):
            return (ray, x)

        def coord(p: Point) -> Optional[float]:
            if not (isinstance(p, tuple) and len(p) == 2):
                return None
            pr, pd = p
            return pd if pr == ray or pd <= EPS else None

        return (d_from, d_to, to_point, coord)

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
            return 0 <= p.traveled <= self.matrix[p.a][p.b]
        return False

    def unchecked_distance(self, a: Point, b: Point) -> float:
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

    distance = MetricSpace.distance

    def plan_move(self, a: Point, b: Point) -> MovePlan:
        if isinstance(a, int) and isinstance(b, int):
            return MovePlan([self._edge_leg(a, b, 0.0, self.matrix[a][b])])
        if isinstance(a, EdgePoint):
            if isinstance(b, EdgePoint) and (a.a, a.b) == (b.a, b.b):
                return MovePlan([self._edge_leg(a.a, a.b, a.traveled, b.traveled)])
            edge_len = self.matrix[a.a][a.b]
            back = a.traveled + self.unchecked_distance(a.a, b)
            ahead = (edge_len - a.traveled) + self.unchecked_distance(a.b, b)
            if ahead <= back:
                first, node = self._edge_leg(a.a, a.b, a.traveled, edge_len), a.b
            else:
                first, node = self._edge_leg(a.a, a.b, a.traveled, 0.0), a.a
            return MovePlan([first] + self.plan_move(node, b).legs)
        if isinstance(a, int) and isinstance(b, EdgePoint):
            return MovePlan([
                self._edge_leg(a, b.a, 0.0, self.matrix[a][b.a]),
                self._edge_leg(b.a, b.b, 0.0, b.traveled),
            ])
        raise MetricError(f"unsupported move {a!r} -> {b!r}")

    def _edge_leg(self, a: int, b: int, t_from: float, t_to: float) -> tuple:
        """Leg charted by the distance travelled along the edge a -> b."""
        edge_len = self.matrix[a][b]

        def to_point(t: float) -> Point:
            if t <= EPS:
                return a
            if t >= edge_len - EPS:
                return b
            return EdgePoint(a, b, t)

        def coord(p: Point) -> Optional[float]:
            if isinstance(p, int):
                return 0.0 if p == a else edge_len if p == b else None
            if isinstance(p, EdgePoint):
                return p.traveled if (p.a, p.b) == (a, b) else None
            return None

        return (t_from, t_to, to_point, coord)

    def validate(self) -> list:
        issues = []
        n = self.size
        if n == 0:
            return ["matrix has no row for the origin"]
        for row in self.matrix:
            if len(row) != n:
                issues.append("matrix is not square")
                return issues
        for i in range(n):
            if abs(self.matrix[i][i]) > EPS:
                issues.append(f"nonzero diagonal at ({i},{i})")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] < 0:
                    issues.append(f"negative entry ({i},{j})")
                if self.symmetric and abs(self.matrix[i][j] - self.matrix[j][i]) > EPS:
                    issues.append(f"asymmetry at ({i},{j}) with symmetric flag set")
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if self.matrix[i][j] > self.matrix[i][k] + self.matrix[k][j] + EPS:
                        issues.append(f"triangle violation ({i},{k},{j})")
        return issues


def distance_table(space: MetricSpace, points: Sequence[Point]):
    """Distances from the origin to each point, from each point back to the
    origin, and between every ordered pair of points, as float64 arrays
    ``d0`` (n,), ``dret`` (n,) and ``dmat`` (n, n).  Each point is checked
    once; the table is filled without further checks."""
    for p in points:
        space.check_point(p)
    o, dist, n = space.origin(), space.unchecked_distance, len(points)
    d0 = np.array([dist(o, p) for p in points], dtype=float)
    dret = np.array([dist(p, o) for p in points], dtype=float)
    dmat = np.array([dist(a, b) for a in points for b in points], dtype=float).reshape(n, n)
    return d0, dret, dmat


SPACE_KINDS = ("semiline", "line", "ring", "star", "general")
