"""Problem instances: requests, variants, canonical text format, generators."""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .metric import (
    EPS,
    EdgePoint,
    General,
    Line,
    MetricSpace,
    Point,
    Ring,
    SemiLine,
    Star,
)

OPEN = "open"
CLOSED = "closed"
LOCATIONS_KNOWN = "locations"
COUNT_KNOWN = "count"

# Largest request count the generator, the exact oracle and wait-all accept.
MAX_REQUESTS = 18


class FormatError(ValueError):
    """Raised by :func:`decode` on a malformed instance document."""


@dataclass(frozen=True)
class Request:
    id: int
    point: Point
    release: float


@dataclass(frozen=True)
class Instance:
    space: MetricSpace
    variant: str
    requests: tuple
    knowledge: str = LOCATIONS_KNOWN

    @property
    def n(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class GenParams:
    n: int
    seed: int
    release_horizon: float = 1.0
    space_params: dict = field(default_factory=dict)


def position_key(space: MetricSpace):
    """Sort key of a request by position on spaces whose instances list their
    requests in position order (ring and semi-line), or None elsewhere."""
    if space.kind == "ring":
        return lambda r: space.norm(r.point)
    if space.kind == "semiline":
        return lambda r: r.point
    return None


def validate_instance(inst: Instance) -> list:
    """Empty list when the instance (and its space) is well formed."""
    issues = list(inst.space.validate())
    if inst.variant not in (OPEN, CLOSED):
        issues.append(f"unknown variant {inst.variant!r}")
    if inst.knowledge not in (LOCATIONS_KNOWN, COUNT_KNOWN):
        issues.append(f"unknown knowledge model {inst.knowledge!r}")
    for idx, req in enumerate(inst.requests, start=1):
        if req.id != idx:
            issues.append(f"request ids not contiguous from 1: position {idx} has id {req.id}")
        if req.release < 0:
            issues.append(f"request {req.id} has negative release {req.release}")
        if not inst.space.contains(req.point):
            issues.append(f"request {req.id} point {req.point!r} outside space domain")
    key = position_key(inst.space)
    if key is not None and not issues:
        for a, b in zip(inst.requests, inst.requests[1:]):
            if key(a) > key(b) + EPS:
                issues.append(f"requests out of position order: ids ({a.id},{b.id})")
    return issues


# Canonical text format ------------------------------------------------------
#
# A single JSON document with fixed field order:
#   space: kind plus circumference | rayCount | matrix+symmetric as applicable
#   variant, knowledge, requests[{id, point, release}]
# Numbers are emitted with 17 significant digits so doubles round-trip exactly.


def format_number(x) -> str:
    """A number as every output prints it; FormatError when non-finite."""
    if isinstance(x, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise FormatError(f"non-finite number {x}")
    return format(x, ".17g")


def _point_text(kind: str, point: Point) -> str:
    if kind in ("semiline", "line", "ring"):
        return format_number(float(point))
    if kind == "star":
        ray, depth = point
        return f"[{ray}, {format_number(float(depth))}]"
    if kind == "general":
        if isinstance(point, EdgePoint):
            return f"[{point.a}, {point.b}, {format_number(float(point.traveled))}]"
        return str(int(point))
    raise FormatError(f"unknown kind {kind}")


def _space_text(space: MetricSpace) -> str:
    if space.kind == "ring":
        return f'{{"kind": "ring", "circumference": {format_number(space.circumference)}}}'
    if space.kind == "star":
        return f'{{"kind": "star", "rayCount": {space.ray_count}}}'
    if space.kind == "general":
        rows = ", ".join(
            "[" + ", ".join(format_number(x) for x in row) + "]" for row in space.matrix
        )
        sym = "true" if space.symmetric else "false"
        return f'{{"kind": "general", "matrix": [{rows}], "symmetric": {sym}}}'
    return f'{{"kind": "{space.kind}"}}'


def encode(inst: Instance) -> str:
    """Canonical text for an instance; ``decode`` inverts it exactly."""
    lines = ["{"]
    lines.append(f'  "space": {_space_text(inst.space)},')
    lines.append(f'  "variant": "{inst.variant}",')
    lines.append(f'  "knowledge": "{inst.knowledge}",')
    if not inst.requests:
        lines.append('  "requests": []')
    else:
        lines.append('  "requests": [')
        body = []
        for req in inst.requests:
            pt = _point_text(inst.space.kind, req.point)
            release = format_number(float(req.release))
            body.append(f'    {{"id": {req.id}, "point": {pt}, "release": {release}}}')
        lines.append(",\n".join(body))
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def outcome_to_text(out) -> str:
    """Structured-text export of an engine ``Outcome``: completion, services,
    waypoint triplets.  A point mid-way along a general space's edge is written
    exactly, as ``[a, b, traveled]``."""
    space = out.trajectory.space
    lines = ["{"]
    lines.append(f'  "completion": {format_number(out.completion)},')
    svc = ", ".join(f'"{rid}": {format_number(t)}' for rid, t in sorted(out.services.items()))
    lines.append(f'  "services": {{{svc}}},')
    rows = []
    for wp in out.trajectory.waypoints:
        tag = wp.tag if wp.request_id is None else f"{wp.tag}:{wp.request_id}"
        pt = _point_text(space.kind, wp.point)
        rows.append(f'    [{format_number(wp.time)}, {pt}, "{tag}"]')
    lines.append('  "trajectory": [')
    lines.append(",\n".join(rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(obj, field_name: str, where: str = ""):
    if not isinstance(obj, dict):
        raise FormatError(f"bad {where or 'document'}: expected object, got {obj!r}")
    if field_name not in obj:
        raise FormatError(f"missing field: {field_name}" + (f" in {where}" if where else ""))
    return obj[field_name]


def _array(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise FormatError(f"bad {what}: expected array, got {raw!r}")
    return raw


def _integer(raw, what: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise FormatError(f"bad {what}: expected integer, got {raw!r}")
    return raw


def _number(raw, what: str) -> float:
    # Python's json module also reads NaN and Infinity, which JSON lacks.
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not math.isfinite(raw):
        raise FormatError(f"bad {what}: expected number, got {raw!r}")
    return float(raw)


def _decode_point(kind: str, raw, where: str) -> Point:
    if kind in ("semiline", "line", "ring"):
        return _number(raw, f"point in {where}")
    if kind == "star":
        if not (isinstance(raw, list) and len(raw) == 2):
            raise FormatError(f"bad point in {where}: expected [ray, depth]")
        return (_integer(raw[0], f"ray in {where}"), _number(raw[1], f"depth in {where}"))
    return _integer(raw, f"point in {where}")


def decode(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed document at line {exc.lineno}: {exc.msg}") from exc
    raw_space = _require(doc, "space")
    kind = _require(raw_space, "kind", "space")
    if kind == "semiline":
        space: MetricSpace = SemiLine()
    elif kind == "line":
        space = Line()
    elif kind == "ring":
        space = Ring(_number(_require(raw_space, "circumference", "space"), "circumference"))
    elif kind == "star":
        space = Star(_integer(_require(raw_space, "rayCount", "space"), "rayCount"))
    elif kind == "general":
        matrix = _array(_require(raw_space, "matrix", "space"), "matrix")
        rows = [[_number(x, "matrix entry") for x in _array(row, "matrix row")] for row in matrix]
        symmetric = _require(raw_space, "symmetric", "space")
        if not isinstance(symmetric, bool):
            raise FormatError(f"bad symmetric: expected true or false, got {symmetric!r}")
        space = General.from_rows(rows, symmetric)
    else:
        raise FormatError(f"unknown space kind {kind!r}")
    variant = _require(doc, "variant")
    if variant not in (OPEN, CLOSED):
        raise FormatError(f"bad variant {variant!r}")
    knowledge = _require(doc, "knowledge")
    if knowledge not in (LOCATIONS_KNOWN, COUNT_KNOWN):
        raise FormatError(f"bad knowledge {knowledge!r}")
    reqs = []
    for i, raw in enumerate(_array(_require(doc, "requests"), "requests")):
        where = f"requests[{i}]"
        reqs.append(
            Request(
                id=_integer(_require(raw, "id", where), f"id in {where}"),
                point=_decode_point(kind, _require(raw, "point", where), where),
                release=_number(_require(raw, "release", where), f"release in {where}"),
            )
        )
    return Instance(space=space, variant=variant, requests=tuple(reqs), knowledge=knowledge)


# Seeded generators ----------------------------------------------------------


def generate_random(params: GenParams, kind: str, variant: str = CLOSED,
                    knowledge: str = LOCATIONS_KNOWN) -> Instance:
    """Deterministic instance for (seed, params); positions uniform in the domain.
    Semi-line and line points lie within ``length`` of the origin, star points
    within ``length`` of the hub.  Raises ValueError on a negative or
    non-finite length or horizon, or an invalid space, before drawing anything."""
    if params.n < 0:
        raise ValueError("n must be >= 0")
    if params.n > MAX_REQUESTS:
        raise ValueError(f"n={params.n} exceeds the n<={MAX_REQUESTS} generation cap")
    horizon = params.release_horizon
    if not 0 <= horizon < math.inf:
        raise ValueError(f"release horizon must be finite and >= 0, got {horizon}")
    rng = random.Random(params.seed)
    sp = params.space_params
    n = params.n
    length = float(sp.get("length", 1.0))
    if not 0 <= length < math.inf:
        raise ValueError(f"length must be finite and >= 0, got {length}")

    if kind == "semiline":
        space: MetricSpace = SemiLine()
        pts = sorted(rng.uniform(0.0, length) for _ in range(n))
    elif kind == "line":
        space = Line()
        pts = sorted(rng.uniform(-length, length) for _ in range(n))
    elif kind == "ring":
        c = float(sp.get("circumference", 1.0))
        space = _valid(Ring(c))
        if sp.get("non_line_like") and n < 2:
            # One point p leaves a gap max(p, c - p) >= c/2 with the origin.
            raise ValueError(f"a non-line-like ring instance needs n >= 2, got n={n}")
        while True:
            pts = sorted(rng.uniform(0.0, c) for _ in range(n))
            if not (sp.get("non_line_like") and space.line_like(pts)):
                break
    elif kind == "star":
        k = int(sp.get("ray_count", 5))
        space = _valid(Star(k))
        pts = sorted(
            ((rng.randrange(k), rng.uniform(0.0, length)) for _ in range(n)),
        )
    elif kind == "general":
        space, order = _random_general(rng, n, bool(sp.get("asymmetric")))
        pts = order
    else:
        raise ValueError(f"unsupported kind {kind!r}")

    releases = [rng.uniform(0.0, horizon) for _ in range(n)]
    requests = tuple(
        Request(id=i + 1, point=pts[i], release=releases[i]) for i in range(n)
    )
    return Instance(space=space, variant=variant, requests=requests, knowledge=knowledge)


def _valid(space: MetricSpace) -> MetricSpace:
    """``space``, or ValueError with its ``validate()`` issues."""
    issues = space.validate()
    if issues:
        raise ValueError("; ".join(issues))
    return space


def _random_general(rng: random.Random, n: int, asymmetric: bool):
    """Unit-square points with Euclidean distances; an optional potential skew
    keeps the triangle inequality while making the matrix directed."""
    coords = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(n + 1)]
    size = n + 1
    base = [
        [math.dist(coords[i], coords[j]) for j in range(size)]
        for i in range(size)
    ]
    if not asymmetric:
        return General.from_rows(base, symmetric=True), list(range(1, size))
    off = [base[i][j] for i in range(size) for j in range(size) if i != j]
    cap = (min(off) / 2.0) if off else 0.0
    h = [rng.uniform(0.0, cap) for _ in range(size)]
    rows = [
        [0.0 if i == j else base[i][j] + h[i] - h[j] for j in range(size)]
        for i in range(size)
    ]
    return General.from_rows(rows, symmetric=False), list(range(1, size))
