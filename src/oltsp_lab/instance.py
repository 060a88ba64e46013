"""Problem instances: requests, variants, canonical text format, generators."""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .metric import (
    EPS,
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

    def request(self, rid: int) -> Request:
        return self.requests[rid - 1]


@dataclass(frozen=True)
class GenParams:
    n: int
    seed: int
    release_horizon: float = 1.0
    space_params: dict = field(default_factory=dict)


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
    if inst.space.kind in ("ring", "semiline") and not issues:
        key = (
            (lambda r: inst.space.norm(r.point))
            if inst.space.kind == "ring"
            else (lambda r: r.point)
        )
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


def _num(x) -> str:
    if isinstance(x, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise FormatError(f"non-finite number {x}")
    return format(x, ".17g")


def _point_text(kind: str, point: Point) -> str:
    if kind in ("semiline", "line", "ring"):
        return _num(float(point))
    if kind == "star":
        ray, depth = point
        return f"[{ray}, {_num(float(depth))}]"
    if kind == "general":
        return str(int(point))
    raise FormatError(f"unknown kind {kind}")


def _space_text(space: MetricSpace) -> str:
    if space.kind == "ring":
        return f'{{"kind": "ring", "circumference": {_num(space.circumference)}}}'
    if space.kind == "star":
        return f'{{"kind": "star", "rayCount": {space.ray_count}}}'
    if space.kind == "general":
        rows = ", ".join(
            "[" + ", ".join(_num(x) for x in row) + "]" for row in space.matrix
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
            body.append(
                f'    {{"id": {req.id}, "point": {pt}, "release": {_num(float(req.release))}}}'
            )
        lines.append(",\n".join(body))
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(obj: dict, field_name: str, where: str = ""):
    if field_name not in obj:
        raise FormatError(f"missing field: {field_name}" + (f" in {where}" if where else ""))
    return obj[field_name]


def _decode_point(kind: str, raw, where: str) -> Point:
    if kind in ("semiline", "line", "ring"):
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise FormatError(f"bad point in {where}: expected number, got {raw!r}")
        return float(raw)
    if kind == "star":
        if not (isinstance(raw, list) and len(raw) == 2):
            raise FormatError(f"bad point in {where}: expected [ray, depth]")
        return (int(raw[0]), float(raw[1]))
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise FormatError(f"bad point in {where}: expected node id")
    return raw


def decode(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed document at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    raw_space = _require(doc, "space")
    kind = _require(raw_space, "kind", "space")
    if kind == "semiline":
        space: MetricSpace = SemiLine()
    elif kind == "line":
        space = Line()
    elif kind == "ring":
        space = Ring(float(_require(raw_space, "circumference", "space")))
    elif kind == "star":
        space = Star(int(_require(raw_space, "rayCount", "space")))
    elif kind == "general":
        rows = _require(raw_space, "matrix", "space")
        space = General.from_rows(rows, bool(_require(raw_space, "symmetric", "space")))
    else:
        raise FormatError(f"unknown space kind {kind!r}")
    variant = _require(doc, "variant")
    if variant not in (OPEN, CLOSED):
        raise FormatError(f"bad variant {variant!r}")
    knowledge = _require(doc, "knowledge")
    if knowledge not in (LOCATIONS_KNOWN, COUNT_KNOWN):
        raise FormatError(f"bad knowledge {knowledge!r}")
    reqs = []
    for i, raw in enumerate(_require(doc, "requests")):
        where = f"requests[{i}]"
        reqs.append(
            Request(
                id=int(_require(raw, "id", where)),
                point=_decode_point(kind, _require(raw, "point", where), where),
                release=float(_require(raw, "release", where)),
            )
        )
    return Instance(space=space, variant=variant, requests=tuple(reqs), knowledge=knowledge)


# Seeded generators ----------------------------------------------------------


def generate_random(params: GenParams, kind: str, variant: str = CLOSED,
                    knowledge: str = LOCATIONS_KNOWN) -> Instance:
    """Deterministic instance for (seed, params); positions uniform in the domain."""
    if params.n < 0:
        raise ValueError("n must be >= 0")
    if params.n > MAX_REQUESTS:
        raise ValueError(f"n={params.n} exceeds the n<={MAX_REQUESTS} generation cap")
    if params.release_horizon < 0:
        raise ValueError("release horizon must be >= 0")
    rng = random.Random(params.seed)
    sp = params.space_params
    n = params.n

    if kind == "semiline":
        length = float(sp.get("length", 1.0))
        space: MetricSpace = SemiLine()
        pts = sorted(rng.uniform(0.0, length) for _ in range(n))
    elif kind == "line":
        half = float(sp.get("half_width", 1.0))
        space = Line()
        pts = sorted(rng.uniform(-half, half) for _ in range(n))
    elif kind == "ring":
        c = float(sp.get("circumference", 1.0))
        space = Ring(c)
        while True:
            pts = sorted(rng.uniform(0.0, c) for _ in range(n))
            if not sp.get("non_line_like"):
                break
            if n >= 2 and space.max_gap_with_origin(pts) <= c / 2:
                break
    elif kind == "star":
        k = int(sp.get("ray_count", 5))
        depth = float(sp.get("depth_max", 1.0))
        space = Star(k)
        pts = sorted(
            ((rng.randrange(k), rng.uniform(0.0, depth)) for _ in range(n)),
        )
    elif kind == "general":
        space, order = _random_general(rng, n, bool(sp.get("asymmetric")))
        pts = order
    else:
        raise ValueError(f"unsupported kind {kind!r}")

    releases = [rng.uniform(0.0, params.release_horizon) for _ in range(n)]
    requests = tuple(
        Request(id=i + 1, point=pts[i], release=releases[i]) for i in range(n)
    )
    return Instance(space=space, variant=variant, requests=requests, knowledge=knowledge)


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
