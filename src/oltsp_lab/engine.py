"""Event-driven simulator for online routing policies against release schedules.

The engine owns time.  After *every* event (a release, a service, an adversary
inspection, or the completion of the current action) the policy is asked for a
fresh action from its current state, so actions are interruptible by design.
A request is served automatically and instantaneously whenever the server's
position coincides with a released, unserved request (within ``EPS``); passing
over a released request mid-move therefore serves it at the exact pass time.

The engine alone ends a run: once every request is served and the run is open
or the server is back at the origin, the run completes at that instant and the
policy is not asked again (at n = 0 it is never asked).  Policies only route;
a closed policy brings the server home itself, by whatever way it chooses.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .instance import CLOSED, COUNT_KNOWN, LOCATIONS_KNOWN, Instance, Request, _num, _point_text
from .metric import EPS, EdgePoint, MetricSpace, Point


class SimulationError(RuntimeError):
    pass


class PairingError(SimulationError):
    """A policy cannot run on the scenario's space kind, variant, knowledge
    or request count."""


# Actions --------------------------------------------------------------------


@dataclass(frozen=True)
class MoveTo:
    target: Point


@dataclass(frozen=True)
class WaitUntil:
    until: float


@dataclass(frozen=True)
class WaitForRelease:
    request_id: Optional[int] = None  # None: wake at the next release, whoever it is


Action = Union[MoveTo, WaitUntil, WaitForRelease]


# Observations and contracts ---------------------------------------------------


@dataclass(frozen=True)
class PolicyContext:
    space: MetricSpace
    variant: str
    n: int
    locations: Optional[Dict[int, Point]]  # id -> point when locations are known, else None


@dataclass(frozen=True)
class Observation:
    now: float
    position: Point
    released: Dict[int, Request]  # visible released requests (point + release)
    served: FrozenSet[int]
    ctx: PolicyContext


class Policy:
    """Reactive policy contract; subclasses keep their own phase state."""

    name = "policy"
    needs_locations = False
    requires_kind: Optional[str] = None  # space kind the policy is defined on
    requires_variant: Optional[str] = None

    def begin(self, ctx: PolicyContext) -> None:
        pass

    def decide(self, obs: Observation) -> Action:
        raise NotImplementedError


@dataclass(frozen=True)
class Emission:
    """One adversary-controlled release.

    ``request_id`` refers to an announced request; otherwise ``point`` creates
    a new one.  ``release`` must not precede the emission time (causality).
    """

    release: float
    request_id: Optional[int] = None
    point: Optional[Point] = None


class Adversary:
    """Adaptive release source: wakes at chosen times, observes, emits."""

    name = "adversary"
    space: MetricSpace
    variant: str
    n: int
    knowledge: str  # knowledge model the paired policy is allowed

    def announced(self) -> Optional[Dict[int, Point]]:
        return None

    def next_wake(self, now: float) -> Optional[float]:
        return None

    def observe(self, now: float, position: Point, served: FrozenSet[int]) -> List[Emission]:
        return []


Scenario = Union[Instance, Adversary]


def check_pairing(policy: Policy, kind: str, variant: str, knowledge: str) -> None:
    """Raise :class:`PairingError` when ``policy`` cannot run on a scenario of
    this space kind, variant and knowledge model."""
    if policy.requires_kind and policy.requires_kind != kind:
        why = f"requires a {policy.requires_kind} space, got {kind}"
    elif policy.requires_variant and policy.requires_variant != variant:
        why = f"requires the {policy.requires_variant} variant, got {variant}"
    elif policy.needs_locations and knowledge == COUNT_KNOWN:
        why = "needs known locations but the scenario reveals only the request count"
    else:
        return
    raise PairingError(f"policy {policy.name!r} {why}")


# Trajectories and outcomes ----------------------------------------------------


@dataclass(frozen=True)
class Waypoint:
    time: float
    point: Point
    tag: str  # start | move | wait | serve
    request_id: Optional[int] = None


@dataclass(frozen=True)
class Trajectory:
    space: MetricSpace
    waypoints: Tuple[Waypoint, ...]

    @property
    def final_time(self) -> float:
        return self.waypoints[-1].time

    def position_at(self, t: float) -> Point:
        if t < -EPS or t > self.final_time + EPS:
            raise SimulationError(f"time {t} outside trajectory [0, {self.final_time}]")
        times = [w.time for w in self.waypoints]
        i = bisect.bisect_right(times, t) - 1
        i = max(0, min(i, len(self.waypoints) - 2)) if len(self.waypoints) > 1 else 0
        a = self.waypoints[i]
        b = self.waypoints[min(i + 1, len(self.waypoints) - 1)]
        if self.space.distance(a.point, b.point) <= EPS:
            return a.point
        return self.space.plan_move(a.point, b.point).point_at(max(0.0, t - a.time))


@dataclass(frozen=True)
class Outcome:
    completion: float
    services: Dict[int, float]
    trajectory: Trajectory
    realized: Tuple[Request, ...]  # requests with the release times that occurred


# Simulation -------------------------------------------------------------------


def simulate(scenario: Scenario, policy: Policy, step_budget: int = 1_000_000) -> Outcome:
    space = scenario.space
    variant = scenario.variant
    knowledge = scenario.knowledge
    check_pairing(policy, space.kind, variant, knowledge)

    adversary: Optional[Adversary] = None
    points: Dict[int, Point] = {}
    releases: Dict[int, float] = {}  # an adversary's requests lack one until emitted
    schedule: List[Tuple[float, int]] = []  # (release time, id) heap
    n_total: int

    if isinstance(scenario, Instance):
        n_total = scenario.n
        for req in scenario.requests:
            points[req.id], releases[req.id] = req.point, req.release
            heapq.heappush(schedule, (req.release, req.id))
    else:
        adversary = scenario
        n_total = adversary.n
        points.update(sorted((adversary.announced() or {}).items()))
    for p in points.values():  # checked once; inside the run, distances are unchecked
        space.check_point(p)

    locations = dict(points) if knowledge == LOCATIONS_KNOWN else None
    ctx = PolicyContext(space, variant, n_total, locations)

    now = 0.0
    origin, dist = space.origin(), space.unchecked_distance
    pos = origin
    released: Dict[int, Request] = {}
    served: Dict[int, float] = {}
    waypoints: List[Waypoint] = [Waypoint(0.0, pos, "start")]
    adv_wake: Optional[float] = adversary.next_wake(0.0) if adversary else None

    def ingest(emissions: List[Emission]) -> None:
        for em in emissions:
            if em.release < now - EPS:
                raise SimulationError(
                    f"adversary causality violation: release {em.release} emitted at {now}"
                )
            rid = em.request_id
            if rid is not None:
                if rid not in points or rid in releases:
                    raise SimulationError(f"bad adversary emission for id {rid}")
            else:
                rid = len(points) + 1
                if rid > n_total:
                    raise SimulationError("adversary emitted more requests than announced")
                if not space.contains(em.point):
                    raise SimulationError(f"adversary point {em.point!r} outside space")
                points[rid] = em.point
            releases[rid] = em.release
            heapq.heappush(schedule, (em.release, rid))

    def process_due() -> None:
        while schedule and schedule[0][0] <= now + EPS:
            _, rid = heapq.heappop(schedule)
            released[rid] = Request(rid, points[rid], releases[rid])

    def auto_serve() -> None:
        nonlocal adv_wake
        progress = True
        while progress:
            progress = False
            process_due()
            for rid in sorted(released):
                if rid in served:
                    continue
                if dist(pos, points[rid]) <= EPS:
                    served[rid] = now
                    waypoints.append(Waypoint(now, points[rid], "serve", rid))
                    progress = True
                    if adversary is not None:
                        ingest(adversary.observe(now, pos, frozenset(served)))
                        adv_wake = adversary.next_wake(now)

    policy.begin(ctx)
    steps = 0
    while True:
        steps += 1
        if steps > step_budget:
            tail = ", ".join(
                f"{w.time:.6g}:{w.tag}" for w in waypoints[-8:]
            )
            raise SimulationError(
                f"step budget {step_budget} exceeded (policy {policy.name!r}); tail: {tail}"
            )
        auto_serve()
        if adversary is not None and adv_wake is not None and adv_wake <= now + EPS:
            ingest(adversary.observe(now, pos, frozenset(served)))
            adv_wake = adversary.next_wake(now)
            auto_serve()
        if len(served) == n_total and (
            variant != CLOSED or dist(pos, origin) <= EPS
        ):
            break

        obs = Observation(now, pos, dict(released), frozenset(served), ctx)
        action = policy.decide(obs)

        next_times: List[float] = []
        plan = None
        if isinstance(action, MoveTo):
            if not space.contains(action.target):
                raise SimulationError(f"move target {action.target!r} outside space")
            plan = space.plan_move(pos, action.target)
            if plan.total <= EPS:
                raise SimulationError(
                    f"policy {policy.name!r} issued a zero-length move at t={now}"
                )
            next_times.append(now + plan.total)
            for rid in released:
                if rid in served:
                    continue
                off = plan.hit(points[rid])
                if off is not None and off > EPS:
                    next_times.append(now + off)
        elif isinstance(action, WaitUntil):
            if action.until < now - EPS:
                raise SimulationError(f"wait-until into the past: {action.until} < {now}")
            next_times.append(max(action.until, now))
        elif isinstance(action, WaitForRelease):
            rid = action.request_id
            if rid is not None:
                if rid not in points:
                    raise SimulationError(f"wait-for-release of unknown id {rid}")
                if rid in released:
                    raise SimulationError(f"wait-for-release of already released id {rid}")
        else:
            raise SimulationError(f"policy returned invalid action {action!r}")

        if schedule:
            next_times.append(schedule[0][0])
        if adversary is not None and adv_wake is not None:
            next_times.append(adv_wake)
        if not next_times:
            raise SimulationError(
                f"simulation stalled at t={now}: nothing scheduled and policy is waiting"
            )
        t_next = min(next_times)
        t_next = max(t_next, now)
        if plan is not None:
            step = min(t_next - now, plan.total)
            new_pos = plan.point_at(step)
            now = t_next
            pos = new_pos
            waypoints.append(Waypoint(now, pos, "move"))
        else:
            now = t_next
            waypoints.append(Waypoint(now, pos, "wait"))

    realized = tuple(Request(rid, points[rid], releases[rid]) for rid in sorted(releases))
    if adversary is not None and len(realized) != n_total:
        raise SimulationError(
            f"adversary defined {len(realized)} of {n_total} announced requests"
        )
    return Outcome(
        completion=now,
        services=dict(served),
        trajectory=Trajectory(space, tuple(waypoints)),
        realized=realized,
    )


# Independent feasibility checking ----------------------------------------------


def verify_outcome(inst: Instance, out: Outcome) -> list:
    """Re-check unit speed, service-after-release, completeness, closed return.
    Raises :class:`MetricError` on a waypoint or request outside the space."""
    issues: List[str] = []
    space = inst.space
    w = out.trajectory.waypoints
    for p in [wp.point for wp in w] + [r.point for r in inst.requests]:
        space.check_point(p)
    dist, origin = space.unchecked_distance, space.origin()
    by_id = {r.id: r for r in inst.requests}
    if set(out.services) != set(by_id):
        issues.append(
            f"served ids {sorted(out.services)} differ from instance ids {sorted(by_id)}"
        )
    for rid, t in out.services.items():
        req = by_id.get(rid)
        if req is None:
            continue
        if t < req.release - EPS:
            issues.append(f"premature service of request {rid}: {t} < release {req.release}")
    if not w or w[0].time > EPS:
        issues.append("trajectory does not start at time 0")
    if w and dist(w[0].point, origin) > EPS:
        issues.append("trajectory does not start at the origin")
    for a, b in zip(w, w[1:]):
        dt = b.time - a.time
        if dt < -EPS:
            issues.append(f"time goes backwards at {b.time}")
            continue
        d = dist(a.point, b.point)
        if d > EPS and abs(d - dt) > 1e-6:
            issues.append(
                f"segment {a.time}->{b.time} is neither a wait nor unit speed "
                f"(distance {d}, duration {dt})"
            )
        if d > dt + 1e-6:
            issues.append(f"superluminal segment ending at {b.time}")
    for wp in w:
        if wp.tag == "serve":
            req = by_id.get(wp.request_id)
            if req is not None and dist(wp.point, req.point) > EPS:
                issues.append(f"serve waypoint for {wp.request_id} away from its request")
            st = out.services.get(wp.request_id)
            if st is None or abs(st - wp.time) > EPS:
                issues.append(f"serve waypoint for {wp.request_id} disagrees with services")
    max_service = max(out.services.values(), default=0.0)
    if out.completion < max_service - EPS:
        issues.append("completion earlier than the last service")
    if w and abs(out.completion - w[-1].time) > EPS:
        issues.append("completion disagrees with the trajectory's final time")
    if inst.variant == CLOSED:
        if w and dist(w[-1].point, origin) > EPS:
            issues.append("closed outcome ends away from the origin")
    else:
        if abs(out.completion - max_service) > EPS:
            issues.append("open completion is not the last service time")
    return issues


def check_completion(completion: float, opt: float) -> None:
    """Raise when ``completion`` is below the offline optimum ``opt``, which no
    feasible run can beat."""
    if completion < opt - EPS:
        raise SimulationError(f"completion {completion!r} is below the offline optimum {opt!r}")


def competitive_ratio(completion: float, opt: float) -> float:
    """``completion / opt``; a zero optimum gives 1.0 for a zero completion and
    infinity otherwise."""
    if opt > EPS:
        return completion / opt
    return 1.0 if completion <= EPS else float("inf")


def outcome_to_text(out: Outcome, space: MetricSpace) -> str:
    """Structured-text export: completion, services, waypoint triplets."""
    lines = ["{"]
    lines.append(f'  "completion": {_num(out.completion)},')
    svc = ", ".join(f'"{rid}": {_num(t)}' for rid, t in sorted(out.services.items()))
    lines.append(f'  "services": {{{svc}}},')
    rows = []
    for wp in out.trajectory.waypoints:
        tag = wp.tag if wp.request_id is None else f"{wp.tag}:{wp.request_id}"
        pt = _point_text(space.kind, _export_point(space, wp.point))
        rows.append(f'    [{_num(wp.time)}, {pt}, "{tag}"]')
    lines.append('  "trajectory": [')
    lines.append(",\n".join(rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_point(space: MetricSpace, p: Point):
    # Mid-edge points on general spaces round to the nearer endpoint for export.
    if isinstance(p, EdgePoint):
        half = space.matrix[p.a][p.b] / 2.0
        return p.a if p.traveled <= half else p.b
    return p
