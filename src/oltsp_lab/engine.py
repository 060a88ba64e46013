"""Event-driven simulator for online routing policies against release schedules.

The engine owns time.  After *every* event (a release, a service, an adversary
inspection, or the completion of the current action) the policy is asked for a
fresh action from its current state, so actions are interruptible by design.
A request is served automatically and instantaneously whenever the server's
position coincides with a released, unserved request (within ``EPS``); passing
over a released request mid-move therefore serves it at the exact pass time.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .instance import CLOSED, COUNT_KNOWN, Instance, LOCATIONS_KNOWN, Request
from .metric import EPS, MetricSpace, Point


class SimulationError(RuntimeError):
    pass


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


@dataclass(frozen=True)
class Finish:
    pass


Action = Union[MoveTo, WaitUntil, WaitForRelease, Finish]


# Observations and contracts ---------------------------------------------------


@dataclass(frozen=True)
class PolicyContext:
    space: MetricSpace
    variant: str
    n: int
    knowledge: str
    locations: Optional[Dict[int, Point]]  # id -> point when locations are known


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


def pairing_error(policy: Policy, kind: str, variant: str, knowledge: str) -> Optional[str]:
    """Why ``policy`` cannot run on a scenario of this space kind, variant and
    knowledge model, or None when it can."""
    if policy.requires_kind and policy.requires_kind != kind:
        return f"policy {policy.name!r} requires a {policy.requires_kind} space, got {kind}"
    if policy.requires_variant and policy.requires_variant != variant:
        return (
            f"policy {policy.name!r} requires the {policy.requires_variant} variant, "
            f"got {variant}"
        )
    if policy.needs_locations and knowledge == COUNT_KNOWN:
        return (
            f"policy {policy.name!r} needs known locations but the scenario "
            "reveals only the request count"
        )
    return None


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
    variant: str


# Simulation -------------------------------------------------------------------


@dataclass
class _Pending:
    point: Point
    release: Optional[float]  # None until an adversary emits it


def simulate(scenario: Scenario, policy: Policy, step_budget: int = 1_000_000) -> Outcome:
    space = scenario.space
    variant = scenario.variant
    knowledge = scenario.knowledge
    refusal = pairing_error(policy, space.kind, variant, knowledge)
    if refusal:
        raise SimulationError(refusal)

    adversary: Optional[Adversary] = None
    requests: Dict[int, _Pending] = {}
    schedule: List[Tuple[float, int]] = []  # (release time, id) heap
    n_total: int

    if isinstance(scenario, Instance):
        n_total = scenario.n
        for req in scenario.requests:
            requests[req.id] = _Pending(req.point, req.release)
            heapq.heappush(schedule, (req.release, req.id))
    else:
        adversary = scenario
        n_total = adversary.n
        announced = adversary.announced()
        if announced:
            for rid in sorted(announced):
                requests[rid] = _Pending(announced[rid], None)

    locations = None
    if knowledge == LOCATIONS_KNOWN:
        locations = {rid: p.point for rid, p in requests.items()}
    ctx = PolicyContext(space, variant, n_total, knowledge, locations)

    now = 0.0
    pos = space.origin()
    origin = space.origin()
    released: Dict[int, float] = {}
    served: Dict[int, float] = {}
    waypoints: List[Waypoint] = [Waypoint(0.0, pos, "start")]
    adv_wake: Optional[float] = adversary.next_wake(0.0) if adversary else None

    def ingest(emissions: List[Emission]) -> None:
        nonlocal adv_wake
        for em in emissions:
            if em.release < now - EPS:
                raise SimulationError(
                    f"adversary causality violation: release {em.release} emitted at {now}"
                )
            if em.request_id is not None:
                slot = requests.get(em.request_id)
                if slot is None or slot.release is not None:
                    raise SimulationError(f"bad adversary emission for id {em.request_id}")
                slot.release = em.release
                heapq.heappush(schedule, (em.release, em.request_id))
            else:
                rid = len(requests) + 1
                if rid > n_total:
                    raise SimulationError("adversary emitted more requests than announced")
                if not space.contains(em.point):
                    raise SimulationError(f"adversary point {em.point!r} outside space")
                requests[rid] = _Pending(em.point, em.release)
                heapq.heappush(schedule, (em.release, rid))

    def process_due() -> None:
        while schedule and schedule[0][0] <= now + EPS:
            _, rid = heapq.heappop(schedule)
            released.setdefault(rid, requests[rid].release)

    def auto_serve() -> None:
        nonlocal adv_wake
        progress = True
        while progress:
            progress = False
            process_due()
            for rid in sorted(released):
                if rid in served:
                    continue
                if space.distance(pos, requests[rid].point) <= EPS:
                    served[rid] = now
                    waypoints.append(Waypoint(now, requests[rid].point, "serve", rid))
                    progress = True
                    if adversary is not None:
                        ingest(adversary.observe(now, pos, frozenset(served)))
                        adv_wake = adversary.next_wake(now)

    def visible() -> Dict[int, Request]:
        return {
            rid: Request(rid, requests[rid].point, released[rid]) for rid in released
        }

    policy.begin(ctx)
    steps = 0
    completion: Optional[float] = None
    while True:
        steps += 1
        if steps > step_budget:
            tail = ", ".join(
                f"{w.time:.6g}:{w.tag}" for w in waypoints[-8:]
            )
            raise SimulationError(
                f"step budget {step_budget} exceeded (policy {policy.name!r}); tail: {tail}"
            )
        process_due()
        auto_serve()
        if adversary is not None and adv_wake is not None and adv_wake <= now + EPS:
            ingest(adversary.observe(now, pos, frozenset(served)))
            adv_wake = adversary.next_wake(now)
            auto_serve()

        obs = Observation(now, pos, visible(), frozenset(served), ctx)
        action = policy.decide(obs)

        if isinstance(action, Finish):
            if len(served) != n_total:
                raise SimulationError(
                    f"policy finished with {len(served)}/{n_total} requests served"
                )
            if variant == CLOSED and space.distance(pos, origin) > EPS:
                raise SimulationError("closed run finished away from the origin")
            completion = now
            break

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
                off = plan.hit(requests[rid].point)
                if off is not None and off > EPS:
                    next_times.append(now + off)
        elif isinstance(action, WaitUntil):
            if action.until < now - EPS:
                raise SimulationError(f"wait-until into the past: {action.until} < {now}")
            next_times.append(max(action.until, now))
        elif isinstance(action, WaitForRelease):
            rid = action.request_id
            if rid is not None:
                if rid not in requests:
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

    realized = tuple(
        Request(rid, requests[rid].point, requests[rid].release)
        for rid in sorted(requests)
        if requests[rid].release is not None
    )
    if adversary is not None and len(realized) != n_total:
        raise SimulationError(
            f"adversary defined {len(realized)} of {n_total} announced requests"
        )
    return Outcome(
        completion=completion,
        services=dict(served),
        trajectory=Trajectory(space, tuple(waypoints)),
        realized=realized,
        variant=variant,
    )


# Independent feasibility checking ----------------------------------------------


def verify_outcome(inst: Instance, out: Outcome) -> list:
    """Re-check unit speed, service-after-release, completeness, closed return."""
    issues: List[str] = []
    space = inst.space
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
    w = out.trajectory.waypoints
    if not w or w[0].time > EPS:
        issues.append("trajectory does not start at time 0")
    if w and space.distance(w[0].point, space.origin()) > EPS:
        issues.append("trajectory does not start at the origin")
    for a, b in zip(w, w[1:]):
        dt = b.time - a.time
        if dt < -EPS:
            issues.append(f"time goes backwards at {b.time}")
            continue
        d = space.distance(a.point, b.point)
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
            if req is not None and space.distance(wp.point, req.point) > EPS:
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
        if w and space.distance(w[-1].point, space.origin()) > EPS:
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
    from .instance import _num, _point_text  # same numeric conventions

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
    from .metric import EdgePoint

    if isinstance(p, EdgePoint):
        half = space.matrix[p.a][p.b] / 2.0
        return p.a if p.traveled <= half else p.b
    return p
