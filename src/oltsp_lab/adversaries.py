"""Adaptive release controllers that force worst-case ratios against policies.

Each adversary announces a space, a variant, a request budget ``n`` and the
knowledge model the paired policy may use, then watches the run (at wake times
it chooses, and after every service) and emits releases.  Emissions are causal:
a release never predates the moment it is decided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .engine import (
    Adversary,
    Emission,
    Outcome,
    Policy,
    Scenario,
    competitive_ratio,
    simulate,
)
from .instance import (
    CLOSED,
    COUNT_KNOWN,
    LOCATIONS_KNOWN,
    MAX_REQUESTS,
    OPEN,
    Instance,
    Request,
    position_key,
)
from .metric import EPS, Point, Ring, SemiLine, Star
from .oracle import opt_makespan


@dataclass(frozen=True)
class AdversaryRun:
    materialized: Instance
    forced_completion: float
    opt_completion: Optional[float]  # None past the oracle cap
    forced_ratio: Optional[float]
    outcome: Outcome


def run_adversary(scenario: Scenario, policy: Policy) -> AdversaryRun:
    """Run ``policy`` on ``scenario`` and make its claim.  A fixed instance is
    an adversary that announced everything: ``materialize`` gives a valid one
    back as it was, up to the order of points within EPS of each other."""
    out = simulate(scenario, policy)
    inst = materialize(scenario, out)
    if inst.n > MAX_REQUESTS:
        return AdversaryRun(inst, out.completion, None, None, out)
    opt = opt_makespan(inst).makespan
    return AdversaryRun(inst, out.completion, opt, competitive_ratio(out.completion, opt), out)


def materialize(scenario: Scenario, out: Outcome) -> Instance:
    """The realized releases as a fixed instance (position-sorted where the
    instance format requires it)."""
    reqs = list(out.realized)
    key = position_key(scenario.space)
    if key is not None:
        reqs.sort(key=key)
    reqs = [Request(i + 1, r.point, r.release) for i, r in enumerate(reqs)]
    return Instance(
        space=scenario.space,
        variant=scenario.variant,
        requests=tuple(reqs),
        knowledge=scenario.knowledge,
    )


# Open ring: two fixed locations, releases chosen by the side the server took.


class RingOpenAdversary(Adversary):
    name = "ring-open"

    def __init__(self):
        self.space = Ring(1.0)
        self.variant = OPEN
        self.n = 2
        self.knowledge = LOCATIONS_KNOWN
        self.fired = False
        self.pos_b = 1.0 / 3.0  # id 1, clockwise
        self.pos_a = 2.0 / 3.0  # id 2

    def announced(self) -> Dict[int, Point]:
        return {1: self.pos_b, 2: self.pos_a}

    def next_wake(self, now: float) -> Optional[float]:
        return None if self.fired else 1.0 / 3.0

    def observe(self, now, position, served) -> List[Emission]:
        if self.fired or now < 1.0 / 3.0 - EPS:
            return []
        self.fired = True
        s = self.space.norm(position)
        dist = self.space.unchecked_distance
        a_side = dist(s, self.pos_a) <= dist(s, self.pos_b) + EPS
        if a_side:
            return [Emission(1.0 / 3.0, request_id=1), Emission(2.0 / 3.0, request_id=2)]
        return [Emission(1.0 / 3.0, request_id=2), Emission(2.0 / 3.0, request_id=1)]


# The count constructions take about 1/epsilon requests and a run costs about
# n^2: at this floor ring-closed-count (n = 1201) and star-count (n = 1400) each
# run in about 1.5 s.
MIN_EPSILON = 0.005


def _check_epsilon(epsilon: float) -> float:
    if not MIN_EPSILON <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [{MIN_EPSILON}, 1], got {epsilon!r}")
    return epsilon


# Closed ring, count-only: equidistant seeds, then a backfill on the side the
# server has already covered, timed at the first moment its distance from the
# origin drops to 1/2 - (t - 1/2).


class RingClosedCountAdversary(Adversary):
    name = "ring-closed-count"

    def __init__(self, epsilon: float):
        self.epsilon = _check_epsilon(epsilon)
        self.space = Ring(1.0)
        self.variant = CLOSED
        self.knowledge = COUNT_KNOWN
        steps = math.ceil(1.0 / epsilon)
        self.n = 6 * steps + 1
        self.m_init = 4 * steps
        self.intervals = 2 * steps
        self.seeded = False
        self.fired = False
        self._next = 0.0  # next wake: 0 to seed, then never below 0.5

    def next_wake(self, now: float) -> Optional[float]:
        return None if self.fired else self._next

    def observe(self, now, position, served) -> List[Emission]:
        if not self.seeded:
            self.seeded = True
            self._next = 0.5
            return [
                Emission(0.0, point=i / (1.0 * self.m_init))
                for i in range(self.m_init)
            ]
        if self.fired or now < 0.5 - EPS:
            return []
        dist = self.space.unchecked_distance(self.space.norm(position), 0.0)
        phi = dist + now
        if phi < 1.0 - EPS:
            # Earliest possible crossing is when the server strictly recedes;
            # distance-from-origin + time reaches 1 by t=1 at the latest.
            self._next = min(now + max((1.0 - phi) / 2.0, 1e-6), 1.0)
            return []
        self.fired = True
        frac = max(1.0 - now, 0.0)
        spacing = frac / self.intervals
        assert spacing <= self.epsilon / 4.0 + EPS
        s = self.space.norm(position)
        clockwise_side = s <= 0.5 + EPS
        points = []
        for j in range(self.intervals + 1):
            p = j * spacing
            points.append(p if clockwise_side else self.space.norm(1.0 - p))
        points.sort()
        return [Emission(now, point=p) for p in points]


# Star, count-only: one seed per branch at depth 1, a fresh request two time
# units after every early service, and the leftover budget dumped at the hub.


class StarCountAdversary(Adversary):
    name = "star-count"

    def __init__(self, epsilon: float):
        self.epsilon = _check_epsilon(epsilon)
        self.n = math.ceil(7.0 / epsilon)
        self.k = self.n // 2
        self.space = Star(self.k)
        self.variant = CLOSED
        self.knowledge = COUNT_KNOWN
        self.t_star = 2 * self.k - 1
        self.ledger: List[Point] = []
        self.seen: set = set()
        self.seeded = False
        self.finale = False

    def next_wake(self, now: float) -> Optional[float]:
        if not self.seeded:
            return 1.0
        if not self.finale:
            return float(self.t_star)
        return None

    def observe(self, now, position, served) -> List[Emission]:
        ems: List[Emission] = []
        if not self.seeded and now >= 1.0 - EPS:
            self.seeded = True
            for j in range(self.k):
                self.ledger.append((j, 1.0))
                ems.append(Emission(1.0, point=(j, 1.0)))
        newly = sorted(set(served) - self.seen)
        self.seen.update(newly)
        if self.seeded and not self.finale:
            for rid in newly:
                point = self.ledger[rid - 1]
                deep = isinstance(point, tuple) and abs(point[1] - 1.0) <= EPS
                if deep and now < self.t_star - EPS and len(self.ledger) < self.n:
                    self.ledger.append(point)
                    ems.append(Emission(now + 2.0, point=point))
        if self.seeded and not self.finale and now >= self.t_star - EPS:
            self.finale = True
            while len(self.ledger) < self.n:
                self.ledger.append((0, 0.0))
                ems.append(Emission(float(self.t_star), point=(0, 0.0)))
        return ems


# Semi-line, locations known: four fixed spots, outer-first or outer-pair
# branches picked from the server's position at t=1 (and again at t=7/6).


class SemilineOpenLocAdversary(Adversary):
    name = "semiline-open-loc"

    def __init__(self):
        self.space = SemiLine()
        self.variant = OPEN
        self.n = 4
        self.knowledge = LOCATIONS_KNOWN
        self.stage = 0  # 0: before t=1; 1: middle branch, inner pending; 2: last inner; 3: done
        self.pending_inner: Optional[int] = None

    def announced(self) -> Dict[int, Point]:
        return {1: 0.0, 2: 1.0 / 6.0, 3: 5.0 / 6.0, 4: 1.0}

    def next_wake(self, now: float) -> Optional[float]:
        return {0: 1.0, 1: 7.0 / 6.0, 2: 11.0 / 6.0}.get(self.stage)

    def observe(self, now, position, served) -> List[Emission]:
        if self.stage == 0 and now >= 1.0 - EPS:
            s = position
            if s < 1.0 / 6.0:
                self.stage = 3
                return [
                    Emission(1.0, request_id=4),
                    Emission(7.0 / 6.0, request_id=3),
                    Emission(11.0 / 6.0, request_id=2),
                    Emission(2.0, request_id=1),
                ]
            if s > 5.0 / 6.0:
                self.stage = 3
                return [
                    Emission(1.0, request_id=1),
                    Emission(7.0 / 6.0, request_id=2),
                    Emission(11.0 / 6.0, request_id=3),
                    Emission(2.0, request_id=4),
                ]
            self.stage = 1
            return [Emission(1.0, request_id=1), Emission(1.0, request_id=4)]
        if self.stage == 1 and now >= 7.0 / 6.0 - EPS:
            s = position
            far = 3 if abs(s - 5.0 / 6.0) >= abs(s - 1.0 / 6.0) else 2
            self.pending_inner = 2 if far == 3 else 3
            self.stage = 2
            return [Emission(7.0 / 6.0, request_id=far)]
        if self.stage == 2 and now >= 11.0 / 6.0 - EPS:
            self.stage = 3
            return [Emission(11.0 / 6.0, request_id=self.pending_inner)]
        return []


# Semi-line, count-only: one request, placed by the server's position at t=1.


class SemilineCountAdversary(Adversary):
    def __init__(self, variant: str):
        self.space = SemiLine()
        self.variant = variant
        self.n = 1
        self.knowledge = COUNT_KNOWN
        self.threshold = 1.0 / 3.0 if variant == CLOSED else 0.5
        self.name = (
            "semiline-closed-count" if variant == CLOSED else "semiline-open-count"
        )
        self.fired = False

    def next_wake(self, now: float) -> Optional[float]:
        return None if self.fired else 1.0

    def observe(self, now, position, served) -> List[Emission]:
        if self.fired or now < 1.0 - EPS:
            return []
        self.fired = True
        target = 0.0 if position >= self.threshold - EPS else 1.0
        return [Emission(1.0, point=target)]


def make_adversary(name: str, epsilon: Optional[float] = None) -> Adversary:
    """Build a construction from its CLI name.  Only ``ring-closed-count`` and
    ``star-count`` take an epsilon, as a ``:EPS`` suffix or ``epsilon`` (default
    0.5), not both."""
    base, _, suffix = name.partition(":")
    if suffix:
        if epsilon is not None:
            raise ValueError(f"adversary {name!r} takes its epsilon from the suffix; "
                             f"got epsilon {epsilon!r} as well")
        epsilon = float(suffix)
    if base == "ring-closed-count":
        return RingClosedCountAdversary(epsilon if epsilon is not None else 0.5)
    if base == "star-count":
        return StarCountAdversary(epsilon if epsilon is not None else 0.5)
    build = {"ring-open": RingOpenAdversary, "semiline-open-loc": SemilineOpenLocAdversary,
             "semiline-closed-count": lambda: SemilineCountAdversary(CLOSED),
             "semiline-open-count": lambda: SemilineCountAdversary(OPEN)}.get(base)
    if build is None:
        raise ValueError(f"unknown adversary {name!r}")
    if epsilon is not None:
        raise ValueError(f"adversary {base!r} takes no epsilon, got {epsilon!r}")
    return build()
