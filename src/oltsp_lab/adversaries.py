"""Adaptive release controllers that force worst-case ratios against policies.

Each adversary announces a space, a variant, a request budget ``n``, the
knowledge model the paired policy may use and, in ``points``, any request
locations fixed in advance.  It then watches the run (after every service, told
the id just served, and at its ``wake`` time) and emits releases.  Emissions
are causal: a release never predates the moment it is decided.  The four
fixed-time constructions are data for one :class:`TableAdversary`; the two
count constructions that loop over epsilon are classes of their own, and their
``wake`` doubles as their stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
from .metric import EPS, MetricSpace, Point, Ring, SemiLine, Star
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


class TableAdversary(Adversary):
    """A fixed-time construction given as a decision tree over the server's
    position.  A node is ``(wake, test, branches)``: at time ``wake`` the
    adversary takes ``branches[test(position)]``, a pair ``(emissions, next
    node or None)``, and emits its emissions."""

    def __init__(self, name: str, space: MetricSpace, variant: str, knowledge: str,
                 n: int, points: Optional[Dict[int, Point]], tree: tuple):
        self.name, self.space, self.variant = name, space, variant
        self.knowledge, self.n, self.points = knowledge, n, points
        self.node: Optional[tuple] = tree
        self.wake = tree[0]

    def observe(self, now, position, served) -> List[Emission]:
        if now < self.wake - EPS:
            return []
        _, test, branches = self.node
        emissions, self.node = branches[test(position)]
        self.wake = math.inf if self.node is None else self.node[0]
        return list(emissions)


def _release(times: Dict[int, float]) -> Tuple[Emission, ...]:
    """Releases of announced requests, ``{id: release time}``."""
    return tuple(Emission(t, request_id=rid) for rid, t in times.items())


# Open ring: two fixed locations, 1/3 (id 1) and 2/3 (id 2).  At t = 1/3 the one
# on the far side from the server is released, the other at 2/3.

RING = Ring(1.0)


def _nearer_two_thirds(position: float) -> bool:
    s, dist = RING.norm(position), RING.unchecked_distance
    return dist(s, 2 / 3) <= dist(s, 1 / 3) + EPS


RING_OPEN = (1 / 3, _nearer_two_thirds, (
    (_release({2: 1 / 3, 1: 2 / 3}), None),
    (_release({1: 1 / 3, 2: 2 / 3}), None),
))

# Semi-line, locations known: four fixed spots 0, 1/6, 5/6 and 1 (ids 1-4).  At
# t = 1 a server near one end gets the far end then and the rest one by one as
# it walks back; a server in the middle gets both ends, then at t = 7/6 the inner
# spot farther from it, and the other inner spot at 11/6.

SEMILINE_OPEN_LOC = (1.0, lambda s: 0 if s < 1 / 6 else 2 if s > 5 / 6 else 1, (
    (_release({4: 1.0, 3: 7 / 6, 2: 11 / 6, 1: 2.0}), None),
    (_release({1: 1.0, 4: 1.0}), (7 / 6, lambda s: abs(s - 5 / 6) >= abs(s - 1 / 6), (
        (_release({2: 7 / 6, 3: 11 / 6}), None),
        (_release({3: 7 / 6, 2: 11 / 6}), None),
    ))),
    (_release({1: 1.0, 2: 7 / 6, 3: 11 / 6, 4: 2.0}), None),
))


# Semi-line, count-only: one request at t = 1, at the origin if the server is
# at least ``threshold`` (1/3 closed, 1/2 open) away from it, else at 1.

def _semiline_count(threshold: float) -> tuple:
    return (1.0, lambda s: s >= threshold - EPS, (
        ((Emission(1.0, point=1.0),), None),
        ((Emission(1.0, point=0.0),), None),
    ))


TABLES = {  # name: (space, variant, knowledge, n, announced points, tree)
    "ring-open": (RING, OPEN, LOCATIONS_KNOWN, 2, {1: 1 / 3, 2: 2 / 3}, RING_OPEN),
    "semiline-open-loc": (SemiLine(), OPEN, LOCATIONS_KNOWN, 4,
                          {1: 0.0, 2: 1 / 6, 3: 5 / 6, 4: 1.0}, SEMILINE_OPEN_LOC),
    "semiline-closed-count": (SemiLine(), CLOSED, COUNT_KNOWN, 1, None, _semiline_count(1 / 3)),
    "semiline-open-count": (SemiLine(), OPEN, COUNT_KNOWN, 1, None, _semiline_count(0.5)),
}


# The count constructions take about 1/epsilon requests and a run costs about
# n^2: at this floor a greedy run of ring-closed-count (n = 1201, forced to
# 1.9975) took 1.05-1.23 s and one of star-count (n = 1400) 0.78-0.85 s (best of
# 5 in each of three rounds, 2-core Xeon VM, Python 3.11).
MIN_EPSILON = 0.005


def _check_epsilon(epsilon: float) -> float:
    if not MIN_EPSILON <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [{MIN_EPSILON}, 1], got {epsilon!r}")
    return epsilon


# Closed ring, count-only: equidistant seeds, then a backfill on the side the
# server has already covered, timed at the first moment its distance from the
# origin drops to 1/2 - (t - 1/2).  A server at the antipode has covered the
# side of the last position observed strictly inside one half (clockwise if
# none): in floats, greedy's first move can tie and go counter-clockwise.


class RingClosedCountAdversary(Adversary):
    name, space, variant, knowledge = "ring-closed-count", RING, CLOSED, COUNT_KNOWN

    def __init__(self, epsilon: float):
        self.epsilon = _check_epsilon(epsilon)
        steps = math.ceil(1.0 / epsilon)
        self.n = 6 * steps + 1
        self.m_init = 4 * steps
        self.intervals = 2 * steps
        self.clockwise = True
        self.wake = 0.0  # 0 to seed, then never below 0.5 until the backfill

    def observe(self, now, position, served) -> List[Emission]:
        s = self.space.norm(position)
        if EPS < s < 0.5 - EPS or 0.5 + EPS < s < 1.0 - EPS:
            self.clockwise = s < 0.5
        if self.wake == 0.0:
            self.wake = 0.5
            return [Emission(0.0, point=i / self.m_init) for i in range(self.m_init)]
        if self.wake == math.inf or now < 0.5 - EPS:
            return []
        phi = self.space.unchecked_distance(s, 0.0) + now
        if phi < 1.0 - EPS:
            # Earliest possible crossing is when the server strictly recedes;
            # distance-from-origin + time reaches 1 by t=1 at the latest.
            self.wake = min(now + max((1.0 - phi) / 2.0, 1e-6), 1.0)
            return []
        self.wake = math.inf
        spacing = max(1.0 - now, 0.0) / self.intervals
        assert spacing <= self.epsilon / 4.0 + EPS
        points = [j * spacing for j in range(self.intervals + 1)]
        if not self.clockwise:
            points = sorted(self.space.norm(1.0 - p) for p in points)
        return [Emission(now, point=p) for p in points]


# Star, count-only: one seed per branch at depth 1, a fresh request two time
# units after every early service, and the leftover budget dumped at the hub.
# The wake is the stage: 1 seeds, t_star re-emits until the dump at t_star,
# inf is done.


class StarCountAdversary(Adversary):
    name, variant, knowledge = "star-count", CLOSED, COUNT_KNOWN

    def __init__(self, epsilon: float):
        self.epsilon = _check_epsilon(epsilon)
        self.n = math.ceil(7.0 / epsilon)
        self.k = self.n // 2
        self.space = Star(self.k)
        self.t_star = 2 * self.k - 1
        self.ledger: List[Point] = []
        self.wake = 1.0

    def observe(self, now, position, served) -> List[Emission]:
        if self.wake == 1.0:
            self.wake = float(self.t_star)
            self.ledger = [(j, 1.0) for j in range(self.k)]
            return [Emission(1.0, point=p) for p in self.ledger]
        if self.wake == math.inf:
            return []
        ems: List[Emission] = []
        if served is not None and now < self.t_star - EPS and len(self.ledger) < self.n:
            point = self.ledger[served - 1]
            if abs(point[1] - 1.0) <= EPS:
                self.ledger.append(point)
                ems.append(Emission(now + 2.0, point=point))
        if now >= self.t_star - EPS:
            self.wake = math.inf
            while len(self.ledger) < self.n:
                self.ledger.append((0, 0.0))
                ems.append(Emission(float(self.t_star), point=(0, 0.0)))
        return ems


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
    table = TABLES.get(base)
    if table is None:
        raise ValueError(f"unknown adversary {name!r}")
    if epsilon is not None:
        raise ValueError(f"adversary {base!r} takes no epsilon, got {epsilon!r}")
    return TableAdversary(base, *table)
