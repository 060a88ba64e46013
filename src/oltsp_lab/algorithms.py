"""Online policies with known request locations, plus two baselines.

All policies are single-use state machines driven by the engine: ``decide``
is called after every event and answers "what to do from here".  Movement on
a ring is decomposed into sub-half-circumference hops so that a policy can
travel a chosen direction even where the shortest path would go the other way.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    Action,
    Finish,
    MoveTo,
    Observation,
    Policy,
    PolicyContext,
    SimulationError,
    WaitForRelease,
    WaitUntil,
)
from .instance import CLOSED, MAX_REQUESTS, OPEN, Instance, Request
from .metric import EPS, Point, distance_table

ALG1_CAP = 9
EXACT_KNAPSACK_CAP = 20


# Tour bookkeeping -------------------------------------------------------------


@dataclass(frozen=True)
class TourStats:
    """Per-order quantities: total length and distance traveled to each stop."""

    order: Tuple[int, ...]
    length: float
    prefix: Tuple[float, ...]  # prefix[j]: distance when reaching order[j]


def tour_stats(space, variant: str, points: Dict[int, Point], order: Sequence[int]) -> TourStats:
    o = space.origin()
    prefix = []
    total = 0.0
    prev = o
    for rid in order:
        total += space.distance(prev, points[rid])
        prefix.append(total)
        prev = points[rid]
    if variant == CLOSED and order:
        total += space.distance(prev, o)
    return TourStats(tuple(order), total, tuple(prefix))


def alpha(stats: TourStats, released_ids) -> float:
    """Released fraction of the tour, counting the leg into the first
    unreleased stop; 1 when everything is released."""
    for j, rid in enumerate(stats.order):
        if rid not in released_ids:
            return stats.prefix[j] / stats.length if stats.length > 0 else 1.0
    return 1.0


# Moves shared by the policies ---------------------------------------------------


def finish(obs: Observation) -> Action:
    """End of run: a closed run first returns to the origin."""
    space = obs.ctx.space
    o = space.origin()
    if obs.ctx.variant == CLOSED and space.distance(obs.position, o) > EPS:
        return MoveTo(o)
    return Finish()


def next_stop(points: Dict[int, Point], obs: Observation,
              offset: Callable[[Point], Optional[float]]) -> Optional[Tuple[float, int]]:
    """Next stop of a serve-with-wait sweep: ``(offset, id)`` of the unreleased,
    unserved request with the smallest ``offset(point) >= -EPS``, ties to the
    lowest id, or None.  ``offset`` is the distance left to travel along the
    sweep to a point, or None for a point off the sweep."""
    best = None
    for rid, p in points.items():
        if rid in obs.served or rid in obs.released:
            continue
        off = offset(p)
        if off is not None and off >= -EPS and (best is None or (off, rid) < best):
            best = (off, rid)
    return best


# Knapsack ---------------------------------------------------------------------


@dataclass(frozen=True)
class KnapsackItem:
    index: int
    weight: float
    value: float


@dataclass(frozen=True)
class KnapsackResult:
    indices: Tuple[int, ...]
    value: float


def knapsack_select(items: Sequence[KnapsackItem], capacity: float,
                    mode: str = "exact", eps: float = 0.1) -> KnapsackResult:
    for it in items:
        if it.weight < 0 or it.value < 0:
            raise ValueError(f"negative weight/value in knapsack item {it}")
    if capacity < -EPS:
        raise ValueError("negative knapsack capacity")
    if mode == "exact":
        return _knapsack_exact(items, capacity)
    if mode == "fptas":
        return _knapsack_fptas(items, capacity, eps)
    raise ValueError(f"unknown knapsack mode {mode!r}")


def _knapsack_exact(items, capacity) -> KnapsackResult:
    if len(items) > EXACT_KNAPSACK_CAP:
        raise ValueError(
            f"{len(items)} items exceed the exact-enumeration cap "
            f"{EXACT_KNAPSACK_CAP}; use the fptas mode"
        )
    ws = np.zeros(1)
    vs = np.zeros(1)
    for it in items:
        ws = np.concatenate([ws, ws + it.weight])
        vs = np.concatenate([vs, vs + it.value])
    feasible = np.flatnonzero(ws <= capacity + 1e-12)
    # Highest value, then lightest, then smallest subset mask.
    order = np.lexsort((feasible, ws[feasible], -vs[feasible]))
    best = int(feasible[order[0]])
    chosen = tuple(
        items[k].index for k in range(len(items)) if best & (1 << k)
    )
    return KnapsackResult(chosen, float(vs[best]))


def _knapsack_fptas(items, capacity, eps) -> KnapsackResult:
    if not 0 < eps <= 1:
        raise ValueError("fptas epsilon must be in (0, 1]")
    cand = [it for it in items if it.weight <= capacity + 1e-12 and it.value > 0]
    if not cand:
        return KnapsackResult((), 0.0)
    vmax = max(it.value for it in cand)
    m = len(cand)
    scale = eps * vmax / m
    scaled = [int(math.floor(it.value / scale)) for it in cand]
    total = sum(scaled)
    minw = [math.inf] * (total + 1)
    minw[0] = 0.0
    take = [[False] * (total + 1) for _ in range(m)]
    for i, it in enumerate(cand):
        s = scaled[i]
        for v in range(total, s - 1, -1):
            alt = minw[v - s] + it.weight
            if alt < minw[v] - 1e-15:
                minw[v] = alt
                take[i][v] = True
    best_v = max(v for v in range(total + 1) if minw[v] <= capacity + 1e-12)
    chosen = []
    v = best_v
    for i in range(m - 1, -1, -1):
        if take[i][v]:
            chosen.append(cand[i].index)
            v -= scaled[i]
    chosen.sort()
    return KnapsackResult(tuple(chosen), float(sum(
        it.value for it in cand if it.index in set(chosen)
    )))


# alg1: order enumeration for any metric, both variants --------------------------

_PERMS: Dict[int, tuple] = {}


def _perm_tables(n: int) -> tuple:
    """Permutation matrix plus cached gather indices and request bitmasks."""
    if n not in _PERMS:
        perms = np.array(
            list(itertools.permutations(range(n))), dtype=np.intp
        ).reshape(-1, n)
        leg_idx = perms[:, :-1] * n + perms[:, 1:] if n > 1 else None
        bits = np.left_shift(np.int64(1), perms.astype(np.int64))
        _PERMS[n] = (perms, leg_idx, bits)
    return _PERMS[n]


class Alg1General(Policy):
    """Wait at the origin until the start threshold, then commit to the order
    minimizing (1 - beta) * length and follow it, waiting at unreleased stops.

    The start threshold is the first time t at which some order has both
    t >= length/2 and a fully released prefix covering half its length.  The
    prefix condition for an order flips exactly when the last request it needs
    (those reached before the halfway point) is released, so the threshold is
    min over orders of max(length/2, latest needed release), evaluated online.
    """

    name = "alg1"
    needs_locations = True

    def __init__(self):
        self.started = False
        self.order: List[int] = []
        self.cursor = 0
        self.chosen_t: Optional[float] = None

    def begin(self, ctx: PolicyContext) -> None:
        n = ctx.n
        if n > ALG1_CAP:
            raise SimulationError(f"alg1 handles at most {ALG1_CAP} requests, got {n}")
        self.ctx = ctx
        self.points = dict(ctx.locations or {})
        if n == 0:
            return
        pts = [self.points[i + 1] for i in range(n)]
        d0, dret, dmat = (np.array(t) for t in distance_table(ctx.space, pts))

        perms, leg_idx, bits = _perm_tables(n)
        m = len(perms)
        prefix = np.empty((m, n))
        prefix[:, 0] = d0[perms[:, 0]]
        if n > 1:
            np.cumsum(dmat.ravel()[leg_idx], axis=1, out=prefix[:, 1:])
            prefix[:, 1:] += prefix[:, 0][:, None]
        ell = prefix[:, -1].copy()
        if ctx.variant == CLOSED:
            ell += dret[perms[:, -1]]
        # Per order: which requests sit before the halfway point (as a bitmask)
        # and the latest release seen among them so far.
        self.needed_mask = np.where(prefix < (ell / 2)[:, None], bits, 0).sum(
            axis=1, dtype=np.int64
        )
        self.tau = np.zeros(m)
        self.half = ell / 2.0
        self.known = 0  # bitmask of releases already folded into tau
        self.perms, self.prefix, self.ell = perms, prefix, ell

    def decide(self, obs: Observation) -> Action:
        if self.ctx.n == 0:
            return finish(obs)
        if not self.started:
            act = self._waiting_step(obs)
            if act is not None:
                return act
        return self._tour_step(obs)

    def _waiting_step(self, obs: Observation) -> Optional[Action]:
        released_bits = 0
        for rid, req in obs.released.items():
            bit = 1 << (rid - 1)
            released_bits |= bit
            if not self.known & bit:
                sel = (self.needed_mask & bit) != 0
                self.tau[sel] = np.maximum(self.tau[sel], req.release)
        self.known = released_bits
        ok = (self.needed_mask & ~released_bits) == 0
        if not ok.any():
            return WaitForRelease(None)
        cand = np.maximum(self.half, self.tau)[ok]
        best = float(cand.min())
        if best > obs.now + EPS:
            return WaitUntil(best)
        self._commit(obs, released_bits)
        return None

    def _commit(self, obs: Observation, released_bits: int) -> None:
        n = self.ctx.n
        rel_mask = np.array([(released_bits >> i) & 1 for i in range(n)], dtype=bool)
        fr = rel_mask[self.perms]
        all_rel = fr.all(axis=1)
        first_k = np.argmin(fr, axis=1)
        rows = np.arange(len(self.perms))
        num = np.where(all_rel, self.ell, self.prefix[rows, first_k])
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(self.ell > 0, num / self.ell, 1.0)
        beta = np.minimum(a, 0.5)
        objective = (1.0 - beta) * self.ell
        i1 = int(np.argmin(objective))  # ties: lexicographically first order
        self.order = [int(r) + 1 for r in self.perms[i1]]
        self.chosen_t = obs.now
        self.chosen_objective = float(objective[i1])
        self.started = True

    def _tour_step(self, obs: Observation) -> Action:
        while self.cursor < len(self.order) and self.order[self.cursor] in obs.served:
            self.cursor += 1
        if self.cursor >= len(self.order):
            return finish(obs)
        rid = self.order[self.cursor]
        target = self.points[rid]
        if self.ctx.space.distance(obs.position, target) <= EPS:
            return WaitForRelease(rid)
        return MoveTo(target)


# Ring policy (closed) -----------------------------------------------------------


class Alg2Ring(Policy):
    """Closed ring policy: either exploit a large request-free arc, or wait for
    a third of the ring inside one half to be fully released, loop that way,
    then mop up what was passed unreleased near the origin.

    Instances whose points can be visited faster than a full loop (some arc of
    the point set including the origin exceeds half the circumference) behave
    like line instances and are delegated to the order-enumeration policy.
    """

    name = "alg2-ring"
    needs_locations = True
    requires_kind = "ring"
    requires_variant = CLOSED

    def __init__(self):
        self.delegate: Optional[Alg1General] = None
        self.legs: List[tuple] = []
        self.ptr = 0
        self.window: Optional[Tuple[bool, float]] = None
        self.branch: Optional[int] = None

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.c = ctx.space.circumference
        self.points = {rid: ctx.space.norm(p) for rid, p in (ctx.locations or {}).items()}
        n = ctx.n
        if n == 0:
            return
        pos_sorted = [self.points[i + 1] for i in range(n)]
        if ctx.space.max_gap_with_origin(pos_sorted) > self.c / 2 + EPS:
            self.delegate = Alg1General()
            self.delegate.begin(ctx)
            return
        self.branch = 2
        for i in range(n - 1):
            if pos_sorted[i + 1] - pos_sorted[i] >= self.c / 3 - EPS:
                self.branch = 1
                self._plan_branch1(pos_sorted[i], pos_sorted[i + 1])
                break

    def _plan_branch1(self, p_lo: float, p_hi: float) -> None:
        # Serve the far side of the empty arc first, looping through it, then
        # out-and-back over the near side.  Directions mirror when the lower
        # endpoint is the farther one.
        dist = self.ctx.space.distance
        if dist(p_hi, 0.0) >= dist(p_lo, 0.0):
            self.legs = [
                ("go", p_hi, True),
                ("sweep", 0.0, True),
                ("skip_if_done",),
                ("go", p_lo, True),
                ("sweep", 0.0, False),
            ]
        else:
            self.legs = [
                ("go", p_lo, False),
                ("sweep", 0.0, False),
                ("skip_if_done",),
                ("go", p_hi, False),
                ("sweep", 0.0, True),
            ]

    # movement helpers ----------------------------------------------------

    def _arc(self, cur: float, target: float, d: float) -> float:
        """Arc from ``cur`` to ``target`` in direction ``d``; a full loop is 0."""
        arc = ((target - cur) * d) % self.c
        return 0.0 if arc >= self.c - EPS else arc

    def _arc_step(self, obs: Observation, target: float, clockwise: bool) -> Optional[Action]:
        cur = self.ctx.space.norm(obs.position)
        d = 1.0 if clockwise else -1.0
        arc = self._arc(cur, target, d)
        if arc <= EPS:
            return None
        hop = min(arc, self.c / 4)
        return MoveTo(self.ctx.space.norm(cur + d * hop))

    def _sweep_step(self, obs: Observation, end: float, clockwise: bool) -> Optional[Action]:
        """Serve-with-wait sweep toward ``end``: stop at unreleased requests."""
        cur = self.ctx.space.norm(obs.position)
        d = 1.0 if clockwise else -1.0
        remaining = self._arc(cur, end, d)

        def offset(p: float) -> Optional[float]:
            off = self._arc(cur, p, d)
            return off if off <= remaining + EPS else None

        stop = next_stop(self.points, obs, offset)
        if stop is not None:
            if stop[0] <= EPS:
                return WaitForRelease(stop[1])
            return self._arc_step(obs, self.points[stop[1]], clockwise)
        if remaining <= EPS:
            return None
        return self._arc_step(obs, end, clockwise)

    # branch 2 pieces -------------------------------------------------------

    def _find_window(self, obs: Observation) -> Optional[Tuple[bool, float]]:
        c, third, half = self.c, self.c / 3, self.c / 2
        unrel = sorted(
            p for rid, p in self.points.items() if rid not in obs.released
        )
        best: Optional[Tuple[float, bool, float]] = None
        walls1 = [0.0] + [p for p in unrel if 0.0 < p <= half] + [half]
        for lo, hi in zip(walls1, walls1[1:]):
            if hi - lo > third:
                target = lo + third
                best = (target, True, target)
                break
        walls2 = [half] + [p for p in unrel if half <= p < c] + [c]
        for lo, hi in reversed(list(zip(walls2, walls2[1:]))):
            if hi - lo > third:
                target = hi - third
                dist = c - target
                if best is None or dist < best[0] - EPS:
                    best = (dist, False, target)
                break
        if best is None:
            return None
        return (best[1], best[2])

    def decide(self, obs: Observation) -> Action:
        if self.delegate is not None:
            return self.delegate.decide(obs)
        n = self.ctx.n
        if n == 0:
            return finish(obs)
        if self.branch == 2 and not self.legs:
            if len(obs.served) == n:  # everything happened at the origin
                return finish(obs)
            w = self._find_window(obs)
            if w is None:
                return WaitForRelease(None)
            self.window = w
            clockwise, target = w
            self.legs = [("go", target, clockwise), ("sweep", 0.0, clockwise),
                         ("mop", clockwise)]
        return self._run_legs(obs)

    def _run_legs(self, obs: Observation) -> Action:
        while True:
            if self.ptr >= len(self.legs):
                return finish(obs)
            leg = self.legs[self.ptr]
            if leg[0] == "skip_if_done":
                if all(rid in obs.served for rid in self.points):
                    return finish(obs)
                self.ptr += 1
                continue
            if leg[0] == "go":
                act = self._arc_step(obs, leg[1], leg[2])
            elif leg[0] == "sweep":
                act = self._sweep_step(obs, leg[1], leg[2])
            elif leg[0] == "mop":
                act = self._mop(obs, leg[1])
            elif leg[0] == "mop_wait":
                act = self._mop_wait(obs, leg[1])
            else:
                raise SimulationError(f"bad leg {leg!r}")
            if act is None:
                self.ptr += 1
                continue
            return act

    def _mop(self, obs: Observation, clockwise: bool) -> Optional[Action]:
        unserved = [rid for rid in self.points if rid not in obs.served]
        if not unserved:
            return None
        dist = self.ctx.space.distance
        target_rid = max(unserved, key=lambda r: (dist(self.points[r], 0.0), -r))
        target = self.points[target_rid]
        self.legs.insert(self.ptr + 1, ("mop_wait", target))
        self.legs.insert(self.ptr + 2, ("sweep", 0.0, not clockwise))
        act = self._arc_step(obs, target, clockwise)
        if act is None:
            return None
        self.legs[self.ptr] = ("go", target, clockwise)
        return act

    def _mop_wait(self, obs: Observation, target: float) -> Optional[Action]:
        stop = next_stop(self.points, obs, lambda p: 0.0 if abs(p - target) <= EPS else None)
        return None if stop is None else WaitForRelease(stop[1])


# Star policy (closed) -----------------------------------------------------------


@dataclass(frozen=True)
class RaySummary:
    index: int
    length: float
    released_prefix: float


def ray_summaries(points: Dict[int, Point], ray_count: int, released_ids) -> List[RaySummary]:
    """Outermost-anchored released length per ray at one instant in time."""
    out = []
    for j in range(ray_count):
        depths = [d for (r, d) in points.values() if r == j and d > EPS]
        if not depths:
            out.append(RaySummary(j, 0.0, 0.0))
            continue
        length = max(depths)
        blocked = [
            d
            for rid, (r, d) in points.items()
            if r == j and d > EPS and rid not in released_ids
        ]
        prefix = length - max(blocked) if blocked else length
        out.append(RaySummary(j, length, max(prefix, 0.0)))
    return out


class Alg3Star(Policy):
    """Closed star policy.  A ray holding a quarter of the total length is
    served first, inward with waiting; otherwise wait one total-length unit,
    then burn a half-length budget on the rays whose outer segments pay best
    (a knapsack), and in both cases finish everything once all is released."""

    name = "alg3-star"
    needs_locations = True
    requires_kind = "star"
    requires_variant = CLOSED

    def __init__(self, mode: str = "exact", eps: float = 0.1):
        self.mode = mode
        self.eps = eps
        self.phase = "init"
        self.queue: List[int] = []
        self.traverse_leg = "out"
        self.chosen_rays: Tuple[int, ...] = ()
        self.summaries: List[RaySummary] = []

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.points = dict(ctx.locations or {})
        k = ctx.space.ray_count
        self.ray_len = [0.0] * k
        for (r, d) in self.points.values():
            if d > EPS:
                self.ray_len[r] = max(self.ray_len[r], d)
        self.total = sum(self.ray_len)
        if ctx.n == 0:
            self.phase = "done"
            return
        big = max(range(k), key=lambda j: (self.ray_len[j], -j))
        if self.ray_len[big] >= self.total / 4 - 1e-12:
            self.phase = "case1_out"
            self.big_ray = big
        else:
            self.phase = "case2_wait"

    def decide(self, obs: Observation) -> Action:
        space = self.ctx.space
        o = space.origin()
        if len(obs.served) == self.ctx.n:
            return finish(obs)

        if self.phase == "case1_out":
            tip = (self.big_ray, self.ray_len[self.big_ray])
            if self.ray_len[self.big_ray] > EPS and space.distance(obs.position, tip) > EPS:
                return MoveTo(tip)
            self.phase = "case1_in"
        if self.phase == "case1_in":
            act = self._ray_sweep_in(obs, self.big_ray)
            if act is not None:
                return act
            self.phase = "wait_all"
        if self.phase == "case2_wait":
            if obs.now < self.total - EPS:
                return WaitUntil(self.total)
            self.summaries = ray_summaries(self.points, space.ray_count, obs.released)
            items = [
                KnapsackItem(s.index, s.length, s.released_prefix)
                for s in self.summaries
                if s.length > EPS
            ]
            sel = knapsack_select(items, self.total / 2 + 1e-12, self.mode, self.eps)
            self.chosen_rays = sel.indices
            self.queue = list(sel.indices)
            self.phase = "case2_traverse"
        if self.phase == "case2_traverse":
            act = self._traverse_step(obs)
            if act is not None:
                return act
            self.phase = "wait_all"
        if self.phase == "wait_all":
            if space.distance(obs.position, o) > EPS:
                return MoveTo(o)
            if len(obs.released) < self.ctx.n:
                return WaitForRelease(None)
            self.phase = "mop"
        if self.phase == "mop":
            return self._mop_step(obs)
        raise SimulationError(f"alg3 in unexpected phase {self.phase}")

    def _ray_sweep_in(self, obs: Observation, ray: int) -> Optional[Action]:
        pos = obs.position
        depth = pos[1] if isinstance(pos, tuple) and pos[0] == ray else 0.0
        stop = next_stop(self.points, obs,
                         lambda p: depth - p[1] if p[0] == ray or p[1] <= EPS else None)
        if stop is not None:
            if stop[0] <= EPS:
                return WaitForRelease(stop[1])
            return MoveTo((ray, self.points[stop[1]][1]))
        if depth > EPS:
            return MoveTo((ray, 0.0))
        return None

    def _traverse_step(self, obs: Observation) -> Optional[Action]:
        space = self.ctx.space
        o = space.origin()
        while self.queue:
            ray = self.queue[0]
            tip = (ray, self.ray_len[ray])
            if self.traverse_leg == "out":
                if space.distance(obs.position, tip) > EPS:
                    return MoveTo(tip)
                self.traverse_leg = "home"
            if space.distance(obs.position, o) > EPS:
                return MoveTo(o)
            self.queue.pop(0)
            self.traverse_leg = "out"
        return None if space.distance(obs.position, o) <= EPS else MoveTo(o)

    def _mop_step(self, obs: Observation) -> Action:
        space = self.ctx.space
        o = space.origin()
        unserved = [rid for rid in self.points if rid not in obs.served]
        pos = obs.position
        if isinstance(pos, tuple) and pos[1] > EPS:
            deeper = [
                (d, rid)
                for rid, (r, d) in self.points.items()
                if rid in unserved and r == pos[0] and d > pos[1] + EPS
            ]
            if deeper:
                return MoveTo((pos[0], max(deeper)[0]))
            return MoveTo(o)
        for ray in range(space.ray_count):
            depths = [
                d for rid, (r, d) in self.points.items()
                if rid in unserved and r == ray and d > EPS
            ]
            if depths:
                return MoveTo((ray, max(depths)))
        # only origin requests remain; they are released and auto-served
        return WaitForRelease(None)


# Semi-line policies --------------------------------------------------------------


class Alg4Semiline(Policy):
    """Open semi-line policy: a guarded right-sweep, then a commitment to the
    midpoint, then one of two single-direction finishing passes."""

    name = "alg4-semiline"
    needs_locations = True
    requires_kind = "semiline"
    requires_variant = OPEN

    def __init__(self):
        self.phase = "A"
        self.x_frozen: Optional[float] = None

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.points = dict(ctx.locations or {})
        self.limit = max(self.points.values(), default=0.0)

    def _lowest_unreleased(self, obs: Observation) -> float:
        vals = [p for rid, p in self.points.items() if rid not in obs.released]
        return min(vals) if vals else math.inf

    def decide(self, obs: Observation) -> Action:
        if self.ctx.n == 0 or len(obs.served) == self.ctx.n:
            return finish(obs)
        limit = self.limit
        pos = obs.position
        x = self._lowest_unreleased(obs)

        if self.phase == "A":
            if x < limit / 4 - EPS and obs.now >= limit / 2 + x - EPS:
                self.phase = "B"
                self.x_frozen = x
            else:
                if math.isinf(x):
                    target = max(
                        p for rid, p in self.points.items() if rid not in obs.served
                    )
                    return MoveTo(target)
                if pos < x - EPS:
                    return MoveTo(x)
                rid = min(r for r, p in self.points.items()
                          if r not in obs.released and abs(p - x) <= EPS)
                if x < limit / 4 - EPS:
                    return WaitUntil(limit / 2 + x)
                return WaitForRelease(rid)

        if self.phase == "B":
            left_clear = x > limit / 4 + EPS
            if obs.now < limit - EPS:
                if left_clear:
                    self.phase = "back_left"
                else:
                    return MoveTo(limit / 2)
            else:
                if left_clear:
                    self.phase = "back_left"
                elif not any(
                    p >= 3 * limit / 4 - EPS
                    for rid, p in self.points.items()
                    if rid not in obs.released
                ):
                    self.phase = "go_right"
                else:
                    return WaitForRelease(None)

        if self.phase == "back_left":
            if pos > self.x_frozen + EPS:
                return MoveTo(self.x_frozen)
            self.phase = "sweep_right"
        if self.phase == "sweep_right":
            return self._sweep(obs, rightward=True)
        if self.phase == "go_right":
            if pos < limit - EPS:
                return MoveTo(limit)
            self.phase = "sweep_left"
        if self.phase == "sweep_left":
            return self._sweep(obs, rightward=False)
        raise SimulationError(f"alg4 in unexpected phase {self.phase}")

    def _sweep(self, obs: Observation, rightward: bool) -> Action:
        pos = obs.position
        sign = 1.0 if rightward else -1.0
        stop = next_stop(self.points, obs, lambda p: (p - pos) * sign)
        if stop is not None:
            if stop[0] <= EPS:
                return WaitForRelease(stop[1])
            return MoveTo(self.points[stop[1]])
        ahead = [
            p for rid, p in self.points.items()
            if rid not in obs.served and (p - pos) * sign > EPS
        ]
        if ahead:
            return MoveTo(max(ahead) if rightward else min(ahead))
        return finish(obs) if len(obs.served) == self.ctx.n else WaitForRelease(None)


class Alg5Semiline(Policy):
    """Closed semi-line policy: out to the farthest request, then one inward
    serve-with-wait sweep back to the origin.  Matches the offline optimum."""

    name = "alg5-semiline"
    needs_locations = True
    requires_kind = "semiline"
    requires_variant = CLOSED

    def __init__(self):
        self.reached_tip = False

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.points = dict(ctx.locations or {})
        self.limit = max(self.points.values(), default=0.0)

    def decide(self, obs: Observation) -> Action:
        pos = obs.position
        if self.ctx.n == 0 or len(obs.served) == self.ctx.n:
            return finish(obs)
        if not self.reached_tip:
            if pos < self.limit - EPS:
                return MoveTo(self.limit)
            self.reached_tip = True
        stop = next_stop(self.points, obs, lambda p: pos - p)
        if stop is not None:
            if stop[0] <= EPS:
                return WaitForRelease(stop[1])
            return MoveTo(self.points[stop[1]])
        lows = [p for rid, p in self.points.items() if rid not in obs.served and p <= pos + EPS]
        if lows:
            return MoveTo(min(lows))
        return WaitForRelease(None)


# Baselines ------------------------------------------------------------------------


class WaitAll(Policy):
    """Wait at the origin for all releases, then run the optimal zero-release
    tour/path over what remains.  Needs only the request count up front."""

    name = "wait-all"
    needs_locations = False

    def __init__(self):
        self.order: Optional[List[int]] = None
        self.cursor = 0

    def begin(self, ctx: PolicyContext) -> None:
        if ctx.n > MAX_REQUESTS:
            raise SimulationError(f"wait-all is capped at {MAX_REQUESTS} requests (exact tour)")
        self.ctx = ctx

    def decide(self, obs: Observation) -> Action:
        from .oracle import opt_makespan

        if len(obs.served) == self.ctx.n:
            return finish(obs)
        if len(obs.released) < self.ctx.n:
            return WaitForRelease(None)
        if self.order is None:
            remaining = sorted(set(obs.released) - set(obs.served))
            synthetic = Instance(
                space=self.ctx.space,
                variant=self.ctx.variant,
                requests=tuple(
                    Request(i + 1, obs.released[rid].point, 0.0)
                    for i, rid in enumerate(remaining)
                ),
            )
            result = opt_makespan(synthetic)
            self.order = [remaining[i - 1] for i in result.order]
        while self.cursor < len(self.order) and self.order[self.cursor] in obs.served:
            self.cursor += 1
        if self.cursor < len(self.order):
            return MoveTo(obs.released[self.order[self.cursor]].point)
        return finish(obs)


class Greedy(Policy):
    """Chases the nearest released unserved request; idles at the origin."""

    name = "greedy"
    needs_locations = False

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx

    def decide(self, obs: Observation) -> Action:
        space = self.ctx.space
        o = space.origin()
        candidates = [rid for rid in obs.released if rid not in obs.served]
        if not candidates:
            if len(obs.served) == self.ctx.n:
                return finish(obs)
            if space.distance(obs.position, o) > EPS:
                return MoveTo(o)
            return WaitForRelease(None)
        rid = min(candidates, key=lambda r: (space.distance(obs.position, obs.released[r].point), r))
        return MoveTo(obs.released[rid].point)


# Name registry ---------------------------------------------------------------------


def make_policy(name: str) -> Policy:
    """Build a policy from its CLI name, e.g. ``alg3-star:fptas=0.05``."""
    base, _, suffix = name.partition(":")
    if base == "alg1":
        return Alg1General()
    if base == "alg2-ring":
        return Alg2Ring()
    if base == "alg3-star":
        if not suffix or suffix == "exact":
            return Alg3Star("exact")
        if suffix.startswith("fptas"):
            _, _, val = suffix.partition("=")
            return Alg3Star("fptas", float(val) if val else 0.1)
        raise ValueError(f"unknown alg3-star mode {suffix!r}")
    if base == "alg4-semiline":
        return Alg4Semiline()
    if base == "alg5-semiline":
        return Alg5Semiline()
    if base == "wait-all":
        return WaitAll()
    if base == "greedy":
        return Greedy()
    raise ValueError(f"unknown policy {name!r}")


POLICY_NAMES = (
    "alg1",
    "alg2-ring",
    "alg3-star",
    "alg3-star:exact",
    "alg3-star:fptas=EPS",
    "alg4-semiline",
    "alg5-semiline",
    "wait-all",
    "greedy",
)
