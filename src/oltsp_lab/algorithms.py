"""Online policies that see every request location up front, plus two baselines.

All policies are single-use and driven by the engine: ``decide`` is called
after every event and answers "what to do from here".  Each of the paper's
policies is a short route of moves, waits and serve-with-wait sweeps, held as
a list of data steps that one runner (:class:`Route`) works through in turn.
Movement on a ring is decomposed into sub-half-circumference hops so that a
policy can travel a chosen direction even where the shortest path would go
the other way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    Action,
    MoveTo,
    Observation,
    Policy,
    PolicyContext,
    SimulationError,
    WaitForRelease,
    WaitUntil,
    check_pairing,
)
from .instance import CLOSED, LOCATIONS_KNOWN, MAX_REQUESTS, OPEN, Instance, Request
from .metric import EPS, Point, distance_table
from .oracle import lex_tree

EXACT_KNAPSACK_CAP = 20
# The most int16 indices one take converts to intp at once (315 KiB): a
# leading request's share of an n = 9 level that holds n! nodes.
TAKE_INDICES = math.factorial(8)
# alg1 keeps the frontier of every released set it walks up to this many
# requests.  Those walks are dominated by numpy's per-call cost, which the
# cache saves; the frontiers of all 2^n sets hold 37,072 nodes (290 KiB) at
# n = 7, but 297,600 (2.3 MiB) at n = 8.
FRONTIER_CACHE_N = 7


# Moves shared by the policies ---------------------------------------------------


def next_stop(points: Dict[int, Point], obs: Observation,
              offset: Callable[[Point], Optional[float]],
              move: Callable[[Point], Action]) -> Optional[Action]:
    """Next action of a serve-with-wait sweep, or None when no stop is left.
    The stop is the unreleased, unserved request with the smallest
    ``offset(point) >= -EPS``, ties to the lowest id; ``offset`` is the
    distance left to travel along the sweep to a point, or None for a point
    off the sweep.  At the stop the server waits for its release, otherwise it
    takes ``move(point)``."""
    best = None
    for rid, p in points.items():
        if rid in obs.served or rid in obs.released:
            continue
        off = offset(p)
        if off is not None and off >= -EPS and (best is None or (off, rid) < best):
            best = (off, rid)
    if best is None:
        return None
    return WaitForRelease(best[1]) if best[0] <= EPS else move(points[best[1]])


class Route(Policy):
    """A policy run as a list of steps.  ``steps`` holds plain tuples
    ``(method name, *args)``; ``decide`` calls the first one with the
    observation.  A None answer means the step is done: it is dropped and the
    next step runs in the same call.  A step may insert more steps right
    after itself.  Steps name their methods instead of holding bound methods or
    closures, so a policy holds no reference cycle and is freed as soon as
    the run drops it."""

    steps: List[tuple]

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.points = dict(ctx.locations or {})

    def decide(self, obs: Observation) -> Action:
        steps = self.steps
        while steps:
            step = steps[0]
            act = getattr(self, step[0])(obs, *step[1:])
            if act is not None:
                return act
            steps.pop(0)
        raise SimulationError(f"policy {self.name!r} ran out of steps with requests unserved")

    def go(self, obs: Observation, target: Point) -> Optional[Action]:
        if self.ctx.space.unchecked_distance(obs.position, target) > EPS:
            return MoveTo(target)
        return None

    def all_released(self, obs: Observation) -> Optional[Action]:
        return WaitForRelease(None) if len(obs.released) < self.ctx.n else None

    def follow(self, obs: Observation) -> Action:
        """Serve the stops of ``self.order`` in turn: go to the first unserved
        one and wait there while it is unreleased; once all are served, go home."""
        space = self.ctx.space
        for rid in self.order:
            if rid not in obs.served:
                target = self.points[rid]
                if space.unchecked_distance(obs.position, target) <= EPS:
                    return WaitForRelease(rid)
                return MoveTo(target)
        return MoveTo(space.origin())


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
    ok = ws <= capacity + 1e-12
    ok[0] = True  # the empty subset, also at a capacity in [-EPS, 0)
    feasible = np.flatnonzero(ok)
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


class _PairMinima:
    """The least half length below each node of the level whose nodes hold
    two leaves, computed for the nodes asked for: kept, it would take n!/2
    floats, about as much as all shallower levels together."""

    def __init__(self, half: np.ndarray):
        self.half = half

    def take(self, nodes: np.ndarray) -> np.ndarray:
        pairs = self.half.reshape(-1, 2).take(nodes, axis=0)
        return np.minimum(pairs[:, 0], pairs[:, 1])


class Alg1Workspace:
    """The arrays of one alg1 run over n requests, reused from run to run so
    that a run allocates (and the kernel maps in) none of its n!-long arrays
    afresh.

    ``prefix[k]`` holds level k of :func:`oracle.lex_tree`, one distance per
    node, shaped like its stops; ``grids[k]`` is the same memory shaped like
    its legs, one row of children per parent.  ``ell`` takes a closed run's
    lengths (an open run's are ``prefix[-1]``), ``half`` the half lengths and
    then the commit's objective.  ``minhalf[k].take(nodes)`` is the least
    half length below each of ``nodes`` on level k: kept per node down to level
    n - 4, taken from pairs of leaves on level n - 3, and ``half`` itself on
    the two deepest levels, which hold one leaf per node.  Per level,
    ``reached[k]`` is ``prefix[k]`` flat, ``leaves[k]`` is ``half`` as one row
    of leaves per node, ``stops[k]`` is an int8 copy of the stops in node
    order (the tree lays them out by leading request, so a flat view would
    be a copy too) and ``children[k]`` is ``arange(n - k)``, the offsets of a
    node's children on level k.  ``unreleased[R]`` marks the requests outside
    the released set R, and ``frontiers`` keeps the frontiers walked so far.
    """

    def __init__(self, n: int):
        self.levels = levels = lex_tree(n)
        size = math.factorial(n)
        self.ell, self.half = np.empty(size), np.empty(size)
        self.prefix = [np.empty(stops.shape) for stops, _ in levels]
        self.grids = [None] + [p.reshape(legs.shape)
                               for p, (_, legs) in zip(self.prefix[1:], levels[1:])]
        self.minhalf = ([np.empty(stops.size) for stops, _ in levels[:-3]]
                        + [_PairMinima(self.half), self.half, self.half][-n:])
        # The deepest level's stops are never read: a node there has every
        # other stop above it, so the walk reaches it only on the frontier.
        self.stops = [np.ascontiguousarray(stops, np.int8).ravel() for stops, _ in levels[:-1]]
        self.reached = [p.ravel() for p in self.prefix]
        self.leaves = [self.half.reshape(stops.size, -1) for stops, _ in levels]
        self.children = [np.arange(n - k) for k in range(n)]
        self.unreleased = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) == 0
        self.frontiers: Dict[int, list] = {}

    def frontier(self, released_bits: int, released: int) -> list:
        """The frontier of a released set R, per level the nodes whose stops
        above are all in R and whose own is not.  It depends only on n and R,
        so up to ``FRONTIER_CACHE_N`` requests it is kept for the next run."""
        frontier = self.frontiers.get(released_bits)
        if frontier is not None:
            return frontier
        # take and compress, and children laid out child by child: numpy's
        # boolean indexing and a broadcast over a short last axis are several
        # times slower on the deep levels.
        unreleased = self.unreleased[released_bits]
        frontier = []
        nodes, out = self.children[0], unreleased  # level 0: node a stops at a
        for k in range(released):
            frontier.append(nodes.compress(out))
            nodes = (nodes.compress(~out) * len(self.children[k + 1])
                     + self.children[k + 1][:, None]).ravel()
            if k + 1 < released:
                out = unreleased.take(self.stops[k + 1].take(nodes))
        frontier.append(nodes)  # all ``released`` stops above, so not its own
        if len(self.levels) <= FRONTIER_CACHE_N:
            self.frontiers[released_bits] = frontier
        return frontier


# One spare workspace per n: a run takes it in ``begin`` and puts it back in
# ``_commit``, so two runs in flight never share one.
ALG1_SPARES: Dict[int, Alg1Workspace] = {}


def _take(table: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
    """``table.take(indices, out=out)``, a block of leading requests (rows of
    ``indices``) at a time, at most ``TAKE_INDICES`` indices or one row per
    block: take copies int16 indices to intp before it writes.  The indices
    are in range; a mode other than "raise" lets take write in place."""
    rows = max(1, TAKE_INDICES // indices[0].size)
    for a in range(0, len(indices), rows):
        table.take(indices[a:a + rows], out=out[a:a + rows], mode="clip")


class Alg1General(Route):
    """Wait at the origin until the start threshold, then commit to the order
    minimizing (1 - beta) * length and follow it, waiting at unreleased stops.

    The start threshold is the first time t at which some order has both
    t >= length/2 and a fully released prefix covering half its length.
    Legs are never negative, so an order's distances grow along it, and the
    prefix condition holds for the released set R exactly when the distance
    into the order's first unreleased stop is at least its half length (or
    every stop is released).  The orders are the leaves of
    :func:`oracle.lex_tree`, whose level k holds each distinct first k + 1
    stops once.  A node of the frontier of R (every stop above it released,
    its own not) is the first unreleased stop of every order below it, so the
    threshold is the least, over the frontier, of the least half length below
    the node where that is at most the distance into it (inf if none; the
    least half length overall once all is released).  A walk from the root
    finds the frontier once per released set; the policy waits for a release
    while the threshold is inf, and otherwise until it.  No release term is
    needed: a set is fully released only once its latest release is due, at
    most ``now + EPS``, so that release can never hold the start back.

    A distance shared by (n-k-1)! orders is summed once per tree node, by the
    same float additions as an order's own fold.  Every per-node and
    per-order array lives in an :class:`Alg1Workspace`: ``begin`` takes the
    spare one for n from ``ALG1_SPARES`` (or builds one) and writes every
    result into it; ``_commit`` puts it back once it has read the chosen
    order.  A run that never commits keeps its workspace, which is freed with
    the policy.
    """

    name = "alg1"
    needs_locations = True
    max_requests = 9

    def __init__(self):
        self.order: List[int] = []
        self.chosen_t: Optional[float] = None
        self.steps = [("_waiting_step",), ("follow",)]

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        n = ctx.n
        if n == 0:
            return
        pts = [self.points[i + 1] for i in range(n)]
        d0, dret, dmat = (np.array(t) for t in distance_table(ctx.space, pts))
        ws = self.ws = ALG1_SPARES.pop(n, None) or Alg1Workspace(n)
        levels, prefix = ws.levels, ws.prefix

        # Per node of the order tree: the distance on reaching its stop.  The
        # distances between stops are summed in sequence and the one from the
        # origin is added last; this order of additions fixes the floats.
        # Each level first holds the legs between stops summed so far, which
        # the next level adds to its own legs; once every level is summed,
        # each gets the leg from the origin.
        d0 = d0.reshape(n, 1, 1)  # level 0: node a stops at a
        np.copyto(prefix[0], d0)
        between = 0.0
        for (_, legs), grid, p in zip(levels[1:], ws.grids[1:], prefix[1:]):
            _take(dmat, legs, grid)
            grid += between
            between = p
        for p in prefix[1:]:
            p += d0
        # Per order (a leaf of the tree): its length.
        ell = prefix[-1].ravel()
        if ctx.variant == CLOSED:
            _take(dret, levels[-1][0], ws.ell.reshape(prefix[-1].shape))
            ell = np.add(ws.ell, ell, out=ws.ell)
        self.ell = ell
        np.divide(ell, 2, out=ws.half)
        # Per node down to level n - 4: the least half length below it, from
        # its children's (level n - 3 has none kept, so from its six leaves).
        minhalf = ws.minhalf
        for k in reversed(range(n - 3)):
            kids = (minhalf[k + 1] if k < n - 4 else ws.half).reshape(minhalf[k].size, -1)
            least = np.minimum(kids[:, 0], kids[:, 1], out=minhalf[k])
            for j in range(2, kids.shape[1]):
                np.minimum(least, kids[:, j], out=least)
        # A frontier node on level k has k released stops above it.  An
        # order's distances grow along it, so once a node's least half length
        # is at most the distance into it, some node on every deeper level has
        # that too; above the first such level no frontier node can start.
        # The deep levels keep no least half length: a leaf of theirs at most
        # the distance into its node is the same test.
        reached = ws.reached
        self.first_level = next((k for k in range(n) if (
            minhalf[k] <= reached[k] if k < n - 3 else ws.leaves[k] <= reached[k][:, None]
        ).any()), n)
        self.released_bits = -1

    def _waiting_step(self, obs: Observation) -> Optional[Action]:
        released_bits = 0
        for rid in obs.released:
            released_bits |= 1 << (rid - 1)
        if released_bits != self.released_bits:  # the released set only grows
            self.released_bits = released_bits
            self.threshold, self.frontier = self._walk(released_bits, len(obs.released))
        if self.threshold == math.inf:
            return WaitForRelease(None)
        if self.threshold > obs.now + EPS:
            return WaitUntil(self.threshold)
        self._commit(obs)
        return None

    def _walk(self, released_bits: int, released: int) -> Tuple[float, list]:
        """The start threshold for a released set and its frontier."""
        ws, n = self.ws, self.ctx.n
        if released == n:
            return float(ws.minhalf[0].take(ws.children[0]).min()), []
        if released < self.first_level:
            return math.inf, []
        frontier = ws.frontier(released_bits, released)
        best = math.inf
        for k in range(self.first_level, released + 1):
            least = ws.minhalf[k].take(frontier[k])
            least = least.compress(least <= ws.reached[k].take(frontier[k]))
            if least.size:
                best = min(best, least.min())
        return float(best), frontier

    def _commit(self, obs: Observation) -> None:
        n, ws, ell = self.ctx.n, self.ws, self.ell
        # The distance into each order's first unreleased stop, or its length
        # when all are released.  The frontier nodes' leaf blocks cover every
        # order once.  It goes where the half lengths were: the walk is done
        # with them.
        num = ws.half
        if self.frontier:
            for leaves, reached, edge in zip(ws.leaves, ws.reached, self.frontier):
                leaves[edge] = reached.take(edge)[:, None]
        else:
            np.copyto(num, ell)
        # num <= ell, so num / ell is 0 / 0 only for an order of length 0;
        # fmin passes over that nan and takes 1/2, as for any ratio >= 1/2.
        # Then the objective (1 - beta) * ell, all in place.
        with np.errstate(invalid="ignore"):
            np.divide(num, ell, out=num)
        np.fmin(num, 0.5, out=num)
        np.subtract(1.0, num, out=num)
        objective = np.multiply(num, ell, out=num)
        i1 = int(np.argmin(objective))  # ties: lexicographically first order
        self.order = [int(stops.flat[i1 // (len(num) // stops.size)]) + 1
                      for stops, _ in ws.levels]
        self.chosen_t = obs.now
        self.chosen_objective = float(objective[i1])
        del self.ws, self.ell, self.frontier
        ALG1_SPARES[n] = ws


# Ring policy (closed) -----------------------------------------------------------


class Alg2Ring(Route):
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
        self.window: Optional[Tuple[bool, float]] = None
        self.branch: Optional[int] = None

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.c = ctx.space.circumference
        self.points = {rid: ctx.space.norm(p) for rid, p in (ctx.locations or {}).items()}
        n = ctx.n
        pos_sorted = [self.points[i + 1] for i in range(n)]
        if ctx.space.max_gap_with_origin(pos_sorted) > self.c / 2 + EPS:
            self.delegate = Alg1General()
            check_pairing(self.delegate, ctx.space.kind, ctx.variant, LOCATIONS_KNOWN, n)
            self.delegate.begin(ctx)
            self.steps = [("_delegate_step",)]
            return
        self.branch = 2
        self.steps = [("_window_step",)]
        for i in range(n - 1):
            if pos_sorted[i + 1] - pos_sorted[i] >= self.c / 3 - EPS:
                self.branch = 1
                self._plan_branch1(pos_sorted[i], pos_sorted[i + 1])
                break

    def _plan_branch1(self, p_lo: float, p_hi: float) -> None:
        # Serve the far side of the empty arc first, looping through it, then
        # out-and-back over the near side.  Directions mirror when the lower
        # endpoint is the farther one.
        dist = self.ctx.space.unchecked_distance
        if dist(p_hi, 0.0) >= dist(p_lo, 0.0):
            far, near, cw = p_hi, p_lo, True
        else:
            far, near, cw = p_lo, p_hi, False
        self.steps = [("_arc_step", far, cw), ("_sweep_step", cw),
                      ("_arc_step", near, cw), ("_sweep_step", not cw)]

    def _delegate_step(self, obs: Observation) -> Action:
        return self.delegate.decide(obs)

    # movement steps --------------------------------------------------------

    def _arc(self, cur: float, target: float, d: float) -> float:
        """Arc from ``cur`` to ``target`` in direction ``d``; a full loop is 0."""
        arc = ((target - cur) * d) % self.c
        return 0.0 if arc >= self.c - EPS else arc

    def _arc_step(self, obs: Observation, target: float, clockwise: bool) -> Optional[Action]:
        """Travel to ``target`` in the given direction."""
        cur = self.ctx.space.norm(obs.position)
        d = 1.0 if clockwise else -1.0
        arc = self._arc(cur, target, d)
        if arc <= EPS:
            return None
        hop = min(arc, self.c / 4)
        return MoveTo(self.ctx.space.norm(cur + d * hop))

    def _sweep_step(self, obs: Observation, clockwise: bool) -> Optional[Action]:
        """Serve-with-wait sweep home to the origin: stop at unreleased requests."""
        cur = self.ctx.space.norm(obs.position)
        d = 1.0 if clockwise else -1.0
        remaining = self._arc(cur, 0.0, d)

        def offset(p: float) -> Optional[float]:
            off = self._arc(cur, p, d)
            return off if off <= remaining + EPS else None

        act = next_stop(self.points, obs, offset,
                        lambda p: self._arc_step(obs, p, clockwise))
        if act is not None or remaining <= EPS:
            return act
        return self._arc_step(obs, 0.0, clockwise)

    def _mop_step(self, obs: Observation, clockwise: bool) -> Optional[Action]:
        """Travel to the farthest unserved request, ties to the lowest id; the
        target is fixed when the step starts."""
        dist = self.ctx.space.unchecked_distance
        rid = max((r for r in self.points if r not in obs.served),
                  key=lambda r: (dist(self.points[r], 0.0), -r))
        self.steps[0] = ("_arc_step", self.points[rid], clockwise)
        return self._arc_step(obs, self.points[rid], clockwise)

    # branch 2 --------------------------------------------------------------

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

    def _window_step(self, obs: Observation) -> Optional[Action]:
        """Wait for a released third of the ring, then loop through it and
        mop up on the way back."""
        w = self._find_window(obs)
        if w is None:
            return WaitForRelease(None)
        self.window = w
        clockwise, target = w
        self.steps[1:1] = [("_arc_step", target, clockwise), ("_sweep_step", clockwise),
                           ("_mop_step", clockwise), ("_sweep_step", not clockwise)]
        return None


# Star policy (closed) -----------------------------------------------------------


@dataclass(frozen=True)
class RaySummary:
    index: int
    length: float
    released_prefix: float


def ray_summaries(points: Dict[int, Point], ray_count: int, released_ids) -> List[RaySummary]:
    """Per ray: its length (the deepest request) and its outermost-anchored
    released length at one instant in time."""
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


class Alg3Star(Route):
    """Closed star policy.  A ray holding a quarter of the total length is
    served first, inward with waiting; otherwise wait one total-length unit,
    then burn a half-length budget on the rays whose outer segments pay best
    (a knapsack), and in both cases finish everything once all is released."""

    name = "alg3-star"
    needs_locations = True
    requires_kind = "star"
    requires_variant = CLOSED

    def __init__(self, mode: str = "exact", eps: float = 0.1):
        if mode == "fptas" and not 0 < eps <= 1:
            raise ValueError(f"alg3-star fptas epsilon must be in (0, 1], got {eps}")
        self.mode = mode
        self.eps = eps
        self.chosen_rays: Tuple[int, ...] = ()
        self.summaries: List[RaySummary] = []

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        k = ctx.space.ray_count
        self.ray_len = [s.length for s in ray_summaries(self.points, k, ())]
        self.total = sum(self.ray_len)
        big = max(range(k), key=lambda j: (self.ray_len[j], -j))
        if self.ray_len[big] >= self.total / 4 - 1e-12:
            self.steps = [("go", (big, self.ray_len[big])), ("_sweep_in", big)]
        else:
            self.steps = [("_choose_rays",)]
        self.steps += [("go", ctx.space.origin()), ("all_released",), ("_mop_step",)]

    def _sweep_in(self, obs: Observation, ray: int) -> Optional[Action]:
        """Serve-with-wait sweep in along ``ray``; the walk to the hub after
        the last stop is the next step's."""
        pos = obs.position
        depth = pos[1] if isinstance(pos, tuple) and pos[0] == ray else 0.0
        return next_stop(self.points, obs,
                         lambda p: depth - p[1] if p[0] == ray or p[1] <= EPS else None,
                         lambda p: MoveTo((ray, p[1])))

    def _round_trips(self, tips) -> List[tuple]:
        """Steps out to each ``(ray, depth)`` tip in turn and back to the hub."""
        o = self.ctx.space.origin()
        return [step for tip in tips for step in (("go", tip), ("go", o))]

    def _choose_rays(self, obs: Observation) -> Optional[Action]:
        """At time ``total``, pick the rays to traverse and add a round trip
        to each tip."""
        if obs.now < self.total - EPS:
            return WaitUntil(self.total)
        self.summaries = ray_summaries(self.points, self.ctx.space.ray_count, obs.released)
        items = [
            KnapsackItem(s.index, s.length, s.released_prefix)
            for s in self.summaries
            if s.length > EPS
        ]
        sel = knapsack_select(items, self.total / 2 + 1e-12, self.mode, self.eps)
        self.chosen_rays = sel.indices
        self.steps[1:1] = self._round_trips((ray, self.ray_len[ray]) for ray in sel.indices)
        return None

    def _mop_step(self, obs: Observation) -> None:
        """Once all is released, add a round trip to the deepest unserved
        request of each ray that has one, lowest ray first; the way out
        serves the rest of the ray."""
        deepest: Dict[int, float] = {}
        for rid, (r, d) in self.points.items():
            if rid not in obs.served and d > EPS:
                deepest[r] = max(d, deepest.get(r, d))
        self.steps[1:1] = self._round_trips((r, deepest[r]) for r in sorted(deepest))


# Semi-line policies --------------------------------------------------------------


class _SemilineRoute(Route):
    """Shared set-up of the semi-line policies: the points and the farthest
    one, ``limit``."""

    needs_locations = True
    requires_kind = "semiline"

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        self.limit = max(self.points.values(), default=0.0)

    def _out(self, obs: Observation) -> Optional[Action]:
        """Travel out to the farthest request."""
        return MoveTo(self.limit) if obs.position < self.limit - EPS else None

    def _sweep(self, obs: Observation, rightward: bool) -> Action:
        """Serve-with-wait sweep in one direction.  With no stop left, go on
        to the farthest unserved request ahead; with nothing ahead, a closed
        run goes home and an open run waits."""
        pos = obs.position
        sign = 1.0 if rightward else -1.0
        act = next_stop(self.points, obs, lambda p: (p - pos) * sign, MoveTo)
        if act is not None:
            return act
        ahead = [
            p for rid, p in self.points.items()
            if rid not in obs.served and (p - pos) * sign > EPS
        ]
        if ahead:
            return MoveTo(max(ahead) if rightward else min(ahead))
        if self.ctx.variant == CLOSED:
            return MoveTo(self.ctx.space.origin())
        return WaitForRelease(None)


class Alg4Semiline(_SemilineRoute):
    """Open semi-line policy: a guarded right-sweep, then a commitment to the
    midpoint, then one of two single-direction finishing passes."""

    name = "alg4-semiline"
    requires_variant = OPEN

    def __init__(self):
        self.x_frozen: Optional[float] = None
        self.steps = [("_guarded_sweep",), ("_commit",)]

    def _lowest_unreleased(self, obs: Observation) -> float:
        vals = [p for rid, p in self.points.items() if rid not in obs.released]
        return min(vals) if vals else math.inf

    def _guarded_sweep(self, obs: Observation) -> Optional[Action]:
        """Sweep right, waiting at the lowest unreleased request, until it is
        left of ``limit / 4`` at time ``limit / 2 + x``; then freeze ``x``."""
        limit = self.limit
        x = self._lowest_unreleased(obs)
        if x < limit / 4 - EPS and obs.now >= limit / 2 + x - EPS:
            self.x_frozen = x
            return None
        if math.isinf(x):
            target = max(
                p for rid, p in self.points.items() if rid not in obs.served
            )
            return MoveTo(target)
        if obs.position < x - EPS:
            return MoveTo(x)
        rid = min(r for r, p in self.points.items()
                  if r not in obs.released and abs(p - x) <= EPS)
        if x < limit / 4 - EPS:
            return WaitUntil(limit / 2 + x)
        return WaitForRelease(rid)

    def _commit(self, obs: Observation) -> Optional[Action]:
        """Hold the midpoint, then finish leftward-first once the left quarter
        is clear, or rightward-first once the right quarter is released."""
        limit = self.limit
        left_clear = self._lowest_unreleased(obs) > limit / 4 + EPS
        if left_clear:
            self.steps[1:1] = [("_back_left",), ("_sweep", True)]
        elif obs.now < limit - EPS:
            return MoveTo(limit / 2)
        elif not any(
            p >= 3 * limit / 4 - EPS
            for rid, p in self.points.items()
            if rid not in obs.released
        ):
            self.steps[1:1] = [("_out",), ("_sweep", False)]
        else:
            return WaitForRelease(None)
        return None

    def _back_left(self, obs: Observation) -> Optional[Action]:
        if obs.position > self.x_frozen + EPS:
            return MoveTo(self.x_frozen)
        return None


class Alg5Semiline(_SemilineRoute):
    """Closed semi-line policy: out to the farthest request, then one inward
    serve-with-wait sweep back to the origin.  Matches the offline optimum."""

    name = "alg5-semiline"
    requires_variant = CLOSED

    def __init__(self):
        self.steps = [("_out",), ("_sweep", False)]


# Baselines ------------------------------------------------------------------------


class WaitAll(Route):
    """Wait at the origin for all releases, then run the optimal zero-release
    tour/path over what remains.  Needs only the request count up front."""

    name = "wait-all"
    needs_locations = False
    max_requests = MAX_REQUESTS  # its tour is the oracle's

    def __init__(self):
        self.order: Optional[List[int]] = None
        self.steps = [("all_released",), ("_plan",), ("follow",)]

    def _plan(self, obs: Observation) -> None:
        from .oracle import opt_makespan

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
        self.points = {rid: req.point for rid, req in obs.released.items()}


class Greedy(Policy):
    """Chases the nearest released unserved request; idles at the origin."""

    name = "greedy"
    needs_locations = False

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx

    def decide(self, obs: Observation) -> Action:
        space = self.ctx.space
        o, dist = space.origin(), space.unchecked_distance
        candidates = [rid for rid in obs.released if rid not in obs.served]
        if not candidates:
            if dist(obs.position, o) > EPS:
                return MoveTo(o)
            return WaitForRelease(None)
        rid = min(candidates, key=lambda r: (dist(obs.position, obs.released[r].point), r))
        return MoveTo(obs.released[rid].point)


# Name registry ---------------------------------------------------------------------


def make_policy(name: str) -> Policy:
    """Build a policy from its CLI name.  Only ``alg3-star`` takes a suffix,
    its knapsack mode, e.g. ``alg3-star:fptas=0.05``."""
    base, colon, suffix = name.partition(":")
    if base == "alg3-star":
        mode, _, val = suffix.partition("=")
        if suffix in ("", "exact"):
            return Alg3Star("exact")
        if mode == "fptas":
            return Alg3Star("fptas", float(val) if val else 0.1)
        raise ValueError(f"unknown alg3-star mode {suffix!r}")
    build = {"alg1": Alg1General, "alg2-ring": Alg2Ring, "alg4-semiline": Alg4Semiline,
             "alg5-semiline": Alg5Semiline, "wait-all": WaitAll, "greedy": Greedy}.get(base)
    if build is None:
        raise ValueError(f"unknown policy {name!r}")
    if colon:
        raise ValueError(f"policy {base!r} takes no suffix, got {name!r}")
    return build()
