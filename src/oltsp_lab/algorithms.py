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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    Action,
    MoveTo,
    Observation,
    Policy,
    PolicyContext,
    SimulationError,
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
# Up to this many requests alg1 walks the whole frontier of each released set
# and keeps it for later runs, and its commit scores every order; from one
# more on both prune.  With so few orders numpy's per-call cost, not the array
# work, sets the cost of a walk or a commit.  The frontiers of all 2^n sets
# hold 37,072 nodes (290 KiB) at n = 7, but 297,600 (2.3 MiB) at n = 8.
FRONTIER_CACHE_N = 7
# The least length whose half is exact whatever its last bit: below it,
# halving a length can round.  alg1 keeps every node whose least half length
# is at most its start threshold or this floor, whichever is larger (see
# ``Alg1General``).
TINY_HALF = 2.0 ** -1021
# 0.5 as an array: numpy converts a Python float operand on every call, which
# is a third of what alg1's walk pays per halving at n <= FRONTIER_CACHE_N.
HALF = np.array(0.5)


# Moves shared by the policies ---------------------------------------------------


def next_stop(points: Dict[int, Point], obs: Observation,
              offset: Callable[[Point], Optional[float]],
              move: Callable[[Point], Action]) -> Optional[Action]:
    """Next action of a serve-with-wait sweep, or None when no stop is left.
    The stop is the unreleased request (a served one was released) with the smallest
    ``offset(point) >= -EPS``, ties to the lowest id; ``offset`` is the
    distance left to travel along the sweep to a point, or None for a point
    off the sweep.  At the stop the server answers ``WaitUntil()``, which the
    stop's release, like any other event, cuts short; otherwise it takes
    ``move(point)``."""
    best = None
    for rid, p in points.items():
        if rid in obs.released:
            continue
        off = offset(p)
        if off is not None and off >= -EPS and (best is None or (off, rid) < best):
            best = (off, rid)
    if best is None:
        return None
    return WaitUntil() if best[0] <= EPS else move(points[best[1]])


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
        return WaitUntil() if len(obs.released) < self.ctx.n else None

    def follow(self, obs: Observation) -> Action:
        """Serve the stops of ``self.order`` in turn: go to the first unserved
        one and wait there while it is unreleased; once all are served, go home."""
        space = self.ctx.space
        for rid in self.order:
            if rid not in obs.served:
                target = self.points[rid]
                if space.unchecked_distance(obs.position, target) <= EPS:
                    return WaitUntil()
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
    """The least length below each node of the level whose nodes hold two
    leaves, computed for the nodes asked for: kept, it would take n!/2
    floats, about as much as all shallower levels together."""

    def __init__(self, ell: np.ndarray):
        self.ell = ell

    def take(self, nodes: np.ndarray) -> np.ndarray:
        pairs = self.ell.reshape(-1, 2).take(nodes, axis=0)
        return np.minimum(pairs[:, 0], pairs[:, 1])


class Alg1Workspace:
    """The arrays of one alg1 run over n requests, reused from run to run so
    that a run allocates (and the kernel maps in) none of its n!-long arrays
    afresh.

    ``prefix[k]`` holds level k of :func:`oracle.lex_tree`, one distance per
    node, shaped like its stops; ``grids[k]`` is the same memory shaped like
    its legs, one row of children per parent, and ``columns[k]`` the same
    again with one row per child offset, for adding the parents' distances a
    child column at a time.  ``ell`` holds the length of every order, the
    one n!-long array besides the tree.  ``minell[k].take(nodes)`` is the
    least length below each of ``nodes`` on level k: kept per node down to
    level n - 4, taken from pairs of leaves on level n - 3, and ``ell``
    itself on the two deepest levels, which hold one leaf per node.  Per
    level, ``reached[k]`` is ``prefix[k]`` flat, ``stops[k]`` is an int8 copy
    of the stops in node order (the tree lays them out by leading request,
    so a flat view would be a copy too) and ``children[k]`` is
    ``arange(n - k)``, the offsets of a node's children on level k.
    ``unreleased[R]`` marks the requests outside the released set R.  Up to
    ``FRONTIER_CACHE_N`` requests, ``frontiers`` keeps the whole frontier of
    every released set walked so far: it depends only on n and the set.
    """

    def __init__(self, n: int):
        self.levels = levels = lex_tree(n)
        self.ell = np.empty(math.factorial(n))
        self.prefix = [np.empty(stops.shape) for stops, _ in levels]
        self.grids = [None] + [p.reshape(legs.shape)
                               for p, (_, legs) in zip(self.prefix[1:], levels[1:])]
        self.columns = [None] + [p.reshape(-1, n - k).T for k, p in enumerate(self.prefix[1:], 1)]
        self.minell = ([np.empty(stops.size) for stops, _ in levels[:-3]]
                       + [_PairMinima(self.ell), self.ell, self.ell][-n:])
        # The deepest level's stops are never read: a node there has every
        # other stop above it, so the walk reaches it only on the frontier.
        self.stops = [np.ascontiguousarray(stops, np.int8).ravel() for stops, _ in levels[:-1]]
        self.reached = [p.ravel() for p in self.prefix]
        self.children = [np.arange(n - k) for k in range(n)]
        self.unreleased = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) == 0
        self.frontiers: Dict[int, list] = {}


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
    finds the frontier once per released set; the policy waits until the
    threshold, so an infinite one waits for the next release.  No release term is
    needed: a set is fully released only once its latest release is due, at
    most ``now + EPS``, so that release can never hold the start back.

    Each node keeps the least length below it, not the least half length.
    Halving is monotone, so half the least length is the least of the half
    lengths, ``fl(min(ell) * 0.5) = min(fl(ell * 0.5))``, and ``x * 0.5``
    rounds as ``x / 2`` does: the walk's threshold, its test of a node
    against the distance into it and its pruning test halve the least
    lengths they take, and so compare the floats of the half lengths.

    The threshold never rises: the released set only grows, and an order
    that qualifies keeps qualifying, since its first unreleased stop can only
    move later and its distances never fall (``fl(a + b) >= a``).  So each
    walk starts from the last threshold, ``best``.  The least half length
    below a node can only grow down the tree, so a node whose stop is
    released and whose least half length is above ``best`` (or above
    ``TINY_HALF``, whichever is larger, see below) holds no frontier node
    that can lower the threshold, and from ``FRONTIER_CACHE_N + 1`` requests
    on the walk does not expand it.  It prunes on ``>`` only: a node whose
    least half length equals ``best`` can hold the order the commit must
    choose.

    The commit chooses the lexicographically first order with the least
    objective (1 - beta) * length, beta = min(distance into its first
    unreleased stop / length, 1/2), the distance being inf for an order with
    every stop released: its objective is then (1 - 1/2) * length, its half
    length bit for bit (``0.5 * 0`` is 0, and ``inf / 0`` is inf with no
    warning).  Every objective is at least its half length.  From
    ``TINY_HALF`` on a length's half is exact, so the threshold's own order
    scores the threshold T; below it halving can round, and the optimum can
    exceed T, but an order shorter than ``TINY_HALF`` scores at most its
    length.  So the optimum is at most T or ``TINY_HALF``, whichever is
    larger, and only nodes whose least half length is at most that can hold
    it: the one floor that the walk's pruning and the commit share.  Up to
    ``FRONTIER_CACHE_N`` requests the commit scores every order.  From one
    more on it makes one pass down the levels.  Below a frontier node every
    order shares the distance into it, and the objective does not fall as
    the length grows, in floats too; so the objective at a node's least
    length, its bound, is the least objective below it, and some order below
    scores it exactly.  On each level the pass keeps the first node with the
    least bound among the children of the last level's node and the frontier
    nodes there: another node with the same or a larger bound holds no order
    that both scores the least and comes first, since the kept node holds
    one before it or one scoring less.  The pass ends on the chosen leaf.
    With all released it starts above the root, with the distance inf.

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
        d0, dret, dmat = distance_table(ctx.space, pts)
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
        for (_, legs), grid, columns, p in zip(levels[1:], ws.grids[1:], ws.columns[1:],
                                               ws.reached[1:]):
            _take(dmat, legs, grid)
            # One child column at a time: numpy would otherwise run its
            # inner loop over a node's few children, twice as slow on the
            # deep levels.
            np.add(columns, between, out=columns, order="C")
            between = p
        for p in prefix[1:]:
            p += d0
        # Per order (a leaf of the tree): its length.
        ell = ws.ell.reshape(prefix[-1].shape)
        if ctx.variant == CLOSED:
            _take(dret, levels[-1][0], ell)
            ell += prefix[-1]
        else:
            np.copyto(ell, prefix[-1])
        # Per node down to level n - 4: the least length below it, from its
        # children's (level n - 3 has none kept, so from its six leaves).
        minell = ws.minell
        for k in reversed(range(n - 3)):
            kids = (minell[k + 1] if k < n - 4 else ws.ell).reshape(minell[k].size, -1)
            least = np.minimum(kids[:, 0], kids[:, 1], out=minell[k])
            for j in range(2, kids.shape[1]):
                np.minimum(least, kids[:, j], out=least)
        self.released_bits, self.threshold = -1, math.inf

    def _waiting_step(self, obs: Observation) -> Optional[Action]:
        released_bits = 0
        for rid in obs.released:
            released_bits |= 1 << (rid - 1)
        if released_bits != self.released_bits:  # the released set only grows
            self.released_bits = released_bits
            self.threshold, self.frontier = self._walk(
                released_bits, len(obs.released), self.threshold)
        if self.threshold > obs.now + EPS:
            return WaitUntil(self.threshold)
        self._commit(obs)
        return None

    def _walk(self, released_bits: int, released: int,
              best: float = math.inf) -> Tuple[float, list]:
        """The start threshold of a released set R, and per level the nodes
        of its frontier that the walk reaches.  ``best`` is known to be at
        least the threshold: the threshold of a set that R contains, or inf.
        The frontier nodes are in node order."""
        ws, n = self.ws, self.ctx.n
        if released == n:
            return float(ws.minell[0].take(ws.children[0]).min()) * 0.5, []
        cached = ws.frontiers.get(released_bits)
        frontier = cached or []
        unreleased = ws.unreleased[released_bits]
        nodes, out = ws.children[0], unreleased  # level 0: node a stops at a
        for k in range(released + 1):
            if cached is None:
                frontier.append(nodes.compress(out) if k < released else nodes)
            edge = frontier[k]
            least = ws.minell[k].take(edge)
            least *= HALF
            best = float(least.min(where=least <= ws.reached[k].take(edge), initial=best))
            if cached is not None or k == released:
                continue
            # Expand the released nodes; when no frontier is kept, only those
            # that can still hold the answer.  The children are laid out node
            # by node, so the nodes stay in order.
            nodes = nodes.compress(~out)
            if n > FRONTIER_CACHE_N:
                nodes = nodes.compress(self._can_win(k, nodes, best))
            kids = ws.children[k + 1]
            nodes = (nodes[:, None] * len(kids) + kids).ravel()
            if k + 1 < released:
                out = unreleased.take(ws.stops[k + 1].take(nodes))
        if n <= FRONTIER_CACHE_N:
            ws.frontiers[released_bits] = frontier
        return best, frontier

    def _can_win(self, k: int, nodes: np.ndarray, best: float) -> np.ndarray:
        """A mask over ``nodes`` on level k: those whose least half length is
        at most ``best`` or ``TINY_HALF``, whichever is larger.  With ``best``
        at least the threshold, no other node holds an order that lowers the
        threshold or scores the optimum."""
        return self.ws.minell[k].take(nodes) * 0.5 <= max(best, TINY_HALF)

    def _commit(self, obs: Observation) -> None:
        n, ws = self.ctx.n, self.ws
        with np.errstate(invalid="ignore"):  # 0 / 0 for a length of 0
            if n > FRONTIER_CACHE_N:
                i1, value = self._first_least()
            else:
                # Every order is scored, with the distance into its first
                # unreleased stop written below each frontier node (inf with
                # every stop released).
                num = np.full(ws.ell.size, math.inf)
                for reached, edge in zip(ws.reached, self.frontier):
                    num.reshape(reached.size, -1)[edge] = reached.take(edge)[:, None]
                objective = _objective(num, ws.ell, out=num)
                i1 = int(objective.argmin())  # ties: lexicographically first order
                value = objective[i1]
        self.order = [int(stops.flat[i1 // (ws.ell.size // stops.size)]) + 1
                      for stops, _ in ws.levels]
        self.chosen_t = obs.now
        self.chosen_objective = float(value)
        del self.ws, self.frontier
        ALG1_SPARES[n] = ws

    def _first_least(self) -> Tuple[int, float]:
        """The first leaf with the least objective, and that objective: one
        pass down the levels, keeping on each the first node with the least
        bound."""
        n, ws = self.ctx.n, self.ws
        # (bound, node, num) kept on the level above.  With all released the
        # pass starts above the root, at node 0, the parent of all of level 0.
        best = None if self.frontier else (math.inf, 0, math.inf)
        for k in range(n):
            if best is not None and k < n - 1:  # node i on the two deepest levels is leaf i
                _, node, num = best
                kids = node * len(ws.children[k]) + ws.children[k]
                bounds = _objective(num, ws.minell[k].take(kids))
                i = int(bounds.argmin())  # the first least: children are in order
                best = float(bounds[i]), int(kids[i]), num
            if k < len(self.frontier) and self.frontier[k].size:
                edge = self.frontier[k]
                edge = edge.compress(self._can_win(k, edge, self.threshold))
                if edge.size:
                    num = ws.reached[k].take(edge)
                    bounds = _objective(num, ws.minell[k].take(edge))
                    i = int(bounds.argmin())  # the first least: the frontier is in order
                    first = float(bounds[i]), int(edge[i]), float(num[i])
                    best = first if best is None else min(best, first)
        return best[1], best[0]


def _objective(num, ell: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """alg1's objective (1 - beta) * ell per order, with beta = num / ell
    capped at 1/2; num is at most ell, or inf.  num / ell is 0 / 0 only for
    an order of length 0 with a stop unreleased; fmin passes over that nan
    and takes 1/2, as for any ratio >= 1/2."""
    ratio = np.divide(num, ell, out=out)
    np.fmin(ratio, 0.5, out=ratio)
    np.subtract(1.0, ratio, out=ratio)
    return np.multiply(ratio, ell, out=ratio)


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

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx
        self.c = ctx.space.circumference
        self.points = {rid: ctx.space.norm(p) for rid, p in (ctx.locations or {}).items()}
        n = ctx.n
        pos_sorted = sorted(self.points.values())
        if ctx.space.line_like(pos_sorted):
            self.delegate = Alg1General()
            check_pairing(self.delegate, ctx.space.kind, ctx.variant, LOCATIONS_KNOWN, n)
            self.delegate.begin(ctx)
            self.steps = [("_delegate_step",)]
            return
        self.steps = [("_window_step",)]
        for i in range(n - 1):
            if pos_sorted[i + 1] - pos_sorted[i] >= self.c / 3 - EPS:
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

    def _arc_step(self, obs: Observation, target: float, clockwise: bool) -> Optional[Action]:
        """Travel to ``target`` in the given direction; once every request is
        served, go home by the shorter arc instead."""
        if len(obs.served) == self.ctx.n:
            return MoveTo(0.0)
        cur = self.ctx.space.norm(obs.position)
        d = 1.0 if clockwise else -1.0
        arc = self.ctx.space.arc(cur, target, d)
        if arc <= EPS:
            return None
        hop = min(arc, self.c / 4)
        return MoveTo(self.ctx.space.norm(cur + d * hop))

    def _sweep_step(self, obs: Observation, clockwise: bool) -> Optional[Action]:
        """Serve-with-wait sweep home to the origin: stop at unreleased requests."""
        cur = self.ctx.space.norm(obs.position)
        d = 1.0 if clockwise else -1.0
        remaining = self.ctx.space.arc(cur, 0.0, d)

        def offset(p: float) -> Optional[float]:
            off = self.ctx.space.arc(cur, p, d)
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
            return WaitUntil()
        clockwise, target = w
        self.steps[1:1] = [("_arc_step", target, clockwise), ("_sweep_step", clockwise),
                           ("_mop_step", clockwise), ("_sweep_step", not clockwise)]
        return None


# Star policy (closed) -----------------------------------------------------------


def deepest(points: Iterable[Point]) -> Dict[int, float]:
    """Per ray that holds a point deeper than EPS, lowest ray first: the depth
    of its deepest point.  Points at the hub lie on no ray."""
    depths: Dict[int, float] = {}
    for r, d in points:
        if d > EPS:
            depths[r] = max(d, depths.get(r, d))
    return dict(sorted(depths.items()))


def knapsack_offer(points: Dict[int, Point], released_ids) -> List[KnapsackItem]:
    """alg3's knapsack items, one per ray that holds a request, lowest ray
    first: the ray's length, and the length beyond its deepest unreleased
    request."""
    blocked = deepest(p for rid, p in points.items() if rid not in released_ids)
    return [KnapsackItem(r, length, length - blocked.get(r, 0.0))
            for r, length in deepest(points.values()).items()]


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
        self.offer: List[KnapsackItem] = []

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        lengths = deepest(self.points.values())
        self.total = sum(lengths.values())
        big = max(lengths, key=lengths.get, default=0)  # ties: the lowest ray
        length = lengths.get(big, 0.0)
        if length >= self.total / 4 - 1e-12:
            self.steps = [("go", (big, length)), ("_sweep_in", big)]
        else:
            self.steps = [("_choose_rays",)]
        self.steps += [("go", ctx.space.origin()), ("all_released",), ("_mop_step",)]

    def _sweep_in(self, obs: Observation, ray: int) -> Optional[Action]:
        """Serve-with-wait sweep in along ``ray``; the walk to the hub after
        the last stop is the next step's."""
        pos = obs.position
        depth = pos[1] if pos[0] == ray else 0.0
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
        self.offer = knapsack_offer(self.points, obs.released)
        sel = knapsack_select(self.offer, self.total / 2 + 1e-12, self.mode, self.eps)
        self.chosen_rays = sel.indices
        lengths = {it.index: it.weight for it in self.offer}
        self.steps[1:1] = self._round_trips((ray, lengths[ray]) for ray in sel.indices)
        return None

    def _mop_step(self, obs: Observation) -> None:
        """Once all is released, add a round trip to the deepest unserved
        request of each ray that has one, lowest ray first; the way out
        serves the rest of the ray."""
        left = deepest(p for rid, p in self.points.items() if rid not in obs.served)
        self.steps[1:1] = self._round_trips(left.items())


# Semi-line policies --------------------------------------------------------------


class _SemilineRoute(Route):
    """Shared set-up of the semi-line policies: the points and the farthest
    one, ``limit``."""

    needs_locations = True
    requires_kind = "semiline"

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        self.limit = max(self.points.values(), default=0.0)

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
        return WaitUntil()


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
        if x < limit / 4 - EPS:
            return WaitUntil(limit / 2 + x)
        return WaitUntil()

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
            self.steps[1:1] = [("go", self.limit), ("_sweep", False)]
        else:
            return WaitUntil()
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

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        self.steps = [("go", self.limit), ("_sweep", False)]


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
    """Chases the nearest released unserved request, ties to the lowest point,
    then the lowest id; idles at the origin.  General request points must be
    node ids: a tie with an unordered :class:`EdgePoint` raises ``TypeError``."""

    name = "greedy"
    needs_locations = False

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx

    def decide(self, obs: Observation) -> Action:
        space = self.ctx.space
        o, dist = space.origin(), space.unchecked_distance
        candidates = [(q.point, rid) for rid, q in obs.released.items() if rid not in obs.served]
        if not candidates:
            if dist(obs.position, o) > EPS:
                return MoveTo(o)
            return WaitUntil()
        point, _ = min(candidates, key=lambda c: (dist(obs.position, c[0]), c))
        return MoveTo(point)


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
