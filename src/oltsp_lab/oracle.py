"""Exact offline optimum for release-dated instances.

The server starts at the origin at time 0 and may wait; for a fixed service
order the cheapest feasible schedule is the waiting fold

    t_j = max(t_{j-1} + d(prev, next), release_j),   t_0 = 0 at the origin,

and the closed variant appends the return leg after the last service.  Any
trajectory induces the service order of its serve events, and its completion
is bounded below by that order's fold (the fold only ever waits at request
positions, which is enough: shifting any other waiting later along the same
order never hurts).  Minimizing the fold over all orders is therefore exact,
which the subset dynamic program below does in O(2^n * n^2) with one
(n, C(n, k)) table per popcount layer k, ``tab[last, rank of mask]``.  Each
layer is computed from the one below alone, about ``CHUNK`` cells at a time:
one gather of predecessor columns, a broadcast add of the distance table, a
min and a scatter.  It keeps no parent table: the order is rebuilt from the
full mask backwards, each step taking the first minimum of the same float
row.  A factorial brute force over the same fold serves as an independent
cross-check.  It folds the lexicographic order tree that alg1 walks
(:func:`lex_tree`) one level at a time, in blocks of at most ``FOLD_ORDERS``
leaves, and shares no code with the dynamic program.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .instance import CLOSED, MAX_REQUESTS, Instance
from .metric import distance_table

BRUTE_CAP = 10
# The brute force folds at most this many orders at a time: all of them up to
# n = 9, one leading request at a time at n = 10.
FOLD_ORDERS = factorial(9)
# Cells per DP step: its (n, n, CHUNK // n) float64 block of candidates, about
# 286 KiB at n = 18, stays in a 1-2 MiB L2 cache.  That is the hardware's
# property, not the instance's.
CHUNK = 2048


@dataclass(frozen=True)
class OptResult:
    makespan: float
    order: tuple
    per_step_times: tuple


def _geometry(inst: Instance):
    d0, dret, dmat = distance_table(inst.space, [r.point for r in inst.requests])
    return d0, dret, dmat, np.array([r.release for r in inst.requests], dtype=float)


def _fold(order, d0, dret, dmat, rel, closed: bool):
    t = 0.0
    times = []
    prev = None
    for j in order:
        step = d0[j] if prev is None else dmat[prev, j]
        t = float(max(t + step, rel[j]))
        times.append(t)
        prev = j
    if closed and prev is not None:
        t += float(dret[prev])
    return t, times


def opt_makespan(inst: Instance) -> OptResult:
    """Exact optimum via subset DP keyed on (visited mask, last request)."""
    n = inst.n
    if n == 0:
        return OptResult(0.0, (), ())
    if n > MAX_REQUESTS:
        raise ValueError(f"oracle cap exceeded: n={n} > {MAX_REQUESTS}")
    d0, dret, dmat, rel = _geometry(inst)
    closed = inst.variant == CLOSED
    if n <= 3:
        return _best_by_enumeration(d0, dret, dmat, rel, closed)

    rank, steps = _layer_plan(n)
    tab = np.full((n, n), np.inf)  # layer 1: tab[last, rank of 1 << last] = tab[last, last]
    tab[range(n), range(n)] = np.maximum(d0, rel)
    tabs = [tab]
    for size, chunks in steps:
        prev, tab = tab, np.full((n, size), np.inf)
        for pred, cell in chunks:
            # Stored int32 to bound the plan at n = 18; take is faster on intp.
            cand = np.take(prev, pred.astype(np.intp), axis=1)  # cand[i, j, q]
            cand += dmat[:, :, None]
            best = cand.min(axis=0)
            # min_i max(a_i, r) == max(min_i a_i, r) exactly: clamp once, after the min.
            np.put(tab, cell.astype(np.intp), np.maximum(best, rel[:, None], out=best))
        tabs.append(tab)

    finals = tab[:, 0] + (dret if closed else 0.0)
    j = int(np.argmin(finals))
    makespan = float(finals[j])
    order, mask = [j], ((1 << n) - 1) ^ (1 << j)
    for tab in reversed(tabs[:-1]):  # the layer of popcount(mask)
        j = int(np.argmin(np.maximum(tab[:, rank[mask]] + dmat[:, j], rel[j])))
        order.append(j)
        mask ^= 1 << j
    order.reverse()
    _, times = _fold(order, d0, dret, dmat, rel, closed)
    return OptResult(makespan, tuple(i + 1 for i in order), tuple(times))


def _best_by_enumeration(d0, dret, dmat, rel, closed):
    """The lexicographically first order with the least fold.

    The leaves of :func:`lex_tree` are folded one level at a time: a node's
    time is its parent's plus the leg into its stop, clamped to that stop's
    release.  These are the scalar fold's operations in its order, so each
    leaf's time is its order's fold.  Whole rows of leading requests are
    folded together, at most ``FOLD_ORDERS`` leaves at a time; ``argmin`` and
    a strict ``<`` across blocks keep the first minimum.
    """
    n = len(rel)
    levels = lex_tree(n) if n < BRUTE_CAP else _grow_tree(lex_tree(n - 1))
    dist = dmat.ravel()
    row_leaves = factorial(n - 1)
    rows = min(n, FOLD_ORDERS // row_leaves)
    best = None
    for a in range(0, n, rows):
        block = slice(a, a + rows)
        stops = levels[0][0][block]
        t = np.maximum(0.0 + d0.take(stops), rel.take(stops))
        for stops, legs in levels[1:]:
            stops, legs = stops[block], legs[block]
            step = dist.take(legs)
            step += t  # t holds the parents, one per row of legs
            t = np.maximum(step, rel.take(stops).reshape(legs.shape), out=step)
            t = t.reshape(stops.shape)
        if closed:
            t += dret.take(stops)
        i = int(t.argmin())
        if best is None or t.flat[i] < best[0]:
            best = (t.flat[i], a * row_leaves + i)
    _, leaf = best
    perm = [int(stops.flat[leaf // (factorial(n) // stops.size)]) for stops, _ in levels]
    t, times = _fold(perm, d0, dret, dmat, rel, closed)
    return OptResult(t, tuple(i + 1 for i in perm), tuple(times))


def opt_bruteforce(inst: Instance) -> OptResult:
    """Same contract as :func:`opt_makespan` via explicit n! enumeration."""
    n = inst.n
    if n == 0:
        return OptResult(0.0, (), ())
    if n > BRUTE_CAP:
        raise ValueError(f"brute-force cap exceeded: n={n} > {BRUTE_CAP}")
    d0, dret, dmat, rel = _geometry(inst)
    return _best_by_enumeration(d0, dret, dmat, rel, inst.variant == CLOSED)


@lru_cache(maxsize=None)
def _layer_plan(n: int):
    """The DP's read-only int32 plan for n requests: ``rank[mask]``, a mask's
    column in the table of its popcount layer (masks in ascending order), and
    for each layer k >= 2 its table width C(n, k) with its (pred, cell) blocks.
    Row j of both blocks runs over the layer's masks that hold j: ``pred`` is
    the column in layer k - 1 of the mask without j, ``cell`` the flat cell
    ``j * C(n, k) + rank`` it fills.  The blocks are cut into chunks of
    ``CHUNK // n`` columns, about ``CHUNK`` cells each."""
    masks = np.arange(1 << n, dtype=np.int32)
    pops = sum((masks >> j) & 1 for j in range(n))
    layers = [masks[pops == k] for k in range(n + 1)]
    rank = np.empty(1 << n, dtype=np.int32)
    for layer in layers:
        rank[layer] = np.arange(len(layer))
    width = CHUNK // n
    steps = []
    for layer in layers[2:]:
        held = [np.flatnonzero((layer >> j) & 1) for j in range(n)]
        pred = np.stack([rank[layer[h] ^ (1 << j)] for j, h in enumerate(held)])
        cell = np.stack([h + j * len(layer) for j, h in enumerate(held)]).astype(np.int32)
        pred.flags.writeable = cell.flags.writeable = False
        cuts = range(width, pred.shape[1], width)
        steps.append((len(layer), tuple(zip(np.split(pred, cuts, axis=1),
                                            np.split(cell, cuts, axis=1)))))
    rank.flags.writeable = False
    return rank, tuple(steps)


@lru_cache(maxsize=None)
def lex_tree(n: int) -> tuple:
    """The orders of range(n) in lexicographic order as a tree, one level per
    position; its leaves are the n! orders and no order is listed whole.
    Level k has a node for each distinct first k + 1 stops, in lexicographic
    order: node i holds the last of them, its parent is node ``i // (n - k)``
    one level up, and its leaves are the (n - k - 1)! orders from ``i * (n - k
    - 1)!`` on.  Level k is ``(stops, legs)``.  The int16 stops are shaped (n,
    nodes / n, 1), one row per leading request, so that they broadcast against
    the leaves viewed as (n, nodes / n, (n - k - 1)!).  From level 1 on, the
    int16 legs ``parent stop * n + stop``, flat indices into an (n, n) table,
    are shaped (n, parents / n, n - k): one row of children per parent.

    Cached: alg1 and the brute force reuse the trees up to n = 9, which hold
    4.3 MiB together.  The n = 10 tree takes 38 MiB and only the brute force
    needs it, so the brute force grows it from the n = 9 tree for each call
    (:func:`_grow_tree`) and lets it go."""
    return _grow_tree(lex_tree(n - 1)) if n else ()


def _grow_tree(sub_tree: tuple) -> tuple:
    """:func:`lex_tree` for n from the n - 1 tree, one block per leading
    request: the nodes led by a are the n - 1 tree's nodes with each stop s
    renamed to the s-th request other than a."""
    n = len(sub_tree) + 1
    others = np.array([np.delete(np.arange(n), a) for a in range(n)], dtype=np.int16)
    levels = [(np.arange(n, dtype=np.int16).reshape(n, 1, 1), None)]
    for k, (sub, _) in enumerate(sub_tree, start=1):
        stops = others[:, sub.ravel()].reshape(n, -1, 1)  # row a: the nodes led by a
        parents = levels[-1][0]
        legs = parents * n + stops.reshape(parents.shape[:2] + (n - k,))
        levels.append((stops, legs))
    for stops, legs in levels:
        stops.flags.writeable = False
        if legs is not None:
            legs.flags.writeable = False
    return tuple(levels)

