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
(k, C(n, k)) table per popcount layer k: ``tab[p, c]`` is the least fold over
the orders of the layer's c-th mask (masks in ascending order) that end at its
p-th smallest member.  A cell's candidates are the k - 1 other members of its
mask only, n(n - 1) 2^(n - 2) in all, half of what a table with a row for
every request would hold.  A cached plan per n (:func:`_layer_plan`) holds,
for each layer, the column below of each mask without each of its members and
the flat distance-table index of each candidate's leg.  Each layer is computed
from the one below alone, about ``CHUNK`` candidates at a time: a gather of
predecessor columns, a gather of legs from the distance table, one add, a min
over the previous member and the release clamp, written straight into the
layer's table.  It keeps no parent table: the order is rebuilt from the full
mask backwards, each step taking the first minimum of the same float row over
the mask's members in ascending order.  That is the first minimum a per-cell
argmin over all requests would take, since the rows of non-members could only
hold inf, so the order is that of a DP with a row per request.

A call allocates one float64 block of n 2^(n - 1) elements, which holds every
layer's table (sum_k k C(n, k) = n 2^(n - 1)), and small per-request arrays.
The chunks' gathers and the clamp write into views of two module-level
buffers of ``CHUNK`` float64, shared by every n.  Fresh per-chunk arrays and a
table per layer sat at 128 KiB, glibc's mmap threshold, so their pages went
back to the kernel and were faulted in again on the next call: 740-765 minor
faults per job of the ``oracle-dp`` benchmark, 0.5 now.  The shared
buffers make the oracle unsafe to run from two threads at once.  A cold call
at n = 18 peaks at 62.0 MiB of ``tracemalloc`` and leaves 43.8 MiB of plan
cached.  A factorial brute force over the same fold serves as an independent
cross-check.  It folds the lexicographic order tree that alg1 walks
(:func:`lex_tree`) one level at a time, in blocks of at most ``FOLD_ORDERS``
leaves, and shares no code with the dynamic program.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import numpy as np

from .instance import CLOSED, MAX_REQUESTS, Instance
from .metric import distance_table

BRUTE_CAP = 10
# The brute force folds at most this many orders at a time: all of them up to
# n = 9, one leading request at a time at n = 10.
FOLD_ORDERS = factorial(9)
# Elements per DP gather block: a chunk's float64 candidates, 128 KiB, and the
# distances added to them stay in a 1-2 MiB L2 cache.  That is the hardware's
# property, not the instance's.
CHUNK = 16384
# The DP's chunk scratch, shared by every n: each chunk of a layer plan holds
# views of these two buffers, so a call writes its gathers into memory the
# process already holds.
_SCRATCH = np.empty(CHUNK), np.empty(CHUNK)


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
    """Exact optimum via subset DP keyed on (visited mask, last request).  At
    n <= 3 it folds the at most six orders instead and keeps the first least
    one in lexicographic order, the brute force's answer.

    Not thread-safe: every call from n = 4 on writes its chunks into the same
    module-level scratch, so two threads must not run it at once."""
    n = inst.n
    if n == 0:
        return OptResult(0.0, (), ())
    if n > MAX_REQUESTS:
        raise ValueError(f"oracle cap exceeded: n={n} > {MAX_REQUESTS}")
    d0, dret, dmat, rel = _geometry(inst)
    closed = inst.variant == CLOSED
    if n <= 3:
        args = d0, dret, dmat, rel, closed
        order = min(permutations(range(n)), key=lambda o: _fold(o, *args)[0])
        makespan, times = _fold(order, *args)
        return OptResult(makespan, tuple(i + 1 for i in order), tuple(times))

    plan = _layer_plan(n)
    block = np.empty(n << (n - 1))  # every layer's table: sum_k k C(n, k) = n 2^(n-1)
    tab = block[:n].reshape(1, n)  # layer 1: mask 1 << j has column j
    np.maximum(d0, rel, out=tab[0])
    tabs, at = [tab], n
    dist, rel_to = dmat.ravel(), np.empty((n, n))
    rel_to[:] = rel  # rel_to[i, j] = rel[j], read at the flat index of the leg i -> j
    for pred, _, chunks in plan:
        prev, tab = tab, block[at:at + pred.size].reshape(pred.shape)
        at += pred.size
        for cols, below, legs, cand, step, clamp in chunks:
            prev.take(below, axis=1, mode="clip", out=cand)  # cand[q, p, c]
            cand += dist.take(legs, mode="clip", out=step)
            best = cand.min(axis=0, out=tab[:, cols])
            # min_q max(a_q, r) == max(min_q a_q, r) exactly: clamp once, after the min.
            np.maximum(best, rel_to.take(legs[0], mode="clip", out=clamp), out=best)
        tabs.append(tab)

    finals = tab[:, 0] + (dret if closed else 0.0)
    p = int(finals.argmin())
    makespan = float(finals[p])
    members, order, col = list(range(n)), [], 0
    for (pred, legs, _), tab in zip(reversed(plan), reversed(tabs[:-1])):
        order.append(j := members.pop(p))  # the p-th member of the mask in column col
        into = dist.take(legs[:, p, col])  # from each member left, ascending, to j
        col = pred[p, col]
        p = int(np.maximum(tab[:, col] + into, rel[j]).argmin())
    order.append(members.pop(p))
    order.reverse()
    _, times = _fold(order, d0, dret, dmat, rel, closed)
    return OptResult(makespan, tuple(i + 1 for i in order), tuple(times))


def opt_bruteforce(inst: Instance) -> OptResult:
    """Same contract as :func:`opt_makespan` via explicit n! enumeration: the
    lexicographically first order with the least fold.

    The leaves of :func:`lex_tree` are folded one level at a time: a node's
    time is its parent's plus the leg into its stop, clamped to that stop's
    release.  These are the scalar fold's operations in its order, so each
    leaf's time is its order's fold.  Whole rows of leading requests are
    folded together, at most ``FOLD_ORDERS`` leaves at a time; ``argmin`` and
    a strict ``<`` across blocks keep the first minimum.
    """
    n = inst.n
    if n == 0:
        return OptResult(0.0, (), ())
    if n > BRUTE_CAP:
        raise ValueError(f"brute-force cap exceeded: n={n} > {BRUTE_CAP}")
    d0, dret, dmat, rel = _geometry(inst)
    closed = inst.variant == CLOSED
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
            best = (float(t.flat[i]), a * row_leaves + i)
    makespan, leaf = best
    perm = [int(stops.flat[leaf // (factorial(n) // stops.size)]) for stops, _ in levels]
    _, times = _fold(perm, d0, dret, dmat, rel, closed)
    return OptResult(makespan, tuple(i + 1 for i in perm), tuple(times))


@lru_cache(maxsize=None)
def _layer_plan(n: int):
    """The DP's read-only plan for n requests, one ``(pred, legs, chunks)``
    per layer k >= 2.  Column c of layer k is its c-th mask in ascending order,
    whose members in ascending order are m_0 < ... < m_{k-1}.  The uint16
    (k, C(n, k)) ``pred[p, c]`` is the column in layer k - 1 of the mask
    without m_p.  The int16 legs ``legs[q, p, c] = source * n + m_p`` are flat
    indices into the (n, n) distance table, the source being the q-th member
    of that smaller mask; the walk back reads the legs of one cell at a time.
    ``chunks`` cuts both blocks into ``(cols, pred, legs, ...)`` views of
    ``CHUNK // (k * (k - 1))`` columns, so that a chunk's legs, and the
    candidates gathered with them, are about ``CHUNK`` elements; each chunk
    also holds its views of the shared scratch (:func:`_chunk`).

    No mask is enumerated.  The masks of layer k whose largest member is m, in
    ascending order, are m added to the first C(m, k - 1) masks of layer
    k - 1.  Without m, the c-th of them is column c of layer k - 1; without a
    smaller member it is m added to a mask of layer k - 2, which sits
    C(m, k - 1) columns further on in layer k - 1 than that mask in layer
    k - 2."""
    held = np.arange(n, dtype=np.int16).reshape(1, n)  # layer 1: mask 1 << m in column m
    pred = np.zeros((1, n), dtype=np.uint16)
    steps = []
    for k in range(2, n + 1):
        tops = [(m, comb(m, k - 1)) for m in range(k - 1, n)]
        pred = np.hstack([np.vstack([pred[:, :c] + c, np.arange(c, dtype=np.uint16)])
                          for m, c in tops])
        held = np.hstack([np.vstack([held[:, :c], np.full(c, m, dtype=np.int16)])
                          for m, c in tops])
        legs = np.stack([np.delete(held * n, p, 0) + m for p, m in enumerate(held)], axis=1)
        pred.flags.writeable = legs.flags.writeable = False
        w = CHUNK // (k * (k - 1))
        chunks = tuple(_chunk(np.s_[a:a + w], pred[:, a:a + w], legs[..., a:a + w])
                       for a in range(0, pred.shape[1], w))
        steps.append((pred, legs, chunks))
    return tuple(steps)


def _chunk(cols, below, legs):
    """A chunk of a layer plan with its scratch views: the gathered candidates
    and legs, shaped like ``legs``, and the clamp's releases, shaped like
    ``legs[0]``, which reuse the legs' buffer once they are added."""
    cand, step = (buf[:legs.size].reshape(legs.shape) for buf in _SCRATCH)
    return cols, below, legs, cand, step, step[0]


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

