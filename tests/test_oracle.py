import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tie_heavy_instances
from oltsp_lab import (
    CLOSED,
    OPEN,
    MAX_REQUESTS,
    GenParams,
    Instance,
    Request,
    generate_random,
    opt_bruteforce,
    opt_makespan,
    oracle,
)
from oltsp_lab.metric import General, Ring, SemiLine
from oltsp_lab.oracle import BRUTE_CAP, OptResult, lex_tree

KINDS = [
    ("semiline", {}),
    ("line", {}),
    ("ring", {}),
    ("star", {"ray_count": 4}),
    ("general", {}),
    ("general", {"asymmetric": True}),
]


def test_reference_instance_brute_then_dp(example1):
    brute = opt_bruteforce(example1)
    assert brute.makespan == pytest.approx(12.0, abs=1e-12)
    assert brute.order == (1, 2, 3)
    assert brute.per_step_times == (3.0, 6.0, 9.0)
    dp = opt_makespan(example1)
    assert dp.makespan == brute.makespan
    assert dp.order == (1, 2, 3)


def test_single_request_closed_forced_structure():
    for p, r in [(0.4, 0.0), (0.4, 3.0), (2.0, 1.0)]:
        inst = make_instance(SemiLine(), CLOSED, [(p, r)])
        assert opt_makespan(inst).makespan == pytest.approx(max(p, r) + p)


def test_ring_open_two_request_realization():
    inst = make_instance(Ring(1.0), OPEN, [(1 / 3, 1 / 3), (2 / 3, 2 / 3)])
    assert opt_makespan(inst).makespan == pytest.approx(2 / 3, abs=1e-12)


def test_empty_instance():
    inst = Instance(space=SemiLine(), variant=OPEN, requests=())
    assert opt_makespan(inst).makespan == 0.0
    assert opt_bruteforce(inst).makespan == 0.0


def test_zero_releases_reduce_to_pure_tour(example1):
    zero = Instance(
        space=example1.space,
        variant=CLOSED,
        requests=tuple(Request(r.id, r.point, 0.0) for r in example1.requests),
    )
    assert opt_makespan(zero).makespan == pytest.approx(9.0)  # shortest closed tour
    open_zero = Instance(space=zero.space, variant=OPEN, requests=zero.requests)
    assert opt_makespan(open_zero).makespan == pytest.approx(6.0)  # q2,q1,q3 path


@pytest.mark.parametrize("kind,sp", KINDS)
def test_dp_equals_bruteforce(kind, sp):
    for seed in range(80):
        n = seed % 9
        inst = generate_random(
            GenParams(n=n, seed=7000 + seed, release_horizon=1.5, space_params=sp),
            kind,
            variant=CLOSED if seed % 2 else OPEN,
        )
        assert opt_makespan(inst).makespan == opt_bruteforce(inst).makespan, (kind, seed)


def test_release_monotonicity():
    for seed in range(40):
        inst = generate_random(
            GenParams(n=5, seed=8100 + seed, release_horizon=1.0), "line", variant=CLOSED
        )
        base = opt_makespan(inst).makespan
        reqs = list(inst.requests)
        k = seed % 5
        reqs[k] = Request(reqs[k].id, reqs[k].point, reqs[k].release + 0.7)
        bumped = Instance(space=inst.space, variant=CLOSED, requests=tuple(reqs))
        assert opt_makespan(bumped).makespan >= base - 1e-9


def test_closed_at_least_open():
    for seed in range(40):
        inst = generate_random(
            GenParams(n=6, seed=8200 + seed, release_horizon=2.0), "star",
            variant=CLOSED,
        )
        closed = opt_makespan(inst).makespan
        open_ = opt_makespan(Instance(inst.space, OPEN, inst.requests)).makespan
        assert closed >= open_ - 1e-9


def test_elementary_lower_bounds():
    for seed in range(40):
        inst = generate_random(
            GenParams(n=6, seed=8300 + seed, release_horizon=2.0), "ring",
            variant=CLOSED,
        )
        space = inst.space
        o = space.origin()
        opt = opt_makespan(inst).makespan
        reach = max(space.distance(o, r.point) for r in inst.requests)
        assert opt >= 2 * reach - 1e-9
        assert opt >= max(
            max(r.release, space.distance(o, r.point)) for r in inst.requests
        ) - 1e-9
        open_opt = opt_makespan(Instance(space, OPEN, inst.requests)).makespan
        assert open_opt >= max(
            max(r.release, space.distance(o, r.point)) for r in inst.requests
        ) - 1e-9


def test_asymmetric_directed_fold():
    # one-way distances: going out is cheap, coming back is dear
    g = General.from_rows([[0, 1, 4], [3, 0, 4], [4, 4, 0]], symmetric=False)
    inst = Instance(
        space=g, variant=CLOSED,
        requests=(Request(1, 1, 0.0), Request(2, 2, 0.0)),
    )
    res = opt_makespan(inst)
    assert res.makespan == opt_bruteforce(inst).makespan
    # best closed order is q1 then q2: 1 + 4 + 4 = 9 (vs 4 + 4 + 3 = 11)
    assert res.makespan == pytest.approx(9.0)
    assert res.order == (1, 2)


def test_caps_enforced():
    big = generate_random(GenParams(n=12, seed=3), "semiline")
    with pytest.raises(ValueError):
        opt_bruteforce(big)
    too_big = Instance(
        space=SemiLine(), variant=OPEN,
        requests=tuple(Request(i + 1, 0.1 * i, 0.0) for i in range(19)),
    )
    with pytest.raises(ValueError):
        opt_makespan(too_big)


def test_reconstructed_times_obey_the_fold():
    for seed in range(20):
        inst = generate_random(
            GenParams(n=6, seed=8400 + seed, release_horizon=1.0), "general",
            variant=CLOSED,
        )
        res = opt_makespan(inst)
        space = inst.space
        t = 0.0
        prev = space.origin()
        for rid, expect in zip(res.order, res.per_step_times):
            req = inst.requests[rid - 1]
            t = max(t + space.distance(prev, req.point), req.release)
            assert t == pytest.approx(expect, abs=1e-12)
            prev = req.point
        t += space.distance(prev, space.origin())
        assert t == pytest.approx(res.makespan, abs=1e-12)


def _scalar_enumeration(inst):
    """Reference brute force: every order folded on its own by the scalar fold,
    in lexicographic order, a strict ``<`` keeping the first minimum."""
    d0, dret, dmat, rel = oracle._geometry(inst)
    best = None
    for perm in itertools.permutations(range(inst.n)):
        t, times = oracle._fold(perm, d0, dret, dmat, rel, inst.variant == CLOSED)
        if best is None or t < best[0]:
            best = (t, perm, times)
    t, perm, times = best
    return OptResult(t, tuple(i + 1 for i in perm), tuple(times))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(KINDS, max_n=6))
def test_bruteforce_equals_scalar_enumeration(inst):
    ref = _scalar_enumeration(inst)
    assert opt_bruteforce(inst) == ref  # makespan, order and times, exactly
    if inst.n <= 3:  # opt_makespan takes the first least fold too
        assert opt_makespan(inst) == ref


def test_dp_answers_without_the_brute_force(monkeypatch):
    """opt_makespan reaches neither the order tree nor the brute force at any
    n, the small n included."""
    cases = [
        generate_random(GenParams(n=n, seed=9100 + n, release_horizon=1.0, space_params=sp),
                        kind, variant=variant)
        for n in range(7) for kind, sp in KINDS for variant in (OPEN, CLOSED)
    ]
    brute = [opt_bruteforce(inst) for inst in cases]

    def refuse(*_):
        raise AssertionError("opt_makespan reached the brute force")

    monkeypatch.setattr(oracle, "lex_tree", refuse)
    monkeypatch.setattr(oracle, "opt_bruteforce", refuse)
    for inst, ref in zip(cases, brute):
        assert opt_makespan(inst).makespan == ref.makespan


def _order_table(n):
    """The n! orders of range(n) in lexicographic order, one column each."""
    orders = list(itertools.permutations(range(n)))
    return np.array(orders, dtype=np.intp).reshape(len(orders), n).T


def test_order_table_is_lexicographic():
    for n in range(9):
        tree = lex_tree(n)
        node, rows = np.arange(math.factorial(n)), []
        for k in reversed(range(n)):  # each leaf read back to the root
            rows.append(tree[k][0].ravel()[node])
            node = node // (n - k)
        table = np.array(rows[::-1], dtype=np.intp).reshape(n, math.factorial(n))
        assert table.T.tolist() == [list(p) for p in itertools.permutations(range(n))]


def test_order_tree_levels_are_order_table_rows():
    for n in range(9):
        table, tree = _order_table(n), lex_tree(n)
        assert len(tree) == n
        for k, (stops, legs) in enumerate(tree):
            step = math.factorial(n - k - 1)  # node i is the prefix of order i * step
            nodes = table[:k + 1, ::step]
            assert stops.shape == (n, nodes.shape[1] // n, 1)
            assert stops.ravel().tolist() == nodes[k].tolist()
            assert not stops.flags.writeable
            if k:  # node i's parent is node i // (n - k) one level up
                above = table[:k, ::step * (n - k)]
                assert above[:, np.arange(nodes.shape[1]) // (n - k)].tolist() == \
                    nodes[:k].tolist()
                assert legs.shape == (n, above.shape[1] // n, n - k)
                assert legs.ravel().tolist() == (nodes[k - 1] * n + nodes[k]).tolist()
                assert not legs.flags.writeable
            else:
                assert legs is None


@pytest.mark.parametrize("kind,sp", KINDS)
def test_bruteforce_equals_dp_at_nine_and_ten(kind, sp):
    for n, seeds in ((9, range(3)), (BRUTE_CAP, range(2))):
        for seed in seeds:
            inst = generate_random(
                GenParams(n=n, seed=7500 + seed, release_horizon=1.5, space_params=sp),
                kind,
                variant=CLOSED if seed % 2 else OPEN,
            )
            assert opt_bruteforce(inst).makespan == opt_makespan(inst).makespan, (kind, n, seed)


def test_bruteforce_memory_bounded_at_cap():
    """The call's peak, and what it keeps after: alg1 and the brute force reuse
    the cached trees up to n = 9 (4.3 MiB), but not the n = 10 one (38 MiB)."""
    inst = generate_random(GenParams(n=BRUTE_CAP, seed=11, release_horizon=1.0), "general")
    lex_tree.cache_clear()  # count the order tree it builds as well
    tracemalloc.start()
    try:
        opt_bruteforce(inst)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert retained < 8 * 2**20


def _reference_dp(inst):
    """Reference subset DP for n >= 2: one argmin per (popcount layer, last
    request) over a (2^n, n) table, with an int8 parent table for the order."""
    n = inst.n
    d0, dret, dmat, rel = oracle._geometry(inst)
    closed = inst.variant == CLOSED
    full = (1 << n) - 1
    dist, relv = np.asarray(dmat), np.asarray(rel)
    masks = np.arange(1 << n)
    pops = sum((masks >> j) & 1 for j in range(n))
    dp = np.full((full + 1, n), np.inf)
    parent = np.full((full + 1, n), -1, dtype=np.int8)
    for j in range(n):
        dp[1 << j, j] = max(d0[j], rel[j])
    for k in range(2, n + 1):
        layer = masks[pops == k]
        for j in range(n):
            sel = layer[(layer >> j) & 1 == 1]
            cand = np.maximum(dp[sel ^ (1 << j)] + dist[:, j], relv[j])
            best = np.argmin(cand, axis=1)
            dp[sel, j] = cand[np.arange(len(sel)), best]
            parent[sel, j] = best
    finals = dp[full] + (np.asarray(dret) if closed else 0.0)
    last = int(np.argmin(finals))
    order, mask, j = [], full, last
    while j >= 0:
        order.append(j)
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj if mask else -1
    order.reverse()
    _, times = oracle._fold(order, d0, dret, dmat, rel, closed)
    return OptResult(float(finals[last]), tuple(i + 1 for i in order), tuple(times))


# n <= 3 goes to the brute force's enumeration, whose tie-break differs.
@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(KINDS, max_n=10, min_n=4))
def test_dp_equals_reference_dp(inst):
    assert opt_makespan(inst) == _reference_dp(inst)  # makespan, order and times, exactly


@pytest.mark.parametrize("kind,sp", KINDS)
def test_dp_equals_reference_dp_at_eleven_to_fourteen(kind, sp):
    for n in range(11, 15):
        for horizon in (0.0, 1.5):  # zero releases tie the most
            for variant in (OPEN, CLOSED):
                inst = generate_random(
                    GenParams(n=n, seed=7700 + n, release_horizon=horizon, space_params=sp),
                    kind,
                    variant=variant,
                )
                assert opt_makespan(inst) == _reference_dp(inst), (kind, n, horizon, variant)


# With CHUNK elements per gather block the largest layers from n = 12 on are
# cut into several chunks; the tie-break has to hold across the cuts.
@settings(max_examples=25, deadline=None)
@given(tie_heavy_instances(KINDS, max_n=13, min_n=11))
def test_dp_equals_reference_dp_where_chunks_split_layers(inst):
    assert opt_makespan(inst) == _reference_dp(inst)  # makespan, order and times, exactly


def test_layer_plan_follows_the_masks():
    """Layer k's columns are its masks in ascending order; ``pred`` and
    ``legs`` follow from the members of each, and the chunks are views that
    cut both into consecutive runs of columns.  Each chunk's scratch views are
    shaped for its gathers and lie in the shared scratch, not in the plan."""
    for n in range(2, 13):
        layers = [[m for m in range(1 << n) if m.bit_count() == k] for k in range(n + 1)]
        column = {m: c for layer in layers for c, m in enumerate(layer)}
        plan = oracle._layer_plan(n)
        assert len(plan) == n - 1
        for k, (pred, legs, chunks) in enumerate(plan, start=2):
            held = [[j for j in range(n) if m >> j & 1] for m in layers[k]]
            assert pred.tolist() == [[column[m ^ (1 << h[p])] for m, h in zip(layers[k], held)]
                                     for p in range(k)]
            assert legs.tolist() == [[[(h[:p] + h[p + 1:])[q] * n + h[p] for h in held]
                                      for p in range(k)] for q in range(k - 1)]
            assert not legs.flags.writeable
            assert (np.concatenate([chunk[2] for chunk in chunks], axis=2) == legs).all()
            assert all(np.shares_memory(chunk[2], legs) for chunk in chunks)
            starts = [chunk[0].start for chunk in chunks]
            assert starts == list(range(0, len(layers[k]), oracle.CHUNK // (k * (k - 1))))
            for cols, below, part, cand, step, clamp in chunks:
                assert np.shares_memory(below, pred) and (below == pred[:, cols]).all()
                assert not below.flags.writeable and not part.flags.writeable
                assert cand.shape == step.shape == part.shape and clamp.shape == part[0].shape
                for view in (cand, step, clamp):
                    assert view.dtype == np.float64 and view.size <= oracle.CHUNK
                    assert any(np.shares_memory(view, buf) for buf in oracle._SCRATCH)
                    assert not np.shares_memory(view, pred) and not np.shares_memory(view, part)
                assert not np.shares_memory(cand, step)  # both gathers are live at the add
    assert max(len(chunks) for *_, chunks in oracle._layer_plan(12)) > 1


def test_dp_warm_call_allocates_only_its_table_block():
    """A warm call writes its chunks into the shared scratch and its layer
    tables into one block of n 2^(n-1) float64; switching n between calls
    never lets one size's scratch reach another's result."""
    insts = {n: generate_random(GenParams(n=n, seed=7900 + n, release_horizon=1.0), "general")
             for n in (12, 13, 14)}
    for n in (12, 14):
        opt_makespan(insts[n])
        tracemalloc.start()
        try:
            opt_makespan(insts[n])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n << (n - 1)) * 8 + 192 * 2**10, (n, peak)
    for n in (14, 12, 13, 14):
        assert opt_makespan(insts[n]) == _reference_dp(insts[n]), n


def test_dp_memory_bounded_at_cap():
    """A cold call's peak, and the plan it leaves cached (43 MiB at n = 18)."""
    inst = generate_random(GenParams(n=MAX_REQUESTS, seed=11, release_horizon=1.0), "general")
    oracle._layer_plan.cache_clear()  # count the layer plan it builds as well
    tracemalloc.start()
    try:
        opt_makespan(inst)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert retained < 48 * 2**20


@settings(deadline=None)
@given(tie_heavy_instances(KINDS, max_n=12), st.data())
def test_raising_a_release_never_lowers_the_optimum(inst, data):
    """Exact: ``max`` and ``+`` are monotone in floats, and so is a minimum
    of their folds."""
    k = data.draw(st.integers(0, inst.n - 1))
    raise_by = data.draw(st.floats(0.0, 4.0))
    reqs = list(inst.requests)
    reqs[k] = Request(reqs[k].id, reqs[k].point, reqs[k].release + raise_by)
    raised = Instance(inst.space, inst.variant, tuple(reqs))
    assert opt_makespan(raised).makespan >= opt_makespan(inst).makespan


@settings(deadline=None)
@given(tie_heavy_instances(KINDS, max_n=12), st.randoms(use_true_random=False))
def test_relabelling_requests_keeps_the_optimum(inst, rnd):
    """Bit for bit: each order's fold is the same sequence of operations on
    the same distances and releases under any labelling."""
    reqs = list(inst.requests)
    rnd.shuffle(reqs)
    relabelled = make_instance(inst.space, inst.variant, [(r.point, r.release) for r in reqs])
    assert opt_makespan(relabelled).makespan == opt_makespan(inst).makespan
