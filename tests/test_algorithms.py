import gc
import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tie_heavy_instances
from oltsp_lab import (
    CLOSED,
    OPEN,
    GenParams,
    Instance,
    Request,
    generate_random,
    opt_makespan,
    simulate,
    verify_outcome,
)
from oltsp_lab.algorithms import (
    ALG1_SPARES,
    Alg1General,
    Alg2Ring,
    Alg3Star,
    Alg5Semiline,
    Route,
    make_policy,
    next_stop,
)
from oltsp_lab.engine import MoveTo, PairingError, SimulationError, WaitForRelease, WaitUntil
from oltsp_lab.metric import EPS, General, Ring, SemiLine, Star, distance_table
from oltsp_lab.oracle import lex_tree


def ratio_ok(completion, opt, bound, slack=1e-9):
    return completion <= bound * opt + slack


# Algorithm 1 ---------------------------------------------------------------------


def test_alg1_reference_trace(example1):
    pol = Alg1General()
    out = simulate(example1, pol)
    assert pol.chosen_t == pytest.approx(6.0, abs=1e-9)
    assert pol.order == [2, 1, 3]
    assert pol.chosen_objective == pytest.approx(4.5)
    assert out.completion == pytest.approx(15.0)


def test_alg1_zero_releases(example1):
    zero = Instance(
        space=example1.space, variant=CLOSED,
        requests=tuple(Request(r.id, r.point, 0.0) for r in example1.requests),
    )
    pol = Alg1General()
    out = simulate(zero, pol)
    assert pol.chosen_t == pytest.approx(4.5)  # half the shortest tour
    assert out.completion == pytest.approx(13.5)


def test_alg1_single_request_open():
    inst = make_instance(SemiLine(), OPEN, [(0.8, 0.0)])
    pol = Alg1General()
    out = simulate(inst, pol)
    assert pol.chosen_t == pytest.approx(0.4)
    assert out.completion == pytest.approx(1.2)


def test_alg1_cap():
    inst = generate_random(GenParams(n=10, seed=5), "semiline", variant=OPEN)
    with pytest.raises(PairingError, match="handles at most 9 requests, got 10"):
        simulate(inst, Alg1General())


def test_alg1_scale_invariance(example1):
    base_pol = Alg1General()
    base = simulate(example1, base_pol)
    for c in (4.0, 3.7):
        scaled = Instance(
            space=General.from_rows(
                [[x * c for x in row] for row in example1.space.matrix]
            ),
            variant=CLOSED,
            requests=tuple(
                Request(r.id, r.point, r.release * c) for r in example1.requests
            ),
        )
        pol = Alg1General()
        out = simulate(scaled, pol)
        assert pol.order == base_pol.order
        if c == 4.0:  # power of two: exact float scaling
            assert out.completion == base.completion * c
        else:
            assert out.completion == pytest.approx(base.completion * c, rel=1e-12)


@pytest.mark.parametrize("kind,sp,variant", [
    ("semiline", {}, OPEN),
    ("line", {}, CLOSED),
    ("ring", {}, OPEN),
    ("star", {"ray_count": 3}, CLOSED),
    ("general", {}, CLOSED),
    ("general", {"asymmetric": True}, OPEN),
])
def test_alg1_ratio_small_sweep(kind, sp, variant):
    for seed in range(60):
        inst = generate_random(
            GenParams(n=1 + seed % 6, seed=9000 + seed, release_horizon=1.5,
                      space_params=sp),
            kind, variant=variant,
        )
        out = simulate(inst, Alg1General())
        opt = opt_makespan(inst).makespan
        assert ratio_ok(out.completion, opt, 1.5), (kind, seed)
        assert out.completion >= opt - 1e-9


class PerOrderAlg1(Alg1General):
    """Reference alg1: the start threshold is taken over all n! orders, each
    with its own needed-request mask and latest needed release, and the commit
    works on whole (order, position) matrices."""

    def begin(self, ctx):
        n = ctx.n
        self.ctx = ctx
        self.points = dict(ctx.locations or {})
        if n == 0:
            return
        pts = [self.points[i + 1] for i in range(n)]
        d0, dret, dmat = (np.array(t) for t in distance_table(ctx.space, pts))
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        m = len(perms)
        prefix = np.empty((m, n))
        prefix[:, 0] = d0[perms[:, 0]]
        if n > 1:
            leg_idx = perms[:, :-1] * n + perms[:, 1:]
            np.cumsum(dmat.ravel()[leg_idx], axis=1, out=prefix[:, 1:])
            prefix[:, 1:] += prefix[:, 0][:, None]
        ell = prefix[:, -1].copy()
        if ctx.variant == CLOSED:
            ell += dret[perms[:, -1]]
        bits = np.left_shift(np.int64(1), perms.astype(np.int64))
        self.needed_mask = np.where(prefix < (ell / 2)[:, None], bits, 0).sum(
            axis=1, dtype=np.int64
        )
        self.tau = np.zeros(m)
        self.half = ell / 2.0
        self.known = 0
        self.perms, self.prefix, self.ell = perms, prefix, ell

    def _waiting_step(self, obs):
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
        best = float(np.maximum(self.half, self.tau)[ok].min())
        if best > obs.now + EPS:
            return WaitUntil(best)
        self._commit(obs, released_bits)
        return None

    def _commit(self, obs, released_bits):
        n = self.ctx.n
        rel_mask = np.array([(released_bits >> i) & 1 for i in range(n)], dtype=bool)
        fr = rel_mask[self.perms]
        rows = np.arange(len(self.perms))
        num = np.where(fr.all(axis=1), self.ell, self.prefix[rows, np.argmin(fr, axis=1)])
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(self.ell > 0, num / self.ell, 1.0)
        objective = (1.0 - np.minimum(a, 0.5)) * self.ell
        i1 = int(np.argmin(objective))
        self.order = [int(r) + 1 for r in self.perms[i1]]
        self.chosen_t = obs.now
        self.chosen_objective = float(objective[i1])


def needed_set_table(ref):
    """The start threshold of every released set R, 2^n entries, as alg1 once
    kept it: the least half length per needed set, then per R the least of
    these over the needed sets R holds (inf if none), one request at a time."""
    table = np.full(1 << ref.ctx.n, np.inf)
    np.minimum.at(table, ref.needed_mask, ref.half)
    for j in range(ref.ctx.n):
        pairs = table.reshape(-1, 2, 1 << j)  # [high bits, bit j, low bits]
        np.minimum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return table


def _assert_frontier_thresholds(ref):
    """alg1's walk gives, for every released set, the reference's threshold."""
    pol = Alg1General()
    pol.begin(ref.ctx)
    table = needed_set_table(ref)
    for bits in range(1 << ref.ctx.n):
        assert pol._walk(bits, bin(bits).count("1"))[0] == table[bits], bits


def _alg1_choice(pol):
    return pol.chosen_t, pol.order, getattr(pol, "chosen_objective", None)


ALG1_KINDS = [("general", {}), ("general", {"asymmetric": True}), ("line", {}),
              ("star", {"ray_count": 3}), ("ring", {}), ("semiline", {})]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_instances(ALG1_KINDS, max_n=7))
def test_alg1_threshold_per_needed_set_matches_per_order(inst):
    ref, pol = PerOrderAlg1(), Alg1General()
    ref_out, out = simulate(inst, ref), simulate(inst, pol)
    assert _alg1_choice(pol) == _alg1_choice(ref)
    assert out.completion == ref_out.completion
    _assert_frontier_thresholds(ref)


@pytest.mark.parametrize("kind,sp", ALG1_KINDS)
def test_alg1_matches_per_order_at_eight_and_nine(kind, sp):
    for n in (8, 9):
        for variant in (OPEN, CLOSED):
            inst = generate_random(
                GenParams(n=n, seed=7900 + n, release_horizon=1.5, space_params=sp),
                kind, variant=variant,
            )
            points = [r.point for r in inst.requests]
            if variant == CLOSED:  # pairs of requests share a point
                points = [points[j - j % 2] for j in range(n)]
            releases = [r.release for r in inst.requests]
            inst = make_instance(inst.space, variant, list(zip(sorted(points), releases)))
            ref, pol = PerOrderAlg1(), Alg1General()
            ref_out, out = simulate(inst, ref), simulate(inst, pol)
            assert _alg1_choice(pol) == _alg1_choice(ref), (kind, n, variant)
            assert out.completion == ref_out.completion, (kind, n, variant)
            _assert_frontier_thresholds(ref)


def _at_cap(seed):
    params = GenParams(n=Alg1General.max_requests, seed=seed, release_horizon=1.0)
    return generate_random(params, "general", variant=CLOSED)


def _traced_peak(inst):
    tracemalloc.start()
    try:
        simulate(inst, Alg1General())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_alg1_memory_bounded_at_cap():
    lex_tree.cache_clear()  # count the order tree it builds as well
    ALG1_SPARES.clear()  # and the workspace
    assert _traced_peak(_at_cap(11)) < 40 * 2**20


def test_alg1_warm_run_allocates_no_workspace():
    simulate(_at_cap(11), Alg1General())  # leaves the spare workspace for n = 9
    assert _traced_peak(_at_cap(12)) < 4 * 2**20


def _alg1_arrays(pol):
    ws = pol.ws
    kept = ws.minhalf[:-3]  # the deeper levels read ``half``
    return [a.copy() for a in (*ws.prefix, ws.ell, ws.half, *kept)]


def test_alg1_workspaces_are_exclusive():
    """A second run that starts and commits while the first one waits gets a
    workspace of its own: the first run's arrays and choice are untouched."""
    first, second = _at_cap(21), _at_cap(22)
    alone = Alg1General()
    alone_out = simulate(first, alone)  # also leaves the spare workspace for n = 9
    seen = []

    class Interleaved(Alg1General):
        def begin(self, ctx):
            super().begin(ctx)
            before = _alg1_arrays(self)
            simulate(second, Alg1General())
            seen.append((before, _alg1_arrays(self)))

    pol = Interleaved()
    out = simulate(first, pol)
    (before, after), = seen
    assert [a.tobytes() for a in before] == [a.tobytes() for a in after]
    assert _alg1_choice(pol) == _alg1_choice(alone)
    assert out.completion == alone_out.completion


def _run(inst, policy):
    out = simulate(inst, policy)
    return out.completion, out.services, out.trajectory.waypoints


# Algorithm 2 (ring) ----------------------------------------------------------------


def test_alg2_single_clockwise_tour():
    inst = make_instance(Ring(1.0), CLOSED,
                         [(0.1, 0.0), (0.4, 0.0), (0.6, 0.0), (0.9, 0.0)])
    out = simulate(inst, Alg2Ring())
    assert out.completion == pytest.approx(1.0)
    assert opt_makespan(inst).makespan == pytest.approx(1.0)


def test_alg2_waits_for_lowest_late_release():
    inst = make_instance(Ring(1.0), CLOSED,
                         [(0.1, 2.0), (0.4, 0.0), (0.6, 0.0), (0.9, 0.0)])
    out = simulate(inst, Alg2Ring())
    assert out.completion == pytest.approx(2.1)
    assert out.completion == pytest.approx(opt_makespan(inst).makespan)


def test_alg2_line_like_delegates():
    inst = make_instance(Ring(1.0), CLOSED, [(0.2, 0.0), (0.8, 0.0)])
    pol = Alg2Ring()
    out = simulate(inst, pol)
    assert pol.delegate is not None
    assert verify_outcome(inst, out) == []


def test_alg2_line_like_past_alg1_cap_is_refused_before_any_step():
    inst = make_instance(Ring(1.0), CLOSED, [(0.04 * i, 0.0) for i in range(1, 11)])
    assert inst.space.max_gap_with_origin([r.point for r in inst.requests]) > 0.5 + EPS
    pol = Alg2Ring()
    pol.decide = lambda obs: pytest.fail("alg2-ring took a step")
    with pytest.raises(PairingError, match="policy 'alg1' handles at most 9 requests, got 10"):
        simulate(inst, pol)
    assert pol.delegate is not None and not hasattr(pol.delegate, "first_level")


def test_alg2_big_gap_far_lower_endpoint():
    # the lower endpoint of the empty arc is the farther one: mirrored run
    inst = make_instance(Ring(1.0), CLOSED, [(0.3, 2.0), (0.75, 0.0)])
    out = simulate(inst, Alg2Ring())
    assert out.completion == pytest.approx(2.3)
    assert out.completion == pytest.approx(opt_makespan(inst).makespan)


def test_alg2_big_gap_waits_at_far_endpoint():
    inst = make_instance(Ring(1.0), CLOSED, [(0.2, 0.0), (0.7, 3.0)])
    out = simulate(inst, Alg2Ring())
    assert out.completion == pytest.approx(3.3)


def test_alg2_big_gap_mops_up_passed_request():
    inst = make_instance(Ring(1.0), CLOSED, [(0.2, 5.0), (0.7, 0.0)])
    out = simulate(inst, Alg2Ring())
    assert out.completion == pytest.approx(5.2)
    assert out.completion == pytest.approx(opt_makespan(inst).makespan)


def test_alg2_requires_closed_ring():
    with pytest.raises(SimulationError):
        simulate(make_instance(SemiLine(), CLOSED, [(0.5, 0.0)]), Alg2Ring())
    with pytest.raises(SimulationError):
        simulate(make_instance(Ring(1.0), OPEN, [(0.5, 0.0)]), Alg2Ring())


def test_alg2_ratio_small_sweep():
    for seed in range(150):
        inst = generate_random(
            GenParams(n=2 + seed % 9, seed=9500 + seed, release_horizon=1.2,
                      space_params={"non_line_like": True}),
            "ring", variant=CLOSED,
        )
        out = simulate(inst, Alg2Ring())
        opt = opt_makespan(inst).makespan
        assert ratio_ok(out.completion, opt, 5 / 3), seed
        assert verify_outcome(inst, out) == []


# Algorithm 3 (star) -----------------------------------------------------------------


def test_alg3_long_ray_first():
    inst = make_instance(Star(3), CLOSED,
                         [((0, 0.5), 0.0), ((1, 0.3), 0.0), ((2, 0.2), 0.0)])
    out = simulate(inst, Alg3Star())
    assert out.completion == pytest.approx(2.0)
    assert opt_makespan(inst).makespan == pytest.approx(2.0)


def test_alg3_single_ray_matches_semiline_policy():
    inst = make_instance(Star(1), CLOSED, [((0, 1.0), 5.0)])
    out = simulate(inst, Alg3Star())
    assert out.completion == pytest.approx(6.0)


def test_alg3_budget_selection_snapshot():
    # six rays, lengths .2/.15/.2/.1/.2/.15; at the decision time the released
    # outer segments are .1/0/.15/.02/.1/.05
    reqs = [
        ((0, 0.2), 0.0), ((0, 0.1), 1.5),
        ((1, 0.15), 2.0), ((1, 0.05), 0.0),
        ((2, 0.2), 0.0), ((2, 0.05), 1.7),
        ((3, 0.1), 0.0), ((3, 0.08), 1.6),
        ((4, 0.2), 0.0), ((4, 0.1), 1.9),
        ((5, 0.15), 0.0), ((5, 0.1), 1.8),
    ]
    inst = make_instance(Star(6), CLOSED, reqs)
    pol = Alg3Star("exact")
    out = simulate(inst, pol)
    assert [round(s.length, 3) for s in pol.summaries] == [0.2, 0.15, 0.2, 0.1, 0.2, 0.15]
    assert [round(s.released_prefix, 3) for s in pol.summaries] == [0.1, 0.0, 0.15, 0.02, 0.1, 0.05]
    assert set(pol.chosen_rays) in ({0, 2, 3}, {2, 3, 4})
    total = sum(s.length for s in pol.summaries)
    assert sum(pol.summaries[j].length for j in pol.chosen_rays) <= total / 2 + 1e-9
    value = sum(pol.summaries[j].released_prefix for j in pol.chosen_rays)
    assert value == pytest.approx(0.27)
    assert verify_outcome(inst, out) == []
    assert ratio_ok(out.completion, opt_makespan(inst).makespan, 7 / 4)


def test_alg3_requires_closed_star():
    with pytest.raises(SimulationError):
        simulate(make_instance(Star(2), OPEN, [((0, 0.5), 0.0)]), Alg3Star())


@pytest.mark.parametrize("mode,bound", [("exact", 7 / 4), ("fptas", 7 / 4 + 0.1)])
def test_alg3_ratio_small_sweep(mode, bound):
    for seed in range(120):
        inst = generate_random(
            GenParams(n=1 + seed % 10, seed=9700 + seed, release_horizon=2.0,
                      space_params={"ray_count": 1 + seed % 6}),
            "star", variant=CLOSED,
        )
        out = simulate(inst, Alg3Star(mode, 0.1))
        opt = opt_makespan(inst).makespan
        assert ratio_ok(out.completion, opt, bound), (mode, seed)


class LiveMopAlg3(Alg3Star):
    """Reference alg3 ending: the inward sweep walks to the hub itself, and
    the final mop is re-derived on every step: deeper on the current ray, else
    home, else the deepest request on the lowest ray that has one."""

    def _sweep_in(self, obs, ray):
        pos = obs.position
        depth = pos[1] if isinstance(pos, tuple) and pos[0] == ray else 0.0
        act = next_stop(self.points, obs,
                        lambda p: depth - p[1] if p[0] == ray or p[1] <= EPS else None,
                        lambda p: MoveTo((ray, p[1])))
        if act is None and depth > EPS:
            return MoveTo((ray, 0.0))
        return act

    def _mop_step(self, obs):
        pos = obs.position
        left = [(r, d) for rid, (r, d) in self.points.items()
                if rid not in obs.served and d > EPS]
        if isinstance(pos, tuple) and pos[1] > EPS:
            deeper = [d for r, d in left if r == pos[0] and d > pos[1] + EPS]
            return MoveTo((pos[0], max(deeper)) if deeper else self.ctx.space.origin())
        if left:
            ray = min(r for r, _ in left)
            return MoveTo((ray, max(d for r, d in left if r == ray)))
        return WaitForRelease(None)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances([("star", {"ray_count": k}) for k in (1, 3, 6)], max_n=8),
       st.sampled_from(("exact", "fptas")))
def test_alg3_round_trip_mop_matches_live_mop(inst, mode):
    inst = replace(inst, variant=CLOSED)
    pol, ref = Alg3Star(mode), LiveMopAlg3(mode)
    assert _run(inst, pol) == _run(inst, ref)
    assert (pol.summaries, pol.chosen_rays) == (ref.summaries, ref.chosen_rays)


# Algorithm 4 (open semi-line) ---------------------------------------------------------


def test_alg4_all_released_sweeps_once():
    inst = make_instance(SemiLine(), OPEN, [(0.2, 0.0), (0.5, 0.0), (0.9, 0.0)])
    out = simulate(inst, make_policy("alg4-semiline"))
    assert out.completion == pytest.approx(0.9)


def test_alg4_commits_to_midpoint_then_goes_right():
    inst = make_instance(SemiLine(), OPEN, [(0.2, 10.0), (1.0, 0.0)])
    out = simulate(inst, make_policy("alg4-semiline"))
    assert out.completion == pytest.approx(10.0)
    assert out.completion == pytest.approx(opt_makespan(inst).makespan)


def test_alg4_turnaround_before_midpoint_deadline():
    inst = make_instance(SemiLine(), OPEN, [(0.1, 0.8), (1.0, 0.0)])
    out = simulate(inst, make_policy("alg4-semiline"))
    assert out.completion == pytest.approx(1.9)
    assert opt_makespan(inst).makespan == pytest.approx(1.7)


def test_alg4_right_branch_after_waiting():
    inst = make_instance(SemiLine(), OPEN, [(0.1, 1.2), (1.0, 0.0)])
    out = simulate(inst, make_policy("alg4-semiline"))
    assert out.completion == pytest.approx(2.4)
    assert opt_makespan(inst).makespan == pytest.approx(1.9)


def test_alg4_left_branch_after_waiting():
    inst = make_instance(SemiLine(), OPEN, [(0.1, 1.1), (1.0, 5.0)])
    out = simulate(inst, make_policy("alg4-semiline"))
    assert out.completion == pytest.approx(5.0)
    assert out.completion == pytest.approx(opt_makespan(inst).makespan)


def test_alg4_ratio_small_sweep():
    for seed in range(200):
        inst = generate_random(
            GenParams(n=1 + seed % 12, seed=9900 + seed, release_horizon=1.5),
            "semiline", variant=OPEN,
        )
        out = simulate(inst, make_policy("alg4-semiline"))
        opt = opt_makespan(inst).makespan
        assert ratio_ok(out.completion, opt, 13 / 9), seed
        assert verify_outcome(inst, out) == []


# Algorithm 5 (closed semi-line) --------------------------------------------------------


def test_alg5_examples():
    inst = make_instance(SemiLine(), CLOSED, [(1.0, 5.0)])
    assert simulate(inst, make_policy("alg5-semiline")).completion == pytest.approx(6.0)
    inst2 = make_instance(SemiLine(), CLOSED, [(0.5, 3.0), (1.0, 0.0)])
    out = simulate(inst2, make_policy("alg5-semiline"))
    assert out.completion == pytest.approx(3.5)
    assert out.completion == pytest.approx(opt_makespan(inst2).makespan)


def test_alg5_always_optimal_small_sweep():
    for seed in range(150):
        inst = generate_random(
            GenParams(n=seed % 12, seed=10100 + seed, release_horizon=2.0),
            "semiline", variant=CLOSED,
        )
        out = simulate(inst, make_policy("alg5-semiline"))
        opt = opt_makespan(inst).makespan
        assert abs(out.completion - opt) <= 1e-9, seed


class SweepHomeAlg5(Alg5Semiline):
    """Reference alg5 with its own inward sweep, which heads for the lowest
    unserved request behind the server, else home."""

    def __init__(self):
        self.steps = [("_out",), ("_sweep_home",)]

    def _sweep_home(self, obs):
        pos = obs.position
        act = next_stop(self.points, obs, lambda p: pos - p, MoveTo)
        if act is not None:
            return act
        lows = [p for rid, p in self.points.items() if rid not in obs.served and p <= pos + EPS]
        return MoveTo(min(lows, default=self.ctx.space.origin()))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances([("semiline", {})], max_n=8))
def test_alg5_shared_sweep_matches_sweep_home(inst):
    inst = replace(inst, variant=CLOSED)
    assert _run(inst, Alg5Semiline()) == _run(inst, SweepHomeAlg5())


# Baselines ------------------------------------------------------------------------


def test_wait_all_reference(example1):
    out = simulate(example1, make_policy("wait-all"))
    assert out.completion == pytest.approx(17.0)  # all released at 8, tour 9
    assert ratio_ok(out.completion, 12.0, 2.0)


def test_wait_all_zero_releases(example1):
    zero = Instance(
        space=example1.space, variant=CLOSED,
        requests=tuple(Request(r.id, r.point, 0.0) for r in example1.requests),
    )
    out = simulate(zero, make_policy("wait-all"))
    assert out.completion == pytest.approx(opt_makespan(zero).makespan)


def test_wait_all_single_request_open():
    for p, r in [(0.5, 0.0), (0.5, 2.0), (1.5, 0.3)]:
        inst = make_instance(SemiLine(), OPEN, [(p, r)])
        out = simulate(inst, make_policy("wait-all"))
        assert out.completion == pytest.approx(r + p)


def test_wait_all_ratio_small_sweep():
    for seed in range(100):
        kind = ["semiline", "line", "ring", "star", "general"][seed % 5]
        inst = generate_random(
            GenParams(n=1 + seed % 7, seed=10300 + seed, release_horizon=1.0),
            kind, variant=CLOSED if seed % 2 else OPEN,
        )
        out = simulate(inst, make_policy("wait-all"))
        opt = opt_makespan(inst).makespan
        assert ratio_ok(out.completion, opt, 2.0), (kind, seed)


def test_greedy_single_request_open():
    inst = make_instance(SemiLine(), OPEN, [(0.7, 0.0)])
    assert simulate(inst, make_policy("greedy")).completion == pytest.approx(0.7)


def test_greedy_tie_breaks_by_lower_id():
    from oltsp_lab.metric import Line

    inst = make_instance(Line(), OPEN, [(-0.5, 0.0), (0.5, 0.0)])
    out = simulate(inst, make_policy("greedy"))
    assert out.services[1] == pytest.approx(0.5)
    assert out.services[2] == pytest.approx(1.5)


# The step runner ---------------------------------------------------------------------


@pytest.mark.parametrize("name,kind,sp,variant", [
    ("alg1", "general", {}, CLOSED),
    ("alg2-ring", "ring", {}, CLOSED),
    ("alg2-ring", "ring", {"non_line_like": True}, CLOSED),
    ("alg3-star", "star", {"ray_count": 5}, CLOSED),
    ("alg3-star:fptas=0.1", "star", {"ray_count": 5}, CLOSED),
    ("alg4-semiline", "semiline", {}, OPEN),
    ("alg5-semiline", "semiline", {}, CLOSED),
    ("wait-all", "line", {}, CLOSED),
    ("greedy", "line", {}, OPEN),
])
def test_policy_freed_by_reference_counting(name, kind, sp, variant):
    # Steps stored as bound methods or closures would make each policy a
    # reference cycle, which only the cycle collector frees.
    gc.disable()
    try:
        for seed in range(20):
            inst = generate_random(GenParams(6, seed, 2.0, sp), kind, variant=variant)
            policy = make_policy(name)
            ref = weakref.ref(policy)
            simulate(inst, policy)
            del policy
            assert ref() is None, f"{name} seed {seed}"
    finally:
        gc.enable()


def test_route_out_of_steps_names_the_policy():
    class Idle(Route):
        name = "idle"

        def __init__(self):
            self.steps = [("all_released",)]

        def begin(self, ctx):
            self.ctx = ctx

    inst = make_instance(SemiLine(), CLOSED, [(0.5, 0.0)])
    with pytest.raises(SimulationError, match="'idle' ran out of steps"):
        simulate(inst, Idle())
