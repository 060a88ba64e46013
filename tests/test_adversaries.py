import pytest

from oltsp_lab import MoveTo, WaitUntil, simulate, validate_instance
from oltsp_lab.adversaries import make_adversary, run_adversary
from oltsp_lab.algorithms import Greedy, make_policy
from oltsp_lab.engine import SimulationError
from oltsp_lab.metric import EPS


def run(name, policy, epsilon=None):
    return run_adversary(make_adversary(name, epsilon), make_policy(policy))


# Open ring ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["alg1", "greedy", "wait-all"])
def test_ring_open_forces_three_halves(policy):
    r = run("ring-open", policy)
    assert r.opt_completion == pytest.approx(2 / 3, abs=1e-9)
    assert r.forced_ratio >= 1.5 - 1e-6
    assert validate_instance(r.materialized) == []


# Closed ring, count only ----------------------------------------------------------


@pytest.mark.parametrize("policy", ["greedy", "wait-all"])
def test_ring_closed_count_forces_two_minus_eps(policy):
    r = run("ring-closed-count", policy, epsilon=0.5)
    assert r.materialized.n == 13
    assert r.opt_completion == pytest.approx(1.0, abs=1e-9)
    assert r.forced_ratio >= 1.5 - 1e-9
    assert validate_instance(r.materialized) == []


@pytest.mark.parametrize("epsilon", [0.15, 0.05, 0.03, 0.01, 0.005])
def test_ring_closed_count_backfills_the_covered_side(epsilon):
    # Greedy's first move ties between the seeds next to the origin, and at
    # these epsilons float rounding sends it counter-clockwise; it reaches the
    # antipode at t = 1/2, where its position alone does not tell the side.
    out = simulate(make_adversary("ring-closed-count", epsilon), make_policy("greedy"))
    _, first = min((t, rid) for rid, t in out.services.items() if t > 0)
    assert out.realized[first - 1].point > 0.5
    assert out.completion >= 2 - epsilon


def test_ring_closed_count_rejects_location_policies():
    with pytest.raises(SimulationError, match="locations"):
        run("ring-closed-count", "alg1", epsilon=0.5)


def test_ring_closed_count_seed_spacing():
    # n = 6*ceil(1/eps)+1 exceeds the oracle cap below eps=0.5, so check the
    # construction itself without an optimum.
    from oltsp_lab.adversaries import materialize

    adv = make_adversary("ring-closed-count", 0.25)
    out = simulate(adv, make_policy("greedy"))
    inst = materialize(adv, out)
    assert inst.n == 25
    zero_released = sorted(q.point for q in inst.requests if q.release == 0.0)
    gaps = [b - a for a, b in zip(zero_released, zero_released[1:])]
    assert max(gaps) <= 0.25 / 4 + 1e-9
    assert validate_instance(inst) == []


# Star, count only -----------------------------------------------------------------


def test_star_count_vs_greedy():
    r = run("star-count", "greedy", epsilon=0.5)
    k = 7
    assert r.materialized.n == 14
    assert r.opt_completion <= 2 * k + 2 + 1e-9
    assert r.forced_completion >= 4 * k - 3 - 1e-9
    assert r.forced_ratio >= 25 / 16 - 1e-9


def test_star_count_rejects_location_policies():
    with pytest.raises(SimulationError, match="locations"):
        run("star-count", "alg3-star", epsilon=0.5)


# Semi-line, locations announced ------------------------------------------------------


def test_semiline_open_loc_vs_alg4():
    r = run("semiline-open-loc", "alg4-semiline")
    assert r.opt_completion == pytest.approx(2.0, abs=1e-9)
    assert r.forced_completion >= 8 / 3 - 1e-9
    assert 4 / 3 - 1e-9 <= r.forced_ratio <= 13 / 9 + 1e-9


def test_semiline_open_loc_vs_greedy():
    r = run("semiline-open-loc", "greedy")
    assert r.opt_completion == pytest.approx(2.0, abs=1e-9)
    assert r.forced_ratio >= 4 / 3 - 1e-9


# Semi-line, count only ----------------------------------------------------------------


def test_semiline_closed_count_vs_greedy():
    r = run("semiline-closed-count", "greedy")
    assert r.forced_ratio >= 4 / 3 - 1e-9


def test_semiline_open_count_vs_greedy():
    r = run("semiline-open-count", "greedy")
    assert r.forced_ratio >= 1.5 - 1e-9


def test_semiline_open_count_vs_wait_all():
    r = run("semiline-open-count", "wait-all")
    # the idle server sits at the origin, so the request lands at the far end
    assert r.materialized.requests[0].point == pytest.approx(1.0)
    assert r.opt_completion == pytest.approx(1.0)
    assert r.forced_ratio == pytest.approx(2.0)


# Shared contract ------------------------------------------------------------------


def test_forced_ratio_is_quotient():
    r = run("semiline-closed-count", "greedy")
    assert r.forced_ratio == pytest.approx(r.forced_completion / r.opt_completion)


def _service_times(requests, services):
    """Each request's service time, keyed by its point and release, so that
    runs which number the same requests differently compare."""
    return sorted(((q.point, q.release), services[q.id]) for q in requests)


REPLAYS = [  # (construction, policy, epsilon): every construction at least once
    ("ring-open", "alg1", None),
    ("ring-open", "greedy", None),
    ("ring-closed-count", "greedy", 0.5),
    ("ring-closed-count", "wait-all", 0.5),
    ("star-count", "greedy", 0.5),
    ("semiline-open-loc", "alg4-semiline", None),
    ("semiline-closed-count", "greedy", None),
    ("semiline-open-count", "greedy", None),
] + [  # greedy meets distance ties here; the replay numbers requests by position
    ("ring-closed-count", "greedy", eps) for eps in (1.0, 0.75, 0.3, 0.25)
]


@pytest.mark.parametrize("name,policy,eps", REPLAYS, ids=[
    f"{name}-{policy}" if eps in (None, 0.5) else f"{name}-{policy}-{eps}"
    for name, policy, eps in REPLAYS
])
def test_replay_matches_run(name, policy, eps):
    r = run(name, policy, eps)
    replay = simulate(r.materialized, make_policy(policy))
    assert replay.completion == pytest.approx(r.forced_completion, abs=1e-9)
    got = _service_times(r.materialized.requests, replay.services)
    want = _service_times(r.outcome.realized, r.outcome.services)
    assert [k for k, _ in got] == [k for k, _ in want]
    assert [t for _, t in got] == pytest.approx([t for _, t in want], abs=1e-9)


def test_materialized_instances_are_valid_everywhere():
    pairs = [
        ("ring-open", "greedy", None),
        ("ring-closed-count", "greedy", 0.5),
        ("star-count", "greedy", 0.5),
        ("semiline-open-loc", "greedy", None),
        ("semiline-closed-count", "greedy", None),
        ("semiline-open-count", "greedy", None),
    ]
    for name, policy, eps in pairs:
        r = run(name, policy, eps)
        assert validate_instance(r.materialized) == [], name
        # causality: nothing released before it could have been decided
        assert all(q.release >= -1e-12 for q in r.materialized.requests)


# Every branch of the fixed-time constructions -----------------------------------------


class _Parked(Greedy):
    """Goes to ``spot`` and waits there until ``until``, then runs greedy."""

    def __init__(self, spot, until):
        self.spot, self.until = spot, until

    def decide(self, obs):
        if obs.now >= self.until - EPS:
            return super().decide(obs)
        if self.ctx.space.unchecked_distance(obs.position, self.spot) > EPS:
            return MoveTo(self.spot)
        return WaitUntil(self.until)


# name: (construction, spot, parked until, realized (id, point, release)).  The
# middle semi-line cases stay parked through the second decision at 7/6.
BRANCHES = {
    "ring-open-near-two-thirds": (
        "ring-open", 0.9, 1 / 3, [(1, 1 / 3, 1 / 3), (2, 2 / 3, 2 / 3)]),
    "ring-open-near-one-third": (
        "ring-open", 0.1, 1 / 3, [(1, 1 / 3, 2 / 3), (2, 2 / 3, 1 / 3)]),
    "semiline-open-loc-near-origin": (
        "semiline-open-loc", 0.1, 1.0,
        [(1, 0.0, 2.0), (2, 1 / 6, 11 / 6), (3, 5 / 6, 7 / 6), (4, 1.0, 1.0)]),
    "semiline-open-loc-near-end": (
        "semiline-open-loc", 0.9, 1.0,
        [(1, 0.0, 1.0), (2, 1 / 6, 7 / 6), (3, 5 / 6, 11 / 6), (4, 1.0, 2.0)]),
    "semiline-open-loc-middle-then-low": (
        "semiline-open-loc", 0.3, 7 / 6,
        [(1, 0.0, 1.0), (2, 1 / 6, 11 / 6), (3, 5 / 6, 7 / 6), (4, 1.0, 1.0)]),
    "semiline-open-loc-middle-then-high": (
        "semiline-open-loc", 0.7, 7 / 6,
        [(1, 0.0, 1.0), (2, 1 / 6, 7 / 6), (3, 5 / 6, 11 / 6), (4, 1.0, 1.0)]),
    "semiline-closed-count-home": ("semiline-closed-count", 0.0, 1.0, [(1, 1.0, 1.0)]),
    "semiline-closed-count-out": ("semiline-closed-count", 0.5, 1.0, [(1, 0.0, 1.0)]),
    "semiline-open-count-home": ("semiline-open-count", 0.0, 1.0, [(1, 1.0, 1.0)]),
    "semiline-open-count-out": ("semiline-open-count", 0.6, 1.0, [(1, 0.0, 1.0)]),
}


@pytest.mark.parametrize("name,spot,until,realized", BRANCHES.values(), ids=BRANCHES)
def test_fixed_time_construction_branch(name, spot, until, realized):
    out = simulate(make_adversary(name), _Parked(spot, until))
    assert [(q.id, q.point, q.release) for q in out.realized] == realized
