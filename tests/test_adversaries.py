import pytest

from oltsp_lab import simulate, validate_instance
from oltsp_lab.adversaries import make_adversary, run_adversary
from oltsp_lab.algorithms import make_policy
from oltsp_lab.engine import SimulationError


def run(name, policy, epsilon=None):
    return run_adversary(make_adversary(name, epsilon), make_policy(policy))


# Open ring ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["alg1", "greedy", "wait-all"])
def test_ring_open_forces_three_halves(policy):
    r = run("ring-open", policy)
    assert r.opt_completion == pytest.approx(2 / 3, abs=1e-9)
    assert r.forced_ratio >= 1.5 - 1e-6
    assert validate_instance(r.materialized) == []


def test_ring_open_replay_consistency():
    for policy in ["alg1", "greedy"]:
        r = run("ring-open", policy)
        replay = simulate(r.materialized, make_policy(policy))
        assert replay.completion == pytest.approx(r.forced_completion, abs=1e-9)
        assert replay.services == pytest.approx(r.outcome.services)


# Closed ring, count only ----------------------------------------------------------


@pytest.mark.parametrize("policy", ["greedy", "wait-all"])
def test_ring_closed_count_forces_two_minus_eps(policy):
    r = run("ring-closed-count", policy, epsilon=0.5)
    assert r.materialized.n == 13
    assert r.opt_completion == pytest.approx(1.0, abs=1e-9)
    assert r.forced_ratio >= 1.5 - 1e-9
    assert validate_instance(r.materialized) == []


def test_ring_closed_count_replay_completion():
    for policy in ["greedy", "wait-all"]:
        r = run("ring-closed-count", policy, epsilon=0.5)
        replay = simulate(r.materialized, make_policy(policy))
        assert replay.completion == pytest.approx(r.forced_completion, abs=1e-9)


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


def test_star_count_replay_consistency():
    r = run("star-count", "greedy", epsilon=0.5)
    replay = simulate(r.materialized, make_policy("greedy"))
    assert replay.completion == pytest.approx(r.forced_completion, abs=1e-9)
    assert replay.services == pytest.approx(r.outcome.services)


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


def test_semiline_open_loc_replay():
    r = run("semiline-open-loc", "alg4-semiline")
    replay = simulate(r.materialized, make_policy("alg4-semiline"))
    assert replay.completion == pytest.approx(r.forced_completion, abs=1e-9)
    assert replay.services == pytest.approx(r.outcome.services)


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
