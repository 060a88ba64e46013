"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Each criterion is one test; `pytest -v` gives the per-criterion pass/fail
lines, and each test also prints an `ACCEPTANCE n: PASS` line (visible
with `-s`).  The large sweeps run once via module-scoped fixtures.
"""
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from conftest import EX1_MATRIX
from oltsp_lab import (
    CLOSED,
    OPEN,
    GenParams,
    Instance,
    Request,
    generate_random,
    opt_bruteforce,
    opt_makespan,
    simulate,
    verify_outcome,
)
from oltsp_lab.adversaries import make_adversary, run_adversary
from oltsp_lab.algorithms import (
    Alg1General,
    knapsack_offer,
    knapsack_select,
    make_policy,
)
from oltsp_lab.cli import run_cli
from oltsp_lab.metric import General

TOL = 1e-9
HORIZON_LADDER = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0)


@dataclass
class SuiteStats:
    count: int = 0
    max_excess: Dict[str, float] = field(default_factory=dict)  # completion - bound*opt
    max_ratio: Dict[str, float] = field(default_factory=dict)
    alg5_gap: float = 0.0
    verify_failures: List[str] = field(default_factory=list)
    dominance_failures: List[str] = field(default_factory=list)
    knapsack_ok: bool = True


def _run_policies(stats: SuiteStats, inst: Instance, seed: int, policies):
    opt = opt_makespan(inst).makespan
    for name, bound in policies:
        out = simulate(inst, make_policy(name))
        bad = verify_outcome(inst, out)
        if bad:
            stats.verify_failures.append(f"{name}@{seed}: {bad[:1]}")
        if out.completion < opt - TOL:
            stats.dominance_failures.append(f"{name}@{seed}")
        excess = out.completion - bound * opt
        stats.max_excess[name] = max(stats.max_excess.get(name, -math.inf), excess)
        if opt > TOL:
            stats.max_ratio[name] = max(
                stats.max_ratio.get(name, 0.0), out.completion / opt
            )
        if name == "alg5-semiline":
            stats.alg5_gap = max(stats.alg5_gap, abs(out.completion - opt))
    stats.count += 1
    return opt


@pytest.fixture(scope="module")
def general_suite():
    """Criterion 2 sweep: all six space kinds, both variants, mixed horizons."""
    stats = SuiteStats()
    kinds = [
        ("semiline", {}, 1.0),
        ("line", {}, 2.0),
        ("ring", {}, 0.5),
        ("star", {"ray_count": 4}, 2.0),
        ("general", {}, math.sqrt(2)),
        ("general", {"asymmetric": True}, math.sqrt(2)),
    ]
    per_config = 850
    for k, (kind, sp, diam) in enumerate(kinds):
        for v, variant in enumerate((OPEN, CLOSED)):
            for i in range(per_config):
                seed = 100_000 + k * 20_000 + v * 10_000 + i
                n = 1 + i % 8
                horizon = HORIZON_LADDER[i % 6] * diam
                inst = generate_random(
                    GenParams(n=n, seed=seed, release_horizon=horizon, space_params=sp),
                    kind, variant=variant,
                )
                _run_policies(stats, inst, seed, [("alg1", 1.5), ("wait-all", 2.0)])
    return stats


@pytest.fixture(scope="module")
def ring_suite():
    """Criterion 3 sweep: closed ring instances that need the full loop."""
    stats = SuiteStats()
    for i in range(10_000):
        seed = 300_000 + i
        inst = generate_random(
            GenParams(n=2 + i % 9, seed=seed,
                      release_horizon=HORIZON_LADDER[i % 6] * 0.5,
                      space_params={"non_line_like": True}),
            "ring", variant=CLOSED,
        )
        _run_policies(stats, inst, seed, [("alg2-ring", 5 / 3), ("wait-all", 2.0)])
    return stats


@pytest.fixture(scope="module")
def star_suite():
    """Criterion 4 sweep, including the per-instance knapsack cross-check."""
    stats = SuiteStats()
    for i in range(10_000):
        seed = 400_000 + i
        k = 1 + i % 8
        inst = generate_random(
            GenParams(n=1 + i % 12, seed=seed,
                      release_horizon=HORIZON_LADDER[i % 6] * 2.0,
                      space_params={"ray_count": k}),
            "star", variant=CLOSED,
        )
        _run_policies(
            stats, inst, seed,
            [("alg3-star:exact", 1.75), ("alg3-star:fptas=0.1", 1.85), ("wait-all", 2.0)],
        )
        points = {r.id: r.point for r in inst.requests}
        total = sum(it.weight for it in knapsack_offer(points, set()))
        released = {r.id for r in inst.requests if r.release <= total}
        items = knapsack_offer(points, released)
        exact = knapsack_select(items, total / 2, "exact")
        approx = knapsack_select(items, total / 2, "fptas", eps=0.1)
        if approx.value < 0.9 * exact.value - 1e-12:
            stats.knapsack_ok = False
    return stats


@pytest.fixture(scope="module")
def semiline_open_suite():
    stats = SuiteStats()
    for i in range(10_000):
        seed = 500_000 + i
        inst = generate_random(
            GenParams(n=1 + i % 12, seed=seed,
                      release_horizon=HORIZON_LADDER[i % 6]),
            "semiline", variant=OPEN,
        )
        _run_policies(stats, inst, seed, [("alg4-semiline", 13 / 9), ("wait-all", 2.0)])
    return stats


@pytest.fixture(scope="module")
def semiline_closed_suite():
    stats = SuiteStats()
    for i in range(10_000):
        seed = 600_000 + i
        inst = generate_random(
            GenParams(n=1 + i % 12, seed=seed,
                      release_horizon=HORIZON_LADDER[i % 6]),
            "semiline", variant=CLOSED,
        )
        _run_policies(stats, inst, seed, [("alg5-semiline", 1.0), ("wait-all", 2.0)])
    return stats


def test_criterion_01_reference_replay():
    started = time.perf_counter()
    ex1 = Instance(
        space=General.from_rows(EX1_MATRIX),
        variant=CLOSED,
        requests=(Request(1, 1, 2.0), Request(2, 2, 6.0), Request(3, 3, 8.0)),
    )
    brute = opt_bruteforce(ex1)
    assert brute.makespan == pytest.approx(12.0, abs=TOL)
    dp = opt_makespan(ex1)
    assert dp.makespan == brute.makespan
    assert dp.order == (1, 2, 3)

    pol = Alg1General()
    out = simulate(ex1, pol)
    assert pol.chosen_t == pytest.approx(6.0, abs=TOL)
    assert pol.order == [2, 1, 3]
    assert out.completion == pytest.approx(15.0, abs=TOL)
    # Start time 6 plus legs 2/3/1/3 of the chosen tour: services at 8, 11, 12.
    # (The distances force these: a leg table admitting service at 7 and 10
    # would put the decision time strictly below 6.)
    assert out.services[2] == pytest.approx(8.0, abs=TOL)
    assert out.services[1] == pytest.approx(11.0, abs=TOL)
    assert out.services[3] == pytest.approx(12.0, abs=TOL)
    assert verify_outcome(ex1, out) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS (T=6, order q2-q1-q3, completion 15, opt 12, {elapsed:.3f}s)")


def test_criterion_02_general_three_halves(general_suite):
    s = general_suite
    assert s.count >= 10_000
    assert not s.verify_failures, s.verify_failures[:3]
    assert not s.dominance_failures, s.dominance_failures[:3]
    assert s.max_excess["alg1"] <= TOL
    print(f"\nACCEPTANCE 2: PASS ({s.count} instances, alg1 max ratio "
          f"{s.max_ratio['alg1']:.9f} <= 1.5)")


def test_criterion_03_ring_five_thirds(ring_suite):
    s = ring_suite
    assert s.count >= 10_000
    assert not s.verify_failures, s.verify_failures[:3]
    assert s.max_excess["alg2-ring"] <= TOL
    print(f"\nACCEPTANCE 3: PASS ({s.count} instances, alg2 max ratio "
          f"{s.max_ratio['alg2-ring']:.9f} <= {5/3:.9f})")


def test_criterion_04_star_seven_fourths(star_suite):
    s = star_suite
    assert s.count >= 10_000
    assert not s.verify_failures, s.verify_failures[:3]
    assert s.max_excess["alg3-star:exact"] <= TOL
    assert s.max_excess["alg3-star:fptas=0.1"] <= TOL
    assert s.knapsack_ok
    print(f"\nACCEPTANCE 4: PASS ({s.count} instances, exact max ratio "
          f"{s.max_ratio['alg3-star:exact']:.9f} <= 1.75, fptas max ratio "
          f"{s.max_ratio['alg3-star:fptas=0.1']:.9f} <= 1.85, knapsack ok)")


def test_criterion_05_semiline_open_thirteen_ninths(semiline_open_suite):
    s = semiline_open_suite
    assert s.count >= 10_000
    assert not s.verify_failures, s.verify_failures[:3]
    assert s.max_excess["alg4-semiline"] <= TOL
    print(f"\nACCEPTANCE 5: PASS ({s.count} instances, alg4 max ratio "
          f"{s.max_ratio['alg4-semiline']:.9f} <= {13/9:.9f})")


def test_criterion_06_semiline_closed_optimal(semiline_closed_suite):
    s = semiline_closed_suite
    assert s.count >= 10_000
    assert not s.verify_failures, s.verify_failures[:3]
    assert s.alg5_gap <= TOL
    print(f"\nACCEPTANCE 6: PASS ({s.count} instances, max |alg5 - opt| = "
          f"{s.alg5_gap:.2e})")


def test_criterion_07_wait_all_two(general_suite, ring_suite, star_suite,
                                    semiline_open_suite, semiline_closed_suite):
    worst = 0.0
    for s in (general_suite, ring_suite, star_suite, semiline_open_suite,
              semiline_closed_suite):
        assert s.max_excess["wait-all"] <= TOL
        worst = max(worst, s.max_ratio["wait-all"])
    print(f"\nACCEPTANCE 7: PASS (wait-all max ratio {worst:.9f} <= 2)")


def test_criterion_08_adversary_forced_ratios():
    checks = []

    for policy in ("alg1", "greedy", "wait-all"):
        r = run_adversary(make_adversary("ring-open"), make_policy(policy))
        assert r.opt_completion == pytest.approx(2 / 3, abs=TOL)
        assert r.forced_ratio >= 1.5 - 1e-6, policy
        assert r.forced_completion >= r.opt_completion - TOL
        checks.append(f"ring-open/{policy}={r.forced_ratio:.4f}")

    for policy in ("greedy", "wait-all"):
        r = run_adversary(make_adversary("ring-closed-count", 0.5), make_policy(policy))
        assert r.opt_completion == pytest.approx(1.0, abs=TOL)
        assert r.forced_ratio >= 1.5 - TOL, policy
        checks.append(f"ring-closed-count/{policy}={r.forced_ratio:.4f}")

    r = run_adversary(make_adversary("star-count", 0.5), make_policy("greedy"))
    assert r.materialized.n == 14 and r.materialized.space.ray_count == 7
    assert r.opt_completion <= 16 + TOL
    assert r.forced_ratio >= 25 / 16 - TOL
    checks.append(f"star-count/greedy={r.forced_ratio:.4f}")

    r = run_adversary(make_adversary("semiline-open-loc"), make_policy("alg4-semiline"))
    assert r.opt_completion == pytest.approx(2.0, abs=TOL)
    assert r.forced_ratio >= 4 / 3 - TOL
    checks.append(f"semiline-open-loc/alg4={r.forced_ratio:.4f}")

    r = run_adversary(make_adversary("semiline-closed-count"), make_policy("greedy"))
    assert r.forced_ratio >= 4 / 3 - TOL
    checks.append(f"semiline-closed-count/greedy={r.forced_ratio:.4f}")

    r = run_adversary(make_adversary("semiline-open-count"), make_policy("greedy"))
    assert r.forced_ratio >= 1.5 - TOL
    checks.append(f"semiline-open-count/greedy={r.forced_ratio:.4f}")

    print("\nACCEPTANCE 8: PASS (" + ", ".join(checks) + ")")


def test_criterion_09_oracle_equivalence(general_suite, ring_suite, star_suite,
                                          semiline_open_suite, semiline_closed_suite):
    kinds = [
        ("semiline", {}),
        ("line", {}),
        ("ring", {}),
        ("star", {"ray_count": 4}),
        ("general", {}),
        ("general", {"asymmetric": True}),
    ]
    checked = 0
    for k, (kind, sp) in enumerate(kinds):
        for i in range(1_000):
            seed = 700_000 + k * 10_000 + i
            inst = generate_random(
                GenParams(n=i % 9, seed=seed, release_horizon=1.0 + (i % 3),
                          space_params=sp),
                kind, variant=CLOSED if i % 2 else OPEN,
            )
            assert opt_makespan(inst).makespan == opt_bruteforce(inst).makespan, (
                kind, seed)
            checked += 1
    for s in (general_suite, ring_suite, star_suite, semiline_open_suite,
              semiline_closed_suite):
        assert not s.dominance_failures, s.dominance_failures[:3]
    print(f"\nACCEPTANCE 9: PASS ({checked} instances, subset DP == brute force "
          "exactly; oracle dominance everywhere)")


def test_criterion_10_soundness_and_replay(tmp_path, general_suite, ring_suite,
                                            star_suite, semiline_open_suite,
                                            semiline_closed_suite):
    for s in (general_suite, ring_suite, star_suite, semiline_open_suite,
              semiline_closed_suite):
        assert not s.verify_failures, s.verify_failures[:3]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "batch", "--kind", "ring", "--variant", "closed", "--policy", "alg2-ring",
        "--count", "100", "--seed", "123", "--bound", str(5 / 3), "--n", "7",
        "--non-line-like", "--horizon", "0.8",
    ]
    assert run_cli(argv + ["--out", str(out_a)]) == 0
    assert run_cli(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("\nACCEPTANCE 10: PASS (all trajectories verified; reports byte-identical)")
