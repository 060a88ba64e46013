"""The four benchmark workloads: how job ``i`` of each is built, run and checked.

A job is a pure function of ``(i, seed)``.  The structural parameters (space
kind, variant, n, release horizon, adversary) cycle with ``i`` so that every
run sees the same mix; the seed only draws the instances themselves.  Each job
returns its result rows (``cli.BatchRow``, formatted through ``cli.report``)
and the list of check failures.  A job fails when a simulation raises,
``verify_outcome`` reports anything, a completion beats the offline optimum,
a policy exceeds its competitive bound, or the DP and the brute force disagree.

``tracer`` is ``None`` for timed runs; traced runs pass a
:class:`tracing.Tracer`, which wraps the policy and adversary objects a job
hands to the engine.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from oltsp_lab import adversaries, algorithms, cli, engine, instance, oracle
from oltsp_lab.instance import CLOSED, OPEN, GenParams, Instance
from oltsp_lab.metric import EPS

TOL = 1e-9
VARIANTS = (OPEN, CLOSED)
HORIZON_LADDER = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0)  # multiples of the diameter
SQRT2 = math.sqrt(2.0)

# Competitive bounds the paper proves; greedy has none.
BOUNDS: Dict[str, Optional[float]] = {
    "alg1": 3 / 2,
    "alg2-ring": 5 / 3,
    "alg3-star": 7 / 4,
    "alg3-star:fptas=0.1": 7 / 4 + 0.1,
    "alg4-semiline": 13 / 9,
    "alg5-semiline": 1.0,
    "wait-all": 2.0,
    "greedy": None,
}

Rows = List[cli.BatchRow]
Failures = List[str]


def job_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def _generate(kind: str, space_params: dict, n: int, seed: int, horizon: float,
              variant: str) -> Instance:
    params = GenParams(n=n, seed=seed, release_horizon=horizon, space_params=space_params)
    return instance.generate_random(params, kind, variant=variant)


def _ratio(completion: float, opt: float) -> float:
    if opt > EPS:
        return completion / opt
    return 1.0 if completion <= EPS else math.inf


def _record(rows: Rows, failures: Failures, seed: int, label: str,
            bound: Optional[float], completion: float, opt: float,
            problems: List[str]) -> None:
    ratio = _ratio(completion, opt)
    rows.append(cli.BatchRow(seed, label, completion, opt, ratio))
    where = f"{label}@{seed}"
    if problems:
        failures.append(f"{where}: verify_outcome: {problems[0]}")
    if completion < opt - TOL:
        failures.append(f"{where}: completion {completion!r} < opt {opt!r}")
    if bound is not None and ratio > bound + TOL:
        failures.append(f"{where}: ratio {ratio!r} > bound {bound!r}")


def _play(inst: Instance, name: str, opt: float, seed: int, tracer,
          rows: Rows, failures: Failures) -> None:
    policy = algorithms.make_policy(name)
    if tracer is not None:
        tracer.wrap_policy(policy)
    out = engine.simulate(inst, policy)
    problems = engine.verify_outcome(inst, out)
    _record(rows, failures, seed, name, BOUNDS[name], out.completion, opt, problems)


# sweep: the acceptance-style mix at small n ---------------------------------

BALANCED_RAYS = 16


def _balanced(inst: Instance) -> Instance:
    """Move every star point into the outer half of its ray, so ray lengths
    are even and most instances with five or more points reach alg3's
    knapsack case."""
    requests = tuple(replace(r, point=(r.point[0], 0.5 + r.point[1] / 2))
                     for r in inst.requests)
    return Instance(inst.space, inst.variant, requests)


SWEEP_SPACES = (
    ("semiline", {}, 1.0),
    ("line", {}, 2.0),
    ("ring", {"non_line_like": True}, 0.5),
    ("star", {"ray_count": 4}, 2.0),
    # alg3 reaches its knapsack case only when no ray holds a quarter of the
    # total ray length, which four rays never allow; this star is balanced.
    ("star", {"ray_count": BALANCED_RAYS}, 2.0),
    ("general", {}, SQRT2),
    ("general", {"asymmetric": True}, SQRT2),
)
SPECIALISED = {
    ("semiline", OPEN): ("alg4-semiline",),
    ("semiline", CLOSED): ("alg5-semiline",),
    ("ring", CLOSED): ("alg2-ring",),
    ("star", CLOSED): ("alg3-star", "alg3-star:fptas=0.1"),
}
BASELINES = ("alg1", "wait-all", "greedy")


def sweep_job(i: int, seed: int, tracer=None) -> Tuple[Rows, Failures]:
    # n cycles fastest (it sets the cost), then the space, then the horizon,
    # so that any stretch of a run holds the same mix.
    n = 2 + i % 7
    cfg = (i // 7) % 14
    kind, space_params, diameter = SWEEP_SPACES[cfg // 2]
    variant = VARIANTS[cfg % 2]
    s = job_seed(seed, i)
    inst = _generate(kind, space_params, n, s, HORIZON_LADDER[(i // 98) % 6] * diameter,
                     variant)
    if space_params.get("ray_count") == BALANCED_RAYS:
        inst = _balanced(inst)
    opt = oracle.opt_makespan(inst).makespan
    rows: Rows = []
    failures: Failures = []
    for name in SPECIALISED.get((kind, variant), ()) + BASELINES:
        _play(inst, name, opt, s, tracer, rows, failures)
    return rows, failures


# oracle-dp: the subset DP at large n ------------------------------------------

ORACLE_SPACES = (
    ("general", {}, SQRT2),
    ("general", {"asymmetric": True}, SQRT2),
    ("star", {"ray_count": 5}, 2.0),
    ("ring", {}, 0.5),
)


def oracle_dp_job(i: int, seed: int, tracer=None) -> Tuple[Rows, Failures]:
    n = 12 + i % 3
    cfg = (i // 3) % 8
    kind, space_params, diameter = ORACLE_SPACES[cfg // 2]
    variant = VARIANTS[cfg % 2]
    s = job_seed(seed, i)
    inst = _generate(kind, space_params, n, s, HORIZON_LADDER[(i // 24) % 6] * diameter,
                     variant)
    opt = oracle.opt_makespan(inst).makespan
    rows: Rows = []
    failures: Failures = []
    _play(inst, "wait-all", opt, s, tracer, rows, failures)
    return rows, failures


# enum: the two n! layers (alg1's order tables and the brute force) -----------------

ENUM_SPACES = (
    ("general", {}, SQRT2),
    ("general", {"asymmetric": True}, SQRT2),
    ("line", {}, 2.0),
    ("star", {"ray_count": 5}, 2.0),
)


def enum_job(i: int, seed: int, tracer=None) -> Tuple[Rows, Failures]:
    n = 8 + i % 2
    cfg = (i // 2) % 8
    kind, space_params, diameter = ENUM_SPACES[cfg // 2]
    variant = VARIANTS[cfg % 2]
    s = job_seed(seed, i)
    inst = _generate(kind, space_params, n, s, HORIZON_LADDER[(i // 16) % 6] * diameter,
                     variant)
    opt = oracle.opt_makespan(inst).makespan
    rows: Rows = []
    failures: Failures = []
    _play(inst, "alg1", opt, s, tracer, rows, failures)
    if n == 8:
        brute = oracle.opt_bruteforce(inst).makespan
        _record(rows, failures, s, "bruteforce", None, brute, opt, [])
        if brute != opt:
            failures.append(f"bruteforce@{s}: brute {brute!r} != dp {opt!r}")
    return rows, failures


# adversary: the engine's adaptive path ---------------------------------------------

ADVERSARY_PAIRS = (
    ("ring-open", "alg1"),
    ("ring-open", "greedy"),
    ("ring-open", "wait-all"),
    ("semiline-open-loc", "alg4-semiline"),
    ("semiline-open-loc", "alg1"),
    ("semiline-closed-count", "greedy"),
    ("semiline-closed-count", "wait-all"),
    ("semiline-open-count", "greedy"),
    ("semiline-open-count", "wait-all"),
    ("ring-closed-count", "greedy"),
    ("ring-closed-count", "wait-all"),
    ("star-count", "greedy"),
    ("star-count", "wait-all"),
)
EPSILON_CONSTRUCTIONS = ("ring-closed-count", "star-count")


def adversary_job(i: int, seed: int, tracer=None) -> Tuple[Rows, Failures]:
    adv_name, policy_name = ADVERSARY_PAIRS[i % len(ADVERSARY_PAIRS)]
    s = job_seed(seed, i)
    epsilon = None
    if adv_name in EPSILON_CONSTRUCTIONS:
        epsilon = random.Random(s).uniform(0.5, 1.0)
    adversary = adversaries.make_adversary(adv_name, epsilon)
    policy = algorithms.make_policy(policy_name)
    if tracer is not None:
        tracer.wrap_adversary(adversary)
        tracer.wrap_policy(policy)
    run = adversaries.run_adversary(adversary, policy)
    # Check against the realized releases under engine ids: ``materialized``
    # renumbers requests by position, which ``outcome.services`` does not.
    realized = Instance(adversary.space, adversary.variant, run.outcome.realized)
    problems = engine.verify_outcome(realized, run.outcome)
    rows: Rows = []
    failures: Failures = []
    _record(rows, failures, s, f"{adv_name}/{policy_name}", BOUNDS[policy_name],
            run.forced_completion, run.opt_completion, problems)
    return rows, failures


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[..., Tuple[Rows, Failures]]
    warmup: int  # jobs 0..warmup-1 cover every size, so they fill the per-n caches
    trace_jobs_per_s: float  # jobs of a traced run per second of --seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_job, warmup=7, trace_jobs_per_s=30.0),
        Workload("oracle-dp", oracle_dp_job, warmup=3, trace_jobs_per_s=8.0),
        Workload("enum", enum_job, warmup=2, trace_jobs_per_s=1.6),
        Workload("adversary", adversary_job, warmup=len(ADVERSARY_PAIRS),
                 trace_jobs_per_s=50.0),
    )
}


def run(w: Workload, i: int, seed: int, tracer=None) -> Tuple[str, Failures]:
    """Job ``i`` of ``w``: its result rows formatted by ``cli.report``, and its failures."""
    rows, failures = w.job(i, seed, tracer)
    return cli.report(rows, "csv", None), failures
