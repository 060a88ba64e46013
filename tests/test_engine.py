import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, tie_heavy_instances
from oltsp_lab import (
    CLOSED,
    COUNT_KNOWN,
    LOCATIONS_KNOWN,
    OPEN,
    GenParams,
    Instance,
    MoveTo,
    Outcome,
    PairingError,
    Request,
    SimulationError,
    Trajectory,
    WaitUntil,
    check_pairing,
    generate_random,
    simulate,
    verify_outcome,
)
from oltsp_lab import engine
from oltsp_lab.adversaries import TableAdversary
from oltsp_lab.algorithms import Alg1General, Greedy, make_policy
from oltsp_lab.engine import Adversary, Emission, Policy, Waypoint
from oltsp_lab.cli import run_cli
from oltsp_lab.metric import EPS, SPACE_KINDS, Line, MetricError, SemiLine


def test_reference_run_alg1(example1):
    pol = Alg1General()
    out = simulate(example1, pol)
    assert out.completion == pytest.approx(15.0, abs=1e-9)
    assert out.services[2] == pytest.approx(8.0, abs=1e-9)
    assert out.services[1] == pytest.approx(11.0, abs=1e-9)
    assert out.services[3] == pytest.approx(12.0, abs=1e-9)
    assert verify_outcome(example1, out) == []


@pytest.mark.parametrize("policy", ["alg1", "wait-all", "greedy", "alg5-semiline"])
def test_empty_instance_completes_at_zero(policy):
    inst = Instance(space=SemiLine(), variant=CLOSED, requests=())
    out = simulate(inst, make_policy(policy))
    assert out.completion == 0.0
    assert verify_outcome(inst, out) == []


def test_single_request_alg5():
    inst = make_instance(SemiLine(), CLOSED, [(1.0, 5.0)])
    out = simulate(inst, make_policy("alg5-semiline"))
    assert out.completion == pytest.approx(6.0)


def test_verify_catches_premature_service():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 5.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 1.0, "serve", 1),
    ))
    bad = Outcome(1.0, {1: 1.0}, traj, inst.requests)
    assert any("premature" in v for v in verify_outcome(inst, bad))


def test_verify_catches_open_ending_off_origin_closed():
    inst = make_instance(SemiLine(), CLOSED, [(1.0, 0.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 1.0, "serve", 1),
    ))
    bad = Outcome(1.0, {1: 1.0}, traj, inst.requests)
    assert any("origin" in v for v in verify_outcome(inst, bad))


def test_verify_catches_superluminal_motion():
    inst = make_instance(SemiLine(), OPEN, [(4.0, 0.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 4.0, "serve", 1),
    ))
    bad = Outcome(1.0, {1: 1.0}, traj, inst.requests)
    assert any("unit speed" in v or "superluminal" in v for v in verify_outcome(inst, bad))


def _semiline_outcome(completion, services, *waypoints):
    """An outcome for the open semi-line request at 1 released at 0."""
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    traj = Trajectory(inst.space, tuple(Waypoint(*w) for w in waypoints))
    return inst, Outcome(completion, services, traj, inst.requests)


VERIFY_REFUSALS = {  # name: (outcome arguments, the issue it must raise)
    "late-start": ((1.5, {1: 1.5}, (0.5, 0.0, "start"), (1.5, 1.0, "serve", 1)),
                   "trajectory does not start at time 0"),
    "start-off-origin": ((0.5, {1: 0.5}, (0.0, 0.5, "start"), (0.5, 1.0, "serve", 1)),
                         "trajectory does not start at the origin"),
    "time-backwards": ((1.0, {1: 1.0}, (0.0, 0.0, "start"), (1.0, 1.0, "serve", 1),
                        (0.5, 1.0, "wait")),
                       "time goes backwards at 0.5"),
    "serve-away": ((0.5, {1: 0.5}, (0.0, 0.0, "start"), (0.5, 0.5, "serve", 1)),
                   "serve waypoint for 1 away from its request"),
    "serve-off-services": ((2.0, {1: 2.0}, (0.0, 0.0, "start"), (1.0, 1.0, "serve", 1),
                            (2.0, 1.0, "wait")),
                           "serve waypoint for 1 disagrees with services"),
    "completion-before-service": ((0.5, {1: 1.0}, (0.0, 0.0, "start"),
                                   (1.0, 1.0, "serve", 1)),
                                  "completion earlier than the last service"),
    "completion-off-trajectory": ((1.0, {1: 1.0}, (0.0, 0.0, "start"),
                                   (1.0, 1.0, "serve", 1), (2.0, 1.0, "wait")),
                                  "completion disagrees with the trajectory's final time"),
    "open-completion-after-service": ((2.0, {1: 1.0}, (0.0, 0.0, "start"),
                                       (1.0, 1.0, "serve", 1), (2.0, 1.0, "wait")),
                                      "open completion is not the last service time"),
}


@pytest.mark.parametrize("name", VERIFY_REFUSALS)
def test_verify_refuses(name):
    args, issue = VERIFY_REFUSALS[name]
    assert issue in verify_outcome(*_semiline_outcome(*args))


def test_replay_determinism(example1):
    a = simulate(example1, Alg1General())
    b = simulate(example1, Alg1General())
    assert a.trajectory.waypoints == b.trajectory.waypoints
    assert a.services == b.services


def test_mid_move_retarget_serves_closer_late_release():
    inst = make_instance(Line(), OPEN, [(1.0, 0.0), (0.05, 0.02)])
    out = simulate(inst, Greedy())
    assert out.services[2] == pytest.approx(0.05)
    assert out.services[1] == pytest.approx(1.0)
    assert verify_outcome(inst, out) == []


def test_pass_over_service_is_instantaneous():
    # moving toward the far request crosses a released one mid-leg
    inst = make_instance(SemiLine(), OPEN, [(0.25, 0.0), (1.0, 0.0)])
    out = simulate(inst, make_policy("alg4-semiline"))
    assert out.services[1] == pytest.approx(0.25)
    assert out.services[2] == pytest.approx(1.0)


class _Spinner(Policy):
    """Never moves: waits one time unit per step."""

    name = "spinner"

    def decide(self, obs):
        return WaitUntil(obs.now + 1.0)


def test_step_budget_exceeded(monkeypatch):
    monkeypatch.setattr(engine, "STEP_BUDGET", 50)
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    with pytest.raises(SimulationError, match="step budget 50 exceeded"):
        simulate(inst, _Spinner())


class _Escapist(Policy):
    name = "escapist"

    def decide(self, obs):
        return MoveTo(-5.0)


def test_invalid_move_target_rejected():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    with pytest.raises(SimulationError, match="outside"):
        simulate(inst, _Escapist())


class _Answer(Greedy):
    """Answers ``act(obs)`` at every decision, or greedy's action when ``act``
    is None, and records whether the engine called ``begin``."""

    name = "answer"
    begun = False

    def __init__(self, act):
        self.act = act

    def begin(self, ctx):
        self.begun = True
        super().begin(ctx)

    def decide(self, obs):
        return super().decide(obs) if self.act is None else self.act(obs)


class _Emitter(Adversary):
    """A one-request semi-line adversary that announces ``points`` and emits
    ``emissions`` once, at time 0."""

    name = "emitter"
    space, variant, n, knowledge = SemiLine(), OPEN, 1, COUNT_KNOWN

    def __init__(self, points, *emissions):
        self.points, self.emissions = points, list(emissions)
        self.wake = 0.0 if emissions else math.inf

    def observe(self, now, position, served):
        emitted, self.emissions, self.wake = self.emissions, [], math.inf
        return emitted


REFUSALS = {  # name: (answer, or None for greedy; emitter arguments, or None; message)
    "zero-length-move": (lambda obs: MoveTo(obs.position), None,
                         "'answer' issued a zero-length move at t=0.0"),
    "wait-into-the-past": (lambda obs: WaitUntil(-1.0), None,
                           "wait-until into the past: -1.0 < 0.0"),
    "non-action": (lambda obs: None, None, "policy returned invalid action None"),
    "no-progress": (lambda obs: WaitUntil(obs.now), None,
                    "no progress at t=0.0 (policy 'answer')"),
    "bad-emission-id": (None, ({}, Emission(0.0, request_id=1)),
                        "bad adversary emission for id 1"),
    "emission-outside-space": (None, ({}, Emission(0.0, point=-1.0)),
                               "adversary point -1.0 outside space"),
    "backdated-emission": (None, ({}, Emission(-0.5, point=0.5)),
                           "adversary causality violation: release -0.5 emitted at 0.0"),
    "over-budget-emission": (None, ({}, Emission(0.0, point=0.1), Emission(0.0, point=0.2)),
                             "adversary emitted more requests than announced"),
    # Refused at entry, before the policy's ``begin``.
    "over-defined-adversary": (
        None, ({1: 0.5, 2: 0.7}, Emission(0.0, request_id=1), Emission(0.0, request_id=2)),
        "adversary announced 2 requests, n = 1"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_engine_refuses(name):
    act, emitter, message = REFUSALS[name]
    scenario = _Emitter(*emitter) if emitter else make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    policy = _Answer(act)
    with pytest.raises(SimulationError, match=re.escape(message)):
        simulate(scenario, policy)
    assert policy.begun == (name != "over-defined-adversary")


class _OffSpaceAnnouncer(Adversary):
    """Announces a semi-line request at -1, outside the semi-line."""

    name = "off-space-announcer"
    space, variant, n, knowledge = SemiLine(), OPEN, 1, "locations"
    points = {1: -1.0}


@pytest.mark.parametrize("scenario", [
    Instance(SemiLine(), OPEN, (Request(1, -1.0, 0.0),)),
    _OffSpaceAnnouncer(),
], ids=["instance", "adversary"])
def test_out_of_domain_point_refused_at_simulate_entry(scenario):
    policy = _Answer(None)
    with pytest.raises(MetricError, match="outside semiline domain"):
        simulate(scenario, policy)
    assert not policy.begun


class _Recorder(Adversary):
    """Releases three announced semi-line requests at time 0, wakes again at
    1/4, and records every ``observe`` call as ``(now, served)``."""

    name = "recorder"
    space, variant, n, knowledge = SemiLine(), OPEN, 3, COUNT_KNOWN
    points = {1: 1.0, 2: 0.5, 3: 1.0}

    def __init__(self):
        self.calls, self.wakes, self.wake = [], [0.25, math.inf], 0.0

    def observe(self, now, position, served):
        self.calls.append((now, served))
        if served is not None:
            return []
        first, self.wake = self.wake == 0.0, self.wakes.pop(0)
        return [Emission(0.0, request_id=rid) for rid in self.points] if first else []


def test_adversary_observes_each_service_and_each_wake():
    # Greedy serves id 2 at 0.5, then ids 1 and 3 together at 1.0, in id order.
    adversary = _Recorder()
    out = simulate(adversary, Greedy())
    assert out.services == {2: 0.5, 1: 1.0, 3: 1.0}
    assert adversary.calls == [(0.0, None), (0.25, None), (0.5, 2), (1.0, 1), (1.0, 3)]


def test_verify_refuses_out_of_domain_waypoint():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, -1.0, "move"),
    ))
    with pytest.raises(MetricError, match="outside semiline domain"):
        verify_outcome(inst, Outcome(1.0, {}, traj, inst.requests))


class _Loiterer(Policy):
    """Goes to the request at 1 and stays there."""

    name = "loiterer"

    def decide(self, obs):
        return MoveTo(1.0) if obs.position < 1.0 - EPS else WaitUntil()


@pytest.mark.parametrize("variant,pts_rel", [
    (OPEN, [(1.0, 0.0), (0.5, 3.0)]),  # one request is never served
    (CLOSED, [(1.0, 0.0)]),  # served, but the server never comes home
])
def test_run_does_not_end_early(variant, pts_rel):
    inst = make_instance(SemiLine(), variant, pts_rel)
    with pytest.raises(SimulationError, match="stalled"):
        simulate(inst, _Loiterer())


class _Refuser(Policy):
    name = "refuser"

    def decide(self, obs):
        raise AssertionError(f"decide asked at t={obs.now}")


@pytest.mark.parametrize("variant", [OPEN, CLOSED])
def test_engine_ends_empty_run_without_asking_the_policy(variant):
    inst = Instance(space=SemiLine(), variant=variant, requests=())
    out = simulate(inst, _Refuser())
    assert out.completion == 0.0
    assert verify_outcome(inst, out) == []


def _watch_decide(policy, inst):
    """Fail when ``decide`` sees a run of ``inst`` that is already over: every
    request served, and the run open or the server at the origin."""
    decide = policy.decide

    def watched(obs):
        space = inst.space
        home = space.distance(obs.position, space.origin()) <= EPS
        assert not (len(obs.served) == inst.n and (inst.variant == OPEN or home)), (
            f"decide asked at t={obs.now} after the run was over"
        )
        return decide(obs)

    policy.decide = watched
    return policy


OWN_GROUND = [  # every policy on a space kind and variant it is defined on
    ("alg1", "general", CLOSED, {}),
    ("alg1", "line", OPEN, {}),
    ("alg2-ring", "ring", CLOSED, {}),
    ("alg2-ring", "ring", CLOSED, {"non_line_like": True}),
    ("alg3-star", "star", CLOSED, {"ray_count": 4}),
    ("alg3-star", "star", CLOSED, {"ray_count": 16}),
    ("alg4-semiline", "semiline", OPEN, {}),
    ("alg5-semiline", "semiline", CLOSED, {}),
    ("wait-all", "star", CLOSED, {}),
    ("wait-all", "general", OPEN, {}),
    ("greedy", "ring", CLOSED, {}),
    ("greedy", "line", OPEN, {}),
]


@pytest.mark.parametrize("name,kind,variant,sp", OWN_GROUND, ids=[
    "-".join([name, kind, variant, *(f"{k}={v}" for k, v in sp.items())])
    for name, kind, variant, sp in OWN_GROUND
])
def test_policy_never_asked_after_the_run_is_over(name, kind, variant, sp):
    for n in (0, 1, 3, 5):
        if sp.get("non_line_like") and n < 2:
            continue
        for horizon in (0.0, 1.0, 3.0):
            for seed in range(8):
                inst = generate_random(
                    GenParams(n=n, seed=seed, release_horizon=horizon, space_params=sp),
                    kind, variant=variant,
                )
                out = simulate(inst, _watch_decide(make_policy(name), inst))
                assert verify_outcome(inst, out) == []


def test_knowledge_pairing_rejected():
    inst = make_instance(SemiLine(), CLOSED, [(1.0, 0.0)], knowledge="count")
    with pytest.raises(SimulationError, match="locations"):
        simulate(inst, Alg1General())


PAIRINGS = {  # policy: (space kind, variant) it is defined on
    "alg2-ring": ("ring", CLOSED),
    "alg3-star": ("star", CLOSED),
    "alg3-star:fptas=0.1": ("star", CLOSED),
    "alg4-semiline": ("semiline", OPEN),
    "alg5-semiline": ("semiline", CLOSED),
}
MISPAIRINGS = [
    (name, kind, variant, f"requires a {kind_ok} space")
    for name, (kind_ok, variant) in PAIRINGS.items()
    for kind in SPACE_KINDS
    if kind != kind_ok
] + [
    (name, kind_ok, OPEN if variant == CLOSED else CLOSED, f"requires the {variant} variant")
    for name, (kind_ok, variant) in PAIRINGS.items()
]


@pytest.mark.parametrize("name,kind,variant,requirement", MISPAIRINGS)
def test_policy_refused_off_its_space_and_variant(name, kind, variant, requirement, capsys):
    inst = generate_random(GenParams(n=3, seed=5), kind, variant=variant)
    with pytest.raises(SimulationError, match=requirement):
        simulate(inst, make_policy(name))
    code = run_cli(["batch", "--kind", kind, "--variant", variant, "--policy", name,
                    "--count", "1", "--seed", "5", "--n", "3"])
    assert code == 2
    assert requirement in capsys.readouterr().err


def test_count_policy_runs_under_count_knowledge():
    inst = make_instance(SemiLine(), CLOSED, [(1.0, 0.0)], knowledge="count")
    out = simulate(inst, make_policy("wait-all"))
    assert out.completion == pytest.approx(2.0)


def test_engine_outcomes_verify_across_policies(example1):
    for name in ["alg1", "wait-all", "greedy"]:
        out = simulate(example1, make_policy(name))
        assert verify_outcome(example1, out) == [], name


ALL_KINDS = [("general", {}), ("general", {"asymmetric": True}), ("line", {}),
             ("ring", {}), ("star", {"ray_count": 3}), ("semiline", {})]
POLICIES = ["alg1", "alg2-ring", "alg3-star", "alg3-star:fptas=0.1", "alg4-semiline",
            "alg5-semiline", "wait-all", "greedy"]


def _announcing_everything(inst):
    """``inst`` as a decision-table adversary: it announces every point and,
    at its one wake at time 0, emits every release."""
    releases = tuple(Emission(r.release, request_id=r.id) for r in inst.requests)
    return TableAdversary("fixed", inst.space, inst.variant, inst.knowledge, inst.n,
                          {r.id: r.point for r in inst.requests},
                          (0.0, lambda position: 0, ((releases, None),)))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_instances(ALL_KINDS, max_n=6, min_n=0),
       st.sampled_from((LOCATIONS_KNOWN, COUNT_KNOWN)))
def test_instance_runs_as_the_adversary_that_announced_it(inst, knowledge):
    inst = replace(inst, knowledge=knowledge)
    for name in POLICIES:
        try:
            check_pairing(make_policy(name), inst.space.kind, inst.variant, knowledge, inst.n)
        except PairingError:
            continue
        fixed = simulate(inst, make_policy(name))
        adaptive = simulate(_announcing_everything(inst), make_policy(name))
        assert adaptive.completion == fixed.completion, name
        assert adaptive.services == fixed.services, name
        assert adaptive.trajectory.waypoints == fixed.trajectory.waypoints, name
