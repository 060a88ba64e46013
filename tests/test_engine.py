import pytest

from conftest import make_instance
from oltsp_lab import (
    CLOSED,
    OPEN,
    GenParams,
    Instance,
    MoveTo,
    Outcome,
    SimulationError,
    Trajectory,
    WaitUntil,
    generate_random,
    simulate,
    verify_outcome,
)
from oltsp_lab.algorithms import Alg1General, Greedy, make_policy
from oltsp_lab.engine import Finish, Policy, Waypoint
from oltsp_lab.cli import run_cli
from oltsp_lab.metric import SPACE_KINDS, EdgePoint, General, Line, Ring, SemiLine


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


def test_position_at_move_and_wait():
    space = SemiLine()
    traj = Trajectory(space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 1.0, "move"),
        Waypoint(3.0, 1.0, "wait"),
    ))
    assert traj.position_at(0.5) == pytest.approx(0.5)
    assert traj.position_at(2.2) == pytest.approx(1.0)
    with pytest.raises(SimulationError):
        traj.position_at(5.0)


def test_position_at_general_same_edge():
    space = General.from_rows([[0, 1], [1, 0]])
    traj = Trajectory(space, (
        Waypoint(0.0, 0, "start"),
        Waypoint(0.3, EdgePoint(0, 1, 0.3), "move"),
        Waypoint(0.6, EdgePoint(0, 1, 0.6), "move"),
    ))
    assert traj.position_at(0.45) == EdgePoint(0, 1, pytest.approx(0.45))


def test_position_at_ring_counterclockwise():
    space = Ring(1.0)
    traj = Trajectory(space, (Waypoint(0.0, 0.0, "start"), Waypoint(0.1, 0.9, "move")))
    assert traj.position_at(0.05) == pytest.approx(0.95)


def test_verify_catches_premature_service():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 5.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 1.0, "serve", 1),
    ))
    bad = Outcome(1.0, {1: 1.0}, traj, inst.requests, OPEN)
    assert any("premature" in v for v in verify_outcome(inst, bad))


def test_verify_catches_open_ending_off_origin_closed():
    inst = make_instance(SemiLine(), CLOSED, [(1.0, 0.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 1.0, "serve", 1),
    ))
    bad = Outcome(1.0, {1: 1.0}, traj, inst.requests, CLOSED)
    assert any("origin" in v for v in verify_outcome(inst, bad))


def test_verify_catches_superluminal_motion():
    inst = make_instance(SemiLine(), OPEN, [(4.0, 0.0)])
    traj = Trajectory(inst.space, (
        Waypoint(0.0, 0.0, "start"),
        Waypoint(1.0, 4.0, "serve", 1),
    ))
    bad = Outcome(1.0, {1: 1.0}, traj, inst.requests, OPEN)
    assert any("unit speed" in v or "superluminal" in v for v in verify_outcome(inst, bad))


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
    name = "spinner"

    def decide(self, obs):
        return WaitUntil(obs.now)


def test_step_budget_exceeded():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    with pytest.raises(SimulationError, match="step budget"):
        simulate(inst, _Spinner(), step_budget=50)


class _Escapist(Policy):
    name = "escapist"

    def decide(self, obs):
        return MoveTo(-5.0)


def test_invalid_move_target_rejected():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    with pytest.raises(SimulationError, match="outside"):
        simulate(inst, _Escapist())


class _Quitter(Policy):
    name = "quitter"

    def decide(self, obs):
        return Finish()


def test_premature_finish_rejected():
    inst = make_instance(SemiLine(), OPEN, [(1.0, 0.0)])
    with pytest.raises(SimulationError, match="served"):
        simulate(inst, _Quitter())


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
