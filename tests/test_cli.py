import json
from dataclasses import replace

import pytest

from oltsp_lab import cli, decode, encode
from oltsp_lab.cli import BatchRow, report, run_cli
from oltsp_lab.engine import PairingError, SimulationError


@pytest.fixture
def ex1_file(tmp_path, example1):
    path = tmp_path / "ex1.json"
    path.write_text(encode(example1))
    return str(path)


def test_simulate_reference(ex1_file, capsys):
    code = run_cli(["simulate", "--instance", ex1_file, "--policy", "alg1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "completion 15" in out
    assert "opt 12" in out
    assert "ratio 1.25" in out


def test_simulate_trace(ex1_file, capsys):
    code = run_cli(["simulate", "--instance", ex1_file, "--policy", "alg1", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"trajectory"' in out
    assert '"serve:2"' in out


def test_oracle_command(ex1_file, capsys):
    code = run_cli(["oracle", "--instance", ex1_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "makespan 12" in out
    assert "order 1,2,3" in out


def test_oracle_and_simulate_reject_invalid_instance(tmp_path, example1, capsys):
    first = replace(example1.requests[0], release=-3.0)
    path = tmp_path / "bad.json"
    path.write_text(encode(replace(example1, requests=(first,) + example1.requests[1:])))
    for argv in (["oracle"], ["simulate", "--policy", "alg1"]):
        assert run_cli(argv + ["--instance", str(path)]) == 1
        captured = capsys.readouterr()
        assert "invalid instance: request 1 has negative release -3.0" in captured.err
        assert captured.out == ""


def test_gen_roundtrip(tmp_path):
    target = tmp_path / "inst.json"
    code = run_cli([
        "gen", "--kind", "ring", "--n", "5", "--seed", "11",
        "--horizon", "2.0", "--variant", "closed", "--out", str(target),
    ])
    assert code == 0
    inst = decode(target.read_text())
    assert inst.n == 5
    assert inst.space.kind == "ring"


def test_batch_pass_and_reproducible(tmp_path, capsys):
    argv = [
        "batch", "--kind", "semiline", "--variant", "closed",
        "--policy", "alg5-semiline", "--count", "40", "--seed", "7",
        "--bound", "1.0", "--n", "6",
    ]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "id,policy,alg,opt,ratio" in first
    assert "result=pass" in first


def test_batch_bound_violation_exit_code(capsys):
    code = run_cli([
        "batch", "--kind", "semiline", "--variant", "closed",
        "--policy", "greedy", "--count", "10", "--seed", "3",
        "--bound", "0.99", "--n", "5",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "bound violated at seed" in err


def test_batch_json_format(capsys):
    argv = [
        "batch", "--kind", "star", "--variant", "closed",
        "--policy", "alg3-star:fptas=0.1", "--count", "5", "--seed", "2",
        "--bound", "1.85", "--n", "6",
    ]
    code = run_cli(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 5
    assert doc["summary"]["pass"] is True
    # the JSON numbers are the CSV report's numbers of the same batch
    assert run_cli(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    csv_rows = [line.split(",") for line in lines if not line.startswith(("#", "id,"))]
    assert [[r["id"], r["policy"], r["alg"], r["opt"], r["ratio"]] for r in doc["rows"]] == [
        [int(seed), policy, float(alg), float(opt), float(ratio)]
        for seed, policy, alg, opt, ratio in csv_rows
    ]
    summary = dict(pair.split("=") for pair in lines[-1].split()[2:])
    assert doc["summary"]["max_ratio"] == float(summary["max_ratio"])
    assert doc["summary"]["mean_ratio"] == float(summary["mean_ratio"])


def test_adversary_command(capsys):
    code = run_cli(["adversary", "--name", "ring-open", "--policy", "alg1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ratio 1.5" in out


def test_adversary_infeasible_outcome_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_outcome", lambda inst, out: ["boom"])
    code = run_cli(["adversary", "--name", "ring-open", "--policy", "alg1"])
    assert code == 1
    assert "infeasible outcome: boom" in capsys.readouterr().err


def test_adversary_epsilon_suffix(capsys):
    code = run_cli(["adversary", "--name", "semiline-open-count", "--policy", "greedy"])
    assert code == 0
    assert "ratio 2" in capsys.readouterr().out


def test_adversary_past_oracle_cap_reports_no_optimum(capsys):
    code = run_cli(["adversary", "--name", "ring-closed-count:0.25", "--policy", "greedy"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("forced ")
    assert "opt unavailable (n=25 > oracle cap 18)" in out


def test_batch_completion_below_optimum_is_an_error(monkeypatch, capsys):
    real = cli.opt_makespan

    def inflated(inst):
        res = real(inst)
        return replace(res, makespan=res.makespan + 1.0)

    monkeypatch.setattr(cli, "opt_makespan", inflated)
    code = run_cli([
        "batch", "--kind", "semiline", "--variant", "closed",
        "--policy", "alg5-semiline", "--count", "3", "--seed", "7", "--n", "4",
    ])
    assert code == 1
    assert "below the offline optimum" in capsys.readouterr().err


def test_incompatible_pairing_is_usage_error(capsys):
    code = run_cli([
        "adversary", "--name", "ring-closed-count", "--epsilon", "0.5",
        "--policy", "alg1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "locations" in err


def test_wrong_space_pairing_rejected_before_simulation(ex1_file, capsys):
    code = run_cli(["simulate", "--instance", ex1_file, "--policy", "alg2-ring"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ring" in err


def test_pairing_error_is_a_simulation_error():
    assert issubclass(PairingError, SimulationError)


def test_usage_error_exit_code(tmp_path, capsys):
    assert run_cli(["simulate"]) == 2
    capsys.readouterr()
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()
    assert run_cli(["batch", "--kind", "nowhere", "--variant", "closed",
                    "--policy", "greedy", "--count", "1", "--seed", "1"]) == 2
    capsys.readouterr()
    # no non-line-like ring instance has fewer than two requests
    assert run_cli(["gen", "--kind", "ring", "--non-line-like", "--n", "1", "--seed", "0"]) == 2
    capsys.readouterr()
    assert run_cli(["batch", "--kind", "ring", "--non-line-like", "--n", "0",
                    "--variant", "closed", "--policy", "greedy", "--count", "1",
                    "--seed", "0"]) == 2
    capsys.readouterr()
    # refused with nothing on stdout: a negative length, an invalid space, a
    # mispaired policy even when no instance is drawn at all, a non-finite
    # size, a suffix or epsilon that is not taken, and a count past a cap
    for argv in (
        ["gen", "--kind", "semiline", "--length", "-1", "--n", "2", "--seed", "1"],
        ["gen", "--kind", "ring", "--circumference", "-1", "--n", "2", "--seed", "1"],
        ["gen", "--kind", "star", "--rays", "0", "--n", "2", "--seed", "1"],
        ["batch", "--kind", "star", "--length", "-1", "--variant", "closed",
         "--policy", "greedy", "--count", "1", "--seed", "1"],
        ["batch", "--kind", "line", "--variant", "closed", "--policy", "alg2-ring",
         "--count", "0", "--seed", "1"],
        # non-finite sizes
        ["gen", "--kind", "ring", "--non-line-like", "--circumference", "nan",
         "--n", "2", "--seed", "1"],
        ["gen", "--kind", "ring", "--non-line-like", "--circumference", "inf",
         "--n", "2", "--seed", "1"],
        ["batch", "--kind", "semiline", "--length", "inf", "--variant", "closed",
         "--policy", "alg5-semiline", "--count", "1", "--seed", "1"],
        ["batch", "--kind", "star", "--length", "inf", "--variant", "closed",
         "--policy", "greedy", "--count", "1", "--seed", "1"],
        ["batch", "--kind", "line", "--horizon", "nan", "--variant", "closed",
         "--policy", "greedy", "--count", "1", "--seed", "1"],
        ["batch", "--kind", "line", "--horizon", "inf", "--variant", "closed",
         "--policy", "greedy", "--count", "1", "--seed", "1"],
        # a suffix or epsilon the policy or construction does not take
        ["batch", "--kind", "semiline", "--variant", "open", "--policy", "alg1:junk",
         "--count", "1", "--seed", "1", "--n", "2"],
        ["batch", "--kind", "line", "--variant", "open", "--policy", "greedy:xyz",
         "--count", "1", "--seed", "1", "--n", "2"],
        ["adversary", "--name", "ring-open:0.3", "--policy", "greedy"],
        ["adversary", "--name", "semiline-open-count", "--epsilon", "0.3",
         "--policy", "greedy"],
        # more requests than the policy's cap
        ["batch", "--kind", "semiline", "--variant", "open", "--policy", "alg1",
         "--count", "1", "--seed", "1", "--n", "10"],
        ["adversary", "--name", "ring-closed-count:0.25", "--policy", "wait-all"],
    ):
        assert run_cli(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
    # the fptas epsilon is checked when the policy is built, before any run
    for mode in ("fptas=0", "fptas=-1", "fptas=5", "fptasx"):
        assert run_cli(["batch", "--kind", "star", "--variant", "closed",
                        "--policy", f"alg3-star:{mode}", "--count", "1",
                        "--seed", "0"]) == 2
        capsys.readouterr()
    # a document of the wrong shape is a format error, not a crash
    docs = [
        {"space": {"kind": "general", "matrix": [[0, 1], 5], "symmetric": True}},
        {"space": {"kind": "semiline"}, "requests": [5]},
        {"space": 7},
    ]
    path = tmp_path / "bad.json"
    for doc in docs:
        path.write_text(json.dumps({"variant": "closed", "knowledge": "locations",
                                    "requests": [], **doc}))
        for argv in (["oracle"], ["simulate", "--policy", "greedy"]):
            assert run_cli(argv + ["--instance", str(path)]) == 2
            assert "bad " in capsys.readouterr().err


def test_report_empty_rows():
    text = report([], "csv", bound=1.5)
    lines = text.strip().splitlines()
    assert lines[0] == "id,policy,alg,opt,ratio"
    assert "max_ratio=0" in lines[-1]
    assert "result=pass" in lines[-1]


def test_report_single_row_and_json():
    rows = [BatchRow(7, "greedy", 1.5, 1.0, 1.5)]
    text = report(rows, "csv", bound=2.0)
    lines = text.strip().splitlines()
    assert lines[0] == "id,policy,alg,opt,ratio"
    assert lines[1].startswith("7,greedy,1.5,1,1.5")
    assert lines[-1].startswith("# summary")
    doc = json.loads(report(rows, "json", bound=1.2))
    assert doc["summary"]["pass"] is False
    assert doc["rows"][0]["ratio"] == 1.5
