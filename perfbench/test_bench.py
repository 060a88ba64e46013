"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repository root."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads, tracing = run.import_program()

RUN = [sys.executable, str(HERE / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_timed_jobs_run_without_wrappers(monkeypatch):
    seen = []
    real_run = workloads.run

    def spy(w, i, seed, tracer=None):
        seen.append((tracer is not None, tracing.installed_wrappers()))
        return real_run(w, i, seed, tracer)

    monkeypatch.setattr(workloads, "run", spy)
    res = run.timed_run(workloads, tracing, "adversary", 3, 0.3)
    assert res["correct"]
    assert len(seen) == res["attempted"]
    assert all(not traced and not found for traced, found in seen)

    seen.clear()
    res = run.traced_run(workloads, tracing, "adversary", 3, 0.3)
    assert res["correct"]
    untraced = [found for traced, found in seen if not traced]
    traced = [found for traced, found in seen if traced]
    assert untraced and not any(untraced)
    # Every layer boundary carries a wrapper while the traced pass runs.
    expected = len(tracing.SPACE_CLASSES) * len(tracing.SPACE_METHODS) + len(tracing.MODULE_FUNCTIONS)
    assert traced and all(len(found) == expected for found in traced)
    assert tracing.installed_wrappers() == []


def test_uninstall_restores_the_originals():
    def snapshot():
        out = {(c, m): c.__dict__[m] for c in tracing.SPACE_CLASSES for m in tracing.SPACE_METHODS}
        out.update({(mod, a): getattr(mod, a) for mod, a, _ in tracing.MODULE_FUNCTIONS})
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(snapshot()[k] is not v for k, v in before.items())
    finally:
        tracer.uninstall()
    assert all(snapshot()[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layers_and_glue_make_up_the_job_time(name):
    w = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(w.warmup):
            text, failures = tracer.run_job(i, workloads.run, w, i, 7, tracer)
            assert text and not failures
    finally:
        tracer.uninstall()
    root = tracer.names.index(tracing.JOB_SPAN)
    job_time = sum(e - s for s, e, nid in zip(tracer.start, tracer.end, tracer.name_id)
                   if nid == root)
    # Every span below a job is a reported layer: the reported self times
    # plus the benchmark's own share are the whole job time.
    layers = sum(v for k, v in tracer.metrics().items() if k.endswith(".self_s"))
    glue = tracer.self_s[root]
    assert tracer.calls[root] == w.warmup
    assert layers + glue == pytest.approx(job_time, rel=1e-9)
    assert layers > glue


def test_layer_counts_repeat_across_traced_runs():
    for name in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                RUN + ["--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", "1"],
                capture_output=True, text=True, timeout=300, cwd=HERE.parent,
            )
            assert proc.returncode == 0, proc.stderr
            res = _last_json(proc.stdout)
            assert res["correct"]
            runs.append({k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"})
        assert runs[0] == runs[1], name
        assert runs[0]["engine.steps"] > 0


def test_reports_match_the_recorded_digests():
    proc = subprocess.run(RUN + ["--check"], capture_output=True, text=True, timeout=600,
                          cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
