"""oltsp-lab benchmark: four closed-loop workloads, end-to-end and per-layer.

One process, one thread: the next job starts only when the last one has
finished.  The workloads and why each was chosen are listed in
``BENCHMARK.json``; ``workloads.py`` defines their jobs.  Run from the
repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --all [--out FILE]
    python3 perfbench/run.py --check
    python3 perfbench/run.py --record

``--trace 0`` times jobs for ``--seconds`` with no wrapper installed and
reports the end-to-end metrics over all of them; ``setup_s`` is the median
set-up time (import plus warm-up) of this process and of a few more fresh
ones started afterwards.  A shared machine can change speed by a factor of
two within seconds, for all work alike, so every timing is scaled to a
reference speed: a fixed pure-Python kernel (``reference_kernel``) is timed
every ``CALIBRATE_EVERY_S`` between jobs and after each set-up, and a time
``t`` measured while the kernel takes ``k`` (running median of the last
``CALIBRATION_WINDOW`` timings) is reported as ``t * REFERENCE_KERNEL_S / k``.
``jobs_per_s`` is jobs per second of scaled job time.  The unscaled figures are
printed too.
``--trace 1`` runs a fixed, seed-determined job list
untraced and traced, alternating which goes first, and reports the per-layer
metrics plus the ratio of the two wall times; its spans go to
``.perfbench_out/spans-<workload>.npz``.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--all`` runs both modes of every workload, each in a fresh process, and
prints every metric, ``fail_ratio`` with its counts included.  ``--check``
compares the output digests of every workload at the default seed, and the
CSV reports of a frozen ``batch`` matrix, with the ones recorded in
``expected.json``; ``--record`` rewrites them after a deliberate change.
"""
from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
GOLDEN = HERE / "golden"

DEFAULT_SEED = 1
WARMUP_SEED = 999_999
DIGEST_JOBS = 60  # jobs 0..59 of each workload at the default seed
SETUP_SAMPLES = 5  # set-ups timed per run: this process and fresh ones
P90_MIN_JOBS = 100  # the 90th percentile needs ten samples beyond it
SETUP_TIMEOUT_S = 60
REFERENCE_KERNEL_S = 2e-3  # the kernel's time at the reference speed
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 5  # kernel timings in the running median


def reference_kernel() -> int:
    """Fixed interpreter work, timed to track the machine's current speed."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def kernel_s() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def scaled_setup_s() -> tuple:
    """Set-up time of this process, (scaled, unscaled); call it right after warm-up."""
    raw = perf_counter() - STARTED
    return raw * REFERENCE_KERNEL_S / statistics.median(
        kernel_s() for _ in range(CALIBRATION_WINDOW)), raw


def import_program():
    """Put the checkout's ``src`` first on ``sys.path`` and import the benchmark
    modules; exits non-zero when the program source is absent."""
    if not (SRC / "oltsp_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import oltsp_lab

    if Path(oltsp_lab.__file__).resolve().parent != SRC / "oltsp_lab":
        sys.exit(f"perfbench: imported oltsp_lab from {oltsp_lab.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def run_job(workloads, w, i: int, seed: int, tracer=None):
    """One job: its report text and its check failures (a raise is a failure)."""
    try:
        if tracer is None:
            return workloads.run(w, i, seed)
        return tracer.run_job(i, workloads.run, w, i, seed, tracer)
    except Exception:  # a failed job is counted, and the loop goes on
        return "", [f"job {i}: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]


def warm_up(workloads, w) -> list:
    failures = []
    for i in range(w.warmup):
        failures += run_job(workloads, w, i, WARMUP_SEED)[1]
    return failures


def digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def first_difference(expected: str, actual: str, context: int = 3) -> str:
    want, got = expected.splitlines(), actual.splitlines()
    k = next((j for j, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
    lines = [f"first difference at row {k + 1}:"]
    lines += [f"  expected: {row}" for row in want[k:k + context]]
    lines += [f"  actual:   {row}" for row in got[k:k + context]]
    return "\n".join(lines)


def check_digest(name: str, texts) -> bool:
    """Compare the report rows of jobs 0..DIGEST_JOBS-1 at the default seed
    with the recorded ones; print the first differing rows on a mismatch."""
    recorded = json.loads(EXPECTED.read_text())["workloads"][name]
    actual = "".join(texts)
    if digest(texts) == recorded:
        return True
    golden = GOLDEN / f"{name}.csv"
    print(f"digest mismatch on {name}: recorded {recorded}, got {digest(texts)}", file=sys.stderr)
    print(first_difference(golden.read_text(), actual), file=sys.stderr)
    return False


def setup_sample(name: str) -> tuple:
    """Set-up time, (scaled, unscaled), of a fresh process that imports the
    program and warms up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def timed_run(workloads, tracing, name: str, seed: int, seconds: float) -> dict:
    """Warm up, then run jobs 0, 1, ... for ``seconds``, one after another."""
    w = workloads.WORKLOADS[name]
    failures = warm_up(workloads, w)
    setups = [scaled_setup_s()]
    if tracing.installed_wrappers():
        raise RuntimeError(f"wrappers installed in a timed run: {tracing.installed_wrappers()}")
    raw_ms, scaled_ms, texts = [], [], []
    kernel = [kernel_s() for _ in range(CALIBRATION_WINDOW)]
    began = calibrated = perf_counter()
    while perf_counter() - began < seconds:
        # Jobs run back to back; the kernel runs between them, outside their times.
        if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            kernel = kernel[1:] + [kernel_s()]
            calibrated = perf_counter()
        i = len(raw_ms)
        t0 = perf_counter()
        text, bad = run_job(workloads, w, i, seed)
        raw_ms.append((perf_counter() - t0) * 1e3)
        scaled_ms.append(raw_ms[-1] * REFERENCE_KERNEL_S / statistics.median(kernel))
        failures += bad
        if i < DIGEST_JOBS:
            texts.append(text)
    if tracing.installed_wrappers():
        raise RuntimeError(f"wrappers installed in a timed run: {tracing.installed_wrappers()}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_sample(name) for _ in range(SETUP_SAMPLES - 1)]

    jobs = len(raw_ms)
    attempted = jobs + w.warmup
    if jobs < P90_MIN_JOBS:
        print(f"note: {jobs} jobs < {P90_MIN_JOBS}; job_ms_p90 is not valid", file=sys.stderr)
    if seed == DEFAULT_SEED and len(texts) == DIGEST_JOBS:
        check_digest(name, texts)

    def end_to_end(latencies, setup):
        return {
            "jobs_per_s": (jobs * 1e3 / sum(latencies), "1/s"),
            "job_ms_p50": (statistics.median(latencies), "ms"),
            "job_ms_p90": (statistics.quantiles(latencies, n=10)[8], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {name}, seed {seed}: {jobs} jobs (closed loop, 1 thread); "
          f"set-ups {', '.join(f'{t:.3f}' for _, t in setups)} s unscaled")
    print(f"  fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted!r}")
    for key, (value, unit) in end_to_end(raw_ms, [raw for _, raw in setups]).items():
        print(f"  unscaled {key} = {value!r} {unit}")
    return result(end_to_end(scaled_ms, [scaled for scaled, _ in setups]), attempted, failures)


def traced_run(workloads, tracing, name: str, seed: int, seconds: float) -> dict:
    w = workloads.WORKLOADS[name]
    failures = warm_up(workloads, w)
    jobs = max(1, round(seconds * w.trace_jobs_per_s))

    # Each job runs untraced and traced, in alternating order, so that drift
    # and first-use costs fall on both sides of the overhead ratio alike.
    tracer = tracing.Tracer()
    wall = {False: 0.0, True: 0.0}
    for i in range(jobs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t0 = perf_counter()
                failures += run_job(workloads, w, i, seed, tracer if traced else None)[1]
                wall[traced] += perf_counter() - t0
            finally:
                tracer.uninstall()
    if tracing.installed_wrappers():
        raise RuntimeError(f"wrappers left installed: {tracing.installed_wrappers()}")
    untraced_s, traced_s = wall[False], wall[True]

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}.npz")
    units = dict(tracing.per_layer_names())
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced_s / untraced_s
    metrics = {key: (values[key], units[key]) for key in units}
    attempted = 2 * jobs + w.warmup
    print(f"workload {name}, seed {seed}: {jobs} jobs untraced in {untraced_s:.3f} s, "
          f"traced in {traced_s:.3f} s; spans in {OUT_DIR / f'spans-{name}.npz'}")
    return result(metrics, attempted, failures)


def result(metrics: dict, attempted: int, failures: list) -> dict:
    for line in failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value!r} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


# Recorded evidence: output digests and the frozen batch matrix -------------------

def batch_matrix(workloads):
    """The frozen (kind x variant x policy x seeds) ``batch`` matrix."""
    spaces = (
        ("semiline", []), ("line", []), ("ring", ["--non-line-like"]),
        ("star", ["--rays", "4"]), ("star", ["--rays", "8"]), ("general", []),
        ("general", ["--asymmetric"]),
    )
    for kind, extra in spaces:
        for variant in workloads.VARIANTS:
            for policy in workloads.SPECIALISED.get((kind, variant), ()) + workloads.BASELINES:
                yield ["batch", "--kind", kind, "--variant", variant, "--policy", policy,
                       "--count", "10", "--seed", "1", "--n", "6", *extra]


def evidence(workloads) -> dict:
    from oltsp_lab.cli import run_cli

    texts = {}
    for name, w in workloads.WORKLOADS.items():
        rows = []
        for i in range(DIGEST_JOBS):
            text, bad = run_job(workloads, w, i, DEFAULT_SEED)
            if bad:
                raise RuntimeError(f"{name} job {i} failed: {bad[0]}")
            rows.append(text)
        texts[name] = "".join(rows)
    matrix = {}
    for argv in batch_matrix(workloads):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        matrix[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"texts": texts, "matrix": matrix}


def record(workloads) -> int:
    ev = evidence(workloads)
    GOLDEN.mkdir(exist_ok=True)
    for name, text in ev["texts"].items():
        (GOLDEN / f"{name}.csv").write_text(text)
    doc = {
        "default_seed": DEFAULT_SEED,
        "digest_jobs": DIGEST_JOBS,
        "workloads": {name: digest([t]) for name, t in ev["texts"].items()},
        "frozen_matrix": ev["matrix"],
    }
    EXPECTED.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"recorded {len(doc['workloads'])} workload digests and "
          f"{len(doc['frozen_matrix'])} batch reports in {EXPECTED}")
    return 0


def check(workloads) -> int:
    ev = evidence(workloads)
    recorded = json.loads(EXPECTED.read_text())
    ok = all([check_digest(name, [text]) for name, text in ev["texts"].items()])
    for label, sha in recorded["frozen_matrix"].items():
        if ev["matrix"].get(label) != sha:
            ok = False
            print(f"batch report changed: {label}", file=sys.stderr)
    if set(ev["matrix"]) != set(recorded["frozen_matrix"]):
        ok = False
        print("the batch matrix itself differs from the recorded one", file=sys.stderr)
    print(f"{'identical' if ok else 'DIFFERENT'}: {len(ev['texts'])} workload digests, "
          f"{len(ev['matrix'])} batch reports")
    return 0 if ok else 1


# All workloads in one command ------------------------------------------------------

def run_all(workloads, seed: int, seconds: float, out) -> int:
    import numpy

    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "seed": seed,
        "seconds": seconds,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "kernel_s_here": statistics.median(kernel_s() for _ in range(25)),
        "workloads": {},
    }
    ok = True
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            entry["per_layer" if trace else "end_to_end"] = res["metrics"]
            if not trace:
                entry.update(attempted=res["attempted"], failed=res["failed"])
        doc["workloads"][name] = entry
        e2e = entry["end_to_end"]
        print(f"{name}:")
        for key, m in e2e.items():
            print(f"  {key:<12} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_ratio':<12} {entry['failed'] / entry['attempted']:>14.6g} "
              f"({entry['failed']} of {entry['attempted']} jobs)")
        print(f"  trace.overhead_ratio {entry['per_layer']['trace.overhead_ratio']['value']:.3f}")
    if out:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--out", help="with --all: write every metric and machine info here")
    p.add_argument("--check", action="store_true", help="compare digests and batch reports")
    p.add_argument("--record", action="store_true", help="rewrite digests and batch reports")
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up only, then print the set-up time")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    workloads, tracing = import_program()
    if args.check:
        return check(workloads)
    if args.record:
        return record(workloads)
    if args.all:
        return run_all(workloads, args.seed, args.seconds, args.out)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        bad = warm_up(workloads, workloads.WORKLOADS[args.workload])
        if bad:
            sys.exit(f"perfbench: warm-up failed: {bad[0]}")
        print(json.dumps(scaled_setup_s()))
        return 0
    if args.trace:
        res = traced_run(workloads, tracing, args.workload, args.seed, args.seconds)
    else:
        res = timed_run(workloads, tracing, args.workload, args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
