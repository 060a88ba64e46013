"""Command-line front end: simulate, oracle, gen, batch, adversary.

Exit codes: 0 success / bound pass, 1 bound violation or infeasibility,
2 usage errors (including incompatible policy pairings and request counts
past a policy's cap).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import adversaries as adv_mod
from . import algorithms as alg_mod
from .engine import PairingError, Scenario, SimulationError, check_pairing, verify_outcome
from .instance import (
    CLOSED,
    COUNT_KNOWN,
    GenParams,
    Instance,
    LOCATIONS_KNOWN,
    MAX_REQUESTS,
    OPEN,
    decode,
    encode,
    format_number,
    generate_random,
    outcome_to_text,
    validate_instance,
)
from .metric import EPS, SPACE_KINDS
from .oracle import opt_makespan

USAGE_ERROR = 2
BOUND_ERROR = 1


@dataclass
class BatchRow:
    seed: int
    policy: str
    alg: float
    opt: float
    ratio: float


def within_bound(rows: Sequence[BatchRow], bound: Optional[float]) -> bool:
    """The verdict on ``rows``: no bound, or a largest ratio (0 without rows)
    of at most ``bound`` + EPS."""
    return bound is None or max((r.ratio for r in rows), default=0.0) <= bound + EPS


def report(rows: Sequence[BatchRow], fmt: str, bound: Optional[float],
           params: Optional[dict] = None) -> str:
    max_ratio = max((r.ratio for r in rows), default=0.0)
    mean_ratio = sum(r.ratio for r in rows) / len(rows) if rows else 0.0
    passed = within_bound(rows, bound)
    if fmt == "json":
        doc = {
            "params": params or {},
            "rows": [
                {
                    "id": r.seed,
                    "policy": r.policy,
                    "alg": r.alg,
                    "opt": r.opt,
                    "ratio": r.ratio,
                }
                for r in rows
            ],
            "summary": {
                "max_ratio": max_ratio,
                "mean_ratio": mean_ratio,
                "bound": bound,
                "pass": passed,
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = []
    if params:
        pairs = " ".join(f"{k}={v}" for k, v in params.items())
        lines.append(f"# {pairs}")
    lines.append("id,policy,alg,opt,ratio")
    for r in rows:
        cells = (format_number(x) for x in (r.alg, r.opt, r.ratio))
        lines.append(f"{r.seed},{r.policy}," + ",".join(cells))
    summary = (
        f"# summary max_ratio={format_number(max_ratio)} "
        f"mean_ratio={format_number(mean_ratio)} "
        f"bound={format_number(bound) if bound is not None else 'none'} "
        f"result={'pass' if passed else 'fail'}"
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def _read_instance(path: str) -> Optional[Instance]:
    """The instance in file ``path``, or None after printing why it is invalid."""
    with open(path, "r", encoding="utf-8") as fh:
        inst = decode(fh.read())
    issues = validate_instance(inst)
    if issues:
        print("invalid instance: " + "; ".join(issues), file=sys.stderr)
        return None
    return inst


def _claim(scenario: Scenario, policy: str, where: str = "") -> Optional[adv_mod.AdversaryRun]:
    """The claim of ``policy`` on ``scenario``, or None after printing why its
    run is infeasible."""
    run = adv_mod.run_adversary(scenario, alg_mod.make_policy(policy))
    # Checked against the realized releases under the engine's ids, which
    # ``run.materialized`` renumbers by position.
    realized = Instance(scenario.space, scenario.variant, run.outcome.realized)
    bad = verify_outcome(realized, run.outcome)
    if bad:
        print(f"{where}infeasible outcome: " + "; ".join(bad), file=sys.stderr)
        return None
    return run


def _cmd_simulate(args) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return BOUND_ERROR
    run = _claim(inst, args.policy)
    if run is None:
        return BOUND_ERROR
    line = f"completion {format_number(run.forced_completion)}"
    if run.opt_completion is not None:
        line += f", opt {format_number(run.opt_completion)}"
        if run.opt_completion > EPS:
            line += f", ratio {format_number(run.forced_ratio)}"
    print(line)
    if args.trace:
        print(outcome_to_text(run.outcome), end="")
    return 0


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return BOUND_ERROR
    res = opt_makespan(inst)
    order = ",".join(str(i) for i in res.order)
    times = ",".join(format_number(t) for t in res.per_step_times)
    print(f"makespan {format_number(res.makespan)}")
    print(f"order {order}")
    print(f"service_times {times}")
    return 0


# The space options by the generator parameter each sets.  One that is not
# given is left out of the arguments, so ``generate_random`` owns the defaults.
SPACE_OPTIONS = ("circumference", "ray_count", "length", "asymmetric", "non_line_like")


def _add_space_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=SPACE_KINDS)
    absent = {"default": argparse.SUPPRESS}
    parser.add_argument("--circumference", type=float, **absent)
    parser.add_argument("--rays", dest="ray_count", type=int, **absent)
    parser.add_argument("--length", type=float, **absent)
    parser.add_argument("--asymmetric", action="store_true", **absent)
    parser.add_argument("--non-line-like", action="store_true", **absent)


def _gen_instance(args, seed: int, knowledge: str) -> Instance:
    given = {k: v for k, v in vars(args).items() if k in SPACE_OPTIONS}
    params = GenParams(n=args.n, seed=seed, release_horizon=args.horizon, space_params=given)
    return generate_random(params, args.kind, variant=args.variant, knowledge=knowledge)


def _write(path: Optional[str], text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    _write(args.out, encode(_gen_instance(args, args.seed, args.knowledge)))
    return 0


def _cmd_batch(args) -> int:
    knowledge = COUNT_KNOWN if args.count_known else LOCATIONS_KNOWN
    # Refused before the first run, even when --count is 0: the pairing, then
    # the space and size options, which drawing the first instance checks.
    check_pairing(alg_mod.make_policy(args.policy), args.kind, args.variant, knowledge, args.n)
    _gen_instance(args, args.seed, knowledge)
    if args.bound is not None and not math.isfinite(args.bound):
        raise ValueError(f"bound must be finite, got {args.bound}")
    if args.count < 0:
        raise ValueError(f"count must be >= 0, got {args.count}")
    rows: List[BatchRow] = []
    for i in range(args.count):
        seed = args.seed + i
        run = _claim(_gen_instance(args, seed, knowledge), args.policy, f"seed {seed}: ")
        if run is None:
            return BOUND_ERROR
        rows.append(BatchRow(seed, args.policy, run.forced_completion, run.opt_completion,
                             run.forced_ratio))
    params = {
        "kind": args.kind, "variant": args.variant, "policy": args.policy,
        "count": args.count, "seed": args.seed, "n": args.n,
        "horizon": format_number(args.horizon),
        "bound": format_number(args.bound) if args.bound is not None else "none",
    }
    _write(args.out, report(rows, args.format, args.bound, params))
    if within_bound(rows, args.bound):
        return 0
    for r in [r for r in rows if not within_bound([r], args.bound)][:5]:
        print(f"bound violated at seed {r.seed}: ratio {format_number(r.ratio)}", file=sys.stderr)
    return BOUND_ERROR


def _cmd_adversary(args) -> int:
    run = _claim(adv_mod.make_adversary(args.name, args.epsilon), args.policy)
    if run is None:
        return BOUND_ERROR
    if run.opt_completion is None:
        opt = f"opt unavailable (n={run.materialized.n} > oracle cap {MAX_REQUESTS})"
    else:
        opt = f"opt {format_number(run.opt_completion)}, ratio {format_number(run.forced_ratio)}"
    print(f"forced {format_number(run.forced_completion)}, {opt}")
    if args.dump_instance:
        _write(args.dump_instance, encode(run.materialized))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oltsp-lab",
        description="Online TSP with known locations: simulator, policies, "
                    "offline oracle and adversary demonstrations.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run one policy on one instance file")
    sim.add_argument("--instance", required=True)
    sim.add_argument("--policy", required=True)
    sim.add_argument("--trace", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    orc = sub.add_parser("oracle", help="exact offline optimum of an instance file")
    orc.add_argument("--instance", required=True)
    orc.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    _add_space_args(gen)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--horizon", type=float, default=1.0)
    gen.add_argument("--variant", choices=[OPEN, CLOSED], default=CLOSED)
    gen.add_argument("--knowledge", choices=[LOCATIONS_KNOWN, COUNT_KNOWN],
                     default=LOCATIONS_KNOWN)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    bat = sub.add_parser("batch", help="seeded ratio experiment against the oracle")
    _add_space_args(bat)
    bat.add_argument("--variant", choices=[OPEN, CLOSED], required=True)
    bat.add_argument("--policy", required=True)
    bat.add_argument("--count", type=int, required=True)
    bat.add_argument("--seed", type=int, required=True)
    bat.add_argument("--bound", type=float, default=None)
    bat.add_argument("--format", choices=["csv", "json"], default="csv")
    bat.add_argument("--n", type=int, default=6)
    bat.add_argument("--horizon", type=float, default=1.0)
    bat.add_argument("--out")
    bat.add_argument("--count-known", action="store_true")
    bat.set_defaults(func=_cmd_batch)

    adv = sub.add_parser("adversary", help="run an adaptive lower-bound construction")
    adv.add_argument("--name", required=True)
    adv.add_argument("--policy", required=True)
    adv.add_argument("--epsilon", type=float, default=None)
    adv.add_argument("--dump-instance")
    adv.set_defaults(func=_cmd_adversary)
    return p


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SimulationError) and not isinstance(exc, PairingError):
            return BOUND_ERROR
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
