"""Command-line front end: simulate, oracle, gen, batch, adversary.

Exit codes: 0 success / bound pass, 1 bound violation or infeasibility,
2 usage errors (including incompatible policy pairings and request counts
past a policy's cap).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import adversaries as adv_mod
from . import algorithms as alg_mod
from .engine import (
    Outcome,
    PairingError,
    SimulationError,
    check_completion,
    check_pairing,
    competitive_ratio,
    outcome_to_text,
    simulate,
    verify_outcome,
)
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
    generate_random,
    validate_instance,
)
from .metric import EPS, SPACE_KINDS
from .oracle import opt_makespan

USAGE_ERROR = 2
BOUND_ERROR = 1


def _num(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class BatchRow:
    seed: int
    policy: str
    alg: float
    opt: float
    ratio: float


def report(rows: Sequence[BatchRow], fmt: str, bound: Optional[float],
           params: Optional[dict] = None) -> str:
    max_ratio = max((r.ratio for r in rows), default=0.0)
    mean_ratio = sum(r.ratio for r in rows) / len(rows) if rows else 0.0
    passed = bound is None or max_ratio <= bound + EPS
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
        lines.append(f"{r.seed},{r.policy},{_num(r.alg)},{_num(r.opt)},{_num(r.ratio)}")
    summary = (
        f"# summary max_ratio={_num(max_ratio)} mean_ratio={_num(mean_ratio)} "
        f"bound={_num(bound) if bound is not None else 'none'} "
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


def _feasible(inst: Instance, out: Outcome, where: str = "") -> bool:
    """Whether ``out`` passes ``verify_outcome``; prints the issues if not."""
    bad = verify_outcome(inst, out)
    if bad:
        print(f"{where}infeasible outcome: " + "; ".join(bad), file=sys.stderr)
    return not bad


def _cmd_simulate(args) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return BOUND_ERROR
    out = simulate(inst, alg_mod.make_policy(args.policy))
    if not _feasible(inst, out):
        return BOUND_ERROR
    line = f"completion {_num(out.completion)}"
    if inst.n <= MAX_REQUESTS:
        opt = opt_makespan(inst).makespan
        check_completion(out.completion, opt)
        if opt > EPS:
            line += f", opt {_num(opt)}, ratio {_num(competitive_ratio(out.completion, opt))}"
        else:
            line += f", opt {_num(opt)}"
    print(line)
    if args.trace:
        print(outcome_to_text(out, inst.space), end="")
    return 0


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return BOUND_ERROR
    res = opt_makespan(inst)
    order = ",".join(str(i) for i in res.order)
    times = ",".join(_num(t) for t in res.per_step_times)
    print(f"makespan {_num(res.makespan)}")
    print(f"order {order}")
    print(f"service_times {times}")
    return 0


def _add_space_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=SPACE_KINDS)
    parser.add_argument("--circumference", type=float, default=1.0)
    parser.add_argument("--rays", type=int, default=5)
    parser.add_argument("--length", type=float, default=1.0)
    parser.add_argument("--asymmetric", action="store_true")
    parser.add_argument("--non-line-like", action="store_true")


def _space_args(args) -> dict:
    """Generator space parameters of ``args.kind`` from the space options."""
    return {
        "ring": {"circumference": args.circumference, "non_line_like": args.non_line_like},
        "star": {"ray_count": args.rays, "length": args.length},
        "semiline": {"length": args.length},
        "line": {"length": args.length},
        "general": {"asymmetric": args.asymmetric},
    }[args.kind]


def _gen_instance(args, seed: int, knowledge: str) -> Instance:
    params = GenParams(n=args.n, seed=seed, release_horizon=args.horizon,
                       space_params=_space_args(args))
    return generate_random(params, args.kind, variant=args.variant, knowledge=knowledge)


def _cmd_gen(args) -> int:
    inst = _gen_instance(args, args.seed, args.knowledge)
    text = encode(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_batch(args) -> int:
    knowledge = COUNT_KNOWN if args.count_known else LOCATIONS_KNOWN
    # Refused before any instance is drawn, even when --count is 0.
    check_pairing(alg_mod.make_policy(args.policy), args.kind, args.variant, knowledge)
    rows: List[BatchRow] = []
    for i in range(args.count):
        seed = args.seed + i
        inst = _gen_instance(args, seed, knowledge)
        policy = alg_mod.make_policy(args.policy)
        out = simulate(inst, policy)
        if not _feasible(inst, out, f"seed {seed}: "):
            return BOUND_ERROR
        opt = opt_makespan(inst).makespan
        check_completion(out.completion, opt)
        ratio = competitive_ratio(out.completion, opt)
        rows.append(BatchRow(seed, args.policy, out.completion, opt, ratio))
    params = {
        "kind": args.kind, "variant": args.variant, "policy": args.policy,
        "count": args.count, "seed": args.seed, "n": args.n,
        "horizon": _num(args.horizon),
        "bound": _num(args.bound) if args.bound is not None else "none",
    }
    text = report(rows, args.format, args.bound, params)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.bound is not None:
        worst = [r for r in rows if r.ratio > args.bound + EPS]
        if worst:
            for r in worst[:5]:
                print(f"bound violated at seed {r.seed}: ratio {_num(r.ratio)}",
                      file=sys.stderr)
            return BOUND_ERROR
    return 0


def _cmd_adversary(args) -> int:
    adversary = adv_mod.make_adversary(args.name, args.epsilon)
    run = adv_mod.run_adversary(adversary, alg_mod.make_policy(args.policy))
    # Checked against the realized releases under the engine's ids, which
    # ``run.materialized`` renumbers by position.
    realized = Instance(adversary.space, adversary.variant, run.outcome.realized)
    if not _feasible(realized, run.outcome):
        return BOUND_ERROR
    if run.opt_completion is None:
        opt = f"opt unavailable (n={run.materialized.n} > oracle cap {MAX_REQUESTS})"
    else:
        opt = f"opt {_num(run.opt_completion)}, ratio {_num(run.forced_ratio)}"
    print(f"forced {_num(run.forced_completion)}, {opt}")
    if args.dump_instance:
        with open(args.dump_instance, "w", encoding="utf-8") as fh:
            fh.write(encode(run.materialized))
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
