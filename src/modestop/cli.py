"""Command-line entry points.

Subcommands: mode-sim, figure1, table1, bounds, verify, election-sim,
blockchain-sim. Exit code 0 on success, 1 on validation or runtime errors,
and for the verify subcommand also 1 when a sweep reports failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

from . import blockchain, elections, harness, theory
from .instances import _int_at_least, derive_stream
from .stopping import RULE_TOKENS, parse_rule_token


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--reps", type=int, default=100, help="replications per cell")
    parser.add_argument("--out", type=str, default=None, help="summary CSV path")


def _parse_list(flag: str, text: str) -> list[str]:
    """Comma-separated tokens of a list option; an empty list is an error."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"{flag} {text!r} names no value")
    return tokens


def _parse_floats(flag: str, text: str) -> list[float]:
    """``_parse_list`` of numbers; a token that is not one is an error."""
    values = []
    for tok in _parse_list(flag, text):
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"{flag} {tok!r} is not a number") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modestop",
        description="Sequential mode-estimation stopping rules and simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mode-sim", help="replicated mode-estimation trials on one instance")
    p.add_argument("--probs", required=True, help="comma-separated probabilities, e.g. 0.5,0.25,0.25")
    p.add_argument("--rule", required=True, choices=RULE_TOKENS)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--trials", type=str, default=None, help="per-trial JSONL path")
    _add_common(p)

    p = sub.add_parser("figure1", help="Bernoulli-case engine comparison sweep")
    p.add_argument("--p1", type=str, default=None, help="comma-separated p1 grid")
    p.add_argument("--deltas", type=str, default=None, help="comma-separated delta grid at p1=0.65")
    _add_common(p)

    p = sub.add_parser("table1", help="six-instance 1v1/1vr comparison suite")
    p.add_argument("--instances", type=str, default=None, help="subset, e.g. P1,P3")
    p.add_argument("--fast", action="store_true",
                   help="cap the two slow instances (P5, P6) at 20 replications")
    _add_common(p)

    p = sub.add_parser("bounds", help="closed-form sample-complexity calculators")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of labeled text")

    p = sub.add_parser("verify", help="numeric inequality verifiers")
    vsub = p.add_subparsers(dest="verifier", required=True)
    vc = vsub.add_parser("conjecture", help="pairwise-vs-rest crossing inequality sweep")
    vc.add_argument("--x-max", type=int, default=30)
    vc.add_argument("--y-max", type=int, default=30)
    vc.add_argument("--f-max", type=int, default=30)
    vc.add_argument("--k", type=int, default=None, help="use the (K-1)/K factor instead of the strong form")
    vm = vsub.add_parser("monotonic", help="Beta density at 1/2 monotone in the trailing count")
    vm.add_argument("--a-max", type=int, default=64)
    vm.add_argument("--b-max", type=int, default=64)
    vt = vsub.add_parser("thm3-margin", help="constant-chain margin check")
    vt.add_argument("--p1", type=float, default=None)
    vt.add_argument("--p2", type=float, default=None)
    vt.add_argument("--pj", type=float, default=None)
    vt.add_argument("--k", type=int, default=None, help="K at the point (default 3)")
    vt.add_argument("--delta", type=float, default=None, help="delta at the point (default 0.01)")

    p = sub.add_parser("election-sim", help="indirect-election winner forecasting")
    p.add_argument("--data", type=str, default="synthetic50",
                   help="CSV path with constituency,party,votes rows, or the token synthetic50")
    p.add_argument("--policy", choices=elections.ELECTION_POLICIES, default="dcb")
    p.add_argument("--rule", type=str, default="ppr-1v1")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=200)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("blockchain-sim", help="Byzantine answer-verification sweep")
    p.add_argument("--n", type=int, default=1600)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--delta", type=float, default=0.005)
    p.add_argument("--fmax", type=float, default=0.1)
    p.add_argument("--f", type=str, default="0.05,0.1,0.15,0.2,0.25,0.3")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--policy", type=str, default="sprt",
                   help="comma-separated subset of " + ",".join(blockchain.BLOCKCHAIN_POLICIES))
    p.add_argument("--runs", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    return parser


def _cmd_mode_sim(args) -> int:
    spec = harness.ExperimentSpec(
        probs=tuple(_parse_floats("--probs", args.probs)),
        rule=args.rule,
        delta=args.delta,
        replications=args.reps,
        master_seed=args.seed,
        suite="mode-sim",
    )
    row, records = harness.run_experiment(spec)
    if args.trials:
        harness.write_trials_jsonl(records, args.trials)
    if args.out:
        harness.write_summary_csv([row], args.out)
    print(
        f"{row.rule} on ({row.instance}) delta={row.delta}: "
        f"mean {row.mean_samples:.1f} +- {row.stderr_samples:.1f} SE over n={row.n}, "
        f"mistake rate {row.mistake_rate:.4f}"
    )
    return 0


def _cmd_figure1(args) -> int:
    rows = harness.figure1_sweep(
        p1_values=None if args.p1 is None else _parse_floats("--p1", args.p1),
        delta_values=None if args.deltas is None else _parse_floats("--deltas", args.deltas),
        reps=args.reps,
        master_seed=args.seed,
    )
    for row in rows:
        print(f"{row.instance} {row.rule}: {row.mean_samples:.1f} +- {row.stderr_samples:.1f}")
    if args.out:
        harness.write_summary_csv(rows, args.out)
    return 0


def _cmd_table1(args) -> int:
    instances = None if args.instances is None else _parse_list("--instances", args.instances)
    rows = harness.table1_suite(
        reps=args.reps, master_seed=args.seed, fast=args.fast, instances=instances
    )
    for row in rows:
        print(
            f"{row.instance} {row.rule}: {row.mean_samples:.1f} +- {row.stderr_samples:.1f} "
            f"(n={row.n}, mistakes {row.mistake_rate:.3f})"
        )
    if args.out:
        harness.write_summary_csv(rows, args.out)
    return 0


def _cmd_bounds(args) -> int:
    report = theory.bound_report(args.p1, args.p2, args.k, args.delta)
    if args.csv:
        print("quantity,samples")
        for name, value in report.as_rows():
            print(f"{name},{'' if value is None else repr(value)}")
    else:
        for name, value in report.as_rows():
            shown = "n/a (K > 2)" if value is None else f"{value:.2f}"
            print(f"{name:>22}: {shown}")
    return 0


def _cmd_verify(args) -> int:
    if args.verifier == "conjecture":
        failures = theory.verify_1v1_1vr_conjecture(args.x_max, args.y_max, args.f_max, k=args.k)
        print(f"conjecture sweep x<= {args.x_max}, y<= {args.y_max}, f<= {args.f_max}: "
              f"{len(failures)} failures")
        for triple in failures[:20]:
            print("  failing triple:", triple)
        return 1 if failures else 0
    if args.verifier == "monotonic":
        ok = theory.verify_beta_monotonicity(args.a_max, args.b_max)
        print(f"beta monotonicity sweep to ({args.a_max}, {args.b_max}):", "ok" if ok else "FAILED")
        return 0 if ok else 1
    if args.verifier == "thm3-margin":
        given = {"--p1": args.p1, "--p2": args.p2, "--pj": args.pj}
        missing = [flag for flag, value in given.items() if value is None]
        if 0 < len(missing) < 3:
            raise ValueError(f"--p1, --p2 and --pj go together; missing {', '.join(missing)}")
        if not missing:
            points = [(args.p1, args.p2, args.pj, 3 if args.k is None else args.k,
                       0.01 if args.delta is None else args.delta)]
        elif args.k is not None or args.delta is not None:
            raise ValueError("--k and --delta apply only to a --p1/--p2/--pj point")
        else:
            # the Table-1 instances: the two leaders, the last value, K
            points = [
                (p[0], p[1], p[-1], len(p), 0.01) for p in harness.TABLE1_INSTANCES.values()
            ]
        bad = [pt for pt in points if not theory.verify_thm3_margin(*pt)]
        print(f"margin check over {len(points)} points: {len(bad)} failures")
        for pt in bad:
            print("  failing point:", pt)
        return 1 if bad else 0
    raise AssertionError("unreachable")


def _cmd_election_sim(args) -> int:
    if args.data == "synthetic50":
        instance = elections.synthetic_election()
    else:
        instance = elections.load_election_csv(args.data)
    _int_at_least("--seeds", args.seeds, 1)
    rows = []
    engine_kind, scheme = parse_rule_token(args.rule)
    for s in range(args.seeds):
        rec = elections.run_election(
            instance, args.policy, args.rule, args.delta, args.batch,
            derive_stream(args.seed, s),
        )
        rows.append((args.policy, engine_kind, scheme, args.delta, s,
                     rec.samples, rec.winner, rec.seats_resolved, rec.correct))
        print(f"seed {s}: samples {rec.samples:,} winner {rec.winner} "
              f"seats {rec.seats_resolved} correct {rec.correct}")
    mean = sum(r[5] for r in rows) / len(rows)
    print(f"mean samples over {args.seeds} seeds: {mean:,.0f}")
    if args.out:
        harness.write_csv(
            args.out,
            ["policy", "rule", "scheme", "delta", "seed",
             "samples", "winner", "seats_resolved", "correct"],
            rows,
        )
    return 0


def _cmd_blockchain_sim(args) -> int:
    policies = _parse_list("--policy", args.policy)
    cells = blockchain.sweep_f(
        n=args.n,
        m=args.m,
        k=args.k,
        delta=args.delta,
        f_max=args.fmax,
        f_values=_parse_floats("--f", args.f),
        policies=policies,
        runs=args.runs,
        master_seed=args.seed,
    )
    for c in cells:
        print(
            f"f={c.f:g} {c.policy}: mean {c.mean_samples:.1f} +- {c.stderr_samples:.2f}, "
            f"error rate {c.error_rate:.4f}"
        )
    if args.out:
        harness.write_csv(
            args.out, [f.name for f in fields(blockchain.SweepCell)], map(astuple, cells)
        )
    return 0


_COMMANDS = {
    "mode-sim": _cmd_mode_sim,
    "figure1": _cmd_figure1,
    "table1": _cmd_table1,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "election-sim": _cmd_election_sim,
    "blockchain-sim": _cmd_blockchain_sim,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
