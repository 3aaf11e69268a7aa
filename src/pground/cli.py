"""Command-line front end: `pground solve`, `sweep`, `oracle` and `check`
(`build_parser`).  Exit codes: 0 success, 1 usage error, 2 solver
non-convergence, a degenerate iterate, floating-point overflow or an oracle
that found no bracket, 3 invariant check failure; `main` maps the errors of
every subcommand to 1 and 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import geometry, traceio
from .geometry import DomainError, Interval, Rectangle, shared_grid
from .infinity import sweep as run_sweep
from .inner import NonConvergence
from .iteration import (Custom, DegenerateIterate, InitPolicy,
                        PositiveConstant, RandomPositive, inverse_iterate,
                        verify)
from .oracles import (BracketFailure, SizeExceeded, lambda2_reference,
                      lambda_p_shooting_1d, rayleigh_bruteforce)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_domain(text: str, bounds: str | None):
    if bounds is not None and text != "rect":
        raise UsageError("--bounds applies only to --domain rect")
    if text == "interval":
        return Interval(0.0, 1.0)
    if text == "square":
        return Rectangle(0.0, 1.0, 0.0, 1.0)
    if text == "rect":
        if not bounds:
            raise UsageError("--domain rect requires --bounds AX,BX,AY,BY")
        parts = [float(x) for x in bounds.split(",")]
        if len(parts) != 4:
            raise UsageError("--bounds needs four comma-separated numbers")
        return Rectangle(*parts)
    if text.startswith("mask:"):
        return geometry.read_mask_file(text[5:])
    raise UsageError(f"unknown domain {text!r}")


def _parse_init(text: str, grid) -> InitPolicy:
    if text == "const":
        return PositiveConstant()
    if text.startswith("random:"):
        return RandomPositive(seed=int(text[7:]))
    if text == "random":
        return RandomPositive(seed=0)
    if text.startswith("file:"):
        return Custom(traceio.read_gridfunction_csv(text[5:], grid))
    raise UsageError(f"unknown init {text!r}")


def cmd_solve(args) -> int:
    spec = _parse_domain(args.domain, args.bounds)
    init = _parse_init(args.init, shared_grid(spec, args.n))
    trace = inverse_iterate(spec, args.n, args.p, init, K_max=args.max_steps,
                            tol_outer=args.tol, tol_grad=args.tol_grad)
    traceio.write_trace_csv(args.out + ".trace.csv", trace)
    traceio.write_summary_json(args.out + ".summary.json", trace)
    traceio.write_gridfunction_csv(args.out + ".final.csv", trace.final)
    print(json.dumps(traceio.trace_summary(trace)))
    return 0 if trace.converged else 2


def cmd_sweep(args) -> int:
    spec = _parse_domain(args.domain, args.bounds)
    p_list = [float(x) for x in args.p_list.split(",")]
    result = run_sweep(spec, args.n, p_list, K_max=args.max_steps,
                       tol_outer=args.tol)
    traceio.write_sweep_csv(args.out + ".sweep.csv", result)
    for e in result.entries:
        print(f"p={e.p:g} lambda_R={e.lambda_R:.6e} "
              f"lambda_root={e.lambda_root:.6f} final_ratio={e.final_ratio:.6f} "
              f"converged={e.converged}")
    print(f"inradius_reciprocal={result.inradius_reciprocal:.17g}")
    return 0 if all(e.converged for e in result.entries) else 2


def cmd_oracle(args) -> int:
    spec = _parse_domain(args.domain, args.bounds)
    if args.method == "dense":
        value, _ = lambda2_reference(spec, args.n)
        tol = 1e-12
        p = 2.0
    elif args.method == "shooting":
        if not isinstance(spec, Interval):
            raise UsageError("shooting oracle is 1D only (use --domain interval)")
        p = args.p
        tol = args.tol
        value = lambda_p_shooting_1d(p, tol)
    else:  # bruteforce
        p = args.p
        tol = 1e-6
        value = rayleigh_bruteforce(spec, args.n, p, restarts=args.restarts,
                                    seed=args.seed)
    print(json.dumps({"method": args.method, "p": p, "value": value,
                      "tol": tol}))
    return 0


def cmd_check(args) -> int:
    report = verify(traceio.read_trace(args.prefix))
    print(report)
    failures = [c.name for c in report.claims if c.passed is False]
    if failures:
        print(f"error: {len(failures)} check(s) failed: {', '.join(failures)}",
              file=sys.stderr)
        return 3
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pground",
                     description="Inverse iteration for p-Laplacian ground states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain_flags(p, need_p=True):
        p.add_argument("--domain", required=True,
                       help="interval | square | rect | mask:FILE")
        p.add_argument("--bounds", help="AX,BX,AY,BY for --domain rect")
        p.add_argument("--n", type=int, required=True,
                       help="grid resolution (interior nodes / cells on the "
                            "shorter side)")
        if need_p:
            p.add_argument("--p", type=float, required=True, help="exponent p")

    ps = sub.add_parser("solve", help="run the inverse iteration")
    add_domain_flags(ps)
    ps.add_argument("--max-steps", type=int, default=100)
    ps.add_argument("--tol", type=float, default=1e-10,
                    help="relative Cauchy tolerance on the Rayleigh quotient")
    ps.add_argument("--tol-grad", type=float, default=None)
    ps.add_argument("--init", default="const",
                    help="const | random:SEED | file:CSV (such as a "
                         "solve's PREFIX.final.csv)")
    ps.add_argument("--out", required=True, help="output file prefix")
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="large-p sweep against the inradius")
    add_domain_flags(pw, need_p=False)
    pw.add_argument("--p-list", default="4,8,16,32,64")
    pw.add_argument("--max-steps", type=int, default=200)
    pw.add_argument("--tol", type=float, default=1e-8)
    pw.add_argument("--out", required=True)
    pw.add_argument("--verbose", action="store_true")
    pw.set_defaults(func=cmd_sweep)

    po = sub.add_parser("oracle", help="reference computations")
    po.add_argument("--method", required=True,
                    choices=["dense", "shooting", "bruteforce"])
    add_domain_flags(po, need_p=False)
    po.add_argument("--p", type=float, default=2.0)
    po.add_argument("--tol", type=float, default=1e-10)
    po.add_argument("--restarts", type=int, default=64)
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(func=cmd_oracle)

    pc = sub.add_parser("check", help="re-verify a saved trace")
    pc.add_argument("prefix", help="output prefix used by solve")
    pc.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # --verbose sends the `pground` logger's records to stderr for this one
    # command: each outer step at INFO, every 1000th inner iteration at DEBUG
    progress = logging.getLogger("pground")
    handler, level = logging.StreamHandler(), progress.level
    try:
        args = parser.parse_args(argv)
        if getattr(args, "verbose", False):
            progress.addHandler(handler)
            progress.setLevel(logging.DEBUG)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (DomainError, SizeExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergence, BracketFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateIterate as exc:
        print(f"error: degenerate iterate: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a quantity past the float range, such as the Rayleigh quotient of
        # the constant start, about (1/h)^p (at p = 256 on the interval n=63)
        print(f"error: floating-point overflow ({exc}): a quotient or "
              f"energy at this p exceeds the float range", file=sys.stderr)
        return 2
    finally:
        progress.removeHandler(handler)
        progress.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
