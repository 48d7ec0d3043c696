"""Command-line interface: simulate, estimate, mc-table, rate-check, dzeta.

`harness` and `estimators` are imported in the commands that use them, so
that `dzeta` starts without compiling them.  `levy`, `kernels` and `stable`,
and with it `workers`, load with this module, before any command forks.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import cache

import numpy as np

from .errors import DiagnosticError, NumericalError, ParameterError
from .kernels import Kernel, cancelling_kernel
from .levy import JumpLaw, ModelSpec, simulate_path
from .stable import d_zeta, d_zeta_asymptotic


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract is
    # exit 1 for any validation problem, so funnel through ParameterError.
    def error(self, message):
        raise ParameterError(message)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    from .harness import path_to_csv

    jump_law = None
    if args.gamma != 0.0:
        jump_law = JumpLaw(kind=args.jumps, alpha=args.alpha)
    model = ModelSpec(
        drift=args.drift, sigma=args.sigma, gamma=args.gamma, jump_law=jump_law
    )
    path = simulate_path(model, args.n, args.seed if args.seed is not None else 0)
    _write_or_print(path_to_csv(path), args.out)
    return 0


def _cmd_estimate(args) -> int:
    from .estimators import EstimatorConfig, estimates
    from .harness import path_from_csv, read_text

    config = EstimatorConfig(beta=args.beta, k=args.k)
    increments = path_from_csv(read_text(getattr(args, "in")), config)
    row = estimates(increments, config, args.alpha, args.gamma, args.M)
    q_n, q_c, q_nc = row.tolist()
    text = f"q_n = {q_n!r}\nq_n_corrected = {q_c!r}\nq_n_cancelled = {q_nc!r}\n"
    _write_or_print(text, args.out)
    return 0


def _load_config(args):
    """The config named by --config, with --seed applied when given."""
    from .harness import load_config

    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_mc_table(args) -> int:
    from .harness import emit_report, run_mc

    config = _load_config(args)
    csv_path = args.out or config.csv_path
    if not csv_path:
        raise ParameterError("no output path: pass --out or set csv in the config")
    report = run_mc(config)
    emit_report(report, "csv", csv_path)
    if config.json_path:
        emit_report(report, "json", config.json_path)
    return 0


def _cmd_rate_check(args) -> int:
    from .harness import run_rate_experiment

    text = run_rate_experiment(_load_config(args))
    _write_or_print(text, args.out)
    return 0


def _cmd_dzeta(args) -> int:
    if args.kernel == "phi":
        kernel = Kernel(M=args.M)
    else:
        kernel = cancelling_kernel(args.alpha, args.M)
    try:
        zetas = [float(z) for z in args.zeta.replace(",", " ").split()]
    except ValueError:
        raise ParameterError(f"--zeta must be numbers, got {args.zeta!r}") from None
    if not zetas:
        raise ParameterError("--zeta needs at least one value")
    seed = args.seed if args.seed is not None else 0
    rows = d_zeta(zetas, args.alpha, args.draws, seed, kernel)
    lines = ["zeta,alpha,mc,quadrature,asymptotic,stderr"]
    for z, (mc, stderr, quad) in zip(zetas, rows):
        asym = d_zeta_asymptotic(z, args.alpha, kernel)
        lines.append(f"{z!r},{args.alpha!r},{mc!r},{quad!r},{asym!r},{stderr!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process (building it takes a few ms)."""
    parser = _Parser(prog="jumpvol", description="Jump-diffusion volatility toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="dump one simulated path as CSV")
    common(p)
    p.add_argument("--n", type=int, default=700)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--jumps", choices=["stable", "tempered"], default="stable")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run the estimators on a path CSV")
    # estimating a given path draws nothing, so it takes no --seed
    common(p, seed=False)
    p.add_argument("--in", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--M", type=float, default=4.0, help="M of Q_nc's kernel")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mc-table", help="run a Monte Carlo experiment from a config")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_mc_table)

    p = sub.add_parser("rate-check", help="fit the bias decay rate per config cell")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_rate_check)

    p = sub.add_parser("dzeta", help="evaluate d(zeta) by MC, quadrature, asymptotics")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--zeta", required=True, help="one or more values, comma separated")
    p.add_argument("--kernel", choices=["phi", "composite"], default="phi")
    p.add_argument("--M", type=float, default=4.0)
    p.add_argument("--draws", type=int, default=10**6)
    p.set_defaults(func=_cmd_dzeta)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy seeds only from non-negative integers
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ParameterError(f"--seed must be non-negative, got {seed}")
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, DiagnosticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
