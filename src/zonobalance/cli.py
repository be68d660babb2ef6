"""Command-line interface.

Subcommands: gen, balance, norm, lewis, oracle, check, width, bench.
Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import coloring, lewis, verify
from .errors import InputError, NumericalError
from .instancefile import KINDS, InstanceFile, generate_instance, parse_instance, serialize_instance
from .seeding import run_seed
from .zonotope import preprocess, reduce_generators, zonotope_norm


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _read_instance(path: str) -> InstanceFile:
    if path == "-":
        return parse_instance(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}")


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _add_instance_arg(p: argparse.ArgumentParser):
    p.add_argument("instance", nargs="?", default="-",
                   help="instance file path, or - for stdin (default)")


def build_parser() -> _Parser:
    parser = _Parser(prog="zonobalance",
                     description="Balance vectors inside an arbitrary zonotope.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("balance", help="compute balancing signs")
    _add_instance_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c0", type=float, default=coloring.DEFAULT_C0)
    p.add_argument("--retries", type=int, default=coloring.DEFAULT_RETRIES)
    p.add_argument("--rescale", action="store_true",
                   help="rescale vectors slightly outside the body instead of rejecting")
    p.add_argument("--exact-finish", action="store_true",
                   help="finish by exhaustive search once at most 8 coordinates remain")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle (small n only)")

    p = sub.add_parser("norm", help="zonotope norm of a vector")
    _add_instance_arg(p)
    p.add_argument("--x", required=True, help="vector entries, space separated")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lewis", help="Lewis weights and transform of the generators")
    _add_instance_arg(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="exact minimum discrepancy by enumeration")
    _add_instance_arg(p)
    p.add_argument("--rescale", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="polar-identity cross-check")
    _add_instance_arg(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("width", help="Monte-Carlo width of the normalized polar body")
    _add_instance_arg(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bench", help="sweep a grid of instances, one CSV row per run")
    p.add_argument("--kinds", default="cube,spencer-random,random-zonotope")
    p.add_argument("--d-list", default="8,16,32,64")
    p.add_argument("--seeds", type=int, default=10, help="seeds per configuration")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--c0", type=float, default=coloring.DEFAULT_C0)
    p.add_argument("--retries", type=int, default=coloring.DEFAULT_RETRIES)
    p.add_argument("--m-factor", type=int, default=4,
                   help="m = factor * d for random-zonotope instances")
    p.add_argument("--oracle-upto", type=int, default=0,
                   help="fill the opt column when n <= this value")
    p.add_argument("--out", default=None)
    return parser


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    inst = generate_instance(args.kind, args.d, args.m, args.n, rng)
    _write(serialize_instance(inst), args.out)
    return 0


def _cmd_balance(args) -> int:
    inst = _read_instance(args.instance)
    Z, V, _ = preprocess(inst.A, inst.V, inst.U, rescale=args.rescale)
    report = coloring.balance(Z, V, c0=args.c0, seed=args.seed,
                              retries=args.retries, exact_finish=args.exact_finish)
    oracle = verify.brute_force_min_discrepancy(Z, V) if args.oracle else None
    kind = "stdin" if args.instance == "-" else args.instance
    if args.format == "csv":
        text = verify.csv_header() + "\n" + verify.csv_row(
            kind, report, None if oracle is None else oracle.opt)
    else:
        # seed and c0 appear in the report body already
        lines = [f"instance: {kind}", f"retries: {args.retries}",
                 f"rescale: {args.rescale}", f"exact_finish: {args.exact_finish}",
                 verify.bound_report(report, oracle)]
        for r in report.log:
            lines.append(
                f"round {r.index}: n_active={r.n_active} tight={r.tight_gained} "
                f"increment={r.increment!r} scale={r.scale_used!r} "
                f"c={r.c_used!r} attempts={r.attempts}")
        text = "\n".join(lines)
    _write(text, args.out)
    return 0


def _cmd_norm(args) -> int:
    inst = _read_instance(args.instance)
    try:
        x = np.array([float(t) for t in args.x.split()])
    except ValueError:
        raise InputError(f"--x must be a space-separated vector, got {args.x!r}")
    Z, change = reduce_generators(inst.A)
    if x.shape[0] != change.original_d:
        raise InputError(
            f"--x has dimension {x.shape[0]}, instance has {change.original_d}")
    if not np.all(np.isfinite(x)):
        raise InputError("--x contains NaN or infinity")
    value = zonotope_norm(Z, change.rows_to_reduced(x[None, :])[0])
    _write(repr(value), args.out)
    return 0


def _cmd_lewis(args) -> int:
    inst = _read_instance(args.instance)
    Z, _ = reduce_generators(inst.A)
    LP = lewis.lewis_position(Z.A)
    lines = [
        "weights: " + " ".join(repr(float(w)) for w in LP.w),
        f"sum_weights: {float(LP.w.sum())!r}",
        f"residual: {LP.residual!r}",
        f"iterations: {LP.iterations}",
    ]
    _write("\n".join(lines), args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    Z, V, _ = preprocess(inst.A, inst.V, inst.U, rescale=args.rescale)
    res = verify.brute_force_min_discrepancy(Z, V)
    lines = [
        f"opt: {res.opt!r}",
        "signs: " + " ".join(str(int(s)) for s in res.best_signs),
        f"evaluations: {res.evaluations}",
    ]
    _write("\n".join(lines), args.out)
    return 0


def _cmd_check(args) -> int:
    inst = _read_instance(args.instance)
    Z, V, _ = preprocess(inst.A, inst.V, inst.U)
    max_gap = verify.polar_identity_check(Z, V, None, args.trials,
                                          np.random.default_rng(args.seed))
    _write(f"trials: {args.trials}\nmax_gap: {max_gap!r}", args.out)
    return 0


def _cmd_width(args) -> int:
    inst = _read_instance(args.instance)
    Z, _ = reduce_generators(inst.A)
    LP = lewis.lewis_position(Z.A)
    est = verify.width_estimate(LP, args.samples, np.random.default_rng(args.seed))
    _write(
        f"mean: {est.mean!r}\nstderr: {est.stderr!r}\n"
        f"samples: {est.samples}\nd: {est.d}", args.out)
    return 0


@dataclass(frozen=True)
class BenchSpec:
    """One run of a benchmark sweep; seeds derive from the run index so any
    single run can be reproduced in isolation."""

    index: int
    kind: str
    d: int
    m: int
    n: int
    run_seed: int

    @property
    def instance_seed(self) -> int:
        return run_seed(self.run_seed, 0)

    @property
    def balance_seed(self) -> int:
        return run_seed(self.run_seed, 1)


def bench_specs(kinds: list[str], d_list: list[int], seeds: int,
                master_seed: int, m_factor: int) -> list[BenchSpec]:
    if seeds < 1:
        raise InputError(f"seeds must be at least 1, got {seeds}")
    if not kinds or not d_list:
        raise InputError("bench needs at least 1 kind and 1 dimension")
    specs = []
    index = 0
    for kind in kinds:
        for d in d_list:
            for _ in range(seeds):
                m = m_factor * d if kind == "random-zonotope" else d
                specs.append(BenchSpec(index=index, kind=kind, d=d, m=m, n=d,
                                       run_seed=run_seed(master_seed, index)))
                index += 1
    return specs


def execute_spec(spec: BenchSpec, c0: float = coloring.DEFAULT_C0,
                 retries: int = coloring.DEFAULT_RETRIES,
                 oracle_upto: int = 0):
    """Run one benchmark spec; returns (csv_row, report, Z, V)."""
    inst = generate_instance(spec.kind, spec.d, spec.m, spec.n,
                             np.random.default_rng(spec.instance_seed))
    Z, V, _ = preprocess(inst.A, inst.V, inst.U)
    report = coloring.balance(Z, V, c0=c0, seed=spec.balance_seed,
                              retries=retries)
    opt = None
    if spec.n <= oracle_upto:
        opt = verify.brute_force_min_discrepancy(Z, V).opt
    return verify.csv_row(spec.kind, report, opt), report, Z, V


def _cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for k in kinds:
        if k not in KINDS:
            raise InputError(f"unknown kind {k!r} in --kinds")
    try:
        d_list = [int(t) for t in args.d_list.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"--d-list must be comma-separated integers, got {args.d_list!r}")
    lines = [
        f"# config: kinds={','.join(kinds)} d={args.d_list} seeds={args.seeds} "
        f"master_seed={args.master_seed} c0={args.c0!r} retries={args.retries} "
        f"m_factor={args.m_factor} oracle_upto={args.oracle_upto}",
        verify.csv_header(),
    ]
    for spec in bench_specs(kinds, d_list, args.seeds, args.master_seed, args.m_factor):
        lines.append(execute_spec(spec, args.c0, args.retries, args.oracle_upto)[0])
    _write("\n".join(lines), args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "balance": _cmd_balance,
    "norm": _cmd_norm,
    "lewis": _cmd_lewis,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "width": _cmd_width,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
