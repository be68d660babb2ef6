"""Command-line interface: gen, balance, norm, lewis, oracle, check, width, bench.

Each subcommand's handler returns its output text, which `main` writes to
stdout or `--out`.  Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import coloring, lewis, verify
from .errors import InputError, NumericalError
from .instancefile import (KINDS, InstanceFile, check_kind, generate_instance, parse_instance,
                           serialize_instance)
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


def _check_out(out: str | None):
    """Refuse, before any work, an --out path that is a directory or lies
    in a directory that does not exist."""
    if out not in (None, "-") and (os.path.isdir(out)
                                   or not os.path.isdir(os.path.dirname(out) or ".")):
        raise InputError(f"--out {out} is a directory or lies in a missing one")


def _write(text: str, out: str | None):
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write --out {out}: {exc}")


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def build_parser() -> _Parser:
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("instance", nargs="?", default="-",
                          help="instance file path, or - for stdin (default)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0)

    parser = _Parser(prog="zonobalance",
                     description="Balance vectors inside an arbitrary zonotope.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(run=run)
        return p

    p = command("gen", _cmd_gen, "generate an instance", [seed, out])
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, required=True)

    p = command("balance", _cmd_balance, "compute balancing signs", [instance, seed, out])
    p.add_argument("--c0", type=float, default=coloring.DEFAULT_C0)
    p.add_argument("--rescale", action="store_true",
                   help="rescale vectors slightly outside the body instead of rejecting")
    p.add_argument("--exact-finish", action="store_true",
                   help="finish by exhaustive search once at most 8 coordinates remain, not 2")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle (small n only)")

    p = command("norm", _cmd_norm, "zonotope norm of a vector", [instance, out])
    p.add_argument("--x", required=True, help="vector entries, space separated")

    command("lewis", _cmd_lewis, "Lewis weights and transform of the generators", [instance, out])

    p = command("oracle", _cmd_oracle, "exact minimum discrepancy by enumeration", [instance, out])
    p.add_argument("--rescale", action="store_true")

    p = command("check", _cmd_check, "polar-identity cross-check", [instance, seed, out])
    p.add_argument("--trials", type=int, default=100)

    p = command("width", _cmd_width, "Monte-Carlo width of the normalized polar body",
                [instance, seed, out])
    p.add_argument("--samples", type=int, default=200)

    p = command("bench", _cmd_bench, "sweep a grid of instances, one CSV row per run", [out])
    p.add_argument("--kinds", default="cube,spencer-random,random-zonotope")
    p.add_argument("--d-list", default="8,16,32,64")
    p.add_argument("--seeds", type=int, default=10, help="seeds per configuration")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--c0", type=float, default=coloring.DEFAULT_C0)
    p.add_argument("--m-factor", type=int, default=4,
                   help="m = factor * d for random-zonotope instances")
    p.add_argument("--oracle-upto", type=int, default=0,
                   help="fill the opt column when n <= this value")
    return parser


def _preprocessed(path: str, rescale: bool = False):
    """The body and vectors of the vector commands: balance, oracle, check."""
    inst = _read_instance(path)
    Z, V, _ = preprocess(inst.A, inst.V, inst.U, rescale=rescale)
    return Z, V


def _lewis_position(path: str) -> lewis.LewisPosition:
    """The Lewis position of the generators, for lewis and width."""
    Z, _ = reduce_generators(_read_instance(path).A)
    return lewis.lewis_position(Z)


def _cmd_gen(args) -> str:
    rng = np.random.default_rng(args.seed)
    return serialize_instance(generate_instance(args.kind, args.d, args.m, args.n, rng))


def _check_oracle_cap(n: int, flag: str):
    """Refuse, before any balancing, `flag` asking for the oracle above its cap."""
    if n > verify.ORACLE_CAP:
        raise InputError(f"{flag} asks the oracle for n = {n}, above its cap of {verify.ORACLE_CAP}")


def _cmd_balance(args) -> str:
    Z, V = _preprocessed(args.instance, args.rescale)
    if args.oracle:
        _check_oracle_cap(V.n, "--oracle")
    report = coloring.balance(Z, V, c0=args.c0, seed=args.seed,
                              exact_finish=args.exact_finish)
    oracle = verify.brute_force_min_discrepancy(Z, V) if args.oracle else None
    kind = "stdin" if args.instance == "-" else args.instance
    if args.format == "csv":
        return verify.csv_header() + "\n" + verify.csv_row(
            kind, report, None if oracle is None else oracle.opt)
    # seed and c0 appear in the report body already
    lines = [f"instance: {kind}", f"retries: {coloring.RETRIES}",
             f"rescale: {args.rescale}", f"exact_finish: {args.exact_finish}",
             verify.bound_report(report, oracle)]
    for r in report.log:
        lines.append(
            f"round {r.index}: n_active={r.n_active} tight={r.tight_gained} "
            f"increment={r.increment!r} scale={r.scale_used!r} "
            f"c={r.c_used!r} attempts={r.attempts}")
    return "\n".join(lines)


def _cmd_norm(args) -> str:
    inst = _read_instance(args.instance)
    try:
        x = np.array([float(t) for t in args.x.split()])
    except ValueError:
        raise InputError(f"--x must be a space-separated vector, got {args.x!r}")
    Z, change = reduce_generators(inst.A)
    if x.shape[0] != change.original_d:
        raise InputError(
            f"--x has dimension {x.shape[0]}, instance has {change.original_d}")
    R, s = change.rows_to_reduced(x[None, :])
    try:
        return repr(math.ldexp(zonotope_norm(Z, R[0]), int(s[0])))
    except OverflowError:
        raise NumericalError("the gauge overflows the float range")


def _cmd_lewis(args) -> str:
    LP = _lewis_position(args.instance)
    return "\n".join([
        "weights: " + " ".join(repr(float(w)) for w in LP.w),
        f"sum_weights: {float(LP.w.sum())!r}",
        f"residual: {LP.residual!r}",
        f"iterations: {LP.iterations}",
    ])


def _cmd_oracle(args) -> str:
    res = verify.brute_force_min_discrepancy(*_preprocessed(args.instance, args.rescale))
    return "\n".join([
        f"opt: {res.opt!r}",
        "signs: " + " ".join(str(int(s)) for s in res.best_signs),
        f"evaluations: {res.evaluations}",
    ])


def _cmd_check(args) -> str:
    Z, V = _preprocessed(args.instance)
    max_gap = verify.polar_identity_check(Z, V, None, args.trials,
                                          np.random.default_rng(args.seed))
    return f"trials: {args.trials}\nmax_gap: {max_gap!r}"


def _cmd_width(args) -> str:
    est = verify.width_estimate(_lewis_position(args.instance), args.samples,
                                np.random.default_rng(args.seed))
    return (f"mean: {est.mean!r}\nstderr: {est.stderr!r}\n"
            f"samples: {est.samples}\nd: {est.d}")


class BenchSpec(NamedTuple):
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
    """The runs of a sweep; a spec its kind does not allow is refused here."""
    if seeds < 1:
        raise InputError(f"seeds must be at least 1, got {seeds}")
    if not kinds or not d_list:
        raise InputError("bench needs at least 1 kind and 1 dimension")
    grid = itertools.product(kinds, d_list, range(seeds))
    return [BenchSpec(index=index, kind=kind, d=d, n=d,
                      m=check_kind(kind, d, m_factor * d if kind == "random-zonotope" else None, d),
                      run_seed=run_seed(master_seed, index))
            for index, (kind, d, _) in enumerate(grid)]


def execute_spec(spec: BenchSpec, c0: float = coloring.DEFAULT_C0, oracle_upto: int = 0):
    """Run one benchmark spec; returns (csv_row, report, Z, V)."""
    inst = generate_instance(spec.kind, spec.d, spec.m, spec.n,
                             np.random.default_rng(spec.instance_seed))
    Z, V, _ = preprocess(inst.A, inst.V, inst.U)
    report = coloring.balance(Z, V, c0=c0, seed=spec.balance_seed)
    opt = None
    if spec.n <= oracle_upto:
        opt = verify.brute_force_min_discrepancy(Z, V).opt
    return verify.csv_row(spec.kind, report, opt), report, Z, V


def _cmd_bench(args) -> str:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    try:
        d_list = [int(t) for t in args.d_list.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"--d-list must be comma-separated integers, got {args.d_list!r}")
    lines = [
        f"# config: kinds={','.join(kinds)} d={args.d_list} seeds={args.seeds} "
        f"master_seed={args.master_seed} c0={args.c0!r} retries={coloring.RETRIES} "
        f"m_factor={args.m_factor} oracle_upto={args.oracle_upto}",
        verify.csv_header(),
    ]
    specs = bench_specs(kinds, d_list, args.seeds, args.master_seed, args.m_factor)
    for spec in specs:
        if spec.n <= args.oracle_upto:
            _check_oracle_cap(spec.n, f"--oracle-upto {args.oracle_upto}")
    for spec in specs:
        lines.append(execute_spec(spec, args.c0, args.oracle_upto)[0])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        _write(args.run(args), args.out)
        return 0
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
