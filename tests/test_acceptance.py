"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the realized constants.  The standard suite (three instance
kinds, d in {8,16,32,64}, ten seeds each) is executed once and shared.
"""

import math
import time

import numpy as np
import pytest

from zonobalance.cli import bench_specs, execute_spec
from zonobalance.coloring import C_IMPL, balance
from zonobalance.instancefile import generate_instance
from zonobalance.lewis import check_inclusions, lewis_position
from zonobalance.verify import (
    brute_force_min_discrepancy,
    polar_identity_check,
    width_estimate,
)
from zonobalance.zonotope import Zonotope, preprocess, zonotope_norm

KINDS = ["cube", "spencer-random", "random-zonotope"]
D_LIST = [8, 16, 32, 64]
SEEDS = 10
MASTER_SEED = 0
M_FACTOR = 4


def _report(num: int, detail: str):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def suite():
    """The standard benchmark grid, executed once: 120 balancing runs."""
    specs = bench_specs(KINDS, D_LIST, SEEDS, MASTER_SEED, M_FACTOR)
    t0 = time.time()
    runs = []
    for spec in specs:
        row, report, Z, V = execute_spec(spec)
        runs.append({"spec": spec, "row": row, "report": report, "Z": Z, "V": V})
    elapsed = time.time() - t0
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_1_end_to_end_validity(suite):
    assert len(suite["runs"]) == len(KINDS) * len(D_LIST) * SEEDS
    worst_gap = 0.0
    for run in suite["runs"]:
        rep = run["report"]
        assert set(np.abs(rep.signs)) == {1}, "signs must be exactly +-1"
        recomputed = zonotope_norm(run["Z"], run["V"].V.T @ rep.signs)
        gap = abs(recomputed - rep.discrepancy)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
    assert suite["elapsed"] <= 600.0, f"suite took {suite['elapsed']:.1f}s"
    _report(1, f"120 runs valid, recompute gap <= {worst_gap:.2e}, "
               f"runtime {suite['elapsed']:.1f}s")


def test_criterion_2_bound_conformance(suite):
    assert C_IMPL <= 32.0
    max_ratio = 0.0
    for run in suite["runs"]:
        rep = run["report"]
        bound = math.sqrt(rep.n * math.log2(2.0 * rep.d / rep.n))
        assert rep.discrepancy <= C_IMPL * bound, (
            f"{run['spec']}: discrepancy {rep.discrepancy} exceeds "
            f"C_impl * bound = {C_IMPL * bound}")
        max_ratio = max(max_ratio, rep.discrepancy / bound)
    _report(2, f"C_impl = {C_IMPL}, realized max ratio = {max_ratio:.4f}")


def test_criterion_3_spencer_scaling(suite):
    medians = {}
    for d in D_LIST:
        ratios = [run["report"].discrepancy / math.sqrt(d)
                  for run in suite["runs"]
                  if run["spec"].kind == "spencer-random" and run["spec"].d == d]
        assert len(ratios) == SEEDS
        medians[d] = float(np.median(ratios))
    spread = max(medians.values()) / min(medians.values())
    assert spread <= 3.0, f"median spread {spread:.3f} across {medians}"
    _report(3, "median discrepancy/sqrt(d): "
               + ", ".join(f"d={d}: {m:.3f}" for d, m in medians.items())
               + f"; spread factor {spread:.3f}")


def test_criterion_4_oracle_dominance_and_gap():
    gaps = []
    for i in range(20):
        d = (6, 8, 10, 12)[i % 4]
        rng = np.random.default_rng(1000 + i)
        inst = generate_instance("random-zonotope", d, 3 * d, d, rng)
        Z, V, _ = preprocess(inst.A, inst.V, inst.U)
        oracle = brute_force_min_discrepancy(Z, V)
        rep = balance(Z, V, seed=i)
        assert oracle.opt <= rep.discrepancy + 1e-8
        bound = math.sqrt(d * math.log2(2.0 * d / d))
        gaps.append(rep.discrepancy / max(oracle.opt, 0.1 * bound))
    for i in range(3):
        rng = np.random.default_rng(2000 + i)
        inst = generate_instance("duplicated", 6, None, 6, rng)
        Z, V, _ = preprocess(inst.A, inst.V)
        assert brute_force_min_discrepancy(Z, V).opt == 0.0
    _report(4, f"20 instances dominated; mean(disc/max(opt, 0.1*bound)) = "
               f"{float(np.mean(gaps)):.3f}; duplicated opt = 0 exactly")


def test_criterion_5_partial_coloring_contract(suite):
    for run in suite["runs"]:
        rep = run["report"]
        for rec in rep.log:
            assert rec.tight_gained >= math.ceil(rec.n_active / 2)
            assert rec.increment <= rec.scale_used
        sizes = [rec.n_active for rec in rep.log]
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt <= math.ceil(prev / 2)
        assert rep.rounds <= math.ceil(math.log2(rep.n)) + 1
    total_rounds = sum(run["report"].rounds for run in suite["runs"])
    _report(5, f"all rounds fix >= half and stay within scale; "
               f"{total_rounds} rounds across 120 runs")


def test_criterion_6_lewis_position():
    rng = np.random.default_rng(42)
    worst_resid = 0.0
    worst_sum = 0.0
    worst_sandwich = 0.0
    for i in range(20):
        d = int(rng.integers(2, 21))
        m = int(rng.integers(d, 101))
        A = rng.standard_normal((m, d))
        LP = lewis_position(Zonotope(A))
        worst_resid = max(worst_resid, LP.residual)
        worst_sum = max(worst_sum, abs(LP.w.sum() - d))
        assert LP.iterations <= 200
        assert LP.residual <= 1e-8
        assert abs(LP.w.sum() - d) <= 1e-6
        rep = check_inclusions(LP, 1000, rng)
        assert rep.passed, f"violation {rep.max_violation}"
        worst_sandwich = max(worst_sandwich, rep.max_violation)
    _report(6, f"20 instances converged; max residual {worst_resid:.2e}, "
               f"max |sum w - d| {worst_sum:.2e}, "
               f"max sandwich violation {worst_sandwich:.2e}")


def test_criterion_7_polar_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    trials = 0
    for i in range(5):
        d = int(rng.integers(3, 7))
        m = int(rng.integers(2 * d, 4 * d))
        inst = generate_instance("random-zonotope", d, m, d,
                                 np.random.default_rng(3000 + i))
        Z, V, _ = preprocess(inst.A, inst.V, inst.U)
        worst = max(worst, polar_identity_check(Z, V, None, 20, rng))
        trials += 20
    assert trials == 100
    assert worst <= 1e-6
    _report(7, f"100 triples, max |LHS - RHS| = {worst:.2e}")


def test_criterion_8_width_probe():
    # one-dimensional closed form
    LP1 = lewis_position(Zonotope([[2.0], [1.0]]))
    est1 = width_estimate(LP1, 600, np.random.default_rng(81))
    target = math.sqrt(2.0 / math.pi)
    assert abs(est1.mean - target) <= 3.0 * est1.stderr

    # cross-polytope versus an independent direct Monte-Carlo
    d = 8
    est2 = width_estimate(lewis_position(Zonotope(np.eye(d))), 500,
                          np.random.default_rng(82))
    g = np.random.default_rng(83).standard_normal((400000, d))
    direct = float(np.abs(g).max(axis=1).mean())
    assert abs(est2.mean - direct) <= 3.0 * est2.stderr

    # growth-order window over sign matrices
    ratios = {}
    for d in (4, 16, 64):
        rng = np.random.default_rng(84 + d)
        A = rng.choice([-1.0, 1.0], size=(2 * d, d))
        while np.linalg.matrix_rank(A) < d:
            A = rng.choice([-1.0, 1.0], size=(2 * d, d))
        est = width_estimate(lewis_position(Zonotope(A)), 200, rng)
        ratios[d] = est.mean / math.sqrt(math.log2(1.0 + d))
    window = max(ratios.values()) / min(ratios.values())
    assert window <= 4.0, f"width ratios {ratios}"
    _report(8, f"d=1 within 3se of sqrt(2/pi); l1 ball within 3se of direct MC; "
               f"scaling window {window:.3f} over {ratios}")


def test_criterion_9_determinism(suite):
    reruns = 0
    for run in suite["runs"]:
        spec = run["spec"]
        if spec.index % 10 == 3:  # one rerun per (kind, d) block
            row2, _, _, _ = execute_spec(spec)
            assert row2 == run["row"], f"row changed on rerun: {spec}"
            reruns += 1
    assert reruns == len(KINDS) * len(D_LIST)
    _report(9, f"{reruns} suite runs repeated byte-identically")
