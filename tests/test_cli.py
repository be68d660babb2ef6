"""End-to-end tests of the command-line surface (exit codes, formats)."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zonobalance
from zonobalance import coloring
from zonobalance.cli import main
from zonobalance.instancefile import InstanceFile, generate_instance, serialize_instance
from zonobalance.seeding import run_seed, splitmix64


@pytest.fixture
def cube4(tmp_path):
    inst = generate_instance("cube", 4, None, 4, np.random.default_rng(1))
    path = tmp_path / "cube4.txt"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.fixture
def spencer6(tmp_path):
    inst = generate_instance("spencer-random", 6, None, 6, np.random.default_rng(2))
    path = tmp_path / "spencer6.txt"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.fixture
def tall4(tmp_path):
    path = tmp_path / "tall4.txt"
    assert main(["gen", "--kind", "random-zonotope", "--d", "4", "--m", "16", "--n", "4",
                 "--seed", "1", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def spencer4(tmp_path):
    path = tmp_path / "spencer4.txt"
    assert main(["gen", "--kind", "spencer-random", "--d", "4", "--n", "4",
                 "--seed", "1", "--out", str(path)]) == 0
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPipeline:
    def test_gen_then_balance(self, capsys, monkeypatch, tmp_path):
        code = main(["gen", "--kind", "cube", "--d", "4", "--n", "4",
                     "--seed", "1", "--out", str(tmp_path / "i.txt")])
        assert code == 0
        code, out, _ = run_cli(capsys, "balance", str(tmp_path / "i.txt"),
                               "--seed", "7")
        assert code == 0
        signs = [int(t) for t in
                 next(l for l in out.splitlines() if l.startswith("signs:")).split()[1:]]
        assert all(s in (-1, 1) for s in signs)

    def test_balance_from_stdin(self, capsys, monkeypatch):
        inst = generate_instance("cube", 3, None, 3, np.random.default_rng(0))
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(inst)))
        code, out, _ = run_cli(capsys, "balance", "-", "--seed", "3")
        assert code == 0
        assert "discrepancy:" in out

    def test_norm_prints_value(self, capsys, tmp_path):
        inst = generate_instance("cube", 2, None, 2, np.random.default_rng(0))
        path = tmp_path / "id2.txt"
        path.write_text(serialize_instance(inst))
        code, out, _ = run_cli(capsys, "norm", str(path), "--x", "3 0")
        assert code == 0
        assert float(out.strip()) == 3.0

    def test_csv_format(self, capsys, cube4):
        code, out, _ = run_cli(capsys, "balance", cube4, "--seed", "5",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("kind,d,m,n,seed,c0,")
        assert row.split(",")[1:5] == ["4", "4", "4", "5"]

    def test_csv_quotes_a_path_with_comma_and_quote(self, capsys, cube4, tmp_path):
        path = tmp_path / 'a,b"c.txt'
        path.write_text(Path(cube4).read_text())
        code, out, _ = run_cli(capsys, "balance", str(path), "--seed", "5",
                               "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out.strip()))
        assert len(header) == len(row) == 12
        assert row[0] == str(path)

    def test_balance_with_oracle_column(self, capsys, cube4):
        code, out, _ = run_cli(capsys, "balance", cube4, "--seed", "5",
                               "--oracle", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.split(",")[-1] != ""


class TestExitCodes:
    def test_vector_outside_body(self, capsys, monkeypatch):
        text = "2 2 1\n1.0 0.0\n0.0 1.0\n5.0 0.0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_cli(capsys, "balance", "-")
        assert code == 1
        assert "vector 0" in err

    def test_rescale_flag_recovers(self, capsys, monkeypatch):
        text = "2 2 1\n1.0 0.0\n0.0 1.0\n5.0 0.0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "balance", "-", "--rescale")
        assert code == 0

    def test_unknown_flag_exits_one(self, capsys, cube4):
        for argv in (("balance", cube4, "--frobnicate"),
                     ("lewis", cube4, "--max-iter", "200")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert "usage" in err.lower() or "error" in err.lower()

    def test_malformed_file_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 3 1\n1.0 0.0\n"))
        code, _, err = run_cli(capsys, "balance", "-")
        assert code == 1
        assert "line" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "balance", "/nonexistent/path.txt")
        assert code == 1

    def test_numerical_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(zonobalance.lewis, "MAX_ITER_LEWIS", 1)
        inst = generate_instance("random-zonotope", 5, 20, 5,
                                 np.random.default_rng(4))
        path = tmp_path / "rz.txt"
        path.write_text(serialize_instance(inst))
        code, _, err = run_cli(capsys, "lewis", str(path))
        assert code == 2
        assert "numerical" in err.lower()

    @pytest.mark.parametrize("body", ["tall4", "spencer4"])
    @pytest.mark.parametrize("x", ["nan 0 0 0", "inf 0 0 0", "0 -inf 1 0"])
    def test_non_finite_vector_exits_one(self, capsys, request, body, x):
        code, _, err = run_cli(capsys, "norm", request.getfixturevalue(body), "--x", x)
        assert code == 1
        assert "NaN or infinity" in err

    @pytest.mark.parametrize("flags", [
        ("--c0", "0", "--exact-finish"),
        ("--c0", "-1", "--exact-finish"),
        ("--c0", "0"),
        ("--retries", "0"),
    ])
    def test_bad_c0_or_retries_exits_one(self, capsys, cube4, flags):
        code, _, err = run_cli(capsys, "balance", cube4, *flags)
        assert code == 1
        assert "c0" in err or "retries" in err

    @pytest.mark.parametrize("command, flags", [
        ("check", ("--trials", "0")),
        ("check", ("--trials", "-3")),
    ])
    def test_count_below_one_exits_one(self, capsys, spencer6, command, flags):
        code, _, err = run_cli(capsys, command, spencer6, *flags)
        assert code == 1
        assert "at least 1" in err

    @pytest.mark.parametrize("flags", [
        ("--seeds", "0"),
        ("--seeds", "-2", "--d-list", "4"),
        ("--kinds", ""),
        ("--d-list", ","),
    ])
    def test_bench_seeds_below_one_exits_one(self, capsys, flags):
        # An empty sweep (no seed, kind or dimension) is an input error.
        code, out, err = run_cli(capsys, "bench", *flags)
        assert code == 1
        assert out == ""
        assert "at least 1" in err

    def test_norm_outside_generator_span_exits_one(self, capsys, monkeypatch):
        # The generators span the first two axes only.
        text = "3 3 1\n1 0 0\n0 1 0\n2 0 0\n0 0 1\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_cli(capsys, "norm", "-", "--x", "0 0 1")
        assert code == 1
        assert "outside the span" in err

    def test_exact_finish_scale_is_capped(self, capsys, cube4):
        # Covering this increment from c0 = 1e-12 takes 39 doublings,
        # past the MAX_DOUBLINGS = 24 every round obeys.
        code, _, err = run_cli(capsys, "balance", cube4, "--c0", "1e-12",
                               "--exact-finish")
        assert code == 2
        assert "numerical" in err.lower()


class TestSubcommands:
    def test_lewis_output(self, capsys, spencer6):
        code, out, _ = run_cli(capsys, "lewis", spencer6)
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["sum_weights"]) == pytest.approx(6.0, abs=1e-6)
        assert float(fields["residual"]) <= 1e-8
        assert int(fields["iterations"]) <= 200

    def test_oracle_output(self, capsys, cube4):
        code, out, _ = run_cli(capsys, "oracle", cube4)
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["opt"]) == pytest.approx(1.0)
        assert int(fields["evaluations"]) == 8

    def test_check_output(self, capsys, spencer6):
        code, out, _ = run_cli(capsys, "check", spencer6, "--trials", "10")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["max_gap"]) <= 1e-6

    def test_check_builds_section_lp_once(self, capsys, monkeypatch, spencer6):
        from zonobalance import verify

        built = []
        real = verify._l1_ball_lp

        def counting(R):
            built.append(R.shape)
            return real(R)

        monkeypatch.setattr(verify, "_l1_ball_lp", counting)
        code, out, _ = run_cli(capsys, "check", spencer6, "--trials", "20")
        assert code == 0
        assert "trials: 20" in out
        assert len(built) == 1

    def test_norm_at_far_scales(self, capsys, tall4):
        code, out, _ = run_cli(capsys, "norm", tall4, "--x", "1 0 0 0")
        assert code == 0
        unit = float(out)
        for x, scale, rel in (("1e15 0 0 0", 1e15, 1e-12), ("1e-320 0 0 0", 1e-320, 1e-3)):
            code, out, err = run_cli(capsys, "norm", tall4, "--x", x)
            assert code == 0, err
            assert float(out) == pytest.approx(scale * unit, rel=rel)

    def test_lewis_and_width_on_row_scaled_body(self, capsys, tmp_path):
        # Rows scaled by up to 1000x either way make the weighted Gram
        # matrix too ill-conditioned for a Cholesky factor.
        rng = np.random.default_rng(0)
        A = rng.standard_normal((32, 32)) * np.exp(rng.uniform(-np.log(1000), np.log(1000), 32))[:, None]
        path = tmp_path / "scaled.txt"
        path.write_text(serialize_instance(InstanceFile(A, np.zeros((1, 32)))))
        code, out, err = run_cli(capsys, "lewis", str(path))
        assert code == 0, err
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["sum_weights"]) == pytest.approx(32.0, abs=1e-9)
        code, out, err = run_cli(capsys, "width", str(path), "--samples", "5")
        assert code == 0, err

    def test_width_output(self, capsys, cube4):
        code, out, _ = run_cli(capsys, "width", cube4, "--samples", "30")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["mean"]) > 0
        assert int(fields["samples"]) == 30

    # lewis, width and norm read only the generators: more vectors than
    # dimensions, or a vector outside the generator span, must not matter.
    BODY_ONLY = {
        "n_exceeds_d": ("2 2 3\n1 0\n0 1\n0.1 0\n0 0.1\n0.1 0.1\n", "3 0", 3.0, 2),
        "vector_outside_span": ("3 3 1\n1 0 0\n0 1 0\n2 0 0\n0 0 1\n", "1 0 0", 1 / 3, 2),
    }

    @pytest.mark.parametrize("name", sorted(BODY_ONLY))
    def test_body_only_commands_ignore_vectors(self, capsys, monkeypatch, name):
        text, x, gauge, d = self.BODY_ONLY[name]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "lewis", "-")
        assert code == 0, err
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["sum_weights"]) == pytest.approx(d, abs=1e-6)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "width", "-", "--samples", "5")
        assert code == 0, err
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert int(fields["d"]) == d
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "norm", "-", "--x", x)
        assert code == 0, err
        assert float(out) == pytest.approx(gauge, abs=1e-9)


class TestBench:
    def test_small_sweep_deterministic(self, capsys):
        argv = ["bench", "--kinds", "cube,spencer-random", "--d-list", "4,8",
                "--seeds", "2", "--master-seed", "3"]
        code, out1, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].startswith("kind,")
        assert len(lines) == 2 + 2 * 2 * 2
        # rows fully reproducible cell-for-cell
        for row in lines[2:]:
            assert len(row.split(",")) == 12

    def test_bytes_independent_of_blas_threads(self):
        argv = ("-m", "zonobalance", "bench", "--d-list", "16,64", "--seeds", "1")
        pinned = run_python(*argv, OPENBLAS_NUM_THREADS="1")
        default = run_python(*argv, OPENBLAS_NUM_THREADS=None)
        assert pinned.returncode == 0, pinned.stderr
        assert default.returncode == 0, default.stderr
        assert pinned.stdout == default.stdout

    @pytest.mark.parametrize("d_list", ["8,32", "32,8"])
    def test_oracle_above_its_cap_balances_nothing(self, capsys, monkeypatch, d_list):
        # n = 32 is above the oracle's cap of 22, so the sweep is refused
        # before the n = 8 spec is balanced, whatever the order.
        balanced = []
        monkeypatch.setattr(coloring, "balance", lambda *a, **k: balanced.append(a))
        code, out, err = run_cli(capsys, "bench", "--kinds", "spencer-random",
                                 "--d-list", d_list, "--seeds", "1", "--oracle-upto", "40")
        assert code == 1
        assert out == ""
        assert "n = 32" in err and "cap of 22" in err
        assert balanced == []

    def test_oracle_upto_above_the_cap_with_small_n(self, capsys):
        # Every n is within the cap, so a large --oracle-upto is valid.
        code, out, _ = run_cli(capsys, "bench", "--kinds", "spencer-random",
                               "--d-list", "8,16", "--seeds", "1", "--oracle-upto", "40")
        assert code == 0
        assert all(row.split(",")[-1] != "" for row in out.strip().splitlines()[2:])

    def test_oracle_column_filled(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kinds", "cube",
                               "--d-list", "4", "--seeds", "1",
                               "--oracle-upto", "4")
        assert code == 0
        row = out.strip().splitlines()[-1]
        assert row.split(",")[-1] != ""


SRC = str(Path(zonobalance.__file__).resolve().parents[1])


def run_python(*args, stdin=None, **env):
    """Run this interpreter in a fresh process with the package's source first
    on PYTHONPATH.  `env` entries override the inherited environment; a None
    value removes the variable."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    full = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          env={k: v for k, v in full.items() if v is not None}, timeout=120)


class TestInstalledEntryPoint:
    def test_pipe_through_real_processes(self):
        gen = run_python("-m", "zonobalance", "gen", "--kind", "cube", "--d", "4",
                         "--n", "4", "--seed", "1")
        assert gen.returncode == 0
        bal = run_python("-m", "zonobalance", "balance", "-", "--seed", "7",
                         stdin=gen.stdout)
        assert bal.returncode == 0
        assert "discrepancy:" in bal.stdout

    def test_unknown_subcommand_exits_one(self):
        assert run_python("-m", "zonobalance", "frobnicate").returncode == 1

    @pytest.mark.parametrize("command", [
        ("gen", "--kind", "cube", "--d", "4", "--n", "4"),
        ("balance",),
        ("check",),
        ("width",),
    ])
    def test_negative_seed_exits_one(self, cube4, command):
        args = command if command[0] == "gen" else (*command, cube4)
        res = run_python("-m", "zonobalance", *args, "--seed", "-1")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        errors = [line for line in res.stderr.splitlines() if "error:" in line]
        assert errors == [f"zonobalance {command[0]}: error: argument --seed: "
                          "seed must be non-negative, got -1"]

    def test_balance_and_invariant_check_under_optimize(self, cube4):
        # python -O strips asserts; the round invariant must still fire.
        bal = run_python("-O", "-m", "zonobalance", "balance", cube4, "--seed", "7")
        assert bal.returncode == 0
        assert "discrepancy:" in bal.stdout
        probe = (
            "import numpy as np\n"
            "from zonobalance import coloring, errors\n"
            "from zonobalance.zonotope import VectorFamily, Zonotope\n"
            "def bad_round(Z, V, y, **kw):\n"
            "    return coloring.PartialColoringStep(np.full(V.n, 1.5), 0.0, 1.0, 2.0, 1, V.n)\n"
            "coloring.partial_coloring = bad_round\n"
            "try:\n"
            "    coloring.balance(Zonotope(np.eye(4)), VectorFamily(0.1 * np.eye(4)))\n"
            "except errors.NumericalError:\n"
            "    print('raised')\n"
        )
        res = run_python("-O", "-c", probe)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "raised"


class TestSeeding:
    def test_splitmix_reference_values(self):
        # Reference outputs of the splitmix64 stream seeded at 0; these
        # match the widely used test vectors for the generator.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4

    def test_run_seed_spread(self):
        seeds = {run_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
