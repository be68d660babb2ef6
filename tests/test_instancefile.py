"""Round-trip and diagnostics tests for the instance file format."""

import numpy as np
import pytest

from zonobalance.errors import InputError, ParseError
from zonobalance.instancefile import (
    InstanceFile,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from zonobalance.zonotope import preprocess, zonotope_norm


class TestRoundTrip:
    def test_one_by_one_identity(self):
        inst = InstanceFile(A=np.array([[1.0]]), V=np.array([[0.25]]))
        again = parse_instance(serialize_instance(inst))
        assert np.array_equal(again.A, inst.A)
        assert np.array_equal(again.V, inst.V)
        assert again.U is None

    def test_random_instances_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            inst = generate_instance("random-zonotope", 5, 12, 4,
                                     np.random.default_rng(seed))
            text = serialize_instance(inst)
            again = parse_instance(text)
            assert np.array_equal(again.A, inst.A)
            assert np.array_equal(again.V, inst.V)
            assert np.array_equal(again.U, inst.U)
            # serialization is stable too
            assert serialize_instance(again) == text

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\n1 1 1\n# generator\n1.0\n\n0.5\n"
        inst = parse_instance(text)
        assert inst.d == inst.m == inst.n == 1
        assert inst.V[0, 0] == 0.5


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_instance("# nothing here\n")

    def test_header_not_integers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("a b c\n")

    @pytest.mark.parametrize("header, match", [
        ("2 2", "header must be three integers: d m n"),
        ("2 2 1 1", "header must be three integers: d m n"),
        ("0 1 1", "header entries must be positive"),
        ("1 1 -1", "header entries must be positive"),
    ])
    def test_header_shape_and_sign(self, header, match):
        with pytest.raises(ParseError, match=f"line 2: {match}"):
            parse_instance(f"# comment\n{header}\n1.0\n0.5\n")

    def test_short_preimage_block_names_the_sentinel_line(self):
        with pytest.raises(ParseError, match="line 5: expected 2 preimage rows after 'U'"):
            parse_instance("1 1 2\n1.0\n0.5\n0.25\nU\n0.5\n")

    def test_missing_generator_rows_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("2 3 1\n1.0 0.0\n0.0 1.0\n")

    def test_wrong_width_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("2 2 1\n1.0\n0.0 1.0\n0.1 0.1\n")

    def test_bad_token_names_column(self):
        with pytest.raises(ParseError, match="column 2"):
            parse_instance("2 2 1\n1.0 0.0\n0.0 1.0\n0.1 x\n")

    def test_nan_rejected(self):
        with pytest.raises(ParseError, match="NaN"):
            parse_instance("1 1 1\n1.0\nnan\n")

    def test_bad_sentinel(self):
        with pytest.raises(ParseError, match="sentinel"):
            parse_instance("1 1 1\n1.0\n0.5\njunk\n")

    def test_trailing_after_preimages(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_instance("1 1 1\n1.0\n0.5\nU\n0.5\n0.7\n")


class TestGenerators:
    def test_cube(self):
        inst = generate_instance("cube", 3, None, 3, np.random.default_rng(0))
        assert np.array_equal(inst.A, np.eye(3))
        assert np.array_equal(inst.V, np.eye(3))

    def test_spencer_random_in_cube(self):
        inst = generate_instance("spencer-random", 4, None, 4,
                                 np.random.default_rng(1))
        assert np.array_equal(inst.A, np.eye(4))
        assert np.abs(inst.V).max() <= 1.0

    def test_random_zonotope_members_certified(self):
        inst = generate_instance("random-zonotope", 4, 16, 4,
                                 np.random.default_rng(2))
        assert inst.U is not None
        assert np.allclose(np.linalg.norm(inst.A, axis=1), 1.0)
        Z, V, _ = preprocess(inst.A, inst.V, inst.U)
        for i in range(V.n):
            assert zonotope_norm(Z, V.V[i]) <= 1.0 + 1e-9

    def test_duplicated_pairs(self):
        inst = generate_instance("duplicated", 5, None, 4, np.random.default_rng(3))
        assert np.array_equal(inst.V[0], inst.V[1])
        assert np.array_equal(inst.V[2], inst.V[3])

    def test_duplicated_odd_rejected(self):
        with pytest.raises(InputError):
            generate_instance("duplicated", 5, None, 3, np.random.default_rng(0))

    def test_parameter_violations(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            generate_instance("cube", 3, 5, 3, rng)  # cube forces m == d
        with pytest.raises(InputError):
            generate_instance("random-zonotope", 3, 2, 1, rng)  # m < d
        with pytest.raises(InputError):
            generate_instance("cube", 3, None, 4, rng)  # cube has d coordinate vectors
        with pytest.raises(InputError):
            generate_instance("nonsense", 3, 3, 3, rng)
