import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochtower
from blochtower.finite_field import (
    FieldBoundError,
    field,
    field_from_q,
    has_root_x2_minus_x_plus_1,
    has_sqrt_minus3,
    parse_field_spec,
    rsq_order,
    square_class_code,
)

import oracle
from oracle import check_difference_of_squares

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]


def test_canonical_modulus_f4():
    # least irreducible quadratic over F_2 in code order is X^2 + X + 1
    assert field(2, 2).modulus == (1, 1, 1)


def test_canonical_modulus_f9():
    assert field(3, 2).modulus == (1, 0, 1)  # X^2 + 1


def test_parse_and_serialize():
    assert parse_field_spec("5").spec_string() == "5"
    assert parse_field_spec("3^2").spec_string() == "3^2"
    assert parse_field_spec("9") is field(3, 2)
    with pytest.raises(ValueError):
        parse_field_spec("6")
    with pytest.raises(ValueError):
        parse_field_spec("1")


def test_field_bound(monkeypatch):
    monkeypatch.setenv("BLOCH_MAX_Q", "100")
    with pytest.raises(FieldBoundError):
        field_from_q(101).q  # fresh construction hits the bound
    monkeypatch.delenv("BLOCH_MAX_Q")


def test_field_checks_the_bound_before_trial_division():
    # 2^61 - 1 is prime, so trial division alone would take hours; run in a
    # subprocess, so that the timeout can stop such a run
    script = (
        "from blochtower.finite_field import FieldBoundError, field\n"
        "try:\n"
        "    field(2305843009213693951)\n"
        "except FieldBoundError:\n"
        "    print('refused')\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "BLOCH_MAX_Q"}
    env["PYTHONPATH"] = str(Path(blochtower.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=10)
    assert proc.stdout.split() == ["refused"], proc.stderr


class TestArithmetic:
    def test_inverse_mod_7(self):
        F = field(7)
        assert F.inv_code(3) == 5  # 3*5 = 15 = 1 mod 7

    def test_inverse_of_one(self):
        for q in SMALL_PRIME_POWERS:
            F = field_from_q(q)
            assert F.inv_code(1) == 1

    def test_f4_generator_square(self):
        # with modulus X^2+X+1 the class g of X satisfies g*g = g+1
        F = field(2, 2)
        g = 2  # X
        assert F.mul_code(g, g) == F.add_code(g, 1)

    def test_field_axioms_small(self):
        for q in (4, 5, 8, 9):
            F = field_from_q(q)
            for a, b in itertools.product(range(F.q), repeat=2):
                assert F.mul_code(a, b) == F.mul_code(b, a)
                assert F.add_code(a, b) == F.add_code(b, a)
            for a in F.units():
                assert F.mul_code(a, F.inv_code(a)) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 251])
    def test_prime_field_log_tables_match_integers(self, p):
        # every field multiplies and inverts through its log tables; over F_p
        # they must give the integers mod p
        F = field(p)
        for a, b in itertools.product(range(p), repeat=2):
            assert F.mul_code(a, b) == a * b % p
        for a in F.units():
            assert F.inv_code(a) == pow(a, p - 2, p)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            field(5).inv_code(0)


class TestSquareClasses:
    def test_squares_mod_7(self):
        F = field(7)
        squares = {F.mul_code(a, a) for a in F.units()}
        assert squares == {1, 2, 4}
        assert square_class_code(F, 2) == 0
        assert square_class_code(F, 3) == 1

    def test_even_q_all_trivial(self):
        for q in (2, 4, 8, 16):
            F = field_from_q(q)
            assert all(square_class_code(F, a) == 0 for a in F.units())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_class_code(field(5), 0)

    @pytest.mark.parametrize("q", [q for q in SMALL_PRIME_POWERS if q <= 31])
    def test_multiplicative(self, q):
        F = field_from_q(q)
        for a, b in itertools.product(F.units(), repeat=2):
            left = square_class_code(F, F.mul_code(a, b))
            right = square_class_code(F, a) ^ square_class_code(F, b)
            assert left == right


class TestPrimitiveRoot:
    def test_examples(self):
        assert field(5).generator_code() == 2
        assert field(2).generator_code() == 1

    @pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
    def test_exact_order(self, q):
        F = field_from_q(q)
        g = F.generator_code()
        seen = set()
        cur = 1
        for _ in range(q - 1):
            cur = F.mul_code(cur, g)
            seen.add(cur)
        assert len(seen) == q - 1

    def test_least_generator_f9(self):
        F = field(3, 2)
        g = F.generator_code()
        for cand in range(1, g):
            order = 1
            cur = cand
            while cur != 1:
                cur = F.mul_code(cur, cand)
                order += 1
            assert order < F.q - 1  # nothing smaller generates


def _factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class TestNormGroups:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_rsq_examples(self, q):
        assert rsq_order(field_from_q(q)) == 1

    @pytest.mark.parametrize(
        "q",
        [q for q in range(2, 129) if len(set(_factor(q))) == 1],
    )
    def test_rsq_trivial_up_to_128(self, q):
        assert rsq_order(field_from_q(q)) == 1

    def test_norm_subgroup_structure(self):
        # the norm from F_{q^2} is onto F_q^x, which rsq_order's closed form
        # and the difference-identity sweep's count 2 * (q - 1) rest on
        for q in range(2, 129):
            if len(set(_factor(q))) != 1:
                continue
            assert oracle.norm_count(field_from_q(q)) == q - 1, q

    def test_zeta3_detection(self):
        assert has_root_x2_minus_x_plus_1(field(7))  # 3 divides 7 - 1
        assert not has_root_x2_minus_x_plus_1(field(5))
        assert has_root_x2_minus_x_plus_1(field(3))  # char 3: -1 is a double root

    def test_sqrt_minus3(self):
        assert has_sqrt_minus3(field(7))  # -3 = 4 = 2^2
        assert not has_sqrt_minus3(field(5))

    def test_closed_forms_match_scans(self):
        for q in range(2, 1025):
            if len(set(_factor(q))) != 1:
                continue
            F = field_from_q(q)
            assert has_root_x2_minus_x_plus_1(F) == oracle.has_root_x2_minus_x_plus_1(F), q
            assert has_sqrt_minus3(F) == oracle.has_sqrt_minus3(F), q


class TestDifferenceOfSquares:
    """The oracle's witness search for the odd-valuation square-class identity."""

    def test_f7_witness(self):
        F = field(7)
        r, s = check_difference_of_squares(F, 3)
        assert r and s
        assert F.sub_code(F.mul_code(r, r), F.mul_code(s, s)) == 3

    def test_f5_one_has_no_witness(self):
        F = field(5)
        assert check_difference_of_squares(F, 1) is None

    def test_f3_exhaustive(self):
        F = field(3)
        for u in F.units():
            found = check_difference_of_squares(F, u)
            brute = [
                (r, s)
                for r in F.units()
                for s in F.units()
                if F.sub_code(F.mul_code(r, r), F.mul_code(s, s)) == u
            ]
            assert (found is not None) == bool(brute)

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
    def test_matches_exhaustive_pairs(self, q):
        F = field_from_q(q)
        for u in F.units():
            found = check_difference_of_squares(F, u)
            brute = {
                (r, s)
                for r in F.units()
                for s in F.units()
                if F.sub_code(F.mul_code(r, r), F.mul_code(s, s)) == u
            }
            if found is None:
                assert not brute
            else:
                assert found in brute

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            check_difference_of_squares(field(2, 2), 1)

    @pytest.mark.parametrize("u", [0, 7, -1])
    def test_u_outside_unit_codes_rejected(self, u):
        with pytest.raises(ValueError):
            check_difference_of_squares(field(7), u)
