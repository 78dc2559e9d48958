import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochtower import cli, laurent
from blochtower.exact_linalg import DimensionMismatchError, IntMatrix, Lattice
from blochtower.finite_field import field, field_from_q
from blochtower.laurent import (
    PrecisionExhaustedError,
    TruncatedLaurentSeries as TLS,
    five_term_heads,
    fuzz_specialization,
    relation_specialization_check,
    specialization_target,
    _one_minus_head,
    _sample_series,
)

import oracle
from oracle import (
    act,
    add,
    agrees_with,
    b_vector,
    check_difference_of_squares,
    constant,
    inv,
    mul,
    neg,
    one,
    one_minus,
    residue_symbol,
    specialize,
    sqrt_unit,
    square_class,
    sub,
    truncate,
    uniformizer,
    zero,
)

F5 = field(5)
F7 = field(7)


def rand_series(F, rng, precision, vmin=-3, vmax=3):
    v = rng.randint(vmin, vmax)
    lead = rng.randrange(1, F.q)
    rest = [rng.randrange(F.q) for _ in range(precision - 1)]
    return TLS(F, v, tuple([lead] + rest))


class TestArithmetic:
    """The oracle's series arithmetic over the package's series record."""

    def test_inv_of_t(self):
        assert inv(uniformizer(F5)) == uniformizer(F5, -1)

    def test_inverse_identity(self):
        a = truncate(one_minus(uniformizer(F5)), 24)  # 1 - t
        prod = mul(a, inv(a))
        assert prod.valuation == 0 and prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])

    def test_one_minus_negative_valuation(self):
        w = one_minus(uniformizer(F5, -1))
        assert w.valuation == -1
        assert w.coeffs[0] == F5.neg_code(1)
        # cross-check: w + t^-1 == 1
        assert add(w, uniformizer(F5, -1)) == one(F5)

    def test_one_minus_mul_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            a = rand_series(F5, rng, 12)
            try:
                w = one_minus(a)
            except PrecisionExhaustedError:
                continue
            total = add(w, a)  # should be 1 within the window
            assert total.valuation == 0 and total.coeffs[0] == 1

    def test_cancellation_raises(self):
        with pytest.raises(PrecisionExhaustedError):
            one_minus(TLS(F5, 0, (1, 0, 0, 0)))

    def test_sub_of_self_raises(self):
        a = TLS(F5, 0, (2, 3, 1))
        with pytest.raises(PrecisionExhaustedError):
            sub(a, a)

    def test_exact_cancellation_is_zero(self):
        t = uniformizer(F5)
        assert sub(t, t).is_zero()

    def test_exact_trailing_zeros_are_canonical(self):
        padded = TLS(F5, 0, (1, 0), exact=True)
        assert padded.coeffs == (1,)
        assert padded == one(F5) and hash(padded) == hash(one(F5))
        assert agrees_with(padded, one(F5)) and agrees_with(one(F5), padded)
        assert sub(padded, one(F5)).is_zero()
        t = uniformizer(F5)
        assert add(one_minus(t), t) == one(F5)  # (1 - t) + t, built by exact addition
        assert TLS(F5, 0, (1, 0, 0, 0)).coeffs == (1, 0, 0, 0)  # tracked zeros stay

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            inv(zero(F5))

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            TLS(field(2, 2), 1, (1,), exact=True)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            TLS(F5, 0, (0, 1))

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize("where", ["lead", "tail"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_coefficient_code_outside_field_rejected(self, bad, where, exact):
        coeffs = (bad, 1) if where == "lead" else (1, 2, bad)
        with pytest.raises(ValueError, match="coefficient code out of range"):
            TLS(F5, 0, coeffs, exact=exact)
        assert TLS(F5, 0, (1, 0, 4)).coeffs == (1, 0, 4)  # 0 and q - 1 are codes

    def test_mul_associativity_to_precision(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (rand_series(F5, rng, 10) for _ in range(3))
            assert agrees_with(mul(mul(a, b), c), mul(a, mul(b, c)))

    def test_precision_tracking_through_mul(self):
        a = TLS(F5, 1, (1, 2))  # known to O(t^3)
        b = TLS(F5, -1, (3, 0, 0, 1))  # known to O(t^3)
        prod = mul(a, b)
        assert prod.valuation == 0 and oracle.prec_exp(prod) == 2

    def test_sqrt_unit(self):
        rng = random.Random(3)
        for _ in range(30):
            s = rand_series(F5, rng, 16, vmin=0, vmax=0)
            sq = mul(s, s)
            root = sqrt_unit(sq)
            assert agrees_with(mul(root, root), sq)

    def test_sqrt_requires_square_leading(self):
        with pytest.raises(ValueError):
            sqrt_unit(TLS(F5, 0, (2, 1, 1)))  # 2 is not a square mod 5


class TestSquareClass:
    def test_uniformizer(self):
        assert square_class(truncate(uniformizer(F5), 4)) == (1, 0)

    def test_nonsquare_unit_times_t_squared(self):
        a = TLS(F7, 2, (3, 0, 0))  # 3 t^2, 3 is not a square mod 7
        assert square_class(a) == (0, 1)

    def test_one_unit_trivial(self):
        a = TLS(F5, 0, (1, 1, 2, 3))
        assert square_class(a) == (0, 0)

    def test_multiplicative_seeded(self):
        for q in (5, 7):
            F = field_from_q(q)
            rng = random.Random(0x5EED ^ q)
            for _ in range(1000):
                a = rand_series(F, rng, 6)
                b = rand_series(F, rng, 6)
                (pa, ra), (pb, rb) = square_class(a), square_class(b)
                assert square_class(mul(a, b)) == (pa ^ pb, ra ^ rb)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_class(zero(F5))


class TestSpecialize:
    """The oracle's dense-vector specialization into a package target."""

    def test_positive_valuation_gives_constant(self):
        tgt = specialization_target(F5)
        t = truncate(uniformizer(F5), 8)
        assert specialize(tgt, t) == b_vector(tgt, 1)

    def test_negative_valuation_gives_minus_constant(self):
        tgt = specialization_target(F5)
        tinv = truncate(inv(uniformizer(F5)), 8)
        assert specialize(tgt, tinv) == b_vector(tgt, -1)

    def test_unit_gives_residue_symbol(self):
        tgt = specialization_target(F5)
        u = TLS(F5, 0, (3, 1, 4))
        assert specialize(tgt, u) == residue_symbol(tgt, 3)

    def test_one_unit_goes_to_zero(self):
        tgt = specialization_target(F5)
        u = TLS(F5, 0, (1, 2, 3))
        assert specialize(tgt, u) == [0] * tgt.total

    def test_action_respects_unit_twist(self):
        # acting by a unit class equals twisting the residue symbol
        tgt = specialization_target(F5)
        u = TLS(F5, 0, (3, 1, 4))
        twisted = act(tgt, (0, 1), specialize(tgt, u))
        direct = [0] * tgt.total
        idx = tgt._index[3] * tgt.group_size
        direct[idx ^ 1] = 1
        assert twisted == direct

    def test_action_is_involution(self):
        tgt = specialization_target(F5)
        vec = b_vector(tgt, 1)
        assert act(tgt, (1, 1), act(tgt, (1, 1), vec)) == vec

    def test_zero_rejected(self):
        tgt = specialization_target(F5)
        with pytest.raises(ValueError):
            specialize(tgt, zero(F5))


class TestRelationCheck:
    def test_units_with_distinct_residues(self):
        tgt = specialization_target(F5)
        x = TLS(F5, 0, (2,) + (0,) * 15)
        y = TLS(F5, 0, (3,) + (1,) * 15)
        assert relation_specialization_check(tgt, x, y).status == "pass"

    def test_t_and_t_squared(self):
        tgt = specialization_target(F5)
        x = truncate(uniformizer(F5), 64)
        y = truncate(uniformizer(F5, 2), 64)
        assert relation_specialization_check(tgt, x, y).status == "pass"

    def test_one_unit_input_inconclusive(self):
        tgt = specialization_target(F5)
        x = TLS(F5, 0, (1, 0, 0, 0))  # 1 to precision: 1 - x^-1 dies
        y = TLS(F5, 0, (3, 1, 2, 4))
        assert relation_specialization_check(tgt, x, y).status == "inconclusive"

    def test_mixed_valuations_sample(self):
        tgt = specialization_target(F5)
        rng = random.Random(99)
        passes = 0
        for _ in range(40):
            x = rand_series(F5, rng, 32)
            y = rand_series(F5, rng, 32)
            out = relation_specialization_check(tgt, x, y)
            assert out.status in ("pass", "inconclusive")
            passes += out.status == "pass"
        assert passes > 30


@st.composite
def relation_arguments(draw, F):
    """Series with valuation -3..3 and 1-6 coefficients, 1-units with long
    zero runs after the lead, and exact constants and powers of t."""
    kind = draw(st.sampled_from(("series", "one_unit", "constant", "uniformizer")))
    if kind == "constant":
        return constant(F, draw(st.integers(2, F.q - 1)))
    if kind == "uniformizer":
        return uniformizer(F, draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
    precision = draw(st.integers(1, 6))
    if kind == "one_unit":
        valuation, lead = 0, 1
        zeros = draw(st.integers(0, precision - 1))
    else:
        valuation, lead = draw(st.integers(-3, 3)), draw(st.integers(1, F.q - 1))
        zeros = 0
    tail = draw(st.lists(st.integers(0, F.q - 1), min_size=precision - 1 - zeros, max_size=precision - 1 - zeros))
    return TLS(F, valuation, (lead,) + (0,) * zeros + tuple(tail))


class TestRelationHeads:
    """The head-only relation check against the full-series oracle."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_full_series(self, data):
        F = field_from_q(data.draw(st.sampled_from((3, 5, 7, 9, 25, 27))))
        x = data.draw(relation_arguments(F))
        y = data.draw(relation_arguments(F))
        tgt = specialization_target(F)
        assert relation_specialization_check(tgt, x, y) == oracle.relation_check_by_series(tgt, x, y)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_minus_heads_match_series(self, data):
        F = field_from_q(data.draw(st.sampled_from((3, 5, 7, 9, 25, 27))))
        a = data.draw(relation_arguments(F))
        for invert in (False, True):
            try:
                w = one_minus(inv(a) if invert else a)
                expected = (w.valuation, w.coeffs[0])
            except PrecisionExhaustedError as exc:
                expected = str(exc)
            try:
                got = _one_minus_head(a, invert=invert)
            except PrecisionExhaustedError as exc:
                got = str(exc)
            assert got == expected

    @pytest.mark.parametrize(
        "name, value, arg",
        [
            ("x", 1, one(F5)),
            ("y", 1, one(F5)),
            ("x", 1, TLS(F5, 0, (1, 0, 0), exact=True)),
            ("y", 0, zero(F5)),
        ],
    )
    def test_exact_zero_or_one_rejected(self, name, value, arg):
        tgt = specialization_target(F5)
        args = {"x": constant(F5, 2), "y": uniformizer(F5), name: arg}
        with pytest.raises(ValueError, match=f"^{name} is exactly {value};"):
            relation_specialization_check(tgt, args["x"], args["y"])

    def test_series_agreeing_with_one_is_inconclusive(self):
        tgt = specialization_target(F5)
        y = truncate(one(F5), 6)
        outcome = relation_specialization_check(tgt, constant(F5, 2), y)
        assert outcome.status == "inconclusive"
        assert outcome.reason == "cancellation consumed the tracked window"

    def test_other_field_rejected(self):
        tgt = specialization_target(F5)
        with pytest.raises(ValueError, match="^x is a series over a different residue field"):
            relation_specialization_check(tgt, constant(F7, 2), constant(F5, 2))


HEAD_FIELDS = (3, 5, 7, 9, 13, 25, 27, 31)
PERTURBATIONS = ("none", "sign", "drop_twist", "odd_twist", "unit_twist", "head")


def perturbed(terms, index, kind, head):
    """The terms with one of them changed; most changes leave no relation."""
    terms = list(terms)
    sign, twist, h = terms[index]
    if kind == "sign":
        terms[index] = (-sign, twist, h)
    elif kind == "drop_twist":
        terms[index] = (sign, None, h)
    elif kind == "odd_twist":
        terms[index] = (sign, (1, 1), h)
    elif kind == "unit_twist":
        terms[index] = (sign, (0, head[1]), h)
    elif kind == "head":
        terms[index] = (sign, twist, head)
    return tuple(terms)


class TestTermImages:
    """The image-sum check against dense symbol vectors (``oracle.terms_vanish_dense``)."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_matches_dense_heads(self, data):
        F = field_from_q(data.draw(st.sampled_from(HEAD_FIELDS)))
        x = data.draw(relation_arguments(F))
        y = data.draw(relation_arguments(F))
        try:
            terms = five_term_heads(x, y)
        except PrecisionExhaustedError:
            return
        head = (data.draw(st.integers(-3, 3)), data.draw(st.integers(1, F.q - 1)))
        terms = perturbed(terms, data.draw(st.integers(0, 4)), data.draw(st.sampled_from(PERTURBATIONS)), head)
        tgt = specialization_target(F)
        assert tgt.terms_vanish(terms) == oracle.terms_vanish_dense(tgt, terms)

    @pytest.mark.parametrize("q", HEAD_FIELDS)
    def test_both_outcomes_compared(self, q):
        F = field_from_q(q)
        tgt = specialization_target(F)
        rng = random.Random(q)
        outcomes = set()
        for _ in range(200):
            try:
                terms = five_term_heads(rand_series(F, rng, 6), rand_series(F, rng, 6))
            except PrecisionExhaustedError:
                continue
            head = (rng.randint(-3, 3), rng.randrange(1, q))
            terms = perturbed(terms, rng.randrange(5), rng.choice(PERTURBATIONS), head)
            expected = oracle.terms_vanish_dense(tgt, terms)
            assert tgt.terms_vanish(terms) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestInducedMembership:
    @pytest.mark.parametrize("q", (5, 7, 9))
    @pytest.mark.parametrize("invert_two", (False, True))
    def test_matches_doubled_block_lattice(self, q, invert_two):
        tgt = specialization_target(field_from_q(q))
        rows = tgt.lattice.basis_rows()
        w = tgt.width
        entries = {}
        for coset in (0, 1):
            for i, row in enumerate(rows):
                for j, v in row.items():
                    entries[(coset * len(rows) + i, coset * w + j)] = v
        doubled = Lattice(IntMatrix(2 * len(rows), tgt.total, entries))
        rng = random.Random(q)
        outcomes = set()
        for _ in range(300):
            vec = [0] * tgt.total
            for coset in (0, 1):
                for _ in range(3):
                    c = rng.randint(-3, 3)
                    for j, v in rng.choice(rows).items():
                        vec[coset * w + j] += c * v
            for _ in range(rng.randint(0, 2)):
                vec[rng.randrange(tgt.total)] += rng.randint(-2, 2)
            expected = doubled.is_member(vec, invert_two=invert_two)
            assert tgt.is_zero_vector(vec, invert_two=invert_two) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_invert_two_matters_at_q7(self):
        tgt = specialization_target(F7)
        vec = [0] * tgt.total
        vec[tgt.width] = 1  # a generator of order 2 in coset 1
        assert not tgt.is_zero_vector(vec, invert_two=False)
        assert tgt.is_zero_vector(vec, invert_two=True)

    def test_length_checked(self):
        tgt = specialization_target(F5)
        with pytest.raises(DimensionMismatchError):
            tgt.is_zero_vector([0] * (tgt.total + 1))


class TestFuzz:
    def test_small_run_clean(self):
        report = fuzz_specialization(F5, 32, 60, seed=7)
        assert not report.failures
        assert report.inconclusive_rate < 0.05
        assert report.samples == 60

    def test_zero_samples_vacuous(self):
        report = fuzz_specialization(F5, 16, 0)
        assert report.samples == 0 and not report.failures and report.attempts == 0

    def test_deterministic(self):
        a = fuzz_specialization(F7, 16, 25, seed=123)
        b = fuzz_specialization(F7, 16, 25, seed=123)
        assert a == b

    def test_f3_supported(self):
        report = fuzz_specialization(field(3), 32, 40, seed=5)
        assert not report.failures

    def test_no_lattice_image_per_draw(self, monkeypatch):
        F = field_from_q(31)
        specialization_target(F)
        calls = []
        image = Lattice.image

        def counting(self, v):
            calls.append(1)
            return image(self, v)

        monkeypatch.setattr(Lattice, "image", counting)
        report = fuzz_specialization(F, 8, 2000, seed=24301)
        assert report.attempts >= 2000 and not report.failures
        assert calls == []

    @pytest.mark.parametrize("q", (3, 5, 7, 9, 25, 27, 31, 127, 251))
    def test_sampler_stream_matches_randrange(self, q):
        F = field_from_q(q)
        for seed in range(40):
            for precision in (2, 3, 8, 64):
                mine, ref = random.Random(f"{seed}:{precision}"), random.Random(f"{seed}:{precision}")
                for _ in range(2):
                    assert _sample_series(F, mine, precision) == oracle.sample_series_by_randrange(F, ref, precision)
                assert mine.getstate() == ref.getstate()


def deep_unit(a):
    """1 - a/t."""
    return one_minus(mul(a, inv(uniformizer(a.base))))


def difference_of_squares(u, precision=32):
    """The two sides of the odd-valuation identity for the unit series u.

    With residue u = r^2 - s^2 (r, s nonzero), 1 - u/r^2 = (s/r)^2 and
    z = (1 - 1/(r^2 t)) / (1 - u/r^2) has the class of -t.  Returns whether
    the first holds with 1 - u/r^2 a square, and the class of z; None when
    the residue has no witness, which is a genuine small-field phenomenon.
    """
    F = u.base
    witness = check_difference_of_squares(F, u.coeffs[0])
    if witness is None:
        return None
    s = constant(F, witness[1])
    r = sqrt_unit(add(u, mul(s, s)), precision=precision)
    lhs = one_minus(mul(u, inv(mul(r, r))))
    root = mul(s, inv(r))
    square_ok = agrees_with(lhs, mul(root, root)) and square_class(lhs) == (0, 0)
    z = mul(one_minus(inv(mul(mul(r, r), uniformizer(F)))), inv(lhs))
    return square_ok, square_class(z)


class TestProbes:
    """The square-class identities behind eigenspace vanishing for valued fields."""

    def test_case_i_default(self):
        # v(a) >= 2: 1 - a/t is a 1-unit of trivial square class
        rng = random.Random(2)
        for a in [truncate(uniformizer(F5, 2), 34)] + [rand_series(F7, rng, 16, vmin=2, vmax=5) for _ in range(20)]:
            w = deep_unit(a)
            assert w.valuation == 0 and w.coeffs[0] == 1 and square_class(w) == (0, 0)

    def test_case_i_rejects_shallow(self):
        # v(a) = 1 is outside the identity: t + O(t^8) leaves nothing of
        # 1 - a/t, and 3t leaves the nonsquare unit 1 - 3 = 3 mod 5
        with pytest.raises(PrecisionExhaustedError):
            deep_unit(truncate(uniformizer(F5), 8))
        w = deep_unit(TLS(F5, 1, (3, 0, 0, 0)))
        assert w.valuation == 0 and w.coeffs[0] == 3 and square_class(w) == (0, 1)

    def test_case_ii_f7(self):
        assert difference_of_squares(truncate(constant(F7, 3), 32)) == (True, square_class(neg(uniformizer(F7))))

    def test_case_ii_no_witness(self):
        assert difference_of_squares(truncate(constant(F5, 1), 32)) is None

    def test_case_ii_f3(self):
        # residue 1 over F_3: the 4-pair search finds nothing
        assert difference_of_squares(truncate(constant(field(3), 1), 32)) is None

    def test_case_ii_nonconstant_unit(self):
        u = TLS(F7, 0, (3, 1, 2, 5, 0, 1, 4, 2) + (0,) * 24)
        assert difference_of_squares(u) == (True, square_class(neg(uniformizer(F7))))


def _functions(code, prefix=""):
    """(first line, name) -> qualified name of every def in a module's code, nested ones too."""
    out = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a class body
                out[(const.co_firstlineno, const.co_name)] = name
            out.update(_functions(const, name + "."))
    return out


class TestOnePath:
    """laurent-fuzz enters every function of the laurent module.

    The module keeps one specialization path, the head path the fuzz runs,
    so a function no fuzz run enters is a second path growing back.  Input
    refusals are branches inside entered functions and are not counted.
    """

    NOT_ENTERED = {
        "SpecializationTarget.is_zero_vector",  # wrapped by the traced benchmark run
        "TruncatedLaurentSeries.__repr__",  # only in a failure message
    }

    def test_fuzz_enters_every_function(self, tmp_path):
        with open(laurent.__file__, encoding="utf-8") as fh:
            defined = _functions(compile(fh.read(), laurent.__file__, "exec"))
        entered = set()

        def tracer(frame, event, arg):
            if frame.f_globals.get("__name__") == laurent.__name__:
                entered.add((frame.f_code.co_firstlineno, frame.f_code.co_name))

        laurent.specialization_target.cache_clear()  # so the target is built under the trace
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for q, precision in (("5", "64"), ("31", "8")):
                argv = ["laurent-fuzz", "--q", q, "--precision", precision, "--samples", "200"]
                assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        finally:
            sys.settrace(previous)
        assert "five_term_heads.ratio" in defined.values()
        missed = {name for key, name in defined.items() if key not in entered}
        assert missed <= self.NOT_ENTERED, sorted(missed - self.NOT_ENTERED)

