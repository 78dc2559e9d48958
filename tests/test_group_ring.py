import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochtower.exact_linalg import cokernel_invariants
from blochtower.group_ring import (
    Character,
    GroupRingElement,
    RModulePresentation,
    SquareClassGroup,
    bracket,
    character_specialize,
    double_bracket,
    eigenspace_reconstruction_ok,
    group_idempotent,
    idempotent,
    z_expand,
    z_vector,
)

G1 = SquareClassGroup(1, ("u",))
G2 = SquareClassGroup(2, ("u", "t"))


def gre(group, coeffs):
    return GroupRingElement(group, coeffs)


class TestRingStructure:
    def test_group_elements_square_to_one(self):
        for e in G2.elements():
            assert bracket(G2, e) * bracket(G2, e) == GroupRingElement.one(G2)

    def test_orthogonal_idempotents(self):
        chi = G1.character(0)
        e_plus = idempotent(G1, [1], chi, +1)
        e_minus = idempotent(G1, [1], chi, -1)
        assert e_plus * e_minus == GroupRingElement.zero(G1)
        assert e_plus + e_minus == GroupRingElement.one(G1)

    def test_double_bracket_square(self):
        d = double_bracket(G1, 1)
        assert d * d == d.scale(-2)

    def test_denominators_must_be_dyadic(self):
        with pytest.raises(ValueError):
            gre(G1, {0: Fraction(1, 3)})
        gre(G1, {0: Fraction(1, 4)})  # fine

    def test_only_ints_and_fractions_accepted(self):
        for bad in (0.5, 1.0, "1/2"):
            with pytest.raises(ValueError):
                gre(G1, {0: bad})
        with pytest.raises(ValueError):
            GroupRingElement.one(G1).scale(0.5)

    def test_integral_arithmetic_stays_int(self):
        a = double_bracket(G2, 1) * double_bracket(G2, 3)
        b = bracket(G2, 2) + a.scale(-3) - bracket(G2, 1) * bracket(G2, 3)
        for elem in (a, b, -b, b * b, b.scale(2)):
            assert elem.coeffs and all(type(c) is int for c in elem.coeffs.values())
            assert type(elem.augmentation()) is int
            assert type(elem.apply_character(G2.character(3))) is int
        half = group_idempotent(G1, G1.character(1))
        assert half.coeffs == {0: Fraction(1, 2), 1: Fraction(-1, 2)}
        assert half.scale(2) == gre(G1, {0: 1, 1: -1})

    def test_augmentation(self):
        assert double_bracket(G2, 3).augmentation() == 0
        assert GroupRingElement.one(G2).augmentation() == 1

    @settings(max_examples=60)
    @given(st.integers(0, 3), st.data())
    def test_ring_axioms(self, rank, data):
        G = SquareClassGroup(rank)
        elems = st.dictionaries(
            st.integers(0, G.size - 1), st.integers(-4, 4), max_size=G.size
        ).map(lambda d: gre(G, d))
        a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestIdempotents:
    def test_empty_product_is_one(self):
        chi = G2.character(0)
        assert idempotent(G2, [], chi) == GroupRingElement.one(G2)

    def test_single_idempotent_formula(self):
        chi = G1.character(0)  # trivial
        e = idempotent(G1, [1], chi, +1)
        assert e == gre(G1, {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def test_projector_equations(self):
        for chi in G2.characters():
            e = group_idempotent(G2, chi)
            assert e * e == e
            for i in range(G2.rank):
                a = 1 << i
                assert bracket(G2, a) * e == e.scale(chi(a))

    @pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
    def test_partition_of_unity(self, rank):
        G = SquareClassGroup(rank)
        chars = G.characters()
        total = GroupRingElement.zero(G)
        for chi in chars:
            total = total + group_idempotent(G, chi)
        assert total == GroupRingElement.one(G)
        for chi, psi in itertools.combinations(chars, 2):
            assert group_idempotent(G, chi) * group_idempotent(G, psi) == GroupRingElement.zero(G)

    def test_one_minus_idempotent_killed_by_character(self):
        # the character ring map sends 1 - e_S to 0
        for chi in G2.characters():
            for size in range(3):
                for S in itertools.combinations(range(1, G2.size), size):
                    e = idempotent(G2, S, chi)
                    diff = GroupRingElement.one(G2) - e
                    assert diff.apply_character(chi) == 0


class TestCharacters:
    def test_values_on_basis(self):
        chi = G2.character(0b10)
        assert chi(0b01) == 1 and chi(0b10) == -1 and chi(0b11) == -1

    def test_names(self):
        assert G2.character(0).name == "++"
        assert G2.character(3).name == "--"
        assert SquareClassGroup(0).character(0).name == "1"

    def test_trivial_first(self):
        assert G2.characters()[0].is_trivial


class TestSpecializeAndExpand:
    def test_character_kills_relation(self):
        # single relation (1 + <g>) x = 0
        rel = {0: gre(G1, {0: 1, 1: 1})}
        M = RModulePresentation(G1, 1, (rel,))
        mat_minus, n = character_specialize(M, G1.character(1))
        assert cokernel_invariants(mat_minus, n).free_rank == 1  # relation dies
        mat_plus, n = character_specialize(M, G1.character(0))
        inv = cokernel_invariants(mat_plus, n)
        assert inv.odd_part().is_trivial()  # [2] has trivial odd part

    def test_z_expand_free_module(self):
        M = RModulePresentation(G1, 1, ())
        mat, width = z_expand(M)
        assert width == 2
        assert cokernel_invariants(mat, width).free_rank == 2

    def test_z_expand_diagonal_copy(self):
        # <<g>> x = 0 presents the integers: rows [[-1, 1], [1, -1]]
        rel = {0: double_bracket(G1, 1)}
        M = RModulePresentation(G1, 1, (rel,))
        mat, width = z_expand(M)
        assert sorted(mat.to_rows()) == [[-1, 1], [1, -1]]
        inv = cokernel_invariants(mat, width)
        assert inv.factors == () and inv.free_rank == 1

    def test_z_expand_writes_int_entries(self):
        # an integral Fraction coefficient becomes an int matrix entry
        rel = {0: gre(G1, {0: Fraction(4, 2), 1: -1})}
        mat, _ = z_expand(RModulePresentation(G1, 1, (rel,)))
        assert mat.to_rows() == [[2, -1], [-1, 2]]
        assert all(type(v) is int for v in mat.entries.values())

    def test_z_expand_requires_integrality(self):
        rel = {0: gre(G1, {0: Fraction(1, 2)})}
        M = RModulePresentation(G1, 1, (rel,))
        with pytest.raises(ValueError):
            z_expand(M)

    def test_z_vector_roundtrip(self):
        coeffs = {1: gre(G2, {0: 2, 3: -1})}
        vec = z_vector(G2, 2, coeffs)
        assert vec == [0, 0, 0, 0, 2, 0, 0, -1]


class TestModulePresentation:
    def test_every_row_is_checked(self):
        first = {0: double_bracket(G1, 1)}
        with pytest.raises(ValueError, match="different group ring"):
            RModulePresentation(G1, 2, (first, {1: bracket(G2, 1)}))
        with pytest.raises(ValueError, match="out of range"):
            RModulePresentation(G1, 2, (first, {2: bracket(G1, 1)}))
        with pytest.raises(ValueError, match="out of range"):
            RModulePresentation(G1, 2, ({-1: bracket(G1, 1)}, first))
        N = RModulePresentation(G1, 2, (first, {1: bracket(G1, 1)}))
        assert (N.group, N.generators) == (G1, 2)
        assert N.relations == (first, {1: bracket(G1, 1)})


class TestEigenspaceReconstruction:
    def test_random_presentations(self):
        rng = random.Random(0xBEEF)
        for _ in range(60):
            rank = rng.randint(0, 3)
            G = SquareClassGroup(rank)
            gens = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(0, 4)):
                row = {}
                for j in range(gens):
                    if rng.random() < 0.7:
                        coeffs = {e: rng.randint(-3, 3) for e in G.elements() if rng.random() < 0.5}
                        val = gre(G, coeffs)
                        if not val.is_zero():
                            row[j] = val
                if row:
                    rows.append(row)
            M = RModulePresentation(G, gens, tuple(rows))
            assert eigenspace_reconstruction_ok(M)
