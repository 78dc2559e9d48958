import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochtower.exact_linalg import (
    CERTIFIED_SUBSET_FACTOR,
    AbelianInvariants,
    DimensionMismatchError,
    FpPresentation,
    InconsistentMapError,
    IntMatrix,
    Lattice,
    cokernel_invariants,
    element_order,
    hermite_normal_form,
    kernel_with_embedding,
    lattice_membership,
    map_kernel,
    smith_normal_form,
    _eliminate,
)

import oracle


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


@st.composite
def tall_matrices(draw):
    """Matrices with 4c < rows <= 12c, past the certified-subset threshold.

    The first 4c rows are random, zero, one repeated row, or even with an
    empty last column; in the last three cases later rows must add pivots
    or change the index, so the basis needs the certification pass.
    """
    c = draw(st.integers(1, 5))
    head_size = CERTIFIED_SUBSET_FACTOR * c
    n = draw(st.integers(head_size + 1, 3 * head_size))
    row = st.lists(st.integers(-9, 9), min_size=c, max_size=c)
    kind = draw(st.sampled_from(["random", "zero", "duplicated", "even_no_last_col"]))
    if kind == "zero":
        head = [[0] * c for _ in range(head_size)]
    elif kind == "duplicated":
        head = [draw(row)] * head_size
    else:
        head = draw(st.lists(row, min_size=head_size, max_size=head_size))
        if kind == "even_no_last_col":
            head = [[2 * x for x in r[:-1]] + [0] for r in head]
    return head + draw(st.lists(row, min_size=n - head_size, max_size=n - head_size))


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


class TestSmithNormalForm:
    def test_identity(self):
        D, U, V = smith_normal_form(IntMatrix.identity(2))
        assert D == IntMatrix.identity(2)
        assert U == IntMatrix.identity(2)
        assert V == IntMatrix.identity(2)

    def test_diag_2_3(self):
        M = mat([[2, 0], [0, 3]])
        D, U, V = smith_normal_form(M)
        assert D.diagonal_entries() == [1, 6]
        assert (U @ M) @ V == D
        assert oracle.smith_diagonal([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        M = IntMatrix.zeros(2, 3)
        D, U, V = smith_normal_form(M)
        assert D.is_zero()
        assert U == IntMatrix.identity(2)
        assert V == IntMatrix.identity(3)

    @settings(max_examples=200)
    @given(small_matrices)
    def test_matches_dense_oracle(self, rows):
        M = mat(rows)
        D, U, V = smith_normal_form(M)  # transforms re-verified by the fixture
        assert D.diagonal_entries() == oracle.smith_diagonal(rows)
        diag = D.diagonal_entries()
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0

    def test_empty_dimensions(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            D, U, V = smith_normal_form(IntMatrix.zeros(*shape))
            assert (D.rows, D.cols) == shape


class TestHermite:
    def test_transform_property(self):
        M = mat([[4, 6], [2, 2], [0, 8]])
        H, U = hermite_normal_form(M)
        assert U @ M == H

    @settings(max_examples=100)
    @given(small_matrices)
    def test_row_space_preserved(self, rows):
        M = mat(rows)
        H, U = hermite_normal_form(M)
        assert U @ M == H
        lat = Lattice(M)
        for i in range(H.rows):
            assert lat.contains(H.row_vector(i)) is not None


class TestCertifiedHermite:
    @settings(max_examples=200)
    @given(tall_matrices())
    def test_matches_full_elimination(self, rows):
        M = mat(rows)
        work, pivots, _ = _eliminate(M.sparse_rows(), M.cols, want_u=False)
        lat = Lattice(M)
        assert lat.basis_rows() == [work[r] for r, _ in pivots]
        # the lazily built witness recombines the original rows
        coeffs = lat.contains(rows[-1])
        assert [sum(x * r[j] for x, r in zip(coeffs, rows)) for j in range(M.cols)] == rows[-1]


class TestCokernelInvariants:
    def test_single_relation(self):
        inv = cokernel_invariants(mat([[2]]), 1)
        assert inv == AbelianInvariants((2,), 0)

    def test_no_relations(self):
        inv = cokernel_invariants(IntMatrix.zeros(0, 3), 3)
        assert inv == AbelianInvariants((), 3)

    def test_diag_2_3_by_coset_enumeration(self):
        rows = [[2, 0], [0, 3]]
        cosets = oracle.quotient_cosets(rows, 2, box=6)
        assert len(cosets) == 6
        assert oracle.order_in_quotient(rows, [1, 1], 6) == 6  # cyclic of order 6
        assert cokernel_invariants(mat(rows), 2) == AbelianInvariants((6,), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cokernel_invariants(mat([[2, 0]]), 1)

    @settings(max_examples=100)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_invariant_under_unimodular(self, rows, rng):
        M = mat(rows)
        base = cokernel_invariants(M, M.cols)
        P = _random_unimodular(M.rows, rng)
        Q = _random_unimodular(M.cols, rng)
        assert cokernel_invariants((P @ M) @ Q, M.cols) == base


def _two_valuation(d):
    k = 0
    while d % 2 == 0:
        d //= 2
        k += 1
    return k


def _random_unimodular(n, rng):
    out = IntMatrix.identity(n)
    entries = dict(out.entries)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return IntMatrix(n, n, entries)


class TestAbelianInvariants:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianInvariants((4, 6), 0)
        with pytest.raises(ValueError):
            AbelianInvariants((1,), 0)

    def test_odd_part(self):
        assert AbelianInvariants((2, 12), 1).odd_part() == AbelianInvariants((3,), 1)
        assert AbelianInvariants((4, 8), 0).odd_part() == AbelianInvariants((), 0)

    def test_direct_sum_canonicalizes(self):
        a = AbelianInvariants((3,), 0)
        b = AbelianInvariants((5,), 0)
        assert AbelianInvariants.direct_sum(a, b) == AbelianInvariants((15,), 0)
        c = AbelianInvariants((2, 4), 1)
        assert AbelianInvariants.direct_sum(c, a) == AbelianInvariants((2, 12), 1)

    def test_order(self):
        assert AbelianInvariants((2, 6), 0).order() == 12
        assert AbelianInvariants((), 2).order() == math.inf


class TestLatticeMembership:
    def test_member_with_witness(self):
        res = lattice_membership(mat([[2]]), [2])
        assert res.member and list(res.coefficients) == [1]

    def test_non_member(self):
        assert not lattice_membership(mat([[2]]), [1]).member

    def test_invert_two(self):
        res = lattice_membership(mat([[2]]), [1], invert_two=True)
        assert res.member and res.two_power == 1

    def test_invert_two_does_not_invert_three(self):
        assert not lattice_membership(mat([[3]]), [1], invert_two=True).member
        assert not lattice_membership(mat([[6]]), [1], invert_two=True).member
        res = lattice_membership(mat([[6]]), [3], invert_two=True)
        assert res.member and res.two_power == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lattice_membership(mat([[2, 0]]), [1])

    @settings(max_examples=100)
    @given(small_matrices)
    def test_every_row_is_member(self, rows):
        M = mat(rows)
        lat = Lattice(M)
        for row in rows:
            coeffs = lat.contains(row)
            assert coeffs is not None
            recombined = [0] * M.cols
            for c, r in zip(coeffs, rows):
                for j, v in enumerate(r):
                    recombined[j] += c * v
            assert recombined == list(row)

    @settings(max_examples=60)
    @given(small_matrices, st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    def test_matches_oracle(self, rows, v):
        v = (v * 5)[: len(rows[0])]
        mine = lattice_membership(mat(rows), v).member
        assert mine == oracle.member(rows, v)
        lat = Lattice(mat(rows))
        assert lat.is_member(v) == mine == (lat.contains(v) is not None)

    @settings(max_examples=60)
    @given(small_matrices, st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    def test_invert_two_is_bounded_doubling(self, rows, v):
        v = (v * 5)[: len(rows[0])]
        res = lattice_membership(mat(rows), v, invert_two=True)
        assert Lattice(mat(rows)).is_member(v, invert_two=True) == res.member
        # 2^k v can only enter the lattice for k up to the 2-part of the torsion
        bound = sum(_two_valuation(d) for d in oracle.smith_diagonal(rows) if d) + 1
        doubled = any(oracle.member(rows, [(1 << k) * x for x in v]) for k in range(bound + 1))
        assert res.member == doubled
        if res.member:
            assert oracle.member(rows, [(1 << res.two_power) * x for x in v])
            if res.two_power:
                assert not oracle.member(rows, [(1 << (res.two_power - 1)) * x for x in v])


class TestElementOrder:
    def test_examples(self):
        assert element_order(mat([[6]]), [2]) == 3
        assert element_order(mat([[1]]), [5]) == 1
        assert element_order(IntMatrix.zeros(0, 1), [1]) == math.inf

    def test_random_against_brute_force(self):
        rng = random.Random(20240917)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
            v = [rng.randint(-4, 4) for _ in range(4)]
            inv = cokernel_invariants(mat(rows), 4)
            if inv.order() is math.inf or inv.order() > 1000:
                continue
            mine = element_order(mat(rows), v)
            brute = oracle.order_in_quotient(rows, v, int(inv.order()))
            assert mine == brute if brute is not None else mine == math.inf


class TestMapKernel:
    def test_identity_on_z4(self):
        z4 = FpPresentation(1, mat([[4]]))
        ker = map_kernel(z4, z4, IntMatrix.identity(1))
        assert ker.invariants().is_trivial()

    def test_reduction_z_to_z2(self):
        z = FpPresentation(1, IntMatrix.zeros(0, 1))
        z2 = FpPresentation(1, mat([[2]]))
        ker, emb = kernel_with_embedding(z, z2, IntMatrix.identity(1))
        assert ker.invariants() == AbelianInvariants((), 1)
        assert emb.to_rows() == [[2]]

    def test_inconsistent_map_rejected(self):
        z2 = FpPresentation(1, mat([[2]]))
        z = FpPresentation(1, IntMatrix.zeros(0, 1))
        with pytest.raises(InconsistentMapError):
            map_kernel(z2, z, IntMatrix.identity(1))

    def test_projection_kernel(self):
        # Z^2 -> Z, (a, b) -> a + b: kernel is free of rank 1
        dom = FpPresentation(2, IntMatrix.zeros(0, 2))
        cod = FpPresentation(1, IntMatrix.zeros(0, 1))
        ker = map_kernel(dom, cod, mat([[1], [1]]))
        assert ker.invariants() == AbelianInvariants((), 1)
