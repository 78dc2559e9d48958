import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochtower.bloch_core import _lambda_two_matrix, asym2_presentation, prebloch_presentation
from blochtower import exact_linalg
from blochtower.exact_linalg import (
    CERTIFIED_SUBSET_FACTOR,
    SPREAD_HEAD_SLACK,
    AbelianInvariants,
    DimensionMismatchError,
    FpPresentation,
    InconsistentMapError,
    IntMatrix,
    Lattice,
    cokernel_invariants,
    hermite_normal_form,
    kernel_with_embedding,
    map_kernel,
    smith_normal_form,
    _det_unimodular,
    _eliminate,
    _reduce,
    _smith_quotient,
)
from blochtower.finite_field import field_from_q

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
    """Tall matrices that leave rows outside their spread head to certify.

    With c columns there are more than max(4c, c + SPREAD_HEAD_SLACK) and
    at most max(that + 1, 12c) rows.  The spread head samples the rows
    i * n // m, m = c + SPREAD_HEAD_SLACK; those rows are random, zero, one
    repeated row, or even with an empty last column, and the others are
    random.  In the last three cases the other rows must add pivots or
    change the index, so the basis needs the certification pass.
    """
    c = draw(st.integers(1, 5))
    m = c + SPREAD_HEAD_SLACK
    low = max(CERTIFIED_SUBSET_FACTOR * c, m) + 1
    n = draw(st.integers(low, max(low, 3 * CERTIFIED_SUBSET_FACTOR * c)))
    sampled = {i * n // m for i in range(m)}
    row = st.lists(st.integers(-9, 9), min_size=c, max_size=c)
    kind = draw(st.sampled_from(["random", "zero", "duplicated", "even_no_last_col"]))
    if kind == "zero":
        head = [[0] * c for _ in sampled]
    elif kind == "duplicated":
        head = [draw(row)] * len(sampled)
    else:
        head = draw(st.lists(row, min_size=len(sampled), max_size=len(sampled)))
        if kind == "even_no_last_col":
            head = [[2 * x for x in r[:-1]] + [0] for r in head]
    rest = iter(draw(st.lists(row, min_size=n - len(sampled), max_size=n - len(sampled))))
    head = iter(head)
    return [next(head) if i in sampled else next(rest) for i in range(n)]


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


@st.composite
def consistent_maps(draw):
    """(domain, codomain, map matrix) with every domain relation landing in the codomain lattice.

    Domain relations are random integer combinations of a basis of the
    preimage of the codomain lattice (built with no domain relations), so
    they are consistent by construction; ``kind`` forces an empty relation
    set, added zero rows, or a free codomain summand (a last codomain
    generator with no relation).
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "no_relations", "zero_rows", "free_summand"]))
    entry = st.integers(-4, 4)
    cod_rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=3))
    if kind == "free_summand":
        cod_rows = [r[:-1] + [0] for r in cod_rows]
    map_matrix = mat(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)), cols=m)
    codomain = FpPresentation(m, mat(cod_rows, cols=m))
    _, preimage = oracle.kernel_with_all_relation_rows(FpPresentation(n, IntMatrix.zeros(0, n)), codomain, map_matrix)
    basis = preimage.to_rows()
    dom_rows = []
    if kind != "no_relations" and basis:
        combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)), min_size=1, max_size=6))
        dom_rows = [[sum(a * b[j] for a, b in zip(combo, basis)) for j in range(n)] for combo in combos]
    if kind == "zero_rows":
        dom_rows = [[0] * n] + dom_rows + [[0] * n]
    return FpPresentation(n, mat(dom_rows, cols=n)), codomain, map_matrix


def dense_matrices(max_size=5, rows=None, cols=None):
    """(rows, cols, dense list of lists), mostly zeros; either dimension may be 0."""
    height = st.integers(0, max_size) if rows is None else st.just(rows)
    width = st.integers(0, max_size) if cols is None else st.just(cols)
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -7, 10**20])
    return st.tuples(height, width).flatmap(
        lambda shape: st.tuples(
            st.just(shape[0]),
            st.just(shape[1]),
            st.lists(st.lists(entry, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]),
        )
    )


def oracle_entries(dense):
    return {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}


class TestRowStorage:
    """The row-dict IntMatrix against a dense list-of-lists oracle."""

    @staticmethod
    def constructed(r, c, dense):
        # every constructor, given zeros where it can take them
        return [
            IntMatrix.from_rows(dense, cols=c),
            IntMatrix.from_sparse_rows([dict(enumerate(row)) for row in dense], c),
            IntMatrix.from_sparse_rows((dict(enumerate(row)) for row in dense), c),
            IntMatrix(r, c, {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)}),
        ]

    @given(dense_matrices())
    def test_constructors_agree_with_dense(self, shaped):
        r, c, dense = shaped
        first, *others = self.constructed(r, c, dense)
        for M in [first, *others]:
            assert (M.rows, M.cols) == (r, c)
            assert M.to_rows() == dense
            assert M.entries == oracle_entries(dense)
            assert M.sparse_rows() == [{j: v for j, v in enumerate(row) if v} for row in dense]
            assert all(type(v) is int and v for row in M.sparse_rows() for v in row.values())
            assert M.is_zero() == (not oracle_entries(dense))
            assert M == first and hash(M) == hash(first)

    @given(dense_matrices(), st.data())
    def test_stack_and_product_match_dense(self, shaped, data):
        r, c, dense = shaped
        _, _, below = data.draw(dense_matrices(cols=c))
        _, k, right = data.draw(dense_matrices(rows=c))
        A = IntMatrix.from_rows(dense, cols=c)
        assert A.stack(IntMatrix.from_rows(below, cols=c)).to_rows() == dense + below
        product = [[sum(row[t] * right[t][j] for t in range(c)) for j in range(k)] for row in dense]
        AB = A @ IntMatrix.from_rows(right, cols=k)
        assert AB.to_rows() == product and AB == IntMatrix.from_rows(product, cols=k)

    @given(dense_matrices(), dense_matrices())
    def test_equality_and_hash_follow_dense(self, one, other):
        (r, c, a), (s, d, b) = one, other
        A, B = IntMatrix.from_rows(a, cols=c), IntMatrix.from_rows(b, cols=d)
        assert (A == B) == ((r, c, a) == (s, d, b))
        if A == B:
            assert hash(A) == hash(B)

    @given(dense_matrices(max_size=3), st.integers(-2, 4), st.integers(-2, 4))
    def test_out_of_range_index_rejected(self, shaped, i, j):
        r, c, _ = shaped
        if 0 <= i < r and 0 <= j < c:
            return
        with pytest.raises(DimensionMismatchError):
            IntMatrix(r, c, {(i, j): 1})
        if not 0 <= j < c:
            with pytest.raises(DimensionMismatchError):
                IntMatrix.from_sparse_rows([{j: 1}], c)
            with pytest.raises(DimensionMismatchError):
                IntMatrix.from_sparse_rows(iter([{}, {j: 1}]), c)
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows([[0] * c, [1] * (c + 1)], cols=c)

    @given(dense_matrices())
    def test_returned_rows_and_entries_are_copies(self, shaped):
        r, c, dense = shaped
        M = IntMatrix.from_rows(dense, cols=c)
        for row in M.sparse_rows():
            row.clear()
            row[0] = 5
        M.entries.clear()
        M.to_rows().append([1] * c)
        assert M.to_rows() == dense
        assert M == IntMatrix(r, c, oracle_entries(dense))


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
        for row in H.to_rows():
            assert lat.is_member(row)

    @settings(max_examples=100)
    @given(small_matrices)
    def test_unimodular_transform_and_lattice_basis(self, rows):
        M = mat(rows)
        H, U = hermite_normal_form(M)
        assert abs(_det_unimodular(U)) == 1
        assert [row for row in H.sparse_rows() if row] == Lattice(M).basis_rows()


class TestCertifiedHermite:
    @settings(max_examples=200)
    @given(tall_matrices())
    def test_matches_full_elimination(self, rows):
        M = mat(rows)
        work, pivots = _eliminate(M.sparse_rows(), M.cols)
        lat = Lattice(M)
        assert lat.basis_rows() == [work[r] for r, _ in pivots]
        assert lat.is_member(rows[-1])

    def test_row_ordered_blocks_take_one_round_each(self, monkeypatch):
        # two copies of the q = 13 pre-Bloch matrix on disjoint columns; the
        # spread head (rows i * N // head) holds only rows of the first
        # block, and every row of the second falls between them, so the
        # second block lies wholly outside the head's lattice and is taken
        # in rounds, never in one piece: no elimination sees more than the
        # basis (at most 2n rows) plus one head of 2n + SPREAD_HEAD_SLACK rows
        P = prebloch_presentation(field_from_q(13))
        rows, n = P.relations.sparse_rows(), P.generators
        first, second = ([{j + b * n: v for j, v in row.items()} for row in rows] for b in range(2))
        head = 2 * n + SPREAD_HEAD_SLACK
        between = iter(first[head:] + second)
        k = -(-(len(first) + len(second)) // head)
        stacked = [first[i // k] if i % k == 0 else next(between, {}) for i in range(head * k)]
        assert not next(between, None)
        sizes = []

        def recording(rows, cols):
            sizes.append(len(rows))
            return _eliminate(rows, cols)

        monkeypatch.setattr(exact_linalg, "_eliminate", recording)
        lat = Lattice(IntMatrix.from_sparse_rows(stacked, 2 * n))
        work, pivots = _eliminate(stacked, 2 * n)
        assert lat.basis_rows() == [work[r] for r, _ in pivots]
        assert len(sizes) > 1 and max(sizes) <= 2 * n + head
        assert lat.invariants() == AbelianInvariants((14, 14), 0)

    @pytest.mark.parametrize("kind", ["duplicates", "zeros", "free", "blocks"])
    def test_tall_sparse_matrices_match_full_elimination(self, kind):
        assert exact_linalg.VERIFY_TRANSFORMS  # every quotient map is checked too
        for seed in range(12):
            rows, cols = _tall_sparse(random.Random(seed), kind)
            work, pivots = _eliminate(rows, cols)
            full = [work[r] for r, _ in pivots]
            lat = Lattice(IntMatrix.from_sparse_rows(rows, cols))
            assert lat.basis_rows() == full, seed
            assert lat.moduli == _smith_quotient(full, cols)[0], seed
            if kind == "free":
                assert 0 in lat.moduli, seed

    def test_rows_past_a_round_are_tested_again(self):
        # the spread head (every third row) is all zeros and spans nothing,
        # the first round's spread takes only copies of (2, 0), so the last
        # row's pivot is found by testing it again
        rows = [[0, 0] if i % 3 == 0 else [2, 0] for i in range(29)] + [[1, 3]]
        work, pivots = _eliminate(mat(rows).sparse_rows(), 2)
        assert Lattice(mat(rows)).basis_rows() == [work[r] for r, _ in pivots] == [{0: 1, 1: 3}, {1: 6}]


def _tall_sparse(rng, kind):
    """(rows, cols): a tall sparse matrix with rows outside its spread head.

    ``duplicates`` repeats a few rows, ``zeros`` is mostly zero rows,
    ``free`` combines fewer rows than there are columns on a subset of the
    columns (rank deficient, with free summands), and ``blocks`` lists the
    rows of one column block before those of another.
    """
    cols = rng.randint(2, 10)
    n = rng.randint(max(CERTIFIED_SUBSET_FACTOR * cols, cols + SPREAD_HEAD_SLACK) + 1, 12 * cols)

    def sparse_row(columns):
        picked = rng.sample(columns, rng.randint(1, min(3, len(columns))))
        return {j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in sorted(picked)}

    if kind == "duplicates":
        base = [sparse_row(range(cols)) for _ in range(rng.randint(1, cols))]
        return [dict(rng.choice(base)) for _ in range(n)], cols
    if kind == "zeros":
        return [sparse_row(range(cols)) if rng.random() < 0.1 else {} for _ in range(n)], cols
    if kind == "free":
        used = rng.sample(range(cols), rng.randint(1, cols - 1))
        base = [sparse_row(used) for _ in range(rng.randint(1, len(used)))]
        rows = []
        for _ in range(n):
            row = {}
            for b in rng.sample(base, rng.randint(1, len(base))):
                exact_linalg._row_addmul(row, b, rng.randint(-2, 2))
            rows.append(row)
        return rows, cols
    split = rng.randint(1, cols - 1)
    cut = rng.randint(1, n - 1)
    return [sparse_row(range(split) if i < cut else range(split, cols)) for i in range(n)], cols


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


def _det_by_permutations(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # a row that is a multiple of another makes the matrix singular
        rows[-1] = [draw(st.integers(-3, 3)) * v for v in rows[0]]
    return rows


class TestDeterminant:
    @settings(max_examples=300)
    @given(square_matrices())
    def test_matches_permutation_expansion(self, rows):
        assert _det_unimodular(mat(rows, cols=len(rows))) == _det_by_permutations(rows)

    def test_examples(self):
        assert _det_unimodular(IntMatrix(0, 0)) == 1
        assert _det_unimodular(mat([[0, 2], [3, 0]])) == -6
        assert _det_unimodular(mat([[2, 4], [1, 2]])) == 0
        assert _det_unimodular(mat([[0, 0, 1], [0, 5, 0], [7, 0, 0]])) == -35
        with pytest.raises(DimensionMismatchError):
            _det_unimodular(mat([[1, 2]]))


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
    def test_member(self):
        lat = Lattice(mat([[2]]))
        assert lat.is_member([2]) and lat.is_member([-4])
        assert lat.moduli == (2,) and lat.image([3]) == [1]

    def test_non_member(self):
        assert not Lattice(mat([[2]])).is_member([1])

    def test_invert_two(self):
        lat = Lattice(mat([[2]]))
        assert lat.is_member([1], invert_two=True)

    def test_invert_two_does_not_invert_three(self):
        assert not Lattice(mat([[3]])).is_member([1], invert_two=True)
        assert not Lattice(mat([[6]])).is_member([1], invert_two=True)
        assert Lattice(mat([[6]])).is_member([3], invert_two=True)

    def test_free_coordinate_is_never_inverted(self):
        lat = Lattice(IntMatrix.zeros(0, 1))
        assert lat.moduli == (0,) and lat.image([-3]) == [-3]
        assert not lat.is_member([2], invert_two=True)
        assert lat.is_member([0], invert_two=True)

    def test_dimension_mismatch(self):
        lat = Lattice(mat([[2, 0]]))
        for query in (lat.is_member, lat.image, lat.order):
            with pytest.raises(DimensionMismatchError):
                query([1])
            with pytest.raises(DimensionMismatchError):
                query({2: 1})

    @settings(max_examples=100)
    @given(small_matrices)
    def test_every_row_is_member(self, rows):
        lat = Lattice(mat(rows))
        for row in rows:
            assert lat.is_member(row)
            assert not any(lat.image(row))

    @settings(max_examples=60)
    @given(small_matrices, st.lists(st.integers(-6, 6), min_size=2, max_size=10))
    def test_sparse_images_add_up(self, rows, values):
        # the map reads only nonzero entries and is additive, so a sum of
        # sparse images decides membership of the sum
        n = len(rows[0])
        v, w = (values * 5)[:n], (values[::-1] * 5)[:n]
        lat = Lattice(mat(rows))
        assert lat.image({i: x for i, x in enumerate(v) if x}) == lat.image(v)
        total = [a + b for a, b in zip(lat.image(v), lat.image(w))]
        assert lat.vanishes(total) == lat.is_member([a + b for a, b in zip(v, w)])
        assert lat.vanishes(total, invert_two=True) == lat.is_member([a + b for a, b in zip(v, w)], invert_two=True)

    @settings(max_examples=60)
    @given(small_matrices, st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    def test_matches_oracle(self, rows, v):
        v = (v * 5)[: len(rows[0])]
        lat = Lattice(mat(rows))
        mine = lat.is_member(v)
        assert mine == oracle.member(rows, v)
        assert (lat.order(v) == 1) == mine
        # the reduction remainder over the Hermite basis decides it too
        basis = lat.basis_rows()
        rem, _ = _reduce(basis, [min(row) for row in basis], {i: x for i, x in enumerate(v) if x})
        assert (not rem) == mine

    @settings(max_examples=60)
    @given(small_matrices, st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    def test_invert_two_is_bounded_doubling(self, rows, v):
        v = (v * 5)[: len(rows[0])]
        member = Lattice(mat(rows)).is_member(v, invert_two=True)
        # 2^k v can only enter the lattice for k up to the 2-part of the torsion
        bound = sum(_two_valuation(d) for d in oracle.smith_diagonal(rows) if d) + 1
        doubled = any(oracle.member(rows, [(1 << k) * x for x in v]) for k in range(bound + 1))
        assert member == doubled


class TestElementOrder:
    def test_examples(self):
        assert Lattice(mat([[6]])).order([2]) == 3
        assert Lattice(mat([[1]])).order([5]) == 1
        assert Lattice(IntMatrix.zeros(0, 1)).order([1]) == math.inf
        assert Lattice(mat([[4, 0]])).order([1, 0]) == 4

    def test_random_against_brute_force(self):
        rng = random.Random(20240917)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
            v = [rng.randint(-4, 4) for _ in range(4)]
            inv = cokernel_invariants(mat(rows), 4)
            if inv.order() is math.inf or inv.order() > 1000:
                continue
            mine = Lattice(mat(rows)).order(v)
            brute = oracle.order_in_quotient(rows, v, int(inv.order()))
            assert mine == brute if brute is not None else mine == math.inf


@pytest.fixture(scope="module")
def sympy_invariants():
    """Cokernel invariants from sympy's invariant factors, an independent implementation."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def invariants(rows, cols):
        diag = [int(d) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        return AbelianInvariants(tuple(d for d in diag if d > 1), cols - sum(1 for d in diag if d))

    return invariants


class TestSympyCrossCheck:
    @settings(max_examples=100)
    @given(rows=small_matrices)
    def test_small_matrices(self, sympy_invariants, rows):
        M = mat(rows)
        expected = sympy_invariants(rows, M.cols)
        assert cokernel_invariants(M, M.cols) == expected
        moduli = Lattice(M).moduli
        assert AbelianInvariants(tuple(d for d in moduli if d), moduli.count(0)) == expected

    @pytest.mark.parametrize("q", [7, 13, 19])
    def test_prebloch_relations(self, sympy_invariants, q):
        M = prebloch_presentation(field_from_q(q)).relations
        assert cokernel_invariants(M, M.cols) == sympy_invariants(M.to_rows(), M.cols)


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


class TestKernelOverHermiteBasis:
    @settings(max_examples=300)
    @given(consistent_maps())
    def test_matches_all_rows_oracle(self, case):
        domain, codomain, map_matrix = case
        kernel, embedding = kernel_with_embedding(domain, codomain, map_matrix)
        expected, expected_embedding = oracle.kernel_with_all_relation_rows(domain, codomain, map_matrix)
        assert embedding == expected_embedding
        assert kernel.invariants() == expected.invariants()
        assert kernel.relations.rows <= domain.generators

    def test_prebloch_kernel_has_at_most_n_relations(self):
        pres = prebloch_presentation(field_from_q(13))
        lam = IntMatrix(pres.generators, 1)
        kernel, _ = kernel_with_embedding(pres, FpPresentation(1, mat([[1]])), lam)
        assert pres.relations.rows == 11 * 10
        assert kernel.relations.rows <= pres.generators
        assert kernel.invariants() == pres.invariants()

    def test_bloch_kernel_queries_codomain_once_per_generator(self, monkeypatch):
        F = field_from_q(13)
        domain, codomain, lam = prebloch_presentation(F), asym2_presentation(F), _lambda_two_matrix(F)
        cod_lat = codomain.lattice
        queries = []
        is_member = Lattice.is_member

        def counting(self, v, invert_two=False):
            if self is cod_lat:
                queries.append(v)
            return is_member(self, v, invert_two)

        monkeypatch.setattr(Lattice, "is_member", counting)
        kernel, _ = kernel_with_embedding(domain, codomain, lam)
        assert domain.generators == 11 and domain.relations.rows == 110
        assert len(queries) <= domain.generators
        assert kernel.invariants() == AbelianInvariants((7,), 0)  # B(F_13) is cyclic of order (13 + 1) / 2

    def test_bloch_kernel_eliminates_once(self, monkeypatch):
        F = field_from_q(13)
        domain, codomain, lam = prebloch_presentation(F), asym2_presentation(F), _lambda_two_matrix(F)
        assert domain.lattice.basis_rows() and codomain.lattice.basis_rows()  # both lattices prebuilt
        calls = []
        eliminate = exact_linalg._eliminate

        def counting(rows, cols):
            calls.append(len(rows))
            return eliminate(rows, cols)

        monkeypatch.setattr(exact_linalg, "_eliminate", counting)
        kernel, _ = kernel_with_embedding(domain, codomain, lam)
        assert calls == [domain.generators + 1]  # the 11 map rows and the codomain's one basis row
        assert kernel.invariants() == AbelianInvariants((7,), 0)

    def test_inconsistent_row_is_named(self):
        z3 = FpPresentation(1, mat([[3]]))
        domain = FpPresentation(1, mat([[0], [6], [2]]))
        with pytest.raises(InconsistentMapError, match="domain relation 2 "):
            kernel_with_embedding(domain, z3, IntMatrix.identity(1))
