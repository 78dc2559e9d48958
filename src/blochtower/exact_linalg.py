"""Exact linear algebra over the integers.

Hermite and Smith normal forms, invariant factors of finitely presented
abelian groups, the quotient map of a presented group Z^n/L (membership,
membership after inverting 2, and element orders all read it), and kernels
of maps between presented groups.

All arithmetic uses Python's arbitrary-precision integers.  Pivoting is
deterministic (minimal absolute value; the sparse Hermite elimination
breaks ties by fewest nonzeros, then row index, and the dense Smith core in
(row, col) order), so every result is reproducible bit for bit.  A matrix is
stored as one sparse ``{col: value}`` dict per row, the form elimination
works on: a relation matrix is written row by row and a lattice eliminates
those rows as they are stored, so the relations are never held twice.  The
Smith form takes a sparse Hermite basis first and only then runs a dense
core on it, since elimination causes fill-in.

Every elimination goes through ``Lattice``, which gets its row Hermite
basis from certified subsets: of a matrix with more than
``CERTIFIED_SUBSET_FACTOR * cols`` rows, ``cols + SPREAD_HEAD_SLACK`` rows
spread evenly over it are eliminated, every other row is tested through the
quotient map of that basis (its sparse image vanishes exactly when it lies
in the lattice), and the rows outside are eliminated with the basis in
rounds of at most that many.  Every row is checked, and the reduced row
Hermite form of a lattice is unique, so the basis is the one full
elimination gives.  No elimination keeps a transform: one that is needed
is carried as identity columns, since the Hermite basis of [M | I] is
[H | U] with U*M = H.  The Hermite and Smith transforms and the kernel of a
map are read from such columns.  A lattice keeps its basis and one Smith
transform V of it, restricted to the columns of the nontrivial quotient
coordinates: the quotient map needs nothing else.  A presentation owns the lattice of its
relations, built once on first use: its invariants, kernels of maps out of
it and membership tests all read that one lattice.

Everything here is a pure function of immutable inputs and safe to call
concurrently; a lattice or quotient map built on first use is the same
whichever call builds it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .finite_field import factorize
from .record import Record

#: When true, every smith_normal_form call re-multiplies U*M*V and compares
#: against D, and every Lattice checks its quotient map (basis rows map to
#: zero, V is unimodular).  The test suite switches this on; it is off in
#: normal use.
VERIFY_TRANSFORMS = False

#: A matrix with more than this many rows per column is tall: its Hermite
#: basis is built from a spread head and the other rows are certified (see
#: ``_certified_hnf``).  A shorter one is eliminated whole.
CERTIFIED_SUBSET_FACTOR = 4

#: A spread head holds cols + this many rows: enough past the rank that one
#: round rarely follows, few enough that each pivot step reduces little.
SPREAD_HEAD_SLACK = 8

#: A quotient map v -> (v.V_i mod d_i): the moduli d_i, and row r of V
#: restricted to the kept columns (see ``_smith_quotient``).
QuotientMap = tuple[tuple[int, ...], list[tuple[int, ...]]]


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions do not match the operation."""


class InconsistentMapError(ValueError):
    """A map between presented groups does not send relations to relations."""


class IntMatrix:
    """Sparse integer matrix stored as one ``{col: value}`` dict per row.

    Only nonzero ``int`` entries are stored, and every constructor checks
    indices against the shape.  The row dicts are the only storage: a
    relation matrix is written row by row (``from_sparse_rows`` takes rows
    as they are produced) and ``Lattice`` eliminates those rows as they
    are.  ``entries`` is the ``(i, j)``-keyed view, derived on each read;
    ``IntMatrix(rows, cols, {(i, j): v})`` still builds a matrix from one.
    A matrix is never changed after construction, so stacked matrices may
    share row dicts; ``sparse_rows`` hands out copies.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data: list[dict[int, int]] = [{} for _ in range(rows)]
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatchError(f"entry index {(i, j)} out of range")
            if v:
                data[i][j] = int(v)
        self.rows, self.cols, self._rows = rows, cols, data

    @classmethod
    def _of(cls, data: list[dict[int, int]], cols: int) -> "IntMatrix":
        """Adopt clean row dicts (int values, no zeros, indices in range) without copying."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix._rows = len(data), cols, data
        return matrix

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = [list(r) for r in data]
        if cols is None:
            if not data:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise DimensionMismatchError("ragged rows")
        return cls.from_sparse_rows((dict(enumerate(row)) for row in data), cols)

    @classmethod
    def from_sparse_rows(cls, rows: Iterable[Mapping[int, int]], cols: int) -> "IntMatrix":
        """Matrix from {col: value} rows, validated and copied one at a time.

        ``rows`` may be a generator: a caller that builds each row as it is
        consumed never holds the input and the matrix at once.
        """
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = []
        for i, row in enumerate(rows):
            if row and (min(row) < 0 or max(row) >= cols):
                j = next(j for j in row if not 0 <= j < cols)
                raise DimensionMismatchError(f"entry index {(i, j)} out of range")
            data.append({j: int(v) for j, v in row.items() if v})
        return cls._of(data, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return cls(rows, cols, {(i, i): d for i, d in enumerate(diag) if d})

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero entries keyed by (row, col); a new dict on each read."""
        return {(i, j): v for i, row in enumerate(self._rows) for j, v in row.items()}

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for dense, row in zip(out, self._rows):
            for j, v in row.items():
                dense[j] = v
        return out

    def sparse_rows(self) -> list[dict[int, int]]:
        return [dict(row) for row in self._rows]

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        if other.cols != self.cols:
            raise DimensionMismatchError("column counts differ")
        return IntMatrix._of(self._rows + other._rows, self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        out = []
        for row in self._rows:
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in other._rows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out.append({j: s for j, s in acc.items() if s})
        return IntMatrix._of(out, other.cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def diagonal_entries(self) -> list[int]:
        return [self._rows[i].get(i, 0) for i in range(min(self.rows, self.cols))]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {sum(map(len, self._rows))} nonzero)"


class AbelianInvariants(Record):
    """Canonical form of a finitely generated abelian group.

    ``factors`` is the divisibility chain d1 | d2 | ... with every d >= 2;
    ``free_rank`` counts the infinite cyclic summands.
    """

    __slots__ = ("factors", "free_rank")

    def __init__(self, factors: tuple[int, ...], free_rank: int):
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        self.factors = factors
        self.free_rank = free_rank

    def odd_part(self) -> "AbelianInvariants":
        """Invariants after tensoring with Z[1/2]: 2-power torsion discarded."""
        odd = []
        for d in self.factors:
            while d % 2 == 0:
                d //= 2
            if d > 1:
                odd.append(d)
        return AbelianInvariants(tuple(odd), self.free_rank)

    @staticmethod
    def direct_sum(*summands: "AbelianInvariants") -> "AbelianInvariants":
        """Canonical invariants of a direct sum (via elementary divisors)."""
        by_prime: dict[int, list[int]] = {}
        rank = 0
        for s in summands:
            rank += s.free_rank
            for d in s.factors:
                for p, e in factorize(d).items():
                    by_prime.setdefault(p, []).append(e)
        depth = max((len(v) for v in by_prime.values()), default=0)
        chain = []
        for k in range(depth):
            d = 1
            for p, exps in by_prime.items():
                exps_sorted = sorted(exps, reverse=True)
                if k < len(exps_sorted):
                    d *= p ** exps_sorted[k]
            chain.append(d)
        return AbelianInvariants(tuple(reversed(chain)), rank)

    def order(self):
        if self.free_rank:
            return math.inf
        return math.prod(self.factors) if self.factors else 1

    def is_trivial(self) -> bool:
        return not self.factors and not self.free_rank

    def to_json(self) -> dict:
        return {"factors": list(self.factors), "free_rank": self.free_rank}

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


class FpPresentation:
    """A finitely presented abelian group: generator count plus relation rows.

    ``lattice`` is the relation lattice, built on first use and kept (in the
    instance ``__dict__``): the invariants, kernels of maps out of or into
    this group and membership tests all read it, so the relations are
    eliminated once.
    """

    __slots__ = ("generators", "relations", "__dict__")

    def __init__(self, generators: int, relations: IntMatrix):
        if relations.cols != generators:
            raise DimensionMismatchError("relation width must equal generator count")
        self.generators = generators
        self.relations = relations

    @cached_property
    def lattice(self) -> "Lattice":
        return Lattice(self.relations)

    def invariants(self) -> AbelianInvariants:
        return self.lattice.invariants()


# ---------------------------------------------------------------------------
# sparse row operations


def _row_addmul(target: dict[int, int], source: dict[int, int], q: int) -> None:
    if not q:
        return
    for c, v in source.items():
        nv = target.get(c, 0) + q * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def _certified_hnf(rows: list[dict[int, int]], cols: int) -> tuple[list[dict[int, int]], Optional[QuotientMap]]:
    """Transform-free row Hermite basis from certified row subsets, with its quotient map.

    A matrix of at most ``CERTIFIED_SUBSET_FACTOR * cols`` rows is simply
    eliminated.  A taller one is eliminated from a head of ``cols +
    SPREAD_HEAD_SLACK`` rows spread evenly over it (``_spread``), and every
    other row is tested through the quotient map of that basis
    (``_smith_quotient``): its sparse image vanishes exactly when the row
    lies in the lattice spanned so far, at nnz(row) multiply-adds per
    modulus.  Rows outside are taken in rounds: the basis is eliminated
    again with a head of as many of them, spread the same way, which
    strictly enlarges the lattice, and the rest are tested through the new
    map.  So no elimination sees more than the basis (at most ``cols``
    rows) plus one head.  Every pivot step reduces each head row that meets
    its column, so the head is kept near the rank: certifying a row costs
    less than eliminating it.  Spreading it over the matrix samples every
    part of a row-ordered one.  Every row is checked, and the reduced
    Hermite basis of a lattice is unique, so the basis is the one
    ``_eliminate`` on all rows gives.

    Returns (basis rows in echelon order, quotient map of that basis); the
    map is None when no row was tested.
    """
    if len(rows) <= CERTIFIED_SUBSET_FACTOR * cols:
        return _echelon_basis(rows, cols), None
    basis, tail = [], rows
    while tail:
        head, tail = _spread(tail, cols + SPREAD_HEAD_SLACK)
        basis = _echelon_basis(basis + head, cols)
        if not tail:
            return basis, None
        quotient = _smith_quotient(basis, cols)
        moduli = quotient[0]
        tail = [row for row in tail if not _vanishes(_image(row.items(), *quotient), moduli)]
    return basis, quotient


def _spread(rows: list, m: int) -> tuple[list, list]:
    """(rows i*n//m for i < m, the others), n = len(rows); all rows when n <= m."""
    n = len(rows)
    if n <= m:
        return rows, []
    picked = [i * n // m for i in range(m)]
    taken = set(picked)
    return [rows[i] for i in picked], [row for i, row in enumerate(rows) if i not in taken]


def _echelon_basis(rows: list[dict[int, int]], cols: int) -> list[dict[int, int]]:
    work, pivots = _eliminate(rows, cols)
    return [work[r] for r, _ in pivots]


def _reduce(basis: list[dict[int, int]], pivot_cols: list[int], v: dict[int, int]):
    """Reduce v against an echelon basis with floor quotients on the pivots.

    Returns (remainder, quotients); the remainder is empty exactly when v
    lies in the row lattice, and then v = sum(quotients[i] * basis[i]).
    """
    work = dict(v)
    quotients = [0] * len(basis)
    for i, col in enumerate(pivot_cols):
        if col in work:
            q = work[col] // basis[i][col]
            _row_addmul(work, basis[i], -q)
            quotients[i] = q
    return work, quotients


def _eliminate(rows: list[dict[int, int]], cols: int):
    """Full row Hermite elimination of every row; returns (rows, pivots).

    ``pivots`` lists (row_index, col) pairs in echelon order; rows below the
    last pivot are zero.  Each column's pivot is a candidate of least
    absolute value, ties broken by fewest nonzeros, then row index: the
    sparsest row spreads the least fill-in and coefficient growth into the
    rows it reduces, and the reduced basis is the same whichever is taken.
    No transform is kept: a caller that needs one appends identity columns
    (``_with_identity``) and reads it from the result.  The only caller is
    ``_certified_hnf`` (through ``_echelon_basis``), behind ``Lattice``.
    """
    n = len(rows)
    work = [dict(r) for r in rows]
    pivots: list[tuple[int, int]] = []
    pr = 0
    for col in range(cols):
        if pr == n:
            break
        while True:
            cands = [i for i in range(pr, n) if col in work[i]]
            if not cands:
                break
            best = min(cands, key=lambda i: (abs(work[i][col]), len(work[i]), i))
            done = True
            for i in cands:
                if i == best:
                    continue
                q = work[i][col] // work[best][col]
                _row_addmul(work[i], work[best], -q)
                if col in work[i]:
                    done = False
            if done:
                if best != pr:
                    work[pr], work[best] = work[best], work[pr]
                break
        if col not in work[pr]:
            continue
        if work[pr][col] < 0:
            work[pr] = {c: -v for c, v in work[pr].items()}
        p = work[pr][col]
        for i in range(pr):
            if col in work[i]:
                q = work[i][col] // p
                if q:
                    _row_addmul(work[i], work[pr], -q)
        pivots.append((pr, col))
        pr += 1
    return work, pivots


def _with_identity(rows: list[dict[int, int]], cols: int, k: int) -> IntMatrix:
    """[M | I]: the rows of M (``cols`` wide) with the identity on the first k.

    Every Hermite row (h, u) of the result has h = u * (those k rows) plus a
    combination of the other rows, so the trailing columns of a Hermite
    basis carry its transform.
    """
    return IntMatrix.from_sparse_rows(({**row, cols + i: 1} if i < k else row for i, row in enumerate(rows)), cols + k)


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form H with unimodular U such that U*M = H.

    [M | I] has full row rank, so its Hermite basis has M.rows rows, those
    with zero H part at the bottom, and their trailing columns are U.
    """
    basis = Lattice(_with_identity(M._rows, M.cols, M.rows)).basis_rows()
    H = IntMatrix.from_sparse_rows(({j: v for j, v in row.items() if j < M.cols} for row in basis), M.cols)
    U = IntMatrix.from_sparse_rows(({j - M.cols: v for j, v in row.items() if j >= M.cols} for row in basis), M.rows)
    return H, U


# ---------------------------------------------------------------------------
# dense Smith core


def _dense_snf_core(a: list[list[int]], c: int):
    """Smith form of the first c columns of a small dense block.  Returns (diag, V).

    Pivots are chosen and columns operated on only among the first c
    columns; row operations act on whole rows, so columns past c (identity
    columns carrying a transform) travel with their rows.  Rows of ``a`` are
    rebound, so the caller reads the result back from ``a`` itself.  Pivot
    choice: minimal absolute value over the remaining block, ties in (row,
    col) order.  Diagonal entries come out nonnegative and form a
    divisibility chain.
    """
    k = len(a)
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, q):
        # row i += q * row j
        ri, rj = a[i], a[j]
        for x in range(len(ri)):
            ri[x] += q * rj[x]

    def col_addmul(i, j, q):
        # col i += q * col j
        for row in a:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-v for v in a[i]]

    t = 0
    limit = min(k, c)
    while t < limit:
        best = None
        for i in range(t, k):
            row = a[i]
            for j in range(t, c):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:  # no smaller pivot exists
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            dirty = False
            for i in range(t + 1, k):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            break
        p = a[t][t]
        offender = None
        for i in range(t + 1, k if abs(p) != 1 else t + 1):  # a unit divides everything
            row = a[i]
            for j in range(t + 1, c):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_addmul(t, offender, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    diag = [a[i][i] for i in range(limit)]
    return diag, V


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, U, V) with U*M*V = D.

    U and V are unimodular; the diagonal of D is nonnegative and forms a
    divisibility chain.  Total on all integer matrices.  The dense core runs
    on the Hermite rows of [M | I] with nonzero M part, which carry their U
    columns; the other rows' U columns follow them.
    """
    width = M.cols + M.rows
    basis = Lattice(_with_identity(M._rows, M.cols, M.rows)).basis_rows()
    block = [[row.get(j, 0) for j in range(width)] for row in basis if min(row) < M.cols]
    diag, v = _dense_snf_core(block, M.cols)
    D = IntMatrix.diagonal(diag, M.rows, M.cols)
    kernel_rows = [[row.get(j, 0) for j in range(M.cols, width)] for row in basis[len(block):]]
    U = IntMatrix.from_rows([row[M.cols:] for row in block] + kernel_rows, cols=M.rows)
    V = IntMatrix.from_rows(v, cols=M.cols) if M.cols else IntMatrix(0, 0)
    if VERIFY_TRANSFORMS:
        if (U @ M) @ V != D:
            raise AssertionError("Smith transform verification failed")
        if abs(_det_unimodular(U)) != 1 or (M.cols and abs(_det_unimodular(V)) != 1):
            raise AssertionError("Smith transforms are not unimodular")
    return D, U, V


def _det_unimodular(M: IntMatrix) -> int:
    """Determinant via fraction-free (Bareiss) elimination; used only for verification."""
    n = M.rows
    if n != M.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    a = M.to_rows()
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def cokernel_invariants(M: IntMatrix, num_generators: int) -> AbelianInvariants:
    """Invariant factors of Z^n modulo the row space of M (relations as rows)."""
    if M.cols != num_generators:
        raise DimensionMismatchError(
            f"matrix has {M.cols} columns but {num_generators} generators were declared"
        )
    return Lattice(M).invariants()


# ---------------------------------------------------------------------------
# lattices


def _smith_quotient(basis: list[dict[int, int]], cols: int) -> QuotientMap:
    """The quotient map of Z^cols modulo the row lattice of an echelon basis.

    One dense Smith step on the basis gives unimodular V with Z^cols/L =
    sum of Z/d_i.  Returns (the d_i other than 1, 0 for a free summand; the
    rows of V restricted to their columns), so row r holds what the r-th
    unit vector adds to each coordinate of an image.
    """
    block = [[row.get(j, 0) for j in range(cols)] for row in basis]
    diag, v = _dense_snf_core(block, cols)
    diag += [0] * (cols - len(diag))
    kept = [i for i, d in enumerate(diag) if d != 1]
    quotient = tuple(diag[i] for i in kept), [tuple(row[i] for i in kept) for row in v]
    if VERIFY_TRANSFORMS:
        if not all(_vanishes(_image(row.items(), *quotient), quotient[0]) for row in basis):
            raise AssertionError("a basis row has a nonzero quotient image")
        if cols and abs(_det_unimodular(IntMatrix.from_rows(v, cols=cols))) != 1:
            raise AssertionError("quotient transform is not unimodular")
    return quotient


def _image(items, moduli: tuple[int, ...], vrows: list[tuple[int, ...]]) -> list[int]:
    """v.V_i mod d_i (v.V_i where d_i = 0) from the (index, value) entries of v."""
    acc = [0] * len(moduli)
    for r, x in items:
        for i, c in enumerate(vrows[r]):
            acc[i] += c * x
    return [a % d if d else a for a, d in zip(acc, moduli)]


def _vanishes(image: Sequence[int], moduli: tuple[int, ...], invert_two: bool = False) -> bool:
    """Is an image zero in Z^n/L: each coordinate 0 mod its d_i, and exactly 0 where d_i = 0?

    The coordinates need not be reduced, so sums and differences of images
    may be tested directly.  With invert_two, a coordinate need only vanish
    mod the odd part of d_i: 2^k * x vanishes mod d for some k exactly then.
    A free coordinate is never inverted.
    """
    for x, d in zip(image, moduli):
        if invert_two and d:
            d //= d & -d
        if x % d if d else x:
            return False
    return True


class Lattice:
    """The row lattice L of an integer matrix, with the quotient map of Z^n/L.

    This is the one place a matrix is eliminated: the row Hermite basis
    comes from certified row subsets (see ``_certified_hnf``).  One dense
    Smith step on that basis gives unimodular V with Z^n/L = sum of Z/d_i,
    read through the quotient map v -> (v.V_i mod d_i) (``_smith_quotient``).
    ``moduli`` lists the d_i other than 1 (0 for a free summand) and
    ``image`` computes the map from the nonzero entries of v; it is
    additive, so a sum of images may stand for the image of a sum, and
    ``vanishes`` decides whether such a sum is zero.  Membership (also after
    inverting 2), element orders and the invariants of Z^n/L are read from
    them.  A tall matrix gets its map while its tail rows are certified; any
    other gets it on first use, so a short lattice read only for its basis
    never pays for it.  A lattice that extends a known one may be built
    from that one's ``basis_rows`` plus the new rows: the basis and moduli
    are the same.  The matrix's row dicts are read in place, not copied,
    and only its width is kept.
    """

    def __init__(self, matrix: IntMatrix):
        self.cols = matrix.cols
        self._basis, self._map = _certified_hnf(matrix._rows, matrix.cols)

    def _quotient(self) -> QuotientMap:
        """(moduli, rows of V on their columns), from the Smith step on first use."""
        if self._map is None:
            self._map = _smith_quotient(self._basis, self.cols)
        return self._map

    @property
    def moduli(self) -> tuple[int, ...]:
        return self._quotient()[0]

    def basis_rows(self) -> list[dict[int, int]]:
        return [dict(row) for row in self._basis]

    def invariants(self) -> AbelianInvariants:
        """Invariants of Z^n/L: the nonzero moduli, and one Z per zero modulus."""
        return AbelianInvariants(tuple(d for d in self.moduli if d), self.moduli.count(0))

    def image(self, v: Union[Sequence[int], Mapping[int, int]]) -> list[int]:
        """Coordinates of v in Z^n/L: v.V_i mod d_i, or v.V_i where d_i = 0.

        v is a dense sequence of length n or a sparse {index: value} map;
        either way only its nonzero entries are read.
        """
        if isinstance(v, Mapping):
            if not all(0 <= r < self.cols for r in v):
                raise DimensionMismatchError("vector index outside the matrix width")
            items = v.items()
        elif len(v) != self.cols:
            raise DimensionMismatchError("vector length must equal matrix width")
        else:
            items = [(r, x) for r, x in enumerate(v) if x]
        return _image(items, *self._quotient())

    def vanishes(self, image: Sequence[int], invert_two: bool = False) -> bool:
        """Is an image, or a sum of images, zero in Z^n/L (see ``_vanishes``)?"""
        return _vanishes(image, self.moduli, invert_two)

    def is_member(self, v: Union[Sequence[int], Mapping[int, int]], invert_two: bool = False) -> bool:
        """Is v in the lattice (with invert_two: is some 2^k * v in it)?"""
        return self.vanishes(self.image(v), invert_two)

    def order(self, v: Union[Sequence[int], Mapping[int, int]]):
        """Least n >= 1 with n*v in the lattice, or math.inf."""
        n = 1
        for x, d in zip(self.image(v), self.moduli):
            if not d:
                if x:
                    return math.inf
            else:
                n = math.lcm(n, d // math.gcd(d, x))
        return n


# ---------------------------------------------------------------------------
# kernels of maps between presented groups


def kernel_with_embedding(
    domain: FpPresentation, codomain: FpPresentation, map_matrix: IntMatrix
) -> tuple[FpPresentation, IntMatrix]:
    """Kernel presentation plus the matrix embedding its generators in the domain.

    ``map_matrix`` sends domain generators (rows) to codomain coordinate
    vectors.  The kernel generators come from one lattice of
    [map_matrix | I ; codomain basis | 0]: its Hermite rows with zero
    codomain part are the Hermite basis of the preimage of the codomain
    relation lattice.  Both relation lattices are the presentations' own
    (``FpPresentation.lattice``), so neither relation matrix is eliminated
    again.  The kernel's relations are the coordinates, over the kernel
    generators, of the domain's relation Hermite basis rather than of every
    domain relation: the same lattice, so the same group, with at most
    ``domain.generators`` relation rows.  A basis row outside the preimage
    of the codomain relation lattice means the map is not well defined; the
    InconsistentMapError then names the first domain relation whose image
    leaves that lattice.
    """
    if map_matrix.rows != domain.generators or map_matrix.cols != codomain.generators:
        raise DimensionMismatchError("map matrix shape must be domain gens x codomain gens")
    cod_lat = codomain.lattice
    map_rows = map_matrix._rows
    width = codomain.generators
    stacked = _with_identity(map_rows + cod_lat.basis_rows(), width, domain.generators)
    basis = [{j - width: v for j, v in row.items()} for row in Lattice(stacked).basis_rows() if min(row) >= width]
    pivot_cols = [min(row) for row in basis]  # a Hermite row starts at its pivot
    embedding = IntMatrix.from_sparse_rows(basis, domain.generators)
    for row in basis:
        image = _apply_map(row, map_rows, codomain.generators)
        if not cod_lat.is_member(image):  # pragma: no cover - construction guarantees this
            raise AssertionError("kernel generator fails codomain membership")
    # The embedding rows are a Hermite basis, so the reduction quotients of a
    # domain relation are its coordinates over the kernel generators.
    rel_rows = []
    for row in domain.lattice.basis_rows():
        rem, coords = _reduce(basis, pivot_cols, row)
        if rem:
            idx = next(
                i for i, rel in enumerate(domain.relations._rows)
                if not cod_lat.is_member(_apply_map(rel, map_rows, codomain.generators))
            )
            raise InconsistentMapError(f"domain relation {idx} does not map into the relation lattice")
        rel_rows.append(coords)
    relations = IntMatrix.from_rows(rel_rows, cols=embedding.rows)
    return FpPresentation(embedding.rows, relations), embedding


def map_kernel(domain: FpPresentation, codomain: FpPresentation, map_matrix: IntMatrix) -> FpPresentation:
    """Presentation of the kernel of the induced map on presented groups."""
    return kernel_with_embedding(domain, codomain, map_matrix)[0]


def _apply_map(row: dict[int, int], map_rows: list[dict[int, int]], width: int) -> list[int]:
    out = [0] * width
    for j, coef in row.items():
        for c, v in map_rows[j].items():
            out[c] += coef * v
    return out
