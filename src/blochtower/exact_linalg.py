"""Exact linear algebra over the integers.

Hermite and Smith normal forms, invariant factors of finitely presented
abelian groups, the quotient map of a presented group Z^n/L (membership,
membership after inverting 2, and element orders all read it), and kernels
of maps between presented groups.

All arithmetic uses Python's arbitrary-precision integers.  Every choice is
deterministic (rows are inserted in a fixed order), so every result is
reproducible bit for bit.  A matrix is stored as one sparse ``{col: value}``
dict per row, the form elimination works on; a lattice may also insert rows
as a generator makes them, so that relations are never held at all.

There is one elimination engine: a row Hermite basis built by inserting
every row into a basis kept reduced above its pivots (``_hermite_basis``):
after every row, each entry above a pivot lies in [0, pivot), which bounds
coefficient growth.  A Smith form takes such bases of the columns and of the
rows in turn until the basis is diagonal, then gcd/lcm steps on pairs of
diagonal entries make a divisibility chain (``_smith_core``).  No
elimination keeps a transform: one that is needed is carried as identity
columns, since the Hermite basis of [M | I] is [H | U] with U*M = H.  The
Hermite and Smith transforms and the kernel of a map are read from such
columns.  A ``Lattice`` keeps its basis and one Smith transform V of it,
restricted to the columns of the nontrivial quotient coordinates: the
quotient map needs nothing else.  A presentation owns the lattice of its
relations, built once on first use: its invariants, kernels of maps out of
it and membership tests all read that one lattice.

Nothing re-checks what its construction guarantees: that U*M*V = D with
U and V unimodular, that a basis row has a zero quotient image, or that a
kernel generator maps into the codomain lattice.  The test session checks
the first two on every Smith form and quotient map it builds.

Everything here is a pure function of immutable inputs and safe to call
concurrently; a lattice or quotient map built on first use is the same
whichever call builds it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .record import Record

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
    are.  ``entries`` is the ``(i, j)``-keyed view, derived on each read.
    """

    __slots__ = ("rows", "cols", "_rows")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

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

    def is_trivial(self) -> bool:
        return not self.factors and not self.free_rank

    def to_json(self) -> dict:
        return {"factors": list(self.factors), "free_rank": self.free_rank}


class FpPresentation:
    """A finitely presented abelian group: generator count plus relation rows.

    The relations are an ``IntMatrix``, or a function of one flag that makes
    the rows afresh on each call, in table order or (flag set) in the order
    cheapest to insert: then ``relations`` writes the matrix anew on each
    read and ``lattice`` inserts the rows as they are made.  The lattice is
    built on first use and kept (in the instance ``__dict__``): invariants,
    kernels and membership tests all read it, so relations are eliminated once.
    """

    __slots__ = ("generators", "_relations", "__dict__")

    def __init__(self, generators: int, relations: Union[IntMatrix, Callable[[bool], Iterable[dict[int, int]]]]):
        if isinstance(relations, IntMatrix) and relations.cols != generators:
            raise DimensionMismatchError("relation width must equal generator count")
        self.generators, self._relations = generators, relations

    @property
    def relations(self) -> IntMatrix:
        rel = self._relations
        return rel if isinstance(rel, IntMatrix) else IntMatrix.from_sparse_rows(rel(False), self.generators)

    @cached_property
    def lattice(self) -> "Lattice":
        if isinstance(self._relations, IntMatrix):
            return Lattice(self.relations)
        return Lattice.streamed(self._relations(True), self.generators)

    def invariants(self) -> AbelianInvariants:
        return self.lattice.invariants()


# ---------------------------------------------------------------------------
# sparse row operations


def _row_addmul(target: dict[int, int], source: Mapping[int, int], q: int) -> None:
    if not q:
        return
    for c, v in source.items():
        nv = target.get(c, 0) + q * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def _combine(*terms: tuple[int, Mapping[int, int]]) -> dict[int, int]:
    """The sparse row sum of coeff * v over (coeff, v) terms, zero entries dropped."""
    out: dict[int, int] = {}
    for coeff, v in terms:
        _row_addmul(out, v, coeff)
    return out


def _hermite_basis(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Reduced row Hermite basis of the lattice the rows span, in echelon order.

    Every row is inserted into a ``_ReducedBasis`` as it comes (``rows`` may
    be a generator), copied and not changed.  The reduced Hermite basis is
    unique, so the order sets the work, never the result; held rows go in
    by descending leading column, which keeps the work small.
    """
    basis = _ReducedBasis()
    basis.extend(rows)
    return [basis.rows[c] for c in basis.pivots]


class _ReducedBasis:
    """A row Hermite basis kept reduced above its pivots, grown by row insertion.

    ``rows`` maps each pivot column to its row, and ``pivots`` lists those
    columns in increasing order.  Each pivot is positive and every entry
    above it lies in [0, pivot), after every insertion: that bounds
    coefficient growth (Kannan and Bachem, SIAM J. Comput. 8, 1979; Cohen,
    GTM 138, 2.4).
    """

    __slots__ = ("rows", "pivots")

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}
        self.pivots: list[int] = []

    def extend(self, rows: Iterable[dict[int, int]]) -> None:
        """Insert each row in turn, so that the basis spans it too.

        While a row v is nonzero, its leading column c and entry a decide
        the step: with no pivot at c, v (made positive) opens one; a pivot b
        that divides a reduces v; otherwise v and the pivot row p are merged
        by the unimodular 2 x 2 extended-gcd step: with s*b + t*a =
        g = gcd(a, b), p becomes s*p + t*v, and v goes on as
        (a/g)*p - (b/g)*v, which is zero at c.
        """
        pivot_rows = self.rows
        for row in rows:
            v = dict(row)
            while v:
                c = min(v)
                a = v[c]
                p = pivot_rows.get(c)
                if p is None:
                    self._install(v if a > 0 else {j: -x for j, x in v.items()}, c)
                    break
                b = p[c]
                q, r = divmod(a, b)
                if not r:  # _row_addmul(v, p, -q), inlined: most rows take only this step
                    del v[c]
                    for j, x in p.items():
                        if j != c:
                            y = v.get(j, 0) - q * x
                            if y:
                                v[j] = y
                            else:
                                del v[j]
                    continue
                g = math.gcd(a, b)
                s = pow(b // g, -1, abs(a) // g)
                t = (g - s * b) // a
                merged = {j: t * x for j, x in v.items()}
                _row_addmul(merged, p, s)
                v = {j: -(b // g) * x for j, x in v.items()}
                _row_addmul(v, p, a // g)
                self._install(merged, c)

    def _install(self, row: dict[int, int], c: int) -> None:
        """Make ``row``, with positive leading entry at c, the pivot row of c.

        Its entries at later pivot columns are reduced into [0, pivot), and
        every earlier basis row's entry at c is reduced modulo the new
        pivot, followed by that row's later pivot columns.
        """
        self._reduce_after(row, c)
        if c not in self.rows:
            insort(self.pivots, c)
        self.rows[c] = row
        g = row[c]
        for e in self.pivots[:bisect_left(self.pivots, c)]:
            earlier = self.rows[e]
            q = earlier.get(c, 0) // g
            if q:
                _row_addmul(earlier, row, -q)
                self._reduce_after(earlier, c)

    def _reduce_after(self, row: dict[int, int], c: int) -> None:
        """Reduce the row's entries at the pivot columns after c into [0, pivot).

        One left-to-right pass is enough: a pivot row starts at its pivot,
        so reducing one column changes only later ones.
        """
        for d in self.pivots[bisect_right(self.pivots, c):]:
            x = row.get(d)
            if x is not None:
                p = self.rows[d]
                q = x // p[d]
                if q:
                    _row_addmul(row, p, -q)


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
# Smith forms


def _transpose(rows: list[dict[int, int]], cols: int) -> list[dict[int, int]]:
    """The ``cols`` columns of sparse rows, as rows."""
    out: list[dict[int, int]] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _smith_core(basis: list[dict[int, int]], cols: int):
    """Smith diagonal of a k-row echelon basis B of rank k, with its column transform.

    Returns (diag, rows of V) with U*B*V = D for some unimodular U, which is
    not kept.  Hermite bases of the columns and of the rows are taken in
    turn (Kannan and Bachem, SIAM J. Comput. 8, 1979); the column side
    carries the rows of V^T as columns from ``cols`` on.  The first turn
    leaves a k x k head on top of cols - k rows of V^T that the head
    vanishes on (the free coordinates); the turns end once every head row
    has one entry.  Each pair of diagonal entries a, b with a not dividing b
    then becomes (gcd, lcm) by one unimodular 2 x 2 step on rows i, j of
    V^T, so the diagonal ends a divisibility chain.
    """
    k = len(basis)
    heads = _transpose(basis, cols)
    vt = [{cols + j: 1} for j in range(cols)]
    column_turn = True
    while True:
        rows = [{**h, **t} for h, t in zip(heads, vt)] if column_turn else heads
        rows = _hermite_basis(sorted(filter(None, rows), key=min, reverse=True))
        heads = [{j: x for j, x in row.items() if j < k} for row in rows[:k]]
        if column_turn:
            # only the first turn has rows past k: the V^T rows of the free coordinates
            vt[:len(rows)] = [{j: x for j, x in row.items() if j >= k} for row in rows]
        if all(len(h) == 1 for h in heads):
            break
        heads = _transpose(heads, k)
        column_turn = not column_turn
    diag = [h[i] for i, h in enumerate(heads)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = diag[i], diag[j]
            if b % a:
                # s*a + t*b = g: [[s, t], [-b/g, a/g]] diag(a, b) [[1, -t*b/g], [1, s*a/g]] = diag(g, a*b/g)
                g = math.gcd(a, b)
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                vt[i], vt[j] = _combine((1, vt[i]), (1, vt[j])), _combine((-t * (b // g), vt[i]), (s * (a // g), vt[j]))
                diag[i], diag[j] = g, a // g * b
    return diag, _transpose([{j - cols: x for j, x in row.items()} for row in vt], cols)


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, U, V) with U*M*V = D.

    U and V are unimodular; the diagonal of D is nonnegative and forms a
    divisibility chain.  Total on all integer matrices.  V comes from the
    Smith core on the Hermite basis of M's rows, and U is the Hermite
    transform of M*V: M*V = U^-1 D has the row lattice of D, and D (its
    entries positive, nothing above them) is its own reduced Hermite basis.
    """
    _, v = _smith_core(Lattice(M).basis_rows(), M.cols)
    V = IntMatrix._of(v, M.cols)
    D, U = hermite_normal_form(M @ V)
    return D, U, V


# ---------------------------------------------------------------------------
# lattices


def _smith_quotient(basis: list[dict[int, int]], cols: int) -> QuotientMap:
    """The quotient map of Z^cols modulo the row lattice of an echelon basis.

    The Smith core on the basis gives unimodular V with Z^cols/L = sum of
    Z/d_i.  Returns (the d_i other than 1, 0 for a free summand; the rows of
    V restricted to their columns), so row r holds what the r-th unit vector
    adds to each coordinate of an image.
    """
    diag, v = _smith_core(basis, cols)
    diag += [0] * (cols - len(diag))
    kept = [i for i, d in enumerate(diag) if d != 1]
    return tuple(diag[i] for i in kept), [tuple(row.get(i, 0) for i in kept) for row in v]


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

    The reduced row Hermite basis comes from inserting every row
    (``_hermite_basis``).  On first use, the Smith core on that basis gives
    unimodular V with Z^n/L = sum of Z/d_i, read through the quotient map
    v -> (v.V_i mod d_i) (``_smith_quotient``), so a lattice read only for
    its basis never pays for it.  ``moduli`` lists the d_i other than 1 (0
    for a free summand) and ``image`` computes the map from the nonzero
    entries of v; it is additive, so a sum of images may stand for the image
    of a sum, and ``vanishes`` decides whether such a sum is zero.
    Membership (also after inverting 2), element orders and the invariants
    of Z^n/L are read from them.  A lattice that extends a known one may be
    built from that one's ``basis_rows`` plus the new rows: the basis and
    moduli are the same.  The matrix's row dicts are read in place, not
    copied, and only its width is kept; ``streamed`` takes rows from a
    generator instead, and only the basis outlives them.
    """

    def __init__(self, matrix: IntMatrix):
        self.cols = matrix.cols
        self._basis = _hermite_basis(sorted(filter(None, matrix._rows), key=min, reverse=True))

    @classmethod
    def streamed(cls, rows: Iterable[dict[int, int]], cols: int) -> "Lattice":
        """The lattice of rows inserted in the order they come."""
        lattice = cls.__new__(cls)
        lattice.cols, lattice._basis = cols, _hermite_basis(rows)
        return lattice

    @cached_property
    def _quotient(self) -> QuotientMap:
        """(moduli, rows of V on their columns), from the Smith step on first use."""
        return _smith_quotient(self._basis, self.cols)

    @property
    def moduli(self) -> tuple[int, ...]:
        return self._quotient[0]

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
        return _image(items, *self._quotient)

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


def kernel_with_embedding(domain: FpPresentation, codomain: FpPresentation, map_matrix: IntMatrix) -> FpPresentation:
    """Presentation of the kernel of the induced map on presented groups.

    The name is the one ``perfbench/traced_cli.py`` spans; only the kernel
    presentation is returned.  ``map_matrix`` sends domain generators
    (rows) to codomain coordinate vectors.  The kernel generators come from
    one lattice of [map_matrix | I ; codomain basis | 0]: its Hermite rows
    with zero codomain part are the Hermite basis of the preimage of the
    codomain relation lattice.  Both relation lattices are the
    presentations' own (``FpPresentation.lattice``), so neither relation
    matrix is eliminated again.  The kernel's relations are the coordinates,
    over the kernel generators, of the domain's relation Hermite basis
    rather than of every domain relation: the same lattice, so the same
    group, with at most ``domain.generators`` relation rows.  A basis row
    outside the preimage of the codomain relation lattice means the map is
    not well defined; the InconsistentMapError then names the first domain
    relation outside the preimage, reading the relations anew: a relation
    lies in the preimage exactly when its image lies in the codomain
    relation lattice.
    """
    if map_matrix.rows != domain.generators or map_matrix.cols != codomain.generators:
        raise DimensionMismatchError("map matrix shape must be domain gens x codomain gens")
    width = codomain.generators
    stacked = _with_identity(map_matrix._rows + codomain.lattice.basis_rows(), width, domain.generators)
    basis = [{j - width: v for j, v in row.items()} for row in Lattice(stacked).basis_rows() if min(row) >= width]
    pivot_cols = [min(row) for row in basis]  # a Hermite row starts at its pivot
    # The basis is a Hermite basis, so the reduction quotients of a domain
    # relation are its coordinates over the kernel generators.
    rel_rows = []
    for row in domain.lattice.basis_rows():
        rem, coords = _reduce(basis, pivot_cols, row)
        if rem:
            idx = next(i for i, rel in enumerate(domain.relations._rows) if _reduce(basis, pivot_cols, rel)[0])
            raise InconsistentMapError(f"domain relation {idx} does not map into the relation lattice")
        rel_rows.append(coords)
    return FpPresentation(len(basis), IntMatrix.from_rows(rel_rows, cols=len(basis)))
