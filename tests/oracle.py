"""Independent dense textbook oracles used to cross-check the package.

The lattice oracles deliberately share no code with blochtower.exact_linalg:
dense lists, first-nonzero pivoting, and Bezout 2x2 block transforms instead
of sparse rows and minimal-absolute-value pivoting.  The Hermite-basis
oracle ``eliminate`` sweeps the sparse rows column by column, where the
package inserts them one at a time into a reduced basis.  The relation oracle
forms the five Laurent arguments in full with the truncated-series arithmetic
kept here, over a series record of its own that also holds exact series
(constants, powers of t), where the package itself reads only the heads of
tracked series; the dense head oracle sums each head's symbol as a dense
vector over both cosets, where the package adds up quotient images built
once per target, and the fuzz sampler oracle draws through ``randrange``
where the package reads ``getrandbits``.  The same arithmetic checks the two
square-class identities behind the eigenspace-vanishing argument for valued
fields, with ``check_difference_of_squares`` as the witness search.  The
kernel oracle reads the left kernel of the stacked map from the textbook
Smith transform, and gives the kernel one relation per domain relation row
instead of one per row of the domain's Hermite basis.  The five-term oracle
forms each relation's arguments pair by pair; ``five_term_table`` holds
every row from products of field codes, and ``specialized_relations`` and
``rp_zmatrix`` hold the relation matrices built from it, where the package
makes each row from discrete logs as a lattice inserts it.  The element
oracles build psi_1, psi_2, C(x), b, c, the reduced-quotient rows and
lambda of a vector as group-ring elements from the paper's formulas, where
the package writes z-coordinate ints with twists (``z_flatten`` maps
between the two).  The sweep oracles check one pair, relation row or
element at a time with these and a fresh membership query, and take a
mutated element or relation row from the test that mutates the package;
the image oracle tests both containments row by row, where the package
compares two Hermite bases.  The matrix and
quotient oracles z-expand group-ring relations, where the package writes
ints from the relation rows and adds translates to the refined basis.  The
norm oracle counts the norms x^(q+1) of F_{q^2} by walking its whole unit
group.  The eigenspace reconstruction check compares the scalar-restricted
module with the direct sum of its character specializations, through
canonical invariants built from elementary divisors here.  The matrix
readers (``sparse_rows``, ``diagonal_entries``) read an IntMatrix through
its ``entries`` alone, so the package keeps no accessor that only tests
call.  ``determinant`` and ``apply_map`` check transforms and kernels that
the package builds and never re-checks, and ``sqrt_code`` and the scans
``has_root_x2_minus_x_plus_1`` and ``has_sqrt_minus3`` are the element-by-
element searches behind the package's closed forms.
"""

import itertools
import math
from functools import lru_cache

from blochtower import bloch_core as bc
from blochtower.exact_linalg import AbelianInvariants, DimensionMismatchError, FpPresentation, IntMatrix, Lattice, _reduce
from blochtower.finite_field import FieldSpec, factorize, square_class_code
from blochtower.group_ring import (
    GroupRingElement,
    RModulePresentation,
    bracket,
    character_specialize,
    double_bracket,
    z_expand,
)
from blochtower.laurent import PrecisionExhaustedError, TruncatedLaurentSeries as TLS
from blochtower.record import Record


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def smith_with_transforms(mat):
    """Textbook Smith form of a dense integer matrix: returns (diag, U, V)."""
    a = [list(map(int, row)) for row in mat]
    r = len(a)
    c = len(a[0]) if a else 0
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]
    t = 0
    while t < min(r, c):
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
        while True:
            changed = False
            for i in range(t + 1, r):
                if a[i][t]:
                    if a[i][t] % a[t][t] == 0:
                        q = a[i][t] // a[t][t]
                        a[i] = [y - q * x for x, y in zip(a[t], a[i])]
                        U[i] = [y - q * x for x, y in zip(U[t], U[i])]
                    else:
                        g, s, u_ = _ext_gcd(a[t][t], a[i][t])
                        p, q = a[t][t] // g, a[i][t] // g
                        row_t = [s * x + u_ * y for x, y in zip(a[t], a[i])]
                        row_i = [-q * x + p * y for x, y in zip(a[t], a[i])]
                        a[t], a[i] = row_t, row_i
                        urow_t = [s * x + u_ * y for x, y in zip(U[t], U[i])]
                        urow_i = [-q * x + p * y for x, y in zip(U[t], U[i])]
                        U[t], U[i] = urow_t, urow_i
                        changed = True
            for j in range(t + 1, c):
                if a[t][j]:
                    if a[t][j] % a[t][t] == 0:
                        q = a[t][j] // a[t][t]
                        for row in a:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
                    else:
                        g, s, u_ = _ext_gcd(a[t][t], a[t][j])
                        p, q = a[t][t] // g, a[t][j] // g
                        for row in a:
                            x, y = row[t], row[j]
                            row[t], row[j] = s * x + u_ * y, -q * x + p * y
                        for row in V:
                            x, y = row[t], row[j]
                            row[t], row[j] = s * x + u_ * y, -q * x + p * y
                        changed = True
            if any(a[i][t] for i in range(t + 1, r)) or any(a[t][j] for j in range(t + 1, c)):
                changed = True
            if not changed:
                break
        # divisibility fix-up
        p = a[t][t]
        fixed = True
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % p:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    U[t] = [x + y for x, y in zip(U[t], U[i])]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    diag = [a[i][i] for i in range(min(r, c))]
    return diag, U, V


def smith_diagonal(mat):
    return smith_with_transforms(mat)[0]


def invariants_from_diagonal(diag, num_generators):
    factors = [d for d in diag if d > 1]
    rank = sum(1 for d in diag if d)
    return factors, num_generators - rank


def sparse_rows(M):
    """The {col: value} rows of an IntMatrix, read from its entries."""
    rows = [{} for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    return rows


def diagonal_entries(M):
    """The diagonal of an IntMatrix, read from its entries."""
    entries = M.entries
    return [entries.get((i, i), 0) for i in range(min(M.rows, M.cols))]


def stack(A, B):
    """The rows of A above the rows of B."""
    if A.cols != B.cols:
        raise ValueError("column counts differ")
    return IntMatrix.from_sparse_rows(sparse_rows(A) + sparse_rows(B), A.cols)


def invariants_order(inv):
    """Order of the group with these AbelianInvariants: math.inf with a free part."""
    return math.inf if inv.free_rank else math.prod(inv.factors)


def direct_sum(*summands):
    """Canonical AbelianInvariants of a direct sum, through elementary divisors."""
    by_prime = {}
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


def eigenspace_reconstruction_ok(M):
    """Does a group-ring module rebuild from its character eigenspaces, away from 2?

    Compares the odd part of the scalar-restricted presentation against the
    direct sum of the odd parts of all character specializations (canonical
    invariants on both sides, so Z/15 and Z/3 + Z/5 agree).  This is the
    computable face of the eigenspace decomposition of 2-inverted modules
    over these group rings.
    """
    zmat, width = z_expand(M)
    total = FpPresentation(width, zmat).invariants().odd_part()
    pieces = []
    for chi in M.group.characters():
        mat, gens = character_specialize(M, chi)
        pieces.append(FpPresentation(gens, mat).invariants().odd_part())
    return direct_sum(*pieces) == direct_sum(total)


def member(rows, v):
    """Is v in the integer row space of rows?  Decided through the oracle Smith form."""
    if not rows:
        return all(x == 0 for x in v)
    diag, U, V = smith_with_transforms(rows)
    c = len(rows[0])
    w = [sum(v[i] * V[i][j] for i in range(c)) for j in range(c)]
    for j in range(c):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            if w[j]:
                return False
        elif w[j] % d:
            return False
    return True


def order_in_quotient(rows, v, bound):
    """Least n in [1, bound] with n*v in the row space, or None."""
    for n in range(1, bound + 1):
        if member(rows, [n * x for x in v]):
            return n
    return None


def quotient_cosets(rows, num_generators, box):
    """Enumerate cosets of the row lattice met by the given coordinate box."""
    seen = []
    for point in _box_points(num_generators, box):
        if not any(member(rows, [a - b for a, b in zip(point, rep)]) for rep in seen):
            seen.append(point)
    return seen


def _box_points(n, box):
    if n == 0:
        yield ()
        return
    for rest in _box_points(n - 1, box):
        for x in range(box):
            yield rest + (x,)


def _row_addmul(target, source, q):
    if not q:
        return
    for c, v in source.items():
        nv = target.get(c, 0) + q * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def eliminate(rows, cols):
    """Full row Hermite elimination of every row; returns (rows, pivots).

    ``pivots`` lists (row_index, col) pairs in echelon order; rows below the
    last pivot are zero.  Each column's pivot is a candidate of least
    absolute value, ties broken by fewest nonzeros, then row index: the
    sparsest row spreads the least fill-in and coefficient growth into the
    rows it reduces, and the reduced basis is the same whichever is taken.
    This column sweep is the package's former elimination, kept as the
    oracle for ``exact_linalg._hermite_basis``, which inserts one row at a
    time instead: the reduced Hermite basis of a lattice is unique, so the
    two must agree row for row.
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


def echelon_basis(rows, cols):
    """The nonzero rows of ``eliminate``, in echelon order."""
    work, pivots = eliminate(rows, cols)
    return [work[r] for r, _ in pivots]


def determinant(M):
    """Determinant of a square IntMatrix via fraction-free (Bareiss) elimination."""
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


# Truncated Laurent-series arithmetic.  Each operation takes package series
# (always tracked) or the oracle's own, and computes the exact worst-case
# window of its result; one whose result cannot be told from zero inside that
# window raises PrecisionExhaustedError.  A square class is a (valuation
# parity, residue square class) pair, which is the class exactly when 1-units
# are squares.


class Series(Record):
    """A t-adic element over an odd F_q, known to a tracked precision or exactly.

    ``exact`` marks series that are genuinely finite sums (0, constants,
    powers of t): those have no precision horizon, and are canonical, since
    trailing zero coefficients are dropped at construction, so two exact
    series with the same value compare and hash equal.
    """

    __slots__ = ("base", "valuation", "coeffs", "exact")

    def __init__(self, base, valuation, coeffs, exact=False):
        if base.q % 2 == 0:
            raise ValueError("Laurent-series machinery requires an odd residue field")
        if coeffs:
            if coeffs[0] == 0:
                raise ValueError("leading coefficient must be nonzero")
            if min(coeffs) < 0 or max(coeffs) >= base.q:
                raise ValueError("coefficient code out of range")
            if exact and coeffs[-1] == 0:
                end = len(coeffs) - 1
                while coeffs[end - 1] == 0:
                    end -= 1
                coeffs = tuple(coeffs[:end])
        elif not exact:
            raise ValueError("a non-exact series must carry at least one coefficient")
        self.base = base
        self.valuation = valuation
        self.coeffs = coeffs
        self.exact = exact

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if self.is_zero():
            return f"<0 over F_{self.base.spec_string()}>"
        tail = "" if self.exact else f" + O(t^{self.valuation + len(self.coeffs)})"
        return f"<t^{self.valuation}*({self.coeffs[0]}, ...){tail} over F_{self.base.spec_string()}>"


def series(a):
    """``a`` as an oracle series: a package series is a tracked one."""
    return a if isinstance(a, Series) else Series(a.base, a.valuation, a.coeffs)


def zero(F):
    return Series(F, 0, (), exact=True)


def constant(F, code):
    return zero(F) if code == 0 else Series(F, 0, (code,), exact=True)


def one(F):
    return constant(F, 1)


def uniformizer(F, power=1):
    return Series(F, power, (1,), exact=True)


def prec_exp(a):
    """First unknown exponent; None means exact (everything known)."""
    a = series(a)
    return None if a.exact else a.valuation + len(a.coeffs)


def truncate(a, prec):
    """Forget everything from t^prec on (turns exact into tracked)."""
    a = series(a)
    if a.is_zero():
        raise ValueError("cannot truncate the zero series")
    length = prec - a.valuation
    if length <= 0:
        raise PrecisionExhaustedError("truncation window is empty")
    window = list(a.coeffs[:length])
    window += [0] * (length - len(window))
    return Series(a.base, a.valuation, tuple(window))


def _same_field(a, b):
    if a.base != b.base:
        raise ValueError("series over different fields")


def neg(a):
    a = series(a)
    F = a.base
    return Series(F, a.valuation, tuple(F.neg_code(c) for c in a.coeffs), a.exact)


def add(a, b):
    a, b = series(a), series(b)
    _same_field(a, b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    F = a.base
    lo = min(a.valuation, b.valuation)
    if a.exact and b.exact:
        hi = max(a.valuation + len(a.coeffs), b.valuation + len(b.coeffs))
    else:
        hi = min(prec_exp(s) for s in (a, b) if not s.exact)
    window = [0] * (hi - lo)
    for src in (a, b):
        for k, c in enumerate(src.coeffs):
            e = src.valuation + k - lo
            if e < len(window):
                window[e] = F.add_code(window[e], c)
    while window and window[0] == 0:
        window.pop(0)
        lo += 1
    if not window:
        if a.exact and b.exact:
            return zero(F)
        raise PrecisionExhaustedError("cancellation consumed the tracked window")
    return Series(F, lo, tuple(window), exact=a.exact and b.exact)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    a, b = series(a), series(b)
    _same_field(a, b)
    F = a.base
    if a.is_zero() or b.is_zero():
        return zero(F)
    # a product is known to as many coefficients as its shortest tracked factor
    tracked = [len(s.coeffs) for s in (a, b) if not s.exact]
    length = min(tracked) if tracked else len(a.coeffs) + len(b.coeffs) - 1
    out = [0] * length
    for i, x in enumerate(a.coeffs[:length]):
        if x:
            for j, y in enumerate(b.coeffs[: length - i]):
                if y:
                    out[i + j] = F.add_code(out[i + j], F.mul_code(x, y))
    return Series(F, a.valuation + b.valuation, tuple(out), exact=not tracked)


def inv(a, precision=None):
    """Multiplicative inverse via the geometric-series recurrence.

    Exact one-term series invert exactly; otherwise the result carries the
    same number of correct coefficients as the input (``precision`` sets
    that count for exact multi-term inputs).
    """
    a = series(a)
    if a.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    F = a.base
    if a.exact and len(a.coeffs) == 1:
        return Series(F, -a.valuation, (F.inv_code(a.coeffs[0]),), exact=True)
    if a.exact:
        if precision is None:
            raise ValueError("inverting an exact multi-term series needs an explicit precision")
        return inv(truncate(a, a.valuation + precision))
    n = len(a.coeffs)
    a0_inv = F.inv_code(a.coeffs[0])
    out = [a0_inv] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for j in range(1, k + 1):
            if a.coeffs[j] and out[k - j]:
                acc = F.add_code(acc, F.mul_code(a.coeffs[j], out[k - j]))
        out[k] = F.neg_code(F.mul_code(a0_inv, acc))
    return Series(F, -a.valuation, tuple(out))


def one_minus(a):
    """1 - a: valuation 0 when v(a) > 0, v(a) when v(a) < 0, and above 0 only for a 1-unit."""
    return add(one(a.base), neg(a))


def agrees_with(a, b):
    """Do the two series agree on the overlap of their known windows?"""
    a, b = series(a), series(b)
    _same_field(a, b)
    if a.is_zero() and b.is_zero():
        return True
    precs = [p for p in (prec_exp(a), prec_exp(b)) if p is not None]
    if not precs:
        return a == b
    hi = min(precs)
    lo = min((s.valuation for s in (a, b) if not s.is_zero()), default=hi)
    if hi <= lo:
        raise PrecisionExhaustedError("windows do not overlap")

    def coeff(s, e):
        k = e - s.valuation
        return s.coeffs[k] if 0 <= k < len(s.coeffs) else 0

    return all(coeff(a, e) == coeff(b, e) for e in range(lo, hi))


def square_class(a):
    """(valuation parity, residue square class) of a nonzero series."""
    a = series(a)
    if a.is_zero():
        raise ValueError("square class of zero is undefined")
    return a.valuation & 1, square_class_code(a.base, a.coeffs[0])


def sqrt_unit(a, precision=None):
    """A square root of a unit series whose leading coefficient is a square.

    Coefficients come from the recurrence for the square root of a 1-unit
    (2 is invertible); the result has the same tracked window as the input.
    """
    a = series(a)
    if a.is_zero() or a.valuation != 0:
        raise ValueError("square root needs a unit series")
    F = a.base
    lead_root = sqrt_code(F, a.coeffs[0])
    if lead_root is None:
        raise ValueError("leading coefficient is not a square")
    if a.exact:
        if precision is None:
            raise ValueError("square root of an exact series needs an explicit precision")
        a = truncate(a, precision)
    z = mul(a, constant(F, F.inv_code(F.mul_code(lead_root, lead_root))))
    n = len(z.coeffs)
    half = F.inv_code(2 % F.p)
    y = [1] + [0] * (n - 1)
    for k in range(1, n):
        acc = z.coeffs[k]
        for i in range(1, k):
            if y[i] and y[k - i]:
                acc = F.sub_code(acc, F.mul_code(y[i], y[k - i]))
        y[k] = F.mul_code(acc, half)
    return mul(Series(F, 0, tuple(y)), constant(F, lead_root))


def check_difference_of_squares(F, u):
    """Codes of nonzero r, s with u = r^2 - s^2, or None when no pair exists.

    ``u`` is a nonzero code.  Only meaningful for odd q; raises for even q
    where every difference identity is degenerate.
    """
    if F.q % 2 == 0:
        raise ValueError("difference-of-squares search needs odd q")
    if not (0 < u < F.q):
        raise ValueError(f"u must be a nonzero code below q={F.q}, got {u}")
    for r in F.units():
        s_sq = F.sub_code(F.mul_code(r, r), u)
        s = sqrt_code(F, s_sq) if s_sq else None
        if s:
            return r, s
    return None


# Dense-vector specialization into the induced module of a package
# ``SpecializationTarget``: two coset copies of the fully reduced residue
# presentation, each of ``target.width`` coordinates.


def b_vector(target, sign=1):
    """+-(the constant b of the residue field), in coset 0."""
    b = z_flatten(bc.square_class_group(target.field), b_element(target.field))
    return [sign * b.get(k, 0) for k in range(target.width)] + [0] * target.width


def residue_symbol(target, code):
    """The coset-0 symbol of a nonzero residue; [1] is zero."""
    out = [0] * target.total
    if code != 1:
        out[bc._symbol_index(target.field)[code] * target.group_size] = 1
    return out


def act(target, cls, vec):
    """The action of a (parity, residue class) square class: an index permutation.

    Odd parity swaps the cosets, and the residue class translates within one.
    """
    parity, residue_class = cls
    out = [0] * target.total
    for idx, val in enumerate(vec):
        if val:
            coset, rem = divmod(idx, target.width)
            j, e = divmod(rem, target.group_size)
            out[(coset ^ parity) * target.width + j * target.group_size + (e ^ residue_class)] = val
    return out


def symbol(target, valuation, leading):
    """Units go to the symbol of their residue, other valuations to +-b."""
    if valuation:
        return b_vector(target, 1 if valuation > 0 else -1)
    return residue_symbol(target, leading)


def specialize(target, a):
    """The specialization of the symbol [a] of a nonzero series (see ``symbol``)."""
    a = series(a)
    if a.is_zero():
        raise ValueError("[0] does not specialize")
    if a.base != target.field:
        raise ValueError("series over a different residue field")
    return symbol(target, a.valuation, a.coeffs[0])


class RelationCheckOutcome(Record):
    """The result of one relation check: "pass", "fail" or "inconclusive", and why."""

    __slots__ = ("status", "reason")

    def __init__(self, status, reason=""):
        self.status = status
        self.reason = reason


def relation_check_by_series(target, x, y, exact_precision=64):
    """The five-term specialization check computed on full truncated series.

    Every argument is formed as a series (two inverses, two more after
    ``one_minus``, three products) before it is specialized.  Exact
    multi-term series are inverted after truncation to ``exact_precision``
    coefficients; nothing else reads that value.
    """
    try:
        inv_x = inv(x, exact_precision)
        inv_y = inv(y, exact_precision)
        n4 = one_minus(inv_x)
        n5 = one_minus(x)
        terms = (
            (1, None, x),
            (-1, None, y),
            (1, square_class(x), mul(y, inv_x)),
            (-1, square_class(neg(n4)), mul(n4, inv(one_minus(inv_y), exact_precision))),
            (1, square_class(n5), mul(n5, inv(one_minus(y), exact_precision))),
        )
        total = [0] * target.total
        for sign, cls, arg in terms:
            vec = specialize(target, arg)
            if cls is not None:
                vec = act(target, cls, vec)
            for i, v in enumerate(vec):
                if v:
                    total[i] += sign * v
    except PrecisionExhaustedError as exc:
        return RelationCheckOutcome("inconclusive", str(exc))
    if target.is_zero_vector(total):
        return RelationCheckOutcome("pass")
    return RelationCheckOutcome("fail", f"nonzero image for x={x!r}, y={y!r}")


def terms_vanish_dense(target, terms):
    """Does a sum of (sign, twist, head) terms vanish, through dense symbol vectors?

    Each term's symbol is written out over both cosets, permuted by the
    twisting class with ``act``, summed, and tested with ``is_zero_vector``,
    where the package adds up quotient images built once per target.
    """
    total = [0] * target.total
    for sign, twist, (v, lead) in terms:
        vec = symbol(target, v, lead)
        if twist is not None:
            vec = act(target, (twist[0] & 1, square_class_code(target.field, twist[1])), vec)
        for i, val in enumerate(vec):
            if val:
                total[i] += sign * val
    return target.is_zero_vector(total)


def sample_series_by_randrange(F, rng, precision):
    """A fuzz draw through ``randint`` and ``randrange``, the stream the package reads from getrandbits."""
    valuation = rng.randint(-3, 3)
    lead = rng.randrange(1, F.q)
    rest = [rng.randrange(F.q) for _ in range(precision - 1)]
    return TLS(F, valuation, tuple([lead] + rest))


def apply_map(row, map_rows, width):
    """The dense image of a sparse domain row under the map with sparse rows ``map_rows``."""
    out = [0] * width
    for j, coef in row.items():
        for c, v in map_rows[j].items():
            out[c] += coef * v
    return out


def kernel_with_all_relation_rows(domain, codomain, map_matrix):
    """Kernel presentation and embedding, with one relation per domain relation.

    The embedding is the Hermite basis of the domain parts of the left
    kernel of the stacked map and codomain relations, read from the textbook
    Smith transform; every domain relation row (zero rows included) is then
    reduced against it, and its quotients become one kernel relation.
    """
    cod_lat = Lattice(codomain.relations)
    map_rows = sparse_rows(map_matrix)
    dom_rows = sparse_rows(domain.relations)
    for row in dom_rows:
        if not cod_lat.is_member(apply_map(row, map_rows, codomain.generators)):
            raise ValueError("a domain relation does not map into the relation lattice")
    stacked = stack(map_matrix, codomain.relations)
    diag, U, _V = smith_with_transforms(stacked.to_rows())
    rank = sum(1 for d in diag if d)
    # U * stacked * V is diagonal, so the rows of U past the rank span the left kernel
    projected = [row[: domain.generators] for row in U[rank:]]
    basis = Lattice(IntMatrix.from_rows(projected, cols=domain.generators)).basis_rows()
    pivot_cols = [min(row) for row in basis]
    embedding = IntMatrix.from_sparse_rows(basis, domain.generators)
    rel_rows = []
    for row in dom_rows:
        rem, coords = _reduce(basis, pivot_cols, row)
        if rem:
            raise AssertionError("domain relation missing from kernel lattice")
        rel_rows.append(coords)
    relations = IntMatrix.from_rows(rel_rows, cols=embedding.rows)
    return FpPresentation(embedding.rows, relations), embedding


def five_term_arguments(F, x, y):
    """The five (argument, sign, twist-class) terms of the relation at (x, y)."""
    inv_x = F.inv_code(x)
    inv_y = F.inv_code(y)
    a3 = F.mul_code(y, inv_x)
    n4 = F.sub_code(1, inv_x)
    a4 = F.mul_code(n4, F.inv_code(F.sub_code(1, inv_y)))
    n5 = F.sub_code(1, x)
    a5 = F.mul_code(n5, F.inv_code(F.sub_code(1, y)))
    return (
        (x, 1, 0),
        (y, -1, 0),
        (a3, 1, square_class_code(F, x)),
        (a4, -1, square_class_code(F, F.sub_code(inv_x, 1))),
        (a5, 1, square_class_code(F, n5)),
    )


def five_term_rows(F):
    """The relation rows for q > 3, pair by pair, with the [1] terms dropped."""
    index = bc._symbol_index(F)
    return tuple(
        tuple((index[arg], sign, cls) for arg, sign, cls in five_term_arguments(F, x, y) if arg != 1)
        for x, y in itertools.permutations(bc.symbol_generators(F), 2)
    )


def five_term_table(F):
    """Every relation row as (generator index, integer coefficient, square class) terms, held.

    The cached table the package read before it made each row on demand:
    one row per ordered pair x != y of symbol generators, x-major, with the
    five terms [x], -[y], <x>[y/x], -<x^-1 - 1>[(1-x^-1)/(1-y^-1)] and
    <1-x>[(1-x)/(1-y)] in that order and the [1] terms dropped; q = 2 has the
    single row 3<0> on b, and q = 3 the single row 2<0> + 2<-1> on [-1].
    The quotients are products of field codes, where the package subtracts
    discrete logs.
    """
    if F.q == 2:
        return (((0, 3, 0),),)
    if F.q == 3:
        return (((0, 2, 0), (0, 2, square_class_code(F, 2))),)
    index = bc._symbol_index(F)
    per_y = [
        (y, index[y], F.inv_code(F.sub_code(1, F.inv_code(y))), F.inv_code(F.sub_code(1, y)))
        for y in bc.symbol_generators(F)
    ]
    rows = []
    for x in bc.symbol_generators(F):
        inv_x = F.inv_code(x)
        n4 = F.sub_code(1, inv_x)
        n5 = F.sub_code(1, x)
        ix = index[x]
        c3 = square_class_code(F, x)
        c4 = square_class_code(F, F.sub_code(inv_x, 1))
        c5 = square_class_code(F, n5)
        for y, iy, r4, r5 in per_y:
            if y == x:
                continue
            args = ((F.mul_code(y, inv_x), 1, c3), (F.mul_code(n4, r4), -1, c4), (F.mul_code(n5, r5), 1, c5))
            rows.append(((ix, 1, 0), (iy, -1, 0)) + tuple((index[a], sign, cls) for a, sign, cls in args if a != 1))
    return tuple(rows)


def specialized_relations(F, chi):
    """The relation matrix of the chi-specialized refined presentation, from the held table.

    Each term adds coeff * chi(class) at its generator; the trivial
    character gives the pre-Bloch relations.
    """
    signs = [chi(e) for e in chi.group.elements()]
    rows = []
    for terms in five_term_table(F):
        row = {}
        for j, coeff, cls in terms:
            row[j] = row.get(j, 0) + coeff * signs[cls]
        rows.append(row)
    return IntMatrix.from_sparse_rows(rows, bc.generator_count(F))


def rp_zmatrix(F):
    """The z-expanded refined relations from the held table.

    Translate e of a relation row puts each (generator, class) sum at column
    generator * |G| + (e xor class).
    """
    g = bc.square_class_group(F).size
    rows = []
    for terms in five_term_table(F):
        sums = {}
        for j, coeff, cls in terms:
            sums[j * g + cls] = sums.get(j * g + cls, 0) + coeff
        rows += [{k ^ e: v for k, v in sums.items()} for e in range(g)]
    return IntMatrix.from_sparse_rows(rows, bc.generator_count(F) * g)


def norm_count(F):
    """Number of distinct norms x^(q+1) of the units x of E = F_{q^2}, counted in E."""
    E = FieldSpec(F.p, 2 * F.m)  # uncached: the tables go when the count is done
    return len({_power(E, x, F.q + 1) for x in E.units()})


def _power(E, x, e):
    """x^e in the field E, by square and multiply."""
    out = 1
    while e:
        if e & 1:
            out = E.mul_code(out, x)
        x = E.mul_code(x, x)
        e >>= 1
    return out


def refined_zmatrix(F):
    """The z-expanded refined relations, through group-ring elements."""
    return z_expand(bc.refined_presentation(F))[0]


@lru_cache(maxsize=None)
def _square_roots(F):
    table = [None] * F.q
    for r in range(F.q):
        sq = F.mul_code(r, r)
        if table[sq] is None:
            table[sq] = r
    return table


def sqrt_code(F, a):
    """Least code r with r*r == a, or None when a is not a square."""
    return _square_roots(F)[a]


def has_root_x2_minus_x_plus_1(F):
    """Does X^2 - X + 1 vanish at some element of F?  A scan of every code."""
    return any(F.add_code(F.sub_code(F.mul_code(x, x), x), 1) == 0 for x in range(F.q))


def has_sqrt_minus3(F):
    """Is -3 a square in F?  Read from the table of every code's square."""
    return sqrt_code(F, F.neg_code(3 % F.p)) is not None


# The refined module in its group-ring form: an element is a {generator
# index: GroupRingElement} dict, computed with group-ring products.


def equal(a, b):
    """Are two group-ring elements the same: one group, the same coefficients?"""
    return a.group == b.group and a.coeffs == b.coeffs


def augmentation(a):
    """The sum of a group-ring element's coefficients."""
    return sum(a.coeffs.values(), 0)


def in_aug_square(a):
    """Is a group-ring element in I^2, the span of the products <<g>><<h>>?  Decided by ``member``."""
    G = a.group
    rows = [(double_bracket(G, g) * double_bracket(G, h)).to_int_vector() for g in G.elements() for h in G.elements()]
    return member(rows, a.to_int_vector())


def add_vectors(*vectors):
    """The sum of group-ring vectors, zero coefficients dropped."""
    out = {}
    for v in vectors:
        for j, c in v.items():
            out[j] = out[j] + c if j in out else c
    return {j: c for j, c in out.items() if not c.is_zero()}


def scale_vector(v, factor):
    """factor * v, for a group-ring element or an int factor."""
    return add_vectors({j: c * factor for j, c in v.items()})


def symbol_vector(F, code, coeff=None):
    """coeff * [code], coeff 1 by default; the symbol [1] is zero."""
    if code == 1:
        return {}
    G = bc.square_class_group(F)
    return {bc._symbol_index(F)[code]: GroupRingElement.one(G) if coeff is None else coeff}


def z_flatten(G, v):
    """The z-coordinates of a group-ring vector: column j * |G| + e holds the coefficient of <e>[j]."""
    return {j * G.size + e: int(c) for j, coeff in v.items() for e, c in coeff.coeffs.items()}


def _class_bracket(F, code):
    return bracket(bc.square_class_group(F), square_class_code(F, code))


def psi(F, i, code):
    """psi_1(x) = [x] + <-1>[x^-1] and psi_2(x) = <1-x>(<x>[x] + [x^-1]), 0 at x = 1."""
    if code == 1:
        return {}
    inv_x = F.inv_code(code)
    if i == 1:
        return add_vectors(symbol_vector(F, code), symbol_vector(F, inv_x, _class_bracket(F, F.neg_code(1))))
    inner = add_vectors(symbol_vector(F, code, _class_bracket(F, code)), symbol_vector(F, inv_x))
    return scale_vector(inner, _class_bracket(F, F.sub_code(1, code)))


def constant_element(F, code):
    """C(x) = [x] + <-1>[1-x] + <<1-x>> psi_1(x)."""
    G = bc.square_class_group(F)
    one_minus = F.sub_code(1, code)
    return add_vectors(
        symbol_vector(F, code),
        symbol_vector(F, one_minus, _class_bracket(F, F.neg_code(1))),
        scale_vector(psi(F, 1, code), double_bracket(G, square_class_code(F, one_minus))),
    )


def b_element(F):
    """b: the q = 2 generator, psi_1(-1) at q = 3, else C(x) at the first generator x."""
    if F.q == 2:
        return {0: GroupRingElement.one(bc.square_class_group(F))}
    return psi(F, 1, 2) if F.q == 3 else constant_element(F, bc.symbol_generators(F)[0])


def c_element(F):
    return scale_vector(b_element(F), 2)


def reduced_rows(F, which):
    """The rows added to the refined relations: every nonzero psi_1(x), then <<t>> c ("ic") or c ("c")."""
    G = bc.square_class_group(F)
    c = c_element(F)
    added = [scale_vector(c, double_bracket(G, t)) for t in G.elements() if t] if which == "ic" else [c]
    return tuple(row for row in [psi(F, 1, x) for x in F.units()] + added if row)


def lambda_of_vector(F, v):
    """(lambda_one, lambda_two) of a group-ring vector, extended linearly from the symbols.

    lambda_one [x] = <<1-x>><<x>>, and lambda_two [x] = (1 - x) o x through
    the coinvariants, from discrete logarithms, mod gcd(2, q - 1).
    """
    G = bc.square_class_group(F)
    one, two = GroupRingElement.zero(G), 0
    if F.q == 2:  # the ad-hoc generator maps to 0
        return one, two
    for j, coeff in v.items():
        x = bc.symbol_generators(F)[j]
        y = F.sub_code(1, x)
        one = one + coeff * double_bracket(G, square_class_code(F, y)) * double_bracket(G, square_class_code(F, x))
        two += augmentation(coeff) * F.dlog_code(y) * F.dlog_code(x)
    return one, two % (2 if F.q % 2 else 1)


def refined_relations(F, rows=None):
    """The refined relations as group-ring vectors, from the given term rows or pair by pair.

    The ad-hoc single rows of q = 2 and 3 are read from ``five_term_table``.
    """
    G = bc.square_class_group(F)
    if rows is None:
        rows = five_term_rows(F) if F.q > 3 else five_term_table(F)
    return tuple(add_vectors(*({j: GroupRingElement(G, {cls: coeff})} for j, coeff, cls in terms)) for terms in rows)


def reduced_quotient(F, which):
    """The full reduced quotient ("ic" or "c"): every refined relation plus the added rows."""
    G = bc.square_class_group(F)
    return RModulePresentation(G, bc.generator_count(F), refined_relations(F) + reduced_rows(F, which))


def suslin_cocycle_sweep(F, psi_of=psi):
    """psi_i(xy) = <x> psi_i(y) + psi_i(x), one membership query per pair."""
    G = bc.square_class_group(F)
    lat = bc.rp_lattice(F)
    failures = []
    checked = 0
    for i in (1, 2):
        elems = {u: psi_of(F, i, u) for u in F.units()}
        for x in F.units():
            twist = _class_bracket(F, x)
            for y in F.units():
                diff = add_vectors(elems[F.mul_code(x, y)], scale_vector(elems[y], -twist), scale_vector(elems[x], -1))
                checked += 1
                if not lat.is_member(z_flatten(G, diff)):
                    failures.append(f"psi_{i} cocycle fails at x={x}, y={y}")
    return bc.SweepResult("suslin_cocycle", checked, tuple(failures))


def df_sweep(F, psi_of=psi):
    """psi_1(x) - psi_2(x) = <<x>> c and <<x>> c = 0 after inverting 2, one membership query per element."""
    G = bc.square_class_group(F)
    lat = bc.rp_lattice(F)
    twisted = {x: scale_vector(c_element(F), double_bracket(G, square_class_code(F, x))) for x in F.units()}
    failures = []
    for x, cx in twisted.items():
        diff = add_vectors(psi_of(F, 1, x), scale_vector(psi_of(F, 2, x), -1), scale_vector(cx, -1))
        if not lat.is_member(z_flatten(G, diff), invert_two=True):
            failures.append(f"difference identity fails at x={x} even with 2 inverted")
    for x, cx in twisted.items():
        if not lat.is_member(z_flatten(G, cx), invert_two=True):
            failures.append(f"norm annihilation fails at x={x}")
    return bc.SweepResult("difference_identity", 2 * len(twisted), tuple(failures))


def suslin_image_sweep(F, psi_of=psi):
    """lambda_one of the inversion elements spans (1 + <-1>) I: both containments, each row by ``member``."""
    G = bc.square_class_group(F)
    values = [lambda_of_vector(F, psi_of(F, i, x))[0] for i in (1, 2) for x in F.units()]
    p_minus = GroupRingElement.one(G) + _class_bracket(F, F.neg_code(1))
    ideal = [p_minus * double_bracket(G, a) for a in G.elements()]

    def translates(elements):
        """Every nonzero <e> v as an int vector, e in G."""
        rows = [(bracket(G, e) * v).to_int_vector() for v in elements for e in G.elements()]
        return [row for row in rows if any(row)]

    left, right = translates(values), translates(ideal)
    same = all(member(right, row) for row in left) and all(member(left, row) for row in right)
    return bc.SweepResult("suslin_lambda_one_image", len(left) + len(right), () if same else ("inversion image differs from (1+<-1>)*I",))


def lambda_well_defined_sweep(F, rows=None):
    """lambda_one and lambda_two of each relation row, through group-ring vectors."""
    failures = []
    relations = refined_relations(F, rows)
    for ridx, rel in enumerate(relations):
        one, two = lambda_of_vector(F, rel)
        if not one.is_zero():
            failures.append(f"lambda_one nonzero on relation {ridx}")
        if two:
            failures.append(f"lambda_two nonzero on relation {ridx}")
    return bc.SweepResult("lambda_well_defined", len(relations), tuple(failures))
