"""Independent dense textbook oracles used to cross-check the package.

The lattice oracles deliberately share no code with blochtower.exact_linalg:
dense lists, first-nonzero pivoting, and Bezout 2x2 block transforms instead
of sparse rows and minimal-absolute-value pivoting.  The Hermite-basis
oracle ``eliminate`` sweeps the sparse rows column by column, where the
package inserts them one at a time into a reduced basis.  The relation oracle
forms the five Laurent arguments in full with the truncated-series arithmetic
kept here, over the package's series record, where the package itself reads
only their heads; the dense head oracle sums each head's symbol as a dense
vector over both cosets, where the package adds up quotient images built
once per target, and the fuzz sampler oracle draws through ``randrange``
where the package reads ``getrandbits``.  The same arithmetic checks the two
square-class identities behind the eigenspace-vanishing argument for valued
fields, with ``check_difference_of_squares`` as the witness search.  The kernel oracle reads the left kernel of the stacked map
from the textbook Smith transform, and gives the kernel one relation per
domain relation row instead of one per row of the domain's Hermite basis.
The five-term oracle forms each relation's arguments pair by pair, and the
sweep oracles check one pair or relation row at a time through symbol
vectors, group-ring elements and a fresh membership query, where the
package sweeps add up quotient images and integer lists.  The sweep
oracles read ``suslin_element``, ``refined_presentation`` and
``rp_lattice`` from the ``bloch_core`` module at call time, so a test that
patches one of them reaches both sides.  The matrix and quotient oracles
z-expand the group-ring form of the refined relations, where the package
writes its rows from the five-term table's ints, and the norm oracle counts
the norms x^(q+1) of F_{q^2} by walking its whole unit group.
"""

import itertools

from blochtower import bloch_core as bc
from blochtower.exact_linalg import FpPresentation, IntMatrix, Lattice, _apply_map, _reduce
from blochtower.finite_field import FieldSpec, square_class_code
from blochtower.group_ring import RModulePresentation, bracket, z_expand
from blochtower.laurent import PrecisionExhaustedError, RelationCheckOutcome, TruncatedLaurentSeries as TLS


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


# Truncated Laurent-series arithmetic over the package's series record.  Each
# operation computes the exact worst-case window of its result, and one whose
# result cannot be told from zero inside that window raises
# PrecisionExhaustedError.  A square class is a (valuation parity, residue
# square class) pair, which is the class exactly when 1-units are squares.


def zero(F):
    return TLS(F, 0, (), exact=True)


def constant(F, code):
    return zero(F) if code == 0 else TLS(F, 0, (code,), exact=True)


def one(F):
    return constant(F, 1)


def uniformizer(F, power=1):
    return TLS(F, power, (1,), exact=True)


def prec_exp(a):
    """First unknown exponent; None means exact (everything known)."""
    return None if a.exact else a.valuation + len(a.coeffs)


def truncate(a, prec):
    """Forget everything from t^prec on (turns exact into tracked)."""
    if a.is_zero():
        raise ValueError("cannot truncate the zero series")
    length = prec - a.valuation
    if length <= 0:
        raise PrecisionExhaustedError("truncation window is empty")
    window = list(a.coeffs[:length])
    window += [0] * (length - len(window))
    return TLS(a.base, a.valuation, tuple(window), exact=False)


def _same_field(a, b):
    if a.base != b.base:
        raise ValueError("series over different fields")


def neg(a):
    F = a.base
    return TLS(F, a.valuation, tuple(F.neg_code(c) for c in a.coeffs), a.exact)


def add(a, b):
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
    return TLS(F, lo, tuple(window), exact=a.exact and b.exact)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
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
    return TLS(F, a.valuation + b.valuation, tuple(out), exact=not tracked)


def inv(a, precision=None):
    """Multiplicative inverse via the geometric-series recurrence.

    Exact one-term series invert exactly; otherwise the result carries the
    same number of correct coefficients as the input (``precision`` sets
    that count for exact multi-term inputs).
    """
    if a.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    F = a.base
    if a.exact and len(a.coeffs) == 1:
        return TLS(F, -a.valuation, (F.inv_code(a.coeffs[0]),), exact=True)
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
    return TLS(F, -a.valuation, tuple(out), exact=False)


def one_minus(a):
    """1 - a: valuation 0 when v(a) > 0, v(a) when v(a) < 0, and above 0 only for a 1-unit."""
    return add(one(a.base), neg(a))


def agrees_with(a, b):
    """Do the two series agree on the overlap of their known windows?"""
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
    if a.is_zero():
        raise ValueError("square class of zero is undefined")
    return a.valuation & 1, square_class_code(a.base, a.coeffs[0])


def sqrt_unit(a, precision=None):
    """A square root of a unit series whose leading coefficient is a square.

    Coefficients come from the recurrence for the square root of a 1-unit
    (2 is invertible); the result has the same tracked window as the input.
    """
    if a.is_zero() or a.valuation != 0:
        raise ValueError("square root needs a unit series")
    F = a.base
    lead_root = F.sqrt_code(a.coeffs[0])
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
    return mul(TLS(F, 0, tuple(y), exact=False), constant(F, lead_root))


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
        s = F.sqrt_code(s_sq) if s_sq else None
        if s:
            return r, s
    return None


# Dense-vector specialization into the induced module of a package
# ``SpecializationTarget``: two coset copies of the fully reduced residue
# presentation, each of ``target.width`` coordinates.


def b_vector(target, sign=1):
    """+-(the constant b of the residue field), in coset 0."""
    b = bc.constant_b(target.field).b.z_coordinates()
    return [sign * x for x in b] + [0] * target.width


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
    if a.is_zero():
        raise ValueError("[0] does not specialize")
    if a.base != target.field:
        raise ValueError("series over a different residue field")
    return symbol(target, a.valuation, a.coeffs[0])


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
    return TLS(F, valuation, tuple([lead] + rest), exact=False)


def kernel_with_all_relation_rows(domain, codomain, map_matrix):
    """Kernel presentation and embedding, with one relation per domain relation.

    The embedding is the Hermite basis of the domain parts of the left
    kernel of the stacked map and codomain relations, read from the textbook
    Smith transform; every domain relation row (zero rows included) is then
    reduced against it, and its quotients become one kernel relation.
    """
    cod_lat = Lattice(codomain.relations)
    map_rows = map_matrix.sparse_rows()
    dom_rows = domain.relations.sparse_rows()
    for row in dom_rows:
        if not cod_lat.is_member(_apply_map(row, map_rows, codomain.generators)):
            raise ValueError("a domain relation does not map into the relation lattice")
    stacked = map_matrix.stack(codomain.relations)
    diag, U, _V = smith_with_transforms(stacked.to_rows())
    rank = sum(1 for d in diag if d)
    # U * stacked * V is diagonal, so the rows of U past the rank span the left kernel
    projected = [row[: domain.generators] for row in U[rank:]]
    basis = Lattice(IntMatrix.from_rows(projected, cols=domain.generators)).basis_rows()
    pivot_cols = [min(row) for row in basis]
    embedding = IntMatrix(
        len(basis), domain.generators,
        {(i, j): v for i, row in enumerate(basis) for j, v in row.items()},
    )
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


def norm_count(F):
    """Number of distinct norms x^(q+1) of the units x of E = F_{q^2}, counted in E."""
    E = FieldSpec(F.p, 2 * F.m)  # uncached: the tables go when the count is done
    return len({E.pow_code(x, F.q + 1) for x in E.units()})


def refined_zmatrix(F):
    """The z-expanded refined relations, through group-ring elements."""
    return z_expand(bc.refined_presentation(F))[0]


def reduced_quotient(F, which):
    """The full reduced quotient ("ic" or "c"): every refined relation plus the added rows."""
    quotients = bc.reduced_quotients(F)
    added = quotients.mod_inversions_and_ic if which == "ic" else quotients.mod_inversions_and_c
    rp = bc.refined_presentation(F)
    return RModulePresentation(rp.group, rp.generators, rp.relations + added)


def suslin_cocycle_sweep(F):
    """psi_i(xy) = <x> psi_i(y) + psi_i(x), one membership query per pair."""
    G = bc.square_class_group(F)
    lat = bc.rp_lattice(F)
    failures = []
    checked = 0
    for i in (1, 2):
        psi = {u: bc.suslin_element(F, i, u) for u in F.units()}
        for x in F.units():
            twist = bracket(G, square_class_code(F, x))
            for y in F.units():
                lhs = psi[F.mul_code(x, y)]
                rhs = psi[y].scale(twist) + psi[x]
                checked += 1
                if not lat.is_member((lhs - rhs).z_coordinates()):
                    failures.append(f"psi_{i} cocycle fails at x={x}, y={y}")
    return bc.SweepResult("suslin_cocycle", checked, tuple(failures))


def lambda_well_defined_sweep(F):
    """lambda_one and lambda_two of each relation row, through symbol vectors."""
    mod = bc.asym2_modulus(F)
    failures = []
    checked = 0
    for ridx, rel in enumerate(bc.refined_presentation(F).relations):
        v = bc.SymbolVector(F, rel)
        checked += 1
        if not bc.lambda_one_of_vector(v).is_zero():
            failures.append(f"lambda_one nonzero on relation {ridx}")
        total = sum(int(c.augmentation()) * bc._lambda_two_of_generator(F, i) for i, c in v.coeffs.items())
        if total % mod:
            failures.append(f"lambda_two nonzero on relation {ridx}")
    return bc.SweepResult("lambda_well_defined", checked, tuple(failures))
