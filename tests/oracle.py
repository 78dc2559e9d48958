"""Independent dense textbook oracles used to cross-check the package.

The lattice oracles deliberately share no code with blochtower.exact_linalg:
dense lists, first-nonzero pivoting, and Bezout 2x2 block transforms instead
of sparse rows and minimal-absolute-value pivoting.  The relation oracle
forms the five Laurent arguments in full with the package's truncated-series
arithmetic, where the package itself reads only their heads; the dense
head oracle sums each head's symbol as a dense vector over both cosets,
where the package adds up quotient images built once per target, and the
fuzz sampler oracle draws through ``randrange`` where the package reads
``getrandbits``.  The kernel oracle reads the left kernel of the stacked map
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
from blochtower.laurent import (
    PrecisionExhaustedError,
    RelationCheckOutcome,
    TruncatedLaurentSeries,
    head_square_class,
    laurent_square_class,
)


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


def relation_check_by_series(target, x, y, exact_precision=64):
    """The five-term specialization check computed on full truncated series.

    Every argument is formed as a series (two inverses, two more after
    ``one_minus``, three products) before it is specialized.  Exact
    multi-term series are inverted after truncation to ``exact_precision``
    coefficients; nothing else reads that value.
    """
    try:
        inv_x = x.inv(exact_precision)
        inv_y = y.inv(exact_precision)
        a3 = y * inv_x
        n4 = inv_x.one_minus()
        a4 = n4 * (inv_y.one_minus()).inv(exact_precision)
        n5 = x.one_minus()
        a5 = n5 * (y.one_minus()).inv(exact_precision)
        c3 = laurent_square_class(x)
        c4 = laurent_square_class(-n4)
        c5 = laurent_square_class(n5)
        terms = (
            (1, None, x),
            (-1, None, y),
            (1, c3, a3),
            (-1, c4, a4),
            (1, c5, a5),
        )
        total = [0] * target.total
        for sign, cls, arg in terms:
            vec = target.specialize(arg)
            if cls is not None:
                vec = target.act(cls, vec)
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
        vec = target.symbol(v, lead)
        if twist is not None:
            vec = target.act(head_square_class(target.field, *twist), vec)
        for i, val in enumerate(vec):
            if val:
                total[i] += sign * val
    return target.is_zero_vector(total)


def sample_series_by_randrange(F, rng, precision):
    """A fuzz draw through ``randint`` and ``randrange``, the stream the package reads from getrandbits."""
    valuation = rng.randint(-3, 3)
    lead = rng.randrange(1, F.q)
    rest = [rng.randrange(F.q) for _ in range(precision - 1)]
    return TruncatedLaurentSeries(F, valuation, tuple([lead] + rest), exact=False)


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
