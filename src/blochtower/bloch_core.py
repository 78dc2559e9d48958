"""Pre-Bloch and refined Bloch groups of small finite fields.

The pre-Bloch group of F is generated by symbols [x], x in F^x \\ {1}, with
one five-term relation per ordered pair x != y; the symbol [1] is identified
with 0 at construction time, so it never appears as a generator.  The refined
version carries coefficients in the square-class group ring, with the twisted
five-term relations

    0 = [x] - [y] + <x>[y/x] - <x^-1 - 1>[(1-x^-1)/(1-y^-1)] + <1-x>[(1-x)/(1-y)].

The fields with 2 and 3 elements get their standard ad-hoc replacements (an
order-3 group with a distinguished generator, and the cyclic module on [-1]
with the single relation 2([-1] + <-1>[-1]) = 0).

Every reader of the O(q^2) relations makes each row afresh, as (generator,
integer coefficient, square class) terms: a character's lattice (the
pre-Bloch one for the trivial character) adds coeff * chi(class) per
generator, the z-expanded refined lattice adds each coefficient at its
(generator, translated class) column, and the lambda sweep sums the
invariants over the terms.  ``refined_presentation`` wraps the same terms
in group-ring elements; it is the reference form for tests.

Elements of the refined module (psi_1, psi_2, C(x), b, c and the rows the
reduced quotients add) are sparse {column: int} dicts in those z-expanded
coordinates, built from symbols, linear combinations and twists, so every
zero test reads them as they are; lambda_one and lambda_two of an element
or of a relation row are one sum over its (generator, coefficient, class)
terms.

Downstream of the presentations: the invariant maps lambda_one (into the
square of the augmentation ideal) and lambda_two (into the antisymmetric
square of F^x), their joint kernel (the refined Bloch group, computed per
character after inverting 2), the inversion elements psi_1/psi_2, the
constant elements b and c = 2b, the reduced quotient presentations, and the
verification sweeps for the identities these objects satisfy.  Each
identity has one checker, its sweep: the cyclic submodule generated by c,
for one, is read only through its defining identities in the ``df`` sweep.

Only lattices and the order they insert rows in (4 bytes a row) are cached
per field, never a relation row; all that is observable is a function of F.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional

from .exact_linalg import (
    AbelianInvariants,
    FpPresentation,
    IntMatrix,
    Lattice,
    _combine,
    kernel_with_embedding,
)
from .finite_field import (
    FieldSpec,
    has_root_x2_minus_x_plus_1,
    square_class_code,
)
from .group_ring import (
    Character,
    GroupRingElement,
    RModulePresentation,
    SquareClassGroup,
    bracket,
    double_bracket,
)
from .record import Record


class InternalConsistencyError(AssertionError):
    """A computation contradicted an identity that must hold; a bug, not data."""


# ---------------------------------------------------------------------------
# square classes and symbol bookkeeping


@lru_cache(maxsize=None)
def square_class_group(F: FieldSpec) -> SquareClassGroup:
    return SquareClassGroup(F.q % 2)


@lru_cache(maxsize=None)
def symbol_generators(F: FieldSpec) -> tuple[int, ...]:
    """Codes indexing the symbol generators: F^x without 1, ascending."""
    return tuple(c for c in F.units() if c != 1)


@lru_cache(maxsize=None)
def _symbol_index(F: FieldSpec) -> dict[int, int]:
    return {code: i for i, code in enumerate(symbol_generators(F))}


def generator_count(F: FieldSpec) -> int:
    """Number of presentation generators (1 for the ad-hoc q=2 group)."""
    return 1 if F.q == 2 else len(symbol_generators(F))


# An element of the refined module is a sparse {column: int} dict in the
# z-expanded coordinates that every lattice here reads: column j * |G| + e
# holds the coefficient of <e>[generator j].  |G| is a power of 2 and e < |G|,
# so <t> acts on the columns as k -> k ^ t.


def _symbol(F: FieldSpec, code: int, twist: int = 0) -> dict[int, int]:
    """<twist>[code] for a nonzero code; the symbol [1] is zero by construction."""
    if code == 1:
        return {}
    return {_symbol_index(F)[code] * square_class_group(F).size + twist: 1}


def _twist(v: Mapping[int, int], t: int) -> dict[int, int]:
    """<t> v: each column k moves to k ^ t."""
    return {k ^ t: c for k, c in v.items()}


def _double_twist(v: Mapping[int, int], t: int) -> dict[int, int]:
    """<<t>> v = <t> v - v."""
    return _combine((1, _twist(v, t)), (-1, v))


def _terms(F: FieldSpec, v: Mapping[int, int]) -> list[tuple[int, int, int]]:
    """An element as (generator index, coefficient, square class) terms."""
    g = square_class_group(F).size
    return [(k // g, c, k % g) for k, c in v.items()]


# ---------------------------------------------------------------------------
# presentations


def _relation_rows(F: FieldSpec, order: Optional[Iterable[int]] = None) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Each relation row as (generator index, integer coefficient, square class) terms, made afresh.

    Row i * (n - 1) + k, in table order or in that of the row numbers in
    ``order``, is x = generator i, y = generator k (k + 1 from k = i on):
    [x], -[y], <x>[y/x], -<x^-1 - 1>[(1-x^-1)/(1-y^-1)], <1-x>[(1-x)/(1-y)],
    each quotient's log a difference of per-generator logs (none is 1, as
    x != y).  q = 2 has the single row 3<0> on b, and q = 3 2<0> + 2<-1> on
    [-1].  Readers add up repeated (generator, class) terms.
    """
    if F.q <= 3:
        yield ((0, 3, 0),) if F.q == 2 else ((0, 2, 0), (0, 2, square_class_code(F, 2)))
        return
    gens = symbol_generators(F)
    of_log = [0] * (F.q - 1)  # generator index of the code with each discrete log (log 0 is the code 1)
    logs, classes = [], []  # per generator x: logs of x, 1 - x^-1, 1 - x; classes of x, x^-1 - 1, 1 - x
    for i, x in enumerate(gens):
        one_minus_inv, one_minus = F.sub_code(1, F.inv_code(x)), F.sub_code(1, x)
        of_log[F.dlog_code(x)] = i
        logs.append((F.dlog_code(x), F.dlog_code(one_minus_inv), F.dlog_code(one_minus)))
        classes.append(tuple(square_class_code(F, c) for c in (x, F.neg_code(one_minus_inv), one_minus)))
    m = len(gens) - 1  # rows per x
    for r in range(len(gens) * m) if order is None else order:
        i, k = divmod(r, m)
        k += k >= i
        (lx, l4, l5), (c3, c4, c5), (ly, r4, r5) = logs[i], classes[i], logs[k]
        yield (i, 1, 0), (k, -1, 0), (of_log[ly - lx], 1, c3), (of_log[l4 - r4], -1, c4), (of_log[l5 - r5], 1, c5)


@lru_cache(maxsize=None)
def _insertion_order(F: FieldSpec) -> "array[int]":
    """Row numbers in the order every relation lattice inserts them, an ``array('I')``.

    By descending least generator, table order within one: a Hermite basis
    grows cheapest by descending leading column, and that generator leads a
    row under every character (unless terms cancel) and in z-coordinates.
    """
    from array import array

    buckets = [array("I") for _ in range(generator_count(F))]
    for r, terms in enumerate(_relation_rows(F)):
        buckets[min(terms)[0]].append(r)
    order = array("I")
    while buckets:
        order += buckets.pop()
    return order


def character_presentation(F: FieldSpec, chi: Character) -> FpPresentation:
    """The chi-specialized refined presentation, its rows made afresh on each read.

    Each term adds coeff * chi(class) at its generator, as in
    ``character_specialize(refined_presentation(F), chi)``; the trivial
    character gives the pre-Bloch relations.
    """
    if chi.group != square_class_group(F):
        raise ValueError("character of a different square-class group")
    signs = [chi(e) for e in chi.group.elements()]

    def rows(ordered: bool) -> Iterator[dict[int, int]]:
        for terms in _relation_rows(F, _insertion_order(F) if ordered else None):
            row: dict[int, int] = {}
            for j, coeff, cls in terms:
                row[j] = row.get(j, 0) + coeff * signs[cls]
            yield {j: v for j, v in row.items() if v} if 0 in row.values() else row

    return FpPresentation(generator_count(F), rows)


@lru_cache(maxsize=None)
def prebloch_presentation(F: FieldSpec) -> FpPresentation:
    """The pre-Bloch group of F as an integer presentation."""
    return character_presentation(F, square_class_group(F).character(0))


@lru_cache(maxsize=None)
def refined_presentation(F: FieldSpec) -> RModulePresentation:
    """The refined pre-Bloch module over the square-class group ring.

    The reference form of the relation rows, one group-ring element per
    (row, generator), kept for the test oracles and the perfbench tracer; no
    CLI command reaches it.
    """
    G = square_class_group(F)
    rows: list[dict[int, GroupRingElement]] = []
    for terms in _relation_rows(F):
        row: dict[int, GroupRingElement] = {}
        for i, coeff, cls in terms:
            term = GroupRingElement(G, {cls: coeff})
            row[i] = row[i] + term if i in row else term
        rows.append({i: c for i, c in row.items() if not c.is_zero()})
    return RModulePresentation(G, generator_count(F), tuple(rows))


# ---------------------------------------------------------------------------
# the two invariant maps


def asym2_modulus(F: FieldSpec) -> int:
    return 2 if F.q % 2 else 1


def asym2_pairing(F: FieldSpec, a: int, b: int) -> int:
    """a o b for nonzero codes a, b, as an int mod ``asym2_modulus``.

    The antisymmetric square of the cyclic group F_q^x is Z/gcd(2, q-1) on
    the generator g o g, and g^a o g^b = ab * (g o g).
    """
    return F.dlog_code(a) * F.dlog_code(b) % asym2_modulus(F)


def lambda_two(F: FieldSpec, code: int) -> int:
    """(1 - x) o x in the antisymmetric square, for the field code of x."""
    if code in (0, 1):
        raise ValueError("lambda_two needs x outside {0, 1}")
    return asym2_pairing(F, F.sub_code(1, code), code)


def lambda_one(F: FieldSpec, code: int) -> GroupRingElement:
    """<<1-x>><<x>> for the field code of x: the augmentation-square invariant of [x].

    A product of two augmentation-ideal elements, so it lies in I^2 by definition.
    """
    if code in (0, 1):
        raise ValueError("lambda_one needs x outside {0, 1}")
    G = square_class_group(F)
    cls_1mx = square_class_code(F, F.sub_code(1, code))
    return double_bracket(G, cls_1mx) * double_bracket(G, square_class_code(F, code))


@lru_cache(maxsize=None)
def _lambda_one_table(F: FieldSpec) -> tuple[GroupRingElement, ...]:
    """lambda_one of each generator (0 for the ad-hoc q=2 generator)."""
    if F.q == 2:
        return (GroupRingElement.zero(square_class_group(F)),)
    return tuple(lambda_one(F, code) for code in symbol_generators(F))


@lru_cache(maxsize=None)
def _lambda_two_table(F: FieldSpec) -> tuple[int, ...]:
    """lambda_two of each generator (0 for the ad-hoc q=2 generator)."""
    return (0,) if F.q == 2 else tuple(lambda_two(F, code) for code in symbol_generators(F))


def _lambda_values(F: FieldSpec, rows: Iterable[Iterable[tuple[int, int, int]]]) -> Iterator[tuple[list[int], int]]:
    """lambda_one and lambda_two of each row of (generator, coefficient, class) terms.

    lambda_one comes as a coefficient list over G (<e> acting as f -> e ^ f)
    and lambda_two as an int mod ``asym2_modulus``, each summed over the
    row's terms from the per-generator values.  A row is a relation row or
    an element's ``_terms``; rows are taken one at a time, so a sweep over
    the relation rows pays no call per row.
    """
    g = square_class_group(F).size
    mod = asym2_modulus(F)
    lam1 = [tuple(v.coeffs.items()) for v in _lambda_one_table(F)]
    lam2 = _lambda_two_table(F)
    for terms in rows:
        one = [0] * g
        two = 0
        for j, coeff, e in terms:
            two += coeff * lam2[j]
            for f, w in lam1[j]:
                one[e ^ f] += coeff * w
        yield one, two % mod


# ---------------------------------------------------------------------------
# Bloch groups


def _refined_lambda_matrix(F: FieldSpec, chi: Character) -> IntMatrix:
    """Per-character matrix of (lambda_one, lambda_two) into Z + asym2."""
    rows = [[lam.apply_character(chi), two] for lam, two in zip(_lambda_one_table(F), _lambda_two_table(F))]
    return IntMatrix.from_rows(rows, cols=2)


@lru_cache(maxsize=None)
def eigenspace_kernel(F: FieldSpec, chi: Character) -> FpPresentation:
    """Kernel of the chi-specialized invariant map (lambda_one, lambda_two) into Z + asym2.

    Characters split the 2-inverted refined module into eigenspaces; the odd
    part of this kernel is the chi eigenspace of the refined Bloch group.
    The trivial character specializes to the pre-Bloch presentation, whose
    lattice is shared, and lambda_one lies in I^2, so its trivial
    specialization is 0: the trivial kernel is the Bloch group.
    """
    pres = prebloch_presentation(F) if chi.is_trivial else character_presentation(F, chi)
    codomain = FpPresentation(2, IntMatrix.from_rows([[0, asym2_modulus(F)]]))
    return kernel_with_embedding(pres, codomain, _refined_lambda_matrix(F, chi))


@lru_cache(maxsize=None)
def bloch_invariants(F: FieldSpec) -> AbelianInvariants:
    """Invariants of the Bloch group: the kernel of lambda_two on the pre-Bloch group."""
    return eigenspace_kernel(F, square_class_group(F).character(0)).invariants()


@lru_cache(maxsize=None)
def refined_bloch(F: FieldSpec) -> dict[Character, AbelianInvariants]:
    """Odd invariants of the refined Bloch group, one entry per character eigenspace."""
    return {chi: eigenspace_kernel(F, chi).invariants().odd_part() for chi in square_class_group(F).characters()}


def rb0_is_trivial(F: FieldSpec) -> bool:
    """Is the kernel of refined Bloch -> Bloch (the nontrivial characters' odd parts) trivial?"""
    return all(inv.is_trivial() for chi, inv in refined_bloch(F).items() if not chi.is_trivial)


# ---------------------------------------------------------------------------
# inversion elements, constants, and the cyclic module they generate


def suslin_element(F: FieldSpec, i: int, code: int) -> dict[int, int]:
    """The two standard liftings of [x] + [x^-1], for the field code of x:

    psi_1(x) = [x] + <-1>[x^-1]
    psi_2(x) = <1-x>(<x>[x] + [x^-1])   (0 at x = 1)
    """
    if i not in (1, 2):
        raise ValueError("index must be 1 or 2")
    if code == 0:
        raise ValueError("x must be nonzero")
    if code == 1:
        return {}
    inv = F.inv_code(code)
    if i == 1:
        return _combine((1, _symbol(F, code)), (1, _symbol(F, inv, square_class_code(F, F.neg_code(1)))))
    cls_1mx = square_class_code(F, F.sub_code(1, code))
    cls_x = square_class_code(F, code)
    return _combine((1, _symbol(F, code, cls_1mx ^ cls_x)), (1, _symbol(F, inv, cls_1mx)))


def constant_element(F: FieldSpec, code: int) -> dict[int, int]:
    """C(x) = [x] + <-1>[1-x] + <<1-x>> psi_1(x) for the field code of x; independent of x."""
    if code in (0, 1):
        raise ValueError("x must avoid 0 and 1")
    one_minus = F.sub_code(1, code)
    return _combine(
        (1, _symbol(F, code)),
        (1, _symbol(F, one_minus, square_class_code(F, F.neg_code(1)))),
        (1, _double_twist(suslin_element(F, 1, code), square_class_code(F, one_minus))),
    )


class BlochConstants:
    """The constant b (common value of C(x)), c = 2b, and their exact orders."""

    __slots__ = ("b", "c", "b_order", "c_order", "constancy_checked")

    def __init__(self, b: dict[int, int], c: dict[int, int], b_order: int, c_order: int, constancy_checked: int):
        self.b = b
        self.c = c
        self.b_order = b_order
        self.c_order = c_order
        self.constancy_checked = constancy_checked


@lru_cache(maxsize=None)
def constant_b(F: FieldSpec) -> BlochConstants:
    """Compute b (checking independence of the base point) and its order.

    For q in {2, 3} the standard replacements are used: the distinguished
    order-3 generator, and psi_1(-1) respectively.  Orders are integral,
    computed in the scalar-restricted presentation so that both the 2- and
    3-parts are visible.

    Raises InternalConsistencyError if the values C(x) fail to agree, which
    would indicate a bug rather than interesting mathematics.
    """
    lat = rp_lattice(F)
    checked = 0
    if F.q == 2:
        b = {0: 1}
    elif F.q == 3:
        b = suslin_element(F, 1, 2)
    else:
        candidates = symbol_generators(F)
        base = candidates[0]
        b = constant_element(F, base)
        for code in candidates[1:]:
            if not lat.is_member(_combine((1, constant_element(F, code)), (-1, b))):
                raise InternalConsistencyError(f"C({code}) differs from C({base}) in F_{F.spec_string()}")
            checked += 1
    c = _combine((2, b))
    b_order = lat.order(b)
    c_order = lat.order(c)
    if not isinstance(b_order, int) or 6 % b_order:
        raise InternalConsistencyError(f"constant element must have order dividing 6, got {b_order}")
    return BlochConstants(b, c, b_order, int(c_order), checked)


# ---------------------------------------------------------------------------
# lattices for zero-testing inside the presented modules


def _zexpanded_rows(F: FieldSpec, order: Optional[Iterable[int]] = None) -> Iterator[dict[int, int]]:
    """The z-expanded refined relations, made afresh from the relation rows.

    In table order they are ``z_expand(refined_presentation(F))`` row for
    row: translate e of a relation row puts each nonzero (generator, class)
    sum at column generator * |G| + (e xor class).
    """
    g = square_class_group(F).size
    for terms in _relation_rows(F, order):
        sums: dict[int, int] = {}
        for j, coeff, cls in terms:
            sums[j * g + cls] = sums.get(j * g + cls, 0) + coeff
        # class < g and g is a power of 2, so k ^ e = j * g + (class ^ e)
        yield from ({k ^ e: v for k, v in sums.items() if v} for e in range(g))


@lru_cache(maxsize=None)
def rp_lattice(F: FieldSpec) -> Lattice:
    """Relation lattice of the scalar-restricted refined presentation.

    Over a trivial square-class group (even q) the z-expanded relations are
    the pre-Bloch relations, so the pre-Bloch lattice is reused.
    """
    if square_class_group(F).size == 1:
        return prebloch_presentation(F).lattice
    return Lattice.streamed(_zexpanded_rows(F, _insertion_order(F)), generator_count(F) * square_class_group(F).size)


def prebloch_lattice(F: FieldSpec) -> Lattice:
    return prebloch_presentation(F).lattice


# ---------------------------------------------------------------------------
# the reduced quotients


@lru_cache(maxsize=None)
def reduced_quotients(F: FieldSpec) -> dict[str, tuple[dict[int, int], ...]]:
    """The rows that cut the two reduced quotients out of the refined module.

    "ic": all psi_1(x) plus the augmentation multiples <<t>> c (symbols stay
    meaningful across specialization); "c": all psi_1(x) plus c itself.
    Each is a tuple of refined-module elements added as relations to the
    refined relations, which are not repeated here.
    """
    c = constant_b(F).c
    psi_rows = [psi for psi in (suslin_element(F, 1, code) for code in F.units()) if psi]
    ic_rows = [row for row in (_double_twist(c, t) for t in square_class_group(F).elements() if t) if row]
    return {"ic": tuple(psi_rows + ic_rows), "c": tuple(psi_rows + ([c] if c else []))}


@lru_cache(maxsize=None)
def reduced_lattice(F: FieldSpec, which: str) -> Lattice:
    """Zero-testing lattice for the reduced quotients ("ic" or "c")."""
    if which not in ("ic", "c"):
        raise ValueError(f"unknown reduced quotient {which!r}; choose 'ic' or 'c'")
    # A reduced quotient is the refined module modulo the added relations, so
    # its lattice is spanned by the refined lattice's Hermite basis plus every
    # <t>-translate of the added rows: a few hundred rows instead of every
    # refined one.
    rp = rp_lattice(F)
    translates = [_twist(row, t) for row in reduced_quotients(F)[which] for t in square_class_group(F).elements()]
    return Lattice(IntMatrix.from_sparse_rows(rp.basis_rows() + translates, rp.cols))


# ---------------------------------------------------------------------------
# verification sweeps


class SweepResult(Record):
    __slots__ = ("name", "checked", "failures")

    def __init__(self, name: str, checked: int, failures: tuple[str, ...]):
        self.name = name
        self.checked = checked
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.ok else "fail",
            "checked": self.checked,
            "failures": list(self.failures),
        }


def verify_lambda_well_defined(F: FieldSpec) -> SweepResult:
    """Both invariant maps must kill every relation row, exactly.

    Each relation row is made in table order and read in ints through
    ``_lambda_values``, so a failure names the row's table index.
    """
    failures = []
    for ridx, (one, two) in enumerate(_lambda_values(F, _relation_rows(F))):
        if any(one):
            failures.append(f"lambda_one nonzero on relation {ridx}")
        if two:
            failures.append(f"lambda_two nonzero on relation {ridx}")
    return SweepResult("lambda_well_defined", ridx + 1, tuple(failures))


def verify_suslin_identities(F: FieldSpec) -> SweepResult:
    """psi_i(xy) = <x> psi_i(y) + psi_i(x), exactly in the refined module.

    The quotient map of ``rp_lattice`` is additive, so each twisted
    <g> psi_i(u), g in G, is imaged once (2 |G| (q-1) images), and each pair
    is checked as img[xy] - img_<x>[y] - img[x], coordinate by coordinate.
    """
    G = square_class_group(F)
    lat = rp_lattice(F)
    units = F.units()
    failures = []
    for i in (1, 2):
        psi = {u: suslin_element(F, i, u) for u in units}
        # twisted[t][u] is the image of <t> psi_i(u)
        twisted = [{u: lat.image(_twist(psi[u], t)) for u in units} for t in G.elements()]
        plain = twisted[0]
        for x in units:
            shifted = twisted[square_class_code(F, x)]
            for y in units:
                if not lat.vanishes([a - b - c for a, b, c in zip(plain[F.mul_code(x, y)], shifted[y], plain[x])]):
                    failures.append(f"psi_{i} cocycle fails at x={x}, y={y}")
    return SweepResult("suslin_cocycle", 2 * len(units) ** 2, tuple(failures))


def verify_suslin_lambda_one(F: FieldSpec) -> SweepResult:
    """lambda_one(psi_i(x)) = <<-x>><<x>> as group-ring elements."""
    G = square_class_group(F)
    pairs = [(i, x) for i in (1, 2) for x in F.units()]
    psis = (_terms(F, suslin_element(F, i, x)) for i, x in pairs)
    failures = []
    for (i, x), (lhs, _) in zip(pairs, _lambda_values(F, psis)):
        rhs = double_bracket(G, square_class_code(F, F.neg_code(x))) * double_bracket(G, square_class_code(F, x))
        if lhs != rhs.to_int_vector():
            failures.append(f"lambda_one(psi_{i}) mismatch at x={x}")
    return SweepResult("suslin_lambda_one", len(pairs), tuple(failures))


def verify_two_torsion(F: FieldSpec) -> SweepResult:
    """2([x] + [x^-1]) dies in the plain pre-Bloch group."""
    failures = []
    index = _symbol_index(F)
    lat = prebloch_lattice(F)
    for x in symbol_generators(F):
        # pre-Bloch coordinates are generator indices
        if not lat.is_member(_combine((2, {index[x]: 1}), (2, {index[F.inv_code(x)]: 1}))):
            failures.append(f"2([x]+[x^-1]) nonzero at x={x}")
    return SweepResult("inversion_two_torsion", len(index), tuple(failures))


def verify_suslin_image_lattice(F: FieldSpec) -> SweepResult:
    """lambda_one of the inversion submodule spans (1 + <-1>) * augmentation ideal."""
    G = square_class_group(F)
    size = G.size
    left_rows = []
    psis = (_terms(F, suslin_element(F, i, x)) for i in (1, 2) for x in F.units())
    for val, _ in _lambda_values(F, psis):
        for e in G.elements():
            # <e> * val has coefficient val[k ^ e] at k
            shifted = [val[k ^ e] for k in range(size)]
            if any(shifted):
                left_rows.append(shifted)
    right_rows = []
    minus_one_cls = square_class_code(F, F.neg_code(1))
    p_minus = GroupRingElement.one(G) + bracket(G, minus_one_cls)
    for a in G.elements():
        for e in G.elements():
            val = bracket(G, e) * (p_minus * double_bracket(G, a))
            if not val.is_zero():
                right_rows.append(val.to_int_vector())
    left = Lattice(IntMatrix.from_rows(left_rows, cols=size))
    right = Lattice(IntMatrix.from_rows(right_rows, cols=size))
    # a reduced Hermite basis is unique, so the lattices are equal exactly when their bases are
    failures = ("inversion image differs from (1+<-1>)*I",) if left.basis_rows() != right.basis_rows() else ()
    return SweepResult("suslin_lambda_one_image", len(left_rows) + len(right_rows), failures)


def verify_constants(F: FieldSpec) -> SweepResult:
    """Constancy of C(x), order dividing 6, and the solvability criterion."""
    failures = []
    try:
        consts = constant_b(F)
    except InternalConsistencyError as exc:
        return SweepResult("constants", 1, (str(exc),))
    checked = consts.constancy_checked + 2
    solvable = has_root_x2_minus_x_plus_1(F)
    if solvable and consts.c_order != 1:
        failures.append("X^2-X+1 solvable but c != 0")
    if not solvable and consts.c_order != 3:
        failures.append(f"X^2-X+1 unsolvable but c has order {consts.c_order}")
    return SweepResult("constants", checked, tuple(failures))


def verify_df_identities(F: FieldSpec) -> SweepResult:
    """The defining identities of the module generated by c, after inverting 2:

    psi_1(x) - psi_2(x) = <<x>> c and <<x>> c = 0 for every x.  The second
    holds when x is, up to sign, a norm from F(zeta3), which over a finite
    field is every x (``rsq_order``).
    """
    c = constant_b(F).c
    lat = rp_lattice(F)
    twisted = {x: _double_twist(c, square_class_code(F, x)) for x in F.units()}
    failures = []
    for x, cx in twisted.items():
        difference = _combine((1, suslin_element(F, 1, x)), (-1, suslin_element(F, 2, x)), (-1, cx))
        if not lat.is_member(difference, invert_two=True):
            failures.append(f"difference identity fails at x={x} even with 2 inverted")
    for x, cx in twisted.items():
        if not lat.is_member(cx, invert_two=True):
            failures.append(f"norm annihilation fails at x={x}")
    return SweepResult("difference_identity", 2 * (F.q - 1), tuple(failures))


def verify_reduced_identities(F: FieldSpec) -> SweepResult:
    """Symbol identities in the reduced quotients (all after inverting 2):

    in the deeper quotient: [x^-1] = -<-1>[x] and <<-x>>[x] = 0;
    in the full quotient:   [1-x] = -<-1>[x].
    """
    failures = []
    ic, c = reduced_lattice(F, "ic"), reduced_lattice(F, "c")
    minus_one = square_class_code(F, F.neg_code(1))
    for x in symbol_generators(F):
        v1 = _combine((1, _symbol(F, F.inv_code(x))), (1, _symbol(F, x, minus_one)))
        if not ic.is_member(v1, invert_two=True):
            failures.append(f"inversion identity fails at x={x}")
        v2 = _double_twist(_symbol(F, x), square_class_code(F, F.neg_code(x)))
        if not ic.is_member(v2, invert_two=True):
            failures.append(f"negative-class annihilation fails at x={x}")
        v3 = _combine((1, _symbol(F, F.sub_code(1, x))), (1, _symbol(F, x, minus_one)))
        if not c.is_member(v3, invert_two=True):
            failures.append(f"one-minus identity fails at x={x}")
    return SweepResult("reduced_quotient_identities", 3 * len(symbol_generators(F)), tuple(failures))


SWEEPS = {
    "lambda": (verify_lambda_well_defined,),
    "suslin": (verify_suslin_identities, verify_suslin_lambda_one, verify_two_torsion, verify_suslin_image_lattice),
    "constants": (verify_constants,),
    "df": (verify_df_identities,),
    "pb": (verify_reduced_identities,),
}


def run_suite(F: FieldSpec, suite: str) -> list[SweepResult]:
    """Run one named verification suite, or all of them."""
    if suite == "all":
        names = tuple(SWEEPS)
    elif suite in SWEEPS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SWEEPS)} or 'all'")
    results = []
    for name in names:
        for fn in SWEEPS[name]:
            results.append(fn(F))
    return results
