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

Every command reads the O(q^2) relations from one term table that lists
each relation row as (generator, integer coefficient, square class) terms:
a character specialization (the pre-Bloch matrix for the trivial one) adds
coeff * chi(class) into sparse rows, the z-expanded refined matrix adds each
coefficient at its (generator, translated class) column, and the lambda
sweep sums the invariants over the terms.  ``refined_presentation`` wraps
the same terms in group-ring elements; it is the reference form for tests.

Downstream of the presentations: the invariant maps lambda_one (into the
square of the augmentation ideal) and lambda_two (into the antisymmetric
square of F^x), their joint kernel (the refined Bloch group, computed per
character after inverting 2), the inversion elements psi_1/psi_2, the
constant elements b and c = 2b, the cyclic submodule generated by c, the
reduced quotient presentations, and the verification sweeps for all the
identities these objects satisfy.

Presentations and lattices are cached per field; everything observable is a
pure function of the field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional, Union

from .exact_linalg import (
    AbelianInvariants,
    FpPresentation,
    IntMatrix,
    Lattice,
    kernel_with_embedding,
)
from .finite_field import (
    FieldSpec,
    has_root_x2_minus_x_plus_1,
    plus_minus_norm_codes,
    square_class_code,
)
from .group_ring import (
    Character,
    GroupRingElement,
    RModulePresentation,
    SquareClassGroup,
    bracket,
    double_bracket,
    z_expand,
    z_vector,
)
from .record import Record


class InternalConsistencyError(AssertionError):
    """A computation contradicted an identity that must hold; a bug, not data."""


# ---------------------------------------------------------------------------
# square classes and symbol bookkeeping


@lru_cache(maxsize=None)
def square_class_group(F: FieldSpec) -> SquareClassGroup:
    if F.q % 2 == 0:
        return SquareClassGroup(0, ())
    return SquareClassGroup(1, ("nonsquare unit",))


@lru_cache(maxsize=None)
def symbol_generators(F: FieldSpec) -> tuple[int, ...]:
    """Codes indexing the symbol generators: F^x without 1, ascending."""
    if F.q == 2:
        return ()
    return tuple(c for c in F.units() if c != 1)


@lru_cache(maxsize=None)
def _symbol_index(F: FieldSpec) -> dict[int, int]:
    return {code: i for i, code in enumerate(symbol_generators(F))}


def generator_count(F: FieldSpec) -> int:
    """Number of presentation generators (1 for the ad-hoc q=2 group)."""
    return 1 if F.q == 2 else len(symbol_generators(F))


class SymbolVector:
    """A formal group-ring combination of symbol generators.

    Coefficients are keyed by generator index.  The special q=2 presentation
    has a single synthetic generator at index 0.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Optional[Mapping[int, GroupRingElement]] = None):
        self.field = field
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, field: FieldSpec) -> "SymbolVector":
        return cls(field)

    @classmethod
    def symbol(cls, field: FieldSpec, code: int, coeff: Union[int, GroupRingElement] = 1) -> "SymbolVector":
        """coeff * [code]; the symbol [1] is zero by construction."""
        if code == 0:
            raise ValueError("[0] is not a symbol")
        if code == 1:
            return cls.zero(field)
        if isinstance(coeff, int):
            coeff = GroupRingElement(square_class_group(field), {0: coeff})
        return cls(field, {_symbol_index(field)[code]: coeff})

    def _check(self, other: "SymbolVector") -> None:
        if self.field != other.field:
            raise ValueError("symbol vectors over different fields")

    def __add__(self, other: "SymbolVector") -> "SymbolVector":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out[i] + c if i in out else c
        return SymbolVector(self.field, out)

    def __sub__(self, other: "SymbolVector") -> "SymbolVector":
        return self + (-other)

    def __neg__(self) -> "SymbolVector":
        return SymbolVector(self.field, {i: -c for i, c in self.coeffs.items()})

    def scale(self, factor: Union[int, GroupRingElement]) -> "SymbolVector":
        if isinstance(factor, int):
            return SymbolVector(self.field, {i: c.scale(factor) for i, c in self.coeffs.items()})
        return SymbolVector(self.field, {i: factor * c for i, c in self.coeffs.items()})

    def is_zero_vector(self) -> bool:
        return not self.coeffs

    def z_coordinates(self) -> list[int]:
        """Integer coordinates in the scalar-restricted presentation."""
        return z_vector(square_class_group(self.field), generator_count(self.field), self.coeffs)

    def augmentation_coordinates(self) -> list[int]:
        """Coordinates in the coinvariant (plain pre-Bloch) presentation."""
        out = [0] * generator_count(self.field)
        for i, c in self.coeffs.items():
            a = c.augmentation()
            if a.denominator != 1:
                raise ValueError("augmentation is not integral")
            out[i] += int(a)
        return out

    def __repr__(self) -> str:
        return f"SymbolVector({self.field.spec_string()}, {self.coeffs!r})"


# ---------------------------------------------------------------------------
# presentations


@lru_cache(maxsize=None)
def _five_term_table(F: FieldSpec) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Every relation row as (generator index, integer coefficient, square class) terms.

    One row per ordered pair x != y of symbol generators, x-major, with the
    five terms [x], -[y], <x>[y/x], -<x^-1 - 1>[(1-x^-1)/(1-y^-1)] and
    <1-x>[(1-x)/(1-y)] in that order and the [1] terms dropped; q = 2 has the
    single row 3<0> on b, and q = 3 the single row 2<0> + 2<-1> on [-1].
    The values that depend on x alone (1/x, 1 - 1/x, 1 - x and the three
    twist classes) and on y alone (1/(1 - 1/y), 1/(1 - y)) are computed
    once, so a pair costs three products.  Terms of a row may repeat a
    (generator, class) pair; readers add them up.
    """
    if F.q == 2:
        return (((0, 3, 0),),)
    if F.q == 3:
        return (((0, 2, 0), (0, 2, square_class_code(F, 2))),)
    index = _symbol_index(F)
    per_y = [
        (y, index[y], F.inv_code(F.sub_code(1, F.inv_code(y))), F.inv_code(F.sub_code(1, y)))
        for y in symbol_generators(F)
    ]
    rows = []
    for x in symbol_generators(F):
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


def specialized_relations(F: FieldSpec, chi: Character) -> IntMatrix:
    """Relation matrix of the chi-specialized refined presentation.

    Equal to ``character_specialize(refined_presentation(F), chi)``, read
    straight from the term table: each relation row is written as one
    {generator: value} dict, where each term adds coeff * chi(class), and
    the matrix adopts it (the table's indices are in range), so no second
    copy of the matrix is ever alive.  The trivial character gives the
    pre-Bloch relations.
    """
    if chi.group != square_class_group(F):
        raise ValueError("character of a different square-class group")
    signs = [chi(e) for e in chi.group.elements()]
    rows = []
    for terms in _five_term_table(F):
        row: dict[int, int] = {}
        for j, coeff, cls in terms:
            row[j] = row.get(j, 0) + coeff * signs[cls]
        if 0 in row.values():
            row = {j: v for j, v in row.items() if v}
        rows.append(row)
    return IntMatrix._of(rows, generator_count(F))


@lru_cache(maxsize=None)
def prebloch_presentation(F: FieldSpec) -> FpPresentation:
    """The pre-Bloch group of F as an integer presentation."""
    trivial = square_class_group(F).character(0)
    return FpPresentation(generator_count(F), specialized_relations(F, trivial))


@lru_cache(maxsize=None)
def refined_presentation(F: FieldSpec) -> RModulePresentation:
    """The refined pre-Bloch module over the square-class group ring.

    This is the reference form of the term table, one group-ring element per
    (row, generator), kept for the test oracles and the perfbench tracer; no
    CLI command reaches it, since every reader of the O(q^2) relations sums
    the table's ints directly.
    """
    G = square_class_group(F)
    rows: list[dict[int, GroupRingElement]] = []
    for terms in _five_term_table(F):
        row: dict[int, GroupRingElement] = {}
        for i, coeff, cls in terms:
            term = GroupRingElement(G, {cls: coeff})
            row[i] = row[i] + term if i in row else term
        rows.append({i: c for i, c in row.items() if not c.is_zero()})
    return RModulePresentation(G, generator_count(F), tuple(rows))


# ---------------------------------------------------------------------------
# the two invariant maps


class Asym2Element:
    """Element of the antisymmetric square of the cyclic group F^x.

    For F_q this group is Z/gcd(2, q-1) on the generator g o g, and
    g^a o g^b = ab * (g o g).
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus not in (1, 2):
            raise ValueError("antisymmetric square of a cyclic group has exponent dividing 2")
        if not 0 <= value < max(modulus, 1):
            raise ValueError("value must be reduced")
        self.value = value
        self.modulus = modulus

    def is_zero(self) -> bool:
        return self.value == 0


def asym2_modulus(F: FieldSpec) -> int:
    return 2 if F.q % 2 else 1


def asym2_pairing(F: FieldSpec, a: int, b: int) -> Asym2Element:
    """a o b for nonzero codes a, b."""
    mod = asym2_modulus(F)
    if mod == 1:
        return Asym2Element(0, 1)
    return Asym2Element((F.dlog_code(a) * F.dlog_code(b)) % 2, 2)


def lambda_two(F: FieldSpec, code: int) -> Asym2Element:
    """(1 - x) o x in the antisymmetric square, for the field code of x."""
    if code in (0, 1):
        raise ValueError("lambda_two needs x outside {0, 1}")
    return asym2_pairing(F, F.sub_code(1, code), code)


@lru_cache(maxsize=None)
def _aug_square_lattice(G: SquareClassGroup) -> Lattice:
    """Integer lattice spanned by the products <<a>><<b>> inside the group ring."""
    rows = []
    for a in G.elements():
        for b in G.elements():
            prod = double_bracket(G, a) * double_bracket(G, b)
            if not prod.is_zero():
                rows.append(prod.to_int_vector())
    return Lattice(IntMatrix.from_rows(rows, cols=G.size))


class AugSquareElement:
    """A group-ring element verified to lie in the square of the augmentation ideal."""

    __slots__ = ("value",)

    def __init__(self, value: GroupRingElement):
        if value.augmentation() != 0:
            raise ValueError("element has nonzero augmentation")
        lat = _aug_square_lattice(value.group)
        if not lat.is_member(value.to_int_vector()):
            raise ValueError("element is not in the square of the augmentation ideal")
        self.value = value

    def is_zero(self) -> bool:
        return self.value.is_zero()


def lambda_one(F: FieldSpec, code: int) -> AugSquareElement:
    """<<1-x>><<x>> for the field code of x: the augmentation-square invariant of [x]."""
    if code in (0, 1):
        raise ValueError("lambda_one needs x outside {0, 1}")
    G = square_class_group(F)
    cls_1mx = square_class_code(F, F.sub_code(1, code))
    return AugSquareElement(double_bracket(G, cls_1mx) * double_bracket(G, square_class_code(F, code)))


@lru_cache(maxsize=None)
def _lambda_one_of_generator(F: FieldSpec, gen_index: int) -> GroupRingElement:
    G = square_class_group(F)
    if F.q == 2:
        return GroupRingElement.zero(G)
    code = symbol_generators(F)[gen_index]
    return lambda_one(F, code).value


@lru_cache(maxsize=None)
def _lambda_two_of_generator(F: FieldSpec, gen_index: int) -> int:
    if F.q == 2:
        return 0
    code = symbol_generators(F)[gen_index]
    return lambda_two(F, code).value


def lambda_one_of_vector(v: SymbolVector) -> GroupRingElement:
    """The group-ring-linear extension of lambda_one to symbol combinations."""
    F = v.field
    G = square_class_group(F)
    out = GroupRingElement.zero(G)
    for i, coeff in v.coeffs.items():
        out = out + coeff * _lambda_one_of_generator(F, i)
    return out


# ---------------------------------------------------------------------------
# Bloch groups


def asym2_presentation(F: FieldSpec) -> FpPresentation:
    return FpPresentation(1, IntMatrix.from_rows([[asym2_modulus(F)]]))


def _lambda_two_matrix(F: FieldSpec) -> IntMatrix:
    n = generator_count(F)
    rows = [[_lambda_two_of_generator(F, i)] for i in range(n)]
    return IntMatrix.from_rows(rows, cols=1)


@lru_cache(maxsize=None)
def bloch_group(F: FieldSpec) -> FpPresentation:
    """The Bloch group: kernel of lambda_two on the pre-Bloch group."""
    pres, _ = kernel_with_embedding(prebloch_presentation(F), asym2_presentation(F), _lambda_two_matrix(F))
    return pres


@lru_cache(maxsize=None)
def bloch_invariants(F: FieldSpec) -> AbelianInvariants:
    return bloch_group(F).invariants()


def _refined_lambda_matrix(F: FieldSpec, chi: Character) -> IntMatrix:
    """Per-character matrix of (lambda_one, lambda_two) into Z + asym2."""
    n = generator_count(F)
    rows = []
    for i in range(n):
        l1 = _lambda_one_of_generator(F, i).apply_character(chi)
        if l1.denominator != 1:  # pragma: no cover - products of integral elements
            raise InternalConsistencyError("lambda_one specialization not integral")
        rows.append([int(l1), _lambda_two_of_generator(F, i)])
    return IntMatrix.from_rows(rows, cols=2)


@lru_cache(maxsize=None)
def refined_bloch(F: FieldSpec) -> dict[Character, AbelianInvariants]:
    """Odd invariants of the refined Bloch group, one entry per character.

    Characters split the 2-inverted module into eigenspaces, so each entry is
    the odd part of the kernel of the specialized invariant map.  The trivial
    entry is the odd part of the plain Bloch group, taken from
    ``bloch_invariants``; each nontrivial entry is computed from the
    specialized relation matrix of the five-term term table.
    """
    mod = asym2_modulus(F)
    codomain = FpPresentation(2, IntMatrix.from_rows([[0, mod]]))
    out: dict[Character, AbelianInvariants] = {}
    for chi in square_class_group(F).characters():
        if chi.is_trivial:
            # The trivial specialization matrix is the pre-Bloch matrix, and
            # lambda_one lies in I^2, so its augmentation (its trivial
            # specialization) is 0: the specialized map is lambda_two alone,
            # whose kernel on the pre-Bloch group is the Bloch group.
            out[chi] = bloch_invariants(F).odd_part()
            continue
        domain = FpPresentation(generator_count(F), specialized_relations(F, chi))
        kernel, _ = kernel_with_embedding(domain, codomain, _refined_lambda_matrix(F, chi))
        out[chi] = kernel.invariants().odd_part()
    return out


def rb0(F: FieldSpec) -> dict[Character, AbelianInvariants]:
    """The nontrivial-character part: kernel of refined Bloch -> Bloch, odd."""
    return {chi: inv for chi, inv in refined_bloch(F).items() if not chi.is_trivial}


def rb0_is_trivial(F: FieldSpec) -> bool:
    return all(inv.is_trivial() for inv in rb0(F).values())


# ---------------------------------------------------------------------------
# inversion elements, constants, and the cyclic module they generate


def suslin_element(F: FieldSpec, i: int, code: int) -> SymbolVector:
    """The two standard liftings of [x] + [x^-1], for the field code of x:

    psi_1(x) = [x] + <-1>[x^-1]
    psi_2(x) = <1-x>(<x>[x] + [x^-1])   (0 at x = 1)
    """
    if i not in (1, 2):
        raise ValueError("index must be 1 or 2")
    if code == 0:
        raise ValueError("x must be nonzero")
    if code == 1:
        return SymbolVector.zero(F)
    G = square_class_group(F)
    inv = F.inv_code(code)
    minus_one = F.neg_code(1)
    if i == 1:
        return SymbolVector.symbol(F, code) + SymbolVector.symbol(F, inv, bracket(G, square_class_code(F, minus_one)))
    cls_1mx = square_class_code(F, F.sub_code(1, code))
    cls_x = square_class_code(F, code)
    return SymbolVector.symbol(F, code, bracket(G, cls_1mx ^ cls_x)) + SymbolVector.symbol(
        F, inv, bracket(G, cls_1mx)
    )


def constant_element(F: FieldSpec, code: int) -> SymbolVector:
    """C(x) = [x] + <-1>[1-x] + <<1-x>> psi_1(x) for the field code of x; independent of x."""
    if code in (0, 1):
        raise ValueError("x must avoid 0 and 1")
    G = square_class_group(F)
    one_minus = F.sub_code(1, code)
    minus_one = F.neg_code(1)
    out = SymbolVector.symbol(F, code)
    out = out + SymbolVector.symbol(F, one_minus, bracket(G, square_class_code(F, minus_one)))
    out = out + suslin_element(F, 1, code).scale(double_bracket(G, square_class_code(F, one_minus)))
    return out


class BlochConstants:
    """The constant b (common value of C(x)), c = 2b, and their exact orders."""

    __slots__ = ("b", "c", "b_order", "c_order", "base_point", "constancy_checked")

    def __init__(
        self, b: SymbolVector, c: SymbolVector, b_order: int, c_order: int, base_point: Optional[int], constancy_checked: int
    ):
        self.b = b
        self.c = c
        self.b_order = b_order
        self.c_order = c_order
        self.base_point = base_point
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
    if F.q == 2:
        b = SymbolVector(F, {0: GroupRingElement(square_class_group(F), {0: 1})})
        base: Optional[int] = None
        checked = 0
    elif F.q == 3:
        b = suslin_element(F, 1, 2)
        base = None
        checked = 0
    else:
        candidates = symbol_generators(F)
        base = candidates[0]
        b = constant_element(F, base)
        checked = 0
        for code in candidates[1:]:
            diff = constant_element(F, code) - b
            if not lat.is_member(diff.z_coordinates()):
                raise InternalConsistencyError(f"C({code}) differs from C({base}) in F_{F.spec_string()}")
            checked += 1
    c = b.scale(2)
    b_order = lat.order(b.z_coordinates())
    c_order = lat.order(c.z_coordinates())
    if not isinstance(b_order, int) or 6 % b_order:
        raise InternalConsistencyError(f"constant element must have order dividing 6, got {b_order}")
    return BlochConstants(b, c, b_order, int(c_order), base, checked)


# ---------------------------------------------------------------------------
# lattices for zero-testing inside the presented modules


def _rp_zmatrix(F: FieldSpec) -> IntMatrix:
    """The z-expanded refined relations, read straight from the term table.

    Equal to ``z_expand(refined_presentation(F))`` row for row: translate e
    of a relation row puts each nonzero (generator, class) sum at column
    generator * |G| + (e xor class).  Not cached: only the cached
    ``rp_lattice`` reads it, and the lattice keeps its own basis rows.
    """
    g = square_class_group(F).size
    rows = []
    for terms in _five_term_table(F):
        sums: dict[int, int] = {}
        for j, coeff, cls in terms:
            k = j * g + cls
            sums[k] = sums.get(k, 0) + coeff
        nonzero = [(k, v) for k, v in sums.items() if v]
        # class < g and g is a power of 2, so k ^ e = j * g + (class ^ e)
        rows += [{k ^ e: v for k, v in nonzero} for e in range(g)]
    return IntMatrix._of(rows, generator_count(F) * g)


@lru_cache(maxsize=None)
def rp_lattice(F: FieldSpec) -> Lattice:
    """Relation lattice of the scalar-restricted refined presentation.

    Over a trivial square-class group (even q) the z-expanded relations are
    the pre-Bloch relations, so the pre-Bloch lattice is reused.
    """
    if square_class_group(F).size == 1:
        return prebloch_presentation(F).lattice
    return Lattice(_rp_zmatrix(F))


def prebloch_lattice(F: FieldSpec) -> Lattice:
    return prebloch_presentation(F).lattice


def is_zero_in_prebloch(F: FieldSpec, v: SymbolVector) -> bool:
    return prebloch_lattice(F).is_member(v.augmentation_coordinates())


# ---------------------------------------------------------------------------
# the cyclic module on c and the reduced quotients


class DfModuleReport:
    """Verification data for the cyclic module generated by c."""

    __slots__ = (
        "c_order",
        "difference_identity_two_inverted",
        "difference_identity_integral",
        "norm_annihilation_two_inverted",
        "failures",
    )

    def __init__(
        self,
        c_order: int,
        difference_identity_two_inverted: bool,
        difference_identity_integral: bool,
        norm_annihilation_two_inverted: bool,
        failures: tuple[str, ...],
    ):
        self.c_order = c_order
        self.difference_identity_two_inverted = difference_identity_two_inverted
        self.difference_identity_integral = difference_identity_integral
        self.norm_annihilation_two_inverted = norm_annihilation_two_inverted
        self.failures = failures


def _df_checks(F: FieldSpec) -> DfModuleReport:
    consts = constant_b(F)
    G = square_class_group(F)
    lat = rp_lattice(F)
    failures: list[str] = []
    df1_half = True
    df1_int = True
    for code in F.units():
        diff = (
            suslin_element(F, 1, code)
            - suslin_element(F, 2, code)
            - consts.c.scale(double_bracket(G, square_class_code(F, code)))
        )
        img = lat.image(diff.z_coordinates())
        if not lat.vanishes(img, invert_two=True):
            df1_half = False
            failures.append(f"difference identity fails at x={code} even with 2 inverted")
        if not lat.vanishes(img):
            df1_int = False
    df2 = True
    for code in sorted(plus_minus_norm_codes(F)):
        twisted = consts.c.scale(double_bracket(G, square_class_code(F, code)))
        if not lat.is_member(twisted.z_coordinates(), invert_two=True):
            df2 = False
            failures.append(f"norm annihilation fails at x={code}")
    return DfModuleReport(consts.c_order, df1_half, df1_int, df2, tuple(failures))


def df_module(F: FieldSpec) -> DfModuleReport:
    """Check the defining identities of the module generated by c.

    (1) psi_1(x) - psi_2(x) = <<x>> c for every x (after inverting 2; the
        integral outcome is recorded separately rather than asserted).
    (2) <<x>> c = 0 whenever x is, up to sign, a norm from F(zeta3); over a
        finite field that is every x (``plus_minus_norm_codes``).

    A failed check is fatal: these identities hold for every field, so a
    failure means the implementation is wrong.
    """
    report = _df_checks(F)
    if report.failures:
        raise InternalConsistencyError("; ".join(report.failures))
    return report


class ReducedQuotients:
    """The relations that cut the two reduced quotients out of the refined module.

    ``mod_inversions_and_ic``: all psi_1(x) plus the augmentation multiples
    of c (symbols stay meaningful across specialization).
    ``mod_inversions_and_c``: all psi_1(x) plus c itself.
    Each is a tuple of relation rows (generator index -> group-ring element)
    added to the refined relations, which are not repeated here.
    """

    __slots__ = ("mod_inversions_and_ic", "mod_inversions_and_c")

    def __init__(
        self,
        mod_inversions_and_ic: tuple[dict[int, GroupRingElement], ...],
        mod_inversions_and_c: tuple[dict[int, GroupRingElement], ...],
    ):
        self.mod_inversions_and_ic = mod_inversions_and_ic
        self.mod_inversions_and_c = mod_inversions_and_c


def _suslin_rows(F: FieldSpec) -> list[dict[int, GroupRingElement]]:
    rows = []
    for code in F.units():
        psi = suslin_element(F, 1, code)
        if not psi.is_zero_vector():
            rows.append(dict(psi.coeffs))
    return rows


@lru_cache(maxsize=None)
def reduced_quotients(F: FieldSpec) -> ReducedQuotients:
    G = square_class_group(F)
    consts = constant_b(F)
    psi_rows = _suslin_rows(F)
    ic_rows = []
    for elem in G.elements():
        if elem == 0:
            continue
        row = consts.c.scale(double_bracket(G, elem))
        if not row.is_zero_vector():
            ic_rows.append(dict(row.coeffs))
    c_rows = [] if consts.c.is_zero_vector() else [dict(consts.c.coeffs)]
    return ReducedQuotients(tuple(psi_rows + ic_rows), tuple(psi_rows + c_rows))


@lru_cache(maxsize=None)
def reduced_lattice(F: FieldSpec, which: str) -> Lattice:
    """Zero-testing lattice for the reduced quotients ("ic" or "c")."""
    if which not in ("ic", "c"):
        raise ValueError(f"unknown reduced quotient {which!r}; choose 'ic' or 'c'")
    quotients = reduced_quotients(F)
    added = quotients.mod_inversions_and_ic if which == "ic" else quotients.mod_inversions_and_c
    # A reduced quotient is the refined module modulo the added relations, so
    # its lattice is spanned by the refined lattice's Hermite basis plus the
    # z-expanded added rows: a few hundred rows instead of every refined one.
    rp = rp_lattice(F)
    extra, _ = z_expand(RModulePresentation(square_class_group(F), generator_count(F), added))
    return Lattice(IntMatrix.from_sparse_rows(rp.basis_rows(), rp.cols).stack(extra))


def is_zero_in_reduced(F: FieldSpec, v: SymbolVector, which: str = "ic", invert_two: bool = True) -> bool:
    return reduced_lattice(F, which).is_member(v.z_coordinates(), invert_two=invert_two)


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

    Each row of the five-term table is read in ints: lambda_one as a
    coefficient list over G (<f> acting as e -> e^f) and lambda_two as an
    int mod ``asym2_modulus``, both summed over the row's
    (generator, coefficient, class) terms from the cached per-generator
    values.
    """
    G = square_class_group(F)
    mod = asym2_modulus(F)
    n = generator_count(F)
    lam1 = [tuple(_lambda_one_of_generator(F, j).coeffs.items()) for j in range(n)]
    lam2 = [_lambda_two_of_generator(F, j) for j in range(n)]
    table = _five_term_table(F)
    failures = []
    for ridx, terms in enumerate(table):
        one = [0] * G.size
        two = 0
        for j, coeff, e in terms:
            two += coeff * lam2[j]
            for f, w in lam1[j]:
                one[e ^ f] += coeff * w
        if any(one):
            failures.append(f"lambda_one nonzero on relation {ridx}")
        if two % mod:
            failures.append(f"lambda_two nonzero on relation {ridx}")
    return SweepResult("lambda_well_defined", len(table), tuple(failures))


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
        terms = {
            u: [(j * G.size + f, c) for j, coeff in suslin_element(F, i, u).coeffs.items() for f, c in coeff.coeffs.items()]
            for u in units
        }
        # twisted[t][u] is the image of <t> psi_i(u); <t> sends z-coordinate k to k ^ t
        twisted = [{u: lat.image({k ^ t: c for k, c in terms[u]}) for u in units} for t in G.elements()]
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
    failures = []
    checked = 0
    for i in (1, 2):
        for x in F.units():
            lhs = lambda_one_of_vector(suslin_element(F, i, x))
            rhs = double_bracket(G, square_class_code(F, F.neg_code(x))) * double_bracket(G, square_class_code(F, x))
            checked += 1
            if lhs != rhs:
                failures.append(f"lambda_one(psi_{i}) mismatch at x={x}")
    return SweepResult("suslin_lambda_one", checked, tuple(failures))


def verify_two_torsion(F: FieldSpec) -> SweepResult:
    """2([x] + [x^-1]) dies in the plain pre-Bloch group."""
    failures = []
    checked = 0
    if F.q == 2:
        return SweepResult("inversion_two_torsion", 0, ())
    for x in F.units():
        if x == 1:
            continue
        v = SymbolVector.symbol(F, x, 2) + SymbolVector.symbol(F, F.inv_code(x), 2)
        checked += 1
        if not is_zero_in_prebloch(F, v):
            failures.append(f"2([x]+[x^-1]) nonzero at x={x}")
    return SweepResult("inversion_two_torsion", checked, tuple(failures))


def verify_suslin_image_lattice(F: FieldSpec) -> SweepResult:
    """lambda_one of the inversion submodule spans (1 + <-1>) * augmentation ideal."""
    G = square_class_group(F)
    size = G.size
    failures = []
    left_rows = []
    for i in (1, 2):
        for x in F.units():
            val = lambda_one_of_vector(suslin_element(F, i, x))
            for e in G.elements():
                shifted = bracket(G, e) * val
                if not shifted.is_zero():
                    left_rows.append(shifted.to_int_vector())
    right_rows = []
    minus_one_cls = square_class_code(F, F.neg_code(1)) if F.q > 2 else 0
    p_minus = GroupRingElement.one(G) + bracket(G, minus_one_cls)
    for a in G.elements():
        for e in G.elements():
            val = bracket(G, e) * (p_minus * double_bracket(G, a))
            if not val.is_zero():
                right_rows.append(val.to_int_vector())
    checked = len(left_rows) + len(right_rows)
    if left_rows or right_rows:
        left = Lattice(IntMatrix.from_rows(left_rows, cols=size)) if left_rows else None
        right = Lattice(IntMatrix.from_rows(right_rows, cols=size)) if right_rows else None
        for row in left_rows:
            if right is None or not right.is_member(row):
                failures.append("inversion image not inside (1+<-1>)*I")
                break
        for row in right_rows:
            if left is None or not left.is_member(row):
                failures.append("(1+<-1>)*I not inside inversion image")
                break
    return SweepResult("suslin_lambda_one_image", checked, tuple(failures))


def verify_constants(F: FieldSpec) -> SweepResult:
    """Constancy of C(x), order dividing 6, and the solvability criterion."""
    failures = []
    try:
        consts = constant_b(F)
    except InternalConsistencyError as exc:
        return SweepResult("constants", 1, (str(exc),))
    checked = consts.constancy_checked + 2
    if 6 % consts.b_order:
        failures.append(f"order of b is {consts.b_order}, not a divisor of 6")
    solvable = has_root_x2_minus_x_plus_1(F)
    if solvable and consts.c_order != 1:
        failures.append("X^2-X+1 solvable but c != 0")
    if not solvable and consts.c_order != 3:
        failures.append(f"X^2-X+1 unsolvable but c has order {consts.c_order}")
    return SweepResult("constants", checked, tuple(failures))


def verify_df_identities(F: FieldSpec) -> SweepResult:
    report = _df_checks(F)
    checked = (F.q - 1) + len(plus_minus_norm_codes(F))
    return SweepResult("difference_identity", checked, tuple(report.failures))


def verify_reduced_identities(F: FieldSpec) -> SweepResult:
    """Symbol identities in the reduced quotients (all after inverting 2):

    in the deeper quotient: [x^-1] = -<-1>[x] and <<-x>>[x] = 0;
    in the full quotient:   [1-x] = -<-1>[x].
    """
    G = square_class_group(F)
    failures = []
    checked = 0
    if F.q == 2:
        return SweepResult("reduced_quotient_identities", 0, ())
    minus_one_twist = bracket(G, square_class_code(F, F.neg_code(1)))
    for x in symbol_generators(F):
        inv = F.inv_code(x)
        v1 = SymbolVector.symbol(F, inv) + SymbolVector.symbol(F, x, minus_one_twist)
        checked += 1
        if not is_zero_in_reduced(F, v1, which="ic"):
            failures.append(f"inversion identity fails at x={x}")
        v2 = SymbolVector.symbol(F, x, double_bracket(G, square_class_code(F, F.neg_code(x))))
        checked += 1
        if not is_zero_in_reduced(F, v2, which="ic"):
            failures.append(f"negative-class annihilation fails at x={x}")
        one_minus = F.sub_code(1, x)
        v3 = SymbolVector.symbol(F, one_minus) + SymbolVector.symbol(F, x, minus_one_twist)
        checked += 1
        if not is_zero_in_reduced(F, v3, which="c"):
            failures.append(f"one-minus identity fails at x={x}")
    return SweepResult("reduced_quotient_identities", checked, tuple(failures))


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
        names = ("lambda", "suslin", "constants", "df", "pb")
    elif suite in SWEEPS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SWEEPS)} or 'all'")
    results = []
    for name in names:
        for fn in SWEEPS[name]:
            results.append(fn(F))
    return results
