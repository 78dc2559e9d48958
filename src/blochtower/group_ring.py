"""Group rings of elementary abelian 2-groups of square classes.

The square-class group of every field handled here (finite fields and their
iterated Laurent extensions with square 1-units) is (Z/2)^r, so group
elements are bitmasks multiplying by XOR.  Ring coefficients are exact
Python numbers: ``int`` for everything integral (every relation, invariant
and sweep), and ``Fraction`` with a power-of-2 denominator only where an
idempotent halves.  The ambient coefficient ring is always Z or Z localized
at 2, and anything else is a logic error that should fail loudly.

The two bridges to plain integer linear algebra are:

* ``character_specialize`` - push a presentation through the ring map sending
  each group element to its character value (the chi-eigenspace picture;
  exact only after inverting 2).
* ``z_expand`` - restrict scalars to Z, turning each module generator into
  2^r integer generators (the integral picture).

All values are immutable; nothing here mutates shared state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

from .exact_linalg import IntMatrix
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction

# ``fractions`` is imported only where a Fraction is made or met: it pulls in
# ``decimal``, which every CLI process would otherwise load at start-up.
Scalar = Union[int, "Fraction"]


def _is_dyadic(x: Scalar) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


class SquareClassGroup(Record):
    """(Z/2)^rank with labelled basis; elements are bitmasks in [0, 2^rank)."""

    __slots__ = ("rank", "labels")

    def __init__(self, rank: int, labels: tuple[str, ...] = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if labels and len(labels) != rank:
            raise ValueError("one label per basis generator")
        self.rank = rank
        self.labels = labels

    @property
    def size(self) -> int:
        return 1 << self.rank

    def elements(self) -> range:
        return range(self.size)

    def check_element(self, elem: int) -> int:
        if not (0 <= elem < self.size):
            raise ValueError(f"element mask {elem} out of range for rank {self.rank}")
        return elem

    def character(self, mask: int) -> "Character":
        return Character(self, self.check_element(mask))

    def characters(self) -> tuple["Character", ...]:
        """All 2^rank characters; the trivial character comes first."""
        return tuple(Character(self, m) for m in self.elements())


class Character(Record):
    """A homomorphism to {+1, -1}: bit i set means the i-th generator maps to -1."""

    __slots__ = ("group", "mask")

    def __init__(self, group: SquareClassGroup, mask: int):
        self.group = group
        self.mask = mask

    def __call__(self, elem: int) -> int:
        self.group.check_element(elem)
        return -1 if (self.mask & elem).bit_count() & 1 else 1

    @property
    def is_trivial(self) -> bool:
        return self.mask == 0

    @property
    def name(self) -> str:
        if self.group.rank == 0:
            return "1"
        return "".join("-" if (self.mask >> i) & 1 else "+" for i in range(self.group.rank))

    def signs(self) -> list[int]:
        return [self((1 << i)) for i in range(self.group.rank)]


class GroupRingElement:
    """An element of Z[1/2][G] for an elementary abelian 2-group G.

    Each coefficient is kept as given, an ``int`` or a ``Fraction`` with a
    power-of-2 denominator, so integral arithmetic stays in ``int``.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: SquareClassGroup, coeffs: Optional[Mapping[int, Scalar]] = None):
        self.group = group
        clean: dict[int, Scalar] = {}
        for elem, c in (coeffs or {}).items():
            group.check_element(elem)
            if not isinstance(c, int):
                from fractions import Fraction

                if not isinstance(c, Fraction):
                    raise ValueError(f"coefficient {c!r} is neither an int nor a Fraction")
                if not _is_dyadic(c):
                    raise ValueError(f"coefficient {c} has a non-2-power denominator")
            if c:
                clean[elem] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, group: SquareClassGroup) -> "GroupRingElement":
        return cls(group)

    @classmethod
    def one(cls, group: SquareClassGroup) -> "GroupRingElement":
        return cls(group, {0: 1})

    @classmethod
    def of(cls, group: SquareClassGroup, elem: int) -> "GroupRingElement":
        """The group element <a> as a ring element."""
        return cls(group, {elem: 1})

    # -- ring structure --------------------------------------------------------

    def _check(self, other: "GroupRingElement") -> None:
        if self.group != other.group:
            raise ValueError("elements of different group rings")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return GroupRingElement(self.group, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, GroupRingElement):
            self._check(other)
            out: dict[int, Scalar] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 ^ e2
                    out[e] = out.get(e, 0) + c1 * c2
            return GroupRingElement(self.group, out)
        return self.scale(other)

    def __rmul__(self, other) -> "GroupRingElement":
        return self.scale(other)

    def scale(self, c: Scalar) -> "GroupRingElement":
        return GroupRingElement(self.group, {e: v * c for e, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group, frozenset(self.coeffs.items())))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def augmentation(self) -> Scalar:
        return sum(self.coeffs.values(), 0)

    def apply_character(self, chi: Character) -> Scalar:
        """The ring map <a> -> chi(a) applied to this element."""
        if chi.group != self.group:
            raise ValueError("character of a different group")
        return sum((c * chi(e) for e, c in self.coeffs.items()), 0)

    def to_int_vector(self) -> list[int]:
        if not self.is_integral():
            raise ValueError("element has dyadic denominators; not integral")
        return [int(self.coeffs.get(e, 0)) for e in self.group.elements()]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            parts.append(f"{c}*<{e:0{max(self.group.rank, 1)}b}>")
        return " + ".join(parts)


def bracket(group: SquareClassGroup, elem: int) -> GroupRingElement:
    """<a>: the group element as a ring element."""
    return GroupRingElement.of(group, elem)


def double_bracket(group: SquareClassGroup, elem: int) -> GroupRingElement:
    """<<a>> = <a> - 1, a basis element of the augmentation ideal."""
    return GroupRingElement(group, {elem: 1}) - GroupRingElement.one(group)


def idempotent(
    group: SquareClassGroup, S: Iterable[int], chi: Character, sign: int = 1
) -> GroupRingElement:
    """The product of (1 +- chi(a)<a>)/2 over a in S; empty product is 1."""
    from fractions import Fraction

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = GroupRingElement.one(group)
    half = Fraction(1, 2)
    for a in S:
        factor = (GroupRingElement.one(group) + bracket(group, a).scale(sign * chi(a))).scale(half)
        out = out * factor
    return out


def group_idempotent(group: SquareClassGroup, chi: Character) -> GroupRingElement:
    """The full idempotent e^chi cutting out the chi-eigenspace."""
    return idempotent(group, (1 << i for i in range(group.rank)), chi)


# ---------------------------------------------------------------------------
# module presentations over the group ring


class RModulePresentation:
    """Finitely presented module over the group ring.

    ``relations`` holds sparse rows: maps generator index -> coefficient.
    The constructor refuses a row with a generator index out of range or a
    coefficient of another group ring.
    """

    __slots__ = ("group", "generators", "relations")

    def __init__(
        self,
        group: SquareClassGroup,
        generators: int,
        relations: tuple[Mapping[int, GroupRingElement], ...],
    ):
        for row in relations:
            for idx, coeff in row.items():
                if not (0 <= idx < generators):
                    raise ValueError(f"generator index {idx} out of range")
                if coeff.group != group:
                    raise ValueError("relation coefficient from a different group ring")
        self.group = group
        self.generators = generators
        self.relations = relations


def character_specialize(M: RModulePresentation, chi: Character) -> tuple[IntMatrix, int]:
    """Integer relation matrix of the chi-specialization of M.

    Applies <a> -> chi(a) entrywise; each row is scaled by the least power of
    2 clearing denominators, which changes nothing once 2 is inverted.
    """
    rows: list[list[int]] = []
    for rel in M.relations:
        vals = {j: coeff.apply_character(chi) for j, coeff in rel.items()}
        scale = 1
        for v in vals.values():
            scale = max(scale, v.denominator)
        dense = [0] * M.generators
        for j, v in vals.items():
            scaled = v * scale
            dense[j] = int(scaled)
        rows.append(dense)
    return IntMatrix.from_rows(rows, cols=M.generators), M.generators


def z_expand(M: RModulePresentation) -> tuple[IntMatrix, int]:
    """Integer presentation of the underlying abelian group of M.

    Each module generator becomes 2^rank integer generators indexed by group
    elements; each relation contributes one integer row per group translate,
    written as one {column: value} dict that the matrix adopts: the
    presentation has checked every index, so no row is checked or copied
    again.  Requires integral coefficients.
    """
    g = M.group.size
    width = M.generators * g
    rows = []
    for rel in M.relations:
        terms = []
        for j, coeff in rel.items():
            if not coeff.is_integral():
                raise ValueError("z_expand needs integral relation coefficients")
            terms += [(j * g, f, int(c)) for f, c in coeff.coeffs.items()]
        # distinct (generator, group element) terms land in distinct columns
        rows += [{base + (e ^ f): c for base, f, c in terms} for e in M.group.elements()]
    return IntMatrix._of(rows, width), width


def z_vector(group: SquareClassGroup, generators: int, coeffs: Mapping[int, GroupRingElement]) -> list[int]:
    """Integer coordinates of a module element under the z_expand indexing."""
    g = group.size
    out = [0] * (generators * g)
    for j, coeff in coeffs.items():
        if not coeff.is_integral():
            raise ValueError("element has dyadic denominators; not integral")
        for f, c in coeff.coeffs.items():
            out[j * g + f] += int(c)
    return out


def eigenspace_reconstruction_ok(M: RModulePresentation) -> bool:
    """Does the module rebuild from its character eigenspaces, away from 2?

    Compares the odd part of the scalar-restricted presentation against the
    direct sum of the odd parts of all character specializations (canonical
    invariants on both sides, so Z/15 and Z/3 + Z/5 agree).  This is the
    computable face of the eigenspace decomposition of 2-inverted modules
    over these group rings.
    """
    from .exact_linalg import AbelianInvariants, cokernel_invariants

    zmat, width = z_expand(M)
    total = cokernel_invariants(zmat, width).odd_part()
    pieces = []
    for chi in M.group.characters():
        mat, gens = character_specialize(M, chi)
        pieces.append(cokernel_invariants(mat, gens).odd_part())
    return AbelianInvariants.direct_sum(*pieces) == AbelianInvariants.direct_sum(total)
