"""Truncated Laurent series over small odd finite fields, and specialization.

A series is a unit times a power of t, known up to a tracked exponent.
``coeffs[k]`` is the coefficient of t^(valuation + k); the leading
coefficient is nonzero.  ``exact`` marks series that are genuinely finite
sums (constants, powers of t): those have no precision horizon.  Arithmetic
computes the exact worst-case window of the result, and an operation whose
result cannot be distinguished from zero inside its window raises
PrecisionExhaustedError - callers resample or raise the precision, they
never get silently wrong leading terms.

On top of the arithmetic: square classes of series (valuation parity plus
the square class of the leading coefficient, which is the right notion when
1-units are squares), the specialization map into the induced fully-reduced
residue presentation, an empirical well-definedness harness for the twisted
five-term relations, and two numeric probes for the square-class identities
used in the eigenspace-vanishing argument for valued fields.

Specialization and square classes read only the head of a series, its
valuation and leading coefficient, so the relation check carries heads
through the five arguments instead of series: a 1-unit also contributes its
first term past the lead, which is where 1 - x cancels.  The series
arithmetic remains for the probes and as the test oracle.  Each head's
symbol, under either residue twist, has its quotient image computed once
per specialization target, so a relation is checked as a sum of five
precomputed images, and a fuzz draw costs about as much as sampling its two
series.

The residue characteristic must be odd: over char-2 residue fields 1-units
are not squares at finite precision and the whole dictionary breaks down.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Sequence, Union

from .bloch_core import constant_b, reduced_lattice, reduced_quotients, _symbol_index
from .exact_linalg import DimensionMismatchError
from .finite_field import FieldSpec, check_difference_of_squares, square_class_code
from .record import Record

#: Default seed for the fuzz harness; echoed in every report.
DEFAULT_SEED = 0x5EED

#: Largest fuzz precision the CLI accepts.  A draw's cost is linear in the
#: precision (sampling two series); at the bound it is about 1.6 ms on a
#: 2-vCPU x86 box (Python 3.11), and the default 500 samples take about 1 s.
MAX_PRECISION = 4096

#: Largest fuzz sample count the CLI accepts.  The cost is linear in the
#: samples: at the default precision a draw takes about 0.065 ms for q up to
#: 251 on a 2-vCPU x86 box (Python 3.11), so the bound is about 6.5 s.
MAX_SAMPLES = 100_000


class PrecisionExhaustedError(ArithmeticError):
    """Cancellation consumed every tracked coefficient; result unusable."""


def _require_odd(base: FieldSpec) -> None:
    if base.q % 2 == 0:
        raise ValueError("Laurent-series machinery requires an odd residue field")


class TruncatedLaurentSeries(Record):
    """A t-adic element over F_q with finite tracked precision.

    Exact series are canonical: trailing zero coefficients are dropped at
    construction, so two exact series with the same value compare and hash
    equal.
    """

    __slots__ = ("base", "valuation", "coeffs", "exact")

    def __init__(self, base: FieldSpec, valuation: int, coeffs: tuple[int, ...], exact: bool = False):
        _require_odd(base)
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

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def prec_exp(self) -> Optional[int]:
        """First unknown exponent; None means exact (everything known)."""
        return None if self.exact else self.valuation + len(self.coeffs)

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("the zero series has no leading coefficient")
        return self.coeffs[0]

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, base: FieldSpec) -> "TruncatedLaurentSeries":
        return cls(base, 0, (), exact=True)

    @classmethod
    def constant(cls, base: FieldSpec, code: int) -> "TruncatedLaurentSeries":
        if code == 0:
            return cls.zero(base)
        return cls(base, 0, (code,), exact=True)

    @classmethod
    def one(cls, base: FieldSpec) -> "TruncatedLaurentSeries":
        return cls.constant(base, 1)

    @classmethod
    def uniformizer(cls, base: FieldSpec, power: int = 1) -> "TruncatedLaurentSeries":
        return cls(base, power, (1,), exact=True)

    @classmethod
    def from_coeffs(cls, base: FieldSpec, valuation: int, coeffs: Sequence[int]) -> "TruncatedLaurentSeries":
        """A truncated series; leading zeros consume precision."""
        coeffs = list(coeffs)
        shift = 0
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            shift += 1
        if not coeffs:
            raise PrecisionExhaustedError("all supplied coefficients are zero")
        return cls(base, valuation + shift, tuple(coeffs), exact=False)

    def truncate(self, prec_exp: int) -> "TruncatedLaurentSeries":
        """Forget everything from t^prec_exp on (turns exact into tracked)."""
        if self.is_zero():
            raise ValueError("cannot truncate the zero series")
        length = prec_exp - self.valuation
        if length <= 0:
            raise PrecisionExhaustedError("truncation window is empty")
        window = list(self.coeffs[:length])
        window += [0] * (length - len(window))
        return TruncatedLaurentSeries(self.base, self.valuation, tuple(window), exact=False)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "TruncatedLaurentSeries") -> None:
        if self.base != other.base:
            raise ValueError("series over different fields")

    def __neg__(self) -> "TruncatedLaurentSeries":
        F = self.base
        return TruncatedLaurentSeries(F, self.valuation, tuple(F.neg_code(c) for c in self.coeffs), self.exact)

    def __add__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        F = self.base
        if self.exact and other.exact:
            lo = min(self.valuation, other.valuation)
            hi = max(self.valuation + len(self.coeffs), other.valuation + len(other.coeffs))
            window = [0] * (hi - lo)
            for src in (self, other):
                for k, c in enumerate(src.coeffs):
                    e = src.valuation + k - lo
                    window[e] = F.add_code(window[e], c)
            while window and window[0] == 0:
                window.pop(0)
                lo += 1
            if not window:
                return TruncatedLaurentSeries.zero(F)
            return TruncatedLaurentSeries(F, lo, tuple(window), exact=True)
        precs = [s.prec_exp for s in (self, other) if s.prec_exp is not None]
        prec = min(precs)
        lo = min(self.valuation, other.valuation)
        if prec <= lo:  # pragma: no cover - windows always reach past the valuation
            raise PrecisionExhaustedError("no overlap between known windows")
        window = [0] * (prec - lo)
        for src in (self, other):
            for k, c in enumerate(src.coeffs):
                e = src.valuation + k - lo
                if 0 <= e < len(window):
                    window[e] = F.add_code(window[e], c)
        shift = 0
        while window and window[0] == 0:
            window.pop(0)
            shift += 1
        if not window:
            raise PrecisionExhaustedError("cancellation consumed the tracked window")
        return TruncatedLaurentSeries(F, lo + shift, tuple(window), exact=False)

    def __sub__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        self._check(other)
        F = self.base
        if self.is_zero() or other.is_zero():
            return TruncatedLaurentSeries.zero(F)
        v = self.valuation + other.valuation
        if self.exact and other.exact:
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] = F.add_code(out[i + j], F.mul_code(a, b))
            return TruncatedLaurentSeries(F, v, tuple(out), exact=True)
        bounds = []
        if self.prec_exp is not None:
            bounds.append(other.valuation + self.prec_exp)
        if other.prec_exp is not None:
            bounds.append(self.valuation + other.prec_exp)
        length = min(bounds) - v
        out = [0] * length
        for i, a in enumerate(self.coeffs):
            if a and i < length:
                top = min(len(other.coeffs), length - i)
                for j in range(top):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] = F.add_code(out[i + j], F.mul_code(a, b))
        return TruncatedLaurentSeries(F, v, tuple(out), exact=False)

    def inv(self, precision: Optional[int] = None) -> "TruncatedLaurentSeries":
        """Multiplicative inverse via the geometric-series recurrence.

        Exact one-term series invert exactly; otherwise the result carries
        the same number of correct coefficients as the input (``precision``
        sets that count for exact multi-term inputs).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        F = self.base
        if self.exact and len(self.coeffs) == 1:
            return TruncatedLaurentSeries(F, -self.valuation, (F.inv_code(self.coeffs[0]),), exact=True)
        if self.exact:
            if precision is None:
                raise ValueError("inverting an exact multi-term series needs an explicit precision")
            return self.truncate(self.valuation + precision).inv()
        n = len(self.coeffs)
        a0_inv = F.inv_code(self.coeffs[0])
        out = [a0_inv] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                aj = self.coeffs[j] if j < n else 0
                if aj and out[k - j]:
                    acc = F.add_code(acc, F.mul_code(aj, out[k - j]))
            out[k] = F.neg_code(F.mul_code(a0_inv, acc))
        return TruncatedLaurentSeries(F, -self.valuation, tuple(out), exact=False)

    def one_minus(self) -> "TruncatedLaurentSeries":
        """1 - self, with the valuation logic that entails.

        The valuation of the result is 0 when v(self) > 0, v(self) when
        v(self) < 0, and can only exceed 0 when self is a 1-unit - in which
        case the tracked window may be fully consumed.
        """
        return TruncatedLaurentSeries.one(self.base) + (-self)

    def agrees_with(self, other: "TruncatedLaurentSeries") -> bool:
        """Do the two series agree on the overlap of their known windows?"""
        self._check(other)
        if self.is_zero() and other.is_zero():
            return True
        precs = [s.prec_exp for s in (self, other) if s.prec_exp is not None]
        if not precs:
            return self == other
        hi = min(precs)
        lo = min(
            (s.valuation for s in (self, other) if not s.is_zero()),
            default=hi,
        )
        if hi <= lo:
            raise PrecisionExhaustedError("windows do not overlap")
        for e in range(lo, hi):
            a = 0 if self.is_zero() else (self.coeffs[e - self.valuation] if 0 <= e - self.valuation < len(self.coeffs) else 0)
            b = 0 if other.is_zero() else (other.coeffs[e - other.valuation] if 0 <= e - other.valuation < len(other.coeffs) else 0)
            if a != b:
                return False
        return True

    def __repr__(self) -> str:
        if self.is_zero():
            return f"<0 over F_{self.base.spec_string()}>"
        tail = "" if self.exact else f" + O(t^{self.prec_exp})"
        return f"<t^{self.valuation}*({self.coeffs[0]}, ...){tail} over F_{self.base.spec_string()}>"


class LaurentSquareClass(Record):
    """Square class of a series: valuation parity and residue square class.

    This pair determines the class exactly when 1-units are squares, which
    is the regime this package models (odd residue characteristic).
    """

    __slots__ = ("parity", "residue_class")

    def __init__(self, parity: int, residue_class: int):
        if parity not in (0, 1) or residue_class not in (0, 1):
            raise ValueError("parity and residue class are bits")
        self.parity = parity
        self.residue_class = residue_class

    def compose(self, other: "LaurentSquareClass") -> "LaurentSquareClass":
        return LaurentSquareClass(self.parity ^ other.parity, self.residue_class ^ other.residue_class)

    @property
    def is_trivial(self) -> bool:
        return self.parity == 0 and self.residue_class == 0


def head_square_class(F: FieldSpec, valuation: int, leading: int) -> LaurentSquareClass:
    """The square class of any series with this valuation and leading coefficient."""
    return LaurentSquareClass(valuation & 1, square_class_code(F, leading))


def laurent_square_class(a: TruncatedLaurentSeries) -> LaurentSquareClass:
    if a.is_zero():
        raise ValueError("square class of zero is undefined")
    return head_square_class(a.base, a.valuation, a.leading())


def sqrt_unit(a: TruncatedLaurentSeries, precision: Optional[int] = None) -> TruncatedLaurentSeries:
    """A square root of a unit series whose leading coefficient is a square.

    Coefficients are produced by the direct recurrence for the square root
    of a 1-unit (valid since 2 is invertible); the result has the same
    tracked window as the input.
    """
    if a.is_zero() or a.valuation != 0:
        raise ValueError("square root needs a unit series")
    F = a.base
    lead_root = F.sqrt_code(a.leading())
    if lead_root is None:
        raise ValueError("leading coefficient is not a square")
    if a.exact:
        if precision is None:
            raise ValueError("square root of an exact series needs an explicit precision")
        a = a.truncate(precision)
    scale = TruncatedLaurentSeries.constant(F, F.inv_code(F.mul_code(lead_root, lead_root)))
    z = a * scale
    n = len(z.coeffs)
    half = F.inv_code(2 % F.p)
    y = [1] + [0] * (n - 1)
    for k in range(1, n):
        acc = z.coeffs[k] if k < n else 0
        for i in range(1, k):
            if y[i] and y[k - i]:
                acc = F.sub_code(acc, F.mul_code(y[i], y[k - i]))
        y[k] = F.mul_code(acc, half)
    root_unit = TruncatedLaurentSeries(F, 0, tuple(y), exact=False)
    return root_unit * TruncatedLaurentSeries.constant(F, lead_root)


# ---------------------------------------------------------------------------
# specialization into the induced fully-reduced residue presentation

#: (valuation, leading coefficient) of a nonzero series
Head = tuple[int, int]
#: (sign, head of the acting square class or None, head of the symbol)
Term = tuple[int, Optional[Head], Head]


class SpecializationTarget:
    """The fully-reduced residue module induced up along the valuation.

    The square classes of the Laurent field are (residue classes) x <t>, so
    the induced module is two residue-coset copies of the fully reduced
    presentation of the residue field; a class acts by translating within a
    coset and swapping cosets when its valuation parity is odd.  Its
    relation lattice is block diagonal, so ``lattice`` holds one copy (the
    fully reduced residue lattice) and each coset half is tested against it.
    """

    def __init__(self, residue_field: FieldSpec):
        _require_odd(residue_field)
        self.field = residue_field
        pres = reduced_quotients(residue_field).mod_inversions_and_ic
        self.group_size = pres.group.size
        self.width = pres.generators * self.group_size
        self.total = 2 * self.width
        self.lattice = reduced_lattice(residue_field, "ic")
        b_coords = constant_b(residue_field).b.z_coordinates()
        self._b = tuple(b_coords) + (0,) * self.width
        self._index = _symbol_index(residue_field)
        # The quotient map is additive and each coset half is tested against
        # the same lattice, so every coset-0 symbol is imaged once per
        # residue twist: a unit by its coordinate ([1] has none, its symbol
        # is zero) and the valuations by (-b, +b), indexed by v > 0.
        coords = [self.lattice.image({i: 1}) for i in range(self.width)]
        self._unit_images = []
        self._b_images = []
        for rc in (0, 1):
            self._unit_images.append(
                {code: coords[self._twisted(i * self.group_size, rc)] for code, i in self._index.items()}
            )
            b = {self._twisted(j, rc): x for j, x in enumerate(b_coords) if x}
            self._b_images.append((self.lattice.image({j: -x for j, x in b.items()}), self.lattice.image(b)))

    def _twisted(self, rem: int, residue_class: int) -> int:
        """The coset coordinate rem translated by a residue square class."""
        j, e = divmod(rem, self.group_size)
        return j * self.group_size + (e ^ residue_class)

    def b_vector(self, sign: int = 1) -> list[int]:
        return [sign * x for x in self._b]

    def residue_symbol(self, code: int) -> list[int]:
        """The coset-0 symbol of a nonzero residue; [1] is zero."""
        out = [0] * self.total
        if code != 1:
            out[self._index[code] * self.group_size] = 1
        return out

    def act(self, cls: LaurentSquareClass, vec: Sequence[int]) -> list[int]:
        """The induced-module action of a square class (an index permutation)."""
        out = [0] * self.total
        for idx, val in enumerate(vec):
            if not val:
                continue
            coset, rem = divmod(idx, self.width)
            j, e = divmod(rem, self.group_size)
            coset ^= cls.parity
            e ^= cls.residue_class
            out[coset * self.width + (j * self.group_size + e)] = val
        return out

    def symbol(self, valuation: int, leading: int) -> list[int]:
        """The specialization of [a] for a of this valuation and leading coefficient.

        Units go to the symbol of their residue; elements of positive and
        negative valuation go to +-(the constant b of the residue field).
        """
        if valuation > 0:
            return self.b_vector(1)
        if valuation < 0:
            return self.b_vector(-1)
        return self.residue_symbol(leading)

    def specialize(self, a: TruncatedLaurentSeries) -> list[int]:
        """The specialization of the symbol [a] (see ``symbol``)."""
        if a.is_zero():
            raise ValueError("[0] does not specialize")
        if a.base != self.field:
            raise ValueError("series over a different residue field")
        return self.symbol(a.valuation, a.leading())

    def terms_vanish(self, terms: Sequence[Term]) -> bool:
        """Does the sum of sign * <twist> symbol(head) vanish, with 2 inverted?

        Each term is (sign, twist, head): heads are (valuation, leading
        coefficient) pairs as for ``symbol``, and twist is the head of the
        square class that acts, or None.  The sum is kept as one quotient
        image per coset, added up from the images built at construction.
        """
        F = self.field
        n = len(self.lattice.moduli)
        halves = ([0] * n, [0] * n)
        for sign, twist, (v, lead) in terms:
            coset = rc = 0
            if twist is not None:
                coset, rc = twist[0] & 1, square_class_code(F, twist[1])
            img = self._b_images[rc][v > 0] if v else self._unit_images[rc].get(lead)
            if img is not None:
                half = halves[coset]
                for k, c in enumerate(img):
                    half[k] += sign * c
        return self.lattice.vanishes(halves[0], invert_two=True) and self.lattice.vanishes(halves[1], invert_two=True)

    def is_zero_vector(self, vec: Sequence[int], invert_two: bool = True) -> bool:
        """Is vec zero in the induced module?  Each coset half is tested alone."""
        if len(vec) != self.total:
            raise DimensionMismatchError("vector length must equal the induced module width")
        w = self.width
        return self.lattice.is_member(vec[:w], invert_two=invert_two) and self.lattice.is_member(
            vec[w:], invert_two=invert_two
        )


@lru_cache(maxsize=None)
def specialization_target(residue_field: FieldSpec) -> SpecializationTarget:
    return SpecializationTarget(residue_field)


class RelationCheckOutcome(Record):
    __slots__ = ("status", "reason")

    def __init__(self, status: str, reason: str = ""):
        self.status = status  # "pass" | "fail" | "inconclusive"
        self.reason = reason


def _first_deviation(a: TruncatedLaurentSeries) -> tuple[int, int]:
    """(k, c) with c*t^k the first nonzero term after the lead of a 1-unit."""
    for k in range(1, len(a.coeffs)):
        if a.coeffs[k]:
            return k, a.coeffs[k]
    raise PrecisionExhaustedError("cancellation consumed the tracked window")


def _one_minus_head(a: TruncatedLaurentSeries, invert: bool = False) -> Head:
    """(valuation, leading coefficient) of 1 - a, or of 1 - 1/a with ``invert``.

    Only a 1-unit reads past its head: 1 - (1 + c t^k + ...) leads with -c t^k
    and 1 - (1 + c t^k + ...)^-1 with c t^k.
    """
    F = a.base
    v, lead = a.valuation, a.coeffs[0]
    if invert:
        v, lead = -v, F.inv_code(lead)
    if v > 0:
        return 0, 1
    if v < 0:
        return v, F.neg_code(lead)
    if lead != 1:
        return 0, F.sub_code(1, lead)
    k, c = _first_deviation(a)
    return k, c if invert else F.neg_code(c)


def five_term_heads(x: TruncatedLaurentSeries, y: TruncatedLaurentSeries) -> tuple[Term, ...]:
    """The twisted five-term relation at (x, y) as (sign, twist, head) terms.

    The five arguments x, y, y/x, (1 - 1/x)/(1 - 1/y), (1 - x)/(1 - y) and
    the twisting classes <x>, <-(1 - 1/x)>, <1 - x> are carried as heads,
    since specialization reads nothing else; a 1-unit input also
    contributes its first term past the lead to 1 - x and 1 - 1/x, and
    raises PrecisionExhaustedError when its tracked window has none.
    """
    F = x.base
    n4 = _one_minus_head(x, invert=True)
    d4 = _one_minus_head(y, invert=True)
    n5 = _one_minus_head(x)
    d5 = _one_minus_head(y)

    def ratio(num: Head, den: Head) -> Head:
        return num[0] - den[0], F.mul_code(num[1], F.inv_code(den[1]))

    hx = (x.valuation, x.coeffs[0])
    hy = (y.valuation, y.coeffs[0])
    return (
        (1, None, hx),
        (-1, None, hy),
        (1, hx, ratio(hy, hx)),
        (-1, (n4[0], F.neg_code(n4[1])), ratio(n4, d4)),
        (1, n5, ratio(n5, d5)),
    )


def relation_specialization_check(
    target: SpecializationTarget, x: TruncatedLaurentSeries, y: TruncatedLaurentSeries
) -> RelationCheckOutcome:
    """Push the twisted five-term relation at (x, y) through specialization.

    The relation's terms (``five_term_heads``) must vanish in the induced
    fully-reduced residue module, up to odd torsion (``terms_vanish``).  A
    1-unit with no term past its lead in the tracked window is reported as
    inconclusive, never as failure; an argument that is exactly 0 or 1 is a
    ValueError.
    """
    F = target.field
    for name, a in (("x", x), ("y", y)):
        if a.base != F:
            raise ValueError(f"{name} is a series over a different residue field")
        if a.is_zero() or (a.exact and a == TruncatedLaurentSeries.one(F)):
            value = 0 if a.is_zero() else 1
            raise ValueError(f"{name} is exactly {value}; the five-term relation needs x, y outside {{0, 1}}")
    try:
        terms = five_term_heads(x, y)
    except PrecisionExhaustedError as exc:
        return RelationCheckOutcome("inconclusive", str(exc))
    if target.terms_vanish(terms):
        return RelationCheckOutcome("pass")
    return RelationCheckOutcome("fail", f"nonzero image for x={x!r}, y={y!r}")


# ---------------------------------------------------------------------------
# fuzz harness


class FuzzReport(Record):
    __slots__ = ("field", "precision", "samples", "seed", "failures", "inconclusive", "attempts")

    def __init__(
        self, field: str, precision: int, samples: int, seed: int, failures: tuple[str, ...], inconclusive: int, attempts: int
    ):
        self.field = field
        self.precision = precision
        self.samples = samples
        self.seed = seed
        self.failures = failures
        self.inconclusive = inconclusive
        self.attempts = attempts

    @property
    def inconclusive_rate(self) -> float:
        return self.inconclusive / self.attempts if self.attempts else 0.0

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "precision": self.precision,
            "samples": self.samples,
            "seed": self.seed,
            "failures": list(self.failures),
            "inconclusive": self.inconclusive,
            "attempts": self.attempts,
            "inconclusive_rate": self.inconclusive_rate,
        }


def _below(bits, n: int) -> int:
    """A uniform value in [0, n), drawn from getrandbits as ``randrange(n)`` draws it."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample_series(F: FieldSpec, rng: random.Random, precision: int) -> TruncatedLaurentSeries:
    """A series of valuation in [-3, 3] with a nonzero lead and uniform coefficients.

    The draws are those of ``randint(-3, 3)``, ``randrange(1, q)`` and then
    ``randrange(q)`` per coefficient, read straight from getrandbits (the
    coefficient loop inlines ``_below``), so a seed gives the same series.
    """
    bits = rng.getrandbits
    valuation = _below(bits, 7) - 3
    coeffs = [1 + _below(bits, F.q - 1)]
    q, k = F.q, F.q.bit_length()
    for _ in range(precision - 1):
        r = bits(k)
        while r >= q:
            r = bits(k)
        coeffs.append(r)
    return TruncatedLaurentSeries(F, valuation, tuple(coeffs), exact=False)


def fuzz_specialization(
    residue_field: FieldSpec,
    precision: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    max_retries: int = 64,
) -> FuzzReport:
    """Run seeded random five-term specialization checks.

    Each sample index derives its own generator from (seed, index, attempt),
    so runs are reproducible and samples independent.  Inconclusive draws
    (precision exhaustion, coincident samples) are resampled and counted.
    """
    target = specialization_target(residue_field)
    failures: list[str] = []
    inconclusive = 0
    attempts = 0
    for i in range(samples):
        for attempt in range(max_retries):
            rng = random.Random(f"{seed}:{i}:{attempt}")
            x = _sample_series(residue_field, rng, precision)
            y = _sample_series(residue_field, rng, precision)
            attempts += 1
            if x == y:
                inconclusive += 1
                continue
            outcome = relation_specialization_check(target, x, y)
            if outcome.status == "inconclusive":
                inconclusive += 1
                continue
            if outcome.status == "fail":
                failures.append(f"sample {i} attempt {attempt}: {outcome.reason}")
            break
        else:
            failures.append(f"sample {i}: exhausted {max_retries} retries without a conclusive draw")
    return FuzzReport(
        field=residue_field.spec_string(),
        precision=precision,
        samples=samples,
        seed=seed,
        failures=tuple(failures),
        inconclusive=inconclusive,
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# proof-identity probes


class ProbeReport:
    __slots__ = ("case", "status", "details")

    def __init__(self, case: str, status: str, details: dict):
        self.case = case
        self.status = status  # "pass" | "fail" | "no_witness"
        self.details = details

    def to_json(self) -> dict:
        return {"case": self.case, "status": self.status, "details": self.details}


def probe_deep_unit_square(
    residue_field: FieldSpec,
    a: Optional[TruncatedLaurentSeries] = None,
    precision: int = 32,
) -> ProbeReport:
    """Valuation >= 2 case: 1 - a/t must be a square 1-unit."""
    F = residue_field
    if a is None:
        a = TruncatedLaurentSeries.uniformizer(F, 2).truncate(2 + precision)
    if a.valuation < 2:
        raise ValueError("the probe needs v(a) >= 2")
    w = (a * TruncatedLaurentSeries.uniformizer(F, 1).inv()).one_minus()
    ok = w.valuation == 0 and w.leading() == 1 and laurent_square_class(w).is_trivial
    return ProbeReport(
        "deep_unit_square",
        "pass" if ok else "fail",
        {"valuation": w.valuation, "leading": w.leading()},
    )


def probe_unit_difference_of_squares(
    residue_field: FieldSpec,
    u: Union[int, TruncatedLaurentSeries],
    precision: int = 32,
) -> ProbeReport:
    """Odd-valuation case: with residue u = r^2 - s^2 (r, s nonzero),
    1 - u/r^2 = (s/r)^2 and (1 - 1/(r^2 t)) / (1 - u/r^2) has the class of -t.

    Reports "no_witness" when the residue admits no such r, s; that is a
    genuine small-field phenomenon, not a failure.
    """
    F = residue_field
    if isinstance(u, int):
        u = TruncatedLaurentSeries.constant(F, u).truncate(precision)
    if u.is_zero() or u.valuation != 0:
        raise ValueError("the probe needs a unit series")
    witness = check_difference_of_squares(F, u.leading())
    if witness is None:
        return ProbeReport("unit_difference_of_squares", "no_witness", {"residue": u.leading()})
    r_res, s_res = witness
    s = TruncatedLaurentSeries.constant(F, s_res)
    w = u + s * s
    r = sqrt_unit(w, precision=precision)
    r_sq_inv = (r * r).inv()
    lhs = (u * r_sq_inv).one_minus()
    rhs_root = s * r.inv()
    rhs = rhs_root * rhs_root
    square_ok = lhs.agrees_with(rhs) and laurent_square_class(lhs).is_trivial
    t = TruncatedLaurentSeries.uniformizer(F, 1)
    z = ((r * r * t).inv()).one_minus() * lhs.inv()
    minus_t = -t
    class_ok = laurent_square_class(z) == laurent_square_class(minus_t)
    status = "pass" if (square_ok and class_ok) else "fail"
    return ProbeReport(
        "unit_difference_of_squares",
        status,
        {
            "residue": u.leading(),
            "witness": [r_res, s_res],
            "square_identity": square_ok,
            "z_class": [laurent_square_class(z).parity, laurent_square_class(z).residue_class],
        },
    )


def proof_identity_probe(case: str, residue_field: FieldSpec, **kwargs) -> ProbeReport:
    """Dispatch for the two square-class probes ("i" and "ii")."""
    if case == "i":
        return probe_deep_unit_square(residue_field, **kwargs)
    if case == "ii":
        return probe_unit_difference_of_squares(residue_field, **kwargs)
    raise ValueError("case must be 'i' or 'ii'")
