"""Specialization of Laurent-series symbols over small odd finite fields.

A series is a unit times a power of t, known up to a tracked exponent.
``coeffs[k]`` is the coefficient of t^(valuation + k); the leading
coefficient is nonzero, and every coefficient past the window is unknown,
so no series is exactly 0 or 1.  The fuzz harness draws series, checks
that the twisted five-term relation at each pair specializes to zero in
the induced fully-reduced residue presentation, and counts draws it
cannot decide.

Specialization and square classes read only the head of a series, its
valuation and leading coefficient, so the relation check carries heads
through the five arguments instead of series: a 1-unit also contributes its
first term past the lead, which is where 1 - x cancels, and a 1-unit with no
such term in its tracked window raises PrecisionExhaustedError, so the draw
is resampled, never decided on wrong leading terms.  Each head's symbol,
under either residue twist, has its quotient image computed once per
specialization target, so a relation is checked as a sum of five
precomputed images, and a fuzz draw costs about as much as sampling its two
series.  Full truncated-series arithmetic and the dense-vector
specialization, with exact series (constants, powers of t) on a record of
their own, live in the test oracle, which checks this path against them.

The residue characteristic must be odd: over char-2 residue fields 1-units
are not squares at finite precision and the whole dictionary breaks down.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Sequence

from .bloch_core import (
    _combine,
    _symbol,
    _twist,
    constant_b,
    generator_count,
    reduced_lattice,
    square_class_group,
    symbol_generators,
)
from .exact_linalg import DimensionMismatchError
from .finite_field import FieldSpec, square_class_code
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

#: Draws per fuzz sample before it is reported as never conclusive.
MAX_RETRIES = 64


class PrecisionExhaustedError(ArithmeticError):
    """Cancellation consumed every tracked coefficient; result unusable."""


def _require_odd(base: FieldSpec) -> None:
    if base.q % 2 == 0:
        raise ValueError("Laurent-series machinery requires an odd residue field")


class TruncatedLaurentSeries(Record):
    """A nonzero t-adic element over F_q, known to its tracked precision."""

    __slots__ = ("base", "valuation", "coeffs")

    def __init__(self, base: FieldSpec, valuation: int, coeffs: tuple[int, ...]):
        _require_odd(base)
        if not coeffs:
            raise ValueError("a series must carry at least one coefficient")
        if coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if min(coeffs) < 0 or max(coeffs) >= base.q:
            raise ValueError("coefficient code out of range")
        self.base = base
        self.valuation = valuation
        self.coeffs = coeffs

    def __repr__(self) -> str:
        end = self.valuation + len(self.coeffs)
        return f"<t^{self.valuation}*({self.coeffs[0]}, ...) + O(t^{end}) over F_{self.base.spec_string()}>"


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
        self.group_size = square_class_group(residue_field).size
        self.width = generator_count(residue_field) * self.group_size
        self.total = 2 * self.width
        self.lattice = reduced_lattice(residue_field, "ic")
        b = constant_b(residue_field).b
        # The quotient map is additive and each coset half is tested against
        # the same lattice, so every coset-0 symbol is imaged once per
        # residue twist rc: a unit by its symbol <rc>[unit] ([1] has none,
        # its symbol is zero) and the valuations by (-b, +b), indexed by v > 0.
        self._unit_images = []
        self._b_images = []
        for rc in (0, 1):
            self._unit_images.append(
                {code: self.lattice.image(_symbol(residue_field, code, rc)) for code in symbol_generators(residue_field)}
            )
            twisted = _twist(b, rc)
            self._b_images.append((self.lattice.image(_combine((-1, twisted))), self.lattice.image(twisted)))

    def terms_vanish(self, terms: Sequence[Term]) -> bool:
        """Does the sum of sign * <twist> symbol(head) vanish, with 2 inverted?

        Each term is (sign, twist, head): heads are (valuation, leading
        coefficient) pairs, and twist is the head of the square class that
        acts, or None.  A unit head stands for the symbol of its residue
        ([1] is zero), a head of positive or negative valuation for +-(the
        constant b of the residue field).  The sum is kept as one quotient
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
    return TruncatedLaurentSeries(F, valuation, tuple(coeffs))


def fuzz_specialization(
    residue_field: FieldSpec,
    precision: int,
    samples: int,
    seed: int = DEFAULT_SEED,
) -> FuzzReport:
    """Run seeded random five-term specialization checks.

    A draw (x, y) passes when the relation's terms (``five_term_heads``)
    vanish in the induced module up to odd torsion (``terms_vanish``).  Each
    sample index derives its own generator from (seed, index, attempt), so
    runs are reproducible and samples independent.  Inconclusive draws
    (coincident samples, or a 1-unit with no term past its lead in the
    tracked window) are resampled and counted, never reported as failures.
    """
    target = specialization_target(residue_field)
    failures: list[str] = []
    inconclusive = 0
    attempts = 0
    for i in range(samples):
        for attempt in range(MAX_RETRIES):
            rng = random.Random(f"{seed}:{i}:{attempt}")
            x = _sample_series(residue_field, rng, precision)
            y = _sample_series(residue_field, rng, precision)
            attempts += 1
            if x == y:
                inconclusive += 1
                continue
            try:
                terms = five_term_heads(x, y)
            except PrecisionExhaustedError:
                inconclusive += 1
                continue
            if not target.terms_vanish(terms):
                failures.append(f"sample {i} attempt {attempt}: nonzero image for x={x!r}, y={y!r}")
            break
        else:
            failures.append(f"sample {i}: exhausted {MAX_RETRIES} retries without a conclusive draw")
    return FuzzReport(
        field=residue_field.spec_string(),
        precision=precision,
        samples=samples,
        seed=seed,
        failures=tuple(failures),
        inconclusive=inconclusive,
        attempts=attempts,
    )

