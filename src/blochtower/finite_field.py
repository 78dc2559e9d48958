"""Arithmetic in small finite fields F_q, q = p^m.

Fields are built from a canonical modulus (the least irreducible monic
polynomial of degree m in the integer encoding below), so a field is fully
determined by p and m and every run constructs the same tables.

Elements are encoded as integers in [0, q): the element sum(c_i * X^i) has
code sum(c_i * p^i).  Element ordering used for deterministic choices
(generators, roots) is the ascending code order.  Multiplication goes
through discrete-log tables built with the field, which also serve the
antisymmetric pairing needed elsewhere.

Besides the arithmetic there are the square-class map and the order of the
quotient F^x / +-N_{F(zeta3)/F}(F(zeta3)^x), which is 1.
"""

from __future__ import annotations

import os
from functools import lru_cache

DEFAULT_MAX_Q = 1 << 16

#: Environment variable overriding the field-size bound.
MAX_Q_ENV = "BLOCH_MAX_Q"


class FieldBoundError(ValueError):
    """Requested field exceeds the configured size bound."""


def max_field_size() -> int:
    raw = os.environ.get(MAX_Q_ENV)
    if raw is None:
        return DEFAULT_MAX_Q
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_Q_ENV} must be an integer, got {raw!r}") from exc


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n up to ~2^34."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense coefficient lists, constant term first)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, mod, p)


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], p - 2, p)
        b_monic = [(c * inv) % p for c in b]
        a = _poly_mod(a, b_monic, p)
        a, b = b, a
    return a


def _frobenius_power_minus_x(d: int, coeffs: list[int], p: int) -> list[int]:
    """x^(p^d) - x reduced mod the monic polynomial ``coeffs``."""
    fr = [0, 1]
    for _ in range(d):
        fr = _poly_powmod(fr, p, coeffs, p)
    while len(fr) < 2:
        fr.append(0)
    fr[1] = (fr[1] - 1) % p
    while fr and fr[-1] == 0:
        fr.pop()
    return fr


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial (constant term first, leading 1)."""
    m = len(coeffs) - 1
    if m < 1:
        return False
    if _frobenius_power_minus_x(m, coeffs, p):
        return False
    for ell in factorize(m):
        g = _frobenius_power_minus_x(m // ell, coeffs, p)
        if len(_poly_gcd(coeffs, g, p)) != 1:
            return False
    return True


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Least monic irreducible of degree m, in code order of (c_0..c_{m-1})."""
    if m == 1:
        return (0, 1)
    for code in range(p**m):
        coeffs = []
        n = code
        for _ in range(m):
            coeffs.append(n % p)
            n //= p
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------


class FieldSpec:
    """A small finite field F_q with canonical modulus and discrete-log tables."""

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_dlog")

    def __init__(self, p: int, m: int = 1):
        if p >= 2:
            _check_bound(p, m)  # before the trial division, which is slow for a large p
        if factorize(p) != {p: 1}:
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _canonical_modulus(p, m)
        g = self.generator_code()
        self._exp = [1] * (q - 1)
        self._dlog = [0] * q
        cur = 1
        for k in range(q - 1):
            self._exp[k] = cur
            self._dlog[cur] = k
            cur = self._mul_code_poly(cur, g)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.spec_string()})"

    def spec_string(self) -> str:
        """The "p^m" form used in the CLI and JSON ("5", "3^2", ...)."""
        return str(self.p) if self.m == 1 else f"{self.p}^{self.m}"

    # -- codes ---------------------------------------------------------------

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def code_of(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def units(self):
        return range(1, self.q)

    # -- raw code arithmetic -------------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg_code(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def sub_code(self, a: int, b: int) -> int:
        return self.add_code(a, self.neg_code(b))

    def _mul_code_poly(self, a: int, b: int) -> int:
        pa = list(self.coeffs_of(a))
        pb = list(self.coeffs_of(b))
        return self.code_of(_poly_mulmod(pa, pb, list(self.modulus), self.p) + [0] * self.m)

    def mul_code(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._dlog[a] + self._dlog[b]) % (self.q - 1)]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[(-self._dlog[a]) % (self.q - 1)]

    def dlog_code(self, a: int) -> int:
        """Discrete log base the canonical generator; a must be nonzero."""
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        return self._dlog[a]

    def generator_code(self) -> int:
        """Code of the least multiplicative generator of F^x."""
        n = self.q - 1
        prime_divisors = list(factorize(n))
        modulus = list(self.modulus)
        for cand in range(1, self.q):
            # powers as polynomials: the log tables are built from the generator
            coeffs = list(self.coeffs_of(cand))
            if all(_poly_powmod(coeffs, n // ell, modulus, self.p) != [1] for ell in prime_divisors):
                return cand
        raise AssertionError("multiplicative group has no generator")  # pragma: no cover


def _check_bound(p: int, m: int = 1) -> None:
    """Refuse q = p^m past the bound before computing p**m: p >= 2, so p^m >= 2^m."""
    bound = max_field_size()
    if p > bound or m >= bound.bit_length() or p**m > bound:
        shown = p if m == 1 else f"{p}^{m}"
        raise FieldBoundError(f"q = {shown} exceeds the bound {bound} (set {MAX_Q_ENV} to raise it)")


@lru_cache(maxsize=None)
def field(p: int, m: int = 1) -> FieldSpec:
    """Shared FieldSpec instances, so each field builds its tables once."""
    return FieldSpec(p, m)


def field_from_q(q: int) -> FieldSpec:
    """FieldSpec for a prime power q; rechecks the size bound even on cache hits."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    _check_bound(q)
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"q must be a prime power, got {q}")
    (p, m), = fac.items()
    return field(p, m)


#: Base fields ``tower --base`` accepts besides the finite ones, each with the
#: rank of its square-class group (the sign class for real-closed).
SYMBOLIC_BASES = {"real-closed": 1, "quadratically-closed": 0}


def parse_field_spec(text: str) -> FieldSpec:
    """Parse the "p^m" serialization ("5", "3^2", also plain "9")."""
    text = text.strip()
    if "^" in text:
        p_str, m_str = text.split("^", 1)
        p, m = int(p_str), int(m_str)
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if p >= 2:
            _check_bound(p, m)
        return field(p, m)
    return field_from_q(int(text))


# ---------------------------------------------------------------------------
# square classes


def square_class_code(F: FieldSpec, code: int) -> int:
    """0 for squares, 1 for nonsquares (a group bitmask); q even is all squares."""
    if code == 0:
        raise ValueError("square class of zero is undefined")
    if F.q % 2 == 0:
        return 0
    return F.dlog_code(code) & 1


# ---------------------------------------------------------------------------
# norm groups and the rsq quotient


def has_root_x2_minus_x_plus_1(F: FieldSpec) -> bool:
    """Does X^2 - X + 1 have a root in F?

    In characteristic 3 it is (X + 1)^2.  Otherwise its roots are the
    primitive 6th roots of unity (cube roots for p = 2), which lie in the
    cyclic group F^x exactly when 3 divides q - 1.
    """
    return F.p == 3 or (F.q - 1) % 3 == 0


def has_sqrt_minus3(F: FieldSpec) -> bool:
    """Does X^2 + 3 have a root in F?

    For p <= 3 every element of F_p is a square (-3 = 0 when p = 3).
    Otherwise sqrt(-3) = 2 zeta + 1 for a primitive cube root of unity zeta,
    which lies in F exactly when 3 divides q - 1.
    """
    return F.p <= 3 or (F.q - 1) % 3 == 0


def rsq_order(F: FieldSpec) -> int:
    """Order of F^x / (<-1> * N_{E/F}(E^x)), E = F(zeta3): 1 for every finite field.

    E is F or F_{q^2}.  The norm of a finite extension of finite fields is
    onto: on the cyclic group E^x it is the power map x -> x^(|E^x| / |F^x|),
    whose image has |F^x| elements.  So the subgroup is all of F^x.
    """
    return 1
