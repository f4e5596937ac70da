"""Exact coefficient rings: rationals, prime fields, Laurent polynomials.

Rationals are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator, structural equality) -- exactly the contract
needed here, so we do not reimplement it.  This module adds what the stdlib
lacks: p-adic valuation, reduction modulo p, a prime-field element type, and
integer-coefficient Laurent polynomials in one variable v.

Diagram-valued linear algebra elsewhere in the package is generic over a
small *ring adapter* object (RationalRing / PrimeFieldRing).  Coefficients are
combined with the plain ``+`` and ``*`` of their Python type; the adapter
holds the one ring-dependent step, normalising the result (``reduce`` for a
scalar, ``clean`` for an accumulated coefficient map), plus conversion,
parsing and printing.  The hot kernels work on plain ints throughout:
``lift`` writes a coefficient map as int numerators over one common
denominator (the identity on F_p), the kernel accumulates ints, and
``settle`` turns the resulting map back into ring elements.  Over F_p the
adapter works on plain int residues; the FpElement class is the convenient
value type for user-facing arithmetic.

No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .padic import is_prime


class NotPIntegral(ArithmeticError):
    """Raised when reducing x = a/b modulo a prime p that divides b."""


class NonInvertible(ArithmeticError):
    """Raised when a required inverse does not exist in the coefficient ring."""


def p_valuation(x, p: int) -> int:
    """The exponent v with x = p**v * (unit in Z localized at p); x != 0."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if isinstance(x, int):
        x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("p_valuation(0) is undefined")

    def _val(m: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    return _val(abs(int(x.numerator))) - _val(int(x.denominator))


@dataclass(frozen=True)
class FpElement:
    """An element of the field with p elements, stored as a reduced residue."""

    p: int
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.p)

    def _check(self, other: "FpElement") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.p, self.residue + other.residue)

    def __sub__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.p, self.residue - other.residue)

    def __mul__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.p, self.residue * other.residue)

    def __neg__(self) -> "FpElement":
        return FpElement(self.p, -self.residue)

    def inverse(self) -> "FpElement":
        if self.residue == 0:
            raise NonInvertible(f"0 has no inverse in F_{self.p}")
        return FpElement(self.p, pow(self.residue, -1, self.p))

    def __bool__(self) -> bool:
        return self.residue != 0


def reduce_mod_p(x: Union[Fraction, int], p: int) -> FpElement:
    """Reduction of x = a/b (lowest terms) to a * b^{-1} in F_p.

    Defined exactly when p does not divide b; otherwise NotPIntegral.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return FpElement(p, _residue(x, p))


def _residue(x: Union[Fraction, int], p: int) -> int:
    """The residue of x = a/b in [0, p) for a prime p that is already checked."""
    den = x.denominator
    if den % p == 0:
        raise NotPIntegral(f"{x} is not p-integral at p={p}")
    return x.numerator * pow(den % p, -1, p) % p


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable v.

    Stored as a map exponent -> nonzero coefficient; the zero polynomial is
    the empty map.  Supports +, -, *, scalar multiplication by int, and exact
    equality.  Hashable, so these can sit in coefficient maps.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    cleaned[int(e)] = int(c)
        self.coeffs = cleaned

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def is_constant(self) -> bool:
        return set(self.coeffs) <= {0}

    def constant_term(self) -> int:
        return self.coeffs.get(0, 0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*v" if c != 1 else "v")
            else:
                parts.append(f"{c}*v^{e}" if c != 1 else f"v^{e}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Ring adapters used by the diagram engine.
# ---------------------------------------------------------------------------


class RationalRing:
    """Adapter exposing exact rational (``Fraction``) arithmetic."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(k: int) -> Fraction:
        return Fraction(k)

    @staticmethod
    def fraction(num: int, den: int = 1) -> Fraction:
        return Fraction(num, den)

    @staticmethod
    def from_rational(x: Fraction) -> Fraction:
        return x

    @staticmethod
    def reduce(x):
        return x

    @staticmethod
    def clean(acc: dict) -> dict:
        """An accumulated coefficient map with its zero entries dropped."""
        return {k: v for k, v in acc.items() if v}

    @staticmethod
    def lift(terms: dict, scalar=None) -> tuple[dict, int]:
        """scalar * terms as int numerators over one common denominator.

        Kernels accumulate the numerators with int arithmetic, which is far
        cheaper than Fraction arithmetic, and ``settle`` divides once per
        output entry.
        """
        s_num, s_den = (
            (1, 1) if scalar is None else (scalar.numerator, scalar.denominator)
        )
        dens = {v.denominator for v in terms.values()}
        den = lcm(*dens)
        mult = {d: s_num * (den // d) for d in dens}
        ints = {k: v.numerator * mult[v.denominator] for k, v in terms.items()}
        return ints, den * s_den

    @staticmethod
    def settle(acc: dict, den: int) -> dict:
        """An accumulated map of int numerators over den, zeros dropped."""
        return {k: Fraction(v, den) for k, v in acc.items() if v}

    @staticmethod
    def format(a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    @staticmethod
    def parse(s: str) -> Fraction:
        """Exactly the two forms ``format`` emits, "a" and "a/b" (b > 0).

        Plain int parsing, not Fraction's general regular-expression parser;
        anything else, a zero denominator included, raises ValueError.
        """
        if type(s) is not str:
            raise ValueError(f"rational coefficient must be a string, got {s!r}")
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if not (s.isascii() and digits.isdecimal() and (den.isdecimal() or not slash)):
            raise ValueError(f"not a rational coefficient: {s!r}")
        if not slash:
            return Fraction(int(num))
        d = int(den)
        if not d:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), d)

    def __repr__(self) -> str:
        return "RationalRing()"


class PrimeFieldRing:
    """Adapter for F_p with coefficients stored as plain int residues."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, k: int) -> int:
        return k % self.p

    def from_rational(self, x: Fraction) -> int:
        """Reduce a p-integral rational; NotPIntegral if p divides the denominator."""
        return _residue(x, self.p)  # p was checked once, in __init__

    def reduce(self, x: int) -> int:
        return x % self.p

    def clean(self, acc: dict) -> dict:
        """An accumulated map of unreduced ints, reduced mod p, zeros dropped."""
        p = self.p
        return {k: r for k, v in acc.items() if (r := v % p)}

    def lift(self, terms: dict, scalar=None) -> tuple[dict, int]:
        """scalar * terms as ints over the denominator 1 (see RationalRing)."""
        if scalar is None:
            return terms, 1
        return {k: v * scalar for k, v in terms.items()}, 1

    def settle(self, acc: dict, den: int) -> dict:
        """An accumulated map of unreduced ints (den is 1), as ``clean``."""
        return self.clean(acc)

    def format(self, a: int) -> str:
        return str(a % self.p)

    def parse(self, s: str) -> int:
        return int(s) % self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeFieldRing) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"PrimeFieldRing({self.p})"


QQ = RationalRing()


def ring_by_name(name: str):
    """Inverse of the adapters' .name attribute ("Q" or "Fp:<p>")."""
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("Fp:"):
        return PrimeFieldRing(int(name[3:]))
    raise ValueError(f"unknown ring name {name!r}")
