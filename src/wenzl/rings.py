"""Exact coefficient rings: rationals, prime fields, Laurent polynomials.

Rationals are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator, structural equality) -- exactly the contract
needed here, so we do not reimplement it.  This module adds what the stdlib
lacks: p-adic valuation, reduction modulo p, a prime-field element type, and
integer-coefficient Laurent polynomials in one variable v.

Diagram-valued linear algebra elsewhere in the package is generic over a
small *ring adapter* object (RationalRing / PrimeFieldRing).  A morphism does
not hold ring elements: it holds int numerators over one denominator, in
canonical form -- the denominator is positive, it is coprime to the
numerators taken together, and no numerator is zero; over F_p the
denominator is 1 and the numerators are residues in [1, p).  The kernels
accumulate plain ints, and the adapter's ``canonical`` turns the int sums
over a denominator back into that form, with one gcd over the whole map
(over F_p, one reduction mod p); ``any_nonzero`` only asks whether int sums
vanish in the ring, and stops at the first that does not.  ``split`` writes
a ring element as (numerator, denominator) and ``element`` builds one back:
a ``Fraction`` exists only where a caller reads a coefficient.
``format_ratio`` and ``parse_ratio`` are the string forms of a (numerator,
denominator) pair, so serialization builds no ring element either.  Over
F_p ring elements are plain int residues; the FpElement class is the
convenient value type for user-facing arithmetic.

No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from .padic import require_prime


class NotPIntegral(ArithmeticError):
    """Raised when reducing x = a/b modulo a prime p that divides b."""


class NonInvertible(ArithmeticError):
    """Raised when a required inverse does not exist in the coefficient ring."""


def _valuation(m: int, p: int) -> int:
    """The exponent of p in the nonzero int m."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def p_valuation(x, p: int) -> int:
    """The exponent v with x = p**v * (unit in Z localized at p); x != 0."""
    require_prime(p)
    if isinstance(x, int):
        x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("p_valuation(0) is undefined")
    return _valuation(int(x.numerator), p) - _valuation(int(x.denominator), p)


def min_p_valuation(nums: Iterable[int], den: int, p: int) -> int:
    """The least p_valuation of the coefficients num/den of a canonical map.

    0 for the empty map.  In canonical form gcd(den, *nums) == 1, so when p
    divides den it divides some numerator not at all: that coefficient has
    the least valuation, -v_p(den), and no numerator need be read.  So a
    canonical map is p-integral exactly when den % p != 0.  Otherwise v_p(den)
    is 0 and the minimum is the least v_p(num); a numerator prime to p ends
    the scan.
    """
    require_prime(p)
    if den % p == 0:
        return -_valuation(den, p)
    least = 0
    for i, num in enumerate(nums):
        v = _valuation(num, p)
        if not i or v < least:
            least = v
        if not least:
            break
    return least


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
    require_prime(p)
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
    """Adapter for exact rationals: ring elements are ``Fraction``s."""

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
    def split(a) -> tuple[int, int]:
        """a as (numerator, denominator), in lowest terms with den > 0."""
        return a.numerator, a.denominator

    @staticmethod
    def element(num: int, den: int) -> Fraction:
        """The coefficient num/den as a ring element."""
        return Fraction(num, den)

    @staticmethod
    def canonical(sums: dict, den: int) -> tuple[dict, int]:
        """Int sums over den > 0 in canonical form (see the module notes).

        Zero sums are dropped, and one gcd over den and every numerator
        decides whether an exact division is needed at all.
        """
        nums = {k: v for k, v in sums.items() if v}
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
        return nums, den

    @staticmethod
    def any_nonzero(sums: Iterable[int]) -> bool:
        """Whether some int sum is nonzero; stops at the first that is."""
        return any(sums)

    @staticmethod
    def format(a) -> str:
        return RationalRing.format_ratio(a.numerator, a.denominator)

    @staticmethod
    def format_ratio(num: int, den: int) -> str:
        """num/den (den > 0) in lowest terms, the denominator omitted if 1."""
        g = gcd(num, den)
        if g == den:
            return str(num // g)
        return f"{num // g}/{den // g}"

    @staticmethod
    def parse(s: str) -> Fraction:
        return Fraction(*RationalRing.parse_ratio(s))

    @staticmethod
    def parse_ratio(s: str) -> tuple[int, int]:
        """Exactly the two forms ``format`` emits, "a" and "a/b" (b > 0).

        Plain int parsing, not Fraction's general regular-expression parser;
        anything else, a zero denominator included, raises ValueError.  The
        pair comes back in lowest terms.
        """
        if type(s) is not str:
            raise ValueError(f"rational coefficient must be a string, got {s!r}")
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if not (s.isascii() and digits.isdecimal() and (den.isdecimal() or not slash)):
            raise ValueError(f"not a rational coefficient: {s!r}")
        if not slash:
            return int(num), 1
        d = int(den)
        if not d:
            raise ValueError(f"zero denominator in {s!r}")
        a = int(num)
        g = gcd(a, d)
        return a // g, d // g

    def __repr__(self) -> str:
        return "RationalRing()"


class PrimeFieldRing:
    """Adapter for F_p with coefficients stored as plain int residues."""

    def __init__(self, p: int):
        require_prime(p)
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, k: int) -> int:
        return k % self.p

    def from_rational(self, x: Fraction) -> int:
        """Reduce a p-integral rational; NotPIntegral if p divides the denominator."""
        return _residue(x, self.p)  # p was checked once, in __init__

    @staticmethod
    def split(a: int) -> tuple[int, int]:
        """An int as (itself, 1); ``canonical`` reduces it."""
        return a, 1

    @staticmethod
    def element(num: int, den: int) -> int:
        """The residue num of a canonical map (whose den is 1)."""
        return num

    def canonical(self, sums: dict, den: int) -> tuple[dict, int]:
        """Int sums over den as residues over 1, zeros dropped.

        den is 1 for the results of F_p's own kernels.  Any other den is the
        denominator of a canonical rational map, which this reduces into
        F_p: each numerator times den's inverse mod p.  When p divides den
        some coefficient is not p-integral (see :func:`min_p_valuation`) and
        NotPIntegral names the first one.
        """
        p = self.p
        if den == 1:
            return {k: r for k, v in sums.items() if (r := v % p)}, 1
        if den % p == 0:
            bad = next(
                c for v in sums.values() if (c := Fraction(v, den)).denominator % p == 0
            )
            raise NotPIntegral(f"{bad} is not p-integral at p={p}")
        inv = pow(den, -1, p)
        return {k: r for k, v in sums.items() if (r := v * inv % p)}, 1

    def any_nonzero(self, sums: Iterable[int]) -> bool:
        """Whether some int sum is nonzero mod p; stops at the first that is."""
        p = self.p
        return any(v % p for v in sums)

    def format(self, a: int) -> str:
        return str(a % self.p)

    def format_ratio(self, num: int, den: int) -> str:
        """The residue num of a canonical map (whose den is 1)."""
        return str(num % self.p)

    def parse(self, s: str) -> int:
        return int(s) % self.p

    def parse_ratio(self, s: str) -> tuple[int, int]:
        return int(s) % self.p, 1

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
