"""Kazhdan-Lusztig combinatorics of the infinite dihedral group.

The group is generated by two involutions s, t with no further relations;
every element has a unique reduced word, which alternates letters.  We only
track the elements whose reduced word starts with s (plus the identity), and
write B(k) for the KL-basis element of the length-k such word -- right
multiplication by a generator keeps the span of this family:

    b_w * b_r = (v + 1/v) b_w          if r is the last letter of w,
                b_{wr} + b_{w s_k}     if w has length > 1 and r extends w,
                b_{wr}                 otherwise.

Coefficients are integer Laurent polynomials in v, kept exact: a wrong case
in the multiplication immediately shows up as stray powers of v.

The p-canonical element on n+1 letters expands as the sum of b_i over the
p-support of n, and multiplying the father level by powers of b_s/b_t
reproduces that expansion up to a nonnegative-integer remainder supported
off the support -- both statements are executable here and cross-check the
diagram-side construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .padic import p_support
from .rings import LaurentPoly


V_PLUS_VINV = LaurentPoly({1: 1, -1: 1})


class HeckeElement:
    """A finite Laurent-combination of the elements B(k), k >= 0.

    B(0) is the unit; B(k) for k >= 1 is the KL-basis element of the
    length-k word s t s ...  Stored sparsely as {k: LaurentPoly}.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, LaurentPoly] | None = None):
        cleaned: dict[int, LaurentPoly] = {}
        if terms:
            for k, c in terms.items():
                if k < 0:
                    raise ValueError("negative word length")
                if c:
                    cleaned[k] = c
        self.terms = cleaned

    @staticmethod
    def basis(k: int, coeff: LaurentPoly | int = 1) -> "HeckeElement":
        if isinstance(coeff, int):
            coeff = LaurentPoly.constant(coeff)
        return HeckeElement({k: coeff})

    @staticmethod
    def zero() -> "HeckeElement":
        return HeckeElement()

    def add(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, LaurentPoly.zero()) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return HeckeElement(out)

    def sub(self, other: "HeckeElement") -> "HeckeElement":
        return self.add(other.scale(-1))

    def scale(self, c) -> "HeckeElement":
        if isinstance(c, int):
            c = LaurentPoly.constant(c)
        return HeckeElement({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if c == LaurentPoly.one():
                parts.append(f"b{k}")
            else:
                parts.append(f"({c})*b{k}")
        return " + ".join(parts)


def last_letter(k: int) -> str:
    """Final letter of the length-k word s t s ... (k >= 1)."""
    if k < 1:
        raise ValueError("the unit has no last letter")
    return "s" if k % 2 else "t"


def mul_by_generator(x: HeckeElement, letter: str) -> HeckeElement:
    """Right multiplication by the KL generator b_s or b_t.

    Defined on the s-initial family; multiplying the unit by b_t would leave
    it, so that case is rejected.
    """
    if letter not in ("s", "t"):
        raise ValueError(f"letter must be 's' or 't', got {letter!r}")
    out: dict[int, LaurentPoly] = {}

    def acc(k: int, c: LaurentPoly):
        s = out.get(k, LaurentPoly.zero()) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)

    for k, c in x.terms.items():
        if k == 0:
            if letter != "s":
                raise ValueError("b_t takes the unit outside the s-initial family")
            acc(1, c)
        elif letter == last_letter(k):
            acc(k, c * V_PLUS_VINV)
        elif k == 1:
            acc(2, c)
        else:
            acc(k + 1, c)
            acc(k - 1, c)
    return HeckeElement(out)


def b1_power_letters(n_parity: int, m: int) -> list[str]:
    """The alternating letter sequence for multiplying by b_1^m.

    The start letter extends the length-n word: s when n is even, t when n
    is odd.
    """
    first = "s" if n_parity % 2 == 0 else "t"
    second = "t" if first == "s" else "s"
    return [first if r % 2 == 0 else second for r in range(m)]


def mul_b1_power(x: HeckeElement, m: int) -> HeckeElement:
    """x * b_1^m: m alternating generator multiplications.

    All word lengths in x must share one parity (they always do for the
    p-canonical elements), which fixes the starting letter.  Each step
    applies the rule of :func:`mul_by_generator` to one flat map
    (k, exponent of v) -> int, so no Laurent polynomial is built until the
    end.
    """
    if m == 0 or x.is_zero():
        return x
    parities = {k % 2 for k in x.terms}
    if len(parities) > 1:
        raise ValueError("mixed parities: starting letter is ambiguous")
    cur = {(k, e): c for k, poly in x.terms.items() for e, c in poly.coeffs.items()}
    for letter in b1_power_letters(parities.pop(), m):
        odd = letter == "s"  # s is the last letter of the odd lengths
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (k, e), c in cur.items():
            if not c:
                continue
            if k == 0:
                if not odd:
                    raise ValueError("b_t takes the unit outside the s-initial family")
                out[1, e] = get((1, e), 0) + c
            elif k % 2 == odd:  # the letter ends the word: (v + 1/v) b_k
                out[k, e + 1] = get((k, e + 1), 0) + c
                out[k, e - 1] = get((k, e - 1), 0) + c
            elif k == 1:
                out[2, e] = get((2, e), 0) + c
            else:
                out[k + 1, e] = get((k + 1, e), 0) + c
                out[k - 1, e] = get((k - 1, e), 0) + c
        cur = out
    polys: dict[int, dict[int, int]] = {}
    for (k, e), c in cur.items():
        if c:
            polys.setdefault(k, {})[e] = c
    return HeckeElement({k: LaurentPoly(cs) for k, cs in polys.items()})


def b1_power_closed_form(j: int, m: int) -> HeckeElement:
    """Binomial expansion of B(j) * b_1^m for j > m:

        sum over r of C(m, r) * B(j - m + 2r).

    Independent oracle for mul_b1_power (repeated three-case products must
    agree with it).
    """
    if j <= m:
        raise ValueError("closed form requires j > m")
    out = HeckeElement.zero()
    for r in range(m + 1):
        out = out.add(HeckeElement.basis(j - m + 2 * r, comb(m, r)))
    return out


def p_canonical(n_plus_1: int, p: int) -> HeckeElement:
    """The p-canonical element on n+1 letters: sum of B(i), i in supp_p(n)."""
    n = n_plus_1 - 1
    if n < 1:
        raise ValueError("need n_plus_1 >= 2")
    return HeckeElement({i: LaurentPoly.one() for i in p_support(n, p).supp})


@dataclass
class PositivityReport:
    n: int
    p: int
    remainder: dict[int, int]
    identity_holds: bool
    coefficients_constant: bool
    coefficients_nonnegative: bool
    support_disjoint: bool

    @property
    def ok(self) -> bool:
        return (
            self.identity_holds
            and self.coefficients_constant
            and self.coefficients_nonnegative
            and self.support_disjoint
        )


def lemma_positivity_check(n: int, p: int) -> PositivityReport:
    """Multiply the father-level p-canonical element up by b_1^m and compare.

    The product must equal the level-n p-canonical element plus a remainder
    with constant nonnegative integer coefficients supported off the
    p-support of n.
    """
    data = p_support(n, p)
    if data.is_adam:
        raise ValueError(f"{n} has no father for p={p}")
    assert data.father is not None and data.gap is not None
    lhs = mul_b1_power(p_canonical(data.father + 1, p), data.gap)
    rhs = p_canonical(n + 1, p)
    remainder = lhs.sub(rhs)

    one = LaurentPoly.one()
    on_support = all(lhs.terms.get(i) == one for i in data.supp)
    constant = all(c.is_constant() for c in remainder.terms.values())
    nonneg = constant and all(
        c.constant_term() >= 0 for c in remainder.terms.values()
    )
    disjoint = not (set(remainder.terms) & set(data.supp))
    rem = {
        k: c.constant_term() for k, c in sorted(remainder.terms.items()) if constant
    }
    return PositivityReport(
        n=n,
        p=p,
        remainder=rem,
        identity_holds=on_support,
        coefficients_constant=constant,
        coefficients_nonnegative=nonneg,
        support_disjoint=disjoint,
    )
