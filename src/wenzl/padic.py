"""Base-p digit combinatorics driving the projector recursion.

Everything here is elementary number theory about a fixed prime p:

* the base-p digit expansion of an integer,
* the *p-support* of n: the set of signed digit sums built from the base-p
  digits of n+1 (leading term positive, every lower nonzero digit taken with
  either sign),
* the *father* of n: zero the lowest nonzero base-p digit of n+1, subtract 1.
  An n whose n+1 has a single nonzero digit has no father; we call it a
  *p-Adam*,
* the *admissible expansion* of n: the unique digit vector with digits in
  [p-1, 2p-2] below the top position and top digit in [0, p-2],
* the Lucas-style divisibility test deciding whether p divides some binomial
  coefficient C(n, k), k <= n.

All functions are pure and all returned containers are sorted, so results are
deterministic and safe to share between threads.

Digit sequences are little-endian throughout: digits[i] is the coefficient of
p**i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the first 12 prime bases is exact below this bound
# (Sorenson and Webster, 2015), which covers every 64-bit input.
_MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for p < 3.18 * 10**23.  Above that bound a witness still proves p
    composite, but passing every base proves nothing, so that case raises
    ValueError instead of answering.
    """
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # a is a witness: p is composite
    if p >= _MR_LIMIT:
        raise ValueError(f"primality of {p} is only decided below {_MR_LIMIT}")
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class PAdicExpansion:
    """Little-endian base-p digits of a natural number.

    The top digit is nonzero unless the value itself is 0 (empty digits).
    """

    prime: int
    digits: tuple[int, ...]

    @property
    def value(self) -> int:
        return sum(d * self.prime**i for i, d in enumerate(self.digits))


def p_adic_expansion(n: int, p: int) -> PAdicExpansion:
    """Base-p digits of n, little-endian, no trailing zero digits."""
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be a natural number")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return PAdicExpansion(p, tuple(digits))


@dataclass(frozen=True)
class PSupportData:
    """The combinatorial shadow of n for a fixed prime p.

    ``supp`` is the p-support of n, ``shifted`` is supp - 1 (the index set of
    the projector decomposition), ``father``/``gap`` describe one step of the
    digit-zeroing recursion, and ``is_adam`` flags the base case.
    """

    n: int
    prime: int
    supp: tuple[int, ...]
    shifted: tuple[int, ...]
    father: Optional[int]
    gap: Optional[int]
    is_adam: bool


def p_support(n: int, p: int) -> PSupportData:
    """p-support, shifted index set, and father data of n >= 1.

    The support is built from the base-p digits of n+1: keep the leading
    nonzero term positive and run over both signs on every lower nonzero
    digit.  The father zeroes the lowest nonzero digit of n+1 and subtracts
    one; it exists iff n+1 has at least two nonzero digits.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("p_support requires n >= 1")
    digits = p_adic_expansion(n + 1, p).digits
    nonzero = [i for i, d in enumerate(digits) if d]
    lead = nonzero[-1]
    sums = [digits[lead] * p**lead]
    for i in reversed(nonzero[:-1]):
        term = digits[i] * p**i
        sums = [s + term for s in sums] + [s - term for s in sums]
    supp = tuple(sorted(sums))
    if len(nonzero) == 1:
        father = gap = None
        is_adam = True
    else:
        gap = digits[nonzero[0]] * p ** nonzero[0]
        father = (n + 1 - gap) - 1
        is_adam = False
    return PSupportData(
        n=n,
        prime=p,
        supp=supp,
        shifted=tuple(s - 1 for s in supp),
        father=father,
        gap=gap,
        is_adam=is_adam,
    )


def father_chain(n: int, p: int) -> list[int]:
    """[n, f[n], f[f[n]], ..., adam] for n >= 1."""
    chain = [n]
    data = p_support(n, p)
    while not data.is_adam:
        assert data.father is not None
        chain.append(data.father)
        data = p_support(data.father, p)
    return chain


@dataclass(frozen=True)
class AdmissibleExpansion:
    """The unique expansion n = sum digits[i] * p**i with digits[i] in
    [p-1, 2p-2] for i < top and 0 <= digits[top] <= p-2.

    The top digit may be 0 (e.g. n = p-1 expands as [p-1, 0]); the length is
    part of the data and is fixed by the construction.
    """

    value: int
    prime: int
    digits: tuple[int, ...]


def admissible_expansion(n: int, p: int) -> AdmissibleExpansion:
    """Admissible digits of n >= 0, via the carry identity with n+1.

    If n+1 has base-p digits a_0..a_l (a_l the leading nonzero digit), then
    n = sum_{i<l} (a_i + p - 1) p^i + (a_l - 1) p^l, and this digit vector
    satisfies the admissibility bounds.  Uniqueness is exercised by the
    brute-force search in the test suite.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be a natural number")
    a = p_adic_expansion(n + 1, p).digits
    lead = len(a) - 1
    digits = tuple(a[i] + p - 1 for i in range(lead)) + (a[lead] - 1,)
    return AdmissibleExpansion(value=n, prime=p, digits=digits)


def support_via_admissible(n: int, p: int) -> tuple[int, ...]:
    """Recompute the p-support of n from its admissible expansion.

    Enumerates every m whose digit vector (same length) has m_i in
    {n_i, 2p-2-n_i} below the top and agrees with n at the top, and returns
    the sorted set of the m+1.  Agrees with p_support(n, p).supp; the
    equivalence of the two roads is one of the library's standing checks.
    """
    if n < 1:
        raise ValueError("support_via_admissible requires n >= 1")
    nd = admissible_expansion(n, p).digits
    top = len(nd) - 1
    values = [0]
    for i in range(top):
        choices = {nd[i], 2 * p - 2 - nd[i]}
        values = [v + c * p**i for v in values for c in choices]
    values = [v + nd[top] * p**top for v in values]
    return tuple(sorted(v + 1 for v in values))


def lucas_jw_defined(n: int, p: int) -> bool:
    """True iff p divides no binomial coefficient C(n, k), 0 <= k <= n.

    Digit-wise: some C(n, k) is divisible by p exactly when a base-p digit of
    some k <= n exceeds the matching digit of n, which happens iff n has a
    non-leading digit below p-1.  Equivalent to n+1 having a single nonzero
    base-p digit (n = j*p^i - 1 with 0 < j < p), i.e. n = 0 or n a p-Adam.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be a natural number")
    digits = p_adic_expansion(n, p).digits
    return all(d == p - 1 for d in digits[:-1])
