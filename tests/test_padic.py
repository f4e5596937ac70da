"""Digit combinatorics: brute-force oracles first, then the fast paths."""

import math

import pytest

from wenzl.padic import (
    admissible_expansion,
    father_chain,
    is_prime,
    lucas_jw_defined,
    p_adic_expansion,
    p_support,
    support_via_admissible,
)

PRIMES = [2, 3, 5, 7]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def admissible_by_search(n: int, p: int) -> list[tuple[int, ...]]:
    """All digit vectors with the admissibility bounds summing to n.

    Exhaustive over every length: digits below the top in [p-1, 2p-2], top
    digit in [0, p-2].  The bounds force the length past that of the base-p
    expansion of n+1 to contribute nothing, so a small cap is safe.
    """
    found = []
    max_len = len(p_adic_expansion(n + 1, p).digits) + 1

    def rec(prefix, remaining, length):
        i = len(prefix)
        pw = p**i
        if i == length - 1:
            if remaining % pw == 0 and 0 <= remaining // pw <= p - 2:
                found.append(tuple(prefix) + (remaining // pw,))
            return
        for d in range(p - 1, 2 * p - 1):
            if d * pw <= remaining:
                rec(prefix + [d], remaining - d * pw, length)

    for length in range(1, max_len + 1):
        rec([], n, length)
    return found


def lucas_by_binomials(n: int, p: int) -> bool:
    return all(math.comb(n, k) % p != 0 for k in range(n + 1))


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,p,digits",
    [(11, 3, (2, 0, 1)), (0, 5, ()), (11, 2, (1, 1, 0, 1))],
)
def test_p_adic_expansion_examples(n, p, digits):
    exp = p_adic_expansion(n, p)
    assert exp.digits == digits
    assert exp.value == n


def test_p_adic_expansion_rejects_nonprime():
    with pytest.raises(ValueError):
        p_adic_expansion(10, 4)
    with pytest.raises(ValueError):
        p_adic_expansion(10, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_expansion_reconstructs(p):
    for n in range(0, 300):
        exp = p_adic_expansion(n, p)
        assert exp.value == n
        assert all(0 <= d < p for d in exp.digits)
        if exp.digits:
            assert exp.digits[-1] != 0


# ---------------------------------------------------------------------------
# p-support and fathers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,p,supp,father",
    [
        (10, 3, (7, 11), 8),
        (10, 2, (5, 7, 9, 11), 9),
        (9, 2, (6, 10), 7),
    ],
)
def test_support_examples(n, p, supp, father):
    data = p_support(n, p)
    assert data.supp == supp
    assert data.father == father
    assert data.shifted == tuple(s - 1 for s in supp)
    assert not data.is_adam


@pytest.mark.parametrize("n,p", [(7, 2), (8, 3), (1, 2), (4, 5)])
def test_adam_examples(n, p):
    data = p_support(n, p)
    assert data.is_adam
    assert data.father is None and data.gap is None
    assert data.supp == (n + 1,)


def test_support_rejects_zero():
    with pytest.raises(ValueError):
        p_support(0, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_support_invariants(p):
    for n in range(1, 500):
        data = p_support(n, p)
        digits = p_adic_expansion(n + 1, p).digits
        k = sum(1 for d in digits if d)
        assert len(data.supp) == 2 ** (k - 1)
        assert max(data.supp) == n + 1
        assert all(s > 0 for s in data.supp)
        assert data.is_adam == (k == 1)
        if not data.is_adam:
            assert data.father is not None
            assert data.father < n
            assert data.gap == n - data.father
            # the shifted index set splits around the father's
            fshift = p_support(data.father, p).shifted
            minus = {i - data.gap for i in fshift}
            plus = {i + data.gap for i in fshift}
            assert minus.isdisjoint(plus)
            assert set(data.shifted) == minus | plus


@pytest.mark.parametrize("p", PRIMES)
def test_father_chain_terminates_at_adam(p):
    for n in range(1, 300):
        chain = father_chain(n, p)
        digits = p_adic_expansion(n + 1, p).digits
        k = sum(1 for d in digits if d)
        assert len(chain) == k
        assert p_support(chain[-1], p).is_adam


# ---------------------------------------------------------------------------
# Admissible expansions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,p,digits",
    [(10, 2, (2, 2, 1, 0)), (10, 3, (4, 2, 0)), (1, 5, (1,))],
)
def test_admissible_examples(n, p, digits):
    assert admissible_expansion(n, p).digits == digits


@pytest.mark.parametrize("p", [2, 3, 5])
def test_admissible_matches_search_and_is_unique(p):
    for n in range(0, 120):
        exp = admissible_expansion(n, p)
        assert sum(d * p**i for i, d in enumerate(exp.digits)) == n
        found = admissible_by_search(n, p)
        assert found == [exp.digits], (n, p, found)


@pytest.mark.parametrize("p", PRIMES)
def test_support_via_admissible_equivalence(p):
    for n in range(1, 500):
        assert support_via_admissible(n, p) == p_support(n, p).supp


@pytest.mark.parametrize(
    "n,p,expected",
    [(10, 2, (5, 7, 9, 11)), (10, 3, (7, 11)), (8, 3, (9,))],
)
def test_support_via_admissible_examples(n, p, expected):
    assert support_via_admissible(n, p) == expected


# ---------------------------------------------------------------------------
# Lucas-style divisibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,p,expected", [(7, 2, True), (4, 2, False), (3, 5, True)])
def test_lucas_examples(n, p, expected):
    assert lucas_jw_defined(n, p) is expected


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_against_binomial_oracle(p):
    for n in range(0, 200):
        assert lucas_jw_defined(n, p) == lucas_by_binomials(n, p)


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_holds_exactly_for_adams(p):
    for n in range(1, 400):
        expected = p_support(n, p).is_adam
        assert lucas_jw_defined(n, p) == expected
    assert lucas_jw_defined(0, p)


def is_prime_by_trial_division(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small():
    assert [q for q in range(40) if is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]


def test_is_prime_against_trial_division():
    assert all(is_prime(q) == is_prime_by_trial_division(q) for q in range(200_000))


@pytest.mark.parametrize(
    "q,expected",
    [
        (2047, False),  # strong pseudoprime to base 2
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (2**61 - 1, True),
        (2**64 - 59, True),
        ((2**61 - 1) * (2**31 - 1), False),  # above the exact bound, but witnessed
    ],
)
def test_is_prime_large(q, expected):
    assert is_prime(q) is expected


def test_is_prime_refuses_undecided_input():
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # prime, but above the deterministic bound
