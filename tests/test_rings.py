"""Exact coefficient rings: valuations, reductions, field and ring laws."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from wenzl.rings import (
    FpElement,
    LaurentPoly,
    NonInvertible,
    NotPIntegral,
    PrimeFieldRing,
    QQ,
    min_p_valuation,
    p_valuation,
    reduce_mod_p,
    ring_by_name,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda x: x != 0)


@pytest.mark.parametrize(
    "x,p,v",
    [(Fraction(3, 4), 2, -2), (Fraction(7, 9), 3, -2), (Fraction(6), 3, 1)],
)
def test_p_valuation_examples(x, p, v):
    assert p_valuation(x, p) == v


def test_p_valuation_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        p_valuation(Fraction(0), 2)


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_p_valuation_additive(x, y, p):
    assert p_valuation(x * y, p) == p_valuation(x, p) + p_valuation(y, p)


def test_min_p_valuation_reads_the_denominator():
    # canonical maps: when p divides den, some numerator is prime to p
    assert min_p_valuation([1, 3], 4, 2) == -2  # 1/4, 3/4
    assert min_p_valuation([6, 4], 9, 3) == -2  # 2/3, 4/9
    assert min_p_valuation([2, 5], 3, 3) == -1  # 2/3, 5/3
    assert min_p_valuation([9, 3], 1, 3) == 1
    assert min_p_valuation([10, 25], 3, 5) == 1  # 10/3, 25/3
    assert min_p_valuation([], 1, 5) == 0
    with pytest.raises(ValueError):
        min_p_valuation([1], 1, 4)


@given(st.dictionaries(st.integers(0, 9), rationals, min_size=1, max_size=8),
       st.sampled_from([2, 3, 5, 7]))
def test_min_p_valuation_matches_each_coefficient(terms, p):
    den = lcm(*(v.denominator for v in terms.values()))
    nums, den = QQ.canonical({k: int(v * den) for k, v in terms.items()}, den)
    want = min(p_valuation(v, p) for v in terms.values())
    assert min_p_valuation(nums.values(), den, p) == want


@pytest.mark.parametrize(
    "x,p,res",
    [(Fraction(1, 2), 3, 2), (Fraction(7, 9), 2, 1)],
)
def test_reduce_examples(x, p, res):
    assert reduce_mod_p(x, p) == FpElement(p, res)


def test_reduce_rejects_non_integral():
    with pytest.raises(NotPIntegral):
        reduce_mod_p(Fraction(-5, 8), 2)


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_reduce_is_ring_hom(x, y, p):
    if x.denominator % p == 0 or y.denominator % p == 0:
        return
    rx, ry = reduce_mod_p(x, p), reduce_mod_p(y, p)
    if (x + y).denominator % p == 0:
        pytest.fail("sum of p-integral rationals must be p-integral")
    assert reduce_mod_p(x + y, p) == rx + ry
    assert reduce_mod_p(x * y, p) == rx * ry


def test_fp_field_axioms():
    p = 5
    elements = [FpElement(p, r) for r in range(p)]
    one = FpElement(p, 1)
    for a in elements:
        if a:
            assert a * a.inverse() == one
    assert FpElement(5, 3) * FpElement(5, 2) == one
    with pytest.raises(NonInvertible):
        FpElement(p, 0).inverse()


def test_fp_rejects_mixed_primes():
    with pytest.raises(ValueError):
        FpElement(3, 1) + FpElement(5, 1)


def test_rational_arithmetic_normalized():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    x = QQ.parse("6/4")
    assert QQ.format(x) == "3/2"
    assert QQ.format(QQ.from_int(-7)) == "-7"


def test_laurent_examples():
    v = LaurentPoly({1: 1})
    vinv = LaurentPoly({-1: 1})
    sq = (v + vinv) * (v + vinv)
    assert sq == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert (v - v) == LaurentPoly.zero()
    assert not LaurentPoly.zero()


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5),
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5),
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5),
)
def test_laurent_ring_laws(a, b, c):
    x, y, z = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + LaurentPoly.zero() == x
    assert x * LaurentPoly.one() == x


def test_laurent_no_stored_zeros():
    x = LaurentPoly({2: 1, 0: 0, -1: 3})
    assert 0 not in x.coeffs


def test_prime_field_ring_adapter():
    F = PrimeFieldRing(7)
    assert F.name == "Fp:7"
    assert F.from_rational(Fraction(1, 2)) == 4
    with pytest.raises(NotPIntegral):
        F.from_rational(Fraction(1, 7))
    assert F.split(-1) == (-1, 1)
    assert F.element(6, 1) == 6
    assert F.canonical({"a": 7, "b": -5, "c": 3}, 1) == ({"b": 2, "c": 3}, 1)
    # a canonical rational map over den reduces through den's inverse
    assert F.canonical({"a": 1, "b": 7, "c": 3}, 2) == ({"a": 4, "c": 5}, 1)
    with pytest.raises(NotPIntegral, match="3/7 is not p-integral"):
        F.canonical({"a": 14, "b": 3}, 7)
    assert F.format_ratio(-1, 1) == "6" == F.format(-1)
    assert F.parse_ratio("-1") == (6, 1)


def test_rational_ring_adapter():
    x = QQ.fraction(2, 3)
    assert QQ.from_rational(x) is x
    assert QQ.split(x) == (2, 3)
    assert QQ.split(-4) == (-4, 1)
    assert QQ.element(2, 3) == x
    assert QQ.canonical({"a": 0, "b": 4, "c": -6}, 8) == ({"b": 2, "c": -3}, 4)
    assert QQ.canonical({"a": 0}, 8) == ({}, 1)
    assert QQ.format_ratio(4, 6) == "2/3" == QQ.format(x)
    assert QQ.format_ratio(-6, 3) == "-2"
    assert QQ.parse_ratio("-6/4") == (-3, 2)


def test_any_nonzero_reads_sums_in_the_ring():
    F = PrimeFieldRing(3)
    assert not QQ.any_nonzero([]) and not QQ.any_nonzero([0, 0])
    assert QQ.any_nonzero([0, 3]) and QQ.any_nonzero([-1])
    assert not F.any_nonzero([3, -6, 0]) and F.any_nonzero([3, 4])

    def sums():  # stops at the first nonzero sum
        yield 0
        yield 5
        raise AssertionError("read past the first nonzero sum")

    assert QQ.any_nonzero(sums()) and F.any_nonzero(sums())


@given(st.dictionaries(st.integers(0, 9), rationals, max_size=8), rationals)
def test_canonical_form_is_exact(terms, s):
    """Kernels accumulate int numerators over a denominator; ``canonical``
    gives the same rationals in canonical form."""
    den = 1
    for v in terms.values():
        den *= v.denominator  # a common denominator, seldom the least
    sums = {k: int(v * den) for k, v in terms.items()}
    nums, d = QQ.canonical(sums, den)
    assert all(type(v) is int and v for v in nums.values())
    assert d > 0 and gcd(d, *nums.values()) == 1
    assert {k: Fraction(v, d) for k, v in nums.items()} == terms
    # scaled by s through the numerators and the denominator
    nums, d = QQ.canonical({k: v * s.numerator for k, v in sums.items()},
                           den * s.denominator)
    assert {k: QQ.element(v, d) for k, v in nums.items()} == {
        k: v * s for k, v in terms.items()
    }
    total = sum(terms.values(), Fraction(0))
    nums, d = QQ.canonical({0: sum(sums.values())}, den)
    assert QQ.element(nums.get(0, 0), d) == total
    F = PrimeFieldRing(7)
    assert F.canonical({"a": 3 * 4, "b": 5 * 4, "c": 7 * 4}, 1) == ({"a": 5, "b": 6}, 1)
    assert F.canonical({"a": -1}, 1) == ({"a": 6}, 1)


@given(st.fractions(max_denominator=10**12))
def test_rational_parse_reads_what_format_writes(x):
    assert QQ.parse(QQ.format(x)) == x == Fraction(QQ.format(x))


@pytest.mark.parametrize(
    "text", ["1/0", "-3/00", "", "-", "/2", "1/", "+1", " 1", "1.5", "1e3",
             "1/-2", "1/2/3", "1_000", "\u0663", 3, None],
)
def test_rational_parse_refuses_other_forms(text):
    with pytest.raises(ValueError):
        QQ.parse(text)


def test_ring_by_name_roundtrip():
    assert ring_by_name("Q") is QQ
    assert ring_by_name("Fp:5") == PrimeFieldRing(5)
    with pytest.raises(ValueError):
        ring_by_name("Z")


def test_primality_checked_once_per_prime(monkeypatch):
    # every prime check goes through padic.require_prime, so counting
    # padic.is_prime sees them all
    import wenzl.padic
    from wenzl.jw import JWCache, jones_wenzl
    from wenzl.pjw import rational_pjw, reduce_pjw

    dec = rational_pjw(9, 3)
    calls = []
    check = wenzl.padic.is_prime

    def counted(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(wenzl.padic, "is_prime", counted)
    reduce_pjw(dec)
    assert calls == [3]
    calls.clear()
    jones_wenzl(6, PrimeFieldRing(7), JWCache())
    assert calls == [7]
