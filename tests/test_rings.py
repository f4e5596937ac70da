"""Exact coefficient rings: valuations, reductions, field and ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wenzl.rings import (
    FpElement,
    LaurentPoly,
    NonInvertible,
    NotPIntegral,
    PrimeFieldRing,
    QQ,
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
    v = LaurentPoly.v_power(1)
    vinv = LaurentPoly.v_power(-1)
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
    assert F.reduce(-1) == 6
    assert F.clean({"a": 7, "b": -5, "c": 3}) == {"b": 2, "c": 3}


def test_rational_ring_adapter():
    x = QQ.fraction(2, 3)
    assert QQ.from_rational(x) is x
    assert QQ.reduce(x) is x
    assert QQ.clean({"a": QQ.zero, "b": x}) == {"b": x}


@given(st.dictionaries(st.integers(0, 9), rationals, max_size=8), rationals)
def test_lift_settle_is_exact(terms, s):
    """The kernels' int accumulation: lift, add ints, settle."""
    ints, den = QQ.lift(terms)
    assert all(type(v) is int for v in ints.values())
    assert QQ.settle(ints, den) == terms
    assert QQ.settle(*QQ.lift(terms, s)) == {k: v * s for k, v in terms.items()}
    assert QQ.settle({0: sum(ints.values())}, den).get(0, QQ.zero) == sum(
        terms.values(), Fraction(0)
    )
    F = PrimeFieldRing(7)
    assert F.settle(*F.lift({"a": 3, "b": 5, "c": 7}, 4)) == {"a": 5, "b": 6}
    assert F.settle({"a": -1}, 1) == {"a": 6}


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
    import wenzl.rings
    from wenzl.jw import JWCache, jones_wenzl
    from wenzl.pjw import rational_pjw, reduce_pjw

    dec = rational_pjw(9, 3)
    calls = []
    check = wenzl.rings.is_prime

    def counted(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(wenzl.rings, "is_prime", counted)
    reduce_pjw(dec)
    assert len(calls) <= 1
    calls.clear()
    jones_wenzl(6, PrimeFieldRing(7), JWCache())
    assert len(calls) <= 1
