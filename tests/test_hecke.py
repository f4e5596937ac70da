"""Kazhdan-Lusztig family: case rules, binomial oracle, support bridge."""

from math import comb

import pytest

from wenzl.hecke import (
    HeckeElement,
    V_PLUS_VINV,
    b1_power_closed_form,
    b1_power_letters,
    last_letter,
    lemma_positivity_check,
    mul_b1_power,
    mul_by_generator,
    p_canonical,
)
from wenzl.padic import p_support, support_via_admissible
from wenzl.rings import LaurentPoly


def B(k, c=1):
    return HeckeElement.basis(k, c)


def test_last_letter_alternates():
    assert last_letter(1) == "s"
    assert last_letter(2) == "t"
    assert last_letter(5) == "s"
    with pytest.raises(ValueError):
        last_letter(0)


def test_generator_cases():
    # same letter: (v + 1/v) b
    assert mul_by_generator(B(1), "s") == HeckeElement({1: V_PLUS_VINV})
    # extension with a defect term
    assert mul_by_generator(B(2), "s") == B(3).add(B(1))
    # length-1 extension has no defect term
    assert mul_by_generator(B(1), "t") == B(2)
    # the unit extends only by s
    assert mul_by_generator(B(0), "s") == B(1)
    with pytest.raises(ValueError):
        mul_by_generator(B(0), "t")


def test_b8_times_b1_squared():
    assert mul_b1_power(B(8), 2) == B(6).add(B(8, 2)).add(B(10))


def test_b9_times_b1_squared():
    assert mul_b1_power(B(9), 2) == B(7).add(B(9, 2)).add(B(11))


def test_b1_power_zero_is_identity_map():
    x = B(5)
    assert mul_b1_power(x, 0) is x


def test_mixed_parity_rejected():
    with pytest.raises(ValueError):
        mul_b1_power(B(2).add(B(3)), 1)


def _b1_power_oracle(x, m):
    """x * b_1^m as m repeated three-case generator products."""
    if m == 0 or x.is_zero():
        return x
    (parity,) = {k % 2 for k in x.terms}
    for letter in b1_power_letters(parity, m):
        x = mul_by_generator(x, letter)
    return x


def test_b1_power_matches_repeated_generator_products():
    products = 0
    for p in (2, 3):
        for n in range(1, 201):
            data = p_support(n, p)
            if data.is_adam:
                continue
            x = p_canonical(data.father + 1, p)
            assert mul_b1_power(x, data.gap) == _b1_power_oracle(x, data.gap), (n, p)
            products += 1
    assert products > 300
    # Laurent coefficients, signs and a cancelling sum keep every exponent
    x = HeckeElement({
        0: LaurentPoly({1: 3, -2: -1}),
        2: LaurentPoly({0: -1, 5: 2}),
        6: LaurentPoly.one(),
    })
    for m in range(8):
        assert mul_b1_power(x, m) == _b1_power_oracle(x, m)
    y = HeckeElement({1: LaurentPoly({2: 1}), 3: LaurentPoly({2: -1})})
    for m in range(1, 6):
        assert mul_b1_power(y, m) == _b1_power_oracle(y, m)


@pytest.mark.parametrize("j", range(2, 30))
def test_binomial_closed_form(j):
    for m in range(1, min(j - 1, 6) + 1):
        assert mul_b1_power(B(j), m) == b1_power_closed_form(j, m)


def test_closed_form_coefficients_are_binomials():
    x = mul_b1_power(B(20), 5)
    for r in range(6):
        assert x.terms[20 - 5 + 2 * r] == LaurentPoly.constant(comb(5, r))


@pytest.mark.parametrize(
    "n_plus_1,p,ks",
    [(11, 3, (7, 11)), (11, 2, (5, 7, 9, 11)), (8, 2, (8,))],
)
def test_p_canonical_examples(n_plus_1, p, ks):
    x = p_canonical(n_plus_1, p)
    assert sorted(x.terms) == sorted(ks)
    assert all(c == LaurentPoly.one() for c in x.terms.values())


def test_p_canonical_matches_both_support_roads():
    for p in (2, 3, 5, 7):
        for n in range(1, 200):
            x = p_canonical(n + 1, p)
            assert tuple(sorted(x.terms)) == p_support(n, p).supp
            assert tuple(sorted(x.terms)) == support_via_admissible(n, p)


def test_positivity_example_10_3():
    rep = lemma_positivity_check(10, 3)
    assert rep.remainder == {9: 2}
    assert rep.ok


def test_positivity_example_9_2():
    rep = lemma_positivity_check(9, 2)
    assert rep.remainder == {8: 2}
    assert rep.ok


def test_positivity_example_10_2():
    rep = lemma_positivity_check(10, 2)
    assert rep.ok
    assert not set(rep.remainder) & {5, 7, 9, 11}


def test_positivity_rejects_adams():
    with pytest.raises(ValueError):
        lemma_positivity_check(7, 2)


def test_positivity_sweep():
    for p in (2, 3, 5):
        for n in range(1, 60):
            if not p_support(n, p).is_adam:
                assert lemma_positivity_check(n, p).ok, (n, p)


def test_decategorification_support_matches_diagram_side(caches):
    from wenzl.pjw import rational_pjw

    for p in (2, 3, 5):
        for n in range(1, 9):
            dec = rational_pjw(n, p, caches)
            hecke_support = tuple(sorted(p_canonical(n + 1, p).terms))
            assert tuple(i + 1 for i in dec.index_set) == hecke_support


def test_unique_index_set_by_sandwich_ranks(caches):
    """The projected sandwich space through width j has rank 1 exactly when
    j indexes a summand, and rank 0 otherwise.

    For each j of the right parity, run every basis diagram D: n -> j
    through JW_j o D o total; the resulting family must span a line (all
    nonzero values proportional) when j is in the index set and vanish
    entirely when it is not.
    """
    from wenzl.jw import apply_jw
    from wenzl.pjw import rational_pjw
    from wenzl.tl import apply_matching_left, enumerate_basis

    for p, n in [(2, 5), (2, 6), (3, 4), (3, 6), (5, 6)]:
        dec = rational_pjw(n, p, caches)
        present = set(dec.index_set)
        for j in range(n % 2, n + 1, 2):
            images = []
            for d in enumerate_basis(n, j):
                s = apply_jw(j, apply_matching_left(d, dec.total), caches.jw)
                if not s.is_zero():
                    images.append(s)
            if j not in present:
                assert not images, (p, n, j)
                continue
            assert images, (p, n, j)
            first = images[0]
            probe = next(iter(first.terms))
            for other in images[1:]:
                assert probe in other.terms, (p, n, j)
                scale = other.coefficient(probe) / first.coefficient(probe)
                assert other == first.scale(scale), (p, n, j)
