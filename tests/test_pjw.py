"""The father-recursion decomposition: fixtures, battery, reduction."""

from fractions import Fraction

import pytest

from wenzl.jw import jones_wenzl
from wenzl.padic import p_support
from wenzl.pjw import (
    expected_markov_closure,
    markov_closure,
    rational_pjw,
    reduce_pjw,
    verify_battery,
)
from wenzl.rings import QQ, p_valuation
from wenzl.tl import TLMorphism, compose, e_matching, identity_matching


def test_lambda_fixture_3_10(caches):
    dec = rational_pjw(10, 3, caches)
    assert dec.lambda_table == {6: Fraction(7, 9), 10: Fraction(1)}


def test_lambda_fixture_2_10(caches):
    dec = rational_pjw(10, 2, caches)
    assert dec.lambda_table == {
        4: Fraction(-5, 8),
        6: Fraction(3, 4),
        8: Fraction(-9, 10),
        10: Fraction(1),
    }


def test_adam_case_is_plain_projector(caches):
    dec = rational_pjw(8, 3, caches)
    assert dec.lambda_table == {8: Fraction(1)}
    assert dec.total == jones_wenzl(8, QQ, caches.jw)


def test_two_strand_total_is_identity(caches):
    # lambda table {0: -1/2, 2: 1} and the two summands cancel off the identity
    dec = rational_pjw(2, 2, caches)
    assert dec.lambda_table == {0: Fraction(-1, 2), 2: Fraction(1)}
    assert dec.total == TLMorphism.identity(2)


def test_index_set_is_shifted_support(caches):
    for p in (2, 3, 5):
        for n in range(1, 11):
            dec = rational_pjw(n, p, caches)
            assert dec.index_set == p_support(n, p).shifted


def test_markov_closures(caches):
    assert markov_closure(rational_pjw(10, 3, caches)) == 18
    assert markov_closure(rational_pjw(10, 2, caches)) == 32
    for p in (2, 3, 5):
        for n in range(1, 11):
            dec = rational_pjw(n, p, caches)
            assert markov_closure(dec) == expected_markov_closure(dec)


def test_rejects_n_zero(caches):
    with pytest.raises(ValueError):
        rational_pjw(0, 2, caches)


def test_total_idempotent_small_direct(caches):
    for p, n in [(2, 2), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 6), (5, 5), (5, 6)]:
        dec = rational_pjw(n, p, caches)
        assert compose(dec.total, dec.total) == dec.total
        assert dec.total.identity_coefficient() == 1


def test_components_orthogonal_small_direct(caches):
    for p, n in [(2, 5), (2, 6), (3, 4), (5, 6)]:
        dec = rational_pjw(n, p, caches)
        items = sorted(dec.terms.items())
        for i, ti in items:
            ui = ti.u.scale(ti.lam)
            assert compose(ui, ui) == ui
            for j, tj in items:
                if i != j:
                    assert compose(ui, tj.u.scale(tj.lam)).is_zero()


def test_sandwich_scalars_small_direct(caches):
    for p, n in [(2, 4), (2, 6), (3, 4), (5, 6)]:
        dec = rational_pjw(n, p, caches)
        for i, t in dec.terms.items():
            mm = compose(t.q_map, t.q_map.flip())
            assert mm == jones_wenzl(i, QQ, caches.jw).scale(1 / t.lam)


def test_absorption_small_direct(caches):
    from wenzl.tl import tensor_with_identity

    for p, n in [(2, 4), (2, 6), (3, 4), (3, 7), (5, 6)]:
        dec = rational_pjw(n, p, caches)
        data = p_support(n, p)
        father = rational_pjw(data.father, p, caches)
        grown = tensor_with_identity(father.total, data.gap)
        assert compose(dec.total, grown) == dec.total
        assert compose(grown, dec.total) == dec.total


@pytest.mark.slow
def test_absorption_is_transitive_down_the_chain(caches):
    # the top level absorbs the grandfather level, not only its own father
    from wenzl.padic import father_chain
    from wenzl.pjw import checks_pass
    from wenzl.tl import tensor_with_identity

    # p=2, chain 6 -> 5 -> 3: checked directly against the grandfather
    assert father_chain(6, 2) == [6, 5, 3]
    dec = rational_pjw(6, 2, caches)
    grown = tensor_with_identity(rational_pjw(3, 2, caches).total, 3)
    assert compose(dec.total, grown) == dec.total
    assert compose(grown, dec.total) == dec.total

    # p=3, chain 12 -> 11 -> 8 (13 = 111_3), the smallest three-level chain
    # for p=3.  A direct check would cost about 58786 x 1430 pair products
    # each way, so it goes through the battery: 12 absorbs 11 (x) id_1 and
    # 11 absorbs 8 (x) id_3, and tensoring the second with id_1 chains them.
    assert father_chain(12, 3) == [12, 11, 8]
    for n in (12, 11):
        report = verify_battery(rational_pjw(n, 3, caches), caches)
        assert checks_pass(report.checks, "absorption"), n


def test_p_integrality_despite_non_integral_lambdas(caches):
    dec = rational_pjw(10, 2, caches)
    assert dec.lambda_table[4] == Fraction(-5, 8)  # 2 in the denominator
    assert min(p_valuation(c, 2) for c in dec.total.terms.values()) >= 0


def test_reduce_values(caches):
    reduced = reduce_pjw(rational_pjw(2, 3, caches))
    assert reduced.terms[identity_matching(2)] == 1
    assert reduced.terms[e_matching(1, 2)] == 2
    assert compose(reduced, reduced) == reduced


def test_reduce_idempotent(caches):
    for p, n in [(2, 6), (2, 10), (3, 7), (5, 6)]:
        reduced = reduce_pjw(rational_pjw(n, p, caches))
        assert compose(reduced, reduced) == reduced


def test_battery_small(caches):
    for p, n in [(2, 2), (2, 6), (3, 4), (3, 8), (5, 5), (5, 7)]:
        report = verify_battery(rational_pjw(n, p, caches), caches)
        assert report.ok, [c.line() for c in report.failures()]


def test_battery_reports_modes(caches):
    report = verify_battery(rational_pjw(6, 2, caches), caches)
    assert all(c.mode in ("direct", "certified") for c in report.checks)
    names = {c.name for c in report.checks}
    for needed in (
        "index_set",
        "lambda_table",
        "identity_coefficient",
        "p_integrality",
        "total_idempotent",
        "absorption",
        "markov_closure",
        "reduction_idempotent",
    ):
        assert needed in names


def test_component_traces(caches):
    from wenzl.tl import markov_trace

    for p, n in [(2, 8), (3, 6), (5, 7)]:
        dec = rational_pjw(n, p, caches)
        for i, t in dec.terms.items():
            assert markov_trace(t.u) == Fraction((-1) ** i * (i + 1)) / t.lam


def test_gadget_sharing_across_primes(caches):
    # (12, 2) and (12, 3) both route through the same collapse of the
    # 11-strand projector; the shared summand is literally the same object
    d2 = rational_pjw(12, 2, caches)
    d3 = rational_pjw(12, 3, caches)
    assert d2.terms[10].u is d3.terms[10].u


def test_total_support_not_maximal(caches):
    # the 12-strand 2-projector happens to be much sparser than TL_12
    d2 = rational_pjw(12, 2, caches)
    assert len(d2.total.terms) < 208012
