"""The father-recursion decomposition: fixtures, battery, reduction."""

from fractions import Fraction

import pytest

from wenzl import pjw
from wenzl.jw import JWCache, absorbs_certificate, jones_wenzl
from wenzl.padic import p_support
from wenzl.pjw import (
    Caches,
    expected_markov_closure,
    markov_closure,
    rational_pjw,
    reduce_pjw,
    verify_battery,
)
from wenzl.rings import QQ, min_p_valuation, p_valuation
from wenzl.tl import (
    TLMorphism,
    compose,
    e_matching,
    identity_matching,
    matching_flip,
    matching_tensor,
    right_collapse_matching,
    tensor_with_identity,
)


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
        assert any(c.name == "absorption" and c.passed for c in report.checks), n


def test_p_integrality_despite_non_integral_lambdas(caches):
    dec = rational_pjw(10, 2, caches)
    assert dec.lambda_table[4] == Fraction(-5, 8)  # 2 in the denominator
    assert min(p_valuation(c, 2) for _, c in dec.total.items()) >= 0


def test_min_p_valuation_of_hand_built_morphisms():
    # p divides den: some numerator is prime to p, and only den is read
    e1, one = e_matching(1, 2), identity_matching(2)
    for terms, p, want in [
        ({one: Fraction(1, 4), e1: Fraction(3, 4)}, 2, -2),
        ({one: Fraction(2, 3), e1: Fraction(4, 9)}, 3, -2),
        ({one: Fraction(5, 6), e1: Fraction(1, 3)}, 2, -1),
        ({one: Fraction(9), e1: Fraction(3, 2)}, 3, 1),
    ]:
        x = TLMorphism(2, 2, QQ, terms)
        nums, den = x.ints()
        assert (den % p == 0) == (want < 0)
        assert min_p_valuation(nums.values(), den, p) == want
        assert want == min(p_valuation(c, p) for c in terms.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_min_p_valuation_matches_each_coefficient(caches, p):
    # the battery's p_integrality read, against the per-coefficient loop it
    # replaced, on every map of every decomposition up to n = 9
    for n in range(1, 10):
        dec = rational_pjw(n, p, caches)
        maps = [dec.total] + [
            x for t in dec.terms.values() for x in (t.p_map, t.q_map, t.u)
        ]
        for x in maps:
            want = min((p_valuation(c, p) for _, c in x.items()), default=0)
            nums, den = x.ints()
            assert min_p_valuation(nums.values(), den, p) == want
        report = verify_battery(dec, caches)
        detail = next(c.detail for c in report.checks if c.name == "p_integrality")
        least = min(p_valuation(c, p) for _, c in dec.total.items())
        assert detail == f"min valuation {least}"


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


# the checks verify_battery decides by budget: direct within it, else certified
BUDGETED = (
    "sandwich[",
    "component_idempotent[",
    "orthogonal[",
    "total_idempotent",
    "absorption",
    "reduction_idempotent",
)


@pytest.mark.parametrize("budget,mode", [(0, "certified"), (10**12, "direct")])
def test_each_budgeted_check_decides_both_ways(monkeypatch, caches, budget, mode):
    cases = [(p, n) for p in (2, 3, 5) for n in range(1, 9)]
    default = {
        (p, n): verify_battery(rational_pjw(n, p, caches), caches) for p, n in cases
    }
    monkeypatch.setattr(pjw, "DIRECT_BUDGET_Q", budget)
    monkeypatch.setattr(pjw, "DIRECT_BUDGET_FP", budget)
    for p, n in cases:
        fresh = Caches()
        report = verify_battery(rational_pjw(n, p, fresh), fresh)
        assert [(c.name, c.passed) for c in report.checks] == [
            (c.name, c.passed) for c in default[p, n].checks
        ]
        budgeted = [c for c in report.checks if c.name.startswith(BUDGETED)]
        assert budgeted and all(c.mode == mode and c.passed for c in budgeted)
        # the default budgets certify nothing below n = 8
        if n < 8:
            assert all(c.mode == "direct" for c in default[p, n].checks)


def _both_products(dec, name, caches):
    """The direct orthogonal and absorption checks as two products each,
    as they were before a flip pass stood for the second product."""
    if name == "absorption":
        data = p_support(dec.n, dec.prime)
        father = rational_pjw(data.father, dec.prime, caches)
        grown = tensor_with_identity(father.total, data.gap)
        return (compose(dec.total, grown) == dec.total
                and compose(grown, dec.total) == dec.total)
    i, j = map(int, name[len("orthogonal["):-1].split(","))
    ui = dec.terms[i].u.scale(dec.terms[i].lam)
    uj = dec.terms[j].u.scale(dec.terms[j].lam)
    return compose(ui, uj).is_zero() and compose(uj, ui).is_zero()


def _one_product_checks(report):
    return [
        c for c in report.checks
        if c.mode == "direct" and c.name.startswith(("orthogonal[", "absorption"))
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_product_checks_match_the_two_product_oracle(caches, p):
    seen = set()
    for n in range(1, 10):
        dec = rational_pjw(n, p, caches)
        report = verify_battery(dec, caches)
        assert report.ok
        redone = {c.name: _both_products(dec, c.name, caches)
                  for c in _one_product_checks(report)}
        seen.update(name.split("[")[0] for name in redone)
        got = [(c.name, c.n, c.passed, c.mode, c.detail) for c in report.checks]
        want = [(c.name, c.n, redone.get(c.name, c.passed), c.mode, c.detail)
                for c in report.checks]
        assert got == want
    assert seen == {"orthogonal", "absorption"}


def test_one_product_checks_need_the_flip_passes(monkeypatch):
    # a flip pass stands for each second product: without it they fail
    monkeypatch.setattr(pjw, "flip_symmetric", lambda x: False)
    for p in (2, 3, 5):
        for n in range(1, 8):
            fresh = Caches()
            report = verify_battery(rational_pjw(n, p, fresh), fresh)
            checked = _one_product_checks(report)
            assert [c.name for c in report.failures()] == ["flip_invariant"] + [
                c.name for c in checked
            ]


def test_certificates_do_not_pass_vacuously(monkeypatch):
    monkeypatch.setattr(pjw, "DIRECT_BUDGET_Q", 0)
    monkeypatch.setattr(pjw, "DIRECT_BUDGET_FP", 0)
    fresh = Caches()
    dec = rational_pjw(6, 2, fresh)
    dec.terms[0].lam *= 2  # one wrong scalar; the built maps are untouched
    report = verify_battery(dec, fresh)
    assert [c.name for c in report.failures()] == [
        "lambda_table",
        "component_trace[0]",
        "sandwich[0,0]",
        "component_idempotent[0]",
        "total_idempotent",
        "reduction_idempotent",
    ]
    assert all(c.mode == "certified" for c in report.checks if c.name.startswith(BUDGETED))


# The construction as it was written before one walk and one memo: twin
# mutually recursive helpers walk flip(p) back, and q and u each have a
# memo by signature.  It is the oracle of the one the module builds.


class _OracleCaches:
    def __init__(self):
        self.jw = JWCache()
        self.pjw = {}
        self.q_by_sig = {}
        self.u_by_sig = {}


def _oracle_flipped_p(term, z, pad, caches):
    """(flip(term.p_map) (x) id_pad) o z."""
    if term.kind == "adam":
        return z
    parent = term.parent
    if term.kind == "plus":
        return _oracle_flipped_q(parent, z, pad + term.gap, caches)
    z1 = pjw.apply_jw(term.i, z, caches.jw, pad=pad)
    w = matching_flip(right_collapse_matching(parent.i, term.gap))
    if pad:
        w = matching_tensor(w, identity_matching(pad))
    z2 = pjw.apply_matching_left(w, z1)
    return _oracle_flipped_q(parent, z2, pad + term.gap, caches)


def _oracle_flipped_q(term, z, pad, caches):
    """(flip(term.q_map) (x) id_pad) o z."""
    return _oracle_flipped_p(term, pjw.apply_jw(term.i, z, caches.jw, pad=pad), pad, caches)


def _oracle_u(term, caches):
    if term.sig not in caches.u_by_sig:
        caches.u_by_sig[term.sig] = _oracle_flipped_p(term, term.q_map, 0, caches)
    return caches.u_by_sig[term.sig]


def _oracle_pjw(n, p, caches):
    if (p, n) in caches.pjw:
        return caches.pjw[p, n]
    data = p_support(n, p)
    if data.is_adam:
        jw_n = jones_wenzl(n, QQ, caches.jw)
        term = pjw.PJWTerm(n, Fraction(1), TLMorphism.identity(n), jw_n, jw_n,
                           "adam", 0, None, ("jw", n))
        caches.pjw[p, n] = pjw.PJWDecomposition(n, p, {n: term}, jw_n)
        return caches.pjw[p, n]
    m = data.gap
    terms = {}
    for i, parent in sorted(_oracle_pjw(data.father, p, caches).terms.items()):
        p_plus = tensor_with_identity(parent.q_map, m)
        if parent.sig == ("jw", i) and absorbs_certificate(p_plus):
            sig = ("jw", i + m)
            q_plus = jones_wenzl(i + m, QQ, caches.jw)
        else:
            sig = ("+", m, parent.sig)
            if sig not in caches.q_by_sig:
                caches.q_by_sig[sig] = pjw.apply_jw(i + m, p_plus, caches.jw)
            q_plus = caches.q_by_sig[sig]
        plus = pjw.PJWTerm(i + m, parent.lam, p_plus, q_plus, TLMorphism.zero(n, n),
                           "plus", m, parent, sig)
        plus.u = _oracle_u(plus, caches)
        terms[i + m] = plus

        sig = ("-", m, parent.sig)
        y = pjw.apply_matching_left(right_collapse_matching(i, m), p_plus)
        if sig not in caches.q_by_sig:
            caches.q_by_sig[sig] = pjw.apply_jw(i - m, y, caches.jw)
        q_minus = caches.q_by_sig[sig]
        lam = Fraction((-1) ** m * (i + 1 - m), i + 1) * parent.lam
        minus = pjw.PJWTerm(i - m, lam, q_minus, q_minus, TLMorphism.zero(n, n),
                            "minus", m, parent, sig)
        minus.u = _oracle_u(minus, caches)
        terms[i - m] = minus
    total = TLMorphism.zero(n, n)
    for t in terms.values():
        total = total.add(t.u.scale(t.lam))
    caches.pjw[p, n] = pjw.PJWDecomposition(n, p, terms, total)
    return caches.pjw[p, n]


def _fields(t):
    parent = None if t.parent is None else t.parent.i
    return (t.i, t.lam, t.p_map, t.q_map, t.u, t.kind, t.gap, t.sig, parent)


def test_construction_matches_the_two_helper_oracle():
    fresh, oracle = Caches(jw=JWCache()), _OracleCaches()
    for p in (2, 3, 5):
        for n in range(1, 10):
            dec, want = rational_pjw(n, p, fresh), _oracle_pjw(n, p, oracle)
            assert sorted(dec.terms) == sorted(want.terms), (p, n)
            for i, t in dec.terms.items():
                assert _fields(t) == _fields(want.terms[i]), (p, n, i)
            assert dec.total == want.total, (p, n)


def test_construction_makes_fewer_projector_and_collapse_calls(monkeypatch):
    # a projector child needs no walk, and a minus child whose parts are
    # memoized needs no collapse (68 against 79 projector steps and 40
    # against 42 collapses when written)
    counts = {}
    for name in ("apply_jw", "apply_matching_left"):
        real = getattr(pjw, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pjw, name, counted)

    def calls(build, caches):
        counts.update(apply_jw=0, apply_matching_left=0)
        for p in (2, 3, 5):
            for n in range(1, 11):
                build(n, p, caches)
        return dict(counts)

    new = calls(rational_pjw, Caches(jw=JWCache()))
    old = calls(_oracle_pjw, _OracleCaches())
    assert new["apply_jw"] < old["apply_jw"]
    assert new["apply_matching_left"] < old["apply_matching_left"]
