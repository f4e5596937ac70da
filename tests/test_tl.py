"""Diagram engine: enumeration against a crossing oracle, category laws."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wenzl import tl
from wenzl.jw import jones_wenzl
from wenzl.rings import NonInvertible, PrimeFieldRing, QQ
from wenzl.tl import (
    MAX_ARITY,
    CrossinglessMatching,
    TLMorphism,
    apply_e_bottom,
    apply_e_top,
    apply_matching_left,
    apply_matching_right,
    catalan,
    compose,
    cap_matching,
    cup_matching,
    e_matching,
    bottom_killed_upto,
    enumerate_basis,
    first_unkilled,
    halves,
    identity_matching,
    markov_trace,
    matching,
    matching_compose,
    _matching_compose_walk,
    matching_flip,
    matching_tensor,
    nested_caps_matching,
    partial_close_right,
    rewire_ints,
    right_collapse_matching,
    tensor_with_identity,
    top_killed_upto,
)


# ---------------------------------------------------------------------------
# Enumeration oracle: all perfect matchings, filtered by the interleaving
# definition of a crossing (independent of the stack check used in tl).
# ---------------------------------------------------------------------------


def all_perfect_matchings(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for idx, mate in enumerate(rest):
        for sub in all_perfect_matchings(rest[:idx] + rest[idx + 1 :]):
            yield [(first, mate)] + sub


def crossing_free(pairs):
    for (a, b), (c, d) in combinations([tuple(sorted(p)) for p in pairs], 2):
        if a < c < b < d or c < a < d < b:
            return False
    return True


@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, 2), (1, 3), (3, 3), (2, 4), (4, 4)])
def test_enumeration_matches_oracle(n, m):
    expected = {
        tuple(sorted(tuple(sorted(p)) for p in pairs))
        for pairs in all_perfect_matchings(list(range(n + m)))
        if crossing_free(pairs)
    }
    got = {mm.pairs for mm in enumerate_basis(n, m)}
    assert got == expected
    assert len(got) == catalan((n + m) // 2)


def test_enumeration_sizes():
    assert len(enumerate_basis(4, 4)) == catalan(4) == 14
    assert len(enumerate_basis(1, 3)) == 2
    assert enumerate_basis(1, 2) == ()


def test_hom_dimensions_catalan_to_16():
    for n in range(0, 9):
        for m in range(n % 2, 17 - n, 2):
            basis = enumerate_basis(n, m)
            assert len(basis) == catalan((n + m) // 2)
            assert len(set(basis)) == len(basis)


def test_matching_validation():
    with pytest.raises(ValueError):
        matching(2, 2, [(0, 2), (1, 3)])  # crossing
    with pytest.raises(ValueError):
        matching(2, 2, [(0, 1), (2, 3), (0, 1)])
    with pytest.raises(ValueError):
        matching(1, 2, [(0, 1)])
    m = matching(2, 2, [(0, 3), (1, 2)])
    assert m is identity_matching(2)


def test_equal_matchings_are_one_object():
    # equality and hashing are by identity, which interning makes exact
    assert matching(2, 2, [(0, 3), (1, 2)]) is matching(2, 2, [(1, 2), (0, 3)])
    # either end of a pair may come first
    assert matching(2, 2, [(3, 0), (2, 1)]) is identity_matching(2)
    assert matching(3, 1, [(3, 0), (2, 1)]) is matching(3, 1, [(0, 3), (1, 2)])


# ---------------------------------------------------------------------------
# Structural keys: the Dyck word above the bottom arity
# ---------------------------------------------------------------------------


def word_key(bottom, partner):
    """The documented uid layout, recomputed from a partner sequence."""
    word = sum(1 << x for x, y in enumerate(partner) if y > x)
    return word << tl._SHIFT | bottom


def small_hom_spaces(limit=10):
    for n in range(limit + 1):
        for m in range(n % 2, limit + 1 - n, 2):
            yield n, m


def test_keys_are_injective_on_small_hom_spaces():
    # from the enumeration oracle, independent of interning: distinct planar
    # pairings of distinct (bottom, top) never share a key
    keys = set()
    count = 0
    for n, m in small_hom_spaces():
        for pairs in all_perfect_matchings(list(range(n + m))):
            if crossing_free(pairs):
                partner = [0] * (n + m)
                for a, b in pairs:
                    partner[a], partner[b] = b, a
                keys.add(word_key(n, partner))
                count += 1
    assert len(keys) == count
    for n, m in small_hom_spaces():
        basis = enumerate_basis(n, m)
        assert len({mm.uid for mm in basis}) == len(basis) == catalan((n + m) // 2)


def test_intern_table_keys_recompute_from_partners():
    # build matchings through every kind of walk, then audit the whole table
    jw = jones_wenzl(5)
    y = matching(4, 6, [(0, 1), (2, 9), (3, 8), (4, 5), (6, 7)])
    x = compose(tensor_with_identity(jw, 1), as_morphism(y))
    for mm in list(x.terms) + list(jw.flip().terms):
        halves(mm)
    partial_close_right(x, 2)
    apply_e_bottom(2, x)
    apply_e_top(3, x)
    matching_tensor(e_matching(1, 3), matching_flip(e_matching(2, 4)))
    assert len(tl._INTERN) > 100
    for uid, mm in tl._INTERN.items():
        assert uid == mm.uid == word_key(mm.bottom, mm.partner)


def test_crossing_twin_of_interned_matching_refused():
    # a crossing pairing has the openers of some planar one; the key finds
    # the planar twin and the partner comparison must refuse the crossing one
    assert matching(2, 2, [(0, 3), (1, 2)]) is identity_matching(2)
    with pytest.raises(ValueError, match="planar"):
        matching(2, 2, [(0, 2), (1, 3)])
    for n, m in [(3, 3), (2, 4), (6, 0), (4, 4)]:
        enumerate_basis(n, m)  # every planar twin is interned
        for pairs in all_perfect_matchings(list(range(n + m))):
            if not crossing_free(pairs):
                with pytest.raises(ValueError, match="planar"):
                    matching(n, m, pairs)


def test_arity_bound_refused():
    big = MAX_ARITY + 1
    caps = [(2 * j, 2 * j + 1) for j in range(big // 2)]
    for bottom, top in ((big, 0), (0, big), (-2, 2)):
        with pytest.raises(ValueError, match="arity"):
            matching(bottom, top, caps)
    with pytest.raises(ValueError, match="arity"):
        identity_matching(big)
    with pytest.raises(ValueError, match="arity"):
        matching_tensor(identity_matching(MAX_ARITY), identity_matching(1))
    widest = identity_matching(MAX_ARITY)
    assert matching_flip(widest) is widest and widest.is_identity()


def test_key_predicates_match_partner_definitions():
    for n, m in small_hom_spaces():
        for mm in enumerate_basis(n, m):
            p = mm.partner
            identity = n == m and all(p[i] == 2 * n - 1 - i for i in range(n))
            adjacent = any(p[lab] == lab + 1 for lab in range(n, n + m - 1))
            assert mm.is_identity() == identity
            assert mm.has_adjacent_top_arc() == adjacent


# ---------------------------------------------------------------------------
# Composition, tensor, flip
# ---------------------------------------------------------------------------


def as_morphism(m, ring=QQ):
    return TLMorphism.from_matching(m, ring)


def test_loop_rule_e1_squared():
    e1 = as_morphism(e_matching(1, 2))
    assert compose(e1, e1) == e1.scale(Fraction(-2))


def test_identity_composition():
    for mm in enumerate_basis(3, 3):
        f = as_morphism(mm)
        assert compose(as_morphism(identity_matching(3)), f) == f
        assert compose(f, as_morphism(identity_matching(3))) == f


def test_cap_cup_loop():
    cup = as_morphism(cup_matching())  # 0 -> 2
    cap = as_morphism(cap_matching())  # 2 -> 0
    closed = compose(cap, cup)  # 0 -> 0
    assert closed == TLMorphism.identity(0).scale(Fraction(-2))


def test_tl_relations():
    n = 4
    for i in range(1, n):
        ei = as_morphism(e_matching(i, n))
        assert compose(ei, ei) == ei.scale(Fraction(-2))
    for i in range(1, n - 1):
        ei = as_morphism(e_matching(i, n))
        ej = as_morphism(e_matching(i + 1, n))
        assert compose(compose(ei, ej), ei) == ei
        assert compose(compose(ej, ei), ej) == ej
    e1, e3 = as_morphism(e_matching(1, 4)), as_morphism(e_matching(3, 4))
    assert compose(e1, e3) == compose(e3, e1)


def test_tensor_examples():
    id2, id3 = identity_matching(2), identity_matching(3)
    assert matching_tensor(id2, id3) is identity_matching(5)
    cc = matching_tensor(cap_matching(), cap_matching())
    assert cc.pairs == ((0, 1), (2, 3))
    e1_in_3 = matching_tensor(e_matching(1, 2), identity_matching(1))
    assert e1_in_3 is e_matching(1, 3)


def test_nested_caps_shape():
    assert nested_caps_matching(2).pairs == ((0, 3), (1, 2))
    assert right_collapse_matching(3, 1).pairs == ((0, 5), (1, 4), (2, 3))


def test_flip_examples():
    assert matching_flip(cup_matching()) is cap_matching()
    assert matching_flip(identity_matching(4)) is identity_matching(4)
    assert matching_flip(e_matching(2, 5)) is e_matching(2, 5)


def random_morphism(rng, n, m, ring=QQ, max_terms=4):
    basis = enumerate_basis(n, m)
    if not basis:
        return TLMorphism.zero(n, m, ring)
    terms = {}
    for mm in rng.sample(basis, min(max_terms, len(basis))):
        num = rng.randint(-6, 6)
        if num:
            if ring is QQ:
                terms[mm] = QQ.fraction(num, rng.randint(1, 5))
            else:
                c = ring.from_int(num)
                if c:
                    terms[mm] = c
    return TLMorphism(n, m, ring, terms)


def test_flip_contravariant_involution():
    rng = random.Random(7)
    for _ in range(40):
        n, mid, k = rng.choice([(2, 2, 2), (3, 3, 3), (2, 4, 2), (4, 2, 4), (1, 3, 3)])
        f = random_morphism(rng, n, mid)
        g = random_morphism(rng, mid, k)
        assert f.flip().flip() == f
        assert compose(g, f).flip() == compose(f.flip(), g.flip())


def test_associativity_and_interchange():
    rng = random.Random(11)
    for _ in range(30):
        n, a, b, k = rng.choice([(2, 2, 2, 2), (3, 3, 3, 3), (2, 4, 2, 4), (1, 3, 1, 3)])
        f = random_morphism(rng, n, a)
        g = random_morphism(rng, a, b)
        h = random_morphism(rng, b, k)
        assert compose(compose(h, g), f) == compose(h, compose(g, f))
    for _ in range(20):
        f = random_morphism(rng, 2, 2)
        g = random_morphism(rng, 2, 2)
        fp = random_morphism(rng, 1, 3)
        gp = random_morphism(rng, 3, 1)
        left = compose(g, f).tensor(compose(gp, fp))
        right = compose(g.tensor(gp), f.tensor(fp))
        assert left == right


def test_specialized_generator_application():
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.choice([(4, 4), (3, 5), (5, 3), (6, 4), (2, 4)])
        x = random_morphism(rng, n, m)
        for i in range(1, m):
            assert apply_e_top(i, x) == apply_matching_left(e_matching(i, m), x)
        for i in range(1, n):
            assert apply_e_bottom(i, x) == apply_matching_right(e_matching(i, n), x)


# ---------------------------------------------------------------------------
# Half-diagram composition against the term-by-term oracle
# ---------------------------------------------------------------------------


def _pairwise_compose(g, f):
    """g after f with one boundary walk per pair of terms."""
    ring = f.ring
    out = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            key, r = _matching_compose_walk(mg, mf)
            out[key] = out.get(key, 0) + cf * cg * (-2) ** r
    return TLMorphism(f.bottom, g.top, ring, ring.clean(out))


@pytest.mark.parametrize("n,m", [(0, 0), (0, 2), (2, 0), (3, 1), (4, 4), (5, 3), (6, 6)])
def test_halves_factor_each_matching(n, m):
    for x in enumerate_basis(n, m):
        lo, hi = halves(x)
        t = x.through_strands()
        assert (lo.bottom, lo.top, hi.bottom, hi.top) == (n, t, t, m)
        assert _matching_compose_walk(hi, lo) == (x, 0)
        assert all(a < n for a, b in lo.pairs)  # lo has no top arc
        assert all(b >= t for a, b in hi.pairs)  # hi has no bottom arc
        for half in (lo, hi):
            assert half is matching(half.bottom, half.top, half.pairs)
        assert halves(x) is halves(x)


RINGS = [QQ, PrimeFieldRing(2), PrimeFieldRing(3), PrimeFieldRing(5)]


@st.composite
def morphisms(draw, n, m, ring):
    basis = enumerate_basis(n, m)
    chosen = draw(st.lists(st.sampled_from(basis), max_size=8)) if basis else []
    terms = {}
    for mm in chosen:
        num = draw(st.sampled_from([-2, -1, 1, 2]))
        den = draw(st.sampled_from([1, 2, 3])) if ring is QQ else 1
        c = ring.fraction(num, den) if ring is QQ else ring.from_int(num)
        terms[mm] = terms.get(mm, ring.zero) + c
    return TLMorphism(n, m, ring, ring.clean(terms))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_matches_pairwise_oracle(data):
    ring = data.draw(st.sampled_from(RINGS))
    parity = data.draw(st.integers(0, 1))
    arity = st.sampled_from([a for a in range(7) if a % 2 == parity])
    n, k, m = data.draw(arity), data.draw(arity), data.draw(arity)
    f = data.draw(morphisms(n, k, ring))
    g = data.draw(morphisms(k, m, ring))
    assert compose(g, f) == _pairwise_compose(g, f)


def _scalars(ring):
    if ring is QQ:
        return st.builds(QQ.fraction, st.integers(-3, 3), st.integers(1, 4))
    return st.builds(ring.from_int, st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_diagram_products_match_pairwise_oracle(data):
    # d o x and x o d for one matching d, each scaled after the fact
    ring = data.draw(st.sampled_from(RINGS))
    parity = data.draw(st.integers(0, 1))
    arity = st.sampled_from([a for a in range(7) if a % 2 == parity])
    n, k, m = data.draw(arity), data.draw(arity), data.draw(arity)
    x = data.draw(morphisms(n, k, ring))
    left = data.draw(st.sampled_from(enumerate_basis(k, m)))
    right = data.draw(st.sampled_from(enumerate_basis(m, n)))
    scalar = data.draw(st.none() | _scalars(ring))
    want_left = _pairwise_compose(TLMorphism.from_matching(left, ring), x)
    want_right = _pairwise_compose(x, TLMorphism.from_matching(right, ring))
    if scalar is not None:
        want_left, want_right = want_left.scale(scalar), want_right.scale(scalar)
    assert apply_matching_left(left, x, scalar) == want_left
    assert apply_matching_right(right, x, scalar) == want_right


def test_compose_cancellation_and_zero():
    jw2 = TLMorphism(2, 2, QQ, {identity_matching(2): QQ.one,
                                e_matching(1, 2): QQ.fraction(1, 2)})
    e1 = as_morphism(e_matching(1, 2))
    assert compose(e1, jw2).is_zero()
    # e1 and e3 have different top halves; each closes a loop against the caps
    caps = as_morphism(matching(4, 0, [(0, 1), (2, 3)]))
    diff = as_morphism(e_matching(1, 4)).sub(as_morphism(e_matching(3, 4)))
    assert compose(caps, diff).is_zero()
    assert compose(caps, as_morphism(e_matching(1, 4))) == caps.scale(QQ.from_int(-2))
    assert compose(TLMorphism.zero(3, 1), TLMorphism.zero(3, 3)).is_zero()


# ---------------------------------------------------------------------------
# Annihilation scans against per-generator application
# ---------------------------------------------------------------------------


def _first_unkilled_oracle(x, start, stop, top):
    apply = apply_e_top if top else apply_e_bottom
    for i in range(max(start, 1), stop):
        if not apply(i, x).is_zero():
            return i
    return stop


def _rewire_oracle(ints, la, lb):
    """rewire_ints by splicing every partner list and interning the result
    through the validated constructor (no key arithmetic)."""
    out = {}
    for mm, c in ints.items():
        lst = list(mm.partner)
        u, v = lst[la], lst[lb]
        if u == lb:
            key, c = mm, c * -2
        else:
            lst[u], lst[v], lst[la], lst[lb] = v, u, lb, la
            pairs = [(a, b) for a, b in enumerate(lst) if b > a]
            key = matching(mm.bottom, mm.top, pairs)
        out[key] = out.get(key, 0) + c
    return out


def _scan_oracle(x, start, stop, top):
    """The per-generator scan on the spliced rewirings."""
    ring = x.ring
    ints = ring.lift(x.terms)[0]
    edge = x.bottom + x.top
    for i in range(max(start, 1), stop):
        la, lb = (edge - i, edge - i - 1) if top else (i - 1, i)
        if ring.clean(_rewire_oracle(ints, la, lb)):
            return i
    return stop


def _killed_upto_oracle(x, k, top):
    """The per-generator scan with its memo bound, on a shadow copy's slot."""
    slot = "_top_kill" if top else "_bot_kill"
    n = x.top if top else x.bottom
    apply = apply_e_top if top else apply_e_bottom
    if x.bottom == 0 and x.top == 0:
        return True
    if getattr(x, slot) >= k:
        return True
    for i in range(getattr(x, slot), min(k, n)):
        if i < 1:
            continue
        if not apply(i, x).is_zero():
            return False
        setattr(x, slot, i + 1)
    return getattr(x, slot) >= k or k > n


@st.composite
def scan_inputs(draw):
    """A morphism over Q or F_p, half of them killed by a projector on top."""
    ring = draw(st.sampled_from(RINGS))
    parity = draw(st.integers(0, 1))
    arity = st.sampled_from([a for a in range(7) if a % 2 == parity])
    n, k = draw(arity), draw(arity)
    x = draw(morphisms(n, k, ring))
    if k >= 2 and draw(st.booleans()):
        j = draw(st.integers(2, k))
        try:
            jw = jones_wenzl(j, ring)
        except NonInvertible:  # JW_j is not defined over this F_p
            j, jw = 1, jones_wenzl(1, ring)
        x = compose(tensor_with_identity(jw, k - j), x)
    if draw(st.booleans()):
        x = x.flip()  # killed on the bottom instead
    return x


@settings(max_examples=300, deadline=None)
@given(scan_inputs(), st.data())
def test_scan_matches_generator_application(x, data):
    for top in (True, False):
        n = x.top if top else x.bottom
        start = data.draw(st.integers(0, n + 1))
        stop = data.draw(st.integers(0, n))
        want = _first_unkilled_oracle(x, start, stop, top)
        assert first_unkilled(x, start, stop, top) == want
    # memo bounds through a sequence of scans, against the old per-generator
    # loop run on a copy with its own bounds
    scanned = TLMorphism(x.bottom, x.top, x.ring, x.terms)
    shadow = TLMorphism(x.bottom, x.top, x.ring, x.terms)
    for _ in range(3):
        top = data.draw(st.booleans())
        k = data.draw(st.integers(0, max(x.bottom, x.top) + 1))
        scan = top_killed_upto if top else bottom_killed_upto
        assert scan(scanned, k) == _killed_upto_oracle(shadow, k, top)
        assert (scanned._top_kill, scanned._bot_kill) == (
            shadow._top_kill, shadow._bot_kill
        )


@settings(max_examples=300, deadline=None)
@given(scan_inputs(), st.data())
def test_rewire_and_scan_match_splice_oracle(x, data):
    ring = x.ring
    ints = ring.lift(x.terms)[0]
    edge = x.bottom + x.top
    for top in (True, False):
        n = x.top if top else x.bottom
        for i in range(1, n):
            la, lb = (edge - i, edge - i - 1) if top else (i - 1, i)
            assert rewire_ints(ints, la, lb) == _rewire_oracle(ints, la, lb)
        start = data.draw(st.integers(0, n + 1))
        stop = data.draw(st.integers(0, n))
        assert first_unkilled(x, start, stop, top) == _scan_oracle(x, start, stop, top)


def test_scan_bound_after_failure():
    # x = (JW_2 (x) id_2) o e_3 = e_3 + e_1 e_3 / 2 is killed by e_1 on both
    # sides and by no other generator, so both bounds stop at 2
    jw2 = tensor_with_identity(jones_wenzl(2, QQ), 2)
    x = compose(jw2, as_morphism(e_matching(3, 4)))
    assert not top_killed_upto(x, 4)
    assert x._top_kill == 2
    assert top_killed_upto(x, 2)
    assert not bottom_killed_upto(x, 4)
    assert x._bot_kill == 2
    e3 = as_morphism(e_matching(3, 4), PrimeFieldRing(3))
    assert not top_killed_upto(e3, 3)
    assert e3._top_kill == 1  # failed at the first generator scanned


def integer_morphism(rng, n, m, max_terms=6):
    basis = enumerate_basis(n, m)
    terms = {
        mm: QQ.from_int(rng.randint(-9, 9))
        for mm in rng.sample(basis, min(max_terms, len(basis)))
    }
    return TLMorphism(n, m, QQ, QQ.clean(terms))


def reduce_to(x, ring):
    """The coefficient-wise image over F_p of a morphism over Q."""
    terms = {mm: ring.from_rational(c) for mm, c in x.terms.items()}
    return TLMorphism(x.bottom, x.top, ring, ring.clean(terms))


def test_fp_kernels_are_reductions_of_q_kernels():
    # reduction mod p is a ring map, so on integral inputs every kernel over
    # F_p must agree with the reduction of the same kernel over Q
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        F = PrimeFieldRing(p)
        for _ in range(15):
            n, mid, k = rng.choice(
                [(4, 4, 4), (3, 5, 3), (2, 4, 6), (5, 3, 5), (1, 3, 3)]
            )
            f, h = integer_morphism(rng, n, mid), integer_morphism(rng, n, mid)
            g = integer_morphism(rng, mid, k)
            fp, gp, hp = (reduce_to(y, F) for y in (f, g, h))
            s = rng.randint(-9, 9)
            sq, sp = QQ.from_int(s), F.from_int(s)

            assert compose(gp, fp) == reduce_to(compose(g, f), F)
            assert fp.add(hp) == reduce_to(f.add(h), F)
            assert fp.scale(sp) == reduce_to(f.scale(sq), F)
            assert fp.tensor(gp) == reduce_to(f.tensor(g), F)
            closed = compose(h.flip(), f)
            assert markov_trace(reduce_to(closed, F)) == F.from_rational(
                markov_trace(closed)
            )
            left = rng.choice(enumerate_basis(mid, k))
            right = rng.choice(enumerate_basis(k, n))
            for c, cp in ((None, None), (sq, sp)):
                assert apply_matching_left(left, fp, cp) == reduce_to(
                    apply_matching_left(left, f, c), F
                )
                assert apply_matching_right(right, fp, cp) == reduce_to(
                    apply_matching_right(right, f, c), F
                )
                for i in range(1, mid):
                    assert apply_e_top(i, fp, cp) == reduce_to(
                        apply_e_top(i, f, c), F
                    )
                for i in range(1, n):
                    assert apply_e_bottom(i, fp, cp) == reduce_to(
                        apply_e_bottom(i, f, c), F
                    )
            for i in range(1, mid):
                assert apply_e_top(i, fp) == apply_matching_left(
                    e_matching(i, mid), fp
                )
            for i in range(1, n):
                assert apply_e_bottom(i, fp) == apply_matching_right(
                    e_matching(i, n), fp
                )


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------


def test_close_identity_strand_makes_loop():
    closed = partial_close_right(TLMorphism.identity(2), 1)
    assert closed == TLMorphism.identity(1).scale(Fraction(-2))


def test_close_e1_gives_identity():
    e1 = as_morphism(e_matching(1, 2))
    assert partial_close_right(e1, 1) == TLMorphism.identity(1)


def _markov_trace_oracle(f):
    """Count the circles of each diagram's closure: top point bent around to
    the bottom point directly below it, label y glued to 2n-1-y."""
    ring = f.ring
    total = 2 * f.bottom
    acc = ring.zero
    for mm, c in f.terms.items():
        seen = [False] * total
        circles = 0
        for s in range(total):
            if seen[s]:
                continue
            circles += 1
            x = s
            while not seen[x]:
                seen[x] = True
                y = mm.partner[x]
                seen[y] = True
                x = total - 1 - y
        acc = acc + c * (-2) ** circles
    return ring.clean({0: acc}).get(0, ring.zero)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_markov_trace_matches_full_closure(data):
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.integers(0, 6))
    f = data.draw(morphisms(n, n, ring))
    assert markov_trace(f) == _markov_trace_oracle(f)
    assert markov_trace(TLMorphism.identity(n, ring)) == ring.from_int((-2) ** n)
    with pytest.raises(ValueError):
        markov_trace(TLMorphism.zero(n, n + 2, ring))


def test_markov_trace_cyclic():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.choice([(2, 2), (2, 4), (3, 3), (4, 2), (3, 5)])
        a = random_morphism(rng, n, m)
        b = random_morphism(rng, m, n)
        assert markov_trace(compose(a, b)) == markov_trace(compose(b, a))


def test_collapse_conjugation_is_partial_closure():
    # capping m padded strands over f: n -> k equals the m-strand right
    # closure; the pad-and-compose path is the oracle for the one-walk closure
    rng = random.Random(13)
    shapes = [(3, 3, 1), (4, 4, 2), (2, 2, 1), (3, 5, 1), (5, 3, 3), (4, 2, 2),
              (2, 6, 2), (6, 4, 3), (1, 1, 1), (2, 2, 2), (4, 4, 4), (5, 5, 5)]
    for ring in RINGS[:3]:
        for n, k, m in shapes:
            pre = matching_flip(right_collapse_matching(n, m))
            post = right_collapse_matching(k, m)
            for _ in range(6):
                f = random_morphism(rng, n, k, ring, max_terms=10)
                padded = tensor_with_identity(f, m)
                conj = apply_matching_left(post, apply_matching_right(pre, padded))
                assert partial_close_right(f, m) == conj
                if n == k == m:  # the full closure, by pad and compose
                    assert markov_trace(f) == conj.identity_coefficient()
    with pytest.raises(ValueError):
        partial_close_right(TLMorphism.identity(2), 3)
    with pytest.raises(ValueError):
        partial_close_right(TLMorphism.zero(1, 3), 2)


def test_through_strand_count():
    assert identity_matching(3).through_strands() == 3
    assert e_matching(1, 2).through_strands() == 0
    assert e_matching(1, 3).through_strands() == 1


def test_morphism_parity_zero_space():
    z = TLMorphism.zero(1, 2)
    assert compose(TLMorphism.zero(2, 3), z).is_zero()
