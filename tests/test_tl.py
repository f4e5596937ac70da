"""Diagram engine: enumeration against a crossing oracle, category laws."""

import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wenzl import jw, tl
from wenzl.jw import JWCache, apply_jw, jones_wenzl
from wenzl.padic import is_prime, p_support
from wenzl.pjw import Caches, rational_pjw, reduce_pjw, verify_battery
from wenzl.rings import NonInvertible, NotPIntegral, PrimeFieldRing, QQ
from wenzl.serialize import morphism_from_json, morphism_to_dict, morphism_to_json
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
    e_matching,
    bottom_killed_upto,
    enumerate_basis,
    first_unkilled,
    flip_symmetric,
    halves,
    identity_matching,
    markov_trace,
    matching,
    matching_compose,
    _matching_compose_walk,
    matching_flip,
    matching_tensor,
    mirror_symmetric,
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


def _pairs_oracle(mm):
    """The pair tuple as matchings stored it when built: (min, max) by min."""
    p = mm.partner
    return tuple((a, p[a]) for a in range(mm.bottom + mm.top) if p[a] > a)


def _small_hom_spaces(limit=10):
    return [(n, m) for n in range(limit + 1) for m in range(limit + 1 - n) if (n + m) % 2 == 0]


@pytest.mark.parametrize("n,m", _small_hom_spaces())
def test_derived_pairs_and_strands_match_stored_oracle(n, m):
    for mm in enumerate_basis(n, m):
        want = _pairs_oracle(mm)
        assert mm.pairs == want
        assert mm.pairs_json is mm.pairs_json  # text built once, then kept
        assert mm.through_strands() == sum(1 for a, b in want if a < n <= b)


@pytest.mark.parametrize("n,m", _small_hom_spaces())
def test_enumeration_sorted_by_pair_lists(n, m):
    basis = enumerate_basis(n, m)
    assert list(basis) == sorted(basis, key=_pairs_oracle)


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
    # pair lists whose key is interned: two copies of (0, 1) in Hom(2, 2)
    # key the 2 -> 0 cap, and the crossing twin keys the identity
    matching(2, 0, [(0, 1)])
    with pytest.raises(ValueError, match="used twice"):
        matching(2, 2, [[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="not planar"):
        matching(2, 2, [[0, 2], [1, 3]])


def test_equal_matchings_are_one_object():
    # equality and hashing are by identity, which interning makes exact
    assert matching(2, 2, [(0, 3), (1, 2)]) is matching(2, 2, [(1, 2), (0, 3)])
    # either end of a pair may come first
    assert matching(2, 2, [(3, 0), (2, 1)]) is identity_matching(2)
    assert matching(2, 2, [[1, 0], [3, 2]]) is e_matching(1, 2)
    # any iterable of pairs, read once
    assert matching(2, 2, ((a, 3 - a) for a in range(2))) is identity_matching(2)
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
    assert TLMorphism.zero(MAX_ARITY, 0).tensor(TLMorphism.zero(0, MAX_ARITY)).is_zero()


@pytest.mark.parametrize(
    "build",
    [
        lambda: TLMorphism.zero(-3, 5),
        lambda: TLMorphism(300, 2, QQ, {}),
        lambda: TLMorphism.from_ratios(-1, 7, QQ, {}),
        lambda: TLMorphism.zero(200, 200).tensor(TLMorphism.zero(100, 100)),
    ],
    ids=["zero", "init", "from_ratios", "tensor"],
)
def test_arity_refused_without_terms(build):
    # no matching is built to check the arity, so the morphism checks it
    with pytest.raises(ValueError, match="arity"):
        build()


def test_pair_labels_must_be_ints():
    # bools compare and index like 0 and 1, but would be kept in partner
    for pairs in ([(False, True)], [(0, True)], [(0.0, 1)]):
        with pytest.raises(ValueError, match="integers"):
            matching(2, 0, pairs)
    assert matching(2, 0, [(1, 0)]).partner == (1, 0)


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
    cup = as_morphism(matching(0, 2, [(0, 1)]))  # 0 -> 2
    cap = as_morphism(matching(2, 0, [(0, 1)]))  # 2 -> 0
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
    cc = matching_tensor(matching(2, 0, [(0, 1)]), matching(2, 0, [(0, 1)]))
    assert cc.pairs == ((0, 1), (2, 3))
    e1_in_3 = matching_tensor(e_matching(1, 2), identity_matching(1))
    assert e1_in_3 is e_matching(1, 3)


def test_nested_caps_shape():
    assert nested_caps_matching(2).pairs == ((0, 3), (1, 2))
    assert right_collapse_matching(3, 1).pairs == ((0, 5), (1, 4), (2, 3))


def test_flip_examples():
    assert matching_flip(matching(0, 2, [(0, 1)])) is matching(2, 0, [(0, 1)])
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


def _flip_oracle(x):
    """(bottom, top, partner) of x upside down: label y -> total-1-y."""
    total = x.bottom + x.top
    return x.top, x.bottom, tuple(total - 1 - y for y in reversed(x.partner))


def test_flip_key_matches_reversed_partner_oracle():
    for n, m in small_hom_spaces(12):
        for x in enumerate_basis(n, m):
            y = matching_flip(x)
            assert (y.bottom, y.top, y.partner) == _flip_oracle(x)
            assert y.uid == word_key(y.bottom, y.partner)
            assert matching_flip(y) is x


@pytest.mark.parametrize("ring", [QQ, PrimeFieldRing(3)], ids=lambda r: r.name)
def test_flip_symmetric_is_equality_with_the_flip(ring):
    rng = random.Random(5)
    for n, m in small_hom_spaces(8):
        for _ in range(6):
            f = random_morphism(rng, n, m, ring)
            assert flip_symmetric(f) == (f.flip() == f), f
            if n == m:
                sym = f.add(f.flip())
                assert flip_symmetric(sym) and sym.flip() == sym


_FLIP_MISSES = """
from wenzl import tl
from wenzl.tl import enumerate_basis, matching_flip
flips = 0
for n in range(13):
    for m in range(n % 2, 13 - n, 2):
        if m <= n:
            continue
        # Hom(m, n) is not interned yet: every flip of Hom(n, m) is new
        for x in enumerate_basis(n, m):
            before = len(tl._INTERN)
            y = matching_flip(x)
            assert len(tl._INTERN) == before + 1, (x, y)
            total = n + m
            assert (y.bottom, y.top) == (m, n)
            assert y.partner == tuple(total - 1 - v for v in reversed(x.partner))
            word = sum(1 << v for v, w in enumerate(y.partner) if w > v)
            assert y.uid == word << tl._SHIFT | m
            assert matching_flip(y) is x and matching_flip(x) is y
            flips += 1
        assert {matching_flip(x) for x in enumerate_basis(n, m)} == set(
            enumerate_basis(m, n)
        )
# a morphism's flip builds its missing matchings too (Hom(12, 2) is new)
f = tl.TLMorphism(2, 12, tl.QQ, {x: tl.QQ.one for x in enumerate_basis(2, 12)})
g = f.flip()
assert set(g.ints()[0]) == set(enumerate_basis(12, 2)) and g.flip() == f
print(flips)
"""


def test_flip_builds_new_matchings_on_a_miss():
    # a fresh process: the flips are not interned, so each builds its pairing
    env = dict(os.environ, PYTHONPATH=str(Path(tl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FLIP_MISSES],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    misses = sum(catalan((n + m) // 2) for n, m in small_hom_spaces(12) if m > n)
    assert int(proc.stdout) == misses


def _mirror_oracle(x):
    """The matching x reflected left to right, rebuilt from its partners:
    bottom label y -> bottom-1-y, top label y -> 2 bottom + top - 1 - y."""
    n, m = x.bottom, x.top

    def mu(y):
        return n - 1 - y if y < n else 2 * n + m - 1 - y

    return matching(n, m, [(mu(a), mu(b)) for a, b in x.pairs])


def _mirror(f):
    return TLMorphism(f.bottom, f.top, f.ring, {_mirror_oracle(m): c for m, c in f.items()})


def test_mirror_key_matches_rebuilt_partner_oracle():
    for n in range(9):
        for x in enumerate_basis(n, n):
            y = _mirror_oracle(x)
            (key,) = tl._mirrored_keys([x], n, n)
            assert key == y.uid == word_key(n, y.partner), x
            assert _mirror_oracle(y) is x
            # on TL_n the mirror takes e_i o x to e_{n-i} o mu(x)
            for i in range(1, n):
                ex = matching_compose(e_matching(i, n), x)
                mex = matching_compose(e_matching(n - i, n), y)
                assert _mirror_oracle(ex[0]) is mex[0] and ex[1] == mex[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mirror_symmetric_is_equality_with_the_mirror(data):
    ring = data.draw(st.sampled_from(RINGS))
    parity = data.draw(st.integers(0, 1))
    arity = st.sampled_from([a for a in range(9) if a % 2 == parity])
    n, m = data.draw(arity), data.draw(arity)
    if ring is QQ and data.draw(st.booleans()):  # the pair form
        f = TLMorphism(n, m, ring, data.draw(raw_maps(n, m, ring, wild=True)))
    else:
        f = data.draw(morphisms(n, m, ring))
    assert mirror_symmetric(f) == (_mirror(f) == f), f
    sym = f.add(_mirror(f))
    assert mirror_symmetric(sym) and _mirror(sym) == sym


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
    """g after f with one boundary walk per pair of terms, summing int
    numerators over the product of the two denominators."""
    ring = f.ring
    (f_nums, f_den), (g_nums, g_den) = f.ints(), g.ints()
    out = {}
    for mf, a in f_nums.items():
        for mg, b in g_nums.items():
            key, r = _matching_compose_walk(mg, mf)
            out[key] = out.get(key, 0) + a * b * (-2) ** r
    den = f_den * g_den
    terms = {mm: ring.element(v, den) for mm, v in out.items()}
    return TLMorphism(f.bottom, g.top, ring, terms)


def _cell_compose(g, f):
    """g after f with one outer product per pair of halves: the kernel
    before its middle sum was reassociated by lo(mu)."""
    ring = f.ring
    (f_nums, f_den), (g_nums, g_den) = f.ints(), g.ints()
    pw = tl._loop_powers(f.top // 2)
    mc = tl.matching_compose
    f_by_hi, g_by_lo = {}, {}
    for mf, c in f_nums.items():
        lo, hi = tl.halves(mf)
        f_by_hi.setdefault(hi, []).append((lo, c))
    for mg, c in g_nums.items():
        lo, hi = tl.halves(mg)
        g_by_lo.setdefault(lo, []).append((hi, c))
    cells = {}
    for hf, fs in f_by_hi.items():
        for lg, gs in g_by_lo.items():
            mu, r = mc(lg, hf)
            mu_lo, mu_hi = tl.halves(mu)
            lows, highs = {}, {}
            for lo, c in fs:
                key = mc(mu_lo, lo)[0]
                lows[key] = lows.get(key, 0) + c
            for hi, c in gs:
                key = mc(hi, mu_hi)[0]
                highs[key] = highs.get(key, 0) + c
            for lo, u in lows.items():
                if not u:
                    continue
                row = cells.setdefault(lo, {})
                for hi, v in highs.items():
                    if v:
                        row[hi] = row.get(hi, 0) + u * pw[r] * v
    out = {}
    for lo, row in cells.items():
        for hi, c in ring.canonical(row, 1)[0].items():
            out[mc(hi, lo)[0]] = c
    return TLMorphism._from_nums(
        f.bottom, g.top, ring, *ring.canonical(out, f_den * g_den)
    )


def _reassociated_compose(g, f):
    """g after f with one outer product per lo(mu), keying each g-term onto
    hi(mg) o hi(mu) once per pair of an f-group and a g-group: the kernel
    before the g side was keyed once per (lo(g), hi(mu))."""
    ring = f.ring
    (f_nums, f_den), (g_nums, g_den) = f.ints(), g.ints()
    pw = tl._loop_powers(f.top // 2)
    mc = tl.matching_compose
    f_by_hi, g_by_lo = {}, {}
    for mf, c in f_nums.items():
        lo, hi = tl.halves(mf)
        f_by_hi.setdefault(hi, []).append((lo, c))
    for mg, c in g_nums.items():
        lo, hi = tl.halves(mg)
        g_by_lo.setdefault(lo, []).append((hi, c))
    cells = {}
    for hf, fs in f_by_hi.items():
        sums = {}
        for lg, gs in g_by_lo.items():
            mu, r = mc(lg, hf)
            mu_lo, mu_hi = tl.halves(mu)
            row_sums = sums.setdefault(mu_lo, {})
            for hi, v in gs:
                key = mc(hi, mu_hi)[0]
                row_sums[key] = row_sums.get(key, 0) + pw[r] * v
        for mu_lo, row_sums in sums.items():
            highs = [(hi, v) for hi, v in row_sums.items() if v]
            if not highs:
                continue
            lows = {}
            for lo, c in fs:
                key = mc(mu_lo, lo)[0]
                lows[key] = lows.get(key, 0) + c
            for lo, u in lows.items():
                if not u:
                    continue
                row = cells.setdefault(lo, {})
                for hi, v in highs:
                    row[hi] = row.get(hi, 0) + u * v
    out = {}
    for lo, row in cells.items():
        for hi, c in ring.canonical(row, 1)[0].items():
            out[mc(hi, lo)[0]] = c
    return TLMorphism._from_nums(
        f.bottom, g.top, ring, *ring.canonical(out, f_den * g_den)
    )


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
def morphisms(draw, n, m, ring, max_terms=8):
    basis = enumerate_basis(n, m)
    chosen = draw(st.lists(st.sampled_from(basis), max_size=max_terms)) if basis else []
    terms = {}
    for mm in chosen:
        num = draw(st.sampled_from([-2, -1, 1, 2]))
        den = draw(st.sampled_from([1, 2, 3])) if ring is QQ else 1
        c = ring.fraction(num, den) if ring is QQ else ring.from_int(num)
        terms[mm] = terms.get(mm, ring.zero) + c
    return TLMorphism(n, m, ring, terms)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_matches_pairwise_oracle(data):
    ring = data.draw(st.sampled_from(RINGS))
    parity = data.draw(st.integers(0, 1))
    arity = st.sampled_from([a for a in range(7) if a % 2 == parity])
    n, k, m = data.draw(arity), data.draw(arity), data.draw(arity)
    # about 40 terms at arity 6 make several g-groups share a lo(mu)
    size = data.draw(st.sampled_from([8, 40]))
    f = data.draw(morphisms(n, k, ring, size))
    g = data.draw(morphisms(k, m, ring, size))
    assert compose(g, f) == _pairwise_compose(g, f)


def _battery_products():
    """The products the battery checks with compose, by name: (g, f) pairs."""
    cases = {}
    for k in range(1, 8):
        cases[f"jw{k}_squared"] = lambda k=k: [(jones_wenzl(k, QQ),) * 2]
    for p in (2, 3, 5):
        for n in range(1, 9):
            def total(n=n, p=p):
                t = rational_pjw(n, p).total
                return [(t, t)]

            def reduced(n=n, p=p):
                t = reduce_pjw(rational_pjw(n, p))
                return [(t, t)]

            cases[f"total_squared_p{p}_n{n}"] = total
            cases[f"reduced_squared_p{p}_n{n}"] = reduced
        # the two largest n <= 8 with a father: several components each
        mixed = [n for n in range(1, 9) if not p_support(n, p).is_adam][-2:]
        for n in mixed:
            def sandwiches(n=n, p=p):
                items = sorted(rational_pjw(n, p).terms.items())
                return [
                    (ti.q_map, tj.q_map.flip())
                    for a, (_, ti) in enumerate(items)
                    for _, tj in items[a:]
                ]

            def absorption(n=n, p=p):
                data = p_support(n, p)
                total = rational_pjw(n, p).total
                grown = tensor_with_identity(
                    rational_pjw(data.father, p).total, data.gap
                )
                return [(total, grown), (grown, total)]

            cases[f"sandwiches_p{p}_n{n}"] = sandwiches
            cases[f"absorption_p{p}_n{n}"] = absorption
    return cases


BATTERY_PRODUCTS = _battery_products()


def _counted(kernel, g, f):
    """kernel(g, f) from a cold matching memo, with its matching_compose
    calls and boundary walks counted."""
    counts = {"calls": 0, "walks": 0}
    mc, walk = tl.matching_compose, tl._matching_compose_walk

    def counted_mc(a, b):
        counts["calls"] += 1
        return mc(a, b)

    def counted_walk(a, b):
        counts["walks"] += 1
        return walk(a, b)

    with mock.patch.object(tl, "_COMPOSE_MEMO", {}), \
            mock.patch.object(tl, "_COMPOSE_LOOPS", {}), \
            mock.patch.object(tl, "matching_compose", counted_mc), \
            mock.patch.object(tl, "_matching_compose_walk", counted_walk):
        out = kernel(g, f)
    return out, counts


@pytest.mark.parametrize("case", list(BATTERY_PRODUCTS))
def test_compose_matches_cell_oracle(case):
    # the same product with no more memo lookups and no more boundary walks
    # than either earlier kernel: a work count, not a timing
    for g, f in BATTERY_PRODUCTS[case]():
        new, new_counts = _counted(compose, g, f)
        for oracle in (_cell_compose, _reassociated_compose):
            old, old_counts = _counted(oracle, g, f)
            assert new == old, oracle.__name__
            assert new_counts["calls"] <= old_counts["calls"], oracle.__name__
            assert new_counts["walks"] <= old_counts["walks"], oracle.__name__


def test_compose_keys_each_g_group_once_per_middle_top_half():
    # JW_9 squared: the g side is keyed once per (lo(g), hi(mu)), not once
    # per pair of an f-group and a g-group
    x = jones_wenzl(9, QQ)
    new, new_counts = _counted(compose, x, x)
    old, old_counts = _counted(_reassociated_compose, x, x)
    assert new == old == x
    assert 10 * new_counts["calls"] <= old_counts["calls"], (new_counts, old_counts)


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
    ints, den = _lift(ring, dict(x.items()))
    edge = x.bottom + x.top
    for i in range(max(start, 1), stop):
        la, lb = (edge - i, edge - i - 1) if top else (i - 1, i)
        if _settle(ring, _rewire_oracle(ints, la, lb), den):
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
        assert first_unkilled(x if top else x.flip(), start, stop) == want
    # memo bounds through a sequence of scans, against the old per-generator
    # loop run on a copy with its own bounds
    scanned = TLMorphism(x.bottom, x.top, x.ring, dict(x.items()))
    shadow = TLMorphism(x.bottom, x.top, x.ring, dict(x.items()))
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
    ints = x.ints()[0]
    edge = x.bottom + x.top
    for top in (True, False):
        n = x.top if top else x.bottom
        for i in range(1, n):
            la, lb = (edge - i, edge - i - 1) if top else (i - 1, i)
            assert rewire_ints(ints, la, lb) == _rewire_oracle(ints, la, lb)
        start = data.draw(st.integers(0, n + 1))
        stop = data.draw(st.integers(0, n))
        scanned = first_unkilled(x if top else x.flip(), start, stop)
        assert scanned == _scan_oracle(x, start, stop, top)


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
    return TLMorphism(n, m, QQ, terms)


def reduce_to(x, ring):
    """The coefficient-wise image over F_p of a morphism over Q."""
    terms = {mm: ring.from_rational(c) for mm, c in x.items()}
    return TLMorphism(x.bottom, x.top, ring, terms)


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


def _partial_close_walk(f, m):
    """partial_close_right by one walk per diagram, with top label n+t glued
    to bottom label n-1-t for t < m: the kernel before closures became
    boundary splices."""
    if m == 0:
        return f
    n, k = f.bottom, f.top
    ring = f.ring
    nums, den = f.ints()
    pw = tl._loop_powers(m)
    total = n + k
    glued_lo, glued_hi = n - m, n + m  # glued labels g pair with 2n-1-g
    mirror = 2 * n - 1
    shift = 2 * m  # a free top label drops by 2m in the result
    out = {}
    for mm, c in nums.items():
        pm = mm.partner
        seen = bytearray(total)
        res = [-1] * (total - shift)
        uid = n - m
        for s in itertools.chain(range(glued_lo), range(glued_hi, total)):
            if seen[s]:
                continue
            y = pm[s]
            while glued_lo <= y < glued_hi:
                seen[y] = 1
                y = mirror - y
                seen[y] = 1
                y = pm[y]
            seen[y] = 1
            a = s if s < glued_lo else s - shift
            b = y if y < glued_lo else y - shift
            res[a] = b
            res[b] = a
            uid |= tl._BIT[a]  # s < y, and the relabelling keeps the order
        loops = 0
        for s in range(glued_lo, glued_hi):
            if seen[s]:
                continue
            loops += 1
            y = s
            while not seen[y]:
                seen[y] = 1
                z = pm[y]
                seen[z] = 1
                y = mirror - z
        key = tl._INTERN.get(uid) or tl._intern(uid, n - m, k - m, res)
        out[key] = out.get(key, 0) + c * pw[loops]
    return TLMorphism._from_nums(n - m, k - m, ring, *ring.canonical(out, den))


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
    for mm, c in f.items():
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
    return acc if ring is QQ else ring.from_int(acc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_markov_trace_matches_full_closure(data):
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.sampled_from([0, *range(7)]))  # n = 0 drawn more often

    def check(f):
        want = _markov_trace_oracle(f)
        assert markov_trace(f) == want
        # the closure walk the trace used to route through
        assert partial_close_right(f, n).identity_coefficient() == want
        assert all(mm._loops is not None for mm in f.terms)

    f = data.draw(morphisms(n, n, ring))
    check(f)
    # the same matchings with other coefficients over another ring: every
    # loop count is now kept, so the trace reads it and walks nothing
    other = data.draw(st.sampled_from([r for r in RINGS if r is not ring]))
    nums = data.draw(st.lists(st.integers(-9, 9), min_size=len(f.terms),
                              max_size=len(f.terms)))
    g = TLMorphism(n, n, other, {
        mm: other.fraction(a, 7) if other is QQ else other.from_int(a)
        for mm, a in zip(f.terms, nums)
    })
    with (
        mock.patch.object(tl, "closure_loops", side_effect=AssertionError),
        mock.patch.object(tl, "partial_close_right", side_effect=AssertionError),
    ):
        assert markov_trace(g) == _markov_trace_oracle(g)
    # the pair form (den None): coefficients over unrelated denominators
    basis = enumerate_basis(n, n)
    if len(basis) >= len(WILD_DENS):
        chosen = data.draw(st.permutations(basis))[: len(WILD_DENS)]
        wild = TLMorphism(n, n, QQ, {
            mm: Fraction(j - 4 or 5, d)
            for j, (mm, d) in enumerate(zip(chosen, WILD_DENS))
        })
        assert wild.den is None
        check(wild)
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
    # closure.  The oracle pads and composes term by term, and agrees with
    # the one-walk closure; the splices must give the same on both paths
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
                conj = _pairwise_compose(
                    as_morphism(post, ring),
                    _pairwise_compose(padded, as_morphism(pre, ring)),
                )
                assert _partial_close_walk(f, m) == conj
                assert partial_close_right(f, m) == conj
                assert apply_matching_left(post, apply_matching_right(pre, padded)) == conj
                if n == k == m:  # the full closure, by pad and compose
                    assert markov_trace(f) == conj.identity_coefficient()
    with pytest.raises(ValueError):
        partial_close_right(TLMorphism.identity(2), 3)
    with pytest.raises(ValueError):
        partial_close_right(TLMorphism.zero(1, 3), 2)


# ---------------------------------------------------------------------------
# Boundary splices: single-diagram products and closures with no walk
# ---------------------------------------------------------------------------


SPLICE_HOMS = [(k, m) for k in range(11) for m in range(11 - k) if (k + m) % 2 == 0]


def _padded_jw8(width, ring):
    """JW_8 (x) id, at least ``width`` strands wide."""
    return tensor_with_identity(jones_wenzl(8, ring), max(0, width - 8))


def _splice_cases(ring):
    """(kernel, args, want) against the pairwise products: every d: k -> m
    with k + m <= 10, as d (x) id on top of JW_8 (x) id and as id (x) d below
    it; every closure of JW_8 against the one-walk closure; single diagrams
    on a pair-form morphism (over Q) and on zero morphisms."""
    cases = []
    for k, m in SPLICE_HOMS:
        for d in enumerate_basis(k, m):
            x = _padded_jw8(k, ring)
            left = matching_tensor(d, identity_matching(x.top - k))
            want = _pairwise_compose(as_morphism(left, ring), x)
            cases.append((apply_matching_left, (left, x), want))
            x = _padded_jw8(m, ring)
            right = matching_tensor(identity_matching(x.bottom - m), d)
            want = _pairwise_compose(x, as_morphism(right, ring))
            cases.append((apply_matching_right, (right, x), want))
    jw8 = jones_wenzl(8, ring)
    for m in range(9):
        cases.append((partial_close_right, (jw8, m), _partial_close_walk(jw8, m)))
    others = [TLMorphism.zero(4, 4, ring), TLMorphism.zero(2, 4, ring)]
    if ring is QQ:
        basis = enumerate_basis(4, 4)
        wild = TLMorphism(4, 4, QQ, {
            mm: Fraction(j + 1, d) for j, (mm, d) in enumerate(zip(basis, WILD_DENS))
        })
        assert wild.den is None
        others.append(wild)
    for x in others:
        for m in range(0, 7, 2):
            for d in enumerate_basis(x.top, m):
                want = _pairwise_compose(as_morphism(d, ring), x)
                cases.append((apply_matching_left, (d, x), want))
            for d in enumerate_basis(m, x.bottom):
                want = _pairwise_compose(x, as_morphism(d, ring))
                cases.append((apply_matching_right, (d, x), want))
    return cases


@pytest.mark.parametrize("ring", [QQ, PrimeFieldRing(3)], ids=["Q", "F3"])
def test_splices_match_pairwise_oracle(ring):
    # JW_8 is defined over F_3 (9 = 3^2), so both rings splice 1 430 terms
    cases = _splice_cases(ring)
    assert len(cases) > 1300
    for kernel, args, want in cases:
        assert kernel(*args) == want
    # the same with no product kernel: the splices walk and compose nothing
    with (
        mock.patch.object(tl, "compose", side_effect=AssertionError),
        mock.patch.object(tl, "matching_compose", side_effect=AssertionError),
    ):
        for kernel, args, want in cases:
            assert kernel(*args) == want


_FRESH_SPLICES = """
from wenzl import tl
from wenzl.tl import enumerate_basis, splice_ints

def audit(ints, a, bottom, top, cup=False):
    before = set(tl._INTERN)
    out = splice_ints(ints, a, bottom, top, cup)
    new = set(tl._INTERN) - before
    assert new == {m.uid for m in out} - before, (a, cup)
    for uid in new:  # each new pairing is planar and has the key it is under
        m = tl._INTERN[uid]
        p = m.partner
        assert (m.bottom, m.top, len(p)) == (bottom, top, bottom + top)
        assert all(p[p[x]] == x != p[x] for x in range(len(p)))
        assert tl._is_planar(p)
        assert uid == sum(1 << x for x, y in enumerate(p) if y > x) << tl._SHIFT | bottom
    assert splice_ints(ints, a, bottom, top, cup) == out
    assert set(tl._INTERN) - before == new  # the second time, all are found
    return len(new)

ints = {m: 1 for m in enumerate_basis(6, 6)}
print(
    audit(ints, 8, 6, 4),  # a cap on the top
    audit(ints, 1, 4, 6),  # a cup from below
    audit(ints, 5, 5, 5),  # the corner: one strand closed
    audit(ints, 9, 6, 8, cup=True),  # a new top arc
    audit(ints, 0, 8, 6, cup=True),  # a new bottom arc
)
"""


def test_splices_intern_exactly_their_new_results():
    # a fresh process, where only Hom(6, 6) is interned: each splice interns
    # its results that are new, with partner lists built on the miss, and
    # nothing else
    env = dict(os.environ, PYTHONPATH=str(Path(tl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SPLICES],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(c) for c in (42, 42, 42, 132, 132)]


# ---------------------------------------------------------------------------
# Padding by key insertion, byte-table flip keys and the one-walk enumeration,
# each against the code it replaced
# ---------------------------------------------------------------------------


def _tensor_with_identity_oracle(x, m):
    """x (x) id_m by one matching_tensor per term."""
    if m == 0:
        return x
    idm = identity_matching(m)
    nums, den = x.ints()
    out = {matching_tensor(mm, idm): c for mm, c in nums.items()}
    return TLMorphism._from_nums(x.bottom + m, x.top + m, x.ring, out, den)


def _padded_partner(mm, m):
    """mm's partner tuple with m nested strands put in at label mm.bottom."""
    b = mm.bottom
    moved = [y + 2 * m if y >= b else y for y in mm.partner]
    return tuple(moved[:b] + [b + 2 * m - 1 - j for j in range(2 * m)] + moved[b:])


def _padding_inputs(ring):
    rng = random.Random(23)
    xs = []
    for n in range(7):
        for k in range(n % 2, 7, 2):
            for _ in range(3):
                x = random_morphism(rng, n, k, ring, max_terms=12)
                top_killed_upto(x, k)  # verified bounds, to be carried over
                bottom_killed_upto(x, n)
                xs.append(x)
    # JW_j exists over F_3 for j = 1, 2, 5
    xs += [jones_wenzl(j, ring) for j in range(1, 7) if ring is QQ or j in (1, 2, 5)]
    xs.append(TLMorphism.zero(3, 5, ring))
    if ring is QQ:
        basis = enumerate_basis(4, 4)
        wild = TLMorphism(4, 4, QQ, {
            mm: Fraction(j + 1, d) for j, (mm, d) in enumerate(zip(basis, WILD_DENS))
        })
        assert wild.den is None
        xs.append(wild)
    return xs


@pytest.mark.parametrize("ring", [QQ, PrimeFieldRing(3)], ids=["Q", "F3"])
def test_padding_matches_per_term_tensor_oracle(ring):
    # every x: n -> k with n, k <= 6, projectors, a zero and (over Q) a
    # pair-form morphism, padded by m <= 3 strands
    for x in _padding_inputs(ring):
        for m in range(4):
            got = tensor_with_identity(x, m)
            assert got == _tensor_with_identity_oracle(x, m)
            assert (got.bottom, got.top) == (x.bottom + m, x.top + m)
            assert (got._top_kill, got._bot_kill) == (x._top_kill, x._bot_kill)
            assert_canonical(got)
            assert sorted(mm.partner for mm in got.terms) == sorted(
                _padded_partner(mm, m) for mm in x.terms
            )
            for mm in got.terms:
                assert mm.uid == word_key(mm.bottom, mm.partner)
    jw5 = jones_wenzl(5, ring)
    assert tensor_with_identity(jw5, 0) is jw5


_FRESH_PADDING = """
from wenzl import tl
from wenzl.tl import TLMorphism, enumerate_basis, tensor_with_identity

x = TLMorphism._from_nums(6, 6, tl.QQ, {m: 1 for m in enumerate_basis(6, 6)}, 1)
counts = []
for m in (1, 2, 3, 2):
    before = set(tl._INTERN)
    out = tensor_with_identity(x, m)
    new = set(tl._INTERN) - before
    assert new <= {mm.uid for mm in out.terms}
    for uid in new:  # each new pairing is planar and has the key it is under
        mm = tl._INTERN[uid]
        p = mm.partner
        assert (mm.bottom, mm.top, len(p)) == (6 + m, 6 + m, 12 + 2 * m)
        assert all(p[p[y]] == y != p[y] for y in range(len(p)))
        assert tl._is_planar(p)
        assert uid == sum(1 << y for y, z in enumerate(p) if z > y) << tl._SHIFT | 6 + m
    counts.append(len(new))
print(*counts)
"""


def test_padding_interns_exactly_its_new_results():
    # a fresh process, where only Hom(6, 6) is interned: padding by m interns
    # each padded matching once, with its partner list built on the miss,
    # and a second padding by the same m finds them all
    env = dict(os.environ, PYTHONPATH=str(Path(tl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PADDING],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["132", "132", "132", "0"]


def _flipped_keys_by_bin(ms, bottom, top):
    """The flipped keys by the string reversal the byte table replaced."""
    total = bottom + top
    mask, lead = (1 << total) - 1, 1 << total
    for a in ms:
        word = (a.uid >> tl._SHIFT) ^ mask | lead
        yield int(bin(word)[:2:-1] or "0", 2) << tl._SHIFT | top


def test_byte_table_flip_keys_match_bin_oracle():
    # Hom spaces of every total arity mod 8, from 0 -> 0 up to the widest key
    groups = [enumerate_basis(n, m) for n, m in small_hom_spaces(12)]
    wide = [identity_matching(MAX_ARITY), nested_caps_matching(MAX_ARITY // 2)]
    for total in range(40, 2 * MAX_ARITY + 1, 26):
        n = total // 2
        wide.append(e_matching(n // 2, n))
        wide.append(matching_flip(right_collapse_matching(n, min(n // 3, MAX_ARITY - n))))
    groups += [[w] for w in wide]
    residues = set()
    for ms in groups:
        a = ms[0]
        residues.add((a.bottom + a.top) % 8)
        got = list(tl._flipped_keys(ms, a.bottom, a.top))
        assert got == list(_flipped_keys_by_bin(ms, a.bottom, a.top))
        assert got == [matching_flip(mm).uid for mm in ms]
    assert residues == {0, 2, 4, 6}  # every even total, mod 8
    assert enumerate_basis(0, 0)[0] in groups[0] and groups[0][0].uid == 0


def _enumerate_basis_recursive(n, m):
    """All crossingless matchings n -> m by the recursive yield-from
    enumeration the one-walk enumeration replaced, sorted by partner."""
    if (n + m) % 2:
        return ()
    total = n + m
    out = []
    partner = [-1] * total
    bit = tl._BIT

    def rec(points, uid):
        if not points:
            yield uid
            return
        first = points[0]
        for idx in range(1, len(points), 2):
            mate = points[idx]
            partner[first] = mate
            partner[mate] = first
            for inner in rec(points[1:idx], uid | bit[first]):
                yield from rec(points[idx + 1 :], inner)

    for uid in rec(tuple(range(total)), n):
        out.append(tl._intern(uid, n, m, partner))
    out.sort(key=lambda mm: mm.partner)
    return tuple(out)


def test_enumeration_walk_matches_recursive_oracle():
    # the uncached walk against the recursion, the same objects in the same
    # order, for every Hom space with n + m <= 14
    for n in range(15):
        for m in range(15 - n):
            got = enumerate_basis.__wrapped__(n, m)
            assert got == _enumerate_basis_recursive(n, m)
            assert len(got) == (catalan((n + m) // 2) if (n + m) % 2 == 0 else 0)
            for mm in got:
                assert mm.uid == word_key(n, mm.partner)


def test_negative_strand_counts_refused():
    jw2, jw3 = jones_wenzl(2), jones_wenzl(3)
    with pytest.raises(ValueError):
        partial_close_right(jw3, -1)
    with pytest.raises(ValueError):
        apply_jw(3, jw2, pad=-1)
    with pytest.raises(ValueError):
        apply_jw(-1, jw2, pad=3)
    with pytest.raises(ValueError):
        tensor_with_identity(jw3, -1)
    with pytest.raises(ValueError):  # beyond the key's arity field
        tensor_with_identity(TLMorphism.zero(MAX_ARITY - 1, MAX_ARITY - 1), 2)


def test_through_strand_count():
    assert identity_matching(3).through_strands() == 3
    assert e_matching(1, 2).through_strands() == 0
    assert e_matching(1, 3).through_strands() == 1


def test_morphism_parity_zero_space():
    z = TLMorphism.zero(1, 2)
    assert compose(TLMorphism.zero(2, 3), z).is_zero()


# ---------------------------------------------------------------------------
# Reference semantics: a morphism as a map of ring elements (Fractions over
# Q, int residues over F_p), lifted to int numerators over one denominator
# for each product and settled back into one ring element per entry.  The
# engine kept morphisms this way before it kept them lifted; the kernels,
# which now read and write numerators over one denominator, must agree with
# it coefficient by coefficient.
# ---------------------------------------------------------------------------


def _lift(ring, terms, scalar=None):
    """scalar * terms as int numerators over one common denominator."""
    if ring is not QQ:
        s = 1 if scalar is None else scalar
        return {k: v * s for k, v in terms.items()}, 1
    s_num, s_den = (1, 1) if scalar is None else (scalar.numerator, scalar.denominator)
    dens = {v.denominator for v in terms.values()}
    den = lcm(*dens)
    mult = {d: s_num * (den // d) for d in dens}
    ints = {k: v.numerator * mult[v.denominator] for k, v in terms.items()}
    return ints, den * s_den


def _settle(ring, acc, den):
    """A map of int numerators over den as ring elements, zeros dropped."""
    if ring is QQ:
        return {k: Fraction(v, den) for k, v in acc.items() if v}
    return {k: r for k, v in acc.items() if (r := v % ring.p)}


@dataclass(frozen=True)
class Ref:
    bottom: int
    top: int
    ring: object
    terms: dict  # matching -> nonzero ring element


def ref_of(ring, n, m, raw):
    return Ref(n, m, ring, _settle(ring, *_lift(ring, raw)))


def ref_single(d, ring):
    return Ref(d.bottom, d.top, ring, {d: ring.one})


def ref_compose(g, f):
    ring = f.ring
    f_ints, f_den = _lift(ring, f.terms)
    g_ints, g_den = _lift(ring, g.terms)
    out = {}
    for mf, cf in f_ints.items():
        for mg, cg in g_ints.items():
            key, r = _matching_compose_walk(mg, mf)
            out[key] = out.get(key, 0) + cf * cg * (-2) ** r
    return Ref(f.bottom, g.top, ring, _settle(ring, out, f_den * g_den))


def ref_scale(a, c):
    return Ref(a.bottom, a.top, a.ring, _settle(a.ring, *_lift(a.ring, a.terms, c)))


def ref_add(a, b):
    ring = a.ring
    out = dict(a.terms)
    for k, c in b.terms.items():
        s = out.get(k, ring.zero) + c
        out[k] = s if ring is QQ else s % ring.p
    return Ref(a.bottom, a.top, ring, {k: v for k, v in out.items() if v})


def ref_tensor(a, b):
    ring = a.ring
    out = {
        matching_tensor(ma, mb): ca * cb
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
    }
    terms = _settle(ring, *_lift(ring, out))
    return Ref(a.bottom + b.bottom, a.top + b.top, ring, terms)


def ref_flip(a):
    terms = {matching_flip(m): c for m, c in a.terms.items()}
    return Ref(a.top, a.bottom, a.ring, terms)


def ref_close(f, m):
    """Pad with m strands, then cap them against the bottom and the top."""
    ring = f.ring
    padded = ref_tensor(f, ref_single(identity_matching(m), ring))
    pre = ref_single(matching_flip(right_collapse_matching(f.bottom, m)), ring)
    post = ref_single(right_collapse_matching(f.top, m), ring)
    return ref_compose(post, ref_compose(padded, pre))


def ref_trace(f):
    return ref_close(f, f.bottom).terms.get(identity_matching(0), f.ring.zero)


_REF_JW: dict = {}


def ref_jw(k, ring):
    """JW_k by the two-sided recursion over Q, reduced coefficient-wise into
    F_p (NotPIntegral where it is undefined there)."""
    if (k, ring.name) not in _REF_JW:
        if ring is not QQ:
            terms = {m: ring.from_rational(c) for m, c in ref_jw(k, QQ).terms.items()}
            terms = {m: c for m, c in terms.items() if c}
            _REF_JW[k, ring.name] = Ref(k, k, ring, terms)
        elif k <= 1:
            _REF_JW[k, ring.name] = ref_single(identity_matching(k), QQ)
        else:
            grown = ref_tensor(ref_jw(k - 1, QQ), ref_single(identity_matching(1), QQ))
            e = ref_single(e_matching(k - 1, k), QQ)
            middle = ref_compose(grown, ref_compose(e, grown))
            scaled = ref_scale(middle, Fraction(k - 1, k))
            _REF_JW[k, ring.name] = ref_add(grown, scaled)
    return _REF_JW[k, ring.name]


def assert_canonical(x):
    """x holds canonical numerators over one denominator (or, made from
    unrelated rationals, lowest-terms pairs)."""
    nums, den = x.ints()
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in nums.values())
    assert gcd(den, *nums.values()) == 1
    if x.ring is not QQ:
        assert den == 1 and all(0 < v < x.ring.p for v in nums.values())
    if x.den is None:  # the pair form: each pair in lowest terms
        assert x.ring is QQ and set(x._dens) == set(x.terms)
        dens = x._dens
        assert all(dens[m] > 0 and gcd(a, dens[m]) == 1 for m, a in x.terms.items())
    else:
        assert (x.terms, x.den) == (nums, den)


def assert_matches(x, ref, made_by_kernel=True):
    assert (x.bottom, x.top, x.ring.name) == (ref.bottom, ref.top, ref.ring.name)
    assert dict(x.items()) == ref.terms
    assert all(x.coefficient(m) == c for m, c in ref.terms.items())
    assert_canonical(x)
    if made_by_kernel:
        assert x.den is not None
    assert x == TLMorphism(ref.bottom, ref.top, ref.ring, ref.terms)


# Denominators near 10**9 whose lcm outgrows the bound of the pair form
WILD_DENS = [1_000_000_007, 1_000_000_009, 998_244_353, 1_000_000_021,
             1_000_000_033, 1_000_000_087, 1_000_000_093, 1_000_000_097]


@st.composite
def raw_maps(draw, n, m, ring, wild=False):
    """A map of ring elements with zeros and, over F_p, unreduced residues."""
    basis = enumerate_basis(n, m)
    chosen = draw(st.lists(st.sampled_from(basis), max_size=8)) if basis else []
    raw = {}
    for mm in chosen:
        num = draw(st.integers(-7, 7))
        if ring is QQ:
            dens = st.sampled_from(WILD_DENS) if wild else st.integers(1, 6)
            raw[mm] = Fraction(num, draw(dens))
        else:
            raw[mm] = num
    return raw


def _shapes(data):
    parity = data.draw(st.integers(0, 1))
    arity = st.sampled_from([a for a in range(7) if a % 2 == parity])
    return data.draw(arity), data.draw(arity), data.draw(arity)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_fraction_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    wild = ring is QQ and data.draw(st.booleans())
    n, k, m = _shapes(data)
    shapes = ((n, k), (n, k), (k, m))
    raws = [data.draw(raw_maps(a, b, ring, wild)) for a, b in shapes]
    f, h, g = (TLMorphism(a, b, ring, r) for (a, b), r in zip(shapes, raws))
    rf, rh, rg = (ref_of(ring, a, b, r) for (a, b), r in zip(shapes, raws))
    for x, ref in ((f, rf), (h, rh), (g, rg)):
        assert_matches(x, ref, made_by_kernel=False)
    s = data.draw(_scalars(ring))

    assert_matches(compose(g, f), ref_compose(rg, rf))
    assert_matches(f.add(h), ref_add(rf, rh))
    assert_matches(f.sub(h), ref_add(rf, ref_scale(rh, ring.from_int(-1))))
    assert_matches(f.scale(s), ref_scale(rf, s))
    assert_matches(f.tensor(g), ref_tensor(rf, rg))
    assert_matches(f.flip(), ref_flip(rf))
    for closed in range(min(n, k) + 1):  # closing no strand returns f itself
        want = ref_close(rf, closed)
        assert_matches(partial_close_right(f, closed), want, closed > 0)
    if n == k:
        assert markov_trace(f) == ref_trace(rf)
    for i in range(1, k):
        e = ref_single(e_matching(i, k), ring)
        assert_matches(apply_e_top(i, f, s), ref_scale(ref_compose(e, rf), s))
    for i in range(1, n):
        e = ref_single(e_matching(i, n), ring)
        assert_matches(apply_e_bottom(i, f), ref_compose(rf, e))

    # the JSON round trip, and each emitted coefficient against the reference
    doc = morphism_to_dict(f)
    coeffs = {matching(n, k, t["pairs"]): t["coeff"] for t in doc["terms"]}
    assert coeffs == {mm: ring.format(c) for mm, c in rf.terms.items()}
    back = morphism_from_json(morphism_to_json(f))
    assert back == f
    assert_matches(back, rf, made_by_kernel=False)


def _apply_jw_against_reference(k, x, pad):
    """apply_jw(k, x, pad) checked against the reference; the path taken."""
    want = ref_compose(
        ref_tensor(ref_jw(k, x.ring), ref_single(identity_matching(pad), x.ring)),
        Ref(x.bottom, x.top, x.ring, dict(x.items())),
    )
    with mock.patch.object(jw, "_ladder", wraps=jw._ladder) as ladder:
        got = apply_jw(k, x, pad=pad)
    if got is x:
        assert_matches(got, want, made_by_kernel=False)
        return "identity"
    assert_matches(got, want)
    return "ladder" if ladder.called else "direct"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_jw_matches_fraction_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    kind = data.draw(st.sampled_from(["killed", "sparse", "dense"]))
    k = data.draw(st.integers(2, 4))
    pad = data.draw(st.integers(0, 1))
    n = data.draw(st.sampled_from([a for a in range(6) if (a + k + pad) % 2 == 0]))
    try:
        ref_jw(k, ring)
    except NotPIntegral:
        with pytest.raises(NonInvertible):
            jones_wenzl(k, ring)
        return
    if kind == "dense":  # every diagram: over Q the layered cost is the smaller
        raw = {mm: ring.from_int(data.draw(st.integers(1, 5)))
               for mm in enumerate_basis(n, k + pad)}
    else:
        raw = data.draw(raw_maps(n, k + pad, ring))
    x = TLMorphism(n, k + pad, ring, raw)
    if kind == "killed":
        x = compose(tensor_with_identity(jones_wenzl(k, ring), pad), x)
    path = _apply_jw_against_reference(k, x, pad)
    if kind == "killed":
        assert path == "identity"
    elif ring is not QQ:  # a sparse x may still be killed, or zero
        assert path != "ladder"


@pytest.mark.parametrize(
    "ring,k,n,path",
    [(QQ, 3, 3, "identity"), (PrimeFieldRing(5), 4, 4, "direct"),
     (QQ, 2, 2, "direct"), (QQ, 4, 4, "ladder"), (QQ, 3, 5, "ladder")],
)
def test_apply_jw_takes_each_path(ring, k, n, path):
    if path == "identity":
        x = jones_wenzl(k, ring)
    else:
        basis = enumerate_basis(n, k)
        terms = {mm: ring.from_int(i + 2) for i, mm in enumerate(basis)}
        x = TLMorphism(n, k, ring, terms)
    assert _apply_jw_against_reference(k, x, 0) == path


def test_constructors_canonicalise():
    e1 = e_matching(1, 2)
    F3 = PrimeFieldRing(3)
    assert TLMorphism.from_matching(e1, F3, 3).is_zero()
    assert TLMorphism(2, 2, F3, {e1: 4}) == TLMorphism(2, 2, F3, {e1: 1})
    assert TLMorphism(2, 2, QQ, {e1: Fraction(0)}) == TLMorphism.zero(2, 2)
    # one denominator for all, the gcd divided out
    x = TLMorphism(2, 2, QQ, {e1: Fraction(1, 3), identity_matching(2): Fraction(1, 2)})
    assert (x.terms, x.den) == ({e1: 2, identity_matching(2): 3}, 6)
    # equal numerators over another denominator are another morphism
    half = TLMorphism.from_matching(e1, QQ, Fraction(1, 2))
    assert half.terms == TLMorphism.from_matching(e1).terms
    assert half != TLMorphism.from_matching(e1)
    assert half.scale(QQ.from_int(2)) == TLMorphism.from_matching(e1)


def test_pair_form_for_unrelated_denominators():
    assert all(is_prime(d) for d in WILD_DENS)
    basis = enumerate_basis(4, 4)
    terms = {mm: Fraction(j + 1, d) for j, (mm, d) in enumerate(zip(basis, WILD_DENS))}
    x = TLMorphism(4, 4, QQ, terms)
    assert x.den is None  # the lcm has some 240 bits, each denominator 30
    assert dict(x.items()) == terms and len(x.terms) == len(terms)
    assert_canonical(x)
    same = x.scale(QQ.one)  # a kernel result: one denominator
    assert same.den is not None and same == x and x == same
    assert morphism_from_json(morphism_to_json(same)) == x
    assert x.add(x.scale(QQ.from_int(-1))).is_zero()
    doubled = TLMorphism(4, 4, QQ, {mm: 2 * c for mm, c in terms.items()})
    assert doubled.den is None and doubled != x and x != doubled
    assert doubled == x.scale(QQ.from_int(2)) != x
    pairs = zip(basis, reversed(WILD_DENS))
    swapped = TLMorphism(
        4, 4, QQ, {mm: Fraction(j + 1, d) for j, (mm, d) in enumerate(pairs)}
    )
    assert swapped.terms == x.terms and swapped != x


def test_battery_builds_only_canonical_morphisms(monkeypatch):
    # every morphism that the p = 3 construction and battery build, from a
    # cold projector cache, is in canonical form with one denominator
    built = []
    original = TLMorphism._set

    def audited(self, *args):
        original(self, *args)
        assert self.den is not None
        assert_canonical(self)
        built.append(len(self.terms))

    monkeypatch.setattr(TLMorphism, "_set", audited)
    caches = Caches(jw=JWCache())
    for n in range(1, 9):
        assert verify_battery(rational_pjw(n, 3, caches), caches).ok
    assert len(built) > 100 and max(built) == 1430  # JW_8 among them
