"""Jones-Wenzl projectors against the defining linear system and each other."""

import itertools
import random
from fractions import Fraction

import pytest

from wenzl import jw as jw_module
from wenzl import tl as tl_module
from wenzl.cache import DiskCache
from wenzl.jw import (
    JWCache,
    _ladder,
    apply_jw,
    close_jw,
    is_jones_wenzl,
    jones_wenzl,
    lambda_closure_scalar,
    sandwich_test,
)
from wenzl.padic import lucas_jw_defined
from wenzl.pjw import Caches, rational_pjw
from wenzl.rings import NonInvertible, PrimeFieldRing, QQ
from wenzl.tl import (
    TLMorphism,
    apply_e_bottom,
    apply_e_top,
    apply_matching_left,
    bottom_killed_upto,
    compose,
    e_matching,
    enumerate_basis,
    first_unkilled,
    flip_symmetric,
    identity_matching,
    markov_trace,
    matching_compose,
    matching_flip,
    matching,
    matching_tensor,
    mirror_symmetric,
    rewire_ints,
    tensor_with_identity,
    top_killed_upto,
)


# ---------------------------------------------------------------------------
# Oracle: solve the defining system "killed by every generator on the left,
# identity coefficient 1" by Gaussian elimination over the diagram basis.
# ---------------------------------------------------------------------------


def jw_by_linear_solve(n: int) -> TLMorphism:
    basis = list(enumerate_basis(n, n))
    index = {m: idx for idx, m in enumerate(basis)}
    dim = len(basis)
    rows = []
    for i in range(1, n):
        ei = e_matching(i, n)
        by_result: dict = {}
        for m in basis:
            res, loops = matching_compose(ei, m)
            by_result.setdefault(res, {})[m] = Fraction((-2) ** loops)
        for res, coeffs in sorted(by_result.items(), key=lambda kv: kv[0].pairs):
            row = [Fraction(0)] * (dim + 1)
            for m, c in coeffs.items():
                row[index[m]] = c
            rows.append(row)
    # identity coefficient pinned to 1
    row = [Fraction(0)] * (dim + 1)
    row[index[identity_matching(n)]] = Fraction(1)
    row[dim] = Fraction(1)
    rows.append(row)

    # Gaussian elimination
    pivot_cols = []
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    # unique solution: every column is a pivot and no inconsistent row
    assert len(pivot_cols) == dim, "defining system has a free variable"
    for i in range(r, len(rows)):
        assert all(x == 0 for x in rows[i])
    sol = {}
    for i, col in enumerate(pivot_cols):
        if rows[i][dim]:
            sol[basis[col]] = rows[i][dim]
    return TLMorphism(n, n, QQ, sol)


# ---------------------------------------------------------------------------
# Oracles: the one-new-strand expansion spelled out with ladder-word
# diagrams, composed with the k-term right factor (construction) and applied
# one word at a time (the layered application).
# ---------------------------------------------------------------------------


def word_matching(k: int, j: int, pad: int):
    """The diagram e_{k-1} e_{k-2} ... e_j in TL_k, padded by pad strands."""
    cur = e_matching(k - 1, k)
    for i in range(k - 2, j - 1, -1):
        cur, loops = matching_compose(cur, e_matching(i, k))
        assert loops == 0
    return matching_tensor(cur, identity_matching(pad)) if pad else cur


def jw_by_right_factor(n: int) -> TLMorphism:
    """JW_n = (JW_{n-1} (x) id) o (id + sum_j (j/n) e_{n-1} ... e_j)."""
    jw = TLMorphism.identity(min(n, 1))
    for k in range(2, n + 1):
        right = {identity_matching(k): QQ.one}
        for j in range(1, k):
            right[word_matching(k, j, 0)] = QQ.fraction(j, k)
        jw = compose(tensor_with_identity(jw, 1), TLMorphism(k, k, QQ, right))
    return jw


def per_word_ladder(k: int, x: TLMorphism) -> TLMorphism:
    """(JW_k (x) id) o x, layer by layer, each ladder word on its own.

    Short words chain generator rewirings, long ones apply the padded word
    diagram; words below the verified bound x._top_kill are skipped.
    """
    pad = x.top - k
    h = x._top_kill
    cur = x
    for layer in range(k, 1, -1):
        adds = []
        for j in range(max(1, h), layer):
            scalar = QQ.fraction(j, layer)
            if layer - j <= 4:
                t = apply_e_top(j, cur, scalar)
                for i in range(j + 1, layer):
                    if t.is_zero():
                        break
                    t = apply_e_top(i, t)
            else:
                t = apply_matching_left(
                    word_matching(layer, j, pad + k - layer), cur, scalar
                )
            if not t.is_zero():
                adds.append(t)
        for t in adds:
            cur = cur.add(t)
        h = max(1, h - 1)
    return cur


def horner_ladder(k: int, x: TLMorphism, rewire=rewire_ints) -> TLMorphism:
    """(JW_k (x) id) o x from the top layer down: layer L = k .. 2 maps cur
    to (L cur + sum_{h<=j<L} j e_{L-1} ... e_j cur) / L by Horner's rule,
    acc <- e_j (acc + j cur) for j = h .. L-1, where the verified bound
    h = x._top_kill drops by one per layer.  Every layer runs."""
    def add_scaled(acc, a, ints):
        for m, c in ints.items():
            acc[m] = acc.get(m, 0) + a * c
        return acc

    cur, den = x.ints()
    edge = x.bottom + x.top  # top position i-1 has label edge - i
    h = x._top_kill
    for layer in range(k, 1, -1):
        acc: dict = {}
        for j in range(max(1, h), layer):
            acc = rewire(add_scaled(acc, j, cur), edge - j, edge - j - 1)
        cur = add_scaled(acc, layer, cur)
        den *= layer
        h = max(1, h - 1)
    return TLMorphism._from_nums(x.bottom, x.top, QQ, *QQ.canonical(cur, den))


@pytest.mark.parametrize("n", range(0, 9))
def test_construction_matches_right_factor_oracle(n, jw_cache):
    assert jones_wenzl(n, QQ, jw_cache) == jw_by_right_factor(n)


def _random_rational_morphism(rng, nbot, ntop, size):
    basis = enumerate_basis(nbot, ntop)
    terms = {
        mm: QQ.fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        for mm in rng.sample(basis, min(size, len(basis)))
    }
    return TLMorphism(nbot, ntop, QQ, terms)


def _assert_ladder_oracles(k, x, jw_cache, where):
    """The ladder against compose, the per-word ladder and the top-down one."""
    pad = x.top - k
    got = _ladder(k, x)
    assert got == compose(tensor_with_identity(jones_wenzl(k, QQ, jw_cache), pad), x), where
    assert got == per_word_ladder(k, x), where
    assert got == horner_ladder(k, x), where
    return got


def test_ladder_matches_oracles(jw_cache):
    """The ladder against compose, the per-word and the top-down ladder over Q.

    Three kinds of input: random combinations; (JW_j (x) id) o y, whose
    verified bound h = j > 1 lets the ladder start at layer j + 1; and
    e_i o y with i < k, which JW_k annihilates, so the layers must cancel to
    zero.  The counts at the end keep each kind, and nonzero results,
    represented.
    """
    rng = random.Random(41)
    pruned = cancelled = kept = 0
    for case in range(60):
        k, pad = rng.choice([(3, 0), (4, 0), (4, 1), (5, 0), (5, 2), (6, 0), (6, 1)])
        nbot = k + pad + rng.choice([-2, 0, 0, 2])
        y = _random_rational_morphism(rng, nbot, k + pad, rng.randint(1, 6))
        if nbot >= k and rng.random() < 0.7:
            # a diagram with k through strands on the left, which JW_k keeps
            rest = rng.choice(enumerate_basis(nbot - k, pad))
            y = y.add(TLMorphism.from_matching(
                matching_tensor(identity_matching(k), rest), coeff=QQ.fraction(1, 3)
            ))
        kind = case % 3
        if kind == 1:
            j = rng.randint(2, k - 1)
            x = compose(tensor_with_identity(jones_wenzl(j, QQ, jw_cache), k + pad - j), y)
        elif kind == 2:
            x = apply_e_top(rng.randint(1, k - 1), y)
        else:
            x = y
        if x.is_zero() or top_killed_upto(x, k):
            continue
        got = _assert_ladder_oracles(k, x, jw_cache, (case, k, pad, nbot))
        if kind == 1:
            assert x._top_kill >= j
        pruned += x._top_kill > 1
        cancelled += got.is_zero()
        kept += not got.is_zero()
    assert min(pruned, cancelled, kept) >= 10, (pruned, cancelled, kept)


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_ladder_matches_oracles_from_deep_bounds(k, jw_cache):
    # (JW_j (x) id) o y with j = k-1 or k-2 and pad 0..3: one or two layers
    # of the ladder run, on inputs much larger than the random ones
    rng = random.Random(43 + k)
    ran = 0
    for j in (k - 1, k - 2):
        for pad in range(4):
            nbot = k + pad + rng.choice([-2, 0, 2])
            y = _random_rational_morphism(rng, nbot, k + pad, 12)
            x = apply_jw(j, y, jw_cache, pad=k + pad - j)
            if x.is_zero() or top_killed_upto(x, k):
                continue
            assert x._top_kill >= j
            _assert_ladder_oracles(k, x, jw_cache, (k, j, pad, nbot))
            ran += 1
    assert ran >= 2


@pytest.fixture(scope="module")
def walk_input():
    """The largest ladder input of ``wenzl verify --p 3 --max-n 10``: the
    n = 10 minus child's walk applies JW_8 (x) id_2 to 1 430 terms that
    are verified killed by e_1 .. e_5 (bound h = 6)."""
    seen = []

    def record(k, x):
        seen.append((k, x, x._top_kill))
        return _ladder(k, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jw_module, "_ladder", record)
        rational_pjw(10, 3, Caches())
    padded = [c for c in seen if c[1].top > c[0]]  # not a build of JW_k itself
    k, x, h = max(padded, key=lambda c: len(c[1].terms) * (c[0] - c[2]))
    assert (k, x.top - k, x.bottom, len(x.terms), h) == (8, 2, 10, 1430, 6)
    return k, x


def test_ladder_matches_oracles_on_the_walk_input(walk_input, jw_cache):
    k, x = walk_input
    assert len(_assert_ladder_oracles(k, x, jw_cache, "walk").terms) == 16714


def test_ladder_rewires_less_than_half_the_top_down_terms(walk_input, monkeypatch):
    # layers R_{h+1} .. R_k from the bound up start on the small input; the
    # top-down ladder rewires sums that are already near the output's size
    k, x = walk_input
    fed = {"up": 0, "down": 0}

    def counting(side):
        def rewire(ints, la, lb):
            fed[side] += len(ints)
            return rewire_ints(ints, la, lb)
        return rewire

    monkeypatch.setattr(jw_module, "rewire_ints", counting("up"))
    assert _ladder(k, x) == horner_ladder(k, x, counting("down"))
    assert 0 < 2 * fed["up"] < fed["down"], fed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recursion_matches_linear_solve(n, jw_cache):
    assert jones_wenzl(n, QQ, jw_cache) == jw_by_linear_solve(n)


def test_jw2_value(jw_cache):
    want = TLMorphism.identity(2).add(
        TLMorphism.from_matching(e_matching(1, 2), coeff=Fraction(1, 2))
    )
    assert jones_wenzl(2, QQ, jw_cache) == want


def test_jw1_is_identity(jw_cache):
    assert jones_wenzl(1, QQ, jw_cache) == TLMorphism.identity(1)


def two_sided_recursion_step(k: int, cache: JWCache) -> TLMorphism:
    """JW_k (x) id + k/(k+1) (JW_k (x) id) o e_k o (JW_k (x) id), literally.

    The textbook recursion as an oracle: the result must equal JW_{k+1}.
    Quadratic in the term count, so only used at small k.
    """
    grown = tensor_with_identity(jones_wenzl(k, QQ, cache), 1)
    middle = compose(grown, apply_matching_left(e_matching(k, k + 1), grown))
    return grown.add(middle.scale(Fraction(k, k + 1)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_two_sided_recursion_identity(k, jw_cache):
    assert two_sided_recursion_step(k, jw_cache) == jones_wenzl(k + 1, QQ, jw_cache)


@pytest.mark.parametrize("n", range(1, 9))
def test_defining_properties(n, jw_cache):
    jw = jones_wenzl(n, QQ, jw_cache)
    assert compose(jw, jw) == jw
    assert jw.flip() == jw
    assert jw.identity_coefficient() == 1
    for i in range(1, n):
        assert apply_e_top(i, jw).is_zero()
        assert apply_e_bottom(i, jw).is_zero()


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2), (6, 4)])
def test_absorption_of_smaller_projectors(n, k, jw_cache):
    jw_n = jones_wenzl(n, QQ, jw_cache)
    grown = tensor_with_identity(jones_wenzl(k, QQ, jw_cache), n - k)
    assert compose(jw_n, grown) == jw_n
    assert compose(grown, jw_n) == jw_n


@pytest.mark.slow
def test_absorption_sweep_to_10(jw_cache):
    """JW_n absorbs JW_k (x) id on either side for every k <= n <= 10.

    Direct composition inside the size budget; above it the per-diagram
    certificate: the grown factor has identity coefficient 1 and every
    other diagram carries an adjacent arc, which a generator-killed
    projector annihilates (flip symmetry covers the other side).
    """
    from wenzl.jw import absorbs_certificate
    from wenzl.tl import catalan

    for n in range(1, 11):
        jw_n = jones_wenzl(n, QQ, jw_cache)
        assert jw_n.flip() == jw_n
        for k in range(1, n + 1):
            grown = tensor_with_identity(jones_wenzl(k, QQ, jw_cache), n - k)
            if catalan(n) * catalan(k) <= 2_500_000:
                assert compose(jw_n, grown) == jw_n, (n, k)
                assert compose(grown, jw_n) == jw_n, (n, k)
            else:
                assert absorbs_certificate(grown), (n, k)


# ---------------------------------------------------------------------------
# Closure scalars
# ---------------------------------------------------------------------------


def test_lambda_scalar_examples():
    assert lambda_closure_scalar(4, 2) == Fraction(5, 3)
    assert lambda_closure_scalar(7, 0) == 1
    for n in range(1, 9):
        assert lambda_closure_scalar(n, 1) == Fraction(-(n + 1), n)
    with pytest.raises(ValueError):
        lambda_closure_scalar(3, 4)


def test_lambda_multiplicative():
    for n in range(1, 9):
        for m in range(n + 1):
            for k in range(m + 1):
                assert lambda_closure_scalar(n, m) == lambda_closure_scalar(
                    n, k
                ) * lambda_closure_scalar(n - k, m - k)


@pytest.mark.parametrize("n", range(0, 8))
def test_closures_verify(n, jw_cache):
    for m in range(n + 1):
        closed, lam = close_jw(n, m, jw_cache)
        assert lam == lambda_closure_scalar(n, m)


def test_full_closure_scalar(jw_cache):
    for n in range(0, 9):
        assert markov_trace(jones_wenzl(n, QQ, jw_cache)) == Fraction(
            (-1) ** n * (n + 1)
        )


def test_close3_by_3(jw_cache):
    closed, lam = close_jw(3, 3, jw_cache)
    assert lam == Fraction(-4)
    assert closed == TLMorphism.identity(0).scale(Fraction(-4))


# ---------------------------------------------------------------------------
# Sandwiches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(4, 2), (3, 3), (2, 3), (0, 4), (5, 1), (4, 4)])
def test_sandwich_small(n, m, jw_cache):
    assert sandwich_test(n, m, jw_cache)


# ---------------------------------------------------------------------------
# Prime fields: reduction succeeds exactly on the Lucas-positive cases
# ---------------------------------------------------------------------------


def test_fp_failure_for_jw4_mod2(jw_cache):
    with pytest.raises(NonInvertible):
        jones_wenzl(4, PrimeFieldRing(2), jw_cache)


def test_fp_reduction_values(jw_cache):
    r = jones_wenzl(2, PrimeFieldRing(3), jw_cache)
    assert r.terms[identity_matching(2)] == 1
    assert r.terms[e_matching(1, 2)] == 2
    assert compose(r, r) == r


def test_fp_success_above_p(jw_cache):
    # defined over F_5 at n=9 even though intermediate scalars have 5s
    r = jones_wenzl(9, PrimeFieldRing(5), jw_cache)
    assert compose(r, r) == r
    for i in range(1, 9):
        assert apply_e_top(i, r).is_zero()


# ---------------------------------------------------------------------------
# apply_jw agrees with honest composition
# ---------------------------------------------------------------------------


def test_apply_jw_matches_direct(jw_cache):
    rng = random.Random(31)
    for _ in range(25):
        k, pad, nbot = rng.choice([(3, 0, 3), (4, 0, 4), (3, 1, 4), (4, 1, 3), (5, 0, 5)])
        basis = enumerate_basis(nbot, k + pad)
        if not basis:
            continue
        terms = {}
        for mm in rng.sample(basis, min(5, len(basis))):
            terms[mm] = QQ.fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        x = TLMorphism(nbot, k + pad, QQ, terms)
        direct = compose(
            tensor_with_identity(jones_wenzl(k, QQ, jw_cache), pad), x
        )
        assert apply_jw(k, x, jw_cache, pad=pad) == direct


def test_apply_jw_forces_ladder_path(jw_cache):
    # the layered path called directly over Q, then compared.  Over F_5 the
    # ladder's scalars j/layer are not all 5-integral, so apply_jw must
    # compose with the projector, which exists for k <= 4 (5 = 10_5) and not
    # for k = 5.
    rng = random.Random(37)
    for ring in (QQ, PrimeFieldRing(5)):
        for _ in range(15):
            k, pad = rng.choice([(3, 0), (4, 0), (4, 1), (5, 0)])
            basis = enumerate_basis(k + pad, k + pad)
            terms = {}
            for mm in rng.sample(basis, min(6, len(basis))):
                if ring is QQ:
                    c = QQ.fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                else:
                    c = rng.randint(1, ring.p - 1)
                terms[mm] = c
            x = TLMorphism(k + pad, k + pad, ring, terms)
            if ring is not QQ and k == 5:
                with pytest.raises(NonInvertible):
                    apply_jw(k, x, jw_cache, pad=pad)
                continue
            direct = compose(
                tensor_with_identity(jones_wenzl(k, ring, jw_cache), pad), x
            )
            if ring is QQ:
                top_killed_upto(x, k)  # the bound apply_jw hands the ladder
                assert _ladder(k, x) == direct
            else:
                assert apply_jw(k, x, jw_cache, pad=pad) == direct


def test_apply_jw_identity_on_killed_input(jw_cache):
    jw5 = jones_wenzl(5, QQ, jw_cache)
    assert apply_jw(5, jw5, jw_cache) is jw5
    grown = tensor_with_identity(jones_wenzl(4, QQ, jw_cache), 1)
    # not killed at e_4, so a genuine product happens; absorption collapses it
    assert apply_jw(5, grown, jw_cache) == jw5


def test_cache_rejects_wrong_value():
    from wenzl.jw import JWVerificationError

    cache = JWCache()
    bad = TLMorphism.identity(3)  # not killed by the generators
    with pytest.raises(JWVerificationError):
        cache.insert(QQ, 3, bad)


# ---------------------------------------------------------------------------
# The one-sided check against the two-sided one it replaced.
# ---------------------------------------------------------------------------


def _fresh(x: TLMorphism) -> TLMorphism:
    """An equal morphism carrying no verified annihilation bound."""
    return TLMorphism._from_nums(x.bottom, x.top, x.ring, *x.ints())


def _is_jones_wenzl_two_sided(x: TLMorphism, n: int) -> bool:
    """The defining checks read from both sides: identity coefficient 1,
    then e_i o x == 0 and x o e_i == 0 for every 1 <= i < n, each by a
    generator scan (on a fresh copy, so x's bounds are neither read nor set)."""
    x = _fresh(x)
    return (
        x.identity_coefficient() == x.ring.one
        and top_killed_upto(x, n)
        and bottom_killed_upto(x, n)
    )


def _both_predicates(x: TLMorphism, n: int) -> tuple[bool, bool]:
    return is_jones_wenzl(_fresh(x), n), _is_jones_wenzl_two_sided(x, n)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 3), (2, 4)])
def test_one_sided_check_agrees_on_every_unital_element(p, n, jw_cache):
    # every element of TL_n over F_p with identity coefficient 1
    ring = PrimeFieldRing(p)
    others = [m for m in enumerate_basis(n, n) if not m.is_identity()]
    ident = identity_matching(n)
    accepted = []
    for coeffs in itertools.product(range(p), repeat=len(others)):
        nums = {m: c for m, c in zip(others, coeffs) if c}
        nums[ident] = 1
        x = TLMorphism._from_nums(n, n, ring, nums, 1)
        one_sided, two_sided = _both_predicates(x, n)
        assert one_sided == two_sided, nums
        if one_sided:
            accepted.append(x)
    want = [jones_wenzl(n, ring, jw_cache)] if lucas_jw_defined(n, p) else []
    assert accepted == want


@pytest.mark.parametrize("ring", [QQ, PrimeFieldRing(2), PrimeFieldRing(3),
                                  PrimeFieldRing(5)], ids=lambda r: r.name)
def test_both_checks_accept_jw(ring, jw_cache):
    for n in range(10):
        if ring is not QQ and not lucas_jw_defined(n, ring.p):
            continue
        assert _both_predicates(jones_wenzl(n, ring, jw_cache), n) == (True, True)


def _mirrored(m):
    """The matching m: n -> n reflected left to right (e_i <-> e_{n-i})."""
    n = m.bottom

    def mu(y):
        return n - 1 - y if y < n else 3 * n - 1 - y

    return matching(n, n, [(mu(a), mu(b)) for a, b in m.pairs])


def test_both_checks_refuse_a_changed_jw8(jw_cache):
    jw8 = jones_wenzl(8, QQ, jw_cache)
    nums, den = jw8.ints()
    ident = identity_matching(8)
    asym = next(m for m in nums if matching_flip(m) is not m)
    sym = next(m for m in nums if m is not ident and matching_flip(m) is m)
    # flip-fixed diagrams that the mirror moves, and one it fixes: changed
    # by mirror pairs, only the half scans can catch these
    moved = next(m for m in nums if matching_flip(m) is m and _mirrored(m) is not m)
    fixed = next(
        m for m in nums
        if m is not ident and matching_flip(m) is m and _mirrored(m) is m
    )
    cases = [((ident,), False), ((asym,), False), ((sym,), False),
             ((moved, _mirrored(moved)), True), ((fixed,), True)]
    for ms, only_scans in cases:
        changed = dict(nums)
        for m in ms:
            changed[m] += den
        x = TLMorphism._from_nums(8, 8, QQ, *QQ.canonical(changed, den))
        assert _both_predicates(x, 8) == (False, False), ms
        if only_scans:
            assert flip_symmetric(x) and mirror_symmetric(x)
            assert first_unkilled(_fresh(x), 1, 5) < 5


def test_flip_pass_rejects_on_its_own(monkeypatch):
    # with the top scans and the mirror pass waved through, only the flip
    # pass can refuse
    monkeypatch.setattr(jw_module, "top_killed_upto", lambda x, k: True)
    monkeypatch.setattr(jw_module, "mirror_symmetric", lambda x: True)
    e1e2, _ = matching_compose(e_matching(1, 3), e_matching(2, 3))
    assert matching_flip(e1e2) is not e1e2
    asym = TLMorphism.identity(3).add(TLMorphism.from_matching(e1e2))
    assert asym.identity_coefficient() == QQ.one
    assert not is_jones_wenzl(asym, 3)
    assert is_jones_wenzl(TLMorphism.identity(3), 3)  # flip-symmetric


@pytest.mark.parametrize("n", range(3, 10))
def test_mirror_pass_rejects_on_its_own(n, jw_cache):
    # JW_{n-1} (x) id has identity coefficient 1, is flip-symmetric and is
    # killed by e_1 .. e_{n//2}, but not by e_{n-1}: only the mirror pass
    # can refuse it, with or without the kill bounds the padding carries
    x = tensor_with_identity(jones_wenzl(n - 1, QQ, jw_cache), 1)
    assert x.identity_coefficient() == QQ.one and flip_symmetric(x)
    assert first_unkilled(_fresh(x), 1, n // 2 + 1) == n // 2 + 1
    assert not mirror_symmetric(x)
    assert _both_predicates(x, n) == (False, False)
    assert x._top_kill == n - 1 and not is_jones_wenzl(x, n)


def test_insertion_scans_only_the_lower_half(monkeypatch):
    # a cold JW_10: each JW_k is scanned by e_1 .. e_{k//2} at insertion,
    # and the mirror and flip passes record both bounds as k
    scans = []
    scan = tl_module.first_unkilled

    def recording(x, start, stop):
        scans.append((x.top, start, stop))
        return scan(x, start, stop)

    monkeypatch.setattr(tl_module, "first_unkilled", recording)
    fresh = JWCache()
    jones_wenzl(10, QQ, fresh)
    assert scans == [(k, 1, k // 2 + 1) for k in range(2, 11)]
    for k in range(2, 11):
        jw = fresh.get(QQ, k)
        assert jw._top_kill == jw._bot_kill == k


@pytest.fixture
def no_bottom_scans(monkeypatch):
    """Refuse every bottom scan: bottom_killed_upto, and the flip it scans."""

    def refuse(*args, **kwargs):
        raise AssertionError("bottom generator scan")

    monkeypatch.setattr(tl_module, "bottom_killed_upto", refuse)
    monkeypatch.setattr(tl_module.TLMorphism, "flip", refuse)


def test_projectors_build_and_load_without_bottom_scans(tmp_path, no_bottom_scans):
    fresh = JWCache()
    jw9 = jones_wenzl(9, QQ, fresh)
    assert all(fresh.get(QQ, k) is not None for k in range(1, 10))
    assert jw9._bot_kill == 9
    disk = DiskCache(tmp_path)
    for ring in (QQ, PrimeFieldRing(3)):
        jw8 = jones_wenzl(8, ring, fresh)
        disk.store_morphism("jw", 0, 8, jw8)
        loaded = DiskCache(tmp_path).load_morphism("jw", ring.name, 0, 8)
        assert loaded == jw8 and loaded._bot_kill == 8


def test_inserted_projector_is_bottom_killed_without_a_scan(no_bottom_scans):
    fresh = JWCache()
    for n in range(2, 9):
        jw = jones_wenzl(n, QQ, fresh)
        assert jw._bot_kill == n
        assert bottom_killed_upto(jw, n)
