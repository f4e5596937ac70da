"""Jones-Wenzl projectors against the defining linear system and each other."""

import random
from fractions import Fraction

import pytest

from wenzl.jw import (
    JWCache,
    _ladder,
    apply_jw,
    close_jw,
    jones_wenzl,
    lambda_closure_scalar,
    sandwich_test,
    two_sided_recursion_step,
)
from wenzl.rings import NonInvertible, PrimeFieldRing, QQ
from wenzl.tl import (
    TLMorphism,
    apply_e_bottom,
    apply_e_top,
    apply_matching_left,
    compose,
    e_matching,
    enumerate_basis,
    identity_matching,
    markov_trace,
    matching_compose,
    matching_tensor,
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


def test_ladder_matches_oracles(jw_cache):
    """The Horner ladder against compose and the per-word ladder over Q.

    Three kinds of input: random combinations; (JW_j (x) id) o y, whose
    verified bound h = j > 1 makes the ladder skip words; and e_i o y with
    i < k, which JW_k annihilates, so the layers must cancel to zero.  The
    counts at the end keep each kind, and nonzero results, represented.
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
        want = compose(tensor_with_identity(jones_wenzl(k, QQ, jw_cache), pad), x)
        got = _ladder(k, x)
        assert got == want, (case, k, pad, nbot)
        assert got == per_word_ladder(k, x), (case, k, pad, nbot)
        if kind == 1:
            assert x._top_kill >= j
        pruned += x._top_kill > 1
        cancelled += got.is_zero()
        kept += not got.is_zero()
    assert min(pruned, cancelled, kept) >= 10, (pruned, cancelled, kept)


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
