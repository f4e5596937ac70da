"""Jones-Wenzl projectors in TL_n at loop value -2.

JW_n is the unique idempotent killed on both sides by every cup-cap
generator e_i and carrying coefficient 1 on the identity diagram.  With the
-2 loop convention its two-strand case is id + (1/2) e_1 and the recursion
coefficient is positive:

    JW_{k+1} = JW_k (x) id  +  k/(k+1) * (JW_k (x) id) o e_k o (JW_k (x) id).

Building projectors by that two-sided formula squares the Catalan-sized term
count, so construction instead uses the equivalent one-new-strand expansion

    JW_k = (JW_{k-1} (x) id) o ( id + sum_{j<k} (j/k) e_{k-1} e_{k-2} ... e_j ),

whose right factor has only k terms.  Both produce the same element (the
test suite checks them against each other and against a brute-force solve of
the defining linear system); every cache insertion re-verifies the defining
properties by :func:`is_jones_wenzl`: e_i o x == 0 by n - 1 generator scans,
and x == flip(x) by one pass, which gives x o e_i == 0 (flip fixes each e_i).

Both uses of the expansion, building JW_k and applying it, run on a
morphism's int numerators through generator rewirings (``tl.rewire_ints``):
one O(1) splice per diagram and generator, one canonicalisation of the
result, and no ladder diagram.
Building walks x o e_{k-1}, x o e_{k-1} e_{k-2}, ... with one rewiring per
step.  Applying evaluates each layer L by Horner's rule, acc <- e_j (acc +
j cur) for j = h .. L-1, which costs L - h rewirings where one generator
chain per ladder word would cost (L-h)(L-h+1)/2.

`apply_jw` composes a projector onto an arbitrary morphism without ever
multiplying two large linear combinations: if the target is already
annihilated by the relevant generators the projector acts as the identity,
and otherwise the expansion layers are applied, skipping the layer terms
that a verified annihilation bound h kills.
"""

from __future__ import annotations

from typing import Optional

from .rings import NonInvertible, NotPIntegral, PrimeFieldRing, QQ
from .tl import (
    TLMorphism,
    catalan,
    compose,
    enumerate_basis,
    flip_symmetric,
    matching_flip,
    partial_close_right,
    rewire_ints,
    tensor_with_identity,
    top_killed_upto,
)


class JWVerificationError(RuntimeError):
    """A freshly computed projector failed its defining checks (a bug)."""


def is_jones_wenzl(x: TLMorphism, n: int) -> bool:
    """The defining checks of JW_n: identity coefficient 1, e_i o x == 0 for
    1 <= i < n (n - 1 scans), and x == flip(x) (one pass), cheapest first.

    flip reverses products and fixes each e_i, so x o e_i == flip(e_i o x)
    == 0 is recorded without a bottom scan; a value whose bottom bound is
    known skips the pass.  Over any commutative ring this accepts what the
    two-sided checks did: with z = flip(x), every non-identity diagram has an
    adjacent arc on each side, and e_j o x == 0 gives cap_j o x == 0 (snake
    identity), so z o x == x and z o x == z.
    """
    if x.identity_coefficient() != x.ring.one:
        return False
    if x._bot_kill < n and not flip_symmetric(x):
        return False
    if not top_killed_upto(x, n):
        return False
    x._bot_kill = max(x._bot_kill, n)
    return True


class JWCache:
    """Memoized projectors keyed by (ring name, n).

    Every value passes :func:`is_jones_wenzl` (top scans, and a flip pass
    that stands for the bottom scans) before insertion.  Re-inserting an
    equal value is harmless, so concurrent readers and writers only ever see
    verified entries.
    """

    def __init__(self):
        self._store: dict[tuple[str, int], TLMorphism] = {}

    def get(self, ring, n: int) -> Optional[TLMorphism]:
        return self._store.get((ring.name, n))

    def insert(self, ring, n: int, value: TLMorphism) -> TLMorphism:
        if not is_jones_wenzl(value, n):
            raise JWVerificationError(f"JW_{n} over {ring.name} failed verification")
        return self._store.setdefault((ring.name, n), value)

    def __len__(self) -> int:
        return len(self._store)


GLOBAL_JW_CACHE = JWCache()


def _add_scaled(acc: dict, a: int, ints: dict) -> dict:
    """acc += a * ints on int sums, in place; returns acc."""
    get = acc.get
    for m, c in ints.items():
        acc[m] = get(m, 0) + a * c
    return acc


def jones_wenzl(n: int, ring=QQ, cache: Optional[JWCache] = None) -> TLMorphism:
    """The Jones-Wenzl projector JW_n over the given coefficient ring.

    Over the rationals this always exists.  Over F_p the projector is the
    mod-p reduction of the rational one; a coefficient with p in its
    denominator raises NonInvertible, and (by the Lucas-criterion) that
    happens exactly when some binomial C(n, k) is divisible by p.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    cache = cache if cache is not None else GLOBAL_JW_CACHE
    got = cache.get(ring, n)
    if got is not None:
        return got

    if isinstance(ring, PrimeFieldRing):
        rational = jones_wenzl(n, QQ, cache)
        try:
            nums, den = ring.canonical(*rational.ints())
        except NotPIntegral as exc:
            raise NonInvertible(
                f"JW_{n} is not defined over F_{ring.p}: {exc}"
            ) from exc
        return cache.insert(ring, n, TLMorphism._from_nums(n, n, ring, nums, den))

    if n <= 1:
        return cache.insert(ring, n, TLMorphism.identity(n, ring))
    # rational construction, one strand at a time
    for k in range(2, n + 1):
        if cache.get(ring, k) is not None:
            continue
        prev = jones_wenzl(k - 1, ring, cache)
        # k x + sum_j j (x o e_{k-1} ... e_j) over k den, x = JW_{k-1} (x) id
        x, den = tensor_with_identity(prev, 1).ints()
        acc = {m: k * c for m, c in x.items()}
        t = x
        for j in range(k - 1, 0, -1):
            t = rewire_ints(t, j - 1, j)  # t o e_j
            _add_scaled(acc, j, t)
        value = TLMorphism._from_nums(k, k, ring, *ring.canonical(acc, k * den))
        del x, t, acc  # the insertion scans need none of the build's sums
        cache.insert(ring, k, value)
    return cache.get(ring, n)  # type: ignore[return-value]


def apply_jw(
    k: int, x: TLMorphism, cache: Optional[JWCache] = None, pad: int = 0
) -> TLMorphism:
    """(JW_k (x) id_pad) o x, never multiplying two large combinations.

    Three paths, in order:

    * identity: if x is verified to be annihilated by e_1..e_{k-1} on top,
      the projector acts as the identity (every non-identity diagram of
      JW_k factors through a generator, so it kills x);
    * direct: if x is not over Q, or the cost estimate puts the pairwise
      product with the cached projector at or below the layered one,
      compose directly;
    * ladder: otherwise apply the one-new-strand expansion layer by layer
      through generator rewirings (see :func:`_ladder`).

    The estimate alone selects between the direct and the ladder path.  The
    expansion's scalars j/layer can have p in the denominator even when
    JW_k exists over F_p, so over F_p only the direct path is exact; it
    raises NonInvertible when JW_k is undefined there.
    """
    if k < 0 or pad < 0:
        raise ValueError(f"apply_jw: negative strand count (k={k}, pad={pad})")
    if x.top != k + pad:
        raise ValueError(f"apply_jw: expected top {k + pad}, got {x.top}")
    if k <= 1 or x.is_zero():
        return x
    cache = cache if cache is not None else GLOBAL_JW_CACHE
    if top_killed_upto(x, k):
        return x

    # pairwise against the cached projector, or layer by layer
    # (intermediate supports stay inside Hom(bottom, top))
    direct_cost = len(x.terms) * catalan(k)
    ladder_cost = (k * k // 2) * catalan((x.bottom + x.top) // 2)
    if x.ring is not QQ or direct_cost <= ladder_cost:
        jw = jones_wenzl(k, x.ring, cache)
        if pad:
            jw = tensor_with_identity(jw, pad)
        return compose(jw, x)
    return _ladder(k, x)


def _ladder(k: int, x: TLMorphism) -> TLMorphism:
    """(JW_k (x) id) o x over Q, layer L = k .. 2 mapping cur to
    (L cur + sum_{h<=j<L} j e_{L-1} ... e_j cur) / L (see the module notes).

    The verified bound h = x._top_kill (e_i o x == 0 for i < h) makes every
    skipped word vanish, and it drops by at most one per layer.
    """
    cur, den = x.ints()
    edge = x.bottom + x.top  # top position i-1 has label edge - i
    h = x._top_kill
    for layer in range(k, 1, -1):
        acc: dict = {}
        for j in range(max(1, h), layer):
            acc = rewire_ints(_add_scaled(acc, j, cur), edge - j, edge - j - 1)
        cur = _add_scaled(acc, layer, cur)
        den *= layer
        h = max(1, h - 1)
    return TLMorphism._from_nums(x.bottom, x.top, QQ, *QQ.canonical(cur, den))


def absorbs_certificate(x: TLMorphism) -> bool:
    """Certificate that JW_N o x = JW_N for any N >= x.top (endomorphism x).

    Requires x to be an endomorphism with identity coefficient 1 in which
    every non-identity diagram has an adjacent top arc; such a diagram is a
    scalar multiple of e_j o (itself), so any projector kills it.  The scan
    is a real per-diagram check.
    """
    if x.bottom != x.top:
        return False
    if x.identity_coefficient() != x.ring.one:
        return False
    return all(
        m.has_adjacent_top_arc() for m in x.terms if not m.is_identity()
    )


def lambda_closure_scalar(n: int, m: int):
    """The rational scalar produced by closing the rightmost m strands of JW_n:

        lambda(n, m) = (-1)^m (n+1)/(n+1-m),   0 <= m <= n.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return QQ.fraction((-1) ** m * (n + 1), n + 1 - m)


def close_jw(n: int, m: int, cache: Optional[JWCache] = None) -> tuple:
    """Close the rightmost m strands of JW_n and verify the scalar identity.

    Returns (closure, lambda(n, m)) after checking that the closure equals
    lambda(n, m) * JW_{n-m} exactly.
    """
    cache = cache if cache is not None else GLOBAL_JW_CACHE
    lam = lambda_closure_scalar(n, m)
    closed = partial_close_right(jones_wenzl(n, QQ, cache), m)
    expected = jones_wenzl(n - m, QQ, cache).scale(lam)
    if closed != expected:
        raise JWVerificationError(
            f"closure of JW_{n} by {m} strands is not {lam} * JW_{n - m}"
        )
    return closed, lam


def sandwich_test(
    n: int, m: int, cache: Optional[JWCache] = None
) -> bool:
    """Exhaustively check JW_m o D o JW_n over every basis diagram D: n -> m.

    The sandwich must vanish when n != m and be a rational multiple of JW_n
    when n == m.  Vacuously true when n+m is odd (the zero Hom space).

    Both projectors are attached with apply_jw; d o JW_n is computed as the
    flip of JW_n o flip(d), so intermediates stay inside Hom(n, m).
    """
    cache = cache if cache is not None else GLOBAL_JW_CACHE
    if (n + m) % 2:
        return True
    jw_n = jones_wenzl(n, QQ, cache)
    for d in enumerate_basis(n, m):
        flipped = TLMorphism.from_matching(matching_flip(d))
        x = apply_jw(n, flipped, cache).flip()  # d o JW_n
        s = apply_jw(m, x, cache)  # JW_m o d o JW_n
        if n != m:
            if not s.is_zero():
                return False
        else:
            if s != jw_n.scale(s.identity_coefficient()):
                return False
    return True
