"""Jones-Wenzl projectors in TL_n at loop value -2.

JW_n is the unique idempotent killed on both sides by every cup-cap
generator e_i and carrying coefficient 1 on the identity diagram.  With the
-2 loop convention its two-strand case is id + (1/2) e_1 and the recursion
coefficient is positive:

    JW_{k+1} = JW_k (x) id  +  k/(k+1) * (JW_k (x) id) o e_k o (JW_k (x) id).

Building projectors by that two-sided formula squares the Catalan-sized term
count, so construction instead uses the equivalent one-new-strand expansion,
flipped so that the new layer acts from the top:

    JW_k = R_k o (JW_{k-1} (x) id),  R_k = id + sum_{j<k} (j/k) e_j e_{j+1} ... e_{k-1},

whose left factor has only k terms.  Both produce the same element (the
test suite checks them against each other and against a brute-force solve of
the defining linear system); every cache insertion re-verifies the defining
properties by :func:`is_jones_wenzl`: floor(n/2) top scans plus flip and
mirror passes.  The scans give e_i o x == 0 for i <= n/2; x == mu(x) for the
left-right mirror mu, which takes e_i to e_{n-i}, gives the rest; and
x == flip(x) gives x o e_i == 0 (flip fixes each e_i).

Unrolled, (JW_k (x) id) o x = R_k o ... o R_{h+1} o x whenever
e_i o x == 0 for every i < h, because then JW_h o x == x (every non-identity
diagram of JW_h factors through such an e_i).  One kernel, :func:`_ladder`,
applies those layers to a morphism's int numerators through generator
rewirings (``tl.rewire_ints``): one O(1) splice per diagram and generator,
L - 1 rewirings for layer L (each word e_j ... e_{L-1} is e_j applied to
the one before it), one canonicalisation of the result, and no ladder
diagram.  Building JW_k is the one layer R_k applied to JW_{k-1} (x) id,
whose bound is k - 1.  Applying starts from the verified bound h, so its
first layers act on the small input rather than on sums near the output's
size.

`apply_jw` composes a projector onto an arbitrary morphism without ever
multiplying two large linear combinations: if the target is already
annihilated by the relevant generators the projector acts as the identity,
and otherwise it is the direct product or the layers above the target's
verified annihilation bound.
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
    mirror_symmetric,
    partial_close_right,
    rewire_ints,
    tensor_with_identity,
    top_killed_upto,
)


class JWVerificationError(RuntimeError):
    """A freshly computed projector failed its defining checks (a bug)."""


def is_jones_wenzl(x: TLMorphism, n: int) -> bool:
    """The defining checks of JW_n: identity coefficient 1, x == flip(x)
    (one pass), e_i o x == 0 for 1 <= i <= n // 2 (the top scans), and
    x == mu(x) (one pass), in that order.

    flip reverses products and fixes each e_i, so x o e_i == flip(e_i o x)
    == 0 is recorded without a bottom scan; a value whose bottom bound is
    known skips the pass.  The mirror mu is an automorphism with
    mu(e_i) == e_{n-i}, so e_{n-i} o x == mu(e_i o x) == 0 and the scans of
    the lower half stand for the rest; a value whose top bound is known
    skips both.  Over any commutative ring this accepts what the two-sided
    checks did: with z = flip(x), every non-identity diagram has an adjacent
    arc on each side, and e_j o x == 0 gives cap_j o x == 0 (snake
    identity), so z o x == x and z o x == z; and JW_n, being unique, is
    fixed by mu.
    """
    if x.identity_coefficient() != x.ring.one:
        return False
    if x._bot_kill < n and not flip_symmetric(x):
        return False
    if x._top_kill < n and not (
        top_killed_upto(x, n // 2 + 1) and mirror_symmetric(x)
    ):
        return False
    x._top_kill = max(x._top_kill, n)
    x._bot_kill = max(x._bot_kill, n)
    return True


class JWCache:
    """Memoized projectors keyed by (ring name, n).

    Every value passes :func:`is_jones_wenzl` (floor(n/2) top scans plus
    flip and mirror passes, which stand for the other scans) before
    insertion.  Re-inserting an equal value is harmless, so concurrent
    readers and writers only ever see verified entries.
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
    assert ring is QQ, ring  # the ladder's scalars j/k are rational
    # one strand at a time: JW_{k-1} (x) id carries the bound k - 1, so the
    # ladder applies the one layer R_k
    for k in range(2, n + 1):
        if cache.get(ring, k) is None:
            prev = jones_wenzl(k - 1, ring, cache)
            cache.insert(ring, k, _ladder(k, tensor_with_identity(prev, 1)))
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
    * ladder: otherwise apply the layers R_{h+1} .. R_k above the verified
      bound h through generator rewirings (see :func:`_ladder`).

    The estimate alone selects between the direct and the ladder path.  It
    prices the ladder as if all k - 1 layers ran on sums of Hom(bottom, top)
    size, and it is kept so on purpose: starting from the bound made the
    ladder cheaper without moving any call to another path, and repricing
    both paths in kernel work is a change of its own (ROADMAP item 1).  The
    expansion's scalars j/layer can have p in the denominator
    even when JW_k exists over F_p, so over F_p only the direct path is
    exact; it raises NonInvertible when JW_k is undefined there.
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
    """(JW_k (x) id) o x over Q as R_k o ... o R_{h+1} o x (see the module
    notes), where h = x._top_kill is the verified bound.

    e_i o x == 0 for every i < h, so JW_h o x == x.  Layer L maps y to
    (L y + sum_{j<L} j e_j e_{j+1} ... e_{L-1} y) / L in L - 1 rewirings:
    w <- e_j o w for j = L-1 .. 1, each w added j times.
    """
    cur, den = x.ints()
    edge = x.bottom + x.top  # top position i-1 has label edge - i
    for layer in range(x._top_kill + 1, k + 1):
        acc = {m: layer * c for m, c in cur.items()}
        w = cur
        del cur  # the layer's input goes with its first rewiring
        for j in range(layer - 1, 0, -1):
            w = rewire_ints(w, edge - j, edge - j - 1)  # e_j o w
            _add_scaled(acc, j, w)
        del w
        cur = acc
        den *= layer
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
