"""Temperley-Lieb diagram category at loop value -2.

A crossingless matching is a planar perfect pairing of the marked points on
the boundary of a rectangle: ``bottom`` points on the lower edge and ``top``
points on the upper edge.  Points are labelled along the boundary walk --
bottom edge left to right as 0..bottom-1, then top edge right to left as
bottom..bottom+top-1 -- so planarity is exactly balanced nesting of the pair
set in label order, an O(n) check, and flipping a diagram upside down is the
relabelling x -> bottom+top-1-x.

Morphisms are finite linear combinations of matchings with coefficients in an
exact ring (rationals or a prime field; see rings.py).  Composition stacks
diagrams, erases each closed loop against a factor of -2, and is extended
bilinearly.  The -2 (rather than +2) is a fixed convention here and every
downstream sign depends on it.

Matchings are interned: structurally equal diagrams are the same object, so
equality and hashing are by identity and coefficient maps hash and compare
fast.  The intern table is keyed by an int: a planar pairing is fixed by its
openers (the labels paired to a higher label), so its Dyck word, one bit per
label, together with ``bottom`` identifies it.  Every walk that builds a
matching sets the word's bits as it pairs labels and builds the partner
tuple only when the key is new; a generator rewiring changes at most four
bits, so its result key costs O(1).  All values are immutable; re-inserting
an equal matching into the intern table is harmless, so the table tolerates
concurrent use.

Composition runs through half-diagrams.  A matching x: n -> m with t through
strands factors as x == hi(x) o lo(x), where lo(x): n -> t keeps the bottom
arcs and hi(x): t -> m the top arcs (the cell structure of TL; Graham-Lehrer,
*Cellular algebras*, 1996).  In a product g o f the middle boundary only
sees hi of f's terms and lo of g's terms, so :func:`compose` walks that
boundary once per pair of distinct halves, not once per pair of terms.  The
loop-free join hi' o lo' through s strands determines its halves, so the
products are summed per cell (lo', hi') and each output matching is joined
once.

So :func:`compose` is the one product kernel: a product with a single
diagram (:func:`apply_matching_left`, :func:`apply_matching_right`) is a
compose with a one-term morphism.  Likewise :func:`partial_close_right` is the
one closure walk: it walks each diagram once with the closed points glued,
instead of padding and composing, and the Markov trace is its closure of all
strands.  Only generators have their own kernel: e_i rewires two labels in
place and needs no boundary walk.

Checks that only ask whether something vanishes build no morphism: the
generator-annihilation scans lift x to int numerators once and test the int
sums of each rewiring.  The scans sum under the rewired int keys and look no
matching up.
"""

from __future__ import annotations

from functools import lru_cache
import itertools
from typing import Iterable

from .rings import QQ


def catalan(k: int) -> int:
    """The k-th Catalan number; dim Hom(n, m) = catalan((n+m)/2)."""
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


class CrossinglessMatching:
    """An interned planar pairing of ``bottom`` + ``top`` boundary points.

    ``partner`` maps each boundary label to its mate; ``pairs`` lists the
    pairs as (min, max) sorted by min, which is the canonical serialized
    form.  ``uid`` is the structural key: the Dyck word of the pairing
    (bit x set iff ``partner[x] > x``) shifted above ``bottom``.  A planar
    pairing is fixed by its set of openers and the word's popcount is half
    the point count, so the key is injective on (bottom, top, pairing); it
    keys the intern table and the composition memo.  Use :func:`matching`
    (or the generator helpers below) to obtain instances; the raw
    constructor skips validation.  Equal matchings are one object, so
    equality and hashing are by identity.
    """

    __slots__ = ("bottom", "top", "partner", "pairs", "uid", "_halves", "__weakref__")

    def __init__(self, bottom: int, top: int, partner: tuple[int, ...], uid: int):
        self.bottom = bottom
        self.top = top
        self.partner = partner
        self.pairs = tuple(
            (a, partner[a]) for a in range(bottom + top) if partner[a] > a
        )
        self.uid = uid
        self._halves = None

    def __repr__(self) -> str:
        return f"Matching({self.bottom}->{self.top}; {list(self.pairs)})"

    def is_identity(self) -> bool:
        # every bottom point opens an arc: the fully nested word
        n = self.bottom
        return n == self.top and self.uid == ((1 << n) - 1) << _SHIFT | n

    def has_adjacent_top_arc(self) -> bool:
        """True iff two horizontally adjacent top points are paired.

        Non-identity endomorphism diagrams always have one; its presence is
        the per-diagram certificate behind projector absorption.  A top
        label that opens an arc pairs with a higher, hence top, label, and
        the innermost arc under that one joins adjacent points; so this is
        any opener bit among the top labels.
        """
        return self.uid >> (_SHIFT + self.bottom) != 0

    def through_strands(self) -> int:
        n = self.bottom
        return sum(1 for a, b in self.pairs if a < n <= b)


# A key holds ``bottom`` in its low _SHIFT bits and the Dyck word above
# them, so both arities are bounded by MAX_ARITY (a flip swaps them).
_SHIFT = 8
MAX_ARITY = (1 << _SHIFT) - 1
_BIT = [1 << (x + _SHIFT) for x in range(2 * MAX_ARITY)]  # label x's key bit

_INTERN: dict[int, CrossinglessMatching] = {}  # uid -> the matching


def _check_arity(bottom: int, top: int) -> None:
    if not (0 <= bottom <= MAX_ARITY and 0 <= top <= MAX_ARITY):
        raise ValueError(f"arity {bottom}->{top} outside 0..{MAX_ARITY}")


def _intern(uid: int, bottom: int, top: int, partner) -> CrossinglessMatching:
    """The matching keyed uid; partner is read only when it is new."""
    m = _INTERN.get(uid)
    if m is None:
        m = _INTERN[uid] = CrossinglessMatching(bottom, top, tuple(partner), uid)
    return m


def _from_partner(bottom: int, top: int, partner) -> CrossinglessMatching:
    """The matching of a planar partner sequence (planarity is not checked)."""
    _check_arity(bottom, top)
    uid = bottom
    for x, y in enumerate(partner):
        if y > x:
            uid |= _BIT[x]
    return _intern(uid, bottom, top, partner)


def _is_planar(partner: tuple[int, ...]) -> bool:
    # balanced nesting in boundary label order
    stack: list[int] = []
    for x, y in enumerate(partner):
        if y > x:
            stack.append(x)
        else:
            if not stack or stack[-1] != y:
                return False
            stack.pop()
    return not stack


def matching(
    bottom: int, top: int, pairs: Iterable[tuple[int, int]]
) -> CrossinglessMatching:
    """Validated public constructor from a pair list."""
    _check_arity(bottom, top)
    total = bottom + top
    if total % 2:
        raise ValueError("bottom + top must be even")
    partner = [-1] * total
    count = 0
    bit = _BIT
    uid = bottom
    for a, b in pairs:
        if a == b or not (0 <= a < total and 0 <= b < total):
            raise ValueError(f"bad pair ({a}, {b})")
        if partner[a] != -1 or partner[b] != -1:
            raise ValueError(f"point used twice in pair ({a}, {b})")
        partner[a] = b
        partner[b] = a
        uid |= bit[a if a < b else b]
        count += 1
    if count * 2 != total:  # each pair filled two empty points
        raise ValueError("pairs must form a perfect matching")
    partner_t = tuple(partner)
    known = _INTERN.get(uid)
    if known is not None:
        # the word fixes only a planar pairing: a crossing one with the
        # same openers (such as {(0,2),(1,3)} against {(0,3),(1,2)}) differs
        if known.partner != partner_t:
            raise ValueError("pairing is not planar")
        return known
    if not _is_planar(partner_t):
        raise ValueError("pairing is not planar")
    return _intern(uid, bottom, top, partner_t)


# ---------------------------------------------------------------------------
# Generator diagrams
# ---------------------------------------------------------------------------


def identity_matching(n: int) -> CrossinglessMatching:
    return _from_partner(n, n, [2 * n - 1 - i for i in range(2 * n)])


def e_matching(i: int, n: int) -> CrossinglessMatching:
    """The cup-cap generator joining strands i, i+1 (1-indexed, i < n)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"e_{i} undefined in TL_{n}")
    partner = [2 * n - 1 - j for j in range(2 * n)]
    partner[i - 1], partner[i] = i, i - 1
    a, b = 2 * n - 1 - i, 2 * n - i
    partner[a], partner[b] = b, a
    return _from_partner(n, n, partner)


def cup_matching() -> CrossinglessMatching:
    return _from_partner(0, 2, (1, 0))


def cap_matching() -> CrossinglessMatching:
    return _from_partner(2, 0, (1, 0))


def nested_caps_matching(m: int) -> CrossinglessMatching:
    """2m -> 0, pairing point j with 2m-1-j (outermost arc first)."""
    return _from_partner(2 * m, 0, [2 * m - 1 - j for j in range(2 * m)])


def right_collapse_matching(width: int, m: int) -> CrossinglessMatching:
    """width+m -> width-m: identity on the left, nested caps on the last 2m.

    Caps pair bottom points width-m+q and width+m-1-q for q < m.
    """
    if m < 0 or width - m < 0:
        raise ValueError("need 0 <= m <= width")
    return matching_tensor(identity_matching(width - m), nested_caps_matching(m))


# ---------------------------------------------------------------------------
# Matching-level operations
# ---------------------------------------------------------------------------


_COMPOSE_MEMO: dict = {}  # (g.uid, f.uid) -> resulting matching
_COMPOSE_LOOPS: dict = {}  # the same keys -> loop count, where nonzero
_COMPOSE_MEMO_CAP = 4_000_000


def matching_compose(
    g: CrossinglessMatching, f: CrossinglessMatching
) -> tuple[CrossinglessMatching, int]:
    """Stack g on top of f; return (resulting matching, removed loop count).

    Results are memoized, because composition pairs recur heavily: in
    single-diagram scans, and in :func:`compose` as pairs of middle halves,
    the half products around them and the loop-free joins hi o lo.  The
    memo holds no container of its own per entry: keys are pairs of uids
    (the structural int keys, which hash without a Python call) and values
    are the interned result matchings, so millions of entries add nothing
    for the cyclic garbage collector to track.
    """
    key = (g.uid, f.uid)
    hit = _COMPOSE_MEMO.get(key)
    if hit is not None:
        return hit, _COMPOSE_LOOPS.get(key, 0)
    out = _matching_compose_walk(g, f)
    if len(_COMPOSE_MEMO) >= _COMPOSE_MEMO_CAP:
        _COMPOSE_MEMO.clear()
        _COMPOSE_LOOPS.clear()
    _COMPOSE_MEMO[key] = out[0]
    if out[1]:
        _COMPOSE_LOOPS[key] = out[1]
    return out


def _matching_compose_walk(
    g: CrossinglessMatching, f: CrossinglessMatching
) -> tuple[CrossinglessMatching, int]:
    nb = f.bottom
    mid = f.top
    nt = g.top
    if g.bottom != mid:
        raise ValueError(f"arity mismatch: {f.top} vs {g.bottom}")
    pf = f.partner
    pg = g.partner
    base = nb + mid  # f labels < base; f top label u glues to g label base-1-u
    total = nb + nt
    res = [-1] * total
    seen = [False] * mid
    bit = _BIT
    uid = nb  # the result's key, one opener bit per pair

    for start in range(total):
        if res[start] >= 0:
            continue
        if start < nb:
            in_f, lab = True, start
        else:
            in_f, lab = False, mid + (start - nb)
        while True:
            if in_f:
                nxt = pf[lab]
                if nxt < nb:
                    end = nxt
                    break
                seen[nxt - nb] = True
                in_f, lab = False, base - 1 - nxt
            else:
                nxt = pg[lab]
                if nxt >= mid:
                    end = nb + (nxt - mid)
                    break
                lab = base - 1 - nxt
                seen[lab - nb] = True
                in_f = True
        res[start] = end
        res[end] = start
        uid |= bit[start]

    loops = 0
    for u0 in range(nb, base):
        if seen[u0 - nb]:
            continue
        loops += 1
        lab = u0
        while True:
            seen[lab - nb] = True
            nxt = pf[lab]
            seen[nxt - nb] = True
            gn = pg[base - 1 - nxt]
            lab = base - 1 - gn
            if lab == u0:
                break
    return _intern(uid, nb, nt, res), loops


def matching_tensor(
    a: CrossinglessMatching, b: CrossinglessMatching
) -> CrossinglessMatching:
    """Horizontal juxtaposition, a on the left.

    The key comes from the two keys alone: a's top labels move up by
    d = n2 + m2 and b's labels by n1, so the pairing is built only when new.
    """
    n1, m1 = a.bottom, a.top
    n2, m2 = b.bottom, b.top
    _check_arity(n1 + n2, m1 + m2)
    d = n2 + m2
    wa, wb = a.uid >> _SHIFT, b.uid >> _SHIFT
    word = (wa & ((1 << n1) - 1)) | (wb << n1) | ((wa >> n1) << (n1 + d))
    uid = (word << _SHIFT) | (n1 + n2)
    hit = _INTERN.get(uid)
    if hit is not None:
        return hit
    ra = [y if y < n1 else y + d for y in a.partner]
    res = ra[:n1] + [y + n1 for y in b.partner] + ra[n1:]
    return _intern(uid, n1 + n2, m1 + m2, res)


def matching_flip(a: CrossinglessMatching) -> CrossinglessMatching:
    """Turn the diagram upside down (bottom and top swap)."""
    total = a.bottom + a.top
    res = [total - 1 - y for y in reversed(a.partner)]
    return _from_partner(a.top, a.bottom, res)


def halves(
    x: CrossinglessMatching,
) -> tuple[CrossinglessMatching, CrossinglessMatching]:
    """The factorization x == hi o lo through x's t through strands.

    ``lo``: bottom -> t keeps x's bottom arcs and carries each through strand
    straight up; ``hi``: t -> top keeps x's top arcs.  The composite closes no
    loop.  Computed once per matching and kept on the instance.  lo's key is
    x's bottom bits (lo's top points all close arcs) and hi's key opens at
    every bottom point and copies x's top bits.
    """
    h = x._halves
    if h is None:
        n, m = x.bottom, x.top
        p = x.partner
        feet = [a for a in range(n) if p[a] >= n]  # through strands, left to right
        t = len(feet)
        lo = [-1] * (n + t)
        hi = [-1] * (t + m)
        for a in range(n):
            if p[a] < n:
                lo[a] = p[a]
        for b in range(n, n + m):
            if p[b] >= n:
                hi[b - n + t] = p[b] - n + t
        for s, a in enumerate(feet):
            lo[a], lo[n + t - 1 - s] = n + t - 1 - s, a
            hi[s], hi[p[a] - n + t] = p[a] - n + t, s
        lo_uid = x.uid & ((1 << (_SHIFT + n)) - 1)
        hi_word = (x.uid >> (_SHIFT + n)) << t | ((1 << t) - 1)
        h = x._halves = (
            _intern(lo_uid, n, t, lo),
            _intern(hi_word << _SHIFT | t, t, m, hi),
        )
    return h


@lru_cache(maxsize=None)
def enumerate_basis(n: int, m: int) -> tuple[CrossinglessMatching, ...]:
    """All crossingless matchings n -> m, sorted by pair list.

    Empty when n+m is odd (the Hom space is zero).  Size catalan((n+m)/2)
    otherwise.
    """
    if (n + m) % 2:
        return ()
    _check_arity(n, m)
    total = n + m
    out: list[CrossinglessMatching] = []
    partner = [-1] * total
    bit = _BIT

    def rec(points: tuple[int, ...], uid: int):
        # pairs up points, yielding the uid of each completion
        if not points:
            yield uid
            return
        first = points[0]
        for idx in range(1, len(points), 2):
            mate = points[idx]
            partner[first] = mate
            partner[mate] = first
            inside = points[1:idx]
            outside = points[idx + 1 :]
            for inner in rec(inside, uid | bit[first]):
                yield from rec(outside, inner)

    for uid in rec(tuple(range(total)), n):
        out.append(_intern(uid, n, m, partner))
    out.sort(key=lambda mm: mm.pairs)
    return tuple(out)


# ---------------------------------------------------------------------------
# Morphisms: ring-linear combinations of matchings
# ---------------------------------------------------------------------------


class TLMorphism:
    """A sparse linear combination of crossingless matchings n -> m.

    ``terms`` maps matchings to nonzero coefficients; the zero morphism has
    an empty map.  Instances are treated as immutable values (`_top_kill` and
    `_bot_kill` only memoize verified generator-annihilation bounds and never
    change the value).
    """

    __slots__ = ("bottom", "top", "ring", "terms", "_top_kill", "_bot_kill")

    def __init__(self, bottom: int, top: int, ring, terms: dict):
        self.bottom = bottom
        self.top = top
        self.ring = ring
        self.terms = terms
        self._top_kill = 1
        self._bot_kill = 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(bottom: int, top: int, ring=QQ) -> "TLMorphism":
        return TLMorphism(bottom, top, ring, {})

    @staticmethod
    def from_matching(m: CrossinglessMatching, ring=QQ, coeff=None) -> "TLMorphism":
        c = ring.one if coeff is None else coeff
        terms = {m: c} if c else {}
        return TLMorphism(m.bottom, m.top, ring, terms)

    @staticmethod
    def identity(n: int, ring=QQ) -> "TLMorphism":
        return TLMorphism.from_matching(identity_matching(n), ring)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: CrossinglessMatching):
        return self.terms.get(m, self.ring.zero)

    def identity_coefficient(self):
        if self.bottom != self.top:
            raise ValueError("identity coefficient needs an endomorphism")
        return self.terms.get(identity_matching(self.bottom), self.ring.zero)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TLMorphism)
            and self.bottom == other.bottom
            and self.top == other.top
            and self.ring.name == other.ring.name
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return (
            f"TLMorphism({self.bottom}->{self.top}, ring={self.ring.name}, "
            f"{len(self.terms)} terms)"
        )

    # -- linear structure ----------------------------------------------------

    def add(self, other: "TLMorphism") -> "TLMorphism":
        self._check_like(other)
        reduce = self.ring.reduce
        out = dict(self.terms)
        get = out.get
        # normalise only the touched entries: other is often much smaller
        for k, c in other.terms.items():
            prev = get(k)
            s = reduce(c if prev is None else prev + c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TLMorphism(self.bottom, self.top, self.ring, out)

    def sub(self, other: "TLMorphism") -> "TLMorphism":
        return self.add(other.scale(self.ring.from_int(-1)))

    def scale(self, c) -> "TLMorphism":
        ring = self.ring
        out = ring.settle(*ring.lift(self.terms, c))
        return TLMorphism(self.bottom, self.top, ring, out)

    def _check_like(self, other: "TLMorphism") -> None:
        if (
            self.bottom != other.bottom
            or self.top != other.top
            or self.ring.name != other.ring.name
        ):
            raise ValueError("morphisms live in different Hom spaces")

    # -- categorical structure -----------------------------------------------

    def compose(self, f: "TLMorphism") -> "TLMorphism":
        """self after f (stack self on top of f)."""
        return compose(self, f)

    def tensor(self, other: "TLMorphism") -> "TLMorphism":
        if self.ring.name != other.ring.name:
            raise ValueError("tensor needs a common coefficient ring")
        out = {
            matching_tensor(ma, mb): ca * cb
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items()
        }
        return TLMorphism(
            self.bottom + other.bottom, self.top + other.top, self.ring,
            self.ring.clean(out),
        )

    def flip(self) -> "TLMorphism":
        out = {matching_flip(m): c for m, c in self.terms.items()}
        res = TLMorphism(self.top, self.bottom, self.ring, out)
        res._top_kill, res._bot_kill = self._bot_kill, self._top_kill
        return res


def _loop_powers(upto: int) -> list[int]:
    return [(-2) ** r for r in range(upto + 1)]


def compose(g: TLMorphism, f: TLMorphism) -> TLMorphism:
    """Bilinear composition g after f, with each erased loop worth -2.

    Each term factors through its halves, so mg o mf is
    hi(mg) o [lo(mg) o hi(mf)] o lo(mf), and only the middle product mu can
    close loops.  Terms are grouped by the half that meets the middle, mu is
    walked once per pair of groups, and each group's coefficients are summed
    onto lo' = lo(mu) o lo(mf) and hi' = hi(mg) o hi(mu).  The products are
    summed by cell (lo', hi') over all pairs of groups, and each nonzero cell
    is joined into its output matching hi' o lo' exactly once.
    """
    if f.top != g.bottom:
        raise ValueError(f"arity mismatch: {f}.top != {g}.bottom")
    if f.ring.name != g.ring.name:
        raise ValueError("composition needs a common coefficient ring")
    ring = f.ring
    f_ints, f_den = ring.lift(f.terms)
    g_ints, g_den = ring.lift(g.terms)
    pw = _loop_powers(f.top // 2)
    mc = matching_compose
    f_by_hi: dict = {}  # hi(f-term) -> [(lo(f-term), coefficient)]
    for mf, c in f_ints.items():
        lo, hi = mf._halves or halves(mf)
        f_by_hi.setdefault(hi, []).append((lo, c))
    g_by_lo: dict = {}  # lo(g-term) -> [(hi(g-term), coefficient)]
    for mg, c in g_ints.items():
        lo, hi = mg._halves or halves(mg)
        g_by_lo.setdefault(lo, []).append((hi, c))
    # cells[lo'][hi'] sums u * v for the loop-free join hi' o lo'.  A join
    # through s strands determines its halves (lo' == lo(join), hi' ==
    # hi(join)), so (lo', hi') -> hi' o lo' is injective: no two cells meet
    # in one output matching, and each cell is joined once, after summing.
    cells: dict = {}
    for hf, fs in f_by_hi.items():
        for lg, gs in g_by_lo.items():
            mu, r = mc(lg, hf)  # the one boundary walk of this pair of halves
            mu_lo, mu_hi = mu._halves or halves(mu)
            lows: dict = {}
            for lo, c in fs:
                key = mc(mu_lo, lo)[0]
                lows[key] = lows.get(key, 0) + c
            highs: dict = {}
            for hi, c in gs:
                key = mc(hi, mu_hi)[0]
                highs[key] = highs.get(key, 0) + c
            w = pw[r]
            for lo, u in lows.items():
                if not u:
                    continue
                u *= w
                row = cells.get(lo)
                if row is None:
                    row = cells[lo] = {}
                get = row.get
                for hi, v in highs.items():
                    if v:
                        prev = get(hi)
                        row[hi] = u * v if prev is None else prev + u * v
    out: dict = {}
    den = f_den * g_den
    for lo, row in cells.items():
        for hi, c in ring.settle(row, den).items():
            out[mc(hi, lo)[0]] = c
    return TLMorphism(f.bottom, g.top, ring, out)


def apply_matching_left(
    d: CrossinglessMatching, x: TLMorphism, scalar=None
) -> TLMorphism:
    """scalar * (d o x) for a single matching d, through :func:`compose`."""
    return compose(TLMorphism.from_matching(d, x.ring, scalar), x)


def apply_matching_right(
    d: CrossinglessMatching, x: TLMorphism, scalar=None
) -> TLMorphism:
    """scalar * (x o d) for a single matching d, through :func:`compose`."""
    return compose(x, TLMorphism.from_matching(d, x.ring, scalar))


def tensor_with_identity(x: TLMorphism, m: int) -> TLMorphism:
    """x tensor id_m without materializing the identity morphism."""
    if m == 0:
        return x
    idm = identity_matching(m)
    out = {matching_tensor(mm, idm): c for mm, c in x.terms.items()}
    res = TLMorphism(x.bottom + m, x.top + m, x.ring, out)
    res._top_kill = x._top_kill
    res._bot_kill = x._bot_kill
    return res


def partial_close_right(f: TLMorphism, m: int) -> TLMorphism:
    """Close the rightmost m strands of f around its right side.

    The top-right m points are bent over to the bottom-right m points with
    nested arcs, so an n->k morphism becomes (n-m)->(k-m).  Closing a through
    strand of the identity creates a closed loop and hence a factor -2; the
    m = bottom = top case is the full Markov closure, which
    :func:`markov_trace` reads off the empty diagram.

    Each diagram is walked once with its top label n+t glued to its bottom
    label n-1-t for t < m: the walk joins the free ends and counts the closed
    loops, the int sums are settled once, and nothing is padded or composed.
    """
    if m == 0:
        return f
    n, k = f.bottom, f.top
    if m > n or m > k:
        raise ValueError(f"cannot close {m} strands of {n}->{k}")
    ring = f.ring
    ints, den = ring.lift(f.terms)
    pw = _loop_powers(m)
    total = n + k
    glued_lo, glued_hi = n - m, n + m  # glued labels g pair with 2n-1-g
    mirror = 2 * n - 1
    shift = 2 * m  # a free top label drops by 2m in the result
    bit = _BIT
    find = _INTERN.get
    out: dict = {}
    get = out.get
    for mm, c in ints.items():
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
            uid |= bit[a]  # s < y, and the relabelling keeps the order
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
        key = find(uid) or _intern(uid, n - m, k - m, res)
        if loops:
            c = c * pw[loops]
        prev = get(key)
        out[key] = c if prev is None else prev + c
    return TLMorphism(n - m, k - m, ring, ring.settle(out, den))


def markov_trace(f: TLMorphism):
    """Full closure of an endomorphism, as a scalar on the empty diagram.

    This is :func:`partial_close_right` of all n strands: each top point is
    bent around to the bottom point directly below it, and a diagram whose
    closure has c circles contributes (-2)**c times its coefficient.
    """
    if f.bottom != f.top:
        raise ValueError("markov trace needs an endomorphism")
    return partial_close_right(f, f.bottom).identity_coefficient()


def apply_e_top(i: int, x: TLMorphism, scalar=None) -> TLMorphism:
    """scalar * (e_i o x) via local rewiring (no boundary walk).

    The generator's cap joins the strands ending at top positions i-1 and i;
    their far ends become paired and the generator's cup becomes the new top
    arc.  When those positions were already paired a loop closes (-2).
    """
    nt = x.top
    if not 1 <= i <= nt - 1:
        raise ValueError(f"e_{i} undefined on top arity {nt}")
    la = x.bottom + nt - i  # label of top position i-1
    return _rewire(x, la, la - 1, scalar)


def apply_e_bottom(i: int, x: TLMorphism, scalar=None) -> TLMorphism:
    """scalar * (x o e_i) via local rewiring at bottom positions i-1 and i."""
    nb = x.bottom
    if not 1 <= i <= nb - 1:
        raise ValueError(f"e_{i} undefined on bottom arity {nb}")
    return _rewire(x, i - 1, i, scalar)


def _rewire(x: TLMorphism, la: int, lb: int, scalar) -> TLMorphism:
    """scalar * x with boundary labels la, lb joined by a generator arc."""
    ring = x.ring
    ints, den = ring.lift(x.terms, scalar)
    out = ring.settle(rewire_ints(ints, la, lb), den)
    return TLMorphism(x.bottom, x.top, ring, out)


def rewire_ints(ints: dict, la: int, lb: int) -> dict:
    """The int sums of a lifted coefficient map with labels la, lb joined.

    The strands that ended at la and lb are spliced into one, and la, lb
    become partners; when they already were, a loop closes (-2).  Sums are
    keyed by the interned result matching and left unnormalised.

    When pairs (la, u), (lb, v) become (la, lb), (u, v), only those four
    labels' opener bits can change: the lower label of each new pair opens
    and the higher one closes.  So the result's key comes from the term's
    key in O(1), and a partner list is spliced only for a matching that is
    not interned yet.  :func:`first_unkilled` repeats the key update inline.
    """
    out: dict = {}
    get = out.get
    find = _INTERN.get
    bit = _BIT
    ab, close_ab = bit[la] | bit[lb], bit[max(la, lb)]
    for m, c in ints.items():
        pm = m.partner
        u = pm[la]
        if u == lb:
            key = m
            c = c * -2
        else:
            v = pm[lb]
            uid = (m.uid | ab | bit[u] | bit[v]) ^ (close_ab | bit[u if u > v else v])
            key = find(uid)
            if key is None:
                lst = list(pm)
                lst[u] = v
                lst[v] = u
                lst[la] = lb
                lst[lb] = la
                key = _intern(uid, m.bottom, m.top, lst)
        prev = get(key)
        out[key] = c if prev is None else prev + c
    return out


# ---------------------------------------------------------------------------
# Generator-annihilation bookkeeping (memoized certificates)
# ---------------------------------------------------------------------------


def first_unkilled(x: TLMorphism, start: int, stop: int, top: bool = True) -> int:
    """The first i in [start, stop) with e_i o x != 0 (x o e_i on the bottom).

    Returns stop when every generator in the range kills x.  x is lifted to
    int numerators once for the whole scan, and each e_i is tested on the
    int sums of the rewiring (``ring.clean`` empties exactly on zero).  The
    sums are keyed by the rewired uid, an int computed in O(1) from the
    term's uid, so no matching is looked up or built and no morphism is
    settled.
    """
    start = max(start, 1)
    if start >= stop:
        return stop
    ring = x.ring
    # three flat lists, not a list of tuples, and no lifted dict kept
    # through the scan: less peak memory
    ints = ring.lift(x.terms)[0]
    partners = [m.partner for m in ints]
    uids = [m.uid for m in ints]
    coeffs = list(ints.values())
    del ints
    clean = ring.clean
    bit = _BIT
    edge = x.bottom + x.top  # top position i-1 has label edge-i
    for i in range(start, stop):
        la, lb = (edge - i, edge - i - 1) if top else (i - 1, i)
        ab, close_ab = bit[la] | bit[lb], bit[max(la, lb)]
        sums: dict = {}
        get = sums.get
        for pm, uid, c in zip(partners, uids, coeffs):
            u = pm[la]
            if u == lb:
                c = c * -2
            else:
                v = pm[lb]
                uid = (uid | ab | bit[u] | bit[v]) ^ (close_ab | bit[u if u > v else v])
            sums[uid] = get(uid, 0) + c
        if clean(sums):
            return i
    return stop


def top_killed_upto(x: TLMorphism, k: int) -> bool:
    """Verify e_i o x == 0 for every 1 <= i < k, extending a cached bound.

    The verification is a real computation (see :func:`first_unkilled`);
    the result is memoized on the morphism: after a failure at i the bound
    is i.
    """
    if x.bottom == 0 and x.top == 0:
        return True
    if x._top_kill >= k:
        return True
    n = x.top
    stop = min(k, n)
    first = first_unkilled(x, x._top_kill, stop, top=True)
    if first < stop:
        x._top_kill = first
        return False
    x._top_kill = max(x._top_kill, stop)
    return x._top_kill >= k or k > n


def bottom_killed_upto(x: TLMorphism, k: int) -> bool:
    """Verify x o e_i == 0 for every 1 <= i < k."""
    if x.bottom == 0 and x.top == 0:
        return True
    if x._bot_kill >= k:
        return True
    n = x.bottom
    stop = min(k, n)
    first = first_unkilled(x, x._bot_kill, stop, top=False)
    if first < stop:
        x._bot_kill = first
        return False
    x._bot_kill = max(x._bot_kill, stop)
    return x._bot_kill >= k or k > n
