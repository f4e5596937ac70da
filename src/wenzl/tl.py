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
tuple only when the key is new.  A generator rewiring changes at most four
bits, a splice of two adjacent labels drops or inserts two and sets one
more, and padding with m identity strands inserts 2m bits and sets m, so
their result keys cost O(1); a flip's key is the word complemented and
bit-reversed (a byte-table lookup per 8 labels), so it walks no labels
either.  All values
are immutable; re-inserting an equal matching into the intern table is
harmless, so the table tolerates concurrent use.

A matching stores only its partner tuple, key, halves and closure loop
count, and, once it has been serialized, its pair list as JSON text.  The
halves and the loop count are computed on first use and kept.  The pair
list is derived from ``partner``: the engine never reads it, sorting by
``partner`` gives the pair-list order (see :class:`CrossinglessMatching`)
and the through strands are read off the key.  So building and verifying
projectors builds neither pair tuples nor text.

Composition runs through half-diagrams.  A matching x: n -> m with t through
strands factors as x == hi(x) o lo(x), where lo(x): n -> t keeps the bottom
arcs and hi(x): t -> m the top arcs (the cell structure of TL; Graham-Lehrer,
*Cellular algebras*, 1996).  In a product g o f the middle boundary only
sees hi of f's terms and lo of g's terms, so :func:`compose` walks that
boundary once per pair of distinct halves, not once per pair of terms.  The
loop-free join hi' o lo' through s strands determines its halves, so the
products are summed per cell (lo', hi') and each output matching is joined
once.  The sum over the middle is reassociated: for each top half of f, the
g-side is summed over every bottom half of g whose middle product mu has
the same lo(mu), and one outer product is added per distinct lo(mu), not one
per pair of halves.  The g side of a pair depends only on lo(g) and hi(mu),
and few such pairs occur, so each group of g's terms is keyed onto
hi(g) o hi(mu) once per hi(mu) in a call and then added in as a vector.
Where mu is the identity on the middle strands (the top cell), every bottom
half of g falls in one class, so the product is one with the Gram matrix of
the cell module, taken in the cheap order.

So :func:`compose` is the one product kernel for two combinations.  The
products with a single diagram and the closures are local, and walk no
boundary.  A generator e_i rewires two labels in place
(:func:`rewire_ints`).  Every other local step splices two adjacent
boundary labels (:func:`splice_ints`): a contraction joins the strands
ending there and deletes both labels (a cap or cup taken from a diagram, or
the corner that closes one strand around the right side), and an insertion
adds a new arc.  So :func:`apply_matching_left` contracts d's arcs that
meet x, innermost first, then inserts d's far arcs; :func:`partial_close_right`
is m corner contractions.  Each splice takes a term's key to its result's
key in O(1).  :func:`tensor_with_identity`, the padding JW_k (x) id of the
projector recursion, puts all m new strands in with one such key insertion
per term.  The Markov trace, the closure of all strands, always lands on
the empty diagram, so it needs no splices: each matching's closure loop
count is walked once and kept, and a trace is one sum over the terms.

Each single-diagram kernel is written for one side.  The flip reverses
products and fixes every e_i, so a bottom-side step is the flip of the
top-side one: :func:`apply_matching_right` is :func:`apply_matching_left`
between flips, and :func:`bottom_killed_upto` runs the top scans on flip(x).
:func:`apply_e_bottom` is the one rewiring kernel at bottom labels.

A morphism holds int numerators over one denominator ``den``, in the
canonical form of rings.py: den > 0 is coprime to the numerators taken
together and no numerator is zero (over F_p, den is 1 and the numerators are
residues).  Equal morphisms in this form have equal (``terms``, ``den``).
The kernels read and write those ints directly and canonicalise each result
once (``ring.canonical``); only the public constructors take ring elements
or (numerator, denominator) pairs, and only ``coefficient``,
``identity_coefficient`` and ``items`` build ring elements.  A morphism made
from rationals with unrelated denominators keeps lowest-terms pairs instead
(see :class:`TLMorphism`).

Checks that only ask whether something vanishes build no morphism: the
generator-annihilation scans test the int sums of each rewiring of x's
numerators, up to the first sum that is nonzero in the ring.  The scans sum
under the rewired int keys and look no matching up.  The flip-symmetry
check (:func:`flip_symmetric`) likewise compares numerators under flipped
keys, and the mirror-symmetry check (:func:`mirror_symmetric`) under
mirrored ones, each half of a mirrored key read from a per-call table of
mirrored half-words.  So a projector JW_n is verified by floor(n/2) top
scans plus flip and mirror passes.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
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

    ``partner`` maps each boundary label to its mate.  ``uid`` is the
    structural key: the Dyck word of the pairing (bit x set iff
    ``partner[x] > x``) shifted above ``bottom``.  A planar pairing is fixed
    by its set of openers and the word's popcount is half the point count,
    so the key is injective on (bottom, top, pairing); it keys the intern
    table and the composition memo.  Use :func:`matching` (or the generator
    helpers below) to obtain instances; the raw constructor skips
    validation.  Equal matchings are one object, so equality and hashing
    are by identity.

    ``pairs``, the pairs as (min, max) sorted by min (the canonical
    serialized form), is derived from ``partner`` on every read; rendering
    and ``repr`` read it.  ``pairs_json`` is that list as ``json.dumps``
    prints it, the text serialization splices into a document: it is built
    on first read and kept, like the halves, so emitting a matching again
    costs one slot read.  The engine reads neither, so most interned
    matchings never hold text.  Sorting by ``partner`` gives the same order
    as sorting by ``pairs`` within a Hom space: where two planar pairings
    first differ, at label x, both open an arc (had x closed to y < x in
    one, the other would agree that ``partner[y] == x``), so the pair lists
    first differ at (x, mate) with the same sign.

    ``_loops`` is the number of circles of an endomorphism's Markov
    closure (see :func:`closure_loops`): walked from ``partner`` on the
    first trace that meets the matching and kept, like the halves, so a
    later trace reads one slot per term.
    """

    __slots__ = (
        "bottom", "top", "partner", "uid", "_halves", "_loops", "_pairs_json"
    )

    def __init__(self, bottom: int, top: int, partner: tuple[int, ...], uid: int):
        self.bottom = bottom
        self.top = top
        self.partner = partner
        self.uid = uid
        self._halves = None
        self._loops = None
        self._pairs_json = None

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, b in enumerate(self.partner) if b > a)

    @property
    def pairs_json(self) -> str:
        t = self._pairs_json
        if t is None:
            t = self._pairs_json = "[" + ", ".join(
                [f"[{a}, {b}]" for a, b in enumerate(self.partner) if b > a]
            ) + "]"
        return t

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
        # a bottom label opens either a bottom arc (which closes at another
        # bottom label) or a through strand: bottom = 2 * openers - t
        n = self.bottom
        return 2 * ((self.uid >> _SHIFT) & ((1 << n) - 1)).bit_count() - n


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
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"pair labels must be integers, got ({a!r}, {b!r})")
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

    Results are memoized, because composition pairs recur heavily in
    :func:`compose`, its only caller: as pairs of middle halves, the half
    products around them and the loop-free joins hi o lo.  The
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


# each byte value with its 8 bits in reverse order
_REVERSED_BYTES = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def _flipped_keys(ms: Iterable[CrossinglessMatching], bottom: int, top: int):
    """The key of each matching in ms (each bottom -> top) turned upside
    down: label x becomes total-1-x and each opener a closer, so the Dyck
    word is complemented, then bit-reversed, and the arity field becomes
    top.  The reversal reads the word as little-endian bytes, reverses the
    bits of each byte by one table lookup (``bytes.translate``) and reads
    the bytes back big-endian, which reverses all 8 * width bits; the shift
    drops the padding bits that land at the bottom.
    """
    total = bottom + top
    mask = (1 << total) - 1
    width = (total + 7) // 8
    pad = 8 * width - total
    rev, from_bytes = _REVERSED_BYTES, int.from_bytes
    for a in ms:
        word = ((a.uid >> _SHIFT) ^ mask).to_bytes(width, "little")
        yield from_bytes(word.translate(rev), "big") >> pad << _SHIFT | top


def matching_flip(a: CrossinglessMatching) -> CrossinglessMatching:
    """Turn the diagram upside down (bottom and top swap).

    The key comes from a's key alone (:func:`_flipped_keys`), with no walk
    over the labels, and the pairing is built only when new.
    """
    (uid,) = _flipped_keys((a,), a.bottom, a.top)
    total = a.bottom + a.top
    return _INTERN.get(uid) or _intern(
        uid, a.top, a.bottom, [total - 1 - y for y in reversed(a.partner)]
    )


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

    One walk over the labels in order: each label either closes the
    innermost open arc or, while fewer than half the labels open arcs, opens
    one; both choices write into one shared partner list and the key's
    opener bits, and each completed walk interns one matching.  The sort
    reads ``partner``, which gives the same order as the pair lists (see
    :class:`CrossinglessMatching`) and builds no pair tuple.

    Empty when n+m is odd (the Hom space is zero).  Size catalan((n+m)/2)
    otherwise.
    """
    if (n + m) % 2:
        return ()
    _check_arity(n, m)
    total = n + m
    half = total // 2
    out: list[CrossinglessMatching] = []
    partner = [-1] * total
    opened: list[int] = []  # the open arcs, innermost last
    bit = _BIT

    def walk(x: int, openers: int, uid: int) -> None:
        if x == total:
            out.append(_intern(uid, n, m, partner))
            return
        if opened:
            y = opened.pop()
            partner[x], partner[y] = y, x
            walk(x + 1, openers, uid)
            opened.append(y)
        if openers < half:
            opened.append(x)
            walk(x + 1, openers + 1, uid | bit[x])
            opened.pop()

    walk(0, 0, n)
    del walk  # walk reaches itself through its closure: free out on return
    out.sort(key=lambda mm: mm.partner)
    return tuple(out)


# ---------------------------------------------------------------------------
# Morphisms: ring-linear combinations of matchings
# ---------------------------------------------------------------------------


class TLMorphism:
    """A sparse linear combination of crossingless matchings n -> m.

    ``terms`` maps matchings to nonzero int numerators over the common
    denominator ``den``, in canonical form (see the module notes); the zero
    morphism has an empty map.  Every kernel result has this form, and the
    kernels read it through :meth:`ints`.

    The public constructors take ring elements, zeros and unreduced
    residues allowed, and canonicalise them once.  Every constructor checks
    the arity, since a morphism with no terms has no matching to check it.  When the denominators of
    the given rationals are so unrelated that their lcm would outgrow the
    largest of them many times over (random rationals: 1500 denominators
    below 10**6 have an lcm of some 14 000 bits, and every numerator over
    it as many), the morphism keeps each coefficient as its own lowest-terms
    pair instead: ``terms`` holds the numerators, ``den`` is None and
    ``_dens`` the denominators.  :meth:`ints` then puts them over the lcm
    for the kernel that asks, and keeps nothing.  Serialization, equality
    and the coefficient reads work on either form.

    Read coefficients as ring elements with :meth:`coefficient` and
    :meth:`items`.  Instances are treated as immutable values (`_top_kill`
    and `_bot_kill` only memoize verified generator-annihilation bounds and
    never change the value).
    """

    __slots__ = (
        "bottom", "top", "ring", "terms", "den", "_dens", "_top_kill", "_bot_kill"
    )

    def __init__(self, bottom: int, top: int, ring, terms: dict):
        split = ring.split
        ratios = {m: split(c) for m, c in terms.items()}
        self._set(bottom, top, ring, *_canonical_of_ratios(ring, ratios))

    def _set(self, bottom, top, ring, nums: dict, den, dens=None) -> None:
        _check_arity(bottom, top)  # also when there are no terms to check it
        self.bottom = bottom
        self.top = top
        self.ring = ring
        self.terms = nums
        self.den = den
        self._dens = dens
        self._top_kill = 1
        self._bot_kill = 1

    @classmethod
    def _from_nums(cls, bottom, top, ring, nums: dict, den, dens=None) -> "TLMorphism":
        """The kernels' constructor: nums over den, already canonical."""
        x = cls.__new__(cls)
        x._set(bottom, top, ring, nums, den, dens)
        return x

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(bottom: int, top: int, ring=QQ) -> "TLMorphism":
        return TLMorphism._from_nums(bottom, top, ring, {}, 1)

    @staticmethod
    def from_matching(m: CrossinglessMatching, ring=QQ, coeff=None) -> "TLMorphism":
        num, den = (1, 1) if coeff is None else ring.split(coeff)
        nums, den = ring.canonical({m: num}, den)
        return TLMorphism._from_nums(m.bottom, m.top, ring, nums, den)

    @staticmethod
    def from_ratios(bottom: int, top: int, ring, ratios: dict) -> "TLMorphism":
        """The morphism with coefficient num/den on each matching of
        ``ratios``, a map to int pairs (num, den) in lowest terms with
        den > 0; over F_p den is 1."""
        return TLMorphism._from_nums(
            bottom, top, ring, *_canonical_of_ratios(ring, ratios)
        )

    @staticmethod
    def identity(n: int, ring=QQ) -> "TLMorphism":
        return TLMorphism.from_matching(identity_matching(n), ring)

    # -- basic structure ----------------------------------------------------

    def ints(self) -> tuple[dict, int]:
        """The canonical int numerators and their common denominator."""
        dens = self._dens
        if dens is None:
            return self.terms, self.den
        distinct = set(dens.values())
        den = lcm(*distinct)
        mult = {d: den // d for d in distinct}
        return {m: a * mult[dens[m]] for m, a in self.terms.items()}, den

    def ratios(self):
        """(matching, num, den) triples with coefficient num/den, den > 0
        (not necessarily in lowest terms)."""
        dens = self._dens
        if dens is None:
            den = self.den
            return ((m, a, den) for m, a in self.terms.items())
        return ((m, a, dens[m]) for m, a in self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: CrossinglessMatching):
        den = self.den if self._dens is None else self._dens.get(m, 1)
        return self.ring.element(self.terms.get(m, 0), den)

    def identity_coefficient(self):
        if self.bottom != self.top:
            raise ValueError("identity coefficient needs an endomorphism")
        return self.coefficient(identity_matching(self.bottom))

    def items(self):
        """(matching, coefficient) pairs, the coefficients as ring elements."""
        element = self.ring.element
        return ((m, element(a, d)) for m, a, d in self.ratios())

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, TLMorphism)
            and self.bottom == other.bottom
            and self.top == other.top
            and self.ring.name == other.ring.name
        ):
            return False
        if (self._dens is None) != (other._dens is None):
            return self.ints() == other.ints()
        return (
            self.den == other.den
            and self.terms == other.terms
            and self._dens == other._dens
        )

    def __repr__(self) -> str:
        return (
            f"TLMorphism({self.bottom}->{self.top}, ring={self.ring.name}, "
            f"{len(self.terms)} terms)"
        )

    # -- linear structure ----------------------------------------------------

    def add(self, other: "TLMorphism") -> "TLMorphism":
        self._check_like(other)
        (nums_a, a), (nums_b, b) = self.ints(), other.ints()
        den = lcm(a, b)
        out = dict(nums_a) if den == a else {
            k: v * (den // a) for k, v in nums_a.items()
        }
        get = out.get
        mult = den // b
        for k, v in nums_b.items():
            out[k] = get(k, 0) + v * mult
        return TLMorphism._from_nums(
            self.bottom, self.top, self.ring, *self.ring.canonical(out, den)
        )

    def sub(self, other: "TLMorphism") -> "TLMorphism":
        return self.add(other.scale(self.ring.from_int(-1)))

    def scale(self, c) -> "TLMorphism":
        ring = self.ring
        num, den = ring.split(c)
        nums, x_den = self.ints()
        out = {k: v * num for k, v in nums.items()}
        return TLMorphism._from_nums(
            self.bottom, self.top, ring, *ring.canonical(out, x_den * den)
        )

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
        (nums_a, a), (nums_b, b) = self.ints(), other.ints()
        out = {
            matching_tensor(ma, mb): ca * cb
            for ma, ca in nums_a.items()
            for mb, cb in nums_b.items()
        }
        return TLMorphism._from_nums(
            self.bottom + other.bottom, self.top + other.top, self.ring,
            *self.ring.canonical(out, a * b),
        )

    def flip(self) -> "TLMorphism":
        nums, den = self.ints()
        keys = _flipped_keys(nums, self.bottom, self.top)
        out = {
            _INTERN.get(uid) or matching_flip(m): c
            for (m, c), uid in zip(nums.items(), keys)
        }
        res = TLMorphism._from_nums(self.top, self.bottom, self.ring, out, den)
        res._top_kill, res._bot_kill = self._bot_kill, self._top_kill
        return res


def _canonical_of_ratios(ring, ratios: dict):
    """(nums, den, dens) for a map to int pairs (num, den) in lowest terms,
    den > 0 (over F_p, den is 1): canonical numerators over the lcm L of
    the denominators and dens None, or, when L has more than twice the bits
    of the largest denominator and 64 more, the nonzero pairs as two maps
    and den None (see :class:`TLMorphism`).

    Over Q the numerators over L are canonical already: a prime q dividing
    L divides some den as often as L does, so q divides neither L/den nor
    num, which is prime to den, hence not that numerator.  So no gcd over
    the map is taken.
    """
    dens = {d for _, d in ratios.values()}
    den = 1
    if len(dens) > 1:
        bound = 2 * max(dens).bit_length() + 64
        for d in dens:
            den = lcm(den, d)
            if den.bit_length() > bound:
                nonzero = {m: r for m, r in ratios.items() if r[0]}
                return (
                    {m: a for m, (a, _) in nonzero.items()},
                    None,
                    {m: d for m, (_, d) in nonzero.items()},
                )
    elif dens:
        (den,) = dens
    if den == 1:
        return (*ring.canonical({m: a for m, (a, _) in ratios.items()}, 1), None)
    mult = {d: den // d for d in dens}
    return {m: a * mult[d] for m, (a, d) in ratios.items() if a}, den, None


def _loop_powers(upto: int) -> list[int]:
    return [(-2) ** r for r in range(upto + 1)]


def compose(g: TLMorphism, f: TLMorphism) -> TLMorphism:
    """Bilinear composition g after f, with each erased loop worth -2.

    Each term factors through its halves, so mg o mf is
    hi(mg) o [lo(mg) o hi(mf)] o lo(mf), and only the middle product mu can
    close loops.  Terms are grouped by the half that meets the middle, and
    mu is walked once per pair of groups.  For each f-group hf, g's
    coefficients times (-2)^r are summed onto hi' = hi(mg) o hi(mu) in one
    row per distinct lo(mu), over every g-group; then f's coefficients are
    summed onto lo' = lo(mu) o lo(mf) once per nonzero row, and the outer
    product of the two is added to the cells (lo', hi').  Each nonzero cell
    is joined into its output matching hi' o lo' exactly once.
    A g-group lg's vector {hi': summed coefficient} depends only on lg and
    hi(mu), so it is keyed once per (lg, hi(mu)) in a call and kept.
    """
    if f.top != g.bottom:
        raise ValueError(f"arity mismatch: {f}.top != {g}.bottom")
    if f.ring.name != g.ring.name:
        raise ValueError("composition needs a common coefficient ring")
    ring = f.ring
    (f_nums, f_den), (g_nums, g_den) = f.ints(), g.ints()
    pw = _loop_powers(f.top // 2)
    mc = matching_compose
    f_by_hi: dict = {}  # hi(f-term) -> [(lo(f-term), coefficient)]
    for mf, c in f_nums.items():
        lo, hi = mf._halves or halves(mf)
        f_by_hi.setdefault(hi, []).append((lo, c))
    g_by_lo: dict = {}  # lo(g-term) -> [(hi(g-term), coefficient)]
    for mg, c in g_nums.items():
        lo, hi = mg._halves or halves(mg)
        g_by_lo.setdefault(lo, []).append((hi, c))
    # each g-group with its keyed vectors: hi(mu) -> {hi(mg) o hi(mu): sum}
    g_groups = [(lg, gs, {}) for lg, gs in g_by_lo.items()]
    # cells[lo'][hi'] sums u * v for the loop-free join hi' o lo'.  A join
    # through s strands determines its halves (lo' == lo(join), hi' ==
    # hi(join)), so (lo', hi') -> hi' o lo' is injective: no two cells meet
    # in one output matching, and each cell is joined once, after summing.
    cells: dict = {}
    for hf, fs in f_by_hi.items():
        # sums[lo(mu)][hi'] sums (-2)^r * v over every g-group lg whose
        # product mu = lg o hf has that bottom half
        sums: dict = {}
        for lg, gs, keyed in g_groups:
            mu, r = mc(lg, hf)  # the one boundary walk of this pair of halves
            mu_lo, mu_hi = mu._halves or halves(mu)
            vec = keyed.get(mu_hi)
            if vec is None:  # first (lg, hi(mu)) of this call: key the group once
                vec = {}
                for hi, v in gs:
                    key = mc(hi, mu_hi)[0]
                    prev = vec.get(key)
                    vec[key] = v if prev is None else prev + v
                vec = keyed[mu_hi] = {key: v for key, v in vec.items() if v}
            w = pw[r]
            row_sums = sums.get(mu_lo)
            if row_sums is None:
                row_sums = sums[mu_lo] = {}
            get = row_sums.get
            for key, v in vec.items():
                prev = get(key)
                row_sums[key] = w * v if prev is None else prev + w * v
        # one outer product lows (x) highs per distinct lo(mu)
        for mu_lo, row_sums in sums.items():
            highs = [(hi, v) for hi, v in row_sums.items() if v]
            if not highs:
                continue
            lows: dict = {}
            for lo, c in fs:
                key = mc(mu_lo, lo)[0]
                lows[key] = lows.get(key, 0) + c
            for lo, u in lows.items():
                if not u:
                    continue
                row = cells.get(lo)
                if row is None:
                    row = cells[lo] = {}
                get = row.get
                for hi, v in highs:
                    prev = get(hi)
                    row[hi] = u * v if prev is None else prev + u * v
    # each row's sums are normalised before any join: a cell whose sum is
    # zero in the ring is never joined
    canonical = ring.canonical
    out: dict = {}
    for lo, row in cells.items():
        for hi, c in canonical(row, 1)[0].items():
            out[mc(hi, lo)[0]] = c
    return TLMorphism._from_nums(
        f.bottom, g.top, ring, *canonical(out, f_den * g_den)
    )


def apply_matching_left(
    d: CrossinglessMatching, x: TLMorphism, scalar=None
) -> TLMorphism:
    """scalar * (d o x) for a single matching d, by boundary splices.

    d's caps join pairs of x's top points and d's cups add new top arcs, so
    no boundary walk is made.  Walking d's bottom points right to left,
    which is x's top labels upward, the left end of each cap meets its right
    end adjacent (everything between has been contracted already), so the
    caps are contracted innermost first.  Then d's cups are inserted at
    d's top labels in increasing order: every label below the insertion is
    final, so each cup's opener lands where d has it and the arcs inside it
    go in after it.
    """
    if d.bottom != x.top:
        raise ValueError(f"arity mismatch: {x}.top != {d}.bottom")
    n, k = x.bottom, d.bottom
    pd = d.partner
    nums, den = x.ints()
    top = k
    s = 0  # x's top points passed and not yet contracted
    for j in range(k - 1, -1, -1):
        if j < pd[j] < k:  # a cap's left end, next to its right end at n+s-1
            s -= 1
            top -= 2
            nums = splice_ints(nums, n + s, n, top)
        else:
            s += 1
    for y in range(k, k + d.top):
        if pd[y] > y:  # a cup opens at d's label y, x's label n+y-k
            top += 2
            nums = splice_ints(nums, n + y - k, n, top, arcs=1)
    return _morphism_of_sums(x.ring, n, top, nums, den, scalar)


def apply_matching_right(
    d: CrossinglessMatching, x: TLMorphism, scalar=None
) -> TLMorphism:
    """scalar * (x o d) for a single matching d: the flip of
    scalar * (flip(d) o flip(x)), by :func:`apply_matching_left`."""
    if d.top != x.bottom:
        raise ValueError(f"arity mismatch: {d}.top != {x}.bottom")
    return apply_matching_left(matching_flip(d), x.flip(), scalar).flip()


def tensor_with_identity(x: TLMorphism, m: int) -> TLMorphism:
    """x tensor id_m, one O(1) key insertion per term.

    The m new strands are nested arcs put in at labels b .. b+2m-1, where
    b = x.bottom is the corner (label b+j pairs with b+2m-1-j), so this is
    one insertion of :func:`splice_ints`: each term's key keeps its word
    bits below b, moves the rest up by 2m and sets the m new opener bits,
    and a partner list is built only for a matching that is not interned
    yet.  The kill bounds carry over.
    """
    if m < 0:
        raise ValueError(f"cannot pad with {m} strands")
    if m == 0:
        return x
    n, k = x.bottom + m, x.top + m
    _check_arity(n, k)
    nums, den = x.ints()
    res = TLMorphism._from_nums(n, k, x.ring, splice_ints(nums, x.bottom, n, k, m), den)
    res._top_kill = x._top_kill
    res._bot_kill = x._bot_kill
    return res


def partial_close_right(f: TLMorphism, m: int) -> TLMorphism:
    """Close the rightmost m strands of f around its right side.

    The top-right m points are bent over to the bottom-right m points with
    nested arcs, so an n->k morphism becomes (n-m)->(k-m).  Closing a through
    strand of the identity creates a closed loop and hence a factor -2.  The
    m = bottom = top case is the full Markov closure, a multiple of the
    empty diagram; :func:`markov_trace` computes it without this, from each
    matching's kept closure loop count.

    Closing one strand joins the corner labels n-1 (the last bottom point)
    and n (the last top point), so the closure is m contractions by
    :func:`splice_ints`, the t-th at labels n-1-t, n-t, innermost first: no
    diagram is walked, padded or composed.
    """
    n, k = f.bottom, f.top
    if not 0 <= m <= min(n, k):
        raise ValueError(f"cannot close {m} strands of {n}->{k}")
    if m == 0:
        return f
    nums, den = f.ints()
    for t in range(1, m + 1):
        nums = splice_ints(nums, n - t, n - t, k - t)
    return _morphism_of_sums(f.ring, n - m, k - m, nums, den)


def closure_loops(x: CrossinglessMatching) -> int:
    """The circles of the Markov closure of an endomorphism x: n -> n.

    Each top point is bent around to the bottom point directly below it,
    which glues label y to label 2n-1-y; each circle alternates x's arcs
    and those gluings.  Walked once from ``partner`` and kept on x.
    """
    c = x._loops
    if c is None:
        p = x.partner
        mirror = len(p) - 1
        seen = bytearray(len(p))
        c = 0
        for s in range(len(p)):
            if seen[s]:
                continue
            c += 1
            y = s
            while not seen[y]:
                seen[y] = 1
                z = p[y]
                seen[z] = 1
                y = mirror - z
        x._loops = c
    return c


def markov_trace(f: TLMorphism):
    """Full closure of an endomorphism, as a scalar on the empty diagram.

    A diagram whose closure has c circles contributes (-2)**c times its
    coefficient, c read from the matching's kept :func:`closure_loops`, so
    the trace is one int sum over the terms, canonicalised once.  It agrees
    with :func:`partial_close_right` of all n strands, which it does not
    call.
    """
    n = f.bottom
    if n != f.top:
        raise ValueError("markov trace needs an endomorphism")
    ring = f.ring
    nums, den = f.ints()
    pw = _loop_powers(n)
    total = 0
    for mm, c in nums.items():
        loops = mm._loops
        if loops is None:
            loops = closure_loops(mm)
        total += c * pw[loops]
    sums, den = ring.canonical({None: total}, den)
    return ring.element(sums.get(None, 0), den)


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
    nums, den = x.ints()
    return _morphism_of_sums(
        x.ring, x.bottom, x.top, rewire_ints(nums, la, lb), den, scalar
    )


def _morphism_of_sums(ring, bottom, top, sums: dict, den, scalar=None) -> TLMorphism:
    """scalar * (the int sums over den), canonicalised once."""
    if scalar is not None:
        num, s_den = ring.split(scalar)
        sums = {k: v * num for k, v in sums.items()}
        den *= s_den
    return TLMorphism._from_nums(bottom, top, ring, *ring.canonical(sums, den))


def rewire_ints(ints: dict, la: int, lb: int) -> dict:
    """The int sums of a map of int coefficients with labels la, lb joined.

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


def splice_ints(
    ints: dict, a: int, bottom: int, top: int, arcs: int = 0
) -> dict:
    """The int sums of a map of int coefficients spliced at label a.

    A contraction (``arcs`` 0) joins the strands that end at the adjacent
    labels a and a+1 and deletes both labels; when they were partners a
    loop closes (-2).  Two bottom labels take a cup from below, two top
    labels a cap from above, and the corner a = n-1 (the last bottom point
    against the last top point) closes one strand around the right side.
    An insertion of r = ``arcs`` > 0 nested arcs pairs the new labels
    a+j and a+2r-1-j and moves every label from a up by 2r: one new arc
    for r = 1, and at the corner a = n the r identity strands of
    :func:`tensor_with_identity`.  ``bottom`` and ``top`` are the arities of
    the results.  Sums are keyed by the interned result matching and left
    unnormalised.

    As in :func:`rewire_ints`, the result's key comes from the term's key
    in O(1): two word bits are dropped and the new pair's opener bit is set
    (and its closer's cleared), or 2r bits are inserted with the r openers
    set, and the arity field is set to ``bottom``.  A partner list is built
    only for a matching that is not interned yet.
    """
    out: dict = {}
    get = out.get
    find = _INTERN.get
    bit = _BIT
    at = a + _SHIFT
    below = ((1 << at) - 1) ^ ((1 << _SHIFT) - 1)  # the key bits of labels < a
    if arcs:
        width = 2 * arcs
        opened = ((1 << arcs) - 1) << at | bottom
        nested = range(a + width - 1, a - 1, -1)  # partners of labels a, a+1, ...
        for m, c in ints.items():
            uid = m.uid
            uid = (uid & below) | (uid >> at << (at + width)) | opened
            key = find(uid)
            if key is None:
                lst = [y + width if y >= a else y for y in m.partner]
                lst[a:a] = nested
                key = _intern(uid, bottom, top, lst)
            out[key] = c
        return out
    b = a + 1
    for m, c in ints.items():
        pm = m.partner
        uid = m.uid
        uid = (uid & below) | (uid >> (at + 2) << at) | bottom
        u = pm[a]
        if u == b:
            c = c * -2
        else:
            v = pm[b]
            lo = u if u < a else u - 2  # the joined ends, relabelled
            hi = v if v < a else v - 2
            if lo > hi:
                lo, hi = hi, lo
            uid = (uid | bit[lo]) & ~bit[hi]
        key = find(uid)
        if key is None:
            lst = list(pm)
            if u != b:
                lst[u] = v
                lst[v] = u
            del lst[a : a + 2]
            key = _intern(uid, bottom, top, [y - 2 if y > b else y for y in lst])
        prev = get(key)
        out[key] = c if prev is None else prev + c
    return out


# ---------------------------------------------------------------------------
# Generator-annihilation bookkeeping (memoized certificates)
# ---------------------------------------------------------------------------


def first_unkilled(x: TLMorphism, start: int, stop: int) -> int:
    """The first i in [start, stop) with e_i o x != 0.

    Returns stop when every generator in the range kills x.  Each e_i is
    tested on the int sums of the rewiring of x's numerators, which
    ``ring.any_nonzero`` reads up to the first nonzero one (mod p over F_p).
    The sums are keyed by the rewired uid, an int computed in O(1) from the
    term's uid, so no matching is looked up or built and no morphism is made.
    """
    start = max(start, 1)
    if start >= stop:
        return stop
    ring = x.ring
    # three flat lists, not a list of tuples: less peak memory
    nums = x.ints()[0]
    partners = [m.partner for m in nums]
    uids = [m.uid for m in nums]
    coeffs = list(nums.values())
    del nums
    any_nonzero = ring.any_nonzero
    bit = _BIT
    edge = x.bottom + x.top  # top position i-1 has label edge-i
    for i in range(start, stop):
        la, lb = edge - i, edge - i - 1
        ab, close_ab = bit[la] | bit[lb], bit[la]
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
        if any_nonzero(sums.values()):
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
    first = first_unkilled(x, x._top_kill, stop)
    if first < stop:
        x._top_kill = first
        return False
    x._top_kill = max(x._top_kill, stop)
    return x._top_kill >= k or k > n


def bottom_killed_upto(x: TLMorphism, k: int) -> bool:
    """Verify x o e_i == 0 for every 1 <= i < k: the top scans of flip(x),
    whose bound is copied back to x."""
    if x._bot_kill >= k:
        return True
    y = x.flip()
    killed = top_killed_upto(y, k)
    x._bot_kill = y._top_kill
    return killed


def flip_symmetric(x: TLMorphism) -> bool:
    """True iff x == x.flip(), in one pass over x's terms and no morphism.

    Each term's coefficient is compared with that of its flipped matching,
    looked up in the intern table by its flipped key (:func:`_flipped_keys`);
    a key that is not interned is in no morphism.  A flip keeps the
    denominator.
    """
    n = x.bottom
    if x.top != n:
        return False
    nums = x.ints()[0]
    get, interned = nums.get, _INTERN.get
    for c, uid in zip(nums.values(), _flipped_keys(nums, n, n)):
        if get(interned(uid), 0) != c:
            return False
    return True


def _mirrored_keys(ms: Iterable[CrossinglessMatching], bottom: int, top: int):
    """The key of each matching in ms (each bottom -> top) reflected left to
    right (mu): bottom label y becomes bottom-1-y and top label y becomes
    2 bottom + top - 1 - y, so mu(e_i o x) == e_{top-i} o mu(x).

    Each half of the mirrored Dyck word depends only on the same half of the
    word.  Bottom bit bottom-1-y is set iff label y is not an opener closed
    inside the bottom half (scanning leftwards, an opener with a closer
    pending to its right closes there; any other is a through strand).  Top
    bit top-1-y is set iff label bottom+y closes an arc inside the top half
    (scanning rightwards, a closer with an opener pending).  So each distinct
    half-word is mirrored once per call and each key costs two lookups.
    """
    mask = (1 << bottom) - 1
    lows: dict = {}  # bottom half-word -> mirrored bottom half-word
    highs: dict = {}  # top half-word -> mirrored top half-word, in place
    for m in ms:
        word = m.uid >> _SHIFT
        lo, hi = word & mask, word >> bottom
        a = lows.get(lo)
        if a is None:
            a = pending = 0
            for y in range(bottom - 1, -1, -1):
                if not lo >> y & 1:
                    pending += 1
                elif pending:
                    pending -= 1
                    continue
                a |= 1 << (bottom - 1 - y)
            lows[lo] = a
        b = highs.get(hi)
        if b is None:
            b = pending = 0
            for y in range(top):
                if hi >> y & 1:
                    pending += 1
                elif pending:
                    pending -= 1
                    b |= 1 << (bottom + top - 1 - y)
            highs[hi] = b
        yield (a | b) << _SHIFT | bottom


def mirror_symmetric(x: TLMorphism) -> bool:
    """True iff x == mu(x), the left-right reflection, in one pass over x's
    terms and no morphism.

    Each term's coefficient is compared with that of its mirrored matching,
    looked up in the intern table by its mirrored key
    (:func:`_mirrored_keys`); a key that is not interned is in no morphism.
    On TL_n, mu is the automorphism taking e_i to e_{n-i}.
    """
    nums = x.ints()[0]
    get, interned = nums.get, _INTERN.get
    for c, uid in zip(nums.values(), _mirrored_keys(nums, x.bottom, x.top)):
        if get(interned(uid), 0) != c:
            return False
    return True
