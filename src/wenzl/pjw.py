"""Prime-indexed Jones-Wenzl idempotents via the father recursion.

For a prime p and n >= 1 the rational p-projector on n strands is a sum

    total = sum over i in I_n of  lambda_i * flip(p_i) o JW_i o p_i,

indexed by I_n = (p-support of n) - 1.  When n+1 has a single nonzero base-p
digit (n a "p-Adam") the sum is the single term JW_n.  Otherwise, with
f = father(n) and m = n - f, each index i of the father level spawns two:

    p_{i+m} = (JW_i o p_i^{father}) (x) id_m,        lambda_{i+m} = lambda_i
    p_{i-m} = JW_{i-m} o collapse_m o p_{i+m},       lambda_{i-m} =
                       (-1)^m (i+1-m)/(i+1) lambda_i

where collapse_m caps the rightmost 2m points with nested arcs.  The sum is
an idempotent all of whose diagram coefficients are p-integral, so it
reduces to an idempotent over F_p.

Construction never multiplies two large linear combinations: projectors are
attached with jw.apply_jw and the collapse maps are single diagrams.  Each
child is built once, complete: q_i = JW_i o p_i from its projector step, and
the summand u_i = flip(p_i) o q_i by one walk up the parent chain that
applies the flipped factors in reverse.  Both are kept per signature (the
child's kind, gap and parent signature), so a summand reached from two
primes is one object.  The q_i of the top branch collapse to plain
projectors (absorption), which is detected by a per-diagram certificate
scan rather than assumed; such a child takes u_i = q_i = JW_i with no walk.

verify_battery checks every property the construction promises.  Each check
reports a mode: "direct" when the identity was established by brute
composition, "certified" when the term count makes that product infeasible
(Catalan-squared) and the identity is instead forced by verified smaller
facts -- generator-annihilation scans, trace evaluations, scalar arithmetic
-- combined through lemmas that the test suite exercises directly on small
instances.  One local step, ``decide``, makes that choice for every budgeted
check: it composes directly while the pairwise-product cost fits the budget
(DIRECT_BUDGET_Q, or DIRECT_BUDGET_FP for the reduction) and otherwise runs
the certificate, which cites earlier checks of the same battery by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Optional

from .padic import p_adic_expansion, p_support
from .rings import NotPIntegral, PrimeFieldRing, QQ, min_p_valuation
from .jw import (
    GLOBAL_JW_CACHE,
    JWCache,
    absorbs_certificate,
    apply_jw,
    jones_wenzl,
)
from .tl import (
    TLMorphism,
    apply_matching_left,
    compose,
    first_unkilled,
    flip_symmetric,
    identity_matching,
    markov_trace,
    matching_flip,
    matching_tensor,
    right_collapse_matching,
    tensor_with_identity,
)

# Pairwise-product budgets deciding "direct" vs "certified" verification.
DIRECT_BUDGET_Q = 2_000_000
DIRECT_BUDGET_FP = 6_000_000


class PJWIntegrityError(RuntimeError):
    """A p-projector coefficient was not p-integral: an implementation bug."""


@dataclass
class PJWTerm:
    """One summand of the decomposition: index, scalar, maps.

    ``p_map`` is the n -> i morphism of the recursion, ``q_map`` the
    projector-headed composite JW_i o p_map, and ``u`` the n -> n summand
    flip(p_map) o JW_i o p_map.  ``kind``, ``gap`` and ``parent`` record how
    the term arose; the walk that builds a child's u reads them, the battery
    does not.  ``sig`` keys the term's q_map and u in ``Caches.parts``.
    """

    i: int
    lam: Fraction
    p_map: TLMorphism
    q_map: TLMorphism
    u: TLMorphism
    kind: str  # "adam" | "plus" | "minus"
    gap: int
    parent: Optional["PJWTerm"]
    sig: tuple


@dataclass
class PJWDecomposition:
    n: int
    prime: int
    terms: dict[int, PJWTerm]
    total: TLMorphism

    @property
    def lambda_table(self) -> dict[int, Fraction]:
        return {i: t.lam for i, t in sorted(self.terms.items())}

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))


@dataclass
class Caches:
    """Shared memo tables: projectors, decompositions, battery reports, and
    ``parts``, each non-projector summand's (q_map, u) by its signature."""

    jw: JWCache = field(default_factory=lambda: GLOBAL_JW_CACHE)
    pjw: dict[tuple[int, int], PJWDecomposition] = field(default_factory=dict)
    parts: dict[tuple, tuple[TLMorphism, TLMorphism]] = field(default_factory=dict)
    reports: dict[tuple[int, int], "BatteryReport"] = field(default_factory=dict)


GLOBAL_CACHES = Caches()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _walk_back(
    z: TLMorphism, kind: str, i: int, m: int, parent: Optional[PJWTerm],
    caches: Caches,
) -> TLMorphism:
    """flip(p) o z, where p is the p_map of the child (kind, i) of parent.

    One step per level of the parent chain, m being the level's gap: a
    minus child's flip(p) begins with JW_i and the flipped collapse (its p
    is JW_i o collapse o p_plus); then every level pads by m and applies
    its parent's projector, as flip(p_plus) = flip(q_parent) (x) id_m and
    flip(q_parent) = flip(p_parent) o JW_parent.
    """
    pad = 0
    while parent is not None:
        if kind == "minus":
            z = apply_jw(i, z, caches.jw, pad=pad)
            w = matching_flip(right_collapse_matching(parent.i, m))
            if pad:
                w = matching_tensor(w, identity_matching(pad))
            z = apply_matching_left(w, z)
        pad += m
        z = apply_jw(parent.i, z, caches.jw, pad=pad)
        kind, i, m, parent = parent.kind, parent.i, parent.gap, parent.parent
    return z


def _child(
    kind: str, parent: PJWTerm, m: int, p_plus: TLMorphism, lam: Fraction,
    caches: Caches,
) -> PJWTerm:
    """The plus or minus child of parent, p_plus = q_parent (x) id_m.

    A plus child whose parent is a projector and whose p_plus passes the
    absorption certificate is JW_{i+m}: JW_{i+m} o p_plus = JW_{i+m}, and so
    u = flip(p_plus) o JW_{i+m} o p_plus = JW_{i+m}.  Any other child looks
    its signature up in ``caches.parts`` and on a miss builds q = JW_i o p
    and u = flip(p) o q once.
    """
    i = parent.i + m if kind == "plus" else parent.i - m
    from_projector = kind == "plus" and parent.sig == ("jw", parent.i)
    if from_projector and absorbs_certificate(p_plus):
        jw_i = jones_wenzl(i, QQ, caches.jw)
        return PJWTerm(i, lam, p_plus, jw_i, jw_i, kind, m, parent, ("jw", i))
    sig = ("+" if kind == "plus" else "-", m, parent.sig)
    parts = caches.parts.get(sig)
    if parts is None:
        if kind == "plus":
            q = apply_jw(i, p_plus, caches.jw)
        else:
            collapse = right_collapse_matching(parent.i, m)
            q = apply_jw(i, apply_matching_left(collapse, p_plus), caches.jw)
        parts = caches.parts[sig] = (q, _walk_back(q, kind, i, m, parent, caches))
    q, u = parts
    return PJWTerm(i, lam, p_plus if kind == "plus" else q, q, u, kind, m, parent, sig)


def rational_pjw(
    n: int, p: int, caches: Optional[Caches] = None
) -> PJWDecomposition:
    """The rational p-projector decomposition on n strands, memoized."""
    if n < 1:
        raise ValueError("rational_pjw requires n >= 1")
    caches = caches if caches is not None else GLOBAL_CACHES
    got = caches.pjw.get((p, n))
    if got is not None:
        return got

    data = p_support(n, p)
    if data.is_adam:
        jw_n = jones_wenzl(n, QQ, caches.jw)
        one = TLMorphism.identity(n)
        term = PJWTerm(n, Fraction(1), one, jw_n, jw_n, "adam", 0, None, ("jw", n))
        dec = caches.pjw[(p, n)] = PJWDecomposition(n, p, {n: term}, jw_n)
        return dec

    m = data.gap
    terms: dict[int, PJWTerm] = {}
    for i, parent in sorted(rational_pjw(data.father, p, caches).terms.items()):
        p_plus = tensor_with_identity(parent.q_map, m)
        lam_minus = Fraction((-1) ** m * (i + 1 - m), i + 1) * parent.lam
        terms[i + m] = _child("plus", parent, m, p_plus, parent.lam, caches)
        terms[i - m] = _child("minus", parent, m, p_plus, lam_minus, caches)

    # sum_i lam_i u_i as one int sum over a common denominator
    scaled = []
    for i in sorted(terms):
        term = terms[i]
        nums, den = term.u.ints()
        scaled.append((nums, term.lam.numerator, den * term.lam.denominator))
    common = lcm(*(d for _, _, d in scaled))
    sums: dict = {}
    get = sums.get
    for nums, a, d in scaled:
        a *= common // d
        for mm, c in nums.items():
            sums[mm] = get(mm, 0) + a * c
    total = TLMorphism._from_nums(n, n, QQ, *QQ.canonical(sums, common))
    dec = PJWDecomposition(n, p, terms, total)
    caches.pjw[(p, n)] = dec
    return dec


def reduce_pjw(dec: PJWDecomposition) -> TLMorphism:
    """The decomposition's total with coefficients reduced into F_p.

    Every coefficient is p-integral (the battery checks this directly), so a
    reduction failure is an implementation bug and raises loudly.
    """
    p = dec.prime
    ring = PrimeFieldRing(p)
    try:
        nums, den = ring.canonical(*dec.total.ints())
    except NotPIntegral as exc:
        c = next(c for _, c in dec.total.items() if c.denominator % p == 0)
        raise PJWIntegrityError(
            f"coefficient {c} of the ({p}, {dec.n}) projector is not {p}-integral"
        ) from exc
    return TLMorphism._from_nums(dec.n, dec.n, ring, nums, den)


def markov_closure(dec: PJWDecomposition) -> Fraction:
    """Full closure of the total; equals sum of (-1)^i (i+1) over the index set."""
    return markov_trace(dec.total)


def expected_markov_closure(dec: PJWDecomposition) -> Fraction:
    return Fraction(sum((-1) ** i * (i + 1) for i in dec.terms))


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    n: int
    p: int
    passed: bool
    mode: str  # "direct" | "certified"
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] p={self.p} n={self.n} {self.name} [{self.mode}]{extra}"


@dataclass
class BatteryReport:
    n: int
    p: int
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _recompute_lambda_table(n: int, p: int) -> dict[int, Fraction]:
    """The scalar table straight from the digit recursion, no diagrams."""
    data = p_support(n, p)
    if data.is_adam:
        return {n: Fraction(1)}
    parent = _recompute_lambda_table(data.father, p)
    m = data.gap
    out: dict[int, Fraction] = {}
    for i, lam in parent.items():
        out[i + m] = lam
        out[i - m] = Fraction((-1) ** m * (i + 1 - m), i + 1) * lam
    return out


def _sandwich(ti: PJWTerm, tj: PJWTerm, jw_cache: JWCache) -> bool:
    """q_i o flip(q_j) == delta_ij (1/lambda_i) JW_i, by brute composition."""
    mm = compose(ti.q_map, tj.q_map.flip())
    if ti.i == tj.i:
        return mm == jones_wenzl(ti.i, QQ, jw_cache).scale(1 / ti.lam)
    return mm.is_zero()


def verify_battery(
    dec: PJWDecomposition, caches: Optional[Caches] = None
) -> BatteryReport:
    """Run every check the construction promises; see the module docstring.

    Results are cached per (p, n); ancestors are verified first because the
    certified modes at level n cite the father-level sandwich facts.
    """
    caches = caches if caches is not None else GLOBAL_CACHES
    cached = caches.reports.get((dec.prime, dec.n))
    if cached is not None:
        return cached

    n, p = dec.n, dec.prime
    checks: list[CheckResult] = []
    passed: dict[str, bool] = {}  # check names are unique within a battery

    def add(name: str, ok, mode: str, detail: str = ""):
        passed[name] = bool(ok)
        checks.append(CheckResult(name, n, p, passed[name], mode, detail))

    def decide(name, cost, direct, certify, why, budget=DIRECT_BUDGET_Q):
        """Check name by direct() within budget, else by certify(), citing
        the passed checks; both thunks run before decide returns."""
        if cost <= budget:
            add(name, direct(), "direct")
        else:
            add(name, certify(), "certified", why)

    data = p_support(n, p)
    jw_cache = caches.jw

    # index set and cardinality
    k_nonzero = sum(1 for d in p_adic_expansion(n + 1, p).digits if d)
    add(
        "index_set",
        dec.index_set == data.shifted and len(dec.terms) == 2 ** (k_nonzero - 1),
        "direct",
        f"I_n={list(data.shifted)}",
    )

    # scalar table against the pure digit recursion
    add(
        "lambda_table",
        dec.lambda_table == _recompute_lambda_table(n, p)
        and all(t.lam != 0 for t in dec.terms.values()),
        "direct",
    )

    add(
        "identity_coefficient",
        dec.total.identity_coefficient() == Fraction(1),
        "direct",
    )

    nums, den = dec.total.ints()
    minval = min_p_valuation(nums.values(), den, p)
    add("p_integrality", minval >= 0, "direct", f"min valuation {minval}")

    add("flip_invariant", flip_symmetric(dec.total), "direct")

    # Markov closure of the total
    closure = markov_closure(dec)
    add(
        "markov_closure",
        closure == expected_markov_closure(dec),
        "direct",
        f"closure {closure}",
    )

    if data.is_adam:
        add(
            "adam_is_jw",
            dec.total == jones_wenzl(n, QQ, jw_cache),
            "direct",
        )

    # per-component generator annihilation (fresh scans; projectors were
    # already scanned at cache insertion; q_map has top i)
    items = sorted(dec.terms.items())
    for i, t in items:
        if t.q_map is jw_cache.get(QQ, i):
            add(f"head_annihilation[{i}]", True, "direct", "scanned at insertion")
        else:
            killed = first_unkilled(t.q_map, 1, i) == i
            add(f"head_annihilation[{i}]", killed, "direct")

    # component traces pin the sandwich scalars
    for i, t in items:
        expected = Fraction((-1) ** i * (i + 1)) / t.lam
        trace = markov_trace(t.u)
        add(f"component_trace[{i}]", trace == expected, "direct", f"trace {trace}")

    # sandwich facts: q_i o flip(q_j) = delta_ij (1/lambda_i) JW_i.  Above the
    # budget, two-sided annihilation classifies the product: zero in mixed
    # arity, a multiple of the projector on the diagonal, with the multiple
    # pinned by the trace check above.
    for (i, ti), (j, tj) in combinations_with_replacement(items, 2):
        decide(
            f"sandwich[{i},{j}]",
            len(ti.q_map.terms) * len(tj.q_map.terms),
            lambda: _sandwich(ti, tj, jw_cache),
            lambda: passed[f"head_annihilation[{i}]"]
            and passed[f"head_annihilation[{j}]"]
            and (i != j or passed[f"component_trace[{i}]"]),
            "kill-classification + trace",
        )

    # component idempotence and orthogonality.  flip reverses products, so
    # for flip-symmetric u_i, u_j the product u_j o u_i is flip(u_i o u_j):
    # one flip pass per u, kept, stands for the second product
    scaled = [(i, t.u.scale(t.lam)) for i, t in items]  # lambda_i u_i, once each
    symmetric: dict[int, bool] = {}

    def flip_pass(i, u):
        if i not in symmetric:
            symmetric[i] = flip_symmetric(u)
        return symmetric[i]

    for (i, ui), (j, uj) in combinations_with_replacement(scaled, 2):
        cost = len(ui.terms) * len(uj.terms)
        if i == j:
            decide(
                f"component_idempotent[{i}]",
                cost,
                lambda: compose(ui, ui) == ui,
                lambda: passed[f"sandwich[{i},{i}]"],
                "follows from the diagonal sandwich",
            )
        else:
            decide(
                f"orthogonal[{i},{j}]",
                cost,
                lambda: flip_pass(i, ui) and flip_pass(j, uj)
                and compose(ui, uj).is_zero(),
                lambda: passed[f"sandwich[{i},{j}]"],
                "follows from the mixed sandwich",
            )

    # idempotence of the total
    index = [i for i, _ in items]
    decide(
        "total_idempotent",
        len(dec.total.terms) ** 2,
        lambda: compose(dec.total, dec.total) == dec.total,
        lambda: all(passed[f"component_idempotent[{i}]"] for i in index)
        and all(passed[f"orthogonal[{i},{j}]"] for i, j in combinations(index, 2)),
        "sum of orthogonal idempotents",
    )

    # absorption against the father level; with the total and grown
    # flip-symmetric, grown o total is the flip of total o grown
    if not data.is_adam:
        fdec = rational_pjw(data.father, p, caches)
        freport = verify_battery(fdec, caches)
        grown = tensor_with_identity(fdec.total, data.gap)
        decide(
            "absorption",
            len(dec.total.terms) * len(grown.terms),
            lambda: passed["flip_invariant"] and flip_symmetric(grown)
            and compose(dec.total, grown) == dec.total,
            lambda: freport.ok
            and all(passed[f"head_annihilation[{i}]"] for i in index),
            "father battery + head annihilation + scalar recursion",
        )

    # reduction to F_p
    reduced = reduce_pjw(dec)
    decide(
        "reduction_idempotent",
        len(reduced.terms) ** 2,
        lambda: compose(reduced, reduced) == reduced,
        lambda: passed["total_idempotent"] and passed["p_integrality"],
        "reduction of integral coefficients is a ring map",
        DIRECT_BUDGET_FP,
    )

    report = BatteryReport(n, p, checks)
    caches.reports[(p, n)] = report
    return report

