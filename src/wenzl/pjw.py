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
attached with jw.apply_jw, the collapse maps are single diagrams, and the
conjugation that builds each summand u_i = flip(p_i) o JW_i o p_i walks the
same factor chain in reverse.  The component maps q_i = JW_i o p_i of the
top branch collapse to plain projectors (absorption), which is detected by a
per-diagram certificate scan rather than assumed.

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
    flip(p_map) o JW_i o p_map.  ``kind``/``gap``/``parent`` record how the
    term arose, which the conjugation walk and the battery reuse.
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
    """Shared memo tables for projectors, decompositions, and their parts."""

    jw: JWCache = field(default_factory=lambda: GLOBAL_JW_CACHE)
    pjw: dict[tuple[int, int], PJWDecomposition] = field(default_factory=dict)
    q_by_sig: dict[tuple, TLMorphism] = field(default_factory=dict)
    u_by_sig: dict[tuple, TLMorphism] = field(default_factory=dict)
    reports: dict[tuple[int, int], "BatteryReport"] = field(default_factory=dict)


GLOBAL_CACHES = Caches()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _flipped_collapse(i: int, m: int, pad: int):
    """flip of right_collapse_matching(i, m), padded: (i-m+pad) -> (i+m+pad)."""
    w = matching_flip(right_collapse_matching(i, m))
    if pad:
        w = matching_tensor(w, identity_matching(pad))
    return w


def _apply_flipped_p(term: PJWTerm, z: TLMorphism, pad: int, caches: Caches):
    """(flip(term.p_map) (x) id_pad) o z, walking the factor chain."""
    if term.kind == "adam":
        return z
    parent = term.parent
    assert parent is not None
    if term.kind == "plus":
        return _apply_flipped_q(parent, z, pad + term.gap, caches)
    # minus: p = JW_i o collapse o (q_parent (x) id_gap)
    z1 = apply_jw(term.i, z, caches.jw, pad=pad)
    z2 = apply_matching_left(_flipped_collapse(parent.i, term.gap, pad), z1)
    return _apply_flipped_q(parent, z2, pad + term.gap, caches)


def _apply_flipped_q(term: PJWTerm, z: TLMorphism, pad: int, caches: Caches):
    """(flip(term.q_map) (x) id_pad) o z = (flip(p) JW_i (x) id_pad) o z."""
    z1 = apply_jw(term.i, z, caches.jw, pad=pad)
    return _apply_flipped_p(term, z1, pad, caches)


def _build_u(term: PJWTerm, caches: Caches) -> TLMorphism:
    cached = caches.u_by_sig.get(term.sig)
    if cached is not None:
        return cached
    u = _apply_flipped_p(term, term.q_map, 0, caches)
    caches.u_by_sig[term.sig] = u
    return u


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
    terms: dict[int, PJWTerm] = {}
    if data.is_adam:
        jw_n = jones_wenzl(n, QQ, caches.jw)
        term = PJWTerm(
            i=n,
            lam=Fraction(1),
            p_map=TLMorphism.identity(n),
            q_map=jw_n,
            u=jw_n,
            kind="adam",
            gap=0,
            parent=None,
            sig=("jw", n),
        )
        terms[n] = term
        dec = PJWDecomposition(n, p, terms, jw_n)
        caches.pjw[(p, n)] = dec
        return dec

    assert data.father is not None and data.gap is not None
    m = data.gap
    father = rational_pjw(data.father, p, caches)

    for i, parent in sorted(father.terms.items()):
        # plus child: tensor m fresh strands onto the parent composite
        plus_i = i + m
        p_plus = tensor_with_identity(parent.q_map, m)
        if parent.sig == ("jw", i) and absorbs_certificate(p_plus):
            # top branch: JW_{i+m} absorbs JW_i (x) id_m entirely
            sig_plus = ("jw", plus_i)
            q_plus = jones_wenzl(plus_i, QQ, caches.jw)
        else:
            sig_plus = ("+", m, parent.sig)
            q_plus = caches.q_by_sig.get(sig_plus)
            if q_plus is None:
                q_plus = apply_jw(plus_i, p_plus, caches.jw)
                caches.q_by_sig[sig_plus] = q_plus
        term_plus = PJWTerm(
            i=plus_i,
            lam=parent.lam,
            p_map=p_plus,
            q_map=q_plus,
            u=TLMorphism.zero(n, n),
            kind="plus",
            gap=m,
            parent=parent,
            sig=sig_plus,
        )
        term_plus.u = _build_u(term_plus, caches)
        terms[plus_i] = term_plus

        # minus child: collapse the m fresh strands back onto the parent
        minus_i = i - m
        assert minus_i >= 0
        sig_minus = ("-", m, parent.sig)
        collapse = right_collapse_matching(i, m)
        y = apply_matching_left(collapse, p_plus)
        q_minus = caches.q_by_sig.get(sig_minus)
        if q_minus is None:
            q_minus = apply_jw(minus_i, y, caches.jw)
            caches.q_by_sig[sig_minus] = q_minus
        lam_minus = Fraction((-1) ** m * (i + 1 - m), i + 1) * parent.lam
        term_minus = PJWTerm(
            i=minus_i,
            lam=lam_minus,
            p_map=q_minus,
            q_map=q_minus,
            u=TLMorphism.zero(n, n),
            kind="minus",
            gap=m,
            parent=parent,
            sig=sig_minus,
        )
        term_minus.u = _build_u(term_minus, caches)
        terms[minus_i] = term_minus

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

    # component idempotence and orthogonality
    scaled = [(i, t.u.scale(t.lam)) for i, t in items]  # lambda_i u_i, once each
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
                lambda: compose(ui, uj).is_zero() and compose(uj, ui).is_zero(),
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

    # absorption against the father level
    if not data.is_adam:
        fdec = rational_pjw(data.father, p, caches)
        freport = verify_battery(fdec, caches)
        grown = tensor_with_identity(fdec.total, data.gap)
        decide(
            "absorption",
            len(dec.total.terms) * len(grown.terms),
            lambda: compose(dec.total, grown) == dec.total
            and compose(grown, dec.total) == dec.total,
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

