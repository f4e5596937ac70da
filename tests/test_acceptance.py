"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero; the only graded quantity is verification mode.
Identities whose brute-force cost is Catalan-squared at large n are verified
directly up to the size budget and by computed certificates above it (the
certificate machinery itself is validated against brute force in the unit
tests and in the direct range here); each printed line records which.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
from fractions import Fraction

import pytest

from wenzl.hecke import (
    b1_power_closed_form,
    lemma_positivity_check,
    mul_b1_power,
    HeckeElement,
    p_canonical,
)
from wenzl.jw import apply_jw, close_jw, jones_wenzl, lambda_closure_scalar, sandwich_test
from wenzl.padic import lucas_jw_defined, p_support, support_via_admissible
from wenzl.pjw import rational_pjw, reduce_pjw, verify_battery
from wenzl.rings import NonInvertible, PrimeFieldRing, QQ
from wenzl.serialize import (
    decomposition_to_dict,
    morphism_from_dict,
    morphism_from_json,
    morphism_to_json,
)
from wenzl.tl import (
    TLMorphism,
    apply_e_bottom,
    apply_e_top,
    compose,
    enumerate_basis,
    markov_trace,
)

JW_MAX = 12
DIRECT_SQUARING_MAX_TERMS2 = 2_500_000


def announce(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def non_adams(p: int, up_to: int) -> list[int]:
    return [n for n in range(1, up_to + 1) if not p_support(n, p).is_adam]


@pytest.mark.slow
def test_criterion_1_classical_jw_suite(caches):
    """n = 1..12 over Q: idempotent, killed two-sidedly, flip-fixed,
    identity coefficient 1, full closure (-1)^n (n+1)."""
    modes = []
    for n in range(1, JW_MAX + 1):
        jw = jones_wenzl(n, QQ, caches.jw)
        for i in range(1, n):
            assert apply_e_top(i, jw).is_zero(), (n, i)
            assert apply_e_bottom(i, jw).is_zero(), (n, i)
        assert jw.identity_coefficient() == 1, n
        assert jw.flip() == jw, n
        assert markov_trace(jw) == Fraction((-1) ** n * (n + 1)), n
        if len(jw.terms) ** 2 <= DIRECT_SQUARING_MAX_TERMS2:
            assert compose(jw, jw) == jw, n
            modes.append("direct")
        else:
            # every non-identity diagram carries an adjacent top arc, so the
            # verified annihilation kills it in jw o jw term by term
            assert all(
                m.has_adjacent_top_arc() for m in jw.terms if not m.is_identity()
            ), n
            modes.append("certified")
    announce(
        "criterion 1: classical projector suite n=1..12",
        True,
        f"idempotence direct through n={modes.count('direct')}, "
        f"certified beyond",
    )


def test_criterion_2_closure_scalars(caches):
    """Nested right closures: m strands of JW_n give lambda(n, m) JW_(n-m),
    exactly, for all 0 <= m <= n <= 10."""
    count = 0
    for n in range(0, 11):
        for m in range(0, n + 1):
            closed, lam = close_jw(n, m, caches.jw)
            assert lam == lambda_closure_scalar(n, m)
            count += 1
    announce("criterion 2: closure scalar identities", True, f"{count} cases, exact")


def test_criterion_3_sandwiches(caches):
    """JW_m o D o JW_n over every basis diagram D, n+m <= 12: zero off the
    diagonal, a scalar multiple of JW_n on it."""
    pairs = 0
    for n in range(0, 13):
        for m in range(0, 13 - n):
            assert sandwich_test(n, m, caches.jw), (n, m)
            pairs += 1
    announce("criterion 3: projector sandwiches", True, f"{pairs} (n, m) pairs, exhaustive")


@pytest.mark.slow
@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_4_pjw_battery(p, caches):
    """Full battery at every non-Adam n <= 12: idempotence, orthogonal
    summands, absorption, p-integrality, mod-p idempotence."""
    lines = []
    for n in non_adams(p, JW_MAX):
        dec = rational_pjw(n, p, caches)
        report = verify_battery(dec, caches)
        assert report.ok, [c.line() for c in report.failures()]
        direct = sum(1 for c in report.checks if c.mode == "direct")
        certified = len(report.checks) - direct
        lines.append(f"n={n}:{direct}d/{certified}c")
    announce(f"criterion 4: p-projector battery (p={p})", True, " ".join(lines))


def test_criterion_5_regression_fixtures(caches):
    """The printed combinatorics of the worked 10-strand examples."""
    assert rational_pjw(10, 3, caches).lambda_table == {
        6: Fraction(7, 9),
        10: Fraction(1),
    }
    assert rational_pjw(10, 2, caches).lambda_table == {
        4: Fraction(-5, 8),
        6: Fraction(3, 4),
        8: Fraction(-9, 10),
        10: Fraction(1),
    }
    assert p_support(10, 2).father == 9
    assert p_support(9, 2).father == 7
    assert p_support(10, 3).father == 8
    assert p_support(7, 2).is_adam
    assert p_support(8, 3).is_adam
    announce("criterion 5: regression fixtures", True, "lambda tables + father chain")


def test_criterion_6_lucas_criterion(caches):
    """Over F_p the projector construction succeeds exactly when no binomial
    C(n, k) is divisible by p; for the no-father n it is idempotent."""
    attempts = 0
    for p in (2, 3, 5, 7):
        ring = PrimeFieldRing(p)
        for n in range(1, JW_MAX + 1):
            attempts += 1
            try:
                reduced = jones_wenzl(n, ring, caches.jw)
                defined = True
            except NonInvertible:
                defined = False
            assert defined == lucas_jw_defined(n, p), (n, p)
            if defined:
                assert compose(reduced, reduced) == reduced, (n, p)
                assert reduced.identity_coefficient() == ring.one
    announce("criterion 6: Lucas definability over F_p", True, f"{attempts} (n, p) attempts")


def test_criterion_7_hecke_bridge(caches):
    """Digit bridge, positivity, binomial oracle, and the support match
    between the Hecke expansion and the diagram-side decomposition."""
    for p in (2, 3, 5, 7):
        for n in range(1, 2001):
            assert p_support(n, p).supp == support_via_admissible(n, p), (n, p)
    for p in (2, 3, 5, 7):
        for n in non_adams(p, 200):
            rep = lemma_positivity_check(n, p)
            assert rep.ok, (n, p, rep)
    for j in range(11, 51):
        for m in range(0, 11):
            if m == 0:
                continue
            assert mul_b1_power(HeckeElement.basis(j), m) == b1_power_closed_form(j, m)
    for p in (2, 3, 5):
        for n in range(1, JW_MAX + 1):
            dec = rational_pjw(n, p, caches)
            assert tuple(i + 1 for i in dec.index_set) == tuple(
                sorted(p_canonical(n + 1, p).terms)
            ), (n, p)
    announce(
        "criterion 7: Hecke bridge",
        True,
        "support equivalence to n=2000, positivity to n=200, binomial oracle, "
        "decategorified support match to n=12",
    )


@pytest.mark.slow
def test_criterion_8_serialization_roundtrip(caches):
    """Bit-exact JSON round-trips: randomized morphisms and every computed
    decomposition."""
    rng = random.Random(2024)
    count = 0
    for ring in (QQ, PrimeFieldRing(2), PrimeFieldRing(3), PrimeFieldRing(5)):
        for _ in range(100):
            n, m = rng.choice(
                [(0, 0), (1, 1), (2, 2), (3, 3), (2, 4), (1, 3), (4, 4), (3, 5)]
            )
            basis = enumerate_basis(n, m)
            terms = {}
            for mm in rng.sample(basis, rng.randint(0, min(7, len(basis)))):
                c = (
                    QQ.fraction(rng.randint(-99, 99), rng.randint(1, 64))
                    if ring is QQ
                    else ring.from_int(rng.randint(-99, 99))
                )
                if c:
                    terms[mm] = c
            f = TLMorphism(n, m, ring, terms)
            assert morphism_from_json(morphism_to_json(f)) == f
            count += 1
    decs = 0
    for (p, n), dec in sorted(caches.pjw.items()):
        d = decomposition_to_dict(dec)
        assert morphism_from_dict(d["total"]) == dec.total, (p, n)
        for t in d["terms"]:
            assert morphism_from_dict(t["p_map"]) == dec.terms[t["i"]].p_map
            assert morphism_from_dict(t["u"]) == dec.terms[t["i"]].u
        decs += 1
    announce(
        "criterion 8: serialization round-trips",
        True,
        f"{count} randomized morphisms, {decs} decompositions",
    )
