"""Round-trip exactness of the JSON forms."""

import json
import random

import pytest

from wenzl.hecke import HeckeElement
from wenzl.rings import LaurentPoly, PrimeFieldRing, QQ
from wenzl.serialize import (
    decomposition_to_dict,
    hecke_from_json,
    hecke_to_json,
    morphism_from_dict,
    morphism_from_json,
    morphism_to_dict,
    morphism_to_json,
)
from wenzl.tl import TLMorphism, enumerate_basis


def random_morphism(rng, n, m, ring):
    basis = enumerate_basis(n, m)
    terms = {}
    if basis:
        for mm in rng.sample(basis, rng.randint(0, min(6, len(basis)))):
            num = rng.randint(-40, 40)
            if ring is QQ:
                c = QQ.fraction(num, rng.randint(1, 24))
            else:
                c = ring.from_int(num)
            if c:
                terms[mm] = c
    return TLMorphism(n, m, ring, terms)


@pytest.mark.parametrize("ring", [QQ, PrimeFieldRing(2), PrimeFieldRing(5)])
def test_morphism_roundtrip_randomized(ring):
    rng = random.Random(101)
    for _ in range(100):
        n, m = rng.choice([(0, 0), (1, 1), (2, 2), (3, 3), (2, 4), (1, 3), (4, 4), (0, 4)])
        f = random_morphism(rng, n, m, ring)
        assert morphism_from_json(morphism_to_json(f)) == f


def test_schema_shape():
    rng = random.Random(5)
    f = random_morphism(rng, 2, 2, QQ)
    d = morphism_to_dict(f)
    assert set(d) == {"bottom", "top", "ring", "terms"}
    assert d["ring"] == "Q"
    for t in d["terms"]:
        assert set(t) == {"pairs", "coeff"}
        assert t["pairs"] == sorted(t["pairs"])
        assert isinstance(t["coeff"], str)
    assert d["terms"] == sorted(d["terms"], key=lambda t: t["pairs"])


def test_deterministic_emission():
    rng = random.Random(7)
    f = random_morphism(rng, 3, 3, QQ)
    assert morphism_to_json(f) == morphism_to_json(morphism_from_json(morphism_to_json(f)))


def test_fp_coefficients_are_residue_strings():
    ring = PrimeFieldRing(7)
    rng = random.Random(11)
    f = random_morphism(rng, 2, 2, ring)
    for t in morphism_to_dict(f)["terms"]:
        assert 0 < int(t["coeff"]) < 7


def test_decomposition_export(caches):
    from wenzl.pjw import rational_pjw

    dec = rational_pjw(10, 3, caches)
    d = decomposition_to_dict(dec)
    assert d["n"] == 10 and d["p"] == 3
    assert [t["i"] for t in d["terms"]] == [6, 10]
    assert d["terms"][0]["lambda"] == "7/9"
    total = morphism_from_dict(d["total"])
    assert total == dec.total
    for t in d["terms"]:
        assert morphism_from_dict(t["p_map"]) == dec.terms[t["i"]].p_map
        assert morphism_from_dict(t["u"]) == dec.terms[t["i"]].u
    json.dumps(d)  # fully JSON-serializable


def test_decomposition_roundtrip_all_computed(caches):
    from wenzl.pjw import rational_pjw

    for p, n in [(2, 6), (3, 7), (5, 6)]:
        dec = rational_pjw(n, p, caches)
        d = decomposition_to_dict(dec)
        assert morphism_from_dict(d["total"]) == dec.total


def test_hecke_roundtrip():
    x = HeckeElement({3: LaurentPoly({1: 1, -1: 1}), 5: LaurentPoly.constant(2)})
    assert hecke_from_json(hecke_to_json(x)) == x


_ID2 = [[0, 3], [1, 2]]


@pytest.mark.parametrize(
    "doc",
    [
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": _ID2, "coeff": "1/0"}]},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": _ID2}]},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"coeff": "1"}]},
        {"bottom": 2, "top": 2, "terms": []},
        {"bottom": 2, "top": 2, "ring": 5, "terms": []},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": 5, "coeff": "1"}]},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": {"pairs": _ID2}},
        {"bottom": -2, "top": 2, "ring": "Q", "terms": [{"pairs": [], "coeff": "1"}]},
        {"bottom": 10**12, "top": 2, "ring": "Q", "terms": [{"pairs": _ID2, "coeff": "1"}]},
        {"bottom": 256, "top": 2, "ring": "Q", "terms": []},
        [{"pairs": _ID2, "coeff": "1"}],
        "morphism",
    ],
    ids=["zero_denominator", "missing_coeff", "missing_pairs", "missing_ring",
         "ring_not_a_name", "pairs_not_a_list", "terms_not_a_list", "negative_arity",
         "pairs_short_of_arity", "arity_over_key_bound", "top_level_array",
         "top_level_string"],
)
def test_morphism_from_dict_refuses_malformed(doc):
    with pytest.raises(ValueError):
        morphism_from_dict(doc)
