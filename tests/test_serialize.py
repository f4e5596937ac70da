"""Round-trip exactness of the JSON forms."""

import gc
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wenzl.hecke import HeckeElement
from wenzl.rings import LaurentPoly, PrimeFieldRing, QQ
from wenzl.serialize import (
    decomposition_to_dict,
    decomposition_to_json,
    hecke_from_json,
    hecke_to_json,
    morphism_from_dict,
    morphism_from_json,
    morphism_to_dict,
    morphism_to_json,
)
from wenzl.tl import TLMorphism, enumerate_basis, identity_matching, matching


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


def _morphism_oracle(f):
    """The emitter's document tree as it was with stored pair tuples: terms
    sorted by pair list, each coefficient a ring element printed by the ring."""
    terms = []
    for mm, c in f.items():
        p = mm.partner
        pairs = [(a, p[a]) for a in range(mm.bottom + mm.top) if p[a] > a]
        terms.append({"pairs": pairs, "coeff": f.ring.format(c)})
    terms.sort(key=lambda t: t["pairs"])
    return {"bottom": f.bottom, "top": f.top, "ring": f.ring.name, "terms": terms}


def _emit_oracle(f, indent=None):
    return json.dumps(_morphism_oracle(f), indent=indent)


def _decomposition_oracle(dec, indent=None):
    """The decomposition emitter as it was: one dict tree, dumped once."""
    terms = [
        {
            "i": i,
            "lambda": QQ.format(dec.terms[i].lam),
            "p_map": _morphism_oracle(dec.terms[i].p_map),
            "u": _morphism_oracle(dec.terms[i].u),
        }
        for i in sorted(dec.terms)
    ]
    doc = {"n": dec.n, "p": dec.prime, "terms": terms, "total": _morphism_oracle(dec.total)}
    return json.dumps(doc, indent=indent)


_RINGS = [QQ, PrimeFieldRing(2), PrimeFieldRing(3), PrimeFieldRing(5)]
_HOMS = [(n, m) for n in range(9) for m in range(9 - n) if (n + m) % 2 == 0]
# Denominators near 2**30 whose lcm outgrows the bound of the pair form
_WIDE = st.integers(2**29, 2**30)


@st.composite
def _morphisms(draw):
    ring = draw(st.sampled_from(_RINGS))
    basis = enumerate_basis(*draw(st.sampled_from(_HOMS)))
    chosen = draw(st.lists(st.sampled_from(basis), max_size=40, unique=True))
    dens = draw(st.sampled_from([st.integers(1, 30), _WIDE]))
    terms = {}
    for mm in chosen:
        num = draw(st.integers(-50, 50))
        c = QQ.fraction(num, draw(dens)) if ring is QQ else ring.from_int(num)
        if c:
            terms[mm] = c
    return TLMorphism(basis[0].bottom, basis[0].top, ring, terms)


def _pair_form_example():
    rng = random.Random(3)
    basis = enumerate_basis(4, 4)
    terms = {mm: QQ.fraction(rng.randint(1, 99), rng.randint(2**29, 2**30)) for mm in basis}
    f = TLMorphism(4, 4, QQ, terms)
    assert f.den is None  # the lcm of 14 such denominators has some 400 bits
    return f


@settings(max_examples=200, deadline=None)
@given(f=_morphisms(), indent=st.sampled_from([None, 1, 2]))
@example(f=_pair_form_example(), indent=None)
@example(f=_pair_form_example(), indent=2)
def test_emission_matches_pair_list_oracle(f, indent):
    assert morphism_to_json(f, indent=indent) == _emit_oracle(f, indent)
    assert morphism_to_dict(f) == json.loads(_emit_oracle(f))


def _reprinted(text, indent):
    """The indented emitter as it was: the compact text re-printed by json."""
    return json.dumps(json.loads(text), indent=indent)


@settings(max_examples=200, deadline=None)
@given(f=_morphisms(), indent=st.sampled_from([0, 1, 2, 4]))
@example(f=TLMorphism.zero(0, 0), indent=2)
@example(f=TLMorphism.zero(3, 1, PrimeFieldRing(3)), indent=0)
@example(f=TLMorphism.identity(0), indent=4)  # one term with no pairs
@example(f=_pair_form_example(), indent=1)
def test_indented_emission_matches_reprinted_compact_text(f, indent):
    assert morphism_to_json(f, indent=indent) == _reprinted(morphism_to_json(f), indent)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_indented_decomposition_matches_reprinted_compact_text(p, caches):
    from wenzl.pjw import PJWDecomposition, rational_pjw

    empty = PJWDecomposition(n=0, prime=p, terms={}, total=TLMorphism.zero(0, 0))
    for dec in [empty] + [rational_pjw(n, p, caches) for n in range(1, 9)]:
        text = decomposition_to_json(dec)
        for indent in (0, 1, 2, 4):
            assert decomposition_to_json(dec, indent=indent) == _reprinted(text, indent)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_decomposition_emission_matches_oracle(p, caches):
    from wenzl.pjw import rational_pjw

    for n in range(1, 10):
        dec = rational_pjw(n, p, caches)
        assert decomposition_to_json(dec) == _decomposition_oracle(dec)
        assert decomposition_to_json(dec, indent=2) == _decomposition_oracle(dec, 2)
        assert decomposition_to_dict(dec) == json.loads(_decomposition_oracle(dec))


def test_parsed_forms_leave_the_collector_as_found():
    f = TLMorphism.identity(3)
    text = morphism_to_json(f)
    assert gc.isenabled()
    morphism_to_dict(f)
    morphism_to_json(f, indent=2)
    assert morphism_from_json(text) == f
    assert gc.isenabled()
    with pytest.raises(ValueError):
        morphism_from_json(text[:-1])  # truncated: not JSON
    assert gc.isenabled()
    gc.disable()
    try:
        morphism_to_dict(f)
        assert morphism_from_json(text) == f
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_parser_pauses_the_collector(monkeypatch):
    # the collector is off while json.loads builds the document tree, and
    # while morphism_from_dict interns the matchings of a parsed document
    import wenzl.serialize

    seen = []
    loads = json.loads
    monkeypatch.setattr(
        wenzl.serialize.json, "loads", lambda s: seen.append(gc.isenabled()) or loads(s)
    )
    morphism_from_json(morphism_to_json(TLMorphism.identity(3)))
    assert seen == [False]
    assert gc.isenabled()
    interned = []
    build = wenzl.serialize.matching
    monkeypatch.setattr(
        wenzl.serialize, "matching",
        lambda *args: interned.append(gc.isenabled()) or build(*args),
    )
    doc = morphism_to_dict(random_morphism(random.Random(3), 3, 3, QQ))
    assert morphism_from_dict(doc) == morphism_from_json(json.dumps(doc))
    assert interned and not any(interned)
    assert gc.isenabled()
    doc["terms"][0]["pairs"] = [[0, 1], [0, 2], [4, 5]]  # a point used twice
    with pytest.raises(ValueError):
        morphism_from_dict(doc)
    assert gc.isenabled()


@pytest.mark.parametrize(
    "n,m", [(n, m) for n in range(13) for m in range(13 - n) if (n + m) % 2 == 0]
)
def test_pair_text_is_json_of_pair_list(n, m):
    for mm in enumerate_basis(n, m):
        p = mm.partner
        assert mm.pairs_json == json.dumps([[a, p[a]] for a in range(n + m) if p[a] > a])


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


@pytest.mark.parametrize(
    "doc",
    [
        '{"terms": [{"k": 1, "coeff": {"0": 1}}, {"k": 1, "coeff": {"0": 2}}]}',
        '{"terms": [{"k": 1.7, "coeff": {"0": 1}}]}',
        '{"terms": [{"k": true, "coeff": {"0": 1}}]}',
        '{"terms": [{"k": 1, "coeff": {"0": 1.9}}]}',
        "[1]",
        '{"terms": [{"k": 1}]}',
    ],
    ids=["repeated_k", "float_k", "bool_k", "float_coeff", "top_level_array",
         "missing_coeff"],
)
def test_hecke_from_json_refuses_malformed(doc):
    with pytest.raises(ValueError):
        hecke_from_json(doc)


def test_hecke_from_json_refuses_an_exponent_spelled_twice():
    with pytest.raises(ValueError):
        hecke_from_json('{"terms": [{"k": 1, "coeff": {"0": 1, "00": 2}}]}')


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
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": [[0, 1], [0, 1]], "coeff": "1"}]},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": [[0, 2], [1, 3]], "coeff": "1"}]},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": [[0, 3.0], [1, 2]], "coeff": "1"}]},
        {"bottom": 2, "top": 2, "ring": "Q", "terms": [{"pairs": [[3.0, 0], [1, 2]], "coeff": "1"}]},
        {"bottom": 2, "top": 0, "ring": "Q", "terms": [{"pairs": [[False, True]], "coeff": "1"}]},
        {"bottom": 2, "top": 2, "ring": "Q",
         "terms": [{"pairs": [[0, 1], [2, 3]], "coeff": "1/2"},
                   {"pairs": [[0, 1], [2, 3]], "coeff": "-1/2"}]},
        {"bottom": 2, "top": 2, "ring": "Q",
         "terms": [{"pairs": [[0, 1], [2, 3]], "coeff": "1/2"},
                   {"pairs": [[1, 0], [3, 2]], "coeff": "-1/2"}]},
        {"bottom": 2.5, "top": 2, "ring": "Q", "terms": []},
        {"bottom": "2", "top": 2, "ring": "Q", "terms": []},
        {"bottom": 2, "top": True, "ring": "Q", "terms": []},
        [{"pairs": _ID2, "coeff": "1"}],
        "morphism",
    ],
    ids=["zero_denominator", "missing_coeff", "missing_pairs", "missing_ring",
         "ring_not_a_name", "pairs_not_a_list", "terms_not_a_list", "negative_arity",
         "pairs_short_of_arity", "arity_over_key_bound", "duplicate_pair_keys_smaller_arity",
         "crossing_twin_of_interned", "float_upper_label", "float_lower_label",
         "bool_labels", "repeated_diagram", "repeated_diagram_reversed_pairs", "float_arity",
         "string_arity", "bool_arity", "top_level_array", "top_level_string"],
)
def test_morphism_from_dict_refuses_malformed(doc):
    # intern the matchings whose keys the malformed pair lists share: a
    # list that keys an interned matching is refused all the same
    matching(2, 0, [(0, 1)])
    identity_matching(2)
    with pytest.raises(ValueError):
        morphism_from_dict(doc)


def test_morphism_from_dict_accepts_reversed_pairs():
    doc = {"bottom": 2, "top": 2, "ring": "Q",
           "terms": [{"pairs": [[1, 0], [3, 2]], "coeff": "1/2"}]}
    f = morphism_from_dict(doc)
    assert f == TLMorphism.from_matching(matching(2, 2, [(0, 1), (2, 3)]), QQ, QQ.parse("1/2"))
    assert morphism_from_dict(morphism_to_dict(f)) == f
