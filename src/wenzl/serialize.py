"""Bit-exact JSON forms of morphisms, decompositions, and Hecke elements.

Morphism schema::

    {"bottom": n, "top": m, "ring": "Q" | "Fp:<p>",
     "terms": [{"pairs": [[a, b], ...], "coeff": "<string>"}, ...]}

Pairs are (min, max) sorted by min; terms are sorted by their pair lists;
rational coefficients print as "num/den" with the denominator omitted when
it is 1, prime-field coefficients as the residue.  parse(emit(x)) == x
exactly, which the test suite checks on randomized inputs.

Decomposition schema::

    {"n": n, "p": p,
     "terms": [{"i": i, "lambda": "num/den", "p_map": <morphism>,
                "u": <morphism>}, ...],
     "total": <morphism>}

Hecke elements: {"terms": [{"k": k, "coeff": {"<exponent>": coeff, ...}}]}.
"""

from __future__ import annotations

import json
from typing import Any

from .hecke import HeckeElement
from .rings import LaurentPoly, QQ, ring_by_name
from .tl import MAX_ARITY, TLMorphism, matching


def morphism_to_dict(f: TLMorphism) -> dict[str, Any]:
    """The JSON-ready form; each pair is the matching's own (a, b) tuple.

    Terms are sorted by ``partner``, which gives the pair-list order without
    comparing lists of tuples (see ``tl.CrossinglessMatching``).  A
    matching's pair tuple is built on its first emission and kept, so
    emitting it again allocates no pairs; JSON prints the tuples as arrays.
    Each coefficient is printed from its numerator and denominator, with
    no ring element built.
    """
    ring = f.ring
    fmt = ring.format_ratio
    items = sorted(f.ratios(), key=lambda t: t[0].partner)
    terms = [{"pairs": list(m.pairs), "coeff": fmt(a, d)} for m, a, d in items]
    return {"bottom": f.bottom, "top": f.top, "ring": ring.name, "terms": terms}


def morphism_from_dict(d: dict[str, Any]) -> TLMorphism:
    """The morphism of a parsed JSON document; ValueError if it is malformed."""
    if not isinstance(d, dict):
        raise ValueError("a morphism must be a JSON object")
    try:
        ring = ring_by_name(d["ring"])
        bottom, top = int(d["bottom"]), int(d["top"])
        if not (0 <= bottom <= MAX_ARITY and 0 <= top <= MAX_ARITY):
            raise ValueError(f"arity {bottom}->{top} outside 0..{MAX_ARITY}")
        parse = ring.parse_ratio
        ratios = {}
        for t in d["terms"]:
            pairs = t["pairs"]
            if 2 * len(pairs) != bottom + top:  # before matching() sizes a table
                raise ValueError(f"{len(pairs)} pairs for {bottom}+{top} points")
            ratios[matching(bottom, top, pairs)] = parse(t["coeff"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed morphism: {exc!r}") from exc
    return TLMorphism.from_ratios(bottom, top, ring, ratios)


def morphism_to_json(f: TLMorphism, indent: int | None = None) -> str:
    return json.dumps(morphism_to_dict(f), indent=indent)


def morphism_from_json(s: str) -> TLMorphism:
    return morphism_from_dict(json.loads(s))


def decomposition_to_dict(dec) -> dict[str, Any]:
    terms = []
    for i in sorted(dec.terms):
        t = dec.terms[i]
        terms.append(
            {
                "i": i,
                "lambda": QQ.format(t.lam),
                "p_map": morphism_to_dict(t.p_map),
                "u": morphism_to_dict(t.u),
            }
        )
    return {
        "n": dec.n,
        "p": dec.prime,
        "terms": terms,
        "total": morphism_to_dict(dec.total),
    }


def decomposition_to_json(dec, indent: int | None = None) -> str:
    return json.dumps(decomposition_to_dict(dec), indent=indent)


def hecke_to_dict(x: HeckeElement) -> dict[str, Any]:
    return {
        "terms": [
            {"k": k, "coeff": {str(e): c for e, c in sorted(x.terms[k].coeffs.items())}}
            for k in sorted(x.terms)
        ]
    }


def hecke_from_dict(d: dict[str, Any]) -> HeckeElement:
    terms = {}
    for t in d["terms"]:
        poly = LaurentPoly({int(e): int(c) for e, c in t["coeff"].items()})
        if poly:
            terms[int(t["k"])] = poly
    return HeckeElement(terms)


def hecke_to_json(x: HeckeElement, indent: int | None = None) -> str:
    return json.dumps(hecke_to_dict(x), indent=indent)


def hecke_from_json(s: str) -> HeckeElement:
    return hecke_from_dict(json.loads(s))
