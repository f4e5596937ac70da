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

Morphisms and decompositions are written as text in one pass, exactly as
``json.dumps`` prints the documents above, compact or with an indent: each
term is one f-string around its matching's kept pair text
(``CrossinglessMatching.pairs_json``) and its coefficient, so emission
builds no document tree.  The ``*_to_dict`` forms are the compact text
parsed back.

Hecke elements: {"terms": [{"k": k, "coeff": {"<exponent>": coeff, ...}}]}.
"""

from __future__ import annotations

from contextlib import contextmanager
import gc
import json
from typing import Any

from .hecke import HeckeElement
from .rings import LaurentPoly, QQ, ring_by_name
from .tl import TLMorphism, matching


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, if it is enabled, for the block.

    Parsing builds only acyclic objects: a document is a tree of one list
    per pair, and a parsed morphism is interned matchings and int maps.  Yet
    their millions of new objects trigger full collections that re-walk
    every interned matching (on a 2-core VM, parsing the p = 2, n = 11
    decomposition took 3.2 s, of which 0.6 s outside the collector).  Only
    a block that paused the collector restarts it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _parsed(text: str) -> Any:
    """json.loads(text) with the cyclic collector paused."""
    with _collector_paused():
        return json.loads(text)


def _breaks(indent: int | None, level: int) -> tuple[str, str, str]:
    """The text after the opening bracket, between items and before the
    closing bracket of a JSON container at nesting ``level``, as
    ``json.dumps`` lays it out (an empty one is printed ``[]``)."""
    if indent is None:
        return "", ", ", ""
    inner = "\n" + " " * (indent * (level + 1))
    return inner, "," + inner, "\n" + " " * (indent * level)


def _spread_pair_lists(text: str, indent: int, level: int) -> str:
    """text with every compact pair list in it laid out at ``level``.

    Four replacements over the whole text: a compact pair list is the only
    place where "[[", "], [", ", " and "]]" occur, because coefficients are
    digits, a sign and a slash and indented separators end in a newline.
    """
    o, s, c = _breaks(indent, level)
    po, ps, pc = _breaks(indent, level + 1)
    return (
        text.replace("[[", "[" + o + "[" + po)
        .replace("], [", pc + "]" + s + "[" + po)
        .replace(", ", ps)
        .replace("]]", pc + "]" + c + "]")
    )


def _morphism_text(f: TLMorphism, indent: int | None = None, level: int = 0) -> str:
    """The document of f, compact or indented, opened at nesting ``level``.

    Terms are sorted by ``partner``, which gives the pair-list order without
    building pair lists (see ``tl.CrossinglessMatching``).  A matching's
    pair text is built on its first emission and kept; indented output
    spreads the pair lists of all terms at once.  Each coefficient is
    printed from its numerator and denominator, with no ring element built;
    it is digits, a sign and a slash, so it needs no escaping.
    """
    ring = f.ring
    fmt = ring.format_ratio
    items = sorted(f.ratios(), key=lambda t: t[0].partner)
    o1, s1, c1 = _breaks(indent, level)  # the document
    o2, s2, c2 = _breaks(indent, level + 1)  # its list of terms
    o3, s3, c3 = _breaks(indent, level + 2)  # each term
    terms = s2.join(
        [f'{{{o3}"pairs": {m.pairs_json}{s3}"coeff": "{fmt(a, d)}"{c3}}}' for m, a, d in items]
    )
    if not items:
        o2 = c2 = ""
    elif indent is not None:
        terms = _spread_pair_lists(terms, indent, level + 3)
    return (
        f'{{{o1}"bottom": {f.bottom}{s1}"top": {f.top}{s1}"ring": {json.dumps(ring.name)}'
        f'{s1}"terms": [{o2}{terms}{c2}]{c1}}}'
    )


def morphism_to_dict(f: TLMorphism) -> dict[str, Any]:
    """The parsed form of :func:`morphism_to_json`: pairs are lists."""
    return _parsed(_morphism_text(f))


def morphism_from_dict(d: dict[str, Any]) -> TLMorphism:
    """The morphism of a parsed JSON document; ValueError if it is malformed.

    The arities must be JSON integers, and no diagram may be listed twice.
    The matchings are interned with the cyclic collector paused.
    """
    if not isinstance(d, dict):
        raise ValueError("a morphism must be a JSON object")
    if "ring" not in d and "total" in d:
        raise ValueError('got a decomposition document; its "total" is a morphism')
    try:
        ring = ring_by_name(d["ring"])
        bottom, top = d["bottom"], d["top"]
        if type(bottom) is not int or type(top) is not int:  # refuses bools too
            raise ValueError(f"arity {bottom!r}->{top!r} is not two integers")
        parse = ring.parse_ratio
        ratios = {}
        with _collector_paused():
            for t in d["terms"]:
                pairs = t["pairs"]
                if 2 * len(pairs) != bottom + top:  # before matching() sizes a table
                    raise ValueError(f"{len(pairs)} pairs for {bottom}+{top} points")
                m = matching(bottom, top, pairs)
                if m in ratios:  # however its pairs are spelled
                    raise ValueError(f"diagram {m.pairs_json} is listed twice")
                ratios[m] = parse(t["coeff"])
    except KeyError as exc:
        raise ValueError(f"malformed morphism: missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed morphism: {exc!r}") from exc
    return TLMorphism.from_ratios(bottom, top, ring, ratios)


def morphism_to_json(f: TLMorphism, indent: int | None = None) -> str:
    return _morphism_text(f, indent)


def morphism_from_json(s: str) -> TLMorphism:
    return morphism_from_dict(_parsed(s))


def _decomposition_text(dec, indent: int | None = None) -> str:
    o1, s1, c1 = _breaks(indent, 0)  # the document
    o2, s2, c2 = _breaks(indent, 1)  # its list of terms
    o3, s3, c3 = _breaks(indent, 2)  # each term
    terms = s2.join(
        [
            f'{{{o3}"i": {i}{s3}"lambda": "{QQ.format(t.lam)}"'
            f'{s3}"p_map": {_morphism_text(t.p_map, indent, 3)}'
            f'{s3}"u": {_morphism_text(t.u, indent, 3)}{c3}}}'
            for i, t in sorted(dec.terms.items())
        ]
    )
    if not dec.terms:
        o2 = c2 = ""
    return (
        f'{{{o1}"n": {dec.n}{s1}"p": {dec.prime}{s1}"terms": [{o2}{terms}{c2}]'
        f'{s1}"total": {_morphism_text(dec.total, indent, 1)}{c1}}}'
    )


def decomposition_to_dict(dec) -> dict[str, Any]:
    return _parsed(_decomposition_text(dec))


def decomposition_to_json(dec, indent: int | None = None) -> str:
    return _decomposition_text(dec, indent)


def hecke_to_dict(x: HeckeElement) -> dict[str, Any]:
    return {
        "terms": [
            {"k": k, "coeff": {str(e): c for e, c in sorted(x.terms[k].coeffs.items())}}
            for k in sorted(x.terms)
        ]
    }


def hecke_from_dict(d: dict[str, Any]) -> HeckeElement:
    """The Hecke element of a parsed JSON document; ValueError if it is
    malformed.  Lengths and coefficients must be JSON integers, and no
    length or exponent may be listed twice."""
    terms = {}
    try:
        for t in d["terms"]:
            k, coeff = t["k"], t["coeff"]
            if type(k) is not int or any(type(c) is not int for c in coeff.values()):
                raise ValueError(f"term {t!r} has a non-integer length or coefficient")
            if k in terms:
                raise ValueError(f"word length {k} is listed twice")
            poly = {int(e): c for e, c in coeff.items()}
            if len(poly) != len(coeff):
                raise ValueError(f"an exponent of b{k} is listed twice")
            terms[k] = LaurentPoly(poly)
    except KeyError as exc:
        raise ValueError(f"malformed Hecke element: missing field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed Hecke element: {exc!r}") from exc
    return HeckeElement(terms)


def hecke_to_json(x: HeckeElement, indent: int | None = None) -> str:
    return json.dumps(hecke_to_dict(x), indent=indent)


def hecke_from_json(s: str) -> HeckeElement:
    return hecke_from_dict(json.loads(s))
