"""Text rendering smoke tests (shape checks, not pixel art)."""

import re

from wenzl.jw import jones_wenzl
from wenzl.render import ascii_matching, ascii_morphism, tikz_matching, tikz_morphism
from wenzl.rings import QQ
from wenzl.tl import TLMorphism, e_matching, identity_matching, matching


def test_identity_is_vertical_bars():
    art = ascii_matching(identity_matching(3))
    assert art.splitlines() == ["| | |"]


def test_e1_is_cup_over_cap():
    art = ascii_matching(e_matching(1, 2))
    assert art.splitlines() == ["+-+", "+-+"]


def test_cup_render():
    art = ascii_matching(matching(0, 2, [(0, 1)]))
    assert "+" in art and "-" in art


def test_nested_arcs_have_depth():
    from wenzl.tl import nested_caps_matching

    art = ascii_matching(nested_caps_matching(2))
    lines = art.splitlines()
    assert len(lines) == 2
    assert lines[0].count("+") == 2  # inner arc
    assert lines[1].count("+") == 2  # outer arc below it


def test_through_with_jog_renders():
    from wenzl.tl import matching

    m = matching(3, 1, [(0, 1), (2, 3)])
    art = ascii_matching(m)
    assert "+" in art  # the jog corners


def test_morphism_render_includes_coefficients(jw_cache):
    from wenzl.jw import jones_wenzl

    art = ascii_morphism(jones_wenzl(2, QQ, jw_cache))
    assert "1/2" in art
    assert "2 term(s)" in art


def test_zero_render():
    assert ascii_morphism(TLMorphism.zero(2, 2)).startswith("0")


def test_tikz_contains_draws():
    t = tikz_matching(e_matching(1, 2))
    assert t.startswith("\\begin{tikzpicture}")
    assert t.count("\\draw") == 2


def test_tikz_coordinates_print_without_float_noise():
    # 0.6 * 1.5 and 0.4 * 1.5 are 0.8999999999999999 and 0.6000000000000001
    t = tikz_morphism(jones_wenzl(3))
    coords = re.findall(r"\((-?[\d.]+),(-?[\d.]+)\)", t)
    assert coords
    for x, y in coords:
        for v in (x, y):
            assert len(v.partition(".")[2]) <= 4, v
    assert "(0,0.9)" in t and "(0,0.6)" in t


def test_long_morphisms_are_cut_after_max_terms(jw_cache):
    # JW_5 has 42 terms: ASCII shows 24 of them and TikZ 12, in partner order
    jw5 = jones_wenzl(5, QQ, jw_cache)
    assert len(jw5.terms) == 42
    first = min(jw5.terms, key=lambda m: m.partner)
    art = ascii_morphism(jw5).split("\n")
    assert art[0] == "5->5 over Q, 42 term(s):"
    assert art[1] == f"coeff {QQ.format(jw5.coefficient(first))}:"
    assert sum(line.startswith("coeff ") for line in art) == 24
    assert art[-1] == "... (18 more terms)"
    tikz = tikz_morphism(jw5).split("\n")
    assert tikz[0] == "% 5->5 over Q, 42 term(s)"
    assert tikz.count("\\begin{tikzpicture}[scale=0.7]") == 12
    assert sum(line.startswith("% coefficient ") for line in tikz) == 12
    assert tikz[-1] == "% ... (30 more terms)"
