import hashlib
from pathlib import Path

import pytest

from sphsys import families, render, search
from sphsys.dynkin import parse_diagram
from sphsys.system import SphericalSystem

GOLDEN = Path(__file__).parent / "golden"

# the rank-one rows on their own support, smallest admissible rank
RANK1 = [
    ("a2",   "A2",    (),        (1, 1)),
    ("ap1",  "A1",    (),        (2,)),
    ("aa11", "A1,A1", (),        (1, 1)),
    ("d3",   "A3",    (0, 2),    (1, 2, 1)),
    ("b2",   "B2",    (1,),      (1, 1)),
    ("bp2",  "B2",    (1,),      (2, 2)),
    ("bs2",  "B2",    (),        (1, 1)),
    ("bss3", "B3",    (0, 1),    (1, 2, 3)),
    ("c3",   "C3",    (0, 2),    (1, 2, 1)),
    ("cs3",  "C3",    (2,),      (1, 2, 1)),
    ("d4",   "D4",    (1, 2, 3), (2, 2, 1, 1)),
    ("f4",   "F4",    (0, 1, 2), (1, 2, 3, 2)),
    ("g2",   "G2",    (1,),      (2, 1)),
    ("gp2",  "G2",    (1,),      (4, 2)),
    ("gs2",  "G2",    (),        (1, 1)),
]

CATALOG_PICKS = [
    ("go2",       "go(2)",         {}),
    ("fd4",       "fd(4)",         {}),
    ("ao4",       "ao(n)",         {"n": 4}),
    ("ac5",       "ac(n)",         {"n": 5}),
    ("aa232",     "aa(p+q+p)",     {"p": 2, "q": 3}),
    ("ccp22",     "cc'(p+2)",      {"p": 2}),
    ("dc5",       "dc(n)",         {"n": 5}),
    ("eo6",       "eo(n)",         {"n": 6}),
    ("aa11_cs3",  "aa(1,1)+c*(n)", {"n": 3}),
    ("bs4_bss3",  "b*(4)+b**(3)",  {}),
]


def _rank1_system(spec, sp, gamma):
    return SphericalSystem(parse_diagram(spec), sp=sp, sigma=(gamma,))


def _all_fixtures():
    for slug, spec, sp, g in RANK1:
        yield slug, _rank1_system(spec, sp, g)
    for slug, name, params in CATALOG_PICKS:
        yield slug, families.instantiate(name, **params)


FIXTURES = list(_all_fixtures())


class TestGolden:
    @pytest.mark.parametrize("slug,sys", FIXTURES, ids=[s for s, _ in FIXTURES])
    def test_text(self, slug, sys):
        assert render.render_text(sys) == (GOLDEN / f"{slug}.txt").read_text()

    @pytest.mark.parametrize("slug,sys", FIXTURES, ids=[s for s, _ in FIXTURES])
    def test_svg(self, slug, sys):
        assert render.render_svg(sys) == (GOLDEN / f"{slug}.svg").read_text()

    def test_nothing_extra_in_golden_dir(self):
        assert len(list(GOLDEN.glob("*"))) == 2 * len(FIXTURES)


# every system the search finds on these diagrams ...
PIN_ENUMERATED = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
                  "D5", "F4", "G2", "E6", "A1,A1", "A1,A2", "A1,B2", "B2,B2",
                  "A1,A1,A1", "A2,G2", "A1,D4")
# ... and every catalog member on these
PIN_CATALOG = ("E6", "E7", "E8", "A6", "B6", "C6", "D6", "D7", "F4,F4",
               "A1,C5", "C3,C4", "G2,G2")


def test_renderings_beyond_the_goldens_are_pinned():
    # one digest over 3,810 renderings, both formats, each ended by a NUL
    systems = []
    for spec in PIN_ENUMERATED:
        systems += search.enumerate_systems(parse_diagram(spec))
    for spec in PIN_CATALOG:
        systems += [e.system
                    for e in families.expand_catalog(parse_diagram(spec))]
    digest = hashlib.sha256()
    for sys in systems:
        for out in (render.render_text(sys), render.render_svg(sys)):
            digest.update(out.encode() + b"\0")
    assert len(systems) == 1905
    assert digest.hexdigest() == ("f29bdb6c37e7c33e4576fb268624685450bd46"
                                  "156fae714c6f826c3c5e87a55f")


class TestScene:
    @pytest.mark.parametrize("slug,sys", FIXTURES, ids=[s for s, _ in FIXTURES])
    def test_circles_cover_colour_incidences(self, slug, sys):
        scene = render.build_scene(sys)
        circled = {c.node for c in scene.circles}
        assert circled == set(range(sys.diagram.n_nodes)) - sys.sp
        for c in scene.circles:
            assert c.node in sys.colours[c.colour].nodes

    @pytest.mark.parametrize("slug,sys", FIXTURES, ids=[s for s, _ in FIXTURES])
    def test_connectors_join_one_colour(self, slug, sys):
        scene = render.build_scene(sys)
        for conn in scene.connectors:
            assert set(conn.nodes) == set(sys.colours[conn.colour].nodes)
            assert len(conn.nodes) > 1

    @pytest.mark.parametrize("slug,sys", FIXTURES, ids=[s for s, _ in FIXTURES])
    def test_renderers_agree_on_marker_counts(self, slug, sys):
        scene = render.build_scene(sys)
        svg = render.render_svg(sys)
        assert svg.count('id="circ-') == len(scene.circles)
        assert svg.count('id="node-') == sys.diagram.n_nodes
        joined = (svg.count('id="conn-'))
        assert joined == len(scene.connectors)
        text = render.render_text(sys)
        markers = sum(line.count("o") + line.count("u")
                      + line.count("O") + line.count("U")
                      for line in text.splitlines()
                      if not line.startswith("  ") or ":" not in line)
        assert markers >= len(scene.circles)

    def test_deterministic(self):
        sys = families.instantiate("aa(p+q+p)", p=2, q=3)
        assert render.render_text(sys) == render.render_text(sys)
        assert render.render_svg(sys) == render.render_svg(sys)

    def test_one_legend_line_per_root(self):
        for slug, sys in FIXTURES:
            text = render.render_text(sys)
            legend = [l for l in text.splitlines() if ": " in l and "[" in l]
            assert len(legend) == len(sys.sigma), slug


class TestExamples:
    def test_empty_system_is_bare_diagram(self):
        for spec in ["A3", "B2", "G2", "F4", "D4", "E6", "A1,A1"]:
            d = parse_diagram(spec)
            bare = render.render_text(SphericalSystem(d, sp=range(d.n_nodes)))
            assert bare == render.render_diagram_text(d)
            assert "o" not in bare and "u" not in bare
            assert bare.splitlines()[0] == spec

    def test_doubled_simple_root_marker(self):
        sys = _rank1_system("A1", (), (2,))
        text = render.render_text(sys)
        assert "u" in text and "2" in text
        assert "a'(1)" in text

    def test_go2_has_two_doubled_markers(self):
        text = render.render_text(families.instantiate("go(2)"))
        marker_row = [l for l in text.splitlines() if l.strip("u ") == ""]
        assert any(l.count("u") == 2 for l in marker_row)
        assert text.count("a'(1)") == 2

    def test_aa11_svg_topology(self):
        svg = render.render_svg(families.instantiate("aa(p,p)", p=1))
        assert svg.count('id="circ-') == 2
        assert svg.count('id="conn-') == 1
        assert 'fill="#bbb"' not in svg

    def test_svg_is_wellformed_enough(self):
        import xml.dom.minidom
        for slug, sys in FIXTURES:
            doc = xml.dom.minidom.parseString(render.render_svg(sys))
            assert doc.documentElement.tagName == "svg", slug


class TestLayoutPaths:
    def test_disjoint_connectors_share_one_lane(self):
        sys = SphericalSystem("A1,A1,A1,A1", [], [[1, 1, 0, 0], [0, 0, 1, 1]])
        scene = render.build_scene(sys)
        assert scene.connectors == (render.Connector(0, (0, 1)),
                                    render.Connector(1, (2, 3)))
        assert render.render_text(sys) == (
            "A1,A1,A1,A1\n"
            "  1        1        1        1\n"
            "  o        o        o        o\n"
            "  +--------+        +--------+\n"
            "\n"
            "  aa(1,1): a0.1+a1.1  [join 0.1-1.1]\n"
            "  aa(1,1): a2.1+a3.1  [join 2.1-3.1]\n")
        svg = render.render_svg(sys)
        assert 'height="164"' in svg           # one lane below the spine
        assert ('<polyline id="conn-0" points="30,98 30,136 120,136 '
                '120,98"') in svg
        assert ('<polyline id="conn-1" points="210,98 210,136 300,136 '
                '300,98"') in svg

    def test_connector_to_a_branch_node_is_a_note_and_a_straight_line(self):
        sys = SphericalSystem("D4", [], [[1, 0, 0, 1]])
        scene = render.build_scene(sys)
        assert scene.connectors == (render.Connector(0, (0, 3)),)
        assert [g.index for g in scene.nodes if g.riser] == [3]
        assert render.render_text(sys) == (
            "D4\n"
            "        o\n"
            "        4\n"
            "        |\n"
            "  1 --- 2 --- 3\n"
            "  o     o     o\n"
            "  joined: 1,4\n"
            "\n"
            "  aa(1,1): a1+a4  [join 1-4]\n")
        svg = render.render_svg(sys)
        assert ('<line id="conn-0" x1="30" y1="84" x2="90" y2="24" '
                'stroke="#000" stroke-width="1.2"/>') in svg
        assert "polyline" not in svg

    def test_a_system_with_no_colour_functional_is_drawn(self):
        # a1+a3 joins 1 and 3 in one colour, which pairs -1 and 3 with
        # a2+2a3, so no colour functional exists; a shadow reads only its
        # node's coroot pairing with the root, here 3 on node 3
        sys = SphericalSystem("A3", [], [(1, 0, 1), (0, 1, 2)])
        with pytest.raises(ValueError, match=r"with root \[0, 1, 2\]"):
            sys.rho_matrix
        assert render.render_text(sys) == (
            "A3\n"
            "        ~~~~~~~\n"
            "  1 --- 2 --- 3\n"
            "  o     o     O\n"
            "  +-----------+\n"
            "\n"
            "  aa(1,1): a1+a3  [join 1-3]\n"
            "  no rank-one row: a2+2a3  [zigzag 2..3; shadow 3]\n")
        svg = render.render_svg(sys)
        assert svg.count('fill="#bbb"') == 1
        assert 'id="circ-2" cx="150" cy="84" r="12" fill="#bbb"' in svg

    def test_renderers_route_a_connector_by_any_of_its_nodes(self):
        # an invalid system (its two orthogonal-pair roots share a node)
        # whose colour runs 1-2-3 through the branch node 2 in its middle
        sys = SphericalSystem("E6", [3, 4, 5],
                              [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0)])
        assert not sys.is_valid
        assert render.build_scene(sys).connectors == (
            render.Connector(0, (0, 1, 2)),)
        assert "  joined: 1,2,3\n" in render.render_text(sys)
        svg = render.render_svg(sys)
        assert ('<line id="conn-0" x1="30" y1="84" x2="90" y2="84" '
                'stroke="#000" stroke-width="1.2"/>') in svg
        assert "polyline" not in svg
