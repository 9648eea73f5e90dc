"""Marked Dynkin diagrams for spherical systems, as text and as SVG.

The drawing convention: every node outside the parabolic set carries a
circle, drawn under the vertex when the doubled simple root is spherical
and around it otherwise.  Circles of one colour are joined by a line.
Each spherical root adds its own mark over its support: a plain line for
the type-A sums, a zig-zag for the rows with multiplicities, a "2" for
doubled weights.  Shadowed (grey) circles single out the circled support
nodes whose coroot pairs positively with the root.

Both renderers consume the same DiagramScene, so marker counts and
connector topology cannot drift apart.
"""

from __future__ import annotations

from typing import NamedTuple

from sphsys.dynkin import Diagram, support
from sphsys.system import SphericalSystem, doubled_node, root_facts

__all__ = ["DiagramScene", "build_scene", "render_text", "render_svg",
           "render_diagram_text", "render_diagram_svg"]


class NodeGlyph(NamedTuple):
    index: int
    label: str        # Bourbaki position inside its component
    col: int          # grid column, 6 per step
    riser: bool       # drawn above the spine (branch node of D or E)


class EdgeGlyph(NamedTuple):
    a: int
    b: int
    bond: int                 # 1, 2 or 3 strokes
    arrow_to: int | None      # the short-root end, None for single bonds
    riser: bool


class CircleGlyph(NamedTuple):
    node: int
    colour: int
    under: bool
    shadow: bool


class Connector(NamedTuple):
    colour: int
    nodes: tuple


class RootMark(NamedTuple):
    gamma: tuple
    label: str | None
    kind: str        # "span" | "zigzag" | "zigzag2" | "two" | "join"
    nodes: tuple     # support, ascending
    shadows: tuple   # circled support nodes whose coroot pairs > 0 with gamma


class DiagramScene(NamedTuple):
    diagram: Diagram
    nodes: tuple
    edges: tuple
    circles: tuple
    connectors: tuple
    roots: tuple


def _kind_of(label: str | None) -> str:
    head = (label or "").split("(")[0]
    if head == "aa":
        return "join"
    if head in ("a", "g*"):
        return "span"
    if head == "a'":
        return "two"
    if head in ("b'", "g'"):
        return "zigzag2"
    return "zigzag"


def _spine_and_riser(d: Diagram, ci: int):
    fam, rank = d.components[ci]
    nodes = list(d.component_nodes(ci))
    if fam == "D":
        return nodes[:-1], nodes[-1], nodes[-3]
    if fam == "E":
        return [nodes[0]] + nodes[2:], nodes[1], nodes[3]
    return nodes, None, None


def _layout(d: Diagram):
    glyphs = []
    edges = []
    base = 0
    for ci in range(len(d.components)):
        spine, riser, attach = _spine_and_riser(d, ci)
        cols = {}
        for k, i in enumerate(spine):
            cols[i] = base + 6 * k
            glyphs.append(NodeGlyph(i, str(d.nodes[i][1]), cols[i], False))
        if riser is not None:
            glyphs.append(NodeGlyph(riser, str(d.nodes[riser][1]),
                                    cols[attach], True))
            edges.append(EdgeGlyph(attach, riser, 1, None, True))
        for a, b in zip(spine, spine[1:]):
            fwd, back = abs(d.cartan[a][b]), abs(d.cartan[b][a])
            bond = max(fwd, back)
            # the bigger pairing magnitude sits on the short root's row
            arrow = None if bond == 1 else (a if fwd > back else b)
            edges.append(EdgeGlyph(a, b, bond, arrow, False))
        base += 6 * len(spine) + 3
    glyphs.sort(key=lambda g: g.index)
    return tuple(glyphs), tuple(edges)


def build_scene(sys: SphericalSystem) -> DiagramScene:
    d = sys.diagram
    nodes, edges = _layout(d)
    doubled_nodes = {doubled_node(g) for g in sys.sigma}

    colour_at = {i: c_idx for c_idx, col in enumerate(sys.colours)
                 for i in col.nodes}

    shadowed = set()
    roots = []
    for gamma in sys.sigma:
        label = sys.root_label(gamma)
        kind = _kind_of(label)
        supp = tuple(sorted(support(gamma)))
        marks = ()
        if kind in ("zigzag", "zigzag2"):
            p = root_facts(d, gamma).pairings
            marks = tuple(i for i in supp if i in colour_at and p[i] > 0)
            shadowed.update(marks)
        roots.append(RootMark(tuple(gamma), label, kind, supp, marks))

    circles = tuple(CircleGlyph(i, colour_at[i], i in doubled_nodes,
                                i in shadowed)
                    for i in sorted(colour_at))
    connectors = tuple(Connector(c_idx, tuple(sorted(col.nodes)))
                       for c_idx, col in enumerate(sys.colours)
                       if len(col.nodes) > 1)
    return DiagramScene(d, nodes, edges, circles, connectors, tuple(roots))


def _span_ends(scene: DiagramScene, mark: RootMark):
    ends = [c.node for c in scene.circles if c.node in mark.nodes]
    return min(ends), max(ends)


def _assign_lanes(ranges):
    """Greedy lane packing: narrow items first, reusing free lanes."""
    order = sorted(range(len(ranges)),
                   key=lambda k: (ranges[k][1] - ranges[k][0], ranges[k][0]))
    lanes = [None] * len(ranges)
    occupied = []
    for k in order:
        lo, hi = ranges[k]
        for li, spans in enumerate(occupied):
            if all(hi + 2 < a or b + 2 < lo for a, b in spans):
                spans.append((lo, hi))
                lanes[k] = li
                break
        else:
            occupied.append([(lo, hi)])
            lanes[k] = len(occupied) - 1
    return lanes, len(occupied)


# -- text ----------------------------------------------------------------------

_EDGE_TOKENS = {1: ("---", "---"), 2: ("==>", "<=="), 3: ("=3>", "<3=")}


def _node_ref(d: Diagram, i: int) -> str:
    return d.node_id(i) if len(d.components) > 1 else str(d.nodes[i][1])


def _weight_str(d: Diagram, gamma) -> str:
    terms = []
    for i, c in enumerate(gamma):
        if c:
            terms.append(f"{'' if c == 1 else c}a{_node_ref(d, i)}")
    return "+".join(terms)


def _decor_str(d: Diagram, scene: DiagramScene, mark: RootMark) -> str:
    ref = lambda i: _node_ref(d, i)
    lo, hi = mark.nodes[0], mark.nodes[-1]
    if mark.kind == "join":
        return f"join {ref(lo)}-{ref(hi)}"
    if mark.kind == "span":
        a, b = _span_ends(scene, mark)
        return f"line {ref(a)}-{ref(b)}"
    if mark.kind == "two":
        return f"2 under {ref(lo)}"
    out = f"zigzag {ref(lo)}..{ref(hi)}"
    if mark.kind == "zigzag2":
        out += " doubled"
    if mark.shadows:
        out += "; shadow " + ",".join(ref(i) for i in mark.shadows)
    return out


def render_text(sys: SphericalSystem) -> str:
    scene = build_scene(sys)
    d = scene.diagram
    col_of = {g.index: g.col for g in scene.nodes}
    spine = [g for g in scene.nodes if not g.riser]
    risers = [g for g in scene.nodes if g.riser]
    riser_set = {g.index for g in risers}
    marker = {c.node: ("Uu" if c.under else "Oo")[not c.shadow]
              for c in scene.circles}

    def line(parts):
        row = {}
        for col, text in parts:
            for k, ch in enumerate(text):
                row[col + k] = ch
        if not row:
            return None
        return "  " + "".join(row.get(i, " ")
                              for i in range(max(row) + 1)).rstrip()

    rows = [d.spec()]
    riser_two = [m.nodes[0] for m in scene.roots
                 if m.kind == "two" and m.nodes[0] in riser_set]
    out = line([(g.col, marker[g.index]) for g in risers
                if g.index in marker]
               + [(col_of[i] + 2, "2") for i in riser_two])
    if out:
        rows.append(out)
    out = line([(g.col, g.label) for g in risers])
    if out:
        rows.append(out)
        rows.append(line([(g.col, "|") for g in risers]))

    zigs = [m for m in scene.roots if m.kind in ("zigzag", "zigzag2")]
    zig_cols = [(min(col_of[i] for i in m.nodes),
                 max(col_of[i] for i in m.nodes)) for m in zigs]
    lanes, n_lanes = _assign_lanes(zig_cols)
    for lane in range(n_lanes - 1, -1, -1):
        parts = []
        for m, (lo, hi), li in zip(zigs, zig_cols, lanes):
            if li == lane:
                parts.append((lo, "~" * (hi - lo + 1)))
                if m.kind == "zigzag2":
                    parts.append((hi + 2, "2"))
        rows.append(line(parts))

    node_parts = [(g.col, g.label) for g in spine]
    for e in scene.edges:
        if e.riser:
            continue
        right, left = _EDGE_TOKENS[e.bond]
        tok = right if e.arrow_to in (None, e.b) else left
        node_parts.append((min(col_of[e.a], col_of[e.b]) + 2, tok))
    rows.append(line(node_parts) or "")     # no nodes on a rank-0 diagram

    out = line([(col_of[i], m) for i, m in sorted(marker.items())
                if i not in riser_set])
    if out:
        rows.append(out)
    out = line([(col_of[m.nodes[0]], "2") for m in scene.roots
                if m.kind == "two" and m.nodes[0] not in riser_set])
    if out:
        rows.append(out)

    notes = []
    below = []   # (lo_col, hi_col, endpoint cols)
    for conn in scene.connectors:
        if any(i in riser_set for i in conn.nodes):
            ref = ",".join(_node_ref(d, i) for i in conn.nodes)
            notes.append(f"  joined: {ref}")
            continue
        cols = [col_of[i] for i in conn.nodes]
        below.append((min(cols), max(cols), cols))
    for m in scene.roots:
        if m.kind == "span":
            a, b = _span_ends(scene, m)
            if a in riser_set or b in riser_set:
                notes.append(f"  line: {_node_ref(d, a)}-{_node_ref(d, b)}")
                continue
            below.append((col_of[a], col_of[b], [col_of[a], col_of[b]]))
    lanes, n_lanes = _assign_lanes([(lo, hi) for lo, hi, _ in below])
    for lane in range(n_lanes):
        parts = []
        for (lo, hi, cols), li in zip(below, lanes):
            if li == lane:
                parts.append((lo, "-" * (hi - lo + 1)))
                parts += [(c, "+") for c in cols]
        rows.append(line(parts))
    rows.extend(notes)

    if scene.roots:
        rows.append("")
        for mark in scene.roots:
            # only a root of an invalid system lacks a rank-one row
            label = ("no rank-one row" if mark.label is None
                     else mark.label)
            rows.append(f"  {label}: {_weight_str(d, mark.gamma)}"
                        f"  [{_decor_str(d, scene, mark)}]")
    return "\n".join(rows) + "\n"


def render_diagram_text(d: Diagram) -> str:
    return render_text(SphericalSystem(d, sp=range(d.n_nodes)))


# -- SVG -------------------------------------------------------------------------

_X0, _Y_RISER, _Y_SPINE, _STEP = 30, 24, 84, 10


def _fmt(tag: str, **attrs) -> str:
    body = attrs.pop("text", None)
    parts = [f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items()]
    head = f"<{tag} " + " ".join(parts)
    if body is None:
        return head + "/>"
    return f"{head}>{body}</{tag}>"


def _zigzag_points(x1, x2, y):
    pts = [(x1, y + 6)]
    x = x1 + 8
    up = True
    while x < x2:
        pts.append((x, y - 6 if up else y + 6))
        up = not up
        x += 8
    pts.append((x2, y + 6))
    return " ".join(f"{x},{py}" for x, py in pts)


def render_svg(sys: SphericalSystem) -> str:
    scene = build_scene(sys)
    d = scene.diagram
    x = {g.index: _X0 + _STEP * g.col for g in scene.nodes}
    riser_set = {g.index for g in scene.nodes if g.riser}
    y = {g.index: _Y_RISER if g.riser else _Y_SPINE for g in scene.nodes}
    circ = {c.node: c for c in scene.circles}

    def drop_y(i):
        # where a joining line leaves the circle at spine node i
        return y[i] + (34 if circ[i].under else 14)

    body = []
    for e in scene.edges:
        x1, y1, x2, y2 = x[e.a], y[e.a], x[e.b], y[e.b]
        eid = f"edge-{e.a}-{e.b}"
        if e.riser or e.bond == 1:
            body.append(_fmt("line", id=eid, x1=x1, y1=y1, x2=x2, y2=y2,
                             stroke="#000", stroke_width="1.5"))
            continue
        offs = (-2, 2) if e.bond == 2 else (-3, 0, 3)
        segs = "".join(
            _fmt("line", x1=x1, y1=y1 + o, x2=x2, y2=y2 + o,
                 stroke="#000", stroke_width="1.5")
            for o in offs)
        mx = (x1 + x2) // 2
        sgn = 1 if x[e.arrow_to] > mx else -1
        arrow = _fmt("path", d=f"M {mx - 5 * sgn} {y1 - 5} L {mx + 4 * sgn} "
                     f"{y1} L {mx - 5 * sgn} {y1 + 5}",
                     fill="none", stroke="#000", stroke_width="1.5")
        body.append(f'<g id="{eid}">{segs}{arrow}</g>')

    for g in scene.nodes:
        body.append(_fmt("circle", id=f"node-{g.index}", cx=x[g.index],
                         cy=y[g.index], r="4", fill="#000"))
        lx = x[g.index] - (14 if g.riser else 0)
        ly = y[g.index] + (4 if g.riser else 20)
        anchor = "end" if g.riser else "middle"
        body.append(_fmt("text", id=f"lbl-{g.index}", x=lx, y=ly,
                         font_size="11", text_anchor=anchor,
                         font_family="monospace", fill="#000",
                         text=g.label))

    for c in scene.circles:
        cy = y[c.node] + (22 if c.under else 0)
        body.append(_fmt("circle", id=f"circ-{c.node}", cx=x[c.node], cy=cy,
                         r="9" if c.under else "12",
                         fill="#bbb" if c.shadow else "none",
                         stroke="#000", stroke_width="1.5"))

    zigs = [(k, m) for k, m in enumerate(scene.roots)
            if m.kind in ("zigzag", "zigzag2")]
    zig_x = [(min(x[i] for i in m.nodes), max(x[i] for i in m.nodes))
             for _k, m in zigs]
    lanes, _n = _assign_lanes(zig_x)
    for (k, m), (x1, x2), lane in zip(zigs, zig_x, lanes):
        ly = _Y_SPINE - 24 - 14 * lane
        body.append(_fmt("polyline", id=f"zig-{k}",
                         points=_zigzag_points(x1, x2, ly),
                         fill="none", stroke="#000", stroke_width="1.2"))
        if m.kind == "zigzag2":
            body.append(_fmt("text", id=f"zig2-{k}", x=x2 + 18, y=ly + 4,
                             font_size="11", text_anchor="middle",
                             font_family="monospace", fill="#000",
                             text="2"))

    # (id, endpoint nodes); a line joining a branch node, at any of its
    # nodes as in render_text, runs straight instead of below the spine
    straight, below = [], []
    for conn in scene.connectors:
        side = straight if riser_set.intersection(conn.nodes) else below
        side.append((f"conn-{conn.colour}", (conn.nodes[0], conn.nodes[-1])))
    for k, m in enumerate(scene.roots):
        if m.kind == "span":
            ab = _span_ends(scene, m)
            side = straight if riser_set.intersection(ab) else below
            side.append((f"span-{k}", ab))
        elif m.kind == "two":
            i = m.nodes[0]
            tx = x[i] + (16 if i in riser_set else 0)
            ty = y[i] + (4 if i in riser_set else 48)
            body.append(_fmt("text", id=f"two-{k}", x=tx, y=ty,
                             font_size="11", text_anchor="middle",
                             font_family="monospace", fill="#000", text="2"))
    for eid, (a, b) in straight:
        body.insert(0, _fmt("line", id=eid, x1=x[a], y1=y[a], x2=x[b],
                            y2=y[b], stroke="#000", stroke_width="1.2"))
    ranges = [tuple(sorted((x[a], x[b]))) for _eid, (a, b) in below]
    lanes, n_lanes = _assign_lanes(ranges)
    for (eid, (a, b)), lane in zip(below, lanes):
        ly = _Y_SPINE + 52 + 12 * lane
        pts = (f"{x[a]},{drop_y(a)} {x[a]},{ly} "
               f"{x[b]},{ly} {x[b]},{drop_y(b)}")
        body.append(_fmt("polyline", id=eid, points=pts,
                         fill="none", stroke="#000", stroke_width="1.2"))

    width = max(x.values(), default=0) + 42
    height = _Y_SPINE + 52 + 12 * n_lanes + 16
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render_diagram_svg(d: Diagram) -> str:
    return render_svg(SphericalSystem(d, sp=range(d.n_nodes)))
