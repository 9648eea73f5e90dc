"""Command-line surface: JSON in, JSON (or a drawn diagram) out.

Systems travel as the JSON schema of SphericalSystem.to_json; every
subcommand reads one from --system FILE or stdin unless it takes a
--diagram spec instead.  Exit status 0 on success, 1 on a domain error
(reported as a structured JSON object), 2 on a usage error.  Each handler
imports the modules it runs, so one call loads only what it needs.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from sphsys.budget import BudgetExceeded
from sphsys.dynkin import parse_diagram
from sphsys.system import SphericalSystem


def _emit(obj) -> None:
    _sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_system(args) -> SphericalSystem:
    if getattr(args, "system", None):
        with open(args.system, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = _sys.stdin.read()
    return SphericalSystem.from_json(json.loads(raw))


def _weight_json(d, w) -> dict:
    return {d.node_id(i): c for i, c in enumerate(w) if c}


def _split(tokens: str) -> list:
    """The comma-separated tokens of an option; '' is the empty list, and an
    empty token elsewhere is kept for its parser to refuse."""
    return tokens.split(",") if tokens else []


def _parse_nodes(tokens: str):
    """Decimal indices as ints; every other token goes to node_index as a
    'ci.pos' string, which names it if there is no such node."""
    return [int(t) if t.isdecimal() else t for t in _split(tokens)]


def _int_or_token(t: str):
    """An int, or the token itself for the checker it reaches to name."""
    try:
        return int(t)
    except ValueError:
        return t


def _parse_colours(tokens: str):
    """Colour indices, each a decimal token with one optional leading D."""
    out = []
    for t in _split(tokens):
        digits = t[1:] if t.startswith("D") else t
        if not digits.isdecimal():
            raise ValueError(f"no colour {t!r}")
        out.append(int(digits))
    return out


# -- handlers --------------------------------------------------------------------

def _cmd_validate(args):
    return _load_system(args).validate().to_json()


def _cmd_colours(args):
    sys = _load_system(args)
    rho = sys.rho_matrix
    return {
        "colours": [
            {"id": f"D{k}",
             "nodes": [sys.diagram.node_id(i) for i in sorted(c.nodes)],
             "doubled": c.doubled,
             "rho": list(rho[k])}
            for k, c in enumerate(sys.colours)
        ],
        "sigma": [_weight_json(sys.diagram, g) for g in sys.sigma],
    }


def _cmd_quotient(args):
    from sphsys import ops
    sys = _load_system(args)
    return ops.quotient(sys, _parse_colours(args.colours)).to_json()


def _cmd_localize(args):
    from sphsys import ops
    sys = _load_system(args)
    return ops.localize(sys, _parse_nodes(args.nodes)).to_json()


def _cmd_components(args):
    from sphsys import connect
    sys = _load_system(args)
    d = sys.diagram
    comps = connect.components(sys)
    if not args.classify:
        return {"components": [[_weight_json(d, g) for g in roots]
                               for roots in comps]}
    out = []
    for roots in comps:
        a = connect.classify_component(sys, roots)
        out.append({
            "roots": [_weight_json(d, g) for g in a.component],
            "delta_of": [f"D{k}" for k in a.delta_of],
            "isolated": a.isolated,
            "erasable": a.erasable,
            "quasi_erasable": a.quasi_erasable,
        })
    return out


def _cmd_enumerate(args):
    from sphsys import families, search
    d = parse_diagram(args.diagram)
    found = search.enumerate_systems(d, cuspidal_only=args.cuspidal,
                                     primitive_only=args.primitive)
    out = []
    for s in found:
        entry = s.to_json()
        if args.classify:
            entry["label"] = families.classify(s)
        out.append(entry)
    return out


def _cmd_classify(args):
    from sphsys import families
    return {"label": families.classify(_load_system(args))}


def _cmd_diagram(args):
    from sphsys import render
    if args.diagram is not None:
        d = parse_diagram(args.diagram)
        if args.format == "svg":
            return render.render_diagram_svg(d)
        return render.render_diagram_text(d)
    sys = _load_system(args)
    if args.format == "svg":
        return render.render_svg(sys)
    return render.render_text(sys)


def _cmd_catalog(args):
    if args.table == "rank1":
        from sphsys import rankone, render
        rows = rankone.row_catalog(args.label)
        if not rows:
            raise ValueError(f"no rank-one row called {args.label!r}")
        out = []
        for row in rows:
            d = parse_diagram(row["support"])
            sys = SphericalSystem(d, sp=[p - 1 for p in row["trace"]],
                                  sigma=(row["weight"],))
            out.append(dict(row, picture=render.render_text(sys)))
        return out
    from sphsys import families
    hits = [f for f in families.CATALOG
            if args.label in (None, f.name)]
    if not hits:
        raise ValueError(f"no catalog family called {args.label!r}")
    return [{"name": f.name, "display": f.display} for f in hits]


def _cmd_symmetric(args):
    from sphsys import families, tables
    params = {k: getattr(args, k) for k in ("p", "q", "n")
              if getattr(args, k) is not None}
    row, inst = tables.symmetric_instance(args.label, **params)
    sys = tables._variant(row, inst, args.variant != "halved")
    fam, rank = inst.restricted
    return {
        "label": row.label,
        "constraints": row.constraints,
        "subalgebra": row.subalgebra,
        "diagram": inst.diagram.spec(),
        "basis": [_weight_json(inst.diagram, w) for w in inst.basis],
        "restricted": f"{fam}{rank}",
        "system": sys.to_json(),
        "classification": families.classify(sys),
    }


def _cmd_orbit(args):
    from sphsys import tables
    d = parse_diagram(args.diagram)
    char = tuple(_int_or_token(t) for t in _split(args.char))
    dims = tables.grading_dims(d, char)
    od = tables.orbit_dims(d, char)
    return {
        "diagram": d.spec(),
        "characteristic": list(char),
        "height": tables.height(d, char),
        "spherical": tables.is_spherical_orbit(d, char),
        "grading": {str(k): dims[k] for k in sorted(dims)},
        "dim_h": od.dim_h,
        "dim_hu": od.dim_hu,
        "dim_orbit": od.dim_orbit,
    }


def _cmd_affine_check(args):
    from sphsys import ops
    sys = _load_system(args)
    witness = ops.affine_witness(sys)
    return {"affine": witness is not None,
            "witness": None if witness is None else list(witness)}


def _cmd_identities(args):
    from sphsys import ops
    sys = _load_system(args)
    dim, rank = ops.expected_dims(sys)
    return {"dimension": dim, "character_rank": rank,
            "consistent": rank >= 0}


# -- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphsys",
        description="Exact combinatorics of spherical systems.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def with_system(p):
        p.add_argument("--system", metavar="FILE",
                       help="system JSON file (default: stdin)")
        return p

    with_system(sub("validate", _cmd_validate,
                    help="check the axioms, report every violation"))
    with_system(sub("colours", _cmd_colours,
                    help="colour classes and their pairings with sigma"))
    p = with_system(sub("quotient", _cmd_quotient,
                        help="quotient by a distinguished set of colours"))
    p.add_argument("--colours", required=True, metavar="D1,D3",
                   help="colour ids as listed by the colours subcommand")
    p = with_system(sub("localize", _cmd_localize,
                        help="restrict to an induced subdiagram"))
    p.add_argument("--nodes", required=True, metavar="0,1",
                   help="node indices or ci.pos ids, comma separated")
    p = with_system(sub("components", _cmd_components,
                        help="connected blocks of the spherical roots"))
    p.add_argument("--classify", action="store_true",
                   help="add erasability analysis per block")
    p = sub("enumerate", _cmd_enumerate,
            help="search all spherical systems on a diagram")
    p.add_argument("--diagram", required=True, metavar="SPEC")
    p.add_argument("--primitive", action="store_true",
                   help="cuspidal systems that neither decompose nor induce")
    p.add_argument("--cuspidal", action="store_true")
    p.add_argument("--classify", action="store_true",
                   help="attach catalog labels")
    with_system(sub("classify", _cmd_classify,
                    help="catalog label of a system"))
    p = with_system(sub("diagram", _cmd_diagram,
                        help="draw a system (or a bare diagram spec)"))
    p.add_argument("--diagram", dest="diagram", metavar="SPEC",
                   help="draw this Dynkin diagram instead of a system")
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p = sub("catalog", _cmd_catalog, help="print reference tables")
    p.add_argument("table", choices=("rank1", "families"))
    p.add_argument("--label", metavar="L", help="restrict to one row")
    p = sub("symmetric", _cmd_symmetric,
            help="restricted root basis of an involution row")
    p.add_argument("--label", required=True, metavar='"A III"')
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--variant", choices=("selfnormalising", "halved"),
                   default="selfnormalising")
    p = sub("orbit", _cmd_orbit,
            help="grading and sphericity of a nilpotent characteristic")
    p.add_argument("--diagram", required=True, metavar="SPEC")
    p.add_argument("--char", required=True, metavar="1,0,1")
    with_system(sub("affine-check", _cmd_affine_check,
                    help="positive-pairing feasibility over the colours"))
    with_system(sub("identities", _cmd_identities,
                    help="dimension and character-rank bookkeeping"))
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        out = args.func(args)
    except json.JSONDecodeError as e:
        _emit({"error": {"kind": "json", "message": e.msg,
                         "line": e.lineno, "column": e.colno}})
        return 1
    except BudgetExceeded as e:
        _emit({"error": {"kind": "budget", "message": str(e),
                         "layer": e.layer, "count": e.count, "cap": e.cap,
                         "input": e.input}})
        return 1
    except (ValueError, LookupError, OSError) as e:
        msg = e.args[0] if isinstance(e, KeyError) and e.args else str(e)
        _emit({"error": {"kind": "domain", "message": str(msg)}})
        return 1
    if isinstance(out, str):
        _sys.stdout.write(out)
    else:
        _emit(out)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
