import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphsys import cli, families, render, search
from sphsys.dynkin import MAX_RANK, parse_diagram
from sphsys.system import SphericalSystem


B3_JSON = {"components": [{"family": "B", "rank": 3}]}

# a child interpreter finds sphsys in this checkout's src, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def system_file(tmp_path):
    def write(name, **params):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(
            families.instantiate(name, **params).to_json()))
        return str(path)
    return write


def run_json(capsys, argv):
    status = cli.run(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def _child_imports(argv, stdin):
    """Run the CLI in a child; return the process and the modules it
    imported.  -X importtime lists every one on stderr; sphsys.cli itself
    runs as __main__, so it is not among them."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sphsys.cli", *argv],
        input=stdin, capture_output=True, text=True, env=CHILD_ENV)
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    return proc, loaded


_BASE = {"sphsys", "sphsys.budget", "sphsys.dynkin", "sphsys.feasible",
         "sphsys.rankone", "sphsys.system"}
_DRAW = _BASE | {"sphsys.render"}
_QUOTIENT = _BASE | {"sphsys.hilbert", "sphsys.ops"}


class TestPlumbing:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli.run(["enumerate"]) == 2

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"diagram": }')
        status, out = run_json(capsys, ["validate", "--system", str(path)])
        assert status == 1
        assert out["error"]["kind"] == "json"
        assert out["error"]["line"] == 1
        assert out["error"]["column"] == 13

    def test_domain_error_is_structured(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "diagram": {"components": [{"family": "Z", "rank": 3}]},
            "sp": [], "sigma": []}))
        status, out = run_json(capsys, ["validate", "--system", str(path)])
        assert status == 1
        assert out["error"]["kind"] == "domain"

    def test_unequal_colour_pairing_is_domain_error(self, capsys,
                                                   monkeypatch):
        # a1+a3 joins a1 and a3 in one colour, which pairs 1 and -1 with
        # a1+a2: the orthogonal-pair axiom fails and rho is undefined
        data = SphericalSystem(parse_diagram("A3"), (), [
            (1, 1, 0), (0, 1, 1), (1, 0, 1)]).to_json()
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status, out = run_json(capsys, ["colours"])
        assert status == 1
        assert out["error"]["kind"] == "domain"
        assert "{0.1, 0.3}" in out["error"]["message"]
        assert "[1, 1, 0]" in out["error"]["message"]

    @pytest.mark.parametrize("argv", [["components"],
                                      ["components", "--classify"]])
    @pytest.mark.parametrize("spec,sigma,root", [
        # a1+a3's colour pairs 1 and -1 with a1+a2
        ("A3", [(1, 1, 0), (0, 1, 1), (1, 0, 1)], "[1, 1, 0]"),
        # the doubled colour of 2a1 pairs 1 with a1+a2+a3, so it takes no
        # integer value there, though strong adjacency never asks for it
        ("B3", [(1, 1, 1), (2, 0, 0)], "[1, 1, 1]"),
    ], ids=["A3", "B3"])
    def test_components_error_matches_colours(self, capsys, monkeypatch,
                                               argv, spec, sigma, root):
        # both read the one colour functional, so both name the first root
        # on which a colour pairs to no one integer
        data = json.dumps(SphericalSystem(parse_diagram(spec), (),
                                          sigma).to_json())
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        colours = run_json(capsys, ["colours"])
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        assert run_json(capsys, argv) == colours
        assert root in colours[1]["error"]["message"]

    def test_out_of_range_node_is_domain_error(self, capsys, monkeypatch):
        data = SphericalSystem(parse_diagram("B3")).to_json()
        data["sp"] = [99]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status, out = run_json(capsys, ["validate"])
        assert status == 1
        assert out["error"]["kind"] == "domain"
        assert "99" in out["error"]["message"]

    def test_malformed_node_id_is_domain_error(self, capsys, monkeypatch):
        data = SphericalSystem(parse_diagram("B3")).to_json()
        data["sp"] = ["x"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status, out = run_json(capsys, ["validate"])
        assert status == 1
        assert out["error"] == {"kind": "domain",
                                "message": "no node 'x' in B3"}

    def test_non_decimal_rank_is_domain_error(self, capsys):
        status, out = run_json(capsys, ["enumerate", "--diagram", "A²"])
        assert status == 1
        assert out["error"] == {"kind": "domain",
                                "message": "cannot parse component 'A²'"}

    def test_top_level_list_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2]"))
        status, out = run_json(capsys, ["validate"])
        assert status == 1
        assert out["error"]["kind"] == "domain"
        assert "diagram" in out["error"]["message"]

    def test_wrong_length_weight_is_domain_error(self, capsys, monkeypatch):
        data = SphericalSystem(parse_diagram("B3")).to_json()
        data["sigma"] = [[1, 1]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status, out = run_json(capsys, ["validate"])
        assert status == 1
        assert out["error"]["kind"] == "domain"
        assert "[1, 1]" in out["error"]["message"]
        assert "3 nodes" in out["error"]["message"]

    @pytest.mark.parametrize("data", [
        {"diagram": {"components": [1]}},
        {"diagram": []},
        {"diagram": B3_JSON, "sigma": [5]},
        {"diagram": B3_JSON, "sp": 5},
        {"diagram": B3_JSON, "sigma": [{"0.1": None}]},
        {"diagram": B3_JSON, "sigma": [{}]},
    ])
    def test_malformed_nested_schema_is_domain_error(self, capsys,
                                                     monkeypatch, data):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status = cli.run(["validate"])
        captured = capsys.readouterr()
        assert status == 1
        assert json.loads(captured.out)["error"]["kind"] == "domain"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("data", [
        {"diagram": B3_JSON, "sp": [True]},
        {"diagram": {"components": [{"family": "A", "rank": True}]}},
        {"diagram": B3_JSON, "sigma": [[1, True, 0]]},
    ])
    def test_boolean_is_domain_error(self, capsys, monkeypatch, data):
        # JSON true is a Python int; it must not pass as 1
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status = cli.run(["validate"])
        captured = capsys.readouterr()
        assert status == 1
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "domain"
        assert "True" in error["message"]
        assert "Traceback" not in captured.err

    def test_rank_over_cap_is_domain_error(self, capsys, monkeypatch):
        # one a(2) root on A500: refused at the diagram, before any table
        data = {"diagram": {"components": [{"family": "A", "rank": 500}]},
                "sp": [], "sigma": [{"0.1": 1, "0.2": 1}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        status = cli.run(["validate"])
        captured = capsys.readouterr()
        assert status == 1
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "domain"
        assert "rank 500" in error["message"]
        assert f"cap of {MAX_RANK}" in error["message"]
        assert "Traceback" not in captured.err

    def test_stdin_roundtrip(self, system_file):
        raw = Path(system_file("aa(p,p)", p=1)).read_text()
        proc = subprocess.run(
            [sys.executable, "-m", "sphsys.cli", "classify"],
            input=raw, capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"label": "aa(1,1)"}

    def test_validate_child_loads_only_what_it_runs(self, system_file):
        raw = Path(system_file("b(n)", n=3)).read_text()
        proc, loaded = _child_imports(["validate"], raw)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True
        assert {m for m in loaded if m.split(".")[0] == "sphsys"} == {
            "sphsys", "sphsys.budget", "sphsys.dynkin", "sphsys.feasible",
            "sphsys.rankone", "sphsys.system"}
        # dataclasses pulls in inspect, which no validate call needs
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv,modules", [
        (["diagram", "--diagram", "F4"], _DRAW),
        (["diagram", "--diagram", "F4", "--format", "svg"], _DRAW),
        (["catalog", "rank1"], _DRAW),
        (["quotient", "--colours", "D0"], _QUOTIENT),
        (["components", "--classify"], _QUOTIENT | {"sphsys.connect"}),
    ], ids=["diagram", "diagram-svg", "catalog-rank1", "quotient",
            "components-classify"])
    def test_child_loads_only_what_it_runs(self, system_file, argv,
                                           modules):
        raw = Path(system_file("b(n)", n=3)).read_text()
        proc, loaded = _child_imports(argv, raw)
        assert proc.returncode == 0
        assert {m for m in loaded if m.split(".")[0] == "sphsys"} == modules
        # only ops keeps a dataclass, so only its callers load dataclasses
        if "sphsys.ops" not in modules:
            assert not loaded & {"dataclasses", "inspect"}

    def test_output_is_stable(self, capsys, system_file):
        path = system_file("b(n)", n=3)
        first = run_json(capsys, ["colours", "--system", path])
        second = run_json(capsys, ["colours", "--system", path])
        assert first == second


class TestValidate:
    def test_valid_system(self, capsys, system_file):
        status, out = run_json(
            capsys, ["validate", "--system", system_file("aa(p,p)", p=1)])
        assert status == 0
        assert out["valid"] is True

    def test_broken_system_still_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({
            "diagram": {"components": [{"family": "A", "rank": 2}]},
            "sp": [], "sigma": [{"0.1": 1}]}))
        status, out = run_json(capsys, ["validate", "--system", str(path)])
        assert status == 0
        assert out["valid"] is False
        assert out["simple_roots"]


class TestOperations:
    def test_colours_lists_pairings(self, capsys, system_file):
        status, out = run_json(
            capsys, ["colours", "--system", system_file("b(n)", n=3)])
        assert status == 0
        assert out["colours"] == [
            {"id": "D0", "nodes": ["0.1"], "doubled": False, "rho": [1]}]

    def test_quotient_to_homogeneous(self, capsys, system_file):
        status, out = run_json(
            capsys, ["quotient", "--system", system_file("b(n)", n=3),
                     "--colours", "D0"])
        assert status == 0
        assert out["homogeneous"] is True
        assert out["smooth"] is True
        assert out["system"]["sigma"] == []

    def test_quotient_rejects_non_distinguished(self, capsys, system_file):
        path = system_file("go(2)")
        status, out = run_json(
            capsys, ["quotient", "--system", path, "--colours", "D0"])
        assert status == 1
        assert "distinguished" in out["error"]["message"]

    def test_quotient_counts_a_repeated_colour_once(self, capsys,
                                                   system_file):
        # D0,D1 is distinguished on ac*(3) and D0 alone is not
        path = system_file("ac*(n)", n=3)
        once = run_json(capsys, ["quotient", "--system", path,
                                 "--colours", "D0,D1"])
        twice = run_json(capsys, ["quotient", "--system", path,
                                  "--colours", "D0,D1,D0"])
        assert once[0] == 0
        assert twice == once

    def test_quotient_rejects_unknown_colour(self, capsys, system_file):
        status, out = run_json(
            capsys, ["quotient", "--system", system_file("b(n)", n=3),
                     "--colours", "D7"])
        assert status == 1
        assert out["error"]["kind"] == "domain"
        assert "D7" in out["error"]["message"]
        assert "1 colour(s)" in out["error"]["message"]

    def test_localize(self, capsys, system_file):
        status, out = run_json(
            capsys, ["localize", "--system", system_file("b(n)", n=3),
                     "--nodes", "0,1"])
        assert status == 0
        assert out["diagram"]["components"] == [{"family": "A", "rank": 2}]
        assert out["sp"] == ["0.2"]

    def test_localize_accepts_node_ids(self, capsys, system_file):
        status, out = run_json(
            capsys, ["localize", "--system", system_file("b(n)", n=3),
                     "--nodes", "0.1,0.2"])
        assert status == 0
        assert out["diagram"]["components"] == [{"family": "A", "rank": 2}]

    def test_localize_rejects_malformed_node_id(self, capsys, system_file):
        status, out = run_json(
            capsys, ["localize", "--system", system_file("b(n)", n=3),
                     "--nodes", "0.x"])
        assert status == 1
        assert out["error"] == {"kind": "domain",
                                "message": "no node '0.x' in B3"}

    def test_localize_to_no_nodes(self, capsys, system_file):
        status, out = run_json(
            capsys, ["localize", "--system", system_file("b(n)", n=3),
                     "--nodes", ""])
        assert status == 0
        assert out == {"diagram": {"components": []}, "sp": [], "sigma": []}

    def test_quotient_by_no_colours_is_the_identity(self, capsys,
                                                    system_file):
        path = system_file("b(n)", n=3)
        status, out = run_json(
            capsys, ["quotient", "--system", path, "--colours", ""])
        assert status == 0
        assert out["system"] == json.loads(Path(path).read_text())
        assert out["coefficients"] == [[1]]
        assert (out["smooth"], out["homogeneous"],
                out["is_valid_system"]) == (True, False, True)

    @pytest.mark.parametrize("command,option,token,message", [
        ("localize", "--nodes", "x", "no node 'x' in B3"),
        ("quotient", "--colours", "Dx", "no colour 'Dx'"),
        # one leading D only: DD0 is no colour, not colour 0
        ("quotient", "--colours", "DD0", "no colour 'DD0'"),
        # only the whole option may be empty, no token within it
        ("localize", "--nodes", "0,,1", "no node '' in B3"),
        ("localize", "--nodes", ",", "no node '' in B3"),
        ("quotient", "--colours", "0,,1", "no colour ''"),
        ("quotient", "--colours", ",", "no colour ''"),
    ])
    def test_non_numeric_token_is_named(self, capsys, system_file, command,
                                        option, token, message):
        status = cli.run([command, "--system", system_file("b(n)", n=3),
                          option, token])
        captured = capsys.readouterr()
        assert status == 1
        assert json.loads(captured.out)["error"] == {"kind": "domain",
                                                     "message": message}
        assert "Traceback" not in captured.err

    def test_localize_e7(self, capsys, system_file):
        status, out = run_json(
            capsys, ["localize", "--system", system_file("ec(7)"),
                     "--nodes", "0,1,2,3,4,5,6"])
        assert status == 0
        assert out["diagram"]["components"] == [{"family": "E", "rank": 7}]

    def test_components_classify_e7(self, capsys, system_file):
        status, out = run_json(
            capsys, ["components", "--system", system_file("ec(7)"),
                     "--classify"])
        assert status == 0
        assert out

    def test_components_classify_eo7_within_budget(self, capsys, monkeypatch,
                                                    system_file):
        monkeypatch.setenv("SPHSYS_MAX_STATES", "200000")
        status, out = run_json(
            capsys, ["components", "--system", system_file("eo(n)", n=7),
                     "--classify"])
        assert status == 0
        assert [c["erasable"] for c in out] == [True]

    def test_components_classify(self, capsys, system_file):
        status, out = run_json(
            capsys, ["components", "--system",
                     system_file("b*(4)+b**(3)"), "--classify"])
        assert status == 0
        assert len(out) == 2
        assert out[0]["erasable"] is False
        assert out[1]["erasable"] is True
        assert out[1]["delta_of"] == ["D1"]

    def test_affine_check(self, capsys, system_file):
        status, out = run_json(
            capsys, ["affine-check", "--system", system_file("b(n)", n=3)])
        assert status == 0
        assert out["affine"] is True
        status, out = run_json(
            capsys, ["affine-check", "--system", system_file("c*(n)", n=3)])
        assert status == 0
        assert out == {"affine": False, "witness": None}

    def test_identities(self, capsys, system_file):
        status, out = run_json(
            capsys, ["identities", "--system", system_file("b(n)", n=3)])
        assert status == 0
        assert out == {"dimension": 6, "character_rank": 0,
                       "consistent": True}


class TestSearchAndCatalog:
    def test_enumerate_primitive_g2(self, capsys):
        status, out = run_json(
            capsys, ["enumerate", "--diagram", "G2", "--primitive",
                     "--classify"])
        assert status == 0
        assert len(out) == 4
        assert {e["label"] for e in out} \
            == {"go(2)", "g(2)", "g'(2)", "g*(2)"}

    @pytest.mark.parametrize("spec", ["G2", "B3", "A1,A1"])
    @pytest.mark.parametrize("flags,kwargs", [
        (["--cuspidal"], {"cuspidal_only": True}),
        (["--primitive", "--cuspidal"], {"primitive_only": True}),
    ], ids=["cuspidal", "primitive-cuspidal"])
    def test_enumerate_filters_match_the_library(self, capsys, spec, flags,
                                                 kwargs):
        status, out = run_json(capsys,
                               ["enumerate", "--diagram", spec] + flags)
        assert status == 0
        found = search.enumerate_systems(spec, **kwargs)
        assert out == json.loads(json.dumps([s.to_json() for s in found]))

    def test_enumerate_counts_all_a1(self, capsys):
        status, out = run_json(capsys, ["enumerate", "--diagram", "A1"])
        assert status == 0
        assert len(out) == 3

    def test_budget_error_names_the_layer(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHSYS_MAX_STATES", "10")
        status, out = run_json(capsys, ["enumerate", "--diagram", "B3"])
        assert status == 1
        assert out["error"] == {
            "kind": "budget",
            "message": "enumeration on B3 exceeded 10 states",
            "layer": "search", "count": 11, "cap": 10, "input": "B3"}

    def test_classify(self, capsys, system_file):
        status, out = run_json(
            capsys, ["classify", "--system", system_file("fd(4)")])
        assert status == 0
        assert out == {"label": "fd(4)"}

    def test_catalog_rank1_full(self, capsys):
        status, out = run_json(capsys, ["catalog", "rank1"])
        assert status == 0
        assert len(out) == 15
        assert all("picture" in row for row in out)

    def test_catalog_rank1_label(self, capsys):
        status, out = run_json(
            capsys, ["catalog", "rank1", "--label", "g(2)"])
        assert status == 0
        assert len(out) == 1
        assert out[0]["support"] == "G2"
        assert "zigzag" in out[0]["picture"]

    def test_catalog_families(self, capsys):
        status, out = run_json(capsys, ["catalog", "families"])
        assert status == 0
        assert len(out) == 66
        status, out = run_json(
            capsys, ["catalog", "families", "--label", "fd(4)"])
        assert out == [{"name": "fd(4)", "display": "fd(4)"}]

    def test_catalog_unknown_label(self, capsys):
        status, out = run_json(
            capsys, ["catalog", "rank1", "--label", "zz(9)"])
        assert status == 1

    def test_catalog_families_unknown_label(self, capsys):
        status, out = run_json(
            capsys, ["catalog", "families", "--label", "nope"])
        assert status == 1
        assert out["error"]["message"] == "no catalog family called 'nope'"


class TestDiagram:
    def test_system_text(self, capsys, system_file):
        path = system_file("b(n)", n=3)
        assert cli.run(["diagram", "--system", path]) == 0
        out = capsys.readouterr().out
        assert out == render.render_text(families.instantiate("b(n)", n=3))

    def test_system_with_no_colour_functional(self, capsys, monkeypatch):
        # a1+a3's colour pairs -1 and 3 with a2+2a3; drawing needs no
        # colour functional
        sys = SphericalSystem(parse_diagram("A3"), (), [(1, 0, 1), (0, 1, 2)])
        data = json.dumps(sys.to_json())
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        assert cli.run(["diagram"]) == 0
        assert capsys.readouterr().out == render.render_text(sys)

    def test_bare_spec_svg(self, capsys):
        assert cli.run(["diagram", "--diagram", "F4",
                        "--format", "svg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg xmlns=")
        assert out.count('id="node-') == 4

    @pytest.mark.parametrize("fmt,draw", [
        ("text", render.render_diagram_text),
        ("svg", render.render_diagram_svg),
    ], ids=["text", "svg"])
    def test_empty_spec_draws_the_empty_diagram(self, capsys, monkeypatch,
                                                 fmt, draw):
        # an empty spec is a diagram, as enumerate reads it, not a cue to
        # read a system from stdin
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert cli.run(["diagram", "--diagram", "", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out == draw(parse_diagram(""))
        if fmt == "text":
            assert out == "\n\n"


class TestAppendixCommands:
    def test_symmetric_resolves_subcase(self, capsys):
        status, out = run_json(
            capsys, ["symmetric", "--label", "A III", "--p", "2",
                     "--q", "3"])
        assert status == 0
        assert out["label"] == "A III (q >= 2)"
        assert out["restricted"] == "BC3"
        assert out["classification"] == "aa(2+3+2)"

    def test_symmetric_halved_variant(self, capsys):
        status, out = run_json(
            capsys, ["symmetric", "--label", "B II", "--n", "2",
                     "--variant", "halved"])
        assert status == 0
        assert out["classification"] == "b(2)"

    def test_symmetric_rejects_halving_single_variant(self, capsys):
        status, out = run_json(
            capsys, ["symmetric", "--label", "A I", "--n", "3",
                     "--variant", "halved"])
        assert status == 1

    def test_symmetric_names_the_parameters_a_row_takes(self, capsys):
        status, out = run_json(
            capsys, ["symmetric", "--label", "E I", "--n", "3"])
        assert status == 1
        assert out["error"]["message"] == (
            "no sub-case of 'E I' accepts {'n': 3} (E I takes no parameters)")
        status, out = run_json(
            capsys, ["symmetric", "--label", "A III", "--n", "3"])
        assert status == 1
        assert "A III (q >= 2) takes p, q" in out["error"]["message"]
        assert "lambda" not in out["error"]["message"]
        status, out = run_json(
            capsys, ["symmetric", "--label", "E I", "--n", "100"])
        assert status == 1
        assert out["error"]["message"] == (
            "no sub-case of 'E I' accepts {'n': 100} "
            "(E I takes no parameters)")

    @pytest.mark.parametrize("variant", ["selfnormalising", "halved"])
    def test_symmetric_derives_the_satake_system_once(self, capsys,
                                                      monkeypatch, variant):
        from sphsys import tables
        calls = []
        satake = tables._satake
        monkeypatch.setattr(tables, "_satake",
                            lambda *a: calls.append(a) or satake(*a))
        status, out = run_json(
            capsys, ["symmetric", "--label", "B II", "--n", "3",
                     "--variant", variant])
        assert status == 0
        assert out["classification"] == ("b(3)" if variant == "halved"
                                         else "b'(3)")
        assert len(calls) == 1

    def test_orbit_g2(self, capsys):
        status, out = run_json(
            capsys, ["orbit", "--diagram", "G2", "--char", "1,0"])
        assert status == 0
        assert out["height"] == 3
        assert out["spherical"] is True
        assert out["dim_orbit"] == 8
        assert sum(out["grading"].values()) == 14

    def test_orbit_rejects_bad_characteristic(self, capsys):
        status, out = run_json(
            capsys, ["orbit", "--diagram", "G2", "--char", "3,0"])
        assert status == 1

    def test_orbit_on_the_empty_diagram(self, capsys):
        status, out = run_json(
            capsys, ["orbit", "--diagram", "", "--char", ""])
        assert status == 0
        assert (out["height"], out["spherical"], out["grading"]) == (
            0, True, {"0": 0})
        assert out["dim_h"] == out["dim_hu"] == out["dim_orbit"] == 0

    @pytest.mark.parametrize("char,message", [
        ("1,x", "characteristic entry 'x' is not an integer"),
        (",", "characteristic entry '' is not an integer"),
        ("1,,0", "characteristic entry '' is not an integer"),
        ("", "characteristic length 0 != 2 nodes"),
        ("1,0.5", "characteristic entry '0.5' is not an integer"),
        ("-1,0", "characteristic entries must be 0, 1 or 2; got [-1]"),
        ("1", "characteristic length 1 != 2 nodes"),
    ])
    def test_orbit_names_bad_entry(self, capsys, char, message):
        status, out = run_json(
            capsys, ["orbit", "--diagram", "G2", f"--char={char}"])
        assert status == 1
        assert out["error"] == {"kind": "domain", "message": message}


# -- fuzzing -----------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
NODE_IDS = ["0.1", "0.2", "0.3", "1.1", "1.2", "0.9", "x"]
COMPONENTS = st.lists(st.fixed_dictionaries({
    "family": st.sampled_from("ABCDEFGZ") | JSON_VALUES,
    "rank": st.integers(-1, 4) | st.sampled_from([51, 500]) | JSON_VALUES,
}), max_size=3)
WEIGHTS = (st.lists(st.integers(-2, 3), max_size=6)
           | st.dictionaries(st.sampled_from(NODE_IDS),
                             st.integers(-2, 3) | JSON_VALUES, max_size=4)
           | JSON_VALUES)
SYSTEMS = st.fixed_dictionaries(
    {"diagram": st.fixed_dictionaries({"components": COMPONENTS})
     | JSON_VALUES},
    optional={"sp": st.lists(st.integers(-1, 8) | st.sampled_from(NODE_IDS)
                             | JSON_VALUES, max_size=4) | JSON_VALUES,
              "sigma": st.lists(WEIGHTS, max_size=4) | JSON_VALUES})
# catalog members, whole or with sp or sigma swapped for fuzz, so that the
# subcommands get past the input boundary too
MEMBERS = [families.instantiate(name, **params).to_json() for name, params in
           [("b(n)", {"n": 3}), ("g(2)", {}), ("ao(n)", {"n": 3}),
            ("aa(1,1)+c*(n)", {"n": 2}), ("ds*(4)", {}), ("go(2)", {})]]
NEAR_MEMBERS = st.builds(
    lambda member, key, value: member if key is None
    else dict(member, **{key: value}),
    st.sampled_from(MEMBERS), st.sampled_from([None, "sp", "sigma"]),
    st.lists(st.integers(-1, 5), max_size=3)
    | st.lists(WEIGHTS, max_size=3))
STDIN = (NEAR_MEMBERS.map(json.dumps) | SYSTEMS.map(json.dumps)
         | JSON_VALUES.map(json.dumps) | st.text(max_size=8))
# each subcommand with its flags, and values for the flags that take one;
# no --system (it names a file) and no --help (usage text with status 0)
OPTIONS = {
    "validate": [], "colours": [], "classify": [], "affine-check": [],
    "identities": [], "frobnicate": [], "quotient": ["--colours"],
    "localize": ["--nodes"], "components": ["--classify"],
    "enumerate": ["--diagram", "--primitive", "--cuspidal", "--classify"],
    "diagram": ["--diagram", "--format"],
    "catalog": ["rank1", "families", "--label"],
    "symmetric": ["--label", "--p", "--q", "--n", "--variant"],
    "orbit": ["--diagram", "--char"],
}
SMALL = ["-1", "0", "2", "3", "x"]
VALUES = {
    "--colours": ["D0", "D1", "D0,D2", "D9", "x"],
    "--nodes": ["0,1", "0.1,0.2", "0", "9", "x"],
    "--diagram": ["A1", "G2", "B3", "A2,A1", "A51", "Z3", "3"],
    "--format": ["svg", "text"],
    "--label": ["A III", "B I", "C I", "G", "g(2)", "b", "x"],
    "--p": SMALL, "--q": SMALL, "--n": SMALL,
    "--variant": ["halved", "selfnormalising"],
    "--char": ["1,0", "0,1", "1,0,1", "2,2", "x"],
}


def _argv(cmd):
    def option(flag):
        if flag not in VALUES:
            return st.just([flag])
        return st.sampled_from(VALUES[flag]).map(lambda v: [flag, v])
    options = (st.lists(st.sampled_from(OPTIONS[cmd]).flatmap(option),
                        max_size=4) if OPTIONS[cmd] else st.just([]))
    stray = st.sampled_from([(), (), (), ("x",), ("--colours",)])
    return st.builds(lambda opts, extra: [cmd, *sum(opts, []), *extra],
                     options, stray)


ARGV = st.sampled_from(sorted(OPTIONS)).flatmap(_argv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=ARGV, stdin=STDIN)
@example(argv=["diagram"], stdin='{"diagram": {"components": []}}')
@example(argv=["diagram", "--format", "svg"],
         stdin='{"diagram": {"components": []}}')
def test_fuzz_cli_exits_cleanly(argv, stdin):
    """Any argv and stdin: status 0, 1 or 2, JSON on stdout (a picture for
    a successful diagram, nothing on a usage error) and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(stdin))
        mp.setenv("SPHSYS_MAX_STATES", "20000")   # a budget fails fast
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2)
    assert "Traceback" not in out + err
    if status == 2:
        assert out == ""
    elif status == 1:
        assert list(json.loads(out)) == ["error"]
    elif argv[0] != "diagram":
        json.loads(out)
