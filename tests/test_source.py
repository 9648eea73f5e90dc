"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sphsys"
SOURCES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax newer than that (ast checks the grammar on a best-effort basis)
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so none may guard control flow
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_fractions(path):
    # the library stays in integers: no import of fractions and no
    # Fraction(...) or x.Fraction(...) call
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Call):
            f = node.func
            names = [getattr(f, "id", None) or getattr(f, "attr", None)]
        else:
            continue
        if {"fractions", "Fraction"} & set(names):
            lines.append(node.lineno)
    assert lines == [], f"fractions used in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dataclasses_only_in_ops(path):
    # importing dataclasses pulls in inspect, about 15 ms of every CLI call
    # that loads the module, so records are NamedTuples; ops keeps
    # QuotientResult a dataclass because perfbench/selftest.py copies it
    # with dataclasses.replace
    if path.name == "ops.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        if "dataclasses" in names:
            lines.append(node.lineno)
    assert lines == [], f"dataclasses imported in {path.name} at {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_collections_namedtuple(path):
    # one record idiom: every record is a typing.NamedTuple, so no module
    # imports collections.namedtuple or calls namedtuple(...) or
    # x.namedtuple(...)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            f = node.func
            names = [getattr(f, "id", None) or getattr(f, "attr", None)]
        else:
            continue
        if "namedtuple" in names:
            lines.append(node.lineno)
    assert lines == [], f"namedtuple used in {path.name} at {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # a table kept forever grows with every diagram a sweep visits, so no
    # module passes maxsize=None (or a leading None) to lru_cache or uses
    # functools.cache; per-diagram tables share dynkin.per_diagram's bound
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            unbounded = "cache" in [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            unbounded = (node.attr == "cache"
                         and getattr(node.value, "id", None) == "functools")
        elif isinstance(node, ast.Call):
            f = node.func
            args = node.args[:1] + [k.value for k in node.keywords
                                    if k.arg == "maxsize"]
            unbounded = ((getattr(f, "id", None)
                          or getattr(f, "attr", None)) == "lru_cache"
                         and any(isinstance(a, ast.Constant)
                                 and a.value is None for a in args))
        else:
            continue
        if unbounded:
            lines.append(node.lineno)
    assert lines == [], f"unbounded cache in {path.name} at lines {lines}"


def _unused_imports(tree) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a module-level import is read somewhere in its module or re-exported
    # through __all__; a leftover one hides a dead dependency
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == [], f"unused imports in {path.name}"


def _uncalled_private_helpers() -> list:
    """(module, name) of each module-level _name function or class that no
    statement of the library references, its own definition left out."""
    statements = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.name, node, _identifiers(node))
                       for node in tree.body]
    return [(module, node.name) for module, node, _ in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and not any(node.name in names for _, other, names in statements
                        if other is not node)]


def test_every_private_helper_is_called():
    # a private helper is for the library's own use, so one that nothing
    # in the library references is dead code
    assert _uncalled_private_helpers() == []


ROOT = SRC.parent.parent
CALLERS = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _identifiers(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


@pytest.mark.parametrize("path", CALLERS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_private_constructor_stays_in_the_library(path):
    # SphericalSystem._from_normal stores its values unchecked, so only the
    # library's own builders may call it; tests and the benchmark go
    # through the checked constructor or from_json
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "_from_normal" not in _identifiers(tree)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "families.py"],
                         ids=lambda p: p.name)
def test_catalog_builders_stay_in_families(path):
    # the involution table derives its systems from Satake diagrams, so
    # naming a catalog member with the catalog checks it; only families
    # may name or import one of its _b_ builders
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(n for n in _identifiers(tree) if n.startswith("_b_")) == []


def _system_calls(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "SphericalSystem" in _identifiers(node.func)]


def test_families_builds_every_member_in_one_place():
    # a member is rank-one rows placed on nodes and its sp is the union of
    # their traces, so only the placement function makes a system: no
    # builder can state sp by hand
    tree = ast.parse((SRC / "families.py").read_text(encoding="utf-8"))
    placed = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_placed"]
    assert len(placed) == 1
    assert len(_system_calls(tree)) == len(_system_calls(placed[0])) == 1


def _traced_targets() -> list:
    """(module, attribute) of each entry of perfbench/tracer.py's TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    return []


def test_traced_names_resolve():
    # the benchmark's tracer binds each target by name, a method from its
    # class's own __dict__, so a rename in the library breaks a benchmark
    # run and not only a test
    targets = _traced_targets()
    assert targets
    for module, attr in targets:
        mod = importlib.import_module(f"sphsys.{module}")
        owner, _, name = attr.rpartition(".")
        if owner:
            assert name in vars(getattr(mod, owner)), (module, attr)
        else:
            assert callable(getattr(mod, attr, None)), (module, attr)
    # perfbench/selftest.py patches these where the library from-imports them
    from sphsys import feasible, ops, rankone, search
    assert ops.feasible_nonneg is feasible.feasible_nonneg
    assert search.admissible_traces is rankone.admissible_traces


# the library's modules, lowest layer first; each imports only earlier ones
LAYERS = ("budget", "feasible", "hilbert", "dynkin", "rankone", "system",
          "ops", "connect", "families", "search", "tables", "render", "cli")
# the package's __init__ re-exports and is exempt
MODULES = [p for p in SOURCES if p.stem != "__init__"]


def _library_imports(tree) -> list:
    """(line, module) for each sphsys module a tree imports, at module
    level or inside a function, absolutely or relatively; a name that is
    no module of the library, such as the package itself, comes back as
    it is written."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.partition(".")[2] or alias.name)
                    for alias in node.names
                    if alias.name.partition(".")[0] == "sphsys"]
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level:
                module = node.module or ""
            elif package != "sphsys":
                continue
            if module:
                out.append((node.lineno, module))
            else:
                out += [(node.lineno, alias.name) for alias in node.names]
    return out


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_the_layers(path):
    # a module imports only modules below it in LAYERS, so no import can
    # close a cycle
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    below = LAYERS[:LAYERS.index(path.stem)]
    bad = [(line, name) for line, name in _library_imports(tree)
           if name not in below]
    assert bad == [], f"{path.name} imports above its layer: {bad}"


def test_search_gate_does_not_lean_on_the_walk():
    # the final gate decides independence afresh: emit in search.py reads
    # neither the walk's echelon basis nor the echelon step that grows it
    tree = ast.parse((SRC / "search.py").read_text(encoding="utf-8"))
    emits = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "emit"]
    assert len(emits) == 1
    assert _identifiers(emits[0]) & {"basis", "echelon_extend"} == set()
