import hashlib
import tracemalloc

import pytest

from sphsys import cli, families, rankone, tables
from sphsys.dynkin import DiagramError, parse_diagram
from sphsys.system import SphericalSystem
from test_acceptance import diagrams_up_to_rank

# one member per family at the smallest admissible parameters
MINIMAL = {
    "aa(p,p)": {"p": 1}, "ao(n)": {"n": 1}, "ac(n)": {"n": 3},
    "aa(p+q+p)": {"p": 1, "q": 2}, "aa'(p+1+p)": {"p": 1},
    "a(n)": {"n": 2}, "ac*(n)": {"n": 3},
    "bb(p,p)": {"p": 2}, "bo(p+q)": {"p": 1, "q": 1},
    "b(n)": {"n": 2}, "b'(n)": {"n": 2}, "b*(n)": {"n": 2},
    "bc*(n)": {"n": 3}, "bc'(n)": {"n": 2},
    "a(p)+b(q)": {"p": 2, "q": 2}, "a(p)+b'(q)": {"p": 2, "q": 1},
    "ac*(p)+b(q)": {"p": 2, "q": 2}, "ac*(p)+b'(q)": {"p": 2, "q": 1},
    "b**(3)": {}, "b*(4)+b**(3)": {},
    "cc(p,p)": {"p": 3}, "co(n)": {"n": 3}, "c(n)": {"n": 3},
    "cc(p+q)": {"p": 2, "q": 2}, "cc'(p+2)": {"p": 2}, "c*(n)": {"n": 3},
    "ca(1+q+1)": {"q": 2}, "aa(1+p+1)+c*(q)": {"p": 2, "q": 2},
    "aa(1,1)+c*(n)": {"n": 2}, "aa(1,1)+c*(n1)+c*(n2)": {"n1": 2, "n2": 2},
    "ac*(p)+c*(q)": {"p": 2, "q": 2}, "a'(1)+c*(q)": {"q": 3},
    "dd(p,p)": {"p": 4}, "do(p+q)": {"p": 1, "q": 3}, "do(n)": {"n": 4},
    "d(n)": {"n": 4}, "dc'(n)": {"n": 6}, "dc(n)": {"n": 5},
    "ds(n)": {"n": 4}, "ds*(4)": {}, "dc*(n)": {"n": 4},
    "a(p)+d(q)": {"p": 2, "q": 2}, "ac*(p)+d(q)": {"p": 2, "q": 2},
    "ee(p,p)": {"p": 6}, "eo(n)": {"n": 6}, "ea(6)": {}, "ed(6)": {},
    "ef(6)": {}, "ec(7)": {}, "ef(n)": {"n": 7}, "ec*(n)": {"n": 6},
    "ef(6)+a(2)": {}, "aa(2,2)+a(2)": {}, "ac(5)+a(2)": {},
    "ff(4,4)": {}, "fo(4)": {}, "f(4)": {}, "fa(1+2+1)": {},
    "fd(4)": {}, "ao(2)+a(2)": {}, "fc*(4)": {},
    "gg(2,2)": {}, "go(2)": {}, "g(2)": {}, "g'(2)": {}, "g*(2)": {},
}

# a second, larger member wherever the parameters allow one
BIGGER = [
    ("aa(p,p)", {"p": 3}), ("ao(n)", {"n": 4}), ("ac(n)", {"n": 7}),
    ("aa(p+q+p)", {"p": 2, "q": 3}), ("aa'(p+1+p)", {"p": 2}),
    ("a(n)", {"n": 4}), ("ac*(n)", {"n": 5}),
    ("bb(p,p)", {"p": 3}), ("bo(p+q)", {"p": 2, "q": 3}),
    ("b(n)", {"n": 4}), ("b'(n)", {"n": 3}), ("b*(n)", {"n": 4}),
    ("bc*(n)", {"n": 4}), ("bc'(n)", {"n": 4}),
    ("a(p)+b(q)", {"p": 3, "q": 2}), ("a(p)+b'(q)", {"p": 3, "q": 2}),
    ("ac*(p)+b(q)", {"p": 3, "q": 3}), ("ac*(p)+b'(q)", {"p": 3, "q": 1}),
    ("cc(p,p)", {"p": 4}), ("co(n)", {"n": 4}), ("c(n)", {"n": 5}),
    ("cc(p+q)", {"p": 4, "q": 3}), ("cc'(p+2)", {"p": 4}),
    ("c*(n)", {"n": 4}), ("ca(1+q+1)", {"q": 4}),
    ("aa(1+p+1)+c*(q)", {"p": 3, "q": 3}),
    ("aa(1,1)+c*(n)", {"n": 4}),
    ("aa(1,1)+c*(n1)+c*(n2)", {"n1": 2, "n2": 4}),
    ("ac*(p)+c*(q)", {"p": 3, "q": 3}), ("a'(1)+c*(q)", {"q": 5}),
    ("dd(p,p)", {"p": 5}), ("do(p+q)", {"p": 2, "q": 2}),
    ("do(p+q)", {"p": 3, "q": 4}), ("do(n)", {"n": 5}),
    ("d(n)", {"n": 6}), ("dc'(n)", {"n": 8}), ("dc(n)", {"n": 7}),
    ("ds(n)", {"n": 6}), ("dc*(n)", {"n": 6}),
    ("a(p)+d(q)", {"p": 2, "q": 4}), ("a(p)+d(q)", {"p": 3, "q": 2}),
    ("ac*(p)+d(q)", {"p": 3, "q": 3}),
    ("ee(p,p)", {"p": 7}), ("eo(n)", {"n": 8}), ("ef(n)", {"n": 8}),
    ("ec*(n)", {"n": 7}), ("ec*(n)", {"n": 8}),
]


def test_catalog_is_complete_and_named_once():
    names = [f.name for f in families.CATALOG]
    assert len(names) == 66
    assert len(set(names)) == 66
    assert set(MINIMAL) == set(names)


@pytest.mark.parametrize("name,params", sorted(MINIMAL.items()))
def test_minimal_member_is_valid(name, params):
    sys = families.instantiate(name, **params)
    assert sys.validate().ok


@pytest.mark.parametrize("name,params", BIGGER)
def test_bigger_member_is_valid(name, params):
    sys = families.instantiate(name, **params)
    assert sys.validate().ok


@pytest.mark.parametrize("name,params", [
    ("ac(n)", {"n": 4}),
    ("ac(n)", {"n": 1}),
    ("dc'(n)", {"n": 5}),
    ("dc(n)", {"n": 6}),
    ("cc(p+q)", {"p": 3, "q": 2}),
    ("ee(p,p)", {"p": 5}),
    ("aa(p+q+p)", {"p": 1, "q": 1}),
    ("aa(1,1)+c*(n1)+c*(n2)", {"n1": 3, "n2": 2}),
])
def test_bad_parameters_rejected(name, params):
    with pytest.raises(ValueError):
        families.instantiate(name, **params)


@pytest.mark.parametrize("name,params", [
    ("co(n)", {"n": 2}),       # C2 is B2: would build bo(1+1)
    ("do(n)", {"n": 3}),       # D3 is A3: would build ao(3)
    ("cc(p,p)", {"p": 2}),     # would build bb(2,2)
    ("bb(p,p)", {"p": 1}),     # would build aa(1,1)
    ("dd(p,p)", {"p": 2}),     # D2 is A1,A1: no pair of D chains
    ("dc'(n)", {"n": 4}),      # the unchecked recipe serves D III at n = 4
])
def test_rank_below_family_range_rejected(name, params):
    with pytest.raises(ValueError, match="needs"):
        families.instantiate(name, **params)


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        families.instantiate("z(9)")


@pytest.mark.parametrize("build,rank", [
    (lambda: families.instantiate("ac(n)", n=2001), 2001),
    (lambda: families.instantiate("aa(p+q+p)", p=1000, q=2), 2002),
    (lambda: tables.symmetric_instance("A II", n=2001), 2001),
], ids=["ac(n)", "aa(p+q+p)", "A II"])
def test_rank_cap_trips_before_weights_are_built(build, rank):
    # a weight per node on an over-cap chain would hold about n^2/2 ints
    # (16 MB here) before the diagram refused the rank
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=f"rank {rank} exceeds the cap of 50 nodes"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- expansion over fixed diagrams -------------------------------------------

EXPECTED_COUNTS = {
    "A1": 1, "A2": 2, "A3": 5, "A4": 4, "A5": 6,
    "B2": 5, "B3": 9, "B4": 13,
    "C3": 5, "C4": 9,
    "D4": 8, "D5": 11,
    "F4": 6, "G2": 4,
    "A1,A1": 1, "A2,A2": 1, "G2,G2": 1,
    "B2,B2": 2, "C3,C3": 2, "A1,C3": 1,
}


@pytest.mark.parametrize("spec", sorted(EXPECTED_COUNTS))
def test_expansion_count(spec):
    entries = families.expand_catalog(spec)
    assert len(entries) == EXPECTED_COUNTS[spec]


def test_expansion_members_are_valid_and_distinct():
    for spec in EXPECTED_COUNTS:
        entries = families.expand_catalog(spec)
        keys = set()
        for e in entries:
            assert e.system.validate().ok, e.label
            assert e.system.is_cuspidal, e.label
            keys.add(e.system.canonical_key())
        assert len(keys) == len(entries)


def test_g2_expansion_labels():
    labels = [e.label for e in families.expand_catalog("G2")]
    assert labels == ["go(2)", "g(2)", "g'(2)", "g*(2)"]


def test_b2_expansion_labels():
    labels = [e.label for e in families.expand_catalog("B2")]
    assert labels == ["bo(1+1)", "b(2)", "b'(2)", "b*(2)", "bc'(2)"]


def test_catalog_listing_is_pinned(capsys):
    # sha256 of `sphsys catalog families`, recorded when every family still
    # spelled out its display template by hand
    assert cli.run(["catalog", "families"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "bbfd04c726a1b7a29578df876ae9215565963a1b200530bd08a2c1f7be7a058f"


def test_expansion_is_pinned():
    # sha256 over the expansion reprs of the 245 diagrams of rank <= 7,
    # recorded from the list built before the orbit index: labels, order
    # and the earliest-family-wins rule all stay
    text = "\n".join(repr(families.expand_catalog(spec))
                     for spec in diagrams_up_to_rank(7))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "cb961c96dd7f4367801427fc0034f5516dbdbd41cdf50b435c7bb5e9e161da3c"


def test_index_is_pinned_to_rank_ten():
    # sha256 over the index reprs (keys, labels, params, members) of the
    # 1,569 diagrams of rank <= 10, recorded while each family still listed
    # its parameter range in a space generator of its own
    text = "\n".join(repr(families.catalog_index(spec))
                     for spec in diagrams_up_to_rank(10))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a33cc0339b1e4d4d8f205ad36f2607575ec412c6a7c4ba68fa97fdd361e78f66"


def test_catalog_rows_pinned():
    # sha256 over the expansion reprs of the 472 diagrams of rank <= 8 and
    # each family's name and display, recorded while every family with one
    # member still had a builder of its own
    lines = [repr(families.expand_catalog(spec))
             for spec in diagrams_up_to_rank(8)]
    lines += [f"{f.name} {f.display}" for f in families.CATALOG]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "8532443291b575846ca39fcea2a374582df0e0553f930e327839e8228a0ae372"


@pytest.fixture
def bare_index(monkeypatch):
    # an index built from a stand-in catalog must not outlive the test
    families._index.cache_clear()
    yield lambda *fams: monkeypatch.setattr(families, "CATALOG", fams)
    families._index.cache_clear()


def test_index_skips_only_the_builders_refusal(bare_index):
    def refuse(n):
        raise ValueError("x(n) needs n >= 9")
    bare_index(families.Family("x(n)", refuse, families._chain("A", n=1)))
    assert families.expand_catalog("A3") == ()


def test_index_refuses_a_member_on_another_diagram(bare_index):
    bare_index(families.Family(
        "x(n)", lambda n: families.instantiate("b(n)", n=n),
        families._chain("A", n=1)))
    with pytest.raises(DiagramError,
                       match="family x.n. built a system on B3, not A3"):
        families.catalog_index("A3")


def test_index_lets_a_builder_fault_through(bare_index):
    def broken(n):
        raise TypeError("broken recipe")
    bare_index(families.Family("x(n)", broken, families._chain("A", n=1)))
    with pytest.raises(TypeError, match="broken recipe"):
        families.catalog_index("A3")


def test_members_live_on_few_components():
    # the catalog's traffic: keys are only ever compared on these diagrams,
    # where the automorphism group is small (D4,D4 has the most, 72)
    carrying = [parse_diagram(spec) for spec in diagrams_up_to_rank(8)
                if families.expand_catalog(spec)]
    assert len(carrying) == 55
    assert max(len(d.components) for d in carrying) == 2
    assert max(len(d.automorphisms) for d in carrying) == 72


def test_index_is_keyed_by_orbit():
    index = families.catalog_index("B4")
    assert list(index.values()) == list(families.expand_catalog("B4"))
    for key, entry in index.items():
        assert entry.system.canonical_key() == key
    with pytest.raises(TypeError):
        index["x"] = None


# every builder that places a root on fewer nodes than its row's range
# starts at, each on its smallest member: (family, params, root position,
# the name the row reads as there)
BELOW_RANGE = [
    ("bo(p+q)", {"p": 1, "q": 1}, 1, "b'(1)"),
    ("a(p)+b'(q)", {"p": 2, "q": 1}, 1, "b'(1)"),
    ("ac*(p)+b'(q)", {"p": 2, "q": 1}, 1, "b'(1)"),
    ("cc(p+q)", {"p": 2, "q": 2}, 1, "c(2)"),
    ("aa(1+p+1)+c*(q)", {"p": 2, "q": 2}, 2, "c*(2)"),
    ("aa(1,1)+c*(n)", {"n": 2}, 1, "c*(2)"),
    ("aa(1,1)+c*(n1)+c*(n2)", {"n1": 2, "n2": 2}, 1, "c*(2)"),
    ("ac*(p)+c*(q)", {"p": 2, "q": 2}, 1, "c*(2)"),
    ("ac(n)", {"n": 3}, 0, "d(3)"),
    ("cc(p+q)", {"p": 2, "q": 2}, 0, "d(3)"),
    ("cc'(p+2)", {"p": 2}, 0, "d(3)"),
    ("do(p+q)", {"p": 1, "q": 3}, 1, "d(3)"),
    ("dc'(n)", {"n": 6}, 0, "d(3)"),
    ("dc(n)", {"n": 5}, 0, "d(3)"),
    ("a(p)+d(q)", {"p": 2, "q": 3}, 1, "d(3)"),
    ("ac*(p)+d(q)", {"p": 2, "q": 3}, 1, "d(3)"),
    ("ec(7)", {}, 2, "d(3)"),
    ("ac(5)+a(2)", {}, 1, "d(3)"),
]


@pytest.mark.parametrize("name,params,root,placed", BELOW_RANGE)
def test_rows_below_their_range_read_as_the_aliases(name, params, root,
                                                     placed):
    # rankone.ALIASES names each low-rank reading by a row of the table;
    # d(3) is a row of its own
    sys = families.instantiate(name, **params)
    w = sys.sigma[root]
    trace = {i for i in sys.sp if w[i]}
    assert rankone.rank1_label(sys.diagram, w, trace) == \
        rankone.ALIASES.get(placed, placed)


def test_length_two_head_collapses_to_earlier_family():
    # a length-2 consecutive-sum head is a single root, so the ac* recipes
    # at p=2 rebuild members already produced by the plain-head recipes
    dup = families.instantiate("ac*(p)+b(q)", p=2, q=2)
    kept = families.instantiate("a(p)+b(q)", p=2, q=2)
    assert dup == kept
    assert families.classify(dup) == "a(2)+b(2)"
    labels = {e.label for e in families.expand_catalog("B4")}
    assert "a(2)+b(2)" in labels
    assert "ac*(2)+b(2)" not in labels


# -- strictness ----------------------------------------------------------------

def test_non_strict_members():
    non_strict = [
        ("b(n)", {"n": 2}), ("b(n)", {"n": 5}),
        ("a(p)+b(q)", {"p": 2, "q": 2}), ("a(p)+b(q)", {"p": 3, "q": 2}),
        ("ac*(p)+b(q)", {"p": 3, "q": 2}),
        ("cc(p+q)", {"p": 2, "q": 2}), ("cc(p+q)", {"p": 4, "q": 2}),
        ("g(2)", {}),
    ]
    for name, params in non_strict:
        assert not families.instantiate(name, **params).is_strict, name


def test_strict_members():
    strict = [
        ("b'(n)", {"n": 2}), ("b*(n)", {"n": 2}), ("bc'(n)", {"n": 2}),
        ("bo(p+q)", {"p": 1, "q": 1}), ("cc(p+q)", {"p": 2, "q": 3}),
        ("g'(2)", {}), ("g*(2)", {}), ("b**(3)", {}),
        ("a(p)+b'(q)", {"p": 2, "q": 1}), ("c(n)", {"n": 3}),
    ]
    for name, params in strict:
        assert families.instantiate(name, **params).is_strict, name


def test_strict_flag_agrees_with_doubling_check():
    for spec in ("B2", "B3", "B4", "C3", "C4", "C5", "G2", "D4", "F4"):
        for e in families.expand_catalog(spec):
            assert e.strict == e.system.is_strict, (spec, e.label)


# -- classification -------------------------------------------------------------

def test_classify_round_trip():
    for name, params in MINIMAL.items():
        sys = families.instantiate(name, **params)
        got = families.classify(sys)
        fam = families._BY_NAME[name]
        want = fam.label(params)
        # heads that collapse into an earlier plain-head family
        if (name in ("ac*(p)+b(q)", "ac*(p)+b'(q)", "ac*(p)+d(q)")
                and params["p"] == 2):
            want = want.replace("ac*(2)", "a(2)")
        assert got == want, (name, got)


def test_classify_is_automorphism_invariant():
    for name, params in [("ds(n)", {"n": 4}), ("do(p+q)", {"p": 1, "q": 3}),
                         ("ds*(4)", {}), ("ac*(n)", {"n": 4})]:
        sys = families.instantiate(name, **params)
        label = families.classify(sys)
        for perm in sys.diagram.automorphisms:
            assert families.classify(sys.permuted(perm)) == label


def test_classify_rejects_non_members():
    d = parse_diagram("A2")
    assert families.classify(SphericalSystem(d, (), [(2, 0)])) is None
    assert families.classify(SphericalSystem(d, (), ())) is None


def test_classify_keys_nothing_on_a_memberless_diagram(monkeypatch):
    # A1 x 7 carries no member, and one key there minimises over 5,040
    # permutations: classify must answer without computing it
    d = parse_diagram("A1,A1,A1,A1,A1,A1,A1")
    sys = SphericalSystem(d, (), [tuple(2 * (i == j) for j in range(7))
                                  for i in range(7)])

    def refuse(self):
        raise AssertionError("canonical_key called")
    monkeypatch.setattr(SphericalSystem, "canonical_key", refuse)
    assert families.classify(sys) is None


# -- structure spot checks --------------------------------------------------------

def test_g_members():
    g = families.instantiate("g(2)")
    assert g.sigma == ((2, 1),) and g.sp == {1}
    gp = families.instantiate("g'(2)")
    assert gp.sigma == ((4, 2),) and gp.sp == {1}


def test_rank_two_symplectic_tail_attaches_at_the_short_node():
    # the A1 x C2 member lives on A1 x B2: the pair root must reach the
    # node that sits at the far end from the double bond as seen from C2,
    # which is the short node of B2
    sys = families.instantiate("aa(1,1)+c*(n)", n=2)
    assert sys.diagram.spec() == "A1,B2"
    assert set(sys.sigma) == {(1, 0, 1), (0, 1, 1)}
    assert sys.sp == frozenset()


def test_paired_symplectic_chains_share_their_head_root():
    sys = families.instantiate("aa(1,1)+c*(n1)+c*(n2)", n1=2, n2=3)
    assert sys.diagram.spec() == "B2,C3"
    assert (0, 1, 1, 0, 0) in sys.sigma          # pair spanning both heads
    assert (1, 1, 0, 0, 0) in sys.sigma          # rank-2 chain row
    assert (0, 0, 1, 2, 1) in sys.sigma          # rank-3 chain row
    assert sys.sp == frozenset({4})


def test_fork_tail_degenerates_to_orthogonal_pair():
    sys = families.instantiate("a(p)+d(q)", p=2, q=2)
    assert set(sys.sigma) == {(1, 1, 0, 0), (0, 0, 1, 1)}
    assert sys.sp == frozenset()
    assert sys.validate().ok


def test_doubled_tail_on_odd_orthogonal_family():
    sys = families.instantiate("dc'(n)", n=6)
    assert (0, 0, 0, 0, 0, 2) in sys.sigma
    assert len(sys.sigma) == 3
    assert sys.sp == frozenset({0, 2, 4})


def test_ef_tower_adds_doubled_tail_nodes():
    e7 = families.instantiate("ef(n)", n=7)
    e8 = families.instantiate("ef(n)", n=8)
    assert len(e7.sigma) == 3 and len(e8.sigma) == 4
    assert (0, 0, 0, 0, 0, 0, 2) in e7.sigma
    assert (0, 0, 0, 0, 0, 0, 0, 2) in e8.sigma
    assert e7.sp == e8.sp == frozenset({1, 2, 3, 4})


def test_edge_sum_families_have_one_root_per_edge():
    for name, params, spec in [
        ("ac*(n)", {"n": 5}, "A5"), ("bc*(n)", {"n": 4}, "B4"),
        ("dc*(n)", {"n": 5}, "D5"), ("ec*(n)", {"n": 6}, "E6"),
        ("fc*(4)", {}, "F4"),
    ]:
        sys = families.instantiate(name, **params)
        d = parse_diagram(spec)
        edges = {frozenset((i, j)) for i in range(d.n_nodes)
                 for j in range(i + 1, d.n_nodes) if d.adjacent(i, j)}
        got = set()
        for g in sys.sigma:
            supp = frozenset(i for i, c in enumerate(g) if c)
            assert all(c in (0, 1) for c in g)
            got.add(supp)
        assert got == edges
