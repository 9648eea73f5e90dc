"""Component analysis: strong adjacency, erasability flags, pruning lemma."""

import pytest

from sphsys import connect
from sphsys.dynkin import parse_diagram
from sphsys.families import instantiate
from sphsys.system import SphericalSystem


def make(spec, sp, sigma):
    return SphericalSystem(parse_diagram(spec), sp, sigma)


# consecutive-sums chain on A3, every colour pairing is +-1
CHAIN3 = make("A3", set(), [(1, 1, 0), (0, 1, 1)])

# fork system: an isolated-looking pair root plus two glued fork roots
FORK5 = make("D5", set(), [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 1, 0, 1)])

# consecutive-sums chain of length four glued to a short-tail root
GLUED6 = make("B6", {5}, [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                          (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)])

# chain of length three glued to a short-tail root
GLUED5 = make("B5", {4}, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0),
                          (0, 0, 0, 1, 1)])

PAIRS = make("A1,A1,A1,A1", set(),
             [(1, 1, 0, 0), (0, 0, 1, 1)])


class TestAdjacency:
    def test_chain_roots_adjacent(self):
        assert connect.strongly_adjacent(CHAIN3, (1, 1, 0), (0, 1, 1))

    def test_cross_product_pair_not_adjacent(self):
        assert not connect.strongly_adjacent(PAIRS, (1, 1, 0, 0),
                                             (0, 0, 1, 1))

    def test_vanishing_support_colour_blocks(self):
        # the colour at the far end of the first pair ignores the second root
        assert not connect.strongly_adjacent(FORK5, (1, 1, 0, 0, 0),
                                             (0, 0, 1, 1, 0))

    @pytest.mark.parametrize("pair", [
        ((1, 1, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 1))])
    def test_weight_off_the_roots_is_named(self, pair):
        with pytest.raises(ValueError, match=r"system: \[\[0, 0, 1\]\]"):
            connect.strongly_adjacent(CHAIN3, *pair)

    def test_symmetric(self):
        for sys in (CHAIN3, FORK5, GLUED6, PAIRS):
            for g1 in sys.sigma:
                for g2 in sys.sigma:
                    if g1 != g2:
                        assert (connect.strongly_adjacent(sys, g1, g2)
                                == connect.strongly_adjacent(sys, g2, g1))


class TestComponents:
    def test_chain_single_component(self):
        assert connect.components(CHAIN3) == (((1, 1, 0), (0, 1, 1)),)

    def test_product_two_components(self):
        assert connect.components(PAIRS) == (((1, 1, 0, 0),),
                                             ((0, 0, 1, 1),))

    def test_rank_one_singleton(self):
        sys = make("A1", set(), [(2,)])
        assert connect.components(sys) == (((2,),),)

    def test_fork_split(self):
        comps = connect.components(FORK5)
        assert comps == (((1, 1, 0, 0, 0),),
                         ((0, 0, 1, 1, 0), (0, 0, 1, 0, 1)))

    def test_glued_chain_plus_tail(self):
        comps = connect.components(GLUED6)
        assert len(comps) == 2
        assert comps[0] == GLUED6.sigma[:3]
        assert comps[1] == GLUED6.sigma[3:]

    def test_partition(self):
        for sys in (CHAIN3, FORK5, GLUED6, GLUED5, PAIRS):
            seen = [g for comp in connect.components(sys) for g in comp]
            assert sorted(seen) == sorted(sys.sigma)


class TestDeltaOf:
    def test_whole_sigma_keeps_all_support_colours(self):
        assert connect.delta_of(CHAIN3, CHAIN3.sigma) == (0, 1, 2)

    def test_outside_pairing_excludes_end_colour(self):
        # the chain-end colour next to the tail root pairs -1 with it
        assert connect.delta_of(GLUED5, GLUED5.sigma[:2]) == (0, 1)
        assert connect.delta_of(GLUED6, GLUED6.sigma[:3]) == (0, 1, 2)

    def test_fork_pair_loses_centre_colour(self):
        assert connect.delta_of(FORK5, FORK5.sigma[1:]) == (3, 4)

    def test_tail_root_keeps_nothing(self):
        assert connect.delta_of(GLUED6, GLUED6.sigma[3:]) == ()

    def test_weight_outside_sigma_rejected(self):
        sys = instantiate("b(n)", n=3)
        with pytest.raises(ValueError, match=r"\[\[9, 9, 9\]\]"):
            connect.delta_of(sys, [(9, 9, 9)])


class TestClassify:
    def test_standalone_chain(self):
        # middle colour alone is homogeneous hence smooth; the two end
        # colours give a valid non-smooth quotient
        a = connect.classify_component(CHAIN3, CHAIN3.sigma)
        assert a.erasable and a.quasi_erasable and not a.isolated

    def test_standalone_triple_weight_row(self):
        sys = make("B3", {0, 1}, [(1, 2, 3)])
        a = connect.classify_component(sys, sys.sigma)
        assert a.erasable
        assert a.quasi_erasable
        assert not a.isolated

    def test_glued_chain_quasi_erasable(self):
        a = connect.classify_component(GLUED6, GLUED6.sigma[:3])
        assert a.quasi_erasable
        assert a.erasable
        assert not a.isolated

    def test_rejects_foreign_roots(self):
        # (0, 2, 0) lies inside the spherical support, (5, 5, 5) does not
        for roots in ([(0, 2, 0)], [CHAIN3.sigma[0], (5, 5, 5)]):
            with pytest.raises(ValueError, match="not spherical roots"):
                connect.classify_component(CHAIN3, roots)

    def test_bare_tail_component(self):
        a = connect.classify_component(GLUED6, GLUED6.sigma[3:])
        assert a.delta_of == ()
        assert not (a.isolated or a.erasable or a.quasi_erasable)

    def test_fork_component_quasi_but_not_erasable(self):
        a = connect.classify_component(FORK5, FORK5.sigma[1:])
        assert a.quasi_erasable
        assert not a.erasable
        assert not a.isolated

    def test_fork_companion_erasable(self):
        a = connect.classify_component(FORK5, FORK5.sigma[:1])
        assert a.erasable and a.quasi_erasable

    def test_product_components_isolated(self):
        for comp in connect.components(PAIRS):
            a = connect.classify_component(PAIRS, comp)
            assert a.isolated
            assert a.erasable

    @pytest.mark.parametrize("n", [7, 8])
    def test_all_doubled_e_type_needs_no_search(self, monkeypatch, n):
        # eo(n) is one component moved by every colour; the quotient by all
        # of them has kernel {0}, so it is erasable without a Hilbert search
        monkeypatch.setenv("SPHSYS_MAX_STATES", "200000")
        sys = instantiate("eo(n)", n=n)
        (comp,) = connect.components(sys)
        a = connect.classify_component(sys, comp)
        assert a.delta_of == tuple(range(n))
        assert (a.isolated, a.erasable, a.quasi_erasable) \
            == (False, True, True)

    def test_isolated_implies_erasable(self):
        for sys in (CHAIN3, FORK5, GLUED6, GLUED5, PAIRS):
            for comp in connect.components(sys):
                a = connect.classify_component(sys, comp)
                if a.isolated:
                    assert a.erasable

    def test_straddling_colour_is_not_isolated(self):
        # one colour sits on the short nodes of both B2s, 0.2 and 1.2, so
        # it meets both sides and the colours do not split in two
        sys = make("B2,B2", set(), [(0, 0, 1, 1), (0, 1, 0, 1)])
        assert not connect.classify_component(sys, sys.sigma[:1]).isolated

    def test_root_with_no_colour_on_its_side_is_not_isolated(self):
        # invalid: node 0 is parabolic yet carries the root 2a0.1, so no
        # colour lies on that root's side
        sys = SphericalSystem("A1,A1", [0], [(2, 0), (0, 2)])
        assert not connect.classify_component(sys, [(2, 0)]).isolated

    def test_automorphism_invariant_flags(self):
        for sys in (CHAIN3, FORK5, PAIRS):
            base = sorted(
                (sorted(a.component),
                 (a.isolated, a.erasable, a.quasi_erasable))
                for a in (connect.classify_component(sys, c)
                          for c in connect.components(sys)))
            for perm in sys.diagram.automorphisms:
                psys = sys.permuted(perm)
                mapped = sorted(
                    (sorted(a.component),
                     (a.isolated, a.erasable, a.quasi_erasable))
                    for a in (connect.classify_component(psys, c)
                              for c in connect.components(psys)))
                relabeled = sorted(
                    (sorted(sys.diagram.permute_weight(perm, g)
                            for g in comp), flags)
                    for comp, flags in base)
                assert mapped == relabeled


class TestLemma:
    def test_two_isolated_pieces_prune(self):
        assert connect.lemma_erasable_prunes(
            PAIRS, PAIRS.sigma[:1], PAIRS.sigma[1:])

    def test_empty_side_never_prunes(self):
        assert not connect.lemma_erasable_prunes(PAIRS, PAIRS.sigma, ())

    def test_overlap_never_prunes(self):
        assert not connect.lemma_erasable_prunes(
            PAIRS, PAIRS.sigma, PAIRS.sigma[:1])

    def test_erasable_plus_quasi_prunes(self):
        assert connect.lemma_erasable_prunes(
            FORK5, FORK5.sigma[:1], FORK5.sigma[1:])

    def test_first_piece_not_quasi_erasable(self):
        sys = make("A2", set(), [(0, 2), (2, 0)])
        assert not connect.classify_component(sys, [(0, 2)]).quasi_erasable
        assert not connect.lemma_erasable_prunes(sys, [(0, 2)], [(2, 0)])

    def test_second_piece_not_quasi_erasable(self):
        sys = make("B2", set(), [(0, 2), (1, 1)])
        assert connect.classify_component(sys, [(0, 2)]).quasi_erasable
        assert not connect.classify_component(sys, [(1, 1)]).quasi_erasable
        assert not connect.lemma_erasable_prunes(sys, [(0, 2)], [(1, 1)])

    def test_two_merely_quasi_pieces_do_not_prune(self):
        doubled = make(
            "D5,D5", set(),
            [(1, 1, 0, 0, 0) + (0,) * 5, (0, 0, 1, 1, 0) + (0,) * 5,
             (0, 0, 1, 0, 1) + (0,) * 5, (0,) * 5 + (1, 1, 0, 0, 0),
             (0,) * 5 + (0, 0, 1, 1, 0), (0,) * 5 + (0, 0, 1, 0, 1)])
        fork1 = doubled.sigma[1:3]
        fork2 = doubled.sigma[4:6]
        a1 = connect.classify_component(doubled, fork1)
        a2 = connect.classify_component(doubled, fork2)
        assert a1.quasi_erasable and not a1.erasable
        assert a2.quasi_erasable and not a2.erasable
        assert not connect.lemma_erasable_prunes(doubled, fork1, fork2)
        # pairing either fork with an erasable pair component does prune
        assert connect.lemma_erasable_prunes(doubled, fork1,
                                             doubled.sigma[:1])
