import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moritakit import tss
from moritakit.errors import InconsistentTopology, MissingVolume
from moritakit.groups import symmetric_group, group_isomorphic, validate_group
from moritakit.tss import (LabeledSurfaceGraph, graph_automorphisms,
                           morita_equivalent_tss, picard_ingredients,
                           poisson_isomorphic_tss, surface_genus, validate_tss)

from support import (perturb_one_period, random_tss, reference_graph_automorphisms,
                     reference_tss_isomorphisms, shuffled_copy, tss_isomorphic_oracle)


def sphere(period=1.0, volume=None):
    return LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                               [("n", "s", period)], volume)


def torus_loop():
    return LabeledSurfaceGraph(["v"], {"v": 0}, [("v", "v", 2.0)])


def circulant(n, steps):
    """Directed circulant C_n(steps): an edge i -> i + s for every step s."""
    names = [f"v{i:02d}" for i in range(n)]
    edges = [(names[i], names[(i + s) % n], 1.0) for i in range(n) for s in steps]
    return LabeledSurfaceGraph(names, {v: 0 for v in names}, edges)


def test_validate_examples():
    assert validate_tss(sphere()).ok
    disconnected = LabeledSurfaceGraph(["a", "b"], {"a": 1, "b": 1}, [])
    assert "connected" in validate_tss(disconnected).rules()
    bad_period = LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                     [("n", "s", 0.0)])
    assert "period-positive" in validate_tss(bad_period).rules()


def test_surface_genus_hand_computed():
    assert surface_genus(sphere()) == 0
    assert surface_genus(torus_loop()) == 1
    genus2 = LabeledSurfaceGraph(["v"], {"v": 2}, [])
    assert surface_genus(genus2) == 2
    # genus-1 leaf between two disks: chi = 1 - 2 + 1 = 0, a torus
    chain = LabeledSurfaceGraph(
        ["a", "b", "c"], {"a": 0, "b": 1, "c": 0},
        [("a", "b", 1.0), ("b", "c", 1.0)])
    assert chain.euler_characteristic() == 0
    assert surface_genus(chain) == 1


def test_surface_genus_rejects_bad_topology():
    overshoot = LabeledSurfaceGraph(["a"], {"a": 0}, [])
    assert surface_genus(overshoot) == 0
    two_spheres = LabeledSurfaceGraph(["a", "b"], {"a": 0, "b": 0}, [])
    with pytest.raises(InconsistentTopology):
        surface_genus(two_spheres)  # chi = 4


def test_identity_isomorphism_found():
    iso = morita_equivalent_tss(sphere(), sphere())
    assert iso is not None
    assert iso.vertex_map == (0, 1)


def test_period_mismatch_is_an_obstruction():
    assert morita_equivalent_tss(sphere(1.0), sphere(2.0)) is None
    assert morita_equivalent_tss(sphere(1.0), sphere(1.0 + 1e-3),
                                 period_tolerance=1e-2) is not None


def test_relabeled_path():
    p1 = LabeledSurfaceGraph(["A", "B", "C"], {"A": 0, "B": 1, "C": 0},
                             [("A", "B", 1.0), ("B", "C", 1.0)])
    p2 = LabeledSurfaceGraph(["X", "Y", "Z"], {"X": 0, "Y": 1, "Z": 0},
                             [("Z", "Y", 1.0), ("Y", "X", 1.0)])
    assert morita_equivalent_tss(p1, p2) is not None


def test_orientation_matters_but_reversal_mode_exists():
    one_way = LabeledSurfaceGraph(["a", "b"], {"a": 0, "b": 1},
                                  [("a", "b", 1.0)])
    other_way = LabeledSurfaceGraph(["a", "b"], {"a": 0, "b": 1},
                                    [("b", "a", 1.0)])
    assert morita_equivalent_tss(one_way, other_way) is None
    assert morita_equivalent_tss(one_way,
                                 other_way.reversed_orientation()) is not None


def test_gauge_equivalence_delegates():
    # gauge equivalence of these graphs is decided by Morita equivalence
    assert morita_equivalent_tss(sphere(), sphere()) is not None
    assert morita_equivalent_tss(sphere(1.0), sphere(2.0)) is None


def test_search_builds_edge_groups_once_per_graph(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return edge_groups(g)

    edge_groups = tss._edge_groups
    monkeypatch.setattr(tss, "_edge_groups", counted)

    # every vertex has the same signature: the edge groups are built once
    # per graph, however many vertex maps the search visits
    assert morita_equivalent_tss(circulant(6, (1, 2)), circulant(6, (1, 3))) is None
    assert len(calls) == 2


def test_poisson_isomorphism_needs_volume():
    with pytest.raises(MissingVolume):
        poisson_isomorphic_tss(sphere(), sphere(volume=1.0))
    assert poisson_isomorphic_tss(sphere(volume=3.0), sphere(volume=3.0)) is not None
    assert poisson_isomorphic_tss(sphere(volume=3.0), sphere(volume=4.0)) is None


def test_poisson_implies_morita():
    rng = random.Random(5)
    for _ in range(20):
        g = random_tss(rng)
        h = shuffled_copy(rng, g)
        g2 = LabeledSurfaceGraph(g.vertices,
                                 {v: g.genus[i] for i, v in enumerate(g.vertices)},
                                 [(g.vertices[t], g.vertices[h_], p)
                                  for (t, h_, p) in g.edges], volume=1.5)
        h2 = LabeledSurfaceGraph(h.vertices,
                                 {v: h.genus[i] for i, v in enumerate(h.vertices)},
                                 [(h.vertices[t], h.vertices[h_], p)
                                  for (t, h_, p) in h.edges], volume=1.5)
        if poisson_isomorphic_tss(g2, h2) is not None:
            assert morita_equivalent_tss(g2, h2) is not None


def test_graph_automorphism_examples():
    distinct = LabeledSurfaceGraph(["a", "b"], {"a": 0, "b": 1},
                                   [("a", "b", 1.0)])
    assert len(graph_automorphisms(distinct)) == 1
    parallel = LabeledSurfaceGraph(["u", "v"], {"u": 1, "v": 1},
                                   [("u", "v", 1.0), ("u", "v", 1.0)])
    assert len(graph_automorphisms(parallel)) == 2
    star = LabeledSurfaceGraph(
        ["c", "l1", "l2", "l3"], {"c": 0, "l1": 1, "l2": 1, "l3": 1},
        [("c", "l1", 1.0), ("c", "l2", 1.0), ("c", "l3", 1.0)])
    aut = graph_automorphisms(star)
    assert group_isomorphic(aut, symmetric_group(3)) is not None


def test_graph_automorphisms_form_group_and_respect_labels():
    rng = random.Random(11)
    for _ in range(10):
        g = random_tss(rng, max_vertices=4, max_edges=5)
        aut = graph_automorphisms(g)
        assert validate_group(aut).ok
        for iso in aut.payload:
            for v in range(g.n_vertices):
                assert g.genus[iso.vertex_map[v]] == g.genus[v]
            for e, (t, h, p) in enumerate(g.edges):
                t2, h2, p2 = g.edges[iso.edge_map[e]]
                assert (t2, h2) == (iso.vertex_map[t], iso.vertex_map[h])
                assert p2 == p


def test_labeled_automorphisms_are_unlabeled_automorphisms():
    rng = random.Random(13)
    for _ in range(8):
        g = random_tss(rng, max_vertices=4, max_edges=5)
        stripped = LabeledSurfaceGraph(
            g.vertices, {v: 0 for v in g.vertices},
            [(g.vertices[t], g.vertices[h], 1.0) for (t, h, _) in g.edges])
        labeled = graph_automorphisms(g)
        unlabeled = graph_automorphisms(stripped)
        assert len(unlabeled) % len(labeled) == 0
        keys = {(a.vertex_map) for a in unlabeled.payload}
        for a in labeled.payload:
            assert a.vertex_map in keys


def test_picard_ingredients_examples():
    ing = picard_ingredients(sphere())
    assert len(ing.graph_aut) == 1
    assert ing.torus_rank == 1
    assert ing.leaf_descriptors == ((0, 1), (0, 1))
    ing = picard_ingredients(torus_loop())
    assert ing.torus_rank == 1
    assert ing.leaf_descriptors == ((0, 2),)
    genus2 = LabeledSurfaceGraph(["v"], {"v": 2}, [])
    ing = picard_ingredients(genus2)
    assert ing.torus_rank == 0
    assert ing.leaf_descriptors == ((2, 0),)


def test_equivalence_relation_properties():
    rng = random.Random(31)
    graphs = [random_tss(rng, max_vertices=4, max_edges=5) for _ in range(6)]
    for g in graphs:
        iso = morita_equivalent_tss(g, g)
        assert iso is not None
        copy = shuffled_copy(rng, g)
        fwd = morita_equivalent_tss(g, copy)
        back = morita_equivalent_tss(copy, g)
        assert fwd is not None and back is not None
        both = back.compose(fwd)
        # composite is an automorphism of g: labels are preserved
        for v in range(g.n_vertices):
            assert g.genus[both.vertex_map[v]] == g.genus[v]


def test_decision_matches_oracle_on_random_pairs():
    rng = random.Random(99)
    for _ in range(60):
        a = random_tss(rng, max_vertices=5, max_edges=6)
        if rng.random() < 0.5:
            b = shuffled_copy(rng, a)
        else:
            b = random_tss(rng, max_vertices=5, max_edges=6)
        got = morita_equivalent_tss(a, b) is not None
        assert got == tss_isomorphic_oracle(a, b)
        if a.n_edges:
            perturbed = perturb_one_period(a, 1.001)
            assert morita_equivalent_tss(a, perturbed) is None


def test_equivalence_implies_matching_invariants():
    rng = random.Random(42)
    for _ in range(20):
        a = random_tss(rng)
        b = shuffled_copy(rng, a)
        iso = morita_equivalent_tss(a, b)
        assert iso is not None
        assert surface_genus(a) == surface_genus(b)
        assert a.n_edges == b.n_edges
        assert sorted(p for *_, p in a.edges) == sorted(p for *_, p in b.edges)
        assert sorted(a.genus) == sorted(b.genus)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_graphs_are_valid_and_self_equivalent(seed):
    rng = random.Random(seed)
    g = random_tss(rng)
    assert validate_tss(g).ok
    assert morita_equivalent_tss(g, g) is not None


@st.composite
def multigraphs(draw, max_vertices=7, max_edges=9, periods=(1.0, 1.5, 2.0)):
    """Labelled multigraphs with loops, parallel edges and tied periods,
    plus a second graph: a relabelled copy, maybe with periods nudged
    by less than 0.6, or an unrelated graph of the same size."""
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    genus = {v: draw(st.integers(0, 1)) for v in names}
    vertex = st.integers(0, n - 1)
    period = st.sampled_from(periods)
    edges = draw(st.lists(st.tuples(vertex, vertex, period), max_size=max_edges))
    g = LabeledSurfaceGraph(names, genus, [(names[t], names[hd], p) for t, hd, p in edges])
    kind = draw(st.sampled_from(["copy", "nudged", "other"]))
    if kind == "other":
        other = draw(st.lists(st.tuples(vertex, vertex, period),
                              min_size=len(edges), max_size=len(edges)))
        genus2 = {v: draw(st.integers(0, 1)) for v in names}
        h = LabeledSurfaceGraph(names, genus2,
                                [(names[t], names[hd], p) for t, hd, p in other])
        return g, h
    perm = draw(st.permutations(range(n)))
    renamed = [f"w{perm[i]}" for i in range(n)]
    nudge = st.sampled_from([0.0, 0.25, -0.5]) if kind == "nudged" else st.just(0.0)
    h = LabeledSurfaceGraph(renamed, {renamed[i]: g.genus[i] for i in range(n)},
                            [(renamed[t], renamed[hd], p + draw(nudge))
                             for t, hd, p in g.edges])
    return g, h


@settings(max_examples=150, deadline=None)
@given(multigraphs(periods=(1.0, 1.5, 2.0, float("nan"))),
       st.sampled_from([0.0, 0.3, 1.5, float("nan")]))
def test_pruned_search_yields_the_unpruned_sequence(pair, tol):
    # a NaN period or tolerance is compared as _edge_bijection compares it
    g, h = pair
    for a, b in ((g, h), (h, g), (g, g)):
        assert (list(tss._isomorphisms(a, b, tol))
                == list(reference_tss_isomorphisms(a, b, tol)))


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=5))
def test_graph_automorphisms_match_the_unpruned_search(pair):
    g, _ = pair
    aut = graph_automorphisms(g)
    with mock.patch.object(tss, "_isomorphisms", reference_tss_isomorphisms):
        reference = graph_automorphisms(g)
    assert aut.elements == reference.elements
    assert aut.payload == reference.payload
    assert np.array_equal(aut.table, reference.table)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5))
def test_graph_automorphisms_match_the_brute_force(pair):
    g, _ = pair
    assert ([(a.vertex_map, a.edge_map) for a in graph_automorphisms(g).payload]
            == reference_graph_automorphisms(g))


def test_one_edge_search_per_vertex_automorphism(monkeypatch):
    # a and b have different signatures, so the identity is the only vertex
    # map; its 3! * 2! * 2! * 2! edge completions come from one edge search
    calls = []
    injective = tss._injective

    def counting(options, key, accept=None):
        calls.append(len(options))
        return injective(options, key, accept)

    monkeypatch.setattr(tss, "_injective", counting)
    g = LabeledSurfaceGraph(["a", "b"], {"a": 1, "b": 1},
                            [("a", "b", 1.0)] * 3 + [("b", "a", 1.0)] * 2
                            + [("a", "a", 2.0)] * 2 + [("b", "b", 2.0)] * 2)
    assert len(graph_automorphisms(g)) == 48
    assert calls == [2, 9]


@pytest.fixture
def accept_calls(monkeypatch):
    """Counts the pruning hook's calls in ``tss`` searches."""
    calls = []
    injective = tss._injective

    def counting(options, key, accept=None):
        def counted(k, chosen):
            calls.append(k)
            return accept(k, chosen)
        return injective(options, key, counted if accept else None)

    monkeypatch.setattr(tss, "_injective", counting)
    return calls


def test_search_work_on_twelve_vertex_circulants(accept_calls):
    # all 12 vertices share one signature, so unpruned these are 12! leaves;
    # the pruned searches make 384 and 924 hook calls
    assert morita_equivalent_tss(circulant(12, (1, 2)), circulant(12, (1, 3))) is None
    assert 0 < len(accept_calls) <= 500
    accept_calls.clear()
    assert len(graph_automorphisms(circulant(12, (1, 2)))) == 12
    assert 0 < len(accept_calls) <= 1000
