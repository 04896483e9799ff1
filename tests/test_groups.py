from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moritakit import groups
from moritakit._search import _injective
from moritakit.groupoids import GroupoidHom, groupoid_isomorphisms, isotropy
from moritakit.groups import (FiniteGroup, _cayley, _index_rows,
                              automorphism_group, cyclic_group,
                              dihedral_group, direct_product, group_homomorphisms,
                              group_isomorphic, group_isomorphisms,
                              inner_automorphism_group, klein_four_group,
                              outer_automorphism_group, quaternion_group,
                              quotient_group, subgroup, symmetric_group,
                              trivial_group, validate_group)
from moritakit.picard import Bisection, automorphisms, bisections
from moritakit.tss import LabeledSurfaceGraph, TssIsomorphism, graph_automorphisms

from support import (TupleGroup, corpus_groupoids, reference_cayley,
                     reference_generated_closure, reference_locate_inverses,
                     reference_maps, reference_quotient_group, reference_row_cayley,
                     reference_subgroup, reference_validate_group)


def test_constructors_are_groups():
    for g in [trivial_group(), cyclic_group(5), symmetric_group(3),
              dihedral_group(4), quaternion_group(), klein_four_group(),
              direct_product(cyclic_group(2), cyclic_group(3))]:
        assert validate_group(g).ok
        assert g.identity is not None


def test_validate_reports_broken_table():
    bad = FiniteGroup(["a", "b"], [[0, 1], [1, 1]])
    report = validate_group(bad)
    assert not report.ok
    assert "inverses" in report.rules() or "identity" in report.rules()


def test_non_associative_table_reported():
    # a*(a*a) = a*b = b but (a*a)*a = b*a = a with this table
    bad = FiniteGroup(["e", "a", "b"],
                      [[0, 1, 2], [1, 1, 2], [2, 2, 0]])
    assert "associativity" in validate_group(bad).rules()


@pytest.mark.parametrize("group", [symmetric_group(3), quaternion_group()],
                         ids=["S3", "Q8"])
def test_light_test_matches_the_full_loop_on_every_single_cell_change(group):
    # every cell of the table redirected to every other element: the
    # generator rows of Light's test decide associativity, and the witnesses
    # are those of the loop over all n^3 triples
    table = group._table
    n = len(group)
    changed = 0
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v == table[i, j]:
                    continue
                cells = table.copy()
                cells[i, j] = v
                report = validate_group(FiniteGroup(group.elements, cells))
                reference = reference_validate_group(TupleGroup(group.elements, cells))
                assert violations(report) == violations(reference), (i, j, v)
                changed += not report.ok
    assert changed == n * n * (n - 1)


def test_light_generators_reach_every_element():
    # greedy in index order: each generator is the first index that the
    # earlier generators' right products miss
    assert groups._generators(cyclic_group(6)._table) == [0, 1]
    for g in (symmetric_group(4), quaternion_group(), klein_four_group(),
              direct_product(cyclic_group(2), cyclic_group(4))):
        gens = groups._generators(g._table)
        assert gens == sorted(gens) and gens[0] == 0
        assert reference_generated_closure(TupleGroup(g.elements, g.table), gens) \
            == set(range(len(g)))
    # an undefined product (index n) reaches nothing
    assert groups._generators(np.array([[2, 1], [1, 2]])) == [0, 1]


def test_isomorphism_and_order_profiles():
    assert group_isomorphic(cyclic_group(4), klein_four_group()) is None
    assert group_isomorphic(direct_product(cyclic_group(2), cyclic_group(3)),
                            cyclic_group(6)) is not None
    iso = group_isomorphic(symmetric_group(3), dihedral_group(3))
    assert iso is not None
    # the returned map is a bijective homomorphism
    g, h = symmetric_group(3), dihedral_group(3)
    assert sorted(iso) == list(range(6))
    for i in range(6):
        for j in range(6):
            assert iso[g.mul(i, j)] == h.mul(iso[i], iso[j])


def test_automorphism_groups_match_known_orders():
    assert len(automorphism_group(cyclic_group(4))) == 2
    assert len(automorphism_group(symmetric_group(3))) == 6
    assert len(automorphism_group(quaternion_group())) == 24
    assert len(automorphism_group(klein_four_group())) == 6


def test_inner_and_outer():
    s3 = symmetric_group(3)
    assert len(inner_automorphism_group(s3)) == 6
    assert len(outer_automorphism_group(s3)) == 1
    assert len(outer_automorphism_group(cyclic_group(4))) == 2
    out_q8 = outer_automorphism_group(quaternion_group())
    assert group_isomorphic(out_q8, symmetric_group(3)) is not None


def test_homomorphism_enumeration_counts():
    # homs Z4 -> Z2: generator goes to either element
    assert len(group_homomorphisms(cyclic_group(4), cyclic_group(2))) == 2
    # homs Z2 -> Z3: only trivial
    assert len(group_homomorphisms(cyclic_group(2), cyclic_group(3))) == 1
    # End(Z4) has 4 elements, two of which are automorphisms
    assert len(group_homomorphisms(cyclic_group(4), cyclic_group(4))) == 4
    assert len(group_isomorphisms(cyclic_group(4), cyclic_group(4))) == 2


def test_homomorphisms_pass_the_full_product_check():
    groups = [trivial_group(), cyclic_group(4), cyclic_group(6), symmetric_group(3),
              dihedral_group(4), quaternion_group(), klein_four_group()]
    for g in groups:
        for h in groups:
            homs = group_homomorphisms(g, h)
            assert homs
            for phi in homs:
                assert all(phi[g.mul(i, j)] == h.mul(phi[i], phi[j])
                           for i in range(len(g)) for j in range(len(g)))


def test_cyclic_homomorphism_counts_are_gcds():
    for m in range(1, 9):
        for n in range(1, 9):
            homs = group_homomorphisms(cyclic_group(m), cyclic_group(n))
            assert len(homs) == gcd(m, n), (m, n)


def small_groups():
    z2 = cyclic_group(2)
    return ([trivial_group()] + [cyclic_group(n) for n in range(2, 9)]
            + [klein_four_group(), direct_product(z2, cyclic_group(4)),
               direct_product(klein_four_group(), z2), symmetric_group(3),
               dihedral_group(4), quaternion_group(), dihedral_group(5),
               direct_product(cyclic_group(3), cyclic_group(3))])


def test_maps_match_the_product_walk_oracle():
    # the pruned search yields the maps of the full product, in its order:
    # morita_equivalent takes the first isomorphism as its witness
    groups_ = small_groups()
    assert len(groups_) == 16
    for i, g in enumerate(groups_):
        for j, h in enumerate(groups_):
            for bijective in (False, True):
                assert (list(groups._maps(g, h, bijective))
                        == reference_maps(g, h, bijective)), (i, j, bijective)


def test_maps_refuse_a_table_without_identity():
    broken = FiniteGroup(["e", "a"], [[1, 1], [1, 0]])
    assert broken.identity is None
    for g, h in ((broken, cyclic_group(2)), (cyclic_group(2), broken)):
        for bijective in (False, True):
            with pytest.raises(ValueError, match="has no identity element"):
                list(groups._maps(g, h, bijective))


def test_subgroup_and_quotient():
    z6 = cyclic_group(6)
    even = subgroup(z6, [0, 2, 4])
    assert group_isomorphic(even, cyclic_group(3)) is not None
    quot, reps = quotient_group(z6, {0, 2, 4})
    assert len(quot) == 2
    assert reps[0] == 0
    assert group_isomorphic(quot, cyclic_group(2)) is not None


def test_center():
    assert len(symmetric_group(3).center()) == 1
    assert len(quaternion_group().center()) == 2
    assert len(klein_four_group().center()) == 4


# ---------------------------------------------------------------------------
# Cayley tables against the loop route, key(mul(x, y)) cell by cell

def same_group(new, ref):
    assert new.elements == ref.elements
    assert new.table == ref.table
    assert new.payload == ref.payload


@pytest.mark.parametrize("name,g", corpus_groupoids())
def test_cayley_tables_match_the_loop_on_the_corpus(name, g):
    isos = groupoid_isomorphisms(g, g)
    same_group(automorphisms(g), reference_cayley(
        isos, lambda a, b: b.then(a), GroupoidHom.key, "a"))

    found = sorted(_injective([g.s_fiber(x) for x in range(g.n_objects)],
                              lambda a: g.tgt[a]))

    def product(n, m):
        return Bisection(g, tuple(g.comp[(n.arrows[g.tgt[a]], a)] for a in m.arrows))

    same_group(bisections(g), reference_cayley(
        [Bisection(g, arrows) for arrows in found], product, lambda b: b.arrows, "b"))

    for x in g.objects:
        h = isotropy(g, x)
        perms = sorted(group_isomorphisms(h, h))
        same_group(automorphism_group(h), reference_cayley(
            perms, lambda p, q: tuple(p[k] for k in q), lambda p: p, "a"))


def parallel_edges(k):
    return LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1}, [("n", "s", 1.0)] * k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cayley_tables_match_the_loop_on_parallel_edges(k):
    aut = graph_automorphisms(parallel_edges(k))
    maps = [(a.vertex_map, a.edge_map) for a in aut.payload]
    assert maps == sorted(set(maps))
    same_group(aut, reference_cayley(aut.payload, TssIsomorphism.compose,
                                     lambda a: (a.vertex_map, a.edge_map), "g"))


def test_cayley_table_of_s6_searches_few_rows(monkeypatch):
    # one _row_keys call keys the items, then one per searched row
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return row_keys(rows)

    row_keys = groups._row_keys
    monkeypatch.setattr(groups, "_row_keys", counted)
    assert len(graph_automorphisms(parallel_edges(6))) == 720
    assert 1 <= len(calls) - 1 <= 8


def closure(gens, width, cap):
    """The maps generated by ``gens`` under composition, or None past ``cap``."""
    found, frontier = {tuple(range(width))}, [tuple(range(width))]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                c = tuple(a[v] for v in s)
                if c not in found:
                    if len(found) == cap:
                        return None
                    found.add(c)
                    nxt.append(c)
        frontier = nxt
    return found


@st.composite
def permutation_groups(draw, cap=120):
    """The elements of a group generated by 1-3 random permutations of at
    most 7 points, in a random order; generators that would take the group
    past ``cap`` elements are dropped, so one always remains."""
    width = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(width)), min_size=1, max_size=3))
    while (elements := closure(gens, width, cap)) is None:
        gens = gens[:-1]
    return width, draw(st.permutations(sorted(elements)))


def cayley_outcome(build, items, width):
    try:
        g = build(items, _index_rows(items, width), "p")
    except KeyError as exc:
        return str(exc)
    return g.elements, g.table, g.payload


@settings(max_examples=80, deadline=None)
@given(permutation_groups(), st.data())
def test_cayley_from_generator_rows_matches_the_row_search(group, data):
    width, items = group
    assert (cayley_outcome(_cayley, items, width)
            == cayley_outcome(reference_row_cayley, items, width))
    # without one non-identity element the set is not closed (unless only
    # the identity is left), and the same first product is missing
    others = [p for p in items if p != tuple(range(width))]
    if others:
        drop = data.draw(st.sampled_from(others))
        rest = [p for p in items if p != drop]
        outcome = cayley_outcome(_cayley, rest, width)
        assert outcome == cayley_outcome(reference_row_cayley, rest, width)
        assert isinstance(outcome, str) or len(rest) == 1


@st.composite
def tables_with_identity(draw):
    """Square tables with a two-sided identity e; other cells are arbitrary,
    so an element may have one-sided, several or no inverses."""
    n = draw(st.integers(1, 6))
    e = draw(st.integers(0, n - 1))
    table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
             for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    return table


@settings(max_examples=300, deadline=None)
@given(tables_with_identity())
def test_inverses_match_the_pair_loop(table):
    group = FiniteGroup([f"g{i}" for i in range(len(table))], table)
    assert group.identity is not None
    assert group.inverse == reference_locate_inverses(group)


def test_inverses_match_the_pair_loop_on_groups():
    for g in [trivial_group(), cyclic_group(6), symmetric_group(4),
              dihedral_group(5), quaternion_group(),
              FiniteGroup(["a", "b"], [[0, 1], [1, 1]])]:
        assert g.inverse == reference_locate_inverses(g), g


# ---------------------------------------------------------------------------
# index-array groups against the tuple-built class and its loops

def order_or_error(g, i):
    """``element_order``, or the message of its ValueError.  Where a power
    leaves the table, the tuple lookup raises IndexError and the array
    group reports that the element has no order."""
    try:
        return g.element_order(i)
    except ValueError as exc:
        return str(exc)
    except IndexError:
        return (f"element {g.elements[i]!r} has no order up to the group size "
                "(table not a group)")


def outcome(build, *args):
    """The elements, table and payload of the group ``build`` returns (and
    the rest of a tuple result), or the message of its ValueError."""
    try:
        result = build(*args)
    except ValueError as exc:
        return str(exc)
    group, *rest = result if isinstance(result, tuple) else (result,)
    return (group.elements, group.table, group.payload, *rest)


def document(g):
    """``as_dict``, or IndexError where a cell names no element."""
    try:
        return g.as_dict()
    except IndexError:
        return IndexError


def violations(report):
    return [(v.rule, v.witness) for v in report.violations]


def assert_same_as_tuple_group(new, ref, subsets=()):
    """Every derived value of ``new`` as ``ref``, a ``TupleGroup`` of the
    same table, computes it; ``subsets`` are tried as subgroups, and the
    subgroups of a group as normal subgroups."""
    assert new.table == ref.table
    assert document(new) == document(ref)
    assert (new.identity, new.inverse) == (ref.identity, ref.inverse)
    assert new.center() == ref.center()
    orders = [order_or_error(ref, i) for i in range(len(ref))]
    assert [order_or_error(new, i) for i in range(len(new))] == orders
    report = reference_validate_group(ref)
    assert violations(validate_group(new)) == violations(report)
    for subset in subsets:
        sub = outcome(reference_subgroup, ref, subset)
        assert outcome(subgroup, new, subset) == sub
        if report.ok and not isinstance(sub, str):  # a subgroup of a group
            assert (outcome(quotient_group, new, subset)
                    == outcome(reference_quotient_group, ref, subset))


def group_subsets(ref):
    """The trivial and whole subgroups, the centre and each cyclic subgroup."""
    n = len(ref)
    cyclic = {frozenset(reference_generated_closure(ref, [x])) for x in range(n)}
    return [{ref.identity}, set(range(n)), set(ref.center())] + sorted(map(sorted, cyclic))


SMALL_GROUP_TABLES = [g.table for g in (cyclic_group(5), klein_four_group(), symmetric_group(3),
                                        quaternion_group(), dihedral_group(4),
                                        direct_product(cyclic_group(2), cyclic_group(4)))]


@st.composite
def square_tables(draw):
    """Tables of order 1 to 8: relabelled groups, Latin squares (isotopes
    of a cyclic group, most not associative or with no identity), tables
    with a two-sided identity and arbitrary other cells (so one-sided
    inverses), and arbitrary tables; any of them with one cell out of
    range, and with random subsets of indices to try as subgroups."""
    kind = draw(st.sampled_from(["group", "latin", "identity", "any"]))
    if kind == "group":
        base = draw(st.sampled_from(SMALL_GROUP_TABLES))
        n = len(base)
        p = draw(st.permutations(range(n)))  # element p[i] is old element i
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[p[i]][p[j]] = p[base[i][j]]
    else:
        n = draw(st.integers(1, 8))
        cells = st.integers(0, n - 1)
        if kind == "latin":
            r, c, v = (draw(st.permutations(range(n))) for _ in range(3))
            table = [[v[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]
        else:
            table = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]
            if kind == "identity":
                e = draw(cells)
                for x in range(n):
                    table[e][x] = table[x][e] = x
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = n + draw(st.integers(0, 2))
    subsets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    return table, subsets


@settings(max_examples=400, deadline=None)
@given(square_tables())
def test_array_groups_match_the_tuple_group(case):
    table, subsets = case
    names = [f"g{i}" for i in range(len(table))]
    payload = [f"p{i}" for i in range(len(table))]
    new, ref = FiniteGroup(names, table, payload), TupleGroup(names, table, payload)
    if ref.identity is not None and reference_validate_group(ref).ok:
        subsets = subsets + group_subsets(ref)
    assert_same_as_tuple_group(new, ref, subsets)


def corpus_groups():
    """The isotropy, automorphism and bisection groups of the corpus."""
    for name, g in corpus_groupoids():
        yield f"aut {name}", automorphisms(g)
        yield f"bis {name}", bisections(g)
        for x in g.objects:
            h = isotropy(g, x)
            yield f"iso {name} {x}", h
            yield f"aut iso {name} {x}", automorphism_group(h)


def test_array_groups_match_the_tuple_group_on_the_corpus():
    for name, g in corpus_groups():
        ref = TupleGroup(g.elements, g.table, g.payload)
        assert_same_as_tuple_group(g, ref, group_subsets(ref))


def test_array_groups_match_the_tuple_group_on_s5_and_s6():
    s5 = symmetric_group(5)
    ref = TupleGroup(s5.elements, s5.table)
    assert_same_as_tuple_group(s5, ref, group_subsets(ref))
    # S6: validation is 720^3 triples, which neither side checks here
    s6 = symmetric_group(6)
    ref = TupleGroup(s6.elements, s6.table)
    subsets = [{ref.identity}, set(range(720)), set(ref.center()),
               reference_generated_closure(ref, [1]), reference_generated_closure(ref, [719])]
    for subset in subsets:
        assert outcome(subgroup, s6, subset) == outcome(reference_subgroup, ref, subset)
        assert (outcome(quotient_group, s6, subset)
                == outcome(reference_quotient_group, ref, subset))
    assert (s6.identity, s6.inverse, s6.center()) == (ref.identity, ref.inverse, ref.center())
    assert s6.order_profile() == ref.order_profile()
    assert s6.as_dict() == ref.as_dict()


def test_group_tables_are_read_only_index_arrays():
    g = FiniteGroup(["a", "b"], [[0, 1], [1, 0]])
    assert g._table.dtype == np.intp and not g._table.flags.writeable
    for bad in ([[0, 1], [1]], [[0, 1]], [[[0]]]):
        with pytest.raises(ValueError, match="table shape does not match"):
            FiniteGroup(["a", "b"], bad)
    with pytest.raises(ValueError, match="duplicate element ids"):
        FiniteGroup(["a", "a"], [[0, 1], [1, 0]])
