import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moritakit.errors import InvalidAction, NotPrincipal
from moritakit.groups import (cyclic_group, group_homomorphisms, klein_four_group,
                              symmetric_group, trivial_group)
from moritakit.groupoids import (FiniteGroupoid, GroupoidHom,
                                 PrincipalBundleData, action_groupoid,
                                 bundle_of_groups, disjoint_union,
                                 enumerate_functors, gauge_groupoid,
                                 group_as_groupoid, groupoid_isomorphic,
                                 groupoid_isomorphisms, isotropy,
                                 is_transitive, orbits, pair_groupoid,
                                 validate)
from moritakit.groups import validate_group

from moritakit.io import groupoid_from_dict, groupoid_to_dict

from support import (corpus_groupoids, gauge_over, reference_groupoid_from_dict,
                     reference_groupoid_to_dict, reference_validate,
                     with_composites)


def swap_action(n_fixed=0):
    """Z2 swapping {1,2} and fixing any further objects."""
    objs = ["1", "2"] + [str(i) for i in range(3, 3 + n_fixed)]
    act = {}
    for x in objs:
        act[("c0", x)] = x
        act[("c1", x)] = {"1": "2", "2": "1"}.get(x, x)
    return action_groupoid(cyclic_group(2), objs, act)


def test_pair_groupoid_shapes():
    assert pair_groupoid(1).n_arrows == 1
    assert pair_groupoid(2).n_arrows == 4
    g = pair_groupoid(3)
    assert g.n_arrows == 9
    assert is_transitive(g)
    assert len(isotropy(g, "1")) == 1
    assert validate(g).ok


def test_validate_flags_bad_composability():
    g = pair_groupoid(2)
    comp = {(g.arrows[i], g.arrows[j]): g.arrows[k] for (i, j), k in g.comp.items()}
    # add a composite where src and tgt do not meet: (1,1) after (1,2)?
    # (1,1) has src 1; (1,2) has tgt 1, so pick a genuinely bad pair instead:
    comp[("(1,2)", "(1,2)")] = "(1,1)"
    src = {a: g.objects[g.src[i]] for i, a in enumerate(g.arrows)}
    tgt = {a: g.objects[g.tgt[i]] for i, a in enumerate(g.arrows)}
    unit = {x: g.arrows[g.unit[i]] for i, x in enumerate(g.objects)}
    inv = {a: g.arrows[g.inv[i]] for i, a in enumerate(g.arrows)}
    bad = FiniteGroupoid(g.objects, g.arrows, src, tgt, unit, inv, comp)
    report = validate(bad)
    assert not report.ok
    assert any(v.rule == "composability" and v.witness == ("(1,2)", "(1,2)")
               for v in report.violations)


def test_group_as_groupoid_valid():
    g = group_as_groupoid(cyclic_group(3))
    assert validate(g).ok
    assert orbits(g) == (("pt",),)


def test_orbits_examples():
    assert orbits(pair_groupoid(3)) == (("1", "2", "3"),)
    du = disjoint_union(group_as_groupoid(cyclic_group(2), "a"),
                        group_as_groupoid(cyclic_group(3), "b"))
    assert orbits(du) == (("u0:a",), ("u1:b",))
    act = swap_action(n_fixed=1)
    assert orbits(act) == (("1", "2"), ("3",))


def test_isotropy_is_a_group_everywhere():
    for name, g in corpus_groupoids():
        for x in g.objects:
            h = isotropy(g, x)
            assert validate_group(h).ok, (name, x)


def test_action_groupoid_examples():
    one = action_groupoid(cyclic_group(2), ["1"], {("c0", "1"): "1", ("c1", "1"): "1"})
    assert groupoid_isomorphic(one, group_as_groupoid(cyclic_group(2))) is not None
    act = swap_action()
    assert is_transitive(act)
    assert len(isotropy(act, "1")) == 1
    assert groupoid_isomorphic(act, pair_groupoid(2)) is not None
    # Z3 acting on itself by translation is the pair groupoid on 3 objects
    z3 = cyclic_group(3)
    trans = action_groupoid(z3, list(z3.elements),
                            lambda g, x: z3.elements[z3.mul(z3.index[g], z3.index[x])])
    assert groupoid_isomorphic(trans, pair_groupoid(3)) is not None


def test_action_groupoid_rejects_non_action():
    with pytest.raises(InvalidAction):
        action_groupoid(cyclic_group(2), ["1", "2"],
                        {("c0", "1"): "1", ("c0", "2"): "2",
                         ("c1", "1"): "2", ("c1", "2"): "2"})


def test_gauge_groupoid_quotient_counts():
    g = gauge_over(cyclic_group(3), 2)
    assert g.n_objects == 2
    assert g.n_arrows == 12  # (6*6)/3
    assert is_transitive(g)
    assert len(isotropy(g, "b0")) == 3
    assert validate(g).ok


def test_gauge_groupoid_identity_cases():
    # E = G over a point gives back the group
    z4 = cyclic_group(4)
    data = PrincipalBundleData(
        tuple(z4.elements), ("pt",), {e: "pt" for e in z4.elements}, z4,
        {(z4.elements[i], z4.elements[j]): z4.elements[z4.mul(i, j)]
         for i in range(4) for j in range(4)})
    assert groupoid_isomorphic(gauge_groupoid(data),
                               group_as_groupoid(z4)) is not None
    # trivial structure group gives the pair groupoid of the base
    t = trivial_group()
    data = PrincipalBundleData(("x", "y", "z"), ("x", "y", "z"),
                               {"x": "x", "y": "y", "z": "z"}, t,
                               {(e, "e"): e for e in "xyz"})
    assert groupoid_isomorphic(gauge_groupoid(data), pair_groupoid(3)) is not None


def test_gauge_groupoid_rejects_non_principal():
    z2 = cyclic_group(2)
    data = PrincipalBundleData(("e0", "e1"), ("b",), {"e0": "b", "e1": "b"}, z2,
                               {("e0", "c0"): "e0", ("e0", "c1"): "e0",
                                ("e1", "c0"): "e1", ("e1", "c1"): "e1"})
    with pytest.raises(NotPrincipal):
        gauge_groupoid(data)


def test_groupoid_isomorphic_examples():
    g = pair_groupoid(3)
    iso = groupoid_isomorphic(g, g)
    assert iso is not None            # identity found first
    assert iso.obj_map == (0, 1, 2)
    z4 = group_as_groupoid(cyclic_group(4))
    k4 = group_as_groupoid(
        __import__("moritakit.groups", fromlist=["klein_four_group"]).klein_four_group())
    assert groupoid_isomorphic(z4, k4) is None


def test_isomorphisms_are_the_bijective_functors():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    pair2_z3 = disjoint_union(pair_groupoid(2), group_as_groupoid(z3))
    pairs = [
        # equal object and arrow counts, not isomorphic
        (bundle_of_groups({"a": z2, "b": z2}), pair_groupoid(2)),
        (group_as_groupoid(cyclic_group(4)), group_as_groupoid(klein_four_group())),
        # several orbits, summands in the other order
        (pair2_z3, disjoint_union(group_as_groupoid(z3), pair_groupoid(2))),
        (disjoint_union(pair_groupoid(2), pair_groupoid(3)),
         disjoint_union(pair_groupoid(3), pair_groupoid(2))),
    ]
    pairs += [(g, g) for _, g in corpus_groupoids() if g.n_arrows <= 9]
    for g1, g2 in pairs:
        expected = sorted((f for f in enumerate_functors(g1, g2) if f.is_bijective()),
                          key=GroupoidHom.key)
        found = groupoid_isomorphisms(g1, g2)
        assert [f.key() for f in found] == [f.key() for f in expected], (g1, g2)
        first = groupoid_isomorphic(g1, g2)
        assert (first is None) == (not expected)
        assert first is None or first.key() in {f.key() for f in expected}


def test_functor_enumeration_order_is_pinned():
    # The first biprincipal functor met in each Picard class becomes the
    # class representative, so the order is part of every Picard answer.
    z3 = cyclic_group(3)
    cases = {
        "pair4": (pair_groupoid(4), 256,
                  "e04f749023c3a0a351e60df3d5af72ff14373632624e62a0cf34204283d8d0cd"),
        "S3": (group_as_groupoid(symmetric_group(3)), 10,
               "cc552410fe06d7d24bef16ce5b3d7b42c032526595dec4e6eec65320dce2efc7"),
        "Z3 bundle over 3 points": (
            bundle_of_groups({"a": z3, "b": z3, "c": z3}), 729,
            "9b3f1f65779f835137e42842a50bce4aa7aab7abb39475886942eb30e8ffbbe6"),
        "pair2+pair3": (disjoint_union(pair_groupoid(2), pair_groupoid(3)), 455,
                        "5ddb6168ca7dc4d5035590b7f2a562cb67e459084f4dd5428bc1a53038036816"),
    }
    for name, (g, count, digest) in cases.items():
        keys = [f.key() for f in enumerate_functors(g, g)]
        assert len(keys) == count, name
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest, name


def test_decomposition_into_gauge_groupoids():
    # every corpus groupoid with <= 4 objects and <= 24 arrows is a disjoint
    # union of gauge groupoids of its isotropy data
    for name, g in corpus_groupoids():
        if g.n_objects > 4 or g.n_arrows > 24:
            continue
        pieces = []
        for block in orbits(g):
            x = block[0]
            h = isotropy(g, x)
            fiber = [g.arrows[i] for i in g.s_fiber(g.obj_index[x])]
            projection = {e: g.objects[g.tgt[g.arr_index[e]]] for e in fiber}
            action = {}
            for e in fiber:
                for a in h.elements:
                    action[(e, a)] = g.arrows[
                        g.comp[(g.arr_index[e], g.arr_index[a])]]
            data = PrincipalBundleData(tuple(fiber), tuple(block), projection,
                                       h, action)
            pieces.append(gauge_groupoid(data))
        rebuilt = disjoint_union(*pieces)
        assert groupoid_isomorphic(g, rebuilt) is not None, name


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["Z2", "Z3", "Z4", "S3"]), st.integers(2, 4), st.data())
def test_action_groupoid_orbits_match_action_orbits(gname, m, data):
    groups = {"Z2": cyclic_group(2), "Z3": cyclic_group(3),
              "Z4": cyclic_group(4), "S3": symmetric_group(3)}
    group = groups[gname]
    sm = symmetric_group(m)
    hom = data.draw(st.sampled_from(group_homomorphisms(group, sm)))
    objs = [str(i) for i in range(m)]
    act = {}
    for gi, gname_ in enumerate(group.elements):
        perm = sm.elements[hom[gi]]
        for pos, x in enumerate(objs):
            act[(gname_, x)] = objs[int(perm[pos])]
    groupoid = action_groupoid(group, objs, act)
    # orbit partition of the underlying action, computed independently
    seen, blocks = set(), []
    for x in objs:
        if x in seen:
            continue
        block = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for gname_ in group.elements:
                z = act[(gname_, y)]
                if z not in block:
                    block.add(z)
                    frontier.append(z)
        seen |= block
        blocks.append(tuple(sorted(block)))
    assert orbits(groupoid) == tuple(sorted(blocks))


def test_bundle_of_groups_has_equal_src_tgt():
    b = bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(3)})
    assert validate(b).ok
    assert all(b.src[i] == b.tgt[i] for i in range(b.n_arrows))
    assert len(isotropy(b, "a")) == 2
    assert len(isotropy(b, "b")) == 3


# ---------------------------------------------------------------------------
# validate against the plain loop, on corrupted tables

SMALL = {name: g for name, g in corpus_groupoids() if g.n_arrows <= 30}


def corruptions(g, name):
    """Every single-composite redirection to another arrow with the same
    endpoints, then a seeded sample of deletions and of entries moved to
    the transposed pair."""
    for (i, j), k in sorted(g.comp.items()):
        for k2 in g.hom(g.src[k], g.tgt[k]):
            if k2 != k:
                yield "redirect", {(i, j): k2}
    rng = random.Random(name)
    pairs = sorted(g.comp)
    for pair in rng.sample(pairs, min(10, len(pairs))):
        yield "delete", {pair: None}
    off_diagonal = [(i, j) for i, j in pairs if i != j]
    for i, j in rng.sample(off_diagonal, min(10, len(off_diagonal))):
        yield "transpose", {(j, i): g.comp[(i, j)], (i, j): g.comp.get((j, i))}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_validate_matches_the_loop_on_corrupted_tables(name):
    g = SMALL[name]
    assert validate(g).as_dict() == reference_validate(g).as_dict()
    for kind, changes in corruptions(g, name):
        bad = with_composites(g, changes)
        report = validate(bad)
        assert report.as_dict() == reference_validate(bad).as_dict(), (kind, changes)
        if kind == "redirect":  # one wrong composite is always caught
            assert not report.ok, changes


def test_isotropy_names_the_first_bad_composite():
    # row-major over the loops: an undefined composite raises with its
    # index pair, and one that is not a loop with its index
    g = bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(2)})
    a1, b0 = g.arr_index["(a:c1)"], g.arr_index["(b:c0)"]
    a0 = g.arr_index["(a:c0)"]
    with pytest.raises(KeyError) as exc:
        isotropy(with_composites(g, {(a1, a1): None}), "a")
    assert str(exc.value) == f"({a1}, {a1})"
    with pytest.raises(KeyError) as exc:
        isotropy(with_composites(g, {(a1, a0): b0, (a1, a1): None}), "a")
    assert str(exc.value) == str(b0)


def test_equality_of_loaded_copies(tmp_path):
    from moritakit.io import load_groupoid, save_groupoid

    for name, g in corpus_groupoids():
        path = tmp_path / f"{name.replace('/', '_')}.json"
        save_groupoid(g, path)
        a, b = load_groupoid(path), load_groupoid(path)
        assert a == b and a == g and not (a != b), name
        (i, j), k = next(iter(a.comp.items()))
        for k2 in range(a.n_arrows):
            if k2 != k:  # one composite differs
                changed = with_composites(a, {(i, j): k2})
                assert changed != a and a != changed, name
                break
    # the same composites given in another order
    g = pair_groupoid(3)
    doc = groupoid_to_dict(g)
    rows = list(doc["comp"])
    random.Random(3).shuffle(rows)
    assert rows != doc["comp"]
    arrows = doc["arrows"]
    copy = FiniteGroupoid(doc["objects"], [a["id"] for a in arrows],
                          {a["id"]: a["src"] for a in arrows},
                          {a["id"]: a["tgt"] for a in arrows},
                          doc["units"], doc["inv"], rows)
    assert copy == g and copy.comp == g.comp


def loaded_and_oracle(doc):
    loaded, ref = groupoid_from_dict(doc), reference_groupoid_from_dict(doc)
    assert np.array_equal(loaded._table, ref._table)
    assert loaded.comp == ref.comp
    assert validate(loaded).as_dict() == reference_validate(ref).as_dict()
    assert groupoid_to_dict(loaded) == reference_groupoid_to_dict(ref)
    return loaded


@pytest.mark.parametrize("name,g", corpus_groupoids())
def test_load_matches_the_dict_oracle(name, g):
    rng = random.Random(name)
    variants = [("as is", g)]
    if name in SMALL:
        found = list(corruptions(g, name))
        variants += [(kind, with_composites(g, changes))
                     for kind, changes in rng.sample(found, min(12, len(found)))]
    for kind, h in variants:
        doc = groupoid_to_dict(h)
        rng.shuffle(doc["comp"])
        assert loaded_and_oracle(doc) == h, kind
        if not doc["comp"]:
            continue
        # a repeated pair: the last row wins, whichever composite it names
        g_id, h_id, _ = doc["comp"][0]
        for other in (h.arrows[0], h.arrows[-1]):
            doc["comp"].insert(rng.randrange(1, len(doc["comp"]) + 1),
                               [g_id, h_id, other])
        loaded_and_oracle(doc)
