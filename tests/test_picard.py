import random

import pytest

from moritakit import picard
from moritakit.bibundles import (Bibundle, bibundle_isomorphic, from_homomorphism,
                                 identity_bibundle, morita_equivalent,
                                 orbit_permutation, principality, validate_bibundle)
from moritakit.errors import MoritaKitError, NotFunctor
from moritakit.groups import (FiniteGroup, cyclic_group, direct_product,
                              group_isomorphic, klein_four_group,
                              quaternion_group, symmetric_group, trivial_group,
                              validate_group)
from moritakit.groupoids import (GroupoidHom, _functors, bundle_of_groups,
                                 disjoint_union, enumerate_functors,
                                 group_as_groupoid, identity_hom, isotropy,
                                 pair_groupoid)
from moritakit.picard import (automorphisms, bisections, center_map,
                              ciso_bisections, inaut, inner_automorphism,
                              j_homomorphism, lemma_section_check, outaut,
                              picard_group, static_picard,
                              verify_exact_sequences)

from support import (bibundle_picard, corpus_groupoids, count_tree_walks, gauge_over,
                     picard_bundles, raw_biprincipal_classes, reference_enumerate_picard,
                     reference_lemma_section_check, relabelled_groupoid,
                     small_corpus)


def z_groupoid(n):
    return group_as_groupoid(cyclic_group(n))


# ---------------------------------------------------------------------------
# automorphisms, bisections, inner/outer

def test_automorphism_groups_of_groupoids():
    assert len(automorphisms(z_groupoid(4))) == 2
    for n in (2, 3, 4):
        aut = automorphisms(pair_groupoid(n))
        assert group_isomorphic(aut, symmetric_group(n)) is not None
    assert len(automorphisms(group_as_groupoid(trivial_group()))) == 1


def test_bisection_counts():
    assert len(bisections(z_groupoid(4))) == 4       # one-object: the group
    for n in (2, 3, 4):
        count = len(bisections(pair_groupoid(n)))
        import math
        assert count == math.factorial(n)
    b = bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(3)})
    assert len(bisections(b)) == 6                   # sections of the bundle


def test_bisections_form_a_group():
    for name, g in corpus_groupoids()[:8]:
        assert validate_group(bisections(g)).ok, name


def test_inner_automorphism_unit_bisection_is_identity():
    g = pair_groupoid(3)
    bis = bisections(g)
    units = next(b for b in bis.payload
                 if all(b.arrows[x] == g.unit[x] for x in range(g.n_objects)))
    assert inner_automorphism(g, units).key() == identity_hom(g).key()


def test_inner_automorphism_is_conjugation_on_groups():
    s3 = group_as_groupoid(symmetric_group(3))
    bis = bisections(s3)
    for b in bis.payload:
        phi = inner_automorphism(s3, b)
        a = b.arrows[0]
        for i in range(s3.n_arrows):
            expected = s3.comp[(s3.comp[(a, i)], s3.inv[a])]
            assert phi.arr_map[i] == expected


def test_inner_automorphism_of_pair_groupoid_is_conjugation_by_permutation():
    g = pair_groupoid(3)
    bis = bisections(g)
    aut_keys = {h.key() for h in automorphisms(g).payload}
    for b in bis.payload:
        phi = inner_automorphism(g, b)
        assert phi.key() in aut_keys
        # the object map is the permutation carried by the bisection
        assert phi.obj_map == tuple(g.tgt[a] for a in b.arrows)


def test_out_examples():
    assert len(outaut(group_as_groupoid(symmetric_group(3)))) == 1
    assert len(outaut(z_groupoid(4))) == 2
    for n in (2, 3):
        assert len(outaut(pair_groupoid(n))) == 1


def test_ciso_examples():
    assert len(ciso_bisections(z_groupoid(4))) == 4        # abelian: everything
    assert len(ciso_bisections(group_as_groupoid(symmetric_group(3)))) == 1
    assert len(ciso_bisections(pair_groupoid(3))) == 1     # units only
    # transitive with center: only the conjugation-invariant central sections
    assert len(ciso_bisections(gauge_over(cyclic_group(3), 2))) == 3


# ---------------------------------------------------------------------------
# Picard groups

def test_picard_specific_values():
    assert group_isomorphic(picard_group(z_groupoid(4)).as_group(),
                            cyclic_group(2)) is not None
    assert len(picard_group(group_as_groupoid(symmetric_group(3)))) == 1
    assert group_isomorphic(
        picard_group(group_as_groupoid(klein_four_group())).as_group(),
        symmetric_group(3)) is not None
    for n in (1, 2, 3, 4):
        assert len(picard_group(pair_groupoid(n))) == 1
    assert group_isomorphic(picard_group(gauge_over(cyclic_group(3), 2)).as_group(),
                            cyclic_group(2)) is not None
    assert group_isomorphic(
        picard_group(bundle_of_groups({"a": cyclic_group(2),
                                       "b": cyclic_group(3)})).as_group(),
        cyclic_group(2)) is not None


def test_picard_formula_matches_enumeration_when_applicable():
    for name, g in corpus_groupoids():
        closed = picard_group(g, "formula")
        pic = picard_group(g, "enumerate")
        assert group_isomorphic(pic.as_group(), closed.as_group()) is not None, name


def test_formula_covers_every_groupoid():
    # a disjoint union of orbits with different isotropy, a bundle with a
    # non-abelian fibre, and a bundle whose two fibres can be swapped
    s3 = symmetric_group(3)
    cases = [(disjoint_union(pair_groupoid(2), z_groupoid(3)), 2),
             (bundle_of_groups({"a": s3, "b": cyclic_group(2)}), 1),
             (bundle_of_groups({"a": s3, "b": s3}), 2)]
    for g, order in cases:
        closed = picard_group(g, "formula")
        assert closed.method == "skeleton-formula"
        assert len(closed) == order
        pic = picard_group(g, "enumerate")
        assert group_isomorphic(pic.as_group(), closed.as_group()) is not None


def test_picard_enumeration_complete_against_raw_search():
    # axiom-level search over all carrier sizes, tiny corpus
    cases = [z_groupoid(2), z_groupoid(3), z_groupoid(4),
             group_as_groupoid(klein_four_group()), pair_groupoid(2),
             bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(2)}),
             disjoint_union(group_as_groupoid(trivial_group()), pair_groupoid(2))]
    for g in cases:
        raw = raw_biprincipal_classes(g, g)
        pic = picard_group(g, "enumerate")
        assert len(raw) == len(pic)
        # every raw class matches exactly one enumerated representative
        for s in raw:
            matches = [r for r in pic.representatives
                       if len(r.carrier) == len(s.carrier)
                       and bibundle_isomorphic(r, s) is not None]
            assert len(matches) == 1


def test_equivalence_keys_are_exactly_the_biprincipal_functors():
    # A functor has a key exactly when its bibundle is biprincipal; on the
    # small corpus, its key's class holds a representative isomorphic to it.
    small = {name for name, _ in small_corpus()}
    total = 0
    for name, g in corpus_groupoids():
        key = picard._equivalence_key(g)
        pic = picard_group(g, "enumerate")
        index = {key(f): i for i, f in enumerate(pic.functors)}
        for phi in enumerate_functors(g, g):
            total += 1
            s = from_homomorphism(phi)
            k = key(phi)
            assert (k is not None) == principality(s).biprincipal, (name, phi.key())
            if k is not None and name in small:
                rep = pic.representatives[index[k]]
                assert bibundle_isomorphic(rep, s) is not None, (name, phi.key())
    assert total == 1357


def test_picard_matches_the_bibundle_route():
    z3 = cyclic_group(3)
    cases = small_corpus() + [
        ("Z3 bundle over 3 points", bundle_of_groups({"a": z3, "b": z3, "c": z3}))]
    for name, g in cases:
        table, identity, reps = bibundle_picard(g)
        pic = picard_group(g, "enumerate")
        assert pic.table == tuple(map(tuple, table)), name
        assert pic.identity == identity, name
        assert [r.carrier for r in pic.representatives] == [r.carrier for r in reps], name


def picard_oracle_cases():
    cases = corpus_groupoids() + picard_bundles()
    rng = random.Random(19)
    return cases + [(f"{name} relabelled", relabelled_groupoid(rng, g))
                    for name, g in cases]


@pytest.mark.parametrize("name, g", picard_oracle_cases())
def test_picard_matches_the_then_and_key_oracle(name, g):
    # one candidate per (root image, isotropy isomorphism), and a table
    # closed from generator columns of class keys, against every
    # endofunctor keyed and every composite of representatives keyed
    table, identity, reps = reference_enumerate_picard(g)
    pic = picard_group(g, "enumerate")
    assert pic.table == tuple(map(tuple, table))
    assert pic.identity == identity
    assert [f.key() for f in pic.functors] == [f.key() for f in reps]


def test_class_candidates_are_one_functor_per_root_image_and_isomorphism():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    cases = [(pair_groupoid(5), 5),                                   # of 3125
             (bundle_of_groups({x: z3 for x in "abc"}), 48),          # of 729
             (bundle_of_groups({f"p{i}": z2 for i in range(6)}), 720)]  # of 3 * 10^6
    for g, count in cases:
        assert sum(1 for _ in _functors(g, g, "classes")) == count


def test_picard_builds_bibundles_only_when_asked(monkeypatch):
    calls = []
    build = picard.from_homomorphism
    monkeypatch.setattr(picard, "from_homomorphism",
                        lambda phi: calls.append(phi) or build(phi))
    g = bundle_of_groups({x: cyclic_group(3) for x in "abc"})
    pic = picard_group(g, "auto")
    assert len(pic) == 48 and not calls
    assert [r.carrier for r in pic.representatives] == \
           [from_homomorphism(f).carrier for f in pic.functors]
    assert len(calls) == 48
    assert picard_group(g, "formula").representatives is None


def test_picard_of_z2_cubed_is_gl32():
    z2 = cyclic_group(2)
    g = group_as_groupoid(direct_product(direct_product(z2, z2), z2))
    pic = picard_group(g, "auto")
    assert len(pic) == 168
    assert pic.cross_checked == ("skeleton-formula",)
    profile = pic.as_group().order_profile()
    assert {k: profile.count(k) for k in set(profile)} == {1: 1, 2: 21, 3: 56,
                                                           4: 42, 7: 48}


def test_picard_tables_are_groups():
    for name, g in corpus_groupoids():
        pic = picard_group(g, "enumerate")
        assert validate_group(pic.as_group()).ok, name


def test_orbit_swap_class_exists_for_disjoint_union():
    du = disjoint_union(pair_groupoid(2), pair_groupoid(3))
    pic = picard_group(du, "enumerate")
    assert len(pic) == 2
    perms = sorted(center_map(du, r) for r in pic.representatives)
    assert perms == [(0, 1), (1, 0)]
    # the swap class cannot come from an automorphism: j is not onto here
    aut = automorphisms(du)
    hit = {j_homomorphism(du, h, pic) for h in aut.payload}
    assert hit == {pic.identity}


def test_j_homomorphism_examples():
    z4 = z_groupoid(4)
    pic = picard_group(z4, "enumerate")
    assert j_homomorphism(z4, identity_hom(z4), pic) == pic.identity
    inversion = GroupoidHom(z4, z4, (0,), tuple(z4.inv))
    assert j_homomorphism(z4, inversion, pic) != pic.identity
    # a functor that is no equivalence is in no class; a non-functor is refused
    with pytest.raises(MoritaKitError, match="does not match any enumerated class"):
        j_homomorphism(z4, GroupoidHom(z4, z4, (0,), (0, 0, 0, 0)), pic)
    with pytest.raises(NotFunctor):
        j_homomorphism(z4, GroupoidHom(z4, z4, (0,), (1, 1, 1, 1)), pic)
    # inner automorphisms land on the identity class
    s3 = group_as_groupoid(symmetric_group(3))
    pic3 = picard_group(s3, "enumerate")
    for b in bisections(s3).payload:
        phi = inner_automorphism(s3, b)
        assert j_homomorphism(s3, phi, pic3) == pic3.identity


def test_j_injective_on_outer_representatives():
    for g in [z_groupoid(4), group_as_groupoid(klein_four_group()),
              gauge_over(cyclic_group(3), 2)]:
        pic = picard_group(g, "enumerate")
        out = outaut(g)
        images = [j_homomorphism(g, rep, pic) for rep in out.payload]
        assert len(set(images)) == len(out)


def test_center_map_and_static_picard():
    g = gauge_over(cyclic_group(3), 2)  # transitive: single orbit
    pic = picard_group(g, "enumerate")
    for r in pic.representatives:
        assert center_map(g, r) == (0,)
    assert len(static_picard(g, pic)) == len(pic)

    b23 = bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(3)})
    pic23 = picard_group(b23, "enumerate")
    assert len(static_picard(b23, pic23)) == len(pic23)  # no swap possible

    b22 = bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(2)})
    pic22 = picard_group(b22, "enumerate")
    static = static_picard(b22, pic22)
    assert len(pic22) == 2 * len(static)                 # index-2 subgroup
    swap = next(r for r in pic22.representatives if center_map(b22, r) != (0, 1))
    assert center_map(b22, swap) == (1, 0)


def test_center_map_well_defined_on_classes():
    g = bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(2)})
    pic = picard_group(g, "enumerate")
    for r in pic.representatives:
        # rebuild an isomorphic copy through the identity tensor and compare
        from moritakit.bibundles import tensor
        other = tensor(identity_bibundle(g), r)
        assert bibundle_isomorphic(other, r) is not None
        assert center_map(g, other) == center_map(g, r)


def test_lemma_section_check_examples():
    z4 = z_groupoid(4)
    sigma, phi = lemma_section_check(identity_bibundle(z4))
    assert phi.key() == identity_hom(z4).key()
    assert sigma == {"pt": "c0"}

    inversion = GroupoidHom(z4, z4, (0,), tuple(z4.inv))
    sigma, phi = lemma_section_check(from_homomorphism(inversion))
    assert phi.key() == inversion.key()

    # group bitorsors always reduce to an automorphism
    k4 = group_as_groupoid(klein_four_group())
    for r in picard_group(k4, "enumerate").representatives:
        assert lemma_section_check(r) is not None

    # the orbit-swapping class admits no section: j is not onto
    du = disjoint_union(pair_groupoid(2), pair_groupoid(3))
    pic = picard_group(du, "enumerate")
    swap = next(r for r in pic.representatives if center_map(du, r) != (0, 1))
    assert lemma_section_check(swap) is None


def test_lemma_section_check_on_an_action_undefined_on_its_domain():
    # Z4 on two points with every non-unit arrow swapping them: no fixed
    # point, so principality passes.  c3 is undefined at a on both sides,
    # so the section meets an undefined right action (the dict lookup's
    # KeyError), which no undefined left action may match.
    z4 = z_groupoid(4)
    (o,), (c0, c1, c2, c3) = z4.objects, z4.arrows
    act = {(c0, "a"): "a", (c0, "b"): "b"}
    act.update({(c, p): q for c in (c1, c2, c3) for p, q in (("a", "b"), ("b", "a"))})
    del act[(c3, "a")]
    s = Bibundle(z4, z4, ["a", "b"], {"a": o, "b": o}, {"a": o, "b": o}, act,
                 {(x, c): y for (c, x), y in act.items()})
    assert principality(s).biprincipal and not validate_bibundle(s).ok
    with pytest.raises(KeyError):
        reference_lemma_section_check(s)
    with pytest.raises(MoritaKitError, match="not transitive"):
        lemma_section_check(s)


def test_lemma_reduction_is_isomorphism():
    g = gauge_over(cyclic_group(3), 2)
    for r in picard_group(g, "enumerate").representatives:
        result = lemma_section_check(r)
        assert result is not None
        _, phi = result
        assert bibundle_isomorphic(from_homomorphism(phi), r) is not None


# ---------------------------------------------------------------------------
# exact sequences and Morita invariance

def test_verify_exact_sequences_examples():
    for g, inaut_order in [(z_groupoid(4), 1),
                           (group_as_groupoid(symmetric_group(3)), 6),
                           (pair_groupoid(3), 6)]:
        report = verify_exact_sequences(g)
        assert report.ok
        assert report.orders["inaut"] == inaut_order
    report = verify_exact_sequences(pair_groupoid(3))
    assert report.orders["pic"] == 1
    assert report.orders["aut"] == report.orders["inaut"]


def test_verify_exact_builds_the_class_keys_once(monkeypatch):
    # once for the enumeration, once for j over all 24 automorphisms of Q8
    calls = []
    key = picard._equivalence_key
    monkeypatch.setattr(picard, "_equivalence_key",
                        lambda g: calls.append(g) or key(g))
    assert verify_exact_sequences(group_as_groupoid(quaternion_group())).ok
    assert len(calls) <= 2


def test_j_homomorphism_checked_on_every_automorphism_pair(monkeypatch):
    # Aut(Q8) has 24 elements; corrupt one Pic product whose factors are
    # hit by j only from automorphisms with index >= 8.
    g = group_as_groupoid(quaternion_group())
    aut = automorphisms(g)
    pic = picard_group(g, "enumerate")
    j_of = [j_homomorphism(g, h, pic) for h in aut.payload]
    late = next(c for c in range(len(pic)) if c in j_of and j_of.index(c) >= 8)
    table = [list(row) for row in pic.table]
    table[late][late] = (table[late][late] + 1) % len(pic)
    broken = picard.PicardGroup(pic.elements, table, pic.method, pic.functors)
    monkeypatch.setattr(picard, "picard_group", lambda g, method="auto": broken)
    check = verify_exact_sequences(g).checks["j-homomorphism"]
    expected = [(aut.elements[i], aut.elements[j])
                for i in range(len(aut)) for j in range(len(aut))
                if j_of[i] == j_of[j] == late]
    assert not check["ok"]
    assert check["witnesses"] == expected


def test_bisection_sequence_checked_on_every_bisection_pair(monkeypatch):
    # Bis(pair(3)) is S3 and sliding is injective, so redirecting one
    # product to another non-identity bisection breaks exactly that pair.
    g = pair_groupoid(3)
    bis = bisections(g)
    i = j = len(bis) - 1
    table = [list(row) for row in bis.table]
    table[i][j] = next(v for v in range(len(bis))
                       if v not in (bis.identity, table[i][j]))
    broken = FiniteGroup(bis.elements, table, bis.payload)
    monkeypatch.setattr(picard, "bisections", lambda g: broken)
    check = verify_exact_sequences(g).checks["bisection-sequence"]
    assert not check["ok"]
    assert check["witnesses"] == [(bis.elements[i], bis.elements[j])]


def test_verify_exact_builds_bisections_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return bisections(g)

    monkeypatch.setattr(picard, "bisections", counted)
    assert verify_exact_sequences(group_as_groupoid(quaternion_group())).ok
    assert len(calls) == 1


def test_verify_exact_slides_each_bisection_once(monkeypatch):
    calls = []

    def counted(g, n):
        calls.append(n)
        return inner_automorphism(g, n)

    monkeypatch.setattr(picard, "inner_automorphism", counted)
    assert verify_exact_sequences(group_as_groupoid(quaternion_group())).ok
    assert len(calls) == 8  # |Bis(Q8)|


def test_exactness_orders_multiply():
    for name, g in corpus_groupoids()[:10]:
        report = verify_exact_sequences(g)
        assert report.ok, (name, report.as_dict())
        assert (report.orders["bis"]
                == report.orders["ciso"] * report.orders["inaut"]), name
        assert (report.orders["aut"]
                == report.orders["inaut"] * report.orders["outaut"]), name


def test_picard_is_morita_invariant():
    pairs = [(gauge_over(cyclic_group(3), 2), z_groupoid(3)),
             (pair_groupoid(3), group_as_groupoid(trivial_group())),
             (gauge_over(cyclic_group(2), 3), z_groupoid(2))]
    for g1, g2 in pairs:
        assert morita_equivalent(g1, g2) is not None
        p1 = picard_group(g1, "enumerate").as_group()
        p2 = picard_group(g2, "enumerate").as_group()
        assert group_isomorphic(p1, p2) is not None


def test_gauge_groupoid_orders_match_closed_forms():
    # for the gauge groupoid of a trivial bundle with fibre H over k points:
    # |Bis| = k! |H|^k, |CIso| = |Z(H)|, |Aut| = k! |Aut(H)| |H|^(k-1),
    # |Pic| = |Out(H)|
    import math
    from moritakit.groups import automorphism_group

    cases = [(cyclic_group(3), 2), (cyclic_group(2), 3), (cyclic_group(4), 2)]
    for h, k in cases:
        g = gauge_over(h, k)
        rep = verify_exact_sequences(g)
        assert rep.ok
        assert rep.orders["bis"] == math.factorial(k) * len(h) ** k
        assert rep.orders["ciso"] == len(h.center())
        assert rep.orders["aut"] == (math.factorial(k)
                                     * len(automorphism_group(h))
                                     * len(h) ** (k - 1))
        from moritakit.groups import outer_automorphism_group
        assert rep.orders["pic"] == len(outer_automorphism_group(h))


def test_picard_enumeration_is_deterministic():
    for name, g in [("gaugeZ3/2", gauge_over(cyclic_group(3), 2)),
                    ("K4", group_as_groupoid(klein_four_group()))]:
        a = picard_group(g, "enumerate")
        b = picard_group(g, "enumerate")
        assert a.elements == b.elements and a.table == b.table, name
        assert [r.carrier for r in a.representatives] == \
               [r.carrier for r in b.representatives], name
        for ra, rb in zip(a.representatives, b.representatives):
            assert ra.left_act == rb.left_act and ra.right_act == rb.right_act


def test_lemma_section_coverage_matches_j_surjectivity():
    # a class reduces to an automorphism exactly when it is hit by j
    for name, g in [("Z4", z_groupoid(4)),
                    ("bundleZ2Z2", bundle_of_groups({"a": cyclic_group(2),
                                                     "b": cyclic_group(2)})),
                    ("pair2+pair3", disjoint_union(pair_groupoid(2),
                                                   pair_groupoid(3)))]:
        pic = picard_group(g, "enumerate")
        hit = {j_homomorphism(g, h, pic) for h in automorphisms(g).payload}
        for idx, rep in enumerate(pic.representatives):
            result = lemma_section_check(rep)
            assert (result is not None) == (idx in hit), (name, idx)
            if result is not None:
                _, phi = result
                assert bibundle_isomorphic(from_homomorphism(phi), rep) is not None


def test_outer_of_isotropy_canonically_isomorphic_across_objects():
    from moritakit.groups import outer_automorphism_group

    for g in [gauge_over(cyclic_group(3), 2), gauge_over(cyclic_group(4), 2)]:
        outs = [outer_automorphism_group(isotropy(g, x)) for x in g.objects]
        for other in outs[1:]:
            assert group_isomorphic(outs[0], other) is not None


@pytest.mark.parametrize("name, g", corpus_groupoids() + picard_bundles())
def test_orbit_map_of_each_class_functor_is_its_bibundles_orbit_permutation(name, g):
    # check (c) of verify-exact and static_picard read sigma off the class
    # functors' object maps, with no bibundle built
    for f in picard_group(g, "enumerate").functors:
        assert (picard._orbit_permutation(f)
                == orbit_permutation(from_homomorphism(f))), (name, f.key())


def test_verify_exact_walks_the_spanning_trees_once(monkeypatch):
    # Aut, the class candidates, the class keys and j all read the trees
    # that the groupoid walks on first use
    walks = count_tree_walks(monkeypatch)
    g = disjoint_union(pair_groupoid(2), z_groupoid(3), pair_groupoid(3))
    report = verify_exact_sequences(g)
    assert report.ok and report.orders["pic"] == 4
    assert len(walks) == 1 and walks[0] is g


def test_verify_exact_builds_no_bibundle(monkeypatch):
    def built(hom):
        raise AssertionError("a class bibundle was built")

    monkeypatch.setattr(picard, "from_homomorphism", built)
    for g in (z_groupoid(4), bundle_of_groups({"a": cyclic_group(2), "b": cyclic_group(2)}),
              disjoint_union(pair_groupoid(2), pair_groupoid(3))):
        assert verify_exact_sequences(g).ok
        assert len(static_picard(g)) >= 1
