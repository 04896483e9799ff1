from math import gcd

from moritakit.groups import (FiniteGroup, automorphism_group, cyclic_group,
                              dihedral_group, direct_product, group_homomorphisms,
                              group_isomorphic, group_isomorphisms,
                              inner_automorphism_group, klein_four_group,
                              outer_automorphism_group, quaternion_group,
                              quotient_group, subgroup, symmetric_group,
                              trivial_group, validate_group)


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
