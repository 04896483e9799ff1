import copy
import random

import pytest

from moritakit.bibundles import (Bibundle, bibundle_isomorphic, from_homomorphism,
                                 identity_bibundle, induced_orbit_map,
                                 morita_equivalent, principality, tensor,
                                 validate_bibundle)
from moritakit.errors import (InvalidBibundle, MiddleMismatch, NotFunctor,
                              NotLeftPrincipal)
from moritakit.groups import (cyclic_group, klein_four_group, symmetric_group,
                              trivial_group)
from moritakit.groupoids import (FiniteGroupoid, GroupoidHom, disjoint_union,
                                 group_as_groupoid, isotropy, orbits,
                                 pair_groupoid)
from moritakit.io import bibundle_from_dict, bibundle_to_dict
from moritakit.picard import lemma_section_check

from support import (composable_pairs, corpus_factors, corpus_groupoids,
                     equiv_morita_pairs, gauge_over, raw_morita_exists,
                     random_functor, reference_bibundle_from_dict,
                     reference_bibundle_isomorphic, reference_from_homomorphism,
                     reference_identity_bibundle, reference_lemma_section_check,
                     reference_morita_equivalent, reference_principality,
                     reference_tensor, reference_validate_bibundle,
                     relabelled_groupoid, same_bibundle, with_composites)


def z_groupoid(n):
    return group_as_groupoid(cyclic_group(n))


def inversion_hom(g):
    return GroupoidHom(g, g, tuple(range(g.n_objects)), tuple(g.inv))


def test_identity_bibundle_is_biprincipal_everywhere():
    for name, g in corpus_groupoids():
        s = identity_bibundle(g)
        assert validate_bibundle(s).ok, name
        assert principality(s).biprincipal, name


def test_identity_bibundle_sizes():
    assert len(identity_bibundle(z_groupoid(2)).carrier) == 2
    assert len(identity_bibundle(pair_groupoid(2)).carrier) == 4


def test_validate_reports_broken_equivariance():
    g = z_groupoid(2)
    s = identity_bibundle(g)
    j1, j2, left_act, right_act = s.as_dicts()
    # redirect one left action value onto the wrong point
    left_act[("c1", "c0")] = "c0"
    from moritakit.bibundles import Bibundle
    bad = Bibundle(g, g, s.carrier, j1, j2, left_act, right_act)
    report = validate_bibundle(bad)
    assert not report.ok
    assert any("left" in v.rule or "commutation" in v.rule
               for v in report.violations)


def test_from_homomorphism_validates():
    for name, g in corpus_groupoids()[:6]:
        hom = inversion_hom(g)
        if not hom.is_functor():
            continue
        s = from_homomorphism(hom)
        assert validate_bibundle(s).ok, name


def test_from_homomorphism_rejects_non_functor():
    g = z_groupoid(4)
    broken = GroupoidHom(g, g, (0,), (0, 2, 1, 3))
    with pytest.raises(NotFunctor):
        from_homomorphism(broken)


def test_from_homomorphism_identity_is_identity_bibundle():
    g = pair_groupoid(2)
    ident = GroupoidHom(g, g, tuple(range(g.n_objects)), tuple(range(g.n_arrows)))
    s = from_homomorphism(ident)
    assert bibundle_isomorphic(s, identity_bibundle(g)) is not None


def test_z2_into_z4_left_but_not_right_principal():
    z2, z4 = z_groupoid(2), z_groupoid(4)
    phi = GroupoidHom(z2, z4, (0,), (0, 2))  # generator to the square
    s = from_homomorphism(phi)
    report = principality(s)
    assert report.left_principal
    assert not report.right_principal
    assert "right-transitivity" in report.witnesses


def test_automorphism_gives_biprincipal():
    z4 = z_groupoid(4)
    s = from_homomorphism(inversion_hom(z4))
    assert principality(s).biprincipal


def test_tensor_preconditions():
    z2, z3 = z_groupoid(2), z_groupoid(3)
    with pytest.raises(MiddleMismatch):
        tensor(identity_bibundle(z2), identity_bibundle(z3))
    # a non-left-principal factor is refused
    z4 = z_groupoid(4)
    phi = GroupoidHom(z2, z4, (0,), (0, 2))
    s = from_homomorphism(phi)
    flipped = _flip(s)  # (z2, z4): right- but not left-principal
    with pytest.raises(NotLeftPrincipal):
        tensor(flipped, identity_bibundle(z4))


def _flip(s):
    """Opposite bibundle: swap the two sides through the inverses."""
    from moritakit.bibundles import Bibundle
    j1, j2, left_act, right_act = s.as_dicts()
    new_left = {}
    for (x, g), y in right_act.items():
        gi = s.right.arrows[s.right.inv[s.right.arr_index[g]]]
        new_left[(gi, x)] = y
    new_right = {}
    for (g, x), y in left_act.items():
        gi = s.left.arrows[s.left.inv[s.left.arr_index[g]]]
        new_right[(x, gi)] = y
    return Bibundle(s.right, s.left, s.carrier, j2, j1, new_left, new_right)


def test_tensor_unit_laws():
    z4 = z_groupoid(4)
    s = from_homomorphism(inversion_hom(z4))
    i = identity_bibundle(z4)
    assert bibundle_isomorphic(tensor(i, s), s) is not None
    assert bibundle_isomorphic(tensor(s, i), s) is not None


def test_tensor_of_automorphisms_composes():
    z4 = z_groupoid(4)
    ident = GroupoidHom(z4, z4, (0,), tuple(range(4)))
    inv = inversion_hom(z4)
    s_id, s_inv = from_homomorphism(ident), from_homomorphism(inv)
    # the two Z4 automorphisms compose: inv . inv = id
    assert bibundle_isomorphic(tensor(s_inv, s_inv), s_id) is not None
    assert bibundle_isomorphic(s_inv, s_id) is None


def test_functoriality_on_sampled_pairs():
    rng = random.Random(7)
    pool = [z_groupoid(2), z_groupoid(3), z_groupoid(4), pair_groupoid(2),
            group_as_groupoid(klein_four_group())]
    for _ in range(8):
        g1, g2, g3 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        phi = random_functor(rng, g2, g1)
        psi = random_functor(rng, g3, g2)
        lhs = tensor(from_homomorphism(phi), from_homomorphism(psi))
        rhs = from_homomorphism(psi.then(phi))
        assert bibundle_isomorphic(lhs, rhs) is not None


def test_induced_orbit_map_examples():
    g = pair_groupoid(3)
    assert induced_orbit_map(identity_bibundle(g)) == {("1", "2", "3"): ("1", "2", "3")}
    w = morita_equivalent(gauge_over(cyclic_group(3), 2), z_groupoid(3))
    assert induced_orbit_map(w) == {("pt",): ("b0", "b1")}
    du1 = disjoint_union(pair_groupoid(2), z_groupoid(3))
    m = induced_orbit_map(identity_bibundle(du1))
    assert len(m) == 2
    for block, image in m.items():
        assert block == image


def test_orbit_map_of_tensor_composes():
    g1 = gauge_over(cyclic_group(3), 2)
    g2 = z_groupoid(3)
    w = morita_equivalent(g1, g2)           # (g1, g2)
    back = morita_equivalent(g2, g1)        # (g2, g1)
    both = tensor(w, back)                  # (g1, g1)
    composed = induced_orbit_map(both)
    m1, m2 = induced_orbit_map(w), induced_orbit_map(back)
    expected = {block: m1[m2[block]] for block in m2}
    assert composed == expected


def test_morita_equivalent_positive_cases():
    w = morita_equivalent(gauge_over(cyclic_group(3), 2), z_groupoid(3))
    assert w is not None
    assert len(w.carrier) == 6
    assert validate_bibundle(w).ok
    assert principality(w).biprincipal

    w2 = morita_equivalent(pair_groupoid(3), group_as_groupoid(trivial_group()))
    assert w2 is not None and principality(w2).biprincipal


def test_morita_equivalent_negative_case():
    assert morita_equivalent(z_groupoid(4),
                             group_as_groupoid(klein_four_group())) is None


def test_morita_decision_against_raw_search():
    # decision procedure vs the axiom-level exhaustive search; the largest
    # case has 12 arrows on one side
    cases = [
        (z_groupoid(2), z_groupoid(2), True),
        (z_groupoid(2), z_groupoid(3), False),
        (z_groupoid(4), group_as_groupoid(klein_four_group()), False),
        (pair_groupoid(2), group_as_groupoid(trivial_group()), True),
        (pair_groupoid(2), pair_groupoid(3), True),
        (disjoint_union(z_groupoid(2), z_groupoid(2)), pair_groupoid(2), False),
        (gauge_over(cyclic_group(3), 2), z_groupoid(3), True),
    ]
    for g1, g2, expected in cases:
        assert (morita_equivalent(g1, g2) is not None) == expected
        assert raw_morita_exists(g1, g2) == expected


def test_isomorphism_witness_is_equivariant():
    z4 = z_groupoid(4)
    i = identity_bibundle(z4)
    s = from_homomorphism(GroupoidHom(z4, z4, (0,), tuple(range(4))))
    mapping = bibundle_isomorphic(s, i)
    assert mapping is not None
    assert sorted(mapping.values()) == sorted(i.carrier)
    sj1, sj2, sl, sr = s.as_dicts()
    ij1, ij2, il, ir = i.as_dicts()
    for x in s.carrier:
        assert sj1[x] == ij1[mapping[x]] and sj2[x] == ij2[mapping[x]]
    for (g, x), y in sl.items():
        assert il[(g, mapping[x])] == mapping[y]
    for (x, g), y in sr.items():
        assert ir[(mapping[x], g)] == mapping[y]


def test_tensor_of_biprincipal_is_biprincipal():
    g1, g2 = gauge_over(cyclic_group(3), 2), z_groupoid(3)
    w = morita_equivalent(g1, g2)          # (g1, g2)
    back = morita_equivalent(g2, g1)       # (g2, g1)
    prod = tensor(w, back)
    assert principality(prod).biprincipal
    assert bibundle_isomorphic(prod, identity_bibundle(g1)) is not None


def test_gauge_bundle_total_space_is_a_morita_bibundle():
    # the total space of a principal bundle, between its gauge groupoid and
    # its structure group, with the projection and the moment as moments
    from moritakit.bibundles import Bibundle
    from moritakit.groupoids import PrincipalBundleData, gauge_groupoid

    group = cyclic_group(3)
    k = len(group)
    total = [f"e{i}" for i in range(2 * k)]
    projection = {f"e{i}": f"b{i // k}" for i in range(2 * k)}
    action = {}
    for i in range(2 * k):
        base = (i // k) * k
        for j, gname in enumerate(group.elements):
            action[(f"e{i}", gname)] = f"e{base + group.mul(i - base, j)}"
    data = PrincipalBundleData(tuple(total), ("b0", "b1"), projection, group,
                               action)
    gg = gauge_groupoid(data)
    right = group_as_groupoid(group)

    def rep_of(x, y):
        return min((action[(x, a)], action[(y, a)]) for a in group.elements)

    left_act = {}
    for i, a in enumerate(gg.arrows):
        x, y = a[1:-1].split(",")
        for z in total:
            if projection[z] == gg.objects[gg.src[i]]:
                # slide the representative so its source leg hits z
                mover = next(m for m in group.elements
                             if action[(y, m)] == z)
                left_act[(a, z)] = action[(x, mover)]
    right_act = {(e, g): action[(e, g)] for e in total for g in group.elements}
    bib = Bibundle(gg, right, total,
                   {e: projection[e] for e in total},
                   {e: "pt" for e in total},
                   left_act, right_act)
    assert validate_bibundle(bib).ok
    assert principality(bib).biprincipal


def test_morita_invariants_of_equivalence():
    # equal orbit counts and isotropy isomorphism-class multisets
    pairs = [(gauge_over(cyclic_group(3), 2), z_groupoid(3)),
             (pair_groupoid(4), group_as_groupoid(trivial_group()))]
    for g1, g2 in pairs:
        assert morita_equivalent(g1, g2) is not None
        b1, b2 = orbits(g1), orbits(g2)
        assert len(b1) == len(b2)
        isos1 = sorted(isotropy(g1, b[0]).order_profile() for b in b1)
        isos2 = sorted(isotropy(g2, b[0]).order_profile() for b in b2)
        assert isos1 == isos2


def test_tensor_associativity_sampled():
    rng = random.Random(21)
    pool = [z_groupoid(2), z_groupoid(3), pair_groupoid(2)]
    for _ in range(6):
        g1, g2, g3, g4 = (rng.choice(pool) for _ in range(4))
        s = from_homomorphism(random_functor(rng, g2, g1))
        t = from_homomorphism(random_functor(rng, g3, g2))
        u = from_homomorphism(random_functor(rng, g4, g3))
        left = tensor(tensor(s, t), u)
        right = tensor(s, tensor(t, u))
        assert bibundle_isomorphic(left, right) is not None


# ---------------------------------------------------------------------------
# array kernels against the plain loops

def loop_form(s):
    """Everything that defines a bibundle, actions in insertion order."""
    return (s.left, s.right, s.carrier, s.car_index, s.j1, s.j2,
            list(s.left_act.items()), list(s.right_act.items()))


def same_principality(s):
    got, want = principality(s), reference_principality(s)
    return got == want and list(got.witnesses.items()) == list(want.witnesses.items())


def outcome(f, *args):
    """The value of f(*args) in loop form, or its exception's type and args."""
    try:
        return loop_form(f(*args))
    except Exception as exc:  # compared between the kernel and the loop
        return type(exc), exc.args


@pytest.fixture(scope="module")
def factors():
    return corpus_factors()


def test_validate_and_principality_match_the_loops(factors):
    products = [(name, tensor(s, t)) for name, s, t in composable_pairs(factors)]
    assert len(factors) > 80 and len(products) > 250
    for name, s in factors + products:
        report = validate_bibundle(s)
        assert report.as_dict() == reference_validate_bibundle(s).as_dict(), name
        assert report.ok, name
        assert same_principality(s), name


def test_tensor_matches_the_loop(factors):
    for name, s, t in composable_pairs(factors):
        assert loop_form(tensor(s, t)) == loop_form(reference_tensor(s, t)), name
    # a 96-point witness between gauge_over(S4, 4) and S4, then S4's identity
    s4 = group_as_groupoid(symmetric_group(4))
    w, i = morita_equivalent(gauge_over(symmetric_group(4), 4), s4), identity_bibundle(s4)
    assert len(w.carrier) == 96
    assert loop_form(tensor(w, i)) == loop_form(reference_tensor(w, i))



def test_tensor_sorts_the_carrier_by_id():
    # ids "p", "p)", ..., "p)))))": "[p*p)]" sorts before "[p*p]", so the
    # carrier order is not the order of the representative pairs
    g = group_as_groupoid(symmetric_group(3))
    s = identity_bibundle(g)
    rename = {x: "p" + ")" * i for i, x in enumerate(s.carrier)}
    j1, j2, left_act, right_act = s.as_dicts()
    r = Bibundle(g, g, rename.values(), {rename[x]: o for x, o in j1.items()},
                 {rename[x]: o for x, o in j2.items()},
                 {(a, rename[x]): rename[y] for (a, x), y in left_act.items()},
                 {(rename[x], a): rename[y] for (x, a), y in right_act.items()})
    for pair in ((r, s), (s, r), (r, r)):
        product = tensor(*pair)
        assert loop_form(product) == loop_form(reference_tensor(*pair))
    assert product.carrier[0] == "[p*p)))))]"


def test_principality_matches_the_loop_on_functor_bibundles():
    # bibundles of arbitrary functors: left principal, and right principal
    # only for equivalences, with failures in several fibres at once
    rng = random.Random(9)
    pool = [g for _, g in corpus_groupoids() if g.n_arrows <= 9]
    for _ in range(40):
        source, target = rng.choice(pool), rng.choice(pool)
        s = from_homomorphism(random_functor(rng, source, target))
        assert same_principality(s)
        assert validate_bibundle(s).as_dict() == reference_validate_bibundle(s).as_dict()


def with_action(s, *changes):
    """A copy of s with action entries (index form) sent to other points.

    Each change is ``(side, key, image)``.
    """
    j1, j2, left_act, right_act = s.as_dicts()
    for side, key, image in changes:
        if side == "left":
            left_act[(s.left.arrows[key[0]], s.carrier[key[1]])] = s.carrier[image]
        else:
            right_act[(s.carrier[key[0]], s.right.arrows[key[1]])] = s.carrier[image]
    return Bibundle(s.left, s.right, s.carrier, j1, j2, left_act, right_act)


def redirections(s):
    """Every action entry sent to each other point with the moments of its
    image, or to the next point where there is none."""
    n = len(s.carrier)
    for side, act in (("left", s.left_act), ("right", s.right_act)):
        for key, y in act.items():
            same = [z for z in range(n) if z != y
                    and (s.j1[z], s.j2[z]) == (s.j1[y], s.j2[y])]
            for z in same or [(y + 1) % n]:
                yield side, key, z


SMALL = {name: g for name, g in corpus_groupoids() if g.n_arrows <= 30}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_redirected_actions_match_the_loops(name):
    s = identity_bibundle(SMALL[name])
    faults = list(redirections(s)) if len(s.carrier) > 1 else []
    assert len(faults) >= len(s.left_act) + len(s.right_act) or len(s.carrier) == 1
    for fault in faults:
        bad = with_action(s, fault)
        report = validate_bibundle(bad)
        assert report.as_dict() == reference_validate_bibundle(bad).as_dict(), fault
        assert not report.ok, fault  # one wrong entry is always caught
        assert same_principality(bad), fault


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tensor_of_redirected_actions_matches_the_loop(name):
    # malformed factors, with one or two wrong entries, in either position:
    # tensor refuses the factor with its position and the loop's report.
    # Two redirections can make a valid action (Z2's generator acting
    # trivially); then the outcome is the loop's.
    s = identity_bibundle(SMALL[name])
    faults = list(redirections(s)) if len(s.carrier) > 1 else []
    sample = random.Random(name).sample(faults, min(12, len(faults)))
    for changes in [(f,) for f in sample] + list(zip(sample, sample[1:])):
        bad = with_action(s, *changes)
        want = reference_validate_bibundle(bad).as_dict()
        for factor, pair in enumerate(((bad, s), (s, bad))):
            if want["ok"]:
                assert outcome(tensor, *pair) == outcome(reference_tensor, *pair), changes
                continue
            with pytest.raises(InvalidBibundle) as caught:
                tensor(*pair)
            assert caught.value.factor == factor, changes
            assert caught.value.report.as_dict() == want, changes


def relabelled(s, rng):
    """s with its carrier ids permuted at random: isomorphic, not equal."""
    ids = list(s.carrier)
    rng.shuffle(ids)
    rename = dict(zip(s.carrier, ids))
    j1, j2, left_act, right_act = s.as_dicts()
    return Bibundle(s.left, s.right, ids, {rename[x]: o for x, o in j1.items()},
                    {rename[x]: o for x, o in j2.items()},
                    {(a, rename[x]): rename[y] for (a, x), y in left_act.items()},
                    {(rename[x], a): rename[y] for (x, a), y in right_act.items()})


def test_bibundle_isomorphic_matches_the_matcher(factors):
    # corpus pairs over the same groupoids (None and mappings), relabelled
    # copies (a mapping other than the identity), and identity bibundles
    # against copies with one action entry redirected (non-isomorphic)
    rng = random.Random(12)
    pairs = [(f"{a} ~ {b}", s, t) for a, s in factors for b, t in factors
             if s.left == t.left and s.right == t.right]
    pairs += [(f"{a} ~ relabelled", s, relabelled(s, rng)) for a, s in factors]
    for name, g in sorted(SMALL.items()):
        s = identity_bibundle(g)
        faults = list(redirections(s)) if len(s.carrier) > 1 else []
        for fault in rng.sample(faults, min(3, len(faults))):
            pairs += [(f"{name} {fault}", s, with_action(s, fault)),
                      (f"{fault} {name}", with_action(s, fault), s)]
    # Z2 on two points, freely and trivially: an equivariant map exists only
    # by sending both points to one.  Then an action whose point b is
    # reached from a by no arrow, against itself: not an isomorphism to
    # the matcher, which maps what propagation from a reaches.
    z2, pt = group_as_groupoid(cyclic_group(2)), pair_groupoid(1)
    (o,), (u,) = pt.objects, pt.arrows
    (e, g), (x,) = z2.arrows, z2.objects

    def z2_set(act):
        return Bibundle(z2, pt, ["a", "b"], {"a": x, "b": x}, {"a": o, "b": o},
                        act, {("a", u): "a", ("b", u): "b"})

    free = z2_set({(e, "a"): "a", (e, "b"): "b", (g, "a"): "b", (g, "b"): "a"})
    trivial = z2_set({(e, "a"): "a", (e, "b"): "b", (g, "a"): "a", (g, "b"): "b"})
    one_way = z2_set({(e, "a"): "a", (e, "b"): "b", (g, "a"): "a", (g, "b"): "a"})
    pairs += [("free ~ trivial", free, trivial), ("trivial ~ free", trivial, free),
              ("one way", one_way, one_way)]
    found = [bibundle_isomorphic(s, t) for _, s, t in pairs]
    assert found == [reference_bibundle_isomorphic(s, t) for _, s, t in pairs]
    assert found[-3:] == [None, None, None]
    assert sum(m is None for m in found) > 100
    assert sum(m is not None and any(x != y for x, y in m.items()) for m in found) > 80
    # one entry moved off the action's domain: as many rows, and the copy
    # undefined at a pair where the original is defined (the matcher's
    # lookup fails there)
    pair2 = pair_groupoid(2)
    s = identity_bibundle(pair2)
    j1, j2, left_act, right_act = s.as_dicts()
    left_act[("(1,2)", "(1,1)")] = left_act.pop(("(2,1)", "(1,1)"))
    moved = Bibundle(pair2, pair2, s.carrier, j1, j2, left_act, right_act)
    assert bibundle_isomorphic(s, moved) is None and bibundle_isomorphic(moved, s) is None

def test_tensor_refuses_a_partial_action():
    # Z3 on {x, y}, c1 and c2 both swapping, (c2, x) undefined: still left
    # principal.  The second factor lacks its only right action entry.  The
    # loop meets a missing key; tensor refuses the first factor.
    z3, pt = group_as_groupoid(cyclic_group(3)), pair_groupoid(1)
    (o,), (u,) = pt.objects, pt.arrows
    s = Bibundle(z3, pt, ["x", "y"], {"x": "pt", "y": "pt"}, {"x": o, "y": o},
                 {("c0", "x"): "x", ("c0", "y"): "y", ("c1", "x"): "y",
                  ("c1", "y"): "x", ("c2", "y"): "x"},
                 {("x", u): "x", ("y", u): "y"})
    s2 = Bibundle(pt, pt, ["u"], {"u": o}, {"u": o}, {(u, "u"): "u"}, {})
    assert principality(s).left_principal and principality(s2).left_principal
    assert outcome(reference_tensor, s, s2) == (KeyError, ((2, 0),))
    with pytest.raises(InvalidBibundle) as caught:
        tensor(s, s2)
    assert caught.value.factor == 0
    assert caught.value.report.as_dict() == reference_validate_bibundle(s).as_dict()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_kernels_match_the_loops_over_a_deleted_composite(name):
    # the identity bibundle's actions over a copy of the groupoid that lacks
    # one composite: associativity skips the missing composite, as the loop does
    g = SMALL[name]
    s = identity_bibundle(g)
    j1, j2, left_act, right_act = s.as_dicts()
    for pair in random.Random(name).sample(sorted(g.comp), min(8, len(g.comp))):
        broken = with_composites(g, {pair: None})
        for left, right in ((broken, g), (g, broken)):
            bad = Bibundle(left, right, s.carrier, j1, j2, left_act, right_act)
            assert (validate_bibundle(bad).as_dict()
                    == reference_validate_bibundle(bad).as_dict()), pair
            assert same_principality(bad), pair


def test_morita_witness_matches_the_orbit_loop():
    empty = FiniteGroupoid([], [], {}, {}, {}, {}, {})
    pairs = [(f"{a}~{b}", g, h) for a, g in corpus_groupoids()
             for b, h in corpus_groupoids()] + equiv_morita_pairs()
    pairs.append(("empty", empty, empty))
    found = 0
    for name, g, h in pairs:
        w, ref = morita_equivalent(g, h), reference_morita_equivalent(g, h)
        assert (w is None) == (ref is None), name
        if w is not None:
            assert same_bibundle(w, ref), name
            found += 1
    assert found == 42


ORBIT_GROUPS = (trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
                klein_four_group(), symmetric_group(3))


def test_morita_pairing_on_random_unions_of_gauge_orbits():
    # A Morita class forgets orbit sizes and orbit order, so the second
    # groupoid takes the first one's isotropy groups, shuffled, over fresh
    # orbit sizes.  Every other pair is a near miss: one orbit's group is
    # swapped for another, so two class counts are off by one.  Half the
    # pairs are two one-object orbits over trivial, Z2 or Z3, small enough
    # for the raw search when both have at most 8 arrows in all.
    rng = random.Random(26)
    raw = 0
    for trial in range(64):
        small, near_miss = trial % 4 < 2, trial % 2 == 1
        n_groups = 3 if small else len(ORBIT_GROUPS)
        kinds = [rng.randrange(n_groups) for _ in range(2 if small else rng.randint(2, 6))]
        other = rng.sample(kinds, len(kinds))
        if near_miss:
            i = rng.randrange(len(other))
            other[i] = rng.choice([k for k in range(n_groups) if k != other[i]])
        g1, g2 = (relabelled_groupoid(rng, disjoint_union(*(
            gauge_over(ORBIT_GROUPS[k], 1 if small else rng.randint(1, 3)) for k in ks)))
            for ks in (kinds, other))
        w, ref = morita_equivalent(g1, g2), reference_morita_equivalent(g1, g2)
        assert (w is None) == (ref is None) == near_miss, trial
        if w is not None:
            assert same_bibundle(w, ref), trial
        if g1.n_arrows + g2.n_arrows <= 8:
            assert raw_morita_exists(g1, g2) == (not near_miss), trial
            raw += 1
    assert raw >= 10


def test_morita_witness_on_an_open_composition_is_a_value_error():
    # a composite deleted from the source fibre at the basepoint, outside
    # its isotropy
    g = gauge_over(cyclic_group(3), 2)
    e1 = next(e for e in g.s_fiber(0) if g.tgt[e] != 0)
    bad = with_composites(g, {(e1, g.unit[0]): None})
    with pytest.raises(KeyError):
        reference_morita_equivalent(bad, z_groupoid(3))
    with pytest.raises(ValueError, match="not closed"):
        morita_equivalent(bad, z_groupoid(3))
    # the same composite redirected to an arrow out of the other object,
    # off the glued fibres
    other = next(e for e in g.s_fiber(1) if g.tgt[e] == g.tgt[e1])
    bad = with_composites(g, {(e1, g.unit[0]): other})
    with pytest.raises(ValueError, match="not closed"):
        morita_equivalent(bad, z_groupoid(3))


# ---------------------------------------------------------------------------
# action rows against the dict-built oracle

def corrupted(doc, rng):
    """Copies of a bibundle document: rows shuffled, then one pair repeated
    with another image, one id unknown, a row of two ids, a row of four."""
    shuffled = copy.deepcopy(doc)
    for key in ("leftAct", "rightAct"):
        rng.shuffle(shuffled[key])
    copies = [("shuffled", shuffled)]
    sides = [key for key in ("leftAct", "rightAct") if doc[key]]
    for what in ("repeated", "unknown", "two ids", "four ids") if sides else ():
        bad = copy.deepcopy(shuffled)
        rows = bad[rng.choice(sides)]
        at = rng.randrange(len(rows))
        g, x, y = row = rows[at]
        if what == "repeated":
            other = [z for z in doc["carrier"] if z != y] or [y]
            rows.insert(rng.randrange(len(rows) + 1), [g, x, rng.choice(other)])
        elif what == "unknown":
            row[rng.randrange(3)] = "no such id"
        else:
            rows[at] = row[:2] if what == "two ids" else row + [y]
        copies.append((what, bad))
    return copies


def result(f, *args):
    """f(*args), or its exception's type and args."""
    try:
        return f(*args)
    except Exception as exc:  # compared between the rows and the dicts
        return type(exc), exc.args


def kernels(s, lemma, original):
    """What the bibundle kernels make of s, in loop form and witness order."""
    p = principality(s)
    return (loop_form(s), validate_bibundle(s).as_dict(), p, list(p.witnesses.items()),
            outcome(tensor, s, identity_bibundle(s.right)),
            result(bibundle_isomorphic, s, original), result(lemma, s),
            bibundle_to_dict(s))


def test_action_rows_match_the_dict_oracle(factors):
    # the file's rows as saved, shuffled, with a repeated pair (first
    # position, last image), an unknown id and rows of the wrong length;
    # loading, witnesses and every kernel agree with dicts built from ids
    rng = random.Random(18)
    cases = factors + [(name, morita_equivalent(a, b))
                       for name, a, b in equiv_morita_pairs()]
    outcomes = set()
    for name, s in cases:
        doc = bibundle_to_dict(s)
        for what, data in [("as saved", doc)] + corrupted(doc, rng):
            got = result(bibundle_from_dict, data)
            want = result(reference_bibundle_from_dict, data)
            if isinstance(want, tuple):
                assert got == want, (name, what)
                outcomes.add(want[0].__name__)
                continue
            assert (kernels(got, lemma_section_check, s)
                    == kernels(want, reference_lemma_section_check, s)), (name, what)
            outcomes.add("ok" if validate_bibundle(want).ok else "invalid")
    assert outcomes == {"ok", "invalid", "ValueError"}


def test_constructed_rows_match_the_dict_oracle():
    # identity bibundles and the bibundles of functors, built from the
    # composition table, against the id-named loops through dicts
    rng = random.Random(5)
    pool = [g for _, g in corpus_groupoids() if g.n_arrows <= 9]
    for name, g in corpus_groupoids():
        assert loop_form(identity_bibundle(g)) == loop_form(reference_identity_bibundle(g)), name
    for _ in range(40):
        hom = random_functor(rng, rng.choice(pool), rng.choice(pool))
        assert loop_form(from_homomorphism(hom)) == loop_form(reference_from_homomorphism(hom))


def test_from_homomorphism_on_an_open_composition_is_a_value_error():
    # the identity functor of Z3 and of the pair groupoid with a composite
    # deleted (the loop's KeyError) or redirected off the points (the
    # loop's unknown carrier id)
    z3, pair2 = z_groupoid(3), pair_groupoid(2)
    a = pair2.arr_index
    cases = [(with_composites(z3, {(1, 1): None}), KeyError),
             (with_composites(pair2, {(a["(1,2)"], a["(2,2)"]): a["(1,1)"]}), ValueError)]
    for bad, loop_error in cases:
        hom = GroupoidHom(bad, bad, tuple(range(bad.n_objects)), tuple(range(bad.n_arrows)))
        with pytest.raises(loop_error):
            reference_from_homomorphism(hom)
        with pytest.raises(ValueError, match="not closed on the points"):
            from_homomorphism(hom)
