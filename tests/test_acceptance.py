"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are pinned here: the finite algebra is
exact, the gauge identities carry explicit numerical bounds, and the
convergence ratios must land in [3.5, 4.5] per halving.
"""
import random
import time

import numpy as np

from moritakit.bibundles import (bibundle_isomorphic, from_homomorphism,
                                 identity_bibundle, morita_equivalent,
                                 principality, tensor)
from moritakit.gauge import (GridSpec, SampledBivectorField,
                             SampledTwoFormField, apply_gauge,
                             closedness_residual, jacobi_residual, rank_map,
                             verify_composition)
from moritakit.groups import (cyclic_group, group_isomorphic, symmetric_group,
                              trivial_group)
from moritakit.groupoids import group_as_groupoid, pair_groupoid
from moritakit.picard import picard_group, verify_exact_sequences
from moritakit.tss import (LabeledSurfaceGraph, morita_equivalent_tss,
                           surface_genus)

from support import (corpus_groupoids, gauge_over, perturb_one_period,
                     random_functor, random_tss, shuffled_copy,
                     tss_isomorphic_oracle)


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({elapsed:.1f}s / budget {budget}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_exact_sequence_suite():
    started = time.monotonic()
    corpus = corpus_groupoids()
    assert len(corpus) >= 20
    names = {name for name, _ in corpus}
    assert {"Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D4", "Q8", "Z2xZ2",
            "pair1", "pair2", "pair3", "pair4"} <= names
    assert sum(name.startswith("gauge") for name in names) >= 3
    assert sum(name.startswith("bundle") for name in names) >= 2
    assert sum("+" in name for name in names) >= 2
    failures = []
    for name, g in corpus:
        report = verify_exact_sequences(g)
        if not report.ok:
            failures.append((name, report.as_dict()))
    _report(1, not failures,
            f"ker j = Inaut, bisection and static sequences exact on "
            f"{len(corpus)} groupoids" + (f"; failures: {failures}" if failures else ""),
            time.monotonic() - started, 60)


def test_criterion_2_picard_formula_cross_check():
    started = time.monotonic()
    corpus = corpus_groupoids()
    checked = 0
    for name, g in corpus:
        closed = picard_group(g, "formula")
        pic = picard_group(g, "enumerate")
        assert group_isomorphic(pic.as_group(), closed.as_group()) is not None, name
        checked += 1
    by_name = dict(corpus)
    expectations = [
        ("Z4", cyclic_group(2)),
        ("S3", trivial_group()),
        ("Z2xZ2", symmetric_group(3)),
        ("pair1", trivial_group()),
        ("pair2", trivial_group()),
        ("pair3", trivial_group()),
        ("pair4", trivial_group()),
        ("gaugeZ3/2", cyclic_group(2)),
    ]
    for name, expected in expectations:
        pic = picard_group(by_name[name], "enumerate")
        assert group_isomorphic(pic.as_group(), expected) is not None, name
    _report(2, checked == len(corpus),
            f"enumeration matches the closed form on {checked} groupoids and "
            f"all {len(expectations)} pinned values",
            time.monotonic() - started, 120)


def test_criterion_3_picard_is_morita_invariant():
    started = time.monotonic()
    pairs = [
        (gauge_over(cyclic_group(3), 2), group_as_groupoid(cyclic_group(3))),
        (gauge_over(cyclic_group(2), 3), group_as_groupoid(cyclic_group(2))),
        (gauge_over(cyclic_group(4), 2), group_as_groupoid(cyclic_group(4))),
        (pair_groupoid(3), group_as_groupoid(trivial_group())),
        (pair_groupoid(4), group_as_groupoid(trivial_group())),
        (gauge_over(symmetric_group(3), 2), group_as_groupoid(symmetric_group(3))),
    ]
    assert len(pairs) >= 5
    for g1, g2 in pairs:
        witness = morita_equivalent(g1, g2)
        assert witness is not None and principality(witness).biprincipal
        p1 = picard_group(g1, "enumerate").as_group()
        p2 = picard_group(g2, "enumerate").as_group()
        assert group_isomorphic(p1, p2) is not None
    _report(3, True, f"Picard tables isomorphic on {len(pairs)} Morita pairs",
            time.monotonic() - started, 60)


def test_criterion_4_bicategory_laws():
    started = time.monotonic()
    rng = random.Random(2024)
    pool = [group_as_groupoid(cyclic_group(2)),
            group_as_groupoid(cyclic_group(3)),
            group_as_groupoid(cyclic_group(4)),
            pair_groupoid(2), pair_groupoid(3)]
    assoc_checked = unit_checked = 0
    while assoc_checked < 30:
        g1, g2, g3, g4 = (rng.choice(pool) for _ in range(4))
        s = from_homomorphism(random_functor(rng, g2, g1))
        t = from_homomorphism(random_functor(rng, g3, g2))
        u = from_homomorphism(random_functor(rng, g4, g3))
        if max(len(s.carrier), len(t.carrier), len(u.carrier)) > 32:
            continue
        left = tensor(tensor(s, t), u)
        right = tensor(s, tensor(t, u))
        assert bibundle_isomorphic(left, right) is not None
        assoc_checked += 1
    while unit_checked < 25:
        g1, g2 = rng.choice(pool), rng.choice(pool)
        s = from_homomorphism(random_functor(rng, g2, g1))
        if len(s.carrier) > 32:
            continue
        assert bibundle_isomorphic(tensor(identity_bibundle(g1), s), s) is not None
        assert bibundle_isomorphic(tensor(s, identity_bibundle(g2)), s) is not None
        unit_checked += 1
    _report(4, assoc_checked + unit_checked >= 50,
            f"associativity on {assoc_checked} triples, unit laws on "
            f"{unit_checked} pairs, carriers <= 32",
            time.monotonic() - started, 120)


def test_criterion_5_functoriality():
    started = time.monotonic()
    rng = random.Random(77)
    pool = [group_as_groupoid(cyclic_group(2)),
            group_as_groupoid(cyclic_group(3)),
            group_as_groupoid(cyclic_group(4)),
            pair_groupoid(2),
            group_as_groupoid(symmetric_group(3))]
    for _ in range(20):
        g1, g2, g3 = (rng.choice(pool) for _ in range(3))
        phi = random_functor(rng, g2, g1)
        psi = random_functor(rng, g3, g2)
        lhs = tensor(from_homomorphism(phi), from_homomorphism(psi))
        rhs = from_homomorphism(psi.then(phi))
        assert bibundle_isomorphic(lhs, rhs) is not None
    _report(5, True, "tensor of functor bibundles matches the composite "
            "functor on 20 pairs", time.monotonic() - started, 30)


def test_criterion_6_tss_decision_vs_oracle():
    started = time.monotonic()
    rng = random.Random(360)
    pairs = positives = negatives = perturbed = 0
    while pairs < 200:
        a = random_tss(rng, max_vertices=6, max_edges=8)
        roll = rng.random()
        if roll < 0.4:
            b = shuffled_copy(rng, a)
        elif roll < 0.7 and a.n_edges:
            b = perturb_one_period(shuffled_copy(rng, a), 1.001,
                                   rng.randrange(a.n_edges))
            perturbed += 1
        else:
            b = random_tss(rng, max_vertices=6, max_edges=8)
        got = morita_equivalent_tss(a, b, 0.0) is not None
        expected = tss_isomorphic_oracle(a, b, 0.0)
        assert got == expected, (a.edges, b.edges)
        if roll >= 0.4 and roll < 0.7 and a.n_edges:
            assert not got  # a 1-per-mille period change breaks tol-0 matching
        positives += got
        negatives += not got
        pairs += 1
    _report(6, perturbed >= 30 and positives >= 40 and negatives >= 40,
            f"decision matches brute force on {pairs} pairs "
            f"({positives} positive, {negatives} negative, "
            f"{perturbed} period-perturbed)",
            time.monotonic() - started, 60)


def test_criterion_7_tss_genus():
    started = time.monotonic()
    sphere = LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                 [("n", "s", 1.0)])
    torus = LabeledSurfaceGraph(["v"], {"v": 0}, [("v", "v", 1.0)])
    genus2 = LabeledSurfaceGraph(["v"], {"v": 2}, [])
    assert surface_genus(sphere) == 0
    assert surface_genus(torus) == 1
    assert surface_genus(genus2) == 2
    rng = random.Random(7)
    for _ in range(50):
        a = random_tss(rng)
        b = shuffled_copy(rng, a)
        assert morita_equivalent_tss(a, b) is not None
        assert surface_genus(a) == surface_genus(b)
    _report(7, True, "hand-computed genera reproduced; genus invariant "
            "under 50 accepted isomorphisms", time.monotonic() - started, 60)


def test_criterion_8_gauge_identities():
    started = time.monotonic()
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])

    grid = GridSpec(2, (0.0, 0.0), 1.0 / 32, (33, 33))
    pi = SampledBivectorField.from_entry_functions(
        grid, {(0, 1): lambda x, y: 1.0 + 0.25 * np.sin(3 * x) * np.cos(y)})
    zero = SampledTwoFormField.constant(grid, np.zeros((2, 2)))
    assert np.array_equal(apply_gauge(pi, zero).values, pi.values)

    b = SampledTwoFormField.from_entry_functions(
        grid, {(0, 1): lambda x, y: 0.2 * np.cos(x + y)})
    out = apply_gauge(pi, b)
    inverse_err = np.max(np.abs(np.linalg.inv(out.values)
                                - (np.linalg.inv(pi.values) + b.values)))
    assert inverse_err <= 1e-10

    b2 = SampledTwoFormField.from_entry_functions(
        grid, {(0, 1): lambda x, y: 0.1 * x * y})
    assert verify_composition(pi, b, b2) <= 1e-10

    vanishing = SampledBivectorField.from_entry_functions(
        grid, {(0, 1): lambda x, y: x - 0.5})
    small = SampledTwoFormField.from_entry_functions(
        grid, {(0, 1): lambda x, y: 0.2 + 0.1 * y})
    dets = np.abs(np.linalg.det(np.eye(2) + small.values @ vanishing.values))
    margin = dets > 1e-6
    transformed = apply_gauge(vanishing, small)
    assert np.array_equal(rank_map(transformed)[margin],
                          rank_map(vanishing)[margin])

    rng = np.random.default_rng(12)
    grid4 = GridSpec(4, (0.0,) * 4, 0.5, (3, 3, 3, 3))
    for _ in range(5):
        m = rng.standard_normal((4, 4))
        pi4 = SampledBivectorField.constant(grid4, 0.5 * (m - m.T))
        n1, n2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        b41 = SampledTwoFormField.constant(grid4, 0.1 * (n1 - n1.T))
        b42 = SampledTwoFormField.constant(grid4, 0.1 * (n2 - n2.T))
        assert np.array_equal(apply_gauge(
            pi4, SampledTwoFormField.constant(grid4, np.zeros((4, 4)))).values,
            pi4.values)
        assert verify_composition(pi4, b41, b42) <= 1e-10
    _report(8, True, "B=0 identity exact, inverse law <= 1e-10, composition "
            "<= 1e-10, rank preserved at margin > 1e-6 (d=2 on 33x33, d=4 "
            "constant)", time.monotonic() - started, 30)


def test_criterion_9_residual_convergence():
    started = time.monotonic()

    def grid3(n):
        return GridSpec(3, (0.0, 0.0, 0.0), 1.0 / (n - 1), (n, n, n))

    def closed_a(n):
        return SampledTwoFormField.from_entry_functions(grid3(n), {
            (0, 1): lambda x, y, z: 2 * np.cos(2 * x) * np.sin(z),
            (1, 2): lambda x, y, z: -np.sin(2 * x) * np.cos(z)})

    def closed_b(n):
        return SampledTwoFormField.from_entry_functions(grid3(n), {
            (0, 2): lambda x, y, z: 3 * np.cos(3 * x) * np.sin(2 * y),
            (1, 2): lambda x, y, z: 2 * np.sin(3 * x) * np.cos(2 * y)})

    def casimir(n, partials):
        return SampledBivectorField.from_entry_functions(grid3(n), {
            (0, 1): lambda x, y, z: partials[2](x, y, z),
            (1, 2): lambda x, y, z: partials[0](x, y, z),
            (0, 2): lambda x, y, z: -partials[1](x, y, z)})

    exp_casimir = [lambda x, y, z: np.exp(x) * np.cos(y) + z ** 3,
                   lambda x, y, z: -np.exp(x) * np.sin(y),
                   lambda x, y, z: 3 * x * z * z]
    quartic_casimir = [lambda x, y, z: 4 * x ** 3 * y + z ** 4,
                       lambda x, y, z: x ** 4 + 4 * y ** 3 * z,
                       lambda x, y, z: y ** 4 + 4 * z ** 3 * x]
    families = [
        ("closed exact form A", lambda n: closedness_residual(closed_a(n))),
        ("closed exact form B", lambda n: closedness_residual(closed_b(n))),
        ("casimir exp", lambda n: jacobi_residual(casimir(n, exp_casimir))),
        ("casimir quartic", lambda n: jacobi_residual(casimir(n, quartic_casimir))),
    ]
    ratios = {}
    for name, residual in families:
        coarse, fine = residual(9), residual(17)
        ratios[name] = coarse / fine
        assert 3.5 <= ratios[name] <= 4.5, (name, ratios[name])
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in ratios.items())
    _report(9, len(families) >= 3,
            f"h-halving ratios within [3.5, 4.5] on {len(families)} "
            f"families ({detail})", time.monotonic() - started, 60)
