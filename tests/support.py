"""Shared corpus builders and independent brute-force oracles.

The oracles here deliberately avoid the library's normal forms: raw
bibundle search works directly on abstract carriers from the axioms, and
the labeled-graph oracle tries every genus-preserving vertex bijection.
"""
from __future__ import annotations

import random
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import numpy as np

from moritakit.bibundles import (Bibundle, bibundle_isomorphic, from_homomorphism,
                                 identity_bibundle, principality, tensor,
                                 validate_bibundle)
from moritakit.gauge import EPS_RANK
from moritakit.groups import (FiniteGroup, cyclic_group, dihedral_group,
                              klein_four_group, quaternion_group,
                              symmetric_group)
from moritakit.groupoids import (FiniteGroupoid, PrincipalBundleData,
                                 bundle_of_groups, disjoint_union,
                                 gauge_groupoid, group_as_groupoid,
                                 pair_groupoid)
from moritakit.report import ValidationReport
from moritakit.tss import LabeledSurfaceGraph


# ---------------------------------------------------------------------------
# groupoid corpus

def gauge_over(group: FiniteGroup, n_base: int) -> FiniteGroupoid:
    """Gauge groupoid of the trivial principal bundle with the given fibre."""
    k = len(group)
    total = [f"e{i}" for i in range(k * n_base)]
    projection = {f"e{i}": f"b{i // k}" for i in range(k * n_base)}
    action = {}
    for i in range(k * n_base):
        base = (i // k) * k
        off = i - base
        for j, gname in enumerate(group.elements):
            action[(f"e{i}", gname)] = f"e{base + group.mul(off, j)}"
    data = PrincipalBundleData(tuple(total),
                               tuple(f"b{i}" for i in range(n_base)),
                               projection, group, action)
    return gauge_groupoid(data)


def corpus_groupoids() -> list[tuple[str, FiniteGroupoid]]:
    """The acceptance corpus: 21 groupoids spanning all construction kinds."""
    entries = []
    for n in range(2, 7):
        entries.append((f"Z{n}", group_as_groupoid(cyclic_group(n))))
    entries.append(("S3", group_as_groupoid(symmetric_group(3))))
    entries.append(("D4", group_as_groupoid(dihedral_group(4))))
    entries.append(("Q8", group_as_groupoid(quaternion_group())))
    entries.append(("Z2xZ2", group_as_groupoid(klein_four_group())))
    for n in range(1, 5):
        entries.append((f"pair{n}", pair_groupoid(n)))
    entries.append(("gaugeZ3/2", gauge_over(cyclic_group(3), 2)))
    entries.append(("gaugeZ2/3", gauge_over(cyclic_group(2), 3)))
    entries.append(("gaugeZ4/2", gauge_over(cyclic_group(4), 2)))
    entries.append(("bundleZ2Z3", bundle_of_groups({"a": cyclic_group(2),
                                                    "b": cyclic_group(3)})))
    entries.append(("bundleZ2Z2", bundle_of_groups({"a": cyclic_group(2),
                                                    "b": cyclic_group(2)})))
    entries.append(("bundleZ2Z2Z3", bundle_of_groups({"a": cyclic_group(2),
                                                      "b": cyclic_group(2),
                                                      "c": cyclic_group(3)})))
    entries.append(("pair2+Z3", disjoint_union(pair_groupoid(2),
                                               group_as_groupoid(cyclic_group(3)))))
    entries.append(("pair2+pair3", disjoint_union(pair_groupoid(2),
                                                  pair_groupoid(3))))
    return entries


def small_corpus() -> list[tuple[str, FiniteGroupoid]]:
    """Corpus entries small enough for the raw bibundle oracle."""
    return [(name, g) for name, g in corpus_groupoids() if g.n_arrows <= 6]


# ---------------------------------------------------------------------------
# raw biprincipal-bibundle search (axiom-level, no normal forms)

def _surjective_maps(k, n):
    for values in product(range(n), repeat=k):
        if len(set(values)) == n:
            yield values


def _sorted_surjective_maps(k, n):
    for values in combinations_with_replacement(range(n), k):
        if len(set(values)) == n:
            yield values


def _left_structures(g1, g2, j1, j2):
    """All left actions that are free and transitive on each j2-fibre.

    On each fibre the action is a pointed bijection from the source fibre
    of the basepoint's j1-image; the unit must fix the basepoint.
    """
    k = len(j1)
    fibres = {}
    for x in range(k):
        fibres.setdefault(j2[x], []).append(x)
    per_fibre = []
    for p, fibre in sorted(fibres.items()):
        x0 = fibre[0]
        arrows = g1.s_fiber(j1[x0])
        if len(arrows) != len(fibre):
            return
        unit = g1.unit[j1[x0]]
        options = []
        rest = [a for a in arrows if a != unit]
        targets = [y for y in fibre if y != x0]
        for perm in permutations(targets):
            if all(j1[y] == g1.tgt[a] for a, y in zip(rest, perm)):
                bij = {unit: x0}
                bij.update(dict(zip(rest, perm)))
                options.append((x0, bij))
        if not options:
            return
        per_fibre.append(options)
    for combo in product(*per_fibre):
        left_act = {}
        ok = True
        for x0, bij in combo:
            # y = h . x0 for a unique h; g . y := (g h) . x0
            for h, y in bij.items():
                for g in g1.s_fiber(g1.tgt[h]):
                    gh = g1.comp[(g, h)]
                    if gh not in bij:
                        ok = False
                        break
                    left_act[(g, y)] = bij[gh]
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield left_act


def _right_structures(g1, g2, j1, j2, left_act):
    """Right actions compatible with the left one, from basepoint choices."""
    k = len(j1)
    fibres = {}
    for x in range(k):
        fibres.setdefault(j2[x], []).append(x)
    basepoints = {p: fibre[0] for p, fibre in fibres.items()}
    slots = []
    for p, x0 in sorted(basepoints.items()):
        for g in g2.t_fiber(p):
            target_p = g2.src[g]
            candidates = [y for y in range(k)
                          if j2[y] == target_p and j1[y] == j1[x0]]
            if not candidates:
                return
            slots.append(((x0, g), candidates))
    carriers_of = {}
    for x in range(k):
        p = j2[x]
        x0 = basepoints[p]
        gx = next(g for g in g1.s_fiber(j1[x0])
                  if left_act.get((g, x0)) == x)
        carriers_of[x] = (x0, gx)
    for combo in product(*(cands for _, cands in slots)):
        base_act = {slot: y for (slot, _), y in zip(slots, combo)}
        right_act = {}
        ok = True
        for x in range(k):
            x0, gx = carriers_of[x]
            for g in g2.t_fiber(j2[x]):
                y0 = base_act[(x0, g)]
                if g1.src[gx] != j1[y0]:
                    ok = False
                    break
                moved = left_act.get((gx, y0))
                if moved is None:
                    ok = False
                    break
                right_act[(x, g)] = moved
            if not ok:
                break
        if ok:
            yield right_act


def raw_biprincipal_bibundles(g1: FiniteGroupoid, g2: FiniteGroupoid,
                              carrier_size: int):
    """Every biprincipal (g1, g2)-bibundle on a carrier of the given size.

    Exhaustive up to the two forced reductions (fibrewise pointed
    bijections for the free transitive left action, basepoint propagation
    through commutation); every candidate is still fully checked against
    the bibundle axioms and principality before being yielded.
    """
    k = carrier_size
    names = [f"x{i}" for i in range(k)]
    for j2 in _sorted_surjective_maps(k, g2.n_objects):
        fibre_sizes = {p: j2.count(p) for p in set(j2)}
        for j1 in _surjective_maps(k, g1.n_objects):
            if any(len(g1.s_fiber(j1[x])) != fibre_sizes[j2[x]]
                   for x in range(k)):
                continue
            for left_act in _left_structures(g1, g2, j1, j2):
                for right_act in _right_structures(g1, g2, j1, j2, left_act):
                    s = Bibundle(
                        g1, g2, names,
                        {names[x]: g1.objects[j1[x]] for x in range(k)},
                        {names[x]: g2.objects[j2[x]] for x in range(k)},
                        {(g1.arrows[g], names[x]): names[y]
                         for (g, x), y in left_act.items()},
                        {(names[x], g2.arrows[g]): names[y]
                         for (x, g), y in right_act.items()})
                    if not validate_bibundle(s).ok:
                        continue
                    if principality(s).biprincipal:
                        yield s


def raw_biprincipal_classes(g1: FiniteGroupoid, g2: FiniteGroupoid,
                            max_carrier: int | None = None) -> list[Bibundle]:
    """Isomorphism classes of biprincipal bibundles up to a carrier bound."""
    if max_carrier is None:
        max_carrier = g1.n_arrows + g2.n_arrows
    reps = []
    for k in range(1, max_carrier + 1):
        for s in raw_biprincipal_bibundles(g1, g2, k):
            if not any(len(r.carrier) == k and bibundle_isomorphic(r, s)
                       for r in reps):
                reps.append(s)
    return reps


def raw_morita_exists(g1: FiniteGroupoid, g2: FiniteGroupoid,
                      max_carrier: int | None = None) -> bool:
    if max_carrier is None:
        max_carrier = g1.n_arrows + g2.n_arrows
    for k in range(1, max_carrier + 1):
        for _ in raw_biprincipal_bibundles(g1, g2, k):
            return True
    return False


# ---------------------------------------------------------------------------
# Picard group through bibundles (no functor keys)

def bibundle_picard(g: FiniteGroupoid):
    """Pic(g) as ``(table, identity, representatives)``, the bibundle way.

    A representative is the first biprincipal ``from_homomorphism`` of an
    ``enumerate_functors`` functor that no earlier one is isomorphic to,
    by ``bibundle_isomorphic``; the table classifies actual ``tensor``
    products, each of which must match exactly one representative.
    """
    from moritakit.groupoids import enumerate_functors

    reps = []
    for hom in enumerate_functors(g, g):
        s = from_homomorphism(hom)
        if (principality(s).biprincipal
                and all(bibundle_isomorphic(r, s) is None for r in reps)):
            reps.append(s)

    def classify(s):
        matches = [i for i, r in enumerate(reps) if bibundle_isomorphic(r, s) is not None]
        assert len(matches) == 1, matches
        return matches[0]

    table = [[classify(tensor(a, b)) for b in reps] for a in reps]
    return table, classify(identity_bibundle(g)), reps


# ---------------------------------------------------------------------------
# plain loops behind the array kernels, kept as oracles

def reference_validate(g: FiniteGroupoid) -> ValidationReport:
    """``validate`` as a plain loop over the composition dict."""
    report = ValidationReport()
    A, O = g.arrows, g.objects
    m = len(A)
    for i, j in product(range(m), repeat=2):
        defined = (i, j) in g.comp
        composable = g.src[i] == g.tgt[j]
        if defined != composable:
            report.add("composability", A[i], A[j])
        if defined and composable:
            k = g.comp[(i, j)]
            if g.src[k] != g.src[j] or g.tgt[k] != g.tgt[i]:
                report.add("composite-endpoints", A[i], A[j], A[k])
    for i in range(m):
        for j in g.t_fiber(g.src[i]):
            ij = g.comp.get((i, j))
            if ij is None:
                continue
            for k in g.t_fiber(g.src[j]):
                jk = g.comp.get((j, k))
                if jk is None or (ij, k) not in g.comp or (i, jk) not in g.comp:
                    continue
                if g.comp[(ij, k)] != g.comp[(i, jk)]:
                    report.add("associativity", A[i], A[j], A[k])
    for x in range(len(O)):
        u = g.unit[x]
        if g.src[u] != x or g.tgt[u] != x:
            report.add("unit-endpoints", O[x], A[u])
    for i in range(m):
        u_t, u_s = g.unit[g.tgt[i]], g.unit[g.src[i]]
        if g.comp.get((u_t, i)) != i or g.comp.get((i, u_s)) != i:
            report.add("unit-law", A[i])
    for i in range(m):
        j = g.inv[i]
        if g.src[j] != g.tgt[i] or g.tgt[j] != g.src[i]:
            report.add("inverse-endpoints", A[i], A[j])
            continue
        if (g.comp.get((j, i)) != g.unit[g.src[i]]
                or g.comp.get((i, j)) != g.unit[g.tgt[i]]):
            report.add("inverse-law", A[i], A[j])
    return report


def reference_cayley(items, mul, key, prefix: str) -> FiniteGroup:
    """``groups._cayley`` as a loop over items: ``key(mul(x, y))`` per cell."""
    index = {key(x): i for i, x in enumerate(items)}
    table = [[index[key(mul(x, y))] for y in items] for x in items]
    names = [f"{prefix}{i:03d}" for i in range(len(items))]
    return FiniteGroup(names, table, payload=items)


def with_composites(g: FiniteGroupoid, changes: dict) -> FiniteGroupoid:
    """A copy of g whose composition dict is updated by ``changes``.

    ``changes`` maps index pairs to an arrow index, or to None to delete
    the composite; the copy is a fresh groupoid, so nothing cached on g is
    shared.
    """
    comp = dict(g.comp)
    for pair, k in changes.items():
        if k is None:
            comp.pop(pair, None)
        else:
            comp[pair] = k
    A, O = g.arrows, g.objects
    return FiniteGroupoid(
        O, A, {a: O[g.src[i]] for i, a in enumerate(A)},
        {a: O[g.tgt[i]] for i, a in enumerate(A)},
        {x: A[g.unit[i]] for i, x in enumerate(O)},
        {a: A[g.inv[i]] for i, a in enumerate(A)},
        {(A[i], A[j]): A[k] for (i, j), k in comp.items()})


# ---------------------------------------------------------------------------
# LAPACK behind the closed-form gauge kernels, kept as an oracle

def reference_gauge(pi, b, eps_rank: float = EPS_RANK) -> dict:
    """The gauge kernels through LAPACK on the full d x d matrices.

    det, inv and SVD at every point, and finite differences of all d^2
    entries: what ``gauge`` computes by closed forms for d <= 3 and from
    the upper entries.  Returns the pointwise ``det`` |det(1 + B pi)|,
    the symmetrized transform ``tau`` with its ``asymmetry`` before
    symmetrization, the ``rank`` map and both residuals.
    """
    d = pi.grid.dimension
    endo = np.eye(d) + np.matmul(b.values, pi.values)
    tau = np.matmul(pi.values, np.linalg.inv(endo))
    asymmetry = float(np.max(np.abs(tau + np.swapaxes(tau, -1, -2))))
    sv = np.linalg.svd(pi.values, compute_uv=False)
    return {"det": np.abs(np.linalg.det(endo)),
            "tau": 0.5 * (tau - np.swapaxes(tau, -1, -2)),
            "asymmetry": asymmetry,
            "rank": (sv > eps_rank).sum(axis=-1),
            "jacobi": _reference_jacobi(pi),
            "closedness": _reference_closedness(b)}


def _reference_partials(field):
    grid = field.grid
    return np.stack([np.gradient(field.values, grid.spacing, axis=l, edge_order=2)
                     for l in range(grid.dimension)])


def _reference_closedness(b) -> float:
    d = b.grid.dimension
    if d < 3:
        return 0.0
    partial = _reference_partials(b)
    worst = 0.0
    for i, j, k in combinations(range(d), 3):
        cyc = (partial[i][..., j, k] + partial[j][..., k, i] + partial[k][..., i, j])
        worst = max(worst, float(np.max(np.abs(cyc))))
    return worst


def _reference_jacobi(pi) -> float:
    d = pi.grid.dimension
    if d < 3:
        return 0.0
    partial = _reference_partials(pi)
    v = pi.values
    worst = 0.0
    for i, j, k in combinations(range(d), 3):
        cyc = np.zeros(pi.grid.shape)
        for l in range(d):
            cyc = (cyc + v[..., i, l] * partial[l][..., j, k]
                   + v[..., j, l] * partial[l][..., k, i]
                   + v[..., k, l] * partial[l][..., i, j])
        worst = max(worst, float(np.max(np.abs(cyc))))
    return worst


# ---------------------------------------------------------------------------
# random functors (for tensor-law sampling)

def random_functor(rng: random.Random, source: FiniteGroupoid,
                   target: FiniteGroupoid):
    """One uniformly chosen functor from the full enumeration."""
    from moritakit.groupoids import enumerate_functors

    functors = list(enumerate_functors(source, target))
    return rng.choice(functors)


# ---------------------------------------------------------------------------
# labeled-graph oracle and random graphs

def tss_isomorphic_oracle(a: LabeledSurfaceGraph, b: LabeledSurfaceGraph,
                          tol: float = 0.0) -> bool:
    """Brute force over all vertex bijections and exact edge matchings."""
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return False
    for perm in permutations(range(b.n_vertices)):
        if any(a.genus[v] != b.genus[perm[v]] for v in range(a.n_vertices)):
            continue
        if _edges_match(a, b, perm, tol):
            return True
    return False


def _edges_match(a, b, perm, tol):
    groups_a = {}
    for (t, h, p) in a.edges:
        groups_a.setdefault((perm[t], perm[h]), []).append(p)
    groups_b = {}
    for (t, h, p) in b.edges:
        groups_b.setdefault((t, h), []).append(p)
    if set(groups_a) != set(groups_b):
        return False
    for key, ps in groups_a.items():
        qs = groups_b[key]
        if len(ps) != len(qs):
            return False
        for x, y in zip(sorted(ps), sorted(qs)):
            if abs(x - y) > tol:
                return False
    return True


def random_tss(rng: random.Random, max_vertices: int = 6,
               max_edges: int = 8) -> LabeledSurfaceGraph:
    """A random valid labeled graph: spanning tree plus extra edges."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    genus = {v: rng.randint(0, 2) for v in vertices}
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        tail, head = (i, j) if rng.random() < 0.5 else (j, i)
        edges.append((vertices[tail], vertices[head], _random_period(rng)))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        tail = rng.randrange(n)
        head = rng.randrange(n)
        edges.append((vertices[tail], vertices[head], _random_period(rng)))
    return LabeledSurfaceGraph(vertices, genus, edges)


def _random_period(rng):
    return rng.choice([0.5, 1.0, 1.5, 2.0])


def shuffled_copy(rng: random.Random, g: LabeledSurfaceGraph) -> LabeledSurfaceGraph:
    """An isomorphic copy under a random renaming of the vertices."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    names = [f"w{perm[i]}" for i in range(g.n_vertices)]
    genus = {names[i]: g.genus[i] for i in range(g.n_vertices)}
    edges = [(names[t], names[h], p) for (t, h, p) in g.edges]
    return LabeledSurfaceGraph(names, genus, edges, g.volume)


def perturb_one_period(g: LabeledSurfaceGraph, factor: float = 1.001,
                       which: int = 0) -> LabeledSurfaceGraph:
    """Copy with a single period scaled by the given factor."""
    genus = {v: g.genus[i] for i, v in enumerate(g.vertices)}
    edges = []
    for i, (t, h, p) in enumerate(g.edges):
        period = p * factor if i == which else p
        edges.append((g.vertices[t], g.vertices[h], period))
    return LabeledSurfaceGraph(g.vertices, genus, edges, g.volume)
