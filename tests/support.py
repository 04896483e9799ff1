"""Shared corpus builders and independent brute-force oracles.

The oracles here deliberately avoid the library's normal forms: raw
bibundle search works directly on abstract carriers from the axioms, and
the labeled-graph oracle tries every genus-preserving vertex bijection.
"""
from __future__ import annotations

import random
from functools import cached_property
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import numpy as np

from moritakit._search import _injective, _roots
from moritakit.bibundles import (Bibundle, PrincipalityReport,
                                 bibundle_isomorphic, from_homomorphism,
                                 identity_bibundle, morita_equivalent,
                                 principality, tensor, validate_bibundle)
from moritakit.errors import (MiddleMismatch, MoritaKitError, NotFunctor,
                              NotLeftPrincipal)
from moritakit.gauge import EPS_RANK
from moritakit.io import groupoid_from_dict
from moritakit.groups import (FiniteGroup, _row_keys, cyclic_group, dihedral_group,
                              group_isomorphic, klein_four_group,
                              quaternion_group, symmetric_group)
from moritakit.groupoids import (FiniteGroupoid, GroupoidHom, PrincipalBundleData,
                                 bundle_of_groups, disjoint_union,
                                 gauge_groupoid, group_as_groupoid,
                                 groupoid_isomorphisms, isotropy,
                                 orbit_partition, pair_groupoid)
from moritakit.report import Rows, ValidationReport, plain
from moritakit.tss import (LabeledSurfaceGraph, TssIsomorphism, _edge_bijection,
                           _edge_groups, _vertex_signature)


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


def corpus_factors() -> list[tuple[str, Bibundle]]:
    """Bibundles over the corpus groupoids.

    For each groupoid: its identity bibundle and the bibundles of up to
    two automorphisms; for each Morita-equivalent ordered pair: the
    witness of ``morita_equivalent``.
    """
    groupoids = corpus_groupoids()
    factors = []
    for name, g in groupoids:
        factors.append((f"id {name}", identity_bibundle(g)))
        isos = groupoid_isomorphisms(g, g)
        for k in sorted({len(isos) // 2, len(isos) - 1} - {0}):
            factors.append((f"aut{k} {name}", from_homomorphism(isos[k])))
    for a, g in groupoids:
        for b, h in groupoids:
            w = morita_equivalent(g, h)
            if w is not None:
                factors.append((f"morita {a}~{b}", w))
    return factors


def composable_pairs(factors):
    """Every ``(name, s, t)`` with ``s.right`` the middle of ``t`` and s or t a witness."""
    for sname, s in factors:
        for tname, t in factors:
            if s.right is t.left and "morita" in sname + tname:
                yield f"{sname} * {tname}", s, t


# ---------------------------------------------------------------------------
# the cached orbit structure, watched

def count_tree_walks(monkeypatch) -> list:
    """Record each groupoid whose spanning trees ``FiniteGroupoid._tree``
    walks, for the rest of the test; the walk itself is unchanged."""
    walks = []
    walk = FiniteGroupoid._tree.func

    def counted(g):
        walks.append(g)
        return walk(g)

    tree = cached_property(counted)
    tree.__set_name__(FiniteGroupoid, "_tree")
    monkeypatch.setattr(FiniteGroupoid, "_tree", tree)
    return walks


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


def reference_enumerate_picard(g: FiniteGroupoid):
    """Pic(g) as ``(table, identity, functors)``, every endofunctor keyed.

    The first ``enumerate_functors`` functor met with each class key of
    ``picard._equivalence_key`` represents its class, and the table keys
    the actual composite ``then`` of each pair of representatives.
    """
    from moritakit import picard
    from moritakit.groupoids import enumerate_functors, identity_hom

    key = picard._equivalence_key(g)
    first = {}
    for phi in enumerate_functors(g, g):
        k = key(phi)
        if k is not None and k not in first:
            first[k] = phi
    index = {k: i for i, k in enumerate(first)}
    reps = list(first.values())
    # row i, column j: phi_j applied first, then phi_i
    table = [[index[key(b.then(a))] for b in reps] for a in reps]
    return table, index[key(identity_hom(g))], reps


def picard_bundles() -> list[tuple[str, FiniteGroupoid]]:
    """Bundles of groups whose Picard groups permute and twist their fibres."""
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    return [("Z3 over 3 points", bundle_of_groups({x: z3 for x in "abc"})),
            ("Z2 over 4 points", bundle_of_groups({x: z2 for x in "abcd"})),
            ("S3+S3", bundle_of_groups({"a": s3, "b": s3})),
            ("V4+Z2", bundle_of_groups({"a": klein_four_group(), "b": z2}))]


def relabelled_groupoid(rng: random.Random, g: FiniteGroupoid) -> FiniteGroupoid:
    """g with fresh random ids, so its objects and orbits come in another order."""
    o = {x: f"o{rng.randrange(10 ** 6):06d}{x}" for x in g.objects}
    a = {h: f"a{rng.randrange(10 ** 6):06d}{h}" for h in g.arrows}
    O, A = g.objects, g.arrows
    return FiniteGroupoid(
        [o[x] for x in O], [a[h] for h in A],
        {a[h]: o[O[g.src[i]]] for i, h in enumerate(A)},
        {a[h]: o[O[g.tgt[i]]] for i, h in enumerate(A)},
        {o[x]: a[A[g.unit[i]]] for i, x in enumerate(O)},
        {a[h]: a[A[g.inv[i]]] for i, h in enumerate(A)},
        {(a[A[i]], a[A[j]]): a[A[k]] for (i, j), k in g.comp.items()})


def reference_maps(g: FiniteGroup, h: FiniteGroup, bijective: bool):
    """``groups._maps`` as a walk over the full product of generator images.

    Each image tuple is spread from the identity along every Cayley graph
    edge and kept when all edges agree (and, for isomorphisms, when the
    map is injective).
    """
    if bijective and (len(g) != len(h) or g.order_profile() != h.order_profile()):
        return []
    gens = reference_generating_sequence(g)
    reached, seen, edges = [g.identity], {g.identity}, []
    for x in reached:
        for k, s in enumerate(gens):
            y = g.table[x][s]
            edges.append((x, k, y))
            if y not in seen:
                seen.add(y)
                reached.append(y)
    h_orders = [h.element_order(i) for i in range(len(h))]
    candidates = []
    for gidx in gens:
        o = g.element_order(gidx)
        candidates.append([i for i in range(len(h))
                           if (h_orders[i] == o if bijective else o % h_orders[i] == 0)])
    found = []
    for images in product(*candidates):
        out = [None] * len(g)
        out[g.identity] = h.identity
        for x, k, y in edges:
            v = h.table[out[x]][images[k]]
            if out[y] is None:
                out[y] = v
            elif out[y] != v:
                break
        else:
            if not bijective or len(set(out)) == len(g):
                found.append(tuple(out))
    return found


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


def reference_validate_bibundle(s: Bibundle) -> ValidationReport:
    """``validate_bibundle`` as plain loops over the action dicts."""
    report = ValidationReport()
    L, R = s.left, s.right
    car = s.carrier
    for g in range(L.n_arrows):
        for x in range(len(car)):
            defined = (g, x) in s.left_act
            if defined != (L.src[g] == s.j1[x]):
                report.add("left-action-domain", L.arrows[g], car[x])
            if defined and L.src[g] == s.j1[x]:
                y = s.left_act[(g, x)]
                if s.j1[y] != L.tgt[g] or s.j2[y] != s.j2[x]:
                    report.add("moment-equivariance-left", L.arrows[g], car[x])
    for g in range(R.n_arrows):
        for x in range(len(car)):
            defined = (x, g) in s.right_act
            if defined != (s.j2[x] == R.tgt[g]):
                report.add("right-action-domain", car[x], R.arrows[g])
            if defined and s.j2[x] == R.tgt[g]:
                y = s.right_act[(x, g)]
                if s.j1[y] != s.j1[x] or s.j2[y] != R.src[g]:
                    report.add("moment-equivariance-right", car[x], R.arrows[g])
    if report.violations:
        return report
    for x in range(len(car)):
        if s.left_act[(L.unit[s.j1[x]], x)] != x:
            report.add("left-unit-action", car[x])
        if s.right_act[(x, R.unit[s.j2[x]])] != x:
            report.add("right-unit-action", car[x])
    for (h, x), hx in s.left_act.items():
        for g in L.s_fiber(L.tgt[h]):
            gh = L.comp.get((g, h))
            if gh is None:
                continue
            if s.left_act[(g, hx)] != s.left_act[(gh, x)]:
                report.add("left-action-associativity", L.arrows[g], L.arrows[h], car[x])
    for (x, g), xg in s.right_act.items():
        for h in R.t_fiber(R.src[g]):
            gh = R.comp.get((g, h))
            if gh is None:
                continue
            if s.right_act[(xg, h)] != s.right_act[(x, gh)]:
                report.add("right-action-associativity", car[x], R.arrows[g], R.arrows[h])
    for (g, x), gx in s.left_act.items():
        for h in R.t_fiber(s.j2[x]):
            if s.right_act[(gx, h)] != s.left_act[(g, s.right_act[(x, h)])]:
                report.add("commutation", L.arrows[g], car[x], R.arrows[h])
    return report


def reference_principality(s: Bibundle) -> PrincipalityReport:
    """``principality`` as plain loops: every pair of each fibre, every arrow."""
    witnesses = {}
    left_ok = True
    missing = [p for p in range(s.right.n_objects) if not s.j2_fiber(p)]
    if missing:
        left_ok = False
        witnesses["left-surjectivity"] = s.right.objects[missing[0]]
    for x in range(len(s.carrier)):
        for g in s.left.s_fiber(s.j1[x]):
            if s.left_act.get((g, x)) == x and g != s.left.unit[s.j1[x]]:
                left_ok = False
                witnesses.setdefault("left-freeness", (s.left.arrows[g], s.carrier[x]))
    for p in range(s.right.n_objects):
        fiber = s.j2_fiber(p)
        for x in fiber:
            for y in fiber:
                if not any(s.left_act.get((g, x)) == y for g in s.left.s_fiber(s.j1[x])):
                    left_ok = False
                    witnesses.setdefault("left-transitivity", (s.carrier[x], s.carrier[y]))
    right_ok = True
    missing = [p for p in range(s.left.n_objects) if not s.j1_fiber(p)]
    if missing:
        right_ok = False
        witnesses["right-surjectivity"] = s.left.objects[missing[0]]
    for x in range(len(s.carrier)):
        for g in s.right.t_fiber(s.j2[x]):
            if s.right_act.get((x, g)) == x and g != s.right.unit[s.j2[x]]:
                right_ok = False
                witnesses.setdefault("right-freeness", (s.carrier[x], s.right.arrows[g]))
    for p in range(s.left.n_objects):
        fiber = s.j1_fiber(p)
        for x in fiber:
            for y in fiber:
                if not any(s.right_act.get((x, g)) == y for g in s.right.t_fiber(s.j2[x])):
                    right_ok = False
                    witnesses.setdefault("right-transitivity", (s.carrier[x], s.carrier[y]))
    return PrincipalityReport(left_ok, right_ok, witnesses)


def reference_tensor(s: Bibundle, s2: Bibundle) -> Bibundle:
    """``tensor`` through the action dicts and the ``_roots`` union-find."""
    if s.right != s2.left:
        raise MiddleMismatch("middle groupoids differ")
    if not reference_principality(s).left_principal:
        raise NotLeftPrincipal("first factor is not left principal")
    if not reference_principality(s2).left_principal:
        raise NotLeftPrincipal("second factor is not left principal")
    mid = s.right
    pairs = [(x, y) for x in range(len(s.carrier)) for y in range(len(s2.carrier))
             if s.j2[x] == s2.j1[y]]
    pos = {p: i for i, p in enumerate(pairs)}
    moves = ((pos[(x, y)], pos[(s.right_act[(x, g)], s2.left_act[(mid.inv[g], y)])])
             for (x, y) in pairs for g in mid.t_fiber(s.j2[x]))
    roots = _roots(len(pairs), moves)

    def rep(x, y):
        return pairs[roots[pos[(x, y)]]]

    classes = sorted({rep(x, y) for (x, y) in pairs})

    def name(p):
        x, y = p
        return f"[{s.carrier[x]}*{s2.carrier[y]}]"

    carrier = [name(p) for p in classes]
    j1 = {name(p): s.left.objects[s.j1[p[0]]] for p in classes}
    j2 = {name(p): s2.right.objects[s2.j2[p[1]]] for p in classes}
    left_act, right_act = {}, {}
    for p in classes:
        x, y = p
        for g in s.left.s_fiber(s.j1[x]):
            left_act[(s.left.arrows[g], name(p))] = name(rep(s.left_act[(g, x)], y))
        for g in s2.right.t_fiber(s2.j2[y]):
            right_act[(name(p), s2.right.arrows[g])] = name(rep(x, s2.right_act[(y, g)]))
    return Bibundle(s.left, s2.right, carrier, j1, j2, left_act, right_act)


def reference_cayley(items, mul, key, prefix: str) -> FiniteGroup:
    """``groups._cayley`` as a loop over items: ``key(mul(x, y))`` per cell."""
    index = {key(x): i for i, x in enumerate(items)}
    table = [[index[key(mul(x, y))] for y in items] for x in items]
    names = [f"{prefix}{i:03d}" for i in range(len(items))]
    return FiniteGroup(names, table, payload=items)


def reference_row_cayley(items, rows, prefix: str) -> FiniteGroup:
    """``groups._cayley`` with every row searched: one ``searchsorted`` of
    the n products ``row[rows]`` of x over the row keys, for each x in
    index order."""
    rows = np.asarray(rows, dtype=np.intp)
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    table = []
    for x, row in enumerate(rows):
        products = row[rows]
        at = np.searchsorted(sorted_keys, _row_keys(products))
        found = order[np.minimum(at, len(items) - 1)]
        missing = np.nonzero((rows[found] != products).any(axis=1))[0]
        if len(missing):
            raise KeyError(f"product of {prefix}{x:03d} and "
                           f"{prefix}{missing[0]:03d} is not among the items")
        table.append(found.tolist())
    names = [f"{prefix}{i:03d}" for i in range(len(items))]
    return FiniteGroup(names, table, payload=items)


class DictGroupoid(FiniteGroupoid):
    """``FiniteGroupoid`` built through the dict of composites, as a load
    oracle: every id is re-keyed one at a time into ``comp``, and the
    dense table is scattered from that dict."""

    def __init__(self, objects, arrows, src, tgt, unit, inv, comp):
        self.objects = tuple(sorted(str(x) for x in objects))
        self.arrows = tuple(sorted(str(a) for a in arrows))
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.arr_index = {a: i for i, a in enumerate(self.arrows)}

        def oi(x):
            try:
                return self.obj_index[x]
            except KeyError:
                raise ValueError(f"unknown object id {x!r}") from None

        def ai(a):
            try:
                return self.arr_index[a]
            except KeyError:
                raise ValueError(f"unknown arrow id {a!r}") from None

        try:
            self.src = tuple(oi(src[a]) for a in self.arrows)
            self.tgt = tuple(oi(tgt[a]) for a in self.arrows)
            self.unit = tuple(ai(unit[x]) for x in self.objects)
            self.inv = tuple(ai(inv[a]) for a in self.arrows)
        except KeyError as exc:
            raise ValueError(f"structure map missing entry: {exc}") from None
        self.comp = {(ai(g), ai(h)): ai(k) for (g, h), k in comp.items()}
        self._hom = {}
        for i in range(len(self.arrows)):
            self._hom.setdefault((self.src[i], self.tgt[i]), []).append(i)
        self._s_fiber = [[] for _ in self.objects]
        self._t_fiber = [[] for _ in self.objects]
        for i in range(len(self.arrows)):
            self._s_fiber[self.src[i]].append(i)
            self._t_fiber[self.tgt[i]].append(i)
        self._isotropy = {}
        m = len(self.arrows)
        self._table = np.full((m + 1, m + 1), m, dtype=np.intp)
        for (i, j), k in self.comp.items():
            self._table[i, j] = k


def reference_groupoid_from_dict(data) -> DictGroupoid:
    """``io.groupoid_from_dict`` of an explicit table, through the id dict."""
    arrows = [a["id"] for a in data["arrows"]]
    src = {a["id"]: a["src"] for a in data["arrows"]}
    tgt = {a["id"]: a["tgt"] for a in data["arrows"]}
    comp = {(g, h): k for g, h, k in data["comp"]}
    return DictGroupoid(data["objects"], arrows, src, tgt,
                        data["units"], data["inv"], comp)


class DictBibundle(Bibundle):
    """``Bibundle`` built through index-keyed action dicts, as a load
    oracle: every id is looked up one at a time into ``left_act`` and
    ``right_act``, whose insertion order gives the rows, and the dense
    tables are filled from those dicts in a loop."""

    def __init__(self, left, right, carrier, j1, j2, left_act, right_act):
        self.left = left
        self.right = right
        self.carrier = tuple(sorted(str(x) for x in carrier))
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("duplicate carrier ids")
        self.car_index = {x: i for i, x in enumerate(self.carrier)}

        def ci(x):
            try:
                return self.car_index[x]
            except KeyError:
                raise ValueError(f"unknown carrier id {x!r}") from None

        try:
            self.j1 = tuple(left.obj_index[j1[x]] for x in self.carrier)
            self.j2 = tuple(right.obj_index[j2[x]] for x in self.carrier)
        except KeyError as exc:
            raise ValueError(f"moment missing entry: {exc}") from None
        try:  # ci raises ValueError, so a KeyError is an arrow lookup
            self.left_act = {(left.arr_index[g], ci(x)): ci(y)
                             for (g, x), y in left_act.items()}
            self.right_act = {(ci(x), right.arr_index[g]): ci(y)
                              for (x, g), y in right_act.items()}
        except KeyError as exc:
            raise ValueError(f"unknown arrow id {exc.args[0]!r}") from None
        self._rows = tuple(np.array([(*key, y) for key, y in act.items()],
                                    dtype=np.intp).reshape(-1, 3)
                           for act in (self.left_act, self.right_act))
        n = len(self.carrier)
        tables = (np.full((left.n_arrows + 1, n + 1), n, dtype=np.intp),
                  np.full((n + 1, right.n_arrows + 1), n, dtype=np.intp))
        for table, act in zip(tables, (self.left_act, self.right_act)):
            for (i, j), k in act.items():
                table[i, j] = k
        self._tables = tables


def reference_bibundle_from_dict(data) -> DictBibundle:
    """``io.bibundle_from_dict`` of a document with nested groupoids, through
    the id-keyed action dicts."""
    left_act = {(g, x): y for g, x, y in data["leftAct"]}
    right_act = {(x, g): y for x, g, y in data["rightAct"]}
    return DictBibundle(groupoid_from_dict(data["left"]), groupoid_from_dict(data["right"]),
                        [str(x) for x in data["carrier"]], data["J1"], data["J2"],
                        left_act, right_act)


def reference_identity_bibundle(g: FiniteGroupoid) -> DictBibundle:
    """``identity_bibundle`` through id-keyed dicts of the composites."""
    j1 = {a: g.objects[g.tgt[i]] for i, a in enumerate(g.arrows)}
    j2 = {a: g.objects[g.src[i]] for i, a in enumerate(g.arrows)}
    act = {(g.arrows[i], g.arrows[j]): g.arrows[k] for (i, j), k in g.comp.items()}
    return DictBibundle(g, g, g.arrows, j1, j2, act, act)


def reference_from_homomorphism(hom: GroupoidHom) -> DictBibundle:
    """``from_homomorphism`` as a loop over named points, through id-keyed dicts."""
    if not hom.is_functor():
        raise NotFunctor("arrow maps do not form a functor")
    tgt_g, src_g = hom.target, hom.source
    comp = tgt_g.comp

    def name(g, y):
        return f"({tgt_g.arrows[g]},{src_g.objects[y]})"

    points = [(g, y) for y in range(src_g.n_objects)
              for g in tgt_g.s_fiber(hom.obj_map[y])]
    carrier = [name(g, y) for g, y in points]
    j1 = {name(g, y): tgt_g.objects[tgt_g.tgt[g]] for g, y in points}
    j2 = {name(g, y): src_g.objects[y] for g, y in points}
    left_act, right_act = {}, {}
    for g, y in points:
        for g1 in tgt_g.s_fiber(tgt_g.tgt[g]):
            left_act[(tgt_g.arrows[g1], name(g, y))] = name(comp[(g1, g)], y)
        for g2 in src_g.t_fiber(y):
            composed = comp[(g, hom.arr_map[g2])]
            right_act[(name(g, y), src_g.arrows[g2])] = name(composed, src_g.src[g2])
    return DictBibundle(tgt_g, src_g, carrier, j1, j2, left_act, right_act)


def reference_lemma_section_check(s: Bibundle):
    """``picard.lemma_section_check`` with lookups in the action dicts."""
    if s.left != s.right:
        raise ValueError("need a self-bibundle")
    g = s.left
    if not principality(s).biprincipal:
        raise ValueError("need a biprincipal bibundle")
    fibers = [sorted(s.j2_fiber(p), key=lambda x: (0 if s.j1[x] == p else 1, x))
              for p in range(g.n_objects)]
    sigma = next(_injective(fibers, lambda x: s.j1[x]), None)
    if sigma is None:
        return None
    arr_map = []
    for h in range(g.n_arrows):
        target = s.right_act[(sigma[g.tgt[h]], h)]
        base = sigma[g.src[h]]
        image = next((c for c in g.s_fiber(s.j1[base])
                      if s.left_act.get((c, base)) == target), None)
        if image is None:
            raise MoritaKitError("left action is not transitive along the section")
        arr_map.append(image)
    phi = GroupoidHom(g, g, tuple(s.j1[sigma[p]] for p in range(g.n_objects)),
                      tuple(arr_map))
    if not phi.is_functor() or not phi.is_bijective():
        raise MoritaKitError("section did not induce an automorphism")
    return {g.objects[p]: s.carrier[sigma[p]] for p in range(g.n_objects)}, phi


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
# bibundle isomorphism as a hand-written matcher

def reference_bibundle_isomorphic(s1: Bibundle, s2: Bibundle):
    """``bibundle_isomorphic`` as a hand-written matcher, for differential tests.

    Backtracks over the two-sided orbits of the carrier, seeded by moment
    fibre profiles and propagated through both actions.
    """
    if s1.left != s2.left or s1.right != s2.right:
        raise ValueError("bibundles live over different groupoid pairs")
    n = len(s1.carrier)
    if n != len(s2.carrier):
        return None
    prof1 = sorted(zip(s1.j1, s1.j2))
    prof2 = sorted(zip(s2.j1, s2.j2))
    if prof1 != prof2:
        return None
    if len(s1.left_act) != len(s2.left_act) or len(s1.right_act) != len(s2.right_act):
        return None

    # two-sided components of s1
    moves = [(x, y) for (g, x), y in s1.left_act.items()]
    moves += [(x, y) for (x, g), y in s1.right_act.items()]
    comp_of = {}
    for x, root in enumerate(_roots(n, moves)):
        comp_of.setdefault(root, []).append(x)
    components = [comp_of[r] for r in sorted(comp_of)]

    def propagate(pivot, image, mapping):
        # BFS through both actions; returns the extended mapping or None
        stack = [pivot]
        mapping = dict(mapping)
        if s1.j1[pivot] != s2.j1[image] or s1.j2[pivot] != s2.j2[image]:
            return None
        mapping[pivot] = image
        while stack:
            x = stack.pop()
            fx = mapping[x]
            for g in s1.left.s_fiber(s1.j1[x]):
                y = s1.left_act[(g, x)]
                fy = s2.left_act.get((g, fx))
                if fy is None:
                    return None
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    stack.append(y)
            for g in s1.right.t_fiber(s1.j2[x]):
                y = s1.right_act[(x, g)]
                fy = s2.right_act.get((fx, g))
                if fy is None:
                    return None
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    stack.append(y)
        return mapping

    def verify(mapping):
        if len(set(mapping.values())) != n:
            return False
        for (g, x), y in s1.left_act.items():
            if s2.left_act.get((g, mapping[x])) != mapping[y]:
                return False
        for (x, g), y in s1.right_act.items():
            if s2.right_act.get((mapping[x], g)) != mapping[y]:
                return False
        return True

    def search(k, mapping):
        if k == len(components):
            if verify(mapping):
                return mapping
            return None
        pivot = components[k][0]
        used = set(mapping.values())
        for image in range(n):
            if image in used:
                continue
            extended = propagate(pivot, image, mapping)
            if extended is None:
                continue
            result = search(k + 1, extended)
            if result is not None:
                return result
        return None

    mapping = search(0, {})
    if mapping is None:
        return None
    return {s1.carrier[x]: s2.carrier[y] for x, y in mapping.items()}


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


def reference_tss_isomorphisms(g1: LabeledSurfaceGraph, g2: LabeledSurfaceGraph,
                               tol: float):
    """``tss._isomorphisms`` without pruning: every signature-respecting
    vertex bijection, checked at the leaf by ``_edge_bijection``."""
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return
    exact = tol == 0
    sig1 = [_vertex_signature(g1, v, exact) for v in range(g1.n_vertices)]
    sig2 = [_vertex_signature(g2, v, exact) for v in range(g2.n_vertices)]
    if sorted(sig1) != sorted(sig2):
        return
    candidates = [[w for w in range(g2.n_vertices) if sig2[w] == sig1[v]]
                  for v in range(g1.n_vertices)]
    order = sorted(range(g1.n_vertices), key=lambda v: len(candidates[v]))
    groups1, groups2 = _edge_groups(g1), _edge_groups(g2)
    vmap = [None] * g1.n_vertices
    for images in _injective([candidates[v] for v in order], lambda w: w):
        for v, w in zip(order, images):
            vmap[v] = w
        emap = _edge_bijection(g1, g2, groups1, groups2, tuple(vmap), tol)
        if emap is not None:
            yield TssIsomorphism(tuple(vmap), emap)


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


# ---------------------------------------------------------------------------
# the witness path as plain loops over the id dicts, kept as oracles

def reference_groupoid_to_dict(g: FiniteGroupoid) -> dict:
    """``io.groupoid_to_dict`` through the sorted composition dict."""
    return {
        "objects": list(g.objects),
        "arrows": [{"id": a, "src": g.objects[g.src[i]], "tgt": g.objects[g.tgt[i]]}
                   for i, a in enumerate(g.arrows)],
        "comp": [[g.arrows[i], g.arrows[j], g.arrows[k]]
                 for (i, j), k in sorted(g.comp.items())],
        "units": {x: g.arrows[g.unit[i]] for i, x in enumerate(g.objects)},
        "inv": {a: g.arrows[g.inv[i]] for i, a in enumerate(g.arrows)},
    }


def reference_bibundle_to_dict(s: Bibundle) -> dict:
    """``io.bibundle_to_dict`` through ``as_dicts`` and sorted actions."""
    j1, j2, left_act, right_act = s.as_dicts()
    return {
        "left": reference_groupoid_to_dict(s.left),
        "right": reference_groupoid_to_dict(s.right),
        "carrier": list(s.carrier),
        "J1": j1,
        "J2": j2,
        "leftAct": [[g, x, y] for (g, x), y in sorted(left_act.items())],
        "rightAct": [[x, g, y] for (x, g), y in sorted(right_act.items())],
    }


def same_bibundle(s, t):
    """Equal carriers, moments and actions, the actions in the same order."""
    return (s.left is t.left and s.right is t.right and s.carrier == t.carrier
            and s.j1 == t.j1 and s.j2 == t.j2
            and list(s.left_act.items()) == list(t.left_act.items())
            and list(s.right_act.items()) == list(t.right_act.items()))


def reference_morita_equivalent(g1: FiniteGroupoid, g2: FiniteGroupoid):
    """``morita_equivalent`` with each orbit pair glued by a loop over pairs."""
    blocks1, blocks2 = orbit_partition(g1), orbit_partition(g2)
    if len(blocks1) != len(blocks2):
        return None
    iso1 = [isotropy(g1, g1.objects[b[0]]) for b in blocks1]
    iso2 = [isotropy(g2, g2.objects[b[0]]) for b in blocks2]
    candidates = []
    for h1 in iso1:
        row = [(j, theta) for j, h2 in enumerate(iso2)
               if (theta := group_isomorphic(h2, h1)) is not None]
        if not row:
            return None
        candidates.append(row)
    matching = next(_injective(candidates, lambda c: c[0]), None)
    if matching is None:
        return None
    carrier, j1, j2, left_act, right_act = [], {}, {}, {}, {}
    for i, (j, theta) in enumerate(matching):
        _reference_glue_orbit_pair(g1, blocks1[i], g2, blocks2[j], iso1[i], iso2[j],
                                   theta, carrier, j1, j2, left_act, right_act)
    return Bibundle(g1, g2, carrier, j1, j2, left_act, right_act)


def _reference_glue_orbit_pair(g1, block1, g2, block2, h1, h2, theta,
                               carrier, j1, j2, left_act, right_act):
    """One orbit pair of the Morita witness: (E1 x E2)/H2, H2 glued by theta.

    E1, E2 are the source fibres at the basepoints; the diagonal action is
    (e1, e2) . h = (e1 theta(h), e2 h) and classes keep the smallest pair.
    """
    x1, x2 = block1[0], block2[0]
    e1_arrows = g1.s_fiber(x1)
    e2_arrows = g2.s_fiber(x2)
    h2_arrows = [g2.arr_index[e] for e in h2.elements]
    theta_arrow = {h2_arrows[k]: g1.arr_index[h1.elements[theta[k]]]
                   for k in range(len(h2))}

    def rep(e1, e2):
        return min((g1.comp[(e1, theta_arrow[h])], g2.comp[(e2, h)])
                   for h in h2_arrows)

    classes = {}
    for e1 in e1_arrows:
        for e2 in e2_arrows:
            classes[(e1, e2)] = rep(e1, e2)
    reps = sorted(set(classes.values()))

    def name(p):
        return f"[{g1.arrows[p[0]]}*{g2.arrows[p[1]]}]"

    for p in reps:
        e1, e2 = p
        carrier.append(name(p))
        j1[name(p)] = g1.objects[g1.tgt[e1]]
        j2[name(p)] = g2.objects[g2.tgt[e2]]
    for p in reps:
        e1, e2 = p
        for g in g1.s_fiber(g1.tgt[e1]):
            left_act[(g1.arrows[g], name(p))] = name(classes[(g1.comp[(g, e1)], e2)])
        for g in g2.t_fiber(g2.tgt[e2]):
            moved = g2.comp[(g2.inv[g], e2)]
            right_act[(name(p), g2.arrows[g])] = name(classes[(e1, moved)])


def equiv_morita_pairs() -> list[tuple[str, FiniteGroupoid, FiniteGroupoid]]:
    """The two Morita-equivalent pairs of the benchmark's equiv workload."""
    s3, s4, z4 = symmetric_group(3), symmetric_group(4), cyclic_group(4)
    return [("S4 on 4 points ~ S4 on 2 points", gauge_over(s4, 4), gauge_over(s4, 2)),
            ("S3/3 + Z4/2 ~ Z4/4 + S3/2",
             disjoint_union(gauge_over(s3, 3), gauge_over(z4, 2)),
             disjoint_union(gauge_over(z4, 4), gauge_over(s3, 2)))]


def reference_locate_inverses(group: FiniteGroup):
    """``FiniteGroup._locate_inverses`` as a loop over all pairs."""
    if group.identity is None:
        return None
    n = len(group.elements)
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if group.table[a][b] == group.identity == group.table[b][a]:
                inv[a] = b
                break
    return None if any(v is None for v in inv) else tuple(inv)


# ---------------------------------------------------------------------------
# groups built as tuples of tuples, with the plain loops over them

class TupleGroup:
    """``FiniteGroup`` as it was built from tuples of Python ints, with
    the identity, inverses, orders and centre found by loops over them."""

    def __init__(self, elements, table, payload=None):
        self.elements = tuple(str(e) for e in elements)
        self.table = tuple(tuple(map(int, row)) for row in table)
        self.payload = tuple(payload) if payload is not None else None
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element ids")
        n = len(self.elements)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table shape does not match element count")
        if self.payload is not None and len(self.payload) != n:
            raise ValueError("payload length does not match element count")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = self._locate_identity()
        self.inverse = self._locate_inverses()

    def __len__(self):
        return len(self.elements)

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def _locate_identity(self):
        n = len(self.elements)
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                return e
        return None

    def _locate_inverses(self):
        if self.identity is None:
            return None
        e, table = self.identity, self.table
        inv = []
        for a, row in enumerate(table):
            # the first b with ab = e = ba: scan past one-sided hits
            b = -1
            try:
                while True:
                    b = row.index(e, b + 1)
                    if table[b][a] == e:
                        break
            except ValueError:
                return None
            inv.append(b)
        return tuple(inv)

    def element_order(self, i: int) -> int:
        e, x, k = self.identity, i, 1
        while x != e:
            if k == len(self.elements):
                raise ValueError(f"element {self.elements[i]!r} has no order "
                                 "up to the group size (table not a group)")
            x = self.table[x][i]
            k += 1
        return k

    def center(self) -> tuple[int, ...]:
        n = len(self.elements)
        return tuple(z for z in range(n)
                     if all(self.table[z][x] == self.table[x][z] for x in range(n)))

    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(i) for i in range(len(self))))

    def as_dict(self):
        table = np.array(self.table, dtype=np.intp).reshape(len(self), len(self))
        d = {"elements": list(self.elements), "table": Rows(table, range(len(self)))}
        if self.identity is not None:
            d["identity"] = self.elements[self.identity]
        return plain(d)


def reference_validate_group(g) -> ValidationReport:
    report = ValidationReport()
    n = len(g.elements)
    names = g.elements
    for i, row in enumerate(g.table):
        for j, v in enumerate(row):
            if not 0 <= v < n:
                report.add("closure", names[i], names[j])
    if report.violations:
        return report
    for i, j, k in product(range(n), repeat=3):
        if g.table[g.table[i][j]][k] != g.table[i][g.table[j][k]]:
            report.add("associativity", names[i], names[j], names[k])
    if g.identity is None:
        report.add("identity")
    elif g.inverse is None:
        for a in range(n):
            if not any(g.table[a][b] == g.identity == g.table[b][a] for b in range(n)):
                report.add("inverses", names[a])
    return report


def reference_subgroup(g, indices) -> TupleGroup:
    idx = sorted(set(indices))
    pos = {v: i for i, v in enumerate(idx)}
    table = []
    for a in idx:
        row = []
        for b in idx:
            v = g.table[a][b]
            if v not in pos:
                raise ValueError("subset is not closed under the product")
            row.append(pos[v])
        table.append(row)
    payload = [g.payload[a] for a in idx] if g.payload is not None else None
    return TupleGroup([g.elements[a] for a in idx], table, payload)


def reference_generated_closure(g, seed) -> set[int]:
    """The elements that products of the identity and ``seed`` reach."""
    done = {g.identity} | set(seed)
    frontier = list(done)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(done):
                for c in (g.table[a][b], g.table[b][a]):
                    if c not in done:
                        done.add(c)
                        nxt.append(c)
        frontier = nxt
    return done


def reference_generating_sequence(g) -> list[int]:
    """Each element in index order that the ones before it do not generate."""
    gens, closure = [], {g.identity}
    for x in range(len(g)):
        if x not in closure:
            gens.append(x)
            closure = reference_generated_closure(g, gens)
    return gens


def reference_quotient_group(g, normal):
    normal = frozenset(normal)
    for a in range(len(g)):
        ai = g.inv(a)
        for n in normal:
            if g.table[g.table[a][n]][ai] not in normal:
                raise ValueError("subgroup is not normal")
    seen, cosets = {}, []
    for a in range(len(g)):
        if a in seen:
            continue
        coset = frozenset(g.table[a][x] for x in normal)
        rep = min(coset)
        for b in coset:
            seen[b] = len(cosets)
        cosets.append((rep, coset))
    cosets.sort(key=lambda rc: rc[0])
    coset_of = {}
    for i, (_, coset) in enumerate(cosets):
        for b in coset:
            coset_of[b] = i
    reps = tuple(rep for rep, _ in cosets)
    table = [[coset_of[g.table[ra][rb]] for rb in reps] for ra in reps]
    names = [f"[{g.elements[r]}]" for r in reps]
    payload = [g.payload[r] for r in reps] if g.payload is not None else None
    return TupleGroup(names, table, payload), reps
