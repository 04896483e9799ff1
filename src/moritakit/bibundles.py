"""Bibundles: finite sets with commuting left/right groupoid actions.

A ``Bibundle`` is the generalized morphism between two finite groupoids:
the left groupoid acts along the moment ``j1``, the right one along
``j2``.  Left-principal bibundles compose by the fibre-product-modulo-
middle-action tensor, and biprincipal ones witness Morita equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._search import _injective, _roots
from .errors import MiddleMismatch, NotFunctor, NotLeftPrincipal
from .groups import group_isomorphic
from .groupoids import (FiniteGroupoid, GroupoidHom, isotropy, orbit_partition,
                        orbits)
from .report import ValidationReport


class Bibundle:
    """Carrier set with moments and partial actions, all id-addressed.

    ``left_act`` is defined exactly on pairs ``(g, x)`` with
    ``s(g) == j1(x)`` and ``right_act`` exactly on ``(x, g)`` with
    ``j2(x) == t(g)``; ``validate_bibundle`` reports deviations instead
    of refusing to construct.
    """

    def __init__(self, left: FiniteGroupoid, right: FiniteGroupoid,
                 carrier, j1, j2, left_act, right_act):
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
        self.left_act = {(left.arr_index[g], ci(x)): ci(y)
                         for (g, x), y in left_act.items()}
        self.right_act = {(ci(x), right.arr_index[g]): ci(y)
                          for (x, g), y in right_act.items()}

    def __repr__(self):
        return f"Bibundle(carrier={len(self.carrier)})"

    def j2_fiber(self, p: int) -> list[int]:
        return [x for x in range(len(self.carrier)) if self.j2[x] == p]

    def j1_fiber(self, p: int) -> list[int]:
        return [x for x in range(len(self.carrier)) if self.j1[x] == p]

    def as_dicts(self):
        left_act = {(self.left.arrows[g], self.carrier[x]): self.carrier[y]
                    for (g, x), y in self.left_act.items()}
        right_act = {(self.carrier[x], self.right.arrows[g]): self.carrier[y]
                     for (x, g), y in self.right_act.items()}
        j1 = {x: self.left.objects[self.j1[i]] for i, x in enumerate(self.carrier)}
        j2 = {x: self.right.objects[self.j2[i]] for i, x in enumerate(self.carrier)}
        return j1, j2, left_act, right_act


@dataclass
class PrincipalityReport:
    left_principal: bool
    right_principal: bool
    witnesses: dict

    @property
    def biprincipal(self) -> bool:
        return self.left_principal and self.right_principal


def validate_bibundle(s: Bibundle) -> ValidationReport:
    """Check moments, action domains, action axioms and commutation."""
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


def principality(s: Bibundle) -> PrincipalityReport:
    """Freeness/transitivity of each action on the other moment's fibres."""
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


def identity_bibundle(g: FiniteGroupoid) -> Bibundle:
    """The groupoid acting on its own arrows by left/right multiplication."""
    j1 = {a: g.objects[g.tgt[i]] for i, a in enumerate(g.arrows)}
    j2 = {a: g.objects[g.src[i]] for i, a in enumerate(g.arrows)}
    left_act, right_act = {}, {}
    for (i, j), k in g.comp.items():
        left_act[(g.arrows[i], g.arrows[j])] = g.arrows[k]
        right_act[(g.arrows[i], g.arrows[j])] = g.arrows[k]
    return Bibundle(g, g, g.arrows, j1, j2, left_act, right_act)


def from_homomorphism(hom: GroupoidHom) -> Bibundle:
    """Left-principal bibundle of a functor: pairs (g, y) with s(g) = hom(y).

    The left groupoid is the functor's target, the right one its source;
    the left action is by composition, the right action twists through
    the functor.
    """
    if not hom.is_functor():
        raise NotFunctor("arrow maps do not form a functor")
    tgt_g, src_g = hom.target, hom.source

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
            left_act[(tgt_g.arrows[g1], name(g, y))] = name(tgt_g.comp[(g1, g)], y)
        for g2 in src_g.t_fiber(y):
            composed = tgt_g.comp[(g, hom.arr_map[g2])]
            right_act[(name(g, y), src_g.arrows[g2])] = name(composed, src_g.src[g2])
    return Bibundle(tgt_g, src_g, carrier, j1, j2, left_act, right_act)


def tensor(s: Bibundle, s2: Bibundle) -> Bibundle:
    """Tensor product over the middle groupoid.

    Carrier classes are pairs (x, y) with matching middle moments, modulo
    (x.g, y) ~ (x, g.y); class representatives are the lexicographically
    smallest pairs and the id spells the representative.
    """
    if s.right != s2.left:
        raise MiddleMismatch("middle groupoids differ")
    if not principality(s).left_principal:
        raise NotLeftPrincipal("first factor is not left principal")
    if not principality(s2).left_principal:
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


def bibundle_isomorphic(s1: Bibundle, s2: Bibundle):
    """An equivariant moment-preserving bijection of carriers, or None.

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


def induced_orbit_map(s: Bibundle) -> dict:
    """Orbit-space map of a left-principal bibundle (right orbits to left).

    Returned as a dict from right-orbit blocks to left-orbit blocks (blocks
    are the id tuples produced by ``orbits``); ``orbit_permutation`` is
    its block-index form.
    """
    if not principality(s).left_principal:
        raise NotLeftPrincipal("orbit map needs a left-principal bibundle")
    left_blocks, right_blocks = orbits(s.left), orbits(s.right)
    return {right_blocks[rb]: left_blocks[lb]
            for rb, lb in enumerate(orbit_permutation(s))}


def orbit_permutation(s: Bibundle) -> tuple[int, ...]:
    """Block-index form of ``induced_orbit_map`` for a self-bibundle.

    Entry ``rb`` is the left-orbit block of the first carrier point over
    right-orbit block ``rb``.
    """
    left_blocks, right_blocks = orbit_partition(s.left), orbit_partition(s.right)
    left_block_of = {x: b for b, block in enumerate(left_blocks) for x in block}
    right_block_of = {x: b for b, block in enumerate(right_blocks) for x in block}
    perm = [None] * len(right_blocks)
    for x in range(len(s.carrier)):
        rb = right_block_of[s.j2[x]]
        if perm[rb] is None:
            perm[rb] = left_block_of[s.j1[x]]
    return tuple(perm)


def morita_equivalent(g1: FiniteGroupoid, g2: FiniteGroupoid) -> Bibundle | None:
    """A biprincipal (g1, g2)-bibundle, or None.

    Decision: match orbits bijectively so that corresponding isotropy
    groups are isomorphic; the witness is assembled orbitwise from source
    fibres at basepoints, glued along a chosen isotropy isomorphism.
    """
    blocks1, blocks2 = orbit_partition(g1), orbit_partition(g2)
    if len(blocks1) != len(blocks2):
        return None
    iso1 = [isotropy(g1, g1.objects[b[0]]) for b in blocks1]
    iso2 = [isotropy(g2, g2.objects[b[0]]) for b in blocks2]

    candidates = []
    for i, h1 in enumerate(iso1):
        row = []
        for j, h2 in enumerate(iso2):
            theta = group_isomorphic(h2, h1)
            if theta is not None:
                row.append((j, theta))
        if not row:
            return None
        candidates.append(row)

    matching = next(_injective(candidates, lambda c: c[0]), None)
    if matching is None:
        return None

    carrier, j1, j2, left_act, right_act = [], {}, {}, {}, {}
    for i, (j, theta) in enumerate(matching):
        _glue_orbit_pair(g1, blocks1[i], g2, blocks2[j], iso1[i], iso2[j], theta,
                         carrier, j1, j2, left_act, right_act)
    return Bibundle(g1, g2, carrier, j1, j2, left_act, right_act)


def _glue_orbit_pair(g1, block1, g2, block2, h1, h2, theta,
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
    return carrier
