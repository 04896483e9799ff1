"""Topologically stable Poisson structures on surfaces, as labeled graphs.

A structure is encoded by an oriented multigraph: one vertex per
two-dimensional leaf (labeled by its genus), one edge per zero curve
(labeled by its modular period), the edge pointing toward the side where
the structure is positive.  Loops and parallel edges are allowed.  An
optional regularized volume completes the invariants for the Poisson
isomorphism test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from ._search import _injective, _roots
from .errors import InconsistentTopology, MissingVolume
from .groups import FiniteGroup, _cayley, _index_rows
from .report import ValidationReport


class LabeledSurfaceGraph:
    """Oriented labeled multigraph; vertices and edges canonically ordered.

    Edges are stored as (tail index, head index, period) triples sorted
    lexicographically, so edge indices are stable under reconstruction.
    """

    def __init__(self, vertices, genus, edges, volume=None):
        self.vertices = tuple(sorted(str(v) for v in vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.v_index = {v: i for i, v in enumerate(self.vertices)}
        try:
            self.genus = tuple(int(genus[v]) for v in self.vertices)
        except KeyError as exc:
            raise ValueError(f"genus missing for vertex {exc}") from None
        try:
            canon = sorted((self.v_index[t], self.v_index[h], float(p))
                           for (t, h, p) in edges)
        except KeyError as exc:
            raise ValueError(f"edge endpoint unknown: {exc}") from None
        self.edges = tuple(canon)
        self.volume = None if volume is None else float(volume)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Boundary-circle count of the leaf: loops count twice."""
        return sum((t == v) + (h == v) for (t, h, _) in self.edges)

    def euler_characteristic(self) -> int:
        return sum(2 - 2 * self.genus[v] - self.degree(v)
                   for v in range(self.n_vertices))

    def reversed_orientation(self) -> "LabeledSurfaceGraph":
        """The same graph with every edge flipped (a non-invariant extra)."""
        genus = {v: self.genus[i] for i, v in enumerate(self.vertices)}
        edges = [(self.vertices[h], self.vertices[t], p) for (t, h, p) in self.edges]
        return LabeledSurfaceGraph(self.vertices, genus, edges, self.volume)

    def __repr__(self):
        return (f"LabeledSurfaceGraph(vertices={self.n_vertices}, "
                f"edges={self.n_edges})")


@dataclass(frozen=True)
class TssIsomorphism:
    """A vertex bijection plus an edge bijection, both index-level."""

    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]

    def compose(self, other: "TssIsomorphism") -> "TssIsomorphism":
        """self after other (other maps A->B, self maps B->C)."""
        return TssIsomorphism(
            tuple(self.vertex_map[v] for v in other.vertex_map),
            tuple(self.edge_map[e] for e in other.edge_map))


@dataclass(frozen=True)
class PicardIngredients:
    """The three structural pieces the Picard group of a TSS is built from."""

    graph_aut: FiniteGroup
    torus_rank: int
    leaf_descriptors: tuple[tuple[int, int], ...]  # (genus, boundary count)


def validate_tss(g: LabeledSurfaceGraph) -> ValidationReport:
    report = ValidationReport()
    if g.n_vertices == 0:
        report.add("nonempty")
        return report
    if len(set(_roots(g.n_vertices, ((t, h) for t, h, _ in g.edges)))) > 1:
        report.add("connected")
    for t, h, p in g.edges:
        if not p > 0:
            report.add("period-positive", g.vertices[t], g.vertices[h], p)
        elif p == math.inf:
            report.add("period-finite", g.vertices[t], g.vertices[h], p)
    for v in range(g.n_vertices):
        if g.genus[v] < 0:
            report.add("genus-nonnegative", g.vertices[v])
    chi = g.euler_characteristic()
    if chi % 2 != 0:
        report.add("euler-even", chi)
    elif chi > 2:
        report.add("euler-at-most-2", chi)
    if g.volume is not None and not math.isfinite(g.volume):
        report.add("volume-finite", g.volume)
    return report


def surface_genus(g: LabeledSurfaceGraph) -> int:
    """Genus of the closed surface, recovered from Euler characteristic.

    Zero curves contribute no Euler characteristic, so chi is the sum of
    the open-leaf contributions 2 - 2 genus - boundary count.
    """
    chi = g.euler_characteristic()
    if chi % 2 != 0 or chi > 2:
        raise InconsistentTopology(f"Euler characteristic {chi} is not that "
                                   "of a closed oriented surface")
    return (2 - chi) // 2


# ---------------------------------------------------------------------------
# labeled-graph isomorphism

def _edge_groups(g: LabeledSurfaceGraph) -> dict:
    """Edge indices per ordered vertex pair, each list in period order."""
    groups = {}
    for i, (t, h, p) in enumerate(g.edges):
        groups.setdefault((t, h), []).append(i)
    return {pair: sorted(idxs, key=lambda i: g.edges[i][2])
            for pair, idxs in groups.items()}


def _vertex_signature(g: LabeledSurfaceGraph, v: int, exact_periods: bool):
    out = sorted(p for (t, h, p) in g.edges if t == v)
    inc = sorted(p for (t, h, p) in g.edges if h == v)
    loops = sum(1 for (t, h, _) in g.edges if t == h == v)
    if exact_periods:
        return (g.genus[v], len(out), len(inc), loops, tuple(out), tuple(inc))
    return (g.genus[v], len(out), len(inc), loops)


def _edge_bijection(g1, g2, groups1, groups2, vmap, tol):
    """Edge map induced by a vertex bijection, or None.

    ``groups1`` and ``groups2`` are the graphs' ``_edge_groups``, so
    within each ordered vertex pair edges are matched in period order; for
    a uniform tolerance on the line, the sorted pairing succeeds whenever
    any pairing does.
    """
    mapped = {(vmap[t], vmap[h]): idxs for (t, h), idxs in groups1.items()}
    if set(mapped) != set(groups2):
        return None
    edge_map = [None] * g1.n_edges
    for key, idxs1 in mapped.items():
        idxs2 = groups2[key]
        if len(idxs1) != len(idxs2):
            return None
        for a, b in zip(idxs1, idxs2):
            if abs(g1.edges[a][2] - g2.edges[b][2]) > tol:
                return None
            edge_map[a] = b
    return tuple(edge_map)


def _isomorphisms(g1, g2, tol):
    """Yield the label-preserving isomorphisms g1 -> g2, in search order.

    Vertices with the fewest candidates are mapped first.  A newly mapped
    vertex must have, to and from each vertex mapped before it and in its
    loops, as many edges as its image, with sorted periods within ``tol``.
    Every completion of a mismatch fails ``_edge_bijection``, so pruning
    changes neither what is yielded nor its order.
    """
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
    periods1 = {pair: [g1.edges[i][2] for i in idxs] for pair, idxs in groups1.items()}
    periods2 = {pair: [g2.edges[i][2] for i in idxs] for pair, idxs in groups2.items()}

    def same(pair1, pair2):
        p1, p2 = periods1.get(pair1, ()), periods2.get(pair2, ())
        return len(p1) == len(p2) and not any(abs(a - b) > tol for a, b in zip(p1, p2))

    def accept(k, images):
        v, w = order[k], images[k]
        return all(same((v, order[j]), (w, images[j]))
                   and same((order[j], v), (images[j], w)) for j in range(k + 1))

    vmap = [None] * g1.n_vertices
    for images in _injective([candidates[v] for v in order], lambda w: w, accept):
        for v, w in zip(order, images):
            vmap[v] = w
        emap = _edge_bijection(g1, g2, groups1, groups2, tuple(vmap), tol)
        if emap is not None:
            yield TssIsomorphism(tuple(vmap), emap)


def morita_equivalent_tss(g1: LabeledSurfaceGraph, g2: LabeledSurfaceGraph,
                          period_tolerance: float = 0.0) -> TssIsomorphism | None:
    """Labeled-graph isomorphism preserving orientation, genus and periods."""
    return next(_isomorphisms(g1, g2, period_tolerance), None)


def poisson_isomorphic_tss(g1: LabeledSurfaceGraph, g2: LabeledSurfaceGraph,
                           tol: float = 0.0) -> TssIsomorphism | None:
    """Morita equivalence plus agreement of the regularized volume."""
    if g1.volume is None or g2.volume is None:
        raise MissingVolume("both graphs need a volume invariant")
    if abs(g1.volume - g2.volume) > tol:
        return None
    return morita_equivalent_tss(g1, g2, tol)


def graph_automorphisms(g: LabeledSurfaceGraph) -> FiniteGroup:
    """Label-preserving automorphisms, including parallel-edge swaps."""
    # expand each vertex automorphism by all period-preserving edge bijections
    autos = set()
    groups = _edge_groups(g)
    for iso in _isomorphisms(g, g, 0.0):
        vmap = iso.vertex_map
        per_group = []
        for (t, h), idxs1 in sorted(groups.items()):
            idxs2 = groups[(vmap[t], vmap[h])]
            options = [[b for b in idxs2 if g.edges[b][2] == g.edges[a][2]]
                       for a in idxs1]
            per_group.append((idxs1, list(_injective(options, lambda b: b))))
        for combo in product(*(opts for _, opts in per_group)):
            emap = [None] * g.n_edges
            for (idxs1, _), perm in zip(per_group, combo):
                for a, b in zip(idxs1, perm):
                    emap[a] = b
            autos.add((vmap, tuple(emap)))
    autos = sorted(autos)
    payload = [TssIsomorphism(vm, em) for vm, em in autos]
    # one row per automorphism: vertex map, then edge map offset past the
    # vertices, so "a after b" is the row of a indexed by the row of b
    n = g.n_vertices
    rows = _index_rows([vm + tuple(n + e for e in em) for vm, em in autos],
                       n + g.n_edges)
    return _cayley(payload, rows, "g")


def picard_ingredients(g: LabeledSurfaceGraph) -> PicardIngredients:
    """Emit the ingredients only; how they combine is an open problem."""
    descriptors = tuple((g.genus[v], g.degree(v)) for v in range(g.n_vertices))
    return PicardIngredients(graph_automorphisms(g), g.n_edges, descriptors)
