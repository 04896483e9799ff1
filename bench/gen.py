"""Seeded input generator for the benchmark.

Everything here is the benchmark's own model of the objects the library
handles: finite groups as multiplication tables, groupoids as arrow
tables, bibundles, labeled surface graphs and sampled fields.  Inputs are
written as explicit files with random ids, so the library sees nothing
but what the generator writes.  Each job carries the answer it must give,
known by construction.
"""
from __future__ import annotations

import json
import string
from itertools import permutations
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# finite groups as tables (elements are 0..n-1, 0 is the identity)


class Group:
    def __init__(self, name, table):
        self.name = name
        self.table = [list(r) for r in table]
        self.n = len(table)
        self.inv = [next(b for b in range(self.n) if self.table[a][b] == 0)
                    for a in range(self.n)]

    def order_of(self, a):
        x, k = a, 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def profile(self):
        return tuple(sorted(self.order_of(a) for a in range(self.n)))


def group_from_mul(name, elements, mul, identity):
    """Table of a group given by a multiplication on hashable elements."""
    elems = [identity] + [e for e in elements if e != identity]
    index = {e: i for i, e in enumerate(elems)}
    return Group(name, [[index[mul(a, b)] for b in elems] for a in elems])


def cyclic(n):
    return group_from_mul(f"Z{n}", range(n), lambda a, b: (a + b) % n, 0)


def product_group(g, h):
    elems = [(a, b) for a in range(g.n) for b in range(h.n)]
    return group_from_mul(f"{g.name}x{h.name}", elems,
                          lambda x, y: (g.table[x[0]][y[0]], h.table[x[1]][y[1]]),
                          (0, 0))


def perm_group(name, generators):
    """Closure of permutation tuples under composition."""
    ident = tuple(range(len(generators[0])))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in generators:
                r = tuple(p[q[i]] for i in range(len(q)))
                if r not in elems:
                    elems.add(r)
                    nxt.append(r)
        frontier = nxt
    return group_from_mul(name, sorted(elems),
                          lambda p, q: tuple(p[q[i]] for i in range(len(q))), ident)


def symmetric(n):
    return group_from_mul(f"S{n}", list(permutations(range(n))),
                          lambda p, q: tuple(p[q[i]] for i in range(n)),
                          tuple(range(n)))


def quaternion():
    # integer quaternions (w, x, y, z) with one nonzero unit entry
    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    units = [tuple(s if k == i else 0 for k in range(4))
             for i in range(4) for s in (1, -1)]
    return group_from_mul("Q8", units, mul, (1, 0, 0, 0))


def dihedral4():
    """Symmetries of a square, as permutations of its corners."""
    return perm_group("D4", [(1, 2, 3, 0), (0, 3, 2, 1)])


def signed_permutations(n):
    """The hyperoctahedral group Z2 wr S_n, i.e. Aut(Z3)^n x| S_n."""
    elems = [(p, s) for p in permutations(range(n))
             for s in np.ndindex(*([2] * n))]

    def mul(a, b):  # (p, s)(q, t): apply b first
        p, s = a
        q, t = b
        return (tuple(p[q[i]] for i in range(n)),
                tuple((t[i] + s[q[i]]) % 2 for i in range(n)))
    return group_from_mul(f"B{n}", elems, mul, (tuple(range(n)), (0,) * n))


def units_mod(n):
    """(Z/n)^x, which is Aut(Z_n) = Out(Z_n)."""
    from math import gcd
    return group_from_mul(f"U{n}", [a for a in range(1, n) if gcd(a, n) == 1],
                          lambda a, b: a * b % n, 1)


# ---------------------------------------------------------------------------
# groupoids: disjoint unions of (pair groupoid on n points) x H


class Groupoid:
    """Arrow table with abstract ids; ``pieces`` lists (n points, group)."""

    def __init__(self, pieces):
        self.pieces = pieces
        self.objects, self.arrows = [], []
        self.src, self.tgt, self.unit, self.inv, self.comp = {}, {}, {}, {}, {}
        for k, (n, h) in enumerate(pieces):
            pts = [f"{k}.{x}" for x in range(n)]
            self.objects.extend(pts)
            for x in pts:
                self.unit[x] = (x, x, 0)
                for y in pts:
                    for a in range(h.n):
                        arr = (x, y, a)  # y -> x
                        self.arrows.append(arr)
                        self.src[arr], self.tgt[arr] = y, x
                        self.inv[arr] = (y, x, h.inv[a])
                        for z in pts:
                            for b in range(h.n):
                                self.comp[(arr, (y, z, b))] = (x, z, h.table[a][b])


def transitive(n, h):
    return Groupoid([(n, h)])


# ---------------------------------------------------------------------------
# random relabelling and file writing

_ALPHABET = string.ascii_lowercase + string.digits
_ID_WIDTH = 7


class Labeller:
    """Fresh random ids of fixed width; never the same id twice in a run."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def fresh(self):
        while True:
            s = "".join(_ALPHABET[i]
                        for i in self.rng.integers(0, len(_ALPHABET), _ID_WIDTH))
            if s not in self.used:
                self.used.add(s)
                return s

    def relabel(self, items):
        return {x: self.fresh() for x in items}


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def groupoid_doc(g, obj, arr, rng):
    """Explicit JSON document of ``g`` under the id maps ``obj``/``arr``."""
    return {
        "objects": shuffled(rng, [obj[x] for x in g.objects]),
        "arrows": [{"id": arr[a], "src": obj[g.src[a]], "tgt": obj[g.tgt[a]]}
                   for a in shuffled(rng, g.arrows)],
        "comp": [[arr[a], arr[b], arr[c]]
                 for (a, b), c in shuffled(rng, g.comp.items())],
        "units": {obj[x]: arr[g.unit[x]] for x in shuffled(rng, g.objects)},
        "inv": {arr[a]: arr[g.inv[a]] for a in shuffled(rng, g.arrows)},
    }


class Labelled:
    """A groupoid together with the random ids it was written under."""

    def __init__(self, g, lab, rng):
        self.g = g
        self.obj = lab.relabel(g.objects)
        self.arr = lab.relabel(g.arrows)
        self.doc = groupoid_doc(g, self.obj, self.arr, rng)


def object_permutation_bibundle(lg, perm, lab, rng):
    """Bibundle of the automorphism that permutes points within each orbit.

    ``perm`` maps objects to objects inside their orbit; arrows go along
    with isotropy part unchanged.  Points are pairs (g, y) with
    s(g) = phi(y), as for any functor.
    """
    g = lg.g

    def phi(a):
        x, y, h = a
        return (perm[x], perm[y], h)

    points = [(a, y) for y in g.objects for a in g.arrows if g.src[a] == perm[y]]
    car = lab.relabel(points)
    left = [[lg.arr[b], car[(a, y)], car[(g.comp[(b, a)], y)]]
            for (a, y) in points for b in g.arrows if g.src[b] == g.tgt[a]]
    right = [[car[(a, y)], lg.arr[h], car[(g.comp[(a, phi(h))], g.src[h])]]
             for (a, y) in points for h in g.arrows if g.tgt[h] == y]
    return {
        "left": lg.doc, "right": lg.doc,
        "carrier": shuffled(rng, car.values()),
        "J1": {car[p]: lg.obj[g.tgt[p[0]]] for p in shuffled(rng, points)},
        "J2": {car[p]: lg.obj[p[1]] for p in shuffled(rng, points)},
        "leftAct": shuffled(rng, left),
        "rightAct": shuffled(rng, right),
    }


def corrupt_one_composite(g, lg, rng):
    """Redirect one composite of two non-unit, non-inverse arrows.

    The new value has the same endpoints, so only associativity breaks.
    """
    doc = dict(lg.doc)
    units = set(g.unit.values())
    entries = [(a, b) for (a, b) in sorted(g.comp)
               if a not in units and b not in units and g.inv[a] != b]
    a, b = entries[rng.integers(len(entries))]
    c = g.comp[(a, b)]
    others = [d for d in g.arrows if d != c and g.src[d] == g.src[c]
              and g.tgt[d] == g.tgt[c]]
    d = others[rng.integers(len(others))]
    doc["comp"] = [[x, y, lg.arr[d]] if (x, y) == (lg.arr[a], lg.arr[b]) else [x, y, z]
                   for x, y, z in lg.doc["comp"]]
    return doc


# ---------------------------------------------------------------------------
# labeled surface graphs


def tss_doc(vertices, genus, edges, lab, rng):
    """vertices: abstract ids; edges: (tail, head, period) on abstract ids."""
    ids = lab.relabel(vertices)
    return {
        "vertices": [{"id": ids[v], "genus": genus[v]} for v in shuffled(rng, vertices)],
        "edges": [{"tail": ids[t], "head": ids[h], "period": p}
                  for t, h, p in shuffled(rng, edges)],
    }


def circulant(n, steps, genus, periods):
    """Directed circulant: edge i -> i + s for every step s (period per step)."""
    edges = [(i, (i + s) % n, periods[k]) for i in range(n)
             for k, s in enumerate(steps)]
    return list(range(n)), {v: genus for v in range(n)}, edges


# ---------------------------------------------------------------------------
# sampled fields for the gauge jobs


class GaugeCase:
    """pi = gradient bivector of f, B = Hodge dual of a divergence-free w.

    f(x) = 1/2 (x-c)^T A (x-c) + 1/3 sum_k b_k (x_k - c_k)^3 with A
    positive definite and |b| small, so grad f vanishes only at the grid
    point c and is far from zero elsewhere: the rank is 0 there and 2 at
    every other point.  pi^{ij} = eps_{ijk} d_k f is Poisson because the
    vector field grad f has zero curl.  w = w0 + M x with trace M = 0 makes
    B closed, and |w| . |grad f| < 1 keeps 1 + B pi invertible.
    """

    def __init__(self, rng, n):
        self.n = n
        self.h = 1.0 / (n - 1)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        self.A = q @ np.diag(rng.uniform(0.5, 1.5, 3)) @ q.T
        self.b = rng.uniform(-0.1, 0.1, 3)
        self.c = rng.integers(n // 8, n - n // 8, 3) * self.h
        m = rng.uniform(-0.02, 0.02, (3, 3))
        self.M = m - np.trace(m) / 3 * np.eye(3)
        self.w0 = rng.uniform(-0.05, 0.05, 3)

    def coords(self):
        ax = np.arange(self.n) * self.h
        return np.meshgrid(ax, ax, ax, indexing="ij")

    def grad_f(self, x):
        """x: (..., 3) points -> (..., 3) gradients."""
        d = x - self.c
        return d @ self.A.T + self.b * d * d

    def w(self, x):
        return self.w0 + x @ self.M.T

    @staticmethod
    def upper_from_vector(v):
        """Upper entries (01, 02, 12) of the bivector eps_{ijk} v_k."""
        return np.stack([v[..., 2], -v[..., 1], v[..., 0]], axis=-1)

    @staticmethod
    def matrix(upper):
        m = np.zeros((*upper.shape[:-1], 3, 3))
        for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            m[..., i, j] = upper[..., k]
            m[..., j, i] = -upper[..., k]
        return m

    def point(self, index):
        return np.array(index) * self.h

    def write(self, path_pi, path_b):
        x = np.stack(self.coords(), axis=-1)
        for path, kind, vec in ((path_pi, "bivector", self.grad_f(x)),
                                (path_b, "two_form", self.w(x))):
            Path(path).write_bytes(self.upper_from_vector(vec).astype("<f8").tobytes())
            Path(str(path) + ".json").write_text(json.dumps({
                "dimension": 3, "origin": [0.0, 0.0, 0.0], "spacing": self.h,
                "shape": [self.n] * 3, "kind": kind}))
