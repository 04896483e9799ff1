"""Finite groupoids: explicit arrow tables over a finite object set.

Conventions, shared by every module downstream:

* ``comp(g, h)`` is defined exactly when ``src(g) == tgt(h)`` and means
  "h, then g"; so ``src(gh) == src(h)`` and ``tgt(gh) == tgt(g)``.
* Object and arrow ids are opaque strings.  The constructor sorts them
  lexicographically and all iteration follows that order, so searches are
  deterministic and quotient representatives are the smallest members.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle, product

import numpy as np

from ._search import _injective, _roots
from .errors import InvalidAction, NotPrincipal
from .groups import (FiniteGroup, _generators, group_homomorphisms,
                     group_isomorphisms)
from .report import ValidationReport


class FiniteGroupoid:
    """Arrows over a finite object set with a partial composition table.

    ``comp`` is given either as a dict ``{(g, h): k}`` or as rows
    ``[g, h, k]`` (as groupoid files store it), all by id; for a repeated
    pair (g, h) the last composite wins.  The composition is held only as
    ``_table``, a read-only dense (m+1) x (m+1) index array: ``_table[i, j]``
    is the index of the composite "j, then i", or the sentinel m where it
    is undefined; row and column m are all m, so gathers through an
    undefined composite stay undefined.  The ``comp`` attribute is the dict
    ``{(i, j): k}`` of index pairs, built from that table on first use.

    The constructor only checks that the structure maps are total and refer
    to known ids; the groupoid axioms themselves are checked by
    ``validate``, which reports witnesses instead of raising, so malformed
    tables remain inspectable values.
    """

    def __init__(self, objects, arrows, src, tgt, unit, inv, comp):
        rows = _comp_rows(comp)
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
        m, arrows = len(self.arrows), self.arr_index
        ids = _lookup_rows(rows, (arrows, arrows, arrows), ("arrow", "arrow", "arrow"))
        self._table = _scatter((m + 1, m + 1), m, *ids.T)

        self._hom = {}
        for i in range(len(self.arrows)):
            self._hom.setdefault((self.src[i], self.tgt[i]), []).append(i)
        self._s_fiber = [[] for _ in self.objects]
        self._t_fiber = [[] for _ in self.objects]
        for i in range(len(self.arrows)):
            self._s_fiber[self.src[i]].append(i)
            self._t_fiber[self.tgt[i]].append(i)
        self._orbits = None
        self._isotropy = {}

    @cached_property
    def comp(self) -> dict:
        """``{(i, j): k}`` for each defined composite "j, then i", row-major."""
        m = self.n_arrows
        table = self._table[:m, :m]
        i, j = np.nonzero(table != m)
        return dict(zip(zip(i.tolist(), j.tolist()), table[i, j].tolist()))

    # -- basic accessors ----------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_arrows(self):
        return len(self.arrows)

    def hom(self, x: int, y: int) -> list[int]:
        """Arrows with src x and tgt y."""
        return self._hom.get((x, y), [])

    def s_fiber(self, x: int) -> list[int]:
        return self._s_fiber[x]

    def t_fiber(self, x: int) -> list[int]:
        return self._t_fiber[x]

    def isotropy_arrows(self, x: int) -> list[int]:
        return self.hom(x, x)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return ((self.objects, self.arrows, self.src, self.tgt, self.unit, self.inv)
                == (other.objects, other.arrows, other.src, other.tgt, other.unit,
                    other.inv)
                and np.array_equal(self._table, other._table))

    def __repr__(self):
        return f"FiniteGroupoid(objects={self.n_objects}, arrows={self.n_arrows})"


def _comp_rows(comp) -> list:
    """The entries of a dict ``{(a, b): c}``, or rows ``[a, b, c]``, as rows.

    Each row is unpacked as a triple, so a row of another length raises
    the unpacking's ValueError.
    """
    if isinstance(comp, Mapping):
        return [(g, h, k) for (g, h), k in comp.items()]
    rows = list(comp)
    for g, h, k in rows:
        pass
    return rows


def _lookup_rows(rows: list, columns: tuple, kinds: tuple) -> np.ndarray:
    """Rows of three ids as (E, 3) indices, column c through ``columns[c]``, in one
    C-level pass; the first unknown id raises ValueError naming ``kinds[c]``."""
    try:
        return np.fromiter(map(dict.__getitem__, cycle(columns), chain.from_iterable(rows)),
                           dtype=np.intp, count=3 * len(rows)).reshape(-1, 3)
    except KeyError as exc:
        ids = zip(cycle(zip(columns, kinds)), chain.from_iterable(rows))
        kind = next(kind for (index, kind), x in ids if x not in index)
        raise ValueError(f"unknown {kind} id {exc.args[0]!r}") from None


def _scatter(shape, fill: int, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """A table of ``shape`` holding k[r] at (i[r], j[r]) and ``fill`` elsewhere.

    A repeated cell keeps its last value, as a dict would; numpy's fancy
    assignment does not promise which one it keeps.  No k[r] is ``fill``.
    The table comes back read-only.
    """
    table = np.full(shape, fill, dtype=np.intp)
    cells, flat = i * shape[1] + j, table.reshape(-1)
    flat[cells] = k
    if np.count_nonzero(table != fill) < len(cells):
        cells, k = cells[::-1], k[::-1]
        last = np.unique(cells, return_index=True)[1]
        flat[cells[last]] = k[last]
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# validation

def _composite(C: np.ndarray, i, j) -> np.ndarray:
    """``C[i, j]``, the composites "j, then i", for index arrays or ints.

    An undefined composite raises ``KeyError`` with the first such pair
    (i, j) in the order of the gather, as a dict of composites would.
    """
    k = C[i, j]
    undefined = k == len(C) - 1
    if undefined.any():
        at = int(np.argmax(undefined))
        i, j = np.broadcast_arrays(i, j)
        raise KeyError((int(i.flat[at]), int(j.flat[at])))
    return k


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, reporting id-level witnesses.

    The check is exhaustive and runs over the dense table ``g._table``.
    Composability and composite endpoints are compared for all m^2 pairs
    at once.  Associativity compares (ij)k with i(jk) on every composable
    triple: for each left arrow i, one gather over the pairs j in
    t_fiber(src i), k in t_fiber(src j), counting a triple only where both
    sides are defined; when the pairs check found nothing, only the rows
    of the generators of ``groups._generators`` run unless one of them
    fails (Light's test).  The unit and inverse laws are gathers over all
    arrows at once.  Witnesses come in the order of a plain loop: pairs
    (i, j) row-major, then triples (i, j, k), then arrows.
    """
    report = ValidationReport()
    A, O = g.arrows, g.objects
    m = len(A)
    C = g._table
    # endpoints, with -1 at the sentinel index m
    src = np.array(g.src + (-1,), dtype=np.intp)
    tgt = np.array(g.tgt + (-1,), dtype=np.intp)
    ij = C[:m, :m]
    defined = ij != m
    composable = src[:m, None] == tgt[None, :m]
    bad_pair = defined != composable
    bad_ends = defined & composable & ((src[ij] != src[None, :m])
                                       | (tgt[ij] != tgt[:m, None]))
    for i, j in np.argwhere(bad_pair | bad_ends).tolist():
        if bad_pair[i, j]:
            report.add("composability", A[i], A[j])
        else:
            report.add("composite-endpoints", A[i], A[j], A[ij[i, j]])
    # per object x: the pairs (j, k) with tgt j = x and tgt k = src j, in
    # loop order, and their composites jk
    pairs = []
    for x in range(len(O)):
        fibers = [g.t_fiber(g.src[j]) for j in g.t_fiber(x)]
        js = np.repeat(np.array(g.t_fiber(x), dtype=np.intp), [len(f) for f in fibers])
        ks = np.array([k for f in fibers for k in f], dtype=np.intp)
        pairs.append((js, ks, C[js, ks]))

    def failures(i):
        js, ks, jk = pairs[g.src[i]]
        left, right = C[C[i, js], ks], C[i, jk]
        return js, ks, np.flatnonzero((left != right) & (left != m) & (right != m))
    # Light's test (groups._generators): with every composite defined
    # exactly where it should be, with the right endpoints, the rows of the
    # generators decide associativity; all m rows run only to list witnesses
    rows = range(m)
    if not report.violations and not any(len(failures(i)[2]) for i in _generators(ij)):
        rows = ()
    for i in rows:
        js, ks, bad = failures(i)
        for p in bad.tolist():
            report.add("associativity", A[i], A[js[p]], A[ks[p]])
    for x in range(len(O)):
        u = g.unit[x]
        if g.src[u] != x or g.tgt[u] != x:
            report.add("unit-endpoints", O[x], A[u])
    # unit and inverse laws per arrow i; an undefined composite reads m,
    # which is neither i nor a unit
    i = np.arange(m)
    unit, inv = np.array(g.unit, dtype=np.intp), np.array(g.inv, dtype=np.intp)
    unit_s, unit_t = unit[src[:m]], unit[tgt[:m]]
    for a in np.flatnonzero((C[unit_t, i] != i) | (C[i, unit_s] != i)).tolist():
        report.add("unit-law", A[a])
    bad_ends = (src[inv] != tgt[:m]) | (tgt[inv] != src[:m])
    bad_law = (C[inv, i] != unit_s) | (C[i, inv] != unit_t)
    for a in np.flatnonzero(bad_ends | bad_law).tolist():
        rule = "inverse-endpoints" if bad_ends[a] else "inverse-law"
        report.add(rule, A[a], A[g.inv[a]])
    return report


# ---------------------------------------------------------------------------
# orbits and isotropy

def orbit_partition(g: FiniteGroupoid) -> tuple[tuple[int, ...], ...]:
    """Orbit blocks as sorted index tuples, ordered by smallest member."""
    if g._orbits is not None:
        return g._orbits
    blocks = {}
    for x, root in enumerate(_roots(g.n_objects, zip(g.src, g.tgt))):
        blocks.setdefault(root, []).append(x)
    g._orbits = tuple(tuple(blocks[root]) for root in sorted(blocks))
    return g._orbits


def orbits(g: FiniteGroupoid) -> tuple[tuple[str, ...], ...]:
    """Partition of the object set induced by the arrows."""
    return tuple(tuple(g.objects[i] for i in block) for block in orbit_partition(g))


def isotropy(g: FiniteGroupoid, x: str) -> FiniteGroup:
    """The group of arrows from x to itself, as a composition table.

    Built once per object and kept on the groupoid.  A composite of two
    loops that is undefined raises ``KeyError`` with the index pair, and
    one that is not a loop with its index, at the first such cell in
    row-major order.
    """
    xi = g.obj_index[x]
    if xi in g._isotropy:
        return g._isotropy[xi]
    loops = np.array(g.isotropy_arrows(xi), dtype=np.intp)
    m = g.n_arrows
    composites = g._table[np.ix_(loops, loops)]
    pos = np.full(m + 1, -1, dtype=np.intp)  # position among the loops
    pos[loops] = np.arange(len(loops))
    table = pos[composites]
    bad = np.argwhere(table < 0)
    if len(bad):
        a, b = bad[0].tolist()
        k = int(composites[a, b])
        raise KeyError((int(loops[a]), int(loops[b])) if k == m else k)
    g._isotropy[xi] = FiniteGroup([g.arrows[a] for a in loops.tolist()], table)
    return g._isotropy[xi]


def is_transitive(g: FiniteGroupoid) -> bool:
    return len(orbit_partition(g)) == 1


# ---------------------------------------------------------------------------
# constructions

def pair_groupoid(n: int) -> FiniteGroupoid:
    """One arrow (x,y) per ordered pair, with tgt x and src y."""
    if n < 1:
        raise ValueError("need at least one object")
    width = len(str(n))
    objs = [f"{i:0{width}d}" if n > 9 else str(i) for i in range(1, n + 1)]
    arrows = {}
    for x in objs:
        for y in objs:
            arrows[(x, y)] = f"({x},{y})"
    src = {a: y for (x, y), a in arrows.items()}
    tgt = {a: x for (x, y), a in arrows.items()}
    unit = {x: arrows[(x, x)] for x in objs}
    inv = {a: arrows[(y, x)] for (x, y), a in arrows.items()}
    comp = {}
    for x in objs:
        for y in objs:
            for z in objs:
                comp[(arrows[(x, y)], arrows[(y, z)])] = arrows[(x, z)]
    return FiniteGroupoid(objs, arrows.values(), src, tgt, unit, inv, comp)


def group_as_groupoid(h: FiniteGroup, obj: str = "pt") -> FiniteGroupoid:
    """A group regarded as a groupoid over a single object."""
    src = dict.fromkeys(h.elements, obj)
    inv, comp = _group_arrows(h, h.elements)
    return FiniteGroupoid([obj], h.elements, src, src, {obj: h.elements[h.identity]},
                          inv, comp)


def _group_arrows(h: FiniteGroup, ids: list) -> tuple[dict, list]:
    """The inverses and the composition rows of h's table, over arrow ``ids``."""
    names = np.array(ids, dtype=object)
    i, j = np.indices(h._table.shape).reshape(2, -1)
    return (dict(zip(ids, names[list(h.inverse)])),
            list(zip(names[i], names[j], names[h._table.ravel()])))


def action_groupoid(group: FiniteGroup, objects, act) -> FiniteGroupoid:
    """Action groupoid of a left group action on a finite set.

    ``act`` maps pairs ``(element id, object id)`` to object ids; it must
    satisfy the action axioms, otherwise ``InvalidAction`` is raised.
    """
    objs = sorted(str(x) for x in objects)
    if callable(act):
        act = {(e, x): act(e, x) for e in group.elements for x in objs}
    for e in group.elements:
        for x in objs:
            if (e, x) not in act or act[(e, x)] not in objs:
                raise InvalidAction(f"action undefined or out of range at ({e}, {x})")
    ident = group.elements[group.identity]
    for x in objs:
        if act[(ident, x)] != x:
            raise InvalidAction(f"identity moves {x}")
    for i, gname in enumerate(group.elements):
        for j, hname in enumerate(group.elements):
            gh = group.elements[group.mul(i, j)]
            for x in objs:
                if act[(gname, act[(hname, x)])] != act[(gh, x)]:
                    raise InvalidAction(f"compatibility fails at ({gname}, {hname}, {x})")

    def name(e, x):
        return f"({e}@{x})"

    arrows = [name(e, x) for e in group.elements for x in objs]
    src = {name(e, x): x for e in group.elements for x in objs}
    tgt = {name(e, x): act[(e, x)] for e in group.elements for x in objs}
    unit = {x: name(ident, x) for x in objs}
    inv = {}
    for i, e in enumerate(group.elements):
        einv = group.elements[group.inv(i)]
        for x in objs:
            inv[name(e, x)] = name(einv, act[(e, x)])
    comp = {}
    for i, gname in enumerate(group.elements):
        for j, hname in enumerate(group.elements):
            gh = group.elements[group.mul(i, j)]
            for x in objs:
                comp[(name(gname, act[(hname, x)]), name(hname, x))] = name(gh, x)
    return FiniteGroupoid(objs, arrows, src, tgt, unit, inv, comp)


@dataclass(frozen=True)
class PrincipalBundleData:
    """A finite principal bundle: free fibre-transitive right group action."""

    total: tuple[str, ...]
    base: tuple[str, ...]
    projection: dict
    group: FiniteGroup
    action: dict  # (total id, element id) -> total id

    def check(self) -> None:
        E, B, G = self.total, self.base, self.group
        ident = G.elements[G.identity]
        if set(self.projection.values()) != set(B):
            raise NotPrincipal("projection is not surjective")
        for e in E:
            for a in G.elements:
                if (e, a) not in self.action:
                    raise NotPrincipal(f"action undefined at ({e}, {a})")
            if self.action[(e, ident)] != e:
                raise NotPrincipal(f"identity moves {e}")
        for e in E:
            for i, a in enumerate(G.elements):
                ea = self.action[(e, a)]
                if self.projection[ea] != self.projection[e]:
                    raise NotPrincipal(f"action does not preserve fibres at ({e}, {a})")
                for j, b in enumerate(G.elements):
                    ab = G.elements[G.mul(i, j)]
                    if self.action[(ea, b)] != self.action[(e, ab)]:
                        raise NotPrincipal(f"action axiom fails at ({e}, {a}, {b})")
                if ea == e and a != ident:
                    raise NotPrincipal(f"action is not free at ({e}, {a})")
        for e in E:
            for f in E:
                if self.projection[e] == self.projection[f]:
                    if not any(self.action[(e, a)] == f for a in G.elements):
                        raise NotPrincipal(f"action is not fibre-transitive at ({e}, {f})")


def gauge_groupoid(data: PrincipalBundleData) -> FiniteGroupoid:
    """Quotient of the pair groupoid of the total space by the group.

    Arrows are the diagonal-action classes ``[(x, y)]`` with tgt ``p(x)``
    and src ``p(y)``; representatives are the lexicographically smallest
    pairs, and the arrow id spells the representative.
    """
    data.check()
    E, G = sorted(data.total), data.group

    def rep(x, y):
        return min((data.action[(x, a)], data.action[(y, a)]) for a in G.elements)

    classes = {}
    for x in E:
        for y in E:
            classes[(x, y)] = rep(x, y)
    reps = sorted(set(classes.values()))

    def name(r):
        return f"[{r[0]},{r[1]}]"

    arrows = [name(r) for r in reps]
    src = {name((x, y)): data.projection[y] for (x, y) in reps}
    tgt = {name((x, y)): data.projection[x] for (x, y) in reps}
    by_base = {}
    for e in E:
        by_base.setdefault(data.projection[e], []).append(e)
    unit = {b: name(classes[(fib[0], fib[0])]) for b, fib in by_base.items()}
    inv = {name((x, y)): name(classes[(y, x)]) for (x, y) in reps}
    comp = {}
    for (x1, y1) in reps:
        for (x2, y2) in reps:
            if data.projection[y1] != data.projection[x2]:
                continue
            # slide the second representative so that its x matches y1
            a = next(a for a in G.elements if data.action[(x2, a)] == y1)
            comp[(name((x1, y1)), name((x2, y2)))] = name(classes[(x1, data.action[(y2, a)])])
    return FiniteGroupoid(sorted(set(data.base)), arrows, src, tgt, unit, inv, comp)


def bundle_of_groups(fibres: dict) -> FiniteGroupoid:
    """Groupoid with src == tgt: one group sitting over each object."""
    objs = sorted(fibres)
    arrows, src, unit, inv, comp = [], {}, {}, {}, []
    for x in objs:
        h = fibres[x]
        if h.inverse is None:  # also None when there is no identity
            what = "identity element" if h.identity is None else "inverse of every element"
            raise ValueError(f"the group over {x!r} has no {what}")
        ids = [f"({x}:{e})" for e in h.elements]
        arrows += ids
        src.update(dict.fromkeys(ids, x))
        unit[x] = ids[h.identity]
        fibre_inv, fibre_comp = _group_arrows(h, ids)
        inv.update(fibre_inv)
        comp += fibre_comp
    return FiniteGroupoid(objs, arrows, src, src, unit, inv, comp)


def disjoint_union(*groupoids: FiniteGroupoid, prefixes=None) -> FiniteGroupoid:
    """Disjoint union, with ids kept apart by per-summand prefixes."""
    if prefixes is None:
        prefixes = [f"u{i}:" for i in range(len(groupoids))]
    objs, arrows, src, tgt, unit, inv, comp = [], [], {}, {}, {}, {}, []
    for g, pre in zip(groupoids, prefixes):
        objs.extend(pre + x for x in g.objects)
        arrows.extend(pre + a for a in g.arrows)
        for i, a in enumerate(g.arrows):
            src[pre + a] = pre + g.objects[g.src[i]]
            tgt[pre + a] = pre + g.objects[g.tgt[i]]
            inv[pre + a] = pre + g.arrows[g.inv[i]]
        for x in range(g.n_objects):
            unit[pre + g.objects[x]] = pre + g.arrows[g.unit[x]]
        C = g._table
        i, j = np.nonzero(C != g.n_arrows)  # row and column m are all m
        ids = np.array([pre + a for a in g.arrows], dtype=object)
        comp.extend(zip(ids[i], ids[j], ids[C[i, j]]))
    return FiniteGroupoid(objs, arrows, src, tgt, unit, inv, comp)


# ---------------------------------------------------------------------------
# homomorphisms (functors)

@dataclass(frozen=True)
class GroupoidHom:
    """A functor between finite groupoids, as index maps."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    obj_map: tuple[int, ...]
    arr_map: tuple[int, ...]

    def key(self):
        return (self.obj_map, self.arr_map)

    def apply_obj(self, x: str) -> str:
        return self.target.objects[self.obj_map[self.source.obj_index[x]]]

    def apply_arr(self, a: str) -> str:
        return self.target.arrows[self.arr_map[self.source.arr_index[a]]]

    def is_functor(self) -> bool:
        s, t = self.source, self.target
        for i in range(s.n_arrows):
            j = self.arr_map[i]
            if t.src[j] != self.obj_map[s.src[i]] or t.tgt[j] != self.obj_map[s.tgt[i]]:
                return False
        for x in range(s.n_objects):
            if self.arr_map[s.unit[x]] != t.unit[self.obj_map[x]]:
                return False
        # every defined composite of the source goes to the composite of
        # the images, which the target's sentinel never matches
        S, T = s._table, t._table
        arr = np.array(self.arr_map, dtype=np.intp)
        i, j = np.nonzero(S != s.n_arrows)
        return bool((T[arr[i], arr[j]] == arr[S[i, j]]).all())

    def is_bijective(self) -> bool:
        return (len(set(self.obj_map)) == self.target.n_objects
                and len(set(self.arr_map)) == self.target.n_arrows
                and self.source.n_objects == self.target.n_objects
                and self.source.n_arrows == self.target.n_arrows)

    def then(self, other: "GroupoidHom") -> "GroupoidHom":
        """Composite other . self (self first)."""
        if self.target is not other.source and self.target != other.source:
            raise ValueError("homomorphisms not composable")
        return GroupoidHom(
            self.source, other.target,
            tuple(other.obj_map[v] for v in self.obj_map),
            tuple(other.arr_map[v] for v in self.arr_map))

    def as_dict(self):
        return {
            "objects": {x: self.apply_obj(x) for x in self.source.objects},
            "arrows": {a: self.apply_arr(a) for a in self.source.arrows},
        }


def identity_hom(g: FiniteGroupoid) -> GroupoidHom:
    return GroupoidHom(g, g, tuple(range(g.n_objects)), tuple(range(g.n_arrows)))


# ---------------------------------------------------------------------------
# functor enumeration: one spanning tree per orbit

def _spanning_tree(g: FiniteGroupoid, root: int) -> dict[int, int]:
    """Breadth-first spanning tree of root's orbit: y -> an arrow root -> y.

    The root gets its unit; the other objects are reached along source
    fibres in arrow order, so the tree is fixed by the groupoid alone.
    """
    tree, queue, C = {root: g.unit[root]}, [root], g._table
    for x in queue:  # breadth first, the queue growing as we walk it
        for a in g.s_fiber(x):
            y = g.tgt[a]
            if y not in tree:
                tree[y] = int(_composite(C, a, tree[x]))  # a after tree[x] : root -> x
                queue.append(y)
    return tree


def _functors(g1: FiniteGroupoid, g2: FiniteGroupoid, mode: str):
    """Yield functors g1 -> g2: all of them, the invertible ones, or the
    candidates for the Picard classes (``mode`` "all", "iso" or "classes").

    Each orbit of g1 gets a root r (its smallest object) and a breadth-first
    spanning tree of arrows t_y : r -> y.  Every arrow a : x -> y is then
    t_y . h . t_x^-1 for one loop h at r, and is decomposed so once per
    call.  A functor is fixed freely, per orbit, by an image r' of r, a
    homomorphism from the isotropy at r to the isotropy at r', and an image
    arrow starting at r' for each tree arrow.  It is invertible exactly
    when each orbit goes onto its own orbit of g2 by an isomorphism of
    isotropy, with tree images ending at distinct objects other than r'.
    Choices come orbit by orbit, each in the order of r', the homomorphism
    and the tree images; for isomorphisms the tree images are grouped by
    the object they end at.

    "classes" keeps, in the "all" order, the functors whose roots go to
    pairwise distinct orbits by isomorphisms of isotropy, and of those
    only the first tree-image tuple per (r', isomorphism).  A functor is an
    equivalence only under the first two conditions, and its Picard class
    (``picard._equivalence_key``) reads only the orbits of the r' and the
    images of the loops at the roots, which are the isomorphisms: a root's
    tree arrow is its unit.  So every class is met, at the same first
    functor and in the same order as in "all".
    """
    bijective = mode == "iso"
    if bijective and (g1.n_objects != g2.n_objects or g1.n_arrows != g2.n_arrows):
        return
    blocks = orbit_partition(g1)
    homs = group_homomorphisms if mode == "all" else group_isomorphisms
    iso2 = [isotropy(g2, x) for x in g2.objects]
    orbits2 = orbit_partition(g2)
    orbit_of = {y: t for t, target in enumerate(orbits2) for y in target}
    targets = orbits2 if bijective else [range(g2.n_objects)]
    ends = g2.tgt.__getitem__
    C1, inv1 = g1._table, np.array(g1.inv, dtype=np.intp)
    slots, decomposed = [], []
    for k, block in enumerate(blocks):
        root, rest = block[0], block[1:]
        tree = _spanning_tree(g1, root)
        pos = {h: i for i, h in enumerate(g1.isotropy_arrows(root))}
        # each arrow a : x -> y of the orbit as t_y h t_x^-1, all at once
        edges = [(a, x, g1.tgt[a]) for x in block for a in g1.s_fiber(x)]
        arr, src, tgt = np.array(edges, dtype=np.intp).reshape(-1, 3).T
        t = np.array([tree.get(v, 0) for v in range(g1.n_objects)], dtype=np.intp)
        loops = _composite(C1, _composite(C1, inv1[t[tgt]], arr), t[src]).tolist()
        decomposed.extend((a, k, x, y, pos[h]) for (a, x, y), h in zip(edges, loops))
        iso1 = isotropy(g1, g1.objects[root])
        options = []
        for target in targets:
            if bijective and len(target) != len(block):
                continue
            for r in target:
                loops = g2.isotropy_arrows(r)
                if bijective:
                    fiber = sorted((b for b in g2.s_fiber(r) if g2.tgt[b] != r), key=ends)
                    trees = list(_injective([fiber] * len(rest), ends))
                elif mode == "all":
                    trees = list(product(g2.s_fiber(r), repeat=len(rest)))
                else:
                    trees = [(g2.s_fiber(r)[0],) * len(rest)]
                for phi in homs(iso1, iso2[r]):
                    images = [loops[v] for v in phi]
                    options.extend((orbit_of[r], images, (g2.unit[r],) + b)
                                   for b in trees)
        slots.append(options)
    # the rows of g2's table, bound once; an undefined composite reads the
    # sentinel m2, and the lookup is redone to name it
    C2, inv, m2 = g2._table, g2.inv, g2.n_arrows
    rows = C2.tolist()
    for choice in (product(*slots) if mode == "all"
                   else _injective(slots, lambda o: o[0])):
        tree_img = [None] * g1.n_objects
        for block, (_, _, b) in zip(blocks, choice):
            for x, a in zip(block, b):
                tree_img[x] = a
        arr_map = [None] * g1.n_arrows
        for a, k, x, y, h in decomposed:
            arr_map[a] = rows[rows[tree_img[y]][choice[k][1][h]]][inv[tree_img[x]]]
        if m2 in arr_map:
            for a, k, x, y, h in decomposed:
                _composite(C2, _composite(C2, tree_img[y], choice[k][1][h]), inv[tree_img[x]])
        yield GroupoidHom(g1, g2, tuple(map(ends, tree_img)), tuple(arr_map))


def enumerate_functors(g1: FiniteGroupoid, g2: FiniteGroupoid):
    """Yield every functor g1 -> g2, in a fixed deterministic order."""
    yield from _functors(g1, g2, "all")


def groupoid_isomorphisms(g1: FiniteGroupoid, g2: FiniteGroupoid) -> list[GroupoidHom]:
    """All invertible functors g1 -> g2, sorted by key."""
    return sorted(_functors(g1, g2, "iso"), key=GroupoidHom.key)


def groupoid_isomorphic(g1: FiniteGroupoid, g2: FiniteGroupoid) -> GroupoidHom | None:
    """An isomorphism g1 -> g2 if one exists, found by exhaustive search."""
    return next(_functors(g1, g2, "iso"), None)
