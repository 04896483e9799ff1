"""Bibundles: finite sets with commuting left/right groupoid actions.

A ``Bibundle`` is the generalized morphism between two finite groupoids:
the left groupoid acts along the moment ``j1``, the right one along
``j2``.  Left-principal bibundles compose by the fibre-product-modulo-
middle-action tensor, and biprincipal ones witness Morita equivalence.

The actions are kept as index rows, ``[g, x, g.x]`` and ``[x, g, x.g]``
in file or construction order, and, built once on demand, as dense index
tables (``Bibundle._tables``): ``L[g, x]`` and ``R[x, g]``, with a
sentinel where an action is undefined.  ``validate_bibundle``,
``principality`` and ``tensor`` run as numpy gathers over these tables;
their reports, witnesses and carriers are those of plain loops over the
rows.  ``tensor`` refuses a factor that ``validate_bibundle`` rejects
(``InvalidBibundle``); on valid left-principal factors its classes have
a closed form, one representative pair per fibre point of the middle
action.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from ._search import _injective, _roots
from .errors import (InvalidBibundle, MiddleMismatch, NotFunctor,
                     NotLeftPrincipal)
from .groups import group_isomorphic
from .groupoids import (FiniteGroupoid, GroupoidHom, _comp_rows, _lookup_rows,
                        _scatter, isotropy, orbit_partition, orbits)
from .report import ValidationReport


class Bibundle:
    """Carrier set with moments and partial actions over two groupoids.

    Each action is given by id, as a dict ``{(g, x): y}`` (``{(x, g): y}``)
    or as rows ``[g, x, y]`` (``[x, g, y]``) as files store it, and is
    held as read-only (E, 3) index rows in that order; a repeated pair
    keeps its first position and its last image.

    ``left_act`` is defined exactly on pairs ``(g, x)`` with
    ``s(g) == j1(x)`` and ``right_act`` exactly on ``(x, g)`` with
    ``j2(x) == t(g)``; ``validate_bibundle`` reports deviations instead
    of refusing to construct.
    """

    def __init__(self, left: FiniteGroupoid, right: FiniteGroupoid,
                 carrier, j1, j2, left_act, right_act):
        rows = _comp_rows(left_act), _comp_rows(right_act)
        self.left = left
        self.right = right
        self.carrier = tuple(sorted(str(x) for x in carrier))
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("duplicate carrier ids")
        self.car_index = {x: i for i, x in enumerate(self.carrier)}
        try:
            self.j1 = tuple(left.obj_index[j1[x]] for x in self.carrier)
            self.j2 = tuple(right.obj_index[j2[x]] for x in self.carrier)
        except KeyError as exc:
            raise ValueError(f"moment missing entry: {exc}") from None
        n, points = len(self.carrier), self.car_index
        self._rows = (
            _first_keys(_lookup_rows(rows[0], (left.arr_index, points, points),
                                     ("arrow", "carrier", "carrier")), n),
            _first_keys(_lookup_rows(rows[1], (points, right.arr_index, points),
                                     ("carrier", "arrow", "carrier")), right.n_arrows))

    # the index dicts {(g, x): y} and {(x, g): y} of the rows, built on first use
    left_act = cached_property(lambda self: _row_dict(self._rows[0]))
    right_act = cached_property(lambda self: _row_dict(self._rows[1]))

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The two actions as read-only index arrays ``L[g, x]`` and ``R[x, g]``.

        An entry is the index of g.x (of x.g), or the sentinel n, the
        carrier size, where the action is undefined.  Each table has one
        more row and column than arrows and points, all n, so a gather
        through an undefined point or a sentinel arrow stays undefined, as
        in ``FiniteGroupoid._table``.
        """
        n = len(self.carrier)
        left, right = self._rows
        return (_scatter((self.left.n_arrows + 1, n + 1), n, *left.T),
                _scatter((n + 1, self.right.n_arrows + 1), n, *right.T))

    def __repr__(self):
        return f"Bibundle(carrier={len(self.carrier)})"

    def j2_fiber(self, p: int) -> list[int]:
        return [x for x in range(len(self.carrier)) if self.j2[x] == p]

    def j1_fiber(self, p: int) -> list[int]:
        return [x for x in range(len(self.carrier)) if self.j1[x] == p]

    def as_dicts(self):
        left_act = {(self.left.arrows[g], self.carrier[x]): self.carrier[y]
                    for g, x, y in self._rows[0].tolist()}
        right_act = {(self.carrier[x], self.right.arrows[g]): self.carrier[y]
                     for x, g, y in self._rows[1].tolist()}
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


# ---------------------------------------------------------------------------
# action rows and dense action tables

def _row_dict(rows: np.ndarray) -> dict:
    a, b, c = rows.T.tolist()
    return dict(zip(zip(a, b), c))


def _first_keys(rows: np.ndarray, width: int) -> np.ndarray:
    """The rows as a dict keeps them: each pair at its first position, with its last image."""
    _, first, pair = np.unique(rows[:, 0] * width + rows[:, 1],
                               return_index=True, return_inverse=True)
    image = _scatter((1, len(first)), -1, np.zeros_like(pair), pair, rows[:, 2])[0]
    at = np.argsort(first)
    rows = np.column_stack((rows[first[at], :2], image[at]))
    rows.flags.writeable = False
    return rows


def _grouped(labels: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """``[np.flatnonzero(labels == k) for k in range(n_groups)]``, in one sort."""
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_groups + 1))
    return [order[bounds[k]:bounds[k + 1]] for k in range(n_groups)]


def _loop_order(hits: list) -> list[tuple[int, int]]:
    """(entry, arrow) pairs from per-arrow hits, sorted entry-major.

    ``hits`` holds ``(entries, arrow)`` for each arrow whose gather found
    violations; sorted, they come in the order of a loop over the entries
    with the arrows inside.
    """
    if not hits:
        return []
    entries = np.concatenate([e for e, _ in hits])
    arrows = np.concatenate([np.full(len(e), a) for e, a in hits])
    order = np.lexsort((arrows, entries))
    return list(zip(entries[order].tolist(), arrows[order].tolist()))


def validate_bibundle(s: Bibundle) -> ValidationReport:
    """Check moments, action domains, action axioms and commutation.

    The check is exhaustive and runs over the tables of
    ``Bibundle._tables``.  Action domains and moment equivariance are masks
    over every (arrow, point) cell, the unit laws one gather per side.
    Associativity and commutation take one gather per arrow over every
    action entry it composes with.  Witnesses come in the order of plain
    loops: cells arrow-major, then points; the associativity and
    commutation witnesses follow the order of the action rows, with the
    arrows inside.
    """
    report = ValidationReport()
    lg, rg = s.left, s.right
    car = s.carrier
    n = len(car)
    left, right = s._tables
    # moments, with -1 at the sentinel index n
    j1 = np.array(s.j1 + (-1,), dtype=np.intp)
    j2 = np.array(s.j2 + (-1,), dtype=np.intp)
    l_src, l_tgt = np.array(lg.src, dtype=np.intp), np.array(lg.tgt, dtype=np.intp)
    r_src, r_tgt = np.array(rg.src, dtype=np.intp), np.array(rg.tgt, dtype=np.intp)
    gl, gr = left[:-1, :n], right[:n, :-1].T  # (arrow, point) -> image
    sides = (
        ("left-action-domain", "moment-equivariance-left", gl,
         l_src[:, None] == j1[None, :n],
         (j1[gl] != l_tgt[:, None]) | (j2[gl] != j2[None, :n]),
         lambda g, x: (lg.arrows[g], car[x])),
        ("right-action-domain", "moment-equivariance-right", gr,
         r_tgt[:, None] == j2[None, :n],
         (j1[gr] != j1[None, :n]) | (j2[gr] != r_src[:, None]),
         lambda g, x: (car[x], rg.arrows[g])),
    )
    for domain_rule, moment_rule, act, domain, moved, witness in sides:
        defined = act != n
        bad_domain = defined != domain
        bad_moment = defined & domain & moved
        for g, x in np.argwhere(bad_domain | bad_moment).tolist():
            report.add(domain_rule if bad_domain[g, x] else moment_rule,
                       *witness(g, x))
    if report.violations:
        return report
    # Past this point each action is defined exactly on its domain.
    points = np.arange(n)
    bad_lu = left[np.array(lg.unit, dtype=np.intp)[j1[:n]], points] != points
    bad_ru = right[points, np.array(rg.unit, dtype=np.intp)[j2[:n]]] != points
    for x in np.flatnonzero(bad_lu | bad_ru).tolist():
        if bad_lu[x]:
            report.add("left-unit-action", car[x])
        if bad_ru[x]:
            report.add("right-unit-action", car[x])
    cl, cr = lg._table, rg._table
    ml, mr = lg.n_arrows, rg.n_arrows
    # left entries (h, x) -> hx and right entries (x, g) -> xg, in row order;
    # gathers go through flat tables and the right table's columns
    lh, lx, lhx = s._rows[0].T
    rx, rgg, rxg = s._rows[1].T
    flat_l, flat_r, cols_r = left.ravel(), right.ravel(), right.T.copy()
    wl, wr = n + 1, mr + 1

    hits = []  # g.(h.x) against (gh).x, for each g over entries with t(h) = s(g)
    groups = [(e, lh[e], lx[e], lhx[e]) for e in _grouped(l_tgt[lh], lg.n_objects)]
    for g in range(ml):
        e, h, x, hx = groups[lg.src[g]]
        gh = cl[g].take(h)
        bad = (gh != ml) & (left[g].take(hx) != flat_l.take(gh * wl + x))
        if bad.any():
            hits.append((e[bad], g))
    for e, g in _loop_order(hits):
        report.add("left-action-associativity", lg.arrows[g], lg.arrows[lh[e]], car[lx[e]])

    hits = []  # (x.g).h against x.(gh), for each h over entries with s(g) = t(h)
    groups = [(e, rx[e], rgg[e], rxg[e]) for e in _grouped(r_src[rgg], rg.n_objects)]
    for h in range(mr):
        e, x, g, xg = groups[rg.tgt[h]]
        gh = cr[:, h].take(g)
        bad = (gh != mr) & (cols_r[h].take(xg) != flat_r.take(x * wr + gh))
        if bad.any():
            hits.append((e[bad], h))
    for e, h in _loop_order(hits):
        report.add("right-action-associativity", car[rx[e]], rg.arrows[rgg[e]], rg.arrows[h])

    hits = []  # (g.x).h against g.(x.h), for each h over left entries with j2(x) = t(h)
    groups = [(e, lh[e], lx[e], lhx[e]) for e in _grouped(j2[lx], rg.n_objects)]
    for h in range(mr):
        e, g, x, gx = groups[rg.tgt[h]]
        bad = cols_r[h].take(gx) != flat_l.take(g * wl + cols_r[h].take(x))
        if bad.any():
            hits.append((e[bad], h))
    for e, h in _loop_order(hits):
        report.add("commutation", lg.arrows[lh[e]], car[lx[e]], rg.arrows[h])
    return report


def _free_transitive(act, domain, units, fibre, n_fibres):
    """First witnesses against a free action, transitive on each fibre.

    ``act[x, g]`` is the point arrow g moves x to, for the arrows with
    ``domain[x, g]``; ``units[x]`` is the unit arrow at x and ``fibre``
    labels the points by the other moment.  Returns the first object with
    an empty fibre, the first (x, g) with a non-unit g fixing x, and the
    first (x, y) in one fibre with no arrow moving x to y, each None if
    there is none.  Transitivity counts the distinct images of each point
    inside its fibre against the fibre's size, so no pair is tested; only
    the first short point's fibre is scanned for its y.
    """
    n, m = act.shape
    sizes = np.bincount(fibre, minlength=n_fibres)
    empty = np.flatnonzero(sizes == 0)
    points = np.arange(n)
    fixed = domain & (act == points[:, None]) & (np.arange(m)[None, :] != units[:, None])
    first_fixed = np.flatnonzero(fixed.ravel())
    image = np.where(domain, act, n)
    inside = np.append(fibre, -1)[image] == fibre[:, None]
    # distinct images inside the fibre: the new values along each sorted row
    ordered = np.sort(np.where(inside, image, -1), axis=1)
    fresh = ordered >= 0
    fresh[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    short = np.flatnonzero(fresh.sum(axis=1) < sizes[fibre])
    gap = None
    if short.size:
        x = int(short[np.argmin(fibre[short])])
        same = np.flatnonzero(fibre == fibre[x])
        gap = (x, int(same[~np.isin(same, image[x])][0]))
    return (int(empty[0]) if empty.size else None,
            divmod(int(first_fixed[0]), m) if first_fixed.size else None, gap)


def principality(s: Bibundle) -> PrincipalityReport:
    """Freeness/transitivity of each action on the other moment's fibres.

    Runs over the tables of ``Bibundle._tables`` (see ``_free_transitive``):
    freeness is a mask of the points a non-unit arrow fixes, and
    transitivity compares image sets with fibres, with no scan over pairs
    of points.  The witnesses are those of a plain loop: objects, then
    points and arrows in order, fibres by object.
    """
    n = len(s.carrier)
    lg, rg, car = s.left, s.right, s.carrier
    left, right = s._tables
    j1 = np.array(s.j1, dtype=np.intp)
    j2 = np.array(s.j2, dtype=np.intp)
    sides = (
        ("left", rg.objects, lambda x, g: (lg.arrows[g], car[x]),
         _free_transitive(left[:-1, :n].T,
                          j1[:, None] == np.array(lg.src, dtype=np.intp)[None, :],
                          np.array(lg.unit, dtype=np.intp)[j1], j2, rg.n_objects)),
        ("right", lg.objects, lambda x, g: (car[x], rg.arrows[g]),
         _free_transitive(right[:n, :-1],
                          j2[:, None] == np.array(rg.tgt, dtype=np.intp)[None, :],
                          np.array(rg.unit, dtype=np.intp)[j2], j1, lg.n_objects)),
    )
    witnesses, ok = {}, []
    for side, objects, freeness, (empty, fixed, gap) in sides:
        if empty is not None:
            witnesses[f"{side}-surjectivity"] = objects[empty]
        if fixed is not None:
            witnesses[f"{side}-freeness"] = freeness(*fixed)
        if gap is not None:
            witnesses[f"{side}-transitivity"] = (car[gap[0]], car[gap[1]])
        ok.append(empty is None and fixed is None and gap is None)
    return PrincipalityReport(ok[0], ok[1], witnesses)


def identity_bibundle(g: FiniteGroupoid) -> Bibundle:
    """The groupoid acting on its own arrows by left/right multiplication."""
    m = g.n_arrows
    table = g._table[:m, :m]
    i, j = np.nonzero(table != m)  # both actions are the composites, row-major
    return _from_classes(g, g, g.arrows, np.array(g.tgt, dtype=np.intp),
                         np.array(g.src, dtype=np.intp),
                         (i, j, table[i, j]), (j, i, table[i, j]))


def from_homomorphism(hom: GroupoidHom) -> Bibundle:
    """Left-principal bibundle of a functor: pairs (g, y) with s(g) = hom(y).

    The left groupoid is the functor's target, the right one its source;
    the left action is by composition, the right action twists through
    the functor.  A composite that is undefined, or not among the points
    (an invalid target groupoid), raises ValueError.
    """
    if not hom.is_functor():
        raise NotFunctor("arrow maps do not form a functor")
    tgt_g, src_g = hom.target, hom.source
    m, tgt = tgt_g.n_arrows, np.array(tgt_g.tgt, dtype=np.intp)
    # the points (g, y), y-major; point[g, y] is the index of (g, y), else -1
    pg, py = _fibre_entries([tgt_g.s_fiber(hom.obj_map[y]) for y in range(src_g.n_objects)])
    point = np.full((m + 1, src_g.n_objects), -1, dtype=np.intp)
    point[pg, py] = np.arange(len(pg))
    # g1.(g, y) = (g1 g, y) and (g, y).g2 = (g hom(g2), s(g2))
    c, arr_map = tgt_g._table, np.array(hom.arr_map, dtype=np.intp)
    lg, lc = _fibre_entries([tgt_g.s_fiber(t) for t in tgt[pg].tolist()])
    l_target = point[c[lg, pg[lc]], py[lc]]
    rg, rc = _fibre_entries([src_g.t_fiber(y) for y in py.tolist()])
    r_target = point[c[pg[rc], arr_map[rg]], np.array(src_g.src, dtype=np.intp)[rg]]
    if (l_target < 0).any() or (r_target < 0).any():
        raise ValueError("composition is not closed on the points; "
                         "validate the target groupoid")
    names = [f"({tgt_g.arrows[g]},{src_g.objects[y]})" for g, y in zip(pg.tolist(), py.tolist())]
    return _from_classes(tgt_g, src_g, names, tgt[pg], py, (lg, lc, l_target),
                         (rg, rc, r_target))


def tensor(s: Bibundle, s2: Bibundle) -> Bibundle:
    """Tensor product over the middle groupoid.

    Carrier classes are pairs (x, y) with matching middle moments, modulo
    (x.g, y) ~ (x, g.y); class representatives are the lexicographically
    smallest pairs and the id spells the representative.

    Each factor must pass ``validate_bibundle`` (``InvalidBibundle`` with
    its report and position otherwise), the middle groupoids must agree
    and both factors must be left principal.  The classes then have a
    closed form: the middle acts freely and transitively on each
    ``j2``-fibre of the second factor, so with ``base[p]`` the smallest
    point over p and ``to[y]`` the one arrow with ``to[y].base[j2(y)] =
    y``, the class of (x, y) is keyed by ``(x.to[y], j2(y))``.  The pairs
    are enumerated x-major with numpy and each key keeps its first pair;
    the product actions look up the keys of (g.x, y) and (x, y.h).
    """
    for k, factor in enumerate((s, s2)):
        report = validate_bibundle(factor)
        if not report.ok:
            raise InvalidBibundle(report, k)
    if s.right != s2.left:
        raise MiddleMismatch("middle groupoids differ")
    if not principality(s).left_principal:
        raise NotLeftPrincipal("first factor is not left principal")
    if not principality(s2).left_principal:
        raise NotLeftPrincipal("second factor is not left principal")
    mid, n_ends = s.right, s2.right.n_objects
    n1, n2 = len(s.carrier), len(s2.carrier)
    left1, right1 = s._tables
    left2, right2 = s2._tables
    end = np.array(s2.j2, dtype=np.intp)
    bases = np.unique(end, return_index=True)[1]  # the smallest point over each p
    # to[y]: the one middle arrow moving y's base to y; sentinels land on n2
    moved = left2[:, bases]
    to = np.empty(n2 + 1, dtype=np.intp)
    to[moved] = np.arange(len(moved))[:, None]

    def key(xs, ys):
        return right1[xs, to[ys]] * n_ends + end[ys]

    # pairs (x, y) with a[x] == b[y], x-major, y ascending in b's fibre at a[x]
    a = np.array(s.j2, dtype=np.intp)
    b = np.array(s2.j1, dtype=np.intp)
    fibre_of = np.argsort(b, kind="stable")
    count = np.bincount(b, minlength=mid.n_objects)
    width = count[a]
    n_pairs = int(width.sum())
    start, first = np.cumsum(count) - count, np.cumsum(width) - width
    px = np.repeat(np.arange(n1), width)
    py = fibre_of[np.repeat(start[a] - first, width) + np.arange(n_pairs)]
    keys = key(px, py)
    reps = np.sort(np.unique(keys, return_index=True)[1])
    cls = np.empty(n1 * n_ends, dtype=np.intp)
    cls[keys[reps]] = np.arange(len(reps))
    rx, ry = px[reps], py[reps]
    names = [f"[{s.carrier[x]}*{s2.carrier[y]}]"
             for x, y in zip(rx.tolist(), ry.tolist())]

    # product actions: g.(x, y) = (g.x, y) and (x, y).g = (x, y.g)
    lg, lc = _fibre_entries([s.left.s_fiber(s.j1[x]) for x in rx.tolist()])
    l_target = cls[key(left1[lg, rx[lc]], ry[lc])]
    rg, rc = _fibre_entries([s2.right.t_fiber(s2.j2[y]) for y in ry.tolist()])
    r_target = cls[key(rx[rc], right2[ry[rc], rg])]
    return _from_classes(s.left, s2.right, names, np.array(s.j1, dtype=np.intp)[rx],
                         end[ry], (lg, lc, l_target), (rg, rc, r_target))


def _fibre_entries(fibres: list) -> tuple[np.ndarray, np.ndarray]:
    """The arrows of each class's fibre, class-major, and the class of each."""
    arrows = np.array([g for f in fibres for g in f], dtype=np.intp)
    return arrows, np.repeat(np.arange(len(fibres)), [len(f) for f in fibres])


def _from_classes(left, right, names, j1, j2, left_entries, right_entries):
    """The bibundle whose points are the classes ``names``, sorted by id.

    ``j1``, ``j2`` are the moments of the classes as index arrays.  Each
    action is given as three columns, (arrow, class, image class), one
    entry per distinct pair, and becomes the action rows in that order.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    carrier = tuple(names[c] for c in order)
    if any(u == v for u, v in zip(carrier, carrier[1:])):
        raise ValueError("duplicate carrier ids")
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.arange(len(order))
    lg, lc, l_target = left_entries
    rg, rc, r_target = right_entries
    s = Bibundle.__new__(Bibundle)
    s.left, s.right, s.carrier = left, right, carrier
    s.car_index = {x: i for i, x in enumerate(carrier)}
    s.j1, s.j2 = tuple(j1[order].tolist()), tuple(j2[order].tolist())
    s._rows = (np.stack((lg, at[lc], at[l_target]), axis=1),
               np.stack((at[rc], rg, at[r_target]), axis=1))
    for rows in s._rows:
        rows.flags.writeable = False
    return s


def bibundle_isomorphic(s1: Bibundle, s2: Bibundle):
    """An equivariant moment-preserving bijection of carriers, or None.

    A ``_injective`` search with one slot per two-sided orbit of s1's
    carrier, in order of its smallest point, the pivot.  The candidates
    are the points of s2 with the pivot's moments, in carrier order.
    Filling a slot propagates the pivot's image through both actions over
    the orbit; a disagreeing action of s2, an image already used or a
    point left unreached rejects it.  So every completed assignment is an
    isomorphism, and the first one is returned.
    """
    if s1.left != s2.left or s1.right != s2.right:
        raise ValueError("bibundles live over different groupoid pairs")
    n = len(s1.carrier)
    if n != len(s2.carrier):
        return None
    if sorted(zip(s1.j1, s1.j2)) != sorted(zip(s2.j1, s2.j2)):
        return None
    (left1, right1), (left2, right2) = s1._rows, s2._rows
    if len(left1) != len(left2) or len(right1) != len(right2):
        return None

    # the moves of x as (side, arrow, g.x or x.g); act2[side][g][x] is s2's, or n
    moves = [[] for _ in range(n)]
    for g, x, y in left1.tolist():
        moves[x].append((0, g, y))
    for x, g, y in right1.tolist():
        moves[x].append((1, g, y))
    act2 = (s2._tables[0].tolist(), s2._tables[1].T.tolist())
    roots = _roots(n, chain(left1[:, 1:].tolist(), right1[:, ::2].tolist()))
    pivots = sorted(set(roots))
    candidates = [[y for y in range(n) if (s2.j1[y], s2.j2[y]) == (s1.j1[r], s1.j2[r])]
                  for r in pivots]
    image, preimage = [None] * n, [None] * n
    filled, marks = [], []  # mapped points, in order; where slot k's begin

    def accept(k, chosen):
        if k < len(marks):  # forget the abandoned branch from slot k on
            for x in filled[marks[k]:]:
                preimage[image[x]] = image[x] = None
            del filled[marks[k]:], marks[k:]
        marks.append(len(filled))
        x, fx = pivots[k], chosen[k]
        if preimage[fx] is not None:
            return False
        image[x], preimage[fx] = fx, x
        filled.append(x)
        for x in islice(filled, marks[k], None):  # filled grows: a BFS queue
            fx = image[x]
            for side, g, y in moves[x]:
                fy = act2[side][g][fx]
                if image[y] is None:
                    if fy == n or preimage[fy] is not None:
                        return False
                    image[y], preimage[fy] = fy, y
                    filled.append(y)
                elif image[y] != fy:
                    return False
        # an orbit that propagation cannot cover (invalid actions) is never
        # mapped by a later slot, so the last slot sees it
        return k + 1 < len(pivots) or len(filled) == n

    if next(_injective(candidates, lambda y: y, accept), None) is None:
        return None
    return {s1.carrier[x]: s2.carrier[image[x]] for x in range(n)}


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
    left, right, perm = s.left._block_of, s.right._block_of, {}
    for x, y in zip(s.j1, s.j2):
        perm.setdefault(right[y], left[x])
    return tuple(map(perm.get, range(len(s.right._blocks))))


def morita_equivalent(g1: FiniteGroupoid, g2: FiniteGroupoid) -> Bibundle | None:
    """A biprincipal (g1, g2)-bibundle, or None.

    Decision: match orbits bijectively so that corresponding isotropy
    groups are isomorphic; the witness is assembled orbitwise from source
    fibres at basepoints, glued along a chosen isotropy isomorphism (see
    ``_glue_orbit_pair``).  Its points are named by their representative
    pairs, and its actions are gathers through the class table.
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

    c1, c2 = g1._table, g2._table
    m2 = g2.n_arrows
    # cls[e1, e2]: the class of the pair, -1 off the glued fibres
    cls = np.full((g1.n_arrows + 1, m2 + 1), -1, dtype=np.intp)
    reps = [np.empty(0, dtype=np.intp)]
    for i, (j, theta) in enumerate(matching):
        e1, e2, local, rep = _glue_orbit_pair(g1, blocks1[i][0], g2, blocks2[j][0],
                                              iso1[i], iso2[j], theta)
        cls[e1[:, None], e2[None, :]] = local + sum(map(len, reps))
        reps.append(rep)
    r1, r2 = np.divmod(np.concatenate(reps), m2 + 1)
    j1, j2 = np.array(g1.tgt, dtype=np.intp)[r1], np.array(g2.tgt, dtype=np.intp)[r2]
    # g.[e1*e2] = [g e1 * e2] and [e1*e2].g = [e1 * g^-1 e2]
    lg, lc = _fibre_entries([g1.s_fiber(x) for x in j1.tolist()])
    l_target = cls[c1[lg, r1[lc]], r2[lc]]
    rg, rc = _fibre_entries([g2.t_fiber(x) for x in j2.tolist()])
    r_target = cls[r1[rc], c2[np.array(g2.inv, dtype=np.intp)[rg], r2[rc]]]
    if (l_target < 0).any() or (r_target < 0).any():
        raise ValueError(_NOT_CLOSED)
    names = [f"[{g1.arrows[a]}*{g2.arrows[b]}]"
             for a, b in zip(r1.tolist(), r2.tolist())]
    return _from_classes(g1, g2, names, j1, j2, (lg, lc, l_target), (rg, rc, r_target))


_NOT_CLOSED = ("composition is not closed on the glued source fibres; "
               "validate the groupoids")


def _glue_orbit_pair(g1, x1, g2, x2, h1, h2, theta):
    """The classes of one orbit pair of the Morita witness: (E1 x E2)/H2.

    E1, E2 are the source fibres at the basepoints x1, x2, and H2 acts
    diagonally through theta: (e1, e2).h = (e1 theta(h), e2 h).  A class
    is represented by its smallest pair, which is the smallest key
    ``e1 theta(h) * (m2 + 1) + e2 h`` over h.  Returns E1 and E2 as index
    arrays, the class of each pair as an |E1| x |E2| array, and the
    sorted representatives as keys.  An empty H2 or a composite undefined
    on the fibres (an invalid groupoid) raises ValueError.
    """
    m1, m2 = g1.n_arrows, g2.n_arrows
    e1 = np.array(g1.s_fiber(x1), dtype=np.intp)
    e2 = np.array(g2.s_fiber(x2), dtype=np.intp)
    h = np.array([g2.arr_index[a] for a in h2.elements], dtype=np.intp)
    th = np.array([g1.arr_index[h1.elements[k]] for k in theta], dtype=np.intp)
    k1 = g1._table[e1[:, None], th[None, :]]
    k2 = g2._table[e2[:, None], h[None, :]]
    if not len(h) or (k1 == m1).any() or (k2 == m2).any():
        raise ValueError(_NOT_CLOSED)
    k1 *= m2 + 1
    keys = k1[:, :1] + k2[:, 0]
    for t in range(1, len(h)):  # one |E1| x |E2| slab per h, not a cube
        np.minimum(keys, k1[:, t:t + 1] + k2[:, t], out=keys)
    rep, local = np.unique(keys, return_inverse=True)
    return e1, e2, local.reshape(keys.shape), rep
