"""Automorphisms, bisections, Picard groups, and exact-sequence checks.

The Picard group of a finite groupoid is computed two ways:

* ``enumerate``: Pic is read off class keys of endofunctors.  Every
  biprincipal self-bibundle of a finite groupoid is equivariantly
  isomorphic to the bibundle <phi> of some endofunctor phi (choose a
  point in each fibre of the right moment and divide).  <phi> is
  biprincipal exactly when phi is an equivalence, <phi> and <psi> are
  isomorphic exactly when phi and psi are naturally isomorphic, and
  <phi> (x) <psi> is isomorphic to <phi . psi>.  A class of equivalences
  up to natural isomorphism has a key (``_equivalence_key``): the orbit
  permutation and, per orbit, the isotropy isomorphism modulo inner
  automorphisms.  One candidate functor per (root image, isotropy
  isomorphism) meets every class, at the first functor of that class in
  ``enumerate_functors`` order; that functor represents the class.  The
  product of two classes is computed on their keys, for the rows of
  generators only; the other rows follow by associativity, through
  the closure that closes the Cayley tables (``groups._closed_table``).
  Pic is a ``FiniteGroup``, its table one read-only index array.  The
  representatives become bibundles only when they are asked for; no
  check here asks for them.
* ``formula``: Pic is a Morita invariant, every finite groupoid is Morita
  equivalent to its skeleton (the bundle of one isotropy group per
  orbit), and a bundle of groups over a finite discrete base has
  Pic = Out = Aut/Inaut (every torsor over such a base is trivial).  So
  the formula is ``outaut`` of the skeleton, for every groupoid.

``auto`` runs the enumeration and cross-checks it against the formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bibundles import (Bibundle, from_homomorphism, orbit_permutation,
                        principality)
from ._search import _injective
from .errors import MoritaKitError, NotFunctor
from .groups import (FiniteGroup, _cayley, _closed_table, _index_rows, _row_lookup,
                     group_isomorphic, quotient_group, subgroup)
from .groupoids import (FiniteGroupoid, GroupoidHom, _composite, _functors,
                        bundle_of_groups, groupoid_isomorphisms, isotropy,
                        orbit_partition)


# ---------------------------------------------------------------------------
# automorphisms and bisections

def automorphisms(g: FiniteGroupoid) -> FiniteGroup:
    """The group of groupoid automorphisms; payload holds the functors."""
    isos = groupoid_isomorphisms(g, g)
    # one row per functor: its object map, then its arrow map offset past
    # the objects, so "a after b" is the row of a indexed by the row of b
    n = g.n_objects
    rows = _index_rows([h.obj_map + tuple(n + v for v in h.arr_map) for h in isos],
                       n + g.n_arrows)
    return _cayley(isos, rows, "a")


@dataclass(frozen=True)
class Bisection:
    """A section of src whose target restriction is also a bijection."""

    groupoid: FiniteGroupoid
    arrows: tuple[int, ...]  # arrows[x] has src x; x -> tgt(arrows[x]) bijective

    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(self.groupoid.arrows[a] for a in self.arrows)

    def name(self) -> str:
        return "{" + ";".join(self.arrow_ids()) + "}"


def bisections(g: FiniteGroupoid) -> FiniteGroup:
    """All bisections, as a group under setwise product; payload holds them.

    Every row of the table is searched (``groups._row_lookup``): the
    product is associative only on a valid groupoid, so no row is derived.
    """
    found = sorted(_injective([g.s_fiber(x) for x in range(g.n_objects)],
                              lambda a: g.tgt[a]))
    rows = _index_rows(found, g.n_objects)
    find, C, tgt = _row_lookup(rows, "b"), g._table, np.array(g.tgt, dtype=np.intp)
    table = np.empty((len(rows), len(rows)), dtype=np.intp)
    for x, n in enumerate(rows):
        # (n m)(x) = n(t(m(x))) . m(x); undefined composites give the
        # sentinel, which no bisection contains
        table[x] = find(x, C[n[tgt[rows]], rows])
    names = [f"b{i:03d}" for i in range(len(found))]
    return FiniteGroup(names, table, [Bisection(g, arrows) for arrows in found])


def inner_automorphism(g: FiniteGroupoid, n: Bisection) -> GroupoidHom:
    """Two-sided sliding along a bisection: g -> N(t(g)) . g . N(s(g))^-1."""
    obj_map = tuple(g.tgt[n.arrows[x]] for x in range(g.n_objects))
    C, arrows = g._table, np.array(n.arrows, dtype=np.intp)
    inv = np.array(g.inv, dtype=np.intp)
    # arrow i goes to N(t i) . i . N(s i)^-1
    slid = _composite(C, arrows[list(g.tgt)], np.arange(g.n_arrows))
    arr_map = _composite(C, slid, inv[arrows[list(g.src)]])
    return GroupoidHom(g, g, obj_map, tuple(arr_map.tolist()))


def _slides(g: FiniteGroupoid, aut: FiniteGroup, bis: FiniteGroup) -> list[int]:
    """For each bisection, the index in ``aut`` of its sliding automorphism."""
    index = {h.key(): i for i, h in enumerate(aut.payload)}
    return [index[inner_automorphism(g, n).key()] for n in bis.payload]


def inaut(g: FiniteGroupoid) -> FiniteGroup:
    """Inner automorphisms, as a subgroup of ``automorphisms(g)``."""
    aut = automorphisms(g)
    return subgroup(aut, _slides(g, aut, bisections(g)))


def outaut(g: FiniteGroupoid) -> FiniteGroup:
    """Outer automorphism group Aut/Inaut with coset representatives."""
    aut = automorphisms(g)
    return quotient_group(aut, set(_slides(g, aut, bisections(g))))[0]


def ciso_bisections(g: FiniteGroupoid, bis: FiniteGroup | None = None) -> FiniteGroup:
    """Bisections inducing the trivial inner automorphism.

    These are the bisections N whose every N(x) is a loop at x and which
    commute with every arrow, N(t a) . a = a . N(s a); that is, they take
    values in the centers of the isotropy groups and are invariant under
    conjugation along arrows.
    """
    if bis is None:
        bis = bisections(g)
    C, arrows = g._table, np.arange(g.n_arrows)
    tgt, src = np.array(g.tgt, dtype=np.intp), np.array(g.src, dtype=np.intp)
    # the bisections of loops, one row of arrows each, then those commuting
    rows = np.array([n.arrows for n in bis.payload], dtype=np.intp).reshape(len(bis), g.n_objects)
    loops = np.flatnonzero((tgt[rows] == np.arange(g.n_objects)).all(axis=1))
    rows = rows[loops]
    commute = _composite(C, rows[:, tgt], arrows) == _composite(C, arrows, rows[:, src])
    return subgroup(bis, loops[commute.all(axis=1)])


# ---------------------------------------------------------------------------
# Picard group

class PicardGroup(FiniteGroup):
    """Isomorphism classes of biprincipal self-bibundles under tensor.

    The table is held as ``FiniteGroup`` holds it.  An enumerated Pic
    carries one class functor per element as its payload, ``functors``;
    the formula's Pic carries none.
    """

    def __init__(self, elements, table, method: str, functors=None):
        super().__init__(elements, table, functors)
        self.method = method
        self.cross_checked: tuple[str, ...] = ()

    @property
    def functors(self) -> tuple[GroupoidHom, ...] | None:
        return self.payload

    @cached_property
    def representatives(self) -> tuple[Bibundle, ...] | None:
        """The bibundles <functors[i]>, built on first use."""
        if self.functors is None:
            return None
        return tuple(map(from_homomorphism, self.functors))

    def as_group(self) -> FiniteGroup:
        return FiniteGroup(self.elements, self._table)

    def _doc(self) -> dict:
        """The report document of ``as_dict``, with the table as ``Rows``."""
        return {**super()._doc(), "method": self.method}


def _equivalence_key(g: FiniteGroupoid):
    """A function giving each endofunctor of g its Picard class key, or None.

    The key of a functor phi is the orbit permutation sigma it induces,
    with, per orbit root r, the map h -> t^-1 . phi(h) . t from the
    isotropy at r to the isotropy at the root r' of sigma(orbit), where
    t : r' -> phi(r) is the spanning-tree arrow.  Each such map is reduced
    to the smallest member of its orbit under the inner automorphisms of
    the isotropy at r'.  Two functors get the same key exactly when they
    are naturally isomorphic, which is when their bibundles are
    isomorphic.  A functor that is not an equivalence (sigma not a
    permutation, or an isotropy map not bijective) gets None; these are
    the functors whose bibundle is not biprincipal.

    The function's ``product(a, b)`` is the key of "a functor of key b,
    then one of key a": sigma_a . sigma_b, with per orbit k the map
    alpha_a[sigma_b(k)] . alpha_b[k], reduced again.  That is the key of
    the composite, since alpha . conj_d = conj_alpha(d) . alpha.
    """
    C, inv, blocks, tree = g._table, g.inv, orbit_partition(g), g._tree
    loops = [g.isotropy_arrows(block[0]) for block in blocks]
    pos = [{h: i for i, h in enumerate(hs)} for hs in loops]
    # each root group's distinct conjugations h -> c h c^-1 (row c), as
    # permutations of positions
    inner = []
    for k, hs in enumerate(loops):
        hs = np.array(hs, dtype=np.intp)
        conj = _composite(C, _composite(C, hs[:, None], hs), np.take(inv, hs)[:, None])
        inner.append(sorted({tuple(map(pos[k].__getitem__, row)) for row in conj.tolist()}))
    # the rows of the table, bound once: rows[i][j] is "j, then i", and an
    # undefined composite reads the sentinel, which no pos holds
    rows = C.tolist()

    def key(phi: GroupoidHom):
        sigma = _orbit_permutation(phi)
        if len(set(sigma)) != len(blocks):
            return None
        maps = []
        for k, block in enumerate(blocks):
            j = sigma[k]
            t = tree[phi.obj_map[block[0]]]
            m = [pos[j][rows[rows[inv[t]][phi.arr_map[h]]][t]] for h in loops[k]]
            if not len(m) == len(set(m)) == len(loops[j]):
                return None
            maps.append(min(tuple(c[v] for v in m) for c in inner[j]))
        return sigma, tuple(maps)

    def product(a, b):
        (sigma_a, maps_a), (sigma_b, maps_b) = a, b
        sigma = tuple(sigma_a[j] for j in sigma_b)
        maps = tuple(min(tuple(c[maps_a[j][v]] for v in m) for c in inner[i])
                     for i, j, m in zip(sigma, sigma_b, maps_b))
        return sigma, maps

    key.product = product
    return key


def _class_of(index: dict, key) -> int:
    try:
        return index[key]
    except KeyError:
        raise MoritaKitError("bibundle does not match any enumerated class") from None


def _enumerate_picard(g: FiniteGroupoid) -> PicardGroup:
    key = _equivalence_key(g)
    first: dict = {}  # class key -> first functor met with it
    for phi in _functors(g, g, "classes"):
        k = key(phi)
        if k is not None and k not in first:
            first[k] = phi
    if not first:
        raise MoritaKitError("no biprincipal self-bibundle found (invalid groupoid?)")
    keys = list(first)
    index = {k: i for i, k in enumerate(keys)}
    # <phi_i> (x) <phi_j> is the bibundle of phi_i . phi_j, phi_j applied first
    table = _closed_table(len(keys), lambda x: [_class_of(index, key.product(keys[x], b))
                                                for b in keys])
    names = tuple(f"pic{i:03d}" for i in range(len(keys)))
    return PicardGroup(names, table, "enumeration", tuple(first.values()))


def _formula_picard(g: FiniteGroupoid) -> PicardGroup:
    skeleton = {g.objects[block[0]]: isotropy(g, g.objects[block[0]])
                for block in orbit_partition(g)}
    out = outaut(bundle_of_groups(skeleton))
    return PicardGroup(out.elements, out._table, "skeleton-formula")


def picard_group(g: FiniteGroupoid, method: str = "auto") -> PicardGroup:
    """Picard group of g; see the module docstring for the two routes."""
    if method == "enumerate":
        return _enumerate_picard(g)
    if method == "formula":
        return _formula_picard(g)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    pic = _enumerate_picard(g)
    closed = _formula_picard(g)
    if group_isomorphic(pic, closed) is None:
        raise MoritaKitError(
            "enumeration and formula disagree on the Picard group")
    pic.cross_checked = (closed.method,)
    return pic


def _j_map(g: FiniteGroupoid, pic: PicardGroup):
    """j : endofunctors of g -> Pic classes, with the class keys built once.

    The returned function checks that its argument is an endofunctor of g
    and looks its equivalence key up among the keys of ``pic.functors``; a
    functor in no class raises ``MoritaKitError``.
    """
    if pic.functors is None:
        raise ValueError("need an enumeration-based Picard group")
    key = _equivalence_key(g)
    index = {key(f): i for i, f in enumerate(pic.functors)}

    def j(phi: GroupoidHom) -> int:
        if phi.source != g or phi.target != g:
            raise ValueError("need an endofunctor of the groupoid")
        if not phi.is_functor():
            raise NotFunctor("arrow maps do not form a functor")
        return _class_of(index, key(phi))

    return j


def j_homomorphism(g: FiniteGroupoid, phi: GroupoidHom,
                   pic: PicardGroup | None = None) -> int:
    """Index of the Picard class of the bibundle attached to an automorphism.

    The class is looked up by the functor's equivalence key among the keys
    of ``pic.functors``; a functor in no class raises ``MoritaKitError``.
    """
    if pic is None:
        pic = picard_group(g, "enumerate")
    return _j_map(g, pic)(phi)


def center_map(g: FiniteGroupoid, x: Bibundle) -> tuple[int, ...]:
    """Permutation of the orbit blocks induced by a biprincipal self-bibundle."""
    if not principality(x).biprincipal:
        raise ValueError("center map needs a biprincipal bibundle")
    return orbit_permutation(x)


def _orbit_permutation(phi: GroupoidHom) -> tuple[int, ...]:
    """The orbit permutation of an endofunctor, read off its object map.

    Orbit k goes to the orbit of the image of its root, which is the
    orbit permutation of the functor's bibundle (``orbit_permutation``).
    """
    block_of = phi.target._block_of
    return tuple(block_of[phi.obj_map[block[0]]] for block in phi.source._blocks)


def static_picard(g: FiniteGroupoid, pic: PicardGroup | None = None) -> PicardGroup:
    """Kernel of the orbit-space action: classes moving no orbit."""
    if pic is None:
        pic = picard_group(g, "enumerate")
    if pic.functors is None:
        raise ValueError("need an enumeration-based Picard group")
    ident = tuple(range(len(orbit_partition(g))))
    static = subgroup(pic, [i for i, f in enumerate(pic.functors)
                            if _orbit_permutation(f) == ident])
    return PicardGroup(static.elements, static._table, pic.method, static.payload)


def lemma_section_check(s: Bibundle):
    """Section-based reduction of a biprincipal self-bibundle to an automorphism.

    Searches for a section sigma of the right moment whose composite with
    the left moment is a bijection of objects; when one exists the bibundle
    is isomorphic to the bibundle of the returned automorphism.  Returns
    ``(sigma, phi)`` with sigma a dict object id -> carrier id, or None.
    """
    if s.left != s.right:
        raise ValueError("need a self-bibundle")
    g = s.left
    if not principality(s).biprincipal:
        raise ValueError("need a biprincipal bibundle")
    n_obj = g.n_objects
    fibers = []
    for p in range(n_obj):
        fiber = s.j2_fiber(p)
        fiber.sort(key=lambda x: (0 if s.j1[x] == p else 1, x))
        fibers.append(fiber)

    sigma = next(_injective(fibers, lambda x: s.j1[x]), None)
    if sigma is None:
        return None

    obj_map = tuple(s.j1[sigma[p]] for p in range(n_obj))
    left, right = s._tables
    arr_map = []
    for h in range(g.n_arrows):
        target = right[sigma[g.tgt[h]], h]
        base = sigma[g.src[h]]
        image = None
        for cand in g.s_fiber(s.j1[base]):
            if left[cand, base] == target != len(s.carrier):  # both defined
                image = cand
                break
        if image is None:
            raise MoritaKitError("left action is not transitive along the section")
        arr_map.append(image)
    phi = GroupoidHom(g, g, obj_map, tuple(arr_map))
    if not phi.is_functor() or not phi.is_bijective():
        raise MoritaKitError("section did not induce an automorphism")
    sigma_ids = {g.objects[p]: s.carrier[sigma[p]] for p in range(n_obj)}
    return sigma_ids, phi


# ---------------------------------------------------------------------------
# exact sequences

@dataclass
class ExactnessReport:
    checks: dict
    orders: dict

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks.values())

    def as_dict(self):
        return {"ok": self.ok, "orders": dict(self.orders),
                "checks": {k: dict(v) for k, v in self.checks.items()}}


def _pair_witnesses(source: FiniteGroup, f: list[int], target: FiniteGroup) -> list:
    """The pairs (a, b) of ``source`` with f(a b) != f(a) f(b), row-major."""
    f = np.array(f, dtype=np.intp)
    bad = f[source._table] != target._table[np.ix_(f, f)]
    return [(source.elements[i], source.elements[j]) for i, j in np.argwhere(bad).tolist()]


def verify_exact_sequences(g: FiniteGroupoid) -> ExactnessReport:
    """Machine-check the three exact sequences around Aut, Bis and Pic.

    (a) the kernel of j : Aut -> Pic is exactly the inner automorphisms;
    (b) 1 -> CIsoBis -> Bis -> Inaut -> 1 (sliding is onto with that kernel);
    (c) 1 -> static Pic -> Pic -> orbit permutations is exact, with the
        orbit action a group homomorphism.

    Two report keys hold by construction: "sliding-surjective" (Inaut is
    the image of sliding) and "kernel-is-static" (static Pic is the set of
    classes fixing every orbit); (c) checks that the orbit action is a
    homomorphism and that this set is closed.
    """
    aut = automorphisms(g)
    bis = bisections(g)
    # slide[i] indexes the inner automorphism of bisection i in Aut; Inaut is
    # its image, so sliding is onto Inaut by construction
    slide = _slides(g, aut, bis)
    inner = set(slide)
    inn = subgroup(aut, inner)
    out = quotient_group(aut, inner)[0]
    ciso = ciso_bisections(g, bis)
    pic = picard_group(g, "enumerate")

    checks = {}

    j_of = list(map(_j_map(g, pic), aut.payload))
    witnesses = [name for i, (name, j) in enumerate(zip(aut.elements, j_of))
                 if (j == pic.identity) != (i in inner)]
    checks["j-kernel"] = {"ok": not witnesses, "witnesses": witnesses}

    # aut._table[i, j] is the composite "a_j, then a_i"; each check is one
    # gather over all pairs, its witnesses in row-major order
    witnesses = _pair_witnesses(aut, j_of, pic)
    checks["j-homomorphism"] = {"ok": not witnesses, "witnesses": witnesses}

    witnesses = _pair_witnesses(bis, slide, aut)
    kernel = {bis.elements[i] for i, k in enumerate(slide) if k == aut.identity}
    exact_kernel = kernel == set(ciso.elements)
    counted = len(bis) == len(ciso) * len(inn)
    checks["bisection-sequence"] = {
        "ok": not witnesses and exact_kernel and counted,
        "witnesses": witnesses,
        "sliding-surjective": True,
        "kernel-is-ciso": exact_kernel,
        "order-product": counted,
    }

    perms = list(map(_orbit_permutation, pic.functors))
    # one orbit permutation per row; per orbit v, one gather over all pairs
    # (i, j) compares the image of v under their product with its image
    # under "perms[j], then perms[i]"
    ident = tuple(range(len(orbit_partition(g))))
    P = np.array(perms, dtype=np.intp).reshape(len(pic), len(ident))
    bad = np.zeros(pic._table.shape, dtype=bool)
    for v in ident:
        bad |= P[pic._table, v] != P[:, P[:, v]]
    witnesses = [(pic.elements[i], pic.elements[j]) for i, j in np.argwhere(bad).tolist()]
    static = static_picard(g, pic)  # the kernel; ``subgroup`` checks closure
    checks["static-sequence"] = {
        "ok": not witnesses,
        "witnesses": witnesses,
        "kernel-is-static": True,
    }

    orders = {"aut": len(aut), "inaut": len(inn), "outaut": len(out),
              "bis": len(bis), "ciso": len(ciso), "pic": len(pic),
              "static-pic": len(static)}
    return ExactnessReport(checks, orders)
