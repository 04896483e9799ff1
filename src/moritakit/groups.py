"""Finite groups as read-only index arrays.

Elements are opaque strings; all internal work is on indices into the
element tuple.  A group holds its Cayley table as one read-only (n, n)
intp array, ``_table``, in which ``_table[i, j]`` is the index of
``elements[i] * elements[j]``.  The identity, the inverses, the centre,
the element orders, subgroups and quotients are array operations on it,
and reports write it as it is.  ``table``, the same cells as a tuple of
tuples of ints, is built on first use for the public API and for Python
loops.  Isotropy groups, automorphism groups and Picard groups all come
back in this form, so the brute-force isomorphism test here is the
workhorse for cross-checking group-valued invariants.
"""
from __future__ import annotations

from functools import cached_property
from itertools import permutations

import numpy as np

from .report import Rows, ValidationReport, plain


class FiniteGroup:
    """A finite group given by a total composition table.

    ``table`` is an (n, n) index array or n rows of n indices; it is
    held as a read-only intp array and never checked for range or the
    group axioms.  The identity and the inverse map are located on first
    use when they exist; when they do not, they are ``None`` and
    ``validate_group`` reports the violated axioms with witnesses.

    ``payload`` optionally carries one structured object per element
    (e.g. the automorphism a group element stands for).  It never takes
    part in equality or validation.
    """

    def __init__(self, elements, table, payload=None):
        self.elements = tuple(str(e) for e in elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element ids")
        n = len(self.elements)
        try:
            table = np.asarray(table, dtype=np.intp)
        except ValueError:  # rows of different lengths
            table = None
        if table is None or (table.shape != (n, n) and table.size + n):
            raise ValueError("table shape does not match element count")
        self._table = table.reshape(n, n)  # a view, so the flag is ours
        self._table.flags.writeable = False
        self.payload = tuple(payload) if payload is not None else None
        if self.payload is not None and len(self.payload) != n:
            raise ValueError("payload length does not match element count")
        self.index = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self._table, other._table)

    def __hash__(self):
        return hash((self.elements, self._table.tobytes()))

    def __repr__(self):
        return f"FiniteGroup(order={len(self)})"

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The table as a tuple of rows of ints, built on first use."""
        return tuple(map(tuple, self._rows()))

    def _rows(self) -> list[list[int]]:
        """The table as lists of ints, one shared int object per index (as
        Python shares those up to 256), so a cell costs one pointer."""
        if len(self) <= 257:
            return self._table.tolist()
        return np.arange(len(self), dtype=object)[self._table].tolist()

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    @cached_property
    def identity(self) -> int | None:
        """The first two-sided identity in index order, or None; the
        candidates are the e with e e = e, read off the diagonal."""
        t = self._table
        ids = np.arange(len(t))
        for e in np.flatnonzero(np.diagonal(t) == ids).tolist():
            if (t[e] == ids).all() and (t[:, e] == ids).all():
                return e
        return None

    @cached_property
    def inverse(self) -> tuple[int, ...] | None:
        """Per element a, the first b with ab = e = ba; None when there is no
        identity, or when some element has no two-sided inverse."""
        e = self.identity
        if e is None:
            return None
        both = (self._table == e) & (self._table.T == e)
        inv = both.argmax(axis=1)
        if not both[np.arange(len(inv)), inv].all():
            return None
        return tuple(inv.tolist())

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        """Per element x, the least k <= n with x^k the identity, where
        x^(k+1) = x^k x, else 0.  A walk over the cells: orders are small,
        and at n <= 8 numpy's cost per call is many times the whole walk.
        """
        t, e, n = self._table, self.identity, len(self)
        orders = []
        for i in range(n):
            x, k = i, 1
            while x != e and k < n and 0 <= x < n:
                x, k = t.item(x, i), k + 1
            orders.append(k if x == e else 0)
        return tuple(orders)

    def element_order(self, i: int) -> int:
        """Least k with i^k the identity; ValueError if none is at most |G|."""
        k = self._orders[i]
        if not k:
            raise ValueError(f"element {self.elements[i]!r} has no order "
                             "up to the group size (table not a group)")
        return k

    def center(self) -> tuple[int, ...]:
        t = self._table
        return tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())

    def order_profile(self) -> tuple[int, ...]:
        if 0 in self._orders:  # the first element with no order raises
            self.element_order(self._orders.index(0))
        return tuple(sorted(self._orders))

    def _doc(self) -> dict:
        """The report document of ``as_dict``, with the table as ``Rows``."""
        d = {"elements": list(self.elements), "table": Rows(self._table, range(len(self)))}
        if self.identity is not None:
            d["identity"] = self.elements[self.identity]
        return d

    def as_dict(self):
        return plain(self._doc())


def validate_group(g: FiniteGroup) -> ValidationReport:
    """Check the group axioms on the table, reporting witnesses in loop order.

    Cells outside the elements are ``closure`` violations, in row-major
    order, and end the check.  Then every triple (i, j, k), in product
    order, with (ij)k != i(jk): for each i, the n x n block t[t[i]]
    against t[i][t].  Light's test runs these rows for the generators of
    ``_generators`` first, and all n rows only when one of them fails.
    Then a missing identity, or else each element with no two-sided
    inverse.
    """
    report = ValidationReport()
    t, names = g._table, g.elements
    n = len(names)
    for i, j in np.argwhere((t < 0) | (t >= n)).tolist():
        report.add("closure", names[i], names[j])
    if report.violations:
        return report
    rows = range(n) if any((t[t[i]] != t[i][t]).any() for i in _generators(t)) else ()
    for i in rows:
        for j, k in np.argwhere(t[t[i]] != t[i][t]).tolist():
            report.add("associativity", names[i], names[j], names[k])
    e = g.identity
    if e is None:
        report.add("identity")
    elif g.inverse is None:
        for a in np.flatnonzero(~((t == e) & (t.T == e)).any(axis=1)).tolist():
            report.add("inverses", names[a])
    return report


def _generators(t: np.ndarray) -> list[int]:
    """Generators for Light's associativity test, picked greedily.

    ``t`` is an (n, n) table of indices in [0, n], where n marks an
    undefined product.  An index becomes a generator when the products of
    the earlier generators do not reach it; they are closed on the right,
    a product r s of a reached r and a generator s being reached.  So
    every index is a generator or a product of two reached indices.  The
    a with (a y) z = a (y z) for all y, z (where both sides are defined)
    are closed under products, so when every generator's row passes, the
    whole table is associative.
    """
    n = len(t)
    reached = np.zeros(n + 1, dtype=bool)
    reached[n] = True  # an undefined product reaches nothing
    gens = []
    for x in range(n):
        if reached[x]:
            continue
        gens.append(x)
        reached[x] = True
        # the reached indices times the new generator, then every index
        # reached for the first time times every generator
        level = t[reached[:n], x]
        while True:
            level = np.unique(level)
            level = level[~reached[level]]
            if not len(level):
                break
            reached[level] = True
            level = t[np.ix_(level, gens)].ravel()
    return gens


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row of an integer array: the row's bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.intp)
    if rows.shape[1] == 0:  # empty rows are all equal; give them one byte
        rows = np.zeros((len(rows), 1), dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _closed_table(n: int, search) -> np.ndarray:
    """The n x n table of a group whose rows ``search`` gives.

    Rows are visited in index order, and ``search(x)`` fills row x when it
    is not yet known.  Each searched x becomes a generator s, and the
    known rows are closed under the generators, breadth first: for a known
    row a and a generator s, the row of a s, whose index is
    ``table[a, s]``, is row a gathered through row s, because
    (a s) y = a (s y).  Every row is thus searched or derived from two
    searched ones, so every cell is exact, with no sampling.
    """
    table = np.empty((n, n), dtype=np.intp)
    known, gens = [False] * n, []
    for x in range(n):
        if known[x]:
            continue
        table[x] = search(x)
        known[x] = True
        gens.append(x)
        queue = [a for a in range(n) if known[a]]
        for a in queue:  # the queue grows as we walk it
            for s in gens:
                c = int(table[a, s])
                if not known[c]:
                    table[c] = table[a][table[s]]
                    known[c] = True
                    queue.append(c)
    return table


def _row_lookup(rows: np.ndarray, prefix: str):
    """A function locating product rows among ``rows``, an n x w integer array.

    ``find(x, products)`` returns, for the rows of the products x * y of
    item x with each item y, the index of each among ``rows``: located by
    ``searchsorted`` on the row bytes and compared with the row found.  A
    product outside the rows raises ``KeyError`` at the first such y, the
    items named ``prefix000``, ``prefix001``, ...
    """
    n = len(rows)
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    def find(x: int, products: np.ndarray) -> np.ndarray:
        at = np.searchsorted(sorted_keys, _row_keys(products))
        found = order[np.minimum(at, n - 1)]
        missing = np.nonzero((rows[found] != products).any(axis=1))[0]
        if len(missing):
            raise KeyError(f"product of {prefix}{x:03d} and "
                           f"{prefix}{missing[0]:03d} is not among the items")
        return found

    return find


def _cayley(items, rows: np.ndarray, prefix: str) -> FiniteGroup:
    """The group of ``items`` under composition of index maps, items as payload.

    ``rows`` is an n x w integer array whose row i is the index map of
    ``items[i]`` (distinct items, distinct rows); the product x y is "y,
    then x", the row x[y].  A map of objects and one of arrows act on one
    index range, so both go in one row, the arrows offset by the number of
    objects.  Only the rows that ``_closed_table`` cannot derive are
    searched, through ``_row_lookup``.

    A product outside the items raises ``KeyError`` at the first such
    (x, y) in row-major order: a derived row never fails, so the first
    failing row is a searched one.  Elements are named ``prefix000``,
    ``prefix001``, ...
    """
    rows = np.asarray(rows, dtype=np.intp)
    find = _row_lookup(rows, prefix)
    table = _closed_table(len(items), lambda x: find(x, rows[x][rows]))
    names = [f"{prefix}{i:03d}" for i in range(len(items))]
    return FiniteGroup(names, table, payload=items)


def _index_rows(maps, width: int) -> np.ndarray:
    """Index maps of one length as an n x width array, for ``_row_lookup``.

    The width is given, so that no maps, or empty ones, still make one.
    """
    return np.array(maps, dtype=np.intp).reshape(len(maps), width)


# ---------------------------------------------------------------------------
# constructions

def trivial_group() -> FiniteGroup:
    return FiniteGroup(["e"], [[0]])


def cyclic_group(n: int) -> FiniteGroup:
    ids = np.arange(n)
    return FiniteGroup([f"c{i}" for i in range(n)], (ids[:, None] + ids) % n)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # product = "apply right, then left", matching the composition convention
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(names, table)


def dihedral_group(n: int) -> FiniteGroup:
    # elements r^i and r^i s with s r s = r^-1
    names = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]

    def mul(a, b):
        i, p = a % n, a // n
        j, q = b % n, b // n
        # (r^i s^p)(r^j s^q) = r^(i + j or i - j) s^(p+q)
        k = (i + j) % n if p == 0 else (i - j) % n
        return k + n * ((p + q) % 2)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(names, table)


def quaternion_group() -> FiniteGroup:
    # unit quaternions; "z" stands for -1, so "zi" is -i etc.  Element
    # 2a + s is (-1)^s times axis a of (1, i, j, k).  Axes multiply as a ^ b,
    # and two imaginary axes give -1 unless b follows a cyclically (ij = k)
    names = ["e", "ze", "i", "zi", "j", "zj", "k", "zk"]

    def mul(x, y):
        a, b = x // 2, y // 2
        flip = a and b and (b - a) % 3 != 1
        return 2 * (a ^ b) + (x + y + flip) % 2

    return FiniteGroup(names, [[mul(x, y) for y in range(8)] for x in range(8)])


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Pairs (x, y) at index x |b| + y, multiplied componentwise."""
    names = [f"({ea},{eb})" for ea in a.elements for eb in b.elements]
    n, nb = len(names), len(b)
    # cell ((i, j), (k, l)) is a[i, k] |b| + b[j, l]
    table = a._table[:, None, :, None] * nb + b._table[None, :, None, :]
    return FiniteGroup(names, table.reshape(n, n))


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def subgroup(g: FiniteGroup, indices) -> FiniteGroup:
    """Subgroup on a closed subset, keeping element names (and payload)."""
    idx = np.array(sorted(set(indices)), dtype=np.intp)
    products = g._table[np.ix_(idx, idx)]
    # each product's position among the subset, if it is there
    at = np.minimum(np.searchsorted(idx, products), len(idx) - 1)
    if not (idx[at] == products).all():
        raise ValueError("subset is not closed under the product")
    idx = idx.tolist()
    payload = [g.payload[a] for a in idx] if g.payload is not None else None
    return FiniteGroup([g.elements[a] for a in idx], at, payload)


def quotient_group(g: FiniteGroup, normal) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup (given as a set of indices).

    Normality is verified.  Returns the coset group together with the
    chosen coset representatives (the smallest index in each coset);
    cosets are named ``[rep]`` and carry the representatives' payload.
    """
    t = g._table
    normal = np.array(sorted(set(normal)), dtype=np.intp)
    inverse = np.array(g.inverse, dtype=np.intp)
    # a n a^-1 for every a (rows) and n in the subgroup (columns)
    if not np.isin(t[t[:, normal], inverse[:, None]], normal).all():
        raise ValueError("subgroup is not normal")
    rep_of = t[:, normal].min(axis=1)  # the smallest member of a N
    reps = np.unique(rep_of)
    table = np.searchsorted(reps, rep_of)[t[np.ix_(reps, reps)]]
    reps = tuple(reps.tolist())
    names = [f"[{g.elements[r]}]" for r in reps]
    payload = [g.payload[r] for r in reps] if g.payload is not None else None
    return FiniteGroup(names, table, payload), reps


# ---------------------------------------------------------------------------
# homomorphisms and isomorphisms (brute force with invariant pruning)

def _maps(g: FiniteGroup, h: FiniteGroup, bijective: bool):
    """Yield the homomorphisms g -> h (only the bijective ones if asked).

    Generators go only to elements whose order divides theirs (equals it,
    for isomorphisms); maps come in the order of the generator images.
    The images are picked one generator at a time, depth first.  After
    each pick the map is spread from the identity along the Cayley graph
    edges of the subgroup the generators so far generate; it extends to a
    homomorphism only if every such edge x -> x s agrees, that is if the
    image of x s is the image of x times the image of s, and to an
    isomorphism only if no two elements share an image.  A prefix failing
    this has no completion, so cutting it leaves the maps and their order
    as the full product of the candidates would give them.
    """
    for group in (g, h):
        if group.identity is None:
            names = ", ".join(map(repr, group.elements[:4]))
            more = ", ..." if len(group) > 4 else ""
            raise ValueError(f"the table of the group on {names}{more} "
                             "has no identity element")
    if bijective and (len(g) != len(h) or g.order_profile() != h.order_profile()):
        return
    # gens[k] is the first element outside the subgroup that gens[:k]
    # generate, and levels[k] the Cayley graph edges (x, k', x gens[k'],
    # fresh) that first lie in the subgroup generated by gens[:k + 1],
    # breadth first: the old elements meet gens[k], the new ones every
    # gens[k'] with k' <= k.  Each edge is met once over all levels, and
    # the fresh edge into y is the first one, whose tail is reached before
    # y.  The rows of each table are bound once, as lists.
    rows = g._rows()
    gens, reached, seen, levels = [], [g.identity], {g.identity}, []
    while len(reached) < len(g):
        k = len(gens)
        gens.append(next(x for x in range(len(g)) if x not in seen))
        old, edges, i = len(reached), [], 0
        while i < len(reached):  # the queue grows as we walk it
            x = reached[i]
            for j in ((k,) if i < old else range(k + 1)):
                y = rows[x][gens[j]]
                edges.append((x, j, y, y not in seen))
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
            i += 1
        levels.append(edges)
    if h is g:
        h_rows = rows
    else:  # only the levels are needed from g's rows: free them first
        del rows
        h_rows = h._rows()
    h_orders = [h.element_order(i) for i in range(len(h))]
    candidates = []
    for gidx in gens:
        o = g.element_order(gidx)
        candidates.append([i for i in range(len(h))
                           if (h_orders[i] == o if bijective else o % h_orders[i] == 0)])
    n = len(gens)
    out = [None] * len(g)
    out[g.identity] = h.identity
    images = [None] * n
    free = [True] * len(h)  # images not yet taken, for isomorphisms
    free[h.identity] = False
    taken = [[] for _ in range(n)]  # the images each level took

    def release(k):
        for v in taken[k]:
            free[v] = True
        taken[k].clear()

    def spread(k) -> bool:
        release(k)
        for x, j, y, fresh in levels[k]:
            v = h_rows[out[x]][images[j]]
            if not fresh:
                if out[y] != v:
                    return False
            elif bijective:
                if not free[v]:
                    return False
                free[v] = False
                taken[k].append(v)
                out[y] = v
            else:
                out[y] = v
        return True

    if n == 0:
        yield tuple(out)
        return
    stack = [iter(candidates[0])]
    while stack:
        k = len(stack) - 1
        for images[k] in stack[k]:
            if spread(k):
                break
        else:
            release(k)
            stack.pop()
            continue
        if k + 1 == n:
            yield tuple(out)
        else:
            stack.append(iter(candidates[k + 1]))


def group_homomorphisms(g: FiniteGroup, h: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms g -> h, each as a tuple of target indices."""
    return list(_maps(g, h, bijective=False))


def group_isomorphisms(g: FiniteGroup, h: FiniteGroup) -> list[tuple[int, ...]]:
    """All isomorphisms g -> h."""
    return list(_maps(g, h, bijective=True))


def group_isomorphic(g: FiniteGroup, h: FiniteGroup):
    """The first isomorphism g -> h, or None."""
    return next(_maps(g, h, bijective=True), None)


def automorphism_group(g: FiniteGroup) -> FiniteGroup:
    """Aut(g), with the permutation tuples as payload."""
    perms = sorted(group_isomorphisms(g, g))
    return _cayley(perms, _index_rows(perms, len(g)), "a")


def inner_automorphism_group(g: FiniteGroup, aut: FiniteGroup | None = None) -> FiniteGroup:
    """Inn(g) as a subgroup of Aut(g) (names stay aligned with Aut)."""
    if aut is None:
        aut = automorphism_group(g)
    t = g._table
    # row a: x -> a x a^-1
    inner = set(map(tuple, t[t, np.array(g.inverse)[:, None]].tolist()))
    idx = [i for i, p in enumerate(aut.payload) if p in inner]
    return subgroup(aut, idx)


def outer_automorphism_group(g: FiniteGroup) -> FiniteGroup:
    """Out(g) = Aut(g)/Inn(g), coset representatives as payload."""
    aut = automorphism_group(g)
    inn = inner_automorphism_group(g, aut)
    return quotient_group(aut, {aut.index[e] for e in inn.elements})[0]
