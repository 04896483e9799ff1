"""Finite groups as explicit multiplication tables.

Elements are opaque strings; all internal work is on indices into the
element tuple.  ``table[i][j]`` is the index of ``elements[i] * elements[j]``.
Isotropy groups, automorphism groups and Picard groups all come back in
this form, so the brute-force isomorphism test here is the workhorse for
cross-checking group-valued invariants.
"""
from __future__ import annotations

from itertools import chain, permutations, product

import numpy as np

from .report import Rows, ValidationReport, plain


class FiniteGroup:
    """A finite group given by a total composition table.

    The identity and the inverse map are located on construction when they
    exist; when they do not, they are ``None`` and ``validate_group``
    reports the violated axioms with witnesses.

    ``payload`` optionally carries one structured object per element
    (e.g. the automorphism a group element stands for).  It never takes
    part in equality or validation.
    """

    def __init__(self, elements, table, payload=None):
        self.elements = tuple(str(e) for e in elements)
        if isinstance(table, np.ndarray):
            # an n x n index array, converted in blocks of rows (few numpy
            # calls, a small object copy); the cells share one int per index
            shared = np.arange(len(table)).astype(object)
            self.table = tuple(row for i in range(0, len(table), 256)
                               for row in map(tuple, shared[table[i:i + 256]].tolist()))
        else:
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

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements and self.table == other.table

    def __hash__(self):
        return hash((self.elements, self.table))

    def __repr__(self):
        return f"FiniteGroup(order={len(self)})"

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

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
        """Least k with i^k the identity; ValueError if none is at most |G|."""
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

    def _doc(self) -> dict:
        """The report document of ``as_dict``, with the table as ``Rows``."""
        d = {"elements": list(self.elements), "table": _cayley_rows(self.table)}
        if self.identity is not None:
            d["identity"] = self.elements[self.identity]
        return d

    def as_dict(self):
        return plain(self._doc())


def _cayley_rows(table) -> Rows:
    """A square table of element indices, as ``Rows`` over those indices."""
    n = len(table)
    index = np.fromiter(chain.from_iterable(table), np.intp, n * n).reshape(n, n)
    return Rows(index, range(n))


def validate_group(g: FiniteGroup) -> ValidationReport:
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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row of an integer array: the row's bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.intp)
    if rows.shape[1] == 0:  # empty rows are all equal; give them one byte
        rows = np.zeros((len(rows), 1), dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _cayley(items, rows: np.ndarray, compose, prefix: str) -> FiniteGroup:
    """The group of ``items`` under a product on their rows, items as payload.

    ``rows`` is an n x w integer array whose row i encodes ``items[i]``
    (distinct items, distinct rows), and ``compose(x, rows)`` returns, for
    one row x, the n rows of the products x * y for y in ``rows``.  A row
    of the table is searched by locating each product among the items by
    ``searchsorted`` on the row bytes and comparing it with the row found.

    Rows are visited in index order.  For products of index maps
    (``compose is _after``) only the rows not yet known are searched, and
    each searched x becomes a generator s.  Then, breadth first over every
    known row a and every generator s, the product a * s has index
    ``table[a][s]`` and its row is ``table[a][table[s]]``, because
    (a s) y = a (s y); each new layer of rows is one gather.  Every row is
    thus either searched and checked or derived from two checked rows, so
    every cell is exact, with no sampling.  Other products are searched
    row by row.

    A product outside the items raises ``KeyError`` at the first such
    (x, y) in row-major order: a derived row never fails, so the first
    failing row is a searched one.  Elements are named ``prefix000``,
    ``prefix001``, ...
    """
    rows = np.asarray(rows, dtype=np.intp)
    n = len(items)
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=np.intp)
    known = np.zeros(n, dtype=bool)
    gens = []
    for x in range(n):
        if known[x]:
            continue
        products = compose(rows[x], rows)
        at = np.searchsorted(sorted_keys, _row_keys(products))
        found = order[np.minimum(at, n - 1)]
        missing = np.nonzero((rows[found] != products).any(axis=1))[0]
        if len(missing):
            raise KeyError(f"product of {prefix}{x:03d} and "
                           f"{prefix}{missing[0]:03d} is not among the items")
        table[x] = found
        if compose is not _after:
            continue
        known[x] = True
        gens.append(x)
        # close the known rows under the generators: the old rows meet the
        # new generator, and each new layer meets them all
        frontier = np.flatnonzero(known)
        while len(frontier):
            products = table[np.ix_(frontier, gens)].ravel()
            new, first = np.unique(products, return_index=True)
            first = first[~known[new]]
            new = products[first]
            a, s = frontier[first // len(gens)], np.array(gens)[first % len(gens)]
            table[new] = table[a[:, None], table[s]]
            known[new] = True
            frontier = new
    names = [f"{prefix}{i:03d}" for i in range(n)]
    return FiniteGroup(names, table, payload=items)


def _index_rows(maps, width: int) -> np.ndarray:
    """Index maps of one length as an n x width array, for ``_cayley``.

    The width is given, so that no maps, or empty ones, still make one.
    """
    return np.array(maps, dtype=np.intp).reshape(len(maps), width)


def _after(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Products "x after y" of index maps: x[y] for every row y of ys.

    Both act on one index range, so a map of objects and one of arrows go
    in one row, the arrows offset by the number of objects.
    """
    return x[ys]


# ---------------------------------------------------------------------------
# constructions

def trivial_group() -> FiniteGroup:
    return FiniteGroup(["e"], [[0]])


def cyclic_group(n: int) -> FiniteGroup:
    elements = [f"c{i}" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(elements, table)


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
    # unit quaternions; "z" stands for -1, so "zi" is -i etc.
    # the identity comes first and signs pair up per axis
    names = ["e", "ze", "i", "zi", "j", "zj", "k", "zk"]

    def unpack(idx):
        return idx // 2, 1 if idx % 2 == 0 else -1  # (axis, sign)

    def pack(axis, sign):
        return 2 * axis + (0 if sign == 1 else 1)

    mul_axis = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            (ax, sa), (bx, sb) = unpack(a), unpack(b)
            cx, sc = mul_axis[(ax, bx)]
            row.append(pack(cx, sa * sb * sc))
        table.append(row)
    return FiniteGroup(names, table)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    names, table = [], []
    nb = len(b)
    for ea in a.elements:
        for eb in b.elements:
            names.append(f"({ea},{eb})")
    for i in range(len(a)):
        for j in range(nb):
            row = []
            for k in range(len(a)):
                for l in range(nb):
                    row.append(a.table[i][k] * nb + b.table[j][l])
            table.append(row)
    return FiniteGroup(names, table)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def subgroup(g: FiniteGroup, indices) -> FiniteGroup:
    """Subgroup on a closed subset, keeping element names (and payload)."""
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
    return FiniteGroup([g.elements[a] for a in idx], table, payload)


def generated_closure(g: FiniteGroup, seed) -> set[int]:
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


def quotient_group(g: FiniteGroup, normal) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup (given as a set of indices).

    Normality is verified.  Returns the coset group together with the
    chosen coset representatives (the smallest index in each coset);
    cosets are named ``[rep]`` and carry the representatives' payload.
    """
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
    return FiniteGroup(names, table, payload), reps


# ---------------------------------------------------------------------------
# homomorphisms and isomorphisms (brute force with invariant pruning)

def _generating_sequence(g: FiniteGroup) -> list[int]:
    gens, closure = [], {g.identity}
    for x in range(len(g)):
        if x not in closure:
            gens.append(x)
            closure = generated_closure(g, gens)
    return gens


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
    gens = _generating_sequence(g)
    # levels[k]: the Cayley graph edges (x, k', x gens[k'], fresh) that
    # first lie in the subgroup generated by gens[:k + 1], breadth first:
    # the old elements meet gens[k], the new ones every gens[k'] with
    # k' <= k.  Each edge is met once over all levels, and the fresh edge
    # into y is the first one, whose tail is reached before y.
    reached, seen, levels = [g.identity], {g.identity}, []
    for k in range(len(gens)):
        old, edges, i = len(reached), [], 0
        while i < len(reached):  # the queue grows as we walk it
            x = reached[i]
            for j in ((k,) if i < old else range(k + 1)):
                y = g.table[x][gens[j]]
                edges.append((x, j, y, y not in seen))
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
            i += 1
        levels.append(edges)
    if len(reached) != len(g):
        raise ValueError("generators do not generate")
    h_orders = [h.element_order(i) for i in range(len(h))]
    candidates = []
    for gidx in gens:
        o = g.element_order(gidx)
        candidates.append([i for i in range(len(h))
                           if (h_orders[i] == o if bijective else o % h_orders[i] == 0)])
    n, table = len(gens), h.table
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
            v = table[out[x]][images[j]]
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
    return _cayley(perms, _index_rows(perms, len(g)), _after, "a")


def inner_automorphism_group(g: FiniteGroup, aut: FiniteGroup | None = None) -> FiniteGroup:
    """Inn(g) as a subgroup of Aut(g) (names stay aligned with Aut)."""
    if aut is None:
        aut = automorphism_group(g)
    inner = set()
    for a in range(len(g)):
        ai = g.inv(a)
        inner.add(tuple(g.table[g.table[a][x]][ai] for x in range(len(g))))
    idx = [i for i, p in enumerate(aut.payload) if p in inner]
    return subgroup(aut, idx)


def outer_automorphism_group(g: FiniteGroup) -> FiniteGroup:
    """Out(g) = Aut(g)/Inn(g), coset representatives as payload."""
    aut = automorphism_group(g)
    inn = inner_automorphism_group(g, aut)
    return quotient_group(aut, {aut.index[e] for e in inn.elements})[0]
