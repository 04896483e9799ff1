"""The two finite-search kernels every module shares.

* ``_roots`` is the union-find behind orbit partitions, graph
  connectivity and two-sided bibundle components.
* ``_injective`` is the backtracking search for injective assignments:
  bisections, sections, vertex maps, bijections, bibundle isomorphisms
  and group homomorphisms (``groups._maps``).  The Morita decision needs
  no search: ``morita_equivalent`` pairs orbits in one greedy pass.

Both are deterministic, so the first witness a caller takes from them is
fixed by the order of its inputs.

``_injective`` takes an optional ``accept(k, chosen)`` hook, called when
slot k is filled, ``chosen[:k + 1]`` being the partial assignment; a
false answer prunes all its extensions.  A hook that rejects only partial
assignments without a wanted completion leaves the wanted assignments and
their order unchanged.  Calls come in depth-first order, so a call for
slot k abandons whatever the hook kept for slots k and later.
"""
from __future__ import annotations


def _roots(n: int, pairs) -> list[int]:
    """Union-find over ``range(n)``: ``roots[i]`` is the smallest member of i's block."""
    parent = list(range(n))
    for i, j in pairs:
        while parent[i] != i:  # find with path halving, inlined: this is hot
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    # Every link points to a smaller index, so one ascending pass leaves
    # each entry at its root.
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


def _injective(options, key, accept=None):
    """Yield one option per slot, the options' keys pairwise distinct.

    ``options[k]`` lists the candidates for slot k.  Assignments come in
    depth-first order over the slots and, within a slot, over its
    candidates, both as given; each is a fresh tuple.  ``accept`` prunes.
    """
    n = len(options)
    if n == 0:
        yield ()
        return
    keyed = [[(key(option), option) for option in slot] for slot in options]
    chosen = [None] * n
    keys = [None] * n
    used = set()
    stack = [iter(keyed[0])]
    while stack:
        k = len(stack) - 1
        for kk, option in stack[k]:
            if kk not in used:
                break
        else:
            stack.pop()
            if k:
                used.discard(keys[k - 1])
            continue
        chosen[k] = option
        if accept is not None and not accept(k, chosen):
            continue
        if k + 1 == n:
            yield tuple(chosen)
        else:
            keys[k] = kk
            used.add(kk)
            stack.append(iter(keyed[k + 1]))
