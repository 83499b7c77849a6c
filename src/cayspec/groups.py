"""Finite group engine: indexed elements, family constructors, conjugacy classes.

Elements are dense indices 0..n-1 with the identity fixed at index 0.
Each family multiplies one way: cyclic groups and their products by adding
digit codes, dihedral groups by their arithmetic rule, generated groups by
composing permutations, so no family builds an n x n table.  Powers and
inverses are read off walks through cyclic subgroups, taken once when the
group is built, with no product and no power-map cache; conjugacy classes
are orbits under the group's generators, and class bundles join each class
with the class of its inverses.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Sequence

CLOSURE_CAP = 10000


class ConjugacyClassPartition(NamedTuple):
    """Partition of the element indices into conjugacy classes.

    Classes are ordered by their least element, so the identity class comes
    first; each class tuple is ascending.
    """

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    class_of: tuple[int, ...]


class Group:
    """A finite group on indices 0..order-1 with identity 0.

    `generators` lists the element indices of a generating set; conjugacy
    classes are orbits under conjugation by them.  `cyclic_orders` lists the
    factor orders of a cyclic group or a product of cyclic groups, else None;
    `perms` lists the permutation of each element of a generated group, which
    multiplies by composing them.
    In index order, each element g that no earlier walk met walks its
    powers c = (identity, g, g**2, ...); every element met first on that
    walk keeps (c, j) with c[j] itself, so its k-th power is c[j*k % len(c)]
    and its inverse c[-j % len(c)], in every family.  No cyclic subgroup is
    walked twice, and one inside a walked one is not walked at all.
    Instances are immutable after construction apart from their caches
    (classes, character table, fixing tables), and safe to pickle into
    workers, which rebuild the fixing tables; construct through the make_*
    functions.
    """

    def __init__(
        self,
        order: int,
        names: tuple[str, ...],
        family: str,
        generators: tuple[int, ...],
        *,
        cyclic_orders: Optional[tuple[int, ...]] = None,
        perms: Optional[tuple[tuple[int, ...], ...]] = None,
        aliases: Optional[dict[str, int]] = None,
    ):
        self.order = order
        self.names = names
        self.family = family
        self.generators = generators
        self.cyclic_orders = cyclic_orders
        self._perms = perms
        self._perm_index = (
            {p: i for i, p in enumerate(perms)} if perms is not None else None
        )
        self._name_index = {name: i for i, name in enumerate(names)}
        if aliases:
            for alias, idx in aliases.items():
                self._name_index.setdefault(alias, idx)
        self._code, self._reduce = _digit_codes(cyclic_orders) if cyclic_orders else (None, None)
        walks: list = [None] * order
        for g in range(order):
            if walks[g] is None:
                c, x = [0], g
                while x:
                    c.append(x)
                    x = self.mul(x, g)
                c = tuple(c)
                for j, x in enumerate(c):
                    if walks[x] is None:
                        walks[x] = (c, j)
        self._walks = tuple(walks)
        self._inverse = tuple(c[-j % len(c)] for c, j in walks)
        self._classes: Optional[ConjugacyClassPartition] = None
        self._char_table = None  # filled lazily by spectra.character_table
        self._fixing_tables = None  # filled lazily by units.fixing_tables

    def __getstate__(self):
        # Both caches are rebuilt on demand; a character table's exponent rule
        # closes over local data and does not pickle.
        return {**self.__dict__, "_char_table": None, "_fixing_tables": None}

    # -- arithmetic --------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._code is not None:
            return self._reduce[self._code[i] + self._code[j]]
        if self.family == "dihedral":
            # Index k is a^k and m+k is b*a^k; a^k * b = b * a^-k.
            m = self.order // 2
            if i < m:
                return (i + j) % m if j < m else m + (j - i) % m
            return m + (i + j) % m if j < m else (j - i) % m
        return self._perm_index[tuple(map(self._perms[i].__getitem__, self._perms[j]))]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    # -- names --------------------------------------------------------------

    def element_index(self, name: str) -> int:
        key = name.strip()
        if key in self._name_index:
            return self._name_index[key]
        compact = key.replace(" ", "")
        if compact in self._name_index:
            return self._name_index[compact]
        raise KeyError(f"unknown element name {name!r} in this group")

    def __repr__(self):
        return f"<Group {self.family} order={self.order}>"


def _digit_codes(orders: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Codes that turn multiplication in Z_n1 x ... x Z_nk into one addition.

    An index has one mixed-radix digit per factor, the last least significant;
    its code writes digit k in base 2*n_k - 1, so adding two codes never
    carries, and `reduce` maps each sum of codes to the index of the product.
    """
    code, reduce = [0], [0]
    for n in orders:
        width = 2 * n - 1
        code = [c * width + d for c in code for d in range(n)]
        reduce = [r * n + d % n for r in reduce for d in range(width)]
    return tuple(code), tuple(reduce)


# No family builds a multiplication table.  perfbench/trace_request.py counts
# the cells of this one by name, so its `groups.table_cells` reads 0.
def _table_from_rule(order: int, rule) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rule(i, j) for j in range(order)) for i in range(order))


def make_cyclic(n: int) -> Group:
    """Additive group of integers modulo n; element k is named 'k'."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    names = tuple(str(k) for k in range(n))
    return Group(n, names, "cyclic", (1 % n,), cyclic_orders=(n,))


def _dihedral_name(m: int, i: int) -> str:
    eps, k = divmod(i, m)
    if eps == 0:
        return "1" if k == 0 else ("a" if k == 1 else f"a^{k}")
    return "b" if k == 0 else ("b*a" if k == 1 else f"b*a^{k}")


def make_dihedral(m: int) -> Group:
    """Dihedral group of order 2m: rotations a^k then reflections b*a^k."""
    if m < 1:
        raise ValueError(f"dihedral parameter must be positive, got {m}")
    order = 2 * m
    names = tuple(_dihedral_name(m, i) for i in range(order))
    aliases = {"a^0": 0, "a^1": 1 % m, "b*a^0": m, "b*a^1": m + (1 % m)}
    for k in range(m):
        aliases.setdefault(f"ba^{k}", m + k)
        if k == 1:
            aliases.setdefault("ba", m + 1)
    return Group(order, names, "dihedral", (1 % m, m), aliases=aliases)


def make_product(left: Group, right: Group) -> Group:
    """Direct product of two cyclic groups or products of them; names are '(x,y)'.

    Element (x, y) has index x * |right| + y; the generators are the left
    factor's generators paired with the identity, then the right factor's.
    Other factors are refused: build their product with make_from_generators.
    """
    if not (left.cyclic_orders and right.cyclic_orders):
        raise ValueError("make_product needs cyclic factors or products of them")
    nr = right.order
    names = tuple(
        f"({left.names[i]},{right.names[j]})" for i in range(left.order) for j in range(nr)
    )
    generators = tuple(g * nr for g in left.generators) + right.generators
    orders = left.cyclic_orders + right.cyclic_orders
    return Group(left.order * nr, names, "product", generators, cyclic_orders=orders)


def _cycle_name(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def make_from_generators(perms: Sequence[Sequence[int]], cap: Optional[int] = None) -> Group:
    """Group generated by permutations, closed breadth-first from the identity.

    Element i is the i-th permutation the closure reaches.  More than `cap`
    elements (default CLOSURE_CAP, read at call time) are refused as soon as
    the closure meets one more, so no more than cap + 1 are ever built.  A
    product of two elements is the composition of their permutations, looked
    up in an index of the elements, so memory stays linear in the order.
    """
    if cap is None:
        cap = CLOSURE_CAP
    gens = [tuple(p) for p in perms]
    npoints = len(gens[0]) if gens else 0
    for g in gens:
        if len(g) != npoints or sorted(g) != list(range(npoints)):
            raise ValueError(f"{g} is not a permutation of 0..{npoints - 1}")
    ident = tuple(range(npoints))
    elements = [ident]
    index = {ident: 0}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(map(x.__getitem__, g))
            if y not in index:
                if len(elements) >= cap:
                    raise ValueError(f"generator closure exceeded the cap of {cap} elements")
                index[y] = len(elements)
                elements.append(y)
                queue.append(y)
    names = tuple(_cycle_name(p) for p in elements)
    generators = tuple(index[g] for g in gens)
    return Group(len(elements), names, "generated", generators, perms=tuple(elements))


def power(G: Group, g: int, k: int) -> int:
    """g**k read off g's walk; k may be negative or zero."""
    c, j = G._walks[g]
    return c[j * k % len(c)]


def power_map(G: Group, h: int) -> tuple[int, ...]:
    """The map g -> g**h as a tuple indexed by g, read off the walks."""
    return tuple(c[j * h % len(c)] for c, j in G._walks)


def conjugacy_classes(G: Group) -> ConjugacyClassPartition:
    """Orbit partition under conjugation by the generators, cached on the group.

    Conjugation by the generators reaches every conjugate, since in a finite
    group each inverse is a positive power; the cost is O(n * |generators|).
    """
    if G._classes is not None:
        return G._classes
    n = G.order
    conjugators = [(s, G.inv(s)) for s in G.generators]
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for g in range(n):
        if class_of[g] != -1:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            h = frontier.pop()
            for s, s_inv in conjugators:
                c = G.mul(G.mul(s, h), s_inv)
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        idx = len(classes)
        members = tuple(sorted(orbit))
        classes.append(members)
        for h in members:
            class_of[h] = idx
    partition = ConjugacyClassPartition(
        classes=tuple(classes),
        representatives=tuple(c[0] for c in classes),
        class_of=tuple(class_of),
    )
    G._classes = partition
    return partition


def class_bundles(G: Group) -> tuple[tuple[int, ...], ...]:
    """Minimal inverse-closed unions of non-identity conjugacy classes.

    Each bundle is a class joined with the class of its inverses; bundles are
    ordered by least element index.
    """
    part = conjugacy_classes(G)
    used: set[int] = set()
    bundles = []
    for ci, cls in enumerate(part.classes):
        if 0 in cls or ci in used:
            continue
        inverse_ci = part.class_of[G.inv(cls[0])]
        members = set(cls) | set(part.classes[inverse_ci])
        used.add(ci)
        used.add(inverse_ci)
        bundles.append(tuple(sorted(members)))
    return tuple(bundles)

