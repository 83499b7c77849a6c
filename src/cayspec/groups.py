"""Finite group engine: indexed elements, family constructors, conjugacy classes.

Elements are dense indices 0..n-1 with the identity fixed at index 0.
Each family multiplies one way: cyclic groups and their products by adding
digit codes, dihedral groups and other products by their arithmetic rule,
generated groups by a table up to TABLE_LIMIT and by composing permutations
above it.  Power maps g -> g**h are computed once per group and unit;
conjugacy classes are orbits under the group's generators, and class bundles
join each class with the class of its inverses.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from cayspec.errors import ClosureCapExceeded

TABLE_LIMIT = 4096
CLOSURE_CAP = 10000

MultisetLike = Union[Iterable[int], Mapping[int, int]]


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
    factor orders of a cyclic group or a product of cyclic groups, else None.
    Instances are immutable after construction apart from their caches
    (classes, power maps, character table, fixing tables), and safe to pickle
    into workers, which rebuild the fixing tables; construct through the
    make_* functions.
    """

    def __init__(
        self,
        order: int,
        names: tuple[str, ...],
        family: str,
        generators: tuple[int, ...],
        *,
        cyclic_orders: Optional[tuple[int, ...]] = None,
        mul_table: Optional[tuple[tuple[int, ...], ...]] = None,
        perms: Optional[tuple[tuple[int, ...], ...]] = None,
        factors: Optional[tuple["Group", "Group"]] = None,
        aliases: Optional[dict[str, int]] = None,
    ):
        self.order = order
        self.names = names
        self.family = family
        self.generators = generators
        self.cyclic_orders = cyclic_orders
        self._code, self._reduce = _digit_codes(cyclic_orders) if cyclic_orders else (None, None)
        self._table = mul_table
        self._perms = perms
        self._perm_index = (
            {p: i for i, p in enumerate(perms)} if perms is not None else None
        )
        self.factors = factors
        self._name_index = {name: i for i, name in enumerate(names)}
        if aliases:
            for alias, idx in aliases.items():
                self._name_index.setdefault(alias, idx)
        self._inverse = tuple(self._find_inverse(i) for i in range(order))
        self._classes: Optional[ConjugacyClassPartition] = None
        self._power_maps: dict[int, tuple[int, ...]] = {}
        self._char_table = None  # filled lazily by spectra.character_table
        self._fixing_tables = None  # filled lazily by units.fixing_tables

    def __getstate__(self):
        return {**self.__dict__, "_fixing_tables": None}

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
        if self.family == "product":  # a dihedral or generated factor: componentwise
            left, right = self.factors
            nr = right.order
            return left.mul(i // nr, j // nr) * nr + right.mul(i % nr, j % nr)
        if self._table is not None:
            return self._table[i][j]
        pi, pj = self._perms[i], self._perms[j]
        return self._perm_index[tuple(pi[k] for k in pj)]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def _find_inverse(self, i: int) -> int:
        if self.family == "cyclic":
            return (-i) % self.order
        if self.family == "dihedral":
            m = self.order // 2
            return i if i >= m else (-i) % m
        if self.family == "product":
            left, right = self.factors
            nr = right.order
            return left.inv(i // nr) * nr + right.inv(i % nr)
        p = self._perms[i]
        q = [0] * len(p)
        for a, b in enumerate(p):
            q[b] = a
        return self._perm_index[tuple(q)]

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
    """Direct product with componentwise multiplication; names are '(x,y)'.

    Element (x, y) has index x * |right| + y; the generators are the left
    factor's generators paired with the identity, then the right factor's.
    """
    order = left.order * right.order
    nr = right.order
    names = tuple(
        f"({left.names[i]},{right.names[j]})" for i in range(left.order) for j in range(nr)
    )
    generators = tuple(g * nr for g in left.generators) + right.generators
    abelian = left.cyclic_orders and right.cyclic_orders
    orders = left.cyclic_orders + right.cyclic_orders if abelian else None
    return Group(order, names, "product", generators, cyclic_orders=orders, factors=(left, right))


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


def make_from_generators(perms: Sequence[Sequence[int]], cap: int = CLOSURE_CAP) -> Group:
    """Group generated by permutations, closed breadth-first from the identity."""
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
            y = tuple(x[g[k]] for k in range(npoints))
            if y not in index:
                if len(elements) >= cap:
                    raise ClosureCapExceeded(
                        f"generator closure exceeded the cap of {cap} elements"
                    )
                index[y] = len(elements)
                elements.append(y)
                queue.append(y)
    order = len(elements)
    names = tuple(_cycle_name(p) for p in elements)
    perms_t = tuple(elements)
    table = None
    if order <= TABLE_LIMIT:
        table = _table_from_rule(
            order,
            lambda i, j: index[
                tuple(perms_t[i][perms_t[j][k]] for k in range(npoints))
            ],
        )
    generators = tuple(index[g] for g in gens)
    return Group(order, names, "generated", generators, mul_table=table, perms=perms_t)


def power(G: Group, g: int, k: int) -> int:
    """g**k by square and multiply; k may be negative or zero."""
    if k < 0:
        g = G.inv(g)
        k = -k
    result = 0
    base = g
    while k:
        if k & 1:
            result = G.mul(result, base)
        base = G.mul(base, base)
        k >>= 1
    return result


def power_map(G: Group, h: int) -> tuple[int, ...]:
    """The map g -> g**h as a tuple indexed by g, cached on the group.

    Exponents are taken modulo the group order, which every element order
    divides.
    """
    h %= G.order
    pm = G._power_maps.get(h)
    if pm is None:
        pm = tuple(power(G, g, h) for g in range(G.order))
        G._power_maps[h] = pm
    return pm


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


def multiplicities(G: Group, S: MultisetLike) -> tuple[int, ...]:
    """Normalize a multiset of element indices to a per-index count vector."""
    counts = [0] * G.order
    if isinstance(S, Mapping):
        items = S.items()
    else:
        items = ((g, 1) for g in S)
    for g, m in items:
        if not 0 <= g < G.order:
            raise ValueError(f"element index {g} out of range")
        if m < 0:
            raise ValueError(f"negative multiplicity for element {g}")
        counts[g] += m
    return tuple(counts)


def is_normal_subset(G: Group, S: MultisetLike) -> bool:
    """True iff the multiplicity function of S is constant on conjugacy classes."""
    counts = multiplicities(G, S)
    for cls in conjugacy_classes(G).classes:
        first = counts[cls[0]]
        if any(counts[g] != first for g in cls[1:]):
            return False
    return True
