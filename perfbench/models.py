"""Finite groups modelled on the benchmark side, independent of cayspec.

The benchmark writes instance files and checks reports with these models, so
neither its inputs nor its verdicts depend on the code under measurement.
Element indices and names follow the documented cayspec conventions: cyclic
elements are 'k', dihedral elements are rotations a^k then reflections b*a^k,
product elements are '(x,y)', and permutation elements are named in cycle
notation with each cycle starting at its least point ('e' for the identity).
"""

from __future__ import annotations

from collections import deque
from math import gcd


class GroupModel:
    """A finite group on indices 0..order-1 with identity 0."""

    def __init__(self, spec: str, names: list[str], mul):
        self.spec = spec  # the cayspec `kind:params` form
        self.order = len(names)
        self.names = names
        self.mul = mul
        n = self.order
        self.inverse = [next(j for j in range(n) if mul(i, j) == 0) for i in range(n)]
        self._classes = None
        self._cycles = None

    def power_map(self, h: int) -> list[int]:
        """g -> g^h for every element, read off each element's cyclic powers."""
        if self._cycles is None:
            self._cycles = []
            for g in range(self.order):
                cyc, x = [0], g
                while x != 0:
                    cyc.append(x)
                    x = self.mul(x, g)
                self._cycles.append(cyc)
        return [cyc[h % len(cyc)] for cyc in self._cycles]

    def units(self) -> list[int]:
        n = self.order
        return [h for h in range(1, n) if gcd(h, n) == 1] if n > 1 else [1]

    def classes(self) -> list[tuple[int, ...]]:
        """Conjugacy classes ordered by least element."""
        if self._classes is None:
            n, seen, out = self.order, set(), []
            for g in range(n):
                if g not in seen:
                    cls = {self.mul(self.mul(x, g), self.inverse[x]) for x in range(n)}
                    seen |= cls
                    out.append(tuple(sorted(cls)))
            self._classes = out
        return self._classes

    def bundles(self) -> list[tuple[int, ...]]:
        """Non-identity classes joined with their inverse classes."""
        out, seen = [], set()
        for cls in self.classes():
            if 0 in cls or cls[0] in seen:
                continue
            members = set(cls) | {self.inverse[g] for g in cls}
            seen |= members
            out.append(tuple(sorted(members)))
        return out

    def orbits(self, units: list[int]) -> list[tuple[int, ...]]:
        """Orbits under conjugation, inversion and the power maps g -> g^h."""
        class_of = {g: cls for cls in self.classes() for g in cls}
        pms = {h: self.power_map(h) for h in units}
        out, seen = [], set()
        for g in range(self.order):
            if g in seen:
                continue
            orbit, frontier = {g}, [g]
            while frontier:
                x = frontier.pop()
                images = set(class_of[x]) | {self.inverse[x]}
                images |= {pms[h][x] for h in units}
                for y in images - orbit:
                    orbit.add(y)
                    frontier.append(y)
            seen |= orbit
            out.append(tuple(sorted(orbit)))
        return out

    def fixing_units(self, values) -> list[int]:
        """Units h with values[g^h] == values[g] for every element g."""
        out = []
        for h in self.units():
            pm = self.power_map(h)
            if all(values[pm[g]] == v for g, v in enumerate(values)):
                out.append(h)
        return out

    def distances(self, support) -> list[int]:
        """Word length of every element over `support`; -1 where unreachable."""
        dist = [-1] * self.order
        dist[0] = 0
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for s in support:
                w = self.mul(s, v)
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist


def cyclic(n: int) -> GroupModel:
    return GroupModel(f"cyclic:{n}", [str(k) for k in range(n)], lambda i, j: (i + j) % n)


def dihedral(m: int) -> GroupModel:
    def name(i: int) -> str:
        eps, k = divmod(i, m)
        if eps == 0:
            return "1" if k == 0 else ("a" if k == 1 else f"a^{k}")
        return "b" if k == 0 else ("b*a" if k == 1 else f"b*a^{k}")

    def mul(i: int, j: int) -> int:
        e1, k1 = divmod(i, m)
        e2, k2 = divmod(j, m)
        return (e1 ^ e2) * m + ((k2 - k1) % m if e2 else (k1 + k2) % m)

    return GroupModel(f"dihedral:{m}", [name(i) for i in range(2 * m)], mul)


def product(*factors: int) -> GroupModel:
    """Direct product of cyclic groups, nested left to right like cayspec."""
    model = cyclic(factors[0])
    for n in factors[1:]:
        left = model

        def mul(i, j, left=left, n=n):
            return left.mul(i // n, j // n) * n + (i + j) % n

        names = [f"({x},{y})" for x in left.names for y in range(n)]
        model = GroupModel("", names, mul)
    model.spec = "product:" + ",".join(map(str, factors))
    return model


def cycle_name(perm: tuple[int, ...]) -> str:
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) or "e"


def parse_cycles(text: str, points: int) -> tuple[int, ...]:
    perm = list(range(points))
    for body in text.replace(")", "").split("(")[1:]:
        cyc = [int(p) for p in body.split()]
        for k, p in enumerate(cyc):
            perm[p] = cyc[(k + 1) % len(cyc)]
    return tuple(perm)


def generated(generators: str) -> GroupModel:
    """Permutation group from cycle-notation generators separated by ';'."""
    chunks = [c for c in generators.split(";") if c.strip()]
    points = 1 + max(int(p) for p in generators.replace("(", " ").replace(")", " ").replace(";", " ").split())
    gens = [parse_cycles(c, points) for c in chunks]
    ident = tuple(range(points))
    elements, index, queue = [ident], {ident: 0}, deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(x[g[k]] for k in range(points))
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                queue.append(y)
    table = [[index[tuple(p[q[k]] for k in range(points))] for q in elements] for p in elements]
    model = GroupModel(f"generated:{generators}", [cycle_name(p) for p in elements], lambda i, j: table[i][j])
    return model


def from_spec(spec: str) -> GroupModel:
    kind, _, param = spec.partition(":")
    if kind == "cyclic":
        return cyclic(int(param))
    if kind == "dihedral":
        return dihedral(int(param))
    if kind == "product":
        return product(*(int(x) for x in param.split(",")))
    if kind == "generated":
        return generated(param)
    raise ValueError(f"unknown group spec {spec!r}")
