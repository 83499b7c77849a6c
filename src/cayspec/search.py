"""Exhaustive enumeration of normal connection (multi)sets on small groups.

Normality is enforced by construction: candidates are unions of inverse-closed
conjugacy-class bundles, so a candidate is a vector of bundle multiplicities
and the search space is (cap+1)^bundles rather than 2^(n-1), cap 1 for sets.
Candidate code c stands for the vector of c's digits in base cap+1, bundle 0
least significant; vectors are generated in code order by `itertools.product`.

Candidates are classified on bundles.  `units.read_fixing_subgroup` reads
the fixing subgroup of a vector v, {h : v o pi_h = v}, off the group's
`units.FixingTables`, checks it there on elements in coset form, and gives
the key of v's unit orbit, the least image v o pi_h.  The product of two
bundles is a union of bundles, kept as a bitmask; connectivity and the word
length of every bundle come from one breadth-first search over bundle masks,
and the distance fixing subgroup H' is that of the word-length vector.

Every candidate takes one path: its fixing subgroup H, which decides its
degree, and its key are read once; a multiset takes its support's fixing
subgroup and key instead, read the first time the search meets that
support; the facts of the key's orbit are looked up; H must lie in the
orbit's fixing subgroup, since dropping repeats can only grow it and the
orbit shares its support's; and a connected simple set must have degree
equal to its distance degree.

The facts are computed once per unit orbit of supports.  The units commute,
so v o pi_h has the fixing subgroup of v.  Sending each class sum to the
class sum of its h-th powers is a ring automorphism of the centre of Q[G]
(sigma_h on the central characters), so the word-length vector of v o pi_h
is that of v composed with pi_h, with the same fixing subgroup, and v o pi_h
generates the group when v does.  So a support's fixing subgroup, its
connectivity and its distance degree are constant on its orbit: the orbit
takes the fixing subgroup already read for the first support to meet it,
and its distance degree is computed, and checked on elements, on its key.

A record keeps the candidate's index, its degree and its distance degree;
elements and valency are rendered from the bundle vector when the record is
written (`set_renderer`).  All per-candidate work is pure, so the candidate
codes split into contiguous ranges across worker processes with a
deterministic merge.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import islice, product
from operator import itemgetter, mul
from typing import Callable, Iterator, NamedTuple, Optional

from cayspec.errors import InternalInconsistency
from cayspec.groups import Group, class_bundles
from cayspec.units import FixingTables, UnitSubgroup, fixing_tables, read_fixing_subgroup

DEFAULT_ORDER_LIMIT = 64
MAX_CANDIDATES = 2**20
MAX_ELEMENT_COPIES = 2**27


class SetRecord(NamedTuple):
    """Classification of one enumerated connection (multi)set: its index
    (code less one), its degree, and its distance degree, None when the
    graph is disconnected."""

    index: int
    degree: int
    distance_degree: Optional[int]


class SearchResult(NamedTuple):
    """Records and histograms of one search; vector entries lie below `radix`."""

    bundle_count: int
    radix: int
    records: tuple[SetRecord, ...]
    degree_counts: tuple[tuple[int, int], ...]
    degree_counts_connected: tuple[tuple[int, int], ...]

    def vector(self, index: int) -> tuple[int, ...]:
        """The bundle vector of the candidate with this index."""
        return next(_candidate_vectors(self.bundle_count, self.radix, index + 1, index + 2))

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """The bundle vector of each record, in record order."""
        candidates = _candidate_vectors(
            self.bundle_count, self.radix, 1, self.radix**self.bundle_count
        )
        last = -1
        for record in self.records:
            skip = record.index - last - 1
            last = record.index
            yield next(islice(candidates, skip, None)) if skip else next(candidates)


def _bundle_products(tables: FixingTables) -> tuple[tuple[int, ...], ...]:
    """`products[a][b]`: the bitmask of the bundles (bit B: the identity) met
    by products x*y with x in bundle a and y in bundle b; row B, the
    identity, meets each bundle b alone."""
    G = tables.group
    bundle_of = tables.bundle_of
    B = len(tables.bundles)
    # Bundles are normal and inverse-closed, so x*(bundle b) meets the same
    # bundles for every x in bundle a: one x per bundle suffices.
    products = []
    for bundle in tables.bundles:
        x = bundle[0]
        row = [0] * B
        for y in range(1, G.order):
            row[bundle_of[y]] |= 1 << bundle_of[G.mul(x, y)]
        products.append(tuple(row))
    products.append(tuple(1 << b for b in range(B)))
    return tuple(products)


_REVERSED = itemgetter(slice(None, None, -1))


def _candidate_vectors(
    num_bundles: int, radix: int, start: int, stop: int
) -> Iterator[tuple[int, ...]]:
    """The vectors with codes start..stop-1; digit b of a code in base radix
    is the multiplicity of bundle b."""
    # product varies its last place fastest, so each of its tuples lists a
    # code's digits most significant first.
    digits = product(range(radix), repeat=num_bundles)
    return map(_REVERSED, islice(digits, start, stop))


def set_renderer(G: Group) -> Callable[[tuple[int, ...]], tuple[str, int]]:
    """A function from a non-zero bundle vector to its elements and its
    valency: the element names in index order, each repeated by its
    multiplicity and joined by ';'."""
    read_off = fixing_tables(G).read_off
    pieces = tuple(name + ";" for name in G.names)

    def render(vector):
        multiplicity = read_off(vector + (0,))
        return "".join(map(mul, pieces, multiplicity))[:-1], sum(multiplicity)

    return render


def _word_lengths(
    products: tuple[tuple[int, ...], ...], extended: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    """Extended vector of word lengths over the support of a candidate, or
    None when the support does not generate the group.

    The ball of radius k is a union of bundles, so breadth-first search runs
    on bundle masks: layer k is what the products of layer k-1 with the
    support reach for the first time.
    """
    B = len(extended) - 1
    support = [b for b in range(B) if extended[b]]
    lengths = [0] * (B + 1)
    reached = 1 << B
    frontier = [B]
    level = 0
    while frontier:
        level += 1
        mask = 0
        for a in frontier:
            row = products[a]
            for b in support:
                mask |= row[b]
        new = mask & ~reached
        reached |= new
        frontier = [b for b in range(B) if new >> b & 1]
        for b in frontier:
            lengths[b] = level
    if reached != (1 << (B + 1)) - 1:
        return None
    return tuple(lengths)


class _Search:
    """One process's classification state: the group's tables, its bundle
    products, the facts of each unit orbit of supports met so far and, for
    multisets, the fixing subgroup and orbit key of each support met so far."""

    __slots__ = ("tables", "products", "phi", "orbits", "supports")

    def __init__(self, G: Group):
        tables = fixing_tables(G)
        self.tables = tables
        self.products = _bundle_products(tables)
        self.phi = len(tables.units)
        self.orbits: dict[tuple[int, ...], tuple[frozenset[int], Optional[int]]] = {}
        self.supports: dict[tuple[bool, ...], tuple[UnitSubgroup, tuple[int, ...]]] = {}

    def orbit(self, key: tuple, H: UnitSubgroup, index: int) -> tuple[frozenset, Optional[int]]:
        """The fixing subgroup and the distance degree (None when the support
        does not generate the group) shared by every support in the unit
        orbit whose key is `key`.  The first candidate (`index`) to meet the
        orbit gives it H, its support's fixing subgroup as already read; the
        word-length vector is computed on the key and read here."""
        facts = self.orbits.get(key)
        if facts is None:
            tables = self.tables
            lengths = _word_lengths(self.products, key)
            distance_degree = None
            if lengths is not None:
                H_prime = read_fixing_subgroup(
                    tables, lengths, tables.read_off(lengths), "set {}, word-length vector", index
                )[0]
                distance_degree = self.phi // len(H_prime.members)
            facts = self.orbits[key] = (frozenset(H.members), distance_degree)
        return facts


def _classify_one(search: _Search, vector: tuple[int, ...], index: int) -> SetRecord:
    tables = search.tables
    extended = vector + (0,)
    H, key = read_fixing_subgroup(
        tables, extended, tables.read_off(extended), "set {}, multiplicity vector", index
    )
    shadow_H = H  # a set is its own shadow
    simple = max(vector) <= 1
    if not simple:
        support = tuple(map(bool, extended))
        read = search.supports.get(support)
        if read is None:
            shadow = tuple(map(int, support))
            read = search.supports[support] = read_fixing_subgroup(
                tables, shadow, tables.read_off(shadow), "set {}, shadow vector", index
            )
        shadow_H, key = read
    orbit_members, distance_degree = search.orbit(key, shadow_H, index)
    # Dropping repeats can only grow the fixing subgroup, so the simple
    # graph's degree divides the multigraph's.
    if not orbit_members.issuperset(H.members):
        raise InternalInconsistency(
            f"set {index}: multiset fixing subgroup escapes its shadow's "
            f"fixing subgroup"
        )
    degree = search.phi // len(H.members)
    # The distance degree is the orbit's and the degree the candidate's own,
    # so this also tests that the orbit shares its key's distance degree.
    if simple and distance_degree is not None and distance_degree != degree:
        raise InternalInconsistency(
            f"set {index} is connected and simple, but its degree {degree} "
            f"differs from its distance degree {distance_degree}"
        )
    return SetRecord(index, degree, distance_degree)


def _classify_range(args) -> list[SetRecord]:
    """Records of the candidates with codes start..stop-1, built on tables of
    this process's own; disconnected ones are dropped when only connected
    ones are wanted."""
    G, radix, start, stop, require_connected = args
    search = _Search(G)
    num_bundles = len(search.tables.bundles)
    records = []
    for index, vector in enumerate(_candidate_vectors(num_bundles, radix, start, stop), start - 1):
        record = _classify_one(search, vector, index)
        if not require_connected or record.distance_degree is not None:
            records.append(record)
    return records


def classify(
    G: Group, multiplicity_cap: int = 1, require_connected: bool = False, jobs: int = 1
) -> SearchResult:
    """Classify every bundle vector with entries up to `multiplicity_cap` by
    degree and distance degree; a cap of 1 searches the connection sets.

    Candidate codes 1..count are classified one at a time, never listed.
    With jobs > 1 they are split into contiguous ranges, one per worker
    process and at most one worker per CPU, each building its own tables;
    the merged result is identical for any worker count.  More than
    MAX_CANDIDATES candidates, or more than MAX_ELEMENT_COPIES element
    copies over all of them (what a report would list), are refused before
    any is classified.
    """
    if multiplicity_cap < 1:
        raise ValueError("multiplicity cap must be at least 1")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    radix = multiplicity_cap + 1
    num_bundles = len(class_bundles(G))
    stop = radix**num_bundles
    count = stop - 1
    if count > MAX_CANDIDATES:
        # The count itself can run to more digits than int formatting allows.
        raise ValueError(
            f"{radix}^{num_bundles} - 1 candidates exceed the search cap {MAX_CANDIDATES}"
        )
    # Each of the n - 1 non-identity elements takes each multiplicity m below
    # the radix in radix^(B-1) candidates: m copies in the report each time.
    copies = (G.order - 1) * stop * (radix - 1) // 2
    if copies > MAX_ELEMENT_COPIES:
        raise ValueError(f"{copies} element copies exceed the report cap {MAX_ELEMENT_COPIES}")
    jobs = min(jobs, count, os.cpu_count() or 1)
    if jobs <= 1:
        records = _classify_range((G, radix, 1, stop, require_connected))
    else:
        # Imported here: only a parallel search pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        size = (count + jobs - 1) // jobs
        ranges = [
            (G, radix, start, min(start + size, stop), require_connected)
            for start in range(1, stop, size)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_classify_range, ranges))
        records = [record for part in parts for record in part]
    counts = Counter(r.degree for r in records)
    counts_connected = Counter(r.degree for r in records if r.distance_degree is not None)
    return SearchResult(
        bundle_count=num_bundles,
        radix=radix,
        records=tuple(records),
        degree_counts=tuple(sorted(counts.items())),
        degree_counts_connected=tuple(sorted(counts_connected.items())),
    )
