"""Exhaustive enumeration of normal connection (multi)sets on small groups.

Normality is enforced by construction: candidates are unions of inverse-closed
conjugacy-class bundles, so a candidate is a vector of bundle multiplicities
and the search space is (cap+1)^bundles rather than 2^(n-1).

Candidates are classified on bundles.  The fixing subgroup of a vector v
is {h : v o pi_h = v}, read off the group's `galois.FixingTables` and checked
there on elements in coset form.  The product of two bundles is a union of
bundles, kept as a bitmask; connectivity and the word length of every bundle
come from one breadth-first search over bundle masks, and the distance
fixing subgroup is that of the word-length vector.  All per-candidate work
is pure, so the candidate codes split into contiguous ranges across worker
processes with a deterministic merge.
"""

from __future__ import annotations

import os
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional

from cayspec.colour import ConnectionMultiset
from cayspec.errors import InternalInconsistency
from cayspec.galois import FixingTables, _check_coset_form, _fixing_units, fixing_tables
from cayspec.groups import Group, class_bundles

DEFAULT_ORDER_LIMIT = 64
MAX_CANDIDATES = 2**20


def check_order(order: int, limit: int) -> None:
    """Refuse a group order above the search limit."""
    if order > limit:
        raise ValueError(f"group order {order} exceeds the search limit {limit}")


class SearchSpec:
    """What to enumerate: which group, sets or bounded multisets, filters."""

    __slots__ = (
        "group",
        "mode",
        "multiplicity_cap",
        "require_connected",
        "target_degree",
        "order_limit",
    )

    def __init__(
        self,
        group: Group,
        mode: str = "sets",
        multiplicity_cap: int = 3,
        require_connected: bool = False,
        target_degree: Optional[int] = None,
        order_limit: int = DEFAULT_ORDER_LIMIT,
    ):
        if mode not in ("sets", "multisets"):
            raise ValueError(f"unknown search mode {mode!r}")
        if mode == "multisets" and multiplicity_cap < 1:
            raise ValueError("multiplicity cap must be at least 1")
        check_order(group.order, order_limit)
        self.group = group
        self.mode = mode
        self.multiplicity_cap = multiplicity_cap
        self.require_connected = require_connected
        self.target_degree = target_degree
        self.order_limit = order_limit

    @property
    def radix(self) -> int:
        """Number of multiplicities a bundle may take, zero included."""
        return 2 if self.mode == "sets" else self.multiplicity_cap + 1


class SetRecord(NamedTuple):
    """Classification of one enumerated connection (multi)set."""

    index: int
    bundle_vector: tuple[int, ...]
    elements: tuple[int, ...]
    valency: int
    connected: bool
    degree: int
    distance_degree: Optional[int]
    integral: bool
    distance_integral: Optional[bool]


class SearchResult(NamedTuple):
    """Records and histograms of one search; the spec says what was searched."""

    bundle_count: int
    records: tuple[SetRecord, ...]
    degree_counts: tuple[tuple[int, int], ...]
    degree_counts_connected: tuple[tuple[int, int], ...]
    witness_index: Optional[int]


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


def _candidate_vectors(
    num_bundles: int, radix: int, start: int, stop: int
) -> Iterator[tuple[int, ...]]:
    """The vectors with codes start..stop-1; digit b of a code in base radix
    is the multiplicity of bundle b."""
    for code in range(start, stop):
        vec = []
        x = code
        for _ in range(num_bundles):
            x, r = divmod(x, radix)
            vec.append(r)
        yield tuple(vec)


def _multiset_from_vector(
    G: Group, bundles: tuple[tuple[int, ...], ...], vector: tuple[int, ...]
) -> ConnectionMultiset:
    counts = [0] * G.order
    for b, mult in enumerate(vector):
        if mult:
            for g in bundles[b]:
                counts[g] = mult
    return ConnectionMultiset(G, tuple(counts))


def enumerate_normal_sets(spec: SearchSpec) -> Iterator[ConnectionMultiset]:
    """All non-empty normal inverse-closed connection (multi)sets, in order."""
    bundles = class_bundles(spec.group)
    stop = spec.radix**len(bundles)
    for vector in _candidate_vectors(len(bundles), spec.radix, 1, stop):
        yield _multiset_from_vector(spec.group, bundles, vector)


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


def _classify_one(
    tables: FixingTables,
    products: tuple[tuple[int, ...], ...],
    vector: tuple[int, ...],
    index: int,
) -> SetRecord:
    phi = len(tables.units)
    extended = vector + (0,)
    multiplicity = tables.read_off(extended)
    H = _fixing_units(tables, extended)
    degree = phi // len(H)
    simple = max(vector) <= 1
    if not simple:
        # Dropping repeats can only grow the fixing subgroup, so the simple
        # graph's degree divides the multigraph's.
        shadow = tuple(min(m, 1) for m in extended)
        shadow_H = _fixing_units(tables, shadow)
        if not set(H) <= set(shadow_H):
            raise InternalInconsistency(
                f"set {index}: multiset fixing subgroup escapes its shadow's "
                f"fixing subgroup"
            )
        _check_coset_form(
            tables, f"set {index}, shadow vector", shadow_H, shadow, tables.read_off(shadow)
        )
    _check_coset_form(tables, f"set {index}, multiplicity vector", H, extended, multiplicity)
    lengths = _word_lengths(products, extended)
    distance_degree = None
    distance_integral = None
    if lengths is not None:
        H_prime = _fixing_units(tables, lengths)
        _check_coset_form(
            tables, f"set {index}, word-length vector", H_prime, lengths, tables.read_off(lengths)
        )
        distance_degree = phi // len(H_prime)
        distance_integral = distance_degree == 1
        if simple and distance_degree != degree:
            raise InternalInconsistency(
                f"set {index} is connected and simple, but its degree {degree} "
                f"differs from its distance degree {distance_degree}"
            )
    elements = chain.from_iterable(map(repeat, range(len(multiplicity)), multiplicity))
    return SetRecord(
        index=index,
        bundle_vector=vector,
        elements=tuple(elements),
        valency=sum(multiplicity),
        connected=lengths is not None,
        degree=degree,
        distance_degree=distance_degree,
        integral=degree == 1,
        distance_integral=distance_integral,
    )


def _classify_range(args) -> list[SetRecord]:
    """Records of the candidates with codes start..stop-1, built on tables of
    this process's own; disconnected ones are dropped when only connected
    ones are wanted."""
    G, radix, start, stop, require_connected = args
    tables = fixing_tables(G)
    products = _bundle_products(tables)
    records = []
    for code, vector in enumerate(
        _candidate_vectors(len(tables.bundles), radix, start, stop), start
    ):
        record = _classify_one(tables, products, vector, code - 1)
        if record.connected or not require_connected:
            records.append(record)
    return records


def classify(spec: SearchSpec, jobs: int = 1) -> SearchResult:
    """Classify every enumerated candidate by degree and distance degree.

    Candidate codes 1..count are classified one at a time, never listed.
    With jobs > 1 they are split into contiguous ranges, one per worker
    process and at most one worker per CPU, each building its own tables;
    the merged result is identical for any worker count.  More than
    MAX_CANDIDATES candidates are refused before any is classified.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    G = spec.group
    num_bundles = len(class_bundles(G))
    stop = spec.radix**num_bundles
    count = stop - 1
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{count} candidates exceed the search cap {MAX_CANDIDATES}"
        )
    jobs = min(jobs, count, os.cpu_count() or 1)
    if jobs <= 1:
        records = _classify_range((G, spec.radix, 1, stop, spec.require_connected))
    else:
        # Imported here: only a parallel search pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        size = (count + jobs - 1) // jobs
        ranges = [
            (G, spec.radix, start, min(start + size, stop), spec.require_connected)
            for start in range(1, stop, size)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_classify_range, ranges))
        records = [record for part in parts for record in part]
    counts: dict[int, int] = {}
    counts_connected: dict[int, int] = {}
    for r in records:
        counts[r.degree] = counts.get(r.degree, 0) + 1
        if r.connected:
            counts_connected[r.degree] = counts_connected.get(r.degree, 0) + 1
    witness = None
    if spec.target_degree is not None:
        for r in records:
            if r.degree == spec.target_degree:
                witness = r.index
                break
    return SearchResult(
        bundle_count=num_bundles,
        records=tuple(records),
        degree_counts=tuple(sorted(counts.items())),
        degree_counts_connected=tuple(sorted(counts_connected.items())),
        witness_index=witness,
    )


def verify_degree_equals_distance_degree(
    spec: SearchSpec, jobs: int = 1
) -> tuple[bool, tuple[SetRecord, ...]]:
    """Compare degree and distance degree over every connected enumerated set.

    Only meaningful for simple sets; returns the verdict and any
    counterexamples (expected none).
    """
    if spec.mode != "sets":
        raise ValueError("degree comparison is defined for simple connection sets")
    result = classify(spec, jobs=jobs)
    counterexamples = tuple(
        r for r in result.records if r.connected and r.degree != r.distance_degree
    )
    return (not counterexamples, counterexamples)
