"""Exhaustive enumeration of normal connection (multi)sets on small groups.

Normality is enforced by construction: candidates are unions of inverse-closed
conjugacy-class bundles, so the search space is 2^bundles rather than
2^(n-1).  All per-candidate work is pure, which makes the candidate range
trivially partitionable across worker processes with a deterministic merge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from cayspec.colour import ConnectionMultiset
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import euler_phi
from cayspec.galois import distance_fixing_subgroup, multiset_fixing_subgroup
from cayspec.groups import Group, conjugacy_classes

DEFAULT_ORDER_LIMIT = 64
MAX_CANDIDATES = 2**20


def check_order(order: int, limit: int) -> None:
    """Refuse a group order above the search limit."""
    if order > limit:
        raise ValueError(f"group order {order} exceeds the search limit {limit}")


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: which group, sets or bounded multisets, filters."""

    group: Group
    mode: str = "sets"
    multiplicity_cap: int = 3
    require_connected: bool = False
    target_degree: Optional[int] = None
    order_limit: int = DEFAULT_ORDER_LIMIT

    def __post_init__(self):
        if self.mode not in ("sets", "multisets"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.mode == "multisets" and self.multiplicity_cap < 1:
            raise ValueError("multiplicity cap must be at least 1")
        check_order(self.group.order, self.order_limit)


@dataclass(frozen=True)
class SetRecord:
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


@dataclass(frozen=True)
class SearchResult:
    group_family: str
    group_order: int
    mode: str
    multiplicity_cap: int
    require_connected: bool
    target_degree: Optional[int]
    bundle_count: int
    records: tuple[SetRecord, ...]
    degree_counts: tuple[tuple[int, int], ...]
    degree_counts_connected: tuple[tuple[int, int], ...]
    witness_index: Optional[int]

    def found_target(self) -> bool:
        return self.witness_index is not None


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


def _candidate_vectors(
    num_bundles: int, mode: str, cap: int
) -> Iterator[tuple[int, ...]]:
    if mode == "sets":
        for mask in range(1, 1 << num_bundles):
            yield tuple((mask >> b) & 1 for b in range(num_bundles))
        return
    radix = cap + 1
    for code in range(1, radix**num_bundles):
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
    for vector in _candidate_vectors(len(bundles), spec.mode, spec.multiplicity_cap):
        yield _multiset_from_vector(spec.group, bundles, vector)


def _is_connected(G: Group, support: tuple[int, ...]) -> bool:
    reached = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for s in support:
            w = G.mul(s, v)
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == G.order


def _classify_one(
    G: Group,
    bundles: tuple[tuple[int, ...], ...],
    vector: tuple[int, ...],
    index: int,
) -> SetRecord:
    S = _multiset_from_vector(G, bundles, vector)
    phi = euler_phi(G.order)
    H_star = multiset_fixing_subgroup(S)
    degree = phi // len(H_star)
    if not S.is_simple():
        # Dropping repeats can only grow the fixing subgroup, so the simple
        # graph's degree divides the multigraph's.
        shadow_subgroup = multiset_fixing_subgroup(S.shadow())
        if not set(H_star.members) <= set(shadow_subgroup.members):
            raise InternalInconsistency(
                "multiset fixing subgroup escapes its shadow's fixing subgroup"
            )
    connected = _is_connected(G, S.support())
    distance_degree = None
    distance_integral = None
    if connected:
        _, H_prime = distance_fixing_subgroup(S.shadow())
        distance_degree = phi // len(H_prime)
        distance_integral = distance_degree == 1
    return SetRecord(
        index=index,
        bundle_vector=vector,
        elements=S.elements(),
        valency=S.valency(),
        connected=connected,
        degree=degree,
        distance_degree=distance_degree,
        integral=degree == 1,
        distance_integral=distance_integral,
    )


def _classify_chunk(args) -> list[SetRecord]:
    G, bundles, vectors, start = args
    return [
        _classify_one(G, bundles, vector, start + offset)
        for offset, vector in enumerate(vectors)
    ]


def classify(spec: SearchSpec, jobs: int = 1) -> SearchResult:
    """Classify every enumerated candidate by degree and distance degree.

    With jobs > 1 the candidate list is split into contiguous ranges handled
    by worker processes, at most one per CPU; the merged result is identical
    for any worker count.  More than MAX_CANDIDATES candidates are refused
    before any is listed.
    """
    bundles = class_bundles(spec.group)
    radix = 2 if spec.mode == "sets" else spec.multiplicity_cap + 1
    count = radix ** len(bundles) - 1
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{count} candidates exceed the search cap {MAX_CANDIDATES}"
        )
    vectors = list(_candidate_vectors(len(bundles), spec.mode, spec.multiplicity_cap))
    jobs = min(jobs, len(vectors), os.cpu_count() or 1)
    if jobs <= 1:
        records = _classify_chunk((spec.group, bundles, vectors, 0))
    else:
        # Imported here: only a parallel search pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        size = (len(vectors) + jobs - 1) // jobs
        chunks = [
            (spec.group, bundles, vectors[i : i + size], i)
            for i in range(0, len(vectors), size)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_classify_chunk, chunks))
        records = [record for part in parts for record in part]
    if spec.require_connected:
        records = [r for r in records if r.connected]
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
        group_family=spec.group.family,
        group_order=spec.group.order,
        mode=spec.mode,
        multiplicity_cap=spec.multiplicity_cap,
        require_connected=spec.require_connected,
        target_degree=spec.target_degree,
        bundle_count=len(bundles),
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
