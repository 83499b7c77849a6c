import concurrent.futures

import pytest

import cayspec.search as search_mod
from cayspec.exactnum import euler_phi
from cayspec.groups import is_normal_subset, make_cyclic, make_dihedral
from cayspec.search import (
    SearchSpec,
    class_bundles,
    classify,
    enumerate_normal_sets,
    verify_degree_equals_distance_degree,
)


def test_bundles_d4():
    G = make_dihedral(4)
    bundles = class_bundles(G)
    assert len(bundles) == 4
    names = [tuple(G.names[g] for g in b) for b in bundles]
    assert names == [("a", "a^3"), ("a^2",), ("b", "b*a^2"), ("b*a", "b*a^3")]


def test_bundles_cyclic_pairs():
    for n in (5, 6, 9, 12):
        G = make_cyclic(n)
        bundles = class_bundles(G)
        for b in bundles:
            assert set(b) in ({b[0], n - b[0]},)
        assert len(bundles) == (n - 1 + 1) // 2


def test_enumeration_count_and_normality():
    G = make_dihedral(4)
    sets = list(enumerate_normal_sets(SearchSpec(G)))
    assert len(sets) == 15
    assert len({s.multiplicity for s in sets}) == 15
    for s in sets:
        assert is_normal_subset(G, dict(enumerate(s.multiplicity)))


def test_enumeration_multiset_count():
    G = make_cyclic(5)
    spec = SearchSpec(G, mode="multisets", multiplicity_cap=2)
    sets = list(enumerate_normal_sets(spec))
    assert len(sets) == 3**2 - 1


def test_order_limit_enforced():
    with pytest.raises(ValueError):
        SearchSpec(make_cyclic(10), order_limit=8)


def test_classify_d4_has_no_degree_two():
    G = make_dihedral(4)
    result = classify(SearchSpec(G, target_degree=2))
    assert len(result.records) == 15
    assert result.witness_index is None
    assert result.degree_counts == ((1, 15),)
    connected = classify(SearchSpec(G, target_degree=2, require_connected=True))
    assert connected.witness_index is None


def test_classify_finds_circulant_witnesses():
    Z16 = make_cyclic(16)
    for target in (1, 2, 4):
        result = classify(SearchSpec(Z16, target_degree=target))
        assert result.witness_index is not None

    Z5 = make_cyclic(5)
    result = classify(SearchSpec(Z5, target_degree=2))
    witness = next(r for r in result.records if r.index == result.witness_index)
    assert witness.elements == (1, 4)
    assert witness.degree == 2


def test_degrees_divide_half_totient():
    for G in (make_cyclic(12), make_dihedral(6)):
        half = euler_phi(G.order) // 2
        result = classify(SearchSpec(G))
        for record in result.records:
            assert half % record.degree == 0


def test_connected_records_have_distance_degree():
    result = classify(SearchSpec(make_dihedral(5)))
    for record in result.records:
        if record.connected:
            assert record.distance_degree == record.degree
        else:
            assert record.distance_degree is None


def test_verify_degree_equals_distance_degree():
    ok, counterexamples = verify_degree_equals_distance_degree(
        SearchSpec(make_dihedral(4), require_connected=True)
    )
    assert ok and counterexamples == ()
    with pytest.raises(ValueError):
        verify_degree_equals_distance_degree(
            SearchSpec(make_cyclic(5), mode="multisets")
        )


def test_multiset_mode_runs_shadow_containment():
    # every record construction asserts the multiset subgroup sits inside
    # the shadow's subgroup; a full pass means no assertion fired
    result = classify(SearchSpec(make_dihedral(5), mode="multisets", multiplicity_cap=2))
    assert len(result.records) == 3**3 - 1
    multi = [r for r in result.records if any(m > 1 for m in r.bundle_vector)]
    assert multi


def test_classify_deterministic_across_workers():
    spec = SearchSpec(make_cyclic(12))
    assert classify(spec, jobs=1) == classify(spec, jobs=3)


def test_classify_clamps_jobs_to_cpus(monkeypatch):
    class SerialPool:
        # Stands in for the process pool: records the worker count, maps in
        # this process, starts nothing.
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    requested = []
    # classify imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 2)
    spec = SearchSpec(make_cyclic(12))
    serial = classify(spec, jobs=1)
    assert classify(spec, jobs=100000) == serial
    assert requested == [2]
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: None)
    assert classify(spec, jobs=100000) == serial
    assert requested == [2]


def test_complete_graph_record():
    G = make_cyclic(7)
    result = classify(SearchSpec(G))
    full = next(r for r in result.records if r.valency == 6)
    assert full.connected and full.degree == 1 and full.distance_degree == 1
    assert full.integral and full.distance_integral
