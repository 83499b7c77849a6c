import concurrent.futures
import pickle

import pytest

import cayspec.search as search_mod
from cayspec.cli import main
from cayspec.colour import ConnectionMultiset, distance_layering
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import euler_phi
from cayspec.groups import (
    Group,
    class_bundles,
    is_normal_subset,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
    power_map,
)
from cayspec.search import (
    SearchSpec,
    SetRecord,
    _multiset_from_vector,
    classify,
    enumerate_normal_sets,
    verify_degree_equals_distance_degree,
)
from cayspec.units import unit_group


# The element-route classification that the bundle route replaced, kept as
# the reference and sharing nothing with it but the group engine: fixing
# subgroups by scanning every unit on every element (multiplicities, then
# distance layers), connectivity and layers by search over group elements.


def reference_multiset_fixing_members(S: ConnectionMultiset) -> tuple[int, ...]:
    G = S.group
    members = []
    for h in unit_group(G.order).members:
        pm = power_map(G, h)
        image = [0] * G.order
        for g, m in enumerate(S.multiplicity):
            if m:
                image[pm[g]] += m
        if tuple(image) == S.multiplicity:
            members.append(h)
    return tuple(members)


def reference_layer_fixing_members(G: Group, layers) -> tuple[int, ...]:
    members = []
    layer_sets = [frozenset(layer) for layer in layers[1:]]
    for h in unit_group(G.order).members:
        pm = power_map(G, h)
        if all(frozenset(pm[g] for g in layer) == layer for layer in layer_sets):
            members.append(h)
    return tuple(members)


def reference_candidate_vectors(num_bundles, mode, cap):
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


def reference_is_connected(G: Group, support: tuple[int, ...]) -> bool:
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


def reference_classify_one(
    G: Group,
    bundles: tuple[tuple[int, ...], ...],
    vector: tuple[int, ...],
    index: int,
) -> SetRecord:
    S = _multiset_from_vector(G, bundles, vector)
    phi = euler_phi(G.order)
    H_star = reference_multiset_fixing_members(S)
    degree = phi // len(H_star)
    if not S.is_simple():
        # Dropping repeats can only grow the fixing subgroup, so the simple
        # graph's degree divides the multigraph's.
        shadow_members = reference_multiset_fixing_members(S.shadow())
        if not set(H_star) <= set(shadow_members):
            raise InternalInconsistency(
                "multiset fixing subgroup escapes its shadow's fixing subgroup"
            )
    connected = reference_is_connected(G, S.support())
    distance_degree = None
    distance_integral = None
    if connected:
        layers = distance_layering(S.shadow()).layers
        H_prime = reference_layer_fixing_members(G, layers)
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


def reference_records(spec: SearchSpec) -> tuple[SetRecord, ...]:
    bundles = class_bundles(spec.group)
    vectors = reference_candidate_vectors(len(bundles), spec.mode, spec.multiplicity_cap)
    records = [
        reference_classify_one(spec.group, bundles, vector, index)
        for index, vector in enumerate(vectors)
    ]
    return tuple(r for r in records if r.connected or not spec.require_connected)


def test_bundle_route_matches_element_reference():
    s4 = make_from_generators([[1, 2, 3, 0], [1, 0, 2, 3]])
    specs = [
        SearchSpec(make_cyclic(12)),
        SearchSpec(make_product(make_cyclic(3), make_cyclic(4))),
        SearchSpec(make_dihedral(6)),
        SearchSpec(make_dihedral(8)),
        SearchSpec(s4),
        SearchSpec(make_cyclic(10), mode="multisets", multiplicity_cap=2),
        SearchSpec(make_dihedral(5), mode="multisets", multiplicity_cap=2),
        SearchSpec(make_cyclic(9), require_connected=True),
    ]
    assert s4.order == 24
    for spec in specs:
        records = classify(spec).records
        assert records, spec
        assert records == reference_records(spec), spec
    for spec in specs[-3:]:
        assert classify(spec, jobs=2) == classify(spec, jobs=1)


def test_serial_search_streams_candidates(monkeypatch):
    # Each candidate is classified, once, before the next one is generated.
    events = []
    real_vectors, real_one = search_mod._candidate_vectors, search_mod._classify_one

    def vectors(*args):
        for vector in real_vectors(*args):
            events.append("vector")
            yield vector

    def classify_one(*args):
        events.append("classify")
        return real_one(*args)

    monkeypatch.setattr(search_mod, "_candidate_vectors", vectors)
    monkeypatch.setattr(search_mod, "_classify_one", classify_one)
    assert len(classify(SearchSpec(make_cyclic(7))).records) == 7
    assert events == ["vector", "classify"] * 7


def test_degree_distance_mismatch_exits_three(monkeypatch, capsys):
    # Word lengths that give the complete graph on Z5 (set 2) a distance
    # degree of 2: the element route checks H' against these same lengths,
    # so only the degree = distance degree assertion can notice.
    real = search_mod._word_lengths

    def skewed(tables, extended):
        lengths = real(tables, extended)
        return (1, 2, 0) if lengths == (1, 1, 0) else lengths

    monkeypatch.setattr(search_mod, "_word_lengths", skewed)
    assert main(["search", "--group", "cyclic:5"]) == 3
    err = capsys.readouterr().err
    assert "set 2 is connected and simple, but its degree 1 differs" in err
    assert "from its distance degree 2" in err


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
    G = make_cyclic(12)
    spec = SearchSpec(G)
    serial = classify(spec, jobs=1)
    # Workers build their own fixing tables; none travel with the group.
    assert G._fixing_tables is not None
    assert pickle.loads(pickle.dumps(G))._fixing_tables is None
    assert classify(spec, jobs=3) == serial


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
