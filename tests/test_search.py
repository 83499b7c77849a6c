import concurrent.futures
import hashlib
import pickle

import pytest

import cayspec.search as search_mod
from cayspec.cli import main
from cayspec.colour import colour_from_multiset, distance_layering
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import euler_phi
from cayspec.groups import (
    Group,
    class_bundles,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
    power_map,
)
from cayspec.search import classify, set_renderer
from cayspec.spectra import character_table
from cayspec.units import fixing_tables, unit_group


# The element-route classification that the bundle route replaced, kept as
# the reference and sharing nothing with it but the group engine: fixing
# subgroups by scanning every unit on every element (multiplicities, then
# distance layers), connectivity and layers by search over group elements.


def reference_multiset_fixing_members(G: Group, counts: tuple[int, ...]) -> tuple[int, ...]:
    members = []
    for h in unit_group(G.order).members:
        pm = power_map(G, h)
        image = [0] * G.order
        for g, m in enumerate(counts):
            if m:
                image[pm[g]] += m
        if tuple(image) == counts:
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


def multiset_from_vector(
    G: Group, bundles: tuple[tuple[int, ...], ...], vector: tuple[int, ...]
) -> tuple[int, ...]:
    """Per element, how often the connection multiset taking each bundle as
    often as its entry says takes it."""
    counts = [0] * G.order
    for b, mult in enumerate(vector):
        for g in bundles[b]:
            counts[g] = mult
    return tuple(counts)


def reference_candidate_vectors(num_bundles, cap):
    if cap == 1:
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
) -> tuple:
    """(index, vector, elements, valency, connected, degree, distance degree)."""
    counts = multiset_from_vector(G, bundles, vector)
    phi = euler_phi(G.order)
    H_star = reference_multiset_fixing_members(G, counts)
    degree = phi // len(H_star)
    shadow = tuple(min(m, 1) for m in counts)
    if counts != shadow:
        # Dropping repeats can only grow the fixing subgroup, so the simple
        # graph's degree divides the multigraph's.
        shadow_members = reference_multiset_fixing_members(G, shadow)
        if not set(H_star) <= set(shadow_members):
            raise InternalInconsistency(
                "multiset fixing subgroup escapes its shadow's fixing subgroup"
            )
    connected = reference_is_connected(G, tuple(g for g, m in enumerate(counts) if m))
    distance_degree = None
    if connected:
        layers = distance_layering(colour_from_multiset(G, dict(enumerate(shadow)))).layers
        H_prime = reference_layer_fixing_members(G, layers)
        distance_degree = phi // len(H_prime)
    elements = ";".join(G.names[g] for g, m in enumerate(counts) for _ in range(m))
    return (index, vector, elements, sum(counts), connected, degree, distance_degree)


def reference_records(G: Group, cap: int = 1, require_connected: bool = False) -> tuple[tuple, ...]:
    bundles = class_bundles(G)
    vectors = reference_candidate_vectors(len(bundles), cap)
    records = [
        reference_classify_one(G, bundles, vector, index) for index, vector in enumerate(vectors)
    ]
    return tuple(r for r in records if r[4] or not require_connected)


def bundle_route_records(
    G: Group, cap: int = 1, require_connected: bool = False
) -> tuple[tuple, ...]:
    """The compact records of `classify`, each with its vector, elements and
    valency rendered as the report renders them."""
    result = classify(G, cap, require_connected)
    render = set_renderer(G)
    rows = []
    for record, vector in zip(result.records, result.vectors()):
        elements, valency = render(vector)
        rows.append(
            (record.index, vector, elements, valency, record.distance_degree is not None,
             record.degree, record.distance_degree)
        )
    return tuple(rows)


def test_bundle_route_matches_element_reference():
    s4 = make_from_generators([[1, 2, 3, 0], [1, 0, 2, 3]])
    # (group, multiplicity cap, connected only)
    cases = [
        (make_cyclic(12), 1, False),
        (make_product(make_cyclic(3), make_cyclic(4)), 1, False),
        (make_dihedral(6), 1, False),
        (make_dihedral(8), 1, False),
        (s4, 1, False),
        (make_cyclic(10), 2, False),
        (make_dihedral(5), 2, False),
        (make_cyclic(9), 1, True),
    ]
    assert s4.order == 24
    for case in cases:
        records = bundle_route_records(*case)
        assert records, case
        assert records == reference_records(*case), case
    for case in cases[-3:]:
        assert classify(*case, jobs=2) == classify(*case, jobs=1)


@pytest.mark.parametrize(
    "group, cap, against_reference",
    [
        (lambda: make_cyclic(24), 1, False),
        (lambda: make_dihedral(12), 1, True),
        (lambda: make_product(make_product(make_cyclic(2), make_cyclic(3)), make_cyclic(4)), 1, False),
        (lambda: make_from_generators([[1, 2, 3, 0], [1, 0, 2, 3]]), 1, True),
        (lambda: make_dihedral(8), 3, False),
        (lambda: make_cyclic(16), 1, True),
        (lambda: make_cyclic(9), 2, True),
    ],
    ids=[
        "cyclic:24", "dihedral:12", "product:2,3,4", "S4", "dihedral:8 --multisets 3",
        "cyclic:16", "cyclic:9 --multisets 2",
    ],
)
def test_word_lengths_searched_once_per_unit_orbit(monkeypatch, group, cap, against_reference):
    # Every fact a record takes from its support is constant on the
    # support's unit orbit, so the breadth-first search runs on each orbit's
    # key alone.  The records are held to the element route wherever it runs
    # in well under a second, Z16 and Z9 among them: on the first five groups
    # every unit permutes the bundles as an involution, while on these two
    # units act with order 4 and 3, so a support keyed to a wrong orbit
    # would show in its records.
    G = group()
    searched = []
    real_search = search_mod._word_lengths

    def counted(products, extended):
        searched.append(extended)
        return real_search(products, extended)

    monkeypatch.setattr(search_mod, "_word_lengths", counted)
    result = classify(G, cap)
    assert len(result.records) == (cap + 1) ** result.bundle_count - 1
    supports = {tuple(min(m, 1) for m in vector) + (0,) for vector in result.vectors()}
    orbits = {
        min(pullback(support) for pullback in fixing_tables(G).pullbacks) for support in supports
    }
    assert sorted(searched) == sorted(orbits)
    if against_reference:
        assert bundle_route_records(G, cap) == reference_records(G, cap)


@pytest.mark.parametrize(
    "group, cap, counts",
    [
        (lambda: make_cyclic(24), 1, (4095, 0, 1288)),
        (lambda: make_cyclic(12), 2, (728, 63, 38)),
        (lambda: make_dihedral(6), 2, (242, 31, 20)),
    ],
    ids=["cyclic:24", "cyclic:12 --multisets 2", "dihedral:6 --multisets 2"],
)
def test_each_vector_is_read_once(reads, group, cap, counts):
    # One checked read per candidate, per multiset support and per connected
    # orbit's word-length vector, and none of an orbit's key: a new orbit
    # takes the fixing subgroup of the read that met it.  Re-reading each
    # new orbit's key made 6,726, 876 and 324 reads here.
    G = group()
    result = classify(G, cap)
    vectors = list(result.vectors())
    supports = {tuple(min(m, 1) for m in v) + (0,) for v in vectors if max(v) > 1}
    connected = {
        tuple(min(m, 1) for m in v) + (0,)
        for v, record in zip(vectors, result.records)
        if record.distance_degree is not None
    }
    pullbacks = fixing_tables(G).pullbacks
    orbits = {min(pullback(support) for pullback in pullbacks) for support in connected}
    assert (len(vectors), len(supports), len(orbits)) == counts
    labels = ("multiplicity vector", "shadow vector", "word-length vector")
    expected = {f"set {{}}, {label}": count for label, count in zip(labels, counts) if count}
    assert reads == expected


def cycle(n: int) -> list[int]:
    """The n-cycle (0 1 ... n-1) as a permutation list."""
    return list(range(1, n)) + [0]


# Presentations of one group each: the histograms are invariants of the
# isomorphism class, so they must agree although the element orders, names,
# classes and bundles of the families differ.
Z24 = [lambda: make_cyclic(24), lambda: make_product(make_cyclic(3), make_cyclic(8)),
       lambda: make_product(make_cyclic(8), make_cyclic(3)),
       lambda: make_from_generators([cycle(24)])]
Z12 = [lambda: make_cyclic(12), lambda: make_product(make_cyclic(3), make_cyclic(4)),
       lambda: make_product(make_cyclic(4), make_cyclic(3)),
       lambda: make_from_generators([cycle(12)])]
D5 = [lambda: make_dihedral(5), lambda: make_from_generators([cycle(5), [0, 4, 3, 2, 1]])]
D6 = [lambda: make_dihedral(6), lambda: make_from_generators([cycle(6), [0, 5, 4, 3, 2, 1]])]


@pytest.mark.parametrize(
    "cap, presentations", [(1, Z24), (2, Z12), (1, D5), (2, D5), (1, D6), (2, D6)],
    ids=["Z24", "Z12 --multisets 2", "D5", "D5 --multisets 2", "D6", "D6 --multisets 2"],
)
def test_histograms_agree_across_presentations(cap, presentations):
    groups = [make() for make in presentations]
    assert len({G.order for G in groups}) == 1
    results = [classify(G, cap) for G in groups]
    first = results[0]
    assert first.degree_counts_connected
    for G, result in zip(groups[1:], results[1:]):
        assert result.degree_counts == first.degree_counts, G.family
        assert result.degree_counts_connected == first.degree_counts_connected, G.family


# Exit code and stdout sha256 of `search --group ... --jobs 1` on every
# presentation of the benchmark's search slots and on two more multiset
# requests, recorded while each support's word lengths were still moved to
# it from its orbit's key.
SEARCH_REPORTS = {
    "cyclic:24": (0, "5564ee01b62674e497b393f54979b809af104c35fc1613c8d9225e066071c19c"),
    "product:3,8": (0, "ec8ddd55dbc893dad54474ecf045be748ca36cda605e91a756399b6d29c8573f"),
    "product:8,3": (0, "bf0b34b235512e3b3b6127fbd594dd0a140b74ea87832151c36771223a59a6b2"),
    "cyclic:20": (0, "5d0fcfc177824b6f7996232b42896e2f66d98a438cbd2d7b43e7530f434b167e"),
    "product:4,5": (0, "1956e5ae42592866493bead401af9cc5bd2de9d164750bd887acd0d1fc0ab782"),
    "product:5,4": (0, "84e3f495d4defc4b3b5c7c0a52a1bc6092ab65abf2e4a823c443c4dcad873e32"),
    "product:2,8": (0, "74ae2cdbe3165d7c98c7ac18fa49063c1778079c3edc72163e582ac28987eacd"),
    "product:8,2": (0, "eaf5508d53204e715125f9e657ae9a991bd44d340d0a6b091c0197a00ec6419e"),
    "dihedral:12": (0, "a0a30b03cf6f765f5cec93a9b4a606dbe03af6e5f1167c7bb4506ea58b7ecbb5"),
    "dihedral:16": (0, "ea02a31966acb8f72f39b2568487bda6e9148dcd4bb6f3cc522f8bcc74115228"),
    "cyclic:12 --multisets 2": (0, "6f361bc4d4796426a1097029fcf9fc7c3a09a9d3415ccc6f6fcbd8a3819ad201"),
    "product:3,4 --multisets 2": (0, "ad52ac1968818cc6ea945ee39bfea4259530dd2a92fdd5b9a1ecf2f253345422"),
    "product:4,3 --multisets 2": (0, "3f4f0fae4319c49500ea2d834d030e33a20ded4761f41a332ac3769fd7aa5b7a"),
    "dihedral:6 --multisets 2": (0, "664753cbd366edc709476faa0c1b0a67f79802c9e599672d92cbbdc5517c9bf6"),
    "cyclic:18 --connected": (0, "2f614d3d9b6bcc50d968e2e3f4e57cdcde73e74ae0f84e0feab607858d9c62b9"),
    "product:2,9 --connected": (0, "e42fc2a8662198f24ae995bb0a6bfe89941295d7af95213739ce9c95cb8e036c"),
    "product:9,2 --connected": (0, "a64d861f8e978d6d2caa4a3b1c8dffd5e61bfdd0c1186ecbfd1a5c6cb4962aeb"),
    "dihedral:8 --multisets 3": (0, "900745e6aa654ce91d2f298c26ed0ea7fb2bbbce39e647dc0faed7bbee9a06ea"),
    "cyclic:9 --multisets 2 --degree 3": (0, "167f58260462e123584fee1a8e519f07ed0d3b21ece1cd7010d182a1abb9afe9"),
}


@pytest.mark.parametrize("request_args", sorted(SEARCH_REPORTS))
def test_search_report_pinned(capsys, request_args):
    code = main(["search", "--group", *request_args.split(), "--jobs", "1"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SEARCH_REPORTS[request_args]


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
    assert len(classify(make_cyclic(7)).records) == 7
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


def enumerated_multisets(G: Group, cap: int = 1) -> list[tuple[int, ...]]:
    bundles = class_bundles(G)
    return [multiset_from_vector(G, bundles, v) for v in classify(G, cap).vectors()]


def test_enumeration_count_and_normality():
    G = make_dihedral(4)
    sets = enumerated_multisets(G)
    assert len(sets) == 15
    assert len(set(sets)) == 15
    for s in sets:
        colour_from_multiset(G, dict(enumerate(s)))  # refuses a set that is not normal


def test_enumeration_multiset_count():
    G = make_cyclic(5)
    sets = enumerated_multisets(G, 2)
    assert len(sets) == 3**2 - 1
    assert sorted(sets) == sorted(
        (0, a, b, b, a) for a in range(3) for b in range(3) if a or b
    )


def test_classify_d4_has_no_degree_two():
    G = make_dihedral(4)
    result = classify(G)
    assert len(result.records) == 15
    assert all(r.degree != 2 for r in result.records)
    assert result.degree_counts == ((1, 15),)
    connected = classify(G, require_connected=True)
    assert connected.records
    assert all(r.degree != 2 for r in connected.records)


def test_classify_finds_circulant_witnesses(capsys):
    degrees = {r.degree for r in classify(make_cyclic(16)).records}
    assert {1, 2, 4} <= degrees

    # The witness is the first record of the degree asked for.
    Z5 = make_cyclic(5)
    result = classify(Z5)
    witness = next(r for r in result.records if r.degree == 2)
    assert witness.index == 0
    assert result.vector(witness.index) == (1, 0)
    assert set_renderer(Z5)(result.vector(witness.index)) == ("1;4", 2)
    assert main(["search", "--group", "cyclic:5", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "Witness of degree 2: {1;4}\n" in out
    assert out.endswith("search.witness = 0\n--- end ---\n")


def test_degrees_divide_half_totient():
    for G in (make_cyclic(12), make_dihedral(6)):
        half = euler_phi(G.order) // 2
        result = classify(G)
        for record in result.records:
            assert half % record.degree == 0


def test_connected_records_have_distance_degree():
    result = classify(make_dihedral(5))
    connected = [r for r in result.records if r.distance_degree is not None]
    assert all(r.distance_degree == r.degree for r in connected)
    # Only the three sets of rotations alone fail to generate D5.
    assert len(result.records) - len(connected) == 3


def test_multiset_mode_runs_shadow_containment():
    # every record construction asserts the multiset subgroup sits inside
    # the shadow's subgroup; a full pass means no assertion fired
    result = classify(make_dihedral(5), 2)
    assert len(result.records) == 3**3 - 1
    multi = [v for v in result.vectors() if any(m > 1 for m in v)]
    assert multi


def test_classify_deterministic_across_workers():
    G = make_cyclic(12)
    serial = classify(G, jobs=1)
    # Workers build their own fixing tables; none travel with the group.
    assert G._fixing_tables is not None
    assert pickle.loads(pickle.dumps(G))._fixing_tables is None
    assert classify(G, jobs=3) == serial


def test_classify_across_workers_after_a_character_table():
    # A table's exponent rule closes over local data and does not pickle, so
    # the table stays behind with the group's other caches.
    G = make_dihedral(6)
    character_table(G)
    assert pickle.loads(pickle.dumps(G))._char_table is None
    assert classify(G, 1, False, 2) == classify(G, 1, False, 1)


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
    G = make_cyclic(12)
    serial = classify(G, jobs=1)
    assert classify(G, jobs=100000) == serial
    assert requested == [2]
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: None)
    assert classify(G, jobs=100000) == serial
    assert requested == [2]


def test_complete_graph_record():
    G = make_cyclic(7)
    result = classify(G)
    render = set_renderer(G)
    full = next(r for r, v in zip(result.records, result.vectors()) if render(v)[1] == 6)
    assert full.index == 2**3 - 2
    assert full.degree == 1 and full.distance_degree == 1
