"""Self times and per-layer metrics from the spans trace_request.py records.

A span is [name, start, end, parent, timed_children_s, note].  Its self time
is its duration minus the part of that interval its child spans cover, minus
the summed time of the frequent calls (such as `groups.power`) made directly
under it.  Self times partition a request, so they sum to its root span.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans) -> list[float]:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (name, start, end, parent, timed, note) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - timed)
    return out


def _sum(table, names) -> float:
    return sum(table.get(name, 0.0) for name in names)


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics summed over the traced requests of one pass."""
    own = defaultdict(float)  # span name -> summed self time
    classify_s = 0.0  # inclusive: classify spans never nest
    calls = defaultdict(lambda: [0, 0])
    notes = defaultdict(float)
    tried = found = 0
    for record in records:
        spans = record["spans"]
        for span, own_s in zip(spans, self_times(spans)):
            own[span[0]] += own_s
            if span[0] == "search.classify":
                classify_s += span[2] - span[1]
            for key, value in (span[5] or {}).items():
                notes[f"{span[0]}.{key}"] += value
            if span[0] == "kernels.jacobi_diagonalize":
                n = span[5]["n"]
                notes["rotations"] += span[5]["sweeps"] * n * (n - 1) // 2
        for name, (count, amount) in record["calls"].items():
            calls[name][0] += count
            calls[name][1] += amount
        for i, span in enumerate(spans):
            if span[0] == "galois.splitting_field":
                tries = sum(1 for s in spans if s[3] == i and s[0] == "exactnum.galois_orbit")
                tried += tries
                found += bool(tries and span[5]["found"])
    candidates = calls["search._classify_one"][0]
    return {
        "cli.import_s": own["cli.import"],
        "cli.parse_s": _sum(own, ["cli.load_instance", "cli.parse_instance"]),
        "cli.render_s": own["cli.Report.render"] + calls["cli.Report.put"][1] + calls["cli.Report.line"][1],
        "cli.report_bytes": notes["cli.Report.render.bytes"],
        "groups.make_s": _sum(own, ["groups.make_cyclic", "groups.make_dihedral",
                                    "groups.make_product", "groups.make_from_generators"]),
        "groups.conjugacy_classes_s": own["groups.conjugacy_classes"],
        "groups.power_calls": calls["groups.power"][0],
        "groups.power_s": calls["groups.power"][1],
        "groups.table_cells": calls["groups._table_from_rule"][1],
        "colour.validate_s": _sum(own, ["colour.colour_from_values", "colour.colour_from_multiset"]),
        "colour.distance_layering_s": own["colour.distance_layering"],
        "exactnum.cyclotomic_new": calls["exactnum.Cyclotomic.__init__"][0],
        "exactnum.galois_apply_calls": calls["exactnum.galois_apply"][0],
        "exactnum.galois_orbit_s": own["exactnum.galois_orbit"],
        "exactnum.minimal_polynomial_s": own["exactnum.minimal_polynomial"],
        "spectra.character_table_s": own["spectra.character_table"],
        "spectra.spectrum_exact_s": own["spectra.spectrum_exact"],
        "spectra.adjacency_matrix_s": own["spectra.adjacency_matrix"],
        "spectra.spectrum_numeric_s": own["spectra.spectrum_numeric"],
        "spectra.compare_spectra_s": own["spectra.compare_spectra"],
        "kernels.jacobi_s": own["kernels.jacobi_diagonalize"],
        "kernels.jacobi_sweeps": notes["kernels.jacobi_diagonalize.sweeps"],
        "kernels.matrix_n": notes["kernels.jacobi_diagonalize.n"],
        "kernels.rotations": notes["rotations"],
        "galois.fixing_subgroup_s": own["galois.fixing_subgroup"],
        "galois.splitting_field_s": own["galois.splitting_field"],
        "galois.primitive_candidates": tried,
        "galois.primitive_hit_ratio": found / tried if tried else 0.0,
        "galois.multiset_fixing_subgroup_s": own["galois.multiset_fixing_subgroup"],
        "galois.distance_fixing_subgroup_s": own["galois.distance_fixing_subgroup"],
        "galois.distance_report_s": own["galois.distance_report"],
        "galois.integrality_verdict_s": own["galois.integrality_verdict"],
        "search.classify_s": own["search.classify"],
        "search.candidates": candidates,
        "search.bundles": notes["search.classify.bundles"],
        "search.classify_per_candidate_us": (
            1e6 * classify_s / candidates if candidates else 0.0
        ),
    }

