"""Seeded request lists for the benchmark workloads.

A workload is a fixed list of slots.  Each slot fixes the command, the group
and the unit subgroup H that the colour is built to be invariant under, so the
cost of a slot barely depends on the seed; the seed draws the colour values,
which H-orbits carry them, the connection sets, the `check` subgroups, the
search presentations and the order of the pass.  Every pass also runs a
fixed block on the shipped `instances/*`, so that every layer does some work
in every workload and the per-layer ratios have a base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import models

DEFAULT_SEED = 1


@dataclass
class Request:
    """One CLI call: `python -m cayspec.cli *argv`, run from the checkout root."""

    rid: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)  # instance name -> text
    candidates: int = 0  # search only: connection (multi)sets classified


# -- instance files --------------------------------------------------------------


def group_section(model: models.GroupModel) -> str:
    kind, _, param = model.spec.partition(":")
    key = {"cyclic": "n", "dihedral": "m", "product": "factors", "generated": "generators"}[kind]
    return f"[group]\nkind = {kind}\n{key} = {param}\n"


def colour_text(model: models.GroupModel, values: list[Fraction]) -> str:
    lines = [group_section(model), "[colour]"]
    for cls in model.classes():
        if values[cls[0]]:
            lines.append(f"class({model.names[cls[0]]}) = {values[cls[0]]}")
    return "\n".join(lines) + "\n"


def connection_text(model: models.GroupModel, mult: list[int]) -> str:
    lines = [group_section(model), "[connection]"]
    lines += [f"{model.names[g]} = {m}" for g, m in enumerate(mult) if m]
    return "\n".join(lines) + "\n"


def _subgroup_units(model: models.GroupModel, gens: list[int]) -> list[int]:
    """The units generated by -1 and `gens`, as power-map exponents."""
    n = model.order
    return sorted({pow(g, k, n) for g in [n - 1] + gens for k in range(1, n)})


def _generator_orbits(model, orbits, generators) -> list[int]:
    """Indices of the orbits holding the given elements, which generate G."""
    return sorted({i for i, orb in enumerate(orbits) for g in generators if g in orb})


def _draw_orbits(rng, orbits, forced, density) -> list[int]:
    rest = [i for i in range(1, len(orbits)) if i not in forced]
    k = round(density * len(rest))
    return sorted(set(forced) | set(rng.sample(rest, k)))


def _distinct_values(rng, count) -> list[Fraction]:
    pool = sorted({Fraction(p, q) for p in range(-9, 10) if p for q in range(1, 6)})
    return rng.sample(pool, count)


def _generators(model) -> list[int]:
    """Indices of a generating set: the closure reaches generators first."""
    kind, _, param = model.spec.partition(":")
    if kind == "cyclic":
        return [1]
    if kind == "dihedral":
        return [1, model.order // 2]
    if kind == "product":
        n = int(param.rsplit(",", 1)[1])
        return [n, 1]  # (1,0) and (0,1)
    return list(range(1, 1 + len(param.split(";"))))


# -- slots --------------------------------------------------------------------


def colour_request(rid, command, rng, spec, h_gens, density, extra_argv=()):
    model = models.from_spec(spec)
    orbits = model.orbits(_subgroup_units(model, h_gens))
    chosen = _draw_orbits(rng, orbits, _generator_orbits(model, orbits, _generators(model)), density)
    values = [Fraction(0)] * model.order
    for i, v in zip(chosen, _distinct_values(rng, len(chosen))):
        for g in orbits[i]:
            values[g] = v
    return Request(rid, [command, rid + ".txt", *extra_argv], {rid + ".txt": colour_text(model, values)})


def multiset_request(rid, command, rng, spec, h_gens, density, simple=False, extra_argv=()):
    model = models.from_spec(spec)
    orbits = model.orbits(_subgroup_units(model, h_gens))
    chosen = _draw_orbits(rng, orbits, _generator_orbits(model, orbits, _generators(model)), density)
    mult = [0] * model.order
    for i in chosen:
        m = 1 if simple else rng.randint(1, 3)
        for g in orbits[i]:
            mult[g] = m
    return Request(rid, [command, rid + ".txt", *extra_argv], {rid + ".txt": connection_text(model, mult)})


def check_request(rid, rng, spec, h_gens, density):
    model = models.from_spec(spec)
    units = model.units()
    gens = rng.sample(units, 2)
    return colour_request(rid, "check", rng, spec, h_gens, density, ["--subgroup", ",".join(map(str, gens))])


# The probe runs in every workload: between them, these two shipped instances
# reach every traced layer except search.
PROBE = [("spectrum", "d8_alpha.txt", []), ("distance", "z5_pentagon.txt", [])]
SHIPPED = ["d5_s1.txt", "d5_s2.txt", "d8_alpha.txt", "d8_beta.txt", "z5_pentagon.txt"]


def _shipped(commands) -> list[Request]:
    """Requests on the shipped instances: (command, file, extra argv) each."""
    return [
        Request(f"shipped-{command}-{name[:-4]}", [command, f"instances/{name}", *extra])
        for command, name, extra in commands
    ]


A5 = "generated:(0 1 2 3 4);(0 1 2)"
S4 = "generated:(0 1 2 3);(0 1)"
F21 = "generated:(0 1 2 3 4 5 6);(1 2 4)(3 6 5)"
S4_Z2 = "generated:(0 1 2 3);(0 1);(4 5)"


def analyse(rng: random.Random) -> list[Request]:
    """degree, distance, check and spectrum: the exact core and the Jacobi oracle."""
    reqs = [
        colour_request("degree-c128", "degree", rng, "cyclic:128", [], 0.6),
        colour_request("degree-d64", "degree", rng, "dihedral:64", [], 0.6),
        colour_request("degree-d128", "degree", rng, "dihedral:128", [3], 0.6),
        colour_request("degree-p6x8", "degree", rng, "product:6,8", [], 0.6),
        multiset_request("degree-a5", "degree", rng, A5, [], 0.6),
        multiset_request("degree-s4", "degree", rng, S4, [], 0.6),
        multiset_request("distance-c64", "distance", rng, "cyclic:64", [], 0.3, simple=True),
        multiset_request("distance-d32", "distance", rng, "dihedral:32", [], 0.3, simple=True),
        multiset_request("distance-p4x12", "distance", rng, "product:4,12", [], 0.3, simple=True),
        check_request("check-c128", rng, "cyclic:128", [], 0.6),
        check_request("check-d128", rng, "dihedral:128", [], 0.6),
        check_request("check-f21", rng, F21, [], 0.6),
        colour_request("spectrum-c64", "spectrum", rng, "cyclic:64", [], 0.6),
        colour_request("spectrum-d24", "spectrum", rng, "dihedral:24", [], 0.6),
        colour_request("spectrum-p4x12", "spectrum", rng, "product:4,12", [], 0.6),
        multiset_request("spectrum-s4xz2", "spectrum", rng, S4_Z2, [], 0.6),
    ]
    reqs += _shipped([("degree", name, []) for name in SHIPPED])
    reqs += _shipped([("spectrum", name, []) for name in SHIPPED if name != "d8_alpha.txt"])
    reqs += _shipped([("check", "d8_beta.txt", ["--subgroup", "3"])])
    reqs.append(Request("probe-search-dihedral4", ["search", "--group", "dihedral:4"], candidates=15))
    return reqs + _shipped(PROBE)


# Search slots: (name, argv flags, isomorphic presentations of one group).
# The presentations do the same work up to relabelling, so the seed changes
# the inputs and the report bytes but hardly the cost.  Dihedral groups get
# one presentation: as permutation groups their longer element names make the
# reports, and the requests, about 20 % dearer.  As many requests of a pass
# cost more than the middle group (sets on D12 and Z2xZ8, multisets on Z12,
# connected sets on Z18) as cost less, which keeps the median request inside
# that group, not on its edge.
SEARCH_SLOTS = [
    ("sets-z24", [], ["cyclic:24", "product:3,8", "product:8,3"]),
    ("sets-z20", [], ["cyclic:20", "product:4,5", "product:5,4"]),
    ("sets-z2xz8", [], ["product:2,8", "product:8,2"]),
    ("sets-d12", [], ["dihedral:12"]),
    ("sets-d16", [], ["dihedral:16"]),
    ("multisets-z12", ["--multisets", "2"], ["cyclic:12", "product:3,4", "product:4,3"]),
    ("multisets-d6", ["--multisets", "2"], ["dihedral:6"]),
    ("connected-z18", ["--connected"], ["cyclic:18", "product:2,9", "product:9,2"]),
]


def search_candidates(spec: str, flags: list[str]) -> int:
    cap = int(flags[flags.index("--multisets") + 1]) if "--multisets" in flags else 1
    return (cap + 1) ** len(models.from_spec(spec).bundles()) - 1


def search_serial(rng: random.Random) -> list[Request]:
    """search --jobs 1: per-candidate classification does the work."""
    reqs = []
    for name, flags, presentations in SEARCH_SLOTS:
        spec = rng.choice(presentations)
        argv = ["search", "--group", spec, *flags, "--jobs", "1"]
        reqs.append(Request(f"search-{name}", argv, candidates=search_candidates(spec, flags)))
    return reqs + _shipped(PROBE)


WORKLOADS = {
    "analyse": analyse,
    "search-serial": search_serial,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The pass for `workload` under `seed`, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    return reqs
