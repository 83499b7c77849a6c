"""Output checks: every report is verified on the benchmark side.

A request passes when it exits 0 and its report agrees with what the
benchmark's own group models predict:

* `degree`, `distance` and `check` verdicts are recomputed from power maps;
* every printed spectrum, exact or numeric, is compared with
  `numpy.linalg.eigvalsh` of the adjacency matrix built here;
* a search classifies (cap+1)^bundles - 1 candidates, keeps them all unless
  `--connected` is given, and its histograms sum to its count;
* where golden.json holds a request with the same inputs, the sha256 of the
  machine block must match the one recorded on the seed commit.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy

import models

GOLDEN = Path(__file__).resolve().parent / "golden.json"
EIG_TOL = 1e-7


def machine_block(text: str) -> tuple[str, dict[str, str]]:
    """The raw `key = value` block and its parsed form; ValueError if absent."""
    lines = text.splitlines()
    body = lines[lines.index("--- report ---") + 1 : lines.index("--- end ---")]
    return "\n".join(body), dict(line.split(" = ", 1) for line in body)


def input_digest(argv: list[str], files: dict[str, str]) -> str:
    payload = json.dumps([argv, sorted(files.items())])
    return hashlib.sha256(payload.encode()).hexdigest()


def load_golden() -> dict:
    """Input digest -> machine-block sha256, from golden.json."""
    entries = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    return {entry["input"]: entry["machine"] for entry in entries.values()}


def machine_digest(stdout: str) -> str:
    return hashlib.sha256(machine_block(stdout)[0].encode()).hexdigest()


# -- instance files ----------------------------------------------------------------


def _split_names(text: str) -> list[str]:
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    return [p for p in parts + [cur.strip()] if p]


def read_instance(text: str) -> tuple[models.GroupModel, list[Fraction]]:
    """The group and the colour (or multiplicity) value of every element."""
    section, group, entries = None, {}, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].strip()
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if section == "group":
            group[key] = value
        else:
            entries.append((section, key, value))
    kind = group.pop("kind")
    model = models.from_spec(f"{kind}:{next(iter(group.values()))}")
    index = {name: i for i, name in enumerate(model.names)}
    class_of = {g: cls for cls in model.classes() for g in cls}
    values = [Fraction(0)] * model.order
    for section, key, value in entries:
        if section == "connection" and key == "elements":
            for name in _split_names(value):
                values[index[name]] += 1
        elif key.startswith("class("):
            for g in class_of[index[key[6:-1]]]:
                values[g] = Fraction(value)
        else:
            values[index[key]] += Fraction(value)
    return model, values


# -- spectra ----------------------------------------------------------------------


def eigenvalues(model: models.GroupModel, values) -> list[float]:
    """Adjacency spectrum, descending: entry (g, h) is values[g * h^-1]."""
    n = model.order
    matrix = numpy.array(
        [[float(values[model.mul(g, model.inverse[h])]) for h in range(n)] for g in range(n)]
    )
    return sorted(numpy.linalg.eigvalsh(matrix).tolist(), reverse=True)


def spectrum_problems(block: dict[str, str], expected: list[float]) -> list[str]:
    problems = []
    scale = EIG_TOL * (1.0 + max(abs(v) for v in expected))
    printed = {}
    if block.get("spectrum.exact.count", "unavailable") != "unavailable":
        exact = []
        for i in range(1, int(block["spectrum.exact.count"]) + 1):
            exact += [float(block[f"spectrum.exact.{i}.embedding"])] * int(
                block[f"spectrum.exact.{i}.multiplicity"]
            )
        printed["exact"] = sorted(exact, reverse=True)
    if "spectrum.numeric" in block:
        printed["numeric"] = sorted(map(float, block["spectrum.numeric"].split(";")), reverse=True)
    for route, values in printed.items():
        if len(values) != len(expected):
            problems.append(f"{route} spectrum has {len(values)} values, expected {len(expected)}")
        elif max(abs(a - b) for a, b in zip(values, expected)) > scale:
            problems.append(f"{route} spectrum differs from numpy eigvalsh")
    return problems


# -- per command ------------------------------------------------------------------


def _units_closure(n: int, gens: list[int]) -> set[int]:
    out, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % n
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def _degree_problems(model, values, block, degree_key, members_key) -> list[str]:
    fixing = model.fixing_units(values)
    problems = []
    if int(block[degree_key]) != len(model.units()) // len(fixing):
        problems.append(f"{degree_key} {block[degree_key]} is wrong")
    if block[members_key] != ",".join(map(str, fixing)):
        problems.append(f"{members_key} is wrong")
    return problems


def instance_problems(command, argv, text, block) -> list[str]:
    model, values = read_instance(text)
    if command == "spectrum":
        problems = spectrum_problems(block, eigenvalues(model, values))
        if "spectrum.match" in block and block["spectrum.match"] != "true":
            problems.append("exact and numeric spectra disagree")
        return problems
    if command == "degree":
        return _degree_problems(model, values, block, "degree", "H.members")
    if command == "distance":
        dist = model.distances([g for g, v in enumerate(values) if v])
        problems = _degree_problems(model, dist, block, "distance.degree", "H_prime.members")
        if int(block["distance.diameter"]) != max(dist):
            problems.append("distance.diameter is wrong")
        return problems + spectrum_problems(block, eigenvalues(model, dist))
    gens = argv[argv.index("--subgroup") + 1] if "--subgroup" in argv else ""
    subgroup = _units_closure(model.order, [int(x) for x in gens.split(",") if x])
    expected = subgroup <= set(model.fixing_units(values))
    return [] if block["integral_over_K"] == str(expected).lower() else ["integral_over_K is wrong"]


def search_problems(argv, block) -> list[str]:
    model = models.from_spec(argv[argv.index("--group") + 1])
    cap = int(argv[argv.index("--multisets") + 1]) if "--multisets" in argv else 1
    bundles = len(model.bundles())
    total = (cap + 1) ** bundles - 1
    count = int(block["search.count"])
    problems = []
    if int(block["search.bundles"]) != bundles:
        problems.append("search.bundles is wrong")
    if "--connected" in argv:
        if count > total or any(
            block[f"set.{i}.connected"] != "true"
            for i in (int(k.split(".")[1]) for k in block if k.endswith(".valency"))
        ):
            problems.append("connected search kept a disconnected candidate")
    elif count != total:
        problems.append(f"search.count {count} is not (cap+1)^bundles - 1 = {total}")
    for key in ("search.degree_histogram", "search.degree_histogram.connected"):
        hist = sum(int(p.split(":")[1]) for p in block[key].split(",") if p)
        if hist > count or (key == "search.degree_histogram" and hist != count):
            problems.append(f"{key} sums to {hist}, count is {count}")
    if sum(k.endswith(".valency") for k in block) != count:
        problems.append("number of set records differs from search.count")
    return problems


def check_output(argv, files, instance_text, exit_code, stdout, golden) -> list[str]:
    """Every reason this request failed; empty when it passed.

    `instance_text` is the instance file the request read, or None for search.
    `golden` maps the input digest of a request to its machine-block sha256.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        block = machine_block(stdout)[1]
        expected = golden.get(input_digest(argv, files))
        problems = []
        if expected and machine_digest(stdout) != expected:
            problems.append("machine block differs from the golden record")
        if argv[0] == "search":
            return problems + search_problems(argv, block)
        return problems + instance_problems(argv[0], argv, instance_text, block)
    except (ValueError, KeyError, IndexError) as err:
        return [f"malformed report: {err!r}"]
