import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cayspec
from cayspec.cli import (
    InstanceDocument,
    cmd_check,
    cmd_degree,
    cmd_distance,
    cmd_spectrum,
    main,
    parse_instance,
)
from cayspec.colour import colour_from_multiset, colour_from_values
from cayspec.errors import ParseError
from cayspec.groups import (
    Group,
    class_bundles,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
    power_map,
)
from cayspec.spectra import has_character_table
from cayspec.units import unit_group
from conftest import instance_path, random_class_function, reference_sum


def machine_block(text: str) -> dict[str, str]:
    lines = text.splitlines()
    start = lines.index("--- report ---") + 1
    end = lines.index("--- end ---")
    out = {}
    for line in lines[start:end]:
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -------------------------------------------------------------------


def test_parse_zero_denominator():
    text = "[group]\nkind = cyclic\nn = 4\n\n[colour]\n1 = 1/0\n3 = 1/0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    # The column is the value's first character, not the space before it.
    assert (err.value.line, err.value.column) == (6, 5)


def test_cycle_errors_count_columns_from_the_line():
    # The bad cycle of the second generator opens at column 23.
    text = "[group]\nkind = generated\ngenerators = (0 1 2); (0 -2 1)\n\n[colour]\nclass(e) = 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.column) == (3, 23)
    assert err.value.reason == "cycle entries must be non-negative"


def test_parse_unknown_section():
    with pytest.raises(ParseError):
        parse_instance("[grp]\nkind = cyclic\n")


def test_parse_unknown_group_parameter():
    with pytest.raises(ParseError):
        parse_instance("[group]\nkind = cyclic\nn = 4\nm = 2\n\n[colour]\n")


def test_parse_unknown_element():
    text = "[group]\nkind = dihedral\nm = 4\n\n[connection]\nelements = q\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_conflicting_assignment():
    text = "[group]\nkind = cyclic\nn = 5\n\n[colour]\nclass(1) = 1\n1 = 2\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_content_before_section():
    with pytest.raises(ParseError):
        parse_instance("kind = cyclic\n")


def test_parse_requires_one_payload_section():
    with pytest.raises(ParseError):
        parse_instance("[group]\nkind = cyclic\nn = 4\n")


def test_parse_quoted_class_key():
    text = '[group]\nkind = dihedral\nm = 4\n\n[colour]\nclass("a") = 1\nclass(b) = 2\nclass(b*a) = 3\n'
    doc = parse_instance(text)
    G = doc.group
    assert doc.colour.values[G.element_index("a^3")] == 1
    assert doc.colour.values[G.element_index("b*a^2")] == 2


def test_search_multisets(capsys):
    code, out, _ = run(
        capsys, "search", "--group", "dihedral:5", "--multisets", "2"
    )
    assert code == 0
    block = machine_block(out)
    assert block["search.mode"] == "multisets"
    assert block["search.count"] == str(3**3 - 1)
    assert block["set.1.elements"].count(";") >= 0


def test_parse_generated_group():
    text = (
        "[group]\nkind = generated\ngenerators = (0 1 2 3); (0 2)\n\n"
        "[connection]\nelements = (0 2)(1 3)\n"
    )
    doc = parse_instance(text)
    assert doc.group.order == 8
    assert doc.kind == "connection"
    assert sum(doc.colour.values) == 1  # the valency


def test_parse_refuses_negative_points():
    # A negative point would index the permutation from its end: (0 -2 1)
    # would generate a group of order 2.
    text = "[group]\nkind = generated\ngenerators = (0 1 2); (0 -2 1)\n\n[colour]\nclass(e) = 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.reason) == (3, "cycle entries must be non-negative")


@pytest.mark.parametrize(
    "text, line",
    [
        ("[group]\nkind = dihedral\nm = 4\nm = 5\n\n[colour]\nclass(a) = 1\n", 4),
        ("[group]\nkind = dihedral\nm = 4\n\n[colour]\nclass(a) = 1\n\n[group]\nm = 5\n", 9),
        ("[group]\nkind = cyclic\nn = 4\n[group]\nkind = cyclic\n\n[colour]\n1 = 1\n", 5),
    ],
    ids=["same-section", "second-section", "kind"],
)
def test_parse_refuses_repeated_group_keys(text, line):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert err.value.reason.startswith("repeated [group] key")


# Instance files refused at parse time, each with its reason, line and column.
REFUSED_PARSES = {
    "malformed-rational": (
        "[group]\nkind = cyclic\nn = 4\n[colour]\nclass(1) = 1.5\n",
        "malformed rational '1.5'", 5, 12,
    ),
    "cycle-without-paren": (
        "[group]\nkind = generated\ngenerators = (0 1) x\n",
        "expected '(' in permutation, found 'x'", 3, 20,
    ),
    "cycle-not-integer": (
        "[group]\nkind = generated\ngenerators = (0 a)\n",
        "cycle entries must be integers", 3, 14,
    ),
    "unknown-kind": ("[group]\nkind = klein\n", "unknown group kind 'klein'", 2, 8),
    "missing-parameter": (
        "[group]\nkind = dihedral\n", "group kind 'dihedral' needs parameter 'm'", 2, 8,
    ),
    "unterminated-header": ("[group\nkind = cyclic\n", "unterminated section header", 1, 1),
    "no-equals": ("[group]\nkind cyclic\n", "expected 'key = value'", 2, 1),
    "empty-key": ("[group]\n = cyclic\n", "empty key", 2, 2),
    "missing-kind": (
        "[group]\nn = 4\n[colour]\n", "missing [group] section with a 'kind' entry", 1, 1,
    ),
    "multiplicity-not-integer": (
        "[group]\nkind = cyclic\nn = 5\n[connection]\n1 = two\n",
        "multiplicity must be an integer, got 'two'", 5, 5,
    ),
    # Group-parameter refusals point at the value, key-level ones at the key.
    "product-one-factor": (
        "[group]\nkind = product\nfactors = 4\n[colour]\n",
        "product needs at least two factors", 3, 11,
    ),
    "parameter-not-integer": (
        "[group]\nkind = cyclic\nn = x\n[colour]\n",
        "bad group parameter: invalid literal for int() with base 10: 'x'", 3, 5,
    ),
    "indented-unknown-class": (
        "[group]\nkind = cyclic\nn = 4\n[colour]\n  class(q) = 1\n",
        "unknown element name 'q'", 5, 3,
    ),
    "indented-unknown-connection-key": (
        "[group]\nkind = cyclic\nn = 4\n[connection]\n  q = 1\n",
        "unknown element name 'q'", 5, 3,
    ),
    "indented-unknown-parameter": (
        "[group]\nkind = cyclic\nn = 4\n  m = 4\n[colour]\n",
        "unknown group parameter 'm'", 4, 3,
    ),
    "indented-conflicting-assignment": (
        "[group]\nkind = cyclic\nn = 4\n[colour]\n1 = 1\n  class(1) = 2\n",
        "conflicting assignment for element '1'", 6, 3,
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_PARSES))
def test_parse_refusals_pin_reason_and_position(capsys, tmp_path, case):
    text, reason, line, column = REFUSED_PARSES[case]
    path = tmp_path / "refused.txt"
    path.write_text(text, encoding="utf-8")
    message = f"error: line {line}, column {column}: {reason}\n"
    assert run(capsys, "degree", str(path)) == (2, "", message)


def test_element_names_resolve_without_spaces():
    # A product element written with a space after its comma is found by
    # its name with the spaces taken out.
    text = "[group]\nkind = product\nfactors = 2,4\n\n[connection]\nelements = (0, 1), (0, 3)\n"
    doc = parse_instance(text)
    G = doc.group
    assert [G.names[g] for g, m in enumerate(doc.colour.values) if m] == ["(0,1)", "(0,3)"]


@pytest.mark.parametrize(
    "name",
    ["d8_alpha.txt", "d8_beta.txt", "d5_s1.txt", "d5_s2.txt", "z5_pentagon.txt"],
)
def test_canonical_roundtrip(name):
    def canonical_text(doc):
        lines = ["[group]", "kind = " + doc.group_kind]
        lines += [f"{key} = {value}" for key, value in doc.group_params.items()]
        lines += ["", f"[{doc.kind}]"]
        lines += [f"{key} = {value}" for key, value in doc.echo_entries]
        return "\n".join(lines + [""])

    with open(instance_path(name), encoding="utf-8") as fh:
        doc = parse_instance(fh.read())
    canonical = canonical_text(doc)
    again = parse_instance(canonical)
    assert canonical_text(again) == canonical


# -- commands ------------------------------------------------------------------


def test_spectrum_alpha(capsys):
    code, out, _ = run(capsys, "spectrum", instance_path("d8_alpha.txt"))
    assert code == 0
    block = machine_block(out)
    assert block["spectrum.exact.1.value"] == "241/5"
    assert block["spectrum.exact.3.embedding"] == "0.5656854249"
    assert block["spectrum.match"] == "true"
    assert block["verdict.rational"] == "false"


def test_spectrum_s2_integral(capsys):
    code, out, _ = run(capsys, "spectrum", instance_path("d5_s2.txt"))
    assert code == 0
    block = machine_block(out)
    assert block["spectrum.exact.count"] == "2"
    assert block["spectrum.exact.1.value"] == "8"
    assert block["spectrum.exact.1.multiplicity"] == "2"
    assert block["spectrum.exact.2.multiplicity"] == "8"
    assert block["verdict.integral"] == "true"


def test_spectrum_unsupported_family_downgrades(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text(
        "[group]\nkind = generated\ngenerators = (0 1 2 3); (0 2)\n\n"
        "[connection]\nelements = (0 2)(1 3)\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "spectrum", str(path))
    assert code == 0
    assert "numeric spectrum only" in err
    block = machine_block(out)
    assert block["spectrum.exact.count"] == "unavailable"
    assert "spectrum.numeric" in block


def test_degree_alpha(capsys):
    code, out, _ = run(capsys, "degree", instance_path("d8_alpha.txt"))
    assert code == 0
    block = machine_block(out)
    assert block["H.members"] == "1,7,9,15"
    assert block["degree"] == "2"
    assert block["field.minpoly"] == "t^2 - 8"


def test_degree_s1(capsys):
    code, out, _ = run(capsys, "degree", instance_path("d5_s1.txt"))
    assert code == 0
    block = machine_block(out)
    assert block["H.members"] == "1,9"
    assert block["degree"] == "2"


def test_degree_constant_colour(capsys, tmp_path):
    path = tmp_path / "const.txt"
    path.write_text(
        "[group]\nkind = cyclic\nn = 6\n\n[colour]\n"
        + "".join(f"class({k}) = 3\n" for k in range(6)),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "degree", str(path))
    assert code == 0
    assert machine_block(out)["degree"] == "1"


def test_distance_pentagon(capsys):
    code, out, _ = run(capsys, "distance", instance_path("z5_pentagon.txt"))
    assert code == 0
    block = machine_block(out)
    assert block["distance.diameter"] == "2"
    assert block["distance.layer.1"] == "1;4"
    assert block["H_prime.members"] == "1,4"
    assert block["distance.degree"] == "2"


def test_distance_disconnected(capsys, tmp_path):
    path = tmp_path / "z6.txt"
    path.write_text(
        "[group]\nkind = cyclic\nn = 6\n\n[connection]\nelements = 2, 4\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "distance", str(path))
    assert code == 2
    assert "does not reach" in err


def test_distance_rejects_multiset(capsys, tmp_path):
    code, _, err = run(capsys, "distance", instance_path("d5_s1.txt"))
    assert code == 2
    assert "simple" in err
    path = tmp_path / "doubled.txt"
    path.write_text("[group]\nkind = cyclic\nn = 5\n\n[connection]\n1 = 2\n4 = 2\n", encoding="utf-8")
    message = "error: distance analysis needs a simple connection set\n"
    assert run(capsys, "distance", str(path)) == (2, "", message)


# Connection sections every command refuses at parse time, each with its
# stderr: not normal, not inverse-closed, the identity, negative multiplicities.
REFUSED_CONNECTIONS = {
    "not-normal": (
        "[group]\nkind = dihedral\nm = 4\n\n[connection]\nelements = b\n",
        "error: conjugate elements b and b*a^2 carry different values 1 and 0\n",
    ),
    "not-inverse-closed": (
        "[group]\nkind = cyclic\nn = 5\n\n[connection]\nelements = 1\n",
        "error: f(1) = 1 but f(4) = 0\n",
    ),
    "identity": (
        "[group]\nkind = cyclic\nn = 5\n\n[connection]\nelements = 0, 1, 4\n",
        "error: the identity cannot appear in a connection multiset\n",
    ),
    "negative": (
        "[group]\nkind = cyclic\nn = 5\n\n[connection]\n1 = -1\n4 = -1\n",
        "error: line 6, column 5: negative multiplicity\n",
    ),
}


@pytest.mark.parametrize("command", ["spectrum", "degree", "distance", "check"])
@pytest.mark.parametrize("case", sorted(REFUSED_CONNECTIONS))
def test_connection_files_are_refused(capsys, tmp_path, case, command):
    text, message = REFUSED_CONNECTIONS[case]
    path = tmp_path / "connection.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, command, str(path)) == (2, "", message)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["degree"], "d8_alpha.txt"),
        (["spectrum"], "d8_alpha.txt"),
        (["check", "--subgroup", "7"], "d8_alpha.txt"),
        (["distance"], "z5_pentagon.txt"),
    ],
)
def test_each_command_reads_its_colour_once(capsys, reads, argv, name):
    # `degree` takes H from its splitting field and `spectrum` reads it once;
    # both pass it to the stabilizer identity and the integrality verdict,
    # which read it 3 and 2 times over when each read its own.  `distance`
    # reads two colours once each: the set's, for H, and its word-length
    # colour's, for H'.
    code, _, _ = run(capsys, *argv, instance_path(name))
    assert code == 0
    assert reads == {"colour function": 2 if argv == ["distance"] else 1}


def test_check_subgroup(capsys):
    code, out, _ = run(
        capsys, "check", instance_path("d8_alpha.txt"), "--subgroup", "7,9"
    )
    assert code == 0
    block = machine_block(out)
    assert block["H_K.members"] == "1,7,9,15"
    assert block["integral_over_K"] == "true"

    code, out, _ = run(
        capsys, "check", instance_path("d8_alpha.txt"), "--subgroup", "3"
    )
    assert machine_block(out)["integral_over_K"] == "false"

    code, out, _ = run(capsys, "check", instance_path("d8_alpha.txt"))
    block = machine_block(out)
    assert block["H_K.members"] == "1"
    assert block["integral_over_K"] == "true"


def test_check_rejects_non_unit(capsys):
    code, _, err = run(
        capsys, "check", instance_path("d8_alpha.txt"), "--subgroup", "6"
    )
    assert code == 2
    assert "unit" in err


def test_check_names_a_malformed_subgroup(capsys):
    code, out, err = run(capsys, "check", instance_path("d8_alpha.txt"), "--subgroup", "5,x")
    assert (code, out) == (2, "")
    assert err == "error: --subgroup 5,x: generators must be integers\n"


def test_search_d4_negative_verdict(capsys):
    code, out, _ = run(capsys, "search", "--group", "dihedral:4", "--degree", "2")
    assert code == 1
    block = machine_block(out)
    assert block["search.count"] == "15"
    assert block["search.witness"] == "none"

    code, _, _ = run(
        capsys, "search", "--group", "dihedral:4", "--degree", "2", "--connected"
    )
    assert code == 1


def test_search_finds_witness(capsys):
    code, out, _ = run(capsys, "search", "--group", "cyclic:16", "--degree", "4")
    assert code == 0
    assert machine_block(out)["search.witness"] != "none"


def test_search_jobs_determinism(capsys):
    _, out1, _ = run(capsys, "search", "--group", "cyclic:12", "--jobs", "1")
    _, out8, _ = run(capsys, "search", "--group", "cyclic:12", "--jobs", "8")
    assert out1 == out8


def test_search_respects_limit(capsys, monkeypatch):
    import cayspec.cli as cli_mod

    def refuse(*args):
        raise AssertionError("group built before the order limit was checked")

    monkeypatch.setattr(cli_mod, "make_cyclic", refuse)
    monkeypatch.setattr(cli_mod, "make_dihedral", refuse)
    for group, order in (("cyclic:30", 30), ("dihedral:9", 18), ("product:4,5", 20)):
        code, _, err = run(capsys, "search", "--group", group, "--limit", "16")
        assert code == 2
        assert f"group order {order} exceeds the search limit 16" in err


def test_search_refuses_too_many_candidates(capsys, monkeypatch):
    import cayspec.search as search_mod

    def refuse(*args):
        raise AssertionError("candidates enumerated before the cap was checked")

    monkeypatch.setattr(search_mod, "_candidate_vectors", refuse)
    code, _, err = run(capsys, "search", "--group", "cyclic:64")
    assert code == 2
    assert "2^32 - 1 candidates exceed" in err
    # 4^5000 - 1 has 3,011 digits: the refusal names it by its power.
    code, _, err = run(
        capsys, "search", "--group", "cyclic:10000", "--limit", "10000", "--multisets", "3"
    )
    assert code == 2
    assert err == "error: 4^5000 - 1 candidates exceed the search cap 1048576\n"


def test_no_convergence_exits_three(capsys, monkeypatch):
    import cayspec._kernels as kernels_mod

    monkeypatch.setattr(kernels_mod, "jacobi_diagonalize", lambda a, n, max_sweeps: -1)
    code, _, err = run(capsys, "spectrum", instance_path("d8_alpha.txt"))
    assert code == 3
    assert "internal inconsistency" in err


S8_GENERATORS = "(0 1 2 3 4 5 6 7);(0 1)"  # 40,320 elements, past the closure cap
REFUSAL_INSTANCES = {
    "d4-b": "[group]\nkind = dihedral\nm = 4\n\n[connection]\nelements = b\n",
    "z5-1": "[group]\nkind = cyclic\nn = 5\n\n[connection]\nelements = 1\n",
    "z6-2-4": "[group]\nkind = cyclic\nn = 6\n\n[connection]\nelements = 2, 4\n",
    "z20000": "[group]\nkind = cyclic\nn = 20000\n\n[connection]\nelements = 1, 19999\n",
    "s8": f"[group]\nkind = generated\ngenerators = {S8_GENERATORS}\n\n[colour]\nclass(e) = 1\n",
}
CLOSURE_REFUSAL = "error: generator closure exceeded the cap of 10000 elements\n"


# Each refusal with its exit code and whole stderr, one case per exception
# class that the merge into ValueError and InternalInconsistency removed.
# "{d8_alpha}" names that instance file and "{name}" one of REFUSAL_INSTANCES;
# a patch (dotted name, value) is set for the one request.
@pytest.mark.parametrize(
    "argv, patch, code, err",
    [
        (["degree", "{d4-b}"], None, 2,
         "error: conjugate elements b and b*a^2 carry different values 1 and 0\n"),
        (["degree", "{z5-1}"], None, 2, "error: f(1) = 1 but f(4) = 0\n"),
        (["distance", "{z6-2-4}"], None, 2, "error: connection set does not reach: 1, 3, 5\n"),
        (["check", "{d8_alpha}", "--subgroup", "2"], None, 2, "error: 2 is not a unit modulo 16\n"),
        (["check", "{d8_alpha}", "--subgroup", "x"], None, 2,
         "error: --subgroup x: generators must be integers\n"),
        (["degree", "{z20000}"], None, 2, "error: group order 20000 exceeds the cap of 10000 elements\n"),
        (["search", "--group", "cyclic:20000", "--limit", "1000000"], None, 2,
         "error: group order 20000 exceeds the cap of 10000 elements\n"),
        (["degree", "{s8}"], None, 2, CLOSURE_REFUSAL),
        (["search", "--group", f"generated:{S8_GENERATORS}", "--limit", "100000"], None, 2,
         CLOSURE_REFUSAL),
        (["distance", "{d8_alpha}"], None, 2, "error: distance analysis needs a [connection] section\n"),
        (["search", "--group", "foo"], None, 2, "error: bad --group value 'foo' (expected kind:params)\n"),
        (["search", "--group", "generated:(0 1 2);(0 1 1)"], None, 2,
         "error: --group generated:(0 1 2);(0 1 1): point 1 appears twice in one permutation\n"),
        (["spectrum", "{d8_alpha}"], ("cayspec._kernels.MAX_SWEEPS", 0), 3,
         "internal inconsistency: Jacobi sweeps did not converge within 0 sweeps\n"),
        (["degree", "{d8_alpha}"], ("cayspec.exactnum.COEFFICIENT_BIT_BUDGET", 16), 2,
         "error: canonical residue exceeds the 16-bit coefficient budget\n"),
    ],
    ids=["not-normal", "not-symmetric", "disconnected", "not-a-unit", "malformed-subgroup",
         "order-cap", "search-order-cap", "closure-cap", "search-closure-cap", "distance-on-colour",
         "search-bad-group", "search-bad-cycles", "no-convergence", "coefficient-budget"],
)
def test_refusals_pin_stderr_and_exit_code(capsys, monkeypatch, tmp_path, argv, patch, code, err):
    files = {"d8_alpha": instance_path("d8_alpha.txt")}
    for name, text in REFUSAL_INSTANCES.items():
        files[name] = str(tmp_path / f"{name}.txt")
        Path(files[name]).write_text(text, encoding="utf-8")
    if patch is not None:
        monkeypatch.setattr(*patch)
    argv = [files[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    assert run(capsys, *argv) == (code, "", err)


def test_out_of_memory_exits_two(capsys, monkeypatch):
    import cayspec.cli as cli_mod

    def exhausted(G, multiplicity_cap=1, require_connected=False, jobs=1):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "classify", exhausted)
    code, out, err = run(capsys, "search", "--group", "cyclic:5")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_search_refuses_jobs_below_one(capsys, monkeypatch):
    import cayspec.search as search_mod

    def refuse(*args):
        raise AssertionError("candidates enumerated before --jobs was checked")

    monkeypatch.setattr(search_mod, "_candidate_vectors", refuse)
    for jobs in ("0", "-2"):
        code, out, err = run(capsys, "search", "--group", "cyclic:6", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_search_refuses_multiplicity_cap_below_one(capsys, monkeypatch):
    # Any --multisets value asks for multisets, 0 included: it is refused,
    # not read as "flag not given".
    import cayspec.search as search_mod

    def refuse(*args):
        raise AssertionError("candidates enumerated before the cap was checked")

    monkeypatch.setattr(search_mod, "_candidate_vectors", refuse)
    for cap in ("0", "-1"):
        code, out, err = run(capsys, "search", "--group", "cyclic:6", "--multisets", cap)
        assert code == 2
        assert out == ""
        assert err == "error: multiplicity cap must be at least 1\n"


def test_search_refuses_a_report_too_large_to_write(capsys, monkeypatch):
    # Z3 has one bundle, so a cap of 10^6 makes 10^6 candidates, under the
    # candidate cap; the report would list (3 - 1) * radix * cap / 2 element
    # copies, 10^12 here.  Cap 11,584 lists 134,200,640 copies, under 2^27.
    import cayspec.search as search_mod
    from cayspec.groups import make_cyclic

    def refuse(*args):
        raise AssertionError("candidates enumerated before the report size was checked")

    monkeypatch.setattr(search_mod, "_candidate_vectors", refuse)
    for cap, copies in (("1000000", 1000001000000), ("11586", 134246982)):
        code, out, err = run(capsys, "search", "--group", "cyclic:3", "--multisets", cap)
        assert (code, out) == (2, "")
        assert err == f"error: {copies} element copies exceed the report cap 134217728\n"
    with pytest.raises(AssertionError, match="before the report size was checked"):
        search_mod.classify(make_cyclic(3), 11584)


def test_search_multisets_of_cap_one_are_the_sets(capsys):
    # A set is a multiset of cap 1: the records are the same, and only the
    # header word and the mode keys differ.
    code, sets, _ = run(capsys, "search", "--group", "dihedral:4")
    assert code == 0
    code, multisets, _ = run(capsys, "search", "--group", "dihedral:4", "--multisets", "1")
    assert code == 0
    expected = sets.replace("15 normal sets", "15 normal multisets").replace(
        "search.mode = sets\n", "search.mode = multisets\nsearch.multiplicity_cap = 1\n"
    )
    assert expected != sets
    assert multisets == expected


def test_search_bad_group(capsys):
    code, out, err = run(capsys, "search", "--group", "foo")
    assert (code, out) == (2, "")
    assert err == "error: bad --group value 'foo' (expected kind:params)\n"
    # A command-line value has no line or column: the error names the option.
    for value, reason in [
        ("cyclic:-3", "bad group parameter: cyclic group order must be positive, got -3"),
        ("product:4", "product needs at least two factors"),
        ("generated:(0 1", "unclosed cycle in permutation"),
    ]:
        code, out, err = run(capsys, "search", "--group", value)
        assert (code, out) == (2, "")
        assert err == f"error: --group {value}: {reason}\n"


def test_search_refuses_negative_points(capsys):
    # Read as a permutation indexed from its end, (0 -1) is the identity.
    code, out, err = run(capsys, "search", "--group", "generated:(0 -1)")
    assert (code, out) == (2, "")
    assert err == "error: --group generated:(0 -1): cycle entries must be non-negative\n"


@pytest.mark.parametrize(
    "cycles, point, column",
    [
        ("(0 1 0)", 0, 14),
        ("(0 1)(0 1)", 0, 19),
        ("(2 3) (4 5 3)", 3, 20),
        ("(0 1 2); (0 1)(1 2)", 1, 28),
    ],
    ids=["same-cycle", "two-cycles", "later-point", "second-generator"],
)
def test_repeated_points_are_refused(capsys, cycles, point, column):
    # Written over, a repeated point made (0 1)(0 1) the transposition (0 1)
    # and the group of order 2, where the product of the cycles is the
    # identity.  The cycles of one generator must be disjoint.  Columns
    # count from the start of the line, and name the cycle that repeats.
    reason = f"point {point} appears twice in one permutation"
    text = f"[group]\nkind = generated\ngenerators = {cycles}\n\n[colour]\nclass(e) = 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.column, err.value.reason) == (3, column, reason)
    code, out, err = run(capsys, "search", "--group", f"generated:{cycles}")
    assert (code, out) == (2, "")
    assert err == f"error: --group generated:{cycles}: {reason}\n"


def test_search_checks_every_factor_before_building_any(capsys, monkeypatch):
    # A non-positive factor is refused before the group is sized or built:
    # building Z_(10^9) first would run out of memory.
    import cayspec.cli as cli_mod

    real, calls = cli_mod.make_cyclic, []

    def recording(n):
        calls.append(n)
        if n > 0:
            raise AssertionError("a factor was built before every factor was checked")
        return real(n)

    monkeypatch.setattr(cli_mod, "make_cyclic", recording)
    code, out, err = run(capsys, "search", "--group", "product:1000000000,-1,-2", "--limit", "16")
    assert (code, out, calls) == (2, "", [-1])
    assert err == (
        "error: --group product:1000000000,-1,-2: "
        "bad group parameter: cyclic group order must be positive, got -1\n"
    )


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "degree", instance_path("d8_beta.txt"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert "--- report ---" in text
    assert machine_block(text)["degree"] == "1"


@pytest.mark.parametrize(
    "argv", [["--group", "cyclic:16", "--degree", "4"], ["--group", "dihedral:4", "--degree", "2"]]
)
def test_search_out_file_equals_stdout(capsys, tmp_path, argv):
    # The set lines are streamed to whichever destination: the bytes and the
    # exit code must not depend on it, with a witness line or without one.
    code, out, _ = run(capsys, "search", *argv)
    target = tmp_path / "report.txt"
    code_out, out_out, _ = run(capsys, "search", *argv, "--out", str(target))
    assert (code_out, out_out) == (code, "")
    assert target.read_bytes() == out.encode("utf-8")
    assert "search.witness = " in out


def test_late_search_inconsistency_writes_nothing(capsys, monkeypatch, tmp_path):
    # Word lengths that give the complete graph on Z16, the last of 255
    # candidates, distance degree 4: every record is classified before the
    # first line is written, so the run exits 3 with nothing on stdout and
    # no --out file.
    import cayspec.search as search_mod

    real = search_mod._word_lengths
    complete = (1,) * 8 + (0,)

    def skewed(products, extended):
        lengths = real(products, extended)
        return (2,) + lengths[1:] if extended == complete else lengths

    monkeypatch.setattr(search_mod, "_word_lengths", skewed)
    code, out, err = run(capsys, "search", "--group", "cyclic:16")
    assert (code, out) == (3, "")
    assert "set 254 is connected and simple, but its degree 1 differs" in err
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "search", "--group", "cyclic:16", "--out", str(target))
    assert (code, out) == (3, "")
    assert "set 254 is connected and simple" in err
    assert not target.exists()


def test_spectrum_refuses_orders_above_the_numeric_limit(capsys, monkeypatch, tmp_path):
    # Refused before any exact work, with exit 2 and nothing written.  The
    # limit sits above every spectrum the benchmark asks for (n = 64).
    import cayspec.cli as cli_mod
    import cayspec.galois as galois_mod
    from cayspec.spectra import NUMERIC_ORDER_LIMIT

    assert NUMERIC_ORDER_LIMIT >= 64

    def refuse(*args):
        raise AssertionError("exact work began before the order was checked")

    monkeypatch.setattr(galois_mod, "character_table", refuse)
    monkeypatch.setattr(galois_mod, "spectrum_exact", refuse)
    monkeypatch.setattr(cli_mod, "spectrum_numeric", refuse)
    # The limit admits its own order: the group is parsed and exact work begins.
    n = NUMERIC_ORDER_LIMIT
    path = tmp_path / "limit.txt"
    path.write_text(f"[group]\nkind = cyclic\nn = {n}\n\n[connection]\nelements = 1, {n - 1}\n")
    with pytest.raises(AssertionError, match="^exact work began"):
        main(["spectrum", str(path)])
    n = NUMERIC_ORDER_LIMIT + 1
    path = tmp_path / "big.txt"
    path.write_text(f"[group]\nkind = cyclic\nn = {n}\n\n[connection]\nelements = 1, {n - 1}\n")
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "spectrum", str(path), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: group order {n} exceeds the numeric oracle limit {NUMERIC_ORDER_LIMIT}\n"
    assert not target.exists()


CONSTRUCTORS = ("make_cyclic", "make_dihedral", "make_product", "make_from_generators")


def refuse_construction(monkeypatch):
    import cayspec.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("group built before its order was checked")

    for name in CONSTRUCTORS:
        monkeypatch.setattr(cli_mod, name, refuse)


@pytest.mark.parametrize("n", [193, 5 * 10**7])
def test_spectrum_sizes_the_group_before_building_it(capsys, monkeypatch, tmp_path, n):
    refuse_construction(monkeypatch)
    path = tmp_path / "big.txt"
    path.write_text(f"[group]\nkind = cyclic\nn = {n}\n\n[connection]\nelements = 1, {n - 1}\n")
    code, out, err = run(capsys, "spectrum", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: group order {n} exceeds the numeric oracle limit 192\n"


@pytest.mark.parametrize("n", [20000, 10**9])
@pytest.mark.parametrize(
    "argv", [["degree"], ["distance"], ["check", "--subgroup", "3"]], ids=["degree", "distance", "check"]
)
def test_commands_refuse_orders_above_the_closure_cap(capsys, monkeypatch, tmp_path, argv, n):
    # Generator closure stops at the same cap, so every family meets one.
    from cayspec.groups import CLOSURE_CAP

    assert CLOSURE_CAP == 10000
    refuse_construction(monkeypatch)
    path = tmp_path / "big.txt"
    path.write_text(f"[group]\nkind = cyclic\nn = {n}\n\n[connection]\nelements = 1, {n - 1}\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: group order {n} exceeds the cap of 10000 elements\n"


@pytest.mark.parametrize(
    "group, order",
    [("cyclic:2000000", 2000000), ("dihedral:6000", 12000), ("product:200,100", 20000)],
)
def test_search_limit_is_clamped_at_the_closure_cap(capsys, monkeypatch, group, order):
    # A --limit past the closure cap admits no larger group of any family,
    # and the order is refused before anything is built.
    refuse_construction(monkeypatch)
    code, out, err = run(capsys, "search", "--group", group, "--limit", "100000000")
    assert (code, out) == (2, "")
    assert err == f"error: group order {order} exceeds the cap of 10000 elements\n"


def test_closure_cap_admits_its_own_order():
    doc = parse_instance("[group]\nkind = dihedral\nm = 5000\n\n[colour]\nclass(b) = 1\n")
    assert doc.group.order == 10000


S7_GENERATORS = "(0 1 2 3 4 5 6);(0 1)"  # 5,040 elements


def closure_spy(monkeypatch):
    """The elements each generator closure queues, the identity aside."""
    from collections import deque

    import cayspec.groups as groups_mod

    queued = []

    class Spy(deque):
        def append(self, x):
            queued.append(x)
            super().append(x)

    monkeypatch.setattr(groups_mod, "deque", Spy)
    return queued


@pytest.mark.parametrize("generators", [S7_GENERATORS, S8_GENERATORS], ids=["s7", "s8"])
@pytest.mark.parametrize(
    "argv, bound, name",
    [
        (["search", "--limit", "64"], 64, "the search limit 64"),
        (["search"], 64, "the search limit 64"),
        (["spectrum"], 192, "the numeric oracle limit 192"),
    ],
    ids=["search-limit-64", "search-default", "spectrum"],
)
def test_generated_groups_stop_closing_at_the_command_bound(
    capsys, monkeypatch, tmp_path, generators, argv, bound, name
):
    # The closure stops at the command's own bound, not at CLOSURE_CAP, and
    # the refusal names that bound.
    queued = closure_spy(monkeypatch)
    if argv[0] == "search":
        argv = [*argv, "--group", f"generated:{generators}"]
    else:
        path = tmp_path / "big.txt"
        path.write_text(f"[group]\nkind = generated\ngenerators = {generators}\n\n[colour]\nclass(e) = 1\n")
        argv = [*argv, str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: generator closure exceeded {name}\n"
    # The identity and the queued elements fill the bound at most; the one
    # element past it is refused as soon as it is met.
    assert 1 + len(queued) <= bound


def test_empty_colour_section_is_the_zero_colour(capsys, tmp_path):
    reports = []
    for body in ("", "class(1) = 0\n"):
        path = tmp_path / f"z5_{len(body)}.txt"
        path.write_text(f"[group]\nkind = cyclic\nn = 5\n\n[colour]\n{body}")
        reports.append(
            [run(capsys, *argv) for argv in (
                ["spectrum", str(path)], ["degree", str(path)], ["check", str(path), "--subgroup", "2"]
            )]
        )
    assert reports[0] == reports[1]
    assert [code for code, _, _ in reports[0]] == [0, 0, 0]


@pytest.mark.parametrize(
    "colour, connection",
    [("", "elements = 1, 4\n"), ("class(1) = 1\n", ""), ("", ""), ("class(1) = 1\n", "1 = 1\n")],
    ids=["empty-colour", "empty-connection", "both-empty", "both-filled"],
)
def test_both_section_headers_are_refused(capsys, tmp_path, colour, connection):
    # Either header counts once it is seen, with or without entries; the
    # error points at the later of the two.
    text = f"[group]\nkind = cyclic\nn = 5\n\n[colour]\n{colour}\n[connection]\n{connection}"
    line = text.splitlines().index("[connection]") + 1
    path = tmp_path / "both.txt"
    path.write_text(text)
    code, out, err = run(capsys, "degree", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: line {line}, column 1: an instance carries either a [colour]"
        " or a [connection] section, not both\n"
    )


def test_degree_never_runs_the_oracle(capsys, monkeypatch, tmp_path):
    # A rational, non-integer colour on a group without a character table is
    # decided by the adjacency minimal polynomial, so `degree` neither builds
    # the oracle's matrix nor meets its order limit.
    import cayspec._kernels as kernels_mod
    import cayspec.spectra as spectra_mod

    def refuse(*args):
        raise AssertionError("degree ran the numeric oracle")

    monkeypatch.setattr(kernels_mod, "jacobi_diagonalize", refuse)
    monkeypatch.setattr(spectra_mod, "NUMERIC_ORDER_LIMIT", 5)
    path = tmp_path / "s3_half.txt"
    path.write_text(
        "[group]\nkind = generated\ngenerators = (0 1 2);(0 1)\n\n"
        "[colour]\nclass((0 1)) = 1/2\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "degree", str(path))
    assert (code, err) == (0, "")
    block = machine_block(out)
    assert (block["verdict.rational"], block["verdict.integral"]) == ("true", "false")


# Two rational colours on S3, which has no character table here.  Rounding
# the numeric spectrum to 1e-6 called the first integral (its eigenvalues are
# 0 and +-3/10^7) and the second not (10^12 + 3, 1 - 10^12 and -1).
S3_VERDICTS = [
    ("class((0 1)) = 1/10000000\n", "false"),
    ("class((0 1)) = 1000000000001/3\nclass((0 1 2)) = 1\n", "true"),
]


@pytest.mark.parametrize("command", ["degree", "spectrum"])
@pytest.mark.parametrize("colour, integral", S3_VERDICTS, ids=["tiny", "huge"])
def test_tableless_integrality_is_exact(capsys, tmp_path, command, colour, integral):
    path = tmp_path / "s3.txt"
    path.write_text(
        "[group]\nkind = generated\ngenerators = (0 1 2); (0 1)\n\n[colour]\n" + colour,
        encoding="utf-8",
    )
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    block = machine_block(out)
    assert (block["verdict.rational"], block["verdict.integral"]) == ("true", integral)
    if command == "spectrum":
        expected = "Integral: yes" if integral == "true" else "Integral: no"
        assert expected in out


def test_byte_order_mark_is_read_past(capsys, tmp_path):
    # An editor may save a UTF-8 file with a byte-order mark; the instance
    # must read as it does without one.
    original = Path(instance_path("d8_alpha.txt"))
    marked = tmp_path / "d8_alpha.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    expected = run(capsys, "spectrum", str(original))
    assert expected[0] == 0
    assert run(capsys, "spectrum", str(marked)) == expected


def test_missing_file(capsys):
    code, _, err = run(capsys, "degree", "/nonexistent/file.txt")
    assert code == 2


def test_exact_numeric_mismatch_exits_three(capsys, monkeypatch):
    import cayspec.cli as cli_mod

    real = cli_mod.spectrum_numeric

    def perturbed(f, **kwargs):
        values = real(f, **kwargs)
        values[0] += 1e-2
        return values

    monkeypatch.setattr(cli_mod, "spectrum_numeric", perturbed)
    code, out, _ = run(capsys, "spectrum", instance_path("d8_beta.txt"))
    assert code == 3
    assert machine_block(out)["spectrum.match"] == "false"


@pytest.mark.parametrize(
    "command, name, unit, part",
    [
        # One eigenvalue plus z_16, which no unit but 1 fixes: generator 7
        # of H = {1, 7, 9, 15} moves it.
        ("spectrum", "d8_alpha.txt", 7, "fixes the colour function but moves"),
        # Every eigenvalue made rational: unit 3, the representative of the
        # non-trivial coset of H = {1, 9}, fixes them all.
        ("degree", "d5_s1.txt", 3, "moves the colour function but fixes every eigenvalue"),
    ],
)
def test_stabilizer_identity_mismatch_exits_three(capsys, monkeypatch, command, name, unit, part):
    import cayspec.galois as galois_mod
    from cayspec.exactnum import Cyclotomic

    real = galois_mod.spectrum_exact

    def injected(f, table):
        spec = real(f, table)
        n = f.group.order
        if command == "spectrum":
            (value, mult), *rest = spec.pairs
            pairs = ((reference_sum(value, Cyclotomic.from_exponents(n, {1: 1})), mult), *rest)
        else:
            pairs = tuple(
                (Cyclotomic.from_exponents(n, {0: i}), m) for i, (_, m) in enumerate(spec.pairs)
            )
        return spec._replace(pairs=pairs)

    monkeypatch.setattr(galois_mod, "spectrum_exact", injected)
    code, out, err = run(capsys, command, instance_path(name))
    assert code == 3
    assert out == ""
    assert err.startswith(f"internal inconsistency: stabilizer identity: unit {unit} ")
    assert part in err


def test_trivial_group_spectrum(capsys, tmp_path):
    path = tmp_path / "trivial.txt"
    path.write_text(
        "[group]\nkind = cyclic\nn = 1\n\n[colour]\nclass(0) = 7\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    block = machine_block(out)
    assert block["spectrum.exact.1.value"] == "7"
    assert block["spectrum.exact.1.multiplicity"] == "1"
    # No bundles: the fixing tables read the identity value alone.
    code, out, _ = run(capsys, "degree", str(path))
    assert code == 0
    block = machine_block(out)
    assert block["H.members"] == "1"
    assert block["degree"] == "1"
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert machine_block(out)["integral_over_K"] == "true"


# The numeric oracle's lines as printed before the kernel kept its matrix as
# row lists; the rounding noise in d8_beta pins the last bits of the rotations.
PINNED_NUMERIC = {
    "d5_s1.txt": "9;1.236067977;1.236067977;1.236067977;1.236067977;-1;"
    "-3.236067977;-3.236067977;-3.236067977;-3.236067977",
    "d5_s2.txt": "8;8;-2;-2;-2;-2;-2;-2;-2;-2",
    "d8_alpha.txt": "48.2;9.8;0.5656854249;0.5656854249;0.5656854249;0.5656854249;"
    "-0.5656854249;-0.5656854249;-0.5656854249;-0.5656854249;-1;-1;-1;-1;-14.2;-39.8",
    "d8_beta.txt": "58;18;3.023060859e-15;2.803378883e-15;1.845760494e-15;"
    "2.708684952e-16;1.648292065e-17;-2.296947066e-15;-2.712572525e-15;"
    "-3.852017113e-15;-6;-6;-6;-6;-14;-38",
    "z5_pentagon.txt": "2;0.6180339887;0.6180339887;-1.618033989;-1.618033989",
}


@pytest.mark.parametrize("name", sorted(PINNED_NUMERIC))
def test_spectrum_numeric_line_pinned(capsys, name):
    code, out, _ = run(capsys, "spectrum", instance_path(name))
    assert code == 0
    assert f"spectrum.numeric = {PINNED_NUMERIC[name]}\n" in out


def test_tableless_rational_colour_runs_jacobi_once(capsys, monkeypatch, tmp_path):
    import cayspec._kernels as kernels_mod

    real = kernels_mod.jacobi_diagonalize
    calls = []

    def counted(a, n, max_sweeps):
        calls.append(n)
        return real(a, n, max_sweeps)

    monkeypatch.setattr(kernels_mod, "jacobi_diagonalize", counted)
    path = tmp_path / "s4_half.txt"
    path.write_text(
        "[group]\nkind = generated\ngenerators = (0 1 2 3);(0 1)\n\n"
        "[colour]\nclass((0 1)) = 1/2\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "spectrum", str(path))
    assert code == 0
    assert calls == [24]
    assert "numeric spectrum only" in err
    assert out == (
        "Cayley colour graph on a generated group of order 24\n"
        "Rational: yes   Integral: yes\n"
        "--- report ---\n"
        "command = spectrum\n"
        "group.kind = generated\n"
        "group.generators = (0 1 2 3);(0 1)\n"
        "group.order = 24\n"
        "instance.colour.class((0 1)) = 1/2\n"
        "spectrum.exact.count = unavailable\n"
        "spectrum.numeric = 3;1;1;1;1;1;1;1;1;1;1.639905393e-16;-1.425060916e-16;"
        "-3.052737122e-16;-3.356762014e-16;-1;-1;-1;-1;-1;-1;-1;-1;-1;-3\n"
        "verdict.rational = true\n"
        "verdict.integral = true\n"
        "--- end ---\n"
    )


def _loaded_by_import(modules, importing="cayspec.cli") -> str:
    """The given modules that importing `importing` loads in a fresh
    interpreter, as a printed list."""
    src = str(Path(cayspec.__file__).resolve().parent.parent)
    code = f"import sys, {importing}; print(sorted(m for m in {modules!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_no_process_pool():
    # Only `search --jobs` above 1 starts workers; every other request
    # should not pay for importing multiprocessing.
    assert _loaded_by_import(("multiprocessing", "concurrent.futures.process")) == "[]"


def test_cli_import_loads_no_dataclass_machinery():
    # Every request is a fresh process: `dataclasses` and the `inspect`,
    # `ast` and `dis` modules it pulls in cost about 10 ms to import, and
    # each decorated class more to build.
    assert _loaded_by_import(("dataclasses", "inspect")) == "[]"


def test_exactnum_import_loads_no_group_engine():
    # The field layer is a leaf: it lists the units modulo n itself.
    assert _loaded_by_import(("cayspec.units", "cayspec.groups"), "cayspec.exactnum") == "[]"


@pytest.mark.parametrize(
    "argv, read",
    [
        # The cyclic:24 report is about 700 KB, more than a pipe holds, so
        # writing it fails once the reader has read a line and gone.
        (["search", "--group", "cyclic:24", "--jobs", "1"], True),
        # A short report sits in the stdout buffer: flushing it must fail
        # inside the CLI, not at interpreter exit.
        (["degree", instance_path("z5_pentagon.txt")], False),
    ],
    ids=["search", "degree"],
)
def test_closed_stdout_exits_141_quietly(argv, read):
    src = str(Path(cayspec.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayspec.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": src},
    )
    if read:
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


EMPTY_SHA = hashlib.sha256(b"").hexdigest()

# Exit code, stdout sha256 and stderr of each command on each shipped instance,
# as recorded before the group front end sized every group up front.
PINNED_REPORTS = {
    ("spectrum", "d5_s1.txt"): (0, "ea4523c5fc622c682e6afd10e7b805c144fedd4789d92ae98ca7d128f514fc84", ""),
    ("spectrum", "d5_s2.txt"): (0, "601fdf94aadb8292ae6862ce120a392ec985ac6873d058c63d06c43b6701b570", ""),
    ("spectrum", "d8_alpha.txt"): (0, "4d9bce52c9c51af18d9854bb5190ccf79e5e642f9dcf3e1d9c911d90b0d51641", ""),
    ("spectrum", "d8_beta.txt"): (0, "f58b26439242006e08bd6c759243058ed09608761bbdcbdbdbacc148ba9f0c69", ""),
    ("spectrum", "z5_pentagon.txt"): (0, "8b9b2168735252184dc3f70263c11976a433e187e1b14c9db941c27ef36aecea", ""),
    ("degree", "d5_s1.txt"): (0, "161280055b736b42a93c932f55e752ed505451c6d49674d6dda0d03998e2d10c", ""),
    ("degree", "d5_s2.txt"): (0, "3d6dbf5e59da8577d571e23c208e656e874028646c19e610a873b6da57c73f65", ""),
    ("degree", "d8_alpha.txt"): (0, "ba6bb3580dcdd91ac3bce0dd5d39281ab6862221ba474ea3cf69dbb2dc6859fd", ""),
    ("degree", "d8_beta.txt"): (0, "4882f88d42b3228480f8c0bbb7ca08739c3b03e744c66ec8a5aba09237f9585a", ""),
    ("degree", "z5_pentagon.txt"): (0, "f4b7dda991d594abd31f870a5a45da7b6438513d6d5bac6e3afe6c407c76505d", ""),
    ("distance", "d5_s1.txt"): (2, EMPTY_SHA, "error: distance analysis needs a simple connection set\n"),
    ("distance", "d5_s2.txt"): (2, EMPTY_SHA, "error: distance analysis needs a simple connection set\n"),
    ("distance", "d8_alpha.txt"): (2, EMPTY_SHA, "error: distance analysis needs a [connection] section\n"),
    ("distance", "d8_beta.txt"): (2, EMPTY_SHA, "error: distance analysis needs a [connection] section\n"),
    ("distance", "z5_pentagon.txt"): (0, "9a703da96b62effc4e36a6eae9215d8e4a37df0a78d1952cad083ce45483f64b", ""),
    ("check", "d5_s1.txt"): (0, "53a4a58e30c08fc652cc7cf61cc548e91a8e430cf6949d22e68fe47b0dbdcf6a", ""),
    ("check", "d5_s2.txt"): (0, "4fde62f0959e52f1359abe995d5f73d5708f319a804625043306c4fd6827d6d8", ""),
    ("check", "d8_alpha.txt"): (0, "0b2d16757b38311cb1d1d1c1ef7da208f860805dca84a7152438bd9e44a83ddf", ""),
    ("check", "d8_beta.txt"): (0, "be70d6a95da55693a01d37ed72045c328cdf680bc7cd2a3b8339fce77aa4e1c1", ""),
    ("check", "z5_pentagon.txt"): (0, "fb95ac41079df38a73bcdc12278363b8c5b57ce987b176e0b32d1f872bfc9877", ""),
}


def test_pinned_reports_cover_every_instance():
    names = sorted(p.name for p in Path(instance_path("")).iterdir())
    assert sorted({name for _, name in PINNED_REPORTS}) == names


@pytest.mark.parametrize("command, name", sorted(PINNED_REPORTS))
def test_report_pinned(capsys, command, name):
    extra = ["--subgroup", "3"] if command == "check" else []
    code, out, err = run(capsys, command, instance_path(name), *extra)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == PINNED_REPORTS[command, name]


# S6 x Z4 (order 2880), a generated group on ten points.  The exit code and
# stdout sha256 of each command were recorded while generated groups up to
# order 4096 still multiplied through an n x n table, built before any
# command ran (about 18 s for `degree` and 14 s for `check`).
S6_Z4 = """[group]
kind = generated
generators = (0 1 2 3 4 5); (0 1); (6 7 8 9)

[colour]
class((0 1)) = 1
class((0 1 2)) = 2
class((6 8)(7 9)) = 3
class((6 7 8 9)) = 5
class((6 9 8 7)) = 5
class((0 1 2 3 4)(6 7 8 9)) = 1/2
class((0 4 3 2 1)(6 9 8 7)) = 1/2
"""
S6_Z4_REPORTS = {
    "degree": (0, "e1f7f13a00e2e2cee07e7b6afb492bb7c30f2a68a27ee2a9d7ed62f0eda328ea"),
    "check": (0, "11897c181c9a0e200f0489c91a24baff903f7160224df3a50d34b81e9881cc5d"),
}


@pytest.mark.parametrize("command", sorted(S6_Z4_REPORTS))
def test_generated_s6_z4_report_pinned(capsys, tmp_path, command):
    path = tmp_path / "s6_z4.txt"
    path.write_text(S6_Z4, encoding="utf-8")
    extra = ["--subgroup", "7"] if command == "check" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == S6_Z4_REPORTS[command]
    assert err == ""


DIHEDRAL_1000 = "[group]\nkind = dihedral\nm = 1000\n\n[colour]\nclass(a) = 1\nclass(b) = 1\n"


@pytest.mark.parametrize(
    "text, argv, most",
    [
        (S6_Z4, ["check", "--subgroup", "7"], 30_000),
        (DIHEDRAL_1000, ["degree"], 20_000),
    ],
    ids=["check-S6xZ4", "degree-D1000"],
)
def test_powers_cost_no_products(capsys, tmp_path, monkeypatch, text, argv, most):
    # Powers and inverses are read off the cyclic-subgroup walks, so a
    # request multiplies about once per element and per class conjugation,
    # not once per power read.
    calls = [0]
    real = Group.mul

    def counted(self, i, j):
        calls[0] += 1
        return real(self, i, j)

    monkeypatch.setattr(Group, "mul", counted)
    path = tmp_path / "instance.txt"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert calls[0] <= most


def test_degree_one_field_skips_the_minimal_polynomial(capsys, tmp_path, monkeypatch):
    # A colour of S4 constant on classes is rational: its field is Q, whose
    # primitive element 1 has minimal polynomial t - 1, written down without
    # the Galois orbit of 1 under every unit.
    import cayspec.galois as galois_mod

    def refuse(n, exponent_coeffs):
        raise AssertionError(f"minimal polynomial of {exponent_coeffs} computed at degree 1")

    monkeypatch.setattr(galois_mod, "minimal_polynomial", refuse)
    path = tmp_path / "s4.txt"
    path.write_text(
        "[group]\nkind = generated\ngenerators = (0 1 2 3); (0 1)\n\n"
        "[colour]\nclass((0 1)) = 1\nclass((0 1 2 3)) = 2\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "degree", str(path))
    assert (code, err) == (0, "")
    assert machine_block(out)["field.minpoly"] == "t - 1"


# -- isomorphic presentations ----------------------------------------------------


def isomorphism(source, target, images):
    """The map of source onto target that sends the generators of source to
    the elements `images` and each product to the product of the images, as
    a list by element; asserts that it is a bijective homomorphism."""
    image = {0: 0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s, t in zip(source.generators, images):
            y = source.mul(x, s)
            if y not in image:
                image[y] = target.mul(image[x], t)
                frontier.append(y)
    iso = [image[g] for g in range(source.order)]
    assert sorted(iso) == list(range(target.order))
    for x in range(source.order):
        for y in range(source.order):
            assert iso[source.mul(x, y)] == target.mul(iso[x], iso[y])
    return iso


def invariant_block(report, rename=str, exact=False):
    """The machine block of a report without the lines that name the
    presentation: group, instance echo, the numeric spectrum, whose float
    text follows the element order, and unless `exact` the exact spectrum,
    which only a family with a character table prints.  Each distance layer
    is the set of its element names, passed through `rename`."""
    block = {}
    for key, value in report.machine:
        if key.startswith(("group.", "instance.", "spectrum.numeric")):
            continue
        if key.startswith("spectrum.") and not exact:
            continue
        if key.startswith("distance.layer."):
            value = frozenset(map(rename, value.split(";")))
        block[key] = value
    return block


def symmetrised(f):
    """f summed over the power maps of every unit: a rational colour, which
    the integrality routes decide."""
    G = f.group
    maps = [power_map(G, h) for h in unit_group(G.order).members]
    return colour_from_values(G, {g: sum(f.values[pm[g]] for pm in maps) for g in range(G.order)})


# Each source group with other presentations of it, and the images there of
# the source's generators: 1 in Z12, and a, b in D6.
PRESENTATIONS = {
    "cyclic:12": (
        lambda: make_cyclic(12),
        [
            (lambda: make_product(make_cyclic(3), make_cyclic(4)), ["(1,1)"]),
            (lambda: make_product(make_cyclic(4), make_cyclic(3)), ["(1,1)"]),
            (lambda: make_from_generators([list(range(1, 12)) + [0]]),
             ["(0 1 2 3 4 5 6 7 8 9 10 11)"]),
        ],
    ),
    "dihedral:6": (
        lambda: make_dihedral(6),
        [(lambda: make_from_generators([[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]]),
          ["(0 1 2 3 4 5)", "(1 5)(2 4)"])],
    ),
}


@pytest.mark.parametrize("source, targets", PRESENTATIONS.values(), ids=list(PRESENTATIONS))
def test_isomorphic_presentations_print_the_same_invariants(source, targets):
    # `degree`, `distance` and `check` print invariants of the isomorphism
    # class: H and its degree, the primitive element and its minimal
    # polynomial, H', the distance degree and layers, and the verdicts.  A
    # colour moved through an isomorphism must get the same report, although
    # element order, names, classes and bundles differ.  A generated group
    # has no character table, so its integrality verdict comes from the
    # adjacency minimal polynomial and the source's from the exact spectrum.
    # Where both have a table, both compute in the same cyclotomic field, so
    # `spectrum` and `distance` print the same exact spectra too.
    rng = random.Random(67)
    S = source()
    bundles = class_bundles(S)
    connections = []
    for _ in range(10):
        chosen = [bundle for bundle in bundles if rng.random() < 0.5] or [bundles[0]]
        connections.append(colour_from_multiset(S, {g: 1 for b in chosen for g in b}))
    colours = [random_class_function(S, rng) for _ in range(10)] + connections
    colours += [symmetrised(f) for f in colours]
    unit_args = [""] + [str(h) for h in unit_group(S.order).members[1:]]
    assert has_character_table(S)

    def document(G, kind, colour):
        return InstanceDocument(G.family, {}, G, kind, [], colour)

    verdicts, connected = set(), 0
    for make, names in targets:
        T = make()
        iso = isomorphism(S, T, [T.element_index(name) for name in names])
        exact = has_character_table(T)
        assert exact == (T.family != "generated")

        def rename(name):
            return T.names[iso[S.element_index(name)]]

        for f in colours:
            moved = colour_from_values(T, {iso[g]: v for g, v in enumerate(f.values)})
            block = invariant_block(cmd_degree(document(S, "colour", f))[0])
            assert invariant_block(cmd_degree(document(T, "colour", moved))[0]) == block
            verdicts.add((block["verdict.rational"], block["verdict.integral"]))
            if exact:
                block = invariant_block(cmd_spectrum(document(S, "colour", f))[0], exact=True)
                spectrum = cmd_spectrum(document(T, "colour", moved))[0]
                assert invariant_block(spectrum, exact=True) == block
            for arg in unit_args:
                block = invariant_block(cmd_check(document(S, "colour", f), arg)[0])
                assert invariant_block(cmd_check(document(T, "colour", moved), arg)[0]) == block
        for c in connections:
            moved = colour_from_multiset(T, {iso[g]: m for g, m in enumerate(c.values) if m})
            try:
                source_report = cmd_distance(document(S, "connection", c))[0]
                block = invariant_block(source_report, rename, exact)
            except ValueError as refusal:
                assert "does not reach" in str(refusal)
                with pytest.raises(ValueError, match="does not reach"):
                    cmd_distance(document(T, "connection", moved))
                continue
            connected += 1
            assert ("spectrum.exact.count" in block) == exact
            moved_report = cmd_distance(document(T, "connection", moved))[0]
            assert invariant_block(moved_report, exact=exact) == block
    # Both integrality routes met rational colours of either verdict.
    assert {("true", "false"), ("true", "true")} <= verdicts
    assert connected
