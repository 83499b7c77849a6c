import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayspec
from cayspec.cli import main, parse_instance
from cayspec.errors import ParseError
from conftest import instance_path


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
    assert doc.colour.value(G.element_index("a^3")) == 1
    assert doc.colour.value(G.element_index("b*a^2")) == 2


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
    assert doc.connection.valency() == 1


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


def test_distance_rejects_multiset(capsys):
    code, _, err = run(capsys, "distance", instance_path("d5_s1.txt"))
    assert code == 2
    assert "simple" in err


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
    assert "4294967295 candidates exceed" in err


def test_no_convergence_exits_three(capsys, monkeypatch):
    import cayspec._kernels as kernels_mod

    monkeypatch.setattr(kernels_mod, "jacobi_diagonalize", lambda a, n, rel_tol, max_sweeps: -1)
    code, _, err = run(capsys, "spectrum", instance_path("d8_alpha.txt"))
    assert code == 3
    assert "internal inconsistency" in err


def test_out_of_memory_exits_two(capsys, monkeypatch):
    import cayspec.cli as cli_mod

    def exhausted(spec, jobs=1):
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
    from cayspec.spectra import NUMERIC_ORDER_LIMIT, check_numeric_order

    assert NUMERIC_ORDER_LIMIT >= 64
    check_numeric_order(NUMERIC_ORDER_LIMIT)

    def refuse(*args):
        raise AssertionError("exact work began before the order was checked")

    monkeypatch.setattr(cli_mod, "character_table", refuse)
    monkeypatch.setattr(cli_mod, "spectrum_exact", refuse)
    monkeypatch.setattr(cli_mod, "spectrum_numeric", refuse)
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


def test_closure_cap_admits_its_own_order():
    doc = parse_instance("[group]\nkind = dihedral\nm = 5000\n\n[colour]\nclass(b) = 1\n")
    assert doc.group.order == 10000


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
    import cayspec.cli as cli_mod
    from cayspec.exactnum import Cyclotomic

    real = cli_mod.spectrum_exact

    def injected(f, table):
        spec = real(f, table)
        n = spec.order
        if command == "spectrum":
            (value, mult), *rest = spec.pairs
            pairs = ((value + Cyclotomic.from_exponents(n, {1: 1}), mult), *rest)
        else:
            pairs = tuple(
                (Cyclotomic.from_exponents(n, {0: i}), m) for i, (_, m) in enumerate(spec.pairs)
            )
        return spec._replace(pairs=pairs)

    monkeypatch.setattr(cli_mod, "spectrum_exact", injected)
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

    def counted(a, n, rel_tol, max_sweeps):
        calls.append(n)
        return real(a, n, rel_tol, max_sweeps)

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


def _loaded_by_cli_import(modules) -> str:
    """The given modules that `import cayspec.cli` loads, as a printed list."""
    src = str(Path(cayspec.__file__).resolve().parent.parent)
    code = f"import sys, cayspec.cli; print(sorted(m for m in {modules!r} if m in sys.modules))"
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
    assert _loaded_by_cli_import(("multiprocessing", "concurrent.futures.process")) == "[]"


def test_cli_import_loads_no_dataclass_machinery():
    # Every request is a fresh process: `dataclasses` and the `inspect`,
    # `ast` and `dis` modules it pulls in cost about 10 ms to import, and
    # each decorated class more to build.
    assert _loaded_by_cli_import(("dataclasses", "inspect")) == "[]"


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
