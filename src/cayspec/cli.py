"""Command-line front end: instance files in, human plus machine reports out.

Instance files are sectioned plain text: a [group] section naming the family
and its parameters, then either a [colour] section (element or class entries
with exact rational values) or a [connection] section (an element list or
per-element multiplicities).  Reports carry a stable line-oriented
`key = value` block between `--- report ---` and `--- end ---` markers.

Exit codes: 0 success, 1 negative search verdict, 2 input error, 3 internal
inconsistency, 141 (128 + SIGPIPE, as a shell reports) when the reader closed
stdout before the whole report was written.
"""

from __future__ import annotations

import argparse
import errno
import importlib.util
import math
import os
import sys
from types import ModuleType
from typing import Iterable, Iterator, NamedTuple, Optional

from cayspec.errors import InternalInconsistency, ParseError
from cayspec.groups import (
    CLOSURE_CAP,
    Group,
    conjugacy_classes,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
)
from cayspec.units import close_generators


def _layer(name: str) -> ModuleType:
    """The module cayspec.<name>, in `sys.modules` and bound on the package at
    once, its body run on the first attribute access, so that a request loads
    only the layers it reaches.  A module already imported is returned as it
    is: a second copy would hold second copies of its classes."""
    fullname = f"cayspec.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules["cayspec"], name, module)
    return module


colour = _layer("colour")
exactnum = _layer("exactnum")
galois = _layer("galois")
search = _layer("search")
spectra = _layer("spectra")
# Reached only through spectra; registered here too, so that every layer is
# in `sys.modules` once this module is imported (perfbench/trace_request.py
# reads each one there before it runs).
_layer("_kernels")


# -- instance files ----------------------------------------------------------


class InstanceDocument(NamedTuple):
    """A parsed instance: the group plus the colour of its one colour or
    connection section; a connection multiset is its multiplicity colour."""

    group_kind: str
    group_params: dict[str, str]
    group: Group
    kind: str  # "colour" | "connection"
    echo_entries: list[tuple[str, str]]
    colour: colour.ColourFunction


def _split_top_level(text: str) -> list[str]:
    # Split on commas outside parentheses, so product names like (0,1) survive.
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_rational(text: str, line: int, column: int) -> Fraction:
    from fractions import Fraction  # only instance requests read rationals

    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            den_val = int(den.strip())
            if den_val == 0:
                raise ParseError("zero denominator in rational", line, column)
            return Fraction(int(num.strip()), den_val)
        return Fraction(int(text))
    except ValueError:
        raise ParseError(f"malformed rational {text!r}", line, column) from None


def _parse_cycles(text: str, line: int, column: int) -> list[int]:
    # Cycle notation like (0 1 2 3)(4 5); returns a one-line permutation.
    # The cycles must be disjoint: a point named twice would be overwritten.
    # `column` is where text starts on its line; errors name a cycle's column.
    cycles: list[list[int]] = []
    seen: set[int] = set()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' in permutation, found {ch!r}", line, column + i)
        j = text.index(")", i) if ")" in text[i:] else -1
        if j < 0:
            raise ParseError("unclosed cycle in permutation", line, column + i)
        body = text[i + 1 : j].replace(",", " ").split()
        try:
            cycle = [int(p) for p in body]
        except ValueError:
            raise ParseError("cycle entries must be integers", line, column + i) from None
        if any(p < 0 for p in cycle):
            raise ParseError("cycle entries must be non-negative", line, column + i)
        for p in cycle:
            if p in seen:
                raise ParseError(f"point {p} appears twice in one permutation", line, column + i)
            seen.add(p)
        cycles.append(cycle)
        i = j + 1
    points = max((p for cyc in cycles for p in cyc), default=-1) + 1
    perm = list(range(points))
    for cyc in cycles:
        for k, p in enumerate(cyc):
            perm[p] = cyc[(k + 1) % len(cyc)]
    return perm


class Bound(NamedTuple):
    """The largest group order a command admits, and the words its refusal
    names it by; the default is the closure cap, which every command meets."""

    order: int = CLOSURE_CAP
    name: str = f"the cap of {CLOSURE_CAP} elements"


def _construct_group(
    kind: str, value: str, bound: Bound, line: int = 0, column: int = 1
) -> Group:
    """The group a family and the value of its one parameter name, refused
    above `bound` before it is built.

    The value is parsed once, and a bound above the closure cap is lowered
    to it for every family.  Building an arithmetic family costs memory
    linear in its order, so the order is read off the value and compared
    with the bound first.  A generated group's order is known only once it
    is closed, so the closure stops one element past the bound.  `line` and
    `column` locate the value in an instance.  Parameter errors are reworded
    as ParseErrors at the value; a size refusal is not, so the closure runs
    outside the `try`.
    """
    try:
        if kind == "generated":
            perms, offset = [], column
            for chunk in value.split(";"):
                if chunk.strip():
                    perms.append(_parse_cycles(chunk, line, offset))
                offset += len(chunk) + 1
            width = max((len(p) for p in perms), default=0)
            perms = [p + list(range(len(p), width)) for p in perms]
        else:
            if kind == "product":
                factors = [int(x) for x in value.split(",") if x.strip()]
                if len(factors) < 2:
                    raise ParseError("product needs at least two factors", line, column)
            else:
                factors = [int(value)]
            make = make_dihedral if kind == "dihedral" else make_cyclic
            for n in factors:
                if n < 1:
                    make(n)  # refuses n in the family's own words, building nothing
    except ValueError as bad:
        raise ParseError(f"bad group parameter: {bad}", line, column) from None
    if bound.order > CLOSURE_CAP:
        bound = Bound()
    if kind == "generated":
        try:
            return make_from_generators(perms, bound.order)
        except ValueError:  # the parsed cycles are permutations: only the cap is left
            raise ValueError(f"generator closure exceeded {bound.name}") from None
    order = math.prod(factors) * (2 if kind == "dihedral" else 1)
    if order > bound.order:
        raise ValueError(f"group order {order} exceeds {bound.name}")
    group = make(factors[0])
    for n in factors[1:]:
        group = make_product(group, make_cyclic(n))
    return group


# The one parameter each kind takes.
_GROUP_KEYS = {"cyclic": "n", "dihedral": "m", "product": "factors", "generated": "generators"}


def parse_instance(text: str, bound: Bound = Bound()) -> InstanceDocument:
    """Parse an instance document; raises ParseError with line and column.

    A group above `bound` is refused before it is built, as `_construct_group`
    says.
    """
    section = None
    headers: dict[str, tuple[int, int]] = {}  # where each section is first opened
    # Each entry keeps its line, its key's column and its value's column.
    group_raw: dict[str, tuple[str, int, int, int]] = {}
    colour_raw: list[tuple[str, str, int, int, int]] = []
    connection_raw: list[tuple[str, str, int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, col)
            name = stripped[1:-1].strip()
            if name not in ("group", "colour", "connection"):
                raise ParseError(f"unknown section [{name}]", lineno, col)
            section = name
            headers.setdefault(name, (lineno, col))
            continue
        if section is None:
            raise ParseError("content before any section header", lineno, col)
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno, col)
        key, value = stripped.split("=", 1)
        key = key.strip()
        value_col = line.index("=") + 2 + len(value) - len(value.lstrip())
        value = value.strip()
        if not key:
            raise ParseError("empty key", lineno, col)
        if section == "group":
            if key in group_raw:
                raise ParseError(f"repeated [group] key {key!r}", lineno, col)
            group_raw[key] = (value, lineno, col, value_col)
        elif section == "colour":
            colour_raw.append((key, value, lineno, col, value_col))
        else:
            connection_raw.append((key, value, lineno, col, value_col))

    if "kind" not in group_raw:
        raise ParseError("missing [group] section with a 'kind' entry", 1, 1)
    kind, kind_line, _, kind_col = group_raw.pop("kind")
    if kind not in _GROUP_KEYS:
        raise ParseError(f"unknown group kind {kind!r}", kind_line, kind_col)
    needed = _GROUP_KEYS[kind]
    for key, (_, lineno, key_col, _) in group_raw.items():
        if key != needed:
            raise ParseError(f"unknown group parameter {key!r}", lineno, key_col)
    if needed not in group_raw:
        raise ParseError(f"group kind {kind!r} needs parameter {needed!r}", kind_line, kind_col)
    value, value_line, _, value_col = group_raw[needed]
    params = {needed: value}
    G = _construct_group(kind, value, bound, value_line, value_col)

    # A section is present once its header is seen: an empty [colour] is the
    # zero colour, an empty [connection] the empty set.
    if "colour" in headers and "connection" in headers:
        raise ParseError(
            "an instance carries either a [colour] or a [connection] section, not both",
            *max(headers["colour"], headers["connection"]),
        )
    if "colour" not in headers and "connection" not in headers:
        raise ParseError("missing [colour] or [connection] section", 1, 1)

    def resolve(name: str, lineno: int, column: int) -> int:
        try:
            return G.element_index(name)
        except KeyError:
            raise ParseError(f"unknown element name {name!r}", lineno, column) from None

    if "colour" in headers:
        part = conjugacy_classes(G)
        assignment: dict[int, Fraction] = {}
        for key, value, lineno, kcol, vcol in colour_raw:
            rational = _parse_rational(value, lineno, vcol)
            if key.startswith("class(") and key.endswith(")"):
                name = key[6:-1].strip().strip('"').strip("'")
                rep = resolve(name, lineno, kcol)
                targets = part.classes[part.class_of[rep]]
            else:
                targets = (resolve(key, lineno, kcol),)
            for g in targets:
                if g in assignment and assignment[g] != rational:
                    raise ParseError(
                        f"conflicting assignment for element {G.names[g]!r}",
                        lineno,
                        kcol,
                    )
                assignment[g] = rational
        f = colour.colour_from_values(G, assignment)
        return InstanceDocument(kind, params, G, "colour", _echo_colour(G, f), f)

    counts: dict[int, int] = {}
    for key, value, lineno, kcol, vcol in connection_raw:
        if key == "elements":
            for name in _split_top_level(value):
                g = resolve(name, lineno, vcol)
                counts[g] = counts.get(g, 0) + 1
        else:
            g = resolve(key, lineno, kcol)
            try:
                mult = int(value)
            except ValueError:
                raise ParseError(
                    f"multiplicity must be an integer, got {value!r}", lineno, vcol
                ) from None
            if mult < 0:
                raise ParseError("negative multiplicity", lineno, vcol)
            counts[g] = counts.get(g, 0) + mult
    f = colour.colour_from_multiset(G, counts)
    echo = [(G.names[g], str(m)) for g, m in enumerate(f.values) if m]
    return InstanceDocument(kind, params, G, "connection", echo, f)


def _echo_colour(G: Group, f: colour.ColourFunction) -> list[tuple[str, str]]:
    part = conjugacy_classes(G)
    entries = []
    for rep in part.representatives:
        value = f.values[rep]
        if value:
            entries.append((f"class({G.names[rep]})", str(value)))
    return entries


def load_instance(path: str, bound: Bound = Bound()) -> InstanceDocument:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_instance(fh.read(), bound)


# -- report assembly ---------------------------------------------------------


class Report:
    """Human-readable lines plus a stable machine key=value block.

    Machine lines given to `stream` are written in place by `write`, one at
    a time as they are rendered, so a long block is never held whole; any
    other report is rendered whole and then written.
    """

    def __init__(self):
        self.human: list[str] = []
        self.machine: list[Optional[tuple[str, str]]] = []  # None: the streamed lines
        self.streamed: Optional[Iterable[str]] = None

    def line(self, text: str = "") -> None:
        self.human.append(text)

    def put(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.machine.append((key, str(value)))

    def stream(self, lines: Iterable[str]) -> None:
        """Machine lines, each ending in a newline, to follow the pairs put so far."""
        self.machine.append(None)
        self.streamed = lines

    def _chunks(self) -> Iterator[str]:
        out = self.human + ["--- report ---"]
        for pair in self.machine:
            if pair is None:
                yield "\n".join(out) + "\n"
                yield from self.streamed
                out = []
            else:
                out.append(f"{pair[0]} = {pair[1]}")
        out.append("--- end ---")
        yield "\n".join(out) + "\n"

    def render(self) -> str:
        return "".join(self._chunks())

    def write(self, fh) -> None:
        if self.streamed is None:
            fh.write(self.render())
        else:
            fh.writelines(self._chunks())


def _fmt_float(x: float) -> str:
    return f"{x:.10g}"


def _echo_instance(report: Report, doc: InstanceDocument, command: str) -> None:
    report.put("command", command)
    report.put("group.kind", doc.group_kind)
    for key, value in doc.group_params.items():
        report.put(f"group.{key}", value)
    report.put("group.order", doc.group.order)
    for key, value in doc.echo_entries:
        report.put(f"instance.{doc.kind}.{key}", value)


def _spectrum_section(report: Report, spectrum: spectra.Spectrum) -> None:
    report.line(f"Exact spectrum ({len(spectrum.pairs)} distinct values):")
    report.line(f"  {'value':<34} {'mult':>4}   embedding")
    report.put("spectrum.exact.count", len(spectrum.pairs))
    for i, (value, mult) in enumerate(spectrum.pairs, start=1):
        text = str(value)  # rendered once, for both lines
        emb = _fmt_float(value.real_embedding())
        report.line(f"  {text:<34} {mult:>4}   {emb}")
        report.put(f"spectrum.exact.{i}.value", text)
        report.put(f"spectrum.exact.{i}.embedding", emb)
        report.put(f"spectrum.exact.{i}.multiplicity", mult)


def _subgroup_section(report: Report, prefix: str, subgroup) -> None:
    members = ",".join(map(str, subgroup.members))
    gens = ",".join(map(str, subgroup.generators))
    report.line(
        f"Fixing subgroup mod {subgroup.modulus}: {{{members}}}"
        + (f"  generated by {{{gens}}}" if gens else "")
    )
    report.put(f"{prefix}.members", members)
    report.put(f"{prefix}.generators", gens)


def _field_section(report: Report, field_report) -> None:
    n = field_report.fixing_subgroup.modulus
    report.line(
        f"Algebraic degree: phi({n})/{len(field_report.fixing_subgroup.members)}"
        f" = {field_report.degree}"
    )
    report.put("phi", exactnum.euler_phi(n))
    report.put("degree", field_report.degree)
    poly = exactnum.format_polynomial(field_report.minimal_poly)
    report.line(
        f"Primitive element: {field_report.primitive_element}"
        f"  with minimal polynomial {poly}"
    )
    report.put("field.primitive", field_report.primitive_element)
    report.put("field.minpoly", poly)


# -- subcommands --------------------------------------------------------------


def cmd_spectrum(doc: InstanceDocument) -> tuple[Report, int]:
    f = doc.colour
    report = Report()
    report.line(f"Cayley colour graph on a {doc.group_kind} group of order {doc.group.order}")
    _echo_instance(report, doc, "spectrum")
    H = galois.fixing_subgroup(f)
    exact = galois.checked_spectrum(f, H)
    if exact is not None:
        _spectrum_section(report, exact)
    else:
        print(
            "warning: no exact character table for this group family; "
            "numeric spectrum only",
            file=sys.stderr,
        )
        report.put("spectrum.exact.count", "unavailable")
    numeric = spectra.spectrum_numeric(f)
    report.put("spectrum.numeric", ";".join(_fmt_float(v) for v in numeric))
    exit_code = 0
    if exact is not None:
        comparison = spectra.compare_spectra(exact, numeric)
        report.line(
            f"Numeric cross-check: max deviation {_fmt_float(comparison.max_deviation)}"
            f" (threshold {_fmt_float(comparison.threshold)}):"
            f" {'OK' if comparison.matches else 'MISMATCH'}"
        )
        report.put("spectrum.match", comparison.matches)
        if not comparison.matches:
            exit_code = 3
    verdict = galois.integrality_verdict(f, H, exact)
    report.line(
        f"Rational: {'yes' if verdict.rational else 'no'}   "
        f"Integral: {'yes' if verdict.integral else 'no'}"
    )
    report.put("verdict.rational", verdict.rational)
    report.put("verdict.integral", verdict.integral)
    return report, exit_code


def cmd_degree(doc: InstanceDocument) -> tuple[Report, int]:
    f = doc.colour
    report = Report()
    report.line(f"Cayley colour graph on a {doc.group_kind} group of order {doc.group.order}")
    _echo_instance(report, doc, "degree")
    field_report = galois.splitting_field(f)
    _subgroup_section(report, "H", field_report.fixing_subgroup)
    _field_section(report, field_report)
    exact = galois.checked_spectrum(f, field_report.fixing_subgroup)
    verdict = galois.integrality_verdict(f, field_report.fixing_subgroup, exact)
    report.put("verdict.rational", verdict.rational)
    report.put("verdict.integral", verdict.integral)
    return report, 0


def cmd_distance(doc: InstanceDocument) -> tuple[Report, int]:
    if doc.kind != "connection":
        raise ValueError("distance analysis needs a [connection] section")
    G = doc.group
    result = galois.distance_report(doc.colour)  # refuses a multiplicity above 1
    report = Report()
    report.line(f"Distance analysis on a {doc.group_kind} group of order {G.order}")
    _echo_instance(report, doc, "distance")
    report.line(f"Diameter: {result.layering.diameter}")
    report.put("distance.diameter", result.layering.diameter)
    for level, layer in enumerate(result.layering.layers):
        names = ";".join(G.names[g] for g in layer)
        if level:
            report.line(f"  layer {level}: {names}")
        report.put(f"distance.layer.{level}", names)
    _subgroup_section(report, "H_prime", result.field.fixing_subgroup)
    _field_section(report, result.field)
    report.put("distance.degree", result.field.degree)
    report.put("distance.integral", result.field.degree == 1)
    if result.spectrum is not None:
        _spectrum_section(report, result.spectrum)
    return report, 0


def cmd_check(doc: InstanceDocument, subgroup_arg: str) -> tuple[Report, int]:
    f = doc.colour
    n = doc.group.order
    try:
        gens = [int(x) for x in subgroup_arg.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--subgroup {subgroup_arg}: generators must be integers") from None
    H_K = close_generators(n, gens)
    verdict = galois.is_algebraically_integral_over(f, H_K)
    report = Report()
    report.line(f"Integrality over the fixed field of <{subgroup_arg or '1'}> mod {n}")
    _echo_instance(report, doc, "check")
    _subgroup_section(report, "H_K", H_K)
    report.line(
        "All eigenvalues lie in the fixed field"
        if verdict
        else "Some eigenvalue escapes the fixed field"
    )
    report.put("integral_over_K", verdict)
    return report, 0


def cmd_search(args) -> tuple[Report, int]:
    kind, _, param = args.group.partition(":")
    if kind not in _GROUP_KEYS or not param:
        raise ValueError(f"bad --group value {args.group!r} (expected kind:params)")
    try:
        G = _construct_group(kind, param, Bound(args.limit, f"the search limit {args.limit}"))
    except ParseError as err:
        # A command-line value has no line to point at.
        raise ValueError(f"--group {args.group}: {err.reason}") from None
    multisets = args.multisets is not None  # --multisets 0 is refused, not a sets search
    result = search.classify(G, args.multisets if multisets else 1, args.connected, args.jobs)
    render = search.set_renderer(G)
    mode = "multisets" if multisets else "sets"
    report = Report()
    report.line(
        f"Search over {kind} group of order {G.order}: {len(result.records)} normal {mode}"
        + (" (connected only)" if args.connected else "")
    )
    report.put("command", "search")
    report.put("search.group", args.group)
    report.put("search.mode", mode)
    if multisets:
        report.put("search.multiplicity_cap", args.multisets)
    report.put("search.connected_only", args.connected)
    report.put("search.count", len(result.records))
    report.put("search.bundles", result.bundle_count)
    hist = ",".join(f"{d}:{c}" for d, c in result.degree_counts)
    hist_conn = ",".join(f"{d}:{c}" for d, c in result.degree_counts_connected)
    report.line(f"Degree histogram (all): {hist or 'empty'}")
    report.line(f"Degree histogram (connected): {hist_conn or 'empty'}")
    report.put("search.degree_histogram", hist)
    report.put("search.degree_histogram.connected", hist_conn)
    report.stream(_set_lines(result, render))
    exit_code = 0
    if args.degree is not None:
        witness = next((r.index for r in result.records if r.degree == args.degree), None)
        if witness is None:
            report.line(f"No instance of degree {args.degree} exists")
            report.put("search.witness", "none")
            exit_code = 1
        else:
            names, _ = render(result.vector(witness))
            report.line(f"Witness of degree {args.degree}: {{{names}}}")
            report.put("search.witness", witness)
    return report, exit_code


def _set_lines(result: search.SearchResult, render) -> Iterator[str]:
    """The machine lines of each record, rendered from its bundle vector."""
    for r, vector in zip(result.records, result.vectors()):
        names, valency = render(vector)
        key = f"set.{r.index}"
        connected = r.distance_degree is not None
        distance = f"{key}.distance_degree = {r.distance_degree}\n" if connected else ""
        yield (
            f"{key}.elements = {names}\n{key}.valency = {valency}\n"
            f"{key}.connected = {'true' if connected else 'false'}\n"
            f"{key}.degree = {r.degree}\n{distance}"
            f"{key}.integral = {'true' if r.degree == 1 else 'false'}\n"
        )


# -- entry point ---------------------------------------------------------------

DEFAULT_ORDER_LIMIT = 64  # the default --limit of search


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayspec",
        description="Exact spectra, splitting fields and algebraic degrees of "
        "Cayley colour graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="instance file")
        p.add_argument("--out", help="write the report to a file instead of stdout")
        return p

    add_instance_command("spectrum", "exact and numeric adjacency spectrum")
    add_instance_command("degree", "fixing subgroup, splitting field and degree")
    add_instance_command("distance", "distance layers, degree and spectrum")
    check = add_instance_command("check", "integrality over a chosen fixed field")
    check.add_argument(
        "--subgroup",
        default="",
        help="comma-separated unit generators of the fixing subgroup (empty: trivial)",
    )

    search_cmd = sub.add_parser("search", help="enumerate normal connection sets")
    search_cmd.add_argument("--group", required=True, help="kind:params, e.g. dihedral:4")
    search_cmd.add_argument(
        "--multisets",
        type=int,
        default=None,
        metavar="CAP",
        help="enumerate multisets with this multiplicity cap instead of sets",
    )
    search_cmd.add_argument("--connected", action="store_true", help="keep connected graphs only")
    search_cmd.add_argument(
        "--degree", type=int, default=None, help="exit 1 unless this degree occurs"
    )
    search_cmd.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per CPU"
    )
    search_cmd.add_argument(
        "--limit", type=int, default=DEFAULT_ORDER_LIMIT, help="group order cap"
    )
    search_cmd.add_argument("--out", help="write the report to a file instead of stdout")
    return parser


def _check_out(path: str) -> None:
    """Refuse a report path that `open(path, "w")` would refuse for a missing
    directory or for naming one, with the error it would raise, before any
    work and without creating the file."""
    parent = os.path.dirname(path)
    if os.path.isdir(path):
        code = errno.EISDIR
    elif parent and not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        if args.command == "search":
            report, code = cmd_search(args)
        else:
            bound = Bound()
            if args.command == "spectrum":
                # Every spectrum request runs the numeric oracle on the n x n matrix.
                limit = spectra.NUMERIC_ORDER_LIMIT
                bound = Bound(limit, f"the numeric oracle limit {limit}")
            doc = load_instance(args.file, bound)
            if args.command == "spectrum":
                report, code = cmd_spectrum(doc)
            elif args.command == "degree":
                report, code = cmd_degree(doc)
            elif args.command == "distance":
                report, code = cmd_distance(doc)
            else:
                report, code = cmd_check(doc, args.subgroup)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                report.write(fh)
        else:
            report.write(sys.stdout)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
    except InternalInconsistency as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader has gone, and stderr may be the same pipe: print nothing,
        # and point stdout at devnull so the interpreter's final flush cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
