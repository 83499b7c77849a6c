"""Command-line front end: instance files in, human plus machine reports out.

Instance files are sectioned plain text: a [group] section naming the family
and its parameters, then either a [colour] section (element or class entries
with exact rational values) or a [connection] section (an element list or
per-element multiplicities).  Reports carry a stable line-oriented
`key = value` block between `--- report ---` and `--- end ---` markers.

Exit codes: 0 success, 1 negative search verdict, 2 input error, 3 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from cayspec.colour import (
    ColourFunction,
    ConnectionMultiset,
    colour_from_multiset,
    colour_from_values,
)
from cayspec.errors import (
    CayspecError,
    ClosureCapExceeded,
    InternalInconsistency,
    NoConvergence,
    ParseError,
)
from cayspec.exactnum import euler_phi, format_polynomial
from cayspec.galois import (
    check_fixing_subgroup_equals_stabilizers,
    distance_report,
    integrality_verdict,
    is_algebraically_integral_over,
    splitting_field,
)
from cayspec.groups import (
    CLOSURE_CAP,
    Group,
    conjugacy_classes,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
)
from cayspec.search import (
    DEFAULT_ORDER_LIMIT,
    SearchResult,
    SearchSpec,
    check_order,
    classify,
    set_renderer,
)
from cayspec.spectra import (
    Spectrum,
    character_table,
    check_numeric_order,
    compare_spectra,
    has_character_table,
    spectrum_exact,
    spectrum_numeric,
)
from cayspec.units import close_generators


# -- instance files ----------------------------------------------------------


class InstanceDocument(NamedTuple):
    """A parsed instance: the group plus one colour or connection section."""

    group_kind: str
    group_params: dict[str, str]
    group: Group
    kind: str  # "colour" | "connection"
    echo_entries: list[tuple[str, str]]
    colour: Optional[ColourFunction] = None
    connection: Optional[ConnectionMultiset] = None


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    # Split on sep outside parentheses, so product names like (0,1) survive.
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_rational(text: str, line: int, column: int) -> Fraction:
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


SizeCheck = Callable[[int], None]  # raises on a group order it refuses


def _check_closure_cap(order: int) -> None:
    """Refuse an order above CLOSURE_CAP, which generator closure also meets."""
    if order > CLOSURE_CAP:
        raise ClosureCapExceeded(f"group order {order} exceeds the cap of {CLOSURE_CAP} elements")


def _construct_group(
    kind: str, params: dict[str, str], check: SizeCheck, line: int = 0, column: int = 1
) -> Group:
    """The group a family and its parameters name, sized by `check` before it is built.

    The parameters are parsed once.  Building an arithmetic family costs memory
    linear in its order, so the order is read off the parameters and checked
    first; a generated group is checked once closed, which CLOSURE_CAP bounds.
    `line` and `column` locate the value of the first parameter in an instance.
    """
    try:
        if kind == "generated":
            perms, offset = [], column
            for chunk in params["generators"].split(";"):
                if chunk.strip():
                    perms.append(_parse_cycles(chunk, line, offset))
                offset += len(chunk) + 1
            width = max((len(p) for p in perms), default=0)
            perms = [p + list(range(len(p), width)) for p in perms]
            group = make_from_generators(perms)
        else:
            if kind == "product":
                factors = [int(x) for x in params["factors"].split(",") if x.strip()]
                if len(factors) < 2:
                    raise ParseError("product needs at least two factors", line, 1)
            else:
                factors = [int(params["m" if kind == "dihedral" else "n"])]
            make = make_dihedral if kind == "dihedral" else make_cyclic
            for n in factors:
                if n < 1:
                    make(n)  # refuses n in the family's own words, building nothing
    except KeyError as missing:
        raise ParseError(f"group kind {kind!r} needs parameter {missing}", line, 1) from None
    except ValueError as bad:
        raise ParseError(f"bad group parameter: {bad}", line, 1) from None
    if kind == "generated":
        check(group.order)
        return group
    check(math.prod(factors) * (2 if kind == "dihedral" else 1))
    group = make(factors[0])
    for n in factors[1:]:
        group = make_product(group, make_cyclic(n))
    return group


_GROUP_KEYS = {
    "cyclic": {"n"},
    "dihedral": {"m"},
    "product": {"factors"},
    "generated": {"generators"},
}


def parse_instance(text: str, check: SizeCheck = _check_closure_cap) -> InstanceDocument:
    """Parse an instance document; raises ParseError with line and column.

    `check` sizes the group before it is built, as `_construct_group` says.
    """
    section = None
    group_raw: dict[str, tuple[str, int, int]] = {}
    colour_raw: list[tuple[str, str, int, int]] = []
    connection_raw: list[tuple[str, str, int, int]] = []
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
            group_raw[key] = (value, lineno, value_col)
        elif section == "colour":
            colour_raw.append((key, value, lineno, value_col))
        else:
            connection_raw.append((key, value, lineno, value_col))

    if "kind" not in group_raw:
        raise ParseError("missing [group] section with a 'kind' entry", 1, 1)
    kind = group_raw.pop("kind")[0]
    if kind not in _GROUP_KEYS:
        raise ParseError(f"unknown group kind {kind!r}", 1, 1)
    for key, (_, lineno, _) in group_raw.items():
        if key not in _GROUP_KEYS[kind]:
            raise ParseError(f"unknown group parameter {key!r}", lineno, 1)
    params = {key: value for key, (value, _, _) in group_raw.items()}
    _, first_line, first_col = min(group_raw.values(), key=lambda raw: raw[1], default=("", 1, 1))
    G = _construct_group(kind, params, check, first_line, first_col)

    if colour_raw and connection_raw:
        raise ParseError(
            "an instance carries either a [colour] or a [connection] section, not both",
            connection_raw[0][2],
            1,
        )
    if not colour_raw and not connection_raw:
        raise ParseError("missing [colour] or [connection] section", 1, 1)

    def resolve(name: str, lineno: int, column: int) -> int:
        try:
            return G.element_index(name)
        except KeyError:
            raise ParseError(f"unknown element name {name!r}", lineno, column) from None

    if colour_raw:
        part = conjugacy_classes(G)
        assignment: dict[int, Fraction] = {}
        for key, value, lineno, vcol in colour_raw:
            rational = _parse_rational(value, lineno, vcol)
            if key.startswith("class(") and key.endswith(")"):
                name = key[6:-1].strip().strip('"').strip("'")
                rep = resolve(name, lineno, 1)
                targets = part.classes[part.class_of[rep]]
            else:
                targets = (resolve(key, lineno, 1),)
            for g in targets:
                if g in assignment and assignment[g] != rational:
                    raise ParseError(
                        f"conflicting assignment for element {G.names[g]!r}",
                        lineno,
                        1,
                    )
                assignment[g] = rational
        colour = colour_from_values(G, assignment)
        echo = _echo_colour(G, colour)
        return InstanceDocument(kind, params, G, "colour", echo, colour=colour)

    counts: dict[int, int] = {}
    for key, value, lineno, vcol in connection_raw:
        if key == "elements":
            for name in _split_top_level(value):
                g = resolve(name, lineno, vcol)
                counts[g] = counts.get(g, 0) + 1
        else:
            g = resolve(key, lineno, 1)
            try:
                mult = int(value)
            except ValueError:
                raise ParseError(
                    f"multiplicity must be an integer, got {value!r}", lineno, vcol
                ) from None
            if mult < 0:
                raise ParseError("negative multiplicity", lineno, vcol)
            counts[g] = counts.get(g, 0) + mult
    connection = ConnectionMultiset.from_counts(G, counts)
    echo = [
        (G.names[g], str(m))
        for g, m in enumerate(connection.multiplicity)
        if m
    ]
    return InstanceDocument(kind, params, G, "connection", echo, connection=connection)


def _echo_colour(G: Group, colour: ColourFunction) -> list[tuple[str, str]]:
    part = conjugacy_classes(G)
    entries = []
    for cls, rep in zip(part.classes, part.representatives):
        value = colour.values[rep]
        if value:
            entries.append((f"class({G.names[rep]})", str(value)))
    return entries


def load_instance(path: str, check: SizeCheck = _check_closure_cap) -> InstanceDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), check)


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


def _instance_colour(doc: InstanceDocument) -> ColourFunction:
    if doc.colour is not None:
        return doc.colour
    return colour_from_multiset(doc.connection)


def _spectrum_section(report: Report, spectrum: Spectrum) -> None:
    report.line(f"Exact spectrum ({len(spectrum.pairs)} distinct values):")
    report.line(f"  {'value':<34} {'mult':>4}   embedding")
    report.put("spectrum.exact.count", len(spectrum.pairs))
    for i, (value, mult) in enumerate(spectrum.pairs, start=1):
        emb = _fmt_float(value.real_embedding())
        report.line(f"  {str(value):<34} {mult:>4}   {emb}")
        report.put(f"spectrum.exact.{i}.value", value)
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
    n = field_report.modulus
    report.line(
        f"Algebraic degree: phi({n})/{len(field_report.fixing_subgroup)}"
        f" = {field_report.degree}"
    )
    report.put("phi", euler_phi(n))
    report.put("degree", field_report.degree)
    if field_report.primitive_element is not None:
        poly = format_polynomial(field_report.minimal_poly)
        report.line(
            f"Primitive element: {field_report.primitive_element}"
            f"  with minimal polynomial {poly}"
        )
        report.put("field.primitive", field_report.primitive_element)
        report.put("field.minpoly", poly)
    else:
        report.line("Primitive element: not found (degree and subgroup authoritative)")
        report.put("field.primitive", "none")


# -- subcommands --------------------------------------------------------------


def cmd_spectrum(doc: InstanceDocument) -> tuple[Report, int]:
    f = _instance_colour(doc)
    report = Report()
    report.line(f"Cayley colour graph on a {doc.group_kind} group of order {doc.group.order}")
    _echo_instance(report, doc, "spectrum")
    exact = None
    if has_character_table(doc.group):
        exact = spectrum_exact(f, character_table(doc.group))
        check_fixing_subgroup_equals_stabilizers(f, exact)
        _spectrum_section(report, exact)
    else:
        print(
            "warning: no exact character table for this group family; "
            "numeric spectrum only",
            file=sys.stderr,
        )
        report.put("spectrum.exact.count", "unavailable")
    numeric = spectrum_numeric(f)
    report.put("spectrum.numeric", ";".join(_fmt_float(v) for v in numeric))
    exit_code = 0
    if exact is not None:
        comparison = compare_spectra(exact, numeric)
        report.line(
            f"Numeric cross-check: max deviation {_fmt_float(comparison.max_deviation)}"
            f" (threshold {_fmt_float(comparison.threshold)}):"
            f" {'OK' if comparison.matches else 'MISMATCH'}"
        )
        report.put("spectrum.match", comparison.matches)
        if not comparison.matches:
            exit_code = 3
    verdict = integrality_verdict(f, exact)
    report.line(
        f"Rational: {'yes' if verdict.rational else 'no'}   "
        f"Integral: {'yes' if verdict.integral else 'no'}"
    )
    report.put("verdict.rational", verdict.rational)
    report.put("verdict.integral", verdict.integral)
    return report, exit_code


def cmd_degree(doc: InstanceDocument) -> tuple[Report, int]:
    f = _instance_colour(doc)
    report = Report()
    report.line(f"Cayley colour graph on a {doc.group_kind} group of order {doc.group.order}")
    _echo_instance(report, doc, "degree")
    field_report = splitting_field(f)
    _subgroup_section(report, "H", field_report.fixing_subgroup)
    _field_section(report, field_report)
    exact = None
    if has_character_table(doc.group):
        exact = spectrum_exact(f, character_table(doc.group))
        check_fixing_subgroup_equals_stabilizers(f, exact)
    verdict = integrality_verdict(f, exact)
    report.put("verdict.rational", verdict.rational)
    report.put("verdict.integral", verdict.integral)
    return report, 0


def cmd_distance(doc: InstanceDocument) -> tuple[Report, int]:
    if doc.connection is None:
        raise CayspecError("distance analysis needs a [connection] section")
    if not doc.connection.is_simple():
        raise CayspecError("distance analysis needs a simple connection set")
    G = doc.group
    result = distance_report(doc.connection)
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
    f = _instance_colour(doc)
    n = doc.group.order
    try:
        gens = [int(x) for x in subgroup_arg.split(",") if x.strip()]
    except ValueError:
        raise CayspecError(f"--subgroup {subgroup_arg}: generators must be integers") from None
    H_K = close_generators(n, gens)
    verdict = is_algebraically_integral_over(f, H_K)
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
        raise CayspecError(f"bad --group value {args.group!r} (expected kind:params)")
    params = dict.fromkeys(_GROUP_KEYS[kind], param)  # one parameter per kind
    try:
        G = _construct_group(kind, params, lambda order: check_order(order, args.limit))
    except ParseError as err:
        # A command-line value has no line to point at.
        raise CayspecError(f"--group {args.group}: {err.reason}") from None
    spec = SearchSpec(
        group=G,
        mode="multisets" if args.multisets else "sets",
        multiplicity_cap=args.multisets or 3,
        require_connected=args.connected,
        target_degree=args.degree,
        order_limit=args.limit,
    )
    result = classify(spec, jobs=args.jobs)
    render = set_renderer(G, spec.radix)
    report = Report()
    report.line(
        f"Search over {kind} group of order {G.order}: {len(result.records)} "
        f"normal {'multisets' if spec.mode == 'multisets' else 'sets'}"
        + (" (connected only)" if spec.require_connected else "")
    )
    report.put("command", "search")
    report.put("search.group", args.group)
    report.put("search.mode", spec.mode)
    if spec.mode == "multisets":
        report.put("search.multiplicity_cap", spec.multiplicity_cap)
    report.put("search.connected_only", spec.require_connected)
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
    if spec.target_degree is not None:
        if result.witness_index is None:
            report.line(f"No instance of degree {spec.target_degree} exists")
            report.put("search.witness", "none")
            exit_code = 1
        else:
            names, _ = render(result.vector(result.witness_index))
            report.line(f"Witness of degree {spec.target_degree}: {{{names}}}")
            report.put("search.witness", result.witness_index)
    return report, exit_code


def _set_lines(result: SearchResult, render) -> Iterator[str]:
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

    search = sub.add_parser("search", help="enumerate normal connection sets")
    search.add_argument("--group", required=True, help="kind:params, e.g. dihedral:4")
    search.add_argument(
        "--multisets",
        type=int,
        default=0,
        metavar="CAP",
        help="enumerate multisets with this multiplicity cap instead of sets",
    )
    search.add_argument("--connected", action="store_true", help="keep connected graphs only")
    search.add_argument("--degree", type=int, default=None, help="exit 1 unless this degree occurs")
    search.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per CPU")
    search.add_argument("--limit", type=int, default=DEFAULT_ORDER_LIMIT, help="group order cap")
    search.add_argument("--out", help="write the report to a file instead of stdout")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "search":
            report, code = cmd_search(args)
        else:
            # Every spectrum request runs the numeric oracle on the n x n matrix.
            check = check_numeric_order if args.command == "spectrum" else _check_closure_cap
            doc = load_instance(args.file, check)
            if args.command == "spectrum":
                report, code = cmd_spectrum(doc)
            elif args.command == "degree":
                report, code = cmd_degree(doc)
            elif args.command == "distance":
                report, code = cmd_distance(doc)
            else:
                report, code = cmd_check(doc, args.subgroup)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                report.write(fh)
        else:
            report.write(sys.stdout)
    except (InternalInconsistency, NoConvergence) as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except (CayspecError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
