"""Run one cayspec CLI request in this process, with spans around each layer.

Usage: python perfbench/trace_request.py SPANS.json CLI-ARGS...

One process is one request, so SPANS.json holds the spans of that request
only; the benchmark names the file after the request id.

The report goes to stdout and the exit code is the CLI's, exactly as for
`python -m cayspec.cli CLI-ARGS...`.  The spans, counters and request sizes
go to SPANS.json.  Nothing inside cayspec changes: after the import, each
layer's functions are replaced by recording wrappers at every name they are
bound to in a cayspec module, so a call through `cayspec.galois.power` is
recorded like one through `cayspec.groups.power`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Functions recorded as spans: (layer, module, names).  Methods are Class.name.
SPANS = [
    ("cli", "cayspec.cli", ["main", "load_instance", "parse_instance", "cmd_spectrum",
                            "cmd_degree", "cmd_distance", "cmd_check", "cmd_search",
                            "Report.render"]),
    ("groups", "cayspec.groups", ["make_cyclic", "make_dihedral", "make_product",
                                  "make_from_generators", "conjugacy_classes"]),
    ("colour", "cayspec.colour", ["colour_from_values", "colour_from_multiset",
                                  "distance_layering"]),
    ("exactnum", "cayspec.exactnum", ["galois_orbit", "minimal_polynomial"]),
    ("spectra", "cayspec.spectra", ["character_table", "spectrum_exact", "adjacency_matrix",
                                    "spectrum_numeric", "compare_spectra"]),
    ("kernels", "cayspec._kernels", ["jacobi_diagonalize"]),
    ("galois", "cayspec.galois", ["fixing_subgroup", "splitting_field",
                                  "multiset_fixing_subgroup", "distance_fixing_subgroup",
                                  "distance_report", "integrality_verdict"]),
    ("search", "cayspec.search", ["classify"]),
]
# Called too often for one span each: their time is summed on the enclosing span.
TIMED = [("groups", "cayspec.groups", "power"),
         ("cli", "cayspec.cli", "Report.put"),
         ("cli", "cayspec.cli", "Report.line")]
# Only counted.  `_table_from_rule` adds order^2, the cells of one table.
COUNTED = [("exactnum", "cayspec.exactnum", "Cyclotomic.__init__"),
           ("exactnum", "cayspec.exactnum", "galois_apply"),
           ("search", "cayspec.search", "_classify_one"),
           ("groups", "cayspec.groups", "_table_from_rule")]


def _note(name, args, result):
    """Facts a span keeps beside its times."""
    if name == "kernels.jacobi_diagonalize":
        return {"n": args[1], "sweeps": result}
    if name == "cli.Report.render":
        return {"bytes": len(result.encode())}
    if name == "galois.splitting_field":
        return {"found": result.primitive_element is not None}
    if name == "search.classify":
        return {"bundles": result.bundle_count}
    return None


class Tracer:
    """Spans of one request: [name, start, end, parent, timed_children_s, note]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = {}  # TIMED and COUNTED name -> [calls, seconds or weight]
        self.groups = []

    def open(self, name):
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span[2] = perf_counter()
        self.stack.pop()

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                span[5] = _note(name, args, result)
                if name.startswith("groups.make_"):
                    self.groups.append(result)
                return result
            finally:
                self.close(span)
        return wrapper

    def timed(self, name, fn):
        tally = self.calls.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tally[0] += 1
                tally[1] += elapsed
                spans[stack[-1]][4] += elapsed
        return wrapper

    def counted(self, name, fn):
        tally = self.calls.setdefault(name, [0, 0])
        table = name.endswith("_table_from_rule")

        def wrapper(*args, **kwargs):
            tally[0] += 1
            if table:
                tally[1] += args[0] ** 2
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target at every name bound to it in a cayspec module."""
        replace = {}
        for kinds, make in ((SPANS, self.span), (TIMED, self.timed), (COUNTED, self.counted)):
            for layer, module, names in kinds:
                for name in [names] if isinstance(names, str) else names:
                    owner, _, attr = name.rpartition(".")
                    holder = sys.modules[module]
                    if owner:
                        holder = getattr(holder, owner)
                    target = getattr(holder, attr, None)
                    if target is None:
                        continue  # renamed or removed: the metric reads 0
                    wrapped = make(f"{layer}.{name}", target)
                    if owner:
                        setattr(holder, attr, wrapped)
                    else:
                        replace[target] = wrapped
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cayspec"):
                for key, value in list(vars(mod).items()):
                    if callable(value) and not isinstance(value, type) and value in replace:
                        setattr(mod, key, replace[value])


def sizes(tracer, originals) -> dict:
    """n, phi(n), classes, bundles, candidates and Jacobi matrix order of the request."""
    out = {"candidates": tracer.calls.get("search._classify_one", [0])[0]}
    out["matrix_n"] = max((s[5]["n"] for s in tracer.spans if s[0] == "kernels.jacobi_diagonalize"), default=0)
    if tracer.groups:
        G = max(tracer.groups, key=lambda g: g.order)
        out.update(
            n=G.order,
            phi=originals["euler_phi"](G.order),
            classes=len(originals["conjugacy_classes"](G).classes),
            bundles=len(originals["class_bundles"](G)),
        )
    return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.open("cli.request")
    span = tracer.open("cli.import")
    import cayspec.cli
    from cayspec.exactnum import euler_phi
    from cayspec.groups import conjugacy_classes
    from cayspec.search import class_bundles

    tracer.close(span)
    originals = {"euler_phi": euler_phi, "conjugacy_classes": conjugacy_classes,
                 "class_bundles": class_bundles}
    tracer.install()
    try:
        code = cayspec.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.close(root)
    t0 = root[1]
    record = {
        "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in tracer.spans],
        "calls": tracer.calls,
        "sizes": sizes(tracer, originals),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
