"""Span tracer for the traced benchmark run.

The tracer wraps public flagiso functions from outside the package: each
wrapper records one span (layer name, start, end, parent span, query id) in
flat in-memory arrays.  Per-layer numbers are computed from the spans after
the run, and the spans are written out as a gzipped TSV file.

A function must be replaced in every flagiso module namespace that binds
it (``iso`` binds ``realize`` by name, ``cocycles`` binds
``solve_congruences``, ...), otherwise calls made through the unreplaced
binding would go untraced.  ``install`` replaces every binding it finds and
``unwrapped_bindings`` re-scans to prove that none is left.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (defining module, attribute, layer).  Several attributes may share a layer:
# group construction is entered through build_abelian, validate_table,
# io.group_from_obj or Group() directly, and nested entries merge into one call.
TRACED = (
    ("flagiso.groups", "build_abelian", "groups.construct"),
    ("flagiso.groups", "validate_table", "groups.construct"),
    ("flagiso.io", "group_from_obj", "groups.construct"),
    ("flagiso.groups", "left_coset", "groups.left_coset"),
    ("flagiso.modlinalg", "solve_congruences", "modlinalg.solve_congruences"),
    ("flagiso.cocycles", "cohomologous", "cocycles.cohomologous"),
    ("flagiso.cocycles", "transport", "cocycles.transport"),
    ("flagiso.cocycles", "is_corrector", "cocycles.is_corrector"),
    ("flagiso.division", "shift_conjugate", "division.shift_conjugate"),
    ("flagiso.division", "iso_division", "division.iso_division"),
    ("flagiso.algebras", "realize", "algebras.realize"),
    ("flagiso.algebras", "check_grading", "algebras.check_grading"),
    ("flagiso.algebras", "invariants", "algebras.invariants"),
    ("flagiso.iso", "iso_algebras", "iso.iso_algebras"),
    ("flagiso.iso", "build_witness", "iso.build_witness"),
    ("flagiso.iso", "verify_witness", "iso.verify_witness"),
    ("flagiso.iso", "canonical_form", "iso.canonical_form"),
    ("flagiso.iso", "classify", "iso.classify"),
    ("flagiso.tables", "enumerate_classes", "tables.enumerate_classes"),
    ("flagiso.io", "load_presentation", "io.load_presentation"),
    ("flagiso.io", "load_witness", "io.load_witness"),
    ("flagiso.io", "save_witness", "io.save_witness"),
    ("flagiso.cli", "main", "cli.main"),
)
GROUP_INIT_LAYER = "groups.construct"  # Group.__init__, wrapped on the class

# time in these layers, under iso_algebras, is spent certifying an answer
# rather than searching for it
CERTIFY_LAYERS = ("algebras.realize", "iso.build_witness", "iso.verify_witness")


def _dim(p) -> int:
    """Dimension of the algebra of presentation p, from its shape and support."""
    sizes = p.shape.blocks
    cells = sum(m * sum(sizes[b:]) for b, m in enumerate(sizes))
    return cells * len(p.division.support.members)


def _flagiso_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flagiso" or name.startswith("flagiso."))]


class Tracer:
    """Wraps the TRACED functions and records one span per call."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.current_query = -1
        self._stack: list[int] = []
        # counters read off arguments and results at the layer boundary
        self.solve_rows = 0
        self.division_hits = 0
        self.classify_tuples = 0
        self.verify_pairs: dict[int, int] = {}  # span -> checked_pairs
        self.iso_verdicts: dict[int, tuple[bool, int]] = {}  # span -> (YES, source dim)
        self._restore: list[tuple[object, str, object]] = []  # (owner, name, original)

    # -- recording ------------------------------------------------------------

    def _id(self, layer: str) -> int:
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_id[layer]

    def _wrap(self, fn, layer: str):
        lid = self._id(layer)
        stack = self._stack
        on_result = self._result_hook(layer)

        def traced(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.current_query)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(idx, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = fn.__doc__
        return traced

    def _result_hook(self, layer: str):
        if layer == "modlinalg.solve_congruences":
            def hook(idx, args, result):
                self.solve_rows += len(args[0])
        elif layer == "iso.verify_witness":
            def hook(idx, args, result):
                self.verify_pairs[idx] = result.checked_pairs
        elif layer == "division.iso_division":
            def hook(idx, args, result):
                self.division_hits += result is not None
        elif layer == "iso.classify":
            def hook(idx, args, result):
                self.classify_tuples += result.total
        elif layer == "iso.iso_algebras":
            def hook(idx, args, result):
                self.iso_verdicts[idx] = (result.witness is not None, _dim(args[0]))
        else:
            return None
        return hook

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every flagiso binding of each traced function by its wrapper."""
        from flagiso.groups import Group

        modules = _flagiso_modules()
        for modname, attr, layer in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        init = Group.__init__
        self._restore.append((Group, "__init__", init))
        Group.__init__ = self._wrap(init, GROUP_INIT_LAYER)

    def unwrapped_bindings(self) -> list[str]:
        """Every flagiso binding that still holds an unwrapped original."""
        from flagiso.groups import Group

        originals = {id(orig) for _, _, orig in self._restore}
        found = [
            f"{mod.__name__}.{name}"
            for mod in _flagiso_modules()
            for name, value in vars(mod).items()
            if id(value) in originals
        ]
        if id(vars(Group)["__init__"]) in originals:
            found.append("flagiso.groups.Group.__init__")
        return found

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------------

    def _ancestors(self, i: int):
        p = self.parent[i]
        while p >= 0:
            yield p
            p = self.parent[p]

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the derived ratios and counts.

        Self time is a span's duration minus the durations of its direct
        children.  A span nested inside a span of the same layer is not
        counted as a separate call (it only arises for groups.construct).
        """
        n = len(self.layer)
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        dur = array("d", (end[i] - start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        nl = len(self.layers)
        calls = [0] * nl
        self_s = [0.0] * nl
        lid = self._layer_id
        construct = lid.get(GROUP_INIT_LAYER, -1)
        for i in range(n):
            li = layer[i]
            self_s[li] += dur[i] - child[i]
            if li == construct and any(layer[a] == li for a in self._ancestors(i)):
                continue
            calls[li] += 1

        iso_id = lid.get("iso.iso_algebras", -1)
        enum_id = lid.get("tables.enumerate_classes", -1)
        realize_id = lid.get("algebras.realize", -1)
        verify_id = lid.get("iso.verify_witness", -1)
        certify_ids = {lid[x] for x in CERTIFY_LAYERS if x in lid}
        direct_iso = crosscheck_iso = realize_in_iso = pairs_in_iso = 0
        iso_time = certify_time = 0.0
        for i in range(n):
            li = layer[i]
            if li == iso_id:
                if any(layer[a] == enum_id for a in self._ancestors(i)):
                    crosscheck_iso += 1
                else:
                    direct_iso += 1
                iso_time += dur[i]  # iso_algebras never nests in itself
            elif li in certify_ids:
                anc = [layer[a] for a in self._ancestors(i)]
                if iso_id not in anc:
                    continue
                if not any(a in certify_ids for a in anc):
                    certify_time += dur[i]
                if li == realize_id:
                    realize_in_iso += 1
                elif li == verify_id:
                    pairs_in_iso += self.verify_pairs[i]

        yes = sum(1 for ok, _ in self.iso_verdicts.values() if ok)
        no = len(self.iso_verdicts) - yes
        yes_dim2 = sum(d * d for ok, d in self.iso_verdicts.values() if ok)
        return {
            "calls": {self.layers[i]: calls[i] for i in range(nl)},
            "self_ms": {self.layers[i]: self_s[i] * 1e3 for i in range(nl)},
            "spans": n,
            "direct_iso_calls": direct_iso,
            "crosscheck_iso_calls": crosscheck_iso,
            "certify_share": certify_time / iso_time if iso_time else 0.0,
            # facts of the engine at the commit that introduced the benchmark:
            # realize runs 3 times per YES and twice per NO inside iso_algebras,
            # and verify_witness checks dim**2 basis pairs per YES
            "realize_in_iso": realize_in_iso,
            "realize_seed_formula": 3 * yes + 2 * no,
            "verify_pairs_in_iso": pairs_in_iso,
            "verify_pairs_seed_formula": yes_dim2,
            "verify_pairs": sum(self.verify_pairs.values()),
        }

    def write(self, path: str) -> None:
        """Write the spans as gzipped TSV: id, layer, start_s, end_s, parent, query."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("id\tlayer\tstart_s\tend_s\tparent\tquery\n")
            names = self.layers
            for i in range(len(self.layer)):
                f.write(
                    f"{i}\t{names[self.layer[i]]}\t{self.start[i] - t0:.7f}\t"
                    f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.query[i]}\n"
                )
