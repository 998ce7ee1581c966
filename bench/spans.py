"""Span recorder for the traced run.

Wraps the public entry points of each nracks module (the layers) from the
benchmark's own files.  A wrapper records one span per call: name, parent
span, job id, start, end, and its own bookkeeping time; it returns the
wrapped function's value and re-raises its exception untouched.  Per-call
counts that need the arguments or the result (sizes, witnesses, hits) are
taken inside the bookkeeping time, which is reported on its own, so layer
self times exclude the cost of tracing them.

Self time of a span is its duration minus the part its child spans, with
their bookkeeping, cover.  The self times of all spans, the bookkeeping and
the job loop's own time, which the loop measures with its own clock, must
add up to the traced pass's wall time, up to ACCOUNTING_SLACK.
"""

import json
import sys
import time

# Share of the traced wall time that may go unaccounted for: the time the
# job loop spends inside run_job but outside the cli.main span.
ACCOUNTING_SLACK = 0.002

# Layer -> wrapped public functions.  Per-element helpers (FiniteNRack.bracket,
# cycle_type, free_reduce, leibniz.bracket) stay unwrapped: their cost lands
# in the caller's self time.
WRAPPED = {
    "cli": ["main"],
    "jsonio": [
        "load_json", "nrack_from_json", "group_from_json", "tensor_from_json",
        "operator_from_json", "module_group_from_json",
        "dump_document", "dump_line", "nrack_to_json", "group_to_json",
        "presentation_to_json", "invariants_to_json", "classification_to_json",
        "validation_to_json", "homology_result_to_json", "enumeration_report_to_json",
        "tensor_to_json",
    ],
    "core": [
        "validate", "classify", "check_left_distributive", "check_translation_bijective",
        "check_pointed", "is_homomorphism", "translation_cycle_types", "find_isomorphism",
        "inner_map", "check_inner_is_automorphism", "orbits",
    ],
    "constructions": [
        "validate_rack", "reduce_nrack_to_rack", "build_z4_module_nrack",
        "build_gamma_module_nrack", "build_conjugation_nrack", "lift_rack_to_nrack",
        "build_module_group_nrack", "check_antisymmetric_bracket",
        "associated_group_presentation", "abelianization", "check_relator_preservation",
    ],
    "homology": [
        "rack_chain_complex", "reduced_rack_table", "degenerate_subcomplex",
        "quandle_quotient_complex", "homology", "cohomology",
    ],
    "snf": [
        "smith_normal_form", "invariant_factors", "determinant", "group_from_diagonal",
        "invariants_from_cyclic_orders",
    ],
    "enumeration": ["enumerate_nracks"],
    "leibniz": [
        "check_fundamental_identity", "check_filippov", "check_derivation", "adjoint",
        "check_self_derivation", "check_multilinearity_sample",
    ],
}

# Per-layer metrics: name -> (unit, the wrapped functions that feed it).
METRICS = {
    "cli.jobs": ("count", "cli.main calls"),
    "cli.self_s": ("s", "cli.main self time"),
    "jsonio.self_s": ("s", "all jsonio wrappers"),
    "jsonio.load_s": ("s", "load_json and *_from_json self time"),
    "jsonio.dump_s": ("s", "dump_document, dump_line and *_to_json self time"),
    "jsonio.bytes_out": ("B", "length of dump_document and dump_line results"),
    "core.self_s": ("s", "all core wrappers"),
    "core.validate.calls": ("count", "validate"),
    "core.classify.calls": ("count", "classify"),
    "core.distributivity.calls": ("count", "check_left_distributive"),
    "core.distributivity_s": ("s", "check_left_distributive self time"),
    "core.distributivity.instances": (
        "count", "check_left_distributive: m^(2n-1) per full pass, up to the witness otherwise"),
    "core.distinct_rows_ratio": (
        "ratio", "check_left_distributive: distinct translation rows / prefixes, over calls"),
    "core.find_isomorphism.calls": ("count", "find_isomorphism"),
    "core.find_isomorphism_s": ("s", "find_isomorphism self time"),
    "core.find_isomorphism.hit_ratio": ("ratio", "find_isomorphism: isomorphisms found / calls"),
    "core.translation_cycle_types.calls": ("count", "translation_cycle_types"),
    "core.inner_s": ("s", "inner_map and orbits self time"),
    "constructions.self_s": ("s", "all constructions wrappers"),
    "constructions.reduce.calls": ("count", "reduce_nrack_to_rack"),
    "constructions.reduce_s": ("s", "reduce_nrack_to_rack self time"),
    "constructions.build_s": ("s", "build_* and lift_rack_to_nrack self time"),
    "constructions.presentation_s": ("s", "associated_group_presentation self time"),
    "constructions.abelianization_s": ("s", "abelianization self time"),
    "homology.self_s": ("s", "all homology wrappers"),
    "homology.complex_s": ("s", "rack_chain_complex self time, with the d.d check"),
    "homology.subcomplex_s": ("s", "degenerate_subcomplex and quandle_quotient_complex self time"),
    "homology.homology_s": ("s", "homology and cohomology self time: dense copies, transposes"),
    "homology.factorizations_per_map": (
        "ratio", "invariant_factors calls under homology/cohomology / distinct (complex, k) maps"),
    "homology.chain_rank_max": ("count", "largest chain rank of a built complex"),
    "homology.boundary_nnz": ("count", "nonzeros of every boundary map of every built complex"),
    "snf.self_s": ("s", "all snf wrappers"),
    "snf.calls": ("count", "smith_normal_form"),
    "snf.boundary_s": ("s", "snf self time under homology or cohomology"),
    "snf.relator_s": ("s", "snf self time under abelianization"),
    "snf.cells": ("count", "smith_normal_form: sum of rows*cols"),
    "snf.nnz": ("count", "smith_normal_form: sum of nonzero entries"),
    "snf.max_cells": ("count", "smith_normal_form: largest rows*cols"),
    "snf.unit_factor_ratio": ("ratio", "invariant_factors: factors equal to 1 / all factors"),
    "enumeration.self_s": ("s", "enumerate_nracks self time"),
    "enumeration.search_s": ("s", "enumerate_nracks self time, without classify or find_isomorphism"),
    "enumeration.classify_s": ("s", "classify calls made by enumerate_nracks, with their children"),
    "enumeration.emitted": ("count", "classify calls made by enumerate_nracks"),
    "enumeration.classes": ("count", "enumerate_nracks: count_up_to_iso"),
    "enumeration.iso_calls_per_emitted": (
        "ratio", "find_isomorphism calls made by enumerate_nracks / emitted"),
    "leibniz.self_s": ("s", "all leibniz wrappers"),
    "leibniz.fundamental_identity_s": ("s", "check_fundamental_identity self time"),
    "leibniz.self_derivation_s": (
        "s", "check_self_derivation self time plus its adjoint and check_derivation children"),
    "leibniz.derivation_s": ("s", "check_derivation self time outside check_self_derivation"),
    "leibniz.filippov_s": ("s", "check_filippov self time"),
    "leibniz.multilinearity_s": ("s", "check_multilinearity_sample self time"),
    "leibniz.basis_equations": (
        "count", "check_fundamental_identity: d^(2n-1) per full pass, up to the witness otherwise"),
    "leibniz.support_ratio": (
        "ratio", "check_fundamental_identity: nonzero argument tuples / d^n, over calls"),
    "trace.wall_s": ("s", "wall time of the traced pass"),
    "trace.bench_s": ("s", "traced pass time outside every span: the benchmark's job loop"),
    "trace.bookkeeping_s": ("s", "time the wrappers spend recording"),
    "trace.spans": ("count", "spans recorded"),
    "trace.overhead_s": ("s", "traced wall time minus untraced wall time of the same job list"),
}


def _position(xs, ys, m, n):
    """1-based position of (xs, ys) in the prefix-major scan of m^(2n-1) instances."""
    p = 0
    for x in xs:
        p = p * m + x
    y = 0
    for v in ys:
        y = y * m + v
    return p * m**n + y + 1


class Recorder:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []  # (name, parent index, job, start, end, bookkeeping)
        self.stack = []
        self.job = None
        self.counts = dict.fromkeys(
            ("bytes_out", "dist_instances", "rows_distinct", "rows_total", "iso_hits",
             "rank_max", "boundary_nnz", "snf_cells", "snf_nnz", "snf_max_cells",
             "unit_factors", "factors", "classes", "fi_equations", "fi_support", "fi_tuples"),
            0,
        )
        self.maps_needed = set()
        self._patched = []

    # ---------------------------------------------------------- observers

    def _observe(self, name, args, result):
        c = self.counts
        if name in ("jsonio.dump_document", "jsonio.dump_line"):
            c["bytes_out"] += len(result)
        elif name == "core.check_left_distributive":
            R = args[0]
            m, n = R.size, R.arity
            ok, witness = result
            c["dist_instances"] += m ** (2 * n - 1) if ok else _position(*witness, m, n)
            prefixes = m ** (n - 1)
            c["rows_total"] += prefixes
            c["rows_distinct"] += len({R.table[p * m : (p + 1) * m] for p in range(prefixes)})
        elif name == "core.find_isomorphism":
            c["iso_hits"] += result is not None
        elif name in ("homology.rack_chain_complex", "homology.degenerate_subcomplex",
                      "homology.quandle_quotient_complex"):
            c["rank_max"] = max(c["rank_max"], max(result.ranks))
            c["boundary_nnz"] += sum(len(col) for cols in result.cols for col in cols)
        elif name in ("homology.homology", "homology.cohomology"):
            C, k = args[0], args[1]
            self.maps_needed.update(((self.job, id(C), k), (self.job, id(C), k + 1)))
        elif name == "snf.smith_normal_form":
            M = args[0]
            cells = len(M) * (len(M[0]) if M else 0)
            c["snf_cells"] += cells
            c["snf_max_cells"] = max(c["snf_max_cells"], cells)
            c["snf_nnz"] += sum(1 for row in M for v in row if v)
        elif name == "snf.invariant_factors":
            c["factors"] += len(result)
            c["unit_factors"] += sum(1 for f in result if f == 1)
        elif name == "enumeration.enumerate_nracks":
            c["classes"] += result.count_up_to_iso
        elif name == "leibniz.check_fundamental_identity":
            L = args[0]
            d, n = L.dimension, L.arity
            ok, witness = result
            c["fi_equations"] += d ** (2 * n - 1) if ok else _position(witness[0], witness[1], d, n)
            c["fi_support"] += len(L.constants)
            c["fi_tuples"] += d**n

    def _wrap(self, name, fn):
        spans, stack, clock, observe = self.spans, self.stack, time.perf_counter, self._observe
        rec = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t2 = clock()
                stack.pop()
                spans[idx] = (name, parent, rec.job, t1, t2, (t1 - t0) + (clock() - t2))
                raise
            t2 = clock()
            stack.pop()
            observe(name, args, result)
            spans[idx] = (name, parent, rec.job, t1, t2, (t1 - t0) + (clock() - t2))
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------- install/remove

    def install(self):
        """Patch every nracks namespace that binds a wrapped function, so
        calls across modules (validate from cli, homology, constructions;
        invariant_factors from homology, constructions) are caught."""
        originals = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"nracks.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "nracks" and not modname.startswith("nracks."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def remove(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []

    def write(self, path):
        """Write the spans as JSON lines [name, parent, job, start, end,
        bookkeeping]; parent is a line index, -1 for a job's root span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # -------------------------------------------------------------- metrics

    def metrics(self, traced_wall, untraced_wall, loop_s):
        """Per-layer metrics.  loop_s is the traced pass's time outside
        run_job, measured by the loop itself."""
        spans = self.spans
        cover = [0.0] * len(spans)
        for name, parent, _, start, end, bk in spans:
            if parent >= 0:
                cover[parent] += (end - start) + bk
        self_time = [(s[4] - s[3]) - cover[i] for i, s in enumerate(spans)]

        def nearest_outside(i, layer):
            p = spans[i][1]
            while p >= 0 and spans[p][0].startswith(layer + "."):
                p = spans[p][1]
            return spans[p][0] if p >= 0 else ""

        by_name = {}
        calls = {}
        layer_self = dict.fromkeys(WRAPPED, 0.0)
        snf_boundary = snf_relator = 0.0
        enum_classify = enum_emitted = enum_iso = 0
        selfderiv_children = 0.0
        derivation_direct = 0.0
        homology_snf_calls = 0
        for i, (name, parent, *_rest) in enumerate(spans):
            st = self_time[i]
            by_name[name] = by_name.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            layer_self[layer] += st
            parent_name = spans[parent][0] if parent >= 0 else ""
            if layer == "snf":
                caller = nearest_outside(i, "snf")
                if caller.startswith("homology."):
                    snf_boundary += st
                    if name == "snf.invariant_factors" and not parent_name.startswith("snf."):
                        homology_snf_calls += 1
                elif caller == "constructions.abelianization":
                    snf_relator += st
            elif parent_name == "enumeration.enumerate_nracks":
                if name == "core.classify":
                    enum_emitted += 1
                    enum_classify += spans[i][4] - spans[i][3]
                elif name == "core.find_isomorphism":
                    enum_iso += 1
            if name in ("leibniz.check_derivation", "leibniz.adjoint"):
                if parent_name == "leibniz.check_self_derivation":
                    selfderiv_children += st
                elif name == "leibniz.check_derivation":
                    derivation_direct += st

        def s(*names):
            return sum(by_name.get(n, 0.0) for n in names)

        def n(name):
            return calls.get(name, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        jsonio_load = [f for f in WRAPPED["jsonio"] if f == "load_json" or f.endswith("_from_json")]
        jsonio_dump = [f for f in WRAPPED["jsonio"] if f not in jsonio_load]
        bookkeeping = sum(sp[5] for sp in spans)
        roots = sum((sp[4] - sp[3]) + sp[5] for sp in spans if sp[1] < 0)
        values = {
            "cli.jobs": n("cli.main"),
            "cli.self_s": layer_self["cli"],
            "jsonio.self_s": layer_self["jsonio"],
            "jsonio.load_s": s(*(f"jsonio.{f}" for f in jsonio_load)),
            "jsonio.dump_s": s(*(f"jsonio.{f}" for f in jsonio_dump)),
            "jsonio.bytes_out": c["bytes_out"],
            "core.self_s": layer_self["core"],
            "core.validate.calls": n("core.validate"),
            "core.classify.calls": n("core.classify"),
            "core.distributivity.calls": n("core.check_left_distributive"),
            "core.distributivity_s": s("core.check_left_distributive"),
            "core.distributivity.instances": c["dist_instances"],
            "core.distinct_rows_ratio": ratio(c["rows_distinct"], c["rows_total"]),
            "core.find_isomorphism.calls": n("core.find_isomorphism"),
            "core.find_isomorphism_s": s("core.find_isomorphism"),
            "core.find_isomorphism.hit_ratio": ratio(c["iso_hits"], n("core.find_isomorphism")),
            "core.translation_cycle_types.calls": n("core.translation_cycle_types"),
            "core.inner_s": s("core.inner_map", "core.orbits"),
            "constructions.self_s": layer_self["constructions"],
            "constructions.reduce.calls": n("constructions.reduce_nrack_to_rack"),
            "constructions.reduce_s": s("constructions.reduce_nrack_to_rack"),
            "constructions.build_s": s(
                "constructions.build_z4_module_nrack", "constructions.build_gamma_module_nrack",
                "constructions.build_conjugation_nrack", "constructions.build_module_group_nrack",
                "constructions.lift_rack_to_nrack"),
            "constructions.presentation_s": s("constructions.associated_group_presentation"),
            "constructions.abelianization_s": s("constructions.abelianization"),
            "homology.self_s": layer_self["homology"],
            "homology.complex_s": s("homology.rack_chain_complex"),
            "homology.subcomplex_s": s(
                "homology.degenerate_subcomplex", "homology.quandle_quotient_complex"),
            "homology.homology_s": s("homology.homology", "homology.cohomology"),
            "homology.factorizations_per_map": ratio(homology_snf_calls, len(self.maps_needed)),
            "homology.chain_rank_max": c["rank_max"],
            "homology.boundary_nnz": c["boundary_nnz"],
            "snf.self_s": layer_self["snf"],
            "snf.calls": n("snf.smith_normal_form"),
            "snf.boundary_s": snf_boundary,
            "snf.relator_s": snf_relator,
            "snf.cells": c["snf_cells"],
            "snf.nnz": c["snf_nnz"],
            "snf.max_cells": c["snf_max_cells"],
            "snf.unit_factor_ratio": ratio(c["unit_factors"], c["factors"]),
            "enumeration.self_s": layer_self["enumeration"],
            "enumeration.search_s": s("enumeration.enumerate_nracks"),
            "enumeration.classify_s": enum_classify,
            "enumeration.emitted": enum_emitted,
            "enumeration.classes": c["classes"],
            "enumeration.iso_calls_per_emitted": ratio(enum_iso, enum_emitted),
            "leibniz.self_s": layer_self["leibniz"],
            "leibniz.fundamental_identity_s": s("leibniz.check_fundamental_identity"),
            "leibniz.self_derivation_s": s("leibniz.check_self_derivation") + selfderiv_children,
            "leibniz.derivation_s": derivation_direct,
            "leibniz.filippov_s": s("leibniz.check_filippov"),
            "leibniz.multilinearity_s": s("leibniz.check_multilinearity_sample"),
            "leibniz.basis_equations": c["fi_equations"],
            "leibniz.support_ratio": ratio(c["fi_support"], c["fi_tuples"]),
            "trace.wall_s": traced_wall,
            "trace.bench_s": traced_wall - roots,
            "trace.bookkeeping_s": bookkeeping,
            "trace.spans": len(spans),
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        # Child spans must nest inside their parents.
        if self_time and min(self_time) < -1e-6:
            raise AssertionError("a span's children outlast it")
        # Every job is one cli.main call, and nothing else runs outside it.
        root_jobs = [sp[2] for sp in spans if sp[1] < 0]
        if any(sp[0] != "cli.main" for sp in spans if sp[1] < 0) or \
                len(set(root_jobs)) != len(root_jobs):
            raise AssertionError("a root span is not the one cli.main call of its job")
        # The layer self times, the bookkeeping and the loop's own time, as
        # the loop measured it with its own clock, must add up to the traced
        # wall time.  What is left is the time run_job spends outside
        # cli.main (redirecting stdout); it must be small.
        accounted = sum(layer_self.values()) + bookkeeping + loop_s
        gap = traced_wall - accounted
        if not -1e-6 <= gap <= ACCOUNTING_SLACK * traced_wall + 5e-4:
            raise AssertionError(
                f"self times, bookkeeping and loop time account for {accounted:.6f} "
                f"of {traced_wall:.6f} s")
        return values
