"""JSON interchange formats shared by the modules and the CLI.

Operation tables: {"arity": n, "size": m, "basepoint": b|null,
"table": [...]} with the flat row-major index x_1*m^(n-1) + ... + x_n.
Groups: {"size": k, "cayley": [...], "identity": e}.  Presentations:
{"generators": g, "relators": [[signed ints]]} with generator i written
i+1 and its inverse -(i+1).  Tensors are sparse with exact "p/q" values.
"""

import json
from fractions import Fraction

from .constructions import FiniteGroup, GroupModule, GroupPresentation
from .core import Classification, FiniteNRack, ValidationReport
from .enumeration import EnumerationReport
from .homology import HomologyResult
from .leibniz import LeibnizNAlgebra, LinearOperator, require_probe_budget
from .snf import AbelianGroupInvariants


def dump_document(obj) -> str:
    """Deterministic JSON document: sorted keys, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_line(obj) -> str:
    """Deterministic single-line JSON record."""
    return json.dumps(obj, sort_keys=True)


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _require(mapping, key, kind):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"missing field {key!r}")
    value = mapping[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ValueError(f"field {key!r} has wrong type")
    return value


def _ints(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list) or not all(_is_int(v) for v in values):
        raise ValueError(f"{what} must contain integers")
    return tuple(values)


def nrack_to_json(R: FiniteNRack) -> dict:
    return {
        "arity": R.arity,
        "size": R.size,
        "basepoint": R.basepoint,
        "table": list(R.table),
    }


def nrack_from_json(doc) -> FiniteNRack:
    arity = _require(doc, "arity", int)
    size = _require(doc, "size", int)
    table = _ints(_require(doc, "table", list), "table")
    basepoint = doc.get("basepoint")
    if basepoint is not None and not _is_int(basepoint):
        raise ValueError("basepoint must be an integer or null")
    return FiniteNRack(arity, size, table, basepoint)


def group_to_json(G: FiniteGroup) -> dict:
    return {"size": G.size, "cayley": list(G.cayley), "identity": G.identity}


def group_from_json(doc) -> FiniteGroup:
    size = _require(doc, "size", int)
    cayley = _ints(_require(doc, "cayley", list), "cayley table")
    identity = _require(doc, "identity", int)
    return FiniteGroup(size, cayley, identity)


def presentation_to_json(P: GroupPresentation) -> dict:
    return {"generators": P.generators, "relators": [list(w) for w in P.relators]}


def invariants_to_json(inv: AbelianGroupInvariants) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def classification_to_json(flags: Classification) -> dict:
    return {
        "is_nrack": flags.is_nrack,
        "is_pointed": flags.is_pointed,
        "is_weak_nquandle": flags.is_weak_nquandle,
        "is_nquandle": flags.is_nquandle,
        "is_weak_nkei": flags.is_weak_nkei,
        "is_nkei": flags.is_nkei,
    }


def validation_to_json(report: ValidationReport) -> dict:
    dist = report.distributivity_witness
    bij = report.bijectivity_witness
    return {
        "classification": classification_to_json(report.classification),
        "counterexamples": {
            "left_distributive": None
            if dist is None
            else {"prefix": list(dist[0]), "arguments": list(dist[1])},
            "translation_bijective": None if bij is None else {"prefix": list(bij)},
        },
    }


def homology_result_to_json(result: HomologyResult) -> dict:
    return {
        "variant": result.variant,
        "degree": result.degree,
        "coefficients": str(result.coefficients),
        "free_rank": result.invariants.free_rank,
        "torsion": list(result.invariants.torsion),
    }


def enumeration_report_to_json(report: EnumerationReport) -> dict:
    return {
        "arity": report.arity,
        "size": report.size,
        "filter": report.filter,
        "count_total": report.count_total,
        "count_up_to_iso": report.count_up_to_iso,
        "representatives": [list(t) for t in report.representatives],
    }


def tensor_to_json(L: LeibnizNAlgebra) -> dict:
    constants = []
    for args in sorted(L.constants):
        vec = L.constants[args]
        for out, value in enumerate(vec):
            if value:
                constants.append(
                    {"args": list(args), "out": out, "value": str(value)}
                )
    return {"dimension": L.dimension, "arity": L.arity, "constants": constants}


def tensor_from_json(doc) -> LeibnizNAlgebra:
    dimension = _require(doc, "dimension", int)
    arity = _require(doc, "arity", int)
    constants = _require(doc, "constants", list)
    entries = []
    for item in constants:
        args = _ints(_require(item, "args", list), "tensor args")
        out = _require(item, "out", int)
        value = _require(item, "value", str)
        try:
            entries.append((args, out, Fraction(value)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational value {value!r}: {exc}") from exc
        if not (0 <= out < dimension):
            raise ValueError(f"output index {out} out of range")
    # Each vector the multilinearity probe draws is as long as a structure
    # vector, and the probe refuses a tensor whose draws pass its budget:
    # such a tensor is refused here, as the probe would refuse it, before
    # any vector is built.  A malformed tensor is refused as malformed.
    LeibnizNAlgebra.check_shape(
        dimension, arity, dict.fromkeys(tuple(args) for args, _, _ in entries)
    )
    require_probe_budget(dimension, arity)
    return LeibnizNAlgebra.from_entries(dimension, arity, entries)


def operator_from_json(doc) -> LinearOperator:
    dimension = _require(doc, "dimension", int)
    matrix = _require(doc, "matrix", list)
    if len(matrix) != dimension or any(
        not isinstance(row, list) or len(row) != dimension for row in matrix
    ):
        raise ValueError("operator matrix must be dimension x dimension")
    try:
        rows = tuple(tuple(Fraction(str(v)) for v in row) for row in matrix)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational entry in operator matrix: {exc}") from exc
    return LinearOperator(rows)


def module_group_from_json(doc):
    """Input bundle for the module-over-group construction:
    {"arity": n, "group": <group>, "module": <abelian group>,
     "action": [[perm per group element]], "bracket": [flat n-ary table]}.
    Returns (H, bracket, GroupModule, arity)."""
    arity = _require(doc, "arity", int)
    H = group_from_json(_require(doc, "group", dict))
    V = group_from_json(_require(doc, "module", dict))
    action = _require(doc, "action", list)
    bracket = _ints(_require(doc, "bracket", list), "bracket table")
    module = GroupModule(space=V, acting=H, action=tuple(_ints(p, "action entry") for p in action))
    return H, bracket, module, arity


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
