"""Output checks for the benchmark jobs.

Runs outside the timed region and imports nothing from nracks: every
independent check re-evaluates the claim with plain table lookups on the
input document the benchmark wrote.  Each job output is reduced to a
label-independent record, so one expected-records file serves every seed.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product

# Isomorphism classes of racks and quandles of order 1, 2, ... (OEIS A181771
# and A181769).
OEIS = {"nrack": (1, 2, 6, 19, 74), "n-quandle": (1, 1, 3, 7, 22)}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _index(xs, m):
    idx = 0
    for x in xs:
        idx = idx * m + x
    return idx


# ------------------------------------------------------------- records


def record(job, code, stdout):
    """The label-independent record of one job's exit code and output."""
    kind = job["kind"]
    if kind == "homology":
        return {"exit": code, "out": [json.loads(line) for line in stdout.splitlines()]}
    doc = json.loads(stdout)
    if kind == "check":
        ce = doc["counterexamples"]
        out = {
            "classification": doc["classification"],
            "left_distributive_witness": ce["left_distributive"] is not None,
            "translation_bijective_witness": ce["translation_bijective"] is not None,
        }
    elif kind == "module-group":
        out = {"arity": doc["arity"], "size": doc["size"], "pointed": doc["basepoint"] is not None}
    elif kind == "inner":
        out = {"maps": len(doc["inner_maps"]), "orbit_sizes": sorted(len(o) for o in doc["orbits"])}
    elif kind == "assoc":
        out = {
            "generators": doc["presentation"]["generators"],
            "relators": len(doc["presentation"]["relators"]),
            "abelianization": doc["abelianization"],
        }
    elif kind == "leibniz":
        out = {k: v for k, v in doc.items() if k != "witness"}
        out["witness"] = doc["witness"] is not None
    elif kind == "enumerate":
        out = {k: doc[k] for k in ("arity", "size", "filter", "count_total", "count_up_to_iso")}
        out["representatives_digest"] = digest(doc["representatives"])
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return {"exit": code, "out": out}


# ------------------------------------------------------ independent checks


def _orbits(size, pairs):
    """Classes of the equivalence generated by the pairs, by union-find;
    each sorted, listed by least element."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for x in range(size):
        groups.setdefault(find(x), []).append(x)
    return [groups[r] for r in sorted(groups)]


def carrier_orbits(doc):
    """Orbits of the carrier under all translations y -> [xs, y]."""
    m, table = doc["size"], doc["table"]
    return _orbits(m, ((y, table[p + y]) for p in range(0, len(table), m) for y in range(m)))


def reduced_rack_orbits(doc):
    """Orbits of the tuple rack X^(n-1), (x) o (y) = ([x, y_1], ..., [x, y_{n-1}])."""
    m, n, table = doc["size"], doc["arity"], doc["table"]
    tuples = list(product(range(m), repeat=n - 1))
    rows = [table[a * m : (a + 1) * m] for a in range(len(tuples))]
    return _orbits(
        len(tuples),
        ((b, _index([row[y] for y in ys], m)) for row in rows for b, ys in enumerate(tuples)),
    )


def _check_homology(job, lines, goldens):
    problems = []
    argv = job["argv"]
    variant = argv[argv.index("--variant") + 1] if "--variant" in argv else "R"
    coeffs = argv[argv.index("--coefficients") + 1] if "--coefficients" in argv else "Z"
    spec = argv[argv.index("--degrees") + 1]
    lo, _, hi = spec.partition("-")
    degrees = list(range(int(lo), int(hi or lo) + 1))
    if [line["degree"] for line in lines] != degrees:
        problems.append(f"degrees {[line['degree'] for line in lines]} != {degrees}")
    if any(line["variant"] != variant or line["coefficients"] != coeffs for line in lines):
        problems.append("variant or coefficients echoed wrongly")
    if variant == "R" and coeffs == "Z":
        # Etingof-Grana: the Betti numbers of rack (co)homology are |orbits|^k.
        orbits = len(reduced_rack_orbits(job["doc"]))
        for line in lines:
            if line["free_rank"] != orbits ** line["degree"]:
                problems.append(
                    f"free rank {line['free_rank']} in degree {line['degree']} "
                    f"!= {orbits}^{line['degree']} (Etingof-Grana)"
                )
    golden = job["extra"].get("golden")
    if golden and argv[0] == "homology":
        for line in lines:
            want = goldens.get(f"{golden}|{variant}|{line['degree']}|{coeffs}")
            got = {"free_rank": line["free_rank"], "torsion": line["torsion"]}
            if want is not None and want != got:
                problems.append(f"degree {line['degree']}: {got} != golden {want}")
    return problems


def _bracket(table, m, xs):
    return table[_index(xs, m)]


def _check_table_report(job, doc):
    problems = []
    table, m, n = job["doc"]["table"], job["doc"]["size"], job["doc"]["arity"]
    dist = doc["counterexamples"]["left_distributive"]
    if dist is not None:
        xs, ys = dist["prefix"], dist["arguments"]
        lhs = _bracket(table, m, xs + [_bracket(table, m, ys)])
        rhs = _bracket(table, m, [_bracket(table, m, xs + [y]) for y in ys])
        if lhs == rhs:
            problems.append(f"distributivity witness {xs} {ys} is not a violation")
    bij = doc["counterexamples"]["translation_bijective"]
    if bij is not None:
        p = _index(bij["prefix"], m)
        if len(set(table[p * m : (p + 1) * m])) == m:
            problems.append(f"bijectivity witness {bij['prefix']} is a bijection")
    return problems


def module_group_table(bundle):
    """[(u_i, A_i)] = ({A_1..A_n} . u_n, A_1..A_{n-1} A_n A_{n-1}^-1..A_1^-1)
    on labels u*k + A, evaluated from the bundle with plain lookups."""
    n = bundle["arity"]
    H, V = bundle["group"], bundle["module"]
    k, cay = H["size"], H["cayley"]
    inv = [next(b for b in range(k) if cay[a * k + b] == H["identity"]) for a in range(k)]
    size = V["size"] * k
    table = []
    for cs in product(range(size), repeat=n):
        us = [c // k for c in cs]
        As = [c % k for c in cs]
        acc = As[-1]
        for a in reversed(As[:-1]):
            acc = cay[cay[a * k + acc] * k + inv[a]]
        brack = bundle["bracket"][_index(As, k)]
        table.append(bundle["action"][brack][us[-1]] * k + acc)
    return table, V["identity"] * k + H["identity"]


def _check_inner(job, doc):
    table, m, n = job["doc"]["table"], job["doc"]["size"], job["doc"]["arity"]
    problems = []
    prefixes = [list(xs) for xs in product(range(m), repeat=n - 1)]
    if [e["args"] for e in doc["inner_maps"]] != prefixes:
        problems.append("inner maps do not list every prefix in order")
    for e in doc["inner_maps"]:
        p = _index(e["args"], m)
        if e["permutation"] != table[p * m : (p + 1) * m]:
            problems.append(f"inner map {e['args']} differs from its table row")
            break
    own = carrier_orbits(job["doc"])
    if doc["orbits"] != own:
        problems.append(f"orbits {doc['orbits']} != {own}")
    return problems


def _fi_sides(constants, d, n, xs, ys):
    """Both sides of the fundamental identity on basis tuples, exactly."""

    def vec(args):
        return constants.get(tuple(args), [Fraction(0)] * d)

    def bracket_vecs(vs):
        out = [Fraction(0)] * d
        for args, coeffs in constants.items():
            c = Fraction(1)
            for v, i in zip(vs, args):
                c *= v[i]
                if not c:
                    break
            if c:
                for j in range(d):
                    out[j] += c * coeffs[j]
        return out

    def basis(i):
        return [Fraction(int(j == i)) for j in range(d)]

    xv = [basis(x) for x in xs]
    lhs = bracket_vecs(xv + [vec(ys)])
    rhs = [Fraction(0)] * d
    for pos in range(n):
        args = [basis(y) for y in ys]
        args[pos] = bracket_vecs(xv + [basis(ys[pos])])
        term = bracket_vecs(args)
        rhs = [a + b for a, b in zip(rhs, term)]
    return lhs, rhs


def _check_leibniz(job, doc):
    w = doc["witness"]
    if w is None:
        return []
    t = job["doc"]
    d, n = t["dimension"], t["arity"]
    constants = {}
    for c in t["constants"]:
        constants.setdefault(tuple(c["args"]), [Fraction(0)] * d)[c["out"]] += Fraction(c["value"])
    lhs, rhs = _fi_sides(constants, d, n, w["prefix"], w["arguments"])
    problems = []
    if lhs == rhs:
        problems.append("fundamental identity witness is not a violation")
    if [str(v) for v in lhs] != w["lhs"] or [str(v) for v in rhs] != w["rhs"]:
        problems.append("fundamental identity witness sides are misreported")
    return problems


def _check_enumerate(job, doc, goldens):
    e = job["extra"]
    problems = []
    n, m, f = e["arity"], e["size"], e["filter"]
    if n == 2 and f in OEIS and m <= len(OEIS[f]) and doc["count_up_to_iso"] != OEIS[f][m - 1]:
        problems.append(f"{doc['count_up_to_iso']} classes != OEIS {OEIS[f][m - 1]}")
    # The test goldens stop at n=2, m=3 and n=3, m=2; a job past them is
    # checked only against its pinned record (and OEIS, where it applies).
    want = goldens.get(f"{n},{m},{f}")
    got ={"count_total": doc["count_total"], "count_up_to_iso": doc["count_up_to_iso"]}
    if want is not None and want != got:
        problems.append(f"{got} != golden {want}")
    if len(doc["representatives"]) != doc["count_up_to_iso"]:
        problems.append("representative count differs from count_up_to_iso")
    return problems


def check_job(job, code, stdout, expected, goldens):
    """Problems found with one job's result; an empty list means it passed.

    code is the exit code, or None when the call raised.  expected maps
    job keys to records; goldens holds the test goldens keyed as in
    tests/golden ("homology" and "enumeration" dicts).
    """
    if code is None:
        return ["the command raised"]
    try:
        rec = record(job, code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    want = expected.get(job["key"])
    if want is None:
        problems.append("no expected record")
    elif rec != want:
        problems.append(f"record {json.dumps(rec, sort_keys=True)} != expected")
    kind = job["kind"]
    try:
        if kind == "homology":
            problems += _check_homology(job, rec["out"], goldens["homology"])
        elif kind == "check":
            problems += _check_table_report(job, json.loads(stdout))
        elif kind == "module-group":
            doc = json.loads(stdout)
            table, basepoint = module_group_table(job["doc"])
            if doc["table"] != table or doc["basepoint"] != basepoint:
                problems.append("module-group table differs from the construction formula")
        elif kind == "inner":
            problems += _check_inner(job, json.loads(stdout))
        elif kind == "leibniz":
            problems += _check_leibniz(job, json.loads(stdout))
        elif kind == "enumerate":
            problems += _check_enumerate(job, json.loads(stdout), goldens["enumeration"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
