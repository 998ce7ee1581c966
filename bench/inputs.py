"""Seeded inputs and job lists of the benchmark workloads.

Every input document is built here from first principles (groups as
permutation groups, brackets from their defining formulas), then relabeled
by a permutation drawn from the workload seed.  nracks only ever sees the
JSON files this module writes; nothing here imports nracks.

A job is a dict:
  key     label-independent name, also the key of its expected record
  kind    what the checker does with the output
  argv    the nracks command line, with input paths filled in
  doc     the input document (kept in memory for the checker), or None
  extra   kind-specific facts the checker needs
"""

import json
import os
import random
from itertools import permutations, product

WORKLOADS = ("homology-census", "verify", "enumerate")

# Lex-first representatives of the 19 isomorphism classes of racks of
# order 4 (OEIS A181771), flat tables with x o y at index 4*x + y.
RACKS4 = [
    [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3],
    [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 2, 1, 3],
    [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 0, 3],
    [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 3, 2, 0, 1, 3, 2],
    [0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3],
    [0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 3, 2, 1, 0, 3, 2],
    [0, 1, 2, 3, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2],
    [0, 1, 2, 3, 0, 1, 3, 2, 0, 3, 2, 1, 0, 2, 1, 3],
    [0, 1, 2, 3, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1],
    [0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2],
    [0, 1, 3, 2, 0, 1, 3, 2, 1, 0, 2, 3, 1, 0, 2, 3],
    [0, 1, 3, 2, 0, 1, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2],
    [0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1],
    [0, 2, 3, 1, 0, 3, 1, 2, 0, 3, 1, 2, 0, 3, 1, 2],
    [0, 2, 3, 1, 3, 1, 0, 2, 1, 3, 2, 0, 2, 0, 1, 3],
    [1, 0, 2, 3, 1, 0, 2, 3, 0, 1, 3, 2, 0, 1, 3, 2],
    [1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 3, 2, 1, 0, 3, 2],
    [1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2],
    [1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0],
]


# ---------------------------------------------------------------- groups


def perm_group(generators):
    """Closure of permutation generators; elements sorted, product
    (p*q)(i) = p(q(i)).  Returns (cayley, identity, inverse) on indices."""
    degree = len(generators[0])
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in elements:
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    elems = sorted(elements)
    index = {p: i for i, p in enumerate(elems)}
    k = len(elems)
    cayley = [index[tuple(p[q[i]] for i in range(degree))] for p in elems for q in elems]
    inverse = [0] * k
    for i, p in enumerate(elems):
        inv = [0] * degree
        for a, b in enumerate(p):
            inv[b] = a
        inverse[i] = index[tuple(inv)]
    return cayley, index[identity], inverse


def dihedral5():
    return perm_group([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])


def symmetric4():
    return perm_group([tuple(p) for p in permutations(range(4))])


def symmetric3():
    return perm_group([tuple(p) for p in permutations(range(3))])


def cyclic(k):
    return [(a + b) % k for a in range(k) for b in range(k)], 0, [(-a) % k for a in range(k)]


# --------------------------------------------------------------- tables


def table_doc(arity, size, table, basepoint=None):
    return {"arity": arity, "size": size, "basepoint": basepoint, "table": list(table)}


def conjugation_table(group, arity):
    """[x_1..x_n] = x_1 ... x_{n-1} x_n x_{n-1}^-1 ... x_1^-1, pointed at e."""
    cayley, e, inverse = group
    k = len(inverse)
    table = []
    for xs in product(range(k), repeat=arity):
        acc = xs[-1]
        for x in reversed(xs[:-1]):
            acc = cayley[cayley[x * k + acc] * k + inverse[x]]
        table.append(acc)
    return table_doc(arity, k, table, basepoint=e)


def z4_table(arity):
    """[x_1..x_n] = 2x_1 + ... + 2x_{n-1} + x_n mod 4."""
    return table_doc(
        arity, 4, [(2 * sum(xs[:-1]) + xs[-1]) % 4 for xs in product(range(4), repeat=arity)]
    )


def dihedral_rack(m):
    return table_doc(2, m, [(2 * x - y) % m for x in range(m) for y in range(m)])


def lifted_table(rack_doc, arity):
    """[x_1..x_n] = x_1 o (x_2 o (... (x_{n-1} o x_n)))."""
    m, op = rack_doc["size"], rack_doc["table"]
    table = []
    for xs in product(range(m), repeat=arity):
        acc = xs[-1]
        for x in reversed(xs[:-1]):
            acc = op[x * m + acc]
        table.append(acc)
    return table_doc(arity, m, table)


def relabel_table(doc, perm):
    """The isomorphic table under x -> perm[x]."""
    n, m, old = doc["arity"], doc["size"], doc["table"]
    new = [0] * len(old)
    for idx, xs in enumerate(product(range(m), repeat=n)):
        j = 0
        for x in xs:
            j = j * m + perm[x]
        new[j] = perm[old[idx]]
    bp = doc["basepoint"]
    return table_doc(n, m, new, None if bp is None else perm[bp])


def relabel_group(group, perm):
    cayley, e, inverse = group
    k = len(inverse)
    new = [0] * (k * k)
    for a in range(k):
        for b in range(k):
            new[perm[a] * k + perm[b]] = perm[cayley[a * k + b]]
    inv = [0] * k
    for a in range(k):
        inv[perm[a]] = perm[inverse[a]]
    return new, perm[e], inv


def group_doc(group):
    cayley, e, inverse = group
    return {"size": len(inverse), "cayley": list(cayley), "identity": e}


def shuffled(rng, k):
    perm = list(range(k))
    rng.shuffle(perm)
    return perm


# -------------------------------------------------------------- mutants


def one_entry_mutant(doc, late):
    """A copy of a valid table with one entry changed.

    early: entry 0 is changed, so the first prefix already meets the
    damage.  late: the changed entry is [z,...,z] -> v' for the z and v'
    that the most leading prefixes fix; a prefix that fixes every
    coordinate involved cannot witness the change, so the first witness
    moves towards the end of the scan.
    """
    n, m, table = doc["arity"], doc["size"], list(doc["table"])
    prefixes = m ** (n - 1)
    if not late:
        idx = 0
    else:
        first_move = [prefixes] * m
        for p in range(prefixes):
            row = table[p * m : (p + 1) * m]
            for z in range(m):
                if row[z] != z and first_move[z] == prefixes:
                    first_move[z] = p
        z = max(range(m), key=lambda x: (first_move[x], -x))
        idx = 0
        for _ in range(n):
            idx = idx * m + z
    old = table[idx]
    if late:
        new = max((x for x in range(m) if x != old), key=lambda x: (first_move[x], -x))
    else:
        new = (old + 1) % m
    table[idx] = new
    return table_doc(n, m, table, doc["basepoint"])


# -------------------------------------------------------------- tensors


def levi_civita_entries(d):
    """(args, out, sign) of the (d-1)-ary Levi-Civita bracket."""
    entries = []
    for perm in permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        entries.append((list(perm[:-1]), perm[-1], sign))
    return entries


def tensor_doc(dimension, arity, entries, perm):
    constants = [
        {"args": [perm[a] for a in args], "out": perm[out], "value": str(value)}
        for args, out, value in entries
    ]
    constants.sort(key=lambda c: (c["args"], c["out"]))
    return {"dimension": dimension, "arity": arity, "constants": constants}


def so4_operator(dimension, perm):
    """An antisymmetric block on the first four basis vectors, zero on the
    padding: a derivation of the Levi-Civita bracket on R^4."""
    block = {(0, 1): 1, (0, 2): 2, (1, 3): -3, (2, 3): 1}
    matrix = [["0"] * dimension for _ in range(dimension)]
    for (i, j), v in block.items():
        matrix[perm[i]][perm[j]] = str(v)
        matrix[perm[j]][perm[i]] = str(-v)
    return {"dimension": dimension, "matrix": matrix}


# ----------------------------------------------------------------- jobs


def _rng(seed, name):
    return random.Random(f"{seed}:{name}")


class _Builder:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.jobs = []

    def write(self, name, doc):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def table(self, name, doc):
        """Relabel a table by the seeded permutation of its carrier."""
        return relabel_table(doc, shuffled(_rng(self.seed, name), doc["size"]))

    def job(self, key, kind, argv, doc=None, **extra):
        self.jobs.append({"key": key, "kind": kind, "argv": argv, "doc": doc, "extra": extra})


def _homology_census(b, small):
    for i in (0, 14) if small else range(len(RACKS4)):
        flat = RACKS4[i]
        name = f"rack4-{i:02d}"
        doc = b.table(name, table_doc(2, 4, flat))
        path = b.write(name, doc)
        variants = ["R"]
        if all(flat[4 * x + x] == x for x in range(4)):
            variants.append("Q")
        for v in variants:
            b.job(f"homology {name} {v} 1-3 Z", "homology",
                  ["homology", "--input", path, "--variant", v, "--degrees", "1-3"], doc)
    if small:
        return
    d3 = b.table("dihedral3", dihedral_rack(3))
    p = b.write("dihedral3", d3)
    b.job("homology dihedral3 R 1-4 Z", "homology",
          ["homology", "--input", p, "--degrees", "1-4"], d3, golden="dihedral_z3")
    b.job("cohomology dihedral3 Q 1-4 Z", "homology",
          ["cohomology", "--input", p, "--variant", "Q", "--degrees", "1-4"], d3)
    s3 = b.table("conj-s3-2", conjugation_table(symmetric3(), 2))
    p = b.write("conj-s3-2", s3)
    b.job("homology conj-s3-2 Q 1-2 Z/2", "homology",
          ["homology", "--input", p, "--variant", "Q", "--degrees", "1-2",
           "--coefficients", "Z/2"], s3)
    z3 = b.table("z4-3", z4_table(3))
    p = b.write("z4-3", z3)
    b.job("homology z4-3 R 1 Z", "homology", ["homology", "--input", p, "--degrees", "1"], z3)
    z2 = b.table("z4-2", z4_table(2))
    p = b.write("z4-2", z2)
    b.job("cohomology z4-2 R 1-3 Z/4", "homology",
          ["cohomology", "--input", p, "--degrees", "1-3", "--coefficients", "Z/4"], z2)


def module_group_bundle(b):
    """C4 acting on C5 by v -> 2^k v, with the antisymmetric bracket
    ((a-b)(b-c)(a-c)) mod 4; carrier and module relabeled by the seed."""
    rng = _rng(b.seed, "module-group")
    ph, pv = shuffled(rng, 4), shuffled(rng, 5)
    H = relabel_group(cyclic(4), ph)
    V = relabel_group(cyclic(5), pv)
    action = [[0] * 5 for _ in range(4)]
    for k in range(4):
        for v in range(5):
            action[ph[k]][pv[v]] = pv[(v * pow(2, k, 5)) % 5]
    bracket = [0] * 64
    for a, bb, c in product(range(4), repeat=3):
        bracket[ph[a] * 16 + ph[bb] * 4 + ph[c]] = ph[((a - bb) * (bb - c) * (a - c)) % 4]
    return {"arity": 3, "group": group_doc(H), "module": group_doc(V),
            "action": action, "bracket": bracket}


def _verify(b, small):
    if not small:
        bundle = module_group_bundle(b)
        p = b.write("module-group", bundle)
        b.job("construct module-group c4-c5-3", "module-group",
              ["construct", "module-group", "--input", p], bundle)
    tables = [("z4-4", z4_table(4)), ("lift-d3-4", lifted_table(dihedral_rack(3), 4))]
    if not small:
        tables = [("conj-d5-3", conjugation_table(dihedral5(), 3)),
                  ("conj-s4-2", conjugation_table(symmetric4(), 2))] + tables
    docs = {}
    for name, doc in tables:
        doc = docs[name] = b.table(name, doc)
        p = b.write(name, doc)
        b.job(f"check {name}", "check", ["check", "--input", p], doc)
        for late in (False, True):
            mutant = one_entry_mutant(doc, late)
            tag = "late" if late else "early"
            p = b.write(f"{name}-{tag}", mutant)
            b.job(f"check {name} mutant-{tag}", "check", ["check", "--input", p], mutant)
    inner_name = "lift-d3-4" if small else "conj-d5-3"
    p = os.path.join(b.workdir, inner_name + ".json")
    b.job(f"inner {inner_name}", "inner", ["inner", "--input", p], docs[inner_name])
    assoc = [("z4-4", False)] if small else [
        ("conj-d5-3", False), ("conj-s4-2", False), ("conj-s4-2", True)]
    for name, paper in assoc:
        p = os.path.join(b.workdir, name + ".json")
        argv = ["assoc-group", "--input", p] + (["--paper-relator"] if paper else [])
        b.job(f"assoc-group {name}" + (" paper" if paper else ""), "assoc", argv, docs[name])
    d, pad = (4, 4) if small else (4, 6)
    perm = shuffled(_rng(b.seed, "levi-civita"), pad)
    entries = levi_civita_entries(d)
    tensor = tensor_doc(pad, d - 1, entries, perm)
    p = b.write("levi-civita", tensor)
    b.job(f"leibniz levi-civita-{d}-pad{pad}", "leibniz", ["leibniz", "--input", p], tensor)
    if not small:
        op = b.write("so4-operator", so4_operator(pad, perm))
        b.job(f"leibniz levi-civita-{d}-pad{pad} operator", "leibniz",
              ["leibniz", "--input", p, "--operator", op], tensor)
    # One constant doubled.  The mutant's relabeling keeps the zero padding
    # last and the doubled constant is the lex-first one, so its first
    # witness, and with it the job's cost, is the same for every seed.
    rng = _rng(b.seed, "levi-civita-mutant")
    mperm = shuffled(rng, d) + [d + x for x in shuffled(rng, pad - d)]
    mutant = tensor_doc(pad, d - 1, entries, mperm)
    mutant["constants"][0]["value"] = str(2 * int(mutant["constants"][0]["value"]))
    p = b.write("levi-civita-mutant", mutant)
    b.job(f"leibniz levi-civita-{d}-pad{pad} mutant", "leibniz", ["leibniz", "--input", p], mutant)


ENUMERATE_FULL = [(2, 5, "nrack"), (2, 5, "n-quandle")] + [
    (2, 4, f) for f in ("nrack", "weak-n-quandle", "n-quandle", "n-kei")
] + [(3, 3, "nrack"), (3, 3, "n-quandle")]
ENUMERATE_SMALL = [(2, 3, "nrack"), (2, 4, "n-quandle"), (3, 2, "nrack")]


def _enumerate(b, small):
    for n, m, f in ENUMERATE_SMALL if small else ENUMERATE_FULL:
        b.job(f"enumerate {n} {m} {f}", "enumerate",
              ["enumerate", "--n", str(n), "--m", str(m), "--filter", f], None,
              arity=n, size=m, filter=f)


_BUILDERS = {"homology-census": _homology_census, "verify": _verify, "enumerate": _enumerate}


def build_jobs(workload, seed, workdir, small=False):
    """Write the workload's seeded inputs under workdir and return its jobs
    in the seeded order.  small=True gives the reduced-size smoke list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    b = _Builder(seed, workdir)
    _BUILDERS[workload](b, small)
    _rng(seed, "order").shuffle(b.jobs)
    return b.jobs
