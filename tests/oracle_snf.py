"""Reference divisibility chain of a direct sum of cyclic groups.

Every order is factored by trial division, and the chain is assembled
prime by prime: the k-th largest exponent of each prime goes into the
k-th largest invariant factor.  Slow for orders with large prime factors,
so use it on small orders only.  Nothing below imports the package under
test.
"""


def _factorize(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def invariants_by_factoring(orders) -> tuple[int, ...]:
    """The canonical chain d_1 | d_2 | ... of the sum of Z/o, o in orders,
    with orders equal to 1 dropped."""
    primes: dict[int, list[int]] = {}
    for o in orders:
        if o == 1:
            continue
        if o < 1:
            raise ValueError(f"cyclic order must be positive, got {o}")
        for p, e in _factorize(o).items():
            primes.setdefault(p, []).append(e)
    if not primes:
        return ()
    width = max(len(v) for v in primes.values())
    chain = [1] * width
    for p, exps in primes.items():
        exps = sorted(exps)
        pad = [0] * (width - len(exps)) + exps
        for i, e in enumerate(pad):
            chain[i] *= p**e
    return tuple(d for d in chain if d > 1)
