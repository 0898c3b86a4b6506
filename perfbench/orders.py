"""Element names and orders of the document algebras, in pure Python.

The workload generator needs only the names, and must not pay for numpy
while the benchmark times its set-up; the naive evaluator derives the
lattice operations from the order returned here.
"""

import itertools


def chain_names(n):
    if n == 1:
        return ("0",)
    if n == 2:
        return ("0", "1")
    if n == 3:
        return ("0", "u", "1")
    return ("0",) + tuple(f"u{i}" for i in range(1, n - 1)) + ("1",)


def downsets(points, below):
    """(names, order) of the down-sets of a poset, listed by size and then by
    their sorted member indices; `order` holds the index pairs (i, j) with
    down-set i included in down-set j, in row-major order."""
    n = len(points)
    idx = {p: i for i, p in enumerate(points)}
    leq = {(i, i) for i in range(n)} | {(idx[a], idx[b]) for a, b in below}
    for k, i, j in itertools.product(range(n), repeat=3):
        if (i, k) in leq and (k, j) in leq:
            leq.add((i, j))
    downs = [
        frozenset(ms)
        for r in range(n + 1)
        for ms in itertools.combinations(range(n), r)
        if all((m, i) not in leq or m in ms for i in ms for m in range(n))
    ]

    def name(ds):
        if not ds:
            return "0"
        if len(ds) == n:
            return "1"
        return "+".join(points[i] for i in sorted(ds))

    order = [(i, j) for i, a in enumerate(downs) for j, b in enumerate(downs) if a <= b]
    return [name(ds) for ds in downs], order


def element_names(spec):
    """Element names of the algebra a document spec declares, without deriving it."""
    kind = spec[0]
    if kind == "boolean":
        return ("0", "1")
    if kind == "chain":
        return chain_names(spec[1])
    if kind == "custom":
        return tuple(spec[1])
    return tuple(downsets(spec[1], spec[2])[0])
