"""A deliberately naive evaluator of the quantified kernels in optable and
of galois.JJ.

Subsets are degree tuples in the documented enumeration order
(itertools.product over element indices), operators are rank tables, and
every quantifier runs over the whole space: no overlap or incl rows, no
short-circuits, no restriction to covering pairs or to an operator's image.
Only the algebra's derived meet/join/implication tables are shared with the
package.  Witnesses are returned as ranks.
"""

import itertools


def subsets(alg, npts):
    return list(itertools.product(range(len(alg)), repeat=npts))


def _leq(alg, u, v):
    return all(alg.leq_table[x][y] for x, y in zip(u, v))


def _overlap(alg, u, v):
    acc = alg.bot
    for x, y in zip(u, v):
        acc = alg.join_table[acc][alg.meet_table[x][y]]
    return acc


def _incl(alg, u, v):
    acc = alg.top
    for x, y in zip(u, v):
        acc = alg.meet_table[acc][alg.imp_table[x][y]]
    return acc


def _join(alg, xs):
    acc = alg.bot
    for x in xs:
        acc = alg.join_table[acc][x]
    return acc


def _meet(alg, xs):
    acc = alg.top
    for x in xs:
        acc = alg.meet_table[acc][x]
    return acc


def _first(xs):
    return next(iter(xs), None)


def classify(alg, npts, table):
    """{flag: (holds, witness)} with the first failing pair or subset."""
    subs = subsets(alg, npts)
    n = len(subs)
    out = [subs[r] for r in table]
    bad_pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if _leq(alg, subs[u], subs[v]) and not _leq(alg, out[u], out[v])
    ]
    bad = {
        "monotone": bad_pairs,
        "idempotent": [u for u in range(n) if table[table[u]] != table[u]],
        "expansive": [u for u in range(n) if not _leq(alg, subs[u], out[u])],
        "contractive": [u for u in range(n) if not _leq(alg, out[u], subs[u])],
    }
    return {k: (not v, _first(v)) for k, v in bad.items()}


def _instances(alg, npts, t1, t2, degree):
    subs = subsets(alg, npts)
    n = len(subs)
    for u in range(n):
        for v in range(n):
            yield (u, v), degree(subs[u], subs[t1[u]], subs[t2[v]])


def compat_degree(alg, npts, t1, t2):
    return _meet(alg, (d for _, d in _instances(alg, npts, t1, t2, _compat(alg))))


def compat_witness(alg, npts, t1, t2):
    """(degree, first pair whose instance degree is strictly below every
    instance degree before it, as ranks, or None)."""
    best, where = alg.top, None
    degrees = []
    for pair, d in _instances(alg, npts, t1, t2, _compat(alg)):
        degrees.append(d)
        if d != best and alg.leq_table[d][best]:
            best, where = d, pair
    return _meet(alg, degrees), where


def weak_compat_degree(alg, npts, t1, t2):
    neg = alg.neg
    imp = alg.imp_table

    def degree(u, ou, o2v):
        return imp[neg(_overlap(alg, u, o2v))][neg(_overlap(alg, ou, o2v))]

    return _meet(alg, (d for _, d in _instances(alg, npts, t1, t2, degree)))


def _compat(alg):
    imp = alg.imp_table

    def degree(u, ou, o2v):
        return imp[_overlap(alg, ou, o2v)][_overlap(alg, u, o2v)]

    return degree


def LL(alg, npts, table):
    """Rank table of LL(O): U(a) = meet over V of O V(a) -> (U over O V)."""
    subs = subsets(alg, npts)
    imp = alg.imp_table
    out = []
    for u in subs:
        degs = tuple(
            _meet(alg, [imp[subs[r][a]][_overlap(alg, u, subs[r])] for r in table])
            for a in range(npts)
        )
        out.append(subs.index(degs))
    return out


def splits_degree(alg, npts, z, table):
    """Meet over U of (O U over Z) -> (U over Z), Z given as a rank."""
    subs = subsets(alg, npts)
    imp = alg.imp_table
    return _meet(
        alg,
        (
            imp[_overlap(alg, subs[table[u]], subs[z])][_overlap(alg, subs[u], subs[z])]
            for u in range(len(subs))
        ),
    )


def _splits(alg, npts, table):
    return [splits_degree(alg, npts, z, table) for z in range(len(alg) ** npts)]


def RR(alg, npts, table):
    """Rank of RR(O)'s constant value: join over Z of splits(Z) /\\ Z(a)."""
    subs = subsets(alg, npts)
    split = _splits(alg, npts, table)
    mt = alg.meet_table
    degs = tuple(
        _join(alg, (mt[s][z[a]] for z, s in zip(subs, split))) for a in range(npts)
    )
    return subs.index(degs)


def JJ(alg, npts, table):
    """Rank table of JJ(O): V(a) = join over Z of incl(Z, V) /\\ splits(Z) /\\ Z(a)."""
    subs = subsets(alg, npts)
    split = _splits(alg, npts, table)
    mt = alg.meet_table
    out = []
    for v in subs:
        degs = tuple(
            _join(alg, (mt[mt[_incl(alg, z, v)][s]][z[a]] for z, s in zip(subs, split)))
            for a in range(npts)
        )
        out.append(subs.index(degs))
    return out


def op_incl_degree(alg, npts, t1, t2):
    subs = subsets(alg, npts)
    return _meet(alg, (_incl(alg, subs[a], subs[b]) for a, b in zip(t1, t2)))


def op_eq_degree(alg, npts, t1, t2):
    subs = subsets(alg, npts)
    mt = alg.meet_table
    return _meet(
        alg,
        (
            mt[_incl(alg, subs[a], subs[b])][_incl(alg, subs[b], subs[a])]
            for a, b in zip(t1, t2)
        ),
    )
