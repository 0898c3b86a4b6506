"""A deliberately naive evaluator of the quantified kernels in optable, of
galois.JJ and the family operators A_P and J_P, and of the operators an
axiom-set generates (gen.generate_sat, gen.generate_red).

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


def _weighted_red(alg, npts, weights):
    """Rank table of V(a) = join over Z of incl(Z, V) /\\ w(Z) /\\ Z(a)."""
    subs = subsets(alg, npts)
    mt = alg.meet_table
    out = []
    for v in subs:
        degs = tuple(
            _join(alg, (mt[mt[_incl(alg, z, v)][w]][z[a]] for z, w in zip(subs, weights)))
            for a in range(npts)
        )
        out.append(subs.index(degs))
    return out


def _weighted_sat(alg, npts, weights):
    """Rank table of U(a) = meet over P of (incl(U, P) /\\ w(P)) -> P(a)."""
    subs = subsets(alg, npts)
    mt, imp = alg.meet_table, alg.imp_table
    out = []
    for u in subs:
        degs = tuple(
            _meet(alg, (imp[mt[_incl(alg, u, p)][w]][p[a]] for p, w in zip(subs, weights)))
            for a in range(npts)
        )
        out.append(subs.index(degs))
    return out


def JJ(alg, npts, table):
    """Rank table of JJ(O): V(a) = join over Z of incl(Z, V) /\\ splits(Z) /\\ Z(a)."""
    return _weighted_red(alg, npts, _splits(alg, npts, table))


def A_P(alg, npts, family):
    """Rank table of A_P: U(a) = meet over V in P of incl(U, V) -> V(a).
    The family is a list of ranks, repeats allowed."""
    subs = subsets(alg, npts)
    imp = alg.imp_table
    members = [subs[v] for v in family]
    return [
        subs.index(tuple(
            _meet(alg, (imp[_incl(alg, u, v)][v[a]] for v in members))
            for a in range(npts)
        ))
        for u in subs
    ]


def J_P(alg, npts, family):
    """Rank table of J_P: U(a) = join over V in P of incl(V, U) /\\ V(a)."""
    subs = subsets(alg, npts)
    mt = alg.meet_table
    members = [subs[v] for v in family]
    return [
        subs.index(tuple(
            _join(alg, (mt[_incl(alg, v, u)][v[a]] for v in members))
            for a in range(npts)
        ))
        for u in subs
    ]


# An axiom-set is a list of covers (point index, cover rank, weight).


def fulfills(alg, npts, axioms, p):
    """Meet over covers of (weight /\\ incl(C, P)) -> P(a), P a rank."""
    subs = subsets(alg, npts)
    mt, imp = alg.meet_table, alg.imp_table
    return _meet(
        alg,
        (imp[mt[w][_incl(alg, subs[c], subs[p])]][subs[p][a]] for a, c, w in axioms),
    )


def splits_axioms(alg, npts, axioms, z):
    """Meet over covers of (weight /\\ Z(a)) -> overlap(C, Z), Z a rank."""
    subs = subsets(alg, npts)
    mt, imp = alg.meet_table, alg.imp_table
    return _meet(
        alg,
        (imp[mt[w][subs[z][a]]][_overlap(alg, subs[c], subs[z])] for a, c, w in axioms),
    )


def generate_sat(alg, npts, axioms):
    """Rank table of the saturation weighted by fulfills."""
    n = len(alg) ** npts
    return _weighted_sat(alg, npts, [fulfills(alg, npts, axioms, p) for p in range(n)])


def generate_red(alg, npts, axioms):
    """Rank table of the reduction weighted by splits_axioms."""
    n = len(alg) ** npts
    return _weighted_red(
        alg, npts, [splits_axioms(alg, npts, axioms, z) for z in range(n)]
    )


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
