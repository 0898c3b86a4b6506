"""A deliberately naive evaluator of the quantified kernels in optable, of
galois.JJ and the family operators A_P and J_P, and of the operators an
axiom-set generates (gen.generate_sat, gen.generate_red).

Subsets are degree tuples in the documented enumeration order
(itertools.product over element indices), operators are rank tables, and
every quantifier runs over the whole space: no short-circuits, no
restriction to covering pairs or to an operator's image.  The leq,
overlap and incl degree of every pair of subsets are computed once per
(algebra, number of points), pointwise from their definitions, and kept in
matrices indexed by rank.  Only the algebra's derived meet/join/implication
tables are shared with the package.  Witnesses are returned as ranks.
"""

import functools
import itertools


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


class _Space:
    """The subsets of one (algebra, number of points) in enumeration order,
    the rank of each, and the leq, overlap and incl matrices over ranks."""

    def __init__(self, alg, npts):
        subs = self.subs = list(itertools.product(range(len(alg)), repeat=npts))
        self.rank = {u: r for r, u in enumerate(subs)}
        self.leq = [[_leq(alg, u, v) for v in subs] for u in subs]
        self.overlap = [[_overlap(alg, u, v) for v in subs] for u in subs]
        self.incl = [[_incl(alg, u, v) for v in subs] for u in subs]


@functools.lru_cache(maxsize=None)
def _space(alg, npts):
    return _Space(alg, npts)


def subsets(alg, npts):
    return _space(alg, npts).subs


def _join(alg, xs):
    jt = alg.join_table
    acc = alg.bot
    for x in xs:
        acc = jt[acc][x]
    return acc


def _meet(alg, xs):
    mt = alg.meet_table
    acc = alg.top
    for x in xs:
        acc = mt[acc][x]
    return acc


def _first(xs):
    return next(iter(xs), None)


def classify(alg, npts, table):
    """{flag: (holds, witness)} with the first failing pair or subset."""
    leq = _space(alg, npts).leq
    n = len(table)
    bad_pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if leq[u][v] and not leq[table[u]][table[v]]
    ]
    bad = {
        "monotone": bad_pairs,
        "idempotent": [u for u in range(n) if table[table[u]] != table[u]],
        "expansive": [u for u in range(n) if not leq[u][table[u]]],
        "contractive": [u for u in range(n) if not leq[table[u]][u]],
    }
    return {k: (not v, _first(v)) for k, v in bad.items()}


def _instances(alg, npts, t1, t2, degree):
    """degree[overlap(U, O2 V)][overlap(O1 U, O2 V)] for every pair (U, V)
    of ranks, U major; the pair at index i is divmod(i, len(t2))."""
    ov = _space(alg, npts).overlap
    return [degree[ov[u][w]][ov[ou][w]] for u, ou in enumerate(t1) for w in t2]


def _compat(alg):
    """compat's instance as a table: [U over W][O1 U over W] is
    (O1 U over W) -> (U over W)."""
    h = range(len(alg))
    return [[alg.imp_table[y][x] for y in h] for x in h]


def compat_degree(alg, npts, t1, t2):
    return _meet(alg, _instances(alg, npts, t1, t2, _compat(alg)))


def compat_witness(alg, npts, t1, t2):
    """(degree, first pair whose instance degree is strictly below every
    instance degree before it, as ranks, or None)."""
    degrees = _instances(alg, npts, t1, t2, _compat(alg))
    lt = alg.leq_table
    best, where = alg.top, None
    for i, d in enumerate(degrees):
        if d != best and lt[d][best]:
            best, where = d, divmod(i, len(t2))
    return _meet(alg, degrees), where


def weak_compat_degree(alg, npts, t1, t2):
    h = range(len(alg))
    neg, imp = alg.neg, alg.imp_table
    degree = [[imp[neg(x)][neg(y)] for y in h] for x in h]
    return _meet(alg, _instances(alg, npts, t1, t2, degree))


def LL(alg, npts, table):
    """Rank table of LL(O): U(a) = meet over V of O V(a) -> (U over O V)."""
    sp = _space(alg, npts)
    subs, ov = sp.subs, sp.overlap
    imp = alg.imp_table
    out = []
    for u in range(len(subs)):
        degs = tuple(
            _meet(alg, [imp[subs[r][a]][ov[u][r]] for r in table])
            for a in range(npts)
        )
        out.append(sp.rank[degs])
    return out


def splits_degree(alg, npts, z, table):
    """Meet over U of (O U over Z) -> (U over Z), Z given as a rank."""
    ov = _space(alg, npts).overlap
    imp = alg.imp_table
    return _meet(alg, (imp[ov[table[u]][z]][ov[u][z]] for u in range(len(table))))


def _splits(alg, npts, table):
    return [splits_degree(alg, npts, z, table) for z in range(len(table))]


def RR(alg, npts, table):
    """Rank of RR(O)'s constant value: join over Z of splits(Z) /\\ Z(a)."""
    sp = _space(alg, npts)
    split = _splits(alg, npts, table)
    mt = alg.meet_table
    degs = tuple(
        _join(alg, (mt[s][z[a]] for z, s in zip(sp.subs, split))) for a in range(npts)
    )
    return sp.rank[degs]


def _weighted_red(alg, npts, weights):
    """Rank table of V(a) = join over Z of incl(Z, V) /\\ w(Z) /\\ Z(a)."""
    sp = _space(alg, npts)
    subs, incl = sp.subs, sp.incl
    mt = alg.meet_table
    out = []
    for v in range(len(subs)):
        terms = [mt[incl[z][v]][w] for z, w in enumerate(weights)]
        degs = tuple(
            _join(alg, [mt[t][z[a]] for t, z in zip(terms, subs)])
            for a in range(npts)
        )
        out.append(sp.rank[degs])
    return out


def _weighted_sat(alg, npts, weights):
    """Rank table of U(a) = meet over P of (incl(U, P) /\\ w(P)) -> P(a)."""
    sp = _space(alg, npts)
    subs, incl = sp.subs, sp.incl
    mt, imp = alg.meet_table, alg.imp_table
    out = []
    for u in range(len(subs)):
        terms = [mt[incl[u][p]][w] for p, w in enumerate(weights)]
        degs = tuple(
            _meet(alg, [imp[t][p[a]] for t, p in zip(terms, subs)])
            for a in range(npts)
        )
        out.append(sp.rank[degs])
    return out


def JJ(alg, npts, table):
    """Rank table of JJ(O): V(a) = join over Z of incl(Z, V) /\\ splits(Z) /\\ Z(a)."""
    return _weighted_red(alg, npts, _splits(alg, npts, table))


def A_P(alg, npts, family):
    """Rank table of A_P: U(a) = meet over V in P of incl(U, V) -> V(a).
    The family is a list of ranks, repeats allowed."""
    sp = _space(alg, npts)
    subs, incl = sp.subs, sp.incl
    imp = alg.imp_table
    return [
        sp.rank[tuple(
            _meet(alg, (imp[incl[u][v]][subs[v][a]] for v in family))
            for a in range(npts)
        )]
        for u in range(len(subs))
    ]


def J_P(alg, npts, family):
    """Rank table of J_P: U(a) = join over V in P of incl(V, U) /\\ V(a)."""
    sp = _space(alg, npts)
    subs, incl = sp.subs, sp.incl
    mt = alg.meet_table
    return [
        sp.rank[tuple(
            _join(alg, (mt[incl[v][u]][subs[v][a]] for v in family))
            for a in range(npts)
        )]
        for u in range(len(subs))
    ]


# An axiom-set is a list of covers (point index, cover rank, weight).


def fulfills(alg, npts, axioms, p):
    """Meet over covers of (weight /\\ incl(C, P)) -> P(a), P a rank."""
    sp = _space(alg, npts)
    mt, imp = alg.meet_table, alg.imp_table
    return _meet(
        alg,
        (imp[mt[w][sp.incl[c][p]]][sp.subs[p][a]] for a, c, w in axioms),
    )


def splits_axioms(alg, npts, axioms, z):
    """Meet over covers of (weight /\\ Z(a)) -> overlap(C, Z), Z a rank."""
    sp = _space(alg, npts)
    mt, imp = alg.meet_table, alg.imp_table
    return _meet(
        alg,
        (imp[mt[w][sp.subs[z][a]]][sp.overlap[c][z]] for a, c, w in axioms),
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
    incl = _space(alg, npts).incl
    return _meet(alg, (incl[a][b] for a, b in zip(t1, t2)))


def op_eq_degree(alg, npts, t1, t2):
    incl = _space(alg, npts).incl
    mt = alg.meet_table
    return _meet(alg, (mt[incl[a][b]][incl[b][a]] for a, b in zip(t1, t2)))
