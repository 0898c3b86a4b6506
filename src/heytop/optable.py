"""Operators on subsets, their pointwise lattice, and compatibility.

An Operator is a total map from HSubsets to HSubsets over a fixed
(algebra, carrier) context, given by a body: a Python function on one
HSubset.  An operator is tabulated eagerly, as a table of output ranks,
when it is built while its subset space is within the subset cap in
force (hset.subset_cap), which makes application, extensional equality
and the quantified degree computations cheap.  A table, once made, is
the operator: applying it reads the space with no cap check, since the
table proves the space was within a cap when it was made.

Most operators also carry a rank-table rule, which builds the whole
table from the hset.Space at once, so tabulating them runs no body:
identity (every rank itself), const_op and through it bottom, top and RR
(one rank repeated), complement and double complement
(``Space.pointwise`` of the negation and of its square), inhabited (the
support of each subset, as the rank of the constant subset at that
degree), compose (the outer table indexed by the inner one), and
pointwise meet and join (``&`` and ``|`` of the members' planes).
tabulated_op reads its rank table straight from its mapping; the
family, generated and Galois-map operators (galois, gen) and LL are
built from their rank tables.  A body still runs only where no table
can be made: applying an operator whose space is above the cap in
force, or tabulating one that has nothing but its body (the Boolean
generation worklist, which serves spaces above the cap, and the
relational operators of rep).

The compatibility degree of O with O' is the meet over all subset pairs
(U, V) of  overlap(O U, O' V) -> overlap(U, O' V);  in Boolean mode this
is top exactly when the classical implication holds for all pairs.
Every instance reads V only through W = O' V, so V ranges over the image
of O' alone, each output taken at the first input that produces it.
That is exact, witness included: a repeated output repeats instance
degrees already met earlier in the enumeration, which never lower the
running lowest degree.  At a fixed W the meet over U is splits(W, O), so
the compatibility degree is the meet of splits(W, O) over the image of O'.
LL(O) and RR(O), the greatest left-/right-compatible operators, are
computed from their pointwise characterizations rather than by searching
the (impredicative) lattice of all operators.

The quantified kernels work on subset ranks and on the Birkhoff
bit-planes of the context's hset.Space, and no kernel scans pairs of
subsets.  Each of LL, RR, splits, compat and weak compat is one sweep of
the space (``Space.down``) and a pass over the ranks or over an
operator's image, by the identities stated and proved in galois.
splits_vector gives splits(Z, O) for every Z at once; RR and galois.JJ
share it.  Only compat_witness, below top, scans pairs, to name the
first pair reaching the lowest instance degree: it skips every W whose
splits degree is top, whose instances are all top, and reads each
overlap from the planes.  classify compares subsets as planes (U <= V is
``not U & ~V``) and decides monotonicity with one ``Space.up`` sweep; each
operator order is one ``Space.incl`` read of an OR of planes over all U
(galois, identities 7 and 8).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from . import hset
from .errors import ContextMismatch
from .hset import HSubset, enumerate_all


class Operator:
    """A total, deterministic map on the subsets of a carrier.

    Behaviour is immutable (the display name is assignable metadata).  A
    tabulated operator answers from its rank table alone; a table filled
    twice by concurrent readers holds the same ranks either way.
    """

    __slots__ = ("algebra", "carrier", "name", "_fn", "_rule", "_ranks")

    def __init__(self, algebra, carrier, fn, name=None, *, ranks=None, rule=None):
        """``ranks``, when given, is the operator's rank table; fn is then
        never called and may be None.  ``rule``, when given, maps the
        operator's hset.Space to its rank table, which rank_table then makes
        without calling fn."""
        self.algebra = algebra
        self.carrier = carrier
        self.name = name
        self._fn = fn
        self._rule = rule
        self._ranks = None if ranks is None else tuple(ranks)
        if self._ranks is None and hset.within_cap(algebra, carrier):
            self.rank_table()

    def __repr__(self):
        return f"Operator({self.name or 'anonymous'})"

    def apply(self, u):
        if u.algebra is not self.algebra or u.carrier is not self.carrier:
            raise ContextMismatch("operator applied outside its context")
        if self._ranks is not None:
            subs = hset.held_space(self.algebra, self.carrier).subs
            return subs[self._ranks[hset.subset_rank(u)]]
        return self._run(u)

    def _run(self, u):
        """Body call; rejects a value from another context."""
        got = self._fn(u)
        if (
            not isinstance(got, HSubset)
            or got.carrier is not self.carrier
            or got.algebra is not self.algebra
        ):
            raise ContextMismatch("operator body produced a foreign value")
        return got

    def rank_table(self):
        """Outputs as subset ranks, indexed by input rank.  Made on the first
        call, from the rule if there is one, else by running the body on
        every subset; that call raises CapExceeded when the space is above
        the subset cap in force.  Once made, returned whatever the cap."""
        if self._ranks is None:
            if self._rule is not None:
                sp = hset.space(self.algebra, self.carrier)
                self._ranks = tuple(self._rule(sp))
            else:
                subs = enumerate_all(self.algebra, self.carrier)
                self._ranks = tuple(hset.subset_rank(self._run(u)) for u in subs)
        return self._ranks

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        if self.algebra is not other.algebra or self.carrier is not other.carrier:
            return False
        return self.rank_table() == other.rank_table()

    def __hash__(self):
        return hash((id(self.algebra), id(self.carrier), self.rank_table()))

    def digest(self, limit=16):
        """Short deterministic summary of the tabulated behaviour."""
        ranks = self.rank_table()
        body = ".".join(str(r) for r in ranks[:limit])
        return body + ("..." if len(ranks) > limit else "")


def identity_op(algebra, carrier):
    return Operator(
        algebra, carrier, lambda u: u, name="id", rule=lambda sp: range(len(sp.planes))
    )


def const_op(value, name=None):
    if name is None:
        name = f"const{value.render()}"
    r = hset.subset_rank(value)
    return Operator(
        value.algebra, value.carrier, lambda u: value, name=name,
        rule=lambda sp: (r,) * len(sp.planes),
    )


def bottom_op(algebra, carrier):
    return const_op(hset.empty(algebra, carrier), name="bot")


def top_op(algebra, carrier):
    return const_op(hset.full(algebra, carrier), name="top")


def complement_op(algebra, carrier):
    neg = [algebra.neg(x) for x in range(len(algebra))]
    return Operator(
        algebra, carrier, lambda u: u.pseudo_complement(), name="-",
        rule=lambda sp: sp.pointwise(neg),
    )


def double_complement_op(algebra, carrier):
    negneg = [algebra.neg(algebra.neg(x)) for x in range(len(algebra))]
    return Operator(
        algebra,
        carrier,
        lambda u: u.pseudo_complement().pseudo_complement(),
        name="--",
        rule=lambda sp: sp.pointwise(negneg),
    )


def inhabited_op(algebra, carrier):
    """Maps U to the constant vector 'U is inhabited' (the paper's example)."""

    def const_at(d):
        return HSubset(algebra, carrier, (d,) * len(carrier))

    def fn(u):
        return const_at(hset.overlap(u, hset.full(algebra, carrier)))

    def rule(sp):
        const = [hset.subset_rank(const_at(d)) for d in range(len(algebra))]
        return [const[sp.support(p)] for p in sp.planes]

    return Operator(algebra, carrier, fn, name="inhabited", rule=rule)


def compose(outer, inner, name=None):
    """outer after inner; juxtaposition OO' in operator notation."""
    if outer.algebra is not inner.algebra or outer.carrier is not inner.carrier:
        raise ContextMismatch("composing operators from different contexts")
    if name is None:
        name = f"({outer.name or '?'} {inner.name or '?'})"
    return Operator(
        outer.algebra, outer.carrier, lambda u: outer.apply(inner.apply(u)), name=name,
        rule=lambda sp: map(outer.rank_table().__getitem__, inner.rank_table()),
    )


def pointwise_join(ops, *, algebra=None, carrier=None, name=None):
    """Pointwise union of operator results; the empty join is the bot operator."""
    return _pointwise("join", "bot", operator.or_, bottom_op, ops, algebra, carrier, name)


def pointwise_meet(ops, *, algebra=None, carrier=None, name=None):
    """Pointwise intersection; the empty meet is the top operator."""
    return _pointwise("meet", "top", operator.and_, top_op, ops, algebra, carrier, name)


def _pointwise(op, unit, fold, empty, ops, algebra, carrier, name):
    """The family's outputs folded point by point through the algebra's
    ``op`` table (join or meet) from its ``unit`` element; ``fold`` is the
    same operation on planes (| or &), which the rank-table rule applies;
    ``empty`` builds the operator of the empty family."""
    ops = list(ops)
    algebra, carrier = hset.family_context(ops, algebra, carrier)
    if not ops:
        return empty(algebra, carrier)
    table, start = getattr(algebra, f"{op}_table"), getattr(algebra, unit)

    def fn(u):
        degs = [start] * len(carrier)
        for o in ops:
            for i, d in enumerate(o.apply(u).degrees):
                degs[i] = table[degs[i]][d]
        return HSubset(algebra, carrier, degs)

    def rule(sp):
        plane = sp.planes.__getitem__
        acc = list(map(plane, ops[0].rank_table()))
        for o in ops[1:]:
            acc = list(map(fold, acc, map(plane, o.rank_table())))
        return sp.ranks(acc)

    if name is None:
        name = f"{op}(" + ",".join(o.name or "?" for o in ops) + ")"
    return Operator(algebra, carrier, fn, name=name, rule=rule)


def tabulated_op(algebra, carrier, mapping, name=None):
    """Operator from an explicit input -> output table; must be total."""
    subs = enumerate_all(algebra, carrier)
    ranks = [None] * len(subs)
    for u, v in mapping.items():
        if (
            u.algebra is not algebra
            or v.algebra is not algebra
            or u.carrier is not carrier
            or v.carrier is not carrier
        ):
            raise ContextMismatch("table entries live over a different context")
        ranks[hset.subset_rank(u)] = hset.subset_rank(v)
    missing = [subs[r] for r, v in enumerate(ranks) if v is None]
    if missing:
        raise ValueError(
            f"table is not total: no output for {missing[0].render()} "
            f"({len(missing)} inputs missing)"
        )
    return Operator(algebra, carrier, None, name=name, ranks=ranks)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Flag:
    """A verified-or-refuted property; a refuting witness re-checks false."""

    holds: bool
    witness: object = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class OperatorProfile:
    monotone: Flag
    idempotent: Flag
    expansive: Flag
    contractive: Flag

    @property
    def is_saturation(self):
        return self.monotone.holds and self.idempotent.holds and self.expansive.holds

    @property
    def is_reduction(self):
        return self.monotone.holds and self.idempotent.holds and self.contractive.holds


def classify(op):
    """Verify or refute the four profile flags over the whole subset space.

    Subsets are compared as bit-planes.  O is monotone iff O U lies below
    M U, the meet of O W over W >= U, at every U (galois, identity 7); M is
    one ``Space.up`` sweep.  Witnesses are minimal in the fixed enumeration
    order: for monotonicity the first pair (U, V) with U <= V and
    O U !<= O V, whose U is the first rank where O U !<= M U; the first
    failing U otherwise.
    """
    sp = hset.space(op.algebra, op.carrier)
    subs, planes = sp.subs, sp.planes
    ranks = op.rank_table()

    monotone = Flag(True)
    out = [planes[r] for r in ranks]
    for u, (ou, mu) in enumerate(zip(out, sp.up(out))):
        if ou & ~mu:
            pu = planes[u]
            v = next(
                v for v, (pv, ov) in enumerate(zip(planes, out))
                if not pu & ~pv and ou & ~ov
            )
            monotone = Flag(False, (subs[u], subs[v]))
            break

    idempotent = Flag(True)
    for i, u in enumerate(subs):
        if ranks[ranks[i]] != ranks[i]:
            idempotent = Flag(False, u)
            break

    expansive = Flag(True)
    for i, r in enumerate(ranks):
        if planes[i] & ~planes[r]:
            expansive = Flag(False, subs[i])
            break

    contractive = Flag(True)
    for i, r in enumerate(ranks):
        if planes[r] & ~planes[i]:
            contractive = Flag(False, subs[i])
            break

    return OperatorProfile(monotone, idempotent, expansive, contractive)


# ---------------------------------------------------------------------------
# quantified degrees and the greatest compatible operators


def _image(table):
    """(first input rank, output rank) for each distinct output of a rank
    table, in the order of first input."""
    first = {}
    for v, r in enumerate(table):
        first.setdefault(r, v)
    return [(v, r) for r, v in first.items()]


def _image_splits(o1, o2s):
    """The space and splits(W, O1) at each W in the image of any O2 in o2s,
    as a dict, from one sweep of O1; compat(O1, O2) is the meet of the
    splits degrees over the image of O2 (galois, identity 5)."""
    for o2 in o2s:
        _same_op_context(o1, o2)
    sp, g = _lower_join(o1)
    ws = list(set().union(*(o2.rank_table() for o2 in o2s)))
    return sp, dict(zip(ws, _splits_at(sp, g, ws)))


def compat_degrees(o1, o2s):
    """compat_degree(O1, O2) for each O2 in o2s, sweeping O1 once and taking
    each splits degree once."""
    _, split = _image_splits(o1, o2s)
    meet = o1.algebra.big_meet
    return [meet(map(split.__getitem__, set(o2.rank_table()))) for o2 in o2s]


def compat_degree(o1, o2):
    """Meet over all (U, V) of  (O1 U over O2 V) -> (U over O2 V)."""
    return compat_degrees(o1, [o2])[0]


def compat_witness(o1, o2):
    """(degree, witness): the exact compatibility degree plus the first pair
    achieving the lowest single-instance degree (None when every instance is
    top).  In a non-linear algebra the meet can sit strictly below every
    instance; the degree reported here is always the exact meet.

    The degree comes from the splits degrees of the image of O2.  The
    witness scan reads only the W whose splits degree is below top: every
    instance of the others is top and never lowers the running best.
    """
    sp, split = _image_splits(o1, [o2])
    alg = o1.algebra
    acc = alg.big_meet(split.values())
    if acc == alg.top:
        return acc, None
    planes, support = sp.planes, sp.support
    below = [
        (v, planes[w]) for v, w in _image(o2.rank_table()) if split[w] != alg.top
    ]
    it, lt = alg.imp_table, alg.leq_table
    best = alg.top
    where = None
    for u, ou in enumerate(o1.rank_table()):
        pu, pou = planes[u], planes[ou]
        for v, w in below:
            d = it[support(pou & w)][support(pu & w)]
            if d != best and lt[d][best]:
                best = d
                where = (sp.subs[u], sp.subs[v])
                if best == acc:
                    return acc, where
    return acc, where


def weak_compat_degree(o1, o2):
    """Meet over (U, V) of  not(U over O2 V) -> not(O1 U over O2 V),
    computed as not of the join over W in the image of O2 and
    join-irreducible c of  c /\\ (G(c -> not W) over W)  (galois,
    identity 6), where G V is the join of O1 U over U <= V.
    """
    _same_op_context(o1, o2)
    alg = o1.algebra
    sp, g = _lower_join(o1)
    planes, support = sp.planes, sp.support
    image = [w for _, w in _image(o2.rank_table())]
    jt, mt, it = alg.join_table, alg.meet_table, alg.imp_table
    acc = alg.bot
    for c in sp.join_irreducibles:
        to_c = sp.pointwise([it[c][alg.neg(x)] for x in range(len(alg))])
        for w in image:
            acc = jt[acc][mt[c][support(g[to_c[w]] & planes[w])]]
    return alg.neg(acc)


def splits_degree(z, op):
    """Degree to which Z splits O: meet over U of (O U over Z) -> (U over Z).

    Equals compat_degree(op, const_op(z)).
    """
    if z.algebra is not op.algebra or z.carrier is not op.carrier:
        raise ContextMismatch("subset and operator live over different contexts")
    sp, g = _lower_join(op)
    return _splits_at(sp, g, [hset.subset_rank(z)])[0]


def splits_vector(op):
    """splits(Z, O) for every rank of Z, from one sweep:
    splits(W) = meet over meet-irreducible d of (G(W -> d) over W) -> d,
    where G V is the join of O U over U <= V.
    """
    sp, g = _lower_join(op)
    return _splits_at(sp, g, range(len(sp.planes)))


def _lower_join(op):
    """The space and G V = join of O U over U <= V, as planes, at every V."""
    sp = hset.space(op.algebra, op.carrier)
    return sp, sp.down([sp.planes[r] for r in op.rank_table()])


def _splits_at(sp, g, ranks):
    """splits(W) at each W in ranks, from G = _lower_join's sweep."""
    alg = sp.algebra
    mt, it = alg.meet_table, alg.imp_table
    planes, support = sp.planes, sp.support
    ws = [planes[w] for w in ranks]
    split = [alg.top] * len(ws)
    for d in sp.meet_irreducibles:
        to_d = sp.pointwise([row[d] for row in it])
        split = [
            mt[s][it[support(g[to_d[r]] & w)][d]]
            for s, r, w in zip(split, ranks, ws)
        ]
    return split


def LL(op):
    """Greatest left-compatible operator:
    LL(O) U (a) = meet over V of  O V (a) -> (U over O V),
    computed as the meet over meet-irreducible d of K(U -> d)(a) -> d,
    where K X is the join of the outputs of O below X.
    """
    alg = op.algebra
    sp = hset.space(alg, op.carrier)
    planes = sp.planes
    seed = [0] * len(planes)
    for r in set(op.rank_table()):
        seed[r] = planes[r]
    k = sp.ranks(sp.down(seed))
    it = alg.imp_table
    acc = [sp.full] * len(planes)
    for d in sp.meet_irreducibles:
        to_d = sp.pointwise([row[d] for row in it])
        acc = [x & planes[to_d[k[t]]] for x, t in zip(acc, to_d)]
    return Operator(
        alg, op.carrier, None, name=f"LL({op.name or '?'})", ranks=sp.ranks(acc)
    )


def RR(op):
    """Greatest right-compatible operator: constant at the largest splitting
    subset, join over Z of splits(Z, O) /\\ Z(a).  That is the weighted
    reduction with splits weights (galois.JJ) at the full subset, where
    incl(Z, full) is top: the join of its whole seed.
    """
    sp = hset.space(op.algebra, op.carrier)
    value = functools.reduce(operator.or_, sp.reduction_seed(splits_vector(op)), 0)
    return const_op(sp.subs[sp.ranks([value])[0]], name=f"RR({op.name or '?'})")


# ---------------------------------------------------------------------------
# operator-level orders


def _incl_bad(o1, o2):
    """The space and the OR over U of the planes of O1 U & ~O2 U; the meet
    over U of incl(O1 U, O2 U) is its Space.incl (galois, identity 8)."""
    _same_op_context(o1, o2)
    sp = hset.space(o1.algebra, o1.carrier)
    plane = sp.planes.__getitem__
    outs = map(plane, o1.rank_table())
    not_outs = map(operator.invert, map(plane, o2.rank_table()))
    return sp, functools.reduce(operator.or_, map(operator.and_, outs, not_outs), 0)


def op_incl_degree(o1, o2):
    """Meet over U of incl(O1 U, O2 U)."""
    sp, bad = _incl_bad(o1, o2)
    return sp.incl(bad)


def op_eq_degree(o1, o2):
    """Meet over U of eq_degree(O1 U, O2 U): incl both ways, so the incl of
    the OR of both bad planes."""
    sp, bad = _incl_bad(o1, o2)
    return sp.incl(bad | _incl_bad(o2, o1)[1])


def op_leq(o1, o2):
    """Pointwise operator order: O1 U <= O2 U for every U (a boolean)."""
    return not _incl_bad(o1, o2)[1]


def op_eq(o1, o2):
    """Extensional operator equality over the full enumeration."""
    _same_op_context(o1, o2)
    return o1.rank_table() == o2.rank_table()


def op_eq_witness(o1, o2):
    """First subset where the two operators differ, or None if equal."""
    _same_op_context(o1, o2)
    subs = enumerate_all(o1.algebra, o1.carrier)
    t1 = o1.rank_table()
    t2 = o2.rank_table()
    for u in range(len(subs)):
        if t1[u] != t2[u]:
            return subs[u]
    return None


def _same_op_context(o1, o2):
    if o1.algebra is not o2.algebra or o1.carrier is not o2.carrier:
        raise ContextMismatch("operators live over different contexts")
