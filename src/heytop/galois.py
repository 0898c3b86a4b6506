"""Saturations, reductions, and the Galois connection between them.

A Saturation is a monotone, idempotent, expansive operator (a generalized
closure); a Reduction is monotone, idempotent and contractive (a
generalized interior).  Both are Operator subclasses whose constructor
verifies the profile, so an uncertified value cannot exist; generated
operators on spaces too large to enumerate may instead carry a
by-construction certificate.

Every saturation or reduction built from a weighted family of subsets is
one of two formulas, each computed in one place, with one weight per
subset rank:

    weighted_saturation:  A U (a) = meet over P of (incl(U, P) /\\ w(P)) -> P(a)
    weighted_reduction:   J V (a) = join over Z of incl(Z, V) /\\ w(Z) /\\ Z(a)

from_family_sat and from_family_red (A_P and J_P, and through them
join_saturations and meet_reductions) weigh each member top and every
other subset bot; JJ(A) weighs Z by splits(Z, A); the non-Boolean
gen.generate_sat and gen.generate_red weigh by the axiom-set's fulfilling
and splitting degrees.  AA(J), the greatest saturation compatible with the
reduction J, is one code path with LL.

AA and JJ form an antitone Galois connection:
A included in AA(J), A compatible with J, and J included in JJ(A) all
carry the same truth degree, which galois_check reports.
"""

from __future__ import annotations

from . import hset, optable
from .errors import CertificateFailure
from .hset import HSubset
from .optable import Operator, classify, LL, splits_degree
from .reports import LawReport, HOLDS, FAILS

BY_CONSTRUCTION = "by-construction"


class _Certified(Operator):
    """Operator whose constructor verifies a required profile subset."""

    __slots__ = ("certificate",)

    REQUIRED = ()

    def __init__(self, algebra, carrier, fn, name=None, *, cap=None, trusted=False):
        super().__init__(algebra, carrier, fn, name=name)
        if trusted:
            self.certificate = BY_CONSTRUCTION
        else:
            self.certificate = self._check(cap)

    def _check(self, cap):
        profile = classify(self, cap)
        for flagname in self.REQUIRED:
            flag = getattr(profile, flagname)
            if not flag.holds:
                kind = type(self).__name__.lower()
                raise CertificateFailure(
                    f"{self.name or 'operator'} is not a {kind}: "
                    f"{flagname} fails",
                    flag=flagname,
                    witness=flag.witness,
                )
        return profile

    def re_verify(self, cap=None):
        """Run classify afresh and confirm the certificate still holds."""
        profile = classify(self, cap)
        return all(getattr(profile, f).holds for f in self.REQUIRED)

    @classmethod
    def certify(cls, op, cap=None, *, trusted=False, name=None):
        """Wrap an existing operator, verifying (or trusting) its profile."""
        return cls(
            op.algebra,
            op.carrier,
            op.apply,
            name=name or op.name,
            cap=cap,
            trusted=trusted,
        )


class Saturation(_Certified):
    """An operator certified monotone + idempotent + expansive."""

    __slots__ = ()

    REQUIRED = ("monotone", "idempotent", "expansive")


class Reduction(_Certified):
    """An operator certified monotone + idempotent + contractive."""

    __slots__ = ()

    REQUIRED = ("monotone", "idempotent", "contractive")


def from_family_sat(family, *, algebra=None, carrier=None, cap=None, name=None):
    """Saturation generated by a family:
    A_P U (a) = meet over V in P of  incl(U, V) -> V(a).

    Boolean mode reads as: intersect the members that contain U.  A_P
    fixes every member and, among saturations doing so, is the greatest
    in the pointwise order (equivalently: its fixed points are exactly
    the closure of the family under intersections).  The empty family
    gives the top operator.
    """
    family = list(family)
    sp, weights = _family_weights(family, algebra, carrier, cap)
    if name is None:
        name = "A_P[" + ",".join(v.render() for v in family) + "]"
    return weighted_saturation(sp, weights, cap=cap, name=name)


def from_family_red(family, *, algebra=None, carrier=None, cap=None, name=None):
    """Greatest reduction fixing every member of the family:
    J_P U (a) = join over V in P of  incl(V, U) /\\ V(a).

    The empty family gives the bot operator.
    """
    family = list(family)
    sp, weights = _family_weights(family, algebra, carrier, cap)
    if name is None:
        name = "J_P[" + ",".join(v.render() for v in family) + "]"
    return weighted_reduction(sp, weights, cap=cap, name=name)


def _family_weights(family, algebra, carrier, cap):
    """The family's Space and its weights: top at each member's rank, else bot."""
    algebra, carrier = hset.family_context(family, algebra, carrier)
    sp = hset.space(algebra, carrier, cap)
    weights = [algebra.bot] * len(sp.subs)
    for v in family:
        weights[hset.subset_rank(v)] = algebra.top
    return sp, weights


def AA(red, cap=None, name=None):
    """Greatest saturation compatible with the given reduction: LL(J)."""
    op = LL(red, cap)
    if name is None:
        name = f"AA({red.name or '?'})"
    return Saturation.certify(op, cap=cap, name=name)


def JJ(sat, cap=None, name=None):
    """Greatest reduction compatible with the given operator.

    Accepts any operator (the splitting formula never needs the argument
    to be a saturation), which is what the union-to-meet law exploits.
    """
    sp = hset.space(sat.algebra, sat.carrier, cap)
    split = [splits_degree(z, sat, cap) for z in sp.subs]
    if name is None:
        name = f"JJ({sat.name or '?'})"
    return weighted_reduction(sp, split, cap=cap, name=name)


def weighted_saturation(space, weights, *, cap=None, name=None):
    """The saturation  A U (a) = meet over P of (incl(U, P) /\\ w(P)) -> P(a),
    given one weight w(P) per rank of P in the hset.Space.

    Any weights give a saturation; A_P takes w = top on the family, the
    generated saturation w(P) = fulfills(P).  Only the P whose weight is
    not bot are visited, and incl(U, P) is read as single entries: a
    family of a few members would not pay for whole rows.
    """
    alg = space.algebra
    carrier = space.carrier
    mt, it = alg.meet_table, alg.imp_table
    top, bot = alg.top, alg.bot
    members = [
        (p, s, space.subs[p].degrees) for p, s in enumerate(weights) if s != bot
    ]
    ranks = []
    for u in range(len(space.subs)):
        degs = [top] * len(carrier)
        for p, s, pd in members:
            w = mt[space.incl(u, p)][s]
            if w == bot:  # bot -> d is top
                continue
            for a, d in enumerate(pd):
                degs[a] = mt[degs[a]][it[w][d]]
        ranks.append(hset.subset_rank(HSubset(alg, carrier, degs)))
    op = optable._from_ranks(alg, carrier, ranks)
    return Saturation.certify(op, cap=cap, name=name)


def weighted_reduction(space, weights, *, cap=None, name=None):
    """The reduction  J V (a) = join over Z of incl(Z, V) /\\ w(Z) /\\ Z(a),
    given one weight w(Z) per rank of Z in the hset.Space.

    Any weights give a reduction; J_P takes w = top on the family, JJ(A)
    w(Z) = splits(Z, A), the generated reduction the axiom-set's splitting
    degree.  Only the Z whose weight is not bot are visited, each reading
    incl(Z, .) from the space's rows.
    """
    alg = space.algebra
    carrier = space.carrier
    mt, jt = alg.meet_table, alg.join_table
    bot = alg.bot
    acc = [[bot] * len(carrier) for _ in space.subs]
    for zr, (z, s) in enumerate(zip(space.subs, weights)):
        if s == bot:
            continue
        for degs, inc in zip(acc, space.inc_row(zr)):
            w = mt[inc][s]
            if w == bot:
                continue
            for a, d in enumerate(z.degrees):
                degs[a] = jt[degs[a]][mt[w][d]]
    ranks = [hset.subset_rank(HSubset(alg, carrier, degs)) for degs in acc]
    op = optable._from_ranks(alg, carrier, ranks)
    return Reduction.certify(op, cap=cap, name=name)


def meet_saturations(sats, *, algebra=None, carrier=None, cap=None, name=None):
    """Pointwise meet, re-certified; the empty meet is the top saturation.

    This is the meet in SAT(S): saturations form a sub-inflattice of the
    operator lattice, so the pointwise meet is already a saturation.
    """
    op = optable.pointwise_meet(sats, algebra=algebra, carrier=carrier, name=name)
    return Saturation.certify(op, cap=cap)


def join_reductions(reds, *, algebra=None, carrier=None, cap=None, name=None):
    """Pointwise join, re-certified; the empty join is the bot reduction.

    This is the join in RED(S): reductions form a sub-suplattice.
    """
    op = optable.pointwise_join(reds, algebra=algebra, carrier=carrier, name=name)
    return Reduction.certify(op, cap=cap)


def join_saturations(sats, *, algebra=None, carrier=None, cap=None, name=None):
    """Join in SAT(S): the least saturation above every member.

    Unlike meets, joins of saturations are not pointwise (the pointwise
    union need not be idempotent); the join is generated from the family
    of subsets fixed by every member.  The empty join is the identity,
    the bottom of SAT(S).
    """
    sats = list(sats)
    algebra, carrier = hset.family_context(sats, algebra, carrier)
    subs = hset.enumerate_all(algebra, carrier, cap)
    fam = [u for u in subs if all(a.apply(u) == u for a in sats)]
    return from_family_sat(fam, algebra=algebra, carrier=carrier, cap=cap, name=name)


def meet_reductions(reds, *, algebra=None, carrier=None, cap=None, name=None):
    """Meet in RED(S): the greatest reduction below every member.

    Dually to join_saturations this is not pointwise; it is generated from
    the commonly fixed subsets.  The empty meet is the identity, the top
    of RED(S).
    """
    reds = list(reds)
    algebra, carrier = hset.family_context(reds, algebra, carrier)
    subs = hset.enumerate_all(algebra, carrier, cap)
    fam = [u for u in subs if all(j.apply(u) == u for j in reds)]
    return from_family_red(fam, algebra=algebra, carrier=carrier, cap=cap, name=name)


def galois_check(sat, red, cap=None):
    """Report the three degrees [A in AA(J)], [A compat J], [J in JJ(A)].

    The Galois law holds exactly when the three coincide as elements.
    """
    alg = sat.algebra
    d_compat, wit = optable.compat_witness(sat, red, cap)
    d_sat = optable.op_incl_degree(sat, AA(red, cap), cap)
    d_red = optable.op_incl_degree(red, JJ(sat, cap), cap)
    coincide = d_sat == d_compat == d_red
    details = {
        "sat-into-AA(red)": alg.name(d_sat),
        "compat(sat,red)": alg.name(d_compat),
        "red-into-JJ(sat)": alg.name(d_red),
        "three-way-coincide": str(coincide),
    }
    witness = None
    if wit is not None:
        witness = (wit[0].render(), wit[1].render())
    return LawReport(
        law="galois",
        status=HOLDS if coincide else FAILS,
        degree=alg.name(d_compat) if coincide else None,
        witness=witness,
        details=details,
    )


def positivity_law(red, cap=None):
    """Degree of  ((a in J S -> a in AA(J) U) -> a in AA(J) U)  over all (a, U).

    Proved intuitionistically for every reduction, so the report must come
    back with degree top; anything below top is a defect.
    """
    alg = red.algebra
    carrier = red.carrier
    subs = hset.enumerate_all(alg, carrier, cap)
    aa = AA(red, cap)
    js = red.apply(hset.full(alg, carrier))
    mt, it = alg.meet_table, alg.imp_table
    lt = alg.leq_table
    acc = alg.top
    best = alg.top
    witness = None
    for u in subs:
        au = aa.apply(u)
        for a in range(len(carrier)):
            d = it[it[js.degrees[a]][au.degrees[a]]][au.degrees[a]]
            acc = mt[acc][d]
            if d != best and lt[d][best]:
                best = d
                witness = (carrier.points[a], u.render())
    holds = acc == alg.top
    return LawReport(
        law="positivity",
        status=HOLDS if holds else FAILS,
        degree=alg.name(acc),
        witness=None if holds else witness,
    )
