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
other subset bot; JJ(A) weighs Z by splits(Z, A) (optable.splits_vector);
gen.generate_sat and gen.generate_red (within the cap, in every algebra)
weigh by the axiom-set's fulfilling and splitting degrees.  AA(J), the greatest
saturation compatible with the reduction J, is one code path with LL.

Neither formula scans pairs (U, P) or (Z, V), and neither do LL, the
splits vector, the compatibility degrees, monotonicity and the operator
orders (optable).  Each is a sweep of the hset.Space over the pointwise
order, down(seed)[V] = join of seed[W] over W <= V or up(seed)[U] = meet
of seed[W] over W >= U, or a single read of the planes, and a pass over
the ranks or over an operator's image.
With c ranging over the join-irreducible elements, d over the
meet-irreducible ones:

    1. weighted_reduction   J = down of the seed {c /\\ Z : c <= w(Z)}
    2. weighted_saturation  A = up of the seed {c -> P : c <= w(P)}
    3. splits(W, O) = meet over d of (G(W -> d) over W) -> d,
       where G = down(O U at each U)
    4. LL(O) U (a) = meet over d of K(U -> d)(a) -> d,
       where K = down(W at each W in the image of O)
    5. compat(O1, O2) = meet over W in the image of O2 of splits(W, O1)
    6. weak_compat(O1, O2) = not join over W in the image of O2 and c of
       c /\\ (G(c -> not W) over W), where G = down(O1 U at each U)
    7. O is monotone iff up(O) = O, where up(O) = up(O U at each U)
    8. meet over U of incl(O1 U, O2 U) = incl of the OR over U of the
       planes of O1 U & ~O2 U

Proofs.  (1) incl(c /\\ Z, V) = c -> incl(Z, V), so c /\\ Z <= V iff
c <= incl(Z, V): with t = incl(Z, V) /\\ w(Z), the term t /\\ Z of Z at V
is the join of the seed entries c /\\ Z over the c <= t, and each seed
entry below V lies below a term.  (2) Dually, incl(U, c -> P) =
c -> incl(U, P), so U <= c -> P iff c <= incl(U, P), and the term t -> P
is the meet of the entries c -> P over the c <= t.  (3) x -> y is the
meet of x -> d over the d >= y, and (U over W) <= d iff U <= W -> d; so
the U with (U over W) <= d are those below W -> d, and overlap
distributes over their join.  (4) Likewise, (U over O V) <= d iff
O V <= U -> d.  (5) Each instance of compat reads V only through
W = O2 V, and at a fixed W the meet over U of its instances is
splits(W, O1) by definition.  (6) not a -> not b = not(not a /\\ b), and
meets of negations are negations of joins, so weak_compat is not the
join over U and W of not(U over W) /\\ (O1 U over W).  Here
not(U over W) = incl(U, not W), the join of the c below it, and
c <= incl(U, not W) iff U <= c -> not W; so for each c the U in question
are those below c -> not W, and overlap distributes over their join,
G(c -> not W).  (7) up(O)[U] <= O U, W = U being a term of the meet,
and O U <= up(O)[U] iff O U <= O W for every W >= U; so up(O) = O iff O
is monotone, and the first U where they differ is the first U of a pair
U <= V with O U !<= O V.  (8) D(incl(U, V)) is the set of
join-irreducibles above no bad one, bad meaning that the plane of
U & ~V is not 0 there (hset.Space).  A plane of an OR is not 0 iff a
plane of some term is, so the bad set of the OR is the union of the bad
sets, and the join-irreducibles above none of the union are the
intersection of the D sets: D of the meet.  incl is top iff nothing is
bad, so O1 <= O2 pointwise iff that OR is 0; and eq being incl both
ways, the meet over U of eq(O1 U, O2 U) is incl of the OR of the planes
of O1 U ^ O2 U = (O1 U & ~O2 U) | (O2 U & ~O1 U).  All eight hold
intuitionistically.  In Boolean mode c is top and d bot: splits(W) is
top iff G(not W) misses W, LL(O) U = not K(not U), and weak_compat
equals compat, both top iff G(not W) misses W for every W in the image
of O2.

AA and JJ form an antitone Galois connection:
A included in AA(J), A compatible with J, and J included in JJ(A) all
carry the same truth degree, which galois_check reports.
"""

from __future__ import annotations

from . import hset, optable
from .errors import CertificateFailure
from .optable import Operator, OperatorProfile, classify, LL, splits_vector
from .reports import LawReport, HOLDS, FAILS

BY_CONSTRUCTION = "by-construction"


class _Certified(Operator):
    """Operator whose constructor verifies a required profile subset."""

    __slots__ = ("certificate",)

    REQUIRED = ()

    def __init__(
        self, algebra, carrier, fn, name=None, *,
        trusted=False, ranks=None, rule=None, profile=None,
    ):
        """``ranks`` and ``rule`` as for Operator; ``profile`` is classify's
        verdict on this very rank table, when the caller has it already."""
        super().__init__(algebra, carrier, fn, name=name, ranks=ranks, rule=rule)
        if trusted:
            self.certificate = BY_CONSTRUCTION
        else:
            self.certificate = self._check(profile)

    def _check(self, profile):
        if profile is None:
            profile = classify(self)
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

    def re_verify(self):
        """Run classify afresh and confirm the certificate still holds."""
        profile = classify(self)
        return all(getattr(profile, f).holds for f in self.REQUIRED)

    @classmethod
    def certify(cls, op, *, name=None, profile=None):
        """Wrap an existing operator, verifying its profile.

        A tabulated operator hands over its rank table, and an untabulated
        one its rank-table rule, so nothing is applied again; ``profile``,
        classify's verdict on op, spares the second classify.
        """
        return cls(
            op.algebra,
            op.carrier,
            op.apply,
            name=name or op.name,
            ranks=op._ranks,
            rule=op._rule,
            profile=profile,
        )


def profile_of(op):
    """classify's profile of op: its certificate when that is a verified
    profile (the certificate holds for op's own rank table), else a fresh
    classify.  CapExceeded either way when the space is above the subset cap
    in force, so a command answers or refuses alike whether op was certified
    or not."""
    if isinstance(getattr(op, "certificate", None), OperatorProfile):
        hset.check_cap(op.algebra, op.carrier)
        return op.certificate
    return classify(op)


class Saturation(_Certified):
    """An operator certified monotone + idempotent + expansive."""

    __slots__ = ()

    REQUIRED = ("monotone", "idempotent", "expansive")


class Reduction(_Certified):
    """An operator certified monotone + idempotent + contractive."""

    __slots__ = ()

    REQUIRED = ("monotone", "idempotent", "contractive")


def from_family_sat(family, *, algebra=None, carrier=None, name=None):
    """Saturation generated by a family:
    A_P U (a) = meet over V in P of  incl(U, V) -> V(a).

    Boolean mode reads as: intersect the members that contain U.  A_P
    fixes every member and, among saturations doing so, is the greatest
    in the pointwise order (equivalently: its fixed points are exactly
    the closure of the family under intersections).  The empty family
    gives the top operator.
    """
    family = list(family)
    sp, weights = _family_weights(family, algebra, carrier)
    if name is None:
        name = "A_P[" + ",".join(v.render() for v in family) + "]"
    return weighted_saturation(sp, weights, name=name)


def from_family_red(family, *, algebra=None, carrier=None, name=None):
    """Greatest reduction fixing every member of the family:
    J_P U (a) = join over V in P of  incl(V, U) /\\ V(a).

    The empty family gives the bot operator.
    """
    family = list(family)
    sp, weights = _family_weights(family, algebra, carrier)
    if name is None:
        name = "J_P[" + ",".join(v.render() for v in family) + "]"
    return weighted_reduction(sp, weights, name=name)


def _family_weights(family, algebra, carrier):
    """The family's Space and its weights: top at each member's rank, else bot."""
    algebra, carrier = hset.family_context(family, algebra, carrier)
    sp = hset.space(algebra, carrier)
    weights = [algebra.bot] * len(sp.subs)
    for v in family:
        weights[hset.subset_rank(v)] = algebra.top
    return sp, weights


def AA(red, *, name=None):
    """Greatest saturation compatible with the given reduction: LL(J)."""
    op = LL(red)
    if name is None:
        name = f"AA({red.name or '?'})"
    return Saturation.certify(op, name=name)


def JJ(sat, *, name=None):
    """Greatest reduction compatible with the given operator.

    Accepts any operator (the splitting formula never needs the argument
    to be a saturation), which is what the union-to-meet law exploits.
    """
    sp = hset.space(sat.algebra, sat.carrier)
    if name is None:
        name = f"JJ({sat.name or '?'})"
    return weighted_reduction(sp, splits_vector(sat), name=name)


def weighted_saturation(space, weights, *, name=None):
    """The saturation  A U (a) = meet over P of (incl(U, P) /\\ w(P)) -> P(a),
    given one weight w(P) per rank of P in the hset.Space.

    Any weights give a saturation; A_P takes w = top on the family, the
    generated saturation w(P) = fulfills(P).  Computed as one up sweep of
    the seed {c -> P : c <= w(P)} (see the module docstring).
    """
    ranks = space.ranks(space.up(space.saturation_seed(weights)))
    return Saturation(
        space.algebra, space.carrier, None, name=name, ranks=ranks
    )


def weighted_reduction(space, weights, *, name=None):
    """The reduction  J V (a) = join over Z of incl(Z, V) /\\ w(Z) /\\ Z(a),
    given one weight w(Z) per rank of Z in the hset.Space.

    Any weights give a reduction; J_P takes w = top on the family, JJ(A)
    w(Z) = splits(Z, A), the generated reduction the axiom-set's splitting
    degree.  Computed as one down sweep of the seed {c /\\ Z : c <= w(Z)}
    (see the module docstring).
    """
    ranks = space.ranks(space.down(space.reduction_seed(weights)))
    return Reduction(
        space.algebra, space.carrier, None, name=name, ranks=ranks
    )


def meet_saturations(sats, *, algebra=None, carrier=None, name=None):
    """Pointwise meet, re-certified; the empty meet is the top saturation.

    This is the meet in SAT(S): saturations form a sub-inflattice of the
    operator lattice, so the pointwise meet is already a saturation.
    """
    op = optable.pointwise_meet(sats, algebra=algebra, carrier=carrier, name=name)
    return Saturation.certify(op)


def join_reductions(reds, *, algebra=None, carrier=None, name=None):
    """Pointwise join, re-certified; the empty join is the bot reduction.

    This is the join in RED(S): reductions form a sub-suplattice.
    """
    op = optable.pointwise_join(reds, algebra=algebra, carrier=carrier, name=name)
    return Reduction.certify(op)


def join_saturations(sats, *, algebra=None, carrier=None, name=None):
    """Join in SAT(S): the least saturation above every member.

    Unlike meets, joins of saturations are not pointwise (the pointwise
    union need not be idempotent); the join is generated from the family
    of subsets fixed by every member.  The empty join is the identity,
    the bottom of SAT(S).
    """
    sats = list(sats)
    algebra, carrier = hset.family_context(sats, algebra, carrier)
    fam = _common_fixed_points(sats, algebra, carrier)
    return from_family_sat(fam, algebra=algebra, carrier=carrier, name=name)


def meet_reductions(reds, *, algebra=None, carrier=None, name=None):
    """Meet in RED(S): the greatest reduction below every member.

    Dually to join_saturations this is not pointwise; it is generated from
    the commonly fixed subsets.  The empty meet is the identity, the top
    of RED(S).
    """
    reds = list(reds)
    algebra, carrier = hset.family_context(reds, algebra, carrier)
    fam = _common_fixed_points(reds, algebra, carrier)
    return from_family_red(fam, algebra=algebra, carrier=carrier, name=name)


def _common_fixed_points(ops, algebra, carrier):
    """The subsets every operator fixes, read from the rank tables."""
    subs = hset.enumerate_all(algebra, carrier)
    tables = [o.rank_table() for o in ops]
    return [u for r, u in enumerate(subs) if all(t[r] == r for t in tables)]


def galois_check(sat, red):
    """Report the three degrees [A in AA(J)], [A compat J], [J in JJ(A)].

    The Galois law holds exactly when the three coincide as elements.
    """
    alg = sat.algebra
    d_compat, wit = optable.compat_witness(sat, red)
    d_sat = optable.op_incl_degree(sat, AA(red))
    d_red = optable.op_incl_degree(red, JJ(sat))
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


def positivity_law(red):
    """Degree of  ((a in J S -> a in AA(J) U) -> a in AA(J) U)  over all (a, U).

    Proved intuitionistically for every reduction, so the report must come
    back with degree top; anything below top is a defect.  Each instance
    reads U only through AA(J) U, so U ranges over the image of AA(J), each
    output at its first input.  That is exact, witness included: a repeated
    output repeats instance degrees met earlier, which never fall strictly
    below the running lowest degree.
    """
    alg = red.algebra
    carrier = red.carrier
    subs = hset.enumerate_all(alg, carrier)
    aa = AA(red)
    js = red.apply(hset.full(alg, carrier))
    mt, it = alg.meet_table, alg.imp_table
    lt = alg.leq_table
    acc = alg.top
    best = alg.top
    witness = None
    for v, w in optable._image(aa.rank_table()):
        au = subs[w]
        for a in range(len(carrier)):
            d = it[it[js.degrees[a]][au.degrees[a]]][au.degrees[a]]
            acc = mt[acc][d]
            if d != best and lt[d][best]:
                best = d
                witness = (carrier.points[a], subs[v].render())
    holds = acc == alg.top
    return LawReport(
        law="positivity",
        status=HOLDS if holds else FAILS,
        degree=alg.name(acc),
        witness=None if holds else witness,
    )
