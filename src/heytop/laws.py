"""Quantified law suites over stocks of operators.

Each suite evaluates one of the source calculus' proved lemmas as an
internal truth degree, instance by instance over the supplied operator
stock, and aggregates into a single LawReport.  A law instance holds when
its degree is top; since the lemmas are proved intuitionistically, any
sub-top degree is a defect to investigate, never a tolerance to widen.

The suite ids understood by the CLI `laws` command:

    galois          three-way coincidence of [A in AA(J)], [A compat J],
                    [J in JJ(A)] over all saturation/reduction pairs
    positivity      ((a in J S -> a in AA(J) U) -> a in AA(J) U) = top
    antitone        AA and JJ reverse the inclusion order, internally
    unit            A in AA(JJ(A)) and J in JJ(AA(J)) at degree top
    triangle        AA JJ AA = AA and JJ AA JJ = JJ, extensionally
    union-to-meet   AA(J1 v J2) = AA(J1) /\\ AA(J2), dually for JJ

`compat-union` and `trentinaglia` and the order-equivalence suites are
exposed for the test suites; they quantify over arbitrary operators.
"""

from __future__ import annotations

import random

from . import hset
from .galois import (
    AA,
    JJ,
    join_reductions,
    join_saturations,
    meet_reductions,
    positivity_law,
)
from .optable import (
    compat_degree,
    compose,
    op_eq,
    op_eq_degree,
    op_incl_degree,
    pointwise_join,
    pointwise_meet,
)
from .reports import LawReport, HOLDS, FAILS, NO_COUNTEREXAMPLE


def _aggregate(law, instances):
    """Run (description, ok) pairs; report the first failure."""
    count = 0
    for description, ok in instances:
        count += 1
        if not ok:
            return LawReport(
                law=law,
                status=FAILS,
                witness=(description,),
                details={"instances": str(count)},
            )
    return LawReport(law=law, status=HOLDS, details={"instances": str(count)})


def law_galois(sats, reds):
    def gen():
        aas = {id(j): AA(j) for j in reds}
        jjs = {id(a): JJ(a) for a in sats}
        for a in sats:
            for j in reds:
                d_compat = compat_degree(a, j)
                d_sat = op_incl_degree(a, aas[id(j)])
                d_red = op_incl_degree(j, jjs[id(a)])
                yield (
                    f"({a.name or '?'}, {j.name or '?'})",
                    d_sat == d_compat == d_red,
                )

    return _aggregate("galois", gen())


def law_positivity(reds):
    def gen():
        for j in reds:
            rep = positivity_law(j)
            yield j.name or "?", rep.ok

    return _aggregate("positivity", gen())


def law_antitone(sats, reds):
    """incl(J1,J2) <= incl(AA(J2),AA(J1)) and dually, as internal degrees."""
    instances = []
    aas = {id(j): AA(j) for j in reds}
    for j1 in reds:
        for j2 in reds:
            alg = j1.algebra
            d = alg.imp(
                op_incl_degree(j1, j2),
                op_incl_degree(aas[id(j2)], aas[id(j1)]),
            )
            instances.append((f"AA: ({j1.name or '?'}, {j2.name or '?'})", d == alg.top))
    jjs = {id(a): JJ(a) for a in sats}
    for a1 in sats:
        for a2 in sats:
            alg = a1.algebra
            d = alg.imp(
                op_incl_degree(a1, a2),
                op_incl_degree(jjs[id(a2)], jjs[id(a1)]),
            )
            instances.append((f"JJ: ({a1.name or '?'}, {a2.name or '?'})", d == alg.top))
    return _aggregate("antitone", instances)


def law_unit(sats, reds):
    def gen():
        for a in sats:
            alg = a.algebra
            d = op_incl_degree(a, AA(JJ(a)))
            yield f"A in AAJJ(A): {a.name or '?'}", d == alg.top
        for j in reds:
            alg = j.algebra
            d = op_incl_degree(j, JJ(AA(j)))
            yield f"J in JJAA(J): {j.name or '?'}", d == alg.top

    return _aggregate("unit", gen())


def law_triangle(sats, reds):
    def gen():
        for j in reds:
            aa = AA(j)
            yield f"AAJJAA = AA: {j.name or '?'}", op_eq(AA(JJ(aa)), aa)
        for a in sats:
            jj = JJ(a)
            yield f"JJAAJJ = JJ: {a.name or '?'}", op_eq(JJ(AA(jj)), jj)

    return _aggregate("triangle", gen())


def law_union_to_meet(sats, reds):
    """AA of a RED-join is the pointwise meet of the AAs; JJ of a SAT-join
    is the RED-meet of the JJs.

    Joins of reductions and meets of saturations are pointwise, so the AA
    half is a plain extensional equality.  Joins of saturations and meets
    of reductions are lattice operations that differ from the pointwise
    ones (the pointwise candidates can fail idempotence), so the JJ half
    uses join_saturations and meet_reductions.
    """

    def gen():
        aas = [AA(j) for j in reds]
        for i, (j1, aa1) in enumerate(zip(reds, aas)):
            for j2, aa2 in zip(reds[i:], aas[i:]):
                joined = join_reductions([j1, j2])
                lhs = AA(joined)
                rhs = pointwise_meet([aa1, aa2])
                yield f"AA: ({j1.name or '?'}, {j2.name or '?'})", op_eq(lhs, rhs)
        jjs = [JJ(a) for a in sats]
        for i, (a1, jj1) in enumerate(zip(sats, jjs)):
            for a2, jj2 in zip(sats[i:], jjs[i:]):
                joined = join_saturations([a1, a2])
                lhs = JJ(joined)
                rhs = meet_reductions([jj1, jj2])
                yield f"JJ: ({a1.name or '?'}, {a2.name or '?'})", op_eq(lhs, rhs)

    return _aggregate("union-to-meet", gen())


def law_compat_union(ops):
    """compat(O,O1) /\\ compat(O,O2) <= compat(O, O1 v O2), and the
    mirror-image law for joins on the left."""

    def gen():
        memo = {}

        def cd(x, y):
            key = (id(x), id(y))
            if key not in memo:
                memo[key] = compat_degree(x, y)
            return memo[key]

        for o in ops:
            alg = o.algebra
            for i, o1 in enumerate(ops):
                for o2 in ops[i:]:
                    joined = pointwise_join([o1, o2])
                    lhs = alg.meet(cd(o, o1), cd(o, o2))
                    ok = alg.leq(lhs, compat_degree(o, joined))
                    yield f"right: ({o.name}, {o1.name}, {o2.name})", ok
                    lhs2 = alg.meet(cd(o1, o), cd(o2, o))
                    ok2 = alg.leq(lhs2, compat_degree(joined, o))
                    yield f"left: ({o1.name}, {o2.name}, {o.name})", ok2

    return _aggregate("compat-union", gen())


def law_trentinaglia(ops):
    """The three compatibility-shrinking laws, as internal degrees:
    1. incl(O'',O) /\\ compat(O,O') <= compat(O'',O')
    2. compat(O,O') /\\ compat(O'',O') <= compat(OO'',O')
    3. compat(O,O') <= compat(O,O'O'')
    """

    def gen():
        memo = {}

        def cd(x, y):
            key = (id(x), id(y))
            if key not in memo:
                memo[key] = compat_degree(x, y)
            return memo[key]

        for o in ops:
            alg = o.algebra
            for o1 in ops:
                base = cd(o, o1)
                for o2 in ops:
                    lhs1 = alg.meet(op_incl_degree(o2, o), base)
                    ok1 = alg.leq(lhs1, cd(o2, o1))
                    yield f"shrink-left: ({o.name},{o1.name},{o2.name})", ok1
                    lhs2 = alg.meet(base, cd(o2, o1))
                    ok2 = alg.leq(lhs2, compat_degree(compose(o, o2), o1))
                    yield f"compose-left: ({o.name},{o1.name},{o2.name})", ok2
                    ok3 = alg.leq(base, compat_degree(o, compose(o1, o2)))
                    yield f"compose-right: ({o.name},{o1.name},{o2.name})", ok3

    return _aggregate("trentinaglia", gen())


def _fix_degree(op, u):
    return hset.eq_degree(op.apply(u), u)


def law_sat_order_equivalences(sats):
    """A1 in A2, A2A1 = A2, A1A2 = A2 and Fix(A2) in Fix(A1) carry one
    degree for every saturation pair."""

    def gen():
        for a1 in sats:
            alg = a1.algebra
            subs = hset.enumerate_all(alg, a1.carrier)
            for a2 in sats:
                d1 = op_incl_degree(a1, a2)
                d2 = op_eq_degree(compose(a2, a1), a2)
                d3 = op_eq_degree(compose(a1, a2), a2)
                d4 = alg.big_meet(
                    alg.imp(_fix_degree(a2, u), _fix_degree(a1, u)) for u in subs
                )
                yield (
                    f"({a1.name or '?'}, {a2.name or '?'})",
                    d1 == d2 == d3 == d4,
                )

    return _aggregate("sat-order-equivalences", gen())


def law_red_order_equivalences(reds):
    """J1 in J2, J1J2 = J1, J2J1 = J1 and Fix(J1) in Fix(J2), dually."""

    def gen():
        for j1 in reds:
            alg = j1.algebra
            subs = hset.enumerate_all(alg, j1.carrier)
            for j2 in reds:
                d1 = op_incl_degree(j1, j2)
                d2 = op_eq_degree(compose(j1, j2), j1)
                d3 = op_eq_degree(compose(j2, j1), j1)
                d4 = alg.big_meet(
                    alg.imp(_fix_degree(j1, u), _fix_degree(j2, u)) for u in subs
                )
                yield (
                    f"({j1.name or '?'}, {j2.name or '?'})",
                    d1 == d2 == d3 == d4,
                )

    return _aggregate("red-order-equivalences", gen())


SUITES = {
    "galois": law_galois,
    "positivity": lambda sats, reds: law_positivity(reds),
    "antitone": law_antitone,
    "unit": law_unit,
    "triangle": law_triangle,
    "union-to-meet": law_union_to_meet,
}


def run_suite(suite, sats, reds):
    try:
        runner = SUITES[suite]
    except KeyError:
        raise KeyError(
            f"unknown law suite {suite!r}; known: {', '.join(SUITES)}"
        ) from None
    return runner(list(sats), list(reds))


def random_subset(algebra, carrier, rng):
    return hset.HSubset(
        algebra, carrier, tuple(rng.randrange(len(algebra)) for _ in carrier.points)
    )


def sampled_compat_search(o1, o2, sample_count, seed):
    """Randomized counterexample search for compatibility above the cap.

    Samples (U, V) pairs and checks the single-instance implication; never
    produces a degree, only a counterexample or the absence of one.
    """
    alg = o1.algebra
    rng = random.Random(seed)
    for _ in range(sample_count):
        u = random_subset(alg, o1.carrier, rng)
        v = random_subset(alg, o1.carrier, rng)
        o2v = o2.apply(v)
        d = alg.imp(hset.overlap(o1.apply(u), o2v), hset.overlap(u, o2v))
        if d != alg.top:
            return LawReport(
                law="compat-sampled",
                status=FAILS,
                degree=alg.name(d),
                witness=(u.render(), v.render()),
                details={"seed": str(seed), "samples": str(sample_count)},
            )
    return LawReport(
        law="compat-sampled",
        status=NO_COUNTEREXAMPLE,
        details={"seed": str(seed), "samples": str(sample_count)},
    )
