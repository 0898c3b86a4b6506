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

The laws come in dual pairs, one for each side of the connection: AA
acting on the reductions, JJ on the saturations.  Each of antitone,
unit, triangle and union-to-meet runs both sides from one table
(_sides), which gives each side its label, its stock, the Galois map out
of it, the map back and the side's lattice pair.  The reduction (AA)
side runs first, except in unit, whose saturation side runs first.  The
two order-equivalence suites share one body, which reads the pair in
the opposite order for saturations.
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
    compat_degrees,
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
        aas = [AA(j) for j in reds]
        jjs = [JJ(a) for a in sats]
        for a, jj in zip(sats, jjs):
            for j, aa, d_compat in zip(reds, aas, compat_degrees(a, reds)):
                d_sat = op_incl_degree(a, aa)
                d_red = op_incl_degree(j, jj)
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


def _sides(sats, reds):
    """The two sides of the connection, reductions first.  Each is (label,
    stock, the Galois map out of the stock, the map back, its label, the
    join on the stock, the meet on the image)."""
    return (
        ("AA", reds, AA, JJ, "JJ", join_reductions, pointwise_meet),
        ("JJ", sats, JJ, AA, "AA", join_saturations, meet_reductions),
    )


def law_antitone(sats, reds):
    """incl(J1,J2) <= incl(AA(J2),AA(J1)) and dually, as internal degrees."""

    def gen():
        for label, stock, there, *_ in _sides(sats, reds):
            images = [there(o) for o in stock]
            for o1, img1 in zip(stock, images):
                for o2, img2 in zip(stock, images):
                    alg = o1.algebra
                    d = alg.imp(op_incl_degree(o1, o2), op_incl_degree(img2, img1))
                    yield f"{label}: ({o1.name or '?'}, {o2.name or '?'})", d == alg.top

    return _aggregate("antitone", gen())


def law_unit(sats, reds):
    """A in AA(JJ(A)) and J in JJ(AA(J)); the saturation side runs first."""

    def gen():
        for label, stock, there, back, back_label, *_ in reversed(_sides(sats, reds)):
            x = back_label[0]  # A for a saturation, J for a reduction
            for o in stock:
                ok = op_incl_degree(o, back(there(o))) == o.algebra.top
                yield f"{x} in {back_label}{label}({x}): {o.name or '?'}", ok

    return _aggregate("unit", gen())


def law_triangle(sats, reds):
    def gen():
        for label, stock, there, back, back_label, *_ in _sides(sats, reds):
            for o in stock:
                image = there(o)
                ok = op_eq(there(back(image)), image)
                yield f"{label}{back_label}{label} = {label}: {o.name or '?'}", ok

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
        for label, stock, there, _, _, join, meet in _sides(sats, reds):
            images = [there(o) for o in stock]
            for i, (o1, img1) in enumerate(zip(stock, images)):
                for o2, img2 in zip(stock[i:], images[i:]):
                    lhs = there(join([o1, o2]))
                    rhs = meet([img1, img2])
                    yield f"{label}: ({o1.name or '?'}, {o2.name or '?'})", op_eq(lhs, rhs)

    return _aggregate("union-to-meet", gen())


def _memo_compat():
    """compat_degree, memoized on the operators' identities."""
    memo = {}

    def cd(x, y):
        key = (id(x), id(y))
        if key not in memo:
            memo[key] = compat_degree(x, y)
        return memo[key]

    return cd


def law_compat_union(ops):
    """compat(O,O1) /\\ compat(O,O2) <= compat(O, O1 v O2), and the
    mirror-image law for joins on the left."""

    def gen():
        cd = _memo_compat()
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
        cd = _memo_compat()
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


def _order_equivalences(law, ops, swap):
    """For each pair (O1, O2), with (X, Y) = (O1, O2), or (O2, O1) when
    ``swap``: incl(O1, O2), XY = X, YX = X and Fix(X) in Fix(Y) carry one
    degree."""

    def gen():
        for o1 in ops:
            alg = o1.algebra
            subs = hset.enumerate_all(alg, o1.carrier)
            for o2 in ops:
                x, y = (o2, o1) if swap else (o1, o2)
                d1 = op_incl_degree(o1, o2)
                d2 = op_eq_degree(compose(x, y), x)
                d3 = op_eq_degree(compose(y, x), x)
                d4 = alg.big_meet(
                    alg.imp(_fix_degree(x, u), _fix_degree(y, u)) for u in subs
                )
                yield (
                    f"({o1.name or '?'}, {o2.name or '?'})",
                    d1 == d2 == d3 == d4,
                )

    return _aggregate(law, gen())


def law_sat_order_equivalences(sats):
    """A1 in A2, A2A1 = A2, A1A2 = A2 and Fix(A2) in Fix(A1) carry one
    degree for every saturation pair."""
    return _order_equivalences("sat-order-equivalences", sats, swap=True)


def law_red_order_equivalences(reds):
    """J1 in J2, J1J2 = J1, J2J1 = J1 and Fix(J1) in Fix(J2), dually."""
    return _order_equivalences("red-order-equivalences", reds, swap=False)


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
