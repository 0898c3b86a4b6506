"""Axiom-set generated basic topologies.

An axiom-set gives, for each point a, a finite list of covers C(a,i).
A subset P fulfills the axioms when every included cover forces its
point in; Z splits them when every point of Z overlaps each of its
covers.  The generated saturation is the least fixed point adding points
whose cover is included; the generated reduction is the greatest
splitting subset below the argument, obtained by downward iteration.

Within the subset cap in force both are the weighted-family formulas of
galois over the hset.Space, in every algebra: galois.weighted_saturation
weighted by the fulfilling degree and galois.weighted_reduction by the
splitting degree.  The AxiomSet keeps both weight vectors, each read
from the planes in one pass per axiom (fulfills_degree and
splits_axioms_degree give single degrees, the same values).  A Boolean
space above the cap is iterated directly instead, in one worklist
(_boolean_fixpoint) that never enumerates the subset space, so it scales
to large sparse carriers; it serves only those spaces.

Covers optionally carry a weight (an algebra element, top by default);
weights only matter for the axiom-sets extracted from a saturation in
non-Boolean mode, where the cover (a, U) contributes at strength A(U)(a).
"""

from __future__ import annotations

from . import hset
from .errors import ContextMismatch
from .galois import Saturation, Reduction, weighted_reduction, weighted_saturation
from .hset import HSubset


class AxiomSet:
    """Per-point families of covers; I(a) may be empty for any point."""

    __slots__ = ("algebra", "carrier", "axioms", "_fulfills", "_splits")

    def __init__(self, algebra, carrier, axioms):
        checked = []
        for point, cover, *rest in axioms:
            weight = rest[0] if rest else algebra.top
            if cover.algebra is not algebra or cover.carrier is not carrier:
                raise ContextMismatch("cover lives over a different context")
            if isinstance(point, str):
                point = carrier.index(point)
            checked.append((point, cover, weight))
        self.algebra = algebra
        self.carrier = carrier
        self.axioms = tuple(checked)
        self._fulfills = None
        self._splits = None

    @classmethod
    def from_covers(cls, algebra, carrier, covers):
        """Build from a mapping point name -> list of cover subsets."""
        axioms = []
        for point, cover_list in covers.items():
            for cover in cover_list:
                axioms.append((point, cover))
        return cls(algebra, carrier, axioms)

    def __repr__(self):
        return f"AxiomSet({len(self.axioms)} covers on {len(self.carrier)} points)"


def fulfills_degree(p, ax):
    """Meet over axioms (a, i) of  weight /\\ incl(C(a,i), P) -> P(a)."""
    if p.algebra is not ax.algebra or p.carrier is not ax.carrier:
        raise ContextMismatch("subset and axiom-set live over different contexts")
    alg = ax.algebra
    mt, it = alg.meet_table, alg.imp_table
    acc = alg.top
    for point, cover, weight in ax.axioms:
        d = it[mt[weight][hset.incl(cover, p)]][p.degrees[point]]
        acc = mt[acc][d]
        if acc == alg.bot:
            break
    return acc


def splits_axioms_degree(z, ax):
    """Meet over axioms (a, i) of  weight /\\ Z(a) -> overlap(C(a,i), Z)."""
    if z.algebra is not ax.algebra or z.carrier is not ax.carrier:
        raise ContextMismatch("subset and axiom-set live over different contexts")
    alg = ax.algebra
    mt, it = alg.meet_table, alg.imp_table
    acc = alg.top
    for point, cover, weight in ax.axioms:
        d = it[mt[weight][z.degrees[point]]][hset.overlap(cover, z)]
        acc = mt[acc][d]
        if acc == alg.bot:
            break
    return acc


def generate_sat(ax, *, name=None):
    """The saturation A_{I,C} generated inductively by the axiom-set:
    A U (a) = meet over P of (incl(U,P) /\\ fulfills(P)) -> P(a).

    A Boolean space above the cap takes the least fixed point by worklist
    iteration, at any size (it never enumerates the subset space; the
    result provably equals the meet over fulfilling supersets).
    """
    if name is None:
        name = "A_gen"
    if _worklist(ax):
        return _boolean_fixpoint(ax, Saturation, name)
    sp = hset.space(ax.algebra, ax.carrier)
    if ax._fulfills is None:
        ax._fulfills = _fulfills_weights(ax, sp)
    return weighted_saturation(sp, ax._fulfills, name=name)


def generate_red(ax, *, name=None):
    """The reduction J_{I,C} generated coinductively by the axiom-set:
    J V (a) = join over Z of incl(Z,V) /\\ splits(Z) /\\ Z(a).

    A Boolean space above the cap takes the greatest fixed point by
    downward iteration, deleting points with a cover missing the current
    set (equals the union of splitting subsets below V).
    """
    if name is None:
        name = "J_gen"
    if _worklist(ax):
        return _boolean_fixpoint(ax, Reduction, name)
    sp = hset.space(ax.algebra, ax.carrier)
    if ax._splits is None:
        ax._splits = _splits_weights(ax, sp)
    return weighted_reduction(sp, ax._splits, name=name)


def _worklist(ax):
    """Whether generation takes the Boolean worklist: a Boolean space above
    the subset cap in force, where the weighted formulas cannot enumerate."""
    return ax.algebra.is_boolean and not hset.within_cap(ax.algebra, ax.carrier)


def _fulfills_weights(ax, sp):
    """fulfills_degree at every rank of P, one pass per axiom (a, C, w) over
    the planes: incl(C, P) is Space.incl of the planes of C & ~P."""

    def term(c, col):
        bad = [c & ~p for p in sp.planes]
        incl = {x: sp.incl(x) for x in set(bad)}
        return map(incl.__getitem__, bad), col

    return _axiom_weights(ax, sp, term)


def _splits_weights(ax, sp):
    """splits_axioms_degree at every rank of Z, one pass per axiom (a, C, w)
    over the planes: overlap(C, Z) is Space.support of the planes of C & Z."""

    def term(c, col):
        meet = [c & z for z in sp.planes]
        support = {x: sp.support(x) for x in set(meet)}
        return col, map(support.__getitem__, meet)

    return _axiom_weights(ax, sp, term)


def _axiom_weights(ax, sp, term):
    """The meet over axioms (a, C, w) of  w /\\ x -> y  at every rank, where
    term(planes of C, the degrees at a) gives the x and the y of each rank."""
    alg = ax.algebra
    mt, it = alg.meet_table, alg.imp_table
    acc = [alg.top] * len(sp.planes)
    for point, cover, weight in ax.axioms:
        col = [u.degrees[point] for u in sp.subs]
        xs, ys = term(sp.planes[hset.subset_rank(cover)], col)
        wt = mt[weight]
        acc = [mt[s][it[wt[x]][y]] for s, x, y in zip(acc, xs, ys)]
    return tuple(acc)


def _boolean_fixpoint(ax, kind, name):
    """Boolean generation by worklist, for kind Saturation or Reduction.

    The saturation adds each point one of whose covers lies inside the
    current set, until no cover adds one.  The reduction deletes each point
    one of whose covers misses the current set; a cover misses the set
    exactly when it lies inside the complement, so the reduction is the
    same growth run on the complement of its argument, complemented back.
    Covers weighted below top drop out.  It runs only above the subset cap
    in force, so the result is trusted by construction, since classify
    cannot enumerate it.
    """
    alg = ax.algebra
    carrier = ax.carrier
    top, bot = alg.top, alg.bot
    axioms = [
        (point, frozenset(i for i, d in enumerate(cover.degrees) if d == top))
        for point, cover, weight in ax.axioms
        if weight == top
    ]
    grow = kind is Saturation  # else grow the complement

    def fn(u):
        cur = {i for i, d in enumerate(u.degrees) if (d == top) == grow}
        changed = True
        while changed:
            changed = False
            for point, cover in axioms:
                if point not in cur and cover <= cur:
                    cur.add(point)
                    changed = True
        return HSubset(
            alg, carrier, (top if (i in cur) == grow else bot for i in range(len(carrier)))
        )

    return kind(alg, carrier, fn, name=name, trusted=True)


def axioms_from_saturation(sat):
    """Extract an axiom-set whose generated saturation reproduces the input.

    Boolean mode takes as covers of a exactly the U with a in A(U), so the
    round trip generate_sat(axioms_from_saturation(A)) = A is exact.  Over
    larger algebras every pair (a, U) becomes a cover weighted by A(U)(a).
    """
    alg = sat.algebra
    carrier = sat.carrier
    subs = hset.enumerate_all(alg, carrier)
    axioms = []
    for u in subs:
        out = sat.apply(u)
        for a in range(len(carrier)):
            w = out.degrees[a]
            if w == alg.bot:
                continue
            if alg.is_boolean and w != alg.top:
                continue
            axioms.append((a, u, w))
    return AxiomSet(alg, carrier, axioms)
