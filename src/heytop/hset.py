"""Truth-degree-valued subsets of a finite carrier.

An HSubset assigns an algebra element to every carrier point.  Over the
two-element algebra these are literal subsets; over larger algebras they
carry intuitionistic membership degrees.  Values are immutable; all
operations are pure.

Enumeration order is lexicographic over (point index, algebra element
index), i.e. itertools.product order, and is fixed so that golden tests
and report output stay stable.

Enumerating a subset space is bounded by one cap, the subset cap in force:
DEFAULT_SUBSET_CAP unless a ``subset_cap(n)`` block sets another.  Every
quantified computation of the library reads its space through ``space``
(or ``enumerate_all``), which raises CapExceeded above that cap; no other
function takes or passes a cap.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import operator

from .errors import CapExceeded, ContextMismatch

DEFAULT_SUBSET_CAP = 4096

_cap_in_force = contextvars.ContextVar("subset_cap", default=DEFAULT_SUBSET_CAP)


class Carrier:
    """A finite set of named points.  May be empty.

    ``_space`` caches the Space of the last algebra the carrier was
    enumerated with (see ``space``), so it lives exactly as long as the
    carrier does.
    """

    __slots__ = ("points", "_index", "_space")

    def __init__(self, points):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValueError("duplicate point names")
        self.points = points
        self._index = {p: i for i, p in enumerate(points)}
        self._space = None

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown point {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"Carrier({', '.join(self.points)})"


class HSubset:
    """A vector of truth degrees over a carrier.

    ``degrees`` holds algebra element indices, one per carrier point.
    Equality and hashing are extensional within one (algebra, carrier)
    context; values from different contexts never compare equal.
    """

    __slots__ = ("algebra", "carrier", "degrees")

    def __init__(self, algebra, carrier, degrees):
        degrees = tuple(degrees)
        if len(degrees) != len(carrier):
            raise ValueError("degree vector length differs from carrier size")
        self.algebra = algebra
        self.carrier = carrier
        self.degrees = degrees

    def __eq__(self, other):
        if not isinstance(other, HSubset):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.carrier is other.carrier
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((id(self.algebra), id(self.carrier), self.degrees))

    def __repr__(self):
        return f"HSubset({self.render()})"

    def degree_of(self, point):
        """Element name of the membership degree at a named point."""
        return self.algebra.name(self.degrees[self.carrier.index(point)])

    def leq(self, other):
        """Pointwise order: self(a) <= other(a) at every point."""
        _same_context(self, other)
        lt = self.algebra.leq_table
        return all(lt[x][y] for x, y in zip(self.degrees, other.degrees))

    def union(self, other):
        _same_context(self, other)
        jt = self.algebra.join_table
        return HSubset(
            self.algebra,
            self.carrier,
            (jt[x][y] for x, y in zip(self.degrees, other.degrees)),
        )

    def intersection(self, other):
        _same_context(self, other)
        mt = self.algebra.meet_table
        return HSubset(
            self.algebra,
            self.carrier,
            (mt[x][y] for x, y in zip(self.degrees, other.degrees)),
        )

    def pseudo_complement(self):
        alg = self.algebra
        return HSubset(alg, self.carrier, (alg.neg(x) for x in self.degrees))

    def render(self):
        """Literal form: {} | {a,b:u}; top degrees print bare, bot omitted."""
        alg = self.algebra
        parts = []
        for p, d in zip(self.carrier.points, self.degrees):
            if d == alg.bot:
                continue
            if d == alg.top:
                parts.append(p)
            else:
                parts.append(f"{p}:{alg.name(d)}")
        return "{" + ",".join(parts) + "}"


def _same_context(u, v):
    if u.algebra is not v.algebra or u.carrier is not v.carrier:
        raise ContextMismatch("values live over different algebras or carriers")


def family_context(members, algebra=None, carrier=None):
    """The (algebra, carrier) of a family of subsets, operators or
    topologies: the first member's, else the given ones.  ContextMismatch
    when members differ, ValueError for an empty family without a context.
    """
    if members:
        algebra, carrier = members[0].algebra, members[0].carrier
        for m in members:
            if m.algebra is not algebra or m.carrier is not carrier:
                raise ContextMismatch("family members live over different contexts")
    if algebra is None or carrier is None:
        raise ValueError("an empty family needs algebra and carrier")
    return algebra, carrier


def empty(algebra, carrier):
    return HSubset(algebra, carrier, (algebra.bot,) * len(carrier))


def full(algebra, carrier):
    return HSubset(algebra, carrier, (algebra.top,) * len(carrier))


def from_degrees(algebra, carrier, mapping):
    """Subset literal from a point -> element-name map; omitted points get bot."""
    degrees = [algebra.bot] * len(carrier)
    for point, elname in mapping.items():
        degrees[carrier.index(point)] = algebra.index(elname)
    return HSubset(algebra, carrier, degrees)


def from_points(algebra, carrier, points):
    """Boolean-style literal: the listed points at degree top."""
    degrees = [algebra.bot] * len(carrier)
    for point in points:
        degrees[carrier.index(point)] = algebra.top
    return HSubset(algebra, carrier, degrees)


def overlap(u, v):
    """Degree of inhabited intersection: join over points of u(a) /\\ v(a)."""
    _same_context(u, v)
    alg = u.algebra
    acc = alg.bot
    jt, mt = alg.join_table, alg.meet_table
    for x, y in zip(u.degrees, v.degrees):
        acc = jt[acc][mt[x][y]]
        if acc == alg.top:
            break
    return acc


def incl(u, v):
    """Degree of inclusion: meet over points of u(a) -> v(a)."""
    _same_context(u, v)
    alg = u.algebra
    acc = alg.top
    mt, it = alg.meet_table, alg.imp_table
    for x, y in zip(u.degrees, v.degrees):
        acc = mt[acc][it[x][y]]
        if acc == alg.bot:
            break
    return acc


def eq_degree(u, v):
    """Degree of extensional equality: incl both ways."""
    _same_context(u, v)
    alg = u.algebra
    acc = alg.top
    mt, it = alg.meet_table, alg.imp_table
    for x, y in zip(u.degrees, v.degrees):
        acc = mt[acc][mt[it[x][y]][it[y][x]]]
        if acc == alg.bot:
            break
    return acc


def space_size(algebra, carrier):
    return len(algebra) ** len(carrier)


@contextlib.contextmanager
def subset_cap(n):
    """Make n the subset cap in force inside the with block; the previous
    cap is back on exit, normal or not.  Blocks nest."""
    if n < 1:
        raise ValueError(f"subset cap must be at least 1, not {n}")
    token = _cap_in_force.set(n)
    try:
        yield
    finally:
        _cap_in_force.reset(token)


def within_cap(algebra, carrier):
    """Whether the subset space of (algebra, carrier) is within the cap in force."""
    return space_size(algebra, carrier) <= _cap_in_force.get()


def check_cap(algebra, carrier):
    """The size of the subset space; CapExceeded when above the cap in force."""
    size = space_size(algebra, carrier)
    cap = _cap_in_force.get()
    if size > cap:
        raise CapExceeded(
            f"subset space has {size} elements, above the cap of {cap}"
        )
    return size


class Space:
    """All subsets of one (algebra, carrier), Birkhoff-encoded, with the two
    sweeps over their pointwise order.

    ``subs`` lists the subsets in enumeration order; a subset is addressed
    by its rank.  A finite Heyting algebra is distributive, so each element
    x is determined by the set D(x) of join-irreducibles j_k below it, and
    meet and join are intersection and union of these sets.  A subset U is
    stored as one int, ``planes[rank]``: its plane U_k, the bitmask of the
    points a with j_k <= U(a) (point a at bit |S|-1-a), sits at bits
    k|S| to (k+1)|S|-1.  Pointwise meet and join are then & and |, U <= V
    is ``not U & ~V``, the empty subset is 0 and the full one ``full``, and

        D(overlap(U, V)) = {k : plane k of U & V is not 0}
        D(incl(U, V))    = the k above no k' whose plane of U & ~V is not 0

    A Boolean algebra has one join-irreducible, top, so a subset's planes
    are its rank (XOR-ed with the full mask when top is index 0).

    The sweeps are zeta transforms over the pointwise order, on planes:

        down(seed)[V] = join of seed[W] over W <= V
        up(seed)[U]   = meet of seed[W] over W >= U

    The order is the product of |S| copies of the algebra's order, so a
    sweep makes one pass per point: each entry whose degree there is x
    takes in the entry one cover step away (x lowered, resp. raised, to a
    cover c, the rank moved by (c - x) * |H|^(|S|-1-a)), x visited in a
    linear extension of the algebra's order, so that every entry it takes
    in is final.  A pass costs |H|^|S| / |H| steps per cover of the algebra;
    only the algebra's cover lists are kept, no per-rank neighbour lists.
    The weighted saturation and reduction (galois, from
    ``saturation_seed``/``reduction_seed``), LL, the splits vector and the
    compat kernels (optable) are sweeps, so no kernel reads a row of
    overlap or incl, and the Space keeps none.  ``support(x)`` and
    ``incl(x)`` read one degree from planes x, those of U & V and of
    U & ~V.  The k' whose plane of an OR is not 0 are those of its terms,
    so a meet of incl degrees is ``incl`` of the OR of their planes: each
    operator order (optable) is one such read.

    ``space`` keeps the Space in a slot on its carrier, so the enumeration
    and the planes live exactly as long as the carrier (the document) does.
    """

    __slots__ = (
        "algebra", "carrier", "subs", "planes", "full",
        "lower_covers", "upper_covers", "join_irreducibles", "meet_irreducibles",
        "_order", "_fields", "_elem_of", "_up",
    )

    def __init__(self, algebra, carrier):
        self.algebra = algebra
        self.carrier = carrier
        h = len(algebra)
        npts = len(carrier)
        self.subs = tuple(
            HSubset(algebra, carrier, degs)
            for degs in itertools.product(range(h), repeat=npts)
        )

        lt = algebra.leq_table
        below = [[y for y in range(h) if y != x and lt[y][x]] for x in range(h)]
        self.lower_covers = [
            [y for y in ys if not any(m != y and lt[y][m] for m in ys)] for ys in below
        ]
        self.upper_covers = [
            [x for x in range(h) if y in self.lower_covers[x]] for y in range(h)
        ]
        self._order = sorted(range(h), key=lambda x: len(below[x]))
        jis = self.join_irreducibles = [
            x for x in range(h) if len(self.lower_covers[x]) == 1
        ]
        self.meet_irreducibles = [x for x in range(h) if len(self.upper_covers[x]) == 1]

        ones = (1 << npts) - 1
        self._fields = [(1 << k, ones << (k * npts)) for k in range(len(jis))]
        self.full = (1 << (len(jis) * npts)) - 1
        down = [sum(1 << k for k, j in enumerate(jis) if lt[j][x]) for x in range(h)]
        self._elem_of = {d: x for x, d in enumerate(down)}
        self._up = [sum(1 << k for k, j2 in enumerate(jis) if lt[j][j2]) for j in jis]
        spread = [
            sum(1 << (k * npts) for k in range(len(jis)) if d >> k & 1) for d in down
        ]
        planes = [0]
        for _ in range(npts):
            planes = [(p << 1) | s for p in planes for s in spread]
        self.planes = planes

    def _mask(self, x):
        """The join-irreducibles whose plane of x is not 0, as a bitmask."""
        mask = 0
        for b, field in self._fields:
            if x & field:
                mask |= b
        return mask

    def support(self, x):
        """The join of the degrees of the subset with planes x: the degree
        to which it is inhabited."""
        return self._elem_of[self._mask(x)]

    def incl(self, x):
        """incl(U, V), from the planes x of U & ~V: the join-irreducibles
        above no bad one."""
        bad = self._mask(x)
        above = 0
        for k, up in enumerate(self._up):
            if bad >> k & 1:
                above |= up
        return self._elem_of[((1 << len(self._up)) - 1) ^ above]

    def ranks(self, vals):
        """The rank of each subset in vals, given by its planes."""
        rank_of = dict(zip(self.planes, range(len(self.planes))))
        return list(map(rank_of.__getitem__, vals))

    def pointwise(self, f):
        """For every rank of U, the rank of the subset a -> f[U(a)]; f holds
        one element index per element index."""
        h = len(f)
        ranks = [0]
        for _ in self.carrier.points:
            ranks = [r * h + y for r in ranks for y in f]
        return ranks

    def reduction_seed(self, weights):
        """The seed of the weighted reduction: planes of c /\\ Z at the rank
        of c /\\ Z for each join-irreducible c <= weights[Z], 0 elsewhere."""
        return self._seed(weights, 0, self.algebra.meet_table)

    def saturation_seed(self, weights):
        """The seed of the weighted saturation: planes of c -> P at the rank
        of c -> P for each join-irreducible c <= weights[P], full elsewhere."""
        return self._seed(weights, self.full, self.algebra.imp_table)

    def _seed(self, weights, fill, table):
        """fill, but at the rank of each subset a -> table[c][U(a)] with c
        join-irreducible and c <= weights[U], that subset's planes."""
        lt = self.algebra.leq_table
        planes = self.planes
        seed = [fill] * len(planes)
        for c in self.join_irreducibles:
            for r, w in zip(self.pointwise(table[c]), weights):
                if lt[c][w]:
                    seed[r] = planes[r]
        return seed

    def down(self, seed):
        """down(seed)[V] = join of seed[W] over W <= V, as planes."""
        return self._sweep(seed, operator.or_, self.lower_covers, self._order)

    def up(self, seed):
        """up(seed)[U] = meet of seed[W] over W >= U, as planes."""
        return self._sweep(seed, operator.and_, self.upper_covers, self._order[::-1])

    def _sweep(self, seed, op, covers, order):
        """One pass per point a: every entry whose degree at a is x takes in,
        by op, the entry whose degree there is c, for each cover c of x."""
        vals = list(seed)
        n = len(vals)
        h = len(self.algebra)
        step = n
        for _ in self.carrier.points:
            # step = |H|^(|S|-1-a); the degree at a repeats every block ranks
            block, step = step, step // h
            for x in order:
                for c in covers[x]:
                    lo, src = x * step, c * step
                    if step * block >= n:  # few runs of step entries
                        for base in range(0, n, block):
                            i, j = base + lo, base + src
                            vals[i:i + step] = map(
                                op, vals[i:i + step], vals[j:j + step]
                            )
                    else:  # many short runs: every block-th entry instead
                        for off in range(step):
                            i, j = lo + off, src + off
                            vals[i::block] = map(op, vals[i::block], vals[j::block])
        return vals


def space(algebra, carrier):
    """The Space of (algebra, carrier), cached on the carrier.  CapExceeded
    when it is above the cap in force."""
    check_cap(algebra, carrier)
    return held_space(algebra, carrier)


def held_space(algebra, carrier):
    """The Space of (algebra, carrier), cached on the carrier, with no cap
    check: for a caller holding proof that the space was within a cap, such
    as an operator's rank table."""
    sp = carrier._space
    if sp is None or sp.algebra is not algebra:
        sp = carrier._space = Space(algebra, carrier)
    return sp


def enumerate_all(algebra, carrier):
    """All HSubsets over (algebra, carrier), in fixed lexicographic order.
    CapExceeded when the space is above the cap in force."""
    return space(algebra, carrier).subs


def subset_rank(u):
    """Position of u in the enumeration order."""
    h = len(u.algebra)
    r = 0
    for d in u.degrees:
        r = r * h + d
    return r
