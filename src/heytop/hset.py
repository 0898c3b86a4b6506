"""Truth-degree-valued subsets of a finite carrier.

An HSubset assigns an algebra element to every carrier point.  Over the
two-element algebra these are literal subsets; over larger algebras they
carry intuitionistic membership degrees.  Values are immutable; all
operations are pure.

Enumeration order is lexicographic over (point index, algebra element
index), i.e. itertools.product order, and is fixed so that golden tests
and report output stay stable.
"""

from __future__ import annotations

import itertools

from .errors import CapExceeded, ContextMismatch

DEFAULT_SUBSET_CAP = 4096


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


def check_cap(algebra, carrier, cap=None):
    cap = DEFAULT_SUBSET_CAP if cap is None else cap
    size = space_size(algebra, carrier)
    if size > cap:
        raise CapExceeded(
            f"subset space has {size} elements, above the cap of {cap}"
        )
    return size


class Space:
    """All subsets of one (algebra, carrier), with memoized overlap/incl rows.

    ``subs`` lists the subsets in enumeration order; a subset is addressed
    by its rank.  The rows come from a Birkhoff encoding.  A finite Heyting
    algebra is distributive, so each element x is determined by the set
    D(x) of join-irreducibles j_k below it, and meet and join are
    intersection and union of these sets.  A subset U is stored as its
    planes: U_k is the bitmask of the points a with j_k <= U(a), point a
    at bit |S|-1-a.  Then

        D(overlap(U, V)) = {k : U_k & V_k != 0}
        D(incl(U, V))    = the k above no k' with U_k' & ~V_k' != 0

    A Boolean algebra has one join-irreducible, top, and its single plane
    is the subset's rank (XOR-ed with the full mask when top is index 0).

    ``ov_row(j)[i] = overlap(subs[i], subs[j])`` and
    ``inc_row(i)[j] = incl(subs[i], subs[j])`` are filled on first read
    and kept, since a law suite reads the same rows many times; a row is
    bytes when the algebra has at most 256 elements, a tuple otherwise.
    Only the rows some kernel reads are ever built, not the n x n tables.
    ``overlap(i, j)`` and ``incl(i, j)`` read a single entry, from a kept
    row or else from the planes, for scans that read each pair about once
    or stop early, where filling a row of n entries would cost more.

    ``space`` keeps the Space in a slot on its carrier, so the enumeration
    and the rows live exactly as long as the carrier (the document) does.
    """

    __slots__ = (
        "algebra", "carrier", "subs", "_planes", "_ov", "_inc",
        "_bits", "_elem_of", "_up", "_incl_of",
    )

    def __init__(self, algebra, carrier):
        self.algebra = algebra
        self.carrier = carrier
        self.subs = tuple(
            HSubset(algebra, carrier, degs)
            for degs in itertools.product(range(len(algebra)), repeat=len(carrier))
        )
        self._planes = None
        self._ov = [None] * len(self.subs)
        self._inc = [None] * len(self.subs)

    def _get_planes(self):
        if self._planes is None:
            self._encode()
        return self._planes

    def _encode(self):
        """Build the planes and the maps from join-irreducible masks to elements."""
        alg = self.algebra
        lt = alg.leq_table
        h = len(alg)
        if h == 2:
            flip = (1 << len(self.carrier)) - 1 if alg.top == 0 else 0
            self._planes = [r ^ flip for r in range(len(self.subs))]
            return
        jis = [
            x for x in range(h)
            if x != alg.bot
            and alg.big_join(y for y in range(h) if y != x and lt[y][x]) != x
        ]
        down = [[int(lt[j][x]) for j in jis] for x in range(h)]
        self._bits = [1 << k for k in range(len(jis))]
        self._elem_of = {
            sum(b for b, d in zip(self._bits, ds) if d): x for x, ds in enumerate(down)
        }
        self._up = [
            sum(b for b, j2 in zip(self._bits, jis) if lt[j][j2]) for j in jis
        ]
        self._incl_of = {}
        planes = [(0,) * len(jis)]
        for _ in range(len(self.carrier)):
            planes = [
                tuple((p << 1) | d for p, d in zip(ps, down[x]))
                for ps in planes
                for x in range(h)
            ]
        self._planes = planes

    # The non-Boolean entries, from the planes of two subsets.

    def _overlap_planes(self, u, v):
        return self._elem_of[sum(b for b, x, y in zip(self._bits, u, v) if x & y)]

    def _incl_planes(self, u, v):
        bad = sum(b for b, x, y in zip(self._bits, u, v) if x & ~y)
        got = self._incl_of.get(bad)
        if got is None:
            # the join-irreducibles above no bad one
            above = 0
            for b, up in zip(self._bits, self._up):
                if bad & b:
                    above |= up
            got = self._incl_of[bad] = self._elem_of[
                ((1 << len(self._bits)) - 1) ^ above
            ]
        return got

    def overlap(self, i, j):
        """overlap(subs[i], subs[j]): one entry, without filling a row."""
        row = self._ov[j]
        if row is not None:
            return row[i]
        planes = self._get_planes()
        alg = self.algebra
        if len(alg) == 2:
            return alg.top if planes[i] & planes[j] else alg.bot
        return self._overlap_planes(planes[i], planes[j])

    def incl(self, i, j):
        """incl(subs[i], subs[j]): one entry, without filling a row."""
        row = self._inc[i]
        if row is not None:
            return row[j]
        planes = self._get_planes()
        alg = self.algebra
        if len(alg) == 2:
            return alg.bot if planes[i] & ~planes[j] else alg.top
        return self._incl_planes(planes[i], planes[j])

    def ov_row(self, j):
        """overlap(subs[i], subs[j]) for every rank i."""
        row = self._ov[j]
        if row is None:
            planes = self._get_planes()
            v = planes[j]
            alg = self.algebra
            if len(alg) == 2:
                top, bot = alg.top, alg.bot
                vals = [top if u & v else bot for u in planes]
            else:
                vals = [self._overlap_planes(u, v) for u in planes]
            row = self._ov[j] = self._row(vals)
        return row

    def inc_row(self, i):
        """incl(subs[i], subs[j]) for every rank j."""
        row = self._inc[i]
        if row is None:
            planes = self._get_planes()
            u = planes[i]
            alg = self.algebra
            if len(alg) == 2:
                top, bot = alg.top, alg.bot
                vals = [bot if u & ~v else top for v in planes]
            else:
                vals = [self._incl_planes(u, v) for v in planes]
            row = self._inc[i] = self._row(vals)
        return row

    def _row(self, values):
        return bytes(values) if len(self.algebra) <= 256 else tuple(values)


def space(algebra, carrier, cap=None):
    """The Space of (algebra, carrier), cached on the carrier.  CapExceeded if big."""
    check_cap(algebra, carrier, cap)
    sp = carrier._space
    if sp is None or sp.algebra is not algebra:
        sp = carrier._space = Space(algebra, carrier)
    return sp


def enumerate_all(algebra, carrier, cap=None):
    """All HSubsets over (algebra, carrier), in fixed lexicographic order."""
    return space(algebra, carrier, cap).subs


def subset_rank(u):
    """Position of u in the enumeration order."""
    h = len(u.algebra)
    r = 0
    for d in u.degrees:
        r = r * h + d
    return r
