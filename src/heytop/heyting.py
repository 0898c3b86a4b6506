"""Finite complete Heyting algebras used as truth-value objects.

An algebra is specified by its element names and partial order only; the
meet, join and implication tables are derived by brute force at build time
and cached on the instance, so inconsistent user-supplied tables cannot
exist.  Elements are addressed by index everywhere inside the package;
``names`` maps indices back to display names.

The two-element algebra gives classical (Boolean) semantics; any larger
algebra gives a genuinely intuitionistic one.  ``chain(3)`` is the smallest
algebra on which double negation is not the identity, which is what the
counterexample catalog runs on.
"""

from __future__ import annotations

from .errors import CapExceeded, NotALattice, NotHeyting

DEFAULT_ELEMENT_CAP = 16


class HeytingAlgebra:
    """A finite complete Heyting algebra with derived operation tables.

    Instances are immutable after construction and hashable by identity;
    values built over distinct instances never mix, even if the instances
    are structurally equal.
    """

    __slots__ = (
        "names",
        "leq_table",
        "meet_table",
        "join_table",
        "imp_table",
        "bot",
        "top",
        "_index",
    )

    def __init__(self, names, leq_table, meet_table, join_table, imp_table, bot, top):
        self.names = names
        self.leq_table = leq_table
        self.meet_table = meet_table
        self.join_table = join_table
        self.imp_table = imp_table
        self.bot = bot
        self.top = top
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"HeytingAlgebra({', '.join(self.names)})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown algebra element {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def name(self, i):
        return self.names[i]

    def leq(self, i, j):
        return self.leq_table[i][j]

    def meet(self, i, j):
        return self.meet_table[i][j]

    def join(self, i, j):
        return self.join_table[i][j]

    def imp(self, i, j):
        return self.imp_table[i][j]

    def neg(self, i):
        """Intuitionistic pseudo-complement: neg(x) = imp(x, bot)."""
        return self.imp_table[i][self.bot]

    def big_meet(self, xs):
        """Infimum of a finite iterable of element indices; empty meet = top."""
        acc = self.top
        mt = self.meet_table
        for x in xs:
            acc = mt[acc][x]
            if acc == self.bot:
                return acc
        return acc

    def big_join(self, xs):
        """Supremum of a finite iterable of element indices; empty join = bot."""
        acc = self.bot
        jt = self.join_table
        for x in xs:
            acc = jt[acc][x]
            if acc == self.top:
                return acc
        return acc

    @property
    def is_boolean(self):
        return len(self.names) == 2


def _transitive_closure(n, leq):
    leq = [row[:] for row in leq]
    for i in range(n):
        leq[i][i] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def _check_element_cap(count, what):
    if count > DEFAULT_ELEMENT_CAP:
        raise CapExceeded(f"{count} {what} exceed the cap of {DEFAULT_ELEMENT_CAP}")


def build_from_order(elements, pairs):
    """Build an algebra from element names and a list of (low, high) pairs.

    The pairs are closed reflexively and transitively.  Raises NotALattice
    when some pair of elements lacks an infimum or supremum (or the order
    has a cycle), NotHeyting when the relative pseudo-complement fails,
    with a witness triple; CapExceeded above the element cap.
    """
    names = tuple(elements)
    if len(names) == 0:
        raise NotALattice("an algebra needs at least one element")
    if len(set(names)) != len(names):
        raise ValueError("duplicate element names")
    _check_element_cap(len(names), "elements")
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    leq = [[False] * n for _ in range(n)]
    for low, high in pairs:
        if low not in index or high not in index:
            raise ValueError(f"order pair ({low!r}, {high!r}) names unknown elements")
        leq[index[low]][index[high]] = True
    leq = _transitive_closure(n, leq)

    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotALattice(
                    f"order is not antisymmetric on {names[i]!r}, {names[j]!r}",
                    witness=(names[i], names[j]),
                )

    def glb(i, j):
        lbs = [k for k in range(n) if leq[k][i] and leq[k][j]]
        for g in lbs:
            if all(leq[m][g] for m in lbs):
                return g
        return None

    def lub(i, j):
        ubs = [k for k in range(n) if leq[i][k] and leq[j][k]]
        for g in ubs:
            if all(leq[g][m] for m in ubs):
                return g
        return None

    meet_table = []
    join_table = []
    for i in range(n):
        meet_row = []
        join_row = []
        for j in range(n):
            m = glb(i, j)
            if m is None:
                raise NotALattice(
                    f"elements {names[i]!r}, {names[j]!r} have no infimum",
                    witness=(names[i], names[j]),
                )
            s = lub(i, j)
            if s is None:
                raise NotALattice(
                    f"elements {names[i]!r}, {names[j]!r} have no supremum",
                    witness=(names[i], names[j]),
                )
            meet_row.append(m)
            join_row.append(s)
        meet_table.append(tuple(meet_row))
        join_table.append(tuple(join_row))

    bot = next((k for k in range(n) if all(leq[k][m] for m in range(n))), None)
    top = next((k for k in range(n) if all(leq[m][k] for m in range(n))), None)
    if bot is None or top is None:
        raise NotALattice("the order has no bottom or no top element")

    imp_table = []
    for a in range(n):
        row = []
        for b in range(n):
            cands = [c for c in range(n) if leq[meet_table[c][a]][b]]
            v = bot
            for c in cands:
                v = join_table[v][c]
            if not leq[meet_table[v][a]][b]:
                raise NotHeyting(
                    f"no pseudo-complement for ({names[a]!r}, {names[b]!r}); "
                    f"the join of candidates, {names[v]!r}, is not one itself",
                    witness=(names[a], names[b], names[v]),
                )
            row.append(v)
        imp_table.append(tuple(row))

    # Residuation sweep over all triples; a failure here means the lattice
    # is not distributive even though each imp candidate-join passed.
    for a in range(n):
        for b in range(n):
            v = imp_table[a][b]
            for c in range(n):
                if leq[c][v] != leq[meet_table[c][a]][b]:
                    raise NotHeyting(
                        "residuation fails on "
                        f"({names[a]!r}, {names[b]!r}, {names[c]!r})",
                        witness=(names[a], names[b], names[c]),
                    )

    return HeytingAlgebra(
        names,
        tuple(tuple(row) for row in leq),
        tuple(meet_table),
        tuple(join_table),
        tuple(imp_table),
        bot,
        top,
    )


def boolean2():
    """The two-element Boolean algebra; classical mode."""
    return build_from_order(("0", "1"), [("0", "1")])


def chain(n):
    """Linear Heyting algebra with n elements.

    chain(2) is boolean2 up to naming; chain(3) is named 0 < u < 1 and is
    the Sierpinski algebra (opens of the Sierpinski space).
    """
    if n < 1:
        raise ValueError("chain needs at least one element")
    _check_element_cap(n, "elements")
    if n == 1:
        names = ("0",)
    elif n == 2:
        names = ("0", "1")
    elif n == 3:
        names = ("0", "u", "1")
    else:
        names = ("0",) + tuple(f"u{i}" for i in range(1, n - 1)) + ("1",)
    pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_from_order(names, pairs)


def downset_algebra(points, below):
    """Algebra of down-sets of a finite poset, ordered by inclusion.

    Equivalently the opens of the finite topological space whose
    specialization order is the given poset.  Down-sets are named "0"
    (empty), "1" (all points) and otherwise the member points joined
    by "+", so point names must avoid "0", "1" and "+".
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError("duplicate poset points")
    for p in points:
        if p in ("0", "1") or "+" in p:
            raise ValueError(f"poset point name {p!r} clashes with down-set naming")
    idx = {p: i for i, p in enumerate(points)}
    n = len(points)
    rel = [[False] * n for _ in range(n)]
    for low, high in below:
        rel[idx[low]][idx[high]] = True
    rel = _transitive_closure(n, rel)

    downsets = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if all((not rel[j][i]) or (mask >> j & 1) for i in members for j in range(n)):
            downsets.append(frozenset(members))
    _check_element_cap(len(downsets), "down-sets")

    def dname(ds):
        if not ds:
            return "0"
        if len(ds) == n:
            return "1"
        return "+".join(points[i] for i in sorted(ds))

    downsets.sort(key=lambda ds: (len(ds), sorted(ds)))
    names = tuple(dname(ds) for ds in downsets)
    pairs = [
        (dname(a), dname(b)) for a in downsets for b in downsets if a < b or a == b
    ]
    return build_from_order(names, pairs)
