"""A deliberately naive evaluator of the PAPER.md formulas.

The benchmark's known answers come from here or from a theorem of the
paper, never from heytop itself: nothing in this file imports heytop.
Algebra tables are derived from the order by brute force, subsets are the
rows of an array in heytop's documented enumeration order (itertools.product
over element indices), and every quantifier is evaluated over the whole
space with no short-circuit and no algebraic shortcut.  numpy only
vectorises the table lookups.
"""

import itertools

import numpy as np

import orders


class NotALattice(Exception):
    """The order is not a distributive lattice, so not a Heyting algebra."""


def _closure(n, pairs):
    leq = np.eye(n, dtype=bool)
    for low, high in pairs:
        leq[low, high] = True
    for k in range(n):
        leq |= leq[:, k][:, None] & leq[k, :][None, :]
    return leq


class Algebra:
    """A finite Heyting algebra derived from element names and an order."""

    def __init__(self, names, pairs):
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        leq = _closure(n, [(index[a], index[b]) for a, b in pairs])
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise NotALattice("order has a cycle")
        lower = leq[:, :, None] & leq[:, None, :]  # [k, i, j]: k <= i and k <= j
        upper = leq.T[:, :, None] & leq.T[:, None, :]
        meet, join = _greatest(lower, leq), _greatest(upper, leq.T)
        r = np.arange(n)
        if (meet[r[:, None, None], join[None, :, :]] != join[meet[:, :, None], meet[:, None, :]]).any():
            raise NotALattice("the lattice is not distributive")
        self.names = tuple(names)
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bot = int(np.flatnonzero(leq.all(axis=1))[0])
        self.top = int(np.flatnonzero(leq.all(axis=0))[0])
        # a -> b is the greatest c with c /\ a <= b
        self.imp = _greatest(leq[meet[:, :, None], r[None, None, :]], leq)

    def __len__(self):
        return len(self.names)


def _greatest(mask, leq):
    """Per trailing index, the greatest k (in the order leq) with mask[k]; NotALattice if none."""
    n = len(leq)
    m = mask.reshape(n, -1)
    best = m & np.all(~m[:, None, :] | leq[:, :, None], axis=0)
    if not best.any(axis=0).all():
        raise NotALattice("a pair has no meet or no join")
    return best.argmax(axis=0).reshape(mask.shape[1:])


def algebra(spec):
    """Algebra from a document spec: ('boolean',), ('chain', n),
    ('downsets', points, below) or ('custom', elements, below)."""
    kind = spec[0]
    if kind == "boolean":
        return Algebra(("0", "1"), [("0", "1")])
    if kind == "chain":
        names = orders.chain_names(spec[1])
        return Algebra(names, list(zip(names, names[1:])))
    if kind == "custom":
        return Algebra(spec[1], spec[2])
    names, order = orders.downsets(spec[1], spec[2])
    return Algebra(names, [(names[i], names[j]) for i, j in order])


def _reduce(table, x, unit):
    """Fold a lattice operation over the last axis of x."""
    if x.shape[-1] == 0:
        return np.full(x.shape[:-1], unit, dtype=np.int64)
    while x.shape[-1] > 1:
        if x.shape[-1] % 2:
            x = np.concatenate([x, np.full(x.shape[:-1] + (1,), unit, dtype=np.int64)], axis=-1)
        x = table[x[..., 0::2], x[..., 1::2]]
    return x[..., 0]


class Space:
    """All H-subsets of a carrier, with the overlap and inclusion degrees of every pair."""

    def __init__(self, alg, points):
        self.alg = alg
        self.points = tuple(points)
        h, p = len(alg), len(points)
        self.subs = np.array(list(itertools.product(range(h), repeat=p)), dtype=np.int64).reshape(-1, p)
        self.n = len(self.subs)
        self.powers = h ** np.arange(p - 1, -1, -1, dtype=np.int64)
        self.ov = self.overlap(self.subs, self.subs)
        self.inc = self.incl(self.subs, self.subs)
        self.rendered = [self.render(v) for v in self.subs]

    def overlap(self, us, vs):
        """overlap(U, V) = join over a of U(a) /\\ V(a), for every row pair."""
        a = self.alg
        return _reduce(a.join, a.meet[us[:, None, :], vs[None, :, :]], a.bot)

    def incl(self, us, vs):
        """incl(U, V) = meet over a of U(a) -> V(a), for every row pair."""
        a = self.alg
        return _reduce(a.meet, a.imp[us[:, None, :], vs[None, :, :]], a.top)

    def pointwise_leq(self):
        a = self.alg
        return a.leq[self.subs[:, None, :], self.subs[None, :, :]].all(axis=-1)

    def vector(self, degrees):
        """Degree vector from a {point: element name} literal; omitted points are bot."""
        a = self.alg
        names = {n: i for i, n in enumerate(a.names)}
        return np.array([names[degrees[p]] if p in degrees else a.bot for p in self.points], dtype=np.int64)

    def ranks(self, vectors):
        return vectors @ self.powers

    def render(self, vec):
        a = self.alg
        parts = [
            p if d == a.top else f"{p}:{a.names[d]}"
            for p, d in zip(self.points, vec)
            if d != a.bot
        ]
        return "{" + ",".join(parts) + "}"

    def listing(self, table):
        return [f"  {self.rendered[u]} -> {self.rendered[table[u]]}" for u in range(self.n)]

    # -- operators, as output-rank tables -----------------------------------

    def identity(self):
        return np.arange(self.n)

    def bottom(self):
        return np.full(self.n, self.ranks(np.full(len(self.points), self.alg.bot)))

    def double_complement(self):
        neg = self.alg.imp[:, self.alg.bot]
        return self.ranks(neg[neg[self.subs]])

    def sat_family(self, family):
        """A_P U (a) = meet over V in P of incl(U, V) -> V(a)."""
        a = self.alg
        fam = np.array(family, dtype=np.int64).reshape(-1, len(self.points))
        inc = self.incl(self.subs, fam)
        out = _reduce(a.meet, a.imp[inc[:, :, None], fam[None, :, :]].transpose(0, 2, 1), a.top)
        return self.ranks(out)

    def red_family(self, family):
        """J_P U (a) = join over V in P of incl(V, U) /\\ V(a)."""
        a = self.alg
        fam = np.array(family, dtype=np.int64).reshape(-1, len(self.points))
        inc = self.incl(fam, self.subs).T
        out = _reduce(a.join, a.meet[inc[:, :, None], fam[None, :, :]].transpose(0, 2, 1), a.bot)
        return self.ranks(out)

    def generated_sat(self, axioms):
        """A U (a) = meet over P of (incl(U, P) /\\ fulfills(P)) -> P(a)."""
        a = self.alg
        fulfills = np.full(self.n, a.top)
        for point, cover in axioms:
            inc = self.incl(cover[None, :], self.subs)[0]
            fulfills = a.meet[fulfills, a.imp[inc, self.subs[:, point]]]
        weight = a.meet[self.inc, fulfills[None, :]]
        out = np.stack(
            [_reduce(a.meet, a.imp[weight, self.subs[None, :, k]], a.top) for k in range(len(self.points))],
            axis=1,
        )
        return self.ranks(out)

    def generated_red(self, axioms):
        """J V (a) = join over Z of incl(Z, V) /\\ splits(Z) /\\ Z(a)."""
        a = self.alg
        splits = np.full(self.n, a.top)
        for point, cover in axioms:
            ov = self.overlap(cover[None, :], self.subs)[0]
            splits = a.meet[splits, a.imp[self.subs[:, point], ov]]
        return self._join_over_z(splits)

    def _join_over_z(self, weights):
        a = self.alg
        w = a.meet[self.inc.T, weights[None, :]]
        out = np.stack(
            [_reduce(a.join, a.meet[w, self.subs[None, :, k]], a.bot) for k in range(len(self.points))],
            axis=1,
        )
        return self.ranks(out)

    def representable(self, matrix):
        """(r-* r-, r r*) for a degree matrix r(x, a) between a domain and the carrier."""
        a = self.alg
        r = np.array(matrix, dtype=np.int64)
        inv = _reduce(a.join, a.meet[self.subs[:, None, :], r[None, :, :]], a.bot)
        sat = _reduce(a.meet, a.imp[r.T[None, :, :], inv[:, None, :]], a.top)
        star = _reduce(a.meet, a.imp[r[None, :, :], self.subs[:, None, :]], a.top)
        red = _reduce(a.join, a.meet[star[:, None, :], r.T[None, :, :]], a.bot)
        return self.ranks(sat), self.ranks(red)

    # -- quantified kernels ----------------------------------------------------

    def classify(self, t):
        """(flag, witness) for monotone, idempotent, expansive, contractive;
        witnesses are the first failure in enumeration order."""
        pleq = self.pointwise_leq()
        u = np.arange(self.n)
        bad_mono = pleq & ~pleq[np.ix_(t, t)]
        flags = [
            _first(bad_mono.ravel(), lambda i: divmod(i, self.n)),
            _first(t[t] != t, int),
            _first(~pleq[u, t], int),
            _first(~pleq[t, u], int),
        ]
        return flags

    def compat(self, t1, t2):
        """(degree, witness) of compat(O1, O2) = meet over (U, V) of
        overlap(O1 U, O2 V) -> overlap(U, O2 V); the witness is the first pair
        at which the running minimum strictly drops, as heytop documents it."""
        a = self.alg
        d = a.imp[self.ov[np.ix_(t1, t2)], self.ov[:, t2]].ravel()
        degree = int(_reduce(a.meet, d, a.top))
        best, where, pos = a.top, None, 0
        while best != a.bot:
            strictly_below = a.leq[:, best] & (np.arange(len(a)) != best)
            hits = np.flatnonzero(strictly_below[d[pos:]])
            if hits.size == 0:
                break
            pos += int(hits[0])
            best, where = int(d[pos]), divmod(pos, self.n)
            pos += 1
        return degree, where

    def AA(self, t):
        """LL(J) U (a) = meet over V of J V (a) -> overlap(U, J V)."""
        a = self.alg
        ov = self.ov[:, t]
        out = np.stack(
            [_reduce(a.meet, a.imp[self.subs[t, k][None, :], ov], a.top) for k in range(len(self.points))],
            axis=1,
        )
        return self.ranks(out)

    def splits(self, t):
        """splits(Z, O) = meet over U of overlap(O U, Z) -> overlap(U, Z), for every Z."""
        a = self.alg
        return _reduce(a.meet, a.imp[self.ov[t, :], self.ov].T, a.top)

    def JJ(self, t):
        """JJ(A) V (a) = join over Z of incl(Z, V) /\\ splits(Z, A) /\\ Z(a)."""
        return self._join_over_z(self.splits(t))

    def RR(self, t):
        """Constant at join over Z of splits(Z, O) /\\ Z."""
        a = self.alg
        value = _reduce(a.join, a.meet[self.splits(t)[:, None], self.subs].T, a.bot)
        return np.full(self.n, self.ranks(value))


def _first(mask, locate):
    hits = np.flatnonzero(mask)
    return (True, None) if hits.size == 0 else (False, locate(int(hits[0])))
