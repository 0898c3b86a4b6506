"""Representable basic topologies from degree-valued relations.

A relation r between carriers X and S induces direct image r, inverse
image r-, and their right adjoints r*, r-*.  The composite pair
(A, J) = (r-* o r-, r o r*) is always a basic topology and is reduced:
AA(r r*) = r-* r-.  Conversely every reduction is representable by the
relation 'membership' between its fixed subsets and the carrier, which
represent_reduction builds explicitly.

Read through the transposed matrix r^T(a, x) = r(x, a), the direct image
is an inverse image and the inverse right adjoint a right adjoint:

    r D = (r^T)- D        r-* D = (r^T)* D

So two kernels serve all four maps: a join image, U |-> join over j of
U(j) /\\ m(i, j), and a meet image, U |-> meet over j of m(i, j) -> U(j),
each run over the matrix or over its transpose.
"""

from __future__ import annotations

from . import hset
from .errors import CertificateFailure, ContextMismatch
from .btop import make, is_reduced
from .galois import Saturation, Reduction
from .hset import HSubset
from .optable import Operator
from .reports import LawReport, HOLDS, FAILS


class HRelation:
    """A matrix of truth degrees between a domain and a codomain carrier."""

    __slots__ = ("algebra", "domain", "codomain", "matrix", "transposed", "name")

    def __init__(self, algebra, domain, codomain, matrix, name=None):
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != len(domain) or any(
            len(row) != len(codomain) for row in matrix
        ):
            raise ValueError("matrix dimensions do not match the carriers")
        self.algebra = algebra
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.transposed = tuple(
            tuple(row[a] for row in matrix) for a in range(len(codomain))
        )
        self.name = name

    @classmethod
    def from_pairs(cls, algebra, domain, codomain, pairs, name=None):
        """Boolean-style relation: listed (x, a) pairs hold at degree top."""
        m = [[algebra.bot] * len(codomain) for _ in range(len(domain))]
        for x, a in pairs:
            m[domain.index(x)][codomain.index(a)] = algebra.top
        return cls(algebra, domain, codomain, m, name=name)

    @classmethod
    def from_triples(cls, algebra, domain, codomain, triples, name=None):
        """Degree-valued relation from (x, a, element-name) triples."""
        m = [[algebra.bot] * len(codomain) for _ in range(len(domain))]
        for x, a, d in triples:
            m[domain.index(x)][codomain.index(a)] = algebra.index(d)
        return cls(algebra, domain, codomain, m, name=name)

    def degree(self, x, a):
        return self.algebra.name(self.matrix[self.domain.index(x)][self.codomain.index(a)])

    def __repr__(self):
        return f"HRelation({self.name or 'anonymous'})"


def _check_on(r, u, carrier, what):
    if u.algebra is not r.algebra or u.carrier is not carrier:
        raise ContextMismatch(f"{what} must live on the relation's {carrier!r}")


def _join_image(alg, carrier, matrix, degs):
    """The subset of carrier, one point per matrix row, whose degree at i is
    join over j of degs(j) /\\ matrix(i, j)."""
    mt, jt = alg.meet_table, alg.join_table
    out = []
    for row in matrix:
        acc = alg.bot
        for dj, rij in zip(degs, row):
            acc = jt[acc][mt[dj][rij]]
            if acc == alg.top:
                break
        out.append(acc)
    return HSubset(alg, carrier, out)


def _meet_image(alg, carrier, matrix, degs):
    """The subset of carrier, one point per matrix row, whose degree at i is
    meet over j of matrix(i, j) -> degs(j)."""
    mt, it = alg.meet_table, alg.imp_table
    out = []
    for row in matrix:
        acc = alg.top
        for dj, rij in zip(degs, row):
            acc = mt[acc][it[rij][dj]]
            if acc == alg.bot:
                break
        out.append(acc)
    return HSubset(alg, carrier, out)


def dir_image(r, d):
    """r D (a) = join over x of D(x) /\\ r(x, a)."""
    _check_on(r, d, r.domain, "argument")
    return _join_image(r.algebra, r.codomain, r.transposed, d.degrees)


def inv_image(r, u):
    """r- U (x) = join over a of U(a) /\\ r(x, a)."""
    _check_on(r, u, r.codomain, "argument")
    return _join_image(r.algebra, r.domain, r.matrix, u.degrees)


def right_adjoint(r, u):
    """r* U (x) = meet over a of r(x, a) -> U(a)."""
    _check_on(r, u, r.codomain, "argument")
    return _meet_image(r.algebra, r.domain, r.matrix, u.degrees)


def inv_right_adjoint(r, d):
    """r-* D (a) = meet over x of r(x, a) -> D(x)."""
    _check_on(r, d, r.domain, "argument")
    return _meet_image(r.algebra, r.codomain, r.transposed, d.degrees)


def symmetry_check(r):
    """overlap(r D, U) = overlap(D, r- U) for all D, U — exact degrees."""
    alg = r.algebra
    doms = hset.enumerate_all(alg, r.domain)
    cods = hset.enumerate_all(alg, r.codomain)
    invs = [inv_image(r, u) for u in cods]
    for d in doms:
        rd = dir_image(r, d)
        for u, inv_u in zip(cods, invs):
            lhs = hset.overlap(rd, u)
            rhs = hset.overlap(d, inv_u)
            if lhs != rhs:
                return LawReport(
                    law="symmetry",
                    status=FAILS,
                    witness=(d.render(), u.render()),
                    details={"lhs": alg.name(lhs), "rhs": alg.name(rhs)},
                )
    return LawReport(law="symmetry", status=HOLDS, degree=alg.name(alg.top))


def representable(r, *, name=None):
    """The basic topology (S, r-* r-, r r*), certified and verified reduced."""
    alg = r.algebra

    sat_op = Operator(
        alg,
        r.codomain,
        lambda u: inv_right_adjoint(r, inv_image(r, u)),
        name=f"r-*r-({r.name or '?'})",
    )
    red_op = Operator(
        alg,
        r.codomain,
        lambda u: dir_image(r, right_adjoint(r, u)),
        name=f"rr*({r.name or '?'})",
    )
    sat = Saturation.certify(sat_op)
    red = Reduction.certify(red_op)
    t = make(sat, red, name=name or f"rep({r.name or '?'})")
    reduced, witness = is_reduced(t)
    if not reduced:
        raise CertificateFailure(
            "representable topology failed the reducedness theorem "
            f"at {witness.render()}; this indicates a bug",
            flag="reduced",
            witness=witness,
        )
    return t


def represent_reduction(red, *, name=None):
    """Relation on Fix(J) x S whose representable topology is (AA(J), J).

    Domain points are the fixed subsets of J, named by their literals;
    the relation is membership: r(Z, a) = Z(a).
    """
    alg = red.algebra
    carrier = red.carrier
    subs = hset.enumerate_all(alg, carrier)
    fixed = [u for u in subs if red.apply(u) == u]
    domain = hset.Carrier([u.render() for u in fixed])
    matrix = [u.degrees for u in fixed]
    return HRelation(
        alg, domain, carrier, matrix, name=name or f"fix({red.name or '?'})"
    )
