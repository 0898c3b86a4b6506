"""Basic topologies: compatible saturation/reduction pairs on one carrier.

A basic topology [A, J] packages a certified Saturation and Reduction
whose compatibility degree is top.  [A1,J1] <= [A2,J2] (coarser) holds
when A2 is included in A1 and J1 in J2; the join of a family is
[meet of the A_i, join of the J_i] and is compatible by construction.

reduce() and saturate() give the comonad/monad pair
    T^R = [AA(J), J]        T^S = [A, JJ(A)]
and five_node_diagram computes the lattice freely generated by T under
them, merging extensionally equal nodes so the DOT output is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hset
from .errors import ContextMismatch, NotCompatible
from .galois import AA, JJ, Saturation, Reduction, meet_saturations, join_reductions
from .optable import compat_witness, op_incl_degree, op_eq, op_eq_witness
from .reports import LawReport, HOLDS, FAILS


class BasicTopology:
    """A certified triple (S, A, J) with compat(A, J) = top."""

    __slots__ = ("algebra", "carrier", "sat", "red", "name")

    def __init__(self, algebra, carrier, sat, red, name=None):
        self.algebra = algebra
        self.carrier = carrier
        self.sat = sat
        self.red = red
        self.name = name

    def __repr__(self):
        return f"BasicTopology({self.name or 'anonymous'})"

    def __eq__(self, other):
        if not isinstance(other, BasicTopology):
            return NotImplemented
        return op_eq(self.sat, other.sat) and op_eq(self.red, other.red)

    def __hash__(self):
        return hash((self.sat, self.red))

    def leq(self, other):
        """Boolean coarser-than: self <= other."""
        return coarser(self, other) == self.algebra.top

    def reduce(self):
        """T^R = [AA(J), J]: the greatest reduced basic topology below T."""
        return make(
            AA(self.red),
            self.red,
            name=f"{self.name or 'T'}^R",
        )

    def saturate(self):
        """T^S = [A, JJ(A)]: the least saturated basic topology above T."""
        return make(
            self.sat,
            JJ(self.sat),
            name=f"{self.name or 'T'}^S",
        )


def make(sat, red, *, name=None):
    """Certify and build [A, J]; NotCompatible carries the first witness pair."""
    if not isinstance(sat, Saturation):
        sat = Saturation.certify(sat)
    if not isinstance(red, Reduction):
        red = Reduction.certify(red)
    if sat.algebra is not red.algebra or sat.carrier is not red.carrier:
        raise ContextMismatch("saturation and reduction live over different contexts")
    alg = sat.algebra
    degree, witness = compat_witness(sat, red)
    if degree != alg.top:
        rendered = None
        if witness is not None:
            rendered = (witness[0].render(), witness[1].render())
        raise NotCompatible(
            f"compat({sat.name or 'A'}, {red.name or 'J'}) = {alg.name(degree)}",
            witness=rendered,
            degree=alg.name(degree),
        )
    return BasicTopology(alg, sat.carrier, sat, red, name=name)


def coarser(t1, t2):
    """Degree to which t1 is coarser than t2: [A2 in A1] /\\ [J1 in J2]."""
    if t1.algebra is not t2.algebra or t1.carrier is not t2.carrier:
        raise ContextMismatch("topologies live over different contexts")
    alg = t1.algebra
    return alg.meet(
        op_incl_degree(t2.sat, t1.sat),
        op_incl_degree(t1.red, t2.red),
    )


def join_family(tops, *, algebra=None, carrier=None, name=None):
    """Join in BTop(S): [meet of saturations, join of reductions].

    Compatibility of the result is a theorem; the certificate is still
    re-checked, so a failure here would expose an implementation bug.
    """
    tops = list(tops)
    algebra, carrier = hset.family_context(tops, algebra, carrier)
    sat = meet_saturations(
        [t.sat for t in tops], algebra=algebra, carrier=carrier
    )
    red = join_reductions(
        [t.red for t in tops], algebra=algebra, carrier=carrier
    )
    return make(sat, red, name=name)


def is_reduced(t):
    """T = T^R, decided extensionally; returns (bool, witness subset or None)."""
    target = AA(t.red)
    witness = op_eq_witness(t.sat, target)
    return witness is None, witness


def is_saturated(t):
    """T = T^S, decided extensionally; returns (bool, witness subset or None)."""
    target = JJ(t.sat)
    witness = op_eq_witness(t.red, target)
    return witness is None, witness


def adjunction_check(arg, t):
    """Check one adjunction instance against the basic topology t.

    For a Reduction J:   [AA(J), J] <= T      iff  J in T.red
    For a Saturation A:  T.sat over A         iff  T <= [A, JJ(A)]

    Both sides are computed as degrees; the law holds when they agree
    exactly (in Boolean mode this is the plain if-and-only-if).
    """
    alg = t.algebra
    if isinstance(arg, Reduction):
        lhs = coarser(make(AA(arg), arg), t)
        rhs = op_incl_degree(arg, t.red)
        law = "adjunction-IR-UR"
    elif isinstance(arg, Saturation):
        lhs = op_incl_degree(arg, t.sat)
        rhs = coarser(t, make(arg, JJ(arg)))
        law = "adjunction-US-IS"
    else:
        raise TypeError("adjunction_check needs a Saturation or a Reduction")
    agree = lhs == rhs
    return LawReport(
        law=law,
        status=HOLDS if agree else FAILS,
        degree=alg.name(lhs) if agree else None,
        details={
            "lhs": alg.name(lhs),
            "rhs": alg.name(rhs),
        },
    )


NODE_ORDER = ("T", "T^R", "T^S", "T^RS", "T^SR")


@dataclass
class DiagramNode:
    labels: list
    topology: BasicTopology


@dataclass
class Diagram:
    """Equality-merged five-node picture of T under reduce/saturate."""

    nodes: list
    order: list = field(default_factory=list)  # all strict <= pairs (i, j)
    hasse: list = field(default_factory=list)  # transitive reduction of order
    checks: dict = field(default_factory=dict)

    def node_count(self):
        return len(self.nodes)

    def to_dot(self):
        lines = ["digraph five_node {", "  rankdir=BT;"]
        for i, node in enumerate(self.nodes):
            t = node.topology
            label = " = ".join(node.labels)
            summary = (
                f"A:{t.sat.name or t.sat.digest()}  "
                f"J:{t.red.name or t.red.digest()}"
            )
            lines.append(f'  n{i} [label="{label}\\n{summary}"];')
        for i, j in self.hasse:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def five_node_diagram(t):
    """Compute T, T^R, T^S, T^RS, T^SR, merge equal nodes, order them.

    Also verifies the orderings the construction guarantees:
    T^R <= T <= T^S and T^RS <= T^SR.
    """
    tr = t.reduce()
    ts = t.saturate()
    trs = tr.saturate()
    tsr = ts.reduce()
    tops = {"T": t, "T^R": tr, "T^S": ts, "T^RS": trs, "T^SR": tsr}

    nodes = []
    for label in NODE_ORDER:
        top = tops[label]
        for node in nodes:
            if node.topology == top:
                node.labels.append(label)
                break
        else:
            nodes.append(DiagramNode([label], top))

    order = []
    for i, ni in enumerate(nodes):
        for j, nj in enumerate(nodes):
            if i != j and ni.topology.leq(nj.topology):
                order.append((i, j))
    order_set = set(order)
    hasse = [
        (i, j)
        for (i, j) in order
        if not any(
            (i, k) in order_set and (k, j) in order_set
            for k in range(len(nodes))
            if k != i and k != j
        )
    ]

    checks = {
        "T^R <= T": tr.leq(t),
        "T <= T^S": t.leq(ts),
        "T^RS <= T^SR": trs.leq(tsr),
    }
    return Diagram(nodes=nodes, order=order, hasse=hasse, checks=checks)
