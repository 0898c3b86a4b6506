"""Known answers: every job's expected exit code and verdict.

They come from the naive evaluator in naive.py or from a theorem of the
paper, never from heytop, and are computed after the timed loop, so numpy
stays out of the measured process until then.
"""

from dataclasses import dataclass

import naive


@dataclass
class Expect:
    exit: int
    full: str | None = None  # the whole stdout, when the naive evaluator gives it
    lines: tuple = ()  # lines that must appear in stdout, in this order
    stderr_has: str | None = None
    prefix: str | None = None  # every stdout line after the first starts with this


class Model:
    """Naive evaluation of one document: algebra, space and every operator table."""

    def __init__(self, doc):
        self.doc = doc
        try:
            self.alg = naive.algebra(doc.alg)
        except naive.NotALattice:
            self.alg = None
            return
        sp = self.space = naive.Space(self.alg, doc.points)
        self.axioms = {
            name: [(doc.points.index(p), sp.vector(c)) for p, c in covers]
            for name, covers in doc.axioms.items()
        }
        self.tables = {}
        for name, (rule, args) in doc.ops.items():
            if rule == "identity":
                t = sp.identity()
            elif rule == "bottom":
                t = sp.bottom()
            elif rule == "double-complement":
                t = sp.double_complement()
            elif rule == "sat-family":
                t = sp.sat_family([sp.vector(v) for v in args])
            elif rule == "red-family":
                t = sp.red_family([sp.vector(v) for v in args])
            elif rule == "generated-sat":
                t = sp.generated_sat(self.axioms[args])
            else:
                t = sp.generated_red(self.axioms[args])
            self.tables[name] = t
        self._profiles = {}

    def name(self, d):
        return self.alg.names[d]

    def profile(self, op):
        if op not in self._profiles:
            self._profiles[op] = self.space.classify(self.tables[op])
        return self._profiles[op]

    def stock(self):
        sats = reds = 0
        for op in self.tables:
            mono, idem, exp, contr = (flag for flag, _ in self.profile(op))
            sats += mono and idem and exp
            reds += mono and idem and contr
        return sats, reds


def expect(job, model):
    """Expected exit code and verdict of one job."""
    cmd, args = job.argv[0], job.argv[1:]
    if cmd == "counterexample":
        # Theorem: every catalog replay passes.
        return Expect(0, prefix="  [PASS] ")
    if model.alg is None:
        # Not a distributive lattice: parse rejects it with a witness.
        return Expect(2, full="", stderr_has="witness")
    sp, doc, tables = model.space, model.doc, model.tables
    top = model.name(model.alg.top)
    if cmd == "validate":
        text = [
            f"algebra: {len(model.alg)} elements ({', '.join(model.alg.names)})",
            f"carrier: {len(doc.points)} points",
            f"operators: {len(doc.ops)}",
            f"axiom_sets: {len(doc.axioms)}",
            f"relations: {len(doc.relations)}",
            f"topologies: {len(doc.topologies)}",
            "workspace valid",
        ]
        return Expect(0, full="\n".join(text) + "\n")
    if cmd == "classify":
        lines = [f"classify {args[0]}:"]
        for label, (holds, witness) in zip(("monotone", "idempotent", "expansive", "contractive"), model.profile(args[0])):
            if holds:
                lines.append(f"  {label}: verified")
            else:
                shown = ", ".join(sp.rendered[i] for i in witness) if isinstance(witness, tuple) else sp.rendered[witness]
                lines.append(f"  {label}: refuted (witness {shown})")
        return Expect(0, full="\n".join(lines) + "\n")
    if cmd == "compat":
        degree, where = sp.compat(tables[args[0]], tables[args[1]])
        lines = [f"compat({args[0]}, {args[1]}) = {model.name(degree)}"]
        if degree != model.alg.top and where is not None:
            lines.append(f"  witness: {sp.rendered[where[0]]}, {sp.rendered[where[1]]}")
        return Expect(0 if degree == model.alg.top else 1, full="\n".join(lines) + "\n")
    if cmd in ("aa", "jj", "rr"):
        table = getattr(sp, cmd.upper())(tables[args[0]])
        lines = [f"{cmd.upper()}({args[0]}):"] + sp.listing(table)
        return Expect(0, full="\n".join(lines) + "\n")
    if cmd == "galois":
        # Theorem: [A in AA(J)], [A compat J] and [J in JJ(A)] coincide.
        degree, _ = sp.compat(tables[args[0]], tables[args[1]])
        return Expect(0, lines=(f"law galois: holds  degree={model.name(degree)}", "  three-way-coincide: True"))
    if cmd == "diagram":
        # Theorem: T^R <= T <= T^S and T^RS <= T^SR.
        return Expect(0, lines=("digraph five_node {", "  rankdir=BT;", "}"))
    if cmd == "generate":
        # Theorem: the generated pair is compatible; the naive evaluator gives both tables.
        sat = sp.generated_sat(model.axioms[args[0]])
        red = sp.generated_red(model.axioms[args[0]])
        agrees = bool((sp.JJ(sat) == red).all())
        lines = [
            f"generated basic topology from {args[0]}:",
            f"  compat degree: {top}",
            f"  JJ(A) == J: {agrees}",
            f"  saturated: {agrees}",
            "  A table:",
        ] + sp.listing(sat) + ["  J table:"] + sp.listing(red)
        return Expect(0 if agrees else 1, full="\n".join(lines) + "\n")
    if cmd == "represent":
        # Theorems: the symmetry law holds and (S, r-*r-, rr*) is reduced.
        domain, edges = doc.relations[args[0]]
        names = {n: i for i, n in enumerate(model.alg.names)}
        matrix = [[model.alg.bot] * len(doc.points) for _ in domain]
        for x, a, d in edges:
            matrix[domain.index(x)][doc.points.index(a)] = names[d]
        sat, red = sp.representable(matrix)
        lines = [
            f"law symmetry: holds  degree={top}",
            f"representable({args[0]}): compat top, reduced: True",
            "  A = r-*r- table:",
        ] + sp.listing(sat) + ["  J = rr* table:"] + sp.listing(red)
        return Expect(0, full="\n".join(lines) + "\n")
    if cmd == "laws":
        # Theorem: every suite holds; the stock comes from naive classification.
        sats, reds = model.stock()
        instances = {
            "galois": sats * reds,
            "positivity": reds,
            "antitone": reds * reds + sats * sats,
            "unit": sats + reds,
            "triangle": sats + reds,
            "union-to-meet": reds * (reds + 1) // 2 + sats * (sats + 1) // 2,
        }[args[0]]
        return Expect(
            0,
            lines=(
                f"law stock: {sats} saturations, {reds} reductions (from workspace operators)",
                f"law {args[0]}: holds",
                f"  instances: {instances}",
            ),
        )
    raise ValueError(f"no known answer for {cmd!r}")


def check(exp, status, out, err):
    """True when a job's exit code, stdout and stderr match its known answer."""
    if status != exp.exit:
        return False
    if exp.full is not None and out != exp.full:
        return False
    if exp.stderr_has is not None and exp.stderr_has not in err:
        return False
    lines = out.splitlines()
    if exp.prefix is not None and not (len(lines) > 1 and all(l.startswith(exp.prefix) for l in lines[1:])):
        return False
    pos = 0
    for want in exp.lines:
        try:
            pos = lines.index(want, pos) + 1
        except ValueError:
            return False
    return True
