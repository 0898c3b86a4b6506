"""Workspace documents and the command-line interface.

Document grammar (line oriented; '#' starts a comment; blank lines are
ignored; tokens are whitespace separated, so subset literals must not
contain spaces):

    algebra boolean
    algebra chain N
    algebra custom          # explicit order, block form
      elements 0 u 1
      below 0 u
      below u 1
    end
    algebra downsets        # down-sets of the given poset
      elements p q
      below p q
    end

    carrier a b             # point names; may be empty

    operator NAME RULE [ARGS...]
      # rules: identity | bottom | top | complement | double-complement
      #        | inhabited | const LIT | compose F G | meet F G ... |
      #        join F G ... | sat-family LIT ... | red-family LIT ... |
      #        generated-sat AXIOMSET | generated-red AXIOMSET
    operator NAME table     # explicit total table, block form
      {} -> {a}
      {a} -> {a,b}
      ...
    end

    axiom_set NAME
      cover POINT LIT
      ...
    end

    relation NAME           # between an auxiliary domain and the carrier
      domain x y
      edge x a [DEGREE]
      ...
    end

    topology NAME SATOP REDOP

Subset literals: {} or {a,b:u}; a bare point name means degree top,
omitted points are bot.  Degrees print as element names, never numerals.

Exit codes: 0 all checked laws hold, 1 a law fails (witness printed),
2 usage/parse error, 3 cap exceeded.

The subset cap: a quantified answer enumerates a subset space of
|H|^|S| subsets and exits 3 when that is above the subset cap in force
(hset.subset_cap).  The document is built under the larger of the
default cap and --subset-cap, so a lowered cap still parses and
validates it; every command runs under --subset-cap, counterexample
included.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

from . import btop, catalog, gen, hset, laws, optable, rep
from .errors import (
    CapExceeded,
    CertificateFailure,
    HeytopError,
    NotALattice,
    NotCompatible,
    NotHeyting,
    ParseError,
    UnknownCommand,
    UnknownEntry,
    UnknownName,
    ValidationError,
)
from .galois import (
    AA,
    JJ,
    Reduction,
    Saturation,
    from_family_red,
    from_family_sat,
    galois_check,
    profile_of,
)
from .heyting import boolean2, build_from_order, chain, downset_algebra

EXIT_OK = 0
EXIT_LAW_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_SAMPLE_COUNT = 2000


@dataclass
class Workspace:
    algebra: object
    carrier: object
    operators: dict = field(default_factory=dict)
    axiom_sets: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)
    source: str = ""


def parse_subset_literal(token, algebra, carrier, line):
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"expected a subset literal, got {token!r}", line, 1)
    body = token[1:-1]
    mapping = {}
    if body:
        for part in body.split(","):
            if ":" in part:
                point, degree = part.split(":", 1)
            else:
                point, degree = part, algebra.name(algebra.top)
            if point not in carrier:
                raise ValidationError(
                    f"subset literal {token!r} names unknown point {point!r}",
                    obj=token,
                )
            if degree not in algebra:
                raise ValidationError(
                    f"subset literal {token!r} uses unknown degree {degree!r}",
                    obj=token,
                )
            mapping[point] = degree
    return hset.from_degrees(algebra, carrier, mapping)


def _check_names(section, kind, names):
    """ValidationError for a name holding a character of the subset literal
    syntax, which every listing would then print ambiguously."""
    for name in names:
        for c in "{},:":
            if c in name:
                raise ValidationError(
                    f"{section} section: {kind} name {name!r} contains {c!r}",
                    obj=section,
                )


def _parse_algebra_block(kind, lines, i):
    elements = []
    below = []
    while i < len(lines):
        lineno, toks = lines[i]
        i += 1
        if toks[0] == "end":
            break
        if toks[0] == "elements":
            elements.extend(toks[1:])
        elif toks[0] == "below":
            if len(toks) != 3:
                raise ParseError("below needs exactly two elements", lineno, 1)
            below.append((toks[1], toks[2]))
        else:
            raise ParseError(f"unexpected {toks[0]!r} in algebra block", lineno, 1)
    else:
        raise ParseError("algebra block not closed with 'end'", lineno, 1)
    _check_names("algebra", "element" if kind == "custom" else "poset point", elements)
    try:
        if kind == "custom":
            return build_from_order(elements, below), i
        return downset_algebra(elements, below), i
    except (NotALattice, NotHeyting, ValueError) as exc:
        witness = getattr(exc, "witness", None)
        detail = f" (witness {witness})" if witness else ""
        raise ValidationError(f"algebra section: {exc}{detail}", obj="algebra") from exc


class _OperatorBuilder:
    """Deferred operator construction so definitions may be order-free."""

    def __init__(self, lineno, rule, args, table_lines=None):
        self.lineno = lineno
        self.rule = rule
        self.args = args
        self.table_lines = table_lines


def parse_document(text):
    """Parse a workspace document; ParseError or ValidationError on defect."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped.split()))

    algebra = None
    carrier = None
    op_builders = {}
    axiom_builders = {}
    relation_builders = {}
    topology_builders = {}

    i = 0
    while i < len(lines):
        lineno, toks = lines[i]
        i += 1
        head = toks[0]
        if head == "algebra":
            if algebra is not None:
                raise ParseError("duplicate algebra section", lineno, 1)
            if len(toks) < 2:
                raise ParseError("algebra needs a kind", lineno, 1)
            kind = toks[1]
            if kind == "boolean":
                algebra = boolean2()
            elif kind == "chain":
                if len(toks) != 3 or not toks[2].isdigit():
                    raise ParseError("algebra chain needs a size", lineno, 1)
                try:
                    algebra = chain(int(toks[2]))
                except ValueError as exc:
                    raise ValidationError(
                        f"algebra section: {exc}", obj="algebra"
                    ) from exc
            elif kind in ("custom", "downsets"):
                algebra, i = _parse_algebra_block(kind, lines, i)
            else:
                raise ParseError(f"unknown algebra kind {kind!r}", lineno, 1)
        elif head == "carrier":
            if carrier is not None:
                raise ParseError("duplicate carrier section", lineno, 1)
            _check_names("carrier", "point", toks[1:])
            try:
                carrier = hset.Carrier(toks[1:])
            except ValueError as exc:
                raise ValidationError(f"carrier section: {exc}", obj="carrier") from exc
        elif head == "operator":
            if len(toks) < 3:
                raise ParseError("operator needs a name and a rule", lineno, 1)
            name, rule = toks[1], toks[2]
            if name in op_builders:
                raise ValidationError(f"duplicate operator name {name!r}", obj=name)
            if rule == "table":
                table_lines = []
                while i < len(lines):
                    sub_lineno, sub = lines[i]
                    i += 1
                    if sub[0] == "end":
                        break
                    table_lines.append((sub_lineno, sub))
                else:
                    raise ParseError("operator table not closed", lineno, 1)
                op_builders[name] = _OperatorBuilder(lineno, rule, [], table_lines)
            else:
                op_builders[name] = _OperatorBuilder(lineno, rule, toks[3:])
        elif head == "axiom_set":
            if len(toks) != 2:
                raise ParseError("axiom_set needs a name", lineno, 1)
            name = toks[1]
            if name in axiom_builders:
                raise ValidationError(f"duplicate axiom_set name {name!r}", obj=name)
            covers = []
            while i < len(lines):
                sub_lineno, sub = lines[i]
                i += 1
                if sub[0] == "end":
                    break
                if sub[0] != "cover" or len(sub) != 3:
                    raise ParseError("expected: cover POINT LITERAL", sub_lineno, 1)
                covers.append((sub_lineno, sub[1], sub[2]))
            else:
                raise ParseError("axiom_set block not closed", lineno, 1)
            axiom_builders[name] = covers
        elif head == "relation":
            if len(toks) != 2:
                raise ParseError("relation needs a name", lineno, 1)
            name = toks[1]
            if name in relation_builders:
                raise ValidationError(f"duplicate relation name {name!r}", obj=name)
            domain = None
            edges = []
            while i < len(lines):
                sub_lineno, sub = lines[i]
                i += 1
                if sub[0] == "end":
                    break
                if sub[0] == "domain":
                    if domain is not None:
                        raise ValidationError(
                            f"relation {name!r} has a second domain line", obj=name
                        )
                    domain = sub[1:]
                elif sub[0] == "edge" and len(sub) in (3, 4):
                    edges.append((sub_lineno, sub[1], sub[2], sub[3] if len(sub) == 4 else None))
                else:
                    raise ParseError(
                        "expected: domain POINTS... or edge X A [DEGREE]", sub_lineno, 1
                    )
            else:
                raise ParseError("relation block not closed", lineno, 1)
            if domain is None:
                raise ParseError(f"relation {name!r} has no domain", lineno, 1)
            relation_builders[name] = (domain, edges)
        elif head == "topology":
            if len(toks) != 4:
                raise ParseError("expected: topology NAME SATOP REDOP", lineno, 1)
            name = toks[1]
            if name in topology_builders:
                raise ValidationError(f"duplicate topology name {name!r}", obj=name)
            topology_builders[name] = (lineno, toks[2], toks[3])
        else:
            raise ParseError(f"unknown section {head!r}", lineno, 1)

    if algebra is None:
        raise ParseError("document has no algebra section", 1, 1)
    if carrier is None:
        raise ParseError("document has no carrier section", 1, 1)

    ws = Workspace(algebra=algebra, carrier=carrier, source=text)

    for name, covers in axiom_builders.items():
        axioms = []
        for lineno, point, lit in covers:
            if point not in carrier:
                raise ValidationError(
                    f"axiom_set {name!r}: cover names unknown point {point!r}",
                    obj=name,
                )
            axioms.append((point, parse_subset_literal(lit, algebra, carrier, lineno)))
        ws.axiom_sets[name] = gen.AxiomSet(algebra, carrier, axioms)

    for name, builder in op_builders.items():
        ws.operators[name] = _build_operator(ws, name, builder, op_builders)

    for name, (domain, edges) in relation_builders.items():
        try:
            dom = hset.Carrier(domain)
        except ValueError as exc:
            raise ValidationError(
                f"relation {name!r}: domain: {exc}", obj=name
            ) from exc
        triples = []
        seen = set()
        for lineno, x, a, d in edges:
            if (x, a) in seen:
                raise ValidationError(
                    f"relation {name!r}: repeated edge {x} {a}", obj=name
                )
            seen.add((x, a))
            if x not in dom:
                raise ValidationError(
                    f"relation {name!r}: edge names unknown domain point {x!r}",
                    obj=name,
                )
            if a not in carrier:
                raise ValidationError(
                    f"relation {name!r}: edge names unknown point {a!r}", obj=name
                )
            d = d if d is not None else algebra.name(algebra.top)
            if d not in algebra:
                raise ValidationError(
                    f"relation {name!r}: unknown degree {d!r}", obj=name
                )
            triples.append((x, a, d))
        ws.relations[name] = rep.HRelation.from_triples(
            algebra, dom, carrier, triples, name=name
        )

    for name, (lineno, satname, redname) in topology_builders.items():
        sat = _certified(ws, satname, Saturation, name)
        red = _certified(ws, redname, Reduction, name)
        try:
            ws.topologies[name] = btop.make(sat, red, name=name)
        except NotCompatible as exc:
            raise ValidationError(
                f"topology {name!r}: {exc} (witness {exc.witness})", obj=name
            ) from None

    return ws


def _certified(ws, opname, cls, owner):
    op = ws.operators.get(opname)
    if op is None:
        raise ValidationError(
            f"topology {owner!r} references unknown operator {opname!r}", obj=owner
        )
    if isinstance(op, cls):
        return op
    try:
        return cls.certify(op)
    except CertificateFailure as exc:
        raise ValidationError(
            f"topology {owner!r}: operator {opname!r} is not a "
            f"{cls.__name__.lower()} ({exc})",
            obj=owner,
        ) from None


_NULLARY_RULES = {
    "identity": optable.identity_op,
    "bottom": optable.bottom_op,
    "top": optable.top_op,
    "complement": optable.complement_op,
    "double-complement": optable.double_complement_op,
    "inhabited": optable.inhabited_op,
}


def _build_operator(ws, name, builder, op_builders, stack=()):
    if name in stack:
        raise ValidationError(f"operator {name!r} is defined in terms of itself", obj=name)
    algebra, carrier = ws.algebra, ws.carrier
    rule = builder.rule
    args = builder.args

    def sub_operator(opname):
        if opname in ws.operators:
            return ws.operators[opname]
        sub = op_builders.get(opname)
        if sub is None:
            raise ValidationError(
                f"operator {name!r} references unknown operator {opname!r}", obj=name
            )
        built = _build_operator(ws, opname, sub, op_builders, stack + (name,))
        ws.operators[opname] = built
        return built

    def literal(tok):
        return parse_subset_literal(tok, algebra, carrier, builder.lineno)

    if rule in _NULLARY_RULES:
        if args:
            raise ParseError(f"{rule} takes no arguments", builder.lineno, 1)
        op = _NULLARY_RULES[rule](algebra, carrier)
    elif rule == "const":
        if len(args) != 1:
            raise ParseError("const needs one subset literal", builder.lineno, 1)
        op = optable.const_op(literal(args[0]))
    elif rule == "compose":
        if len(args) != 2:
            raise ParseError("compose needs two operators", builder.lineno, 1)
        op = optable.compose(sub_operator(args[0]), sub_operator(args[1]))
    elif rule == "meet":
        op = optable.pointwise_meet(
            [sub_operator(a) for a in args], algebra=algebra, carrier=carrier
        )
    elif rule == "join":
        op = optable.pointwise_join(
            [sub_operator(a) for a in args], algebra=algebra, carrier=carrier
        )
    elif rule == "sat-family":
        op = from_family_sat(
            [literal(a) for a in args], algebra=algebra, carrier=carrier
        )
    elif rule == "red-family":
        op = from_family_red(
            [literal(a) for a in args], algebra=algebra, carrier=carrier
        )
    elif rule == "generated-sat":
        if len(args) != 1 or args[0] not in ws.axiom_sets:
            raise ValidationError(
                f"operator {name!r}: generated-sat needs a known axiom_set", obj=name
            )
        op = gen.generate_sat(ws.axiom_sets[args[0]])
    elif rule == "generated-red":
        if len(args) != 1 or args[0] not in ws.axiom_sets:
            raise ValidationError(
                f"operator {name!r}: generated-red needs a known axiom_set", obj=name
            )
        op = gen.generate_red(ws.axiom_sets[args[0]])
    elif rule == "table":
        mapping = {}
        for lineno, toks in builder.table_lines:
            if len(toks) != 3 or toks[1] != "->":
                raise ParseError("table rows look like: LIT -> LIT", lineno, 1)
            key = parse_subset_literal(toks[0], algebra, carrier, lineno)
            if key in mapping:
                raise ValidationError(
                    f"operator {name!r}: repeated table input {key.render()}", obj=name
                )
            mapping[key] = parse_subset_literal(toks[2], algebra, carrier, lineno)
        try:
            op = optable.tabulated_op(algebra, carrier, mapping)
        except ValueError as exc:
            raise ValidationError(f"operator {name!r}: {exc}", obj=name) from None
    else:
        raise ParseError(f"unknown operator rule {rule!r}", builder.lineno, 1)
    op.name = name
    return op


def serialize(ws):
    """Render a workspace back to document text; reparses equivalently.

    Operators are emitted as explicit tables (behaviour, not provenance),
    so serialize(parse(doc)) normalizes the document.
    """
    alg = ws.algebra
    lines = ["algebra custom"]
    lines.append("  elements " + " ".join(alg.names))
    for i in range(len(alg)):
        for j in range(len(alg)):
            if i != j and alg.leq_table[i][j]:
                lines.append(f"  below {alg.names[i]} {alg.names[j]}")
    lines.append("end")
    lines.append("carrier " + " ".join(ws.carrier.points))
    for name in sorted(ws.axiom_sets):
        ax = ws.axiom_sets[name]
        lines.append(f"axiom_set {name}")
        for point, cover, _weight in ax.axioms:
            lines.append(f"  cover {ws.carrier.points[point]} {cover.render()}")
        lines.append("end")
    for name in sorted(ws.operators):
        lines.append(f"operator {name} table")
        lines.extend(_op_listing(ws, ws.operators[name]))
        lines.append("end")
    for name in sorted(ws.relations):
        r = ws.relations[name]
        lines.append(f"relation {name}")
        lines.append("  domain " + " ".join(r.domain.points))
        for x in range(len(r.domain)):
            for a in range(len(r.codomain)):
                d = r.matrix[x][a]
                if d != alg.bot:
                    lines.append(
                        f"  edge {r.domain.points[x]} {r.codomain.points[a]} {alg.name(d)}"
                    )
        lines.append("end")
    for name in sorted(ws.topologies):
        t = ws.topologies[name]
        lines.append(f"topology {name} {t.sat.name} {t.red.name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


_KIND_SINGULAR = {
    "operators": "operator",
    "axiom_sets": "axiom_set",
    "relations": "relation",
    "topologies": "topology",
}


def _need(ws, kind, name):
    store = getattr(ws, kind)
    if name not in store:
        raise UnknownName(f"no {_KIND_SINGULAR[kind]} named {name!r}")
    return store[name]


def _op_listing(ws, op):
    """One line "U -> O U" per subset U, read from op's rank table."""
    text = [u.render() for u in hset.enumerate_all(ws.algebra, ws.carrier)]
    return [f"  {text[u]} -> {text[r]}" for u, r in enumerate(op.rank_table())]


def _render_flag(label, flag):
    if flag.holds:
        return f"  {label}: verified"
    w = flag.witness
    if isinstance(w, tuple):
        witness = ", ".join(x.render() for x in w)
    else:
        witness = w.render()
    return f"  {label}: refuted (witness {witness})"


def cmd_validate(ws, args, caps):
    lines = [
        f"algebra: {len(ws.algebra)} elements ({', '.join(ws.algebra.names)})",
        f"carrier: {len(ws.carrier)} points",
        f"operators: {len(ws.operators)}",
        f"axiom_sets: {len(ws.axiom_sets)}",
        f"relations: {len(ws.relations)}",
        f"topologies: {len(ws.topologies)}",
        "workspace valid",
    ]
    return lines, EXIT_OK


def cmd_classify(ws, args, caps):
    (opname,) = args
    op = _need(ws, "operators", opname)
    profile = profile_of(op)
    lines = [f"classify {opname}:"]
    lines.append(_render_flag("monotone", profile.monotone))
    lines.append(_render_flag("idempotent", profile.idempotent))
    lines.append(_render_flag("expansive", profile.expansive))
    lines.append(_render_flag("contractive", profile.contractive))
    return lines, EXIT_OK


def cmd_compat(ws, args, caps):
    o1 = _need(ws, "operators", args[0])
    o2 = _need(ws, "operators", args[1])
    alg = ws.algebra
    try:
        degree, witness = optable.compat_witness(o1, o2)
    except CapExceeded:
        report = laws.sampled_compat_search(o1, o2, caps.sample_count, caps.seed)
        return report.render().splitlines(), (
            EXIT_OK if report.ok else EXIT_LAW_FAILED
        )
    lines = [f"compat({args[0]}, {args[1]}) = {alg.name(degree)}"]
    if degree != alg.top and witness is not None:
        lines.append(f"  witness: {witness[0].render()}, {witness[1].render()}")
    return lines, EXIT_OK if degree == alg.top else EXIT_LAW_FAILED


def _op_result(ws, label, op):
    return [label] + _op_listing(ws, op), EXIT_OK


def cmd_ll(ws, args, caps):
    op = _need(ws, "operators", args[0])
    return _op_result(ws, f"LL({args[0]}):", optable.LL(op))


def cmd_rr(ws, args, caps):
    op = _need(ws, "operators", args[0])
    return _op_result(ws, f"RR({args[0]}):", optable.RR(op))


def cmd_aa(ws, args, caps):
    op = _certified_for_command(ws, args[0], Reduction)
    return _op_result(ws, f"AA({args[0]}):", AA(op))


def cmd_jj(ws, args, caps):
    op = _certified_for_command(ws, args[0], Saturation)
    return _op_result(ws, f"JJ({args[0]}):", JJ(op))


def _certified_for_command(ws, opname, cls):
    op = _need(ws, "operators", opname)
    if isinstance(op, cls):
        return op
    try:
        return cls.certify(op)
    except CertificateFailure as exc:
        raise ValidationError(
            f"operator {opname!r} is not a {cls.__name__.lower()}: {exc}",
            obj=opname,
        ) from None


def cmd_galois(ws, args, caps):
    sat = _certified_for_command(ws, args[0], Saturation)
    red = _certified_for_command(ws, args[1], Reduction)
    report = galois_check(sat, red)
    return report.render().splitlines(), EXIT_OK if report.ok else EXIT_LAW_FAILED


def _workspace_stocks(ws):
    sats, reds = [], []
    for name in sorted(ws.operators):
        op = ws.operators[name]
        profile = profile_of(op)
        if profile.is_saturation:
            sats.append(Saturation.certify(op, name=name, profile=profile))
        if profile.is_reduction:
            reds.append(Reduction.certify(op, name=name, profile=profile))
    return sats, reds


def cmd_laws(ws, args, caps):
    if len(args) > 1:
        raise UnknownCommand("laws takes at most one suite id")
    suites = list(laws.SUITES) if not args else [args[0]]
    for s in suites:
        if s not in laws.SUITES:
            raise UnknownCommand(
                f"unknown law suite {s!r}; known: {', '.join(laws.SUITES)}"
            )
    sats, reds = _workspace_stocks(ws)
    lines = [
        f"law stock: {len(sats)} saturations, {len(reds)} reductions "
        "(from workspace operators)"
    ]
    status = EXIT_OK
    for s in suites:
        report = laws.run_suite(s, sats, reds)
        lines.extend(report.render().splitlines())
        if not report.ok:
            status = EXIT_LAW_FAILED
    return lines, status


def cmd_generate(ws, args, caps):
    ax = _need(ws, "axiom_sets", args[0])
    sat = gen.generate_sat(ax, name=f"A[{args[0]}]")
    red = gen.generate_red(ax, name=f"J[{args[0]}]")
    btop.make(sat, red, name=args[0])  # compat(A, J) = top
    lines = [f"generated basic topology from {args[0]}:"]
    lines.append(f"  compat degree: {ws.algebra.name(ws.algebra.top)}")
    agrees = optable.op_eq(JJ(sat), red)
    lines.append(f"  JJ(A) == J: {agrees}")
    # make keeps the certified A and J, so T = [A, J] is saturated, i.e.
    # equal to T^S = [A, JJ(A)], exactly when JJ(A) == J
    lines.append(f"  saturated: {agrees}")
    lines.append("  A table:")
    lines.extend(_op_listing(ws, sat))
    lines.append("  J table:")
    lines.extend(_op_listing(ws, red))
    return lines, EXIT_OK if agrees else EXIT_LAW_FAILED


def cmd_represent(ws, args, caps):
    r = _need(ws, "relations", args[0])
    lines = []
    sym = rep.symmetry_check(r)
    lines.extend(sym.render().splitlines())
    t = rep.representable(r)
    reduced, _ = btop.is_reduced(t)
    lines.append(f"representable({args[0]}): compat top, reduced: {reduced}")
    lines.append("  A = r-*r- table:")
    lines.extend(_op_listing(ws, t.sat))
    lines.append("  J = rr* table:")
    lines.extend(_op_listing(ws, t.red))
    ok = sym.ok and reduced
    return lines, EXIT_OK if ok else EXIT_LAW_FAILED


def cmd_diagram(ws, args, caps):
    t = _need(ws, "topologies", args[0])
    diagram = btop.five_node_diagram(t)
    lines = diagram.to_dot().splitlines()
    ok = all(diagram.checks.values())
    return lines, EXIT_OK if ok else EXIT_LAW_FAILED


def cmd_counterexample(ws, args, caps):
    entry = catalog.load(args[0])
    lines = [f"counterexample {entry.name}: {entry.description}"]
    failed = False
    for result in entry.replay():
        mark = "PASS" if result.passed else "FAIL"
        lines.append(
            f"  [{mark}] {result.check}: expected {result.expected}, "
            f"got {result.actual}"
        )
        failed = failed or not result.passed
    return lines, EXIT_LAW_FAILED if failed else EXIT_OK


COMMANDS = {
    "validate": (cmd_validate, 0, True),
    "classify": (cmd_classify, 1, True),
    "compat": (cmd_compat, 2, True),
    "ll": (cmd_ll, 1, True),
    "rr": (cmd_rr, 1, True),
    "aa": (cmd_aa, 1, True),
    "jj": (cmd_jj, 1, True),
    "galois": (cmd_galois, 2, True),
    "laws": (cmd_laws, -1, True),
    "generate": (cmd_generate, 1, True),
    "represent": (cmd_represent, 1, True),
    "diagram": (cmd_diagram, 1, True),
    "counterexample": (cmd_counterexample, 1, False),
}


@dataclass
class Caps:
    subset_cap: int = hset.DEFAULT_SUBSET_CAP
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = 0


def run(command, args, ws, caps=None):
    """Dispatch one command under the subset cap caps.subset_cap; returns
    (text, exit_status)."""
    caps = caps or Caps()
    try:
        handler, arity, needs_ws = COMMANDS[command]
    except KeyError:
        raise UnknownCommand(
            f"unknown command {command!r}; known: {', '.join(COMMANDS)}"
        ) from None
    if arity >= 0 and len(args) != arity:
        raise UnknownCommand(f"command {command!r} takes {arity} argument(s)")
    if needs_ws and ws is None:
        raise UnknownCommand(f"command {command!r} needs a workspace document (-d)")
    with hset.subset_cap(caps.subset_cap):
        lines, status = handler(ws, args, caps)
    return "\n".join(lines) + "\n", status


# the integer options: flag, environment variable, default, least value, help
_INT_OPTIONS = (
    ("--subset-cap", "HEYTOP_SUBSET_CAP", hset.DEFAULT_SUBSET_CAP, 1,
     "enumeration cap on the subset space"),
    ("--sample-count", "HEYTOP_SAMPLE_COUNT", DEFAULT_SAMPLE_COUNT, 1,
     "samples for randomized counterexample search above the cap"),
    ("--seed", "HEYTOP_SEED", 0, None,
     "seed for randomized search (always printed when used)"),
)


def _usage_error(message):
    """Report a usage error in one stderr line and exit with EXIT_USAGE."""
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _usage_error(message)


@functools.cache
def _parser():
    """The command-line parser, built on first use; an integer option it
    does not see is None."""
    parser = _Parser(
        prog="heytop",
        description="saturations, reductions and basic topologies over "
        "finite Heyting-valued subset spaces",
    )
    parser.add_argument("-d", "--doc", help="workspace document file")
    for flag, _, _, _, text in _INT_OPTIONS:
        parser.add_argument(flag, type=int, help=text)
    parser.add_argument("command", help="command to run")
    parser.add_argument("args", nargs="*", help="command arguments")
    return parser


def _arguments(argv):
    """The parsed command line; an integer option falls back to its
    environment variable, read on every call, which must then hold an
    integer."""
    fallback = {}
    for flag, var, default, _, _ in _INT_OPTIONS:
        value = os.environ.get(var)
        if value is not None:
            try:
                default = int(value)
            except ValueError:
                _usage_error(f"{var} must be an integer, not {value!r}")
        fallback[flag] = default
    ns = _parser().parse_args(argv)
    for flag, var, _, least, _ in _INT_OPTIONS:
        dest = flag[2:].replace("-", "_")
        value = getattr(ns, dest)
        if value is None:
            value = fallback[flag]
            setattr(ns, dest, value)
        if least is not None and value < least:
            _usage_error(f"{flag} (or {var}) must be at least {least}, not {value}")
    return ns


def main(argv=None):
    try:
        ns = _arguments(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    caps = Caps(ns.subset_cap, ns.sample_count, ns.seed)
    ws = None
    try:
        if ns.doc:
            with open(ns.doc, encoding="utf-8") as fh:
                source = fh.read()
            with hset.subset_cap(max(hset.DEFAULT_SUBSET_CAP, caps.subset_cap)):
                ws = parse_document(source)
        text, status = run(ns.command, ns.args, ws, caps)
        sys.stdout.write(text)
        return status
    except (ParseError, ValidationError, UnknownCommand, UnknownName, UnknownEntry) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"error: {ns.doc} is not UTF-8 text: {exc}\n")
        return EXIT_USAGE
    except HeytopError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LAW_FAILED


if __name__ == "__main__":
    sys.exit(main())
