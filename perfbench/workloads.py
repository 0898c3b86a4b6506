"""Seeded workload generators: workspace documents, CLI jobs and their known answers.

A workload is a pool of jobs, each a document plus a CLI command line, built
only from the seed.  The job loop walks the pool in order and starts over
when it reaches the end.  answers.py gives every job its known answer, after
the timed loop; generating the pool is part of the timed set-up, so this file
imports nothing heavier than orders.py.
"""

import random
from dataclasses import dataclass, field

from orders import downsets, element_names

CATALOG = (
    "nonidempotent-meet",
    "weak-vs-strong-compat",
    "rr-converse-fails",
    "ap-jp-incompatible",
    "id-bot-topology",
    "sat-not-reduced",
    "red-not-saturated",
    "finite-line-meet-law",
)
SUITES = ("galois", "positivity", "antitone", "unit", "triangle", "union-to-meet")


@dataclass
class Doc:
    """A workspace document as data; `text` renders it in the CLI grammar."""

    alg: tuple  # ('boolean',), ('chain', n), ('downsets', points, below) or ('custom', elements, below)
    points: list
    ops: dict = field(default_factory=dict)  # name -> (rule, [literal dicts] or axiom-set name)
    axioms: dict = field(default_factory=dict)  # name -> [(point, literal dict)]
    relations: dict = field(default_factory=dict)  # name -> (domain, [(x, a, degree name)])
    topologies: dict = field(default_factory=dict)  # name -> (sat, red)

    def text(self):
        kind = self.alg[0]
        if kind == "boolean":
            lines = ["algebra boolean"]
        elif kind == "chain":
            lines = [f"algebra chain {self.alg[1]}"]
        else:
            lines = [f"algebra {kind}", "  elements " + " ".join(self.alg[1])]
            lines += [f"  below {a} {b}" for a, b in self.alg[2]]
            lines.append("end")
        lines.append("carrier " + " ".join(self.points))
        for name, covers in self.axioms.items():
            lines.append(f"axiom_set {name}")
            lines += [f"  cover {p} {literal(c)}" for p, c in covers]
            lines.append("end")
        for name, (rule, args) in self.ops.items():
            if rule in ("sat-family", "red-family"):
                args = " ".join(literal(v) for v in args)
            lines.append(f"operator {name} {rule} {args}".rstrip())
        for name, (domain, edges) in self.relations.items():
            lines += [f"relation {name}", "  domain " + " ".join(domain)]
            lines += [f"  edge {x} {a} {d}" for x, a, d in edges]
            lines.append("end")
        for name, (sat, red) in self.topologies.items():
            lines.append(f"topology {name} {sat} {red}")
        return "\n".join(lines) + "\n"


def literal(degrees):
    return "{" + ",".join(f"{p}:{d}" for p, d in degrees.items()) + "}"


@dataclass
class Job:
    doc: int | None  # index into the workload's documents; None for document-free commands
    argv: tuple
    kind: str  # job-mix label


@dataclass
class Workload:
    name: str
    docs: list
    jobs: list
    probe_jobs: int  # the memory metrics are read after, and the traced run replays, this many jobs
    tail_q: float  # verdict_s.tail percentile: inside the heaviest job class, well over ten jobs beyond it
    cycle: int  # jobs in which the job mix repeats; the time metrics cover whole cycles


# The seed picks the contents of every document (which points, which degrees,
# how the elements of an order are named and listed) but not its shape:
# algebra kinds, poset shapes and sizes, carrier sizes, family and axiom
# counts and the job order are fixed.  Runs with different seeds then do the
# same amount of work, so their figures differ by the machine's noise and not
# by the luck of the draw.


def _lit(rng, points, degrees, k):
    """A literal on k random points with random degrees."""
    return {p: rng.choice(degrees) for p in sorted(rng.sample(points, k), key=points.index)}


def _cover(rng, points, degrees, k):
    """An axiom (point, cover) whose cover has k points other than the point."""
    p = rng.choice(points)
    return p, _lit(rng, [q for q in points if q != p], degrees, k)


# -- boolean-kernels ------------------------------------------------------------

BOOLEAN_ROUNDS = 12
BIG_JOBS = (("classify", "Ap"), ("compat", "Id", "Jp"), ("jj", "Ap"), ("rr", "Jp"))


def boolean_kernels(seed):
    """Rounds of ten jobs: seven on 7 points (128 subsets, below optable._Space's
    256-subset pair-table cutoff), galois and diagram on 8 points (256 subsets,
    the largest space with pair tables) and one on 9 points (512 subsets, above
    the cutoff).  The three heavy jobs are three in ten.  verdict_s.tail (p85)
    falls in the middle of the diagram and 512-subset jobs, the slowest two in
    ten, away from the boundary with the faster galois jobs."""
    rng = random.Random(seed)
    docs, jobs = [], []
    top = ["1"]

    def family_doc(npts, size):
        pts = [f"p{i}" for i in range(npts)]
        doc = Doc(("boolean",), pts)
        doc.ops = {
            "Id": ("identity", ""),
            "Bot": ("bottom", ""),
            "Ap": ("sat-family", [_lit(rng, pts, top, size) for _ in range(2)]),
            "Jp": ("red-family", [_lit(rng, pts, top, size) for _ in range(2)]),
        }
        docs.append(doc)
        return doc

    for r in range(BOOLEAN_ROUNDS):
        pts = [f"p{i}" for i in range(7)]
        doc = Doc(("boolean",), pts)
        doc.axioms["ax"] = [_cover(rng, pts, top, 2) for _ in range(4)]
        doc.ops = {
            "Id": ("identity", ""),
            "Bot": ("bottom", ""),
            "Ap": ("sat-family", [_lit(rng, pts, top, 3) for _ in range(3)]),
            "Jp": ("red-family", [_lit(rng, pts, top, 3) for _ in range(2)]),
            "GA": ("generated-sat", "ax"),
            "GJ": ("generated-red", "ax"),
        }
        doc.topologies["T"] = ("GA", "GJ")
        docs.append(doc)
        small = len(docs) - 1
        family_doc(8, 4).topologies["T"] = ("Id", "Bot")
        mid = len(docs) - 1
        family_doc(9, 4)
        big = len(docs) - 1
        for d, argv in (
            (small, ("classify", ("Ap", "GA", "GJ")[r % 3])),
            (small, ("compat", "GA", "GJ")),
            (mid, ("galois", "Ap", "Jp")),
            (small, ("compat", "Ap", "Jp")),
            (small, ("aa", ("Jp", "GJ")[r % 2])),
            (mid, ("diagram", "T")),
            (small, ("jj", ("Ap", "GA")[r % 2])),
            (small, ("rr", "Ap")),
            (small, ("generate", "ax")),
            (big, BIG_JOBS[r % len(BIG_JOBS)]),
        ):
            jobs.append(Job(d, argv, f"{argv[0]}@{2 ** len(docs[d].points)}"))
    return Workload("boolean-kernels", docs, jobs, probe_jobs=3 * 10, tail_q=85, cycle=10)


# -- intuitionistic-laws ----------------------------------------------------------

LAW_ROUNDS = 6
LAW_ALGEBRAS = (
    (("downsets", ("p", "q"), []), 3),  # the 4-element diamond, 64 subsets
    (("downsets", ("a", "b", "c"), [("a", "c")]), 2),  # 6 down-sets of the V-poset, 36 subsets
    (("chain", 3), 4),  # 0 < u < 1, 81 subsets
)


def intuitionistic_laws(seed):
    """Non-Boolean algebras, two of them not chains, with middle degrees everywhere.

    The pool is short (about 12 s of jobs at the reference speed), so a run makes two or three whole
    passes; the time metrics cover whole passes, so every run weighs each
    algebra and each command alike.  verdict_s.tail (p80) falls in the middle
    of the law suites other than union-to-meet."""
    rng = random.Random(seed)
    docs, jobs = [], []
    for r in range(LAW_ROUNDS):
        spec, npts = LAW_ALGEBRAS[r % len(LAW_ALGEBRAS)]
        names = element_names(spec)
        middle, upper = list(names[1:-1]), list(names[1:])
        pts = [f"s{i}" for i in range(npts)]
        doc = Doc(spec, pts)
        doc.axioms["ax"] = [_cover(rng, pts, upper, 1) for _ in range(3)]
        doc.ops = {
            "Id": ("identity", ""),
            "Bot": ("bottom", ""),
            "DC": ("double-complement", ""),
            "Ap": ("sat-family", [_lit(rng, pts, upper, npts - 1) for _ in range(2)]),
            "Jp": ("red-family", [_lit(rng, pts, middle, npts - 1) for _ in range(2)]),
            "GA": ("generated-sat", "ax"),
            "GJ": ("generated-red", "ax"),
        }
        domain = ["x", "y"]
        cells = rng.sample([(x, a) for x in domain for a in pts], 3)
        doc.relations["r"] = (domain, [(x, a, rng.choice(upper)) for x, a in sorted(cells)])
        docs.append(doc)
        i = len(docs) - 1
        for argv in (
            ("generate", "ax"),
            ("represent", "r"),
            ("compat", "DC", "Jp"),
            ("compat", "Ap", "GJ"),
            ("galois", "GA", "GJ"),
        ) + tuple(("laws", s) for s in SUITES):
            jobs.append(Job(i, argv, argv[0] if argv[0] != "laws" else f"laws {argv[1]}"))
    return Workload("intuitionistic-laws", docs, jobs, probe_jobs=3 * 11, tail_q=80, cycle=len(jobs))


# -- algebra-churn ------------------------------------------------------------------

CHURN_DOCS = 144
DEFECTS = {
    "M3": [("b", "x"), ("b", "y"), ("b", "z"), ("x", "t"), ("y", "t"), ("z", "t")],
    "N5": [("b", "x"), ("x", "y"), ("y", "t"), ("b", "z"), ("z", "t")],
    "two-tops": [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t"), ("x", "s"), ("y", "s")],
}


# Posets whose down-sets give the churn algebras: (number of points, order pairs).
SHAPES = (
    (1, []),
    (2, []),
    (2, [(0, 1)]),
    (3, []),
    (3, [(0, 2), (1, 2)]),
    (3, [(0, 1), (0, 2)]),
    (3, [(0, 1), (1, 2)]),
    (4, []),
    (4, [(0, 2), (1, 2), (1, 3)]),
    (4, [(0, 1), (2, 3)]),
)


def _poset(rng, prefix, slot, shapes):
    """The slot's poset shape, on randomly permuted point names."""
    size, order = shapes[slot % len(shapes)]
    pts = [f"{prefix}{i}" for i in range(size)]
    rng.shuffle(pts)
    return sorted(pts), [(pts[a], pts[b]) for a, b in order]


def _custom_order(rng, slot):
    """A custom order: five slots in six a distributive lattice (the down-sets of
    a small poset, renamed and shuffled), the sixth a non-distributive lattice
    or a non-lattice."""
    if slot % 6 == 5:
        pairs = list(DEFECTS.values())[slot // 6 % len(DEFECTS)]
        elements = sorted({e for p in pairs for e in p})
    else:
        names, order = downsets(*_poset(rng, "q", slot, SHAPES[:7]))
        elements = [f"e{i}" for i in range(len(names))]
        pairs = [(elements[i], elements[j]) for i, j in order if i != j]
    rng.shuffle(elements)
    rng.shuffle(pairs)
    return ("custom", elements, pairs)


def algebra_churn(seed):
    """Many small documents, each with a fresh algebra, plus the catalog replays."""
    rng = random.Random(seed)
    docs, jobs = [], []
    for k in range(CHURN_DOCS):
        slot = k // 4
        kind = ("boolean", "chain", "downsets", "custom")[k % 4]
        if kind == "boolean":
            spec = ("boolean",)
        elif kind == "chain":
            spec = ("chain", 2 + slot % 7)
        elif kind == "downsets":
            spec = ("downsets",) + _poset(rng, "d", slot, SHAPES)
        else:
            spec = _custom_order(rng, slot)
        names = element_names(spec)
        max_pts = max(p for p in (1, 2, 3) if len(names) ** p <= 64)
        pts = ["a", "b", "c"][: 1 + slot % max_pts]
        doc = Doc(spec, pts)
        doc.ops = {
            "Id": ("identity", ""),
            "Bot": ("bottom", ""),
            "Ap": ("sat-family", [_lit(rng, pts, names, len(pts)) for _ in range(2)]),
            "Jp": ("red-family", [_lit(rng, pts, names, len(pts)) for _ in range(2)]),
        }
        doc.topologies["T"] = ("Id", "Bot")
        docs.append(doc)
        for argv in (("validate",), ("classify", "Ap"), ("compat", "Ap", "Jp"), ("galois", "Ap", "Jp"), ("diagram", "T")):
            jobs.append(Job(k, argv, argv[0]))
        jobs.append(Job(None, ("counterexample", CATALOG[k % len(CATALOG)]), "counterexample"))
    return Workload("algebra-churn", docs, jobs, probe_jobs=len(jobs), tail_q=95, cycle=4 * 6)


WORKLOADS = {
    "boolean-kernels": boolean_kernels,
    "intuitionistic-laws": intuitionistic_laws,
    "algebra-churn": algebra_churn,
}

# Why each workload is in the benchmark; which layers it stresses and which it skips.
WHY = {
    "boolean-kernels": (
        "The quantified kernels of optable and galois (classify, compat, LL/AA, splits/JJ, RR) "
        "and the hset primitives do almost all the work, in Boolean mode, where a bit-plane "
        "kernel shrinks a subset to one int.  Seven jobs in ten run on 128 subsets, below "
        "optable._Space's 256-subset pair-table cutoff; galois and diagram run on 256 subsets, "
        "the largest space that still gets pair tables, and one job in ten on 512 subsets, "
        "above the cutoff.  "
        "compat mixes compatible pairs (full scan) with incompatible ones (early exit at bot)."
    ),
    "intuitionistic-laws": (
        "Runs the layers boolean-kernels skips: non-Boolean quantified generation in gen, rep, "
        "the law suites, and the non-pointwise join_saturations/meet_reductions in galois.  "
        "Two of the three algebras are not chains, and literals, covers and relation edges "
        "carry middle degrees, which defeat the early exit at bot.  Law jobs re-classify "
        "operators they have already classified."
    ),
    "algebra-churn": (
        "Many small documents, each with a fresh algebra, so per-document set-up dominates: "
        "heyting table derivation, cli.parse_document, hset.enumerate_all and Operator "
        "tabulation.  About one custom order in six is not a distributive lattice and must "
        "be rejected with exit 2 and a witness.  The id()-keyed caches are never evicted, so "
        "memory grows with every document; work moved into per-space set-up shows here."
    ),
}
