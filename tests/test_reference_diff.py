"""Differential test: the quantified kernels, the family operators and the
generated operators against the naive reference, and each rank-table rule
and plane-read axiom weight against the body or single degree it replaces.

Rank tables are drawn at random (almost never monotone, so the full-scan
witness search runs) or taken from real saturations and reductions, some
with one entry perturbed (then monotone except around that entry).
The spaces include non-chain algebras whose element indices are not a
linear extension of their order (on two points, and on three, so that
the sweeps visit degrees out of index order at every point), a
two-element algebra listed top first and a one-element algebra.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from heytop import galois, gen, heyting, hset, optable as ot


def _spaces():
    two = hset.Carrier(["a", "b"])
    # 0 < a, b < m < 1, listed so that an upper cover can have a lower index
    scrambled = heyting.build_from_order(
        ("1", "a", "0", "m", "b"),
        [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"), ("m", "1")],
    )
    return {
        "boolean2x3": (heyting.boolean2(), hset.Carrier(["a", "b", "c"])),
        "chain3x2": (heyting.chain(3), two),
        "V-downsets": (
            heyting.downset_algebra(("p", "q", "r"), [("p", "q"), ("p", "r")]),
            two,
        ),
        "Lambda-downsets": (
            heyting.downset_algebra(("p", "q", "r"), [("p", "r"), ("q", "r")]),
            two,
        ),
        "2x2-downsets": (
            heyting.downset_algebra(
                ("p", "q", "r", "s"),
                [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")],
            ),
            two,
        ),
        "custom": (scrambled, two),
        "custom-3pts": (scrambled, hset.Carrier(["a", "b", "c"])),
        "top-first-boolean": (
            heyting.build_from_order(("1", "0"), [("0", "1")]),
            hset.Carrier(["a", "b", "c"]),
        ),
        "one-element": (heyting.build_from_order(("0",), []), two),
    }


SPACES = _spaces()
space_names = pytest.mark.parametrize("name", sorted(SPACES))


@st.composite
def rank_tables(draw, space):
    alg, car = space
    subs = hset.enumerate_all(alg, car)
    n = len(subs)
    kind = draw(st.sampled_from(["random", "sat", "red"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    family = draw(st.lists(st.sampled_from(subs), max_size=4))
    make = galois.from_family_sat if kind == "sat" else galois.from_family_red
    table = list(make(family, algebra=alg, carrier=car).rank_table())
    if draw(st.booleans()):
        table[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return table


def _operator(space, table):
    alg, car = space
    subs = hset.enumerate_all(alg, car)
    return ot.tabulated_op(alg, car, {u: subs[r] for u, r in zip(subs, table)})


def _ranks(witness):
    if witness is None:
        return None
    if isinstance(witness, tuple):
        return tuple(hset.subset_rank(w) for w in witness)
    return hset.subset_rank(witness)


def _classify(space, table):
    """classify's flags in the reference's form, witnesses as ranks."""
    profile = ot.classify(_operator(space, table))
    return {
        flag: (getattr(profile, flag).holds, _ranks(getattr(profile, flag).witness))
        for flag in ("monotone", "idempotent", "expansive", "contractive")
    }


@space_names
@settings(max_examples=30)
@given(data=st.data())
def test_classify_matches_reference(name, data):
    space = SPACES[name]
    table = data.draw(rank_tables(space))
    assert _classify(space, table) == ref.classify(space[0], len(space[1]), table)


@space_names
def test_classify_identity_with_one_output_emptied(name):
    # Each table fails monotonicity only on pairs W <= V, W nonempty.  For
    # some V all the covering pairs among them raise a degree to its second
    # upper cover, so a check that skipped any cover would pass them.
    space = SPACES[name]
    alg, car = space
    empty = hset.subset_rank(hset.empty(alg, car))
    n = len(hset.enumerate_all(alg, car))
    for v in range(n):
        table = list(range(n))
        table[v] = empty
        assert _classify(space, table) == ref.classify(alg, len(car), table)


@space_names
@settings(max_examples=20)
@given(data=st.data())
def test_compat_matches_reference(name, data):
    space = SPACES[name]
    alg, npts = space[0], len(space[1])
    t1 = data.draw(rank_tables(space))
    t2 = data.draw(rank_tables(space))
    o1, o2 = _operator(space, t1), _operator(space, t2)
    degree, witness = ot.compat_witness(o1, o2)
    assert ot.compat_degree(o1, o2) == degree
    assert (degree, _ranks(witness)) == ref.compat_witness(alg, npts, t1, t2)
    assert degree == ref.compat_degree(alg, npts, t1, t2)
    assert ot.weak_compat_degree(o1, o2) == ref.weak_compat_degree(alg, npts, t1, t2)


@space_names
@settings(max_examples=20)
@given(data=st.data())
def test_compat_near_compatible_pairs_matches_reference(name, data):
    # (AA(J), J) and (A, JJ(A)) are compatible, so the degree is top and no
    # witness is searched; one perturbed entry of the second operator
    # usually pushes a few W below top, and only those are scanned.
    space = SPACES[name]
    alg, car = space
    npts = len(car)
    subs = hset.enumerate_all(alg, car)
    family = data.draw(st.lists(st.sampled_from(subs), max_size=4))
    if data.draw(st.booleans()):
        second = galois.from_family_red(family, algebra=alg, carrier=car)
        first = galois.AA(second)
    else:
        first = galois.from_family_sat(family, algebra=alg, carrier=car)
        second = galois.JJ(first)
    t1, t2 = list(first.rank_table()), list(second.rank_table())
    if data.draw(st.booleans()):
        n = len(subs)
        t2[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    else:
        assert ot.compat_witness(first, second) == (alg.top, None)
    o1, o2 = _operator(space, t1), _operator(space, t2)
    degree, witness = ot.compat_witness(o1, o2)
    assert (degree, _ranks(witness)) == ref.compat_witness(alg, npts, t1, t2)
    assert ot.compat_degree(o1, o2) == degree
    assert ot.weak_compat_degree(o1, o2) == ref.weak_compat_degree(alg, npts, t1, t2)


@space_names
@settings(max_examples=20)
@given(data=st.data())
def test_ll_matches_reference(name, data):
    space = SPACES[name]
    table = data.draw(rank_tables(space))
    got = ot.LL(_operator(space, table)).rank_table()
    assert list(got) == ref.LL(space[0], len(space[1]), table)


@space_names
def test_space_matches_overlap_and_incl(name):
    alg, car = SPACES[name]
    # compat_witness reads each overlap as the support of a meet of planes
    sp = hset.Space(alg, car)
    subs, planes = sp.subs, sp.planes
    ranks = range(len(subs))
    for j, v in enumerate(subs):
        overlaps = [hset.overlap(u, v) for u in subs]
        incls = [hset.incl(v, w) for w in subs]
        assert [sp.incl(planes[j] & ~planes[k]) for k in ranks] == incls
        assert [sp.support(planes[i] & planes[j]) for i in ranks] == overlaps


@space_names
@settings(max_examples=15)
@given(data=st.data())
def test_sweeps_match_their_definition(name, data):
    # down(seed)[V] joins seed[W] over W <= V, up(seed)[U] meets over W >= U
    sp = hset.space(*SPACES[name])
    planes = sp.planes
    n = len(planes)
    seed = data.draw(st.lists(st.sampled_from(planes), min_size=n, max_size=n))
    below = [[w for w in range(n) if not planes[w] & ~planes[v]] for v in range(n)]
    down, up = [0] * n, [sp.full] * n
    for v, ws in enumerate(below):
        for w in ws:
            down[v] |= seed[w]
            up[w] &= seed[v]
    assert sp.down(seed) == down
    assert sp.up(seed) == up


@space_names
@settings(max_examples=15)
@given(data=st.data())
def test_splits_vector_matches_reference(name, data):
    space = SPACES[name]
    alg, npts = space[0], len(space[1])
    table = data.draw(rank_tables(space))
    assert ot.splits_vector(_operator(space, table)) == ref._splits(alg, npts, table)


@space_names
@settings(max_examples=15)
@given(data=st.data())
def test_weighted_formulas_match_reference(name, data):
    # arbitrary weights per rank, middle degrees included
    alg, car = SPACES[name]
    sp = hset.space(alg, car)
    n = len(sp.subs)
    weights = data.draw(
        st.lists(st.integers(0, len(alg) - 1), min_size=n, max_size=n)
    )
    sat = galois.weighted_saturation(sp, weights)
    red = galois.weighted_reduction(sp, weights)
    assert list(sat.rank_table()) == ref._weighted_sat(alg, len(car), weights)
    assert list(red.rank_table()) == ref._weighted_red(alg, len(car), weights)


@space_names
@settings(max_examples=15)
@given(data=st.data())
def test_splitting_kernels_match_reference(name, data):
    space = SPACES[name]
    alg, npts = space[0], len(space[1])
    table = data.draw(rank_tables(space))
    op = _operator(space, table)
    subs = hset.enumerate_all(*space)
    z = data.draw(st.integers(0, len(subs) - 1))
    assert ot.splits_degree(subs[z], op) == ref.splits_degree(alg, npts, z, table)
    assert ot.RR(op).rank_table()[0] == ref.RR(alg, npts, table)
    assert list(galois.JJ(op).rank_table()) == ref.JJ(alg, npts, table)


@space_names
@settings(max_examples=20)
@given(data=st.data())
def test_operator_orders_match_reference(name, data):
    space = SPACES[name]
    alg, npts = space[0], len(space[1])
    t1 = data.draw(rank_tables(space))
    t2 = data.draw(rank_tables(space))
    o1, o2 = _operator(space, t1), _operator(space, t2)
    incl = ref.op_incl_degree(alg, npts, t1, t2)
    assert ot.op_incl_degree(o1, o2) == incl
    assert ot.op_eq_degree(o1, o2) == ref.op_eq_degree(alg, npts, t1, t2)
    assert ot.op_leq(o1, o2) == (incl == alg.top)


@space_names
@settings(max_examples=20)
@given(data=st.data())
def test_family_operators_match_reference(name, data):
    alg, car = SPACES[name]
    npts = len(car)
    subs = hset.enumerate_all(alg, car)
    drawn = data.draw(st.lists(st.integers(0, len(subs) - 1), max_size=4))
    for family in ([], drawn, drawn * 2):  # the empty family, repeated members
        members = [subs[r] for r in family]
        a_p = galois.from_family_sat(members, algebra=alg, carrier=car)
        j_p = galois.from_family_red(members, algebra=alg, carrier=car)
        assert list(a_p.rank_table()) == ref.A_P(alg, npts, family)
        assert list(j_p.rank_table()) == ref.J_P(alg, npts, family)


def _body_table(op):
    """op's rank table as its body gives it, subset by subset."""
    subs = hset.enumerate_all(op.algebra, op.carrier)
    return tuple(hset.subset_rank(op._run(u)) for u in subs)


@space_names
@settings(max_examples=10)
@given(data=st.data())
def test_rank_table_rules_match_bodies(name, data):
    # each built-in operator tabulates from its rule, with no body call;
    # the rule must give the table its body gives
    space = SPACES[name]
    alg, car = space
    subs = hset.enumerate_all(alg, car)
    tables = [data.draw(rank_tables(space)) for _ in range(3)]
    members = [_operator(space, t) for t in tables]
    k = data.draw(st.integers(1, 3))
    ops = [
        ot.identity_op(alg, car),
        ot.bottom_op(alg, car),
        ot.top_op(alg, car),
        ot.const_op(data.draw(st.sampled_from(subs))),
        ot.complement_op(alg, car),
        ot.double_complement_op(alg, car),
        ot.inhabited_op(alg, car),
        ot.compose(members[0], members[1]),
        ot.pointwise_meet(members[:k]),
        ot.pointwise_join(members[:k]),
    ]
    for op in ops:
        assert op.rank_table() == _body_table(op), op.name
    assert members[2].rank_table() == tuple(tables[2])


@st.composite
def axiom_sets(draw, space):
    """Covers (point index, cover rank, weight), weights below top included."""
    alg, car = space
    n = len(hset.enumerate_all(alg, car))
    weight = st.one_of(st.just(alg.top), st.integers(0, len(alg) - 1))
    return draw(st.lists(
        st.tuples(st.integers(0, len(car) - 1), st.integers(0, n - 1), weight),
        max_size=5,
    ))


def _axiom_set(space, covers):
    alg, car = space
    subs = hset.enumerate_all(alg, car)
    return gen.AxiomSet(alg, car, [(a, subs[c], w) for a, c, w in covers])


@space_names
@settings(max_examples=20)
@given(data=st.data())
def test_generated_operators_match_reference(name, data):
    # within the cap every space runs the weighted formulas, with the weights
    # read from the planes; the Boolean worklist is tested below
    space = SPACES[name]
    alg, npts = space[0], len(space[1])
    covers = data.draw(axiom_sets(space))
    ax = _axiom_set(space, covers)
    assert list(gen.generate_sat(ax).rank_table()) == ref.generate_sat(alg, npts, covers)
    assert list(gen.generate_red(ax).rank_table()) == ref.generate_red(alg, npts, covers)


@space_names
@settings(max_examples=15)
@given(data=st.data())
def test_axiom_weights_read_from_planes_match_single_degrees(name, data):
    space = SPACES[name]
    sp = hset.space(*space)
    ax = _axiom_set(space, data.draw(axiom_sets(space)))
    gen.generate_sat(ax)
    gen.generate_red(ax)
    assert list(ax._fulfills) == [gen.fulfills_degree(p, ax) for p in sp.subs]
    assert list(ax._splits) == [gen.splits_axioms_degree(z, ax) for z in sp.subs]


@settings(max_examples=30)
@given(data=st.data())
def test_boolean_worklists_match_weighted_formulas(data):
    # built under a cap of 1, so generation takes the worklist (it serves
    # only spaces above the cap); tabulated through its body outside that
    # block, where == reads the rank tables
    space = SPACES["boolean2x3"]
    sp = hset.space(*space)
    ax = _axiom_set(space, data.draw(axiom_sets(space)))
    with hset.subset_cap(1):
        worklist_sat, worklist_red = gen.generate_sat(ax), gen.generate_red(ax)
    assert worklist_sat.certificate == worklist_red.certificate == galois.BY_CONSTRUCTION
    fulfills = [gen.fulfills_degree(p, ax) for p in sp.subs]
    splits = [gen.splits_axioms_degree(z, ax) for z in sp.subs]
    assert worklist_sat == galois.weighted_saturation(sp, fulfills)
    assert worklist_red == galois.weighted_reduction(sp, splits)


at_the_default_cap = pytest.mark.parametrize(
    "alg, npts",
    [
        (heyting.boolean2(), 12),
        (heyting.downset_algebra(("p", "q"), []), 6),  # the diamond 2 x 2
    ],
    ids=["boolean2x12", "diamondx6"],
)


@at_the_default_cap
def test_sweep_kernels_at_the_default_cap(alg, npts):
    # 4096 subsets: the identity is its own JJ, its RR is the full subset,
    # and it is the only saturation and reduction fixing every subset
    car = hset.Carrier([f"x{i}" for i in range(npts)])
    assert hset.space_size(alg, car) == hset.DEFAULT_SUBSET_CAP
    ident = ot.identity_op(alg, car)
    assert galois.JJ(ident) == ident
    full = hset.subset_rank(hset.full(alg, car))
    assert set(ot.RR(ident).rank_table()) == {full}
    assert galois.meet_reductions([ident]) == galois.join_saturations([ident]) == ident


@at_the_default_cap
def test_compat_kernels_at_the_default_cap(alg, npts):
    # 4096 subsets: the identity is compatible with itself, and the three
    # Galois degrees coincide for it and for a family pair (A_P, J_P)
    car = hset.Carrier([f"x{i}" for i in range(npts)])
    ident = ot.identity_op(alg, car)
    assert ot.compat_witness(ident, ident) == (alg.top, None)
    assert galois.galois_check(ident, ident).details["three-way-coincide"] == "True"
    subs = hset.enumerate_all(alg, car)
    family = [subs[1], subs[len(subs) // 3], subs[-2]]
    a_p = galois.from_family_sat(family, algebra=alg, carrier=car)
    j_p = galois.from_family_red(family, algebra=alg, carrier=car)
    report = galois.galois_check(a_p, j_p)
    assert report.details["three-way-coincide"] == "True"
