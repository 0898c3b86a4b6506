"""Operators, classification, compatibility, splitting, LL and RR."""

import pytest

from heytop import galois, heyting, hset, optable as ot
from heytop.errors import CapExceeded, ContextMismatch
from conftest import all_operators

pytestmark = []


@pytest.fixture(scope="module")
def ab(bool2):
    return hset.Carrier(["a", "b"])


@pytest.fixture(scope="module")
def star(chain3):
    return hset.Carrier(["*"])


def test_apply_identity_and_const(bool2, ab):
    ident = ot.identity_op(bool2, ab)
    w = hset.from_points(bool2, ab, ["b"])
    cw = ot.const_op(w)
    for u in hset.enumerate_all(bool2, ab):
        assert ident.apply(u) == u
        assert cw.apply(u) == w


def test_apply_double_negation_three_chain(chain3, star):
    dneg = ot.double_complement_op(chain3, star)
    u = hset.from_degrees(chain3, star, {"*": "u"})
    assert dneg.apply(u).render() == "{*}"


def test_apply_context_mismatch(bool2, ab):
    other = hset.Carrier(["a", "b"])
    with pytest.raises(ContextMismatch):
        ot.identity_op(bool2, ab).apply(hset.full(bool2, other))


@pytest.mark.parametrize("literal", [{"b": "u"}, {"a": "1", "b": "1"}])
def test_tabulation_rejects_foreign_values(bool2, chain3, ab, literal):
    # {b:u} has a rank inside boolean2's space, {a,b} over chain(3) does not
    foreign = hset.from_degrees(chain3, ab, literal)
    with pytest.raises(ContextMismatch):
        ot.Operator(bool2, ab, lambda u: foreign)


def test_untabulated_apply_rejects_foreign_values(bool2, chain3):
    # 2^13 subsets: above the default cap, so apply runs the body itself
    big = hset.Carrier([f"p{i}" for i in range(13)])
    assert hset.space_size(bool2, big) > hset.DEFAULT_SUBSET_CAP
    foreign = hset.from_degrees(chain3, big, {"p0": "u"})
    op = ot.Operator(bool2, big, lambda u: foreign)
    with pytest.raises(ContextMismatch):
        op.apply(hset.empty(bool2, big))


def test_quantifiers_over_algebra_with_wide_element_indices():
    # A 300-element chain listed top first: bottom has index 299, too wide
    # for a byte, so the space's overlap and incl rows are tuples
    n = 300
    alg = heyting.HeytingAlgebra(
        tuple(str(i) for i in range(n)),
        tuple(tuple(i >= j for j in range(n)) for i in range(n)),  # leq
        tuple(tuple(max(i, j) for j in range(n)) for i in range(n)),  # meet
        tuple(tuple(min(i, j) for j in range(n)) for i in range(n)),  # join
        tuple(tuple(0 if i >= j else j for j in range(n)) for i in range(n)),  # imp
        n - 1,
        0,
    )
    ident = ot.identity_op(alg, hset.Carrier([]))
    assert ot.compat_degree(ident, ident) == alg.top
    assert ot.op_incl_degree(ident, ident) == alg.top
    assert ot.classify(ident).is_saturation


def test_pointwise_join_meet_boundaries(bool2, ab):
    assert ot.op_eq(
        ot.pointwise_join([], algebra=bool2, carrier=ab), ot.bottom_op(bool2, ab)
    )
    assert ot.op_eq(
        ot.pointwise_meet([], algebra=bool2, carrier=ab), ot.top_op(bool2, ab)
    )
    w = hset.from_points(bool2, ab, ["a"])
    met = ot.pointwise_meet([ot.identity_op(bool2, ab), ot.const_op(w)])
    assert met.apply(hset.full(bool2, ab)) == w


def test_sierpinski_meet_not_idempotent(bool2):
    s = hset.Carrier(["0", "1"])
    opens = [hset.empty(bool2, s), hset.from_points(bool2, s, ["1"]), hset.full(bool2, s)]
    interior = galois.from_family_red(opens, algebra=bool2, carrier=s)
    m = ot.pointwise_meet([interior, ot.const_op(hset.from_points(bool2, s, ["0"]))])
    full = hset.full(bool2, s)
    assert m.apply(full).render() == "{0}"
    assert m.apply(m.apply(full)).render() == "{}"
    assert not ot.classify(m).idempotent.holds


def test_classify_id_all_four(bool2, ab):
    profile = ot.classify(ot.identity_op(bool2, ab))
    assert profile.monotone.holds
    assert profile.idempotent.holds
    assert profile.expansive.holds
    assert profile.contractive.holds


def test_classify_boolean_double_negation_is_identity_profile(bool2, ab):
    profile = ot.classify(ot.double_complement_op(bool2, ab))
    assert profile.is_saturation and profile.is_reduction


def test_classify_three_chain_double_negation(chain3, star):
    profile = ot.classify(ot.double_complement_op(chain3, star))
    assert profile.expansive.holds
    assert not profile.contractive.holds
    assert profile.contractive.witness.render() == "{*:u}"


def test_classify_witnesses_recheck_false(chain3, star):
    comp = ot.complement_op(chain3, star)
    profile = ot.classify(comp)
    assert not profile.monotone.holds
    u, v = profile.monotone.witness
    assert u.leq(v) and not comp.apply(u).leq(comp.apply(v))


def test_classify_cap(bool2):
    big = hset.Carrier([f"p{i}" for i in range(13)])
    ident = ot.identity_op(bool2, big)
    with pytest.raises(CapExceeded):
        ot.classify(ident)


def test_compat_id_with_everything(bool2, ab):
    ident = ot.identity_op(bool2, ab)
    for o in all_operators(bool2, ab)[:40]:
        assert ot.compat_degree(ident, o) == bool2.top


def test_compat_top_iff_bot(bool2, ab):
    top = ot.top_op(bool2, ab)
    bot = ot.bottom_op(bool2, ab)
    for o in all_operators(bool2, ab):
        assert (ot.compat_degree(top, o) == bool2.top) == ot.op_eq(o, bot)


def test_compat_bot_right_always(bool2, ab):
    bot = ot.bottom_op(bool2, ab)
    for o in all_operators(bool2, ab)[:40]:
        assert ot.compat_degree(o, bot) == bool2.top


def test_compat_complement_left_iff_bot(bool2, ab):
    comp = ot.complement_op(bool2, ab)
    bot = ot.bottom_op(bool2, ab)
    for o in all_operators(bool2, ab):
        assert (ot.compat_degree(comp, o) == bool2.top) == ot.op_eq(o, bot)


def test_const_compat_iff_below_complement(bool2, ab):
    # const_U compat O iff O included in const(-U)
    for u in hset.enumerate_all(bool2, ab):
        cu = ot.const_op(u)
        cnu = ot.const_op(u.pseudo_complement())
        for o in all_operators(bool2, ab)[::7]:
            assert (ot.compat_degree(cu, o) == bool2.top) == ot.op_leq(o, cnu)


def test_compat_with_identity_iff_contained_in_identity_boolean(bool2, ab):
    ident = ot.identity_op(bool2, ab)
    for o in all_operators(bool2, ab):
        assert (ot.compat_degree(o, ident) == bool2.top) == ot.op_leq(o, ident)


def test_classical_only_law_compat_with_complement(bool2, ab):
    # Boolean mode only: O compat (-) iff O included in id
    comp = ot.complement_op(bool2, ab)
    ident = ot.identity_op(bool2, ab)
    for o in all_operators(bool2, ab):
        assert (ot.compat_degree(o, comp) == bool2.top) == ot.op_leq(o, ident)


def test_weak_vs_strong_compat_three_chain(chain3, star):
    dneg = ot.double_complement_op(chain3, star)
    top = ot.top_op(chain3, star)
    assert chain3.name(ot.compat_degree(dneg, top)) == "u"
    assert ot.weak_compat_degree(dneg, top) == chain3.top


def test_weak_compat_bot_right(chain3, star):
    bot = ot.bottom_op(chain3, star)
    for o in all_operators(chain3, star)[:15]:
        assert ot.weak_compat_degree(o, bot) == chain3.top


def test_weak_compat_monotone_equivalents(bool2, chain3):
    # for monotone O the three classical formulations agree as booleans
    for algebra, carrier in [(bool2, hset.Carrier(["a", "b"])), (chain3, hset.Carrier(["*"]))]:
        comp = ot.complement_op(algebra, carrier)
        for o in all_operators(algebra, carrier):
            if not ot.classify(o).monotone.holds:
                continue
            for o2 in all_operators(algebra, carrier)[::5]:
                w = ot.weak_compat_degree(o, o2) == algebra.top
                lhs = ot.op_leq(
                    ot.compose(o, ot.compose(comp, o2)), ot.compose(comp, o2)
                )
                rhs = ot.op_leq(
                    o2, ot.compose(ot.compose(comp, ot.compose(o, comp)), o2)
                )
                assert w == lhs == rhs


def test_splits_examples(bool2):
    s = hset.Carrier(["a", "b"])
    o = ot.inhabited_op(bool2, s)
    assert ot.splits_degree(hset.empty(bool2, s), o) == bool2.top
    assert ot.splits_degree(hset.full(bool2, s), o) == bool2.top
    assert ot.splits_degree(hset.from_points(bool2, s, ["b"]), o) == bool2.bot


def test_splits_equals_compat_with_const(bool2, ab):
    for z in hset.enumerate_all(bool2, ab):
        cz = ot.const_op(z)
        for o in all_operators(bool2, ab)[::6]:
            assert ot.splits_degree(z, o) == ot.compat_degree(o, cz)


def test_splitting_closed_under_union(chain3, star):
    # the splitting subsets of any operator form a sub-suplattice
    subs = hset.enumerate_all(chain3, star)
    for o in all_operators(chain3, star):
        for z1 in subs:
            for z2 in subs:
                joined = ot.splits_degree(z1.union(z2), o)
                assert chain3.leq(
                    chain3.meet(ot.splits_degree(z1, o), ot.splits_degree(z2, o)),
                    joined,
                )


def test_ll_rr_trivial_cases(bool2, ab):
    ident = ot.identity_op(bool2, ab)
    bot = ot.bottom_op(bool2, ab)
    top = ot.top_op(bool2, ab)
    comp = ot.complement_op(bool2, ab)
    assert ot.op_eq(ot.LL(ident), ident)
    assert ot.op_eq(ot.LL(bot), top)
    assert ot.op_eq(ot.RR(ident), top)
    assert ot.op_eq(ot.RR(comp), bot)
    for u in hset.enumerate_all(bool2, ab):
        assert ot.op_eq(
            ot.RR(ot.const_op(u)), ot.const_op(u.pseudo_complement())
        )


def test_semi_galois_exhaustive_small(bool2):
    s = hset.Carrier(["a"])
    ops = all_operators(bool2, s)
    for o in ops:
        llo = ot.LL(o)
        for o2 in ops:
            assert (ot.compat_degree(o2, o) == bool2.top) == ot.op_leq(o2, llo)


def test_rr_is_constant_at_largest_splitting(bool2, ab):
    subs = hset.enumerate_all(bool2, ab)
    for o in all_operators(bool2, ab)[::5]:
        rr = ot.RR(o)
        best = hset.empty(bool2, ab)
        for z in subs:
            if ot.splits_degree(z, o) == bool2.top:
                best = best.union(z)
        assert ot.op_eq(rr, ot.const_op(best))


def test_rr_converse_fails(bool2):
    s = hset.Carrier(["a", "b"])
    o = ot.inhabited_op(bool2, s)
    cb = ot.const_op(hset.from_points(bool2, s, ["b"]))
    assert ot.op_leq(cb, ot.RR(o))
    degree, witness = ot.compat_witness(o, cb)
    assert degree == bool2.bot
    # the splitting failure is witnessed by U = {a}
    assert witness[0].render() == "{a}"


def test_compat_union_lemma_boolean(bool2, ab):
    ops = all_operators(bool2, ab)[::16]
    for o in ops:
        for o1 in ops:
            for o2 in ops:
                joined = ot.pointwise_join([o1, o2])
                lhs = bool2.meet(ot.compat_degree(o, o1), ot.compat_degree(o, o2))
                assert bool2.leq(lhs, ot.compat_degree(o, joined))
                lhs2 = bool2.meet(ot.compat_degree(o1, o), ot.compat_degree(o2, o))
                assert bool2.leq(lhs2, ot.compat_degree(joined, o))


def test_operator_equality_and_digest(bool2, ab):
    i1 = ot.identity_op(bool2, ab)
    i2 = ot.identity_op(bool2, ab)
    assert i1 == i2 and hash(i1) == hash(i2)
    assert i1 != ot.top_op(bool2, ab)
    assert i1.digest() == "0.1.2.3"


def test_tabulated_requires_total(bool2, ab):
    subs = hset.enumerate_all(bool2, ab)
    with pytest.raises(ValueError):
        ot.tabulated_op(bool2, ab, {subs[0]: subs[0]})


def test_compat_witness_minimal_in_order(bool2, ab):
    # [A_{{a}}, J_{{a}}]: the first failing pair in enumeration order
    w = hset.from_points(bool2, ab, ["a"])
    a_p = galois.from_family_sat([w])
    j_p = galois.from_family_red([w])
    degree, witness = ot.compat_witness(a_p, j_p)
    assert degree == bool2.bot
    assert witness[0].render() == "{}"
    assert witness[1].render() == "{a}"


def test_late_monotonicity_witness_and_orders_at_default_cap(bool2):
    # identity except S -> S \ {p0}: the first failing U is {p0}, rank 2048
    car = hset.Carrier([f"p{i}" for i in range(12)])
    full = hset.full(bool2, car)
    cut = hset.from_points(bool2, car, car.points[1:])
    op = ot.Operator(bool2, car, lambda u: cut if u == full else u, name="cut")
    ident = ot.identity_op(bool2, car)
    u, v = ot.classify(op).monotone.witness
    assert (u.render(), v) == ("{p0}", full)
    assert ot.op_leq(op, ident)
    assert not ot.op_leq(ident, op)
    assert ot.op_eq_degree(op, ident) == bool2.bot
