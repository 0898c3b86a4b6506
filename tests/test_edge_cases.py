"""Degenerate and boundary configurations."""

import pytest

from heytop import btop, galois as gl, gen, heyting, hset, optable as ot
from heytop.errors import CapExceeded, ContextMismatch


def test_chain2_behaves_like_boolean2(bool2):
    c2 = heyting.chain(2)
    assert c2.names == bool2.names
    assert c2.imp_table == bool2.imp_table
    assert c2.meet_table == bool2.meet_table


def test_chain1_degenerate():
    c1 = heyting.chain(1)
    assert c1.bot == c1.top
    assert c1.imp(0, 0) == 0


def test_empty_carrier_full_stack(bool2):
    s = hset.Carrier([])
    subs = hset.enumerate_all(bool2, s)
    assert len(subs) == 1
    ident = ot.identity_op(bool2, s)
    profile = ot.classify(ident)
    assert profile.is_saturation and profile.is_reduction
    # the unique operator is compatible with itself; everything collapses
    assert ot.compat_degree(ident, ident) == bool2.top
    assert ot.op_eq(gl.AA(gl.Reduction.certify(ident)), ident)
    assert ot.op_eq(gl.JJ(gl.Saturation.certify(ident)), ident)
    t = btop.make(gl.Saturation.certify(ident), gl.Reduction.certify(ident))
    assert btop.is_reduced(t)[0] and btop.is_saturated(t)[0]
    assert btop.five_node_diagram(t).node_count() == 1
    assert gl.positivity_law(gl.Reduction.certify(ident)).ok


def test_single_point_boolean_everything(bool2):
    s = hset.Carrier(["a"])
    ops = []
    subs = hset.enumerate_all(bool2, s)
    import itertools

    for ranks in itertools.product(range(2), repeat=2):
        ops.append(ot.tabulated_op(bool2, s, {u: subs[r] for u, r in zip(subs, ranks)}))
    sats = [o for o in ops if ot.classify(o).is_saturation]
    reds = [o for o in ops if ot.classify(o).is_reduction]
    assert len(sats) == 2 and len(reds) == 2
    for a in sats:
        for j in reds:
            assert gl.galois_check(
                gl.Saturation.certify(a), gl.Reduction.certify(j)
            ).ok


def test_rank_round_trip(chain3):
    s = hset.Carrier(["a", "b"])
    subs = hset.enumerate_all(chain3, s)
    for i, u in enumerate(subs):
        assert hset.subset_rank(u) == i
        assert subs[hset.subset_rank(u)] is u


def test_h_mode_generate_respects_cap():
    c4 = heyting.chain(4)
    s = hset.Carrier([f"p{i}" for i in range(7)])  # 4^7 > 4096
    ax = gen.AxiomSet(c4, s, [])
    with pytest.raises(CapExceeded):
        gen.generate_sat(ax).rank_table()


def test_boolean_generate_ignores_subset_cap(bool2):
    # Boolean generation never enumerates the subset space
    s = hset.Carrier([f"p{i}" for i in range(40)])
    cover = hset.from_points(bool2, s, ["p1"])
    ax = gen.AxiomSet(bool2, s, [("p0", cover)])
    a = gen.generate_sat(ax)
    out = a.apply(hset.from_points(bool2, s, ["p1"]))
    assert out.degree_of("p0") == "1"
    assert out.degree_of("p2") == "0"


def test_operator_memo_consistency(chain3):
    s = hset.Carrier(["a"])
    calls = []

    def body(u):
        calls.append(u.degrees)
        return u

    op = ot.Operator(chain3, s, body, name="probe")
    u = hset.full(chain3, s)
    first = op.apply(u)
    second = op.apply(u)
    assert first == second
    # eager tabulation already evaluated every input exactly once
    assert sorted(calls) == sorted(x.degrees for x in hset.enumerate_all(chain3, s))


def test_downset_algebra_rejects_reserved_names():
    with pytest.raises(ValueError):
        heyting.downset_algebra(("0", "q"), [])
    with pytest.raises(ValueError):
        heyting.downset_algebra(("a+b",), [])


def test_const_and_inhabited_h_mode(chain3):
    s = hset.Carrier(["a", "b"])
    o = ot.inhabited_op(chain3, s)
    u = hset.from_degrees(chain3, s, {"a": "u"})
    out = o.apply(u)
    assert out.degree_of("a") == "u" and out.degree_of("b") == "u"


def _sat(alg, car):
    return gl.Saturation.certify(ot.identity_op(alg, car))


def _red(alg, car):
    return gl.Reduction.certify(ot.identity_op(alg, car))


def _topology(alg, car):
    return btop.make(_sat(alg, car), _red(alg, car))


# entry point -> member builder; every entry point takes a family of members
FAMILY_ENTRY_POINTS = {
    "pointwise_join": (ot.pointwise_join, ot.identity_op),
    "pointwise_meet": (ot.pointwise_meet, ot.identity_op),
    "from_family_sat": (gl.from_family_sat, hset.full),
    "from_family_red": (gl.from_family_red, hset.full),
    "meet_saturations": (gl.meet_saturations, _sat),
    "join_saturations": (gl.join_saturations, _sat),
    "join_reductions": (gl.join_reductions, _red),
    "meet_reductions": (gl.meet_reductions, _red),
    "join_family": (btop.join_family, _topology),
}


@pytest.mark.parametrize("entry", sorted(FAMILY_ENTRY_POINTS))
def test_family_context_rule(bool2, entry):
    build, member = FAMILY_ENTRY_POINTS[entry]
    one, two = hset.Carrier(["a"]), hset.Carrier(["a"])
    with pytest.raises(ValueError):
        build([])
    with pytest.raises(ContextMismatch):
        build([member(bool2, one), member(bool2, two)])
    # an empty family takes the given context, any other its members'
    assert build([], algebra=bool2, carrier=one).carrier is one
    assert build([member(bool2, one)], algebra=bool2, carrier=two).carrier is one
