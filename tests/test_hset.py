"""Subset algebra: overlap, inclusion, complement, enumeration."""

import gc

import pytest
from hypothesis import given, strategies as st

from heytop import heyting, hset, optable
from heytop.errors import CapExceeded, ContextMismatch


@pytest.fixture(scope="module")
def ab(bool2):
    return hset.Carrier(["a", "b"])


def test_overlap_examples(bool2, ab):
    u = hset.from_points(bool2, ab, ["a"])
    v = hset.from_points(bool2, ab, ["a", "b"])
    assert hset.overlap(u, v) == bool2.top
    assert hset.overlap(u, hset.empty(bool2, ab)) == bool2.bot


def test_overlap_three_chain(chain3):
    s = hset.Carrier(["*"])
    u = hset.from_degrees(chain3, s, {"*": "u"})
    assert hset.overlap(u, hset.full(chain3, s)) == chain3.index("u")


def test_incl_examples(bool2, ab, chain3):
    u = hset.from_points(bool2, ab, ["a"])
    assert hset.incl(hset.empty(bool2, ab), u) == bool2.top
    assert hset.incl(hset.from_points(bool2, ab, ["a", "b"]), u) == bool2.bot
    s = hset.Carrier(["*"])
    assert (
        hset.incl(hset.full(chain3, s), hset.from_degrees(chain3, s, {"*": "u"}))
        == chain3.index("u")
    )


def test_pseudo_complement(bool2, ab, chain3):
    u = hset.from_points(bool2, ab, ["a"])
    assert u.pseudo_complement().render() == "{b}"
    s = hset.Carrier(["*"])
    w = hset.from_degrees(chain3, s, {"*": "u"})
    assert w.pseudo_complement().render() == "{}"
    assert w.pseudo_complement().pseudo_complement().render() == "{*}"
    assert w.pseudo_complement().pseudo_complement() != w


def test_enumeration_counts(bool2, chain3):
    assert len(hset.enumerate_all(bool2, hset.Carrier(["a", "b"]))) == 4
    assert len(hset.enumerate_all(chain3, hset.Carrier(["a", "b"]))) == 9
    assert len(hset.enumerate_all(chain3, hset.Carrier(["a"]))) == 3


def test_enumeration_order_is_stable_and_ranked(chain3):
    s = hset.Carrier(["a", "b"])
    subs = hset.enumerate_all(chain3, s)
    assert [hset.subset_rank(u) for u in subs] == list(range(9))
    assert len(set(subs)) == 9
    # lexicographic over (point, element) indices: first entry varies slowest
    assert subs[0].degrees == (0, 0)
    assert subs[1].degrees == (0, 1)
    assert subs[3].degrees == (1, 0)


def test_enumeration_cap():
    alg = heyting.chain(4)
    s = hset.Carrier([f"p{i}" for i in range(7)])
    with pytest.raises(CapExceeded):
        hset.enumerate_all(alg, s)
    with hset.subset_cap(4):
        assert len(hset.enumerate_all(alg, hset.Carrier(["x"]))) == 4


def test_space_lives_as_long_as_its_carrier(chain3):
    # The space (enumeration and memoized rows) is cached on its carrier,
    # so dropping throwaway carriers frees their spaces.
    def live_spaces():
        return sum(type(o) is hset.Space for o in gc.get_objects())

    gc.collect()
    before = live_spaces()
    carriers = [hset.Carrier([f"p{j}" for j in range(5)]) for _ in range(50)]
    for car in carriers:
        ident = optable.identity_op(chain3, car)
        optable.compat_degree(ident, optable.bottom_op(chain3, car))
    assert live_spaces() == before + 50
    del carriers, car, ident
    gc.collect()
    assert live_spaces() == before


def test_space_follows_the_algebra(bool2, chain3):
    car = hset.Carrier(["a", "b"])
    assert len(hset.enumerate_all(bool2, car)) == 4
    assert len(hset.enumerate_all(chain3, car)) == 9
    assert hset.enumerate_all(bool2, car)[3].algebra is bool2


def test_empty_carrier(bool2):
    s = hset.Carrier([])
    subs = hset.enumerate_all(bool2, s)
    assert len(subs) == 1
    assert hset.overlap(subs[0], subs[0]) == bool2.bot
    assert hset.incl(subs[0], subs[0]) == bool2.top


def test_context_mismatch(bool2, chain3):
    s1 = hset.Carrier(["a"])
    s2 = hset.Carrier(["a"])
    with pytest.raises(ContextMismatch):
        hset.overlap(hset.full(bool2, s1), hset.full(bool2, s2))
    with pytest.raises(ContextMismatch):
        hset.incl(hset.full(bool2, s1), hset.full(chain3, s1))


def test_literal_default_bot_and_render(chain3):
    s = hset.Carrier(["a", "b", "c"])
    u = hset.from_degrees(chain3, s, {"b": "u", "c": "1"})
    assert u.degree_of("a") == "0"
    assert u.render() == "{b:u,c}"


def _spaces():
    return [
        (heyting.boolean2(), hset.Carrier(["a", "b"])),
        (heyting.chain(3), hset.Carrier(["a", "b"])),
        (heyting.chain(4), hset.Carrier(["x"])),
    ]


@pytest.mark.parametrize("algebra,carrier", _spaces())
def test_overlap_symmetric_and_monotone(algebra, carrier):
    subs = hset.enumerate_all(algebra, carrier)
    for u in subs:
        for v in subs:
            assert hset.overlap(u, v) == hset.overlap(v, u)
            for w in subs:
                assert algebra.leq(
                    hset.overlap(u, v), hset.overlap(u, v.union(w))
                )


@pytest.mark.parametrize("algebra,carrier", _spaces())
def test_non_overlap_is_empty_intersection(algebra, carrier):
    # neg(overlap(U,V)) equals the inclusion degree of U /\ V in the empty set
    subs = hset.enumerate_all(algebra, carrier)
    bot = hset.empty(algebra, carrier)
    for u in subs:
        for v in subs:
            assert algebra.neg(hset.overlap(u, v)) == hset.incl(
                u.intersection(v), bot
            )


@pytest.mark.parametrize("algebra,carrier", _spaces())
def test_mutual_top_inclusion_is_equality(algebra, carrier):
    subs = hset.enumerate_all(algebra, carrier)
    for u in subs:
        for v in subs:
            both = (
                hset.incl(u, v) == algebra.top and hset.incl(v, u) == algebra.top
            )
            assert both == (u == v)


@given(st.data())
def test_union_intersection_lattice_laws(data):
    algebra = heyting.chain(data.draw(st.integers(min_value=2, max_value=5)))
    carrier = hset.Carrier(["a", "b", "c"])
    k = len(algebra)
    draw_sub = lambda: hset.HSubset(
        algebra,
        carrier,
        tuple(data.draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(3)),
    )
    u, v = draw_sub(), draw_sub()
    assert u.union(v) == v.union(u)
    assert u.intersection(v) == v.intersection(u)
    assert u.union(u.intersection(v)) == u
    assert u.intersection(u.union(v)) == u
    assert u.leq(u.union(v))
    assert u.intersection(v).leq(u)
