"""Algebra construction, derived tables, and the residuation law."""

import itertools

import pytest
from hypothesis import given, strategies as st

from heytop import heyting
from heytop.errors import CapExceeded, NotALattice, NotHeyting


def test_boolean2_tables(bool2):
    one, zero = bool2.top, bool2.bot
    assert bool2.name(bool2.imp(one, zero)) == "0"
    assert bool2.neg(zero) == one
    assert bool2.neg(one) == zero


def test_chain3_derived_tables(chain3):
    u = chain3.index("u")
    assert chain3.name(chain3.imp(u, chain3.bot)) == "0"
    assert chain3.name(chain3.imp(chain3.top, u)) == "u"
    assert chain3.neg(u) == chain3.bot
    assert chain3.neg(chain3.neg(u)) == chain3.top


def test_big_meet_join(chain3):
    u = chain3.index("u")
    assert chain3.big_meet([]) == chain3.top
    assert chain3.big_join([]) == chain3.bot
    assert chain3.big_join([u, chain3.bot]) == u
    assert chain3.big_meet([chain3.top, u]) == u


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_chain_residuation_exhaustive(n):
    alg = heyting.chain(n)
    k = len(alg)
    for a, b, c in itertools.product(range(k), repeat=3):
        assert alg.leq(c, alg.imp(a, b)) == alg.leq(alg.meet(c, a), b)


def test_m3_rejected_with_witness_triple():
    with pytest.raises(NotHeyting) as exc:
        heyting.build_from_order(
            ("0", "x", "y", "z", "1"),
            [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
        )
    assert len(exc.value.witness) == 3


def test_n5_rejected_with_witness_triple():
    with pytest.raises(NotHeyting) as exc:
        heyting.build_from_order(
            ("0", "a", "b", "c", "1"),
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        )
    assert len(exc.value.witness) == 3


def test_non_lattice_rejected_with_pair():
    with pytest.raises(NotALattice) as exc:
        heyting.build_from_order(("a", "b"), [])
    assert exc.value.witness == ("a", "b")


def test_order_cycle_rejected():
    with pytest.raises(NotALattice):
        heyting.build_from_order(("a", "b"), [("a", "b"), ("b", "a")])


def test_element_cap():
    with pytest.raises(CapExceeded):
        heyting.chain(17)


def test_downsets_of_chain_poset_is_chain_algebra():
    alg = heyting.downset_algebra(("p", "q"), [("p", "q")])
    assert alg.names == ("0", "p", "1")
    # linear: meet/join are min/max
    assert alg.meet(1, 2) == 1
    assert alg.join(1, 2) == 2


def test_downsets_of_antichain_is_boolean_square():
    alg = heyting.downset_algebra(("p", "q"), [])
    assert len(alg) == 4
    p, q = alg.index("p"), alg.index("q")
    assert alg.meet(p, q) == alg.bot
    assert alg.join(p, q) == alg.top
    # residuation holds on all triples by construction; spot-check neg
    assert alg.neg(p) == q


def test_downsets_residuation_v_poset():
    # V-shaped poset: two minimal points below one top
    alg = heyting.downset_algebra(("l", "r", "t"), [("l", "t"), ("r", "t")])
    k = len(alg)
    for a, b, c in itertools.product(range(k), repeat=3):
        assert alg.leq(c, alg.imp(a, b)) == alg.leq(alg.meet(c, a), b)


@given(st.integers(min_value=2, max_value=6), st.data())
def test_de_morgan_half(n, data):
    alg = heyting.chain(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert alg.neg(alg.join(a, b)) == alg.meet(alg.neg(a), alg.neg(b))


def test_neg_involution_boolean_but_not_chain3(bool2, chain3):
    assert all(bool2.neg(bool2.neg(x)) == x for x in range(len(bool2)))
    u = chain3.index("u")
    assert chain3.neg(chain3.neg(u)) != u


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        heyting.build_from_order(("a", "a"), [])


def test_unknown_pair_name_rejected():
    with pytest.raises(ValueError):
        heyting.build_from_order(("a",), [("a", "zzz")])
