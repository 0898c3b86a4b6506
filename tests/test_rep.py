"""Relations, images, adjoints, symmetry, representability."""

import random

import pytest

from heytop import btop, galois as gl, heyting, hset, optable as ot, rep
from conftest import external_reductions


@pytest.fixture(scope="module")
def xa(bool2):
    x = hset.Carrier(["x"])
    s = hset.Carrier(["a", "b"])
    r = rep.HRelation.from_pairs(bool2, x, s, [("x", "a")], name="r")
    return x, s, r


def test_images_and_adjoints(bool2, xa):
    x, s, r = xa
    assert rep.dir_image(r, hset.from_points(bool2, x, ["x"])).render() == "{a}"
    assert rep.dir_image(r, hset.empty(bool2, x)).render() == "{}"
    assert rep.inv_image(r, hset.from_points(bool2, s, ["b"])).render() == "{}"
    assert rep.right_adjoint(r, hset.from_points(bool2, s, ["a"])).render() == "{x}"
    assert rep.right_adjoint(r, hset.from_points(bool2, s, ["b"])).render() == "{}"
    assert rep.right_adjoint(r, hset.full(bool2, s)).render() == "{x}"


def test_images_match_their_defining_formulas():
    # a degree-valued relation between carriers of different sizes over the
    # diamond, so reading the matrix where its transpose belongs (or the
    # other way round) cannot give the right degrees
    alg = heyting.downset_algebra(("p", "q"), [])
    x = hset.Carrier(["x", "y"])
    s = hset.Carrier(["a", "b", "c"])
    r = rep.HRelation.from_triples(
        alg, x, s,
        [("x", "a", "p"), ("x", "b", "1"), ("y", "b", "q"), ("y", "c", "p"), ("x", "c", "q")],
    )
    m = r.matrix
    doms = hset.enumerate_all(alg, x)
    cods = hset.enumerate_all(alg, s)
    for d in doms:
        dd = d.degrees
        assert rep.dir_image(r, d).degrees == tuple(
            alg.big_join(alg.meet(dd[i], m[i][a]) for i in range(len(x)))
            for a in range(len(s))
        )
        assert rep.inv_right_adjoint(r, d).degrees == tuple(
            alg.big_meet(alg.imp(m[i][a], dd[i]) for i in range(len(x)))
            for a in range(len(s))
        )
    for u in cods:
        ud = u.degrees
        assert rep.inv_image(r, u).degrees == tuple(
            alg.big_join(alg.meet(ud[a], m[i][a]) for a in range(len(s)))
            for i in range(len(x))
        )
        assert rep.right_adjoint(r, u).degrees == tuple(
            alg.big_meet(alg.imp(m[i][a], ud[a]) for a in range(len(s)))
            for i in range(len(x))
        )


def test_adjunction_laws_exhaustive(bool2, xa):
    x, s, r = xa
    for d in hset.enumerate_all(bool2, x):
        for u in hset.enumerate_all(bool2, s):
            assert hset.incl(rep.dir_image(r, d), u) == hset.incl(
                d, rep.right_adjoint(r, u)
            )
            assert hset.incl(rep.inv_image(r, u), d) == hset.incl(
                u, rep.inv_right_adjoint(r, d)
            )


def test_images_preserve_unions_and_empty(bool2, xa):
    x, s, r = xa
    doms = hset.enumerate_all(bool2, x)
    cods = hset.enumerate_all(bool2, s)
    assert rep.dir_image(r, hset.empty(bool2, x)) == hset.empty(bool2, s)
    assert rep.inv_image(r, hset.empty(bool2, s)) == hset.empty(bool2, x)
    for d1 in doms:
        for d2 in doms:
            assert rep.dir_image(r, d1.union(d2)) == rep.dir_image(r, d1).union(
                rep.dir_image(r, d2)
            )
    for u1 in cods:
        for u2 in cods:
            assert rep.inv_image(r, u1.union(u2)) == rep.inv_image(r, u1).union(
                rep.inv_image(r, u2)
            )


def test_symmetry_check(bool2, xa):
    _, _, r = xa
    assert rep.symmetry_check(r).ok
    empty_rel = rep.HRelation.from_pairs(
        bool2, hset.Carrier(["x"]), hset.Carrier(["a"]), []
    )
    assert rep.symmetry_check(empty_rel).ok


def test_representable_example_tables(bool2, xa):
    _, s, r = xa
    t = rep.representable(r)
    # J = rr* is meet with {a}; A sends U to {b} plus ({a} when a in U)
    for u in hset.enumerate_all(bool2, s):
        assert t.red.apply(u) == u.intersection(hset.from_points(bool2, s, ["a"]))
        expected = hset.from_points(bool2, s, ["b"]).union(
            u.intersection(hset.from_points(bool2, s, ["a"]))
        )
        assert t.sat.apply(u) == expected
    assert btop.is_reduced(t)[0]


def test_identity_relation_gives_id_id(bool2):
    s = hset.Carrier(["a", "b"])
    x = hset.Carrier(["a", "b"])
    r = rep.HRelation.from_pairs(bool2, x, s, [("a", "a"), ("b", "b")])
    t = rep.representable(r)
    assert ot.op_eq(t.sat, ot.identity_op(bool2, s))
    assert ot.op_eq(t.red, ot.identity_op(bool2, s))


def test_triangular_equality(bool2, xa):
    _, _, r = xa
    for xi in range(len(r.domain)):
        row = hset.HSubset(bool2, r.codomain, r.matrix[xi])
        assert rep.dir_image(r, rep.right_adjoint(r, row)) == row


def test_random_relations_laws(bool2):
    rng = random.Random(424242)
    for _ in range(40):
        nx = rng.randrange(1, 4)
        ns = rng.randrange(1, 4)
        x = hset.Carrier([f"x{i}" for i in range(nx)])
        s = hset.Carrier([f"a{i}" for i in range(ns)])
        pairs = [
            (f"x{i}", f"a{j}")
            for i in range(nx)
            for j in range(ns)
            if rng.random() < 0.5
        ]
        r = rep.HRelation.from_pairs(bool2, x, s, pairs)
        assert rep.symmetry_check(r).ok
        t = rep.representable(r)
        assert btop.is_reduced(t)[0]
        for d in hset.enumerate_all(bool2, x):
            for u in hset.enumerate_all(bool2, s):
                assert hset.incl(rep.dir_image(r, d), u) == hset.incl(
                    d, rep.right_adjoint(r, u)
                )


def test_h_mode_relation(chain3):
    x = hset.Carrier(["x"])
    s = hset.Carrier(["a", "b"])
    r = rep.HRelation.from_triples(chain3, x, s, [("x", "a", "u"), ("x", "b", "1")])
    assert rep.symmetry_check(r).ok
    t = rep.representable(r)
    assert btop.is_reduced(t)[0]


def test_represent_reduction_round_trip(bool2):
    s = hset.Carrier(["a", "b"])
    for j in external_reductions(bool2, s):
        r = rep.represent_reduction(j)
        t = rep.representable(r)
        assert ot.op_eq(t.red, j)
        assert ot.op_eq(t.sat, gl.AA(j))


def test_represent_bottom_reduction(bool2):
    s = hset.Carrier(["a", "b"])
    j = gl.Reduction.certify(ot.bottom_op(bool2, s))
    r = rep.represent_reduction(j)
    assert r.domain.points == ("{}",)
    t = rep.representable(r)
    assert ot.op_eq(t.red, ot.bottom_op(bool2, s))
    assert ot.op_eq(t.sat, ot.top_op(bool2, s))


def test_represent_identity_domain_is_all_subsets(bool2):
    s = hset.Carrier(["a", "b"])
    j = gl.Reduction.certify(ot.identity_op(bool2, s))
    r = rep.represent_reduction(j)
    assert len(r.domain) == 4
    t = rep.representable(r)
    assert ot.op_eq(t.red, ot.identity_op(bool2, s))


def test_represent_reduction_h_mode_family(chain3):
    s = hset.Carrier(["a", "b"])
    j = gl.from_family_red(
        [hset.from_degrees(chain3, s, {"a": "u"}), hset.from_degrees(chain3, s, {"b": "1"})],
        algebra=chain3,
        carrier=s,
    )
    r = rep.represent_reduction(j)
    t = rep.representable(r)
    assert ot.op_eq(t.red, j)
    assert ot.op_eq(t.sat, gl.AA(j))
