"""The subset cap: one value, held by hset, read by nothing else."""

import inspect

import pytest

from heytop import btop, galois, gen, heyting, hset, laws, optable, rep, subset_cap
from heytop.errors import CapExceeded

BIG = hset.Carrier([f"p{i}" for i in range(13)])  # 2^13 = 8192 subsets


@pytest.fixture(scope="module")
def bool2():
    return heyting.boolean2()


def test_default_cap(bool2):
    assert hset.within_cap(bool2, hset.Carrier([f"p{i}" for i in range(12)]))
    assert not hset.within_cap(bool2, BIG)
    with pytest.raises(CapExceeded, match="above the cap of 4096"):
        hset.check_cap(bool2, BIG)


def test_subset_cap_restores_the_previous_cap(bool2):
    with hset.subset_cap(8192):
        assert hset.within_cap(bool2, BIG)
        assert hset.check_cap(bool2, BIG) == 8192
    assert not hset.within_cap(bool2, BIG)


def test_subset_cap_restores_after_an_exception(bool2):
    with pytest.raises(CapExceeded, match="above the cap of 4"):
        with hset.subset_cap(4):
            hset.enumerate_all(bool2, hset.Carrier(["a", "b", "c"]))
    assert hset.within_cap(bool2, hset.Carrier([f"p{i}" for i in range(12)]))


def test_subset_caps_nest(bool2):
    three = hset.Carrier(["a", "b", "c"])  # 8 subsets
    with hset.subset_cap(8192):
        with hset.subset_cap(4):
            assert not hset.within_cap(bool2, three)
            with hset.subset_cap(8):
                assert hset.within_cap(bool2, three) and not hset.within_cap(bool2, BIG)
            assert not hset.within_cap(bool2, three)
        assert hset.within_cap(bool2, BIG)
    assert not hset.within_cap(bool2, BIG) and hset.within_cap(bool2, three)


def test_subset_cap_below_one_is_rejected():
    for n in (0, -1):
        with pytest.raises(ValueError):
            with hset.subset_cap(n):
                pass


def test_package_exports_subset_cap():
    assert subset_cap is hset.subset_cap


def _counting_identity(calls):
    def fn(u):
        calls.append(u)
        return u

    return fn


def test_operator_tabulates_exactly_within_the_cap(bool2):
    calls = []
    optable.Operator(bool2, BIG, _counting_identity(calls))
    assert calls == []  # above the default cap: not tabulated
    with hset.subset_cap(8192):
        op = optable.Operator(bool2, BIG, _counting_identity(calls))
    assert len(calls) == 8192
    # the table answers outside the cap, with no body call and no cap check
    u = hset.from_points(bool2, BIG, ["p3"])
    assert op.apply(u) is hset.held_space(bool2, BIG).subs[hset.subset_rank(u)]
    assert len(calls) == 8192
    # quantified answers read the space, so they refuse outside the cap
    with pytest.raises(CapExceeded):
        optable.classify(op)


def test_a_rule_tabulates_under_a_later_raised_cap(bool2, monkeypatch):
    ident = optable.identity_op(bool2, BIG)
    comp = optable.complement_op(bool2, BIG)
    ops = [ident, comp, optable.pointwise_meet([ident, comp]), optable.compose(comp, comp)]
    assert [op._ranks for op in ops] == [None] * 4  # above the default cap

    def no_body(op, u):
        raise AssertionError(f"{op.name}: body ran")

    monkeypatch.setattr(optable.Operator, "_run", no_body)
    with hset.subset_cap(8192):
        ident_t, comp_t, meet_t, twice_t = (op.rank_table() for op in ops)
        sat = galois.Saturation.certify(ident)
    n = hset.space_size(bool2, BIG)
    assert ident_t == twice_t == tuple(range(n))
    assert comp_t == tuple(n - 1 - r for r in range(n))  # bot is 0, top 1
    assert meet_t == (0,) * n
    assert sat.rank_table() == ident_t and sat.certificate.is_saturation


def test_boolean_generation_is_verified_within_the_cap(bool2):
    cover = hset.from_points(bool2, BIG, ["p1"])
    ax = gen.AxiomSet(bool2, BIG, [("p0", cover)])
    assert gen.generate_sat(ax).certificate == galois.BY_CONSTRUCTION
    with hset.subset_cap(8192):
        sat = gen.generate_sat(ax)
    assert sat.certificate.is_saturation


MODULES = (btop, galois, gen, hset, laws, optable, rep)


def _functions(module):
    """Every function and method defined in module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_function_takes_a_cap(module):
    functions = list(_functions(module))
    assert functions
    takes_cap = [
        f.__qualname__ for f in functions if "cap" in inspect.signature(f).parameters
    ]
    assert takes_cap == []
