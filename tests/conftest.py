"""Shared fixtures and enumeration helpers for the test suite."""

import itertools

import pytest
from hypothesis import settings

from heytop import galois, heyting, hset, optable

settings.register_profile("heytop", deadline=None, max_examples=50, print_blob=True)
settings.load_profile("heytop")


@pytest.fixture(scope="session")
def bool2():
    return heyting.boolean2()


@pytest.fixture(scope="session")
def chain3():
    return heyting.chain(3)


def all_operators(algebra, carrier):
    """Every total map on the subset space, tabulated."""
    subs = hset.enumerate_all(algebra, carrier)
    n = len(subs)
    ops = []
    for ranks in itertools.product(range(n), repeat=n):
        mapping = {u: subs[r] for u, r in zip(subs, ranks)}
        ops.append(optable.tabulated_op(algebra, carrier, mapping))
    return ops


def external_saturations(algebra, carrier):
    return [
        galois.Saturation.certify(o)
        for o in all_operators(algebra, carrier)
        if optable.classify(o).is_saturation
    ]


def external_reductions(algebra, carrier):
    return [
        galois.Reduction.certify(o)
        for o in all_operators(algebra, carrier)
        if optable.classify(o).is_reduction
    ]


def family_stock(algebra, carrier, masks=None):
    """Distinct A_P and J_P over sub-collections of the subset space.

    masks defaults to every sub-collection; pass an iterable of bitmasks
    to sample instead.
    """
    subs = hset.enumerate_all(algebra, carrier)
    if masks is None:
        masks = range(1 << len(subs))
    sats, reds = [], []
    seen_s, seen_r = set(), set()
    for mask in masks:
        fam = [subs[i] for i in range(len(subs)) if mask >> i & 1]
        a = galois.from_family_sat(fam, algebra=algebra, carrier=carrier)
        if a.rank_table() not in seen_s:
            seen_s.add(a.rank_table())
            a.name = f"A{len(sats)}"
            sats.append(a)
        j = galois.from_family_red(fam, algebra=algebra, carrier=carrier)
        if j.rank_table() not in seen_r:
            seen_r.add(j.rank_table())
            j.name = f"J{len(reds)}"
            reds.append(j)
    return sats, reds
