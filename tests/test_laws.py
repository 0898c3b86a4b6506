"""Cross-cutting law machinery: suites, sampled fallback, classical modes."""

import pytest

from heytop import btop, galois as gl, heyting, hset, laws, optable as ot
from heytop.errors import CapExceeded, CertificateFailure, NotCompatible
from conftest import external_reductions, external_saturations


@pytest.fixture(scope="module")
def ab(bool2):
    return hset.Carrier(["a", "b"])


def test_boolean_aa_jj_are_inverse_on_sat_and_red(bool2, ab):
    # Boolean mode only: AA JJ is the identity on SAT, JJ AA on RED
    for a in external_saturations(bool2, ab):
        assert ot.op_eq(gl.AA(gl.JJ(a)), a)
    for j in external_reductions(bool2, ab):
        assert ot.op_eq(gl.JJ(gl.AA(j)), j)


def test_boolean_reduced_iff_saturated(bool2, ab):
    # classically the reduced and saturated classes coincide
    for a in external_saturations(bool2, ab):
        for j in external_reductions(bool2, ab):
            try:
                t = btop.make(a, j)
            except NotCompatible:
                continue
            assert btop.is_reduced(t)[0] == btop.is_saturated(t)[0]


def test_trentinaglia_down_closed_both_sides(bool2, ab):
    # A compat J stays compatible under shrinking the saturation or the
    # reduction
    sats = external_saturations(bool2, ab)
    reds = external_reductions(bool2, ab)
    for a in sats:
        for j in reds:
            if ot.compat_degree(a, j) != bool2.top:
                continue
            for a2 in sats:
                if ot.op_leq(a2, a):
                    assert ot.compat_degree(a2, j) == bool2.top
            for j2 in reds:
                if ot.op_leq(j2, j):
                    assert ot.compat_degree(a, j2) == bool2.top


def test_suite_registry(bool2, ab):
    sats = [gl.Saturation.certify(ot.identity_op(bool2, ab), name="id")]
    reds = [gl.Reduction.certify(ot.identity_op(bool2, ab), name="id")]
    for suite in ("galois", "positivity", "antitone", "unit", "triangle",
                  "union-to-meet"):
        assert laws.run_suite(suite, sats, reds).ok
    with pytest.raises(KeyError):
        laws.run_suite("nope", sats, reds)


def _law_stocks():
    """(id, saturations, reductions): stocks with deliberately wrong members
    (complement, double complement, a constant) beside genuine ones."""
    c3 = heyting.chain(3)
    s2 = hset.Carrier(["x", "y"])
    subs = hset.enumerate_all(c3, s2)
    mixed = [ot.complement_op(c3, s2), ot.double_complement_op(c3, s2),
             ot.identity_op(c3, s2), ot.const_op(subs[4])]
    sats = [gl.from_family_sat([subs[1], subs[5]], algebra=c3, carrier=s2, name="A1"),
            gl.from_family_sat([subs[7]], algebra=c3, carrier=s2, name="A2")]
    reds = [gl.from_family_red([subs[1], subs[5]], algebra=c3, carrier=s2, name="J1"),
            gl.from_family_red([subs[7]], algebra=c3, carrier=s2, name="J2")]
    yield "chain3-mixed", mixed, mixed
    yield "chain3-bad-sats", sats + mixed, reds
    yield "chain3-bad-reds", sats, reds + mixed
    d = heyting.downset_algebra(("p", "q"), [])  # the diamond
    s1 = hset.Carrier(["p"])
    subs = hset.enumerate_all(d, s1)
    sats = [gl.from_family_sat([subs[1]], algebra=d, carrier=s1, name="A1"),
            gl.from_family_sat([subs[2], subs[1]], algebra=d, carrier=s1, name="A2"),
            gl.Saturation.certify(ot.identity_op(d, s1), name="idS")]
    reds = [gl.from_family_red([subs[1]], algebra=d, carrier=s1, name="J1"),
            gl.from_family_red([subs[2], subs[3]], algebra=d, carrier=s1, name="J2"),
            gl.Reduction.certify(ot.identity_op(d, s1), name="idR")]
    bad = [ot.complement_op(d, s1), ot.double_complement_op(d, s1)]
    bad[0].name, bad[1].name = "neg", "dneg"
    yield "diamond-good", sats, reds
    yield "diamond-bad-sats", sats + bad, reds
    yield "diamond-bad-reds", sats, reds + bad


# per stock, each suite's (instances, witness) -- witness None when the law
# holds -- or the CertificateFailure message; recorded from the suites as
# they stood before each dual pair was written once
LAW_REPORTS = {
    "chain3-mixed": {
        "galois": (5, "(--, -)"), "positivity": (1, "-"),
        "antitone": (4, "AA: (-, const{x:u,y:u})"), "unit": (5, "J in JJAA(J): -"),
        "triangle": (8, None),
        "union-to-meet": "join(-,-) is not a reduction: monotone fails",
        "compat-union": (80, None), "trentinaglia": (192, None),
        "sat-order-equivalences": (1, "(-, -)"), "red-order-equivalences": (1, "(-, -)"),
    },
    "chain3-bad-sats": {
        "galois": (12, None), "positivity": (2, None), "antitone": (40, None),
        "unit": (8, None), "triangle": (8, None), "union-to-meet": (24, None),
        "compat-union": (576, None), "trentinaglia": (1536, None),
        "sat-order-equivalences": (3, "(A1, -)"), "red-order-equivalences": (4, None),
    },
    "chain3-bad-reds": {
        "galois": (12, None), "positivity": (3, "-"),
        "antitone": (6, "AA: (J1, const{x:u,y:u})"), "unit": (5, "J in JJAA(J): -"),
        "triangle": (8, None),
        "union-to-meet": "join(J1,-) is not a reduction: monotone fails",
        "compat-union": (576, None), "trentinaglia": (1536, None),
        "sat-order-equivalences": (4, None), "red-order-equivalences": (4, "(J1, --)"),
    },
    "diamond-good": {
        "galois": (9, None), "positivity": (3, None), "antitone": (18, None),
        "unit": (6, None), "triangle": (6, None), "union-to-meet": (12, None),
        "compat-union": (80, None), "trentinaglia": (192, None),
        "sat-order-equivalences": (9, None), "red-order-equivalences": (9, None),
    },
    "diamond-bad-sats": {
        "galois": (15, None), "positivity": (3, None), "antitone": (34, None),
        "unit": (8, None), "triangle": (8, None), "union-to-meet": (21, None),
        "compat-union": (252, None), "trentinaglia": (648, None),
        "sat-order-equivalences": (4, "(A1, neg)"), "red-order-equivalences": (9, None),
    },
    "diamond-bad-reds": {
        "galois": (4, "(A1, neg)"), "positivity": (4, "neg"), "antitone": (34, None),
        "unit": (7, "J in JJAA(J): neg"), "triangle": (8, None),
        "union-to-meet": "join(J1,neg) is not a reduction: monotone fails",
        "compat-union": (150, None), "trentinaglia": (375, None),
        "sat-order-equivalences": (9, None), "red-order-equivalences": (4, "(J1, neg)"),
    },
}


def test_failing_suite_reports_witness():
    # every suite, run on stocks with wrong members, must report the first
    # failing instance and the instance count at which it stopped
    for stock, sats, reds in _law_stocks():
        ops = sats + [r for r in reds if r not in sats]
        runs = {suite: (lambda s=suite: laws.run_suite(s, sats, reds)) for suite in laws.SUITES}
        runs["compat-union"] = lambda: laws.law_compat_union(ops)
        runs["trentinaglia"] = lambda: laws.law_trentinaglia(ops)
        runs["sat-order-equivalences"] = lambda: laws.law_sat_order_equivalences(sats)
        runs["red-order-equivalences"] = lambda: laws.law_red_order_equivalences(reds)
        assert runs.keys() == LAW_REPORTS[stock].keys()
        for law, run in runs.items():
            want = LAW_REPORTS[stock][law]
            if isinstance(want, str):
                with pytest.raises(CertificateFailure) as exc:
                    run()
                assert str(exc.value) == want, (stock, law)
                continue
            instances, witness = want
            lines = [f"law {law}: {'holds' if witness is None else 'fails'}"]
            if witness is not None:
                lines.append(f"  witness: {witness}")
            lines.append(f"  instances: {instances}")
            assert run().render() == "\n".join(lines), (stock, law)


def test_sampled_search_above_cap_no_counterexample(bool2):
    big = hset.Carrier([f"p{i}" for i in range(13)])
    ident = ot.identity_op(bool2, big)
    with pytest.raises(CapExceeded):
        ot.compat_degree(ident, ident)
    report = laws.sampled_compat_search(ident, ident, 300, seed=9)
    assert report.status == "no-counterexample-found"
    assert report.details["seed"] == "9"


def test_sampled_search_above_cap_finds_violation():
    c3 = heyting.chain(3)
    big = hset.Carrier([f"p{i}" for i in range(8)])  # 3^8 > 4096
    dneg = ot.double_complement_op(c3, big)
    top = ot.top_op(c3, big)
    report = laws.sampled_compat_search(dneg, top, 500, seed=4)
    assert report.status == "fails"
    assert report.witness is not None


def test_random_subset_seeded_deterministic(bool2):
    import random

    s = hset.Carrier(["a", "b", "c"])
    r1 = laws.random_subset(bool2, s, random.Random(5))
    r2 = laws.random_subset(bool2, s, random.Random(5))
    assert r1 == r2
