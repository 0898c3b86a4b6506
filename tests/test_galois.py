"""Saturations, reductions, AA/JJ, and the Galois connection laws."""

import pytest

from heytop import galois as gl, hset, laws, optable as ot
from heytop.errors import CertificateFailure
from conftest import external_reductions, external_saturations, family_stock


@pytest.fixture(scope="module")
def ab(bool2):
    return hset.Carrier(["a", "b"])


@pytest.fixture(scope="module")
def star(chain3):
    return hset.Carrier(["*"])


def test_certificates_reject(bool2, ab, chain3, star):
    with pytest.raises(CertificateFailure) as exc:
        gl.Saturation.certify(ot.bottom_op(bool2, ab))
    assert exc.value.flag == "expansive"
    with pytest.raises(CertificateFailure):
        gl.Reduction.certify(ot.top_op(bool2, ab))
    with pytest.raises(CertificateFailure) as exc:
        gl.Reduction.certify(ot.double_complement_op(chain3, star))
    assert exc.value.flag == "contractive"
    assert exc.value.witness.render() == "{*:u}"


def test_certificates_re_verify(bool2, ab):
    sat = gl.Saturation.certify(ot.identity_op(bool2, ab))
    assert sat.re_verify()


def test_certify_takes_the_rank_table(bool2, ab):
    calls = []

    def body(u):
        calls.append(u)
        return u

    op = ot.Operator(bool2, ab, body, name="id")
    tabulated = len(calls)
    sat = gl.Saturation.certify(op)
    assert len(calls) == tabulated  # the body is not run again
    assert sat.rank_table() == op.rank_table()
    assert gl.profile_of(sat) is sat.certificate
    # a profile handed over is the certificate, not classified again
    red = gl.Reduction.certify(op, profile=sat.certificate)
    assert red.certificate is sat.certificate
    assert len(calls) == tabulated


def test_certify_with_a_refuting_profile_rejects(bool2, ab):
    op = ot.bottom_op(bool2, ab)
    with pytest.raises(CertificateFailure) as exc:
        gl.Saturation.certify(op, profile=ot.classify(op))
    assert exc.value.flag == "expansive"


def test_from_family_boundaries(bool2, ab):
    subs = hset.enumerate_all(bool2, ab)
    assert ot.op_eq(
        gl.from_family_sat([], algebra=bool2, carrier=ab), ot.top_op(bool2, ab)
    )
    assert ot.op_eq(
        gl.from_family_red([], algebra=bool2, carrier=ab), ot.bottom_op(bool2, ab)
    )
    assert ot.op_eq(gl.from_family_sat(list(subs)), ot.identity_op(bool2, ab))
    assert ot.op_eq(gl.from_family_red(list(subs)), ot.identity_op(bool2, ab))


def test_from_family_singleton(bool2, ab):
    w = hset.from_points(bool2, ab, ["a"])
    a_p = gl.from_family_sat([w])
    j_p = gl.from_family_red([w])
    assert a_p.apply(hset.empty(bool2, ab)).render() == "{a}"
    assert a_p.apply(hset.from_points(bool2, ab, ["b"])).render() == "{a,b}"
    assert j_p.apply(hset.full(bool2, ab)).render() == "{a}"


def test_family_extreme_among_those_fixing(bool2, ab):
    # In the pointwise operator order, A_P is the greatest saturation fixing
    # every member of P (equivalently: the one with the fewest fixed points,
    # the Moore closure of P); J_P is dually the least such reduction.
    subs = hset.enumerate_all(bool2, ab)
    fam = [subs[1], subs[3]]
    a_p = gl.from_family_sat(fam)
    j_p = gl.from_family_red(fam)
    for v in fam:
        assert a_p.apply(v) == v
        assert j_p.apply(v) == v
    for a in external_saturations(bool2, ab):
        if all(a.apply(v) == v for v in fam):
            assert ot.op_leq(a, a_p)
    for j in external_reductions(bool2, ab):
        if all(j.apply(v) == v for v in fam):
            assert ot.op_leq(j_p, j)


def test_every_external_sat_red_is_family_generated_boolean(bool2, ab):
    # classically A = A_{Fix(A)} and J = J_{Fix(J)}
    subs = hset.enumerate_all(bool2, ab)
    for a in external_saturations(bool2, ab):
        fam = [u for u in subs if a.apply(u) == u]
        assert ot.op_eq(gl.from_family_sat(fam), a)
    for j in external_reductions(bool2, ab):
        fam = [u for u in subs if j.apply(u) == u]
        assert ot.op_eq(gl.from_family_red(fam), j)


def test_aa_jj_trivial(bool2, ab):
    ident = ot.identity_op(bool2, ab)
    idsat = gl.Saturation.certify(ident)
    idred = gl.Reduction.certify(ident)
    assert ot.op_eq(gl.AA(idred), ident)
    assert ot.op_eq(gl.AA(gl.Reduction.certify(ot.bottom_op(bool2, ab))), ot.top_op(bool2, ab))
    assert ot.op_eq(gl.JJ(idsat), ident)
    assert ot.op_eq(gl.JJ(gl.Saturation.certify(ot.top_op(bool2, ab))), ot.bottom_op(bool2, ab))


def test_classical_collapse_exhaustive(bool2, ab):
    comp = ot.complement_op(bool2, ab)
    for j in external_reductions(bool2, ab):
        assert ot.op_eq(gl.AA(j), ot.compose(comp, ot.compose(j, comp)))
    for a in external_saturations(bool2, ab):
        assert ot.op_eq(gl.JJ(a), ot.compose(comp, ot.compose(a, comp)))


def test_jj_fixed_points_are_splitting_subsets(bool2, ab):
    subs = hset.enumerate_all(bool2, ab)
    for a in external_saturations(bool2, ab):
        jja = gl.JJ(a)
        for z in subs:
            assert (jja.apply(z) == z) == (
                ot.splits_degree(z, a) == bool2.top
            )


def test_jj_value_is_largest_splitting_subset_below(bool2, ab):
    subs = hset.enumerate_all(bool2, ab)
    for a in external_saturations(bool2, ab):
        jja = gl.JJ(a)
        for v in subs:
            best = hset.empty(bool2, ab)
            for z in subs:
                if z.leq(v) and ot.splits_degree(z, a) == bool2.top:
                    best = best.union(z)
            assert jja.apply(v) == best


def test_meet_saturations_join_reductions(bool2, ab):
    ident = ot.identity_op(bool2, ab)
    top = ot.top_op(bool2, ab)
    met = gl.meet_saturations(
        [gl.Saturation.certify(ident), gl.Saturation.certify(top)]
    )
    assert ot.op_eq(met, ident)
    assert ot.op_eq(
        gl.meet_saturations([], algebra=bool2, carrier=ab), top
    )
    assert ot.op_eq(
        gl.join_reductions([], algebra=bool2, carrier=ab), ot.bottom_op(bool2, ab)
    )


def test_sat_red_lattice_bounds(bool2, ab):
    # id is the bottom of SAT and the top of RED; top/bot are the other ends
    ident = ot.identity_op(bool2, ab)
    for a in external_saturations(bool2, ab):
        assert ot.op_leq(ident, a) and ot.op_leq(a, ot.top_op(bool2, ab))
    for j in external_reductions(bool2, ab):
        assert ot.op_leq(j, ident) and ot.op_leq(ot.bottom_op(bool2, ab), j)


def test_join_saturations_least_upper_bound(bool2, ab):
    sats = external_saturations(bool2, ab)
    for a1 in sats:
        for a2 in sats:
            j = gl.join_saturations([a1, a2])
            assert ot.op_leq(a1, j) and ot.op_leq(a2, j)
            for a in sats:
                if ot.op_leq(a1, a) and ot.op_leq(a2, a):
                    assert ot.op_leq(j, a)


def test_meet_reductions_greatest_lower_bound(bool2, ab):
    reds = external_reductions(bool2, ab)
    for j1 in reds:
        for j2 in reds:
            m = gl.meet_reductions([j1, j2])
            assert ot.op_leq(m, j1) and ot.op_leq(m, j2)
            for j in reds:
                if ot.op_leq(j, j1) and ot.op_leq(j, j2):
                    assert ot.op_leq(j, m)


def test_galois_check_identity(bool2, ab):
    rep = gl.galois_check(
        gl.Saturation.certify(ot.identity_op(bool2, ab)),
        gl.Reduction.certify(ot.identity_op(bool2, ab)),
    )
    assert rep.ok and rep.degree == "1"


def test_three_way_galois_exhaustive_boolean(bool2, ab):
    for a in external_saturations(bool2, ab):
        for j in external_reductions(bool2, ab):
            assert gl.galois_check(a, j).ok


def test_three_way_galois_exhaustive_chain3_externals(chain3, star):
    for a in external_saturations(chain3, star):
        for j in external_reductions(chain3, star):
            assert gl.galois_check(a, j).ok


def test_double_negation_not_compatible_with_id_chain3(chain3, star):
    dneg = ot.double_complement_op(chain3, star)
    ident = ot.identity_op(chain3, star)
    assert chain3.name(ot.compat_degree(dneg, ident)) == "u"


def test_positivity_trivial_and_catalog(bool2, ab, chain3):
    assert gl.positivity_law(gl.Reduction.certify(ot.identity_op(bool2, ab))).ok
    assert gl.positivity_law(gl.Reduction.certify(ot.bottom_op(bool2, ab))).ok
    s2 = hset.Carrier(["a", "b"])
    j_u = gl.from_family_red(
        [hset.from_degrees(chain3, s2, {"a": "u"})], algebra=chain3, carrier=s2
    )
    rep = gl.positivity_law(j_u)
    assert rep.ok and rep.degree == "1"


def test_composition_both_saturations_iff_commute(bool2, ab):
    sats = external_saturations(bool2, ab)
    for a1 in sats:
        for a2 in sats:
            c12 = ot.compose(a1, a2)
            c21 = ot.compose(a2, a1)
            both = (
                ot.classify(c12).is_saturation and ot.classify(c21).is_saturation
            )
            assert both == ot.op_eq(c12, c21)


def test_order_equivalences_family_stock_chain3(chain3):
    s = hset.Carrier(["a", "b"])
    sats, reds = family_stock(chain3, s, masks=range(0, 512, 3))
    assert laws.law_sat_order_equivalences(sats).ok
    assert laws.law_red_order_equivalences(reds).ok


def test_order_equivalence_fails_for_non_internal_reduction(chain3, star):
    # the externally-certified map 0,u,1 -> 0,0,1 passes classify but is not
    # internally monotone; the four-way equivalence lemma does not cover it
    subs = hset.enumerate_all(chain3, star)
    j1 = ot.tabulated_op(chain3, star, {subs[0]: subs[0], subs[1]: subs[0], subs[2]: subs[2]})
    j2 = ot.tabulated_op(chain3, star, {subs[0]: subs[0], subs[1]: subs[1], subs[2]: subs[1]})
    assert ot.classify(j1).is_reduction and ot.classify(j2).is_reduction
    d1 = ot.op_incl_degree(j1, j2)
    d2 = ot.op_eq_degree(ot.compose(j1, j2), j1)
    assert d1 != d2
    # and indeed j1 is not J_P for any family P
    _, reds = family_stock(chain3, star)
    assert all(not ot.op_eq(j1, j) for j in reds)


def test_union_to_meet_poset_form(bool2, ab):
    sats = external_saturations(bool2, ab)
    reds = external_reductions(bool2, ab)
    assert laws.law_union_to_meet(sats, reds).ok


def test_aa_of_red_join_pointwise_only(bool2, ab):
    # the AA half is a plain pointwise identity
    reds = external_reductions(bool2, ab)
    for j1 in reds:
        for j2 in reds:
            lhs = gl.AA(gl.join_reductions([j1, j2]))
            rhs = ot.pointwise_meet([gl.AA(j1), gl.AA(j2)])
            assert ot.op_eq(lhs, rhs)


def test_galois_unit_triangle_suites_chain3_families(chain3):
    s = hset.Carrier(["a", "b"])
    sats, reds = family_stock(chain3, s, masks=range(0, 512, 5))
    assert laws.law_unit(sats, reds).ok
    assert laws.law_triangle(sats, reds).ok
    assert laws.law_antitone(sats, reds).ok
