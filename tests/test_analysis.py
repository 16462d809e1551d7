from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fdcache.analysis import (
    Halfspace,
    RatePoint,
    check_point,
    fallback_extra_rate_bound,
    lower_convex_hull,
    memory_point,
    rates_by_ones,
    region_33,
    saving_factor,
    tradeoff_curve,
    type_operating_point,
    worst_case_ones_count,
    worst_case_operating_point,
    worst_case_type,
)
from fdcache.core import (
    DemandType,
    NotFullyDemandedError,
    SchemeParams,
    UsageError,
    binom,
    enumerate_fully_demanded_types,
)

F = Fraction


def pt(m, r):
    return RatePoint(F(m), F(r))


# ---------------------------------------------------------------------------
# saving factor


@pytest.mark.parametrize("r", range(3))
def test_saving_factor_zero_when_users_equal_files(r):
    params = SchemeParams(3, 3, r)
    for dtype in enumerate_fully_demanded_types(3, 3):
        assert saving_factor(params, dtype) == 0


def test_saving_factor_four_six():
    assert saving_factor(SchemeParams(4, 6, 1), (3, 1, 1, 1)) == F(1, 10)


def test_saving_factor_three_six():
    # (4*C(2,2) + 2*C(3,2)) / (6*C(5,1)) = (4 + 6)/30
    assert saving_factor(SchemeParams(3, 6, 1), (4, 1, 1)) == F(1, 3)


def test_saving_factor_rejects_partial_type():
    with pytest.raises(NotFullyDemandedError):
        saving_factor(SchemeParams(3, 3, 1), (2, 1, 0))


# ---------------------------------------------------------------------------
# operating points


def test_operating_points_four_six_family():
    expected = {
        1: pt(F(14, 15), F(19, 10)),
        2: pt(F(17, 10), F(1)),
        3: pt(F(37, 15), F(1, 2)),
        4: pt(F(97, 30), F(1, 5)),
    }
    for r, want in expected.items():
        got = type_operating_point(SchemeParams(4, 6, r), (3, 1, 1, 1))
        assert got == want


def test_operating_point_single_requests_three_users():
    assert type_operating_point(SchemeParams(3, 3, 1), (1, 1, 1)) == pt(F(5, 3), F(1, 2))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 5), (4, 6)])
def test_full_cache_endpoint(n, k):
    params = SchemeParams(n, k, k - 1)
    for dtype in enumerate_fully_demanded_types(n, k):
        assert type_operating_point(params, dtype) == pt(F(n), F(0))


def test_worst_case_point_four_six():
    assert worst_case_ones_count(4, 6) == 2
    assert worst_case_operating_point(SchemeParams(4, 6, 1)) == pt(F(14, 15), F(29, 15))


def test_worst_case_point_three_six():
    # p*=0, saving 6*C(2,2)/30 = 1/5
    assert worst_case_ones_count(3, 6) == 0
    assert saving_factor(SchemeParams(3, 6, 1), (2, 2, 2)) == F(1, 5)
    assert worst_case_operating_point(SchemeParams(3, 6, 1)) == pt(F(11, 15), F(9, 5))


def test_worst_case_matches_type_point_when_equal():
    for r in range(3):
        params = SchemeParams(3, 3, r)
        assert worst_case_operating_point(params) == type_operating_point(params, (1, 1, 1))


def test_worst_case_type_is_feasible_witness():
    for n in range(2, 5):
        for k in range(n, 8):
            dtype = worst_case_type(n, k)
            assert sum(dtype.counts) == k and len(dtype.counts) == n
            assert dtype.fully_demanded
            assert dtype.p == worst_case_ones_count(n, k)


@pytest.mark.parametrize("n,k", [(0, 3), (3, 2), (-1, 2)])
def test_worst_case_type_checks_the_system(n, k):
    with pytest.raises(UsageError, match="need 1 <= n_files <= n_users"):
        worst_case_type(n, k)


def test_rates_by_ones_match_every_type_point():
    for n in range(1, 5):
        for k in range(n, 8):
            for r in range(k):
                params = SchemeParams(n, k, r)
                rates = rates_by_ones(params)
                for dtype in enumerate_fully_demanded_types(n, k):
                    assert rates[dtype.p] == type_operating_point(params, dtype).rate


def test_worst_case_is_brute_force_maximum():
    for n in range(2, 5):
        for k in range(n, 8):
            for r in range(k):
                params = SchemeParams(n, k, r)
                best = max(
                    type_operating_point(params, dtype).rate
                    for dtype in enumerate_fully_demanded_types(n, k)
                )
                assert worst_case_operating_point(params).rate == best


# ---------------------------------------------------------------------------
# fallback bound


def test_fallback_bound_values():
    assert fallback_extra_rate_bound(SchemeParams(3, 3, 1)) == F(3, 2)
    assert fallback_extra_rate_bound(SchemeParams(4, 6, 1)) == F(44, 15)
    assert fallback_extra_rate_bound(SchemeParams(3, 6, 5)) == F(1)


def test_fallback_bound_is_worst_case_rate_plus_one():
    # K/(r+1) minus the worst-case saving, written out from the paper's
    # saving formula, equals R_worst + 1 on every system up to K = 12
    for k in range(1, 13):
        for n in range(1, k + 1):
            ones = worst_case_ones_count(n, k)
            for r in range(k):
                params = SchemeParams(n, k, r)
                saving = F((k - ones) * binom(k - 1 - n, r + 1) + ones * binom(k - n, r + 1),
                           k * binom(k - 1, r))
                assert fallback_extra_rate_bound(params) == F(k, r + 1) - saving, (n, k, r)
                assert fallback_extra_rate_bound(params) == worst_case_operating_point(params).rate + 1


# ---------------------------------------------------------------------------
# tradeoff curve


def test_curve_contains_named_points():
    rows = tradeoff_curve(4, 6, dtype=DemandType.of((3, 1, 1, 1)))
    points = {(row.r, row.point) for row in rows}
    assert (1, pt(F(14, 15), F(19, 10))) in points
    assert (4, pt(F(97, 30), F(1, 5))) in points
    assert (None, pt(F(0), F(4))) in points


def test_curve_three_three():
    rows = tradeoff_curve(3, 3, dtype=DemandType.of((1, 1, 1)))
    by_r = {row.r: row.point for row in rows}
    assert by_r[0] == pt(F(1, 3), F(2))
    assert by_r[1] == pt(F(5, 3), F(1, 2))
    assert by_r[2] == pt(F(3), F(0))


def test_curve_sorted_by_memory_and_validated():
    rows = tradeoff_curve(3, 6, worst_case_type(3, 6))
    memories = [row.point.memory for row in rows]
    assert memories == sorted(memories)


def test_curve_hull_reduction_drops_nothing_here():
    full = tradeoff_curve(3, 3, dtype=DemandType.of((1, 1, 1)))
    hull = tradeoff_curve(3, 3, dtype=DemandType.of((1, 1, 1)), hull=True)
    assert [row.point for row in hull] == [row.point for row in full]


# ---------------------------------------------------------------------------
# regions and point checks


def test_region_shapes():
    assert len(region_33("mixed").outer_facets) == 5
    assert len(region_33("mixed").inner_corners) == 7
    assert [f.label() for f in region_33("300").outer_facets] == ["M+3R>=3"]
    assert len(region_33("111").outer_facets) == 6
    assert any(f.label() == "12M+18R>=29" for f in region_33("111").outer_facets)
    with pytest.raises(ValueError):
        region_33("222")


def test_inner_corners_satisfy_own_outer_facets():
    for setting in ("mixed", "300", "210", "111"):
        region = region_33(setting)
        for corner in region.inner_corners:
            assert check_point(corner, region).satisfied, (setting, corner)


def test_five_thirds_point_against_210_and_111():
    point = pt(F(5, 3), F(1, 2))
    report = check_point(point, region_33("210"))
    assert not report.satisfied
    violated = report.violated
    assert len(violated) == 1
    assert violated[0].facet.label() == "2M+3R>=5"
    assert violated[0].value == F(29, 6)
    assert check_point(point, region_33("111")).satisfied


def test_boundary_points_of_mixed_region():
    region = region_33("mixed")
    assert check_point(pt(3, 0), region).satisfied
    assert check_point(pt(0, 3), region).satisfied


def test_halfspace_validation():
    with pytest.raises(ValueError):
        Halfspace(F(0), F(0), F(1))
    with pytest.raises(ValueError):
        RatePoint(F(-1), F(0))


# ---------------------------------------------------------------------------
# lower convex hull


def test_hull_keeps_convex_chain():
    points = [pt(0, 3), pt(1, 1), pt(3, 0)]
    assert lower_convex_hull(points) == points


def test_hull_drops_collinear_point():
    points = [pt(0, 3), pt(F(1, 2), 2), pt(1, 1)]
    assert lower_convex_hull(points) == [pt(0, 3), pt(1, 1)]


def test_hull_keeps_all_single_type_corners():
    corners = region_33("111").inner_corners
    assert lower_convex_hull(corners) == sorted(corners, key=lambda p: p.memory)


def test_hull_drops_dominated_point():
    points = [pt(0, 3), pt(F(1, 2), F(5, 2)), pt(1, 1), pt(3, 0)]
    assert lower_convex_hull(points) == [pt(0, 3), pt(1, 1), pt(3, 0)]


@given(st.permutations(list(region_33("mixed").inner_corners)))
def test_hull_invariant_under_permutation(shuffled):
    assert lower_convex_hull(shuffled) == lower_convex_hull(region_33("mixed").inner_corners)


@given(st.lists(st.sampled_from(region_33("111").inner_corners), min_size=1, max_size=12))
def test_hull_invariant_under_duplicates(points):
    assert lower_convex_hull(points) == lower_convex_hull(set(points))


def test_hull_min_rate_per_memory():
    points = [pt(0, 3), pt(0, 2), pt(1, 1), pt(1, 2)]
    assert lower_convex_hull(points) == [pt(0, 2), pt(1, 1)]


def test_memory_point_formula():
    assert memory_point(SchemeParams(3, 6, 1)) == F(11, 15)
    assert memory_point(SchemeParams(2, 2, 0)) == F(1, 2)
