import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fdcache.core import (
    DemandType,
    NotFullyDemandedError,
    SchemeParams,
    UsageError,
    binom,
    count_demands,
    covering_count,
    demand_type,
    enumerate_demands,
    enumerate_fully_demanded_types,
    format_fraction,
    is_fully_demanded,
    leader_sets,
    parse_fraction,
    requesters,
    validate_demand,
)


def test_binom_standard_value():
    assert binom(5, 2) == 10


def test_binom_vanishes_below_diagonal():
    assert binom(1, 2) == 0
    assert binom(-1, 1) == 0
    assert binom(3, -1) == 0


def test_binom_diagonal_is_one():
    # C(2,2)=1 is what makes the (14/15, 19/10) operating point come out
    assert binom(2, 2) == 1
    assert binom(0, 0) == 1


@given(st.integers(0, 40), st.integers(-3, 43))
def test_binom_pascal_identity(n, k):
    assert binom(n + 1, k) == binom(n, k) + binom(n, k - 1)


def test_params_validation():
    SchemeParams(3, 6, 1)
    with pytest.raises(ValueError):
        SchemeParams(4, 3, 0)  # more files than users
    with pytest.raises(ValueError):
        SchemeParams(3, 3, 3)  # r > K-1
    with pytest.raises(ValueError):
        SchemeParams(0, 3, 0)


def test_demand_type_repeated_requests():
    params = SchemeParams(3, 3, 0)
    dtype = demand_type(params, (2, 2, 1))
    assert dtype.counts == (2, 1, 0)
    assert not dtype.fully_demanded


def test_demand_type_permutation_demand():
    params = SchemeParams(3, 3, 0)
    assert demand_type(params, (1, 2, 3)).counts == (1, 1, 1)


def test_demand_type_running_example():
    params = SchemeParams(3, 6, 1)
    dtype = demand_type(params, (1, 1, 1, 1, 2, 3))
    assert dtype.counts == (4, 1, 1)
    assert dtype.p == 2


def test_demand_type_rejects_unsorted():
    with pytest.raises(ValueError):
        DemandType((1, 2, 0))
    assert DemandType.of((1, 2, 0)).counts == (2, 1, 0)


@given(st.data())
def test_demand_type_invariant_under_position_permutation(data):
    k = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(1, k))
    params = SchemeParams(n, k, 0)
    demand = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    shuffled = tuple(data.draw(st.permutations(demand)))
    assert demand_type(params, demand) == demand_type(params, shuffled)


@given(st.data())
def test_demand_type_invariant_under_file_relabeling(data):
    k = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(1, k))
    params = SchemeParams(n, k, 0)
    demand = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    relabel = dict(zip(range(1, n + 1), data.draw(st.permutations(range(1, n + 1)))))
    renamed = tuple(relabel[f] for f in demand)
    assert demand_type(params, demand) == demand_type(params, renamed)


def test_enumerate_single_type_table():
    params = SchemeParams(3, 3, 0)
    demands = enumerate_demands(params, (2, 1, 0))
    assert len(demands) == 18
    groups = {}
    for d in demands:
        raw = tuple(d.count(f) for f in params.files)
        groups.setdefault(raw, []).append(d)
    assert len(groups) == 6
    assert all(len(g) == 3 for g in groups.values())
    assert (2, 2, 1) in demands and (1, 1, 2) in demands


def test_enumerate_fully_demanded_count():
    params = SchemeParams(3, 3, 0)
    assert len(enumerate_demands(params, "fully_demanded")) == 6


def test_enumerate_mixed_count():
    params = SchemeParams(2, 2, 0)
    assert enumerate_demands(params, "mixed") == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_rejects_bad_type():
    params = SchemeParams(3, 3, 0)
    with pytest.raises(ValueError):
        enumerate_demands(params, (2, 2, 0))  # sums to 4, not K=3


@pytest.mark.parametrize("name", ["fully-demanded", "Mixed", ""])
def test_a_misspelled_demand_class_is_a_usage_error(name):
    params = SchemeParams(3, 4, 1)
    for count_or_walk in (count_demands, enumerate_demands):
        with pytest.raises(UsageError, match="'mixed', 'fully_demanded' or a demand type"):
            count_or_walk(params, name)


def test_enumeration_is_lexicographic():
    params = SchemeParams(2, 3, 0)
    demands = enumerate_demands(params, "mixed")
    assert demands == sorted(demands)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 4), (3, 4), (3, 5), (4, 6)])
def test_count_matches_enumeration(n, k):
    params = SchemeParams(n, k, 0)
    for cls in ["mixed", "fully_demanded"]:
        assert count_demands(params, cls) == len(enumerate_demands(params, cls))
    for dtype in enumerate_fully_demanded_types(n, k):
        assert count_demands(params, dtype) == len(enumerate_demands(params, dtype))


@pytest.mark.parametrize("n,length", [(1, 0), (1, 3), (2, 0), (2, 3), (3, 4), (4, 5)])
def test_covering_count_matches_brute_force(n, length):
    vectors = list(itertools.product(range(1, n + 1), repeat=length))
    for missing in range(n + 1):
        want = sum(1 for v in vectors if set(range(1, missing + 1)) <= set(v))
        assert covering_count(n, missing, length) == want


def _no_product(*args, **kwargs):
    raise AssertionError("enumeration walked itertools.product")


def test_single_type_enumeration_agrees_with_filter(monkeypatch):
    """Every restricted class on every (N, K <= 6), including types that
    leave files unrequested, equals the filter over all N^K vectors, and is
    walked without itertools.product."""
    for k in range(1, 7):
        for n in range(1, k + 1):
            params = SchemeParams(n, k, 0)
            by_filter = {"fully_demanded": []}
            for d in itertools.product(params.files, repeat=k):
                by_filter.setdefault(demand_type(params, d), []).append(d)
                if set(d) == set(params.files):
                    by_filter["fully_demanded"].append(d)
            with monkeypatch.context() as patch:
                patch.setattr(itertools, "product", _no_product)
                for demand_class, demands in by_filter.items():
                    assert enumerate_demands(params, demand_class) == demands, (n, k, demand_class)


@pytest.mark.parametrize("params,demand_class,count", [
    (SchemeParams(4, 15, 0), (12, 1, 1, 1), 10_920),
    (SchemeParams(8, 8, 0), "fully_demanded", 40_320),
])
def test_enumeration_skips_vectors_outside_the_class(monkeypatch, params, demand_class, count):
    # a walk over all N^K vectors would take 4^15 ~ 1.1e9 and 8^8 ~ 1.7e7 steps
    monkeypatch.setattr(itertools, "product", _no_product)
    demands = enumerate_demands(params, demand_class)
    assert len(demands) == count == count_demands(params, demand_class)
    assert demands == sorted(set(demands))


def test_fully_demanded_types_enumeration():
    types = [t.counts for t in enumerate_fully_demanded_types(3, 6)]
    assert types == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]


@pytest.mark.parametrize("n,k", [(0, 3), (-1, 2), (3, 2)])
def test_fully_demanded_types_check_the_system(n, k):
    with pytest.raises(UsageError, match="need 1 <= n_files <= n_users"):
        enumerate_fully_demanded_types(n, k)


def test_leaders_running_example():
    params = SchemeParams(3, 6, 1)
    d = (1, 1, 1, 1, 2, 3)
    assert leader_sets(params, d)[1] == frozenset({2, 5, 6})


def test_leaders_unique_file_requester():
    params = SchemeParams(3, 6, 1)
    # only user 5 wanted file 2, so file 2 has no leader outside user 5
    assert leader_sets(params, (1, 1, 1, 1, 2, 3))[5] == frozenset({1, 6})


def test_leaders_two_users():
    params = SchemeParams(2, 2, 0)
    assert leader_sets(params, (1, 2))[1] == frozenset({2})


def test_leaders_rejects_partial_demand():
    params = SchemeParams(3, 3, 0)
    with pytest.raises(NotFullyDemandedError):
        leader_sets(params, (1, 1, 2))


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (3, 5), (4, 6)])
def test_leader_set_size_dichotomy(n, k):
    params = SchemeParams(n, k, 0)
    for d in enumerate_demands(params, "fully_demanded"):
        for s in params.users:
            leader_set = leader_sets(params, d)[s]
            unique = len(requesters(d, d[s - 1])) == 1
            assert len(leader_set) == (n - 1 if unique else n)
            # brute force: the lowest requester outside s of every file
            lowest = (min((u for u in requesters(d, f) if u != s), default=None) for f in params.files)
            assert leader_set == frozenset(u for u in lowest if u is not None)


def test_leader_sets_match_the_per_user_definition():
    # one walk of the demand gives every user's leader set: the lowest
    # requester outside s of every file requested outside s
    from fdcache.harness import sample_fully_demanded

    checked = 0
    for k in range(1, 8):
        for n in range(1, k + 1):
            for r in range(k):
                params = SchemeParams(n, k, r)
                for d in sample_fully_demanded(params, 10):
                    sets = leader_sets(params, d)
                    assert list(sets) == list(params.users)
                    for s in params.users:
                        lowest = (min((u for u in requesters(d, f) if u != s), default=None) for f in params.files)
                        assert sets[s] == frozenset(u for u in lowest if u is not None)
                        checked += 1
    assert checked > 5000, checked


def test_leaders_checks_the_demand_before_the_user():
    params = SchemeParams(3, 3, 0)
    with pytest.raises(NotFullyDemandedError):
        leader_sets(params, (1, 1, 2))
    with pytest.raises(UsageError, match="demand length"):
        leader_sets(params, (1, 2))


def test_requesters():
    assert requesters((1, 1, 2, 3), 1) == (1, 2)
    assert requesters((1, 1, 2, 3), 3) == (4,)
    assert requesters((1, 1, 2, 3), 4) == ()


def test_validate_demand():
    params = SchemeParams(3, 3, 0)
    assert validate_demand(params, [1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ValueError):
        validate_demand(params, (1, 2))
    with pytest.raises(ValueError):
        validate_demand(params, (1, 2, 4))
    assert is_fully_demanded(params, (1, 2, 3))
    assert not is_fully_demanded(params, (1, 2, 2))


def test_fraction_round_trip():
    assert format_fraction(parse_fraction("29/15")) == "29/15"
    assert format_fraction(parse_fraction("2")) == "2"
    assert parse_fraction("6/4") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_fraction("nope")
    with pytest.raises(ValueError):
        parse_fraction("1/0")


def test_fraction_exponent_ceiling():
    # inside the ceiling either way, the exact value; past it, a usage error
    # raised before the power of ten is built
    assert parse_fraction("1e100") == 10**100
    assert parse_fraction("25E-100") == Fraction(25, 10**100)
    for text in ("1e101", "1e400", "1e-400", "3.5e+4_00", "1e" + "9" * 30):
        with pytest.raises(UsageError, match="past the ceiling"):
            parse_fraction(text)


def test_fraction_exponent_ceiling_reads_every_decimal_digit():
    # Fraction reads any Unicode decimal digit, so the ceiling does too:
    # Arabic-Indic and fullwidth digits count as the ASCII ones
    assert parse_fraction("1e\u0661\u0660\u0660") == 10**100
    for text in ("1e\u0661\u0660\u0661", "1E\uff11\u0660\u0661", "1e\uff11_\u0660\u0661"):
        with pytest.raises(UsageError, match="past the ceiling of 100"):
            parse_fraction(text)


@given(st.integers(-100, 100), st.integers(1, 40))
def test_fraction_arithmetic_lowest_terms(num, den):
    q = Fraction(num, den)
    assert q.denominator > 0
    import math

    assert math.gcd(abs(q.numerator), q.denominator) == 1 or q.numerator == 0
