import dataclasses
import itertools
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fdcache.algebra import CHANNELS, MaskValues, Payload, segment, segment_index
from fdcache.analysis import memory_point, type_operating_point
from fdcache.core import SchemeParams, NotFullyDemandedError, demand_type, enumerate_demands
from fdcache.harness import _decode_user_ok, _oracle_flags
from fdcache.scheme import (
    PayloadSource,
    anchor_user,
    closure_pair,
    decode_file,
    decode_rows,
    delivery,
    file_segments,
    lift,
    mix,
    mix_sum,
    parity_combination,
    partition,
    prefetch,
    reconstruct_skipped,
    reconstructed_pair,
    row_parity_closure,
    skip_combination,
    transform_exponents,
    transformed_sum_identity,
)

RUN = SchemeParams(3, 6, 1)
RUN_D = (1, 1, 1, 1, 2, 3)


def unit(file, users, excluded, channel, params=RUN):
    """Unit mask of one segment over the system's dense index."""
    return 1 << segment_index(params)[segment(file, users, excluded, channel)]


def unit_pair(file, users, excluded, params=RUN):
    return tuple(unit(file, users, excluded, channel, params) for channel in CHANNELS)


def decoded_pair(rows, unit_i):
    """The (I, Q) masks that the terms of the row for the segment with I mask
    unit_i sum to, with the row's transform undone."""
    for target, undo, terms in rows:
        if 1 << target == unit_i:
            return mix(-undo % 3, *mix_sum(terms))
    raise KeyError(unit_i)


@pytest.fixture(scope="module")
def run_delivery():
    return delivery(RUN, RUN_D)


@pytest.fixture(scope="module")
def run_caches():
    return {k: prefetch(RUN, k) for k in RUN.users}


# ---------------------------------------------------------------------------
# partition


def test_partition_running_example():
    assert len(file_segments(RUN, 1)) == 60
    assert len(partition(RUN)) == 180


@pytest.mark.parametrize("r,expected", [(0, 6), (2, 6)])
def test_partition_three_by_three(r, expected):
    params = SchemeParams(3, 3, r)
    assert len(file_segments(params, 2)) == expected


def test_partition_distinct_and_sorted():
    segs = partition(SchemeParams(3, 4, 2))
    assert len(segs) == len(set(segs))
    assert segs == sorted(segs)


# ---------------------------------------------------------------------------
# prefetch


def test_prefetch_counts_running_example(run_caches):
    cache = run_caches[1]
    assert (cache.m1, cache.m2, cache.m3) == (30, 10, 4)
    assert cache.memory() == Fraction(11, 15)
    assert cache.memory() == memory_point(RUN)


def test_prefetch_prunes_first_file_rows(run_caches):
    cache = run_caches[1]
    row_files = {key[0] for key in cache.row}
    assert row_files == {2, 3}
    assert all(key[1] == () for key in cache.row)


def test_prefetch_r0_boundary():
    params = SchemeParams(4, 5, 0)
    cache = prefetch(params, 3)
    assert (cache.m1, cache.m2, cache.m3) == (0, 2, 0)
    assert cache.memory() == Fraction(1, 5)


def test_prefetch_excludes_anchor_subsets():
    params = SchemeParams(3, 6, 2)
    cache = prefetch(params, 1)
    assert anchor_user(1) == 2 and anchor_user(4) == 1
    assert all(2 not in key[1] for key in cache.row)


def test_memory_identity_exhaustive_to_seven_users():
    for k_users in range(1, 8):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                assert prefetch(params, 1).memory() == memory_point(params)


def test_all_users_cache_same_size():
    params = SchemeParams(3, 5, 2)
    sizes = {prefetch(params, k).size for k in params.users}
    assert len(sizes) == 1


# ---------------------------------------------------------------------------
# row-parity closure


def test_closure_running_example_combination():
    cols, rows = parity_combination(RUN, 1, 1, ())
    assert cols == frozenset({(t,) for t in range(2, 7)})
    assert rows == frozenset({(2, ()), (3, ())})


def test_closure_stored_key_is_identity():
    cols, rows = parity_combination(RUN, 1, 2, ())
    assert cols == frozenset()
    assert rows == frozenset({(2, ())})


def test_closure_requires_row_parities():
    with pytest.raises(ValueError):
        parity_combination(SchemeParams(3, 3, 0), 1, 1, ())


@pytest.mark.parametrize("params", [RUN, SchemeParams(4, 6, 2)])
def test_closure_expansion_matches_definition(params):
    # row parity (f, r_minus) of user k XORs the segments tagged ({u} | r_minus, k)
    for k in params.users:
        cache = prefetch(params, k)
        others = [u for u in params.users if u != k]
        for f in params.files:
            for r_minus in itertools.combinations(others, params.r - 1):
                completions = [u for u in others if u not in r_minus]
                for channel in CHANNELS:
                    want = sum(unit(f, r_minus + (u,), k, channel, params) for u in completions)
                    assert row_parity_closure(cache, f, r_minus, channel) == want


# ---------------------------------------------------------------------------
# pairwise transform


def test_transform_matrices_running_example():
    exponents = transform_exponents(RUN, RUN_D)  # [t-1][s-1]: MIX**e of user t toward s
    assert exponents[2 - 1][1 - 1] == 1
    assert exponents[5 - 1][1 - 1] == 0  # file 2 is requested once
    assert exponents[1 - 1][1 - 1] == 2  # MIX**2 is the inverse of MIX
    assert exponents[2 - 1][5 - 1] == 1  # leader of file 1 is user 1


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**70), st.integers(0, 2**70))
def test_mix_group_law(e1, e2, i, q):
    # delivery, skip reconstruction and plan compilation add exponents mod 3
    assert mix(0, i, q) == (i, q)
    assert mix(e2, *mix(e1, i, q)) == mix((e1 + e2) % 3, i, q)


def test_mix_matrices_are_mutual_inverses():
    # MIX is exponent 1 and its inverse exponent 2
    pair = unit_pair(1, (2,), 1)
    assert mix(1, *pair) != pair and mix(2, *pair) != pair
    assert mix(1, *mix(2, *pair)) == pair
    assert mix(2, *mix(1, *pair)) == pair


def test_transform_pair_worked_case():
    w_i, w_q = unit_pair(1, (3,), 5)
    assert mix(transform_exponents(RUN, RUN_D)[2 - 1][5 - 1], w_i, w_q) == (w_i ^ w_q, w_i)


def test_transform_pair_odd_file_unchanged():
    pair = unit_pair(2, (3,), 1)
    assert mix(transform_exponents(RUN, RUN_D)[5 - 1][1 - 1], *pair) == pair


@given(st.data())
@settings(max_examples=60)
def test_transform_round_trip(data):
    k_users = data.draw(st.integers(2, 6))
    n_files = data.draw(st.integers(1, k_users))
    params = SchemeParams(n_files, k_users, 0)
    pool = enumerate_demands(params, "fully_demanded")
    d = pool[data.draw(st.integers(0, len(pool) - 1))]
    t = data.draw(st.integers(1, k_users))
    s = data.draw(st.integers(1, k_users))
    e = transform_exponents(params, d)[t - 1][s - 1]
    assert e in (0, 1, 2)
    excluded = min(u for u in params.users if u != s) if s == 1 else 1
    pair = unit_pair(1, (), excluded, params)
    assert mix(-e % 3, *mix(e, *pair)) == pair


# ---------------------------------------------------------------------------
# delivery


def test_delivery_running_example_skip(run_delivery):
    skipped_for_1 = {rp for s, rp in run_delivery.skipped if s == 1}
    assert skipped_for_1 == {(3, 4)}
    per_channel = [rp for rp in itertools.combinations(range(2, 7), 2)]
    assert len(per_channel) == 10  # 9 of 10 go out per channel


def test_delivery_last_table_row(run_delivery):
    mask_i, _mask_q = run_delivery.pairs[(1, (5, 6))]
    assert mask_i == unit(2, (6,), 1, "I") ^ unit(3, (5,), 1, "I")


def test_delivery_totals(run_delivery):
    assert run_delivery.transmitted_count == 100
    assert run_delivery.rate() == Fraction(5, 3)
    assert run_delivery.rate() == Fraction(2) - Fraction(1, 3)


def test_delivery_rejects_partial_demand():
    with pytest.raises(NotFullyDemandedError):
        delivery(RUN, (1, 1, 1, 1, 2, 2))


@pytest.mark.parametrize("r", range(4))
def test_delivery_rate_identity_three_four(r):
    params = SchemeParams(3, 4, r)
    t_by_type = {}
    for d in enumerate_demands(params, "fully_demanded"):
        dset = delivery(params, d)
        assert dset.rate() == type_operating_point(params, demand_type(params, d)).rate
        t_by_type.setdefault(demand_type(params, d).counts, set()).add(dset.transmitted_count)
    assert all(len(ts) == 1 for ts in t_by_type.values())


def test_no_skips_when_all_files_covered_narrowly():
    for r in range(3):
        params = SchemeParams(3, 3, r)
        for d in enumerate_demands(params, "fully_demanded"):
            assert not delivery(params, d).skipped


def test_delivery_matches_its_definition():
    # sampled demands of every system up to K = 7: symbol (s, r_plus) is the
    # mix_sum over t in r_plus of segment (d(t), r_plus - t, s) under
    # MIX**e[t][s], built from labelled segments, and it is skipped exactly
    # when r_plus avoids the leader set of s
    from fdcache.core import leaders
    from fdcache.harness import sample_fully_demanded

    symbols = skips = 0
    for k_users in range(2, 8):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                index = segment_index(params)
                for d in sample_fully_demanded(params, 3):
                    exponents = transform_exponents(params, d)
                    want = {}
                    for s in params.users:
                        others = [u for u in params.users if u != s]
                        for r_plus in itertools.combinations(others, r + 1):
                            want[(s, r_plus)] = mix_sum(
                                (
                                    *(1 << index[segment(d[t - 1], set(r_plus) - {t}, s, ch)] for ch in CHANNELS),
                                    exponents[t - 1][s - 1],
                                )
                                for t in r_plus
                            )
                    dset = delivery(params, d)
                    assert list(dset.pairs.items()) == list(want.items())
                    assert dset.skipped == {
                        (s, r_plus) for s, r_plus in want if not leaders(params, d, s).intersection(r_plus)
                    }
                    symbols += len(want)
                    skips += len(dset.skipped)
    assert symbols > 10000 and skips > 1000, (symbols, skips)


# ---------------------------------------------------------------------------
# skipped-symbol reconstruction


def test_reconstruction_running_example(run_delivery):
    pairs = run_delivery.pairs
    got = reconstructed_pair(run_delivery, 1, (3, 4))
    assert got == tuple(a ^ b for a, b in zip(pairs[(1, (2, 3))], pairs[(1, (2, 4))]))
    assert got == pairs[(1, (3, 4))]
    for channel, mask in zip(CHANNELS, got):
        assert reconstruct_skipped(run_delivery, 1, (3, 4), channel) == mask


def test_reconstruction_mixes_channels_when_weights_differ(run_delivery):
    # excluded user 5 demands the lone file 2; the quadruply-requested file 1
    # puts its leader inside the selections, so the exponents are not 0
    combo = dict(skip_combination(run_delivery, 5, (2, 3)))
    assert combo == {(1, 2): 2, (1, 3): 2}
    assert reconstructed_pair(run_delivery, 5, (2, 3)) == run_delivery.pairs[(5, (2, 3))]


def test_reconstruction_rejects_transmitted(run_delivery):
    with pytest.raises(ValueError):
        reconstructed_pair(run_delivery, 1, (2, 3))
    with pytest.raises(ValueError):
        reconstruct_skipped(run_delivery, 1, (2, 3), "I")


def test_reconstruction_full_sweep_four_six_r1():
    params = SchemeParams(4, 6, 1)
    for d in enumerate_demands(params, "fully_demanded"):
        dset = delivery(params, d)
        for s, r_plus in sorted(dset.skipped):
            for rest, e in skip_combination(dset, s, r_plus):
                assert dset.is_transmitted(s, rest) and e in (0, 1, 2)
            assert reconstructed_pair(dset, s, r_plus) == dset.pairs[(s, r_plus)]


# ---------------------------------------------------------------------------
# decoding


def test_decode_class1_worked_case(run_delivery, run_caches):
    target = unit_pair(1, (2,), 3)
    rows = decode_rows(run_delivery, run_caches[1], 1, lift(run_delivery))
    assert decoded_pair(rows, target[0]) == target
    # the elimination identity behind it, on transformed masks
    exponents = run_delivery.exponents
    y_i = run_delivery.pairs[(3, (1, 2))][0]
    cached_i = mix(exponents[2 - 1][3 - 1], *unit_pair(1, (1,), 3))[0]
    target_i = mix(exponents[1 - 1][3 - 1], *target)[0]
    assert y_i ^ cached_i == target_i


def test_decode_class1_r0_boundary():
    params = SchemeParams(2, 2, 0)
    d = (1, 2)
    dset = delivery(params, d)
    cache = prefetch(params, 2)
    target = unit_pair(2, (), 1, params)
    assert decoded_pair(decode_rows(dset, cache, 2, lift(dset)), target[0]) == target
    assert dset.pairs[(1, (2,))][0] == target[0]


def test_decode_class2_worked_equations(run_delivery, run_caches):
    cache = run_caches[1]
    z_col = cache.column[(2,)]
    z_row = closure_pair(cache, 1, ())
    y = {rp: run_delivery.pairs[(1, rp)] for rp in [(2, 3), (2, 4), (2, 5), (2, 6)]}
    rhs_i = reduce(operator.xor, [z_col[0], z_row[0], z_row[1]] + [pair[0] for pair in y.values()])
    rhs_q = reduce(operator.xor, [z_col[1], z_row[0]] + [pair[1] for pair in y.values()])
    target = unit_pair(1, (2,), 1)
    assert (rhs_i, rhs_q) == mix(run_delivery.exponents[1 - 1][1 - 1], *target)
    assert decoded_pair(decode_rows(run_delivery, cache, 1, lift(run_delivery)), target[0]) == target


def decodes_to_units(decoded, params=RUN):
    """Each decoded mask is the unit mask of its segment."""
    index = segment_index(params)
    return all(mask == 1 << index[seg] for seg, mask in decoded)


def test_decode_file_running_example(run_delivery, run_caches):
    decoded = decode_file(run_delivery, run_caches[1], 1)
    assert len(decoded) == 60
    assert [seg for seg, _mask in decoded] == file_segments(RUN, 1)
    assert decodes_to_units(decoded)


def test_decode_file_all_users_all_types():
    params = SchemeParams(3, 4, 1)
    for d in enumerate_demands(params, "fully_demanded"):
        dset = delivery(params, d)
        for k in params.users:
            cache = prefetch(params, k)
            assert decodes_to_units(decode_file(dset, cache, k), params)


def test_decode_smallest_instance():
    params = SchemeParams(2, 2, 0)
    dset = delivery(params, (1, 2))
    cache = prefetch(params, 2)
    assert decodes_to_units(decode_file(dset, cache, 2), params)
    assert dset.rate() == Fraction(1)


def test_decode_payload_bit_exact(run_delivery, run_caches):
    payload = Payload.random(partition(RUN), width=3, seed="payload-test")
    ints = payload.int_values()
    for k in RUN.users:
        source = PayloadSource(run_caches[k], run_delivery, payload)
        decoded = decode_file(run_delivery, run_caches[k], k, source)
        assert all(value == ints[seg] for seg, value in decoded)
        got_file = b"".join(v.to_bytes(3, "little") for _seg, v in decoded)
        want_file = b"".join(payload.data[seg] for seg in file_segments(RUN, RUN_D[k - 1]))
        assert got_file == want_file


# ---------------------------------------------------------------------------
# fault injection: a corrupted item fails both checks of a user reading it


def _payload_values(masks=False):
    """Seeded 8-byte segment values, each lifted above its unit mask when
    masks is set, as the both engine draws them."""
    return MaskValues.random(segment_index(RUN), 8, "fault", masks=masks)


def _lifted(dset, masks=False):
    """The demand's lift of _payload_values."""
    return lift(dset, _payload_values(masks))


def _reads(rows, mask):
    return any(mask in (i, q) for _t, _undo, terms in rows for i, q, _e in terms)


def test_plan_recovers_on_masks_and_payload(run_delivery, run_caches):
    values = _payload_values()
    both = _lifted(run_delivery, masks=True)
    index = segment_index(RUN)
    size = index.size
    for k in RUN.users:
        rows = list(decode_rows(run_delivery, run_caches[k], k, lift(run_delivery)))
        targets = [target for target, _undo, _terms in rows]
        assert targets == sorted(targets)
        # 60 segments of the file, 30 I/Q pairs: a row for each coded pair,
        # and the user's uncoded hits, which are no rows
        pairs = range((RUN_D[k - 1] - 1) * index.per_file, RUN_D[k - 1] * index.per_file, 2)
        hits = [target for target in pairs if target in run_caches[k].uncoded]
        assert (len(rows), len(hits)) == (25, 5)
        assert sorted(targets + hits) == list(pairs)
        lifted_rows = decode_rows(run_delivery, run_caches[k], k, both)
        for (target, undo, terms), (_target, _undo, lifted_terms) in zip(rows, lifted_rows):
            unit = mix(undo, 1 << target, 2 << target)
            assert mix_sum(terms) == unit
            # the lifted sum is the value sum above the mask sum
            value_pair = mix(undo, values[1 << target], values[2 << target])
            assert mix_sum(lifted_terms) == tuple(v << size | m for v, m in zip(value_pair, unit))
        assert _decode_user_ok(run_delivery, run_caches[k], k, lift(run_delivery))
        assert _decode_user_ok(run_delivery, run_caches[k], k, _lifted(run_delivery))
        assert _decode_user_ok(run_delivery, run_caches[k], k, both)


def test_corrupted_transmitted_symbol_fails_both_checks(run_delivery, run_caches):
    index = segment_index(RUN)
    key = (2, (1, 3))  # user 1 eliminates it for segment (1, {3}, 2)
    assert run_delivery.is_transmitted(*key)
    mask_i, mask_q = run_delivery.pairs[key]
    assert _reads(decode_rows(run_delivery, run_caches[1], 1, lift(run_delivery)), mask_i)
    position = index[segment(3, (4,), 5, "I")]
    values = _payload_values()
    assert values.segment_values[position] != 0
    flipped = dataclasses.replace(run_delivery, pairs={**run_delivery.pairs, key: (mask_i ^ (1 << position), mask_q)})
    assert not _decode_user_ok(flipped, run_caches[1], 1, lift(flipped))
    assert not _decode_user_ok(flipped, run_caches[1], 1, _lifted(flipped))


def test_corrupted_cached_parity_fails_both_checks(run_delivery, run_caches):
    cache = run_caches[1]
    mask_i, mask_q = cache.column[(2,)]  # read by user 1's class-2 row for subset {2}
    assert _reads(decode_rows(run_delivery, cache, 1, lift(run_delivery)), mask_i)
    stray = unit(2, (3,), 1, "I")
    corrupted = dataclasses.replace(cache, column={**cache.column, (2,): (mask_i ^ stray, mask_q)})
    values = _payload_values()
    assert values[stray] != 0
    assert not _decode_user_ok(run_delivery, corrupted, 1, lift(run_delivery))
    assert not _decode_user_ok(run_delivery, corrupted, 1, _lifted(run_delivery))


def test_corrupted_skipped_symbol_is_never_read(run_delivery, run_caches):
    # a skipped pair is never broadcast: decoding rebuilds it from the
    # transmitted pairs and the oracle spans only those, so corrupting it
    # changes no verdict on masks, on payload or on both
    key = (1, (3, 4))
    assert not run_delivery.is_transmitted(*key)
    mask_i, mask_q = run_delivery.pairs[key]
    stray = unit(3, (4,), 5, "I")
    flipped = dataclasses.replace(run_delivery, pairs={**run_delivery.pairs, key: (mask_i ^ stray, mask_q)})
    for lifted in (lift(flipped), _lifted(flipped), _lifted(flipped, masks=True)):
        assert all(_decode_user_ok(flipped, run_caches[k], k, lifted) for k in RUN.users)
    assert _oracle_flags(RUN, flipped) == [True] * 6


@pytest.mark.parametrize("masks", [False, True])
@pytest.mark.parametrize("width", [1, 3, 64])
def test_parities_lift_from_their_supports(run_caches, width, masks):
    values = MaskValues.random(segment_index(RUN), width, "supports", masks=masks)
    for cache in run_caches.values():
        for parities, supports in zip((cache.column, cache.row), cache.supports):
            assert supports.keys() == parities.keys()
            for key, pair in parities.items():
                assert tuple(map(values.xor_at, supports[key])) == tuple(values[mask] for mask in pair)
    assert values.xor_at(()) == 0


def test_lift_matches_the_broadcast_terms():
    # sampled demands of every system up to K = 6: the lift through drawn
    # values is the identity lift with each mask mapped through the values,
    # skipped symbols' reconstructions included
    from fdcache.harness import sample_fully_demanded

    skipped = 0
    for k_users in range(2, 7):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                for d in sample_fully_demanded(params, 3):
                    dset = delivery(params, d)
                    values = MaskValues.random(segment_index(params), 2, "lift", masks=True)
                    want = {key: tuple((values[i], values[q], e) for i, q, e in terms)
                            for key, terms in lift(dset).broadcast.items()}
                    assert lift(dset, values).broadcast == want
                    skipped += len(dset.skipped)
    assert skipped > 0


def test_plan_needs_every_uncoded_slot(run_delivery, run_caches):
    cache = run_caches[1]
    missing = dataclasses.replace(cache, uncoded=cache.uncoded - {segment_index(RUN)[segment(1, (1,), 2, "Q")]})
    with pytest.raises(LookupError):
        list(decode_rows(run_delivery, missing, 1, lift(run_delivery)))
    assert not _decode_user_ok(run_delivery, missing, 1, _lifted(run_delivery, masks=True))


def test_plan_needs_every_uncoded_hit(run_delivery, run_caches):
    # user 5 alone requests file 2, so no row reads its uncoded hit
    # (2, {5}, 1): only the membership test sees it missing
    cache = run_caches[5]
    missing = dataclasses.replace(cache, uncoded=cache.uncoded - {segment_index(RUN)[segment(2, (5,), 1, "Q")]})
    with pytest.raises(LookupError):
        next(decode_rows(run_delivery, missing, 5, lift(run_delivery)))
    assert not _decode_user_ok(run_delivery, missing, 5, lift(run_delivery))
    assert not _decode_user_ok(run_delivery, missing, 5, _lifted(run_delivery, masks=True))


# ---------------------------------------------------------------------------
# transformed-sum identity


def test_transformed_sum_odd_multiplicities():
    params = SchemeParams(3, 3, 1)
    d = (1, 2, 3)
    for s in params.users:
        for r_set in itertools.combinations([u for u in params.users if u != s], 1):
            for channel in CHANNELS:
                assert transformed_sum_identity(params, d, s, r_set, channel)


@pytest.mark.parametrize(
    "params,d",
    [(RUN, RUN_D), (SchemeParams(4, 6, 2), (1, 1, 2, 2, 3, 4))],
)
def test_transformed_sum_full_sweep(params, d):
    for s in params.users:
        others = [u for u in params.users if u != s]
        for r_set in itertools.combinations(others, params.r):
            for channel in CHANNELS:
                assert transformed_sum_identity(params, d, s, r_set, channel)


def test_skip_count_formula_per_excluded_user(run_delivery):
    from fdcache.core import binom

    for params, d in ((RUN, RUN_D), (SchemeParams(4, 6, 1), (1, 1, 2, 2, 3, 4))):
        dset = delivery(params, d)
        for s in params.users:
            expected = binom(params.n_users - 1 - len(dset.leaders[s]), params.r + 1)
            got = sum(1 for ss, _rp in dset.skipped if ss == s)
            assert got == expected


def _reference_selection_weights(params, d, s, block):
    """The definition: for each file, in ascending order, pick its requesters
    inside the block; each pick is weighted by the sum of its members'
    transform logs toward s mod 3.  Files are those requested outside s."""
    exponents = transform_exponents(params, d)
    files = sorted({d[u - 1] for u in params.users if u != s})
    choices = [[u for u in block if d[u - 1] == f] for f in files]
    return [
        (frozenset(pick), sum(exponents[t - 1][s - 1] for t in pick) % 3)
        for pick in itertools.product(*choices)
    ]


def _reference_rests(dset, s, extra):
    """The definition in selection_weights' form: each pick of the block
    leaders[s] | extra as (block - pick, its weight)."""
    block = tuple(sorted(dset.leaders[s].union(extra)))
    return [
        (tuple(u for u in block if u not in pick), weight)
        for pick, weight in _reference_selection_weights(dset.params, dset.demand, s, block)
    ]


@pytest.mark.parametrize("params", [SchemeParams(3, 6, 1), SchemeParams(4, 10, 1)], ids=str)
def test_selection_weights_match_their_definition(monkeypatch, params):
    # every selection list that skip_combination, its one caller, builds
    # inside delivery; the leader pick leaves extra itself and comes first
    from fdcache import harness, scheme

    original = scheme.selection_weights
    blocks = []

    def selection_weights(dset, s, extra):
        got = original(dset, s, extra)
        want = _reference_rests(dset, s, extra)
        assert sorted(got) == sorted(want)
        assert got[0] == next(entry for entry in want if entry[0] == extra)
        blocks.append((s, extra))
        return got

    monkeypatch.setattr(scheme, "selection_weights", selection_weights)
    assert harness.identity_suite(params, samples=10).success
    assert blocks


def test_skip_combination_matches_its_definition():
    # sampled demands of every system up to K = 7 that has broadcast symbols:
    # the other picks of leaders[s] | r_plus, weighted relative to the leader pick
    from fdcache.harness import sample_fully_demanded

    checked = shared = 0
    for k_users in range(2, 8):
        for n_files in range(1, k_users + 1):
            for r in range(k_users - 1):
                params = SchemeParams(n_files, k_users, r)
                for d in sample_fully_demanded(params, 10):
                    dset = delivery(params, d)
                    for s, r_plus in dset.skipped:
                        want = _reference_rests(dset, s, r_plus)
                        leader_weight = next(weight for rest, weight in want if rest == r_plus)
                        assert sorted(skip_combination(dset, s, r_plus)) == sorted(
                            (rest, (weight - leader_weight) % 3) for rest, weight in want if rest != r_plus
                        )
                        assert reconstructed_pair(dset, s, r_plus) == dset.pairs[(s, r_plus)]
                        checked += 1
                        shared += len({d[u - 1] for u in r_plus}) < len(r_plus)
    # two members on one file can swap only one of them for its leader
    assert checked > 3000 and shared > 1000, (checked, shared)


def test_cache_component_count_formulas():
    from fdcache.core import binom

    for k_users in range(2, 8):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                cache = prefetch(params, 2)
                assert cache.m1 == 2 * n_files * binom(k_users - 1, r - 1) * (k_users - r)
                assert cache.m2 == 2 * binom(k_users - 1, r)
                assert cache.m3 == 2 * (n_files - 1) * binom(k_users - 2, r - 1)
