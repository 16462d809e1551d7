import dataclasses
import itertools
import operator
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fdcache import scheme
from fdcache.algebra import CHANNELS, MaskValues, Payload, bit_positions, segment, segment_index
from fdcache.analysis import memory_point, type_operating_point
from fdcache.core import SchemeParams, NotFullyDemandedError, demand_type, enumerate_demands, leader_sets
from fdcache.harness import _decode_user_ok, _oracle_flags
from fdcache.scheme import (
    PayloadSource,
    anchor_user,
    closure_pair,
    decode_file,
    decode_rows,
    delivery,
    failing_symbols,
    lift,
    mix,
    mix_sum,
    parity_combination,
    prefetch,
    reconstruct_skipped,
    reconstructed_pair,
    row_parity_closure,
    row_parity_pair,
    skip_combination,
    symbol_identities,
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


def file_segments(params, file):
    """The slice of the segment index that is one file, in canonical order."""
    index = segment_index(params)
    return list(index.segments[(file - 1) * index.per_file : file * index.per_file])


def failing(dset, values=None):
    """failing_symbols of every excluded user's Lift through values, in user
    order, which is delivery order: the failing identities of the demand."""
    return [key for s in dset.params.users for key in failing_symbols(dset, lift(dset, s, values))]


def user_ok(dset, cache, values=None):
    """The cache owner's verdict on the lift through values: no identity of a
    symbol over a subset holding it fails, in any user's pass, and its
    class-2 rows hold on its own Lift."""
    k = cache.owner
    if any(k in r_plus for _, r_plus in failing(dset, values)):
        return False
    return _decode_user_ok(dset, cache, lift(dset, k, values))


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
    assert len(segment_index(RUN).segments) == 180


@pytest.mark.parametrize("r,expected", [(0, 6), (2, 6)])
def test_partition_three_by_three(r, expected):
    params = SchemeParams(3, 3, r)
    assert len(file_segments(params, 2)) == expected


def test_partition_distinct_and_sorted():
    segs = list(segment_index(SchemeParams(3, 4, 2)).segments)
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


def _reference_parity_combination(params, k, file, r_minus):
    # the other order: swap the anchor out first, then expand file 1 on every
    # swapped subset, cancelling the column keys reached twice by set XOR
    anchor = anchor_user(k)
    subsets = [r_minus]
    if anchor in r_minus:
        taken = {k, *r_minus}
        subsets = [tuple(sorted(h if u == anchor else u for u in r_minus)) for h in params.users if h not in taken]
    columns, rows = set(), set()
    for m in subsets:
        if file != 1:
            rows ^= {(file, m)}
        else:
            taken = {k, *m}
            columns ^= {tuple(sorted((*m, u))) for u in params.users if u not in taken}
            rows ^= {(other, m) for other in params.files if other != 1}
    return frozenset(columns), frozenset(rows)


def test_closure_keys_match_the_anchor_first_reference():
    checked = 0
    for k_users in range(2, 8):
        for n_files in range(1, min(4, k_users) + 1):
            for r in range(1, k_users):
                params = SchemeParams(n_files, k_users, r)
                for k in params.users:
                    others = [u for u in params.users if u != k]
                    for f in params.files:
                        for r_minus in itertools.combinations(others, r - 1):
                            want = _reference_parity_combination(params, k, f, r_minus)
                            assert parity_combination(params, k, f, r_minus) == want, (params, k, f, r_minus)
                            checked += 1
    assert checked == 7360


# (3,6,3), (2,7,4): the anchor rewrite leaves a non-empty subset; (1,6,5): r = K-1
@pytest.mark.parametrize("params", [RUN, SchemeParams(4, 6, 2), SchemeParams(3, 6, 3),
                                    SchemeParams(2, 7, 4), SchemeParams(1, 6, 5)])
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


def _transform_exponent(d, t, s):
    """The per-entry rule: MIX**e of user t toward s is the identity when d(t)
    has odd multiplicity; otherwise the special user gets MIX**2 and everyone
    else MIX, the special user being s itself when d(s) = d(t) and else the
    leader of d(t), its lowest requester other than s."""
    asking = [u for u, f in enumerate(d, start=1) if f == d[t - 1]]
    if len(asking) % 2:
        return 0
    special = s if d[s - 1] == d[t - 1] else min(u for u in asking if u != s)
    return 2 if t == special else 1


def test_transform_exponents_match_the_per_entry_rule():
    # every fully demanded demand of the sweep systems, and sampled demands
    # of (4,10) r=1, the system of the lemmas-4x10r1 benchmark workload
    from fdcache.harness import SWEEP_MATRIX, sample_fully_demanded

    sweeps = [SchemeParams(*system) for system in SWEEP_MATRIX]
    cases = [(params, d) for params in sweeps for d in enumerate_demands(params, "fully_demanded")]
    wide = SchemeParams(4, 10, 1)
    cases += [(wide, d) for d in sample_fully_demanded(wide, 200)]
    for params, d in cases:
        want = tuple(tuple(_transform_exponent(d, t, s) for s in params.users) for t in params.users)
        assert transform_exponents(params, d) == want, d
    assert len(cases) > 2000


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**70), st.integers(0, 2**70))
def test_mix_group_law(e1, e2, i, q):
    # delivery, skip reconstruction and plan compilation add exponents mod 3
    assert mix(0, i, q) == (i, q)
    assert mix(e2, *mix(e1, i, q)) == mix((e1 + e2) % 3, i, q)


@given(st.lists(st.tuples(st.integers(0, 2**70), st.integers(0, 2**70), st.integers(0, 2)), max_size=6))
def test_mix_sum_is_the_xor_of_mixed_terms(terms):
    # MIX**e as its matrix over GF(2): e = 1 maps (I, Q) to (I^Q, I), e = 2 to (Q, I^Q)
    want_i = want_q = 0
    for i, q, e in terms:
        want_i ^= (i, i ^ q, q)[e]
        want_q ^= (q, i, i ^ q)[e]
    assert mix_sum(terms) == mix_sum(iter(terms)) == (want_i, want_q)


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
    # sampled demands of every system up to K = 7, and of the benchmark's
    # (3,8) r=1 and (4,10) r=1, whose packed pairs split at 336 and 720 bits:
    # symbol (s, r_plus) is the mix_sum over t in r_plus of segment (d(t),
    # r_plus - t, s) under MIX**e[t][s], built from labelled segments; pairs
    # and skipped split the symbols in delivery order, skipped holding
    # exactly those whose r_plus avoids the leader set of s
    from fdcache.harness import sample_fully_demanded

    systems = [
        SchemeParams(n_files, k_users, r)
        for k_users in range(2, 8)
        for n_files in range(1, k_users + 1)
        for r in range(k_users)
    ]
    systems += [SchemeParams(3, 8, 1), SchemeParams(4, 10, 1)]
    symbols = skips = 0
    for params in systems:
        index = segment_index(params)
        for d in sample_fully_demanded(params, 3):
            exponents = transform_exponents(params, d)
            want = {}
            for s in params.users:
                others = [u for u in params.users if u != s]
                for r_plus in itertools.combinations(others, params.r + 1):
                    want[(s, r_plus)] = mix_sum(
                        (
                            *(1 << index[segment(d[t - 1], set(r_plus) - {t}, s, ch)] for ch in CHANNELS),
                            exponents[t - 1][s - 1],
                        )
                        for t in r_plus
                    )
            dset = delivery(params, d)
            skip = {(s, r_plus) for s, r_plus in want if not leader_sets(params, d)[s].intersection(r_plus)}
            assert list(dset.pairs.items()) == [item for item in want.items() if item[0] not in skip]
            assert list(dset.skipped.items()) == [item for item in want.items() if item[0] in skip]
            symbols += len(want)
            skips += len(dset.skipped)
    assert symbols > 10000 and skips > 1000, (symbols, skips)


def test_swap_tables_only_for_users_that_skip(run_delivery):
    # only skip_combination reads the swap tables: (4,6) r=2 never skips, so
    # its demands build none
    from fdcache.harness import sample_fully_demanded

    params = SchemeParams(4, 6, 2)
    for d in sample_fully_demanded(params, 10):
        dset = delivery(params, d)
        assert not dset.skipped and dset.swaps == {}
    assert run_delivery.swaps.keys() == {s for s, _ in run_delivery.skipped}


# ---------------------------------------------------------------------------
# skipped-symbol reconstruction


def test_reconstruction_running_example(run_delivery):
    pairs = run_delivery.pairs
    got = reconstructed_pair(run_delivery, 1, (3, 4))
    assert got == tuple(a ^ b for a, b in zip(pairs[(1, (2, 3))], pairs[(1, (2, 4))]))
    assert got == run_delivery.skipped[(1, (3, 4))]
    for channel, mask in zip(CHANNELS, got):
        assert reconstruct_skipped(run_delivery, 1, (3, 4), channel) == mask


def test_reconstruction_mixes_channels_when_weights_differ(run_delivery):
    # excluded user 5 demands the lone file 2; the quadruply-requested file 1
    # puts its leader inside the selections, so the exponents are not 0
    combo = dict(skip_combination(run_delivery, 5, (2, 3)))
    assert combo == {(1, 2): 2, (1, 3): 2}
    assert reconstructed_pair(run_delivery, 5, (2, 3)) == run_delivery.skipped[(5, (2, 3))]


def test_reconstruction_rejects_transmitted(run_delivery):
    with pytest.raises(ValueError):
        reconstructed_pair(run_delivery, 1, (2, 3))
    with pytest.raises(ValueError):
        reconstruct_skipped(run_delivery, 1, (2, 3), "I")


@pytest.mark.parametrize("s,r_plus", [(1, (1, 2)), (7, (2, 3)), (1, (2, 3, 4))],
                         ids=["s-inside-subset", "s-outside-users", "subset-of-wrong-size"])
def test_reconstruction_rejects_a_key_that_is_no_symbol(run_delivery, s, r_plus):
    # a ValueError that names the key, not a bare KeyError from a table, and
    # not the error of a transmitted symbol
    for rebuild in (skip_combination, reconstructed_pair):
        with pytest.raises(ValueError, match=re.escape(f"(s={s}, subset={r_plus}) is no broadcast symbol")):
            rebuild(run_delivery, s, r_plus)
        with pytest.raises(ValueError, match="was transmitted"):
            rebuild(run_delivery, 1, (2, 3))


def test_reconstruction_full_sweep_four_six_r1():
    params = SchemeParams(4, 6, 1)
    for d in enumerate_demands(params, "fully_demanded"):
        dset = delivery(params, d)
        for s, r_plus in sorted(dset.skipped):
            for rest, e in skip_combination(dset, s, r_plus):
                assert (s, rest) in dset.pairs and e in (0, 1, 2)
            assert reconstructed_pair(dset, s, r_plus) == dset.skipped[(s, r_plus)]


# ---------------------------------------------------------------------------
# decoding


def test_decode_class1_worked_case(run_delivery, run_caches):
    # user 1's class-1 row for (1, {2}, 3) is the identity of symbol
    # (3, {1, 2}): its broadcast pair, then the transformed member segments
    target = unit_pair(1, (2,), 3)
    exponents = run_delivery.exponents
    terms = dict(symbol_identities(run_delivery, lift(run_delivery, 3)))[(3, (1, 2))]
    assert terms == [(*run_delivery.pairs[(3, (1, 2))], 0),
                     (*target, exponents[1 - 1][3 - 1]), (*unit_pair(1, (1,), 3), exponents[2 - 1][3 - 1])]
    assert mix_sum(terms) == (0, 0)
    decoded = dict(decode_file(run_delivery, run_caches[1], 1))
    assert tuple(decoded[segment(1, (2,), 3, channel)] for channel in CHANNELS) == target
    # the elimination identity behind it, on transformed masks
    y_i = run_delivery.pairs[(3, (1, 2))][0]
    cached_i = mix(exponents[2 - 1][3 - 1], *unit_pair(1, (1,), 3))[0]
    target_i = mix(exponents[1 - 1][3 - 1], *target)[0]
    assert y_i ^ cached_i == target_i


def test_decode_class1_r0_boundary():
    # with r = 0 a symbol carries one segment, so its identity has no member
    # but the target's
    params = SchemeParams(2, 2, 0)
    d = (1, 2)
    dset = delivery(params, d)
    cache = prefetch(params, 2)
    target = unit_pair(2, (), 1, params)
    terms = dict(symbol_identities(dset, lift(dset, 1)))[(1, (2,))]
    assert terms == [(*dset.pairs[(1, (2,))], 0), (*target, dset.exponents[2 - 1][1 - 1])]
    assert mix_sum(terms) == (0, 0)
    decoded = dict(decode_file(dset, cache, 2))
    assert tuple(decoded[segment(2, (), 1, channel)] for channel in CHANNELS) == target
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
    assert decoded_pair(decode_rows(run_delivery, cache, lift(run_delivery, 1)), target[0]) == target


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
    payload = Payload.random(segment_index(RUN).segments, width=3, seed="payload-test")
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


def _reads(rows, mask):
    return any(mask in (i, q) for _t, _undo, terms in rows for i, q, _e in terms)


def test_plan_recovers_on_masks_and_payload(run_delivery, run_caches):
    values = _payload_values()
    both = _payload_values(masks=True)
    index = segment_index(RUN)
    size = index.size
    engines = (None, values, both)
    for lifted in engines:  # 60 symbols, one identity each, shared by their members
        identities = {key: terms for s in RUN.users
                      for key, terms in symbol_identities(run_delivery, lift(run_delivery, s, lifted))}
        assert len(identities) == 60 and all(mix_sum(terms) == (0, 0) for terms in identities.values())
    for k in RUN.users:
        rows = list(decode_rows(run_delivery, run_caches[k], lift(run_delivery, k)))
        targets = [target for target, _undo, _terms in rows]
        assert targets == sorted(targets)
        # 60 segments of the file, 30 I/Q pairs: a class-2 row for each pair
        # whose excluded user is k, a symbol identity for each other coded
        # pair, and the user's uncoded hits, which are neither
        pairs = range((RUN_D[k - 1] - 1) * index.per_file, RUN_D[k - 1] * index.per_file, 2)
        hits = [target for target in pairs if run_caches[k].uncoded >> target & 3 == 3]
        class1 = [index.slot(RUN_D[k - 1], tuple(u for u in r_plus if u != k), s)
                  for s, r_plus in [*run_delivery.pairs, *run_delivery.skipped] if k in r_plus]
        assert (len(rows), len(class1), len(hits)) == (5, 20, 5)
        assert sorted(targets + class1 + hits) == list(pairs)
        lifted_rows = decode_rows(run_delivery, run_caches[k], lift(run_delivery, k, both))
        for (target, undo, terms), (_target, _undo, lifted_terms) in zip(rows, lifted_rows):
            unit = mix(undo, 1 << target, 2 << target)
            assert mix_sum(terms) == unit
            # the lifted sum is the value sum above the mask sum
            value_pair = mix(undo, values[1 << target], values[2 << target])
            assert mix_sum(lifted_terms) == tuple(v << size | m for v, m in zip(value_pair, unit))
        for lifted in engines:
            assert user_ok(run_delivery, run_caches[k], lifted)


def test_corrupted_transmitted_symbol_fails_both_checks(run_delivery, run_caches):
    index = segment_index(RUN)
    key = (2, (1, 3))  # user 1 eliminates it for segment (1, {3}, 2)
    assert key in run_delivery.pairs
    mask_i, mask_q = run_delivery.pairs[key]
    position = index[segment(3, (4,), 5, "I")]
    values = _payload_values()
    assert values.segment_values[position] != 0
    flipped = dataclasses.replace(run_delivery, pairs={**run_delivery.pairs, key: (mask_i ^ (1 << position), mask_q)})
    for lifted in (None, values):
        # the skipped (2, {3, 4}) is rebuilt from it, so its identity fails too
        failed = failing(flipped, lifted)
        assert failed == [key, (2, (3, 4))]
        assert [bad for bad in failed if 1 in bad[1]] == [key]
        assert not user_ok(flipped, run_caches[1], lifted)


def test_corrupted_cached_parity_fails_both_checks(run_delivery, run_caches):
    cache = run_caches[1]
    mask_i, mask_q = cache.column[(2,)]  # read by user 1's class-2 row for subset {2}
    assert _reads(decode_rows(run_delivery, cache, lift(run_delivery, 1)), mask_i)
    stray = unit(2, (3,), 1, "I")
    corrupted = dataclasses.replace(cache, column={**cache.column, (2,): (mask_i ^ stray, mask_q)})
    values = _payload_values()
    assert values[stray] != 0
    assert not user_ok(run_delivery, corrupted)
    assert not user_ok(run_delivery, corrupted, values)


def test_corrupted_skipped_symbol_is_never_read(run_delivery, run_caches):
    # a skipped pair is never broadcast: decoding rebuilds it from the
    # transmitted pairs and the oracle spans only those, so corrupting it
    # changes no verdict on masks, on payload or on both
    key = (1, (3, 4))
    mask_i, mask_q = run_delivery.skipped[key]
    stray = unit(3, (4,), 5, "I")
    flipped = dataclasses.replace(run_delivery, skipped={**run_delivery.skipped, key: (mask_i ^ stray, mask_q)})
    for lifted in (None, _payload_values(), _payload_values(masks=True)):
        assert failing(flipped, lifted) == []
        assert all(user_ok(flipped, run_caches[k], lifted) for k in RUN.users)
    assert _oracle_flags(flipped) == [True] * 6


def _positions(pair):
    return tuple(tuple(bit_positions(mask)) for mask in pair)


@pytest.mark.parametrize("masks", [False, True])
@pytest.mark.parametrize("width", [1, 3, 64])
def test_parities_lift_from_their_supports(run_caches, width, masks):
    # every key of the table is a closure_pair, kept as its bit positions;
    # over three demands that together read every file's closures, each
    # class-2 row lifted through drawn values is its identity-lift row with
    # every mask mapped through the values
    values = MaskValues.random(segment_index(RUN), width, "supports", masks=masks)
    demands = [RUN_D, (2, 2, 2, 2, 3, 1), (3, 3, 3, 3, 1, 2)]
    for cache in run_caches.values():
        columns, closures = cache.supports
        assert columns == {key: _positions(pair) for key, pair in cache.column.items()}
        keys = [(f, ()) for f in RUN.files]
        assert closures == {key: _positions(closure_pair(cache, *key)) for key in keys}
        assert cache.closures == {key: closure_pair(cache, *key) for key in keys}
        for d in demands:
            dset = delivery(RUN, d)
            rows = decode_rows(dset, cache, lift(dset, cache.owner))
            lifted_rows = decode_rows(dset, cache, lift(dset, cache.owner, values))
            for (_, _, terms), (_, _, lifted) in zip(rows, lifted_rows, strict=True):
                assert lifted == [(values[i], values[q], e) for i, q, e in terms]


def test_a_corrupted_row_parity_reaches_only_its_copys_closures(run_delivery, run_caches):
    # R(2, {}) of user 1 is its own closure and part of file 1's (see
    # test_closure_running_example_combination); user 1 reads both under RUN_D
    cache = run_caches[1]
    pristine = {key: row_parity_pair(RUN, 1, *key) for key in cache.closures}
    mask_i, mask_q = cache.row[(2, ())]
    stray = unit(3, (4,), 1, "I")
    assert _payload_values()[stray] != 0
    corrupted = dataclasses.replace(cache, row={**cache.row, (2, ()): (mask_i ^ stray, mask_q)})
    changed = {key for key, pair in corrupted.closures.items() if pair != pristine[key]}
    assert changed == {(1, ()), (2, ())}
    assert corrupted.supports[1] != cache.supports[1] and corrupted.supports[0] == cache.supports[0]
    assert cache.closures == pristine
    for lifted in (None, _payload_values(), _payload_values(masks=True)):
        assert not user_ok(run_delivery, corrupted, lifted)
        assert user_ok(run_delivery, cache, lifted)


@pytest.mark.parametrize("params,d,count", [(RUN, RUN_D, 200), (SchemeParams(4, 6, 2), (1, 2, 3, 4, 1, 2), 360)])
def test_class2_term_counts_pinned(params, d, count):
    # each class-2 row is its column parity, one closure per member of r_set
    # and its broadcast terms, over all users: 320 and 702 terms when each
    # closure was expanded into stored parities
    dset = delivery(params, d)
    rows = [row for k in params.users for row in decode_rows(dset, prefetch(params, k), lift(dset, k))]
    assert sum(len(terms) for _, _, terms in rows) == count


def test_closures_are_lifted_only_when_read(monkeypatch):
    # (4,6) r=2, demand (1,2,3,4,1,2): each user's table holds 20 closures,
    # 4 files x 5 r_minus, and its rows read 14 or 17 of them, 96 in all;
    # every column is read by its one row.  All 120 closures were lifted per
    # demand when the whole table was lifted up front
    params, d = SchemeParams(4, 6, 2), (1, 2, 3, 4, 1, 2)
    dset = delivery(params, d)
    caches = [prefetch(params, k) for k in params.users]
    lifts = []
    real = scheme._lift_pair

    def counted(positions, encoded):
        lifts.append(positions)
        return real(positions, encoded)

    monkeypatch.setattr(scheme, "_lift_pair", counted)
    for cache in caches:
        list(decode_rows(dset, cache, lift(dset, cache.owner)))
    columns, closures = (sum(len(cache.supports[i]) for cache in caches) for i in (0, 1))
    assert (columns, closures) == (60, 120)
    assert len(lifts) == columns + 96


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
                    for s in params.users:
                        want = {key: tuple((values[i], values[q], e) for i, q, e in terms)
                                for key, terms in lift(dset, s).broadcast.items()}
                        assert lift(dset, s, values).broadcast == want
                    skipped += len(dset.skipped)
    assert skipped > 0


def test_each_users_checks_read_only_segments_that_exclude_it():
    # a verifier lifts, checks and drops one excluded user s at a time: every
    # item s's pass reads lies on segments that exclude s (its transmitted
    # and skipped symbols, its column parities, row parities and closures,
    # its class-2 targets and the member segments of its identities), and
    # every reconstruction of a skipped symbol of s names transmitted symbols
    # of s, so the Lift of s is closed.  Every system of the sweeps, and
    # (3,8) r=1 and (4,10) r=1, the skipping benchmark systems, 20 sampled
    # demands each
    from fdcache.harness import SWEEP_MATRIX, sample_fully_demanded

    checked = 0
    for system in SWEEP_MATRIX + ((3, 8, 1), (4, 10, 1)):
        params = SchemeParams(*system)
        index = segment_index(params)
        caches = [prefetch(params, s) for s in params.users]
        for d in sample_fully_demanded(params, 20):
            dset = delivery(params, d)
            for s, cache in zip(params.users, caches):
                outside = ~index.in_every_file(index.excluded[s - 1])
                masks = [mask for symbols in (dset.pairs, dset.skipped)
                         for (t, _), pair in symbols.items() if t == s for mask in pair]
                masks += [mask for table in (cache.column, cache.row, cache.closures)
                          for pair in table.values() for mask in pair]
                lifted = lift(dset, s)
                masks += [3 << target for target, _undo, _terms in decode_rows(dset, cache, lifted)]
                for (_, r_plus), terms in symbol_identities(dset, lifted):
                    masks += [mask for i, q, _e in terms[len(terms) - len(r_plus):] for mask in (i, q)]
                assert [mask for mask in masks if mask & outside] == [], (system, d, s)
                for t, r_plus in dset.skipped:
                    if t == s:
                        assert all((s, rest) in dset.pairs for rest, _e in skip_combination(dset, t, r_plus))
                checked += len(masks)
    assert checked > 100_000, checked


def test_rows_refuse_another_users_lift(run_delivery, run_caches):
    # a Lift holds its own user's symbols only, so user 1's rows cannot read
    # user 2's: the mismatch names both users, never a KeyError in the rows
    with pytest.raises(ValueError, match=r"user 1 .*user 2$"):
        next(decode_rows(run_delivery, run_caches[1], lift(run_delivery, 2)))
    for s in (0, RUN.n_users + 1):
        with pytest.raises(ValueError, match=f"user {s} outside"):
            lift(run_delivery, s)


def test_plan_needs_every_uncoded_slot(run_delivery, run_caches):
    # W^Q[1; {1}; 2] is one of user 1's uncoded hits; W^Q[1; {5}; 2] is no
    # hit of user 5, who requests file 2: only its class-1 rows read it, as
    # the member term of a file-1 user u in symbol (2, {u, 5})
    index = segment_index(RUN)
    for k, seg in ((1, segment(1, (1,), 2, "Q")), (5, segment(1, (5,), 2, "Q"))):
        cache = run_caches[k]
        missing = dataclasses.replace(cache, uncoded=cache.uncoded & ~(1 << index[seg]))
        with pytest.raises(LookupError, match=re.escape(seg.label())):
            list(decode_rows(run_delivery, missing, lift(run_delivery, k)))
        with pytest.raises(LookupError):
            decode_file(run_delivery, missing, k)
        assert not user_ok(run_delivery, missing, _payload_values(masks=True))


def test_plan_needs_every_uncoded_hit(run_delivery, run_caches):
    # user 5 alone requests file 2, so no row reads its uncoded hit
    # (2, {5}, 1): only the holding check sees it missing
    cache = run_caches[5]
    missing = dataclasses.replace(cache, uncoded=cache.uncoded & ~(1 << segment_index(RUN)[segment(2, (5,), 1, "Q")]))
    with pytest.raises(LookupError):
        next(decode_rows(run_delivery, missing, lift(run_delivery, 5)))
    assert not user_ok(run_delivery, missing)
    assert not user_ok(run_delivery, missing, _payload_values(masks=True))


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
            expected = binom(params.n_users - 1 - dset.leader_bits[s - 1].bit_count(), params.r + 1)
            got = sum(1 for ss, _rp in dset.skipped if ss == s)
            assert got == expected


def _reference_picks(params, d, s, block):
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
    """The definition over subsets: each pick of the block leaders | extra,
    the leaders those of s, as (block - pick, its weight)."""
    block = tuple(sorted(leader_sets(dset.params, dset.demand)[s].union(extra)))
    return [
        (tuple(u for u in block if u not in pick), weight)
        for pick, weight in _reference_picks(dset.params, dset.demand, s, block)
    ]


def _assert_matches_definition(combination, dset, s, r_plus):
    """combination holds the other picks of leaders | r_plus, each as
    (block - pick, its weight relative to the leader pick's)."""
    want = _reference_rests(dset, s, r_plus)
    leader_weight = next(weight for rest, weight in want if rest == r_plus)
    assert sorted(combination) == sorted(
        (rest, (weight - leader_weight) % 3) for rest, weight in want if rest != r_plus
    )


@pytest.mark.parametrize("params", [SchemeParams(3, 6, 1), SchemeParams(4, 10, 1)], ids=str)
def test_selection_weights_match_their_definition(monkeypatch, params):
    # every selection list (skip_combination's weighted picks) that delivery
    # builds while the identity suite runs
    from fdcache import harness, scheme

    original = scheme.skip_combination
    blocks = []

    def skip_combination(dset, s, r_plus):
        got = original(dset, s, r_plus)
        _assert_matches_definition(got, dset, s, r_plus)
        blocks.append((s, r_plus))
        return got

    monkeypatch.setattr(scheme, "skip_combination", skip_combination)
    assert harness.identity_suite(params, samples=10).success
    assert blocks


def test_skip_combination_matches_its_definition():
    # sampled demands of every system up to K = 7 that has broadcast symbols,
    # and of (3,8) r=1, the system of the verify-3x8r1 benchmark workload
    from fdcache.harness import sample_fully_demanded

    systems = [SchemeParams(n_files, k_users, r) for k_users in range(2, 8)
               for n_files in range(1, k_users + 1) for r in range(k_users - 1)]
    checked = shared = 0
    for params in systems + [SchemeParams(3, 8, 1)]:
        for d in sample_fully_demanded(params, 10):
            dset = delivery(params, d)
            for s, r_plus in dset.skipped:
                _assert_matches_definition(skip_combination(dset, s, r_plus), dset, s, r_plus)
                assert reconstructed_pair(dset, s, r_plus) == dset.skipped[(s, r_plus)]
                checked += 1
                shared += len({d[u - 1] for u in r_plus}) < len(r_plus)
    # two members on one file can swap only one of them for its leader
    assert checked > 3000 and shared > 1000, (checked, shared)


def _leader_growth(dset, s, r_plus):
    """skip_combination's entries in the order the leader-based growth gives:
    from no user, each member x of r_plus in turn joins every entry so far,
    and then, on the entries that have not swapped its file, its file's
    leader l among the users other than s joins instead, adding
    e(x, s) - e(l, s) mod 3; the first entry, r_plus itself, is dropped."""
    params, demand = dset.params, dset.demand
    exponents = transform_exponents(params, demand)
    leader_of = {demand[lead - 1]: lead for lead in leader_sets(params, demand)[s]}
    grown = [((), 0, frozenset())]  # (users so far, exponent, files swapped)
    for x in r_plus:
        f = demand[x - 1]
        lead = leader_of[f]
        change = (exponents[x - 1][s - 1] - exponents[lead - 1][s - 1]) % 3
        grown = [(rest + (x,), e, used) for rest, e, used in grown] + [
            (rest + (lead,), (e + change) % 3, used | {f}) for rest, e, used in grown if f not in used]
    return [(tuple(sorted(rest)), e) for rest, e, _ in grown[1:]]


def test_skip_combination_keeps_the_leader_growth_order():
    # lift orders each rebuilt symbol's terms as these entries, and
    # test_payload_value_xors_pinned counts the XORs of that order: sampled
    # demands of every system up to K = 7 that has broadcast symbols, and of
    # (3,8) r=1 and (4,10) r=1, the systems of the skipping benchmark workloads
    from fdcache.harness import sample_fully_demanded

    systems = [SchemeParams(n_files, k_users, r) for k_users in range(2, 8)
               for n_files in range(1, k_users + 1) for r in range(k_users - 1)]
    checked = 0
    for params in systems + [SchemeParams(3, 8, 1), SchemeParams(4, 10, 1)]:
        for d in sample_fully_demanded(params, 10):
            dset = delivery(params, d)
            for s, r_plus in dset.skipped:
                assert list(skip_combination(dset, s, r_plus)) == _leader_growth(dset, s, r_plus), (d, s, r_plus)
                checked += 1
    assert checked > 3000, checked


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


def _reference_cache_masks(params, k):
    """User k's cache masks built segment by segment through segment() and
    the index: (uncoded mask, {r_set: column I mask}, {(file, r_minus): row
    I mask}), the rows over every file and every (r-1)-subset avoiding k,
    stored or not."""
    index = segment_index(params)
    uncoded, column, row = 0, {}, {}
    for r_set in itertools.combinations(params.users, params.r):
        for s in params.users:
            if s in r_set:
                continue
            if k in r_set:
                for f in params.files:
                    for channel in CHANNELS:
                        uncoded |= 1 << index[segment(f, r_set, s, channel)]
            elif s == k:
                column[r_set] = sum(1 << index[segment(f, r_set, k, "I")] for f in params.files)
    if params.r:
        others = [u for u in params.users if u != k]
        for f in params.files:
            for r_minus in itertools.combinations(others, params.r - 1):
                completions = [u for u in others if u not in r_minus]
                row[(f, r_minus)] = sum(1 << index[segment(f, (*r_minus, u), k, "I")] for u in completions)
    return uncoded, column, row


def test_cache_masks_match_the_per_segment_reference():
    # every system with K <= 6 and every user: the masks prefetch and
    # row_parity_pair build from the index's pair masks, against masks
    # built one segment at a time
    rows = 0
    for k_users in range(1, 7):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                for k in params.users:
                    uncoded, column, row = _reference_cache_masks(params, k)
                    cache = prefetch(params, k)
                    assert cache.uncoded == uncoded
                    assert list(cache.column.items()) == [(r_set, (i, i << 1)) for r_set, i in column.items()]
                    pairs = {key: (i, i << 1) for key, i in row.items()}
                    assert {key: row_parity_pair(params, k, *key) for key in pairs} == pairs
                    assert cache.row.keys() <= pairs.keys()
                    assert cache.row == {key: pairs[key] for key in cache.row}
                    rows += len(pairs)
    assert rows > 1000, rows
