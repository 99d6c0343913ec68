from __future__ import annotations

import random

import pytest
from hypothesis import given

from finwadge import (
    CapExceeded,
    build_poset,
    DiffLevel,
    NotIncreasing,
    NotOpen,
    antichain,
    chain,
    classify,
    d_n,
    fan,
    find_difference_representation,
    lex_product,
    level_leq,
    longest_alternating_chain,
    oracle_level,
)
from finwadge.enumeration import all_posets, random_mask, random_monotone_map, random_poset
from finwadge.hierarchy import is_alternating, subset_levels
from finwadge.wadge import all_subsets

from conftest import brute_longest_alternating, poset_with_mask, reference_longest_alternating_chain


def test_d1_is_the_open_set():
    L3 = chain(3)
    O = L3.mask(["1", "2"])
    assert d_n(L3, [O], 1) == O


def test_d4_formula():
    # blocks (A_1 - A_0) and (A_3 - A_2)
    C = chain(6)
    seq = [C.mask_from_bits(b) for b in ("000001", "000111", "001111", "011111")]
    got = d_n(C, seq, 4)
    expected = seq[1].difference(seq[0]).union(seq[3].difference(seq[2]))
    assert got == expected


def test_d2_on_chain():
    L3 = chain(3)
    got = d_n(L3, [L3.mask(["2"]), L3.mask(["1", "2"])], 2)
    assert L3.members(got) == ("1",)


def test_d_n_validation():
    L3 = chain(3)
    with pytest.raises(NotOpen):
        d_n(L3, [L3.mask(["0"])], 1)
    with pytest.raises(NotIncreasing):
        d_n(L3, [L3.mask(["1", "2"]), L3.mask(["2"])], 2)
    with pytest.raises(ValueError):
        d_n(L3, [L3.mask(["2"])], 2)


def test_longest_chain_examples(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    ch = longest_alternating_chain(L2, L2.mask(["1"]), starts_in=False)
    assert [L2.labels[i] for i in ch.points] == ["0", "1"]

    assert len(longest_alternating_chain(L2, L2.empty_mask(), starts_in=True)) == 0

    P = small_poset_zoo["twochains"]
    A = P.mask(["x0", "y1"])
    cin = longest_alternating_chain(P, A, True)
    assert [P.labels[i] for i in cin.points] == ["x0", "x1"]
    cout = longest_alternating_chain(P, A, False)
    assert [P.labels[i] for i in cout.points] == ["y0", "y1"]


@given(poset_with_mask(max_size=5))
def test_longest_chain_matches_bruteforce(pm):
    P, A = pm
    for starts_in in (True, False):
        ch = longest_alternating_chain(P, A, starts_in)
        assert is_alternating(P, A, ch)
        assert len(ch) == brute_longest_alternating(P, A, starts_in)


def _assert_matches_parent_code(P, A):
    chains = [longest_alternating_chain(P, A, starts_in) for starts_in in (True, False)]
    for ch in chains:
        assert ch == reference_longest_alternating_chain(P, A, ch.starts_in)
    assert classify(P, A) == DiffLevel(len(chains[0]), len(chains[1]))


def test_chain_matches_parent_code_exhaustively():
    for n in range(1, 6):
        for P in all_posets(n):
            for A in all_subsets(P):
                _assert_matches_parent_code(P, A)


def test_chain_matches_parent_code_random():
    rng = random.Random(27031)
    for _ in range(60):
        P = random_poset(rng, rng.randint(8, 40))
        for _ in range(4):
            _assert_matches_parent_code(P, random_mask(rng, P))


def test_chain_matches_parent_code_on_large_spaces():
    rng = random.Random(160)
    for P in (chain(160), fan(18).space, lex_product(antichain(3), chain(60))):
        for _ in range(6):
            _assert_matches_parent_code(P, random_mask(rng, P))


def test_chain_levels_at_scale_use_cover_edges_only():
    # on a chain the ranks are the number of maximal membership runs,
    # counted from the first run on the requested side
    n = 1100
    X = chain(n)
    rng = random.Random(1100)
    masks = [0, (1 << n) - 1, 1, 1 << n - 1, sum(1 << i for i in range(0, n, 2))]
    masks += [rng.getrandbits(n) for _ in range(4)]
    for value in masks:
        A = X.mask_from_int(value)
        runs = 1 + sum(A.has(i) != A.has(i + 1) for i in range(n - 1))
        first_inside = A.has(0)
        assert classify(X, A) == DiffLevel(runs - (not first_inside), runs - first_inside)
        chain_in = longest_alternating_chain(X, A, True)
        chain_out = longest_alternating_chain(X, A, False)
        assert (len(chain_in), len(chain_out)) == (runs - (not first_inside), runs - first_inside)
        assert is_alternating(X, A, chain_in) and is_alternating(X, A, chain_out)
    assert "_strict_below" not in X.__dict__


def test_classify_examples(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    assert classify(L2, L2.mask(["1"])).label == "ProperSigma(1)"
    assert classify(L2, L2.empty_mask()).label == "ProperSigma(0)"
    assert classify(L2, L2.full_mask()).label == "ProperPi(0)"
    P = small_poset_zoo["twochains"]
    assert classify(P, P.mask(["x0", "y1"])).label == "ProperDelta(2)"


def test_sigma_rank_one_iff_open():
    for P in all_posets(4):
        for A in all_subsets(P):
            assert (classify(P, A).sigma_rank <= 1) == P.is_open(A)


def test_rank_gap_invariant():
    for P in all_posets(4):
        for A in all_subsets(P):
            lv = classify(P, A)
            assert abs(lv.sigma_rank - lv.pi_rank) <= 1


def test_classify_duality():
    for P in all_posets(4):
        for A in all_subsets(P):
            lv = classify(P, A)
            dual = classify(P, A.complement())
            assert (lv.sigma_rank, lv.pi_rank) == (dual.pi_rank, dual.sigma_rank)


def test_oracle_matches_classify_exhaustively():
    for n in range(1, 5):
        for P in all_posets(n):
            for A in all_subsets(P):
                assert oracle_level(P, A) == classify(P, A)


def test_oracle_matches_classify_random():
    rng = random.Random(96001)
    for _ in range(200):
        P = random_poset(rng, rng.randint(5, 8))
        A = random_mask(rng, P)
        assert oracle_level(P, A) == classify(P, A)


def test_oracle_cap():
    P = chain(9)
    with pytest.raises(CapExceeded):
        oracle_level(P, P.empty_mask())
    assert oracle_level(P, P.empty_mask(), cap=None).label == "ProperSigma(0)"


def test_fan_sets_against_oracle():
    # labels are frozen from the oracle: A is open at N=1, then proper
    # Sigma(3) for N in {2, 3}; B always sits one level higher on the
    # Sigma side than the longest finger's parity suggests
    expected_a = {1: "ProperSigma(1)", 2: "ProperSigma(3)", 3: "ProperSigma(3)"}
    for N in (1, 2, 3):
        built = fan(N)
        lv = classify(built.space, built.sets["A"])
        assert lv == oracle_level(built.space, built.sets["A"], cap=None)
        assert lv.label == expected_a[N]


def test_representation_realizes_rank():
    # a witness sequence of length sigma_rank exists and d_n rebuilds A
    for n in range(1, 5):
        for P in all_posets(n):
            for A in all_subsets(P):
                k = classify(P, A).sigma_rank
                seq = find_difference_representation(P, A, k)
                assert seq is not None
                assert d_n(P, list(seq), k) == A
                if k > 0:
                    assert find_difference_representation(P, A, k - 1) is None


def test_monotone_preimage_closure():
    rng = random.Random(441100)
    for _ in range(150):
        P = random_poset(rng, rng.randint(2, 6))
        B = random_mask(rng, P)
        f = random_monotone_map(rng, P)
        pre = f.preimage(B)
        assert level_leq(classify(P, pre), classify(P, B))


def test_level_order_properties():
    a = DiffLevel(1, 2)
    b = DiffLevel(2, 3)
    assert level_leq(a, b) and not level_leq(b, a)
    assert DiffLevel(2, 2).label == "ProperDelta(2)"
    assert DiffLevel(0, 0).label == "ProperDelta(0)"  # empty space only


def test_empty_space_levels():
    E = chain(0)
    assert classify(E, E.empty_mask()) == DiffLevel(0, 0)
    assert oracle_level(E, E.empty_mask()) == DiffLevel(0, 0)


def test_antichain_subsets_are_delta1():
    P = antichain(3)
    for A in all_subsets(P):
        if A.is_empty() or A.is_full():
            continue
        assert classify(P, A).label == "ProperDelta(1)"


def test_npose_delta_pair(small_poset_zoo):
    # the smallest space where a proper-Delta label is shared by two
    # incomparable degrees; pinned here because wadge tests rely on it
    P = small_poset_zoo["npose"]
    A = P.mask(["e1", "e2"])
    assert classify(P, A).label == "ProperDelta(2)"
    assert classify(P, A.complement()).label == "ProperDelta(2)"


def _census_matches_classify(P):
    levels = subset_levels(P)
    assert sum(members.bit_count() for members in levels.values()) == 1 << P.n
    for A in all_subsets(P):
        assert [lv for lv, members in levels.items() if members >> A.value & 1] == [classify(P, A)]


def test_subset_levels_match_classify_on_every_small_type():
    """The bit-sliced census gives every subset exactly the level classify gives it."""
    _census_matches_classify(build_poset([], []))
    for n in range(1, 7):
        for P in all_posets(n):
            _census_matches_classify(P)


def test_subset_levels_match_classify_on_random_posets():
    rng = random.Random(1407)
    for _ in range(30):
        _census_matches_classify(random_poset(rng, rng.randint(7, 10)))
    _census_matches_classify(fan(3).space)
