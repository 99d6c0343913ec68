from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given

from finwadge import (
    CycleError,
    DuplicateLabelError,
    EmptySubspace,
    FinitePoset,
    SpaceMismatch,
    UnknownElement,
    antichain,
    build_poset,
    chain,
    classify,
    degree_structure,
    expected_structure,
    fan,
    lex_product,
    linear_sum,
    poset_isomorphic,
    truncated_c_infinity,
    wadge_reduces,
)
from finwadge import poset
from finwadge.documents import PosetDocument, load_document, save_document
from finwadge.enumeration import all_posets, random_poset
from finwadge.wadge import all_subsets

from conftest import (
    brute_opens,
    posets,
    poset_with_mask,
    reference_build_poset,
    reference_covers,
    reference_dimension,
    reference_linext,
    reference_order,
    reference_poset_isomorphic,
    relabelled,
)


def test_single_point():
    P = build_poset(["a"], [])
    assert P.n == 1
    assert P.le("a", "a")


def test_chain_closure():
    P = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert P.le("0", "2")
    assert not P.le("2", "0")
    assert P.hasse_edges() == ((0, 1), (1, 2))


def test_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        build_poset(["a"], [("a", "a")])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        build_poset(["a", "a"], [])


def test_unknown_cover_label():
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "b")])


def test_cover_is_transitive_reduction():
    P = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")])
    # the (0,2) pair is implied, so it is not a cover
    assert P.hasse_edges() == ((0, 1), (1, 2))


def test_linext_respects_order():
    for P in all_posets(4):
        pos = {x: k for k, x in enumerate(P.linext)}
        assert sorted(P.linext) == list(range(P.n))
        for i in range(P.n):
            for j in range(P.n):
                if i != j and P.leq[i][j]:
                    assert pos[i] < pos[j]


def test_up_set_examples():
    L3 = chain(3)
    assert L3.members(L3.up_set("2")) == ("2",)
    assert L3.members(L3.up_set("0")) == ("0", "1", "2")
    f1 = fan(1)
    assert f1.space.up_set("bot") == f1.space.full_mask()
    with pytest.raises(UnknownElement):
        L3.up_set("9")


def test_open_closure_boundary_examples():
    L3 = chain(3)
    assert L3.is_open(L3.mask(["1", "2"]))
    assert not L3.is_open(L3.mask(["0"]))
    assert L3.members(L3.boundary(L3.mask(["2"]))) == ("0", "1")
    f2 = fan(2)
    assert f2.space.is_open(f2.sets["D0"])


def test_space_mismatch():
    L3 = chain(3)
    other = chain(4)
    with pytest.raises(SpaceMismatch):
        L3.is_open(other.full_mask())
    A, B = L3.mask(["0"]), other.mask(["0"])
    for op in (A.union, A.intersection, A.difference, A.is_subset):
        with pytest.raises(SpaceMismatch):
            op(B)
    # same size, different space
    with pytest.raises(SpaceMismatch):
        A.union(antichain(3).mask(["a0"]))


def _order_matrices():
    """Every bool matrix with n <= 3, every reflexive 4x4 one, all_posets(6), random posets."""
    for n in range(4):
        for flat in product((False, True), repeat=n * n):
            yield tuple(f"e{i}" for i in range(n)), tuple(flat[i * n : (i + 1) * n] for i in range(n))
    for off_diagonal in product((False, True), repeat=12):
        rest = iter(off_diagonal)
        yield ("e0", "e1", "e2", "e3"), tuple(tuple(i == j or next(rest) for j in range(4)) for i in range(4))
    for P in all_posets(6):
        yield P.labels, P.leq
    for seed in range(200):
        rng = random.Random(seed)
        P = random_poset(rng, rng.randint(6, 40))
        yield P.labels, P.leq


def _outcome(build, labels, leq):
    try:
        return build(labels, leq)
    except (ValueError, CycleError) as e:
        return type(e), str(e)


def _cover_and_linext(labels, leq):
    P = FinitePoset(labels, leq)
    return P.cover, P.linext


def test_constructor_matches_reference_oracle():
    outcomes = set()
    for labels, leq in _order_matrices():
        expected = _outcome(reference_order, labels, leq)
        assert _outcome(_cover_and_linext, labels, leq) == expected, (labels, leq)
        outcomes.add(expected[0] if isinstance(expected[0], type) else "ok")
    # every rejection path was exercised
    assert outcomes == {"ok", ValueError, CycleError}


def test_int_rows_construct_the_same_poset():
    # build_poset hands over int rows; they are validated like the bool
    # matrix, and the poset and its space_id are the same either way
    for labels, leq in _order_matrices():
        if not labels:
            continue
        rows = tuple(sum(1 << j for j, b in enumerate(row) if b) for row in leq)
        got = _outcome(FinitePoset, labels, rows)
        assert got == _outcome(FinitePoset, labels, leq), (labels, leq)
        if isinstance(got, FinitePoset):
            assert got.leq == leq and got.space_id == FinitePoset(labels, leq).space_id
            assert got.cover == reference_order(labels, leq)[0]
    for rows in ((0b11, 0b110), (0b1, -1)):
        with pytest.raises(ValueError, match="shape"):
            FinitePoset(("e0", "e1"), rows)


def test_build_poset_matches_reference_closure():
    # seeded pair lists in random order and direction, many of them cyclic;
    # the labels are shuffled so index order differs from label order
    outcomes = set()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        labels = tuple(rng.sample([f"e{i}" for i in range(n)], n))
        pairs = [tuple(rng.sample(labels, 2)) for _ in range(rng.randint(0, 2 * n))] if n > 1 else []
        expected = _outcome(reference_build_poset, labels, pairs)
        assert _outcome(lambda ls, ps: build_poset(ls, ps).leq, labels, pairs) == expected, (labels, pairs)
        outcomes.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert outcomes == {"ok", CycleError}


def _valid_order_matrices():
    """(labels, leq, (cover, linext)) of the orders among _order_matrices()."""
    for labels, leq in _order_matrices():
        expected = _outcome(reference_order, labels, leq)
        if not isinstance(expected[0], type):
            yield labels, leq, expected


def test_index_rows_match_reference_definitions():
    for labels, leq, (cover, linext) in _valid_order_matrices():
        P = FinitePoset(labels, leq)
        n = len(labels)
        assert P._up_int == tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n))
        assert P._down_int == tuple(sum(1 << i for i in range(n) if leq[i][j]) for j in range(n))
        assert P._cover_int == tuple(sum(1 << j for j in range(n) if cover[i][j]) for i in range(n))
        assert P.linext == linext


def _refuse(*args):
    raise AssertionError("valid input reached a fallback path")


def test_valid_input_skips_the_fallbacks(monkeypatch):
    # valid orders are accepted by the check along cover edges alone: the
    # row-wise scan and Warshall's pass run only for rejected input, and
    # int rows are never converted back from bools
    monkeypatch.setattr(poset, "_reject_order", _refuse)
    monkeypatch.setattr(poset, "_warshall_closure", _refuse)
    matrices = [(labels, leq) for labels, leq, _ in _valid_order_matrices()]
    for labels, leq in matrices:
        FinitePoset(labels, leq)
    conversions = []
    row_int = poset._row_int
    monkeypatch.setattr(poset, "_row_int", lambda row: conversions.append(row) or row_int(row))
    for labels, leq in matrices:
        if labels:
            FinitePoset(labels, tuple(sum(1 << j for j, b in enumerate(row) if b) for row in leq))
    for seed in range(200):
        P = random_poset(random.Random(seed), 60)
        build_poset(P.labels, [(P.labels[i], P.labels[j]) for i, j in P.hasse_edges()])
    assert conversions == []


def _index_order_is_linear_extension(P: FinitePoset) -> bool:
    return all(j >= i for i in range(P.n) for j in range(P.n) if P.leq[i][j])


def _reversed(P: FinitePoset) -> FinitePoset:
    """P with its element order reversed: reversed chain(n) lists its top first."""
    return FinitePoset(P.labels[::-1], tuple(tuple(row[::-1]) for row in P.leq[::-1]))


def test_both_construction_paths_match_the_reference_covers(monkeypatch):
    # rows in a linear-extension index order take the lowest-bit picks and
    # no Kahn pass; every other input takes the pass over comparable pairs
    calls = []
    for name in ("_cover_rows", "_cover_rows_upward", "_topological_order"):
        spied = getattr(poset, name)
        monkeypatch.setattr(poset, name, lambda rows, _f=spied, _n=name: calls.append(_n) or _f(rows))
    types = [P for n in range(1, 7) for P in all_posets(n)]
    rng = random.Random(25)
    shuffled = [relabelled(P, rng) for P in types]
    L160 = chain(160)
    large = [L160, _reversed(L160), fan(18).space, lex_product(antichain(3), chain(60))]
    assert all(map(_index_order_is_linear_extension, types))
    assert [_index_order_is_linear_extension(P) for P in large] == [True, False, False, True]
    assert sum(not _index_order_is_linear_extension(P) for P in shuffled) > len(types) // 2
    for P in types + shuffled + large:
        del calls[:]
        Q = FinitePoset(P.labels, P._up_int)
        fast = _index_order_is_linear_extension(Q)
        assert calls == (["_cover_rows_upward"] if fast else ["_cover_rows", "_topological_order"])
        assert Q._cover_int == reference_covers(Q.leq), Q.labels
        assert Q.linext == reference_linext(Q.leq), Q.labels
        n = Q.n
        if fast:  # one index-order tuple per size, which census memory relies on
            assert Q.linext is poset._index_order(n)
        assert Q._down_int == tuple(sum(1 << i for i in range(n) if Q.leq[i][j]) for j in range(n))


def test_space_beyond_the_decimal_conversion_limit_builds():
    # rows of 15,000 bits have more than 4,300 decimal digits, which Python
    # refuses to convert; the fingerprint hashes the rows as bytes instead
    X = chain(15000)
    assert X.n == 15000 and X.le("0", "14999") and not X.le("14999", "0")
    assert len(X.space_id) == 16


def test_space_id_tells_apart_one_label_or_one_row():
    V = build_poset("abc", [("a", "c"), ("b", "c")])
    assert V.space_id == build_poset("abc", [("b", "c"), ("a", "c")]).space_id
    other_label = FinitePoset(("a", "b", "d"), V._up_int)
    other_row = build_poset("abc", [("a", "c")])  # only row b differs
    assert V._up_int[0] == other_row._up_int[0] and V._up_int[2] == other_row._up_int[2]
    assert len({V.space_id, other_label.space_id, other_row.space_id}) == 3
    # rows of three bytes: one cover from the first to the last element
    A = antichain(20)
    linked = build_poset(A.labels, [("a0", "a19")])
    assert A._up_int[1:] == linked._up_int[1:] and A.space_id != linked.space_id


def test_lowest_bit_picks_end_on_rows_without_their_own_bit():
    # the cover rows are read before validation; in the second case row 0
    # picks 1, whose row lacks bit 1, so the picks end only if they clear
    # the picked bit itself
    with pytest.raises(ValueError, match="^order must be reflexive$"):
        FinitePoset(("a", "b"), (0b10, 0b10))
    with pytest.raises(ValueError, match="^order must be reflexive$"):
        FinitePoset(("a", "b"), (0b11, 0b00))


def test_order_is_stored_once_as_int_rows(tmp_path):
    # constructors, loading and the searches never build the bool matrix
    path = tmp_path / "fan2.json"
    save_document(PosetDocument(fan(2).space, {}), path)
    spaces = [
        build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")]),
        load_document(path).space,
        chain(5),
        antichain(3),
        truncated_c_infinity(4),
        fan(2).space,
        linear_sum(antichain(2), chain(2)),
        lex_product(antichain(2), chain(3)),
        expected_structure(1),
    ]
    spaces += [P for n in range(1, 5) for P in all_posets(n)]
    for P in spaces:
        subsets = all_subsets(P)
        classify(P, subsets[1])
        wadge_reduces(P, subsets[1], subsets[-2])
        degree_structure(P, subsets)
        assert "leq" not in vars(P)
    assert spaces[0].leq == ((True, True, True), (False, True, False), (False, False, True))


def test_leq_view_matches_the_reference_matrix():
    for seed in range(100):
        rng = random.Random(seed)
        P = random_poset(rng, rng.randint(1, 20))
        want = reference_build_poset(P.labels, [(P.labels[i], P.labels[j]) for i, j in P.hasse_edges()])
        for order in (want, P._up_int):
            Q = FinitePoset(P.labels, order)
            assert "leq" not in vars(Q)
            assert Q.leq == want and Q._up_int == P._up_int


def test_posets_of_one_size_share_their_leq_rows():
    for n in (4, 6):
        shared = {}
        for P in all_posets(n):
            for row in P.leq:
                assert shared.setdefault(row, row) is row


def test_cyclic_pair_lists_match_reference_closure():
    # a random acyclic pair list plus one pair closing a cycle; the first
    # bad pair, and so the exception and its message, must be the reference's
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(10, 60)
        labels = tuple(rng.sample([f"e{i}" for i in range(n)], n))
        rank = rng.sample(range(n), n)
        pairs = []
        for _ in range(rng.randint(n, 3 * n)):
            a, b = rng.sample(labels, 2)
            pairs.append((a, b) if rank[labels.index(a)] < rank[labels.index(b)] else (b, a))
        lo, hi = pairs[rng.randrange(len(pairs))]
        pairs.insert(rng.randrange(len(pairs) + 1), (hi, lo))
        expected = _outcome(reference_build_poset, labels, pairs)
        assert expected[0] is CycleError
        assert _outcome(build_poset, labels, pairs) == expected, (labels, pairs)


def _sort_key(mask):
    return mask.count(), mask.indices()


@pytest.mark.parametrize("n", range(1, 9))
def test_open_and_subset_orders_match_the_sort_key(n):
    # cardinality, then earliest members, as the masks' own sort key gives it
    spaces = [antichain(n), chain(n)] + [random_poset(random.Random(100 * n + k), n) for k in range(20)]
    for P in spaces:
        opens = list(P.enumerate_opens())
        assert opens == sorted(opens, key=_sort_key)
        assert [O.as_int() for O in opens] == list(P._open_ints)
        subsets = all_subsets(P)
        assert subsets == sorted(map(P.mask_from_int, range(1 << n)), key=_sort_key)
    assert len(list(antichain(n).enumerate_opens())) == 2**n


@pytest.mark.parametrize("n", range(5))
def test_mask_semantics_match_bool_tuples(n):
    types = all_posets(n) if n else [chain(0)]
    for P in types:
        refs = list(product((False, True), repeat=n))
        masks = [P.mask_from_bits(r) for r in refs]
        for ra, A in zip(refs, masks):
            idx = tuple(i for i, a in enumerate(ra) if a)
            assert A.bits == ra
            assert A.bitstring() == "".join("1" if a else "0" for a in ra)
            assert A.indices() == idx
            assert A.count() == sum(ra)
            assert A.complement().bits == tuple(not a for a in ra)
            closure = tuple(any(ra[j] and P.leq[i][j] for j in range(n)) for i in range(n))
            interior = tuple(all(ra[j] for j in range(n) if P.leq[i][j]) for i in range(n))
            assert P.closure(A).bits == closure
            assert P.interior(A).bits == interior
            assert P.boundary(A).bits == tuple(c and not o for c, o in zip(closure, interior))
            same = [
                P.mask_from_int(A.as_int()),
                P.mask_from_bits(A.bitstring()),
                P.mask_from_indices(idx),
                P.mask(P.labels[i] for i in idx),
                # bits at positions >= n are dropped
                P.mask_from_int(A.as_int() | 1 << n | 1 << (n + 3)),
            ]
            assert all(M == A and hash(M) == hash(A) for M in same)
            for rb, B in zip(refs, masks):
                assert A.union(B).bits == tuple(a or b for a, b in zip(ra, rb))
                assert A.intersection(B).bits == tuple(a and b for a, b in zip(ra, rb))
                assert A.difference(B).bits == tuple(a and not b for a, b in zip(ra, rb))
                assert A.is_subset(B) == all(b for a, b in zip(ra, rb) if a)
                assert (A == B) == (ra == rb)
        assert P.mask_from_int(-1) == P.full_mask()


def test_enumerate_opens_counts():
    assert sum(1 for _ in chain(2).enumerate_opens()) == 3
    assert sum(1 for _ in chain(3).enumerate_opens()) == 4
    a2 = antichain(2)
    got = [m.indices() for m in a2.enumerate_opens()]
    assert got == [(), (0,), (1,), (0, 1)]


@given(posets(max_size=6))
def test_enumerate_opens_matches_bruteforce(P):
    got = [m.as_int() for m in P.enumerate_opens()]
    assert len(got) == len(set(got))
    assert set(got) == brute_opens(P)
    # ordering contract: cardinality, then earliest-member order
    keyed = [(m.count(), m.indices()) for m in P.enumerate_opens()]
    assert keyed == sorted(keyed)


@given(poset_with_mask())
def test_up_set_is_minimal_neighborhood(pm):
    P, A = pm
    opens = list(P.enumerate_opens())
    for x in range(P.n):
        meet = P.full_mask()
        for O in opens:
            if O.has(x):
                meet = meet.intersection(O)
        assert meet == P.up_set(x)


@given(poset_with_mask())
def test_open_iff_union_of_up_sets(pm):
    P, A = pm
    union = P.empty_mask()
    for x in A.indices():
        union = union.union(P.up_set(x))
    assert P.is_open(A) == (union == A)


@given(poset_with_mask())
def test_closure_is_idempotent_extensive_monotone(pm):
    P, A = pm
    cl = P.closure(A)
    assert A.is_subset(cl)
    assert P.closure(cl) == cl
    bigger = A.union(P.up_set(0))
    assert cl.is_subset(P.closure(bigger))


@given(poset_with_mask())
def test_boundary_disjoint_from_interior(pm):
    P, A = pm
    assert P.boundary(A).intersection(P.interior(A)).is_empty()
    if P.is_open(A):
        assert P.boundary(A) == P.closure(A).difference(A)


def test_derivative_trace_antichain():
    P = antichain(4)
    t = P.derivative_trace()
    assert [s.count() for s in t.stages] == [4, 0]
    assert t.rank_of == (0, 0, 0, 0)
    assert t.scattered_rank == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_derivative_trace_chain(n):
    t = chain(n).derivative_trace()
    # one maximal element is removed per stage
    assert [s.count() for s in t.stages] == list(range(n, -1, -1))
    assert t.scattered_rank == n
    assert t.rank_of == tuple(n - 1 - i for i in range(n))


def test_derivative_trace_fan_reaches_empty():
    t = fan(1).space.derivative_trace()
    assert t.stages[-1].is_empty()


def test_derivative_empty_poset():
    t = chain(0).derivative_trace()
    assert len(t.stages) == 1 and t.stages[0].is_empty()
    assert t.scattered_rank == 0


@given(posets(max_size=6))
def test_stages_are_rank_level_sets(P):
    t = P.derivative_trace()
    for k, stage in enumerate(t.stages):
        assert stage.indices() == tuple(i for i in range(P.n) if t.rank_of[i] >= k)
    if P.n:
        assert t.scattered_rank == 1 + max(t.rank_of)


@pytest.mark.parametrize("n,expected", [(0, -1)] + [(n, n - 1) for n in range(1, 9)])
def test_dimension_of_chains(n, expected):
    assert chain(n).dimension() == expected


def test_dimension_of_antichains():
    for n in (1, 2, 5):
        assert antichain(n).dimension() == 0


def test_dimension_monotone_under_subspaces():
    # every subspace has dimension at most the whole space's
    for size in range(1, 6):
        for P in all_posets(size):
            d = P.dimension()
            for v in range(1, 1 << P.n):
                S = P.subspace(P.mask_from_int(v))
                assert S.dimension() <= d


def test_dimension_matches_reference_descent():
    # the height read off the ranks against the memoized boundary descent
    spaces = [P for n in range(1, 8) for P in all_posets(n)]
    rng = random.Random(7)
    spaces += [random_poset(rng, rng.randint(1, 16)) for _ in range(300)]
    spaces += [fan(3).space, lex_product(antichain(3), chain(20))]
    for P in spaces:
        assert P.dimension() == reference_dimension(P)


def test_subspace_examples():
    L3 = chain(3)
    S = L3.subspace(L3.mask(["0", "1"]))
    assert poset_isomorphic(S, chain(2)) is not None
    f2 = fan(2)
    X = f2.space
    spine = X.mask(["bot", "c2_2", "c2_1", "c2_0", "top"])
    assert poset_isomorphic(X.subspace(spine), chain(5)) is not None
    full = X.subspace(X.full_mask())
    assert poset_isomorphic(full, X) is not None
    with pytest.raises(EmptySubspace):
        L3.subspace(L3.empty_mask())


def test_isomorphism_examples():
    L3 = chain(3)
    other = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    w = poset_isomorphic(L3, other)
    assert w is not None
    assert all(other.leq[w[i]][w[j]] == L3.leq[i][j] for i in range(3) for j in range(3))
    assert poset_isomorphic(L3, antichain(3)) is None


def test_isomorphism_of_shuffled_combinator():
    from finwadge import expected_structure

    P = expected_structure(2)
    # relabel and permute the same shape
    perm = [3, 0, 7, 5, 1, 6, 2, 4]
    labels = [f"v{i}" for i in range(P.n)]
    covers = [(labels[perm[i]], labels[perm[j]]) for i, j in P.hasse_edges()]
    Q = build_poset(labels, covers)
    assert poset_isomorphic(P, Q) is not None


def test_isomorphism_is_equivalence_on_small_sample():
    sample = all_posets(4)
    for P in sample:
        assert poset_isomorphic(P, P) is not None
    for P in sample:
        for Q in sample:
            assert (poset_isomorphic(P, Q) is not None) == (poset_isomorphic(Q, P) is not None)
    # transitivity across the sample: types are distinct, so only reflexive pairs match
    for i, P in enumerate(sample):
        for j, Q in enumerate(sample):
            if i != j:
                assert poset_isomorphic(P, Q) is None


def test_isomorphism_witness_matches_reference():
    # first isomorphism in index order, targets tried in increasing order
    rng = random.Random(31)
    for n in range(1, 5):
        spaces = all_posets(n)
        spaces += [relabelled(P, rng) for P in spaces]
        for X in spaces:
            for Y in spaces:
                assert poset_isomorphic(X, Y) == reference_poset_isomorphic(X, Y)
    for n in (5, 6):
        for P in all_posets(n):
            Q = relabelled(P, rng)
            assert poset_isomorphic(P, Q) == reference_poset_isomorphic(P, Q)
            assert poset_isomorphic(Q, P) == reference_poset_isomorphic(Q, P)


def test_isomorphism_of_long_chains_does_not_recurse():
    assert poset_isomorphic(chain(1100), chain(1100)) == tuple(range(1100))


def test_isomorphism_reads_int_rows():
    """poset_isomorphic compares int rows; it builds no bool matrix."""
    rng = random.Random(32)
    for P in all_posets(5):
        # fresh copies: relabelled reads the leq view of its argument
        X, Y = (FinitePoset(Z.labels, Z._up_int) for Z in (P, relabelled(P, rng)))
        assert poset_isomorphic(X, Y) is not None
        assert "leq" not in vars(X) and "leq" not in vars(Y)
