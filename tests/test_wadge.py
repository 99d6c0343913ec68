from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from hypothesis import given

from finwadge import (
    CapExceeded,
    ColorCountMismatch,
    DiffLevel,
    KPartition,
    MonotoneMap,
    ReducibilityKind,
    SpaceMismatch,
    antichain,
    build_poset,
    chain,
    classify,
    constant_partitions,
    degree_embedding_check,
    degree_structure,
    fan,
    is_monotone,
    is_retraction,
    level_leq,
    lex_product,
    linear_sum,
    partition_reduces,
    poset_isomorphic,
    wadge_reduces,
)
from finwadge import verify, wadge
from finwadge.enumeration import (
    all_posets,
    random_mask,
    random_partition,
    random_poset,
    random_retraction,
)
from finwadge.verify import level_degree_findings
from finwadge.cli import _degrees_report
from finwadge.documents import degrees_to_dot
from finwadge.wadge import _partition_reduces, _reduction, _search_map, _width, all_subsets, subset_quotient

from conftest import (
    all_monotone_maps,
    brute_reduces,
    first_map,
    poset_with_two_masks,
    rank_map,
    reference_arc_consistent,
    reference_degree_structure,
    reference_domains,
    reference_max_clique,
    reference_reduces,
    reference_search_map,
)


def test_is_monotone_examples(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    assert is_monotone(L2, (0, 1))
    assert is_monotone(L2, (0, 0)) and is_monotone(L2, (1, 1))
    assert not is_monotone(L2, (1, 0))


def test_is_monotone_rejects_targets_outside_the_space(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    for image in ((0, -1), (0, 5), (2, 0)):
        with pytest.raises(SpaceMismatch):
            is_monotone(L2, image)
        with pytest.raises(SpaceMismatch):
            is_retraction(L2, L2.full_mask(), MonotoneMap(L2.space_id, image))


def test_reduce_to_itself_and_trivial_cases(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    for A in all_subsets(L3):
        w = wadge_reduces(L3, A, A)
        assert w is not None and w.preimage(A) == A
    B = L3.mask(["2"])
    w = wadge_reduces(L3, L3.empty_mask(), B)
    assert w is not None and w.preimage(B).is_empty()


def test_chain2_top_not_reducible_to_bottom(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    assert wadge_reduces(L2, L2.mask(["1"]), L2.mask(["0"])) is None
    assert not brute_reduces(L2, L2.mask(["1"]), L2.mask(["0"]))


def test_crown_pair_exhausts_the_depth_first_search():
    """A pair that passes the prefilter and root arc consistency, yet has no reduction.

    In the 4-crown (a_i < b_i and a_i < b_(i+1 mod 4)) both sets are
    ProperDelta(2) and arc consistency at the root empties no domain, so
    the kernel gives up only after its depth-first pass (36 assignments).
    """
    labels = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
    X = build_poset(labels, [(f"a{i}", f"b{j % 4}") for i in range(4) for j in (i, i + 1)])
    A, B = X.mask(["a1", "b2"]), X.mask(["a1", "a3", "b1", "b3"])
    assert classify(X, A).label == classify(X, B).label == "ProperDelta(2)"
    assert wadge_reduces(X, A, B) is None
    assert reference_search_map(X, reference_domains(X, A, B)) is None


def test_empty_space_reduces_by_the_empty_map():
    X = chain(0)
    f = wadge_reduces(X, X.empty_mask(), X.empty_mask())
    assert f is not None and f.image == ()


@given(poset_with_two_masks(max_size=4))
def test_search_agrees_with_bruteforce(pxy):
    P, A, B = pxy
    maps = all_monotone_maps(P)
    got = wadge_reduces(P, A, B)
    assert (got is not None) == brute_reduces(P, A, B, maps)
    if got is not None:
        assert is_monotone(P, got)
        assert got.preimage(B) == A


def test_search_agrees_with_bruteforce_size5():
    rng = random.Random(314159)
    for _ in range(10):
        P = random_poset(rng, 5)
        maps = all_monotone_maps(P)
        for _ in range(20):
            A, B = random_mask(rng, P), random_mask(rng, P)
            assert (wadge_reduces(P, A, B) is not None) == brute_reduces(P, A, B, maps)


def test_witness_is_deterministic(small_poset_zoo):
    P = small_poset_zoo["diamond"]
    A = P.mask(["t"])
    B = P.mask(["l", "t"])
    w1 = wadge_reduces(P, A, B)
    w2 = wadge_reduces(P, A, B)
    assert w1 == w2


def _image(witness):
    return None if witness is None else witness.image


def test_witness_is_first_map_in_linext_order():
    for n in range(1, 5):
        for P in all_posets(n):
            subs = all_subsets(P)
            for A in subs:
                for B in subs:
                    allowed = [[t for t in range(P.n) if B.has(t) == A.has(x)] for x in range(P.n)]
                    for kind in ReducibilityKind:
                        expected = first_map(P, allowed, kind is ReducibilityKind.WADGE)
                        assert _image(wadge_reduces(P, A, B, kind)) == expected


def test_partition_witness_is_first_map_in_linext_order():
    rng = random.Random(161803)
    for n in range(1, 5):
        for P in all_posets(n):
            for _ in range(25):
                mu = KPartition(P.space_id, 3, tuple(rng.randrange(3) for _ in range(P.n)))
                nu = KPartition(P.space_id, 3, tuple(rng.randrange(3) for _ in range(P.n)))
                allowed = [[t for t in range(P.n) if nu.colors[t] == mu.colors[x]] for x in range(P.n)]
                assert _image(partition_reduces(P, mu, nu)) == first_map(P, allowed, True)


def test_retraction_witness_is_first_map_in_linext_order():
    for n in range(1, 5):
        for P in all_posets(n):
            for seed in range(4):
                # the same draw of Y that random_retraction makes
                twin = random.Random(seed)
                carrier = set(twin.sample(range(P.n), twin.randint(1, P.n)))
                allowed = [[x] if x in carrier else sorted(carrier) for x in range(P.n)]
                expected = first_map(P, allowed, True)
                got = random_retraction(random.Random(seed), P)
                if expected is None:
                    assert got is None
                else:
                    assert set(got[0].indices()) == carrier
                    assert got[1].image == expected


def test_all_functions_closed_form_on_long_chain():
    # the top has nowhere to go outside the full set; on the discrete
    # order the search has no edges and sends each x to its lowest target
    X = chain(40)
    below_top = X.mask_from_indices(range(39))
    assert wadge_reduces(X, below_top, X.full_mask(), ReducibilityKind.ALL_FUNCTIONS) is None
    w = wadge_reduces(X, below_top, X.mask_from_indices([5, 7]), ReducibilityKind.ALL_FUNCTIONS)
    assert w is not None and w.image == (5,) * 39 + (0,)


def test_all_functions_witness_is_the_lowest_target_of_each_domain():
    """The ALL_FUNCTIONS witness sends each x to the lowest target it may take.

    Every ordered subset pair of every type with n <= 4, and every ordered
    pair of 3-partitions of every type with n <= 3: the witness is that
    closed form, and there is none exactly when some domain is empty.
    """
    any_kind = ReducibilityKind.ALL_FUNCTIONS

    def check(P, a, b, witness):
        domains = reference_domains(P, a, b)
        if not all(domains):
            assert witness is None, (P.hasse_edges(), a, b)
            return
        assert witness.space_id == P.space_id
        assert witness.image == tuple((d & -d).bit_length() - 1 for d in domains), (P.hasse_edges(), a, b)

    pairs = 0
    for n in range(1, 5):
        for P in all_posets(n):
            for a, b in product(all_subsets(P), repeat=2):
                pairs += 1
                check(P, a, b, wadge_reduces(P, a, b, any_kind))
            if n > 3:
                continue
            parts = [KPartition(P.space_id, 3, colors) for colors in product(range(3), repeat=n)]
            for mu, nu in product(parts, repeat=2):
                pairs += 1
                check(P, mu, nu, _partition_reduces(P, mu, nu, any_kind))
    assert pairs == 4 + 2 * 16 + 5 * 64 + 16 * 256 + 9 + 2 * 81 + 5 * 729


def test_all_functions_partition_missing_color():
    X = chain(40)
    mu = KPartition(X.space_id, 3, (0,) * 38 + (1, 2))
    nu = KPartition(X.space_id, 3, (1, 0) * 20)  # no color 2
    assert _partition_reduces(X, mu, nu, ReducibilityKind.ALL_FUNCTIONS) is None
    w = _partition_reduces(X, nu, mu, ReducibilityKind.ALL_FUNCTIONS)
    assert w is not None and w.image == (38, 0) * 20


def test_space_mismatch_rejected(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    L3 = small_poset_zoo["chain3"]
    with pytest.raises(SpaceMismatch):
        wadge_reduces(L3, L3.full_mask(), L2.full_mask())


def test_reflexive_transitive_on_random_triples():
    rng = random.Random(550022)
    done = 0
    while done < 500:
        P = random_poset(rng, rng.randint(2, 5))
        A, B, C = (random_mask(rng, P) for _ in range(3))
        f = wadge_reduces(P, A, B)
        g = wadge_reduces(P, B, C)
        if f is None or g is None:
            continue
        done += 1
        composed = g.compose(f)
        assert composed.preimage(C) == A
        assert is_monotone(P, composed)
        assert wadge_reduces(P, A, C) is not None


def test_filter_soundness_exhaustive():
    # whenever a witness exists the level order must agree
    for n in range(1, 5):
        for P in all_posets(n):
            subs = all_subsets(P)
            for A in subs:
                for B in subs:
                    if wadge_reduces(P, A, B) is not None:
                        assert level_leq(classify(P, A), classify(P, B))


def test_rank_map_reduces_outside_equal_delta_levels():
    """The constructive half of the level theorem in ``degree_structure``.

    On every pair (B, A) with level_leq(B, A), the rank map of the proof
    is a monotone map with preimage of A equal to B, unless both sets are
    ProperDelta(k) for one k, where the proof builds no map.
    """
    pairs = 0
    spaces = [P for n in range(1, 6) for P in all_posets(n)] + [fan(2).space]
    for P in spaces:
        subs = all_subsets(P)
        levels = [classify(P, S) for S in subs]
        for B, lb in zip(subs, levels):
            for A, la in zip(subs, levels):
                if not level_leq(lb, la):
                    continue
                f = rank_map(P, B, A)
                if lb == la and lb.kind == "delta":
                    assert f is None
                    continue
                pairs += 1
                assert f is not None and is_monotone(P, f) and f.preimage(A) == B
    assert pairs == 65954


def test_sigma_and_pi_labels_never_split():
    """Sets of one ProperSigma or ProperPi label are mutually reducible.

    Checked with the search kernel, not through ``degree_structure``,
    whose level theorem decides these pairs without a search: every set
    of such a label reduces to the first set of that label in
    ``all_subsets`` order, and back.
    """
    searches = 0
    for n in range(1, 7):
        for P in all_posets(n):
            first = {}
            for A in all_subsets(P):
                level = classify(P, A)
                rep = first.setdefault(level, A)
                if level.kind == "delta" or rep is A:
                    continue
                for a, b in ((A, rep), (rep, A)):
                    searches += 1
                    found = wadge._search_map(P, wadge._domains(P, a, b))
                    assert found is not None, (P.hasse_edges(), P.members(a), P.members(b))
    assert searches == 35340


def test_delta1_sets_never_split():
    """Every ProperDelta(1) set reduces to every other one (clopen sets).

    Checked with the search kernel on every ordered pair of such sets of
    every type with n <= 6, since ``degree_structure`` decides these
    pairs by the level theorem's corollary without a search.
    """
    pairs = 0
    for n in range(1, 7):
        for P in all_posets(n):
            clopen = [A for A in all_subsets(P) if classify(P, A) == DiffLevel(1, 1)]
            for a, b in product(clopen, repeat=2):
                pairs += 1
                found = wadge._search_map(P, wadge._domains(P, a, b))
                assert found is not None, (P.hasse_edges(), P.members(a), P.members(b))
    assert pairs == 7856


def _kernel_below(P, a, b) -> bool:
    return wadge._search_map(P, wadge._domains(P, a, b)) is not None


def test_below_matches_the_kernel_on_every_subset_pair():
    """``_below``, with its level shortcuts, answers as the search kernel does.

    Every ordered pair of subsets of every type with n <= 5, signatures
    from ``classify``; the kernel decides each pair without a prefilter.
    """
    pairs = 0
    for n in range(1, 6):
        for P in all_posets(n):
            subs = all_subsets(P)
            sigs = [(classify(P, A),) for A in subs]
            for (a, sa), (b, sb) in product(zip(subs, sigs), repeat=2):
                pairs += 1
                got = wadge._below(P, a, sa, b, sb)
                assert got == _kernel_below(P, a, b), (P.hasse_edges(), P.members(a), P.members(b))
    assert pairs == 68964


def test_below_matches_the_kernel_on_every_three_partition_pair():
    """The same on every ordered pair of 3-partitions of the types with n <= 3."""
    pairs = 0
    for n in range(1, 4):
        for P in all_posets(n):
            parts = [KPartition(P.space_id, 3, colors) for colors in product(range(3), repeat=n)]
            sigs = [tuple(classify(P, mu.color_class(c)) for c in range(3)) for mu in parts]
            for (mu, smu), (nu, snu) in product(zip(parts, sigs), repeat=2):
                pairs += 1
                got = wadge._below(P, mu, smu, nu, snu)
                assert got == _kernel_below(P, mu, nu), (P.hasse_edges(), mu.colors, nu.colors)
    assert pairs == 9 + 2 * 81 + 5 * 729


def test_searches_only_inside_equal_delta_levels(monkeypatch):
    """Subset quotients run the kernel only on pairs of one ProperDelta(k) level, k >= 2."""
    seen = []
    domains = wadge._domains

    def spy(P, a, b):
        seen.append((P, a, b))
        return domains(P, a, b)

    monkeypatch.setattr(wadge, "_domains", spy)
    for n in range(1, 6):
        for P in all_posets(n):
            degree_structure(P, all_subsets(P))
    monkeypatch.undo()
    assert seen  # the Delta splits of criterion 4 still need the kernel
    for P, a, b in seen:
        la, lb = classify(P, a), classify(P, b)
        assert la == lb and la.kind == "delta" and la.level >= 2, (P.members(a), P.members(b))


def test_duality_same_witness():
    rng = random.Random(770011)
    for _ in range(300):
        P = random_poset(rng, rng.randint(2, 6))
        A = random_mask(rng, P)
        B = random_mask(rng, P)
        f = wadge_reduces(P, A, B)
        g = wadge_reduces(P, A.complement(), B.complement())
        assert (f is None) == (g is None)
        if f is not None:
            assert f.preimage(B.complement()) == A.complement()


# --- partitions ---------------------------------------------------------


def test_partition_reduces_identity(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    mu = KPartition(L3.space_id, 3, (0, 1, 2))
    w = partition_reduces(L3, mu, mu)
    assert w is not None


def test_constant_partitions_pairwise_irreducible(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    parts = constant_partitions(L3, 3)
    for i, mu in enumerate(parts):
        for j, nu in enumerate(parts):
            assert (partition_reduces(L3, mu, nu) is not None) == (i == j)


def test_partition_color_count_mismatch(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    with pytest.raises(ColorCountMismatch):
        partition_reduces(L2, KPartition(L2.space_id, 2, (0, 1)), KPartition(L2.space_id, 3, (0, 1)))


def test_partition_space_mismatch(small_poset_zoo):
    L2, L3 = small_poset_zoo["chain2"], small_poset_zoo["chain3"]
    with pytest.raises(SpaceMismatch):
        partition_reduces(L3, KPartition(L2.space_id, 2, (0, 1)), KPartition(L3.space_id, 2, (0, 1, 1)))


def test_all_subsets_cap():
    from finwadge import CapExceeded

    with pytest.raises(CapExceeded):
        all_subsets(chain(7), cap=6)
    assert len(all_subsets(chain(6), cap=6)) == 64


def test_partition_search_agrees_with_bruteforce_k3():
    rng = random.Random(271828)
    for _ in range(15):
        P = random_poset(rng, rng.randint(2, 4))
        maps = all_monotone_maps(P)
        for _ in range(10):
            mu = KPartition(P.space_id, 3, tuple(rng.randrange(3) for _ in range(P.n)))
            nu = KPartition(P.space_id, 3, tuple(rng.randrange(3) for _ in range(P.n)))
            expected = any(
                all(nu.colors[f[i]] == mu.colors[i] for i in range(P.n)) for f in maps
            )
            got = partition_reduces(P, mu, nu)
            assert (got is not None) == expected
            if got is not None:
                assert mu == nu.compose_with(got)


def test_two_partitions_agree_with_subsets(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    subs = all_subsets(L3)
    for A in subs:
        for B in subs:
            via_sets = wadge_reduces(L3, A, B) is not None
            via_parts = (
                partition_reduces(L3, KPartition.from_subset(A), KPartition.from_subset(B))
                is not None
            )
            assert via_sets == via_parts


# --- degree structures ----------------------------------------------------


def test_single_point_structure():
    P = chain(1)
    D = degree_structure(P, all_subsets(P))
    assert D.class_count == 2
    assert D.strict_order == ()
    assert D.diagnostics.max_antichain == 2


def test_chain2_structure(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    D = degree_structure(L2, all_subsets(L2))
    assert D.class_count == 4
    bottom = {frozenset(D.items[D.representatives[c]].indices()) for c in D.minimal_classes()}
    assert bottom == {frozenset(), frozenset({0, 1})}
    assert D.diagnostics.max_antichain == 2
    assert not D.diagnostics.slo_violations
    # two levels: both bottom classes below both top classes
    assert len(D.strict_order) == 4


def test_all_functions_three_classes(monkeypatch):
    # on the discrete order the levels decide every pair, so no search runs
    searches = []
    domains = wadge._domains
    monkeypatch.setattr(wadge, "_domains", lambda *args: searches.append(args) or domains(*args))
    rng = random.Random(230031)
    for P in [random_poset(rng, rng.randint(2, 6)) for _ in range(10)] + [fan(2).space]:
        D = degree_structure(P, all_subsets(P), ReducibilityKind.ALL_FUNCTIONS)
        assert D.class_count == 3
        sizes = sorted(len(c) for c in D.classes)
        assert sizes == [1, 1, 2**P.n - 2]
        assert len(D.minimal_classes()) == 2
    assert searches == []


def test_structure_label_fields(small_poset_zoo):
    L2 = small_poset_zoo["chain2"]
    rep = degree_structure(L2, all_subsets(L2)).diagnostics
    assert rep.finitely_very_good
    parts = constant_partitions(L2, 3)
    rep3 = degree_structure(L2, parts).diagnostics
    assert rep3.max_antichain == 3
    assert not rep3.finitely_very_good


def test_partition_validation():
    with pytest.raises(ValueError):
        KPartition("sid", 2, (0, 2))
    with pytest.raises(ValueError):
        KPartition("sid", 0, ())


def test_colorstring_has_one_digit_per_color():
    # two digits would make (1, 11) and (11, 1) both print 111
    L2 = chain(2)
    for colors in ((1, 11), (11, 1), (10, 0)):
        with pytest.raises(ValueError, match="below 10"):
            KPartition(L2.space_id, 12, colors).colorstring()
    assert KPartition(L2.space_id, 12, (9, 0)).colorstring() == "90"


def test_fan1_full_structure_recorded():
    # computed, not assumed: the N=1 truncation is finitely very good
    X = fan(1).space
    rep = degree_structure(X, all_subsets(X)).diagnostics
    assert rep.finitely_very_good
    assert rep.max_antichain == 2


def test_hasse_is_transitive_reduction(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    D = degree_structure(L3, all_subsets(L3))
    strict = set(D.strict_order)
    for i, j in D.hasse:
        assert (i, j) in strict
        assert not any((i, k) in strict and (k, j) in strict for k in range(D.class_count))
    # every strict pair is recovered from hasse paths
    import itertools

    reach = set(D.hasse)
    for _ in range(D.class_count):
        reach |= {(a, d) for (a, b), (c, d) in itertools.product(reach, reach) if b == c}
    assert reach == strict


def _crown6():
    """Three minimal and three maximal points, each minimum below two maxima."""
    lows, highs = ["a0", "a1", "a2"], ["b0", "b1", "b2"]
    covers = [(a, b) for i, a in enumerate(lows) for j, b in enumerate(highs) if i != j]
    return build_poset(lows + highs, covers)


def _fence6():
    """The zigzag a0 < b0 > a1 < b1 > a2 < b2."""
    names = ["a0", "b0", "a1", "b1", "a2", "b2"]
    return build_poset(names, [(min(p, q), max(p, q)) for p, q in zip(names, names[1:])])


def test_six_element_measurement_is_pinned():
    """Finite very-goodness fails on exactly two of the 318 six-element types.

    The 6-crown has an antichain of 4 degrees and 12 SLO violations, the
    6-fence an antichain of 2 and 4 SLO violations; both quotients are
    confirmed against the pairwise oracle.  107 types split a level label.
    """
    failing = []
    split_types = 0
    for P in all_posets(6):
        D = degree_structure(P, all_subsets(P))
        if not D.diagnostics.finitely_very_good:
            failing.append((P, D))
        split_types += bool(level_degree_findings(P))
    assert split_types == 107
    named = {"crown": _crown6(), "fence": _fence6()}
    found = {}
    for P, D in failing:
        name = next(name for name, Q in named.items() if poset_isomorphic(P, Q))
        found[name] = (D.diagnostics.max_antichain, len(D.diagnostics.slo_violations))
        assert D == reference_degree_structure(P, all_subsets(P))
    assert found == {"crown": (4, 12), "fence": (2, 4)}


def test_level_degree_measurement_is_pinned():
    """The measured answer to the completeness question stays stable.

    Labels on the Sigma/Pi side never split (the level theorem of
    ``degree_structure`` proves this for every finite poset); the Delta
    side splits on exactly 13 isomorphism types, into 2 or 3 degrees,
    and each split is confirmed here against the exhaustive-map oracle.
    """
    split_types = 0
    for n in range(1, 6):
        for P in all_posets(n):
            findings = level_degree_findings(P)
            assert all("ProperDelta" in f for f in findings), findings
            if findings:
                split_types += 1
                # revalidate one split by brute force: complement-dual
                # Delta pair, mutually irreducible
                subs = all_subsets(P)
                deltas = [A for A in subs if classify(P, A).kind == "delta" and classify(P, A).level >= 2]
                assert any(
                    not brute_reduces(P, A, A.complement()) for A in deltas if P.n <= 5
                )
    assert split_types == 13


def test_level_degree_findings_classifies_nothing(monkeypatch):
    """The census gives each of the 532 degrees its level; no set is classified."""
    calls = []
    for module in (verify, wadge):
        classify_ = module.classify
        monkeypatch.setattr(module, "classify", lambda P, A, f=classify_: calls.append(A) or f(P, A))
    findings = [level_degree_findings(P) for n in range(1, 6) for P in all_posets(n)]
    monkeypatch.undo()
    degrees = sum(len(degree_structure(P, all_subsets(P)).classes) for n in range(1, 6) for P in all_posets(n))
    assert len(calls) == 0 and degrees == 532
    assert sum(map(bool, findings)) == 13


# --- the level census of all subsets ----------------------------------------


def _census_matches_oracle(P):
    Q = subset_quotient(P)
    D = degree_structure(P, all_subsets(P))
    assert _degrees_report(P, Q, ReducibilityKind.WADGE) == _degrees_report(P, D, ReducibilityKind.WADGE)
    assert degrees_to_dot(P, Q) == degrees_to_dot(P, D)
    assert Q.class_levels == tuple(classify(P, R) for R in D.class_reps)


def test_subset_quotient_matches_degree_structure_on_every_small_type():
    """The census reports what the pairwise quotient reports, on every type n <= 6."""
    _census_matches_oracle(build_poset([], []))
    for n in range(1, 7):
        for P in all_posets(n):
            _census_matches_oracle(P)


def test_subset_quotient_matches_degree_structure_on_random_posets_and_fans():
    rng = random.Random(1408)
    for _ in range(12):
        _census_matches_oracle(random_poset(rng, rng.randint(7, 10)))
    for N in range(1, 5):
        _census_matches_oracle(fan(N).space)
    # Delta-heavy: every nonempty proper subset of an antichain is ProperDelta(1),
    # and linear sums of antichains have ProperDelta(2) and (3) members
    for N in range(2, 13):
        _census_matches_oracle(antichain(N))
    _census_matches_oracle(linear_sum(antichain(3), antichain(4)))
    _census_matches_oracle(linear_sum(antichain(2), linear_sum(antichain(3), antichain(2))))


def test_fan5_quotient_is_pinned():
    """fan(5): 23 elements, 8,388,608 subsets, 16 classes, from the census alone."""
    Q = subset_quotient(fan(5).space)
    assert Q.class_sizes == (
        1, 5040, 5040, 216831, 216831, 1043280, 1043280, 1592576, 1592576,
        1016064, 1016064, 287744, 287744, 32768, 32768, 1,
    )
    assert Q.item_count == 1 << 23
    # one Sigma and one Pi class per level 1..7, between the empty set and the whole space
    sides = [("Pi", "Sigma") if k % 2 else ("Sigma", "Pi") for k in range(1, 8)]
    assert [lv.label for lv in Q.class_levels] == (
        ["ProperSigma(0)"] + [f"Proper{side}({k})" for k, pair in enumerate(sides, 1) for side in pair] + ["ProperPi(0)"]
    )
    assert Q.diagnostics.max_antichain == 2 and not Q.diagnostics.slo_violations
    assert (len(Q.strict_order), len(Q.hasse)) == (112, 28)


def test_antichain20_quotient_needs_no_search(monkeypatch):
    """antichain(20): its 1,048,574 clopen subsets form one class, decided without the kernel."""
    searches = []
    monkeypatch.setattr(wadge, "_search_map", lambda *args: searches.append(args))
    Q = subset_quotient(antichain(20))
    assert Q.class_sizes == (1, 1048574, 1)
    assert [lv.label for lv in Q.class_levels] == ["ProperSigma(0)", "ProperDelta(1)", "ProperPi(0)"]
    assert searches == []


def test_subset_quotient_refuses_more_than_24_elements():
    with pytest.raises(CapExceeded, match="level census limit 24"):
        subset_quotient(chain(25))
    with pytest.raises(CapExceeded, match="all-subsets cap 6"):
        subset_quotient(chain(7), cap=6)


def test_duality_pairs_match_wadge_reduces():
    """``_reduction`` on the signatures of all subsets is wadge_reduces, on every type n <= 4.

    wadge_reduces asks ``_signatures`` for the pair alone, so a subset's
    signature must not depend on the list it was given in.
    """
    for n in range(1, 5):
        for P in all_posets(n):
            subsets = all_subsets(P)
            sigs = dict(zip((A.value for A in subsets), wadge._signatures(P, subsets)))
            assert sigs == {A.value: (classify(P, A),) for A in subsets}
            for A in subsets:
                for B in subsets:
                    found = _reduction(P, A, B, sigs[A.value], sigs[B.value])
                    assert found == wadge_reduces(P, A, B)


def test_duality_classifies_in_its_level_check_and_once_per_complement_pair(monkeypatch):
    calls = {"verify": 0, "wadge": 0}
    for name, module in (("verify", verify), ("wadge", wadge)):
        classify_ = module.classify
        monkeypatch.setattr(
            module, "classify", lambda P, A, f=classify_, k=name: calls.__setitem__(k, calls[k] + 1) or f(P, A)
        )
    result = verify.suite_duality(4)
    assert result.passed
    # the level check: a subset and its complement, 306 subsets;
    # _signatures: one set of each of the 153 complement pairs
    assert calls == {"verify": 2 * 306, "wadge": 153}


# --- retractions ----------------------------------------------------------


def test_identity_retraction(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    r = MonotoneMap(L3.space_id, (0, 1, 2))
    assert is_retraction(L3, L3.full_mask(), r)
    report = degree_embedding_check(L3, L3.full_mask(), r, all_subsets(L3))
    assert report.exact


def test_chain3_collapse_retraction(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    Y = L3.mask(["0", "2"])
    r = MonotoneMap(L3.space_id, (0, 2, 2))
    assert is_retraction(L3, Y, r)
    sample = [L3.empty_mask(), L3.mask(["0"]), L3.mask(["2"]), Y]
    report = degree_embedding_check(L3, Y, r, sample)
    assert report.retraction_valid
    assert report.pairs_checked == 16
    assert not report.mismatches


def test_non_retraction_detected(small_poset_zoo):
    L3 = small_poset_zoo["chain3"]
    Y = L3.mask(["0", "2"])
    not_fixing = MonotoneMap(L3.space_id, (0, 0, 0))
    assert not is_retraction(L3, Y, not_fixing)
    assert not degree_embedding_check(L3, Y, not_fixing, []).retraction_valid


def test_random_retractions_embed():
    rng = random.Random(880044)
    found = 0
    while found < 20:
        P = random_poset(rng, rng.randint(2, 5))
        got = random_retraction(rng, P)
        if got is None:
            continue
        Y, r = got
        assert is_retraction(P, Y, r)
        sample = [P.mask_from_indices([i for i in A.indices()]) for A in all_subsets(P) if A.is_subset(Y)]
        report = degree_embedding_check(P, Y, r, sample)
        assert report.exact
        found += 1


def test_reimported_package_is_released():
    # a host that re-imports finwadge (a benchmark pass, a reload) must not
    # keep the earlier copy alive through a process-wide cache
    import gc
    import importlib
    import sys
    import weakref

    ours = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "finwadge"}
    try:
        for name in ours:
            del sys.modules[name]
        fresh = importlib.import_module("finwadge")
        ref = weakref.ref(fresh.SubsetMask)
        del fresh
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "finwadge"]:
            del sys.modules[name]
        sys.modules.update(ours)
    gc.collect()
    assert ref() is None


def _random_domains(rng: random.Random, n: int) -> list[int]:
    full = (1 << n) - 1
    domains = []
    for _ in range(n):
        r = rng.random()
        if r < 0.04:
            domains.append(0)
        elif r < 0.3:
            domains.append(1 << rng.randrange(n))
        elif r < 0.45:
            domains.append(full)
        else:
            domains.append(rng.getrandbits(n))
    return domains


def test_search_map_matches_reference_oracle():
    """The pruned kernel returns exactly what unpruned backtracking returns."""
    rng = random.Random(20)
    posets = [P for n in range(1, 6) for P in all_posets(n)]
    posets += [random_poset(rng, rng.randint(6, 12)) for _ in range(50)]
    found = {True: 0, False: 0}
    for P in posets:
        for _ in range(30):
            if rng.random() < 0.5:
                domains = _random_domains(rng, P.n)
            else:  # a subset reduction's domains
                A, B = random_mask(rng, P), random_mask(rng, P)
                domains = reference_domains(P, A, B)
            want = reference_search_map(P, domains)
            assert _search_map(P, domains) == want
            found[want is not None] += 1
    assert min(found.values()) > 500


def test_arc_consistent_matches_the_exact_fixpoint():
    """The root sweeps end at the naive fixpoint's domains, or None with it."""
    rng = random.Random(23)
    cases = []
    for n in range(1, 6):
        for P in all_posets(n):
            cases += [(P, _random_domains(rng, n)) for _ in range(6)]
            cases += [(P, reference_domains(P, random_mask(rng, P), random_mask(rng, P))) for _ in range(6)]
    for _ in range(60):
        P = random_poset(rng, rng.randint(6, 16))
        cases += [(P, _random_domains(rng, P.n)) for _ in range(3)]
        cases += [(P, reference_domains(P, random_mask(rng, P), random_mask(rng, P))) for _ in range(3)]
    for k in range(4, 7):
        lows, highs = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
        crown = build_poset(lows + highs, [(lows[i], highs[j % k]) for i in range(k) for j in (i, i + 1)])
        zigzag = [name for pair in zip(lows, highs) for name in pair]
        fence = build_poset(zigzag, [(min(p, q), max(p, q)) for p, q in zip(zigzag, zigzag[1:])])
        for P in (crown, fence):
            cases += [(P, reference_domains(P, random_mask(rng, P), random_mask(rng, P))) for _ in range(40)]
    for P in (chain(160), fan(18).space, lex_product(antichain(3), chain(60))):
        cases += [(P, reference_domains(P, random_mask(rng, P), random_mask(rng, P))) for _ in range(8)]
    cases.append((antichain(3), [1, 0, 4]))
    found = {True: 0, False: 0}
    for P, domains in cases:
        want = reference_arc_consistent(P, domains)
        assert wadge._arc_consistent(P, domains) == want
        found[want is not None] += 1
    assert wadge._arc_consistent(antichain(3), [1, 0, 4]) is None
    assert min(found.values()) > 100


@pytest.mark.parametrize(
    "case",
    ["wadge-n5", "any-and-partitions-n4", "partitions-n5", "fans", "random-6-8", "open-families-4-8"],
)
def test_degree_structure_matches_reference_oracle(case):
    """Classes, representatives, order, Hasse diagram and diagnostics.

    The reference searches every pair, so on subsets it checks the level
    theorem that lets ``degree_structure`` skip the search outside equal
    Delta levels.  The open families are not closed under complement:
    random samples with duplicates, and shuffled families holding some
    complement pairs whole and one side of the others.  Their SLO pass
    tests complements that are not items, whose levels are read off
    their sets' levels.
    """
    rng = random.Random(f"quotient-{case}")
    runs = []
    if case == "wadge-n5":
        for n in range(1, 6):
            runs += [(P, all_subsets(P), ReducibilityKind.WADGE) for P in all_posets(n)]
    elif case == "any-and-partitions-n4":
        for n in range(1, 5):
            for P in all_posets(n):
                runs.append((P, all_subsets(P), ReducibilityKind.ALL_FUNCTIONS))
                parts = [random_partition(rng, P, 3) for _ in range(30)]
                runs += [(P, parts, kind) for kind in ReducibilityKind]
    elif case == "partitions-n5":
        # every 3-partition of a 3-chain plus two points and of a V beside a
        # 2-chain: 37 and 48 classes, hundreds of strict pairs
        for covers in ([(2, 3), (3, 4)], [(0, 4), (1, 4), (2, 3)]):
            P = build_poset("01234", [(str(a), str(b)) for a, b in covers])
            parts = [KPartition(P.space_id, 3, c) for c in product(range(3), repeat=5)]
            runs.append((P, parts, ReducibilityKind.WADGE))
    elif case == "fans":
        runs = [(F, all_subsets(F), ReducibilityKind.WADGE) for F in (fan(1).space, fan(2).space)]
    elif case == "random-6-8":
        for _ in range(20):
            P = random_poset(rng, rng.randint(6, 8))
            runs.append((P, all_subsets(P), ReducibilityKind.WADGE))
    else:
        spaces = [_crown6(), _fence6()] + [random_poset(rng, rng.randint(4, 8)) for _ in range(12)]
        for P in spaces:
            pool = [random_mask(rng, P) for _ in range(rng.randint(3, 12))]
            sample = [rng.choice(pool) for _ in range(rng.randint(10, 40))]
            partial = [A for A in all_subsets(P) if rng.random() < 0.6]
            rng.shuffle(partial)
            runs += [(P, items, kind) for items in (sample, partial) for kind in ReducibilityKind]
    for P, items, kind in runs:
        assert degree_structure(P, items, kind) == reference_degree_structure(P, items, kind)


def test_non_transitive_relation_is_rejected(monkeypatch):
    """A search result that breaks transitivity fails the order's validation."""
    X = antichain(3)
    # the 2-partitions of the singletons {ai}: every color class is clopen,
    # so all three share one signature and every pair goes to the search
    items = [KPartition.from_subset(X.mask_from_indices([i])) for i in range(3)]
    reduced = {(0, 1), (1, 2)}  # {a0} < {a1} < {a2}, but not {a0} < {a2}

    def fake_search_map(P, domains):
        # the domains of {ai} into {aj}: element i may only go to j
        i = next(x for x, d in enumerate(domains) if d.bit_count() == 1)
        j = domains[i].bit_length() - 1
        return (j,) * P.n if (i, j) in reduced else None

    monkeypatch.setattr(wadge, "_search_map", fake_search_map)
    with pytest.raises(ValueError, match="transitive"):
        degree_structure(X, items, ReducibilityKind.WADGE)


def test_fan3_quotient_is_decided(monkeypatch):
    calls = {"search": 0, "classify": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(wadge, "_search_map", counted("search", wadge._search_map))
    monkeypatch.setattr(wadge, "classify", counted("classify", wadge.classify))
    X = fan(3).space
    items = all_subsets(X, cap=12)
    D = degree_structure(X, items)
    monkeypatch.undo()
    # fan(3) has no ProperDelta subsets, so the level theorem decides every
    # pair; one classify per complement pair
    assert calls == {"search": 0, "classify": 2048}
    assert [len(c) for c in D.classes] == [1, 120, 120, 615, 615, 840, 840, 408, 408, 64, 64, 1]
    assert sum(map(len, D.classes)) == 4096
    assert len(D.strict_order) == 60
    assert D.diagnostics.max_antichain == 2 and not D.diagnostics.slo_violations
    for members, rep in zip(D.classes, D.representatives):
        R = items[rep]
        for idx in members:
            for src, dst in ((items[idx], R), (R, items[idx])):
                f = wadge_reduces(X, src, dst)
                assert f is not None and is_monotone(X, f) and f.preimage(dst) == src
    reps = [items[r] for r in D.representatives]
    strict = set(D.strict_order)
    for i, j in permutations(range(D.class_count), 2):
        found = reference_reduces(X, reps[i], reps[j], ReducibilityKind.WADGE)
        assert found == ((i, j) in strict)


def test_slow_fan_pair_has_witness():
    """A fan(10) pair whose unpruned search ran for seconds."""
    X = fan(10).space
    A = X.mask_from_int(219781402680744741207)
    B = X.mask_from_int(169575656041065458280)
    f = wadge_reduces(X, A, B)
    assert f is not None and is_monotone(X, f) and f.preimage(B) == A


def _incomparability(up):
    k = len(up)
    return [[not (up[i] >> j | up[j] >> i) & 1 for j in range(k)] for i in range(k)]


def test_width_of_a_long_chain_or_antichain_does_not_recurse():
    assert _width(antichain(1100)._up_int) == 1100
    assert _width(chain(1100)._up_int) == 1
    assert _width(()) == 0


def test_width_matches_reference_max_clique():
    """Dilworth's width equals the largest clique of the incomparability graph."""
    posets = [P for n in range(1, 7) for P in all_posets(n)]
    rng = random.Random(11)
    posets += [random_poset(rng, n) for n in range(1, 15) for _ in range(20)]
    for P in posets:
        assert _width(P._up_int) == reference_max_clique(_incomparability(P._up_int))


def test_subset_quotient_width_matches_reference_max_clique():
    """Every subset quotient with n <= 6: its max_antichain is the oracle's clique."""
    for n in range(1, 7):
        for P in all_posets(n):
            Q = subset_quotient(P)
            up = [1 << i for i in range(len(Q.class_reps))]
            for i, j in Q.strict_order:
                up[i] |= 1 << j
            assert Q.diagnostics.max_antichain == reference_max_clique(_incomparability(up))


def _three_partition_quotient(monkeypatch, X, kind=ReducibilityKind.WADGE):
    """The quotient of all 3-partitions of X and its kernel searches, counted at ``_domains``."""
    searches = []
    domains = wadge._domains

    def spy(P, a, b):
        searches.append(None)
        return domains(P, a, b)

    monkeypatch.setattr(wadge, "_domains", spy)
    D = degree_structure(X, [KPartition(X.space_id, 3, c) for c in product(range(3), repeat=X.n)], kind)
    monkeypatch.undo()
    return D, len(searches)


def test_fan2_all_three_partitions_quotient_is_pinned(monkeypatch):
    """All 6,561 3-partitions of fan(2): 183 classes, width 66, no SLO violation, 28,463 searches."""
    D, searches = _three_partition_quotient(monkeypatch, fan(2).space)
    assert (D.class_count, len(D.strict_order)) == (183, 2883)
    assert D.diagnostics.max_antichain == 66 and not D.diagnostics.slo_violations
    assert searches == 28463


@pytest.mark.parametrize(
    "covers, kind, classes, searches",
    [
        ([(2, 3), (3, 4)], ReducibilityKind.WADGE, 37, 670),
        ([(0, 4), (1, 4), (2, 3)], ReducibilityKind.WADGE, 48, 957),
        # on the discrete order the classes are the sets of colors used
        ([(2, 3), (3, 4)], ReducibilityKind.ALL_FUNCTIONS, 7, 484),
        ([(0, 4), (1, 4), (2, 3)], ReducibilityKind.ALL_FUNCTIONS, 7, 484),
    ],
    ids=["chain3+2", "V+chain2", "chain3+2-any", "V+chain2-any"],
)
def test_benchmark_three_partition_quotients_are_pinned(monkeypatch, covers, kind, classes, searches):
    """All 243 3-partitions of the benchmark's two 5-element spaces: classes and kernel searches."""
    names = [f"q{i}" for i in range(5)]
    X = build_poset(names, [(names[a], names[b]) for a, b in covers])
    D, count = _three_partition_quotient(monkeypatch, X, kind)
    assert (D.class_count, count) == (classes, searches)
