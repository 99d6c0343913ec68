"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Criterion 4 asserts completeness of every proper
level at its face value; finite posets without extremal elements refute
it for self-dual levels (a four-element order already does), so that
test fails by design and prints the measured counterexamples.  The
analysis lives in the test docstring below.
"""

from __future__ import annotations

import random
import time

from finwadge import (
    ReducibilityKind,
    chain,
    classify,
    constant_partitions,
    degree_embedding_check,
    degree_structure,
    expected_structure,
    fan,
    is_retraction,
    level_leq,
    oracle_level,
    poset_isomorphic,
    wadge_reduces,
)
from finwadge.enumeration import (
    all_posets,
    random_mask,
    random_monotone_map,
    random_poset,
    random_retraction,
)
from finwadge.poset import FinitePoset
from finwadge.verify import level_degree_findings, suite_finite_t0_very_good
from finwadge.wadge import all_subsets


def _report(num: int, name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {name} ({elapsed:.2f}s / budget {budget:.0f}s){tail}")
    assert ok, f"criterion {num}: {name}{tail}"
    assert elapsed <= budget, f"criterion {num} exceeded its time budget"


def test_criterion_1_dimension_exactness():
    t0 = time.monotonic()
    ok = all(chain(n).dimension() == n - 1 for n in range(9))
    _report(1, "dimension(chain(n)) == n-1 for n = 0..8", ok, t0, 1.0)


def test_criterion_2_finite_t0_very_good():
    t0 = time.monotonic()
    result = suite_finite_t0_very_good(5)
    detail = f"{result.checked} poset types, findings: {len(result.findings)}"
    for line in result.findings:
        print("  finding:", line)
    _report(2, "all-subset Wadge structures on <=5 elements are finitely very good",
            result.passed and result.checked == 87, t0, 600.0, detail)


def test_criterion_3_classifier_oracle_agreement():
    t0 = time.monotonic()
    mismatches = []
    checked = 0
    for n in range(1, 5):
        for P in all_posets(n):
            for A in all_subsets(P):
                checked += 1
                if classify(P, A) != oracle_level(P, A):
                    mismatches.append((P.hasse_edges(), A.bitstring()))
    rng = random.Random(20260811)
    for _ in range(1000):
        P = random_poset(rng, rng.randint(5, 8))
        A = random_mask(rng, P)
        checked += 1
        if classify(P, A) != oracle_level(P, A):
            mismatches.append((P.hasse_edges(), A.bitstring()))
    _report(3, "classify == oracle_level exhaustively (<=4) and on 1000 random pairs (5..8)",
            not mismatches, t0, 300.0, f"{checked} subsets, {len(mismatches)} mismatches")


def test_criterion_4_level_degree_coherence():
    """Faithful form of the completeness claim; red by measurement.

    Subsets sharing a proper-Sigma or proper-Pi label are mutually
    reducible on every finite poset, and lower Sigma levels reduce
    strictly into higher ones (the level theorem of degree_structure).
    The same claim for proper-Delta labels is refuted by the
    four-element order e0<e2, e0<e3, e1<e3: the two Delta(2) sets
    {e1,e2} and {e0,e3} are complement-dual and mutually irreducible
    (checkable against all 31 monotone self-maps).  Thirteen of the 87
    types up to five elements split this way, eleven into 2 degrees and
    two into 3, and the structures stay semi-well-ordered, so criterion
    2 is unaffected.  The criterion is asserted as stated and the
    violations are printed as findings.
    """
    t0 = time.monotonic()
    findings = []
    for n in range(1, 6):
        for P in all_posets(n):
            findings.extend(level_degree_findings(P))
    for line in findings:
        print("  finding:", line)
    _report(4, "subsets sharing a level label are equivalent; Sigma levels nest strictly",
            not findings, t0, 600.0, f"{len(findings)} findings")


def test_criterion_5_all_functions_triviality():
    t0 = time.monotonic()
    rng = random.Random(5150)
    ok = True
    for _ in range(20):
        P = random_poset(rng, rng.randint(2, 6))
        D = degree_structure(P, all_subsets(P), ReducibilityKind.ALL_FUNCTIONS)
        if D.class_count != 3:
            ok = False
            continue
        minimal = set(D.minimal_classes())
        big = next(ci for ci in range(3) if len(D.classes[ci]) > 1)
        ok = ok and len(minimal) == 2 and big not in minimal
        ok = ok and all((ci, big) in set(D.strict_order) for ci in minimal)
    _report(5, "all-functions quotient has exactly 3 classes, one above the two trivial ones",
            ok, t0, 60.0)


def test_criterion_6_constant_partition_antichain():
    t0 = time.monotonic()
    ok = True
    for space in (chain(3), fan(1).space):
        for k in (3, 4):
            parts = constant_partitions(space, k)
            D = degree_structure(space, parts)
            ok = ok and D.class_count == k and not D.strict_order
            ok = ok and D.diagnostics.max_antichain == k
            ok = ok and not D.diagnostics.finitely_very_good
    _report(6, "constant 3- and 4-partitions are pairwise irreducible with antichain k",
            ok, t0, 1.0)


def test_criterion_7_fan_fixture_fidelity():
    t0 = time.monotonic()
    ok = True
    for N in range(1, 5):
        built = fan(N)
        X, A, B = built.space, built.sets["A"], built.sets["B"]
        bot, top = X.index("bot"), X.index("top")
        ok = ok and not A.has(bot) and not B.has(bot)
        ok = ok and A.has(top) and not B.has(top)
        for n in range(N + 1):
            for k in range(n + 1):
                ok = ok and A.has(X.index(f"c{n}_{k}")) == (k % 2 == 0)
        ok = ok and all(X.is_open(built.sets[f"D{i}"]) for i in range(N + 1))
    _report(7, "fan membership pattern, extremes, and open D-sets for N = 1..4", ok, t0, 1.0)


def _quotient_poset(D) -> FinitePoset:
    k = D.class_count
    strict = set(D.strict_order)
    leq = tuple(tuple(i == j or (i, j) in strict for j in range(k)) for i in range(k))
    return FinitePoset(tuple(f"d{i}" for i in range(k)), leq)


def test_criterion_8_fan2_quotient_shape():
    t0 = time.monotonic()
    X = fan(2).space
    first = degree_structure(X, all_subsets(X))
    second = degree_structure(X, all_subsets(X))
    deterministic = (
        first.classes == second.classes
        and first.strict_order == second.strict_order
        and first.hasse == second.hasse
    )
    Q = _quotient_poset(first)
    matches = {}
    for k in range(1, 5):
        expected = expected_structure(k)
        matches[k] = poset_isomorphic(Q, expected) is not None
        print(f"  fan(2) quotient vs (pair-ladder of {k}) + 4-antichain "
              f"({expected.n} classes vs {Q.n}): {'isomorphic' if matches[k] else 'not isomorphic'}")
    best = max(range(1, 5), key=lambda k: (matches[k], -abs(expected_structure(k).n - Q.n)))
    print(f"  best match: k={best} "
          f"({'exact' if matches[best] else 'size-closest only; truncations have a 2-wide top'})")
    minimal = first.minimal_classes()
    bottom_reps = {first.items[first.representatives[c]].count() for c in minimal}
    bottom_ok = len(minimal) == 2 and bottom_reps == {0, X.n}
    strict = set(first.strict_order)
    covers_of_bottom = {
        j
        for (i, j) in first.hasse
        if i in minimal
    }
    next_labels = {
        classify(X, first.items[first.representatives[j]]).label for j in covers_of_bottom
    }
    pair_ok = next_labels == {"ProperSigma(1)", "ProperPi(1)"} and all(
        (i, j) in strict for i in minimal for j in covers_of_bottom
    )
    _report(8, "fan(2) quotient computed deterministically with the correct bottom pair pattern",
            deterministic and bottom_ok and pair_ok, t0, 600.0,
            f"{first.class_count} classes")


def test_criterion_9_retraction_embedding():
    t0 = time.monotonic()
    rng = random.Random(990077)
    bad = 0
    found = 0
    while found < 50:
        P = random_poset(rng, rng.randint(2, 5))
        got = random_retraction(rng, P)
        if got is None:
            continue
        Y, r = got
        assert is_retraction(P, Y, r)
        sample = [A for A in all_subsets(P) if A.is_subset(Y)]
        report = degree_embedding_check(P, Y, r, sample)
        if not report.exact:
            bad += 1
        found += 1
    _report(9, "50 random retractions preserve and reflect reducibility on all subsets",
            bad == 0, t0, 300.0, f"{found} triples")


def test_criterion_10_duality_and_preimage_closure():
    t0 = time.monotonic()
    rng = random.Random(101010)
    violations = 0
    for _ in range(1000):
        P = random_poset(rng, rng.randint(2, 6))
        A = random_mask(rng, P)
        B = random_mask(rng, P)
        f = wadge_reduces(P, A, B)
        g = wadge_reduces(P, A.complement(), B.complement())
        if (f is None) != (g is None):
            violations += 1
        elif f is not None and f.preimage(B.complement()) != A.complement():
            violations += 1
    for _ in range(1000):
        P = random_poset(rng, rng.randint(2, 6))
        B = random_mask(rng, P)
        f = random_monotone_map(rng, P)
        if not level_leq(classify(P, f.preimage(B)), classify(P, B)):
            violations += 1
    _report(10, "duality and monotone-preimage closure on 1000 random instances each",
            violations == 0, t0, 120.0, f"{violations} violations")
