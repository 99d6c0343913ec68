"""Batch property suites over exhaustively enumerated small posets.

Each suite walks every isomorphism type up to the requested size, checks
one family of properties, and reports findings instead of asserting
silently; the CLI turns a failed suite into exit code 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .enumeration import POSET_COUNTS, all_posets
from .errors import CapExceeded
from .hierarchy import classify, oracle_level
from .poset import FinitePoset
from .wadge import ReducibilityKind, all_subsets, degree_structure, wadge_reduces

MAX_ENUM_SIZE = 5


@dataclass
class VerifyResult:
    suite: str
    passed: bool
    checked: int
    lines: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)


def _describe(P: FinitePoset) -> str:
    edges = [f"({P.labels[i]},{P.labels[j]})" for i, j in P.hasse_edges()]
    return f"n={P.n} covers=[{' '.join(edges)}]"


def _sizes(max_size: int) -> range:
    if max_size > MAX_ENUM_SIZE:
        raise CapExceeded(f"exhaustive enumeration is capped at {MAX_ENUM_SIZE} elements")
    if max_size < 1:
        raise CapExceeded("size bound must be at least 1")
    return range(1, max_size + 1)


def _enumerate_checked(result: VerifyResult, size: int) -> list[FinitePoset]:
    posets = all_posets(size)
    expected = POSET_COUNTS[size]
    if len(posets) != expected:
        result.findings.append(
            f"enumeration self-test failed at n={size}: got {len(posets)}, expected {expected}"
        )
    result.lines.append(f"n={size}: {len(posets)} poset types")
    return posets


def suite_finite_t0_very_good(max_size: int) -> VerifyResult:
    """All-subsets Wadge structure has antichains <= 2 and no SLO violations."""
    result = VerifyResult("finite-t0-very-good", True, 0)
    for size in _sizes(max_size):
        for P in _enumerate_checked(result, size):
            D = degree_structure(P, all_subsets(P), ReducibilityKind.WADGE)
            result.checked += 1
            if D.diagnostics.max_antichain > 2:
                result.findings.append(
                    f"antichain {D.diagnostics.max_antichain} > 2 on {_describe(P)}"
                )
            for i, j in D.diagnostics.slo_violations:
                ri = P.members(D.items[D.representatives[i]])
                rj = P.members(D.items[D.representatives[j]])
                result.findings.append(f"SLO violation on {_describe(P)}: {ri} vs {rj}")
    result.passed = not result.findings
    return result


def suite_classify_oracle(max_size: int) -> VerifyResult:
    """classify agrees with the definitional brute-force oracle."""
    result = VerifyResult("classify-oracle", True, 0)
    for size in _sizes(max_size):
        for P in _enumerate_checked(result, size):
            for A in all_subsets(P):
                got = classify(P, A)
                want = oracle_level(P, A)
                result.checked += 1
                if got != want:
                    result.findings.append(
                        f"mismatch on {_describe(P)} subset {P.members(A)}: "
                        f"classify={got.label} oracle={want.label}"
                    )
    result.passed = not result.findings
    return result


def suite_duality(max_size: int) -> VerifyResult:
    """Complement symmetry of levels and of reductions (same witness)."""
    result = VerifyResult("duality", True, 0)
    for size in _sizes(max_size):
        for P in _enumerate_checked(result, size):
            subsets = all_subsets(P)
            for A in subsets:
                lv = classify(P, A)
                lv_c = classify(P, A.complement())
                result.checked += 1
                if (lv.sigma_rank, lv.pi_rank) != (lv_c.pi_rank, lv_c.sigma_rank):
                    result.findings.append(
                        f"level duality fails on {_describe(P)} subset {P.members(A)}"
                    )
            for A in subsets:
                for B in subsets:
                    f = wadge_reduces(P, A, B)
                    result.checked += 1
                    if f is None:
                        if wadge_reduces(P, A.complement(), B.complement()) is not None:
                            result.findings.append(
                                f"reduction duality fails on {_describe(P)}: "
                                f"{P.members(A)} vs {P.members(B)}"
                            )
                    elif f.preimage(B.complement()) != A.complement():
                        result.findings.append(
                            f"witness does not dualize on {_describe(P)}: "
                            f"{P.members(A)} -> {P.members(B)}"
                        )
    result.passed = not result.findings
    return result


SUITES = {
    "finite-t0-very-good": suite_finite_t0_very_good,
    "classify-oracle": suite_classify_oracle,
    "duality": suite_duality,
}


def run_suite(name: str, max_size: int) -> VerifyResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    # called through its module binding, so a wrapper installed there (the
    # benchmark's tracer) sees the call
    return globals()[SUITES[name].__name__](max_size)


def level_degree_findings(P: FinitePoset) -> list[str]:
    """Findings against level-degree coherence over all subsets of P.

    Subsets with the same difference level must be mutually reducible,
    and representatives of lower proper levels must reduce strictly into
    higher ones.  Returns human-readable violations; empty means coherent.
    """
    findings: list[str] = []
    subsets = all_subsets(P)
    D = degree_structure(P, subsets, ReducibilityKind.WADGE)
    levels = [classify(P, A) for A in subsets]
    class_of = {}
    for ci, members in enumerate(D.classes):
        for m in members:
            class_of[m] = ci
    by_label: dict[str, set[int]] = {}
    for idx, lv in enumerate(levels):
        by_label.setdefault(lv.label, set()).add(class_of[idx])
    for lab in sorted(by_label):
        if len(by_label[lab]) > 1:
            findings.append(f"{_describe(P)}: label {lab} splits into {len(by_label[lab])} degrees")
    strict = set(D.strict_order)
    for kind in ("ProperSigma", "ProperPi"):
        ranked = sorted(
            (levels[rep].level, ci)
            for ci, rep in enumerate(D.representatives)
            if levels[rep].label.startswith(kind)
        )
        for (m, ci), (n_, cj) in zip(ranked, ranked[1:]):
            if m < n_ and (ci, cj) not in strict:
                findings.append(
                    f"{_describe(P)}: {kind}({m}) does not sit strictly below {kind}({n_})"
                )
    return findings
