"""Batch property suites over exhaustively enumerated small posets.

Each suite walks every isomorphism type up to the requested size, checks
one family of properties, and reports findings instead of asserting
silently; the CLI turns a failed suite into exit code 3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .enumeration import POSET_COUNTS, all_posets
from .errors import CapExceeded
from .hierarchy import classify, oracle_level
from .poset import FinitePoset
from .wadge import _reduction, _signatures, all_subsets, subset_quotient

MAX_ENUM_SIZE = 5


@dataclass
class VerifyResult:
    suite: str
    checked: int
    lines: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings


def _describe(P: FinitePoset) -> str:
    edges = [f"({P.labels[i]},{P.labels[j]})" for i, j in P.hasse_edges()]
    return f"n={P.n} covers=[{' '.join(edges)}]"


def _types(result: VerifyResult, max_size: int) -> Iterator[FinitePoset]:
    """Every poset type of size 1..max_size, one size at a time.

    Before a size's types are yielded, its count is checked against
    ``POSET_COUNTS`` and its line is added to the result.
    """
    if max_size > MAX_ENUM_SIZE:
        raise CapExceeded(f"exhaustive enumeration is capped at {MAX_ENUM_SIZE} elements")
    if max_size < 1:
        raise ValueError("size bound must be at least 1")
    for size in range(1, max_size + 1):
        posets = all_posets(size)
        expected = POSET_COUNTS[size]
        if len(posets) != expected:
            result.findings.append(
                f"enumeration self-test failed at n={size}: got {len(posets)}, expected {expected}"
            )
        result.lines.append(f"n={size}: {len(posets)} poset types")
        yield from posets


def suite_finite_t0_very_good(max_size: int) -> VerifyResult:
    """All-subsets Wadge structure has antichains <= 2 and no SLO violations."""
    result = VerifyResult("finite-t0-very-good", 0)
    for P in _types(result, max_size):
        D = subset_quotient(P)
        result.checked += 1
        if D.diagnostics.max_antichain > 2:
            result.findings.append(f"antichain {D.diagnostics.max_antichain} > 2 on {_describe(P)}")
        for i, j in D.diagnostics.slo_violations:
            ri = P.members(D.class_reps[i])
            rj = P.members(D.class_reps[j])
            result.findings.append(f"SLO violation on {_describe(P)}: {ri} vs {rj}")
    return result


def suite_classify_oracle(max_size: int) -> VerifyResult:
    """classify agrees with the definitional brute-force oracle."""
    result = VerifyResult("classify-oracle", 0)
    for P in _types(result, max_size):
        for A in all_subsets(P):
            got = classify(P, A)
            want = oracle_level(P, A)
            result.checked += 1
            if got != want:
                result.findings.append(
                    f"mismatch on {_describe(P)} subset {P.members(A)}: "
                    f"classify={got.label} oracle={want.label}"
                )
    return result


def suite_duality(max_size: int) -> VerifyResult:
    """Complement symmetry of levels and of reductions (same witness).

    The pair loop hands ``_reduction`` the signatures that ``_signatures``
    gives every subset, as every other pair decision does, so ``classify``
    is called here only in the level check, which tests ``classify`` itself.
    """
    result = VerifyResult("duality", 0)
    for P in _types(result, max_size):
        subsets = all_subsets(P)
        sig = dict(zip((A.value for A in subsets), _signatures(P, subsets)))
        for A in subsets:
            lv = classify(P, A)
            lv_c = classify(P, A.complement())
            result.checked += 1
            if lv_c != lv.complement():
                result.findings.append(f"level duality fails on {_describe(P)} subset {P.members(A)}")
        for A in subsets:
            A_c = A.complement()
            for B in subsets:
                B_c = B.complement()
                f = _reduction(P, A, B, sig[A.value], sig[B.value])
                result.checked += 1
                if f is None:
                    if _reduction(P, A_c, B_c, sig[A_c.value], sig[B_c.value]) is not None:
                        result.findings.append(
                            f"reduction duality fails on {_describe(P)}: "
                            f"{P.members(A)} vs {P.members(B)}"
                        )
                elif f.preimage(B_c) != A_c:
                    result.findings.append(
                        f"witness does not dualize on {_describe(P)}: "
                        f"{P.members(A)} -> {P.members(B)}"
                    )
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
    The level census gives each class its level.
    """
    findings: list[str] = []
    D = subset_quotient(P)
    levels = D.class_levels
    degrees = Counter(lv.label for lv in levels)
    for lab in sorted(degrees):
        if degrees[lab] > 1:
            findings.append(f"{_describe(P)}: label {lab} splits into {degrees[lab]} degrees")
    strict = set(D.strict_order)
    for kind, name in (("sigma", "ProperSigma"), ("pi", "ProperPi")):
        ranked = sorted((lv.level, ci) for ci, lv in enumerate(levels) if lv.kind == kind)
        for (m, ci), (n_, cj) in zip(ranked, ranked[1:]):
            if m < n_ and (ci, cj) not in strict:
                findings.append(
                    f"{_describe(P)}: {name}({m}) does not sit strictly below {name}({n_})"
                )
    return findings
