"""Library input errors, each pinned by its exception type and message.

The cases also pin the answers of checks that report bad input by
returning False rather than raising: ``is_retraction`` on a map that is
not monotone or leaves Y, and each way a chain can fail
``is_alternating``.
"""

from __future__ import annotations

import pytest

from finwadge import (
    AlternatingChain,
    DuplicateLabelError,
    FinitePoset,
    KPartition,
    MonotoneMap,
    SpaceMismatch,
    SubsetMask,
    UnknownElement,
    antichain,
    chain,
    constant_partitions,
    degree_embedding_check,
    degree_structure,
    is_monotone,
    is_retraction,
    partition_reduces,
)
from finwadge.enumeration import all_posets
from finwadge.hierarchy import is_alternating

X = chain(3)  # 0 < 1 < 2
Y = antichain(2)
IDENTITY = MonotoneMap(X.space_id, (0, 1, 2))
ELSEWHERE = MonotoneMap(Y.space_id, (0, 1))
MIDDLE = X.mask(["1"])

CASES = [
    ("duplicate-labels", lambda: FinitePoset(("a", "a"), (1, 2)),
     DuplicateLabelError("element labels must be distinct")),
    ("row-count", lambda: FinitePoset(("a", "b"), (1,)),
     ValueError("leq matrix shape does not match label count")),
    ("bool-row-length", lambda: FinitePoset(("a", "b"), ((True, False), (True,))),
     ValueError("leq matrix shape does not match label count")),
    ("index-out-of-range", lambda: X.index(3), UnknownElement("index 3 out of range")),
    ("mask-index-out-of-range", lambda: X.mask_from_indices([0, 3]), UnknownElement("index 3 out of range")),
    ("mask-bad-bit", lambda: X.mask_from_bits("0x1"), ValueError("bad bit 'x' in bit string")),
    ("mask-bits-length", lambda: X.mask_from_bits("01"), ValueError("bit vector has length 2, expected 3")),
    ("check-mask-size", lambda: X.check_mask(SubsetMask(X.space_id, 2, 0)),
     SpaceMismatch("mask length does not match the space")),
    ("preimage-across-spaces", lambda: IDENTITY.preimage(Y.full_mask()),
     SpaceMismatch("mask belongs to a different space")),
    ("compose-across-spaces", lambda: IDENTITY.compose(ELSEWHERE), SpaceMismatch("maps belong to different spaces")),
    ("compose-with-across-spaces", lambda: KPartition(X.space_id, 2, (0, 1, 1)).compose_with(ELSEWHERE),
     SpaceMismatch("map belongs to a different space")),
    ("monotone-map-length", lambda: is_monotone(X, (0, 1)), SpaceMismatch("map length does not match the space")),
    ("no-constant-partitions", lambda: constant_partitions(X, 0), ValueError("a partition needs at least one color")),
    ("partition-length",
     lambda: partition_reduces(X, KPartition(X.space_id, 2, (0, 1)), KPartition(X.space_id, 2, (0, 1, 1))),
     SpaceMismatch("partition length does not match the space")),
    ("mixed-items", lambda: degree_structure(X, [X.full_mask(), KPartition.constant(X, 2, 0)]),
     TypeError("items must be all subsets or all partitions")),
    ("retraction-across-spaces", lambda: is_retraction(X, X.full_mask(), MonotoneMap(Y.space_id, (0, 1, 2))),
     SpaceMismatch("map belongs to a different space")),
    ("retraction-not-monotone", lambda: is_retraction(X, X.full_mask(), MonotoneMap(X.space_id, (2, 1, 0))), False),
    ("retraction-leaves-the-retract", lambda: is_retraction(X, X.mask(["0", "2"]), IDENTITY), False),
    ("sample-outside-the-retract",
     lambda: degree_embedding_check(X, X.mask(["0"]), MonotoneMap(X.space_id, (0, 0, 0)), [MIDDLE]),
     SpaceMismatch("sample subset is not contained in the retract")),
    ("no-posets-of-size-0", lambda: all_posets(0), ValueError("poset enumeration starts at one element")),
    ("alternating-wrong-start", lambda: is_alternating(X, MIDDLE, AlternatingChain((0, 1), True)), False),
    ("alternating-not-increasing", lambda: is_alternating(X, MIDDLE, AlternatingChain((1, 0), True)), False),
    ("alternating-no-alternation", lambda: is_alternating(X, MIDDLE, AlternatingChain((0, 2), False)), False),
    ("map-call", lambda: MonotoneMap(X.space_id, (2, 0, 1))(0), 2),
]


@pytest.mark.parametrize("call, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_library_input_answer(call, expected):
    """An exception of exactly the expected type and message, or exactly the expected value."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            call()
        assert type(raised.value) is type(expected) and str(raised.value) == str(expected)
    else:
        got = call()
        assert type(got) is type(expected) and got == expected
