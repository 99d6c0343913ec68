from __future__ import annotations

import pytest

from finwadge import (
    antichain,
    chain,
    expected_structure,
    fan,
    lex_product,
    linear_sum,
    poset_isomorphic,
    truncated_c_infinity,
)

from conftest import reference_fan_sets


def test_chain_basics():
    assert chain(0).n == 0
    assert chain(1).dimension() == 0
    assert chain(4).dimension() == 3
    assert chain(0).dimension() == -1


def test_antichain_basics():
    assert poset_isomorphic(antichain(1), chain(1)) is not None
    assert sum(1 for _ in antichain(2).enumerate_opens()) == 4
    for n in (1, 3, 6):
        assert antichain(n).dimension() == 0
    assert antichain(0).n == 0
    with pytest.raises(ValueError):
        antichain(-1)


def test_linear_sum():
    assert poset_isomorphic(linear_sum(chain(1), chain(1)), chain(2)) is not None
    P = linear_sum(antichain(2), antichain(2))
    assert P.n == 4
    # both lower elements below both upper ones
    lows = [i for i, lab in enumerate(P.labels) if lab.startswith("l.")]
    ups = [i for i, lab in enumerate(P.labels) if lab.startswith("u.")]
    for i in lows:
        for j in ups:
            assert P.leq[i][j]


def test_lex_product():
    P = lex_product(antichain(2), chain(2))
    assert P.n == 4
    # two incomparable pairs stacked: each level-0 element below each level-1
    bottom = [i for i, lab in enumerate(P.labels) if lab.endswith(",0)")]
    top = [i for i, lab in enumerate(P.labels) if lab.endswith(",1)")]
    assert len(bottom) == len(top) == 2
    for i in bottom:
        assert not any(P.leq[i][j] for j in bottom if j != i)
        for j in top:
            assert P.leq[i][j]


def test_combinators_match_their_definitions():
    # P + Q puts P below Q; P * Q orders pairs by q first, then p
    factors = [chain(0), chain(3), antichain(2), fan(1).space, truncated_c_infinity(3)]
    for P in factors:
        for Q in factors:
            m = P.n
            S = linear_sum(P, Q)
            assert S.leq == tuple(
                tuple(
                    P.leq[i][j] if i < m and j < m
                    else Q.leq[i - m][j - m] if i >= m and j >= m
                    else i < m
                    for j in range(S.n)
                )
                for i in range(S.n)
            )
            L = lex_product(P, Q)
            pairs = [(p, q) for q in range(Q.n) for p in range(P.n)]
            assert L.labels == tuple(f"({P.labels[p]},{Q.labels[q]})" for p, q in pairs)
            assert L.leq == tuple(
                tuple(P.leq[p0][p1] if q0 == q1 else Q.leq[q0][q1] for p1, q1 in pairs)
                for p0, q0 in pairs
            )


def test_sizes_of_combinators():
    for p, q in ((1, 1), (2, 3), (3, 2)):
        assert linear_sum(chain(p), chain(q)).n == p + q
        assert lex_product(chain(p), chain(q)).n == p * q
    assert poset_isomorphic(lex_product(chain(2), chain(3)), chain(6)) is not None


def test_expected_structure_shape():
    P = expected_structure(2)
    assert P.n == 2 * 2 + 4
    # top antichain of four, all above everything else
    tops = [i for i, lab in enumerate(P.labels) if lab.startswith("u.")]
    assert len(tops) == 4
    for i in tops:
        for j in tops:
            assert (i == j) == P.leq[i][j]


def test_truncated_descending_chain():
    P = truncated_c_infinity(4)
    assert poset_isomorphic(P, chain(4)) is not None
    # 0 sits on top: its up-set is itself
    assert P.members(P.up_set("0")) == ("0",)
    assert P.dimension() == 3
    t = P.derivative_trace()
    assert t.stages[1] == P.full_mask().difference(P.mask(["0"]))


def test_fan_zero():
    built = fan(0)
    assert built.space.n == 3
    assert poset_isomorphic(built.space, chain(3)) is not None
    assert set(built.space.members(built.sets["A"])) == {"c0_0", "top"}
    assert set(built.space.members(built.sets["B"])) == {"c0_0"}


def test_fan_one_membership():
    built = fan(1)
    X = built.space
    A = built.sets["A"]
    got = {name: A.has(X.index(name)) for name in ("bot", "c1_1", "c1_0", "top")}
    assert got == {"bot": False, "c1_1": False, "c1_0": True, "top": True}


@pytest.mark.parametrize("N", range(5))
def test_fan_invariants(N):
    built = fan(N)
    X = built.space
    A, B = built.sets["A"], built.sets["B"]
    assert X.n == (N + 1) * (N + 2) // 2 + 2
    for n in range(N + 1):
        for k in range(n + 1):
            assert A.has(X.index(f"c{n}_{k}")) == (k % 2 == 0)
            assert B.has(X.index(f"c{n}_{k}")) == (k % 2 == 0)
    bot, top = X.index("bot"), X.index("top")
    assert not A.has(bot) and not B.has(bot)
    assert A.has(top) and not B.has(top)
    assert B == A.difference(X.mask(["top"]))
    for i in range(N + 1):
        D = built.sets[f"D{i}"]
        assert X.is_open(D)
        if i:
            assert built.sets[f"D{i-1}"].is_subset(D)


@pytest.mark.parametrize("N", range(9))
def test_fan_sets_match_the_label_set_construction(N):
    built = fan(N)
    assert list(built.sets.items()) == list(reference_fan_sets(built.space, N).items())


def test_fan_bottom_and_top_are_extremes():
    X = fan(2).space
    assert X.up_set("bot") == X.full_mask()
    assert X.down_set("top") == X.full_mask()
