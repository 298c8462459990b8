"""The simple switching move: feasibility, counting bounds, random draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglab import (
    BiregularMatrix,
    InfeasibleSwitchError,
    NoSwitchError,
    Switch,
    all_ones,
    apply_switch,
    block_diagonal,
    build,
    can_perform,
    circulant,
    count_with_bounds,
    dedup_switches,
    enumerate_all,
    enumerate_switches,
    identity,
    per_entry_counts,
    random_switch,
)
from dreglab.switching import _switched_rows

# ─── independent oracle: quartic scan over the dense matrix ──────────────────


def dense_rows(a: BiregularMatrix) -> list[list[int]]:
    """``a`` as dense 0/1 rows, expanded here rather than by the code under test."""
    return [[int(t in support) for t in range(a.n)] for support in a.row_supports]


def brute_force_switches(a: BiregularMatrix) -> set[Switch]:
    m = np.array(dense_rows(a))
    n = a.n
    out = set()
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                for l in range(n):
                    if m[i, k] == 1 and m[j, l] == 1 and m[i, l] == 0 and m[j, k] == 0:
                        out.add(Switch(i, j, k, l))
    return out


FIXTURES = [
    identity(4),
    identity(5),
    block_diagonal(2, 2),
    block_diagonal(3, 2),
    circulant(5, 2),
    circulant(6, 3),
    all_ones(4),
]


def test_enumeration_matches_brute_force():
    for a in FIXTURES:
        assert set(enumerate_switches(a)) == brute_force_switches(a)


def test_frozen_counts():
    assert len(list(enumerate_switches(identity(4)))) == 12
    assert len(list(enumerate_switches(identity(5)))) == 20
    assert len(list(enumerate_switches(block_diagonal(2, 2)))) == 32
    assert len(list(enumerate_switches(block_diagonal(3, 2)))) == 96
    assert len(list(enumerate_switches(all_ones(4)))) == 0


def test_extremal_formulas():
    # permutation matrices sit at the lower bound n(n-1) when d = 1
    for n in (2, 3, 10, 17):
        assert count_with_bounds(identity(n)).total == n * (n - 1)
    # block-diagonals of d x d all-ones blocks sit at the upper bound
    for m, d in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        n = m * d
        assert count_with_bounds(block_diagonal(m, d)).total == n * (n - d) * d * d


def test_count_bounds_formula():
    for a in FIXTURES:
        c = count_with_bounds(a)
        n, d = a.n, a.d
        assert c.lower_bound == n * (n - d) * d * d - n * d * (d - 1) ** 2
        assert c.upper_bound == n * (n - d) * d * d
        assert c.lower_bound <= c.total <= c.upper_bound


def test_per_entry_bounds():
    for a in FIXTURES:
        n, d = a.n, a.d
        counts = per_entry_counts(a)
        assert set(counts) == set(a.ones())
        for q in counts.values():
            assert (n - d) * d - (d - 1) ** 2 <= q <= (n - d) * d
        # each feasible tuple is charged to its (i, k) one-entry
        assert sum(counts.values()) == count_with_bounds(a).total


def test_feasibility_flags():
    b = block_diagonal(2, 2)
    assert can_perform(b, Switch(0, 2, 0, 2))
    assert not can_perform(b, Switch(0, 1, 0, 1))  # a_il = 1
    assert not can_perform(b, Switch(0, 0, 0, 1))  # i == j
    with pytest.raises(IndexError):
        can_perform(b, Switch(0, 4, 0, 2))


def test_apply_flips_exactly_four_entries():
    b = block_diagonal(2, 2)
    sw = Switch(0, 2, 0, 2)
    after = apply_switch(b, sw)
    m0 = np.array(dense_rows(b))
    m1 = np.array(dense_rows(after))
    diff = np.argwhere(m0 != m1)
    assert sorted(map(tuple, diff.tolist())) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert m1[0, 0] == 0 and m1[0, 2] == 1 and m1[2, 2] == 0 and m1[2, 0] == 1


def test_apply_rejects_infeasible():
    with pytest.raises(InfeasibleSwitchError):
        apply_switch(block_diagonal(2, 2), Switch(0, 1, 0, 1))


def _dense_flip(a: BiregularMatrix, sw: Switch) -> tuple[tuple[int, ...], ...]:
    m = np.array(dense_rows(a))
    i, j, k, l = sw
    m[i, k] = m[j, l] = 0
    m[i, l] = m[j, k] = 1
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in m)


def test_switched_rows_is_the_dense_flip():
    members = list(enumerate_all(4, 2))
    family = list(enumerate_all(5, 3))
    rng = np.random.default_rng(53)
    members += [family[int(t)] for t in rng.choice(len(family), size=40, replace=False)]
    for a in members:
        for sw in enumerate_switches(a):
            assert _switched_rows(a, sw) == _dense_flip(a, sw)


def test_reverse_and_mirror():
    sw = Switch(0, 2, 1, 3)
    assert sw.reverse() == Switch(0, 2, 3, 1)
    assert sw.mirror() == Switch(2, 0, 3, 1)
    b = block_diagonal(2, 2)
    for sw in enumerate_switches(b):
        after = apply_switch(b, sw)
        # reverse is feasible on the result and undoes the move
        assert apply_switch(after, sw.reverse()) == b
        # the mirror is a different name for the same move
        assert apply_switch(b, sw.mirror()) == after


def test_dedup_halves_ordered_count():
    for a in FIXTURES:
        ordered = list(enumerate_switches(a))
        deduped = dedup_switches(ordered)
        assert len(deduped) * 2 == len(ordered)
        assert deduped == sorted(deduped)
        # each class contributes exactly one representative
        assert {sw.canonical() for sw in ordered} == set(deduped)


def test_circulant_5_2_total_frozen():
    # 50 = brute-force count, inside [5*3*4 - 5*2*1, 5*3*4] = [50, 60]
    c = count_with_bounds(circulant(5, 2))
    assert c.total == len(brute_force_switches(circulant(5, 2))) == 50


def test_random_switch_is_feasible_and_covers():
    rng = np.random.default_rng(5)
    a = circulant(6, 2)
    seen = set()
    for _ in range(600):
        sw = random_switch(a, rng)
        assert can_perform(a, sw)
        seen.add(sw)
    assert seen == set(enumerate_switches(a))


def test_random_switch_none_available():
    with pytest.raises(NoSwitchError):
        random_switch(all_ones(3), np.random.default_rng(0), max_tries=50)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 8), st.data())
def test_switching_preserves_membership(n, data):
    d = data.draw(st.integers(1, n - 1))
    a = circulant(n, d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(5):
        sw = random_switch(a, rng)
        a = apply_switch(a, sw)  # build() inside revalidates both degree laws
    assert a.n == n and a.d == d


@settings(max_examples=10, deadline=None)
@given(st.permutations(list(range(6))))
def test_permutation_switch_count(perm):
    a = build(6, 1, [[p] for p in perm])
    assert count_with_bounds(a).total == 6 * 5
