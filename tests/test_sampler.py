"""Samplers and exhaustive enumeration, checked against counting oracles."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglab import (
    RejectionBudgetExceeded,
    SamplerConfig,
    SizeGuardError,
    all_ones,
    build,
    chi_square_uniform,
    circulant,
    count_all,
    draw_sample,
    enumerate_all,
    sample_stub,
    serialize,
    trial_rng,
)
from dreglab import sampler

# ─── independent oracles ─────────────────────────────────────────────────────


def brute_force_family(n: int, d: int) -> set:
    """All d-biregular matrices by filtering every way to pick row supports."""
    members = set()
    supports = list(itertools.combinations(range(n), d))
    for choice in itertools.product(supports, repeat=n):
        counts = [0] * n
        for row in choice:
            for t in row:
                counts[t] += 1
        if all(c == d for c in counts):
            members.add(build(n, d, choice))
    return members


def family_count_recurrence(n: int) -> int:
    """|A_{n,2}| via a(n) = n(n-1)/2 * (2 a(n-1) + (n-1) a(n-2)).

    Seeds a(2) = 1, a(3) = 6 are the brute-force counts; the step follows
    from classifying how the last row/column pair attaches to a smaller
    instance. Independent of the enumerator under test.
    """
    a = {2: 1, 3: 6}
    for m in range(4, n + 1):
        a[m] = m * (m - 1) // 2 * (2 * a[m - 1] + (m - 1) * a[m - 2])
    return a[n]


def test_enumerate_matches_brute_force():
    for n, d in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (4, 4)]:
        got = list(enumerate_all(n, d))
        assert len(got) == len(set(got)), "duplicates emitted"
        assert set(got) == brute_force_family(n, d)


def test_frozen_family_sizes():
    assert [count_all(n, 1) for n in range(1, 7)] == [1, 2, 6, 24, 120, 720]
    assert [count_all(n, 2) for n in range(2, 7)] == [1, 6, 90, 2040, 67950]
    # complementary supports give a size-preserving bijection d <-> n-d
    assert count_all(4, 3) == count_all(4, 1) == 24
    assert count_all(5, 3) == count_all(5, 2) == 2040
    assert count_all(6, 5) == count_all(6, 1) == 720


def test_d2_recurrence_agrees():
    for n in (3, 4, 5, 6):
        assert count_all(n, 2) == family_count_recurrence(n)


def test_enumeration_order_deterministic():
    first = list(enumerate_all(4, 2))
    second = list(enumerate_all(4, 2))
    assert first == second


def test_size_guard():
    with pytest.raises(SizeGuardError):
        list(enumerate_all(8, 3))
    with pytest.raises(SizeGuardError):
        count_all(30, 2)
    # n = 7 and 8 pass the guard when d or n - d is at most 1: at most 8! members
    assert count_all(8, 1) == 40320
    assert count_all(7, 7) == count_all(8, 8) == 1


@pytest.mark.parametrize("n, d", [(16, 1), (9, 1), (7, 2), (8, 2)])
def test_size_guard_refuses_at_the_call(n, d, monkeypatch):
    # 16! is about 2.1e13 members and A(7,2) has 3,110,940: the call itself
    # refuses, and a member built first would fail here instead of running on
    def built(*args):
        raise AssertionError("a member was built")

    monkeypatch.setattr(sampler, "build", built)
    with pytest.raises(SizeGuardError):
        enumerate_all(n, d)


def test_stub_sampler_d1_always_accepts():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = sample_stub(6, 1, rng)
        assert a is not None and a.d == 1


def test_stub_acceptance_rate_small_case():
    # exact acceptance for (3,2): 6 matrices * (2!)^6 orderings / 6! = 8/15
    rng = np.random.default_rng(1)
    draws = 20_000
    accepted = sum(sample_stub(3, 2, rng) is not None for _ in range(draws))
    assert abs(accepted / draws - 8 / 15) < 0.02


def test_stub_uniform_on_tiny_family():
    # (2,1): two permutation matrices, each from exactly one of the 2 matchings
    rng = np.random.default_rng(7)
    tallies = {}
    for _ in range(4000):
        a = draw_sample(2, 1, SamplerConfig(), rng)
        tallies[a] = tallies.get(a, 0) + 1
    assert set(tallies) == brute_force_family(2, 1)
    assert min(tallies.values()) > 1800


def test_rejection_budget():
    cfg = SamplerConfig(max_rejections=3)
    with pytest.raises(RejectionBudgetExceeded):
        # d = n = 6 only admits the all-ones matrix; stub draws almost
        # always produce a repeat column in some row
        draw_sample(6, 6, cfg, np.random.default_rng(0))


def test_uniform_draw_count_is_every_stub_draw():
    # the count sampler-test sums is the number of sample_stub calls made,
    # and the accepted matrix is the last of them
    cfg = SamplerConfig()
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    counts = []
    for _ in range(20):
        a, draws = sampler._draw(6, 3, cfg, rng)
        seen = [sample_stub(6, 3, replay) for _ in range(draws)]
        assert seen[-1] == a and all(m is None for m in seen[:-1])
        counts.append(draws)
    assert max(counts) > 1
    assert draw_sample(6, 3, cfg, rng) == draw_sample(6, 3, cfg, replay)
    # the walk makes no stub draw, and its matrix is draw_sample's
    mcmc = SamplerConfig(kind="mcmc")
    a, draws = sampler._draw(6, 3, mcmc, np.random.default_rng(5))
    assert draws == 0 and a == draw_sample(6, 3, mcmc, np.random.default_rng(5))


def test_mcmc_zero_burn_in_is_start_state():
    cfg = SamplerConfig(kind="mcmc", burn_in_steps=0)
    a = draw_sample(6, 2, cfg, np.random.default_rng(3))
    assert a == circulant(6, 2)


def test_mcmc_stays_in_family_and_moves():
    cfg = SamplerConfig(kind="mcmc", burn_in_steps=500)
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(20):
        a = draw_sample(7, 2, cfg, rng)
        assert a.n == 7 and a.d == 2
        seen.add(a)
    assert len(seen) > 1


def test_mcmc_terminal_family():
    # d = n has a single member; the walk must stay put
    cfg = SamplerConfig(kind="mcmc", burn_in_steps=100)
    assert draw_sample(3, 3, cfg, np.random.default_rng(0)) == all_ones(3)


def test_mcmc_visits_whole_small_family():
    # ergodicity spot check: short walks from the circulant on (4,2) reach
    # all 90 members
    cfg = SamplerConfig(kind="mcmc", burn_in_steps=12)
    rng = np.random.default_rng(13)
    seen = {draw_sample(4, 2, cfg, rng) for _ in range(3000)}
    assert seen == set(enumerate_all(4, 2))


def test_draw_sample_dispatch():
    rng = np.random.default_rng(2)
    assert draw_sample(5, 2, SamplerConfig(), rng).d == 2
    assert draw_sample(5, 2, SamplerConfig(kind="mcmc"), rng).d == 2
    # enumeration is not a sampler: the config refuses it before any draw
    with pytest.raises(ValueError, match="unknown sampler kind"):
        SamplerConfig(kind="exhaustive")


def test_default_burn_in_is_ten_n_d_squared_proposals():
    # no burn-in given walks as far as 10 * n * d^2 given: the same matrix,
    # and the same RNG state after it
    for n, d in [(10, 3), (7, 2)]:
        rng, given = np.random.default_rng(4), np.random.default_rng(4)
        a = draw_sample(n, d, SamplerConfig(kind="mcmc"), rng)
        b = draw_sample(n, d, SamplerConfig(kind="mcmc", burn_in_steps=10 * n * d * d), given)
        assert a == b
        assert rng.integers(1 << 62) == given.integers(1 << 62)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kind="bogus")
    with pytest.raises(ValueError):
        SamplerConfig(max_rejections=0)
    with pytest.raises(ValueError):
        SamplerConfig(burn_in_steps=-1)
    SamplerConfig(kind="mcmc", burn_in_steps=0)  # explicit zero is meaningful and allowed


def test_config_refuses_the_other_samplers_field():
    # each sampler reads only its own field; naming the other one is an error
    with pytest.raises(ValueError, match="burn_in_steps"):
        SamplerConfig(burn_in_steps=7)
    with pytest.raises(ValueError, match="max_rejections"):
        SamplerConfig(kind="mcmc", max_rejections=1)
    with pytest.raises(ValueError, match="max_rejections"):  # even at the stub's default
        SamplerConfig(kind="mcmc", max_rejections=10_000)
    with pytest.raises(ValueError, match=">= 0"):  # the walk's own range check still holds
        SamplerConfig(kind="mcmc", burn_in_steps=-1)
    assert SamplerConfig().max_rejections == 10_000
    assert SamplerConfig(kind="mcmc").max_rejections is None


def test_chi_square_uniform_counts_strays():
    support = list(enumerate_all(3, 2))
    draws = support * 4 + [circulant(4, 2)]  # one draw from another family
    stat, critical, strays = chi_square_uniform(support, draws, 1e-3)
    assert strays == 1
    # 25 draws over 6 members: every tally is 4 against 25/6 expected
    expected = 25 / 6
    assert stat == pytest.approx(6 * (4 - expected) ** 2 / expected)
    assert critical > stat


def test_chi_square_uniform_single_member_family():
    support = list(enumerate_all(3, 3))
    assert support == [all_ones(3)]
    draws = [all_ones(3)] * 10
    assert chi_square_uniform(support, draws, 1e-3) == (0.0, 0.0, 0)
    with pytest.raises(ValueError):
        chi_square_uniform(support, [], 1e-3)


def test_chi_square_uniform_refuses_significance_outside_unit_interval():
    support = list(enumerate_all(3, 2))
    for significance in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="significance"):
            chi_square_uniform(support, support, significance)


def test_same_seed_same_draws():
    cfg = SamplerConfig()
    a = [draw_sample(8, 2, cfg, np.random.default_rng(21)) for _ in range(5)]
    b = [draw_sample(8, 2, cfg, np.random.default_rng(21)) for _ in range(5)]
    assert a == b


def _row_sorted_stub(n, d, rng):
    """:func:`sampler.sample_stub` with a row-wise sort: the reference."""
    perm = rng.permutation(n * d)
    cols = np.sort((perm // d).reshape(n, d), axis=1)
    if d > 1 and bool((cols[:, 1:] == cols[:, :-1]).any()):
        return None
    return build(n, d, cols)


@pytest.mark.parametrize("n, d", [(1, 1), (5, 1), (7, 2), (40, 2), (128, 3), (12, 5), (30, 6)])
def test_flat_sorted_stub_draw_is_the_row_sorted_one(n, d):
    # draw for draw the same matrix or the same rejection, and the same RNG
    # state after it; d = 1 never rejects, and n * d below build's bulk
    # threshold takes its per-row loop
    rng, reference_rng = np.random.default_rng(n * d), np.random.default_rng(n * d)
    accepted = 0
    for _ in range(300):
        got = sample_stub(n, d, rng)
        expected = _row_sorted_stub(n, d, reference_rng)
        assert got == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        accepted += got is not None
    if d <= 3:
        assert accepted > 0
    if d == 1:
        assert accepted == 300


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), st.data())
def test_stub_draws_are_members(n, data):
    d = data.draw(st.integers(1, min(n - 1, 3)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = draw_sample(n, d, SamplerConfig(), np.random.default_rng(seed))
    assert a.n == n and a.d == d


# Every (kind, burn-in, n, d) below is drawn for trials 0-9 of master seed 5.
# The digest was computed before the walk lost its per-proposal lists and
# ``.index`` calls, so it pins the matrices the samplers produce (records keep
# only corank and level-set size) together with the RNG state each draw leaves.
_PINNED_DRAWS = (
    *[("mcmc", None, n, d) for n, d in
      [(32, 8), (48, 8), (3, 3), (9, 1), (40, 2), (60, 2), (128, 3), (256, 3)]],
    *[("mcmc", burn, 6, 2) for burn in (0, 1, 7)],
    *[("stub_rejection", None, n, d) for n, d in [(40, 2), (60, 2), (128, 3), (256, 3)]],
)
_PINNED_DIGEST = "3e155cd419f319a3e55a599285c764cb0c5a33a495a59618d353522981ec910f"


def test_sampled_matrices_are_pinned():
    h = hashlib.sha256()
    for kind, burn, n, d in _PINNED_DRAWS:
        cfg = SamplerConfig(kind=kind, burn_in_steps=burn)
        for t in range(10):
            rng = trial_rng(5, n, d, t)
            h.update(serialize(draw_sample(n, d, cfg, rng)).encode())
            h.update(f"next {rng.integers(1 << 62)}\n".encode())
    assert h.hexdigest() == _PINNED_DIGEST


def _set_walk_oracle(rows: list[list[int]], steps: int, rng: np.random.Generator) -> None:
    """The walk with a set per row: the same draws, accept rule and slot order."""
    if steps <= 0:
        return
    n, d = len(rows), len(rows[0])
    sets = [set(r) for r in rows]
    for i, ki, j, lj in rng.integers(0, (n, d, n, d), size=(steps, 4)).tolist():
        k, l = rows[i][ki], rows[j][lj]
        if l in sets[i] or k in sets[j]:
            continue
        rows[i][ki], rows[j][lj] = l, k
        sets[i].remove(k)
        sets[i].add(l)
        sets[j].remove(l)
        sets[j].add(k)


def _assert_walk_matches_oracle(n: int, d: int, steps: int, seed: int) -> list[list[int]]:
    start = [list(r) for r in circulant(n, d).row_supports]
    got, want = [list(r) for r in start], [list(r) for r in start]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler._walk(got, steps, rng)
    _set_walk_oracle(want, steps, oracle_rng)
    assert got == want
    assert rng.integers(1 << 62) == oracle_rng.integers(1 << 62)
    return got


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_walk_matches_set_per_row_oracle(n, data):
    d = data.draw(st.integers(1, n))
    steps = data.draw(st.integers(0, 300))
    seed = data.draw(st.integers(0, 2**64 - 1))
    _assert_walk_matches_oracle(n, d, steps, seed)


@pytest.mark.parametrize(
    "n, d, steps, seed", [(512, 8, 2000, 3), (9, 1, 300, 4), (1, 1, 50, 5), (7, 7, 300, 6)]
)
def test_walk_matches_set_per_row_oracle_at_fixed_sizes(n, d, steps, seed):
    rows = _assert_walk_matches_oracle(n, d, steps, seed)
    if d == n:  # every proposal is refused: the walk stays at the start
        assert rows == [list(r) for r in circulant(n, d).row_supports]
