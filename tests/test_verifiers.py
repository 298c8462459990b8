"""Rank/switching interplay: K_A, x-badness, replay, deloc, double counting."""

import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglab import (
    BoundViolation,
    DelocParams,
    NotSingularError,
    PreconditionError,
    SamplerConfig,
    SubspaceBasis,
    Switch,
    WitnessConstructionError,
    all_ones,
    apply_switch,
    block_diagonal,
    build,
    circulant,
    compute_KA,
    count_x_bad,
    deloc_event,
    dedup_switches,
    double_count_check,
    draw_sample,
    enumerate_all,
    enumerate_switches,
    f_rows,
    identity,
    kernel,
    level_sets,
    qr_relation_stats,
    rank_delta_check,
    rank_increasing_switchings,
    rational_rank,
    replay_KA_bound,
    run_family_checks,
    serialize,
    verify_increase_mechanism,
)
from dreglab import linalg, verifiers

F = Fraction
BLOCK = block_diagonal(2, 2)


def vec(*vals):
    return tuple(F(v) for v in vals)


# ─── level sets and deloc ────────────────────────────────────────────────────


def test_level_sets_profile():
    prof = level_sets(vec(1, 1, 0, -1, 0, 0))
    assert prof.max_size == 3
    assert prof.sizes == (3, 2, 1)
    assert dict(prof.by_value) == {F(0): 3, F(1): 2, F(-1): 1}


def test_level_sets_constant_vector():
    prof = level_sets(vec(2, 2, 2))
    assert prof.max_size == 3 and prof.sizes == (3,)


def test_deloc_params():
    p = DelocParams()
    assert p.C == F(1)
    # theta is capped at n
    assert p.beta(4, 2) == pytest.approx(min(4, 4 * np.log(2) ** 2 / np.log(4)))
    assert DelocParams(C=F(10**6)).beta(5, 2) == 5.0
    with pytest.raises(ValueError):
        DelocParams(C=F(-1))
    # beta converts C to a float, so a C beyond the float range is refused
    with pytest.raises(ValueError, match="too large"):
        DelocParams(C="1e400")


def test_deloc_event_block_fails_with_witness():
    res = deloc_event(BLOCK, DelocParams())
    assert not res.holds and not bool(res)
    # the first right basis vector decides the event, so nothing else is read
    assert res.vectors_checked == 1 and res.witness_source == "right-kernel-basis"
    assert res.witness_size == 2
    assert res.theta == pytest.approx(4 * np.log(2) ** 2 / np.log(4))
    # the witness is a genuine kernel vector with a level set of that size
    assert res.witness_vector in kernel(BLOCK, "right").vectors + kernel(BLOCK, "left").vectors


def _eager_deloc(f, params):
    """The level-set filter that lists every certified vector of ``f``, both
    kernel bases and the replay's row witnesses, before it checks any: the reference for the
    lazy ``verifiers._deloc``.  Returns the result and the witness's 1-based
    position in the list (None when the event holds)."""
    theta = params.beta(f.a.n, f.a.d)
    candidates = []
    candidates.extend(("right-kernel-basis", v) for v in f.right.vectors)
    candidates.extend(("left-kernel-basis", v) for v in f.left.vectors)
    if f.right.dim > 0:
        replay = f.replay()
        candidates.extend((f"replay-row-{w.row}", w.vector) for w in replay.witnesses)

    for position, (source, vec) in enumerate(candidates, 1):
        profile = level_sets(vec)
        if profile.max_size > theta:
            value = next(val for val, size in profile.by_value if size == profile.max_size)
            result = verifiers.DelocResult(
                holds=False,
                theta=theta,
                C=params.C,
                vectors_checked=len(candidates),
                witness_vector=vec,
                witness_value=value,
                witness_size=profile.max_size,
                witness_source=source,
            )
            return result, position
    return verifiers.DelocResult(holds=True, theta=theta, C=params.C, vectors_checked=len(candidates)), None


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 6) for d in range(1, n + 1)])
def test_lazy_deloc_matches_the_eager_reference(n, d):
    # stopping at the first vector that breaks the event changes no outcome
    # and no witness; vectors_checked is the full count when the event holds
    # and the witness's position when it fails, and 0 when theta is capped
    # at n, where the event holds before any vector is read
    pool = list(enumerate_all(n, d))
    memo = verifiers._Memo(pool)
    for m in pool:
        for params in (DelocParams(), DelocParams(C=F(10)), DelocParams(C=F(100))):
            lazy = verifiers._deloc(memo.of(m), params)
            eager, position = _eager_deloc(memo.of(m), params)
            assert replace(lazy, vectors_checked=0) == replace(eager, vectors_checked=0)
            if params.beta(n, d) >= n:
                assert lazy.vectors_checked == 0
            else:
                assert lazy.vectors_checked == (eager.vectors_checked if eager.holds else position)


_PAIRED = build(6, 2, [(0, 1), (0, 2), (1, 3), (4, 5), (2, 3), (4, 5)])
_SPREAD = build(6, 3, [(0, 1, 2), (0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)])


def _counting_left(monkeypatch):
    """Count the left kernels computed, one per facts object that reads one."""
    read = []
    real = verifiers._Facts.left.func

    def counted(f):
        read.append(f)
        return real(f)

    monkeypatch.setattr(verifiers._Facts, "left", property(counted))
    return lambda: len(set(map(id, read)))


@pytest.mark.parametrize(
    "a, C, source, position, lefts, replays",
    [
        (_PAIRED, F(5, 4), "right-kernel-basis", 2, 0, 0),
        (_SPREAD, F(1, 2), "left-kernel-basis", 3, 1, 0),
        (_SPREAD, F(3, 4), "replay-row-2", 6, 1, 1),
    ],
)
def test_lazy_deloc_stops_at_a_later_witness(a, C, source, position, lefts, replays, monkeypatch):
    # at n <= 5 every failure is on the first vector; at n = 6 a small C
    # breaks the event on a later right basis vector, a left basis vector or
    # a replay witness.  The left kernel is read only when the right basis
    # holds, and the replay only when both bases do
    params = DelocParams(C=C)
    eager, at = _eager_deloc(verifiers._Memo([a]).of(a), params)
    assert (eager.witness_source, at) == (source, position)
    calls = _counting(monkeypatch, ["_replay"])
    left_reads = _counting_left(monkeypatch)
    lazy = deloc_event(a, params)
    assert replace(lazy, vectors_checked=0) == replace(eager, vectors_checked=0)
    assert lazy.vectors_checked == position
    assert (left_reads(), calls["_replay"]) == (lefts, replays)


def test_deloc_event_invertible_matrix_holds():
    # no nonzero kernel vectors at all: the certified subset is empty
    res = deloc_event(identity(5), DelocParams())
    assert res.holds and res.vectors_checked == 0


def test_deloc_generous_constant_holds():
    # theta is capped at n = 4, which no level set exceeds: nothing is read
    res = deloc_event(BLOCK, DelocParams(C=F(100)))
    assert res.holds and res.theta == 4.0 and res.vectors_checked == 0


# ─── K_A and the replay bound ────────────────────────────────────────────────


def test_ka_block_is_everything():
    ka = compute_KA(BLOCK)
    assert len(ka) == 12
    assert (0, 1) in ka and (2, 3) in ka and (0, 2) in ka
    # symmetry
    for (i, j) in list(ka):
        assert (j, i) in ka


def test_ka_none_on_invertible():
    # invertible A: ker A = 0 but F-perp has dimension >= 1... the condition
    # dim F = rank = n can never hold since dim F <= n-1
    assert len(compute_KA(identity(4))) == 0


def _f_perp(a, i, j):
    """F(A; i, j)^perp as the kernel of the Bareiss echelon of :func:`f_rows`."""
    echelon = linalg._int_echelon(f_rows(a, i, j))
    return SubspaceBasis(a.n, linalg._kernel_from_echelon(echelon, a.n))


def _ka_by_definition(a):
    ker = kernel(a, "right")
    return {
        (i, j)
        for i in range(a.n)
        for j in range(a.n)
        if i != j and ker == _f_perp(a, i, j)
    }


def test_compute_KA_matches_definition():
    # K_A = {(i, j), i != j : ker A = F(A; i, j)^perp}, checked pair by pair
    # against full eliminations on every singular small-family member and on
    # seeded stub samples
    singular = [
        m
        for n in range(1, 5)
        for d in range(1, n + 1)
        for m in enumerate_all(n, d)
        if rational_rank(m) < n
    ]
    singular.append(all_ones(5))  # the whole (5,5) family
    rng = np.random.default_rng(12)
    stubs = [draw_sample(12, 3, SamplerConfig(), rng) for _ in range(24)]
    assert len(singular) == 94
    assert any(rational_rank(m) < 12 for m in stubs)
    for a in singular + stubs:
        assert compute_KA(a) == _ka_by_definition(a)


def _ka_by_closed_form(a):
    """The pairs (i, j), i != j, where some left-kernel vector has y_i != y_j;
    :func:`compute_KA`'s docstring proves that this is K_A."""
    left = kernel(a, "left").vectors
    return {
        (i, j)
        for i in range(a.n)
        for j in range(a.n)
        if i != j and any(y[i] != y[j] for y in left)
    }


def _singular_stubs(n, d, count, rng):
    """The first ``count`` singular stub samples at (n, d) drawn from ``rng``."""
    out = []
    while len(out) < count:
        a = draw_sample(n, d, SamplerConfig(), rng)
        if rational_rank(a) < n:
            out.append(a)
    return out


def test_ka_closed_form_matches_compute_KA():
    # every member of every n <= 5 family, then seeded stub samples up to
    # n = 20, then singular ones at (30,2) and (40,2), where compute_KA's
    # n(n - 1)/2 ranks take about 0.2 and 0.5 s per sample
    members = [m for n in range(1, 6) for d in range(1, n + 1) for m in enumerate_all(n, d)]
    rng = np.random.default_rng(7)
    sizes = [(8, 2), (10, 2), (12, 3), (16, 4), (20, 2)]
    stubs = [draw_sample(n, d, SamplerConfig(), rng) for n, d in sizes for _ in range(8)]
    assert len(members) == 4477
    assert sum(rational_rank(m) < m.n for m in stubs) >= 20
    assert max(m.n for m in stubs if rational_rank(m) < m.n) == 20
    rng = np.random.default_rng(30)
    stubs += _singular_stubs(30, 2, 4, rng) + _singular_stubs(40, 2, 2, rng)
    for a in members + stubs:
        assert compute_KA(a) == _ka_by_closed_form(a)


def test_replay_block_frozen_witnesses():
    rep = replay_KA_bound(BLOCK)
    assert rep.corank == 2
    assert rep.y == vec(1, -1, 0, 0)
    assert rep.support == (0, 1)
    assert set(rep.certified_pairs) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert rep.bound == 4
    assert rep.ka_size == 12 >= rep.bound
    for w in rep.witnesses:
        assert w.zeroed_row_rank == rep.rank
        assert w.partners  # nonempty by construction


def test_replay_not_singular():
    with pytest.raises(NotSingularError):
        replay_KA_bound(identity(4))


def test_replay_corank_one_route():
    # pick corank-1 members of (5,2) and confirm the L(i) route end to end
    singles = [m for m in enumerate_all(5, 2) if rational_rank(m) == 4]
    assert len(singles) == 600
    for m in singles[:40]:
        rep = replay_KA_bound(m)
        assert rep.corank == 1
        ka = compute_KA(m)
        for pair in rep.certified_pairs:
            assert pair in ka
        assert rep.ka_size >= rep.bound >= 1


def test_replay_certified_subset_of_ka_block_family():
    for m in enumerate_all(4, 2):
        rep = replay_KA_bound(m)  # every (4,2) member is singular
        ka = compute_KA(m)
        for pair in rep.certified_pairs:
            assert pair in ka
        assert len(ka) >= rep.bound


# ─── x-bad switchings ────────────────────────────────────────────────────────


def _product(a, x):
    """A x, one row-support sum per row."""
    return tuple(sum(x[t] for t in support) for support in a.row_supports)


def test_is_x_bad_examples():
    sw = Switch(0, 2, 0, 2)
    assert sw in set(enumerate_switches(BLOCK))
    after = apply_switch(BLOCK, sw)
    # feasible switch with x_k != x_l: A x changes, so it is not x-bad
    x = vec(1, -1, 0, 0)
    assert _product(after, x) != _product(BLOCK, x)
    # same switch against a vector constant on k and l: A x is kept
    c = vec(3, 3, 3, 3)
    assert _product(after, c) == _product(BLOCK, c)
    assert count_x_bad(BLOCK, c) == len(list(enumerate_switches(BLOCK)))


def test_x_bad_iff_product_unchanged():
    # x_k = x_l exactly when the switched matrix maps x as A does, so
    # count_x_bad counts the switchings that leave A x unchanged
    xs = [vec(1, -1, 0, 0), vec(0, 0, 1, -1), vec(1, 2, 3, 4), vec(1, 1, 2, 2), vec(3, 3, 3, 3)]
    for x in xs:
        before = _product(BLOCK, x)
        kept = [
            sw for sw in enumerate_switches(BLOCK) if _product(apply_switch(BLOCK, sw), x) == before
        ]
        assert all(x[sw.k] == x[sw.l] for sw in kept)
        assert count_x_bad(BLOCK, x) == len(kept)


def test_count_x_bad_extremes():
    # all coordinates distinct: nothing is x-bad
    assert count_x_bad(BLOCK, vec(1, 2, 3, 4)) == 0
    # constant vector: every feasible switching is x-bad
    assert count_x_bad(BLOCK, vec(5, 5, 5, 5)) == len(list(enumerate_switches(BLOCK)))


def test_count_x_bad_chain_inequality():
    rng = np.random.default_rng(17)
    pool = list(enumerate_all(4, 2)) + [circulant(6, 2), circulant(6, 3)]
    for m in pool[:50]:
        n, d = m.n, m.d
        for _ in range(4):
            x = tuple(F(int(rng.integers(-2, 3)), int(rng.integers(1, 3))) for _ in range(n))
            c = count_x_bad(m, x)  # internal BoundViolation guard must not fire
            prof = level_sets(x)
            chain = d * d * sum(s * s for s in prof.sizes)
            assert c <= chain <= n * prof.max_size * d * d


# ─── the increase mechanism ──────────────────────────────────────────────────


def test_rank_delta_examples():
    assert rank_delta_check(BLOCK, Switch(0, 2, 0, 2)) == 1
    for sw in enumerate_switches(circulant(6, 2)):
        assert rank_delta_check(circulant(6, 2), sw) in (-1, 0, 1)


def test_rank_increasing_identity_empty():
    # the identity is invertible: no switching can increase rank
    assert rank_increasing_switchings(identity(5)) == []


def test_rank_increasing_block_all():
    # on the 2x2 block matrix every feasible switching raises rank 2 -> 3
    ris = rank_increasing_switchings(BLOCK)
    assert len(ris) == 32
    assert set(ris) == set(enumerate_switches(BLOCK))
    # ordered list style: mirrors included, sorted
    assert ris == sorted(ris)


def test_mechanism_block():
    rep = verify_increase_mechanism(BLOCK)
    assert rep.corank == 2 and rep.ka_size == 12
    assert rep.checked == 64  # 32 ordered switchings x 2 canonical kernel vectors
    assert rep.x_bad == 0
    assert rep.increased == 64
    assert rep.violations == ()


def test_mechanism_rejects_invertible():
    with pytest.raises(NotSingularError):
        verify_increase_mechanism(identity(4))


def test_mechanism_family_sweep():
    for m in enumerate_all(4, 2):
        rep = verify_increase_mechanism(m)
        assert rep.violations == (), m


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2)])
def test_mechanism_alone_switches_only_what_it_reads(n, d, monkeypatch):
    # the mechanism reads a switching's result only when (i, j) is in K_A and
    # some kernel vector x has x_k != x_l; called alone it applies each such
    # canonical switching once, and none of the others.  The first singular
    # member that skips some reads 0 of its 12 on (4,2) and 24 of 27 on (5,2)
    def read(a):
        ka, basis = compute_KA(a), kernel(a).vectors
        return {
            sw.canonical()
            for sw in enumerate_switches(a)
            if (sw.i, sw.j) in ka and any(x[sw.k] != x[sw.l] for x in basis)
        }

    a, wanted = next(
        (m, r)
        for m in enumerate_all(n, d)
        if rational_rank(m) < n
        and len(r := read(m)) < len(dedup_switches(enumerate_switches(m)))
    )
    calls = _counting(monkeypatch, ["apply_switch"])
    rep = verify_increase_mechanism(a)
    assert calls["apply_switch"] == len(wanted)
    assert rep.increased == rep.checked - rep.x_bad and rep.violations == ()


# ─── double counting and the rank-step relation ──────────────────────────────


def test_double_count_simple():
    rel = [("a", "x"), ("a", "y"), ("b", "x")]
    assert double_count_check(rel, s={"a": 2, "b": 1}, t={"x": 2, "y": 1})


def test_double_count_precondition_failures():
    rel = [("a", "x")]
    with pytest.raises(PreconditionError):
        double_count_check(rel, s={"a": 2}, t={"x": 1})  # out-degree below s
    with pytest.raises(PreconditionError):
        double_count_check(rel, s={"a": 1}, t={"x": 0})  # in-degree above t
    with pytest.raises(PreconditionError):
        double_count_check(rel, s={"a": -1}, t={"x": 1})  # negative bound
    with pytest.raises(PreconditionError):
        double_count_check(rel, s={"a": 1}, t={})  # right element missing


def test_double_count_random_relations():
    rng = np.random.default_rng(23)
    for _ in range(200):
        lefts = list(range(int(rng.integers(1, 8))))
        rights = list(range(int(rng.integers(1, 8))))
        rel = []
        for a in lefts:
            for b in rights:
                if rng.random() < 0.4:
                    rel.append((a, b))
        out = {a: 0 for a in lefts}
        inn = {b: 0 for b in rights}
        for a, b in rel:
            out[a] += 1
            inn[b] += 1
        # true degrees as bounds always satisfy the hypotheses
        assert double_count_check(rel, s=out, t=inn)


def test_qr_relation_stats_4_2():
    pool = list(enumerate_all(4, 2))
    stats = qr_relation_stats(1, pool, DelocParams(C=F(100)))
    # rank classes over (4,2): 18 at rank 2, 72 at rank 3
    assert dict(stats.class_sizes) == {2: 18, 3: 72}
    assert stats.r == 1
    assert stats.source_count == 0 and stats.edge_count == 0  # E_1 is empty

    # the only relation with edges in any n <= 5 family: each of the 18
    # rank-2 members passes the level-set filter (its replay vectors
    # included) and has 16 rank-raising switchings, each of the 72 rank-3
    # members is reached from 4 of them
    for C in (F(10), F(100)):
        stats2 = qr_relation_stats(2, pool, DelocParams(C=C))
        assert (stats2.source_count, stats2.skipped_sources, stats2.edge_count) == (18, 0, 288)
        assert stats2.out_degree_hist == ((16, 18),)
        assert stats2.in_degree_hist == ((4, 72),)
        assert stats2.double_count_ok
    with pytest.raises(ValueError):
        qr_relation_stats(3, pool, DelocParams())  # r must stay <= n-2


def test_qr_relation_respects_deloc_filter():
    pool = list(enumerate_all(4, 2))
    # C tiny: theta < 2 and every kernel vector of every singular member has a
    # level set of size >= 2, so no sources survive the filter
    stats = qr_relation_stats(2, pool, DelocParams(C=F(1, 1000)))
    assert stats.source_count == 0
    assert stats.skipped_sources == 18


# ─── the family check driver ─────────────────────────────────────────────────


def test_run_family_checks_green_on_3_2():
    reports = run_family_checks(list(enumerate_all(3, 2)))
    assert [r.check_name for r in reports] == [
        "switch-count-bounds",
        "rank-delta-law",
        "f-invariance",
        "kernel-containment",
        "x-bad-chain",
        "increase-mechanism",
        "ka-replay",
        "qr-relation",
    ]
    for rep in reports:
        assert rep.violations == 0, rep.check_name
        assert rep.instances_checked >= 0
        d = rep.to_dict()
        assert set(d) == {
            "check_name",
            "params",
            "instances_checked",
            "violations",
            "witnesses",
            "wall_time_ms",
        }


def test_run_family_checks_input_validation():
    with pytest.raises(ValueError):
        run_family_checks([])
    with pytest.raises(ValueError):
        run_family_checks([identity(3), identity(4)])


def _check(reports, name):
    return next(r for r in reports if r.check_name == name)


def test_f_invariance_fires_when_the_switch_is_wrong(monkeypatch):
    # a transposed result moves rows other than i and j, so F(A; i, j) changes
    real = verifiers._switched_rows

    def transposed(a, sw):
        return build(a.n, a.d, real(a, sw)).transpose().row_supports

    monkeypatch.setattr(verifiers, "_switched_rows", transposed)
    rep = _check(run_family_checks(list(enumerate_all(4, 2))), "f-invariance")
    assert rep.violations > 0
    assert rep.witnesses[0]["note"] == "F(A; i, j) changed"


def test_kernel_containment_fires_on_a_vector_outside_the_kernel(monkeypatch):
    real = verifiers._Facts.right.func

    def right_kernel_replaced(first_vector):
        def broken(f):
            basis = real(f)
            if basis.dim == 0:
                return basis
            return SubspaceBasis(f.a.n, [first_vector(f.a.n), *basis.vectors[1:]])

        return property(broken)

    # A 1 = d 1 != 0, so a "kernel" spanned with the all-ones vector leaves F^perp
    monkeypatch.setattr(verifiers._Facts, "right", right_kernel_replaced(lambda n: (1,) * n))
    rep = _check(run_family_checks(list(enumerate_all(4, 2))), "kernel-containment")
    assert rep.violations > 0
    assert {"matrix", "pair", "vector"} == set(rep.witnesses[0])
    # e_0 is orthogonal to rows 2 and 3 of BLOCK, so for the pair (0, 1) only
    # the spanning row "row 0 + row 1" of F can catch it
    e0 = right_kernel_replaced(lambda n: (1,) + (0,) * (n - 1))
    monkeypatch.setattr(verifiers._Facts, "right", e0)
    rep = _check(run_family_checks([BLOCK]), "kernel-containment")
    assert [0, 1] in [w["pair"] for w in rep.witnesses]


def _rebuilt(a, sw):
    raise AssertionError(f"switched matrix rebuilt for {sw}")


def _one_per_class(pool):
    """The first member of each row multiset of ``pool``, in pool order."""
    firsts = {}
    for m in pool:
        firsts.setdefault(tuple(sorted(m.row_supports)), m)
    return list(firsts.values())


@pytest.mark.parametrize("n, d, switchings", [(3, 2, 18), (4, 1, 144), (4, 2, 1152)])
def test_each_switching_is_applied_once(n, d, switchings, monkeypatch):
    # the checks read one switched matrix per deduped switching of the first
    # member of each row multiset (3, 6 and 84 of them), kept with its facts;
    # over a whole family each result is a member, so none is rebuilt.
    # rank-delta-law still counts every member's switchings
    pool = list(enumerate_all(n, d))
    assert sum(len(dedup_switches(enumerate_switches(m))) for m in pool) == switchings
    firsts = _one_per_class(pool)
    real = verifiers._switched_rows
    calls = []

    def counted(a, sw):
        calls.append(sw)
        return real(a, sw)

    monkeypatch.setattr(verifiers, "_switched_rows", counted)
    monkeypatch.setattr(verifiers, "apply_switch", _rebuilt)
    reports = run_family_checks(pool)
    assert len(calls) == sum(len(dedup_switches(enumerate_switches(m))) for m in firsts)
    assert len(calls) == {(3, 2): 3, (4, 1): 6, (4, 2): 84}[n, d]
    assert _check(reports, "rank-delta-law").instances_checked == switchings


def _counting(monkeypatch, names):
    calls = Counter()
    for name in names:
        real = getattr(verifiers, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verifiers, name, counted)
    return calls


def dense_rows(a):
    """``a`` as dense 0/1 rows, expanded here rather than by the code under test."""
    return [[int(t in support) for t in range(a.n)] for support in a.row_supports]


def _multisets(a):
    """The row multisets whose rank or kernel a sweep reads for the singular
    ``a``: its rows, its columns (for the left kernel), F(a; i, j) for every
    pair, and ``a`` with row i zeroed for every i in the support of the
    replay's y.  Rows are dense tuples here, a multiset a frozen Counter."""
    dense = [tuple(row) for row in dense_rows(a)]
    y = kernel(a, "left").vectors[0]
    mats = [dense, list(zip(*dense))]
    for i, j in combinations(range(a.n), 2):
        others = [row for s, row in enumerate(dense) if s not in (i, j)]
        mats.append([*others, tuple(map(add, dense[i], dense[j]))])
    mats.extend([*dense[:i], (0,) * a.n, *dense[i + 1 :]] for i in range(a.n) if y[i])
    return {frozenset(Counter(rows).items()) for rows in mats}


def test_one_enumeration_rank_and_ka_per_matrix(monkeypatch):
    # all 90 members of (4,2) are singular, in 6 row multisets: the first
    # member of each is enumerated, given K_A and replayed once, although the
    # mechanism, the replay and qr-relation's deloc_event all read K_A or the
    # kernels.  At C = 1 qr-relation's level-set filter decides each of the
    # 18 rank-2 members on its first right basis vector, so it replays none
    # of them and reads no other member's left kernel: 6 K_A and replays in
    # all.  Ranks and kernels take one Bareiss elimination per row
    # multiset, 42 of them
    pool = list(enumerate_all(4, 2))
    replayed = _one_per_class(pool)
    assert len(replayed) == 6
    multisets = set().union(*map(_multisets, replayed))
    assert len(multisets) == 42
    calls = _counting(monkeypatch, ["enumerate_switches", "_bareiss", "_ka_set", "_replay"])
    reports = run_family_checks(pool)
    assert calls == {
        "enumerate_switches": 6,
        "_bareiss": len(multisets),
        "_ka_set": len(replayed),
        "_replay": len(replayed),
    }
    assert not any(rep.violations for rep in reports)


def test_a_sweep_keeps_facts_per_row_class_not_per_member(monkeypatch):
    # (5,2) has 2,040 members in 22 row classes, whose first members have
    # 570 deduped switchings.  Facts are kept for those first members and
    # their switched results only: any other member's facts are made when
    # read and dropped with their reader, and none outlives the call
    pool = list(enumerate_all(5, 2))
    firsts = _one_per_class(pool)
    switchings = sum(len(dedup_switches(enumerate_switches(m))) for m in firsts)
    assert (len(pool), len(firsts), switchings) == (2040, 22, 570)
    live = peak = 0

    def dropped():
        nonlocal live
        live -= 1

    real = verifiers._Facts.__init__

    def counted(f, *args):
        nonlocal live, peak
        real(f, *args)
        live += 1
        peak = max(peak, live)
        weakref.finalize(f, dropped)

    monkeypatch.setattr(verifiers._Facts, "__init__", counted)
    run_family_checks(pool)
    assert 0 < peak <= len(firsts) + switchings
    assert live == 0


def test_partial_pool_builds_each_switched_matrix_once(monkeypatch):
    # BLOCK alone: its 16 deduped switchings lead outside the pool, so each
    # result is built (and validated) by apply_switch once and then ranked,
    # one Bareiss elimination per row multiset among them and BLOCK's own
    results = [apply_switch(BLOCK, sw) for sw in dedup_switches(enumerate_switches(BLOCK))]
    multisets = _multisets(BLOCK) | {
        frozenset(Counter(map(tuple, dense_rows(m))).items()) for m in results
    }
    assert len(multisets) == 7
    calls = _counting(monkeypatch, ["apply_switch", "_bareiss"])
    reports = run_family_checks([BLOCK])
    assert calls == {"apply_switch": 16, "_bareiss": len(multisets)}
    assert [rep.instances_checked for rep in reports] == [1, 16, 16, 6, 4, 1, 1, 2]
    assert not any(rep.violations or rep.witnesses for rep in reports)


def test_shared_facts_are_each_members_own_on_families():
    # one memo per family: every member's rank and kernels, read from entries
    # that row- and column-permuted members share, equal its own Bareiss ones
    for n, d in [(n, d) for n in range(1, 5) for d in range(1, n + 1)] + [(5, 2)]:
        pool = list(enumerate_all(n, d))
        memo = verifiers._Memo(pool)
        for m in pool:
            f = memo.of(m)
            assert f.rank == rational_rank(m)
            assert f.right == kernel(m)
            assert f.left == kernel(m, "left")


def test_left_kernel_is_shared_by_columns_not_rows(monkeypatch):
    # PA swaps rows 1 and 2 of BLOCK: the same rows up to order, so one rank
    # and one right kernel, but a different left kernel, which a left kernel
    # keyed by the rows would take from BLOCK.  BLOCK is symmetric, so its
    # columns are its rows again: two eliminations in all
    pa = build(4, 2, [BLOCK.row_supports[s] for s in (0, 2, 1, 3)])
    assert sorted(pa.row_supports) == sorted(BLOCK.row_supports)
    assert kernel(pa, "left") != kernel(BLOCK, "left")
    calls = _counting(monkeypatch, ["_bareiss"])
    memo = verifiers._Memo([BLOCK, pa])
    for m in (BLOCK, pa):
        f = memo.of(m)
        assert (f.rank, f.right, f.left) == (rational_rank(m), kernel(m), kernel(m, "left"))
    assert calls == {"_bareiss": 2}


def test_rank_delta_law_fires_on_a_wrong_exact_delta(monkeypatch):
    # every switching of BLOCK takes rank 2 to 3, as Meyer's criterion
    # predicts from its kernels; a rank capped at 2 turns each +1 into 0,
    # which |delta| <= 1 alone would let through
    real = verifiers._Facts.rank.func
    monkeypatch.setattr(verifiers._Facts, "rank", property(lambda f: min(real(f), 2)))
    rep = _check(run_family_checks([BLOCK]), "rank-delta-law")
    assert rep.violations == rep.instances_checked == 16
    assert rep.witnesses[0]["note"] == "delta=0, predicted 1"


def _block_class():
    """BLOCK, two row permutations of it and BLOCK again: one row multiset
    of weight 4."""
    rows = BLOCK.row_supports
    perms = [build(4, 2, [rows[s] for s in order]) for order in [(0, 2, 1, 3), (2, 0, 3, 1)]]
    pool = [BLOCK, *perms, BLOCK]
    assert len({m.row_supports for m in pool}) == 3 and len(_one_per_class(pool)) == 1
    return pool


def test_a_row_class_is_checked_once_and_weighted_by_its_members(monkeypatch):
    # the class of weight 4: BLOCK alone is switched (16 deduped switchings,
    # built by apply_switch since their results are not in the pool), and
    # each of its 16 violations under a rank capped at 2 counts four times.
    # The witnesses are BLOCK's own
    pool = _block_class()
    real_rank = verifiers._Facts.rank.func
    monkeypatch.setattr(verifiers._Facts, "rank", property(lambda f: min(real_rank(f), 2)))
    real = verifiers._switched_rows
    calls = []

    def counted(a, sw):
        calls.append(a)
        return real(a, sw)

    monkeypatch.setattr(verifiers, "_switched_rows", counted)
    reports = run_family_checks(pool)
    rep = _check(reports, "rank-delta-law")
    assert rep.instances_checked == rep.violations == 4 * 16
    assert calls == [BLOCK] * 16
    assert len(rep.witnesses) == verifiers._MAX_WITNESSES
    assert rep.witnesses[0] == {
        "matrix": serialize(BLOCK),
        "switch": list(dedup_switches(enumerate_switches(BLOCK))[0]),
        "note": "delta=0, predicted 1",
    }
    assert all(w["matrix"] == serialize(BLOCK) for w in rep.witnesses)
    assert _check(reports, "ka-replay").instances_checked == 4


def _refused(basis, i):
    raise WitnessConstructionError("patched")


def test_a_row_class_is_replayed_once_and_weighted_by_its_members(monkeypatch):
    # the class of weight 4 again: when no left-kernel vector vanishes at a
    # row, BLOCK alone is replayed, by ka-replay and not again by
    # qr-relation's level-set filter, its failure counts four times, and the
    # one witness is BLOCK's
    monkeypatch.setattr(verifiers, "_left_vector_vanishing_at", _refused)
    real = verifiers._replay
    replayed = []

    def counted(f):
        replayed.append(f.a)
        return real(f)

    monkeypatch.setattr(verifiers, "_replay", counted)
    rep = _check(run_family_checks(_block_class()), "ka-replay")
    assert replayed == [BLOCK]
    assert rep.instances_checked == rep.violations == 4
    assert rep.witnesses == [{"matrix": serialize(BLOCK), "error": "patched"}]


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 6) for d in range(1, n + 1)])
def test_every_singular_member_replays_alone(n, d):
    # a sweep replays the first member of each row multiset from its own
    # canonical y and counts it for the class; every singular member also
    # replays from its own y, and the weighted count is theirs
    pool = list(enumerate_all(n, d))
    singular = [m for m in pool if rational_rank(m) < n]
    for m in singular:
        rep = replay_KA_bound(m)
        assert rep.ka_size >= rep.bound > 0
        # the replay's y is the first left basis vector, which the level-set
        # event reads before any replay vector
        assert rep.y == kernel(m, "left").vectors[0]
    assert _check(run_family_checks(pool), "ka-replay").instances_checked == len(singular)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 5) for d in range(1, n + 1)])
def test_row_classes_count_what_every_member_would(n, d):
    # a one-member pool has one class of weight 1, so summing its reports over
    # the members gives the counts of a sweep that checks every member
    pool = list(enumerate_all(n, d))
    family = {r.check_name: r for r in run_family_checks(pool)}
    alone = [{r.check_name: r for r in run_family_checks([m])} for m in pool]
    for name in verifiers._CHECK_NAMES[:-1]:  # all but qr-relation, which needs the family
        assert family[name].instances_checked == sum(a[name].instances_checked for a in alone), name
        assert family[name].violations == sum(a[name].violations for a in alone), name


def test_qr_relation_without_sources_reads_no_target(monkeypatch):
    # at C = 1 no member of (4,2) passes the level-set event, so no rank-3
    # target can have an edge, and none of them is switched to count it.
    # Each of the 18 rank-2 members fails on its first right basis vector,
    # so none is replayed, given K_A or asked for its left kernel either
    pool = list(enumerate_all(4, 2))
    memo = verifiers._Memo(pool)
    calls = _counting(monkeypatch, ["enumerate_switches", "_replay", "_ka_set"])
    left_reads = _counting_left(monkeypatch)
    stats = verifiers._qr_relation(memo, 2, DelocParams())
    assert stats.source_count == 0 and stats.edge_count == 0 and stats.double_count_ok
    assert stats.skipped_sources == 18
    assert calls == {} and left_reads() == 0


def test_failed_replay_stops_qr_relation(monkeypatch):
    # the 18 corank-2 members of (4,2) fail their replay; ka-replay replays
    # the first member of each of the 6 row multisets and counts a failure
    # for every member of its class.  At C = 2 (theta ~ 2.77 < n = 4) every
    # rank-2 member's basis vectors pass the event, so qr-relation's
    # level-set filter needs the replay (at theta = n it reads nothing), and
    # meets the kept error of the first rank-2 member, the first of its
    # class, without replaying again.  The sweep reports it as
    # a qr-relation witness at r = 2 and keeps its report; a direct
    # qr_relation_stats call raises it
    monkeypatch.setattr(verifiers, "_left_vector_vanishing_at", _refused)
    pool, params = list(enumerate_all(4, 2)), DelocParams(C=F(2))
    calls = _counting(monkeypatch, ["_replay"])
    reports = run_family_checks(pool, params)
    assert calls == {"_replay": 6}
    replay, qr = _check(reports, "ka-replay"), _check(reports, "qr-relation")
    assert replay.violations == 18
    assert qr.instances_checked == 2 and qr.violations == 1
    assert qr.witnesses == [{"r": 2, "error": "patched"}]
    with pytest.raises(WitnessConstructionError, match="patched"):
        qr_relation_stats(2, pool, params)


def test_failed_replay_the_filter_does_not_need_is_ka_replays_alone(monkeypatch):
    # at C = 1 every rank-2 member of (4,2) fails the event on its first
    # right basis vector, so qr-relation's level-set filter never reads a
    # replay: the 6 replays are ka-replay's, which counts 18 failures, and
    # qr-relation reports none
    monkeypatch.setattr(verifiers, "_left_vector_vanishing_at", _refused)
    pool = list(enumerate_all(4, 2))
    calls = _counting(monkeypatch, ["_replay"])
    reports = run_family_checks(pool)
    assert calls == {"_replay": 6}
    replay, qr = _check(reports, "ka-replay"), _check(reports, "qr-relation")
    assert replay.violations == 18
    assert qr.instances_checked == 2 and qr.violations == 0 and qr.witnesses == []
    assert qr_relation_stats(2, pool, DelocParams()).skipped_sources == 18


def test_qr_relation_fires_when_a_target_loses_a_switching(monkeypatch):
    # in-degrees are counted from each rank-3 member's switchings back to a
    # source, so a class whose first member forgets such a switching breaks
    # the double count at r = 2; in-degrees read off the edge list could not
    # disagree.  The victim is a class's first member, since every member
    # reads its switchings from there.  C = 100 lets all 18 rank-2 members
    # through the event, as sources
    pool = list(enumerate_all(4, 2))
    memo, params = verifiers._Memo(pool), DelocParams(C=F(100))
    victim, lost = next(
        (f.a, sw)
        for f, _ in memo.classes
        if f.rank == 3
        for sw, g in f.switched.items()
        if g.rank == 2 and verifiers._deloc(g, params).holds
    )
    real = verifiers._Facts.switched.func

    def lossy(f):
        out = real(f)
        return {sw: g for sw, g in out.items() if sw != lost} if f.a == victim else out

    monkeypatch.setattr(verifiers._Facts, "switched", property(lossy))
    rep = _check(run_family_checks(pool, params), "qr-relation")
    assert rep.instances_checked == 2
    assert rep.violations == 1 and rep.witnesses[0]["r"] == 2
    with pytest.raises(PreconditionError, match="exceeds t"):
        qr_relation_stats(2, pool, params)


def _member_qr_relation(memo, r, params):
    """qr-relation switching every source and target member itself: the
    reference for ``verifiers._qr_relation``, which reads each member's
    switched results from its class's first member."""
    first = memo.classes[0][0].a
    n, d = first.n, first.d
    class_sizes = tuple(sorted((rk, len(ms)) for rk, ms in memo.ranks.items()))
    theta = params.beta(n, d)
    sources = [m for m in memo.ranks.get(r, []) if verifiers._deloc(memo.of(m), params).holds]
    skipped = len(memo.ranks.get(r, [])) - len(sources)
    edges, out_deg = [], {}
    for m in sources:
        f = memo.of(m)
        results = [g.a for g in f.switched.values() if g.rank == f.rank + 1]
        if len(set(results)) != len(results):
            raise verifiers.ConsistencyError("distinct canonical switchings produced identical matrices")
        out_deg[m] = len(results)
        edges.extend((m, bar) for bar in results)
    starts = {m.row_supports for m in sources}
    t = {
        bar: sum(g.a.row_supports in starts for g in memo.of(bar).switched.values()) if starts else 0
        for bar in memo.ranks.get(r + 1, [])
    }
    ok = double_count_check(edges, out_deg, t) and sum(out_deg.values()) == sum(t.values())
    in_deg = Counter(bar for _, bar in edges)
    return verifiers.QrStatsReport(
        n=n,
        d=d,
        r=r,
        theta=theta,
        C=params.C,
        class_sizes=class_sizes,
        source_count=len(sources),
        skipped_sources=skipped,
        edge_count=len(edges),
        out_degree_hist=tuple(sorted(Counter(out_deg.values()).items())),
        in_degree_hist=tuple(sorted(Counter(in_deg.values()).items())),
        asymptotic_out_lower=n * (n - 3 * theta) * d * d / 2,
        asymptotic_in_upper=3 * n * theta * d * d / 2,
        double_count_ok=ok,
    )


@pytest.mark.parametrize("n, d", [(n, d) for n in range(3, 6) for d in range(1, n + 1)])
def test_qr_relation_by_class_matches_the_member_by_member_reference(n, d):
    # every field of every report, on the enumerated pool and on a shuffled
    # one, whose classes have other first members and so other relabellings
    family = list(enumerate_all(n, d))
    for pool in (family, random.Random(n * 10 + d).sample(family, len(family))):
        for C in (1, 10, 100):
            params = DelocParams(C=F(C))
            for r in range(1, n - 1):
                by_class = verifiers._qr_relation(verifiers._Memo(pool), r, params)
                assert by_class == _member_qr_relation(verifiers._Memo(pool), r, params), (r, C)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_relabelled_results_are_the_permuted_members_own(n, data):
    # PA's switched results are A's with their rows permuted by first_of's
    # pi: the same multiset as switching PA by its own deduped switchings
    d = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = draw_sample(n, d, SamplerConfig(kind="mcmc"), np.random.default_rng(seed))
    order = data.draw(st.permutations(range(n)))
    pa = build(n, d, [a.row_supports[s] for s in order])
    f, pi = verifiers._Memo([a, pa]).first_of(pa)
    assert f.a is a and [a.row_supports[p] for p in pi] == list(pa.row_supports)
    relabelled = Counter(tuple(g.a.row_supports[p] for p in pi) for g in f.switched.values())
    own = Counter(apply_switch(pa, sw).row_supports for sw in dedup_switches(enumerate_switches(pa)))
    assert relabelled == own


def test_qr_relation_switches_only_first_members(monkeypatch):
    # (4,2) at C = 100: all 18 rank-2 members are sources with real edges,
    # yet the sweep enumerates switchings once per row class, 6 times in all
    pool = list(enumerate_all(4, 2))
    assert len(_one_per_class(pool)) == 6
    calls = _counting(monkeypatch, ["enumerate_switches"])
    reports = run_family_checks(pool, DelocParams(C=F(100)))
    assert calls == {"enumerate_switches": 6}
    assert not any(rep.violations for rep in reports)
    assert verifiers._qr_relation(verifiers._Memo(pool), 2, DelocParams(C=F(100))).edge_count == 288


def test_qr_relation_on_a_partial_pool_fails_as_the_reference_does():
    # without the rank-3 members of one row class, edges reach targets that
    # have no upper bound, and both ways of switching say which one first
    family = list(enumerate_all(4, 2))
    lost = next(f for f, _ in verifiers._Memo(family).classes if f.rank == 3)
    key = sorted(lost.a.row_supports)
    pool = [m for m in family if sorted(m.row_supports) != key]
    params = DelocParams(C=F(100))
    with pytest.raises(PreconditionError) as reference:
        _member_qr_relation(verifiers._Memo(pool), 2, params)
    with pytest.raises(PreconditionError) as by_class:
        verifiers._qr_relation(verifiers._Memo(pool), 2, params)
    assert str(by_class.value) == str(reference.value)
    assert "has no upper bound" in str(reference.value)


def test_all_ones_no_switches_everything_trivial():
    reports = run_family_checks([all_ones(3)])
    by_name = {r.check_name: r for r in reports}
    assert by_name["switch-count-bounds"].violations == 0
    assert by_name["rank-delta-law"].instances_checked == 0
