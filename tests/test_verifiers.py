"""Rank/switching interplay: K_A, x-badness, replay, deloc, double counting."""

from fractions import Fraction

import numpy as np
import pytest

from dreglab import (
    BoundViolation,
    DelocParams,
    NotSingularError,
    PreconditionError,
    SamplerConfig,
    SubspaceBasis,
    Switch,
    all_ones,
    apply_switch,
    block_diagonal,
    circulant,
    compute_KA,
    count_x_bad,
    deloc_event,
    dedup_switches,
    double_count_check,
    enumerate_all,
    enumerate_switches,
    f_perp,
    identity,
    kernel,
    level_sets,
    qr_relation_stats,
    rank_delta_check,
    rank_increasing_switchings,
    rational_rank,
    replay_KA_bound,
    run_family_checks,
    sample_uniform,
    verify_increase_mechanism,
)
from dreglab import verifiers

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
    assert res.witness_size == 2
    assert res.theta == pytest.approx(4 * np.log(2) ** 2 / np.log(4))
    # the witness is a genuine kernel vector with a level set of that size
    assert res.witness_vector in kernel(BLOCK, "right").vectors + kernel(BLOCK, "left").vectors


def test_deloc_event_invertible_matrix_holds():
    # no nonzero kernel vectors at all: the certified subset is empty
    res = deloc_event(identity(5), DelocParams())
    assert res.holds and res.vectors_checked == 0


def test_deloc_generous_constant_holds():
    res = deloc_event(BLOCK, DelocParams(C=F(100)))
    assert res.holds and res.theta == 4.0 and res.vectors_checked > 0


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


def _ka_by_definition(a):
    ker = kernel(a, "right")
    return {
        (i, j)
        for i in range(a.n)
        for j in range(a.n)
        if i != j and ker == f_perp(a, i, j)
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
    stubs = [sample_uniform(12, 3, SamplerConfig(), rng) for _ in range(24)]
    assert len(singular) == 94
    assert any(rational_rank(m) < 12 for m in stubs)
    for a in singular + stubs:
        assert compute_KA(a).pairs == _ka_by_definition(a)


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

    stats2 = qr_relation_stats(2, pool, DelocParams(C=F(100)))
    assert stats2.source_count == 18
    assert stats2.edge_count > 0
    assert stats2.double_count_ok
    # every source contributes its out-degree to the histogram
    assert sum(mult for _, mult in stats2.out_degree_hist) == stats2.source_count
    assert sum(deg * mult for deg, mult in stats2.out_degree_hist) == stats2.edge_count
    assert sum(deg * mult for deg, mult in stats2.in_degree_hist) == stats2.edge_count
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
    real = verifiers.apply_switch
    monkeypatch.setattr(verifiers, "apply_switch", lambda a, sw: real(a, sw).transpose())
    rep = _check(run_family_checks(list(enumerate_all(4, 2))), "f-invariance")
    assert rep.violations > 0
    assert rep.witnesses[0]["note"] == "F(A; i, j) changed"


def test_kernel_containment_fires_on_a_vector_outside_the_kernel(monkeypatch):
    real = verifiers.kernel

    def right_kernel_replaced(first_vector):
        def broken(a, side="right"):
            basis = real(a, side)
            if side != "right" or basis.dim == 0:
                return basis
            return SubspaceBasis(a.n, [first_vector(a.n), *basis.vectors[1:]])

        return broken

    # A 1 = d 1 != 0, so a "kernel" spanned with the all-ones vector leaves F^perp
    monkeypatch.setattr(verifiers, "kernel", right_kernel_replaced(lambda n: (1,) * n))
    rep = _check(run_family_checks(list(enumerate_all(4, 2))), "kernel-containment")
    assert rep.violations > 0
    assert {"matrix", "pair", "vector"} == set(rep.witnesses[0])
    # e_0 is orthogonal to rows 2 and 3 of BLOCK, so for the pair (0, 1) only
    # the spanning row "row 0 + row 1" of F can catch it
    e0 = right_kernel_replaced(lambda n: (1,) + (0,) * (n - 1))
    monkeypatch.setattr(verifiers, "kernel", e0)
    rep = _check(run_family_checks([BLOCK]), "kernel-containment")
    assert [0, 1] in [w["pair"] for w in rep.witnesses]


@pytest.mark.parametrize("n, d, switchings", [(3, 2, 18), (4, 1, 144)])
def test_each_switching_is_applied_once(n, d, switchings, monkeypatch):
    # on a full-rank family only rank-delta and f-invariance switch a matrix,
    # and they share one switched matrix per deduped switching
    pool = list(enumerate_all(n, d))
    assert sum(len(dedup_switches(enumerate_switches(m))) for m in pool) == switchings
    real = verifiers.apply_switch
    calls = []

    def counted(a, sw):
        calls.append(sw)
        return real(a, sw)

    monkeypatch.setattr(verifiers, "apply_switch", counted)
    reports = run_family_checks(pool)
    assert len(calls) == switchings
    assert _check(reports, "rank-delta-law").instances_checked == switchings


def test_all_ones_no_switches_everything_trivial():
    reports = run_family_checks([all_ones(3)])
    by_name = {r.check_name: r for r in reports}
    assert by_name["switch-count-bounds"].violations == 0
    assert by_name["rank-delta-law"].instances_checked == 0
