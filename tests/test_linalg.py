"""Exact rank, kernels, and the row-span functionals, against a naive oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglab import (
    ConsistencyError,
    DimensionError,
    SamplerConfig,
    SubspaceBasis,
    all_ones,
    block_diagonal,
    build,
    circulant,
    draw_sample,
    enumerate_all,
    f_perp,
    f_rows,
    format_vector,
    identity,
    kernel,
    rank_exact,
    rank_mod_p,
    rational_rank,
    sample_stub,
    span_basis,
)
from dreglab import linalg
from dreglab.experiment import run_trial

# ─── independent oracle: plain Fraction Gauss-Jordan elimination ───────────


def oracle_rref(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Nonzero rows of the reduced row echelon form, leading entries 1."""
    work = [[Fraction(v) for v in row] for row in rows]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b if b else a for a, b in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def oracle_rank(rows) -> int:
    return len(oracle_rref(rows))


def oracle_nullspace(rows, ncols) -> tuple[tuple[Fraction, ...], ...]:
    """RREF basis of {x : row . x = 0 for every row}."""
    reduced = oracle_rref(rows)
    pivots = [next(c for c, v in enumerate(row) if v != 0) for row in reduced]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = -row[fc]
        basis.append(x)
    return oracle_rref(basis)


def integer_form(rref) -> tuple[tuple[int, ...], ...]:
    """Each RREF row scaled to coprime integers (its lead is 1, so it stays positive)."""
    out = []
    for row in rref:
        den = lcm(*(v.denominator for v in row))
        ints = [int(v * den) for v in row]
        g = gcd(*ints)
        out.append(tuple(v // g for v in ints))
    return tuple(out)


# its right kernel has the non-integral RREF row (1, -1/2, -1/2, -1/2, 0, 1/2)
HALVES = build(6, 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 4, 5], [2, 4, 5], [3, 4, 5]])

FIXTURES = [
    identity(1),
    identity(6),
    all_ones(3),
    all_ones(5),
    block_diagonal(2, 2),
    block_diagonal(3, 2),
    block_diagonal(2, 3),
    circulant(5, 2),
    circulant(6, 2),
    circulant(6, 3),
    circulant(7, 3),
    circulant(8, 4),
]


def test_rational_rank_matches_oracle():
    for a in FIXTURES:
        assert rational_rank(a) == oracle_rank(a.dense_rows()), a


def test_known_ranks():
    assert rational_rank(identity(9)) == 9
    assert rational_rank(all_ones(4)) == 1
    assert rational_rank(block_diagonal(3, 2)) == 3  # one unit of rank per block
    # circulant(n, 2) rank: n minus the number of nontrivial common roots
    # of x^0 + x^1 with x^n - 1, i.e. n - 1 exactly when n is even
    assert rational_rank(circulant(6, 2)) == 5
    assert rational_rank(circulant(5, 2)) == 5


def test_rank_exact_consensus_and_report():
    for a in FIXTURES:
        rep = rank_exact(a)
        assert rep.rank == oracle_rank(a.dense_rows())
        assert rep.corank == a.n - rep.rank
        assert rep.rationally_confirmed  # n is far below the rational cutoff
        # one prime runs at n <= 128, and its lifted kernel settles a deficient rank
        assert rep.primes_used == linalg._PRIMES[:1]
        assert rep.kernel == (kernel(a) if rep.corank else None)


def test_rank_exact_deterministic_primes():
    a = circulant(6, 3)  # corank 2, certified by the first prime's lifted kernel
    r1, r2 = rank_exact(a), rank_exact(a)
    assert r1 == r2
    assert r1.primes_used == linalg._PRIMES[:1]


def test_rank_exact_above_rational_threshold():
    # n = 130 > RATIONAL_THRESHOLD, so the primes agree and decide alone.
    # circulant(n, 2) has corank 1 exactly when n is even; circulant(n, 3)
    # is singular only when 3 divides n (a cube root of unity is a root)
    assert linalg.RATIONAL_THRESHOLD < 130
    singular = rank_exact(circulant(130, 2))
    assert singular.rank == 129 == rational_rank(circulant(130, 2))
    assert singular.corank == 1
    assert not singular.rationally_confirmed
    full = rank_exact(circulant(130, 3))
    assert full.rank == 130 == rational_rank(circulant(130, 3))
    assert not full.rationally_confirmed


def test_rank_exact_prime_disagreement_forces_rational(monkeypatch):
    # det circulant(3, 2) = 2: its rank is 2 mod 2 and 3 mod 3, so the two
    # modular ranks disagree and rational elimination must decide
    monkeypatch.setattr(linalg, "_PRIMES", (2, 3))
    monkeypatch.setattr(linalg, "RATIONAL_THRESHOLD", 1)
    rep = rank_exact(circulant(3, 2))
    assert rep.rank == 3
    assert rep.corank == 0
    assert rep.rationally_confirmed
    assert rep.primes_used == (2, 3)


def test_rank_mod_p_never_exceeds_rational():
    for a in FIXTURES:
        exact = rational_rank(a)
        for p in (2, 3, 5, 97):
            assert rank_mod_p(a, p) <= exact
    # rank genuinely drops mod 2 for circulant(3, 2), whose determinant is 2
    assert rank_mod_p(circulant(3, 2), 2) == 2 < rational_rank(circulant(3, 2))


def oracle_rank_mod_p(rows, p) -> int:
    """Rank over GF(p) by plain dense Gauss-Jordan elimination."""
    work = [[v % p for v in row] for row in rows]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [v * inv % p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        r += 1
    return r


def _stub_samples(n, d, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = sample_stub(n, d, rng)
        if a is not None:
            out.append(a)
    return out


def test_rank_mod_p_matches_oracle():
    cases = [m for n in range(1, 5) for d in range(1, n + 1) for m in enumerate_all(n, d)]
    cases += list(enumerate_all(5, 2))
    cases += _stub_samples(12, 3, 30, 12)
    cases += _stub_samples(40, 2, 30, 40)
    cases += _stub_samples(9, 4, 30, 9)
    drops = 0
    for a in cases:
        dense = a.dense_rows()
        exact = rational_rank(a)
        for p in (2, 3, 5, 97, *linalg._PRIMES):
            r = rank_mod_p(a, p)
            assert r == oracle_rank_mod_p(dense, p), (a, p)
            drops += r < exact
    # the cancellation path must be exercised: circulant(3, 2) drops mod 2
    assert rank_mod_p(circulant(3, 2), 2) == oracle_rank_mod_p(circulant(3, 2).dense_rows(), 2) == 2
    assert drops > 0


def _count_routes(monkeypatch):
    """Patch the modular core, Bareiss and the lift check with call loggers.

    Returns the log: a prime per modular elimination, ``"bareiss"`` per
    Bareiss elimination, and ``("lift", m, ok)`` per lift-and-check.
    """
    log = []
    core, bareiss, certify = linalg._rank_rows_mod_p, linalg._int_echelon, linalg._certified_kernel

    def counted_mod_p(rows, p):
        log.append(p)
        return core(rows, p)

    def counted_bareiss(rows):
        log.append("bareiss")
        return bareiss(rows)

    def counted_certify(a, vectors, m):
        basis = certify(a, vectors, m)
        log.append(("lift", m, basis is not None))
        return basis

    monkeypatch.setattr(linalg, "_rank_rows_mod_p", counted_mod_p)
    monkeypatch.setattr(linalg, "_int_echelon", counted_bareiss)
    monkeypatch.setattr(linalg, "_certified_kernel", counted_certify)
    return log


def _route(log, a):
    linalg._echelon_of.cache_clear()  # a cached echelon would hide Bareiss
    log.clear()
    rep = rank_exact(a)
    return rep, list(log)


def test_rank_exact_routing(monkeypatch):
    log = _count_routes(monkeypatch)
    p, q = linalg._PRIMES
    # full rank at any n: the first prime proves it, and nothing else runs
    (big,) = _stub_samples(128, 3, 1, 128)
    for a in (identity(9), circulant(7, 3), big, circulant(130, 3)):
        rep, calls = _route(log, a)
        assert rep.corank == 0 and rep.kernel is None
        assert rep.rationally_confirmed == (a.n <= linalg.RATIONAL_THRESHOLD)
        assert rep.primes_used == (p,)
        assert calls == [p]
    # deficient at n <= RATIONAL_THRESHOLD: one prime and its lifted kernel,
    # no Bareiss; the certified kernel is the Bareiss kernel
    for a in (circulant(6, 2), circulant(6, 3), HALVES):
        rep, calls = _route(log, a)
        assert rep.corank >= 1 and rep.rationally_confirmed
        assert rep.primes_used == (p,)
        assert calls == [p, ("lift", p, True)]
        assert rep.kernel == kernel(a, "right")
        assert rep.kernel.dim == rep.corank
    # deficient above it: both primes agree and decide, no Bareiss, no kernel
    rep, calls = _route(log, circulant(130, 2))
    assert rep.corank == 1 and not rep.rationally_confirmed
    assert rep.primes_used == (p, q)
    assert calls == [p, q]
    assert rep.kernel is None


def test_rank_exact_cross_check_raises(monkeypatch):
    # a modular rank above the rational rank can only mean a bug.  At
    # n <= 128 the overshoot's kernel vectors fail the exact check for both
    # primes, so Bareiss decides and catches it: circulant(6, 3) has rank 4,
    # and this fake echelon claims rank 5 with pivots 0..4 and x_c = x_5
    log = _count_routes(monkeypatch)
    fake = [(c, [(5, 1)]) for c in range(5)]
    monkeypatch.setattr(linalg, "_rank_rows_mod_p", lambda rows, p: log.append(p) or fake)
    with pytest.raises(ConsistencyError):
        _route(log, circulant(6, 3))
    p, q = linalg._PRIMES
    assert log == [p, ("lift", p, False), q, ("lift", p * q, False), "bareiss"]
    # above it, disagreeing primes reach Bareiss: circulant(132, 3) has rank 130
    ranks = {p: 131, q: 129}
    monkeypatch.setattr(
        linalg, "_rank_rows_mod_p", lambda rows, p: [(c, []) for c in range(ranks[p])]
    )
    with pytest.raises(ConsistencyError):
        rank_exact(circulant(132, 3))


def test_rank_exact_falls_back_when_a_prime_drops_the_rank(monkeypatch):
    # det circulant(3, 2) = 2, so its rank is 2 mod 2: the one kernel vector
    # mod 2 lifts to (1, 1, 1), which fails A x = 0 over Z.  The rank is 3
    # mod 3, so the pivot columns differ and no CRT is tried; Bareiss decides
    log = _count_routes(monkeypatch)
    monkeypatch.setattr(linalg, "_PRIMES", (2, 3))
    a = circulant(3, 2)
    assert rank_mod_p(a, 2) == 2
    rep, calls = _route(log, a)
    assert calls == [2, ("lift", 2, False), 3, "bareiss"]
    assert rep.rank == 3 == rational_rank(a)
    assert rep.corank == 0 and rep.kernel is None
    assert rep.rationally_confirmed and rep.primes_used == (2, 3)


def _singular_stub_samples(n, d, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = sample_stub(n, d, rng)
        if a is not None and rank_mod_p(a, linalg._PRIMES[0]) < n:
            out.append(a)
    return out


def test_rank_exact_small_primes_reach_crt(monkeypatch):
    # with p = 101 the lift only reaches entries up to 7, too few for most
    # (128,3) kernels, so the CRT route must run; whatever route decides,
    # rank and kernel stay exact
    cases = _singular_stub_samples(128, 3, 4, 7)
    log = _count_routes(monkeypatch)
    monkeypatch.setattr(linalg, "_PRIMES", (101, 103))
    lifts = []
    for a in cases:
        rep, calls = _route(log, a)
        lifts += [c[1] for c in calls if isinstance(c, tuple)]
        assert rep.rank == rational_rank(a) < a.n
        assert rep.kernel == kernel(a)
    assert 101 * 103 in lifts


def test_rank_exact_kernel_is_the_bareiss_kernel(monkeypatch):
    # both sides of every small family member and of singular grid-sized
    # samples, against kernel(), which always runs Bareiss
    log = _count_routes(monkeypatch)
    cases = [m for n, d in SMALL_FAMILIES for m in enumerate_all(n, d)]
    cases += list(enumerate_all(5, 2))
    cases += _singular_stub_samples(40, 2, 20, 40) + _singular_stub_samples(60, 2, 20, 60)
    cases += _singular_stub_samples(128, 3, 6, 128)
    routes = set()
    for a in cases:
        for m in (a, a.transpose()):
            rep, calls = _route(log, m)
            routes.add(tuple(calls))
            assert rep.rank == rational_rank(m)
            assert rep.kernel == (kernel(m) if rep.corank else None)
    p, q = linalg._PRIMES
    # one prime certifies most, and CRT the rest of the (128,3) kernels
    assert (p, ("lift", p, True)) in routes
    assert (p, ("lift", p, False), q, ("lift", p * q, True)) in routes
    assert not any("bareiss" in calls for calls in routes)


def test_singular_trials_run_no_bareiss(monkeypatch):
    # run_trial takes both kernels from rank_exact, so a singular grid trial
    # at n <= 128 runs no integer elimination unless both primes fail
    log = _count_routes(monkeypatch)
    config = SamplerConfig()
    singular = 0
    for n, d, trials in ((40, 2, 20), (60, 2, 10), (128, 3, 60)):
        for t in range(trials):
            linalg._echelon_of.cache_clear()
            log.clear()
            rec = run_trial(n, d, config, 1, t)
            if rec.corank:
                singular += 1
                assert rec.max_kernel_level_set is not None
            assert "bareiss" not in log
    assert singular >= 10


def test_rank_exact_matches_rational_rank_on_grid_samples():
    # a full rank is decided by the modular core alone, so check every
    # answer against Bareiss on samples like the estimate grids draw
    mcmc = SamplerConfig(kind="mcmc")
    cases = _stub_samples(40, 2, 20, 40) + _stub_samples(60, 2, 20, 60)
    cases += _stub_samples(128, 3, 8, 128) + _stub_samples(256, 3, 2, 256)
    for n, d, seed in ((32, 8, 32), (48, 8, 48)):
        rng = np.random.default_rng(seed)
        cases += [draw_sample(n, d, mcmc, rng) for _ in range(4)]
    coranks = []
    for a in cases:
        rep = rank_exact(a)
        assert rep.rank == rational_rank(a), a
        assert rep.corank == a.n - rep.rank
        assert rep.rationally_confirmed == (a.n <= linalg.RATIONAL_THRESHOLD)
        coranks.append(rep.corank)
    assert 0 in coranks and max(coranks) >= 1  # full and deficient routes both ran


def test_kernel_vectors_annihilate():
    for a in FIXTURES:
        right = kernel(a, "right")
        left = kernel(a, "left")
        assert right.dim == left.dim == a.n - rational_rank(a)
        for m, space in ((a, right), (a.transpose(), left)):
            for x in space.vectors:
                assert all(sum(x[t] for t in support) == 0 for support in m.row_supports)


def test_kernel_canonical_form():
    k = kernel(block_diagonal(2, 2), "right")
    assert k.vectors == ((1, -1, 0, 0), (0, 0, 1, -1))
    assert kernel(HALVES, "right").vectors == ((2, -1, -1, -1, 0, 1), (0, 0, 0, 0, 1, -1))
    # integer entries, coprime rows, positive leads, pivot columns otherwise zero
    for a in FIXTURES + [HALVES]:
        for side in ("right", "left"):
            vectors = kernel(a, side).vectors
            leads = [next(ix for ix, val in enumerate(v) if val != 0) for v in vectors]
            assert leads == sorted(set(leads))
            for v, lead in zip(vectors, leads):
                assert all(type(val) is int for val in v)
                assert gcd(*v) == 1 and v[lead] > 0
                assert all(w[lead] == 0 for w in vectors if w is not v)


def test_kernel_side_validation():
    with pytest.raises(ValueError):
        kernel(identity(2), "middle")


def test_f_perp_dimensions():
    # f_perp returns the orthogonal complement of span{rows != i,j; R_i+R_j}.
    # For the identity that span has dimension n-1, so the complement is the
    # line through e_i - e_j.
    s = f_perp(identity(5), 0, 1)
    assert s.dim == 1
    assert s.vectors == ((Fraction(1), Fraction(-1), Fraction(0), Fraction(0), Fraction(0)),)
    with pytest.raises(ValueError):
        f_perp(identity(5), 2, 2)
    with pytest.raises(IndexError):
        f_perp(identity(5), 0, 5)
    # f_rows lists F's n - 1 spanning rows, the sum of rows i and j last
    rows = f_rows(identity(5), 0, 1)
    assert len(rows) == 4
    assert rows[-1] == [1, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        f_rows(identity(5), 2, 2)
    with pytest.raises(IndexError):
        f_rows(identity(5), 0, 5)


def test_f_perp_block_equals_kernel():
    # on the 2x2 block matrix the protected span always equals the row space,
    # so its complement is the kernel for every pair — the K_A condition
    b = block_diagonal(2, 2)
    k = kernel(b, "right")
    for i in range(4):
        for j in range(4):
            if i != j:
                assert f_perp(b, i, j) == k


def _contains(space, vector):
    """Whether ``vector`` lies in ``space``: adding it leaves the span unchanged."""
    return span_basis([*space.vectors, vector]) == space


def test_subspace_basis_equality_and_dimensions():
    b = block_diagonal(2, 2)
    s1 = f_perp(b, 0, 2)
    s2 = f_perp(b, 1, 3)
    assert s1 == s2  # the protected spans coincide, so do complements
    one = Fraction(1)
    zero = Fraction(0)
    assert _contains(s1, (one, -one, zero, zero))
    assert _contains(s1, (one, -one, one, -one))
    assert not _contains(s1, (one, one, zero, zero))
    assert not _contains(s1, (one, zero, zero, zero))
    assert s1 != f_perp(identity(5), 0, 1)
    # a zero-dimensional space still knows its ambient dimension
    assert kernel(identity(3)) != kernel(identity(5))
    assert kernel(identity(3)) == SubspaceBasis(3, ()) != SubspaceBasis(4, ())
    assert span_basis([(0, 0, 0)]) == SubspaceBasis(3, ())
    with pytest.raises(DimensionError):
        span_basis([(0,) * 5, (1, 2, 3)])
    with pytest.raises(DimensionError):
        SubspaceBasis(3, [(1, 2)])
    with pytest.raises(ValueError):
        span_basis([])


SMALL_FAMILIES = [(n, d) for n in range(1, 5) for d in range(1, n + 1)]


def test_kernel_matches_oracle_on_small_families():
    for n, d in SMALL_FAMILIES:
        for m in enumerate_all(n, d):
            assert kernel(m, "right").vectors == integer_form(
                oracle_nullspace(m.dense_rows(), n)
            ), m
            assert kernel(m, "left").vectors == integer_form(
                oracle_nullspace(m.transpose().dense_rows(), n)
            ), m


# d = 3 is where a pivot often fails to divide the back-substitution sum,
# so the integer path has to rescale the vector; at d = 2 it never does.
@pytest.mark.parametrize("n, d", [(40, 2), (60, 2), (12, 3)])
def test_kernel_matches_oracle_on_stub_samples(n, d):
    rng = np.random.default_rng(1000 + n)
    for _ in range(200):
        a = None
        while a is None:
            a = sample_stub(n, d, rng)
        assert kernel(a, "right").vectors == integer_form(oracle_nullspace(a.dense_rows(), n))
        assert kernel(a, "left").vectors == integer_form(
            oracle_nullspace(a.transpose().dense_rows(), n)
        )


def test_f_perp_matches_oracle_on_small_families():
    for n, d in SMALL_FAMILIES:
        for m in enumerate_all(n, d):
            dense = m.dense_rows()
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    rows = [dense[s] for s in range(n) if s not in (i, j)]
                    rows.append([x + y for x, y in zip(dense[i], dense[j])])
                    assert f_rows(m, i, j) == rows
                    assert f_perp(m, i, j).vectors == integer_form(
                        oracle_nullspace(rows, n)
                    ), (m, i, j)


def _disguised(vectors, rng):
    """The same span: vectors scaled, mixed, reordered, and duplicated."""
    def scalar():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    out = []
    for vec in vectors:
        c = scalar()
        out.append(tuple(c * v for v in vec))
    if len(vectors) >= 2:
        c = scalar()
        out.append(tuple(a + c * b for a, b in zip(vectors[0], vectors[1])))
    out += out[:2]
    rng.shuffle(out)
    return out


def test_span_basis_canonical_under_disguise():
    rng = random.Random(0)
    for n, d in SMALL_FAMILIES:
        for m in enumerate_all(n, d):
            spaces = [kernel(m, "right")] + ([f_perp(m, 0, 1)] if n >= 2 else [])
            for space in spaces:
                if not space.vectors:
                    continue
                disguised = _disguised(space.vectors, rng)
                assert span_basis(disguised) == space
                cleared = [
                    tuple(int(v * lcm(*(t.denominator for t in vec))) for v in vec)
                    for vec in disguised
                ]
                assert SubspaceBasis(n, cleared) == space
                assert all(_contains(space, v) for v in disguised)
                if space.dim == n:
                    continue
                # a unit vector outside the span stays outside, however disguised
                units = (tuple(Fraction(int(t == k)) for t in range(n)) for k in range(n))
                unit = next(e for e in units if oracle_rank(space.vectors + (e,)) > space.dim)
                assert span_basis(disguised + [unit]).dim == space.dim + 1
                assert not _contains(space, tuple(3 * t for t in unit))


def test_vector_text_round_trip():
    v = (Fraction(1), Fraction(-2, 3), Fraction(0))
    assert format_vector(v) == "1/1 -2/3 0/1"
    assert tuple(Fraction(tok) for tok in format_vector(v).split()) == v
    assert format_vector((1, Fraction(-4, 6), 0)) == "1/1 -2/3 0/1"  # ints accepted


def test_rank_transpose_invariance():
    for a in FIXTURES:
        assert rational_rank(a) == rational_rank(a.transpose())


def test_small_family_rank_spectrum():
    # frozen exhaustive counts: every (4,2) matrix is singular, and the
    # rank histogram over the family is {2: 18, 3: 72}
    from collections import Counter

    hist = Counter(rational_rank(m) for m in enumerate_all(4, 2))
    assert hist == {2: 18, 3: 72}


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(7))))
def test_permutation_matrices_invertible(perm):
    a = build(7, 1, [[p] for p in perm])
    rep = rank_exact(a)
    assert rep.rank == 7 and rep.corank == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 9), st.data())
def test_random_members_rank_against_oracle(n, data):
    # keep d small: stub rejection is hopeless near d = n for larger n
    d = data.draw(st.integers(1, min(n, 3)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = draw_sample(n, d, SamplerConfig(max_rejections=10_000), np.random.default_rng(seed))
    assert rational_rank(a) == oracle_rank(a.dense_rows())
    assert rank_exact(a).rank == rational_rank(a)
