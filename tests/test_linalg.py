"""Exact rank, kernels, and the row-span functionals, against a naive oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglab import (
    ConsistencyError,
    DimensionError,
    all_ones,
    block_diagonal,
    build,
    circulant,
    enumerate_all,
    f_perp,
    format_vector,
    identity,
    in_span,
    kernel,
    matvec,
    parse_vector,
    rank_exact,
    rank_mod_p,
    rational_rank,
    sample_stub,
    spaces_equal,
    span_basis,
)

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
        assert len(rep.primes_used) >= 2
        assert len(set(rep.primes_used)) == len(rep.primes_used)


def test_rank_exact_deterministic_primes():
    a = circulant(7, 3)
    r1, r2 = rank_exact(a), rank_exact(a)
    assert r1.primes_used == r2.primes_used
    assert rank_exact(a, prime_seed=99).primes_used != r1.primes_used


def test_rank_mod_p_never_exceeds_rational():
    for a in FIXTURES:
        exact = rational_rank(a)
        for p in (2, 3, 5, 97):
            assert rank_mod_p(a, p) <= exact
    # rank genuinely drops mod 2 for circulant(3, 2), whose determinant is 2
    assert rank_mod_p(circulant(3, 2), 2) == 2 < rational_rank(circulant(3, 2))


def test_kernel_vectors_annihilate():
    for a in FIXTURES:
        right = kernel(a, "right")
        left = kernel(a, "left")
        assert right.dim == left.dim == a.n - rational_rank(a)
        zero = tuple(Fraction(0) for _ in range(a.n))
        for x in right.vectors:
            assert matvec(a, x) == zero
        for y in left.vectors:
            assert matvec(a.transpose(), y) == zero


def test_kernel_canonical_form():
    k = kernel(block_diagonal(2, 2), "right")
    assert k.vectors == (
        (Fraction(1), Fraction(-1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
    )
    # leading entries are 1 and each pivot column is otherwise zero
    for v in kernel(circulant(6, 2), "right").vectors:
        lead = next(ix for ix, val in enumerate(v) if val != 0)
        assert v[lead] == 1


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


def test_f_perp_block_equals_kernel():
    # on the 2x2 block matrix the protected span always equals the row space,
    # so its complement is the kernel for every pair — the K_A condition
    b = block_diagonal(2, 2)
    k = kernel(b, "right")
    for i in range(4):
        for j in range(4):
            if i != j:
                assert spaces_equal(f_perp(b, i, j), k)


def test_spaces_equal_and_in_span():
    b = block_diagonal(2, 2)
    s1 = f_perp(b, 0, 2)
    s2 = f_perp(b, 1, 3)
    assert spaces_equal(s1, s2)  # the protected spans coincide, so do complements
    one = Fraction(1)
    zero = Fraction(0)
    assert in_span((one, -one, zero, zero), s1)
    assert in_span((one, -one, one, -one), s1)
    assert not in_span((one, one, zero, zero), s1)
    assert not in_span((one, zero, zero, zero), s1)
    with pytest.raises(DimensionError):
        spaces_equal(s1, f_perp(identity(5), 0, 1))
    with pytest.raises(DimensionError):
        matvec(b, (one, zero))


SMALL_FAMILIES = [(n, d) for n in range(1, 5) for d in range(1, n + 1)]


def test_kernel_matches_oracle_on_small_families():
    for n, d in SMALL_FAMILIES:
        for m in enumerate_all(n, d):
            assert kernel(m, "right").vectors == oracle_nullspace(m.dense_rows(), n), m
            assert kernel(m, "left").vectors == oracle_nullspace(
                m.transpose().dense_rows(), n
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
        assert kernel(a, "right").vectors == oracle_nullspace(a.dense_rows(), n)
        assert kernel(a, "left").vectors == oracle_nullspace(a.transpose().dense_rows(), n)


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
                    assert f_perp(m, i, j).vectors == oracle_nullspace(rows, n), (m, i, j)


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


def test_spaces_equal_and_in_span_canonical_under_disguise():
    rng = random.Random(0)
    for n, d in SMALL_FAMILIES:
        for m in enumerate_all(n, d):
            spaces = [kernel(m, "right")] + ([f_perp(m, 0, 1)] if n >= 2 else [])
            for space in spaces:
                if not space.vectors:
                    continue
                disguised = _disguised(space.vectors, rng)
                assert span_basis(disguised).vectors == space.vectors
                assert spaces_equal(disguised, space) and spaces_equal(space, disguised)
                assert all(in_span(v, space) and in_span(v, disguised) for v in disguised)
                if space.dim == n:
                    continue
                # a unit vector outside the span stays outside, however disguised
                units = (tuple(Fraction(int(t == k)) for t in range(n)) for k in range(n))
                unit = next(e for e in units if oracle_rank(space.vectors + (e,)) > space.dim)
                assert not in_span(unit, disguised)
                assert not in_span(tuple(3 * t for t in unit), space)
                assert not spaces_equal(disguised + [unit], space)


def test_vector_text_round_trip():
    v = (Fraction(1), Fraction(-2, 3), Fraction(0))
    assert format_vector(v) == "1/1 -2/3 0/1"
    assert parse_vector(format_vector(v)) == v
    assert parse_vector("1 -4/6 0") == v  # integers and unreduced fractions accepted


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
    from dreglab import SamplerConfig, draw_sample

    a = draw_sample(n, d, SamplerConfig(max_rejections=10_000), np.random.default_rng(seed))
    assert rational_rank(a) == oracle_rank(a.dense_rows())
    assert rank_exact(a).rank == rational_rank(a)
