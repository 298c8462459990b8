"""Construction, validation, and serialization of d-biregular 0/1 matrices."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglab import (
    BiregularMatrix,
    ColDegreeError,
    DuplicateIndexError,
    ParseError,
    RowDegreeError,
    SamplerConfig,
    all_ones,
    block_diagonal,
    build,
    circulant,
    draw_sample,
    identity,
    parse,
    serialize,
)

# ─── independent oracle ──────────────────────────────────────────────────────


def dense(a: BiregularMatrix) -> np.ndarray:
    return np.array([[int(t in support) for t in range(a.n)] for support in a.row_supports])


def dense_ok(a: BiregularMatrix) -> bool:
    """Brute-force re-check of the defining property on the dense array."""
    m = dense(a)
    return (
        m.shape == (a.n, a.n)
        and set(np.unique(m)) <= {0, 1}
        and bool((m.sum(axis=1) == a.d).all())
        and bool((m.sum(axis=0) == a.d).all())
    )


SAMPLES = [
    identity(1),
    identity(2),
    identity(7),
    circulant(5, 2),
    circulant(6, 3),
    circulant(9, 4),
    all_ones(3),
    all_ones(5),
    block_diagonal(2, 2),
    block_diagonal(3, 2),
    block_diagonal(2, 3),
]


def test_builders_satisfy_degree_property():
    for a in SAMPLES:
        assert dense_ok(a)


def test_identity_entries():
    a = identity(3)
    assert [[a.entry(s, t) for t in range(3)] for s in range(3)] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_circulant_shape():
    a = circulant(5, 2)
    assert a.row_supports == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    assert a.d == 2


def test_block_diagonal_supports():
    a = block_diagonal(2, 2)
    assert a.n == 4 and a.d == 2
    assert a.row_supports == ((0, 1), (0, 1), (2, 3), (2, 3))


def test_entry_and_ones_agree_with_dense():
    for a in SAMPLES:
        m = dense(a)
        assert sorted(a.ones()) == [tuple(st) for st in np.argwhere(m == 1).tolist()]
        for s in range(a.n):
            for t in range(a.n):
                assert a.entry(s, t) == m[s, t]


def test_entry_range_checked():
    a = identity(3)
    with pytest.raises(IndexError):
        a.entry(3, 0)
    with pytest.raises(IndexError):
        a.entry(0, -4)


def test_transpose_involution_and_columns():
    for a in SAMPLES:
        at = a.transpose()
        assert np.array_equal(dense(at), dense(a).T)
        assert at.transpose() == a


def test_matrix_is_its_row_supports():
    assert [f.name for f in dataclasses.fields(BiregularMatrix)] == ["n", "d", "row_supports"]


def test_transpose_equals_build_from_columns_on_samples():
    rng = np.random.default_rng(18)
    samples = [draw_sample(128, 3, SamplerConfig(), rng) for _ in range(3)]
    samples += [draw_sample(48, 8, SamplerConfig(kind="mcmc"), rng) for _ in range(2)]
    for a in samples:
        m = dense(a)
        columns = [np.flatnonzero(m[:, t]).tolist() for t in range(a.n)]
        assert a.transpose() == build(a.n, a.d, columns)


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build(0, 1, [])
    with pytest.raises(ValueError):
        build(3, 0, [[], [], []])
    with pytest.raises(ValueError):
        build(3, 4, [[0, 1, 2]] * 3)  # d > n
    with pytest.raises(ValueError):
        build(3, 1, [[0], [1]])  # wrong row count


def test_build_rejects_bad_rows():
    with pytest.raises(DuplicateIndexError):
        build(3, 2, [[0, 0], [1, 2], [1, 2]])
    with pytest.raises(RowDegreeError):
        build(3, 2, [[0], [1, 2], [0, 1]])
    with pytest.raises(IndexError):
        build(3, 2, [[0, 3], [1, 2], [0, 1]])
    # row sums fine, column sums off
    with pytest.raises(ColDegreeError):
        build(3, 2, [[0, 1], [0, 1], [0, 2]])


def _permuted_circulant(n, d, seed, dtype):
    """The (n, d) circulant with rows and columns permuted at random, as a
    sorted (n, d) array: a valid input made without :func:`build`."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(n), rng.permutation(n)
    offsets = np.arange(d)
    return np.sort(cols[(rows[:, None] + offsets) % n], axis=1).astype(dtype)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 64),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]),
)
def test_build_array_path_equals_list_path(n, data, seed, dtype):
    # a valid sorted array, checked in bulk from 32 entries on, gives the
    # list path's matrix, with rows of Python ints
    d = data.draw(st.integers(1, n))
    arr = _permuted_circulant(n, d, seed, dtype)
    a = build(n, d, arr)
    assert a == build(n, d, arr.tolist())
    assert all(type(t) is int for row in a.row_supports for t in row)
    assert dense_ok(a)


def _fault(name, n):
    """The (n, 2) circulant, rows [0 1] [1 2] ... [0 n-1], as an array with
    one fault put in."""
    arr = np.array(circulant(n, 2).row_supports)
    if name == "index n":
        arr[1, 1] = n
    elif name == "index 2^40":
        arr[1, 1] = 1 << 40
    elif name == "uint64 index 2^64 - 1":
        arr = arr.astype(np.uint64)
        arr[1, 1] = (1 << 64) - 1
    elif name == "negative index":
        arr[0, 0] = -1
    elif name == "repeated index":
        arr[1] = [1, 1]
    elif name == "n - 1 rows":
        arr = arr[:-1]
    elif name == "d + 1 columns":
        arr = np.hstack([arr, (arr[:, -1:] + 1) % n])
    elif name == "float array":
        arr = arr.astype(float)
    elif name == "column with d + 1 entries":
        arr[2] = [0, 1]
    return arr


@pytest.mark.parametrize("n", [5, 16])
@pytest.mark.parametrize(
    "name",
    [
        "index n",
        "index 2^40",
        "uint64 index 2^64 - 1",
        "negative index",
        "repeated index",
        "n - 1 rows",
        "d + 1 columns",
        "float array",
        "column with d + 1 entries",
    ],
)
def test_build_array_faults_raise_what_lists_raise(name, n):
    # an array that fails the bulk checks (n = 16: 32 entries), or is too
    # small for them (n = 5), goes through the per-row loop as lists, so it
    # raises the list call's exception with its message.  A stray index far
    # above n is caught before bincount sizes its bins
    arr = _fault(name, n)
    with pytest.raises(Exception) as by_list:
        build(n, 2, arr.tolist())
    with pytest.raises(Exception) as by_array:
        build(n, 2, arr)
    assert type(by_array.value) is type(by_list.value)
    assert str(by_array.value) == str(by_list.value)


def test_build_accepts_an_unsorted_array():
    arr = _permuted_circulant(12, 4, 7, np.int64)[:, ::-1]
    assert build(12, 4, arr) == build(12, 4, arr.tolist()) == build(12, 4, arr[:, ::-1])


def test_hash_is_the_fields_hash_across_pickling():
    # the hash is kept on first use; it stays the hash of the fields, for a
    # matrix pickled before its first hash and for one pickled after
    for a in (circulant(7, 3), draw_sample(40, 3, SamplerConfig(), np.random.default_rng(3))):
        fresh = pickle.loads(pickle.dumps(a))
        assert hash(a) == hash((a.n, a.d, a.row_supports))
        again = pickle.loads(pickle.dumps(a))
        for b in (fresh, again):
            assert b == a
            assert hash(b) == hash((b.n, b.d, b.row_supports)) == hash(a)
        assert len({a, fresh, again}) == 1


def test_golden_serialization():
    assert serialize(identity(2)) == "2 1\n0\n1\n"
    assert serialize(block_diagonal(2, 2)) == "4 2\n0 1\n0 1\n2 3\n2 3\n"


def test_parse_round_trip():
    for a in SAMPLES:
        assert parse(serialize(a)) == a


def test_parse_rejections():
    with pytest.raises(ParseError, match="trailing newline"):
        parse("")
    with pytest.raises(ParseError, match="line 1"):
        parse("\n")  # the shortest text that ends in a newline has an empty header
    with pytest.raises(ParseError):
        parse("2 1\n0\n1")  # missing trailing newline
    with pytest.raises(ParseError):
        parse("2\n0\n1\n")  # short header
    with pytest.raises(ParseError):
        parse("2 1\n0\n1\n1\n")  # extra row
    with pytest.raises(ParseError):
        parse("2 1\n0\n")  # missing row
    with pytest.raises(ParseError):
        parse("4 2\n1 0\n0 1\n2 3\n2 3\n")  # indices not increasing
    with pytest.raises(ParseError):
        parse("2 1\nx\n1\n")  # non-integer token
    # a column index outside [0, n) is refused by parse itself, with its place
    for token in ("5", "-1"):
        with pytest.raises(ParseError, match=rf"^line 3, token 0: column index {token} outside \[0, 2\)$"):
            parse(f"2 1\n0\n{token}\n")


def test_parse_error_carries_location():
    try:
        parse("4 2\n0 1\n0 1\n3 2\n2 3\n")
    except ParseError as exc:
        assert exc.line == 4
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


def test_degree_errors_are_parse_errors():
    # build's degree errors are refused by parse itself: a row with its line,
    # a column by its index
    with pytest.raises(ParseError, match=r"^line 3: 1 entries, expected 2$") as exc:
        parse("3 2\n0 1\n1\n0 2\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError, match=r"^column 0: 3 entries, expected 2$"):
        parse("3 2\n0 1\n0 1\n0 2\n")


def test_equality_is_structural():
    assert build(2, 1, [[0], [1]]) == identity(2)
    assert build(2, 1, [[1], [0]]) != identity(2)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(8))))
def test_permutation_matrices_round_trip(perm):
    a = build(8, 1, [[p] for p in perm])
    assert dense_ok(a)
    assert parse(serialize(a)) == a
    # transpose of a permutation matrix is its inverse permutation
    inv = [0] * 8
    for s, p in enumerate(perm):
        inv[p] = s
    assert a.transpose() == build(8, 1, [[q] for q in inv])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.data())
def test_circulant_family_valid(n, data):
    d = data.draw(st.integers(1, n))
    assert dense_ok(circulant(n, d))
