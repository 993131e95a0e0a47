import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tngeom import linalg
from tngeom.errors import SemanticError, ShapeError, SingularMatrixError
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import (
    Matrix,
    _back_solve,
    _eliminate_mod_p,
    _kernel_vectors,
    _lift_residue,
    annihilates,
    components,
    kernel_basis,
    rank,
    rank_mod_p,
)

from oracles import (
    inverse,
    is_invertible,
    kernel_dim,
    kron,
    kron_oracle,
    mat_apply,
    mat_rows,
    mat_transpose,
    matrix_rows,
    naive_kernel,
    naive_rank,
    naive_rank_mod_p,
    random_invertible,
    random_matrix,
    rank_modulo_primes,
)

FP = PrimeField(2**31 - 1)


def test_rank_trivial_cases():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.zeros(2, 5)) == 0
    assert kernel_dim(Matrix.identity(3)) == 0
    assert kernel_dim(Matrix.zeros(2, 2)) == 2


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_dense_oracle(seed):
    m = random_matrix(5, 7, seed=seed, bound=50)
    assert rank(m) == naive_rank(matrix_rows(m))


@pytest.mark.parametrize("seed", range(10))
def test_rank_with_rational_entries(seed):
    base = random_matrix(4, 4, seed=seed, bound=9)
    scaled = base.scale(Fraction(1, 3)) + Matrix.identity(4).scale(Fraction(5, 7))
    assert rank(scaled) == naive_rank(matrix_rows(scaled))


@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(2, 5))
def test_rank_equals_transpose_rank(seed, r, c):
    m = random_matrix(r, c, seed=seed, bound=20)
    assert rank(m) == rank(mat_transpose(m))


@given(st.integers(0, 10**6))
def test_rank_nullity(seed):
    m = random_matrix(4, 6, seed=seed, bound=10)
    assert rank(m) + kernel_dim(m) == m.cols


def test_kernel_basis_examples():
    assert kernel_basis(Matrix.identity(4)) == []
    (vec,) = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert vec[0] * 1 + vec[1] * 1 == 0 and any(vec)
    (vec,) = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert vec[0] + 2 * vec[1] == 0


@pytest.mark.parametrize("seed", range(10))
def test_kernel_basis_spans_kernel(seed):
    for field in (QQ, FP):
        m = random_matrix(3, 6, seed=seed, bound=10, field=field)
        basis = kernel_basis(m)
        assert len(basis) == kernel_dim(m)
        for v in basis:
            assert all(x == 0 for x in mat_apply(m, v))
        # vectors are independent: stack them and check full rank
        if basis:
            assert rank(Matrix.from_rows(basis, field)) == len(basis)


P = 2**31 - 1
TWISTS = (None, "denominator divisible by p", "integer row of multiples of p", "ints and Fractions in one row")


def _planted_kernel_matrix(rng: random.Random, free: int, bound: int, cols: int, twist: str | None = None) -> Matrix:
    """R [I | -C] P with R of full column rank, so the kernel is spanned by the
    columns of [C; I] moved by P: integer vectors of height at most bound.

    A twist rescales the first row (by 1/p, or to integers that are all
    multiples of p) or appends base_0 / 3 + base_1 moved by P; none of them
    changes the kernel over Q.
    """
    piv = cols - free
    c = [[rng.randint(-bound, bound) for _ in range(free)] for _ in range(piv)]
    base = [[int(i == j) for j in range(piv)] + [-x for x in c[i]] for i in range(piv)]
    extra = rng.randint(0, 3)
    r = [[int(i == j) for j in range(piv)] for i in range(piv)]
    r += [[rng.randint(-9, 9) for _ in range(piv)] for _ in range(extra)]
    rng.shuffle(r)
    perm = list(range(cols))
    rng.shuffle(perm)
    rows = []
    for coeffs in r:
        row = [sum(a * base[i][j] for i, a in enumerate(coeffs)) for j in range(cols)]
        d = rng.randint(1, 6)
        rows.append([Fraction(row[perm[j]], d) for j in range(cols)])
    if twist == "denominator divisible by p":
        rows[0] = [x / P for x in rows[0]]
    elif twist == "integer row of multiples of p":
        rows[0] = [x * 60 * P for x in rows[0]]  # 60 = lcm(1..6) clears every d
    elif twist == "ints and Fractions in one row":
        # piv >= 2 for this twist: 1/3 at pivot 0 and 1 at pivot 1
        rows.append([Fraction(base[0][perm[j]], 3) + base[1][perm[j]] for j in range(cols)])
    return Matrix.from_rows(rows)


@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 3), st.sampled_from(TWISTS))
@example(7, 2, 3, TWISTS[1])
@example(7, 2, 3, TWISTS[2])
@example(7, 2, 3, TWISTS[3])
def test_lifted_kernel_agrees_with_exact_elimination(seed, free, bound, twist):
    rng = random.Random(seed)
    cols = free + rng.randint(2 if twist == TWISTS[3] else 1, 6)
    m = _planted_kernel_matrix(rng, free, bound, cols, twist)
    want = naive_rank(matrix_rows(m))
    assert rank(m) == want == m.cols - free
    assert rank_mod_p(m) <= want
    basis = kernel_basis(m)
    assert len(basis) == free == kernel_dim(m)
    for v in basis:
        assert any(v) and all(x == 0 for x in mat_apply(m, v))
    assert rank(Matrix.from_rows(basis)) == free


def test_lifted_kernel_full_rank_and_empty():
    assert kernel_basis(Matrix.identity(3)) == []
    assert kernel_basis(Matrix.zeros(2, 3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(Matrix.zeros(0, 2)) == [[1, 0], [0, 1]]


@given(st.integers(-32767, 32767), st.integers(1, 32767))
def test_lift_residue_inverts_reduction_within_the_bound(a, b):
    p = 2**31 - 1
    assert _lift_residue(a * pow(b, -1, p) % p, p, 32767) == Fraction(a, b)


def test_lift_residue_refuses_past_the_bound():
    p = 2**31 - 1
    assert _lift_residue(40000, p, 32767) is None
    assert _lift_residue(pow(40000, -1, p), p, 32767) is None
    assert _lift_residue(6, 7, 1) == -1


def _primes_used(monkeypatch) -> list:
    primes = []
    eliminate = linalg._eliminate_mod_p
    monkeypatch.setattr(linalg, "_eliminate_mod_p", lambda rows, cols, prime, *a, **kw: primes.append(prime)
                        or eliminate(rows, cols, prime, *a, **kw))
    return primes


def test_lifted_kernel_falls_back_past_the_height_bound(monkeypatch):
    # (40000, 1) spans the kernel; 40000 > sqrt(p/2) = 32767, and no a/b
    # with |a|, b <= 32767 is 40000 mod p, so the entry does not lift from
    # one prime; mod the product of two it does
    primes = _primes_used(monkeypatch)
    m = Matrix.from_rows([[1, -40000]])
    assert kernel_basis(m) == [[40000, 1]]
    assert len(primes) == 2 and primes[0] == P > primes[1]
    del primes[:]
    assert kernel_basis(Matrix.from_rows([[1, -32767]])) == [[32767, 1]]
    assert primes == [P]


def test_lifted_kernel_needs_three_primes_past_two_primes_height(monkeypatch):
    # 2^40 is above isqrt(p q / 2), about 1.5e9, and below isqrt(p q r / 2)
    primes = _primes_used(monkeypatch)
    m = Matrix.from_rows([[3, -(2**40)], [6, -(2**41)]])
    assert kernel_basis(m) == [[Fraction(2**40, 3), 1]]
    assert len(primes) == 3
    assert rank(m) == 1


def test_lifted_kernel_check_rejects_a_prime_dividing_a_minor(monkeypatch):
    # det = 2^31 - 1 = p: mod p the rank drops to 1 and the kernel vector
    # (-1, 1) lifts, but the exact check finds A x = (0, p); the next prime
    # has full rank, so the kernel is empty
    primes = _primes_used(monkeypatch)
    m = Matrix.from_rows([[1, 1], [1, 2**31]])
    assert kernel_basis(m) == []
    assert len(primes) == 2
    assert rank(m) == 2


def test_lifted_kernel_moves_to_the_generic_pivot_columns(monkeypatch):
    # mod p the first column vanishes, so the pivots are columns 1 and 2 at
    # the same rank as over Q, where they are 0 and 2; the lift of free
    # column 0 fails its check, and the next prime's free column 1 must win.
    # Its entry -1/p lifts once the primes after p multiply past 2 p^2: three
    # of them, and p is not among them
    primes = _primes_used(monkeypatch)
    m = Matrix.from_rows([[2**31 - 1, 1, 0], [0, 0, 1]])
    assert kernel_basis(m) == [[Fraction(-1, 2**31 - 1), 1, 0]]
    assert len(primes) == 4
    assert rank(m) == 2


@pytest.mark.parametrize("seed", range(5))
def test_inverse_round_trip(seed):
    m = random_invertible(5, seed=seed)
    assert m @ inverse(m) == Matrix.identity(5)
    assert inverse(m) @ m == Matrix.identity(5)


def test_inverse_is_exact_when_the_prime_divides_the_determinant():
    # det = p: A is singular mod p, and its inverse has denominator p
    m = Matrix.from_rows([[1, 1], [1, 2**31]])
    inv = inverse(m)
    assert inv == Matrix.from_rows([[Fraction(2**31, P), Fraction(-1, P)], [Fraction(-1, P), Fraction(1, P)]])
    assert m @ inv == Matrix.identity(2) == inv @ m


@pytest.mark.parametrize("seed", range(3))
def test_inverse_over_fp(seed):
    m = random_invertible(5, seed=seed, field=FP)
    assert m @ inverse(m) == Matrix.identity(5, FP) == inverse(m) @ m
    with pytest.raises(SingularMatrixError):
        # singular mod p only: det = p
        inverse(Matrix.from_rows([[1, 1], [1, 2**31]], FP))


def test_rational_results_hold_no_floats():
    # rational ints divide as Fractions, and integral results come back as ints
    m = Matrix.from_rows([[2, 1], [4, 3]])
    inv = inverse(m)
    assert inv == Matrix.from_rows([[Fraction(3, 2), Fraction(-1, 2)], [-2, 1]])
    assert [type(v) for v in inv.entries] == [Fraction, Fraction, int, int]
    # -5/3 has no exact float, so a float anywhere on the way would show
    (vec,) = kernel_basis(Matrix.from_rows([[3, 5, 0], [0, 0, 4]]))
    assert vec == [Fraction(-5, 3), 1, 0]
    assert [type(v) for v in vec] == [Fraction, int, int]


def test_inverse_rejects_singular():
    assert not is_invertible(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        inverse(Matrix.zeros(2, 3))


@pytest.mark.parametrize("seed", range(5))
def test_kron_matches_oracle(seed):
    a = random_matrix(2, 3, seed=seed, bound=9)
    b = random_matrix(3, 2, seed=seed + 100, bound=9)
    got = kron(a, b)
    assert matrix_rows(got) == kron_oracle(matrix_rows(a), matrix_rows(b))


def test_kron_acts_as_two_sided_multiplication():
    # row-major convention: kron(A, B) vec(M) = vec(A M B^T)
    a = random_matrix(3, 3, seed=1, bound=5)
    b = random_matrix(2, 2, seed=2, bound=5)
    m = random_matrix(3, 2, seed=3, bound=5)
    vec = list(m.entries)
    lhs = mat_apply(kron(a, b), vec)
    rhs = a @ m @ mat_transpose(b)
    assert lhs == list(rhs.entries)


def test_random_matrix_determinism_and_range():
    a = random_matrix(3, 3, seed=42)
    b = random_matrix(3, 3, seed=42)
    c = random_matrix(3, 3, seed=43)
    assert a == b and a != c
    assert all(abs(x) <= 10**6 for x in a.entries)


def test_random_square_matrices_have_full_rank():
    # genericity at the documented entry range: no failures over 100 seeds
    for seed in range(100):
        assert rank(random_matrix(4, 4, seed=seed)) == 4


@pytest.mark.parametrize("seed", range(5))
def test_prime_field_rank_agrees_with_rational(seed):
    m = random_matrix(5, 6, seed=seed, bound=100)
    primes = [2**31 - 1, 4294967311, 2**61 - 1]
    assert rank_modulo_primes(m, primes) == [rank(m)] * 3


def test_fp_rank_direct():
    m = random_matrix(6, 6, seed=7, bound=100, field=FP)
    q = random_matrix(6, 6, seed=7, bound=100)
    assert rank(m) == rank(q)


def test_matrix_validation():
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(SemanticError):
        Matrix.identity(2) + random_matrix(2, 2, seed=0, field=FP)
    with pytest.raises(ShapeError):
        Matrix.identity(2) @ Matrix.identity(3)


@st.composite
def structured_matrices(draw):
    """Integer row lists, sparse or dense, with zero, duplicate and scaled rows."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    keep = draw(st.integers(1, 4))  # an entry is nonzero with odds keep/4
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "zero", "duplicate", "multiple"]))
        if kind == "zero":
            data.append([0] * cols)
        elif kind != "fresh" and data:
            src = data[draw(st.integers(0, len(data) - 1))]
            k = 1 if kind == "duplicate" else draw(st.integers(2, 6))
            data.append([k * x for x in src])
        else:
            data.append([draw(st.integers(-9, 9)) if draw(st.integers(1, 4)) <= keep else 0
                         for _ in range(cols)])
    return rows, cols, data


def _minor_bound(data) -> float:
    """Product of the row norms: bounds the absolute value of every minor."""
    out = 1.0
    for row in data:
        out *= max(1.0, sum(x * x for x in row) ** 0.5)
    return out


@given(structured_matrices())
def test_rank_kernel_matches_oracle_over_q(case):
    rows, cols, data = case
    m = Matrix(rows, cols, [x for r in data for x in r])
    assert rank(m) == naive_rank(data)
    # rows divided by different integers: clearing denominators keeps the rank
    scaled = Matrix.from_rows([[Fraction(x, 2 + i % 3) for x in r] for i, r in enumerate(data)]) if rows else m
    assert rank(scaled) == naive_rank(data)


@given(structured_matrices())
def test_rank_kernel_matches_oracle_mod_p(case):
    rows, cols, data = case
    # below the prime no nonzero minor vanishes mod p, so both ranks agree
    if _minor_bound(data) >= FP.prime:
        return
    m = Matrix(rows, cols, [x for r in data for x in r], FP)
    assert rank(m) == naive_rank(data)


def _residues(data, prime: int) -> list[dict]:
    return [{c: r for c, x in enumerate(row) if (r := x % prime)} for row in data]


@given(structured_matrices(), st.sampled_from([2, 3, 7, FP.prime]))
def test_packed_rank_matches_sparse_kernel_and_oracle(case, prime):
    rows, cols, data = case
    got, vouched = _eliminate_mod_p(_residues(data, prime), cols, prime)
    assert (got, vouched) == (naive_rank_mod_p(data, prime), 0)
    if prime == FP.prime and _minor_bound(data) < prime:
        # no minor vanishes mod p, so the rank over Q agrees
        assert got == naive_rank(data)
        assert rank_mod_p(Matrix(rows, cols, [x for r in data for x in r])) == naive_rank(data)


def test_packed_rank_empty_shapes():
    for rows, cols in [(0, 4), (0, 0), (3, 0)]:
        assert rank_mod_p(Matrix(rows, cols, [])) == 0
        assert rank_mod_p(Matrix.zeros(rows, cols, FP)) == 0
    assert _eliminate_mod_p([{}, {}], 3, FP.prime) == (0, 0)


@pytest.mark.parametrize("prime", [2, 3, 7, FP.prime])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_packed_rank_widest_slots(prime, n):
    # Pivot rows e_k - (e_{k+1} + ... + e_n) are stored as 1 and p - 1.  The
    # last row is 1 - k at column k, so each pivot in turn meets v = 1 and
    # adds (p - 1)**2 to every later slot: column n takes n of them.  All
    # rows share columns, so they form one component, eliminated in order.
    pivots = [{k: 1, **{j: prime - 1 for j in range(k + 1, n + 1)}} for k in range(n)]
    last = {k: r for k in range(n) if (r := (1 - k) % prime)}
    last[n] = prime - 1
    rows = pivots + [last]
    dense = [[r.get(c, 0) for c in range(n + 1)] for r in rows]
    want = naive_rank_mod_p(dense, prime)
    assert _eliminate_mod_p(rows, n + 1, prime) == (want, 0)
    if prime == FP.prime:
        assert want == naive_rank(dense)
    # entries p - 1 off the diagonal: -(J - I), of determinant +-(n - 1) != 0 mod a large p
    full = [{c: prime - 1 for c in range(n) if c != r} for r in range(n)]
    got = _eliminate_mod_p(full, n, prime)[0]
    assert got == naive_rank_mod_p([[r.get(c, 0) for c in range(n)] for r in full], prime)
    if prime == FP.prime:
        assert got == (n if n > 1 else 0)



def _stream(rows, stop=None):
    """The rows one at a time, with no length; reading past row `stop` fails."""
    for k, row in enumerate(rows):
        assert stop is None or k < stop, "read a row past full column rank"
        yield dict(row)


@pytest.mark.parametrize("prime", [2, 3, 7, FP.prime])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_packed_eliminate_reads_a_stream_as_a_list(prime, n):
    # the rows of test_packed_rank_widest_slots, whose last slot takes n updates of (p - 1)**2:
    # a stream, with no length, packs them in slots bounded by the column count
    pivots = [{k: 1, **{j: prime - 1 for j in range(k + 1, n + 1)}} for k in range(n)]
    last = {k: r for k in range(n) if (r := (1 - k) % prime)}
    last[n] = prime - 1
    cols = list(range(n + 1))
    for rows in (pivots + [last], [last] + pivots, pivots + [last] * 3):
        want_pivots, got_pivots = [], []
        want = linalg._packed_eliminate([dict(r) for r in rows], cols, prime, want_pivots)
        assert linalg._packed_eliminate(_stream(rows), cols, prime, got_pivots) == want
        assert got_pivots == want_pivots
        assert want == naive_rank_mod_p([[r.get(c, 0) for c in cols] for r in rows], prime)


def test_packed_eliminate_stops_reading_a_stream_at_full_column_rank():
    rng = random.Random(3)
    n = 6
    rows = [{c: rng.randrange(1, FP.prime) for c in range(n)} for _ in range(40)]
    assert linalg._packed_eliminate(_stream(rows, stop=n), list(range(n)), FP.prime, None) == n
    # a rank-deficient stream is read to its end
    assert linalg._packed_eliminate(_stream([{0: 1, 1: 1}] * 5), [0, 1, 2], FP.prime, None) == 1

@st.composite
def block_diagonal_matrices(draw):
    """Integer rows of a block-diagonal matrix with its rows and columns permuted.

    Blocks of one column are singleton columns; blocks hold zero and
    duplicate rows, and empty rows and empty columns are added."""
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        r, c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        block = []
        for _ in range(r):
            if block and draw(st.booleans()):
                block.append(list(block[draw(st.integers(0, len(block) - 1))]))
            else:
                block.append([draw(st.integers(-9, 9)) for _ in range(c)])
        blocks.append(block)
    cols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 2))
    data, at = [], 0
    for b in blocks:
        for row in b:
            data.append([0] * at + row + [0] * (cols - at - len(row)))
        at += len(b[0])
    data += [[0] * cols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(range(len(data))))
    perm = draw(st.permutations(range(cols)))
    return len(data), cols, [[data[i][perm[j]] for j in range(cols)] for i in rows]


@given(block_diagonal_matrices(), st.sampled_from([2, 3, 7, FP.prime]))
def test_component_elimination_on_block_diagonal_matrices(case, prime):
    rows, cols, data = case
    pivots: list = []
    got = _eliminate_mod_p(_residues(data, prime), cols, prime, pivots)[0]
    assert got == naive_rank_mod_p(data, prime)
    if prime == FP.prime and _minor_bound(data) < prime:
        assert got == naive_rank(data)
    # the back-solved vectors span the kernel mod p
    vecs = _kernel_vectors(*_back_solve(pivots, cols, prime))
    assert len(vecs) == cols - got
    for vec in vecs:
        assert all(sum(row[c] * v for c, v in vec.items()) % prime == 0 for row in data)
    dense = [[vec.get(c, 0) for c in range(cols)] for vec in vecs]
    assert naive_rank_mod_p(dense, prime) == len(vecs)
    if prime == FP.prime:
        m = Matrix(rows, cols, [x for r in data for x in r], FP)
        assert rank(m) == got
        basis = kernel_basis(m)
        assert len(basis) == cols - got
        for v in basis:
            assert all(x == 0 for x in mat_apply(m, v))
        if basis:
            assert rank(Matrix.from_rows(basis, FP)) == len(basis)


def test_components_label_columns_joined_by_rows():
    label = components([{0: 1, 3: 2}, {}, {5: 1}, {4: 1, 3: 1}, {1: 1}, {6: 1, 5: 2}], 7)
    groups: dict = {}
    for c, a in enumerate(label):
        groups.setdefault(a, []).append(c)
    assert sorted(groups.values()) == [[0, 3, 4], [1], [2], [5, 6]]
    assert all(label[a] == a for a in groups)  # each label is a column of its component
    assert components([], 2) == [0, 1]


def test_rank_mod_p_matches_rank_over_fp():
    for seed in range(5):
        m = random_matrix(9, 7, seed=seed, field=FP)
        assert rank_mod_p(m) == rank(m)
    # over Q a prime dividing a minor lowers the rank mod p: a lower bound
    p = FP.prime
    m = Matrix.from_rows([[1, 1], [1, 1 + p]])
    assert rank(m) == 2 and rank_mod_p(m) == 1


def test_annihilates():
    a = Matrix.from_rows([[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)]])
    assert annihilates(a, Matrix.from_rows([[1, 1, -1], [Fraction(-2, 7), Fraction(1, 7), 0]]))
    assert not annihilates(a, Matrix.from_rows([[1, 1, -1], [1, 0, 0]]))
    assert annihilates(a, Matrix.zeros(0, 3))
    with pytest.raises(ShapeError):
        annihilates(a, Matrix.zeros(1, 2))
    with pytest.raises(SemanticError):
        annihilates(Matrix.identity(2, FP), Matrix.identity(2, FP))


@pytest.mark.parametrize("field", [QQ, FP])
def test_rank_kernel_fill_in(field):
    # sparse rows gain columns as they are combined; those must be eliminated too
    assert rank(Matrix.from_rows([[1, 1, 0, 0, 0], [1, 0, 1, 1, 0], [0, 1, 0, 0, 1]], field)) == 3
    for seed in range(300):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        data = [[rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(cols)] for _ in range(rows)]
        if field is QQ or _minor_bound(data) < FP.prime:
            assert rank(Matrix.from_rows(data, field)) == naive_rank(data)


def test_rank_mod_p_sees_vanishing_minors():
    p = FP.prime
    m = [[1, 1, 0], [1, 1 + p, 0], [0, 0, 3 * p]]
    assert naive_rank(m) == 3
    assert rank(Matrix.from_rows(m, FP)) == 1
    # read mod p, the rational rows keep their zero residues: [0, 0, 3p] adds nothing
    assert rank_mod_p(Matrix.from_rows(m)) == 1
    # determinant p: the second row is half the first only mod p
    assert rank(Matrix.from_rows([[2, 1], [1, (p + 1) // 2]], FP)) == 1


def test_rank_of_empty_shapes():
    for rows, cols in [(0, 4), (0, 0), (3, 0)]:
        assert rank(Matrix(rows, cols, [])) == 0
        assert rank(Matrix.zeros(rows, cols, FP)) == 0
        assert kernel_dim(Matrix(rows, cols, [])) == cols


def test_from_nonzeros_matches_dense():
    dense = [[0, 2, 0], [0, 0, 0], [Fraction(-1, 3), 0, 5]]
    items = {(i, j): v for i, r in enumerate(dense) for j, v in enumerate(r) if v}
    items[(1, 1)] = 0  # explicit zeros are not stored
    m = Matrix.from_nonzeros(3, 3, items)
    assert m == Matrix(3, 3, [x for r in dense for x in r])
    assert hash(m) == hash(Matrix.from_rows(dense))
    assert m.entries == tuple(Fraction(x) for r in dense for x in r)
    assert list(m.nonzeros()) == [((0, 1), 2), ((2, 0), Fraction(-1, 3)), ((2, 2), 5)]
    assert Matrix.from_nonzeros(3, 3, {(1, 2): 7}, FP).at(1, 2) == FP.coerce(7)
    with pytest.raises(ShapeError):
        Matrix.from_nonzeros(2, 2, {(2, 0): 1})


@given(structured_matrices())
def test_entries_round_trip(case):
    rows, cols, data = case
    flat = [x for r in data for x in r]
    m = Matrix(rows, cols, flat, FP)
    assert Matrix.from_nonzeros(rows, cols, dict(m.nonzeros()), FP) == m
    assert Matrix(rows, cols, m.entries, FP) == m
    assert m.entries == tuple(FP.coerce(x) for x in flat)
    assert mat_rows(m) == [[FP.coerce(x) for x in r] for r in data]


def _annihilates_by_entries(rows: list[list], vecs: list[list]) -> bool:
    return all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows for vec in vecs)


@pytest.mark.parametrize("seed", range(12))
def test_packed_check_matches_the_entry_by_entry_sum(seed):
    rng = random.Random(seed)
    rows_n, cols, k = rng.randint(1, 6), rng.randint(1, 7), rng.randint(1, 5)
    bound = rng.choice((1, 9, 10**6, 2**70))
    vecs = [[rng.randint(-bound, bound) * (rng.random() < 0.6) for _ in range(cols)] for _ in range(k)]
    a = [[rng.randint(-bound, bound) * (rng.random() < 0.7) for _ in range(cols)] for _ in range(rows_n)]
    # and rows built to annihilate: multiples of a basis of the vectors' orthogonal complement
    ortho = kernel_basis(Matrix.from_rows(vecs))
    for rows in (a, [[x * rng.randint(-5, 5) for x in vec] for vec in ortho] or [[0] * cols]):
        want = _annihilates_by_entries(rows, vecs)
        assert annihilates(Matrix.from_rows(rows), Matrix.from_rows(vecs)) == want


def test_packed_check_at_the_slot_edge():
    # row norm L = 256 and |x| <= 256 put slot sums at +-B = +-2**16, the edge of the bound
    row = [1] * 256
    edge = [256] * 256
    assert not annihilates(Matrix.from_rows([row]), Matrix.from_rows([edge]))
    assert not annihilates(Matrix.from_rows([[-x for x in row]]), Matrix.from_rows([edge]))
    # slot sums (2**16, -2**k): in slots of W <= 16 bits, 2**16 - 2**k * 2**W reads as zero for k = 16 - W
    for k in range(17):
        assert not annihilates(Matrix.from_rows([row]), Matrix.from_rows([edge, [-2**k] + [0] * 255]))
    minus = [-1] + [0] * 255
    # (2**16, -2**16) on a row and its negative, and every slot sum zero once the edge cancels
    assert not annihilates(Matrix.from_rows([row, [-x for x in row]]), Matrix.from_rows([edge, [-x for x in edge]]))
    half = [256] * 128 + [-256] * 128
    assert annihilates(Matrix.from_rows([row]), Matrix.from_rows([half, [-x for x in half]]))
    # a nonzero slot sum below zero in a middle slot, between two zero ones
    assert not annihilates(Matrix.from_rows([row]), Matrix.from_rows([half, minus, half]))


def test_packed_check_with_fractions():
    a = Matrix.from_rows([[Fraction(1, 3), Fraction(-2, 5), 7], [Fraction(1, 2), 0, Fraction(-1, 6)]])
    x = [[Fraction(6, 5), 1, 0]]
    assert annihilates(a, Matrix.from_rows(x)) == _annihilates_by_entries(mat_rows(a), x)
    ortho = kernel_basis(a)
    assert annihilates(a, Matrix.from_rows(ortho))
    assert not annihilates(a, Matrix.from_rows(ortho + [[1, 0, 0]]))


def test_packed_eliminate_stops_at_its_cap():
    # rows in the kernel of (1, 1, ..., 1): rank n - 1, and the cap ends the stream there
    rng = random.Random(5)
    n = 6
    rows = []
    for _ in range(30):
        row = {c: rng.randrange(FP.prime) for c in range(n - 1)}
        row[n - 1] = -sum(row.values()) % FP.prime
        rows.append(row)
    assert linalg._packed_eliminate(_stream(rows, stop=n - 1), list(range(n)), FP.prime, None, n - 1) == n - 1
    assert linalg._packed_eliminate(list(rows), list(range(n)), FP.prime, None) == n - 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 343, 1000])
def test_strided_order_is_a_permutation(n):
    rows = list(range(n))
    order = linalg._strided(rows)
    assert sorted(order) == rows
    if n > 3:
        assert order[:2] != rows[:2]


@given(block_diagonal_matrices(), st.data())
def test_planted_kernel_rows_cap_the_rank(case, data):
    # rows planted in the kernel: integer combinations of an oracle's kernel basis, over each field,
    # so each component's elimination stops at a cap that may or may not be its rank
    rows, cols, dense = case
    for field, want in ((QQ, naive_rank(dense)), (FP, naive_rank_mod_p(dense, FP.prime))):
        basis = naive_kernel(dense, cols, field.prime)
        combos = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)),
                                    max_size=len(basis) + 1))
        planted = [[sum(c * vec[j] for c, vec in zip(coeffs, basis)) for j in range(cols)] for coeffs in combos]
        assert all(sum(a * b for a, b in zip(row, vec)) % (field.prime or 1) == 0 for row in dense for vec in planted)
        m = Matrix(rows, cols, [x for r in dense for x in r], field)
        kernel = Matrix(len(planted), cols, [x for r in planted for x in r], field)
        assert rank(m, kernel) == want
        assert rank_mod_p(m, kernel) == naive_rank_mod_p(dense, FP.prime)


@pytest.mark.parametrize("field", [QQ, FP])
def test_kernel_rows_cap_each_component(monkeypatch, field):
    # two blocks whose rows sum to zero on their columns, 5 x 4 and 4 x 3, rank 3 + 2; the kernel
    # rows are one all-ones row twice, rank 1 in all but rank 1 on each block, so the caps are 3 and 2
    rng = random.Random(7)
    items = {}
    for rows, cols, r0, c0 in ((5, 4, 0, 0), (4, 3, 5, 4)):
        for i in range(rows):
            vals = [rng.randint(-9, 9) for _ in range(cols - 1)]
            for j, v in enumerate(vals + [-sum(vals)]):
                items[r0 + i, c0 + j] = v
    m = Matrix.from_nonzeros(9, 7, items, field)
    kernel = Matrix.from_rows([[1] * 7, [1] * 7], field)
    dense = [[items.get((i, j), 0) for j in range(7)] for i in range(9)]
    want = naive_rank(dense)
    assert want == 5 and rank(m) == want

    def refuse(*args):
        raise AssertionError("every block meets its cap, so no kernel is lifted")

    monkeypatch.setattr(linalg, "_lifted_vectors", refuse)
    assert rank(m, kernel) == rank_mod_p(m, kernel) == want
