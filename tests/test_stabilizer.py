import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from tngeom import errors, jsonio, linalg, stabilizer
from tngeom.curves import act_curve, curve_from_splitting
from tngeom.errors import SemanticError, ShapeError, check_peak
from tngeom.fields import DEFAULT_PRIME, QQ, PrimeField
from tngeom.linalg import Matrix, _integral_rows, _split, rank
from tngeom.stabilizer import (
    _component_bytes,
    _components,
    build_system,
    stabilizer_dim,
    stabilizer_tuples,
    system_bytes,
)
from tngeom.tensors import Tensor, apply_end, outer, random_tensor
from tngeom.zoo import imm_loop, m_tilde_formula, mmult

from oracles import (
    annihilates,
    block_splitting,
    column_label,
    kernel_basis,
    leibniz_act,
    loop_pair_generators,
    mat_apply,
    mat_row,
    mat_transpose,
    matrix_rows,
    naive_rank,
    naive_rank_mod_p,
    orbit_dim,
    random_invertible,
    random_matrix,
    rank_mod_p,
    stabilizer_contains_expected,
)

FP = PrimeField(2**31 - 1)


def test_system_shape_and_column_semantics():
    t = random_tensor((2, 3, 2), seed=1, bound=9)
    sys = build_system(t)
    assert sys.matrix.rows == 12
    assert sys.matrix.cols == 4 + 9 + 4
    # column (j, k, l) is the insertion of E_kl in slot j
    j, k, l = 1, 2, 0
    col = sys.offsets[j] + k * 3 + l
    e_kl = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    want = leibniz_act(t, [None, e_kl, None])
    got = [sys.matrix.at(r, col) for r in range(12)]
    assert got == list(want.entries)
    assert column_label(sys, col) == (j, k, l)


def test_system_is_the_derivation_action():
    # system applied to a stacked tuple equals the Leibniz action
    t = random_tensor((2, 2, 2), seed=5, bound=9)
    sys = build_system(t)
    mats = [random_matrix(2, 2, seed=s, bound=9) for s in (1, 2, 3)]
    vec = []
    for m in mats:
        vec.extend(m.entries)
    assert mat_apply(sys.matrix, vec) == list(leibniz_act(t, mats).entries)


def test_zero_tensor_full_kernel():
    t = Tensor.zeros((2, 3, 2))
    assert stabilizer_dim(t) == 4 + 9 + 4
    assert orbit_dim(t) == 0


def test_generic_rank_one_2x2x2():
    t = outer(outer(Tensor((2,), [1, 2]), Tensor((2,), [3, 5])), Tensor((2,), [7, 11]))
    assert stabilizer_dim(t) == 8
    assert orbit_dim(t) == 4


def test_generic_random_2x2x2():
    assert stabilizer_dim(random_tensor((2, 2, 2), seed=3, bound=99)) == 4


def test_trace_tensor_stabilizer_frozen_values():
    assert stabilizer_dim(mmult(2, 2, 2)) == 11
    assert orbit_dim(mmult(2, 2, 2)) == 37


def test_trace_tensor_stabilizer_against_dense_oracle():
    sys = build_system(mmult(2, 2, 2))
    assert sys.matrix.cols - naive_rank(matrix_rows(sys.matrix)) == 11


def test_limit_tensor_stabilizer_frozen_values():
    assert stabilizer_dim(m_tilde_formula(2)) == 12
    assert orbit_dim(m_tilde_formula(2)) == 36


def _assert_tuples_form_stabilizer_basis(t, tuples, dim):
    assert len(tuples) == dim
    for mats in tuples:
        assert leibniz_act(t, list(mats)).is_zero()
    rows = []
    for mats in tuples:
        row = []
        for m in mats:
            row.extend(m.entries)
        rows.append(row)
    assert rank(Matrix.from_rows(rows, t.field)) == dim


def test_stabilizer_tuples_annihilate():
    for t, dim in ((mmult(2, 2, 2), 11), (mmult(3, 3, 3), 26), (m_tilde_formula(3), 30)):
        # over Q the tuples come from the kernel lifted from one prime
        assert len(kernel_basis(build_system(t).matrix)) == dim
        _assert_tuples_form_stabilizer_basis(t, stabilizer_tuples(t), dim)


@pytest.mark.parametrize("e", range(2, 7))
def test_lift_holds_on_the_trace_tensor_and_its_limit(e):
    # the kernel lifted from one prime is checked exactly, so no fallback runs
    for t, dim in ((mmult(e, e, e), 3 * e * e - 1), (m_tilde_formula(e), 4 * e * e - 2 * e)):
        assert len(kernel_basis(build_system(t).matrix)) == dim


@pytest.mark.parametrize("n", [4, 6, 8])
def test_lift_holds_on_dense_random_tensors(n):
    # a concise generic tensor keeps only the rescalings (a, b, c) with a + b + c = 0
    assert len(kernel_basis(build_system(random_tensor((n, n, n), seed=n)).matrix)) == 2


def test_stabilizer_lifts_past_a_failed_first_prime(monkeypatch):
    # no entry lifts mod the first prime alone, so every kernel combines it with the next one
    moduli = []
    lift = linalg._lift_residue

    def fail_first(r, modulus, bound):
        moduli.append(modulus)
        return None if modulus == DEFAULT_PRIME else lift(r, modulus, bound)

    monkeypatch.setattr(linalg, "_lift_residue", fail_first)
    t = mmult(2, 2, 2)
    assert (stabilizer_dim(t), orbit_dim(t)) == (11, 37)
    _assert_tuples_form_stabilizer_basis(t, stabilizer_tuples(t), 11)
    assert DEFAULT_PRIME in moduli and max(moduli) > DEFAULT_PRIME**2 // 2


@pytest.mark.parametrize("make", [lambda f: mmult(2, 3, 2, f), lambda f: random_tensor((3, 3, 4), seed=1, field=f),
                                  lambda f: random_tensor((2, 2, 6), seed=2, field=f)])
def test_orbit_dim_is_the_rank_of_the_system(make):
    # (2, 2, 6) has 24 rows and 44 columns, so over Q the rank lifts the kernel of the transpose
    want = naive_rank(matrix_rows(build_system(make(QQ)).matrix))
    for field in (QQ, FP):
        t = make(field)
        assert orbit_dim(t) == rank(build_system(t).matrix) == want


def test_stabilizer_tuples_over_fp():
    _assert_tuples_form_stabilizer_basis(mmult(2, 2, 2, FP), stabilizer_tuples(mmult(2, 2, 2, FP)), 11)


def test_system_size_guard(monkeypatch):
    # the trace tensor's system is priced from its e^3 nonzeros, 3 fibre entries each, and its 3e^4
    # columns, before anything is built: e = 20 fits, and a budget one MB below its prediction refuses it
    e = 20
    nbytes = system_bytes(e**3, (e * e,) * 3)
    assert nbytes == 120 * 3 * e**3 + 150 * 3 * e**4
    check_peak(nbytes, "ranking it")
    mb = -(-(nbytes + errors.CODE_BYTES) // 2**20)
    monkeypatch.setattr(errors, "MAX_PEAK_MB", mb - 1)
    with pytest.raises(SemanticError, match=f"^ranking it is predicted to take {mb} MB, over the budget of {mb - 1} MB$"):
        check_peak(nbytes, "ranking it")
    monkeypatch.setattr(errors, "MAX_PEAK_MB", mb)
    check_peak(nbytes, "ranking it")


def _longest_row(t: Tensor) -> int:
    """The sum over slots of the most nonzeros of t on one fibre, counted from t's nonzeros."""
    return sum(max(Counter(idx[:j] + idx[j + 1:] for idx, _ in t.nonzeros()).values(), default=0)
               for j in range(t.order))


def _component_fill(m: Matrix) -> int:
    """Sum over connected components of the row-column graph of rows times columns, by search."""
    pairs = [divmod(f, m.cols) for f in m._nz]
    adj: dict = {}
    for r, c in pairs:
        adj.setdefault(("r", r), []).append(("c", c))
        adj.setdefault(("c", c), []).append(("r", r))
    seen, total = set(), 0
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, count = [start], {"r": 0, "c": 0}
        while stack:
            node = stack.pop()
            count[node[0]] += 1
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        total += count["r"] * count["c"]
    return total


@pytest.mark.parametrize(
    "t", [mmult(2, 2, 2), mmult(3, 3, 3), m_tilde_formula(3), random_tensor((3, 4, 2), seed=2), imm_loop((2, 3, 2))]
)
def test_elimination_fill_sums_components(t):
    # the components of the built system fill it: their rows times columns sum to its fill.  The peak
    # prediction (``_component_bytes``) charges a component of m rows and n columns m * min(n, longest)
    # row nonzeros, which bounds the nonzeros of its rows, and min(m, n) pivot rows of n slots each
    m = build_system(t).matrix
    groups = _split(list(_integral_rows(m)), m.cols)
    fill = _component_fill(m)
    assert sum(len(ccols) * len(crows) for ccols, crows in groups) == fill
    longest = _longest_row(t)
    for ccols, crows in groups:
        assert max(map(len, crows)) <= longest
        assert sum(map(len, crows)) <= len(crows) * min(len(ccols), longest)
    # a dense tensor's system is one component, rows times columns, each row as long as the bound
    if all(t._nz.get(i) for i in range(m.rows)):
        assert fill == m.rows * m.cols
        assert all(len(row) == longest for row in groups[0][1])


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (2, 3, 2, 3)])
def test_adjacent_pair_generators_annihilate(dims):
    t = imm_loop(dims)
    n = len(dims)
    for j, right, jn, left in loop_pair_generators(dims, t.field):
        maps = [None] * n
        maps[j] = right
        maps[jn] = left
        assert leibniz_act(t, maps).is_zero()


def test_lone_identity_scales_instead_of_killing():
    t = imm_loop((2, 2, 2))
    maps = [Matrix.identity(4), None, None]
    assert leibniz_act(t, maps) == t
    # scalar triples with nonzero coefficient sum are outside the kernel
    scalars = [Matrix.identity(4), Matrix.identity(4), Matrix.identity(4).scale(-2)]
    assert leibniz_act(t, scalars).is_zero()
    scalars_bad = [Matrix.identity(4), Matrix.identity(4), Matrix.identity(4)]
    assert leibniz_act(t, scalars_bad) == t.scale(3)


def test_contains_expected_reports():
    rep = stabilizer_contains_expected(imm_loop((2, 2, 2)), (2, 2, 2))
    assert rep == {
        "pairs_annihilate": True,
        "scalar_scales": True,
        "expected_dim": 11,
        "computed_dim": 11,
        "matches": True,
    }
    rep4 = stabilizer_contains_expected(imm_loop((2, 2, 2, 2)), (2, 2, 2, 2))
    assert rep4["expected_dim"] == 15 and rep4["computed_dim"] == 15
    assert rep4["matches"]


def test_contains_expected_shape_guard():
    with pytest.raises(ShapeError):
        stabilizer_contains_expected(mmult(2, 2, 2), (2, 2))


@pytest.mark.parametrize("seed", range(5))
def test_stabilizer_dim_is_conjugation_invariant(seed):
    for t in (mmult(2, 2, 2), m_tilde_formula(2)):
        maps = [random_invertible(4, seed=seed * 3 + k, bound=9) for k in range(3)]
        assert stabilizer_dim(apply_end(t, maps)) == stabilizer_dim(t)


def test_scalar_lower_bound():
    # trace-zero scalar tuples always stabilize a nonzero order-n tensor
    for t in (random_tensor((2, 2), seed=1), random_tensor((2, 2, 2), seed=2),
              random_tensor((2, 2, 2, 2), seed=3)):
        assert stabilizer_dim(t) >= t.order - 1


def test_prime_field_backend_agrees():
    for make in (lambda f: mmult(2, 2, 2, f), lambda f: m_tilde_formula(2, f)):
        assert stabilizer_dim(make(QQ)) == stabilizer_dim(make(FP))


@pytest.mark.parametrize("e", [2, 3, 4])
def test_mmult_system_is_sparse(e):
    # every one of the e^3 nonzeros of mmult reaches sum(shape) = 3e^2 cells
    m = build_system(mmult(e, e, e)).matrix
    assert (m.rows, m.cols) == (e**6, 3 * e**4)
    assert sum(1 for _ in m.nonzeros()) == 3 * e**5


# --- the scalar rows bound the rank of a stabilizer system by cols - (d - 1)

def _block_limit(parts, field):
    """Leading term of the curve of a block splitting of mmult(e, e, e), e = parts[0] + parts[1]."""
    e = parts[0] + parts[1]
    return act_curve(mmult(e, e, e, field), curve_from_splitting(block_splitting(*parts, field))).terms[0][1]


def _scalar_rows(shape: tuple[int, ...]) -> list[dict]:
    """The d - 1 tuples (I in slot j, -I in slot j + 1) as rows {column: value} of the system."""
    offsets = [sum(s * s for s in shape[:j]) for j in range(len(shape))]
    return [{**{offsets[j] + k * (shape[j] + 1): 1 for k in range(shape[j])},
             **{offsets[j + 1] + k * (shape[j + 1] + 1): -1 for k in range(shape[j + 1])}}
            for j in range(len(shape) - 1)]


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
@pytest.mark.parametrize("shape", [(), (1,), (3,), (1, 1), (2, 3), (1, 4), (2, 1, 3), (2, 2, 2), (3, 1, 1),
                                   (1, 1, 2, 2), (2, 1, 2, 3), (2, 2, 2, 2)])
def test_scalar_rows_lie_in_the_kernel(shape, field):
    # the caps of stabilizer_dim are sound: the scalar rows kill the built system, and their parts on each
    # component's columns kill its rows and have rank min(s, d - 1), s the count the streamed pass gives
    scalar = _scalar_rows(shape)
    for seed in range(3):
        t = random_tensor(shape, seed=seed, field=field, bound=9)
        system = build_system(t)
        cols = system.matrix.cols
        dense = Matrix(len(scalar), cols, [row.get(c, 0) for row in scalar for c in range(cols)], field)
        assert rank(dense) == dense.rows == max(len(shape) - 1, 0)
        if field is QQ:
            assert annihilates(system.matrix, dense)
        # the same product mod p, as the elimination over Fp uses it
        assert (system.matrix @ mat_transpose(dense)).is_zero()
        singles, comps = _components(t)
        # a column that is a component of its own is no diagonal column, or the scalar rows would kill it
        assert not any(row.get(c) for row in scalar for c in singles)
        for ccols, rows, held, _ in comps:
            parts = [part for row in scalar if (part := {c: v for c, v in row.items() if c in ccols})]
            # the cap of stabilizer_dim counts the slots that hold a diagonal column instead of eliminating
            diagonal = {j for j, k, l in (column_label(system, c) for c in ccols) if k == l}
            assert held == len(diagonal)
            restricted = Matrix.from_nonzeros(len(parts), cols, {(i, c): v for i, part in enumerate(parts)
                                                                  for c, v in part.items()}, field)
            assert rank(restricted) == min(held, len(shape) - 1)
            for part in parts:
                # exactly over Q, on the rows read as integers, and mod p
                sums = [sum(row.get(c, 0) * v for c, v in part.items()) for row in rows]
                assert all(x == 0 for x in sums) if field is QQ else all(x % FP.prime == 0 for x in sums)


def _bound_cases():
    cases = [("dense444", lambda f: random_tensor((4, 4, 4), seed=1, field=f)),
             ("dense234", lambda f: random_tensor((2, 3, 4), seed=2, field=f)),
             ("dense3333", lambda f: random_tensor((3, 3, 3, 3), seed=3, field=f, bound=9)),
             # a generic 2 x 2 x 2 tensor has stabilizer 4 > d - 1, so over Q the lift runs
             ("generic222", lambda f: random_tensor((2, 2, 2), seed=3, field=f, bound=99)),
             ("zero232", lambda f: Tensor.zeros((2, 3, 2), f)),
             ("unit1x3x3", lambda f: random_tensor((1, 3, 3), seed=4, field=f, bound=9))]
    for e in range(2, 6):
        cases.append((f"mmult{e}", lambda f, e=e: mmult(e, e, e, f)))
        cases.append((f"mtilde{e}", lambda f, e=e: m_tilde_formula(e, f)))
    for parts in ((2, 1, 2, 1, 2, 1), (1, 2, 2, 1, 1, 2), (2, 2, 2, 2, 1, 3)):
        cases.append(("block" + "".join(map(str, parts)), lambda f, p=parts: _block_limit(p, f)))
    return cases


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
@pytest.mark.parametrize("name, make", _bound_cases(), ids=[name for name, _ in _bound_cases()])
def test_capped_rank_is_the_rank_of_the_full_system(name, make, field):
    t = make(field)
    system = build_system(t)
    m = system.matrix
    if m.rows * m.cols <= 30000 and field is QQ:
        want = naive_rank(matrix_rows(m))
    elif m.rows * m.cols <= 30000:
        want = naive_rank_mod_p([mat_row(m, i) for i in range(m.rows)], FP.prime)
    else:  # the rank with no kernel rows given: read every row, and over Q lift the kernel
        want = rank(m)
    assert orbit_dim(t) == want
    assert stabilizer_dim(t) == m.cols - want


def _count_component_rows(monkeypatch) -> list:
    """Rows read by each elimination of a component that its cap stops below its column count."""
    read = []
    eliminate = linalg._packed_eliminate

    def counted(rows, cols, prime, cap=None):
        if cap is None or cap == len(cols):
            return eliminate(rows, cols, prime, cap)
        read.append(0)

        def stream():
            for row in rows:
                read[-1] += 1
                yield row

        return eliminate(stream(), cols, prime, cap)

    monkeypatch.setattr(linalg, "_packed_eliminate", counted)
    return read


def _fixed_7x7x7(field=QQ) -> Tensor:
    rng = random.Random(9)
    return Tensor((7, 7, 7), [rng.randint(-10**6, 10**6) for _ in range(343)], field)


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
def test_dense_7x7x7_stops_at_its_cap_with_no_lift(monkeypatch, field):
    def refuse(*args):
        raise AssertionError("the capped rank needs no lifted kernel")

    for name in ("_back_solve", "_lifted_vectors", "_annihilates"):
        monkeypatch.setattr(linalg, name, refuse)
    read = _count_component_rows(monkeypatch)
    cap = 147 - 2
    assert stabilizer_dim(_fixed_7x7x7(field)) == 147 - cap
    # one component, one prime: the strided order reaches the cap within two rows of it
    assert len(read) == 1 and cap <= read[0] <= cap + 2


def test_capped_rank_agrees_with_the_lifted_kernel_on_the_7x7x7():
    m = build_system(_fixed_7x7x7()).matrix
    assert len(kernel_basis(m)) == 2 and rank(m) == 145


@pytest.mark.parametrize("name, make, digest", [
    ("mmult3", lambda: mmult(3, 3, 3), "f7e8e83cb9614ce7"),
    ("mtilde3", lambda: m_tilde_formula(3), "e47fdb4bf99c6b7e"),
    ("rand444", lambda: random_tensor((4, 4, 4), seed=4, bound=9), "934ac76f49cfd827"),
    ("rand234", lambda: random_tensor((2, 3, 4), seed=1, bound=9), "9f9a9d2df218fed5"),
    ("mmult2fp", lambda: mmult(2, 2, 2, FP), "b997d0cec6d670be"),
    ("rand333fp", lambda: random_tensor((3, 3, 3), seed=2, field=FP, bound=9), "91121572492e3e06"),
])
def test_stabilizer_tuples_are_unchanged(monkeypatch, name, make, digest):
    # digests of the tuples as computed before ranks were capped by the scalar rows, each
    # scalar printed as the reports print it (a residue as its digits).  The kernel is lifted one
    # component at a time: the system is never built
    def refuse(*args):
        raise AssertionError("built the whole system")

    monkeypatch.setattr(stabilizer, "build_system", refuse)
    tuples = [[[jsonio.scalar_to_str(x) for x in m.entries] for m in tup] for tup in stabilizer_tuples(make())]
    assert hashlib.sha256(repr(tuples).encode()).hexdigest()[:16] == digest


# --- the streamed rank (stabilizer_dim), component by component from the tensor, against the built system

@st.composite
def sparse_tensors(draw):
    """A tensor of order 0 to 4, axes of 1 to 3, with any set of nonzero cells (none included):
    Fraction entries over Q, residues over Fp (small ones too, so that rows cancel)."""
    field = draw(st.sampled_from([QQ, FP]))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
    cells = list(itertools.product(*(range(s) for s in shape)))
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    if field is QQ:
        values = st.fractions(-9, 9, max_denominator=6).filter(bool)
    else:
        values = st.one_of(st.integers(1, 3), st.integers(1, FP.prime - 1))
    return Tensor.from_nonzeros(shape, {c: draw(values) for c in chosen}, field)


@given(sparse_tensors())
@example(Tensor.zeros((), QQ))
@example(Tensor.zeros((2, 1, 3), FP))
@example(Tensor.from_nonzeros((1, 1, 1, 1), {(0, 0, 0, 0): 5}, QQ))
def test_streamed_rank_is_the_oracle_rank_of_the_built_system(t):
    m = build_system(t).matrix
    if t.field is QQ:
        want = naive_rank(matrix_rows(m))
    else:
        want = naive_rank_mod_p([mat_row(m, i) for i in range(m.rows)], FP.prime)
    assert stabilizer_dim(t) == m.cols - want == sum(s * s for s in t.shape) - want


@st.composite
def repeated_blocks(draw):
    """Copies of one sparse block of order 1 to 4 placed along the diagonal, each copy's values drawn from
    {1, 2, -1}, so that many components share a shape and some share their local matrix too."""
    field = draw(st.sampled_from([QQ, FP]))
    block = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=4)))
    copies = draw(st.integers(2, 4 if len(block) < 4 else 2))
    cells = draw(st.lists(st.sampled_from(list(itertools.product(*(range(s) for s in block)))),
                          min_size=1, unique=True))
    items = {tuple(i * s + x for s, x in zip(block, c)): draw(st.sampled_from([1, 2, -1]))
             for i in range(copies) for c in cells}
    return Tensor.from_nonzeros(tuple(copies * s for s in block), items, field)


@given(st.one_of(sparse_tensors(), repeated_blocks()))
@example(mmult(2, 3, 2))
@example(m_tilde_formula(2, FP))
def test_components_from_fibres_are_the_components_of_the_built_system(t):
    # the components found from the fibres are those of the built system (``linalg._split``): the same
    # columns, rows, shared shapes and fill checked; keying shared shapes leaves the oracle rank
    checked = []
    check = stabilizer.check_peak
    stabilizer.check_peak = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)
    try:
        singles, comps = _components(t)
    finally:
        stabilizer.check_peak = check
    m = build_system(t).matrix
    groups = _split(list(_integral_rows(m)), m.cols)
    assert list(singles) == sorted(c for ccols, _ in groups if len(ccols) == 1 for c in ccols)
    want = {tuple(ccols): crows for ccols, crows in groups if len(ccols) > 1}
    shapes = Counter((len(ccols), len(crows)) for ccols, crows in want.items())
    got = {tuple(ccols): (crows, shared) for ccols, crows, _, shared in comps}
    assert got == {ccols: (crows, shapes[len(ccols), len(crows)] > 1) for ccols, crows in want.items()}
    # the peak is checked from the tensor alone, then with the most a component is predicted to hold
    held = system_bytes(len(t._nz), t.shape)
    longest, prime = _longest_row(t), t.field.prime or DEFAULT_PRIME
    assert checked == [held, held + max((_component_bytes(a, b, longest, prime) for a, b in shapes), default=0)]
    if t.field is QQ:
        oracle = naive_rank(matrix_rows(m))
    else:
        oracle = naive_rank_mod_p([mat_row(m, i) for i in range(m.rows)], FP.prime)
    assert stabilizer_dim(t) == m.cols - oracle


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
@pytest.mark.parametrize("e", range(2, 7))
def test_streamed_rank_holds_the_pinned_certify_table(e, field):
    # the stabilizers 3e^2 - 1 of mmult and 4e^2 - 2e of its limit, as the built system ranks them
    # (by the oracle at e = 2, by linalg.rank beyond)
    for t, stab in ((mmult(e, e, e, field), 3 * e * e - 1), (m_tilde_formula(e, field), 4 * e * e - 2 * e)):
        m = build_system(t).matrix
        if e == 2:
            rows = [mat_row(m, i) for i in range(m.rows)]
            want = naive_rank(rows) if field is QQ else naive_rank_mod_p(rows, FP.prime)
        else:
            want = orbit_dim(t)
        assert stabilizer_dim(t) == m.cols - want == stab


def test_streamed_rank_never_builds_the_system(monkeypatch):
    # nothing of the whole system is built: no Matrix, and no elimination reads more than one component
    def refuse(*args, **kwargs):
        raise AssertionError("built the whole system")

    for name in ("build_system", "Matrix", "rank"):
        monkeypatch.setattr(stabilizer, name, refuse)
    widths = []
    _rank = stabilizer._rank
    monkeypatch.setattr(stabilizer, "_rank", lambda cols, *a: widths.append(len(cols)) or _rank(cols, *a))
    e = 5
    assert stabilizer_dim(mmult(e, e, e)) == 3 * e * e - 1
    # at e = 5 the system splits into 1200 components of one column, 60 of 10 and one of 75; the 60
    # are copies of one local matrix, ranked once
    assert sorted(widths) == [10, 75]
    assert len(_components(mmult(e, e, e))[0]) == 1200


def _count_searches(monkeypatch) -> list:
    """The column count of each component search (``linalg.components``), where linalg and stabilizer call it."""
    calls = []
    search = linalg.components
    for module in (linalg, stabilizer):
        monkeypatch.setattr(module, "components", lambda rows, cols: calls.append(cols) or search(rows, cols))
    return calls


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
def test_each_system_is_searched_for_components_once(monkeypatch, field):
    # a component is ranked or lifted on its own, over every prime, and never searched again.  The one
    # search of the system's columns follows one search of each slot's indices, which joins those that
    # share a fibre
    calls = _count_searches(monkeypatch)
    for t in (mmult(3, 3, 3, field), m_tilde_formula(3, field), _fixed_7x7x7(field)):
        del calls[:]
        stabilizer_dim(t)
        assert calls == [*t.shape, sum(s * s for s in t.shape)]
        del calls[:]
        stabilizer_tuples(t)
        assert calls == [*t.shape, sum(s * s for s in t.shape)]
    m = build_system(mmult(3, 3, 3, field)).matrix
    for fn in (rank, rank_mod_p, linalg.pivot_columns, kernel_basis):
        del calls[:]
        fn(m)
        assert calls == [m.cols]


def test_only_the_streamed_rank_is_held_to_the_budget(monkeypatch):
    # build_system, the tests' reference, is held to no budget; the streamed rank is held to the one
    # budget from the tensor alone, before its components are searched
    monkeypatch.setattr(errors, "MAX_PEAK_MB", 0)
    assert build_system(mmult(3, 3, 3)).matrix.cols == 243
    monkeypatch.setattr(stabilizer, "components", None)  # finding components would raise
    with pytest.raises(SemanticError, match="^ranking this tensor's stabilizer system is predicted to take"):
        stabilizer_dim(mmult(3, 3, 3))
