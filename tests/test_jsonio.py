import contextlib
import io
import itertools
import json
import os
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tngeom import jsonio
from tngeom.curves import MatrixCurve
from tngeom.errors import FormatError, SemanticError, ShapeError
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix
from tngeom.contraction import contract_network
from tngeom.networks import NetworkGraph, chain_graph, loop_graph, random_instance
from tngeom.tensors import Tensor, random_tensor
from tngeom.varieties import certify_not_closed
from tngeom.zoo import diagonal_splitting, mmult

from oracles import curve_from_obj, curve_to_obj, instance_to_obj, matrix_to_obj, random_matrix, splitting_to_obj

FP = PrimeField(2**31 - 1)


def test_scalar_round_trip():
    assert jsonio.scalar_to_str(Fraction(-7, 3)) == "-7/3"
    assert jsonio.parse_scalar("-7/3", QQ) == Fraction(-7, 3)
    assert jsonio.parse_scalar("5", QQ) == 5
    assert jsonio.parse_scalar(5, QQ) == 5
    x = jsonio.parse_scalar("1/2", FP)
    assert FP.coerce(x * 2) == FP.one
    with pytest.raises(FormatError):
        jsonio.parse_scalar("zebra", QQ)
    with pytest.raises(FormatError):
        jsonio.parse_scalar("1/0", QQ)
    with pytest.raises(FormatError):
        jsonio.parse_scalar(1.5, QQ)


def test_matrix_round_trip():
    m = random_matrix(3, 4, seed=1, bound=99).scale(Fraction(1, 7))
    obj = matrix_to_obj(m)
    assert jsonio.matrix_from_obj(obj, QQ) == m
    with pytest.raises(FormatError):
        jsonio.matrix_from_obj({"rows": 2, "cols": 2, "entries": ["1"]}, QQ)
    with pytest.raises(FormatError):
        jsonio.matrix_from_obj({"rows": 2, "entries": []}, QQ)


def test_tensor_round_trip_sparse_form():
    t = mmult(2, 2, 2)
    obj = jsonio.tensor_to_obj(t)
    assert len(obj["entries"]) == 8  # only nonzeros travel
    assert jsonio.tensor_from_obj(obj, QQ) == t
    zero = Tensor.zeros((2, 2))
    assert jsonio.tensor_from_obj(jsonio.tensor_to_obj(zero), QQ) == zero


def test_tensor_bad_index_is_semantic_error():
    obj = {"shape": [2, 2], "entries": [{"idx": [2, 0], "val": "1"}]}
    with pytest.raises(ShapeError):
        jsonio.tensor_from_obj(obj, QQ)
    with pytest.raises(FormatError):
        jsonio.tensor_from_obj({"shape": [2, 2], "entries": [{"idx": [0], "val": "1"}]}, QQ)


def test_graph_and_instance_round_trip():
    g = loop_graph((2, 3, 2))
    assert jsonio.graph_from_obj(jsonio.graph_to_obj(g)) == g
    inst = random_instance(g, seed=4, bound=9)
    back = jsonio.instance_from_obj(instance_to_obj(inst), QQ)
    assert back.graph == inst.graph and back.tensors == inst.tensors
    with pytest.raises(FormatError):
        jsonio.instance_from_obj({"vertices": [], "edges": []}, QQ)


def test_instance_bad_vertex_key():
    g = chain_graph((2, 2), (2,))
    obj = instance_to_obj(random_instance(g, seed=0))
    obj["tensors"] = {"x": obj["tensors"]["1"]}
    with pytest.raises(FormatError):
        jsonio.instance_from_obj(obj, QQ)


@pytest.mark.parametrize("key, vid", [(" 1", 1), ("1 ", 1), ("01", 1), ("+1", 1), ("-0", 0), ("1_0", 10),
                                      ("\u0661", 1)])  # the last is the Arabic-Indic digit one
def test_instance_refuses_a_vertex_key_not_written_as_its_id(key, vid):
    # int() reads each of these as vid; only str(vid) names the vertex
    g = NetworkGraph.build([(vid, 2), (2, 2)], [(1, vid, 2, 2)])
    obj = instance_to_obj(random_instance(g, seed=0))
    assert int(key) == vid and str(vid) in obj["tensors"]
    back = jsonio.instance_from_obj(obj, QQ)
    obj["tensors"][key] = obj["tensors"].pop(str(vid))
    with pytest.raises(FormatError, match="tensor key"):
        jsonio.instance_from_obj(obj, QQ)
    # next to the key it spells, it would name the same vertex twice
    obj["tensors"][str(vid)] = jsonio.tensor_to_obj(back.tensors[vid])
    with pytest.raises(FormatError, match="tensor key"):
        jsonio.instance_from_obj(obj, QQ)


def test_splitting_round_trip():
    s = diagonal_splitting(3)
    obj = splitting_to_obj(s)
    assert set(obj) == {"X0", "Y0", "Z0"}
    back = jsonio.splitting_from_obj(obj, QQ)
    assert back.projectors() == s.projectors()
    # idempotence is enforced on the way in
    obj["X0"]["entries"][0] = "2"
    with pytest.raises(SemanticError):
        jsonio.splitting_from_obj(obj, QQ)


def test_curve_round_trip():
    c = MatrixCurve(((0, Matrix.identity(2)), (2, random_matrix(2, 2, seed=3, bound=9))))
    factor, back = curve_from_obj(curve_to_obj(1, c), QQ)
    assert factor == 1 and back == c


def test_certificate_key_order_and_content():
    cert = certify_not_closed(diagonal_splitting(2), 2)
    obj = jsonio.certificate_to_obj(cert)
    assert list(obj) == [
        "e", "stab_mmult", "stab_mtilde", "mlrank_mtilde",
        "leading_power", "leading_matches_formula", "conclusion", "reason",
    ]
    assert obj["conclusion"] == "not_closed_certified"
    assert obj["mlrank_mtilde"] == [4, 4, 4]


def test_dumps_deterministic_and_parseable():
    t = random_tensor((2, 2), seed=8, bound=9)
    a = jsonio.dumps(jsonio.tensor_to_obj(t))
    b = jsonio.dumps(jsonio.tensor_to_obj(t))
    assert a == b and a.endswith("\n")
    assert json.loads(a)["shape"] == [2, 2]


def test_loads_rejects_bad_json():
    with pytest.raises(FormatError):
        jsonio.loads("{nope")
    with pytest.raises(FormatError):
        jsonio.load_path("/nonexistent/path.json")


def test_loads_refuses_a_repeated_key_at_any_depth():
    for text in ('{"a": 1, "a": 1}', '[{"b": {"a": 1, "c": 2, "a": 3}}]', '{"a": 1, "b": 2, "c": {}, "b": 2}'):
        with pytest.raises(FormatError, match="is repeated in one object"):
            jsonio.loads(text)
    # the same key in sibling and nested objects is no repeat
    assert jsonio.loads('[{"a": 1}, {"a": 2, "b": {"a": 3}}]') == [{"a": 1}, {"a": 2, "b": {"a": 3}}]


def test_prime_field_wire_round_trip():
    t = random_tensor((2, 2, 2), seed=5, bound=99, field=FP)
    obj = jsonio.tensor_to_obj(t)
    assert jsonio.tensor_from_obj(obj, FP) == t
    assert jsonio.field_label(FP) == {"field": "Fp", "prime": 2**31 - 1}
    assert jsonio.field_label(QQ) == {"field": "rational", "prime": None}


@st.composite
def tensors(draw):
    """Tensors of order 0 to 7 over either field, of at most 729 cells, with axes of size 1,
    negative integers, fractions, and the zero tensor."""
    field = draw(st.sampled_from([QQ, FP]))
    shape, room = [], 729
    for _ in range(draw(st.integers(0, 7))):
        shape.append(draw(st.integers(1, max(1, min(4, room)))))
        room //= shape[-1]
    cells = list(itertools.product(*map(range, shape)))
    scalars = st.one_of(st.integers(-10**40, 10**40), st.fractions(max_denominator=10**9))
    items = draw(st.dictionaries(st.sampled_from(cells), scalars, max_size=len(cells)))
    return Tensor.from_nonzeros(shape, items, field)


def _dumped(report) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        jsonio.dump(report, None)
    return buf.getvalue()


@given(tensors(), st.integers(0, 3))
@example(Tensor.zeros((1, 3)), 0)
@example(Tensor.zeros((2,), FP), 2)
def test_dump_writes_a_tensor_with_the_bytes_of_its_dict(t, depth):
    # at any depth in a report, as the limit report holds its tensors
    report, old = t, jsonio.tensor_to_obj(t)
    for k in range(depth):
        report = {"power": k, "tensor": report, "terms": [report, None], "empty": {}}
        old = {"power": k, "tensor": old, "terms": [old, None], "empty": {}}
    assert _dumped(report) == jsonio.dumps(old)


def test_dump_refuses_a_report_it_cannot_write_before_opening_the_file(tmp_path, capsys):
    t = Tensor.from_nonzeros((2, 2), {(0, 0): 1, (1, 1): Fraction(1, 10**5000)})
    target = tmp_path / "out.json"
    for path in (target, None):
        with pytest.raises(SemanticError, match="4300 digits"):
            jsonio.dump({"terms": [{"tensor": t}]}, path)
    assert not target.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("scalar", [10**4299, -(10**4299), Fraction(1, 10**4299), Fraction(-(10**4299), 3)])
def test_dump_writes_a_scalar_of_as_many_digits_as_the_limit(tmp_path, scalar):
    target = tmp_path / "out.json"
    jsonio.dump({"tensor": Tensor((1,), [scalar]), "n": 10**4299}, target)
    assert json.loads(target.read_text())["tensor"]["entries"][0]["val"] == str(scalar)


@pytest.mark.parametrize("report", [{"tensor": Tensor((1,), [10**4300])}, {"tensor": Tensor((1,), [-(10**4300)])},
                                    {"tensor": Tensor((1,), [Fraction(1, 10**4300)])},
                                    {"tensor": Tensor((1,), [Fraction(10**4300, 3)])}, {"n": [10**4300]}])
def test_dump_refuses_a_scalar_of_one_digit_past_the_limit(tmp_path, report):
    target = tmp_path / "out.json"
    with pytest.raises(SemanticError, match="4300 digits"):
        jsonio.dump(report, target)
    assert not target.exists()


def test_dump_checks_no_scalar_without_a_digit_limit(tmp_path, monkeypatch):
    # a limit of 0 means none; a Python before 3.11 has no sys.get_int_max_str_digits
    big = 10**4300
    monkeypatch.setattr(jsonio, "scalar_to_str", None)  # any call would fail
    for limit in (lambda: 0, None):
        if limit is None:
            monkeypatch.delattr(jsonio.sys, "get_int_max_str_digits")
        else:
            monkeypatch.setattr(jsonio.sys, "get_int_max_str_digits", limit)
        jsonio._check_scalars({"tensor": Tensor((1,), [big]), "n": big})


def test_writing_a_large_tensor_report_allocates_little():
    # loop (2,)^7 contracts to 4^7 = 16384 entries, a 2.4 MB report; building
    # its list of entry dicts and encoding that peaked at 6.4 MB
    t = contract_network(random_instance(loop_graph((2,) * 7), seed=1))
    tracemalloc.start()
    try:
        jsonio.dump(t, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
