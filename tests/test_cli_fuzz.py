"""Mutated valid input files, fed to every subcommand in-process: each run
ends in a documented exit code, and no exception escapes `cli.main`."""

import json
import random
import signal

from tngeom import jsonio
from tngeom.cli import main
from tngeom.networks import chain_graph, loop_graph, random_instance
from tngeom.zoo import diagonal_splitting, mmult

from oracles import block_splitting, instance_to_obj, splitting_to_obj

CASES = 204  # 34 per subcommand
SECONDS_PER_CASE = 5  # far above any case here; a run past it is a hang, and fails the test

# small values, values that cross a size budget, and values of the wrong type
VALUES = [-1, 0, 1, 2, 3, 5, 10**9, 2**70, 1.5, True, None, "1", "-1/2", "1/0", "x", "", [], {}, [1, 2], {"a": 1}]
# values of the same kind as an int or a scalar string, so that more mutated files reach the pipelines
LIKE = {int: [-1, 0, 1, 2, 3, 4, 5], str: ["0", "1", "-1", "2/3", "7"]}


def _valid_inputs() -> dict:
    """(command argv before the input path, input object) of each subcommand, on small valid inputs."""
    return {
        "contract": (["contract"], instance_to_obj(random_instance(loop_graph((2, 3, 2)), seed=1))),
        "stabilizer": (["stabilizer"], jsonio.tensor_to_obj(mmult(2, 2, 2))),
        "dim": (["dim"], jsonio.graph_to_obj(loop_graph((2, 2, 2), vertex_dims=(5, 4, 4)))),
        "reduce": (["reduce"], jsonio.graph_to_obj(chain_graph((2, 4, 4, 2), (2, 2, 2)))),
        "certify": (["certify", "--e", "2", "--splitting"], splitting_to_obj(diagonal_splitting(2))),
        "limit": (["limit", "--e", "3", "--splitting"], splitting_to_obj(block_splitting(2, 1, 2, 1, 2, 1))),
    }


def _paths(obj, prefix=()):
    """The path of every node of a JSON value, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


def _mutate(obj, rng: random.Random):
    """A copy of obj with one node replaced, deleted or duplicated, or a key renamed."""
    obj = json.loads(json.dumps(obj))
    path = rng.choice([p for p in _paths(obj) if p])
    *head, key = path
    parent = obj
    for k in head:
        parent = parent[k]
    move = rng.randrange(4)
    if move == 0 and type(parent[key]) in LIKE:
        parent[key] = rng.choice(LIKE[type(parent[key])])
    elif move == 0:
        parent[key] = rng.choice(VALUES)
    elif move == 1:
        del parent[key]
    elif move == 2 and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    elif isinstance(parent, dict):
        parent[key + "_"] = parent.pop(key)
    else:
        parent[key] = rng.choice(VALUES)
    return obj


def _timeout(signum, frame):
    raise TimeoutError(f"a case ran past {SECONDS_PER_CASE} s")


def test_mutated_inputs_exit_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(20261020)
    inputs = _valid_inputs()
    names = sorted(inputs)
    path, out = tmp_path / "input.json", tmp_path / "report.json"
    codes = {}
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for case in range(CASES):
            name = names[case % len(names)]
            argv, obj = inputs[name]
            mutated = _mutate(obj, rng)
            path.write_text(json.dumps(mutated))
            args = [*argv, str(path), "--field", rng.choice(["rational", "fp"]), "--out", str(out)]
            signal.alarm(SECONDS_PER_CASE)
            try:
                code = main(args)
            except BaseException as exc:
                raise AssertionError(f"{args} on {mutated}") from exc
            finally:
                signal.alarm(0)
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (args, mutated, code)
            codes[code] = codes.get(code, 0) + 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the mutations reach both the parsers and the pipelines
    assert codes.get(0, 0) > 0 and codes.get(2, 0) + codes.get(3, 0) > 0, codes
