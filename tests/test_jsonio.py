import json

import pytest

from helpers import dihedral_nrack
from nracks import cyclic_group, symmetric_group
from nracks.jsonio import (
    dump_document,
    dump_line,
    group_from_json,
    group_to_json,
    module_group_from_json,
    nrack_from_json,
    nrack_to_json,
    operator_from_json,
    tensor_from_json,
)


def test_nrack_round_trip():
    R = dihedral_nrack(3)
    doc = nrack_to_json(R)
    assert nrack_from_json(doc) == R
    assert json.loads(dump_document(doc)) == doc


def test_nrack_json_rejects_malformed():
    with pytest.raises(ValueError):
        nrack_from_json({"arity": 2, "size": 2})
    with pytest.raises(ValueError):
        nrack_from_json({"arity": 2, "size": 2, "table": [0, 1, "x", 0]})
    with pytest.raises(ValueError):
        nrack_from_json({"arity": 2, "size": 2, "table": [0, 1, 1, 0], "basepoint": "a"})
    with pytest.raises(ValueError):
        nrack_from_json({"arity": 2, "size": 2, "table": [0, 1, 1]})


def test_group_round_trip():
    for G in (cyclic_group(4), symmetric_group(3)):
        doc = group_to_json(G)
        back = group_from_json(doc)
        assert back.cayley == G.cayley and back.identity == G.identity
        assert back.inverse == G.inverse


def test_group_json_rejects_non_group():
    with pytest.raises(ValueError):
        group_from_json({"size": 2, "cayley": [0, 0, 0, 0], "identity": 0})


def test_operator_json_shape_check():
    with pytest.raises(ValueError):
        operator_from_json({"dimension": 2, "matrix": [["1", "0"]]})
    op = operator_from_json({"dimension": 2, "matrix": [["1/2", "0"], ["0", "-3"]]})
    assert str(op.matrix[0][0]) == "1/2"


def test_module_group_bundle_requires_valid_action():
    H = cyclic_group(2)
    V = cyclic_group(3)
    bundle = {
        "arity": 3,
        "group": group_to_json(H),
        "module": group_to_json(V),
        "action": [[0, 1, 2], [1, 2, 0]],
        "bracket": [0] * 8,
    }
    with pytest.raises(ValueError, match="automorphism"):
        module_group_from_json(bundle)


def test_dump_line_is_sorted_and_compact():
    assert dump_line({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


def _table_doc():
    return {"arity": 2, "size": 2, "basepoint": 0, "table": [0, 1, 0, 1]}


def _bundle_doc():
    return {
        "arity": 2,
        "group": group_to_json(cyclic_group(2)),
        "module": group_to_json(cyclic_group(3)),
        "action": [[0, 1, 2], [0, 2, 1]],
        "bracket": [0, 0, 0, 0],
    }


def _tensor_doc():
    return {"dimension": 2, "arity": 2,
            "constants": [{"args": [0, 1], "out": 1, "value": "1"}]}


@pytest.mark.parametrize(
    "parse, make, path",
    [
        (nrack_from_json, _table_doc, ("arity",)),
        (nrack_from_json, _table_doc, ("size",)),
        (nrack_from_json, _table_doc, ("basepoint",)),
        (nrack_from_json, _table_doc, ("table", 1)),
        (group_from_json, lambda: group_to_json(cyclic_group(2)), ("size",)),
        (group_from_json, lambda: group_to_json(cyclic_group(2)), ("identity",)),
        (group_from_json, lambda: group_to_json(cyclic_group(2)), ("cayley", 1)),
        (module_group_from_json, _bundle_doc, ("arity",)),
        (module_group_from_json, _bundle_doc, ("bracket", 0)),
        (module_group_from_json, _bundle_doc, ("action", 0, 1)),
        (module_group_from_json, _bundle_doc, ("group", "identity")),
        (tensor_from_json, _tensor_doc, ("dimension",)),
        (tensor_from_json, _tensor_doc, ("arity",)),
        (tensor_from_json, _tensor_doc, ("constants", 0, "out")),
        (tensor_from_json, _tensor_doc, ("constants", 0, "args", 0)),
        (operator_from_json, lambda: {"dimension": 1, "matrix": [["1"]]}, ("dimension",)),
    ],
)
def test_bools_are_rejected_where_ints_belong(parse, make, path):
    doc = make()
    parse(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bool(target[path[-1]])
    with pytest.raises(ValueError, match="wrong type|integer"):
        parse(doc)


def test_tensor_args_must_be_integers():
    doc = _tensor_doc()
    doc["constants"][0]["args"] = ["a", 0]
    with pytest.raises(ValueError, match="args"):
        tensor_from_json(doc)
