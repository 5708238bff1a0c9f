"""Unit tests for frozen snapshots: freeze, the frozen views, thaw."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StableStorageError
from repro.stable import FrozenDict, FrozenList, freeze, thaw

# ----------------------------------------------------------------------
# freeze / thaw
# ----------------------------------------------------------------------

def test_freeze_converts_nested_containers():
    frozen = freeze({"a": [1, {"b": 2}], "c": (3, [4])})
    assert isinstance(frozen, FrozenDict)
    assert isinstance(frozen["a"], FrozenList)
    assert isinstance(frozen["a"][1], FrozenDict)
    assert isinstance(frozen["c"], tuple)  # tuples stay tuples
    assert isinstance(frozen["c"][1], FrozenList)


def test_frozen_equals_plain():
    value = {"a": [1, 2], "b": {"c": None}}
    assert freeze(value) == value
    assert value == freeze(value)


def test_frozen_dict_mutators_raise():
    frozen = freeze({"a": 1})
    for attempt in [
        lambda: frozen.__setitem__("b", 2),
        lambda: frozen.__delitem__("a"),
        lambda: frozen.pop("a"),
        lambda: frozen.popitem(),
        lambda: frozen.clear(),
        lambda: frozen.update({"b": 2}),
        lambda: frozen.setdefault("b", 2),
    ]:
        with pytest.raises(TypeError, match="frozen"):
            attempt()
    assert frozen == {"a": 1}


def test_frozen_list_mutators_raise():
    frozen = freeze([1, 2, 3])
    for attempt in [
        lambda: frozen.append(4),
        lambda: frozen.extend([4]),
        lambda: frozen.insert(0, 0),
        lambda: frozen.__setitem__(0, 9),
        lambda: frozen.__delitem__(0),
        lambda: frozen.pop(),
        lambda: frozen.remove(1),
        lambda: frozen.reverse(),
        lambda: frozen.sort(),
        lambda: frozen.clear(),
    ]:
        with pytest.raises(TypeError, match="frozen"):
            attempt()
    assert frozen == [1, 2, 3]


def test_freeze_is_identity_on_frozen_nodes():
    frozen = freeze({"a": [1, 2]})
    assert freeze(frozen) is frozen  # the O(1) copy-on-write fast path
    assert freeze(frozen["a"]) is frozen["a"]


def test_freeze_does_not_alias_mutable_input():
    original = {"a": [1]}
    frozen = freeze(original)
    original["a"].append(2)
    assert frozen == {"a": [1]}


def test_freeze_rejects_non_json_shapes():
    with pytest.raises(StableStorageError):
        freeze(object())
    with pytest.raises(StableStorageError):
        freeze({"a": {1, 2}})


def test_thaw_gives_independent_mutable_copy():
    frozen = freeze({"a": [1, {"b": 2}]})
    melted = thaw(frozen)
    melted["a"].append(3)
    melted["a"][1]["b"] = 9
    assert frozen == {"a": [1, {"b": 2}]}
    assert type(melted) is dict and type(melted["a"]) is list


def test_frozen_json_serialisable():
    frozen = freeze({"a": [1, 2], "b": None})
    assert json.loads(json.dumps(frozen)) == {"a": [1, 2], "b": None}


def test_frozen_dict_unpacks_with_double_star():
    frozen = freeze({"a": 1, "b": 2})
    assert dict(**frozen) == {"a": 1, "b": 2}


def test_copy_of_frozen_is_self():
    frozen = freeze({"a": [1]})
    assert copy.copy(frozen) is frozen
    assert copy.deepcopy(frozen) is frozen


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60, deadline=None)
@given(value=json_values)
def test_freeze_thaw_roundtrip(value):
    assert thaw(freeze(value)) == value
    assert json.loads(json.dumps(freeze(value))) == json.loads(json.dumps(value))
