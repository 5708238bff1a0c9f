"""Immutable snapshots for stable storage.

A deep-copying store pays O(state) on every ``put`` *and* every ``get``.
This module replaces copying with *freezing*:

* :func:`freeze` converts a JSON-shaped value (dicts, lists, tuples,
  scalars) into an immutable view — :class:`FrozenDict` / :class:`FrozenList`
  nodes whose mutating operations raise.  Mutable containers are converted,
  never aliased, so a caller's later mutation cannot reach "disk"; anything
  that is not JSON-shaped raises :class:`~repro.errors.StableStorageError`
  (the input check the file backends get from JSON encoding).  Freezing an
  already-frozen node is O(1), so states that reuse unchanged sub-trees pay
  only for what changed.  A frozen value can be handed out by ``get``
  without any copy: readers cannot corrupt the store.
* :func:`thaw` is the explicit escape hatch: it produces a plain, mutable
  deep copy for callers that really want to edit a snapshot.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StableStorageError

_SCALARS = (str, int, float, bool, type(None))


def _blocked(name: str):
    def method(self, *args, **kwargs):
        raise TypeError(
            f"snapshot is frozen: {type(self).__name__}.{name}() is not allowed; "
            "thaw() the value to get a mutable copy"
        )

    method.__name__ = name
    return method


class FrozenDict(dict):
    """An immutable dict view produced by :func:`freeze`.

    Subclasses ``dict`` so it stays JSON-serialisable, ``**``-unpackable and
    equality-compatible with plain dicts; every mutator raises instead.
    """

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    __ior__ = _blocked("__ior__")
    clear = _blocked("clear")
    pop = _blocked("pop")
    popitem = _blocked("popitem")
    setdefault = _blocked("setdefault")
    update = _blocked("update")

    def __reduce__(self):
        return (FrozenDict, (dict(self),))

    def __copy__(self) -> "FrozenDict":
        return self

    def __deepcopy__(self, memo) -> "FrozenDict":
        return self


class FrozenList(list):
    """An immutable list view produced by :func:`freeze` (see FrozenDict)."""

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    __iadd__ = _blocked("__iadd__")
    __imul__ = _blocked("__imul__")
    append = _blocked("append")
    clear = _blocked("clear")
    extend = _blocked("extend")
    insert = _blocked("insert")
    pop = _blocked("pop")
    remove = _blocked("remove")
    reverse = _blocked("reverse")
    sort = _blocked("sort")

    def __reduce__(self):
        return (FrozenList, (list(self),))

    def __copy__(self) -> "FrozenList":
        return self

    def __deepcopy__(self, memo) -> "FrozenList":
        return self


def freeze(value: Any) -> Any:
    """Return an immutable view of ``value`` (already-frozen nodes pass through).

    The pass-through is what makes storage copy-on-write: a caller that
    rebuilds only the changed part of a state and reuses frozen sub-trees
    pays O(changed), not O(state).  Mutable containers are converted (never
    aliased), so later mutation of the original cannot leak into storage.
    """
    kind = type(value)
    if kind in (FrozenDict, FrozenList) or kind in _SCALARS:
        return value
    if kind is dict:
        return FrozenDict((k, freeze(v)) for k, v in value.items())
    if kind in (list, tuple):
        frozen = [freeze(v) for v in value]
        return tuple(frozen) if kind is tuple else FrozenList(frozen)
    # Subclasses of the shapes above (rare) take the isinstance path.
    if isinstance(value, (FrozenDict, FrozenList)):
        return value
    if isinstance(value, dict):
        return FrozenDict((k, freeze(v)) for k, v in value.items())
    if isinstance(value, tuple):
        return tuple(freeze(v) for v in value)
    if isinstance(value, list):
        return FrozenList(freeze(v) for v in value)
    if isinstance(value, _SCALARS):
        return value
    raise StableStorageError(
        f"cannot freeze {type(value).__name__!r}: stable values must be "
        "JSON-shaped (dict/list/tuple/str/int/float/bool/None)"
    )


def thaw(value: Any) -> Any:
    """Deep, mutable copy of a (possibly frozen) snapshot value.

    The explicit counterpart of the zero-copy ``get``: readers that need to
    edit call ``thaw`` and pay the copy exactly once, by choice.
    """
    if isinstance(value, dict):
        return {k: thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(thaw(v) for v in value)
    if isinstance(value, list):
        return [thaw(v) for v in value]
    return value
