"""Deterministic content keys for sweep memoization.

A cache key must identify everything that can change an evaluation's
outcome: the policy (class plus its public constructor state, e.g. the
Ratel variant or G10's GPUDirect assumption), the model configuration,
the batch size and the full server spec.  Everything is canonicalised
into a JSON document with sorted keys and hashed; two processes — or two
runs a week apart — produce the same key for the same point.

Floats are rendered with ``repr`` (shortest round-trip form), so keys are
exact: a server with 128.0 GB and one with 128.00000001 GB never collide.
Dict keys must be ``str``: JSON would render ``{1: "a"}`` and
``{"1": "a"}`` alike, so any other key type raises :class:`CacheKeyError`.

Each key is computed once per process.  :meth:`SweepPoint.key
<repro.runner.sweep.SweepPoint.key>` keeps the keys it has computed in
one bounded module-level map, indexed by :func:`memo_token`, the point's
exact value: the policy as its class plus the :func:`attributes`
``describe`` keys it by, the other components as themselves (frozen
dataclasses hash by value).  Equal is not the same as exact: ``128 ==
128.0``, ``0.0 == -0.0`` and ``True == 1`` all hold, yet ``describe``
renders each pair differently.  So a hit counts only when
:func:`same_value` finds the same type at every leaf of the stored and
the asked-for point; otherwise the key is computed afresh.  A point with
an unhashable component skips the map.  :func:`cache_key` stays the one
definition of a key: the map only remembers what it returned.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any


class CacheKeyError(TypeError):
    """Raised when a sweep point contains something non-canonicalisable."""


#: ``json.dumps`` builds a new encoder per call when given options.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Leaf types :func:`same_value` compares with ``==`` (floats go by ``repr``).
_SCALARS = (str, int, bool, type(None))


def attributes(obj: Any) -> list[tuple[str, Any]]:
    """The ``(name, value)`` pairs :func:`describe` keys an object by.

    A dataclass instance goes by its fields; any other object (a policy)
    by the entries of its ``__dict__`` whose names do not start with
    ``_``.  :func:`memo_token` snapshots the same pairs, so the memo and
    the key always cover the same state.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [(field.name, getattr(obj, field.name)) for field in dataclasses.fields(obj)]
    state = getattr(obj, "__dict__", None)
    if state is None:
        raise CacheKeyError(f"cannot canonicalise {type(obj).__name__!r} for a cache key")
    return [item for item in state.items() if not item[0].startswith("_")]


def describe(obj: Any) -> Any:
    """Canonical JSON-able description of one key component."""
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {name: describe(value) for name, value in attributes(obj)}
        doc["__type__"] = type(obj).__name__
        return doc
    if isinstance(obj, (list, tuple)):
        return [describe(item) for item in obj]
    if isinstance(obj, dict):
        for key in obj:
            if type(key) is not str:
                raise CacheKeyError(
                    f"cannot key a dict with a {type(key).__name__!r} key; dict keys must be str"
                )
        return {key: describe(value) for key, value in sorted(obj.items())}
    # Policies (and other plain objects): class identity + public state.
    doc = {name: describe(value) for name, value in attributes(obj)}
    doc["__class__"] = f"{type(obj).__module__}.{type(obj).__qualname__}"
    return doc


def cache_key(kind: str, **components: Any) -> str:
    """SHA-256 content key over ``kind`` plus named components.

    ``kind`` names the query ("evaluate", "max_trainable", ...); the
    components are whatever that query depends on.  Deterministic across
    processes and sessions.
    """
    document = {"kind": kind}
    for name, value in components.items():
        document[name] = describe(value)
    blob = _ENCODER.encode(document)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def memo_token(kind: str, policy: Any, *components: Any) -> tuple:
    """The exact value a remembered content key is stored under.

    The policy is the one component that can change after keying, so it
    enters as its class plus a snapshot of its :func:`attributes`; the
    other components (frozen dataclasses and scalars) enter as
    themselves and hash by value.  A policy without attributes raises
    :class:`CacheKeyError` here and a token with an unhashable part
    raises ``TypeError`` when hashed; either point is keyed without the
    memo.
    """
    return (kind, type(policy), tuple(attributes(policy)), *components)


def same_value(a: Any, b: Any) -> bool:
    """True when ``a`` and ``b`` have the same type and value at every leaf.

    Floats compare by ``repr`` (so ``0.0`` and ``-0.0`` differ and a NaN
    equals itself), ``str``/``int``/``bool``/``None`` by ``==``, tuples
    item by item, classes and enum members by identity, and frozen
    dataclasses field by field, or at once when they are the same
    object.  Any other type could change behind a remembered point, so
    it never matches.
    """
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is float:
        return repr(a) == repr(b)
    if kind in _SCALARS:
        return a == b
    if kind is tuple:
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, (type, enum.Enum)):
        return a is b
    if getattr(getattr(kind, "__dataclass_params__", None), "frozen", False):
        return a is b or all(
            same_value(getattr(a, field.name), getattr(b, field.name))
            for field in dataclasses.fields(a)
        )
    return False
