"""A cached attribute without a lock.

On Python 3.11, :class:`functools.cached_property` takes one ``RLock``
per attribute, shared by every instance, on each first access; the
planning path reads a few hundred such attributes of fresh profiles per
capacity search.  :class:`cached_value` computes the value once and
stores it in the instance ``__dict__``, where every later read finds it
without calling the descriptor (it defines no ``__set__``).  Two threads
that race on a first access both compute the value, and the last store
wins; every cached value here is a pure function of immutable fields.
"""

from __future__ import annotations

from typing import Any, Callable


class cached_value:
    """``functools.cached_property`` without the lock."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
