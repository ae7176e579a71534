"""Derived dataclass fields and read-only tables.

A certificate keeps the integer tables it was certified from; its
rational and dense outputs are derived fields, built from those tables
on first read and cached.  They stay ordinary init fields, so
dataclasses.replace and __init__ take a value for them, which is kept.
"""

from __future__ import annotations

from dataclasses import field

import numpy as np


class _Derived:
    """Descriptor default of a derived field.  dataclass passes the
    descriptor itself as the default argument, and __set__ drops it, so
    a field given no value is built by build(obj) on its first read."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        try:
            return obj.__dict__[self.name]
        except KeyError:
            value = obj.__dict__[self.name] = self.build(obj)
            return value

    def __set__(self, obj, value):
        if value is not self:
            obj.__dict__[self.name] = value


def derived(build, compare: bool = True):
    """A dataclass field whose value is build(obj) unless one is passed."""
    return field(default=_Derived(build), compare=compare)


def read_only(a: np.ndarray) -> np.ndarray:
    """A copy of a over immutable bytes, which no flag makes writeable."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)
