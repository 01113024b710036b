"""Ambient abelian groups: finite products of cyclic groups and integer lattices.

The package computes on elements as the rows of an int64 matrix (see
gset); this module describes the ambient group and parses and formats
single elements as coordinate tuples, for input and output.  ``zero`` is
the tuple zero and ``op_add`` the tuple form of the group law, kept for
callers outside the package.  ``dumps_json`` writes every pretty JSON
output of the package, and ``integral_order`` reads every integer order k.
For a cyclic product Z/n_1 x ... x Z/n_d coordinates are kept reduced into
[0, n_i); for the lattice Z^d they are arbitrary integers.  The dual of a
cyclic product is identified with the group itself through the pairing
xi.x = sum_i xi_i x_i / n_i.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

Elem = tuple[int, ...]

CYCLIC = "cyclic"
LATTICE = "lattice"


class GroupError(ValueError):
    """Malformed group description or mismatched operands."""


class InvariantError(AssertionError):
    """An internal identity that holds by theorem or construction failed.

    Raised explicitly, so the checks stay on under `python -O`."""


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    moduli: tuple[int, ...] = ()
    dim: int = 0

    @property
    def order(self) -> int | None:
        """|G| for a cyclic product, None for a lattice."""
        if self.kind == CYCLIC:
            return math.prod(self.moduli)
        return None

    @property
    def is_cyclic(self) -> bool:
        return self.kind == CYCLIC

    def __str__(self) -> str:
        return format_group(self)


def make_group(kind: str, moduli: Iterable[int] = (), dim: int = 0) -> GroupSpec:
    if kind == CYCLIC:
        mods = tuple(int(n) for n in moduli)
        if not mods:
            raise GroupError("cyclic product needs at least one modulus")
        if any(n < 2 for n in mods):
            raise GroupError(f"moduli must all be >= 2, got {mods}")
        if math.prod(mods) >= 1 << 62:   # so each row-major rank (gset.row_keys) fits int64
            raise GroupError(f"cyclic product order must be below 2^62, got {mods}")
        return GroupSpec(CYCLIC, mods, len(mods))
    if kind == LATTICE:
        if dim < 1:
            raise GroupError(f"lattice dimension must be >= 1, got {dim}")
        return GroupSpec(LATTICE, (), dim)
    raise GroupError(f"unknown group kind {kind!r}")


def cyclic(*moduli: int) -> GroupSpec:
    return make_group(CYCLIC, moduli)


def lattice(dim: int = 1) -> GroupSpec:
    return make_group(LATTICE, dim=dim)


def parse_group(text: str) -> GroupSpec:
    """Parse a group literal: ``Z``, ``Z^3``, ``Z/12`` or ``Z/4xZ/2``."""
    s = text.strip()
    if s == "Z":
        return lattice(1)
    if s.startswith("Z^"):
        try:
            return lattice(int(s[2:]))
        except ValueError:
            raise GroupError(f"bad lattice literal {text!r}") from None
    parts = s.split("x")
    moduli = []
    for part in parts:
        part = part.strip()
        if not part.startswith("Z/"):
            raise GroupError(f"bad group literal {text!r}")
        try:
            moduli.append(int(part[2:]))
        except ValueError:
            raise GroupError(f"bad group literal {text!r}") from None
    return cyclic(*moduli)


def format_group(g: GroupSpec) -> str:
    if g.kind == LATTICE:
        return "Z" if g.dim == 1 else f"Z^{g.dim}"
    return "x".join(f"Z/{n}" for n in g.moduli)


def op_add(g: GroupSpec, x: Elem, y: Elem) -> Elem:
    if len(x) != g.dim or len(y) != g.dim:
        raise GroupError("dimension mismatch in op_add")
    if g.kind == CYCLIC:
        return tuple((a + b) % n for a, b, n in zip(x, y, g.moduli))
    return tuple(a + b for a, b in zip(x, y))


def zero(g: GroupSpec) -> Elem:
    return (0,) * g.dim


def format_elem(x: Elem) -> str:
    return ",".join(str(c) for c in x)


def parse_elem(g: GroupSpec, text: str) -> Elem:
    """Comma-separated coordinates as an element, reduced in a cyclic product."""
    try:
        coords = tuple(int(c) for c in text.strip().split(","))
    except ValueError:
        raise GroupError(f"bad element literal {text!r}") from None
    if len(coords) != g.dim:
        raise GroupError(f"element {coords!r} has {len(coords)} coordinates, group {g} needs {g.dim}")
    return tuple(c % n for c, n in zip(coords, g.moduli)) if g.is_cyclic else coords


def integral_order(k, least: int, name: str) -> int:
    """k as an int if it is an integer or an integral float of at least
    `least`, else a ValueError that names it; read before any work."""
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not hasattr(k, "__index__") or operator.index(k) < least:   # the integer types alone
        raise ValueError(f"{name} needs an integer order k >= {least}, got {k!r}")
    return operator.index(k)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    if not isinstance(key, str):   # every dict the package writes has str keys
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def dumps_json(value, level: int = 0) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True, default=str)
    gives, for a value nested `level` containers deep whose dict keys are
    str: the same tests in the same order (str, None, bool, int, float,
    list or tuple, dict, else str(value)), the same escapes and number
    texts.  A key of any other kind raises TypeError.  Each container's
    text is built as one string from its items' texts, with no generator or
    chunk per value.  It does not detect a reference cycle."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pad = "\n" + "  " * (level + 1)
        items = [dumps_json(v, level + 1) for v in value]
        return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = "\n" + "  " * (level + 1)
        items = [_json_key(k) + ": " + dumps_json(v, level + 1) for k, v in sorted(value.items())]
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
    return dumps_json(str(value), level)
