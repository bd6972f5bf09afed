"""Broadcast codes and machine checks of zero-error decodability.

A code maps each n-bit message tuple to an L-bit codeword.  It is valid
for a side-information graph when every receiver can always recover its
wanted message from the codeword plus its own priors, i.e. no two tuples
that agree on receiver i's priors but differ in bit i share a codeword.

Only linear codes are decoded here, and code text is linear only: one row
mask string per output bit, written low index first, so char j of a row
is the coefficient of message j+1, and rows joined by ";".  Table codes
(GeneralCode, code_from_coloring) have no text form and no decode check;
only tests and perfbench/traced.py use them.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_
from typing import NamedTuple

from indexcoding.bounds import gf2_row_basis
from indexcoding.confusion import _confusable
from indexcoding.graph import Digraph


class CodeFormatError(ValueError):
    """Malformed code description text."""


def mask_from_bits(s: str) -> int:
    """Bit-string chars (low index first) to int mask."""
    bad = s.strip("01")
    if bad:
        raise CodeFormatError(f"invalid bit char {bad[0]!r}")
    return int(s[::-1] or "0", 2)


def bits_from_mask(mask: int, width: int) -> str:
    return "".join("1" if mask >> j & 1 else "0" for j in range(width))


class _LinearCodeFields(NamedTuple):
    n_messages: int
    rows: tuple[int, ...]


class LinearCode(_LinearCodeFields):
    """Each output bit is the XOR of the messages selected by one row mask.
    A named tuple, checked on construction (and by _replace)."""

    __slots__ = ()

    def __new__(cls, n_messages: int, rows: tuple[int, ...]) -> LinearCode:
        full = (1 << n_messages) - 1
        for row in rows:
            if row & ~full:
                raise ValueError("row mask references messages beyond n_messages")
        return tuple.__new__(cls, (n_messages, rows))

    @classmethod
    def _make(cls, fields) -> LinearCode:
        return cls(*fields)

    @property
    def length(self) -> int:
        return len(self.rows)


class _GeneralCodeFields(NamedTuple):
    n_messages: int
    length: int
    table: tuple[int, ...]


class GeneralCode(_GeneralCodeFields):
    """Arbitrary encoder given by its full table, indexed by message tuple.
    A named tuple, checked on construction (and by _replace)."""

    __slots__ = ()

    def __new__(cls, n_messages: int, length: int, table: tuple[int, ...]) -> GeneralCode:
        if len(table) != 1 << n_messages:
            raise ValueError("table must cover every message tuple")
        for cw in table:
            if cw >> length:
                raise ValueError("codeword wider than the declared length")
        return tuple.__new__(cls, (n_messages, length, table))

    @classmethod
    def _make(cls, fields) -> GeneralCode:
        return cls(*fields)


def linear_code_from_matrix(n: int, rows: tuple[int, ...] | list[int]) -> LinearCode:
    """Linear code spanned by a matrix: one output bit per row of a greedily
    chosen row basis, so the length equals the matrix rank."""
    return LinearCode(n, tuple(gf2_row_basis(rows)))


def code_from_coloring(n: int, colors: tuple[int, ...] | list[int]) -> GeneralCode:
    """Code whose codewords are color classes, relabeled in first-appearance
    order; length is the bit width of the color count."""
    if len(colors) != 1 << n:
        raise ValueError("coloring must cover every message tuple")
    relabel: dict[int, int] = {}
    table = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        table.append(relabel[c])
    length = (len(relabel) - 1).bit_length()
    return GeneralCode(n, length, tuple(table))


@lru_cache(maxsize=None)
def _even_parity(n: int) -> tuple[int, ...]:
    """_even_parity(n)[row] is the 2^n-bit set of tuples x whose parity
    under row is even, i.e. the x that output bit's row maps to 0."""
    size = 1 << n
    return tuple(sum(1 << x for x in range(size) if not (row & x).bit_count() & 1) for row in range(size))


def receiver_decodes(g: Digraph, code: LinearCode) -> list[bool]:
    """Per receiver i, whether it always recovers x_i: no collision of the
    code, x ^ y for distinct tuples x, y sharing a codeword, confounds i.
    The collisions of a linear code are its nonzero kernel, the x != 0
    whose codeword is 0: the AND of _even_parity over its rows, held as a
    2^n-bit set and met with confusion._confusable per receiver."""
    if code.n_messages != g.n:
        raise ValueError("code and graph disagree on the number of messages")
    kernel = reduce(and_, map(_even_parity(g.n).__getitem__, code.rows), (1 << (1 << g.n)) - 2)
    return [not kernel & per_prior[prior] for per_prior, prior in zip(_confusable(g.n), g.rows)]


@lru_cache(maxsize=None)
def _row_texts(n: int) -> tuple[str, ...]:
    """bits_from_mask(mask, n) for every n-bit mask, indexed by mask."""
    return tuple(bits_from_mask(mask, n) for mask in range(1 << n))


def serialize_code(n: int, rows: tuple[int, ...]) -> str:
    """The text of the linear code on n messages with these row masks: one
    row mask string per output bit, joined by ";"."""
    return ";".join(map(_row_texts(n).__getitem__, rows))


def parse_code(text: str) -> LinearCode:
    """Inverse of serialize_code.  The package never reads code text back:
    a record holds its code's row masks."""
    lines = [ln.strip() for ln in text.split(";")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CodeFormatError("empty code description")
    n = len(lines[0])
    rows = []
    for ln in lines:
        if len(ln) != n:
            raise CodeFormatError("inconsistent row widths in linear code")
        rows.append(mask_from_bits(ln))
    return LinearCode(n, tuple(rows))
