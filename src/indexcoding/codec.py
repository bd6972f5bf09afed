"""Broadcast codes and machine checks of zero-error decodability.

A code maps each n-bit message tuple to an L-bit codeword.  It is valid
for a side-information graph when every receiver can always recover its
wanted message from the codeword plus its own priors, i.e. no two tuples
that agree on receiver i's priors but differ in bit i share a codeword.

Bit strings are written low index first: char j of a mask string is the
coefficient of message j+1, char r of a codeword string is output bit r.
"""

from __future__ import annotations

from dataclasses import dataclass

from indexcoding.bounds import gf2_row_basis
from indexcoding.graph import Digraph


class CodeFormatError(ValueError):
    """Malformed code description text."""


def mask_from_bits(s: str) -> int:
    """Bit-string chars (low index first) to int mask."""
    mask = 0
    for j, ch in enumerate(s):
        if ch == "1":
            mask |= 1 << j
        elif ch != "0":
            raise CodeFormatError(f"invalid bit char {ch!r}")
    return mask


def bits_from_mask(mask: int, width: int) -> str:
    return "".join("1" if mask >> j & 1 else "0" for j in range(width))


@dataclass(frozen=True)
class LinearCode:
    """Each output bit is the XOR of the messages selected by one row mask."""

    n_messages: int
    rows: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.n_messages) - 1
        for row in self.rows:
            if row & ~full:
                raise ValueError("row mask references messages beyond n_messages")

    @property
    def length(self) -> int:
        return len(self.rows)

    def encode(self, x: int) -> int:
        cw = 0
        for r, row in enumerate(self.rows):
            cw |= ((row & x).bit_count() & 1) << r
        return cw


@dataclass(frozen=True)
class GeneralCode:
    """Arbitrary encoder given by its full table, indexed by message tuple."""

    n_messages: int
    length: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.n_messages:
            raise ValueError("table must cover every message tuple")
        for cw in self.table:
            if cw >> self.length:
                raise ValueError("codeword wider than the declared length")

    def encode(self, x: int) -> int:
        return self.table[x]


Code = LinearCode | GeneralCode


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


def coloring_from_code(code: Code) -> tuple[int, ...]:
    """Color per message tuple: the codeword itself.  A linear code's table
    is built by doubling: the tuples with message j set are the tuples
    below 2^j, each codeword XORed with column j of the code."""
    if isinstance(code, GeneralCode):
        return code.table
    cols = [0] * code.n_messages
    for r, row in enumerate(code.rows):
        for j in range(code.n_messages):
            cols[j] |= (row >> j & 1) << r
    table = [0]
    for col in cols:
        table += [cw ^ col for cw in table]
    return tuple(table)


def decoder_tables(g: Digraph, code: Code) -> list[dict[int, int] | None]:
    """Per receiver i, the lookup codeword << n | (x & priors_i) -> x_i, or
    None where two message tuples x collide for that receiver."""
    if code.n_messages != g.n:
        raise ValueError("code and graph disagree on the number of messages")
    n = g.n
    keys = [cw << n | x for x, cw in enumerate(coloring_from_code(code))]
    tables: list[dict[int, int] | None] = []
    for i, priors in enumerate(g.rows):
        visible = ~((1 << n) - 1) | priors
        table: dict[int, int] | None = {}
        for x, key in enumerate(keys):
            bit = x >> i & 1
            if table.setdefault(key & visible, bit) != bit:
                table = None
                break
        tables.append(table)
    return tables


def is_valid_code(g: Digraph, code: Code) -> bool:
    return all(table is not None for table in decoder_tables(g, code))


def serialize_code(code: Code, sep: str = "\n") -> str:
    """Linear: one row mask string per line.  General: one "tuple codeword"
    pair per line, covering tuples in ascending order."""
    if isinstance(code, LinearCode):
        return sep.join(bits_from_mask(row, code.n_messages) for row in code.rows)
    lines = []
    for x in range(1 << code.n_messages):
        lines.append(f"{bits_from_mask(x, code.n_messages)} {bits_from_mask(code.table[x], code.length)}")
    return sep.join(lines)


def parse_code(text: str, sep: str = "\n") -> Code:
    """Inverse of serialize_code; the two forms are told apart by whether
    lines carry one field or two."""
    lines = [ln.strip() for ln in text.split(sep)]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CodeFormatError("empty code description")
    if " " in lines[0]:
        pairs = []
        for ln in lines:
            fields = ln.split()
            if len(fields) != 2:
                raise CodeFormatError(f"expected 'tuple codeword', got {ln!r}")
            pairs.append(fields)
        n = len(pairs[0][0])
        length = len(pairs[0][1])
        if len(pairs) != 1 << n:
            raise CodeFormatError(f"expected {1 << n} table lines, got {len(pairs)}")
        table = [-1] * (1 << n)
        for tup, cw in pairs:
            if len(tup) != n or len(cw) != length:
                raise CodeFormatError("inconsistent field widths in code table")
            x = mask_from_bits(tup)
            if table[x] >= 0:
                raise CodeFormatError(f"duplicate table entry for tuple {tup}")
            table[x] = mask_from_bits(cw)
        return GeneralCode(n, length, tuple(table))
    n = len(lines[0])
    rows = []
    for ln in lines:
        if len(ln) != n:
            raise CodeFormatError("inconsistent row widths in linear code")
        rows.append(mask_from_bits(ln))
    return LinearCode(n, tuple(rows))
