"""Side-information graphs: parsing, structure queries, canonical labeling, enumeration.

A side-information graph has one vertex per receiver; an arc i->j records
that receiver i already knows message j, and a mutual arc pair {i->j, j->i}
is drawn as an edge i-j.  Adjacency lives in per-vertex bitmasks so the
subset-heavy work (acyclicity sweeps, isomorphism orbits over all vertex
permutations) stays cheap at the supported sizes, n = 1..5, which the
certifier covers exhaustively.  An orbit table maps every labeled
adjacency code to its isomorphism class, so sweeps look up classes, and
the one-arc steps between them, instead of canonicalizing graph by graph.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from array import array
from enum import IntEnum
from functools import lru_cache
from operator import itemgetter, or_
from typing import Iterator, NamedTuple

MAX_ENUM_VERTICES = 5

_TOKEN_RE = re.compile(r"^(\d+)(->|-)(\d+)$", re.ASCII)
# a comment stops at a line end and at every other break str.splitlines reads
_COMMENT_RE = re.compile("#[^\r\n\v\f\x1c-\x1e\x85\u2028\u2029]*")
_WORD_RE = re.compile("[^ \t\r\n]+")
_CHUNK_MASK = 0x3FF  # the low chunk of an adjacency code (see _code_images)
_ARC_BITS = tuple(1 << b for b in range(MAX_ENUM_VERTICES * (MAX_ENUM_VERTICES - 1)))  # one-arc adjacency codes


class GraphFormatError(ValueError):
    """Malformed graph description text."""


class _DigraphFields(NamedTuple):
    n: int
    rows: tuple[int, ...]


class Digraph(_DigraphFields):
    """Digraph on vertices 0..n-1; bit j of rows[i] is set iff arc i->j exists.

    Row i doubles as the prior set of receiver i (the messages it already
    knows).  The diagonal is always clear: no self-loops.  A named tuple,
    checked on construction (and by _replace, which builds through _make).
    """

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]) -> Digraph:
        if not 1 <= n <= MAX_ENUM_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 1..{MAX_ENUM_VERTICES}")
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {i} references vertices outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        return tuple.__new__(cls, (n, rows))

    @classmethod
    def _make(cls, fields) -> Digraph:
        return cls(*fields)

    def _mutual_fields(self) -> int:
        """The rows and the columns, each packed as n-bit fields (field i at
        shift i*n), ANDed: field i holds the vertices joined to i by an edge."""
        to_columns = _column_fields(self.n)
        rows = columns = 0
        for i, row in enumerate(self.rows):
            rows |= row << i * self.n
            columns |= to_columns[i][row]
        return rows & columns

    def edge_rows(self) -> tuple[int, ...]:
        """Per vertex i, the bitmask of vertices joined to i by an edge (arcs both ways)."""
        mutual = self._mutual_fields()
        full = (1 << self.n) - 1
        return tuple(mutual >> i * self.n & full for i in range(self.n))

    def edge_count(self) -> int:
        """Pairs joined by an edge: half the mutual arcs."""
        return self._mutual_fields().bit_count() // 2


class CanonicalKey(NamedTuple):
    """Isomorphism-class label: minimal adjacency bit-string over all relabelings.

    Keys of graphs with equal n compare equal iff the graphs are isomorphic;
    the key doubles as the adjacency code of the class representative.
    """

    n: int
    key: int

    @property
    def hex(self) -> str:
        return f"0x{self.key:x}"


class Category(IntEnum):
    """Classification by the length of the shortest undirected cycle."""

    NO_UNDIRECTED_CYCLE = 1
    GIRTH_3 = 2
    GIRTH_4 = 3
    GIRTH_5 = 4


@lru_cache(maxsize=None)
def _token_arcs(n: int) -> dict[str, int]:
    """Adjacency bits of each canonical token "a->b" and "a-b", 1 <= a != b
    <= n: the rows packed as n-bit fields, arc i->j at bit i*n + j."""
    arcs = {}
    for a, b in itertools.permutations(range(n), 2):
        arcs[f"{a + 1}->{b + 1}"] = 1 << a * n + b
        arcs[f"{a + 1}-{b + 1}"] = 1 << a * n + b | 1 << b * n + a
    return arcs


def _number(digits: str) -> tuple[str, int]:
    """An ASCII digit run spelled without its leading zeros, and its value.
    A run still ten digits long or more is outside every vertex range and
    reads as -1, so int() never meets one past its 4300-digit limit; error
    messages quote the spelling, never str() of a value."""
    digits = digits.lstrip("0") or "0"
    return digits, int(digits) if len(digits) < 10 else -1


def parse_digraph(text: str) -> Digraph:
    r"""Parse "n <N> [;] tok..." where tok is "a->b" (arc) or "a-b" (edge), 1-based;
    N, a and b are written in ASCII decimal digits.

    Lines end only at \n, \r\n or \r, and tokens are separated only by ASCII
    spaces and tabs; every other character is token text, which the token
    checks reject.  '#' starts a comment running to end of line.  A comment
    also stops at each other break str.splitlines reads (\v, \f, \x1c-\x1e,
    \x85, \u2028, \u2029), so such a break starts a token and is rejected,
    never read as a line end.  Raises GraphFormatError with the offending
    token position on malformed input.  A token is one lookup in
    _token_arcs(n), the only map from tokens to arcs; _TOKEN_RE only spells
    other tokens canonically ("01->2" is "1->2") or rejects them.
    """
    tokens = _WORD_RE.findall(_COMMENT_RE.sub("", text))
    if not tokens:
        raise GraphFormatError("empty graph description")
    if tokens[0] != "n":
        raise GraphFormatError(f"token 1: expected 'n', got {tokens[0]!r}")
    if len(tokens) < 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
        got = tokens[1] if len(tokens) > 1 else "<end>"
        raise GraphFormatError(f"token 2: expected vertex count, got {got!r}")
    count, n = _number(tokens[1])
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise GraphFormatError(f"token 2: vertex count {count} outside supported range 1..{MAX_ENUM_VERTICES}")
    first_pos = 4 if tokens[2:3] == [";"] else 3
    arcs = _token_arcs(n)
    packed = 0
    for pos, tok in enumerate(tokens[first_pos - 1 :], first_pos):
        if tok not in arcs:
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise GraphFormatError(f"token {pos}: malformed arc/edge token {tok!r}")
            a, kind, b = m.groups()
            (a, a_value), (b, b_value) = _number(a), _number(b)
            for v, value in ((a, a_value), (b, b_value)):
                if not 1 <= value <= n:
                    raise GraphFormatError(f"token {pos}: vertex {v} outside 1..{n}")
            if a == b:
                raise GraphFormatError(f"token {pos}: self-loop {tok!r}")
            tok = f"{a}{kind}{b}"
        packed |= arcs[tok]
    full = (1 << n) - 1
    return Digraph(n, tuple(packed >> i * n & full for i in range(n)))


def serialize_digraph(g: Digraph) -> str:
    """Normalized text form; round-trips through parse_digraph."""
    tokens = []
    for i, edge_mask in enumerate(g.edge_rows()):
        r = g.rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            r &= r - 1
            if edge_mask >> j & 1:
                if i < j:
                    tokens.append(f"{i + 1}-{j + 1}")
            else:
                tokens.append(f"{i + 1}->{j + 1}")
    tokens.sort()
    if not tokens:
        return f"n {g.n}"
    return f"n {g.n} ; " + " ".join(tokens)


def subset_is_acyclic(g: Digraph, mask: int) -> bool:
    """True iff the subgraph induced by the bitmask has no directed cycle."""
    rows = g.rows
    alive = mask
    while alive:
        removed = False
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[v] & alive == 0:
                alive ^= 1 << v
                removed = True
        if not removed:
            return False
    return True


def undirected_girth(g: Digraph) -> int | None:
    """Length of the shortest cycle made of edges only, or None if the edge
    subgraph is a forest.  One-way arcs are ignored.

    On at most five vertices the girth is read off by counting.  An edge
    whose ends share a neighbour closes a triangle, and a pair with two
    common neighbours closes a 4-cycle.  With neither, the only cycle that
    fits is a 5-cycle, and there is one iff there are at least five edges,
    since a forest on five vertices has at most four.
    """
    und = g.edge_rows()
    pairs = [(und[i] >> j & 1, und[i] & und[j]) for i, j in itertools.combinations(range(g.n), 2)]
    if any(edge and common for edge, common in pairs):
        return 3
    if any(common.bit_count() >= 2 for _, common in pairs):
        return 4
    return 5 if g.edge_count() >= 5 else None


def categorize(g: Digraph) -> Category:
    """Category by undirected girth; on at most five vertices a cycle has
    3 to 5 edges, so every graph falls in one of the four (GIRTH_g is g - 1)."""
    girth = undirected_girth(g)
    return Category.NO_UNDIRECTED_CYCLE if girth is None else Category(girth - 1)


@lru_cache(maxsize=None)
def _column_fields(n: int) -> tuple[tuple[int, ...], ...]:
    """_column_fields(n)[i][r] moves each arc i->j of r, the row of vertex
    i, to bit i of the n-bit field j (bit j*n + i); ORed over the rows,
    field j holds column j."""
    return tuple(tuple(sum(1 << (j * n + i) for j in range(n) if r >> j & 1) for r in range(1 << n)) for i in range(n))


@lru_cache(maxsize=None)
def _row_fields(n: int) -> tuple[tuple[int, ...], ...]:
    """_row_fields(n)[i][f] is the row of vertex i held in the (n-1)-bit
    field f of an adjacency code; the field's top bit is the arc to the
    least other vertex."""
    return tuple(
        tuple(sum(1 << j for p, j in enumerate(js) if f >> p & 1) for f in range(1 << (n - 1)))
        for js in ([j for j in reversed(range(n)) if j != i] for i in range(n))
    )


@lru_cache(maxsize=None)
def _field_of_row(n: int) -> tuple[dict[int, int], ...]:
    """Inverse of _row_fields: _field_of_row(n)[i][_row_fields(n)[i][f]] == f."""
    return tuple({row: f for f, row in enumerate(fields)} for fields in _row_fields(n))


def adjacency_code(g: Digraph) -> int:
    """Row-major adjacency bit-string (diagonal skipped) packed so that
    integer order equals lexicographic order of the string: row i is the
    (n-1)-bit field at shift (n-1)(n-1-i)."""
    code = 0
    for fields, row in zip(_field_of_row(g.n), g.rows):
        code = code << (g.n - 1) | fields[row]
    return code


def digraph_from_code(n: int, code: int) -> Digraph:
    """Inverse of adjacency_code."""
    if code >> (n * (n - 1)):
        raise ValueError("adjacency code has more bits than n allows")
    mask = (1 << (n - 1)) - 1
    rows = (fields[code >> (n - 1) * (n - 1 - i) & mask] for i, fields in enumerate(_row_fields(n)))
    return Digraph(n, tuple(rows))


def digraph_from_key(key: CanonicalKey) -> Digraph:
    """Class representative encoded by a canonical key."""
    return digraph_from_code(key.n, key.key)


@lru_cache(maxsize=None)
def _bit_images(n: int) -> tuple[array, ...]:
    """_bit_images(n)[b] holds the one-bit code that adjacency-code bit b
    moves to under each permutation, in itertools.permutations order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    bit = {pair: len(pairs) - 1 - p for p, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    return tuple(array("I", [1 << bit[perm[i], perm[j]] for perm in perms]) for i, j in reversed(pairs))


@lru_cache(maxsize=None)
def _code_images(n: int, bits: int) -> array:
    """The images of the code bits `bits` under every permutation, in
    permutation order: those of bits without its lowest set bit ORed with
    that bit's _bit_images row, so a missing entry costs at most one array
    pass per set bit, fewer when the entries it rests on exist.  Callers
    pass one 10-bit chunk of a code at a time, code & 0x3ff and
    code & ~0x3ff, which bounds the cache at 2 * 2^10 entries per n; a
    single query builds about ten, orbit_table(5) 1069."""
    if not bits:
        return array("I", [0]) * math.factorial(n)
    low = bits & -bits
    return array("I", map(or_, _code_images(n, bits ^ low), _bit_images(n)[low.bit_length() - 1]))


def _relabelings(n: int, code: int) -> list[int]:
    """Adjacency codes of all n! relabelings of code, in permutation order.
    The two chunk rows are ORed lane by lane as one integer each: no lane
    carries into the next, so this is the per-permutation OR in C."""
    low, high = _code_images(n, code & _CHUNK_MASK), _code_images(n, code & ~_CHUNK_MASK)
    lanes = int.from_bytes(low, sys.byteorder) | int.from_bytes(high, sys.byteorder)
    return memoryview(lanes.to_bytes(low.itemsize * len(low), sys.byteorder)).cast(low.typecode).tolist()


@lru_cache(maxsize=None)
def _least_row_gathers(n: int) -> tuple[tuple[itemgetter | None, ...], ...]:
    """_least_row_gathers(n)[v][r] picks, from an array of _code_images, the
    permutations that put vertex v, with out-neighbour set r, at label 0
    and r on the top |r| labels.  Row 0 is the code's most significant
    field, and it reads 2^|r| - 1 exactly under those permutations, the
    least a vertex of out-degree |r| can give; so the least code over all
    relabelings is the least over those of the vertices of least
    out-degree.  Each gather repeats its first position, so even a lone
    one returns a tuple; a set r holding v itself has no gather."""
    picks: list[list[list[int]]] = [[[] for _ in range(1 << n)] for _ in range(n)]
    for p, perm in enumerate(itertools.permutations(range(n))):
        first = perm.index(0)
        for d in range(n):
            picks[first][sum(1 << v for v in range(n) if perm[v] >= n - d)].append(p)
    return tuple(tuple(itemgetter(*ps, ps[0]) if ps else None for ps in rows) for rows in picks)


def canonical_key(g: Digraph) -> CanonicalKey:
    """Minimal adjacency code over all n! relabelings; equal keys <=> isomorphic.

    Computed directly, never through the orbit table: a single query
    should not pay for the 2^(n(n-1))-entry sweep.  Only the relabelings
    that can give the minimum are read (see _least_row_gathers)."""
    code = adjacency_code(g)
    low_row, high_row = _code_images(g.n, code & _CHUNK_MASK), _code_images(g.n, code & ~_CHUNK_MASK)
    least = min(map(int.bit_count, g.rows))
    lows: list[int] = []
    highs: list[int] = []
    for gathers, row in zip(_least_row_gathers(g.n), g.rows):
        if row.bit_count() == least:
            lows += gathers[row](low_row)
            highs += gathers[row](high_row)
    return CanonicalKey(g.n, min(map(or_, lows, highs)))


class OrbitTable(NamedTuple):
    """Isomorphism classes of all labeled digraphs on n <= 5 vertices.

    classes[code] is the index of the class of the labeled graph with that
    adjacency code, through a read-only view of 16-bit entries; reps[index]
    is the class's canonical key, i.e. the least code in its orbit.
    Indices follow ascending canonical key.
    """

    classes: memoryview
    reps: array


@lru_cache(maxsize=None)
def orbit_table(n: int) -> OrbitTable:
    """One sweep over all 2^(n(n-1)) labeled codes.  Each code not yet
    assigned opens a new class (it is the least member of its orbit, since
    the sweep ascends), and every relabeling of it is stamped with that
    class's index.  The table is a byte buffer of 16-bit entries, all
    0xFFFF until stamped, so bytes.find reaches the next unassigned code
    in C.  A match at an odd offset straddles two entries (on a big-endian
    host, an index ending in 0xFF before an unassigned entry) and is
    stepped past.  At n = 5 the table is 2^20 entries (2 MiB) for 9608
    classes; it is cached, so the sweep's keys, the enumeration and the
    checks that look codes up share one build, and read-only, so none of
    them can change it."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"orbit table supports 1..{MAX_ENUM_VERTICES} vertices, got {n}")
    buf = bytearray(b"\xff") * (2 << (n * (n - 1)))
    classes = memoryview(buf).cast("H")
    reps = array("I")
    at = 0
    while True:
        at = buf.find(b"\xff\xff", at)
        if at < 0:  # every code is assigned
            return OrbitTable(classes.toreadonly(), reps)
        if at & 1:
            at += 1
            continue
        code, index = at >> 1, len(reps)
        reps.append(code)
        for image in _relabelings(n, code):
            classes[image] = index


def classes_above(n: int, c: int) -> list[int]:
    """Per arc absent from the representative of class c, the class of the
    representative with that arc added, repeats kept: 96,080 steps over
    the 9608 classes at n = 5.  A relabeling carries (g, i->j) to
    (rep, pi(i)->pi(j)), so these are the one-arc steps up from any member
    of c, and the classes reached upward from c are those holding c as an
    arc-deleted subgraph.  Read off orbit_table(n) on each call and never
    stored: a stored copy of every class's steps outweighs the table reads."""
    classes, reps = orbit_table(n)
    rep = reps[c]
    return [classes[rep | arc] for arc in _ARC_BITS[: n * (n - 1)] if not rep & arc]


def enumerate_nonisomorphic(n: int) -> Iterator[Digraph]:
    """One representative per isomorphism class, ascending canonical key;
    each representative's adjacency code is its class key."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices, got {n}")
    for code in orbit_table(n).reps:
        yield digraph_from_code(n, code)

