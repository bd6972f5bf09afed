"""Side-information graphs: parsing, structure queries, canonical labeling, enumeration.

A side-information graph has one vertex per receiver; an arc i->j records
that receiver i already knows message j, and a mutual arc pair {i->j, j->i}
is drawn as an edge i-j.  Adjacency lives in per-vertex bitmasks so the
subset-heavy work (acyclicity sweeps, isomorphism orbits over all vertex
permutations) stays cheap at the supported sizes: n <= 8 for single-graph
queries, exhaustive enumeration up to n = 5.  Up to n = 5 an orbit table
maps every labeled adjacency code to its isomorphism class, so sweeps can
look classes up instead of canonicalizing graph by graph.
"""

from __future__ import annotations

import itertools
import re
from array import array
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from operator import or_
from typing import Iterator, NamedTuple

MAX_VERTICES = 8
MAX_ENUM_VERTICES = 5

_TOKEN_RE = re.compile(r"^(\d+)(->|-)(\d+)$", re.ASCII)
_CHUNK_BITS = 10
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


class GraphFormatError(ValueError):
    """Malformed graph description text."""


@dataclass(frozen=True)
class Digraph:
    """Digraph on vertices 0..n-1; bit j of rows[i] is set iff arc i->j exists.

    Row i doubles as the prior set of receiver i (the messages it already
    knows).  The diagonal is always clear: no self-loops.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside supported range 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} references vertices outside 0..{self.n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def edge_row(self, i: int) -> int:
        """Bitmask of vertices j joined to i by an edge (arcs both ways)."""
        mask = 0
        r = self.rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            r &= r - 1
            if self.rows[j] >> i & 1:
                mask |= 1 << j
        return mask

    def edge_count(self) -> int:
        return sum(self.edge_row(i).bit_count() for i in range(self.n)) // 2


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


def parse_digraph(text: str) -> Digraph:
    """Parse "n <N> [;] tok..." where tok is "a->b" (arc) or "a-b" (edge), 1-based;
    N, a and b are written in ASCII decimal digits.

    '#' starts a comment running to end of line.  Raises GraphFormatError
    with the offending token position on malformed input.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens:
        raise GraphFormatError("empty graph description")
    if tokens[0] != "n":
        raise GraphFormatError(f"token 1: expected 'n', got {tokens[0]!r}")
    if len(tokens) < 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
        got = tokens[1] if len(tokens) > 1 else "<end>"
        raise GraphFormatError(f"token 2: expected vertex count, got {got!r}")
    n = int(tokens[1])
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"token 2: vertex count {n} outside supported range 1..{MAX_VERTICES}")
    rest = tokens[2:]
    first_pos = 3
    if rest and rest[0] == ";":
        rest = rest[1:]
        first_pos = 4
    rows = [0] * n
    for off, tok in enumerate(rest):
        pos = first_pos + off
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise GraphFormatError(f"token {pos}: malformed arc/edge token {tok!r}")
        a, kind, b = int(m.group(1)), m.group(2), int(m.group(3))
        for v in (a, b):
            if not 1 <= v <= n:
                raise GraphFormatError(f"token {pos}: vertex {v} outside 1..{n}")
        if a == b:
            raise GraphFormatError(f"token {pos}: self-loop {tok!r}")
        rows[a - 1] |= 1 << (b - 1)
        if kind == "-":
            rows[b - 1] |= 1 << (a - 1)
    return Digraph(n, tuple(rows))


def serialize_digraph(g: Digraph) -> str:
    """Normalized text form; round-trips through parse_digraph."""
    tokens = []
    for i in range(g.n):
        edge_mask = g.edge_row(i)
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
    subgraph is a forest.  One-way arcs are ignored."""
    n = g.n
    und = [g.edge_row(i) for i in range(n)]
    best: int | None = None
    for src in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[src] = 0
        queue = [src]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            m = und[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    cycle = dist[v] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def categorize(g: Digraph) -> Category:
    girth = undirected_girth(g)
    if girth is None:
        return Category.NO_UNDIRECTED_CYCLE
    if girth == 3:
        return Category.GIRTH_3
    if girth == 4:
        return Category.GIRTH_4
    if girth == 5:
        return Category.GIRTH_5
    raise ValueError(f"undirected girth {girth} outside the supported classification")


def adjacency_code(g: Digraph) -> int:
    """Row-major adjacency bit-string (diagonal skipped) packed so that
    integer order equals lexicographic order of the string."""
    top = g.n * (g.n - 1) - 1
    code = 0
    p = 0
    for i in range(g.n):
        for j in range(g.n):
            if i == j:
                continue
            if g.rows[i] >> j & 1:
                code |= 1 << (top - p)
            p += 1
    return code


def digraph_from_code(n: int, code: int) -> Digraph:
    """Inverse of adjacency_code."""
    top = n * (n - 1) - 1
    if code >> (top + 1):
        raise ValueError("adjacency code has more bits than n allows")
    rows = [0] * n
    p = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if code >> (top - p) & 1:
                rows[i] |= 1 << j
            p += 1
    return Digraph(n, tuple(rows))


def digraph_from_key(key: CanonicalKey) -> Digraph:
    """Class representative encoded by a canonical key."""
    return digraph_from_code(key.n, key.key)


@lru_cache(maxsize=None)
def _perm_bit_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """Per permutation: where each adjacency-code bit index lands after relabeling."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pos = {pq: p for p, pq in enumerate(pairs)}
    top = len(pairs) - 1
    maps = []
    for perm in itertools.permutations(range(n)):
        m = [0] * len(pairs)
        for p, (i, j) in enumerate(pairs):
            q = pos[(perm[i], perm[j])]
            m[top - p] = top - q
        maps.append(tuple(m))
    return tuple(maps)


@lru_cache(maxsize=None)
def _perm_chunk_rows(n: int) -> tuple[tuple[array, ...], tuple[array, ...]]:
    """Relabeling rows indexed by chunk value, so the images of an adjacency
    code under all n! permutations are one C-level pass over two rows.

    low[v][p] is the image of the low 10-bit chunk v under permutation p of
    _perm_bit_maps(n), high[v][p] that of the high chunk v; the image of a
    code is low[code & 0x3ff][p] | high[code >> 10][p].  n <= 5 means at
    most 20 code bits, so two chunks always cover the code (high is the
    single all-zero row when the code has 10 bits or fewer).  Each row is
    built by doubling: the row of v is the row of v without its lowest bit
    ORed with that bit's row."""
    if n > MAX_ENUM_VERTICES:
        raise ValueError("relabeling rows are built only for enumerable sizes")
    nbits = n * (n - 1)
    maps = _perm_bit_maps(n)
    bit_rows = [array("I", [1 << m[bit] for m in maps]) for bit in range(nbits)]
    halves = []
    for base in (0, _CHUNK_BITS):
        width = max(0, min(_CHUNK_BITS, nbits - base))
        rows = [array("I", [0]) * len(maps)]
        for value in range(1, 1 << width):
            low = value & -value
            rows.append(array("I", map(or_, rows[value ^ low], bit_rows[base + low.bit_length() - 1])))
        halves.append(tuple(rows))
    return halves[0], halves[1]


def _relabelings(n: int, code: int) -> Iterator[int]:
    """Adjacency codes of all n! relabelings of code, in permutation order."""
    low, high = _perm_chunk_rows(n)
    return map(or_, low[code & _CHUNK_MASK], high[code >> _CHUNK_BITS])


def _apply_bit_map(code: int, bit_map: tuple[int, ...]) -> int:
    out = 0
    while code:
        b = (code & -code).bit_length() - 1
        out |= 1 << bit_map[b]
        code &= code - 1
    return out


def canonical_key(g: Digraph) -> CanonicalKey:
    """Minimal adjacency code over all n! relabelings; equal keys <=> isomorphic.

    Computed directly, never through the orbit table: a single query
    should not pay for the 2^(n(n-1))-entry sweep."""
    code = adjacency_code(g)
    if g.n <= MAX_ENUM_VERTICES:
        best = min(_relabelings(g.n, code))
    else:
        best = min(_apply_bit_map(code, bit_map) for bit_map in _perm_bit_maps(g.n))
    return CanonicalKey(g.n, best)


class OrbitTable(NamedTuple):
    """Isomorphism classes of all labeled digraphs on n <= 5 vertices.

    classes[code] is the index of the class of the labeled graph with that
    adjacency code; reps[index] is the class's canonical key, i.e. the least
    code in its orbit.  Indices follow ascending canonical key.
    """

    classes: array
    reps: array


_UNSEEN = 0xFFFF


@lru_cache(maxsize=None)
def orbit_table(n: int) -> OrbitTable:
    """One sweep over all 2^(n(n-1)) labeled codes.  Each code not yet
    assigned opens a new class (it is the least member of its orbit, since
    the sweep ascends), and every relabeling of it is stamped with that
    class's index; classes.index finds the next unassigned code, so the
    assigned ones are skipped in C.  At n = 5 the table is 2^20 16-bit
    entries (2 MiB) for 9608 classes; it is cached, so the sweep's keys,
    the enumeration and the checks that look codes up share one build."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"orbit table supports 1..{MAX_ENUM_VERTICES} vertices, got {n}")
    classes = array("H", [_UNSEEN]) * (1 << (n * (n - 1)))
    reps = array("I")
    code = 0
    while True:
        try:
            code = classes.index(_UNSEEN, code)
        except ValueError:  # every code is assigned
            return OrbitTable(classes, reps)
        index = len(reps)
        reps.append(code)
        for image in _relabelings(n, code):
            classes[image] = index


def enumerate_nonisomorphic(n: int) -> Iterator[Digraph]:
    """One representative per isomorphism class, ascending canonical key;
    each representative's adjacency code is its class key."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices, got {n}")
    for code in orbit_table(n).reps:
        yield digraph_from_code(n, code)


def embeds_arc_deleted(a: Digraph, b: Digraph) -> bool:
    """True iff some relabeling of a has its arc set contained in b's.

    That makes a (a relabeling of) an arc-deleted subgraph of b: same
    vertices, a subset of the arcs.  Orders above five raise ValueError.
    """
    if a.n != b.n:
        return False
    outside_b = ~adjacency_code(b)
    return any(not image & outside_b for image in _relabelings(a.n, adjacency_code(a)))
