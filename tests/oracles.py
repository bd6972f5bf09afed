"""Independent reference implementations that pin expected test values.

Everything here recomputes quantities from first principles with plain
exhaustive algorithms and deliberately shares no logic with the package:
acyclicity via topological orders, mais via subset enumeration, minrank
via full fitting-matrix enumeration (and, as the reference for the minrank
search, a pivot-dict branch and bound), isomorphism via
permutation search, confusability straight from the decoding definition,
chromatic numbers via independent-set cover DP, alpha via naive
recursion, and girth via vertex sequences in every order.  Canonical keys,
code text and graph text are read by their definitions, without the
package's parsers.

Graphs are passed as (n, rows) with bit j of rows[i] meaning arc i->j.
"""

from itertools import combinations, permutations


def acyclic(n: int, rows: tuple[int, ...]) -> bool:
    """A digraph is acyclic iff some vertex order has all arcs pointing
    forward."""
    for order in permutations(range(n)):
        position = {v: p for p, v in enumerate(order)}
        ok = True
        for i in range(n):
            for j in range(n):
                if rows[i] >> j & 1 and position[i] >= position[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def induced(n: int, rows: tuple[int, ...], subset: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    sub_rows = []
    for v in subset:
        row = 0
        for k, w in enumerate(subset):
            if v != w and rows[v] >> w & 1:
                row |= 1 << k
        sub_rows.append(row)
    return len(subset), tuple(sub_rows)


def mais_order(n: int, rows: tuple[int, ...]) -> int:
    best = 0
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if acyclic(*induced(n, rows, subset)):
                best = size
                break
    return best


def rank_gf2(rows: list[int]) -> int:
    """Forward elimination, always pivoting on the lowest remaining bit."""
    work = [r for r in rows if r]
    rank = 0
    while work:
        pivot = min(work, key=lambda r: r & -r)
        bit = pivot & -pivot
        work = [r ^ pivot if r & bit else r for r in work]
        work = [r for r in work if r]
        rank += 1
    return rank


def fitting_matrices(n: int, rows: tuple[int, ...]):
    """Every matrix with unit diagonal and off-diagonal support inside the
    arc set, in no particular order."""

    def extend(i: int, chosen: list[int]):
        if i == n:
            yield tuple(chosen)
            return
        sub = rows[i]
        while True:
            yield from extend(i + 1, chosen + [sub | (1 << i)])
            if sub == 0:
                break
            sub = (sub - 1) & rows[i]

    yield from extend(0, [])


def string_key(matrix: tuple[int, ...], n: int) -> str:
    """Row strings concatenated, char j of a row = coefficient of x_{j+1}."""
    return "".join(
        "".join("1" if row >> j & 1 else "0" for j in range(n)) for row in matrix
    )


def fits(n: int, rows: tuple[int, ...], matrix: tuple[int, ...]) -> bool:
    """The matrix has n rows, ones on the diagonal, and an off-diagonal one
    at (i, j) only where i->j is an arc."""
    if len(matrix) != n or any(row >> n for row in matrix):
        return False
    for i in range(n):
        for j in range(n):
            entry = matrix[i] >> j & 1
            if i == j and not entry:
                return False
            if i != j and entry and not rows[i] >> j & 1:
                return False
    return True


def minrank_value(n: int, rows: tuple[int, ...]) -> int:
    return min(rank_gf2(list(m)) for m in fitting_matrices(n, rows))


def minrank_best(n: int, rows: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(minrank, witness), the witness being string-lex smallest among all
    fitting matrices of minimal rank."""
    best = None
    for m in fitting_matrices(n, rows):
        entry = (rank_gf2(list(m)), string_key(m, n), m)
        if best is None or entry[:2] < best[:2]:
            best = entry
    return best[0], best[2]


def minrank_witness_pivots(n: int, rows: tuple[int, ...], known_mais: int) -> tuple[int, tuple[int, ...]]:
    """The reference for bounds.minrank_witness, the same branch and bound
    with the span of the rows chosen so far kept as a dict of reduced
    vectors by leading bit, each candidate row reduced against it.  Per
    vertex the rows e_i plus any subset of its arcs are tried in row-string
    order, target ranks upward from known_mais."""
    order = [int(format(k, f"0{n}b")[::-1], 2) for k in range(1 << n)]
    candidates = [[m for m in order if m >> i & 1 and not m & ~(rows[i] | 1 << i)] for i in range(n)]
    pivots: dict[int, int] = {}

    def dfs(i: int, rank: int, target: int):
        if i == n:
            return []
        for cand in candidates[i]:
            vec = cand
            while vec:
                p = vec.bit_length() - 1
                b = pivots.get(p)
                if b is None:
                    break
                vec ^= b
            if vec == 0:
                tail = dfs(i + 1, rank, target)
                if tail is not None:
                    return [cand] + tail
            elif rank < target:
                p = vec.bit_length() - 1
                pivots[p] = vec
                tail = dfs(i + 1, rank + 1, target)
                del pivots[p]
                if tail is not None:
                    return [cand] + tail
        return None

    for target in range(known_mais, n + 1):
        found = dfs(0, 0, target)
        if found is not None:
            return target, tuple(found)
    raise AssertionError("identity matrix always fits, rank n is reachable")


def relabel(n: int, rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Image under the vertex relabeling v -> perm[v]: arc i->j becomes
    arc perm[i]->perm[j]."""
    image = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                image[perm[i]] |= 1 << perm[j]
    return tuple(image)


def isomorphic(n: int, rows_a: tuple[int, ...], rows_b: tuple[int, ...]) -> bool:
    return any(relabel(n, rows_a, perm) == rows_b for perm in permutations(range(n)))


def embeds(n: int, rows_a: tuple[int, ...], rows_b: tuple[int, ...]) -> bool:
    """Some relabeling of a has its arcs inside b's."""
    return any(
        all(row & ~rows_b[i] == 0 for i, row in enumerate(relabel(n, rows_a, perm)))
        for perm in permutations(range(n))
    )


def iso_classes(n: int) -> list[list[tuple[int, ...]]]:
    """Partition of all labeled digraphs on n vertices into isomorphism
    classes by pairwise comparison, with a cheap invariant prefilter."""

    def graph_from_code(code: int) -> tuple[int, ...]:
        rows = [0] * n
        p = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if code >> p & 1:
                    rows[i] |= 1 << j
                p += 1
        return tuple(rows)

    def invariant(rows: tuple[int, ...]):
        out_deg = sorted(r.bit_count() for r in rows)
        in_deg = sorted(
            sum(rows[i] >> j & 1 for i in range(n)) for j in range(n)
        )
        edges = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if rows[i] >> j & 1 and rows[j] >> i & 1
        )
        return tuple(out_deg), tuple(in_deg), edges

    buckets: dict[object, list[list[tuple[int, ...]]]] = {}
    for code in range(1 << (n * (n - 1))):
        rows = graph_from_code(code)
        bucket = buckets.setdefault(invariant(rows), [])
        for cls in bucket:
            if isomorphic(n, cls[0], rows):
                cls.append(rows)
                break
        else:
            bucket.append([rows])
    return [cls for bucket in buckets.values() for cls in bucket]


def confusable(n: int, rows: tuple[int, ...], u: int, v: int) -> bool:
    """Straight from the decoding requirement: some receiver wants a bit
    where u, v differ while both look identical on its priors."""
    if u == v:
        return False
    for i in range(n):
        if (u ^ v) >> i & 1 and (u & rows[i]) == (v & rows[i]):
            return True
    return False


def confusion_adjacency(n: int, rows: tuple[int, ...]) -> list[int]:
    size = 1 << n
    return [
        sum(1 << v for v in range(size) if confusable(n, rows, u, v))
        for u in range(size)
    ]


def undirected_girth(n: int, rows: tuple[int, ...]) -> int | None:
    """The fewest vertices of a sequence, tried in every order, whose
    consecutive pairs, last to first included, are all edges (arcs both
    ways); None if no sequence of three or more closes such a cycle."""
    def edge(i, j):
        return rows[i] >> j & 1 and rows[j] >> i & 1

    for length in range(3, n + 1):
        for cycle in permutations(range(n), length):
            if all(edge(cycle[p], cycle[p - 1]) for p in range(length)):
                return length
    return None


def rows_from_key(n: int, code: int) -> tuple[int, ...]:
    """The graph a canonical key names: the key is the row-major adjacency
    bit string, diagonal skipped, read as a binary number whose first char
    is the most significant bit."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = [0] * n
    for (i, j), bit in zip(pairs, format(code, f"0{len(pairs)}b")):
        if bit == "1":
            rows[i] |= 1 << j
    return tuple(rows)


TOKEN_GAPS = " \t\r\n"
# every break str.splitlines reads: each ends a comment, and those outside
# TOKEN_GAPS are then token text
COMMENT_ENDS = "\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def graph_text_tokens(text: str) -> list[str]:
    """The tokens of graph text, read one character at a time: runs of
    characters between ASCII spaces, tabs, CRs and LFs, with each comment,
    from '#' up to the next break in COMMENT_ENDS, left out and joining
    nothing apart."""
    tokens, word, in_comment = [], "", False
    for ch in text:
        if in_comment:
            if ch not in COMMENT_ENDS:
                continue
            in_comment = False
        if ch == "#":
            in_comment = True
        elif ch in TOKEN_GAPS:
            if word:
                tokens.append(word)
            word = ""
        else:
            word += ch
    if word:
        tokens.append(word)
    return tokens


def decimal(text: str) -> int | None:
    """The value of a nonempty run of ASCII digits, or None."""
    if not text:
        return None
    value = 0
    for ch in text:
        if ch not in "0123456789":
            return None
        value = value * 10 + "0123456789".index(ch)
    return value


def parse_graph_text(text: str) -> tuple[int, ...] | int:
    """Graph text "n N [;] a->b a-b ..." read by its grammar: the rows, with
    bit b-1 of rows[a-1] for an arc a->b and both directions for a-b, or the
    1-based position of the first bad token (0 for text with no token).
    Token 1 is "n", token 2 is N in 1..5, token 3 may be ";", and every
    later token is two decimals in 1..N, unequal, joined by "->" or "-"."""
    tokens = graph_text_tokens(text)
    if not tokens:
        return 0
    if tokens[0] != "n":
        return 1
    n = decimal(tokens[1]) if len(tokens) > 1 else None
    if n is None or not 1 <= n <= 5:
        return 2
    rows = [0] * n
    first = 3 if tokens[2:3] == [";"] else 2
    for index in range(first, len(tokens)):
        token = tokens[index]
        cut = token.find("-")
        one_way = token[cut + 1 : cut + 2] == ">"
        a = decimal(token[:cut]) if cut > 0 else None
        b = decimal(token[cut + 2 if one_way else cut + 1 :])
        if a is None or b is None or not (1 <= a <= n and 1 <= b <= n) or a == b:
            return index + 1
        rows[a - 1] |= 1 << (b - 1)
        if not one_way:
            rows[b - 1] |= 1 << (a - 1)
    return tuple(rows)


def parse_linear(text: str) -> tuple[int, tuple[int, ...]]:
    """A linear code's text read by its definition: one row per output bit,
    rows joined by ";", char j of a row the coefficient of message j+1.
    Returns the message count and the row masks."""
    texts = text.split(";")
    n = len(texts[0])
    if any(len(t) != n or set(t) - {"0", "1"} for t in texts):
        raise ValueError(f"not a linear code: {text!r}")
    return n, tuple(sum(1 << j for j, ch in enumerate(t) if ch == "1") for t in texts)


def linear_encoder(rows: tuple[int, ...]):
    """Output bit r is the parity of the messages row r selects."""
    return lambda x: tuple([(row & x).bit_count() % 2 for row in rows])


def decodes(n: int, rows: tuple[int, ...], encode) -> bool:
    """Zero-error decodability of an arbitrary encoder callable."""
    for i in range(n):
        table: dict[tuple[int, int], int] = {}
        for x in range(1 << n):
            key = (encode(x), x & rows[i])
            bit = x >> i & 1
            if table.setdefault(key, bit) != bit:
                return False
    return True


def proper_coloring(adj_masks: list[int], colors) -> bool:
    return all(
        colors[u] != colors[v]
        for u in range(len(adj_masks))
        for v in range(u + 1, len(adj_masks))
        if adj_masks[u] >> v & 1
    )


def chromatic_dp(adj_masks: list[int]) -> int:
    """Exact chromatic number by covering with independent sets, smallest
    set-bit first; fine up to a dozen vertices."""
    nv = len(adj_masks)
    full = (1 << nv) - 1

    def independent(mask: int) -> bool:
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj_masks[v] & mask:
                return False
        return True

    infinity = nv + 1
    chi = [0] * (full + 1)
    for s in range(1, full + 1):
        v = (s & -s).bit_length() - 1
        rest = s ^ (1 << v)
        best = infinity
        t = rest
        while True:
            part = t | (1 << v)
            if independent(part):
                best = min(best, chi[s ^ part] + 1)
            if t == 0:
                break
            t = (t - 1) & rest
        chi[s] = best
    return chi[full]


def chromatic_backtrack(adj_masks: list[int]) -> int:
    """Exact chromatic number by plain backtracking in vertex order, k = 1
    upward; a vertex may open at most one new color.  Fine up to 16 vertices."""
    nv = len(adj_masks)
    colors = [0] * nv

    def place(v: int, used: int, k: int) -> bool:
        if v == nv:
            return True
        for c in range(min(k, used + 1)):
            if all(colors[w] != c for w in range(v) if adj_masks[v] >> w & 1):
                colors[v] = c
                if place(v + 1, max(used, c + 1), k):
                    return True
        return False

    k = 1
    while not place(0, 0, k):
        k += 1
    return k


def independence_number(adj_masks: list[int]) -> int:
    """Naive branch on the lowest remaining vertex: take it or not."""
    nv = len(adj_masks)

    def grow(cands: int) -> int:
        if cands == 0:
            return 0
        v = (cands & -cands).bit_length() - 1
        with_v = 1 + grow(cands & ~(adj_masks[v] | (1 << v)))
        without_v = grow(cands ^ (1 << v))
        return max(with_v, without_v)

    return grow((1 << nv) - 1)
