"""Graph parsing, structure queries, canonical labeling, enumeration."""

import random
from collections import Counter
from functools import reduce
from itertools import permutations, product
from math import factorial
from operator import or_

import pytest

import oracles
from indexcoding import cli, graph
from indexcoding.graph import (
    CanonicalKey,
    Category,
    Digraph,
    GraphFormatError,
    adjacency_code,
    canonical_key,
    categorize,
    classes_above,
    digraph_from_code,
    digraph_from_key,
    enumerate_nonisomorphic,
    orbit_table,
    parse_digraph,
    serialize_digraph,
    subset_is_acyclic,
    undirected_girth,
)

FIG_TEXT = "n 4 ; 1-2 1-3 2-3 2->4 4->1"
PENTAGON_TEXT = "n 5 ; 1-3 3-5 5-2 2-4 4-1"


def random_digraph(rng, n):
    return digraph_from_code(n, rng.getrandbits(n * (n - 1)))


def relabel(g, perm):
    return Digraph(g.n, oracles.relabel(g.n, g.rows, perm))


def test_parse_fig_graph_rows():
    g = parse_digraph(FIG_TEXT)
    assert g.n == 4
    # receiver 1 knows x2,x3; 2 knows x1,x3,x4; 3 knows x1,x2; 4 knows x1
    assert g.rows == (0b0110, 0b1101, 0b0011, 0b0001)


def test_parse_accepts_comments_newlines_and_no_separator():
    text = "# side info\nn 4\n1-2 1-3  # edges\n2-3\n2->4 4->1\n"
    assert parse_digraph(text) == parse_digraph(FIG_TEXT)


def test_parse_duplicate_tokens_are_idempotent():
    assert parse_digraph("n 3 ; 1->2 1->2 2->1") == parse_digraph("n 3 ; 1-2")


def test_every_canonical_token_parses_to_the_arcs_it_names():
    for n in range(1, 6):
        named = set()
        for a, b in permutations(range(1, n + 1), 2):
            arc = [0] * n
            arc[a - 1] = 1 << (b - 1)
            edge = list(arc)
            edge[b - 1] = 1 << (a - 1)
            assert parse_digraph(f"n {n} ; {a}->{b}").rows == tuple(arc)
            assert parse_digraph(f"n {n} ; {a}-{b}").rows == tuple(edge)
            named |= {f"{a}->{b}", f"{a}-{b}"}
        # the token table holds exactly the canonical spellings
        assert set(graph._token_arcs(n)) == named


def test_parse_reads_leading_zero_spellings_as_the_canonical_tokens():
    assert parse_digraph("n 3 ; 01->2 2-03") == parse_digraph("n 3 ; 1->2 2-3")
    assert parse_digraph("n 5 ; 005->0001 04-2") == parse_digraph("n 5 ; 5->1 4-2")


def test_parse_arcless():
    g = parse_digraph("n 3")
    assert g.rows == (0, 0, 0)
    assert serialize_digraph(g) == "n 3"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("   # just a comment", "empty"),
        ("m 3", "token 1"),
        ("n", "token 2"),
        ("n x", "token 2"),
        ("n 0", "token 2"),
        ("n 9", "token 2"),
        ("n 3 ; 1->1", "token 4"),
        ("n 3 ; 1-2 2->4", "token 5"),
        ("n 3 ; 1--2", "token 4"),
        ("n 3 ; 1>2", "token 4"),
        ("n 3 1-2 0-1", "token 4"),
        # a leading-zero spelling is checked as the number it spells
        ("n 3 ; 00->1", "token 4: vertex 0 outside 1..3"),
        ("n 3 ; 1-2 02-2", "token 5: self-loop '02-2'"),
        # only ASCII decimal digits are numbers
        ("n \u00b2", "token 2"),
        ("n \uff15 ; 1->2", "token 2"),
        ("n 2 ; 1->\u0662", "token 4"),
    ],
)
def test_parse_errors_carry_token_position(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_digraph(text)
    assert fragment in str(err.value)


# what a mutation inserts: token text, ASCII gaps and line ends, comment
# starts, the other breaks a comment stops at, non-ASCII digits and
# spaces, and a BOM
MUTATION_PIECES = (
    *"0123456789", "-", ">", "->", ";", "#", "# c", "n", " ", "\t", "\n", "\r", "\r\n",
    "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\u0662", "\uff15", "\u00b2", "\xa0", "\u3000", "\ufeff",
)


def mutated_graph_text(rng):
    """A text of a random graph, spelled with random gaps, and then, in
    most draws, with one to three pieces inserted, characters deleted or
    characters replaced."""
    n = rng.randint(1, 5)
    tokens = [f"{a}{rng.choice(('->', '-'))}{b}" for a, b in permutations(range(1, n + 1), 2) if rng.random() < 0.3]
    head = ["n", str(n)] + ([";"] if rng.random() < 0.7 else [])
    text = "".join(token + rng.choice((" ", "  ", "\t", "\n", " # note\n")) for token in head + tokens)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:at] + rng.choice(MUTATION_PIECES) + text[at:]
        else:
            text = text[:at] + (rng.choice(MUTATION_PIECES) if kind == 1 else "") + text[at + 1 :]
    return text


def test_parse_agrees_with_the_grammar_oracle_on_mutated_texts():
    rng = random.Random(2028)
    outcomes = Counter()
    for _ in range(3000):
        text = mutated_graph_text(rng)
        expected = oracles.parse_graph_text(text)
        if isinstance(expected, tuple):
            assert parse_digraph(text).rows == expected, repr(text)
            outcomes["parsed"] += 1
            continue
        with pytest.raises(GraphFormatError) as err:
            parse_digraph(text)
        where = f"token {expected}:" if expected else "empty graph description"
        assert str(err.value).startswith(where), (repr(text), str(err.value))
        outcomes[expected] += 1
    # both outcomes, and errors at the count, the separator and the arcs
    assert outcomes["parsed"] > 1000 and outcomes[1] and outcomes[2] and outcomes[3] and outcomes[4]


def test_cli_exits_by_the_grammar_oracle_on_a_sample(capsys):
    rng = random.Random(2029)
    for _ in range(200):
        text = mutated_graph_text(rng)
        assert cli.main(["classify", f"--graph={text}"]) == (0 if isinstance(oracles.parse_graph_text(text), tuple) else 2)
    capsys.readouterr()


def test_serialize_normal_form_and_roundtrip():
    g = parse_digraph(FIG_TEXT)
    assert serialize_digraph(g) == FIG_TEXT
    rng = random.Random(7)
    for _ in range(50):
        h = random_digraph(rng, rng.randint(1, 5))
        assert parse_digraph(serialize_digraph(h)) == h


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(0, ())
    with pytest.raises(ValueError):
        Digraph(6, (0,) * 6)
    with pytest.raises(ValueError):
        Digraph(9, (0,) * 9)
    with pytest.raises(ValueError):
        Digraph(2, (0,))
    with pytest.raises(ValueError):
        Digraph(2, (0b100, 0))
    with pytest.raises(ValueError):
        Digraph(2, (0b01, 0))


def test_basic_accessors():
    g = parse_digraph(FIG_TEXT)
    assert sum(row.bit_count() for row in g.rows) == 8
    assert g.edge_count() == 3
    assert g.rows[1] >> 3 & 1 and not g.rows[3] >> 1 & 1
    assert g.edge_rows() == (0b0110, 0b0101, 0b0011, 0)


def test_edge_count_counts_mutual_pairs():
    # every labeled graph up to four vertices, then every class
    # representative up to five, the largest supported order: an edge i-j
    # is an arc each way, and edge_count counts the pairs
    graphs = [digraph_from_code(n, code) for n in (1, 2, 3, 4) for code in range(1 << (n * (n - 1)))]
    graphs += [digraph_from_code(n, code) for n in range(1, 6) for code in orbit_table(n).reps]
    assert len(graphs) == 4165 + 9846
    for g in graphs:
        edges = g.edge_rows()
        assert len(edges) == g.n
        for i, j in product(range(g.n), repeat=2):
            assert edges[i] >> j & 1 == (g.rows[i] >> j & 1 and g.rows[j] >> i & 1)
        pairs = sum(1 for i in range(g.n) for j in range(i) if g.rows[i] >> j & 1 and g.rows[j] >> i & 1)
        assert g.edge_count() == pairs


def test_acyclicity_matches_oracle_exhaustively_small():
    for n in (1, 2, 3):
        for code in range(1 << (n * (n - 1))):
            g = digraph_from_code(n, code)
            assert subset_is_acyclic(g, (1 << n) - 1) == oracles.acyclic(n, g.rows)


def test_acyclicity_matches_oracle_sampled():
    rng = random.Random(3)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(4, 5))
        assert subset_is_acyclic(g, (1 << g.n) - 1) == oracles.acyclic(g.n, g.rows)


def test_subset_acyclicity_matches_induced_oracle():
    rng = random.Random(5)
    for _ in range(100):
        g = random_digraph(rng, 5)
        mask = rng.randint(1, 31)
        subset = tuple(v for v in range(5) if mask >> v & 1)
        assert subset_is_acyclic(g, mask) == oracles.acyclic(*oracles.induced(5, g.rows, subset))


@pytest.mark.parametrize(
    "text, girth, category",
    [
        ("n 3", None, Category.NO_UNDIRECTED_CYCLE),
        ("n 3 ; 1->2 2->3 3->1", None, Category.NO_UNDIRECTED_CYCLE),
        ("n 4 ; 1-2 2-3 3-4", None, Category.NO_UNDIRECTED_CYCLE),
        ("n 3 ; 1-2 2-3 1-3", 3, Category.GIRTH_3),
        (FIG_TEXT, 3, Category.GIRTH_3),
        ("n 4 ; 1-2 2-3 3-4 1-4", 4, Category.GIRTH_4),
        (PENTAGON_TEXT, 5, Category.GIRTH_5),
        ("n 5 ; 1-2 2-3 3-4 4-5 1-5 1-3", 3, Category.GIRTH_3),
    ],
)
def test_girth_and_category(text, girth, category):
    g = parse_digraph(text)
    assert undirected_girth(g) == girth
    assert categorize(g) == category


def test_categorize_is_total_on_the_supported_range():
    # a cycle on at most five vertices has at most five edges, so every
    # class representative gets one of the four categories
    girths = {}
    for n in range(1, 6):
        for code in orbit_table(n).reps:
            g = digraph_from_code(n, code)
            girth = undirected_girth(g)
            girths[girth] = girths.get(girth, 0) + 1
            assert categorize(g) in Category
    assert girths == {None: 8117, 3: 1427, 4: 272, 5: 30}


def test_girth_matches_the_permutation_oracle():
    # every undirected graph with n <= 5, alone and with a one-way arc
    # i->j (i < j) on every pair that is not an edge
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for chosen in range(1 << len(pairs)):
            edges, arcs = [0] * n, [0] * n
            for b, (i, j) in enumerate(pairs):
                if chosen >> b & 1:
                    edges[i] |= 1 << j
                    edges[j] |= 1 << i
                else:
                    arcs[i] |= 1 << j
            for rows in (tuple(edges), tuple(e | a for e, a in zip(edges, arcs))):
                assert undirected_girth(Digraph(n, rows)) == oracles.undirected_girth(n, rows)


def test_one_way_arcs_do_not_close_undirected_cycles():
    g = parse_digraph("n 3 ; 1-2 2-3 3->1")
    assert undirected_girth(g) is None


def test_adjacency_code_roundtrip():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        g = random_digraph(rng, n)
        assert digraph_from_code(n, adjacency_code(g)) == g
    with pytest.raises(ValueError):
        digraph_from_code(2, 1 << 2)


def test_adjacency_code_orders_like_row_major_bit_string():
    # arc 1->2 occupies the most significant position at n=2
    assert adjacency_code(parse_digraph("n 2 ; 1->2")) == 0b10
    assert adjacency_code(parse_digraph("n 2 ; 2->1")) == 0b01

    def bit_string(g):
        return "".join(str(g.rows[i] >> j & 1) for i in range(g.n) for j in range(g.n) if i != j)

    def row_choices(n):
        return [[row for row in range(1 << n) if not row >> i & 1] for i in range(n)]

    graphs = [Digraph(n, rows) for n in range(1, 4) for rows in product(*row_choices(n))]
    rng = random.Random(29)
    for n in range(4, 6):
        graphs += [Digraph(n, tuple(rng.choice(c) for c in row_choices(n))) for _ in range(20)]
    for g in graphs:
        code = int(bit_string(g) or "0", 2)
        assert adjacency_code(g) == code
        assert digraph_from_code(g.n, code) == g


def test_relabel_matches_direct_image():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 5)
        g = random_digraph(rng, n)
        perm = tuple(rng.sample(range(n), n))
        h = relabel(g, perm)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert h.rows[perm[i]] >> perm[j] & 1 == g.rows[i] >> j & 1


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 5)
        g = random_digraph(rng, n)
        perm = tuple(rng.sample(range(n), n))
        assert canonical_key(relabel(g, perm)) == canonical_key(g)


def test_canonical_key_separates_all_three_vertex_classes():
    keys = {}
    for cls in oracles.iso_classes(3):
        class_keys = {canonical_key(Digraph(3, rows)) for rows in cls}
        assert len(class_keys) == 1
        key = class_keys.pop()
        assert key not in keys
        keys[key] = cls
    assert len(keys) == 16


def test_canonical_key_is_the_least_code_over_every_relabeling():
    # canonical_key reads only the relabelings that put a vertex of least
    # out-degree at label 0; the key is the least code over all n! of them
    for n in (1, 2, 3, 4):
        for code in range(1 << (n * (n - 1))):
            assert canonical_key(digraph_from_code(n, code)) == CanonicalKey(n, min(graph._relabelings(n, code)))
    rng = random.Random(73)
    for rep in orbit_table(5).reps:
        g = relabel(digraph_from_code(5, rep), tuple(rng.sample(range(5), 5)))
        assert canonical_key(g) == CanonicalKey(5, min(graph._relabelings(5, adjacency_code(g)))) == (5, rep)


def test_enumeration_counts_and_canonical_order():
    assert sum(1 for _ in enumerate_nonisomorphic(1)) == 1
    assert sum(1 for _ in enumerate_nonisomorphic(2)) == 3
    keys = []
    for g in enumerate_nonisomorphic(3):
        key = canonical_key(g)
        # each representative is its own canonical form
        assert key == CanonicalKey(3, adjacency_code(g))
        keys.append(key)
    assert len(keys) == 16
    assert keys == sorted(keys)


def test_chunk_rows_give_every_relabeling_in_permutation_order():
    # the images of every value of each 10-bit chunk are the OR of the
    # images of its set bits
    for n in (1, 2, 3, 4, 5):
        bit_images = graph._bit_images(n)
        nbits = n * (n - 1)
        for shift, width in ((0, min(nbits, 10)), (10, max(nbits - 10, 0))):
            for value in range(1 << width):
                images = graph._code_images(n, value << shift)
                assert images.typecode == "I" and len(images) == factorial(n)
                set_bits = [b for b in range(nbits) if value << shift >> b & 1]
                assert list(images) == [reduce(or_, (bit_images[b][p] for b in set_bits), 0) for p in range(factorial(n))]
    rng = random.Random(71)
    for n in (1, 2, 3, 4, 5):
        codes = range(1 << (n * (n - 1))) if n <= 4 else [rng.getrandbits(20) for _ in range(2000)]
        perms = list(permutations(range(n)))
        for code in codes:
            rows = oracles.rows_from_key(n, code)
            expected = [adjacency_code(Digraph(n, oracles.relabel(n, rows, perm))) for perm in perms]
            relabelings = graph._relabelings(n, code)
            assert type(relabelings) is list and relabelings == expected
            low, high = graph._code_images(n, code & 0x3FF), graph._code_images(n, code & ~0x3FF)
            assert relabelings == [a | b for a, b in zip(low, high)]


def test_orbit_table_classes_match_oracle_partition():
    for n in (1, 2, 3, 4):
        table = orbit_table(n)
        assert len(table.classes) == 1 << (n * (n - 1))
        members: dict[int, set] = {}
        for code, index in enumerate(table.classes):
            members.setdefault(index, set()).add(digraph_from_code(n, code).rows)
        assert sorted(members) == list(range(len(table.reps)))
        ours = {frozenset(rows) for rows in members.values()}
        assert ours == {frozenset(cls) for cls in oracles.iso_classes(n)}


def test_orbit_table_is_read_only_and_fully_assigned():
    for n in (1, 2, 3, 4, 5):
        classes, reps = orbit_table(n)
        with pytest.raises(TypeError):
            classes[0] = 0
        assert 0xFFFF not in classes
        assert max(classes) == len(reps) - 1


def _relabel_tables(n, perm):
    """(low, high) lookup tables mapping an adjacency code to the code of
    its relabeling by perm, built from single-arc images."""
    images = [adjacency_code(relabel(digraph_from_code(n, 1 << b), perm)) for b in range(n * (n - 1))]
    tables = []
    for base in (0, 10):
        width = max(0, min(10, n * (n - 1) - base))
        tab = [0] * (1 << width)
        for value in range(1, 1 << width):
            low = value & -value
            tab[value] = tab[value ^ low] | images[base + low.bit_length() - 1]
        tables.append(tab)
    return tables


def test_orbit_table_five_vertices_exhaustive():
    assert [len(orbit_table(n).reps) for n in range(1, 6)] == [1, 3, 16, 218, 9608]
    table = orbit_table(5)
    classes = table.classes
    assert len(classes) == 1 << 20
    # a transposition and a 5-cycle generate S5, so invariance under both
    # makes every class index constant on its orbit
    for perm in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)):
        low, high = _relabel_tables(5, perm)
        for code in range(1 << 20):
            assert classes[low[code & 0x3FF] | high[code >> 10]] == classes[code]
    # each stored representative is its own canonical key, so distinct
    # indices are distinct classes, in ascending key order
    for index, rep in enumerate(table.reps):
        assert classes[rep] == index
        assert canonical_key(digraph_from_code(5, rep)) == CanonicalKey(5, rep)
    assert list(table.reps) == sorted(table.reps)
    with pytest.raises(ValueError):
        orbit_table(6)


def test_enumeration_yields_pairwise_nonisomorphic():
    reps = [g.rows for g in enumerate_nonisomorphic(3)]
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            assert not oracles.isomorphic(3, reps[a], reps[b])


def test_enumeration_rejects_large_orders():
    with pytest.raises(ValueError):
        list(enumerate_nonisomorphic(6))
    with pytest.raises(ValueError):
        list(enumerate_nonisomorphic(0))


def test_digraph_from_key_roundtrip():
    for g in enumerate_nonisomorphic(3):
        key = canonical_key(g)
        back = digraph_from_key(key)
        assert canonical_key(back) == key
        assert oracles.isomorphic(3, back.rows, g.rows)


def test_canonical_key_hex():
    assert CanonicalKey(5, 0x356AC).hex == "0x356ac"


def test_classes_above_is_the_one_arc_inclusion_relation():
    # a lower class a and an upper class b are one step apart iff b has one
    # arc more and some relabeling of a lies inside b
    for n in range(1, 5):
        graphs = [digraph_from_code(n, code) for code in orbit_table(n).reps]
        arcs = [sum(row.bit_count() for row in g.rows) for g in graphs]
        steps = [classes_above(n, c) for c in range(len(graphs))]
        assert [len(ups) for ups in steps] == [n * (n - 1) - m for m in arcs]
        expected = {
            (a, b)
            for a, ga in enumerate(graphs)
            for b, gb in enumerate(graphs)
            if arcs[b] == arcs[a] + 1 and oracles.embeds(n, ga.rows, gb.rows)
        }
        assert {(a, b) for a, ups in enumerate(steps) for b in ups} == expected
    steps = [classes_above(5, c) for c in range(len(orbit_table(5).reps))]
    assert sum(map(len, steps)) == 96_080
    assert len({(a, b) for a, ups in enumerate(steps) for b in ups}) == 89_216
