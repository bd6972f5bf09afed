"""Graph parsing, structure queries, canonical labeling, enumeration."""

import random
from itertools import permutations
from math import factorial

import pytest

import oracles
from indexcoding import graph
from indexcoding.graph import (
    CanonicalKey,
    Category,
    Digraph,
    GraphFormatError,
    adjacency_code,
    canonical_key,
    categorize,
    digraph_from_code,
    digraph_from_key,
    embeds_arc_deleted,
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
        Digraph(9, (0,) * 9)
    with pytest.raises(ValueError):
        Digraph(2, (0,))
    with pytest.raises(ValueError):
        Digraph(2, (0b100, 0))
    with pytest.raises(ValueError):
        Digraph(2, (0b01, 0))


def test_basic_accessors():
    g = parse_digraph(FIG_TEXT)
    assert g.arc_count() == 8
    assert g.edge_count() == 3
    assert g.rows[1] >> 3 & 1 and not g.rows[3] >> 1 & 1
    assert g.edge_row(0) == 0b0110
    assert g.edge_row(3) == 0


def test_acyclicity_matches_oracle_exhaustively_small():
    for n in (1, 2, 3):
        for code in range(1 << (n * (n - 1))):
            g = digraph_from_code(n, code)
            assert subset_is_acyclic(g, (1 << n) - 1) == oracles.acyclic(n, g.rows)


def test_acyclicity_matches_oracle_sampled():
    rng = random.Random(3)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(4, 6))
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


def test_girth_six_is_outside_categories():
    hexagon = parse_digraph("n 6 ; 1-2 2-3 3-4 4-5 5-6 1-6")
    assert undirected_girth(hexagon) == 6
    with pytest.raises(ValueError):
        categorize(hexagon)


def test_one_way_arcs_do_not_close_undirected_cycles():
    g = parse_digraph("n 3 ; 1-2 2-3 3->1")
    assert undirected_girth(g) is None


def test_adjacency_code_roundtrip():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_digraph(rng, n)
        assert digraph_from_code(n, adjacency_code(g)) == g
    with pytest.raises(ValueError):
        digraph_from_code(2, 1 << 2)


def test_adjacency_code_orders_like_row_major_bit_string():
    # arc 1->2 occupies the most significant position at n=2
    assert adjacency_code(parse_digraph("n 2 ; 1->2")) == 0b10
    assert adjacency_code(parse_digraph("n 2 ; 2->1")) == 0b01


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


def test_canonical_key_beyond_enumeration_sizes():
    g = parse_digraph("n 6 ; 1-2 2-3 3-4 4-5 5-6 1-6 1->4")
    perm = (3, 0, 4, 1, 5, 2)
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


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
    for n in (1, 2, 3, 4, 5):
        low, high = graph._perm_chunk_rows(n)
        nbits = n * (n - 1)
        assert len(low) == 1 << min(nbits, 10) and len(high) == 1 << max(nbits - 10, 0)
        assert all(row.typecode == "I" and len(row) == factorial(n) for row in low + high)
    rng = random.Random(71)
    for n in (1, 2, 3, 4, 5):
        codes = range(1 << (n * (n - 1))) if n <= 4 else [rng.getrandbits(20) for _ in range(2000)]
        maps = graph._perm_bit_maps(n)
        for code in codes:
            expected = [graph._apply_bit_map(code, m) for m in maps]
            assert list(graph._relabelings(n, code)) == expected


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


def test_embeds_arc_deleted_matches_oracle():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 5)
        b = random_digraph(rng, n)
        # guaranteed-positive case: delete arcs from a relabeling of b
        kept = Digraph(n, tuple(row & rng.getrandbits(n) for row in b.rows))
        sub = relabel(kept, tuple(rng.sample(range(n), n)))
        assert embeds_arc_deleted(sub, b)
        # random pair, checked both ways against the oracle
        a = random_digraph(rng, n)
        assert embeds_arc_deleted(a, b) == oracles.embeds(n, a.rows, b.rows)
        assert embeds_arc_deleted(b, a) == oracles.embeds(n, b.rows, a.rows)
    assert not embeds_arc_deleted(parse_digraph("n 2 ; 1-2"), parse_digraph("n 3"))
    with pytest.raises(ValueError):
        embeds_arc_deleted(parse_digraph("n 6"), parse_digraph("n 6 ; 1-2 2-3 3-4 4-5 5-6 1-6"))
