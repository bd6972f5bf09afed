"""Code objects, decodability checking, conversions, serialization."""

import random
from itertools import product

import pytest

import oracles
from indexcoding import codec
from indexcoding.bounds import mais, minrank_witness
from indexcoding.codec import (
    CodeFormatError,
    GeneralCode,
    LinearCode,
    bits_from_mask,
    code_from_coloring,
    linear_code_from_matrix,
    mask_from_bits,
    parse_code,
    receiver_decodes,
    serialize_code,
)
from indexcoding.confusion import build_confusion, find_coloring
from indexcoding.graph import digraph_from_code, digraph_from_key, enumerate_nonisomorphic, parse_digraph

FIG = parse_digraph("n 4 ; 1-2 1-3 2-3 2->4 4->1")
PENTAGON = parse_digraph("n 5 ; 1-3 3-5 5-2 2-4 4-1")


def test_bit_string_helpers():
    assert mask_from_bits("0110") == 0b0110
    assert mask_from_bits("") == 0
    assert bits_from_mask(0b0110, 4) == "0110"
    assert mask_from_bits(bits_from_mask(0b10101, 5)) == 0b10101
    # only the chars 0 and 1 are bits, though int(text, 2) reads some of these
    for text, bad in [("01x", "x"), ("0_1", "_"), (" 01", " "), ("+1", "+"), ("1 0", " "), ("\u0661", "\u0661")]:
        with pytest.raises(CodeFormatError) as err:
            mask_from_bits(text)
        assert str(err.value) == f"invalid bit char {bad!r}"


def test_even_parity_table_is_its_definition():
    for n in range(1, 6):
        table = codec._even_parity(n)
        assert len(table) == 1 << n
        for row, even in enumerate(table):
            assert even == sum(1 << x for x in range(1 << n) if bin(row & x).count("1") % 2 == 0)


def test_code_validation():
    with pytest.raises(ValueError):
        LinearCode(2, (0b100,))
    with pytest.raises(ValueError):
        GeneralCode(2, 1, (0, 1, 0))
    with pytest.raises(ValueError):
        GeneralCode(2, 1, (0, 1, 2, 0))
    # keyword construction and _replace are checked the same way
    code = LinearCode(n_messages=2, rows=(0b11,))
    assert code == LinearCode(2, (0b11,)) and code.length == 1
    with pytest.raises(ValueError):
        code._replace(rows=(0b100,))
    table = GeneralCode(n_messages=1, length=1, table=(0, 1))
    assert table._replace(table=(1, 0)) == GeneralCode(1, 1, (1, 0))
    with pytest.raises(ValueError):
        table._replace(length=0)


def test_linear_code_from_matrix_length_is_rank():
    rank, rows = minrank_witness(FIG, mais(FIG))
    code = linear_code_from_matrix(4, rows)
    assert code.length == rank == 2
    assert all(row in rows for row in code.rows)
    assert all(receiver_decodes(FIG, code))


def test_code_from_coloring_relabels_compactly():
    code = code_from_coloring(2, (7, 7, 3, 9))
    assert code.table == (0, 0, 1, 2)
    assert code.length == 2
    with pytest.raises(ValueError):
        code_from_coloring(2, (0, 1))


def test_receiver_decodes_every_tuple():
    rank, rows = minrank_witness(FIG, mais(FIG))
    code = linear_code_from_matrix(4, rows)
    assert receiver_decodes(FIG, code) == [True] * 4
    assert oracles.decodes(4, FIG.rows, oracles.linear_encoder(code.rows))


def test_receiver_decodes_rejects_confusable_collisions():
    # one parity bit serves no receiver of the pentagon
    assert receiver_decodes(PENTAGON, LinearCode(5, (0b11111,))) == [False] * 5
    # sending x1 alone serves receiver 1 only
    assert receiver_decodes(parse_digraph("n 2"), LinearCode(2, (0b01,))) == [True, False]
    with pytest.raises(ValueError):
        receiver_decodes(FIG, LinearCode(3, (0b111,)))


def test_linear_decoding_matches_the_oracle_exhaustively(full_records):
    # every labeled graph on at most three vertices against every linear
    # code of at most two rows
    seen = {True: 0, False: 0}
    for n in (1, 2, 3):
        codes = [LinearCode(n, rows) for length in (0, 1, 2) for rows in product(range(1 << n), repeat=length)]
        for graph_code in range(1 << (n * (n - 1))):
            g = digraph_from_code(n, graph_code)
            for code in codes:
                valid = all(receiver_decodes(g, code))
                assert valid == oracles.decodes(n, g.rows, oracles.linear_encoder(code.rows))
                seen[valid] += 1
    assert seen[True] and seen[False]
    # every record's code with one row bit flipped
    rng = random.Random(67)
    seen = {True: 0, False: 0}
    for r in full_records:
        g = digraph_from_key(r.key)
        rows = list(r.code)
        rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(r.n)
        code = LinearCode(r.n, tuple(rows))
        valid = all(receiver_decodes(g, code))
        assert valid == oracles.decodes(r.n, g.rows, oracles.linear_encoder(code.rows))
        seen[valid] += 1
    assert seen[True] and seen[False]


def test_validity_matches_decode_oracle_on_random_codes():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 5)
        g = digraph_from_code(n, rng.getrandbits(n * (n - 1)))
        length = rng.randint(0, n)
        code = LinearCode(n, tuple(rng.getrandbits(n) for _ in range(length)))
        assert all(receiver_decodes(g, code)) == oracles.decodes(n, g.rows, oracles.linear_encoder(code.rows))


def test_validity_iff_proper_coloring_exhaustive_two_messages():
    seen = {True: 0, False: 0}
    for g in enumerate_nonisomorphic(2):
        adj = build_confusion(g)
        for length in (1, 2):
            for rows in product(range(4), repeat=length):
                code = LinearCode(2, rows)
                valid = all(receiver_decodes(g, code))
                proper = oracles.proper_coloring(list(adj), tuple(map(oracles.linear_encoder(rows), range(4))))
                assert valid == proper
                seen[valid] += 1
    assert seen[True] and seen[False]


def test_colorings_convert_to_valid_codes():
    adj = build_confusion(PENTAGON)
    coloring = find_coloring(adj, 8)
    code = code_from_coloring(5, coloring)
    assert code.length == 3
    assert oracles.decodes(5, PENTAGON.rows, code.table.__getitem__)
    # breaking one color class breaks validity
    mutated = list(coloring)
    u = next(v for v in range(32) if adj[0] >> v & 1)
    mutated[u] = mutated[0]
    assert not oracles.decodes(5, PENTAGON.rows, code_from_coloring(5, mutated).table.__getitem__)


def test_serialize_parse_roundtrip_linear():
    code = LinearCode(4, (0b0111, 0b1110))
    text = serialize_code(4, code.rows)
    assert text == "1110;0111"
    assert parse_code(text) == code
    # blank rows and surrounding spaces are ignored
    assert parse_code(" 1110 ;; 0111; ") == code


@pytest.mark.parametrize(
    "text",
    [
        "",
        "01\n0",
        "00 0\n01 0\n10 0",
        "00 0\n01 0\n10 0\n10 1",
        "00 0 1\n01 0\n10 0\n11 1",
        "00 00\n01 0\n10 0\n11 1",
        # rows split on ";" only, so newline-joined rows make one bad row
        "1110\n0111",
        ";",
        "01;0",
        "00 0;01 0;10 0;11 1",
    ],
)
def test_parse_code_errors(text):
    with pytest.raises(CodeFormatError):
        parse_code(text)
