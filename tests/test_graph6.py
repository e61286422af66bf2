import importlib
import random
import re
from base64 import b64decode
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatkit.autgroup import _leaf_key
from hatkit.errors import MalformedGraph6
from hatkit.graphs import from_edge_list
from hatkit.graph6 import parse_graph6, write_graph6, load_graph6_file
from hatkit.census import builtin_entries, generalized_petersen

from conftest import STRESS_GRAPHS


def random_graph(rng, n):
    edges = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
    return from_edge_list(n, edges)


def test_k4_hand_encoded(k4):
    # n=4 -> chr(63+4) = 'C'; all six upper-triangle bits set -> 63+63 = '~'
    assert write_graph6(k4) == "C~"
    assert parse_graph6("C~") == k4


def test_single_vertex():
    g = from_edge_list(1, [])
    assert write_graph6(g) == "@"
    assert parse_graph6("@") == g


def test_path_encoding():
    # P3: bits (0,1)=1 (0,2)=0 (1,2)=1 -> 101000 -> 40+63 = 'g'
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert write_graph6(p3) == "Bg"
    assert parse_graph6("Bg") == p3


def test_five_cycle_hand_encoded():
    # C5 columns: 1 | 01 | 001 | 1001 -> 101001 100100 -> 'h', 'c'
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert write_graph6(c5) == "Dhc"
    assert parse_graph6("Dhc") == c5


def test_header_stripped(k4):
    assert parse_graph6(">>graph6<<C~") == k4


@settings(max_examples=80)
@given(st.data())
def test_round_trip_small(data):
    n = data.draw(st.integers(min_value=0, max_value=20))
    pairs = list(combinations(range(n), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    g = from_edge_list(n, [p for p, b in zip(pairs, mask) if b])
    s = write_graph6(g)
    assert parse_graph6(s) == g
    assert write_graph6(parse_graph6(s)) == s


def test_round_trip_long_form():
    rng = random.Random(63)
    for n in (63, 64, 70, 100):
        g = random_graph(rng, n)
        s = write_graph6(g)
        assert s[0] == "~"
        assert parse_graph6(s) == g


def test_census_lines_round_trip():
    for entry in builtin_entries():
        assert write_graph6(parse_graph6(entry.graph6)) == entry.graph6


@pytest.mark.parametrize("bad", [
    "",                 # empty
    "C",                # missing data bytes
    "C~~",              # extra data bytes
    "C" + chr(62),      # byte below 63
    "C\x7f",            # byte above 126
    "Bh",               # nonzero padding bits
    "~??D??",           # long form used for n <= 62
    "~?",               # truncated long form
])
def test_malformed(bad):
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


def test_load_graph6_file(tmp_path, k4):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\n\nBg\n", encoding="ascii")
    loaded = load_graph6_file(path)
    assert [lineno for lineno, _ in loaded] == [1, 3]
    assert loaded[0][1] == k4

    bad = tmp_path / "bad.g6"
    bad.write_text("C~\nC\n", encoding="ascii")
    with pytest.raises(MalformedGraph6) as info:
        load_graph6_file(bad)
    assert ":2:" in str(info.value)


# The pair-loop codec and leaf key, kept as the reference for the
# bit-layout ones.

def reference_write_graph6(g):
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(126), chr(63 + (n >> 12)), chr(63 + ((n >> 6) & 63)),
               chr(63 + (n & 63))]
    acc = 0
    nbits = 0
    for j in range(1, n):
        row = g.nbrs[j]
        for i in range(j):
            acc = (acc << 1) | (1 if i in row else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def reference_parse_graph6(text):
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise MalformedGraph6(
                f"byte {code!r} at position {pos} outside 63..126")
    first = ord(s[0]) - 63
    if first == 63:
        if len(s) < 4:
            raise MalformedGraph6("truncated long-form size")
        n = (((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6)
             | (ord(s[3]) - 63))
        if n <= 62:
            raise MalformedGraph6(f"long-form size used for n={n} <= 62")
        body = s[4:]
    else:
        n = first
        body = s[1:]
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise MalformedGraph6(
            f"expected {expect} data bytes for n={n}, got {len(body)}")
    bits = 0
    have = 0
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if have == 0:
                bits = ord(body[pos]) - 63
                pos += 1
                have = 6
            have -= 1
            if (bits >> have) & 1:
                edges.append((i, j))
    if have and bits & ((1 << have) - 1):
        raise MalformedGraph6("nonzero padding bits")
    return from_edge_list(n, edges)


def reference_leaf_key(g, pi):
    top = g.n * (g.n - 1) // 2 - 1
    key = 0
    for u, v in g.edges:
        i, j = pi[u], pi[v]
        if i > j:
            i, j = j, i
        key |= 1 << (top - j * (j - 1) // 2 - i)
    return key


def assert_matches_reference(g):
    s = write_graph6(g)
    assert s == reference_write_graph6(g)
    assert parse_graph6(s) == g == reference_parse_graph6(s)


def parse_error(parse, text):
    with pytest.raises(MalformedGraph6) as info:
        parse(text)
    return str(info.value)


def test_codec_matches_reference_orders_0_to_70():
    rng = random.Random(70)
    for n in range(71):
        for density in (0.0, 0.1, 0.5, 1.0):
            g = from_edge_list(n, [p for p in combinations(range(n), 2)
                                   if rng.random() < density])
            assert_matches_reference(g)


def test_codec_matches_reference_long_form():
    rng = random.Random(300)
    for n in list(range(63, 300, 11)) + [300]:     # every n mod 12
        g = random_graph(rng, n)
        assert write_graph6(g)[0] == "~"
        assert_matches_reference(g)


def test_codec_matches_reference_on_censuses():
    for entry in builtin_entries():
        assert_matches_reference(entry.graph())
        assert write_graph6(parse_graph6(entry.graph6)) == entry.graph6
    for make in STRESS_GRAPHS:
        assert_matches_reference(make())


def test_codec_matches_reference_on_relabeled_bench_file(tmp_path,
                                                         monkeypatch):
    """The benchmark's seed-1 analyze file: every line parses to the
    reference's graph and encodes back to itself."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    inputs = importlib.import_module("inputs")
    path = tmp_path / "relabeled.g6"
    inputs.write_analyze_file(path, random.Random(1))
    lines = path.read_text(encoding="ascii").split()
    assert len(lines) > 20
    for line in lines:
        g = parse_graph6(line)
        assert g == reference_parse_graph6(line)
        assert write_graph6(g) == reference_write_graph6(g) == line


def test_nonzero_padding_bit_rejected_for_every_residue():
    """L = n(n-1)/2 is never 2 mod 3, so L mod 6 takes only the residues
    0, 1, 3 and 4; for each nonzero one, in the short and the long form,
    every padding bit of the last data byte is rejected on its own."""
    first_n = {}
    for n in list(range(2, 40)) + list(range(63, 100)):
        first_n.setdefault((n * (n - 1) // 2 % 6, n > 62), n)
    assert {r for r, _ in first_n} == {0, 1, 3, 4}
    rng = random.Random(6)
    for (r, _), n in first_n.items():
        if r == 0:
            continue
        s = write_graph6(random_graph(rng, n))
        for bit in range(6 - r):
            bad = s[:-1] + chr(63 + ((ord(s[-1]) - 63) | (1 << bit)))
            assert parse_error(parse_graph6, bad) == "nonzero padding bits"
            assert parse_error(reference_parse_graph6, bad) == \
                "nonzero padding bits"


def test_out_of_range_byte_message():
    """A byte outside 63..126 at the first, a middle or the last position
    is reported with its code and position, with and without header."""
    s = write_graph6(random_graph(random.Random(8), 80))
    for pos in (0, len(s) // 2, len(s) - 1):
        for ch in (chr(62), chr(127), chr(0), "\xe9", "€"):
            bad = s[:pos] + ch + s[pos + 1:]
            message = f"byte {ord(ch)!r} at position {pos} outside 63..126"
            for text in (bad, ">>graph6<<" + bad):
                assert parse_error(parse_graph6, text) == message
                assert parse_error(reference_parse_graph6, text) == message


@pytest.mark.parametrize("bad", [
    "C", "C~~", "D", "Dhcc", "~", "~?", "~??", "~?@", "~??D",
    "~?@?" + "?" * 325, "~?@?" + "?" * 327, "~?@?" + "?" * 400,
])
def test_wrong_lengths_and_truncated_long_form(bad):
    """Missing or extra data bytes and a long-form size cut short raise
    the reference's messages (~?@? is n = 63, with 326 data bytes)."""
    assert parse_error(parse_graph6, bad) == parse_error(
        reference_parse_graph6, bad)


def regex_scan_parse_graph6(text):
    """parse_graph6 as it was when regular expressions found the bytes
    outside 63..126 and the nonzero data bytes: the reference for the
    parser's translate and find scans."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    bad = re.search("[^?-~]", s)
    if bad is not None:
        raise MalformedGraph6(
            f"byte {ord(bad.group())!r} at position {bad.start()} "
            "outside 63..126")
    first = ord(s[0]) - 63
    if first == 63:
        if len(s) < 4:
            raise MalformedGraph6("truncated long-form size")
        n = (((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6)
             | (ord(s[3]) - 63))
        if n <= 62:
            raise MalformedGraph6(f"long-form size used for n={n} <= 62")
        body = s[4:]
    else:
        n = first
        body = s[1:]
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise MalformedGraph6(
            f"expected {expect} data bytes for n={n}, got {len(body)}")
    if body and (ord(body[-1]) - 63) & ((1 << (6 * expect - nbits)) - 1):
        raise MalformedGraph6("nonzero padding bits")
    base64 = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
              b"abcdefghijklmnopqrstuvwxyz0123456789+/")
    data = body.encode("ascii").translate(
        bytes.maketrans(bytes(range(63, 127)), base64)) + b"A" * (-expect % 4)
    edges = []
    for byte in re.finditer(b"[^\x00]", b64decode(data)):
        for k in range(8):
            if byte.group()[0] & (128 >> k):
                pos = (byte.start() << 3) + k
                j = (isqrt(8 * pos + 1) + 1) >> 1
                edges.append((pos - j * (j - 1) // 2, j))
    return from_edge_list(n, edges)


def test_parse_matches_regex_scan_reference_at_6072_vertices():
    """A seeded random cubic graph on 6,072 vertices, a long-form string
    of 3.1 million data bytes, parses to itself and to the regex-scan
    parser's graph; a bad byte at its start, in its middle or at its end
    gets the reference's message and position."""
    rng = random.Random(6072)
    n = 6072
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b))
                 for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            break
    g = from_edge_list(n, sorted(edges))
    s = write_graph6(g)
    assert s[0] == "~" and len(s) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(s) == g == regex_scan_parse_graph6(s)
    for pos in (0, 1, 4, len(s) // 2, len(s) - 1):
        for ch in (chr(62), chr(127), "\xe9"):
            bad = s[:pos] + ch + s[pos + 1:]
            message = f"byte {ord(ch)!r} at position {pos} outside 63..126"
            assert parse_error(parse_graph6, bad) == message
            assert parse_error(regex_scan_parse_graph6, bad) == message


def test_leaf_key_matches_reference():
    rng = random.Random(12)
    for n in list(range(40)) + [63, 64, 65, 100, 130]:
        g = random_graph(rng, n)
        for _ in range(3):
            pi = list(range(n))
            rng.shuffle(pi)
            assert _leaf_key(g, pi) == reference_leaf_key(g, pi)


def test_cubic_round_trip_2024_vertices():
    g = generalized_petersen(1012, 5)
    s = write_graph6(g)
    assert s[:4] == "~?^g"      # 2024 = 31 * 64 + 40: 6-bit groups 0, 31, 40
    assert len(s) == 4 + (2024 * 2023 // 2 + 5) // 6
    assert parse_graph6(s) == g
    assert s == reference_write_graph6(g)
