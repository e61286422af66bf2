"""graph6 codec.

A graph6 string is N(n) followed by ceil(n(n-1)/2 / 6) data bytes.  Each
data byte is 63 plus a 6-bit group of the upper-triangle bits of the
adjacency matrix, read column by column: (0,1), (0,2), (1,2), (0,3), ...
N(n) is the single byte n+63 for n <= 62, or byte 126 followed by three
6-bit bytes (most significant first) for 63 <= n <= 258047.  Trailing
padding bits must be zero.  An optional ">>graph6<<" prefix is accepted
on input and never produced on output.

The L = n(n-1)/2 bits are laid out once, in a byte buffer (`_bit_layout`):
the edge {i < j} sets bit j(j-1)/2 + i, most significant bit first, and
the buffer is zero-padded to whole 24-bit groups.  Base64 cuts such a
buffer into 6-bit groups in exactly that order, so the data bytes are its
base64 encoding with the alphabet A..Z a..z 0..9 + / shifted to the
characters 63..126, cut to ceil(L/6) characters; parsing reverses the
shift and decodes, and the IR search's leaf key is the buffer read as one
big-endian integer.  `_encode` writes the graph6 bytes of a relabeled
graph from its buffer: `write_graph6` and the search's certificate.
"""

from __future__ import annotations

import re
from base64 import b64decode, b64encode
from math import isqrt

from .errors import MalformedGraph6
from .graphs import Graph

_HEADER = ">>graph6<<"
_MAX_N = 258047
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6, _BASE64)
_OUT_OF_RANGE = re.compile("[^?-~]")        # ? is chr(63), ~ is chr(126)
_NONZERO_TO_1 = bytes((0,)) + bytes((1,)) * 255     # a translate table
# offsets, most significant first, of the set bits of each byte value
_SET_BITS = tuple(tuple(k for k in range(8) if b & (128 >> k))
                  for b in range(256))


def _bit_layout(n, edges, pi):
    """The upper-triangle bits of the graph on 0..n-1 with the given
    edges relabeled by pi (v becomes pi[v]): a bytearray with bit
    j(j-1)/2 + i set, most significant first, for each relabeled edge
    {i < j}, zero-padded to whole 24-bit groups.  Returns (buffer, number
    of padding bits)."""
    nbits = n * (n - 1) // 2
    buf = bytearray(-(-nbits // 24) * 3)
    for u, v in edges:
        i, j = pi[u], pi[v]
        if i > j:
            i, j = j, i
        pos = j * (j - 1) // 2 + i
        buf[pos >> 3] |= 128 >> (pos & 7)
    return buf, 8 * len(buf) - nbits


def _encode(n, edges, pi):
    """The graph6 bytes of the graph on 0..n-1 with the given edges
    relabeled by pi, encoded from its bit layout."""
    if n <= 62:
        header = bytes((n + 63,))
    elif n <= _MAX_N:
        header = bytes((126, *(63 + ((n >> k) & 63) for k in (12, 6, 0))))
    else:
        raise MalformedGraph6(f"{n} vertices exceeds the supported size {_MAX_N}")
    buf, _ = _bit_layout(n, edges, pi)
    return header + b64encode(buf).translate(_TO_GRAPH6)[
        :(n * (n - 1) // 2 + 5) // 6]


def write_graph6(g: Graph) -> str:
    return _encode(g.n, g.edges, range(g.n)).decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    # every byte is in 63..126 when none is left once those are deleted
    if not s.isascii() or s.encode("ascii").translate(None, _GRAPH6):
        bad = _OUT_OF_RANGE.search(s)
        raise MalformedGraph6(
            f"byte {ord(bad.group())!r} at position {bad.start()} outside 63..126")
    first = ord(s[0]) - 63
    if first == 63:
        if len(s) < 4:
            raise MalformedGraph6("truncated long-form size")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
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
    # zero bits ("A") fill the last 24-bit group, which base64 decodes whole
    data = body.encode("ascii").translate(_FROM_GRAPH6) + b"A" * (-expect % 4)
    adj = [[] for _ in range(n)]
    buf = b64decode(data)
    # find jumps over the zero bytes at C speed: it scans a copy of buf
    # with every nonzero byte turned into 1
    find = buf.translate(_NONZERO_TO_1).find
    index = find(1)
    while index >= 0:
        start = index << 3
        for k in _SET_BITS[buf[index]]:
            pos = start + k
            j = (isqrt(8 * pos + 1) + 1) >> 1
            i = pos - j * (j - 1) // 2
            adj[i].append(j)
            adj[j].append(i)
        index = find(1, index + 1)
    return Graph(n, adj)


def load_graph6_file(path):
    """Parse a one-graph-per-line graph6 file.

    Returns a list of (line_number, Graph); blank lines are skipped.
    MalformedGraph6 errors, including those for bytes outside the graph6
    range, are re-raised with the path and line number attached.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            # latin-1 maps each byte to one character, so parse_graph6
            # reports any byte outside 63..126 instead of a decode error
            out.append((lineno, parse_graph6(line.decode("latin-1"))))
        except MalformedGraph6 as exc:
            raise MalformedGraph6(f"{path}:{lineno}: {exc}") from exc
    return out
