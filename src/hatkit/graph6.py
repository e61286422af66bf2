"""graph6 codec.

A graph6 string is N(n) followed by ceil(n(n-1)/2 / 6) data bytes.  Each
data byte is 63 plus a 6-bit group of the upper-triangle bits of the
adjacency matrix, read column by column: (0,1), (0,2), (1,2), (0,3), ...
N(n) is the single byte n+63 for n <= 62, or byte 126 followed by three
6-bit bytes (most significant first) for 63 <= n <= 258047.  Trailing
padding bits must be zero.  An optional ">>graph6<<" prefix is accepted
on input and never produced on output.
"""

from __future__ import annotations

from .errors import MalformedGraph6
from .graphs import Graph, from_edge_list

_HEADER = ">>graph6<<"
_MAX_N = 258047


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= _MAX_N:
        out = [chr(126), chr(63 + (n >> 12)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    else:
        raise MalformedGraph6(f"{n} vertices exceeds the supported size {_MAX_N}")
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


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise MalformedGraph6(f"byte {code!r} at position {pos} outside 63..126")
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
