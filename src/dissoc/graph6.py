"""graph6 encoding and decoding for graphs of up to 64 vertices.

The format packs the upper triangle of the adjacency matrix, read column by
column with increasing column index, into 6-bit groups offset by 63.  The
order is one byte ``63 + n`` up to n = 62 and ``~`` plus n in three 6-bit
bytes from 63 on; the 8-byte ``~~`` form (n above 258047) is beyond the
vertex cap and rejected.  Only plain graph6 is supported; sparse6 (':' or
';') and digraph6 ('&') inputs are rejected.  The optional ``>>graph6<<``
stream header is tolerated and stripped.
"""

from __future__ import annotations

from binascii import b2a_base64

from .graph import MAX_VERTICES, Graph

_HEADER = ">>graph6<<"
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _triangle_pairs(n: int):
    for v in range(1, n):
        for u in range(v):
            yield u, v


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    n = g.n
    if n > MAX_VERTICES:
        raise Graph6Error(f"order {n} exceeds the {MAX_VERTICES}-vertex cap")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join([chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)])
    # column v is the bits of u = 0..v-1 in adj[v], lowest first: stacked in
    # one int, the stream runs from its lowest bit up, so reverse it once
    adj = g.adj
    y = 0
    off = 0
    for v in range(1, n):
        y |= (adj[v] & ((1 << v) - 1)) << off
        off += v
    # pad to whole base64 quanta of 24 bits; base64 reads 6-bit groups from
    # the top, and the table maps its alphabet onto chr(63..126)
    full = -(-off // 24) * 24
    stream = int(format(y, "0%db" % off)[::-1], 2) << full - off
    data = stream.to_bytes(full // 8, "big")
    body = b2a_base64(data, newline=False).translate(_FROM_BASE64)
    return head + body[:-(-off // 6)].decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string; raises :class:`Graph6Error` on bad input."""
    if text.startswith(_HEADER):
        text = text[len(_HEADER):]
    text = text.strip("\n\r")
    if not text:
        raise Graph6Error("empty graph6 string")
    if text[0] in ":;":
        raise Graph6Error("sparse6 input is not supported, only graph6")
    if text[0] == "&":
        raise Graph6Error("digraph6 input is not supported, only graph6")
    if text.startswith("~~"):
        raise Graph6Error(
            "8-byte order header '~~' (n > 258047) is beyond the "
            f"{MAX_VERTICES}-vertex cap"
        )
    long = text[0] == "~"
    header, body = (text[1:4], text[4:]) if long else (text[0], text[1:])
    if long and len(header) < 3:
        raise Graph6Error("truncated multi-byte order header")
    n = 0
    for ch in header:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"malformed header byte {ch!r}")
        n = n << 6 | (ord(ch) - 63)
    if long and n <= 62:
        raise Graph6Error(
            f"malformed order header: '~' form for n = {n}, which takes one byte"
        )
    if n > MAX_VERTICES:
        raise Graph6Error(f"order {n} exceeds the {MAX_VERTICES}-vertex cap")

    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(body) < ngroups:
        raise Graph6Error(
            f"truncated bit vector: need {ngroups} data characters, got {len(body)}"
        )
    if len(body) > ngroups:
        raise Graph6Error(f"trailing garbage after {ngroups} data characters")

    bitstream = 0
    for ch in body:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"invalid data character {ch!r}")
        bitstream = (bitstream << 6) | (code - 63)

    pad = ngroups * 6 - nbits
    if bitstream & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits (trailing garbage)")
    bitstream >>= pad

    adj = [0] * n
    pos = nbits
    for u, v in _triangle_pairs(n):
        pos -= 1
        if bitstream >> pos & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph.from_adj(tuple(adj))
