"""Binary trees as membership oracles, the dyadic interval coding of nodes,
real-to-path translation, bounded path search, and bit-interleaving joins.

Intervals are half-open [a, b) so that dyadic rationals have a unique code;
eventually-zero expansions then extract cleanly.  An "infinite" tree is,
operationally, one whose oracle keeps admitting deeper nodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import BoundaryUndecided, NodeNotInTree, NotAChain
from .scalars import _PRECISION, OracleReal, approx_interval


def _check_bits(sigma: str) -> str:
    if any(ch not in "01" for ch in sigma):
        raise ValueError(f"not a bit string: {sigma!r}")
    return sigma


@dataclass(frozen=True)
class DyadicInterval:
    lo: Fraction
    hi: Fraction
    closed_lo: bool = True

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self):
        left = "[" if self.closed_lo else "("
        return f"{left}{self.lo}, {self.hi})"


class TreeOracle:
    """Membership oracle over bit strings, forced prefix-closed: a node is a
    member only if the raw test accepts it and every prefix."""

    def __init__(self, membership: Callable[[str], bool]):
        self._raw = membership
        self._cache: dict = {}

    def _raw_member(self, sigma: str) -> bool:
        if sigma not in self._cache:
            self._cache[sigma] = bool(self._raw(sigma))
        return self._cache[sigma]

    def member(self, sigma: str) -> bool:
        _check_bits(sigma)
        # A node is raw-tested only after all its prefixes passed, so a
        # cached True marks a member: resume the walk below the deepest one.
        known = len(sigma)
        while known >= 0 and not self._cache.get(sigma[:known]):
            known -= 1
        return all(self._raw_member(sigma[:i])
                   for i in range(known + 1, len(sigma) + 1))

    def __contains__(self, sigma: str) -> bool:
        return self.member(sigma)


def full_tree() -> TreeOracle:
    return TreeOracle(lambda sigma: True)


def single_chain(bits: str) -> TreeOracle:
    """The chain of prefixes of bits·000… (the spine padded with zeros)."""
    _check_bits(bits)

    def raw(sigma: str) -> bool:
        head, tail = sigma[: len(bits)], sigma[len(bits):]
        return bits.startswith(head) and set(tail) <= {"0"}

    return TreeOracle(raw)


def seeded_tree(n: int) -> TreeOracle:
    """A deterministic pseudo-random prefix-closed tree keyed by a seed."""

    def raw(sigma: str) -> bool:
        if sigma == "":
            return True
        digest = hashlib.sha256(f"{n}|{sigma}".encode()).digest()
        return digest[0] < 224  # admit with density 7/8

    return TreeOracle(raw)


def explicit_tree(nodes: Iterable[str]) -> TreeOracle:
    members = {_check_bits(s) for s in nodes}
    members.add("")
    return TreeOracle(lambda sigma: sigma in members)


def tree_from_notation(text: str) -> TreeOracle:
    """`full` | `single:<bits>` | `seeded:<n>` | newline-separated nodes."""
    text = text.strip()
    if text == "full":
        return full_tree()
    if text.startswith("single:"):
        return single_chain(text[len("single:"):])
    if text.startswith("seeded:"):
        seed = text[len("seeded:"):]
        try:
            return seeded_tree(int(seed))
        except ValueError:
            raise ValueError(f"not a tree seed: {seed!r}") from None
    return explicit_tree(line.strip() for line in text.splitlines()
                         if line.strip())


def node_interval(sigma: str) -> DyadicInterval:
    """I_sigma = [lo, lo + 2^-len) with lo = sum sigma(i) 2^-(i+1)."""
    _check_bits(sigma)
    lo = Fraction(0)
    for i, ch in enumerate(sigma):
        if ch == "1":
            lo += Fraction(1, 2 ** (i + 1))
    return DyadicInterval(lo, lo + Fraction(1, 2 ** len(sigma)))


def path_from_real(tree: TreeOracle, r, depth: int) -> list:
    """The chain of tree nodes whose intervals contain r, down to the given
    depth (depth+1 nodes, starting at the root).  Node intervals cover
    [0, 1), so a real outside it is a ValueError, as is a negative depth."""
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if not _side_of(r, Fraction(0)) or _side_of(r, Fraction(1)):
        raise ValueError("tree path needs a real in [0, 1)")
    if "" not in tree:
        raise NodeNotInTree("the empty node is not in the tree")
    path = [""]
    current = ""
    for _ in range(depth):
        mid = node_interval(current + "1").lo
        bit = _side_of(r, mid)
        node = current + ("1" if bit else "0")
        if node not in tree:
            raise NodeNotInTree(node)
        path.append(node)
        current = node
    return path


def _side_of(r, mid: Fraction) -> bool:
    """True when r >= mid under the half-open convention."""
    for n in range(1, _PRECISION + 1):
        a, b = approx_interval(r, n)
        if a >= mid:
            return True
        if b < mid:
            return False
    raise BoundaryUndecided(
        f"cannot place the real against {mid} within {_PRECISION} bits")


def real_from_path(prefix: Sequence[str]) -> DyadicInterval:
    """Interval of the deepest node of a root-anchored chain."""
    nodes = list(prefix)
    if not nodes:
        raise NotAChain("empty prefix")
    if nodes[0] != "":
        raise NotAChain("chain must start at the root")
    for prev, nxt in zip(nodes, nodes[1:]):
        _check_bits(nxt)
        if len(nxt) != len(prev) + 1 or not nxt.startswith(prev):
            raise NotAChain(f"{nxt!r} does not extend {prev!r} by one bit")
    return node_interval(nodes[-1])


def find_path_bounded(tree: TreeOracle, depth: int) -> Optional[str]:
    """Leftmost node of exactly the given length whose prefixes all lie in
    the tree; None when the tree dies out earlier.  A node's membership is
    tested when it is popped, so a right child is tested only after the
    subtree to its left has died.  A negative depth is a ValueError."""
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    stack = [""]
    while stack:
        node = stack.pop()
        if node not in tree:
            continue
        if len(node) == depth:
            return node
        # push right child first so the left is explored first
        stack.append(node + "1")
        stack.append(node + "0")
    return None


def _expansion_bits(r, k: int) -> int:
    """First k binary digits of r in [0,1), as an integer in [0, 2^k)."""
    if k == 0:
        return 0
    for n in range(k, 97):
        a, b = approx_interval(r, n)
        ia = (a.numerator * 2 ** k) // a.denominator
        ib = (b.numerator * 2 ** k) // b.denominator
        if ia == ib:
            return ia
    raise BoundaryUndecided(
        f"cannot extract {k} expansion bits within 96 bits")


def join(r1, r2):
    """OracleReal interleaving the binary expansions of two reals in [0,1):
    r1 on even positions, r2 on odd."""
    def approx(n: int):
        m = n // 2 + 1
        b1 = _expansion_bits(r1, m)
        b2 = _expansion_bits(r2, m)
        v = 0
        for i in range(m):
            bit1 = (b1 >> (m - 1 - i)) & 1
            bit2 = (b2 >> (m - 1 - i)) & 1
            v = (v << 2) | (bit1 << 1) | bit2
        lo = Fraction(v, 4 ** m)
        return lo, lo + Fraction(1, 4 ** m)

    return OracleReal(approx, name="join")


def deinterleave(r):
    """Recover the two interleaved components of a joined real."""
    def component(offset: int, name: str):
        def approx(n: int):
            k = n + 1
            joint = _expansion_bits(r, 2 * k)
            v = 0
            for i in range(k):
                v = (v << 1) | ((joint >> (2 * (k - 1 - i) + 1 - offset)) & 1)
            lo = Fraction(v, 2 ** k)
            return lo, lo + Fraction(1, 2 ** k)

        return OracleReal(approx, name=name)

    return component(0, "left"), component(1, "right")
