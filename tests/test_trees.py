"""Tree oracles, the dyadic interval coding, path translation, and joins."""

import random
from fractions import Fraction

import pytest

from hahnsat.errors import BoundaryUndecided, NodeNotInTree, NotAChain
from hahnsat.scalars import OracleReal, oracle_rational
from hahnsat.trees import (
    DyadicInterval,
    TreeOracle,
    deinterleave,
    explicit_tree,
    find_path_bounded,
    full_tree,
    join,
    node_interval,
    path_from_real,
    real_from_path,
    seeded_tree,
    single_chain,
    tree_from_notation,
)


def _all_nodes(depth):
    yield ""
    for L in range(1, depth + 1):
        for v in range(2 ** L):
            yield format(v, f"0{L}b")


class TestNodeInterval:
    def test_examples(self):
        assert node_interval("") == DyadicInterval(Fraction(0), Fraction(1))
        assert node_interval("1") == DyadicInterval(Fraction(1, 2), Fraction(1))
        assert node_interval("101") == DyadicInterval(Fraction(5, 8), Fraction(3, 4))
        assert str(node_interval("101")) == "[5/8, 3/4)"

    def test_width_law(self):
        for sigma in _all_nodes(8):
            iv = node_interval(sigma)
            assert iv.width == Fraction(1, 2 ** len(sigma))

    def test_incomparable_disjoint(self):
        nodes = list(_all_nodes(6))
        for a in nodes:
            for b in nodes:
                if a.startswith(b) or b.startswith(a):
                    continue
                ia, ib = node_interval(a), node_interval(b)
                assert ia.hi <= ib.lo or ib.hi <= ia.lo, (a, b)

    def test_nesting(self):
        for sigma in _all_nodes(7):
            if not sigma:
                continue
            child, parent = node_interval(sigma), node_interval(sigma[:-1])
            assert parent.lo <= child.lo and child.hi <= parent.hi

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            node_interval("012")


class TestMember:
    @staticmethod
    def _logged(tree_maker, arg):
        """A logging copy of the tree's raw membership test, and its log."""
        calls = []
        inner = tree_maker(arg)._raw

        def raw(sigma):
            calls.append(sigma)
            return inner(sigma)

        return raw, calls

    @pytest.mark.parametrize("tree_maker, arg", [
        (seeded_tree, 3),
        (seeded_tree, 17),
        (explicit_tree, ["0", "01", "010", "0101", "1", "11", "110"]),
    ])
    def test_raw_calls_match_the_plain_prefix_walk(self, tree_maker, arg):
        raw, calls = self._logged(tree_maker, arg)
        tree = TreeOracle(raw)
        ref_raw, ref_calls = self._logged(tree_maker, arg)
        answers: dict = {}

        def plain_member(sigma):
            # every prefix, shortest first, each raw-tested at most once
            for i in range(len(sigma) + 1):
                node = sigma[:i]
                if node not in answers:
                    answers[node] = bool(ref_raw(node))
                if not answers[node]:
                    return False
            return True

        rng = random.Random(9)
        queries = ["", "0101", "010", "01011", "1", "110", "111", "1101"]
        queries += ["".join(rng.choice("01") for _ in range(rng.randint(0, 9)))
                    for _ in range(300)]
        got = [tree.member(q) for q in queries]
        assert got == [plain_member(q) for q in queries]
        assert True in got and False in got
        assert calls == ref_calls


class TestPathFromReal:
    def test_one_third(self):
        path = path_from_real(full_tree(), oracle_rational(Fraction(1, 3)), 3)
        assert path == ["", "0", "01", "010"]

    def test_zero_leftmost(self):
        assert path_from_real(full_tree(), Fraction(0), 2) == ["", "0", "00"]

    def test_dyadic_takes_right_child(self):
        # half-open convention: 1/2 lies in [1/2, 1)
        assert path_from_real(full_tree(), Fraction(1, 2), 2) == ["", "1", "10"]

    def test_membership_law(self):
        rng = random.Random(3)
        T = full_tree()
        for _ in range(20):
            q = Fraction(rng.randrange(0, 997), 997)
            for node in path_from_real(T, oracle_rational(q), 6):
                assert node in T

    def test_monotone_in_depth(self):
        r = oracle_rational(Fraction(2, 7))
        short = path_from_real(full_tree(), r, 4)
        long = path_from_real(full_tree(), r, 8)
        assert long[: len(short)] == short

    def test_interval_brackets_real(self):
        rng = random.Random(5)
        for _ in range(15):
            q = Fraction(rng.randrange(0, 89), 89)
            path = path_from_real(full_tree(), q, 7)
            iv = real_from_path(path)
            assert iv.lo <= q < iv.hi

    def test_boundary_undecided(self):
        fuzzy = OracleReal(
            lambda n: (Fraction(1, 2) - Fraction(1, 2 ** (n + 2)),
                       Fraction(1, 2) + Fraction(1, 2 ** (n + 2))),
            name="fuzzy-half",
        )
        with pytest.raises(BoundaryUndecided):
            path_from_real(full_tree(), fuzzy, 1)

    def test_node_not_in_tree(self):
        with pytest.raises(NodeNotInTree):
            path_from_real(single_chain("1"), oracle_rational(Fraction(1, 3)), 2)

    @pytest.mark.parametrize("r", [Fraction(-1, 3), Fraction(1), Fraction(2),
                                   oracle_rational(Fraction(5, 4))])
    def test_real_outside_unit_interval_rejected(self, r):
        # no node interval contains r, so there is no chain to print
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            path_from_real(full_tree(), r, 3)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be at least 0"):
            path_from_real(full_tree(), Fraction(1, 3), -2)


class TestRealFromPath:
    def test_example(self):
        assert real_from_path(["", "1", "10"]) == \
            DyadicInterval(Fraction(1, 2), Fraction(3, 4))

    def test_width(self):
        path = ["", "1", "10", "101", "1011"]
        assert real_from_path(path).width == Fraction(1, 16)

    def test_not_a_chain(self):
        with pytest.raises(NotAChain):
            real_from_path([])
        with pytest.raises(NotAChain):
            real_from_path(["1", "10"])
        with pytest.raises(NotAChain):
            real_from_path(["", "1", "11", "100"])
        with pytest.raises(NotAChain):
            real_from_path(["", "1", "01"])


class TestFindPathBounded:
    def test_full_tree_leftmost(self):
        assert find_path_bounded(full_tree(), 5) == "00000"
        assert find_path_bounded(full_tree(), 0) == ""

    def test_single_spine(self):
        T = explicit_tree(["", "1", "10", "100"])
        assert find_path_bounded(T, 3) == "100"

    def test_dead_tree(self):
        T = explicit_tree(["", "1", "10"])
        assert find_path_bounded(T, 3) is None

    def test_chain_padding(self):
        assert find_path_bounded(single_chain("101"), 6) == "101000"

    @pytest.mark.parametrize("tree", [full_tree(), single_chain("1011"),
                                      seeded_tree(3)])
    def test_negative_depth_rejected(self, tree):
        # no node has a negative length: the search would never end
        with pytest.raises(ValueError, match="depth must be at least 0"):
            find_path_bounded(tree, -1)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(13)
        for seed in range(12):
            T = seeded_tree(seed)
            for depth in (3, 5, 7):
                got = find_path_bounded(T, depth)
                want = None
                for v in range(2 ** depth):
                    node = format(v, f"0{depth}b")
                    if node in T:
                        want = node
                        break
                assert got == want, (seed, depth)

    def test_prefix_closure_enforced(self):
        # raw membership accepts "11" but not "1": closure must exclude "11"
        from hahnsat.trees import TreeOracle

        U = TreeOracle(lambda s: s in {"", "11"})
        assert "11" not in U
        assert "" in U

    def test_right_child_tested_only_when_reached(self):
        # the leftmost path is found without testing any right sibling:
        # the root and the eight nodes below it
        T = full_tree()
        calls = []
        raw = T._raw
        T._raw = lambda sigma: calls.append(sigma) or raw(sigma)
        assert find_path_bounded(T, 8) == "00000000"
        assert calls == ["0" * k for k in range(9)]


class TestJoin:
    def test_zero(self):
        j = join(Fraction(0), Fraction(0))
        lo, hi = j.interval(12)
        assert lo == 0 and hi - lo <= Fraction(1, 2 ** 12)

    def test_half_and_zero(self):
        j = join(Fraction(1, 2), Fraction(0))
        lo, hi = j.interval(16)
        assert lo == Fraction(1, 2)
        assert hi - lo <= Fraction(1, 2 ** 16)

    def test_against_interleaving_reference(self):
        # reference: interleave the first 8 bits by string surgery
        q1, q2 = Fraction(5, 16), Fraction(3, 8)
        bits1 = format(int(q1 * 256), "08b")
        bits2 = format(int(q2 * 256), "08b")
        woven = "".join(a + b for a, b in zip(bits1, bits2))
        expect = Fraction(int(woven, 2), 2 ** 16)
        lo, hi = join(q1, q2).interval(16)
        assert lo == expect

    def test_deinterleave_recovers(self):
        rng = random.Random(9)
        for _ in range(10):
            q1 = Fraction(rng.randrange(0, 255), 255)
            q2 = Fraction(rng.randrange(0, 511), 511)
            left, right = deinterleave(join(q1, q2))
            la, lb = left.interval(20)
            ra, rb = right.interval(20)
            assert la <= q1 <= lb and lb - la <= Fraction(1, 2 ** 20)
            assert ra <= q2 <= rb and rb - ra <= Fraction(1, 2 ** 20)

    def test_oracle_operands(self):
        j = join(oracle_rational(Fraction(1, 3)), oracle_rational(Fraction(1, 7)))
        left, right = deinterleave(j)
        la, lb = left.interval(16)
        assert la <= Fraction(1, 3) <= lb


class TestNotation:
    def test_named_forms(self):
        assert "10101" in tree_from_notation("full")
        assert find_path_bounded(tree_from_notation("single:11"), 4) == "1100"
        s = tree_from_notation("seeded:7")
        s2 = tree_from_notation("seeded:7")
        probes = ["", "0", "1", "010", "1101"]
        assert [p in s for p in probes] == [p in s2 for p in probes]

    def test_node_list(self):
        T = tree_from_notation("1\n10\n100\n")
        assert find_path_bounded(T, 3) == "100"
        assert "0" not in T

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            tree_from_notation("single:120")
