import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cga.tree import TreeParams, VertexSet, pair_height, pairs_at_height
from util import ancestor_walk_distance, digit_height

P23 = TreeParams(2, 3, 2.0)


class TestTreeParams:
    def test_n_is_exact_power(self):
        assert TreeParams(2, 3, 2.0).n == 8
        assert TreeParams(3, 4, 1.5).n == 81

    @pytest.mark.parametrize(
        "b,H,c",
        [(1, 3, 2.0), (0, 3, 2.0), (2, 0, 2.0), (2, 3, 1.0), (2, 3, 0.5), (2, 3, float("inf"))],
    )
    def test_rejects_bad_params(self, b, H, c):
        with pytest.raises(ValueError):
            TreeParams(b, H, c)

    def test_64bit_boundary(self):
        # n = 2**64 exceeds the 64-bit range by one
        with pytest.raises(ValueError):
            TreeParams(2, 64, 2.0)
        assert TreeParams(2, 63, 2.0).n == 2**63
        # an outsized height is refused without building b**H
        with pytest.raises(ValueError):
            TreeParams(2, 2**40, 2.0)


class TestPairHeight:
    @pytest.mark.parametrize("u,v,h", [(0, 1, 1), (0, 3, 2), (0, 4, 3), (6, 7, 1), (3, 4, 3)])
    def test_examples_b2h3(self, u, v, h):
        assert pair_height(u, v, P23) == h
        assert pair_height(v, u, P23) == h

    def test_identical_leaves_rejected(self):
        with pytest.raises(ValueError):
            pair_height(3, 3, P23)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pair_height(0, 8, P23)
        with pytest.raises(ValueError):
            pair_height(-1, 2, P23)

    @given(
        b=st.integers(2, 5),
        H=st.integers(1, 5),
        data=st.data(),
    )
    def test_matches_digit_string_oracle(self, b, H, data):
        p = TreeParams(b, H, 2.0)
        u = data.draw(st.integers(0, p.n - 1))
        v = data.draw(st.integers(0, p.n - 1))
        if u == v:
            return
        assert pair_height(u, v, p) == digit_height(u, v, b, H)

    @given(b=st.integers(2, 4), H=st.integers(1, 4), data=st.data())
    def test_half_tree_distance(self, b, H, data):
        p = TreeParams(b, H, 2.0)
        u = data.draw(st.integers(0, p.n - 1))
        v = data.draw(st.integers(0, p.n - 1))
        if u == v:
            return
        assert 2 * pair_height(u, v, p) == ancestor_walk_distance(u, v, b, H)

    @pytest.mark.parametrize("b,H", [(2, 6), (4, 3)])
    def test_ultrametric_by_exhaustion(self, b, H):
        p = TreeParams(b, H, 2.0)
        heights = {}
        for u, v in combinations(range(p.n), 2):
            heights[(u, v)] = heights[(v, u)] = pair_height(u, v, p)
        for u, v, w in combinations(range(p.n), 3):
            assert heights[(u, v)] <= max(heights[(u, w)], heights[(w, v)])


def height(members, params=P23) -> int:
    return VertexSet.from_leaves(members, params).height


def enclosing_block(M: VertexSet, h_prime: int, b: int = 2) -> range:
    """S(M, h'): the height-h' subtree holding M.root, by the integer rule
    u // b**h' == M.root // b**h' that the verifier and the scan apply."""
    lo = M.root // b**h_prime * b**h_prime
    return range(lo, lo + b**h_prime)


class TestSetHeight:
    def test_examples(self):
        assert height([0, 1]) == 1
        assert height([5]) == 0
        assert height([0, 5]) == 3

    def test_empty_set_has_height_zero(self):
        M = VertexSet.from_leaves([], P23)
        assert (M.members, M.height, M.root) == ((), 0, 0)

    @given(st.sets(st.integers(0, 7), min_size=1))
    def test_equals_max_pairwise_height(self, members):
        members = sorted(members)
        if len(members) == 1:
            assert height(members) == 0
            return
        expected = max(
            pair_height(u, v, P23) for u, v in combinations(members, 2)
        )
        assert height(members) == expected


class TestEnclosingBlock:
    def test_examples(self):
        assert enclosing_block(VertexSet.from_leaves([0, 1, 2], P23), 2) == range(4)
        assert enclosing_block(VertexSet.from_leaves([6], P23), 1) == range(6, 8)
        assert enclosing_block(VertexSet.from_leaves([0], P23), 3) == range(8)

    @given(st.sets(st.integers(0, 7), min_size=1), st.integers(0, 3))
    def test_holds_m_from_its_height_on(self, members, h_prime):
        M = VertexSet.from_leaves(members, P23)
        S = enclosing_block(M, h_prime)
        assert len(S) == 2**h_prime
        # S(M, h') holds M exactly from the set height on: M is minimal
        assert (set(members) <= set(S)) == (h_prime >= M.height)


class TestOutsiderHeight:
    def test_examples(self):
        M = VertexSet.from_leaves([0, 1], P23)
        assert pair_height(4, M.root, P23) == 3
        assert pair_height(2, M.root, P23) == 2

    @given(st.sets(st.integers(0, 7), min_size=1), st.integers(0, 7))
    def test_one_height_to_every_member_of_s(self, members, u):
        # the region split of event_report and complete_set_scan rests on
        # this: an outsider of S(M) has one pair height to all of it
        M = VertexSet.from_leaves(members, P23)
        S = enclosing_block(M, M.height)
        if u in S:
            return
        heights = {pair_height(u, v, P23) for v in S}
        assert len(heights) == 1
        assert heights.pop() > M.height


class TestPairsAtHeight:
    def test_examples(self):
        p = TreeParams(2, 2, 2.0)
        assert pairs_at_height(1, 2, p) == 2
        assert pairs_at_height(2, 2, p) == 4
        assert sum(pairs_at_height(j, 2, p) for j in (1, 2)) == math.comb(4, 2)

    def test_rejects_out_of_range(self):
        p = TreeParams(2, 3, 2.0)
        with pytest.raises(ValueError):
            pairs_at_height(0, 2, p)
        with pytest.raises(ValueError):
            pairs_at_height(3, 2, p)
        with pytest.raises(ValueError):
            pairs_at_height(2, 4, p)

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
    def test_counting_identity(self, b, h):
        p = TreeParams(b, 6, 2.0)
        total = sum(pairs_at_height(j, h, p) for j in range(1, h + 1))
        assert total == math.comb(b**h, 2)

    @pytest.mark.parametrize("b,h", [(2, 3), (3, 2)])
    def test_matches_exhaustive_pair_census(self, b, h):
        p = TreeParams(b, h, 2.0)
        census = {}
        for u, v in combinations(range(p.n), 2):
            j = pair_height(u, v, p)
            census[j] = census.get(j, 0) + 1
        for j in range(1, h + 1):
            assert pairs_at_height(j, h, p) == census[j]


class TestVertexSet:
    def test_sorts_and_dedupes(self):
        M = VertexSet.from_leaves([5, 1, 5, 3], P23)
        assert M.members == (1, 3, 5)

    def test_cached_height_and_root(self):
        M = VertexSet.from_leaves([4, 6], P23)
        assert M.height == 2
        assert M.root == 4
        assert all(M.root <= v < M.root + 4 for v in M.members)

    def test_is_complete(self):
        assert VertexSet.from_leaves([2, 3], P23).is_complete(P23)
        assert not VertexSet.from_leaves([2, 5], P23).is_complete(P23)
        assert VertexSet.from_leaves([7], P23).is_complete(P23)

    def test_membership(self):
        M = VertexSet.from_leaves([1, 4], P23)
        assert 4 in M and 2 not in M
        assert len(M) == 2
