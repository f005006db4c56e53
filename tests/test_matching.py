import numpy as np
import pytest

from brokersim import (
    AgentStream,
    brute_force_max_matching,
    fifo_match,
    max_matchable,
)
from oracles import kappa_by_flow, validate_matching


def stream(text):
    return AgentStream.from_pattern(text)


class TestFifo:
    def test_single_seller(self):
        assert fifo_match(stream("SBB")) == ((0, 1),)

    def test_capacity_one_drops_second_seller(self):
        assert len(fifo_match(stream("SSBB"), 1)) == 1

    def test_capacity_two_matches_both(self):
        assert fifo_match(stream("SSBB"), 2) == ((0, 2), (1, 3))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            fifo_match(stream("SB"), 0)

    def test_outputs_validate(self):
        for text in ("SSBBSB", "BSBS", "SSSBBB"):
            for cap in (1, 2, None):
                validate_matching(fifo_match(stream(text), cap), stream(text), cap)


class TestBruteForce:
    def test_trivial(self):
        assert brute_force_max_matching(stream("SB")) == 1

    def test_leading_buyer_unmatchable(self):
        for cap in (1, 2, 3, None):
            assert brute_force_max_matching(stream("BSSB"), cap) == 1

    def test_cut_constraint_binds(self):
        assert brute_force_max_matching(stream("SSBB"), 1) == 1

    def test_length_cap(self):
        with pytest.raises(ValueError):
            brute_force_max_matching(AgentStream.from_pattern("(SB)^11"))


class TestKappa:
    def test_single_seller_many_buyers(self):
        assert max_matchable(AgentStream.from_pattern("S B^4")) == 1
        assert max_matchable(stream("SB")) == 1

    def test_alternating(self):
        assert max_matchable(AgentStream.from_pattern("(SB)^5")) == 5

    def test_buyer_limited(self):
        assert max_matchable(AgentStream.from_pattern("S^3 B^2")) == 2

    def test_unbounded_equals_flow_bound(self, rng):
        for _ in range(50):
            roles = rng.integers(0, 2, size=int(rng.integers(1, 40))).astype(np.uint8)
            s = AgentStream(roles)
            assert max_matchable(s) == kappa_by_flow(s)
            if len(s) <= 20:
                assert brute_force_max_matching(s) == kappa_by_flow(s)

    def test_monotone_in_capacity(self, rng):
        for _ in range(25):
            roles = rng.integers(0, 2, size=20).astype(np.uint8)
            s = AgentStream(roles)
            sizes = [max_matchable(s, k) for k in (1, 2, 3, 4)]
            assert sizes == sorted(sizes)
            assert max_matchable(s) >= sizes[-1]


class TestValidator:
    def test_accepts_valid(self):
        validate_matching(((0, 2), (1, 3)), stream("SSBB"), 2)

    def test_rejects_buyer_before_seller(self):
        with pytest.raises(ValueError):
            validate_matching(((1, 0),), stream("BS"))

    def test_rejects_wrong_roles(self):
        with pytest.raises(ValueError):
            validate_matching(((0, 1),), stream("BS"))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            validate_matching(((0, 2), (0, 3)), stream("SSBB"))

    def test_rejects_cut_violation(self):
        with pytest.raises(ValueError):
            validate_matching(((0, 2), (1, 3)), stream("SSBB"), 1)
