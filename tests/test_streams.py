import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from brokersim import (
    BUYER,
    SELLER,
    AgentStream,
    SpecParseError,
    StreamPattern,
    enumerate_alpha_balanced,
    expand,
    is_alpha_balanced,
    parse_pattern,
    random_alpha_balanced,
)
from brokersim.streams import MAX_NESTING
from oracles import prefix_dominates


class TestParsePattern:
    @pytest.mark.parametrize(
        "text,expanded",
        [
            ("S B^3", "SBBB"),
            ("(S^2 B)^2", "SSBSSB"),
            ("S^0 B", "B"),
            ("SB^4", "SBBBB"),
            ("(SB)^2", "SBSB"),
        ],
    )
    def test_expansion(self, text, expanded):
        assert AgentStream.from_pattern(text).text == expanded

    def test_counts(self):
        s = AgentStream.from_pattern("S^500 B^500")
        assert (s.n_S, s.n_B, len(s)) == (500, 500, 1000)

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "S^", "( S", ")S", "S^-1", "Q", "(SB)", "S B^", "((S)^2", "S^²", "S^٣", "S^３"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SpecParseError):
            parse_pattern(bad)

    def test_errors_carry_position(self):
        with pytest.raises(SpecParseError) as err:
            parse_pattern("SB)X")
        assert "position 2" in str(err.value)
        # counts are ASCII digits: str.isdigit would take these, and int() reads two of them
        for text in ("S^²", "S^٣", "S^３"):
            with pytest.raises(SpecParseError, match="expected repetition count at position 2"):
                parse_pattern(text)

    def test_overflow_rejected(self):
        with pytest.raises(SpecParseError):
            parse_pattern("S^200000000")
        with pytest.raises(SpecParseError):
            parse_pattern("(S^100000)^1001")

    def test_at_cap_is_fine(self):
        assert parse_pattern("S^100000000").length() == 10**8

    def test_cap_applies_to_the_root_only(self):
        # the group alone would be 2 x 10^8 roles, but it repeats 0 times
        assert AgentStream.from_pattern("(S^200000000)^0 SB").text == "SB"

    def test_zero_count_group_is_never_built(self):
        pattern = parse_pattern("(S^10000000 S^10000000 S^10000000 S^10000000)^0 SB")
        tracemalloc.start()
        try:
            s = expand(pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.text == "SB"
        assert peak < 1024 * 1024

    def test_groups_are_patterns(self):
        ((group, count),) = parse_pattern("(S^2 B)^3").parts
        assert group == StreamPattern(((SELLER, 2), (BUYER, 1)))
        assert count == 3

    def test_nesting_at_the_limit_is_fine(self):
        text = "(" * MAX_NESTING + "S" + ")^1" * MAX_NESTING
        pattern = parse_pattern(text)
        assert expand(pattern).text == "S"
        node = pattern
        for _ in range(MAX_NESTING):
            ((node, count),) = node.parts
            assert isinstance(node, StreamPattern) and count == 1
        assert node == StreamPattern(((SELLER, 1),))

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 1200])
    def test_nesting_past_the_limit_is_a_parse_error(self, levels):
        with pytest.raises(SpecParseError, match=f"nest deeper than {MAX_NESTING} levels at position {MAX_NESTING}"):
            parse_pattern("(" * levels + "S" + ")^1" * levels)


class TestAlphaBalance:
    def test_examples_alpha_1(self):
        assert is_alpha_balanced(AgentStream.from_pattern("SBSSBSBB"), 1)
        assert not is_alpha_balanced(AgentStream.from_pattern("SBBSSB"), 1)

    def test_examples_alpha_2(self):
        assert is_alpha_balanced(AgentStream.from_pattern("SSSBSB"), 2)
        assert not is_alpha_balanced(AgentStream.from_pattern("SSBSBSSSB"), 2)

    def test_count_mismatch_fails(self):
        assert not is_alpha_balanced(AgentStream.from_pattern("SSB"), 1)

    def test_blocks_are_balanced(self):
        for alpha in range(1, 5):
            for m in range(1, 101):
                s = AgentStream.from_pattern(f"(S^{alpha} B)^{m}")
                assert is_alpha_balanced(s, alpha)

    def test_huge_alpha_compares_counts_first(self):
        # no int64 walk is built for an alpha it cannot hold
        assert is_alpha_balanced(AgentStream(np.zeros(0, dtype=np.uint8)), 2**70)
        assert not is_alpha_balanced(AgentStream.from_pattern("SB"), 2**70)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            is_alpha_balanced(AgentStream.from_pattern("SB"), 0)


class TestPrefixDominates:
    def test_basic(self):
        assert prefix_dominates(AgentStream.from_pattern("SSBB"), AgentStream.from_pattern("SBSB"))
        assert not prefix_dominates(AgentStream.from_pattern("SBSB"), AgentStream.from_pattern("SSBB"))

    def test_incomparable_pair(self):
        a = AgentStream.from_pattern("SSBBSB")
        b = AgentStream.from_pattern("SBSSBB")
        assert not prefix_dominates(a, b)
        assert not prefix_dominates(b, a)

    def test_reflexive(self):
        s = AgentStream.from_pattern("SBSB")
        assert prefix_dominates(s, s)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prefix_dominates(AgentStream.from_pattern("SB"), AgentStream.from_pattern("SBB"))

    def test_block_pattern_is_bottom_element(self, rng):
        for alpha in (1, 2, 3):
            for m in (3, 7, 20):
                bottom = AgentStream.from_pattern(f"(S^{alpha} B)^{m}")
                for _ in range(10):
                    s = random_alpha_balanced(alpha, m, rng)
                    assert prefix_dominates(s, bottom)


class TestGenerators:
    def test_random_balanced_is_balanced(self, rng):
        for alpha, m in [(1, 12), (2, 8), (3, 5)]:
            s = random_alpha_balanced(alpha, m, rng)
            assert is_alpha_balanced(s, alpha)
            assert (s.n_S, s.n_B) == (alpha * m, m)

    def test_random_balanced_empty(self, rng):
        assert len(random_alpha_balanced(2, 0, rng)) == 0

    @pytest.mark.parametrize("alpha,m", [(2**70, 0), (2**70, 1), (1, 10**8)])
    def test_random_balanced_answers_before_any_draw(self, alpha, m):
        # no buyer is the empty stream for any alpha; past the role cap, a ValueError names it
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        if m == 0:
            assert len(random_alpha_balanced(alpha, m, rng)) == 0
        else:
            with pytest.raises(ValueError, match="MAX_EXPANSION"):
                random_alpha_balanced(alpha, m, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("alpha,m,draws", [(1, 5, 8400), (2, 3, 6000)])
    def test_random_balanced_is_uniform(self, alpha, m, draws):
        # 42 and 12 streams, 200 and 500 expected hits each; the p-value
        # floor of 1e-3 was fixed before the first run
        support = [s.text for s in enumerate_alpha_balanced(alpha, m)]
        counts = dict.fromkeys(support, 0)
        rng = np.random.default_rng(9001)
        for _ in range(draws):
            counts[random_alpha_balanced(alpha, m, rng).text] += 1
        assert len(counts) == len(support)
        assert chisquare(list(counts.values())).pvalue > 1e-3

    def test_enumeration_counts_match_catalan_numbers(self):
        # alpha=1 -> Catalan; alpha=2 -> Fuss-Catalan C(3m, m)/(2m+1)
        catalan = [1, 2, 5, 14, 42, 132]
        for m, want in enumerate(catalan, start=1):
            assert sum(1 for _ in enumerate_alpha_balanced(1, m)) == want
        fuss = [1, 3, 12, 55]
        for m, want in enumerate(fuss, start=1):
            assert sum(1 for _ in enumerate_alpha_balanced(2, m)) == want

    def test_enumeration_yields_balanced_unique(self):
        seen = set()
        for s in enumerate_alpha_balanced(2, 3):
            assert is_alpha_balanced(s, 2)
            seen.add(s.text)
        assert len(seen) == 12


class TestAgentStream:
    def test_from_pattern_rejects_bad_chars(self):
        with pytest.raises(SpecParseError):
            AgentStream.from_pattern("SBX")

    def test_roles_are_read_only(self):
        s = AgentStream.from_pattern("SB")
        with pytest.raises(ValueError):
            s.roles[0] = 1

    def test_equality_and_hash(self):
        a = AgentStream.from_pattern("SBB")
        b = AgentStream.from_pattern("S B^2")
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "roles",
        # the last three were cast to uint8 before the check: 256 wraps to 0, 0.5 and 1.9 truncate
        [np.array([0, 2], dtype=np.uint8), np.array([256, 1]), np.array([0.5, 1.0]), np.array([1.9, 0])],
        ids=["2", "256", "0.5", "1.9"],
    )
    def test_rejects_bad_role_values(self, roles):
        with pytest.raises(ValueError):
            AgentStream(roles)

    def test_bool_roles_are_accepted(self):
        assert AgentStream(np.array([False, True])).text == "SB"
