"""Tests for the score–time k-skyband with dominance counters.

Replays the paper's Figure 10 worked example and checks the structure
against a brute-force dominance oracle on random inputs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import ResultEntry
from repro.core.tuples import StreamRecord
from repro.skyband.skyband import ScoreTimeSkyband


def rec(rid: int, score: float = 0.0) -> StreamRecord:
    return StreamRecord(rid, (score,))


class TestPaperFigure10:
    """Figure 10's worked example, replayed exactly.

    The paper's state at time 0: a top-2 query's skyband contains
    p2, p3, p5, p7 with dominance counters p2:0, p3:1, p5:0, p7:1, and
    the top-2 result is {p2, p3}. Then p9 arrives, expiring after all
    other records, with score below p2 but above p3/p5/p7: the
    counters of p5, p3, p7 each increase by one, p3 and p7 hit DC=2
    and leave the 2-skyband, which becomes {p2, p9, p5} with the new
    top-2 {p2, p9}. After p2 expires the result is {p5, p9}.

    Arrival order equals expiration order (footnote 4), so rids encode
    the time axis. The constraints pin the arrival order to
    p3 → p7 → p2 → p5 (→ p9) and the score order to
    p2 > p9 > p3 > p7 > p5.
    """

    SCORES = {"p2": 0.9, "p3": 0.6, "p7": 0.5, "p5": 0.4, "p9": 0.8}
    RIDS = {"p3": 1, "p7": 2, "p2": 3, "p5": 4, "p9": 5}

    def build(self):
        skyband = ScoreTimeSkyband(k=2)
        for name in ("p3", "p7", "p2", "p5"):  # arrival order
            skyband.insert(
                self.SCORES[name], rec(self.RIDS[name], self.SCORES[name])
            )
        return skyband

    def members(self, skyband):
        inverse = {rid: name for name, rid in self.RIDS.items()}
        return {inverse[rid] for rid in skyband.rids()}

    def test_initial_two_skyband_and_counters(self):
        skyband = self.build()
        assert self.members(skyband) == {"p2", "p3", "p5", "p7"}
        dcs = skyband.dcs()
        assert dcs[self.RIDS["p2"]] == 0
        assert dcs[self.RIDS["p3"]] == 1
        assert dcs[self.RIDS["p5"]] == 0
        assert dcs[self.RIDS["p7"]] == 1

    def test_initial_top2(self):
        skyband = self.build()
        assert [entry.rid for entry in skyband.top()] == [
            self.RIDS["p2"],
            self.RIDS["p3"],
        ]

    def test_p9_arrival_evicts_p3_and_p7(self):
        skyband = self.build()
        evicted = skyband.insert(
            self.SCORES["p9"], rec(self.RIDS["p9"], self.SCORES["p9"])
        )
        assert {record.rid for record in evicted} == {
            self.RIDS["p3"],
            self.RIDS["p7"],
        }
        assert self.members(skyband) == {"p2", "p9", "p5"}
        dcs = skyband.dcs()
        assert dcs[self.RIDS["p5"]] == 1  # "p5.DC = 1"

    def test_top2_after_p9(self):
        skyband = self.build()
        skyband.insert(
            self.SCORES["p9"], rec(self.RIDS["p9"], self.SCORES["p9"])
        )
        assert [entry.rid for entry in skyband.top()] == [
            self.RIDS["p2"],
            self.RIDS["p9"],
        ]

    def test_top2_after_p2_expires(self):
        skyband = self.build()
        skyband.insert(
            self.SCORES["p9"], rec(self.RIDS["p9"], self.SCORES["p9"])
        )
        assert skyband.remove_by_rid(self.RIDS["p2"])
        assert {entry.rid for entry in skyband.top()} == {
            self.RIDS["p5"],
            self.RIDS["p9"],
        }


class TestBasics:
    def test_insert_orders_by_key(self):
        skyband = ScoreTimeSkyband(k=3)
        skyband.insert(0.5, rec(1))
        skyband.insert(0.9, rec(2))
        skyband.insert(0.1, rec(3))
        assert [entry.rid for entry in skyband.top()] == [2, 1, 3]

    def test_contains(self):
        skyband = ScoreTimeSkyband(k=2)
        skyband.insert(0.5, rec(1))
        assert 1 in skyband
        assert 2 not in skyband

    def test_score_tie_dominance(self):
        # Same score, later arrival dominates: k=1 evicts the older.
        skyband = ScoreTimeSkyband(k=1)
        skyband.insert(0.5, rec(1))
        evicted = skyband.insert(0.5, rec(2))
        assert [record.rid for record in evicted] == [1]
        assert [entry.rid for entry in skyband.top()] == [2]

    def test_kth_key_underfull(self):
        skyband = ScoreTimeSkyband(k=3)
        skyband.insert(0.5, rec(1))
        assert skyband.kth_key() == (float("-inf"), -1)

    def test_kth_key_full(self):
        skyband = ScoreTimeSkyband(k=2)
        skyband.insert(0.5, rec(1))
        skyband.insert(0.9, rec(2))
        assert skyband.kth_key() == (0.5, 1)

    def test_remove_missing_is_noop(self):
        skyband = ScoreTimeSkyband(k=2)
        assert skyband.remove_by_rid(42) is False

    def test_eviction_at_dc_k(self):
        skyband = ScoreTimeSkyband(k=2)
        skyband.insert(0.1, rec(1))
        skyband.insert(0.5, rec(2))  # dominates 1 -> dc(1)=1
        evicted = skyband.insert(0.6, rec(3))  # dc(1)=2 -> evicted
        assert [record.rid for record in evicted] == [1]
        skyband.validate()

    def test_rebuild_computes_dcs(self):
        skyband = ScoreTimeSkyband(k=3)
        # Best-first entries; arrival order: 5 newest ... 1 oldest.
        entries = [
            ResultEntry(0.9, rec(2)),
            ResultEntry(0.8, rec(5)),
            ResultEntry(0.7, rec(1)),
            ResultEntry(0.6, rec(4)),
        ]
        skyband.rebuild(entries)
        dcs = skyband.dcs()
        # rid 2: nothing above it -> 0
        # rid 5: above it only rid 2 (arrived before 5? 2 < 5 -> no) -> 0
        # rid 1: above it rid 2 (2 > 1: later) and rid 5 (later) -> 2
        # rid 4: above it rids 2,5,1; later arrivals: 5 -> 1
        assert dcs == {2: 0, 5: 0, 1: 2, 4: 1}
        skyband.validate()


class TestOracle:
    @staticmethod
    def oracle_members(inserted, k):
        """Brute-force k-skyband over (score, rid) dominance."""
        members = []
        for score, rid in inserted:
            dominators = sum(
                1
                for other_score, other_rid in inserted
                if (other_score, other_rid) > (score, rid) and other_rid > rid
            )
            if dominators < k:
                members.append(rid)
        return set(members)

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(
            st.integers(0, 9), min_size=1, max_size=40
        ),
        k=st.integers(1, 4),
    )
    def test_matches_dominance_oracle(self, scores, k):
        skyband = ScoreTimeSkyband(k=k)
        inserted = []
        for rid, score_int in enumerate(scores):
            score = score_int / 10.0
            skyband.insert(score, rec(rid, score))
            inserted.append((score, rid))
        skyband.validate()
        got = set(skyband.rids())
        assert got == self.oracle_members(inserted, k)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.integers(0, 11), min_size=1, max_size=60),
        k=st.integers(1, 3),
    )
    def test_with_fifo_expirations_is_exact(self, ops, k):
        """Interleaved FIFO expirations: skyband == exact k-skyband.

        Without an admission gate every arrival is inserted, and a
        record's dominators all arrive after it — hence, under FIFO
        expiry, outlive it. So a member's DC always equals its number
        of *live* dominators and the structure tracks the k-skyband of
        the live set exactly.
        """
        skyband = ScoreTimeSkyband(k=k)
        live = []  # (score, rid) in arrival order
        next_rid = 0
        for op in ops:
            if op == 11 and live:
                _, rid = live.pop(0)
                skyband.remove_by_rid(rid)
            else:
                score = op / 12.0
                skyband.insert(score, rec(next_rid, score))
                live.append((score, next_rid))
                next_rid += 1
            skyband.validate()
        got = set(skyband.rids())
        expected = {
            rid
            for score, rid in live
            if sum(
                1
                for other_score, other_rid in live
                # score-time dominance: at least as good AND expires later
                if other_rid > rid and other_score >= score
            )
            < k
        }
        assert got == expected
