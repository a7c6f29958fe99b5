"""Tests for result entries, diffs, and cycle reports."""

from repro.core.results import (
    CycleReport,
    ResultChange,
    ResultEntry,
    diff_results,
    entries_best_first,
    merge_changes,
)
from repro.core.tuples import StreamRecord


def entry(score: float, rid: int) -> ResultEntry:
    return ResultEntry(score, StreamRecord(rid, (score,)))


class TestResultEntry:
    def test_accessors(self):
        item = entry(0.7, 3)
        assert item.score == 0.7
        assert item.rid == 3
        assert item.key == (0.7, 3)

    def test_natural_sort_is_rank_order(self):
        items = [entry(0.5, 1), entry(0.9, 0), entry(0.5, 2)]
        ordered = entries_best_first(items)
        assert [item.rid for item in ordered] == [0, 2, 1]


class TestDiff:
    def test_no_change(self):
        old = [entry(0.9, 1), entry(0.8, 2)]
        change = diff_results(0, old, list(old))
        assert not change.changed
        assert change.added == [] and change.removed == []
        assert change.top == old

    def test_addition_and_removal(self):
        old = [entry(0.9, 1), entry(0.8, 2)]
        new = [entry(0.95, 3), entry(0.9, 1)]
        change = diff_results(5, old, new)
        assert change.qid == 5
        assert [item.rid for item in change.added] == [3]
        assert [item.rid for item in change.removed] == [2]
        assert change.changed
        assert change.top_ids() == [3, 1]

    def test_full_replacement(self):
        old = [entry(0.5, 1)]
        new = [entry(0.6, 2)]
        change = diff_results(0, old, new)
        assert [item.rid for item in change.added] == [2]
        assert [item.rid for item in change.removed] == [1]

    def test_empty_old(self):
        change = diff_results(0, [], [entry(0.5, 1)])
        assert [item.rid for item in change.added] == [1]
        assert change.removed == []


def replay(state, change):
    state = {item.rid: item for item in state}
    for item in change.removed:
        state.pop(item.rid)
    for item in change.added:
        state[item.rid] = item
    return entries_best_first(list(state.values()))


class TestRescoredDiff:
    """A new preference function moves the scores of records that stay
    in the result: matched by rid, the change would carry nothing."""

    old = [entry(0.9, 1), entry(0.8, 2)]
    new = [ResultEntry(1.5, old[1].record), ResultEntry(0.4, old[0].record)]

    def test_rid_matching_misses_a_rescoring(self):
        assert not diff_results(0, self.old, self.new).changed

    def test_a_moved_score_leaves_and_enters(self):
        change = diff_results(0, self.old, self.new, rescored=True)
        assert change.added == self.new
        assert change.removed == self.old
        assert replay(self.old, change) == self.new

    def test_unmoved_entries_stay_out_of_the_change(self):
        new = [entry(0.95, 3), self.old[0]]
        change = diff_results(0, self.old, new, rescored=True)
        assert [item.rid for item in change.added] == [3]
        assert [item.rid for item in change.removed] == [2]

    def test_a_merge_over_a_rescoring_replays_exactly(self):
        update = diff_results(0, self.old, self.new, "update", rescored=True)
        later = [entry(2.0, 4), self.new[0]]
        cycle = diff_results(0, self.new, later)
        merged = merge_changes(update, cycle)
        assert merged.cause == "resync"
        assert replay(self.old, merged) == later


class TestCycleReport:
    def test_changed_queries(self):
        report = CycleReport(
            timestamp=1.0,
            arrivals=2,
            expirations=2,
            changes={
                0: ResultChange(qid=0, added=[entry(0.5, 1)]),
                1: ResultChange(qid=1),
            },
        )
        assert report.changed_queries() == [0]
        assert report.result_of(1) == []
