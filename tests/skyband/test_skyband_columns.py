"""The column skyband against the object-per-entry one it replaced.

:class:`~repro.skyband.skyband.ScoreTimeSkyband` keeps parallel lists
of keys, result entries and dominance counters. The implementation it
replaced — one ``SkybandEntry`` object per member, the dominance loop
spelled out entry by entry — lives on below as the oracle: a
Hypothesis state machine drives both through the same ``insert`` /
``remove_by_rid`` / ``rebuild`` calls and compares everything
observable after every step.

The whole file is re-run under the pure-Python batch backend by
:func:`test_python_backend_subprocess`.
"""

from bisect import bisect_left, bisect_right, insort

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.results import ResultEntry
from repro.core.stats import OpCounters
from repro.core.tuples import MIN_RANK_KEY, StreamRecord
from repro.skyband.skyband import ScoreTimeSkyband

from tests.conftest import rerun_under_python_backend

#: tier-1 is deterministic: the same examples on every run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

#: few distinct scores, so equal scores (rid decides) are common.
SCORES = st.sampled_from([index / 8 for index in range(9)])


class OracleEntry:
    def __init__(self, key, record, dc=0):
        self.key = key
        self.record = record
        self.dc = dc


class OracleSkyband:
    """The skyband as it was: one object per entry, one loop per bump."""

    def __init__(self, k):
        self.k = k
        self.entries = []  # ascending by key

    def keys(self):
        return [entry.key for entry in self.entries]

    def top(self):
        best = self.entries[-self.k :]
        return [(entry.key[0], entry.record) for entry in reversed(best)]

    def kth_key(self):
        if len(self.entries) < self.k:
            return MIN_RANK_KEY
        return self.entries[-self.k].key

    def insert(self, score, record, counters):
        key = (score, record.rid)
        position = bisect_left(self.keys(), key)
        evicted, kept = [], []
        for entry in self.entries[:position]:
            entry.dc += 1
            counters.dominance_updates += 1
            if entry.dc >= self.k:
                evicted.append(entry.record)
            else:
                kept.append(entry)
        self.entries[:position] = kept + [OracleEntry(key, record)]
        counters.skyband_insertions += 1
        counters.skyband_evictions += len(evicted)
        return evicted

    def remove_by_rid(self, rid):
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.record.rid != rid]
        return len(self.entries) < before

    def rebuild(self, best_first, counters):
        seen_rids, rebuilt = [], []
        for result in best_first:
            rid = result.record.rid
            dc = len(seen_rids) - bisect_right(seen_rids, rid)
            insort(seen_rids, rid)
            counters.dominance_updates += 1
            rebuilt.append(OracleEntry((result.score, rid), result.record, dc))
        self.entries = rebuilt[::-1]


def record_of(rid):
    return StreamRecord(rid, (float(rid),))


def best_first_of(pairs):
    """Distinct-rid ``(score, rid)`` pairs as a traversal's entries."""
    return [
        ResultEntry(score, record_of(rid))
        for score, rid in sorted(pairs, reverse=True)
    ]


def assert_same(columns, oracle, counters, oracle_counters):
    columns.validate()
    assert columns._keys == oracle.keys()
    assert len(columns) == len(oracle.entries)
    assert list(columns.dcs().items()) == [
        (entry.record.rid, entry.dc) for entry in oracle.entries
    ]
    assert set(columns.rids()) == {e.record.rid for e in oracle.entries}
    assert columns.kth_key() == oracle.kth_key()
    top = columns.top()
    assert [(entry.score, entry.record) for entry in top] == oracle.top()
    assert all(type(entry) is ResultEntry for entry in top)
    # A caller's list, never internal state: scribbling on it is safe.
    top.clear()
    assert len(columns.top()) == len(oracle.top())
    assert columns.top() is not columns.top()
    for field in ("dominance_updates", "skyband_insertions", "skyband_evictions"):
        assert getattr(counters, field) == getattr(oracle_counters, field)


class SkybandMachine(RuleBasedStateMachine):
    @initialize(k=st.integers(1, 5))
    def start(self, k):
        self.columns = ScoreTimeSkyband(k)
        self.oracle = OracleSkyband(k)
        self.counters = OpCounters()
        self.oracle_counters = OpCounters()
        self.next_rid = 0

    @rule(score=SCORES)
    def insert(self, score):
        record = record_of(self.next_rid)
        self.next_rid += 1
        evicted = self.columns.insert(score, record, self.counters)
        assert evicted == self.oracle.insert(
            score, record, self.oracle_counters
        )
        assert record.rid in self.columns

    @rule(data=st.data())
    def remove(self, data):
        # Mostly a member (any, not only the oldest), sometimes a stranger.
        rid = data.draw(st.integers(0, self.next_rid + 1))
        assert self.columns.remove_by_rid(rid) == self.oracle.remove_by_rid(rid)
        assert rid not in self.columns

    @rule(data=st.data())
    def rebuild(self, data):
        rids = data.draw(
            st.lists(
                st.integers(0, self.next_rid + 3),
                unique=True,
                max_size=self.columns.k,
            )
        )
        entries = best_first_of(
            [(data.draw(SCORES), rid) for rid in rids]
        )
        self.next_rid = max([self.next_rid] + [rid + 1 for rid in rids])
        handed = list(entries)
        self.columns.rebuild(entries, self.counters)
        self.oracle.rebuild(entries, self.oracle_counters)
        assert entries == handed  # the caller's list is the caller's
        assert all(a is b for a, b in zip(self.columns.top(), entries))

    @invariant()
    def same_as_oracle(self):
        if hasattr(self, "columns"):
            assert_same(
                self.columns, self.oracle, self.counters, self.oracle_counters
            )


SkybandMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None, derandomize=True
)
test_columns_match_the_object_skyband = SkybandMachine.TestCase


@PROPERTY
@given(
    k=st.integers(1, 5),
    scores=st.lists(SCORES, max_size=5),
    later=st.lists(st.tuples(st.booleans(), SCORES), max_size=12),
)
def test_skybands_rebuilt_from_one_outcome_diverge(k, scores, later):
    """Outcomes are aliased between the members of a weight class: two
    skybands take the same entry list and then live their own lives."""
    shared = best_first_of(list(zip(scores[:k], range(len(scores)))))
    handed = list(shared)
    pairs = []
    for _ in range(2):
        columns, oracle = ScoreTimeSkyband(k), OracleSkyband(k)
        counters, oracle_counters = OpCounters(), OpCounters()
        columns.rebuild(shared, counters)
        oracle.rebuild(shared, oracle_counters)
        pairs.append((columns, oracle, counters, oracle_counters))
    next_rid = len(scores)
    for first, score in later:
        columns, oracle, counters, oracle_counters = pairs[0 if first else 1]
        record = record_of(next_rid)
        next_rid += 1
        assert columns.insert(score, record, counters) == oracle.insert(
            score, record, oracle_counters
        )
        if len(columns) > 1:
            oldest = min(columns.rids())
            assert columns.remove_by_rid(oldest)
            assert oracle.remove_by_rid(oldest)
        for pair in pairs:
            assert_same(*pair)
    assert shared == handed


def test_python_backend_subprocess():
    rerun_under_python_backend(__file__)
