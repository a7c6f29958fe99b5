"""Properties of the resumable sweep order and the query-major gate.

Three contracts, each against a reference kept here:

- a *warm* :class:`~repro.grid.traversal.SweepOrder` (replayed across
  calls, with or without an ``at_most`` bound) is indistinguishable
  from a cold call — entries, processed cells and counter deltas;
- a query's influence region is always the brute-force threshold set
  ``{c : maxscore(c) >= s}`` over all g^d cells, ``s`` the kth score
  at its last from-scratch computation (``>`` the threshold for a
  threshold query), however solo installs, group installs, k changes,
  eager trims and pause/resume interleave;
- the query-major arrival/expiration gate of TMA, SMA and the
  threshold path decides what the record-major
  ``for record: for qid in cell.influence`` loops of the paper's
  per-cell lists decided — those loops and a per-cell list model live
  on below as the oracle — with the same counters.

The whole file is re-run under the pure-Python batch backend by
:func:`test_python_backend_subprocess`.
"""

from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import MonitorAlgorithm
from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.algorithms.topk_computation import (
    RegionState,
    compute_and_install,
    compute_and_install_group,
)
from repro.core.queries import ConstrainedTopKQuery, ThresholdQuery, TopKQuery
from repro.core.regions import Rectangle
from repro.core.results import ResultEntry
from repro.core.scoring import (
    CallableFunction,
    LinearFunction,
    ProductFunction,
    QuadraticFunction,
)
from repro.core.stats import OpCounters
from repro.core.tuples import RecordFactory
from repro.grid.grid import Grid
from repro.grid.traversal import SweepOrder, compute_top_k

from tests.conftest import rerun_under_python_backend
from tests.integration.test_grouped_parity import influence_map

#: tier-1 is deterministic: the same examples on every run.
PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: attribute values on a coarse lattice, so equal scores, equal
#: maxscores and points on cell boundaries all occur.
LATTICE = [index / 12 for index in range(13)]
WEIGHTS = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]


def draw_function(rng, dims, linear_only=False):
    family = "linear" if linear_only else rng.choice(
        ["linear", "product", "quadratic"]
    )
    if family == "product":
        return ProductFunction(
            [rng.choice([0.0, 0.5, 1.0]) for _ in range(dims)]
        )
    weights = [rng.choice(WEIGHTS) for _ in range(dims)]
    if family == "linear":
        return LinearFunction(weights)
    return QuadraticFunction(weights)


def draw_region(rng, dims):
    lower, upper = [], []
    for _ in range(dims):
        low, high = sorted(rng.sample(LATTICE, 2))
        lower.append(low)
        upper.append(high)
    return Rectangle(tuple(lower), tuple(upper))


class Churn:
    """A grid whose points come and go between calls."""

    def __init__(self, rng, dims, cells):
        self.rng = rng
        self.dims = dims
        self.grid = Grid(dims, cells)
        self.factory = RecordFactory()
        self.live = []

    def step(self):
        rng = self.rng
        for _ in range(rng.randint(0, 12)):
            record = self.factory.make(
                tuple(rng.choice(LATTICE) for _ in range(self.dims))
            )
            self.grid.insert(record)
            self.live.append(record)
        for _ in range(rng.randint(0, min(8, len(self.live)))):
            record = self.live.pop(rng.randrange(len(self.live)))
            self.grid.delete(record)


def fingerprint(outcome):
    return [(entry.score.hex(), entry.rid) for entry in outcome.entries]


def sweep_counts(counters):
    return (
        counters.cells_processed,
        counters.cells_enheaped,
        counters.points_scored,
    )


def kth_score(outcome, k):
    return outcome.entries[-1].score if len(outcome.entries) >= k else None


# ----------------------------------------------------------------------
# Warm order ≡ cold call
# ----------------------------------------------------------------------


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
    constrained=st.booleans(),
)
def test_warm_order_matches_cold_call(rng, dims, cells, constrained):
    churn = Churn(rng, dims, cells)
    function = draw_function(rng, dims)
    region = draw_region(rng, dims) if constrained else None
    order = None
    for _ in range(6):
        churn.step()
        k = rng.choice([1, 2, 5])
        cold_counters, warm_counters = OpCounters(), OpCounters()
        cold = compute_top_k(
            churn.grid, function, k, cold_counters, region=region
        )
        true_kth = kth_score(cold, k)
        if true_kth is None:
            # Underfull: there is no kth score, any bound holds.
            at_most = rng.choice([None, 0.0, float("inf")])
        else:
            at_most = rng.choice(
                [None, true_kth, true_kth + rng.random(), float("inf")]
            )
        warm = compute_top_k(
            churn.grid,
            function,
            k,
            warm_counters,
            region=region,
            order=order,
            at_most=at_most,
        )
        order = warm.order
        assert fingerprint(warm) == fingerprint(cold)
        assert warm.processed == cold.processed
        assert sweep_counts(warm_counters) == sweep_counts(cold_counters)
        # Minimality, by the order itself: processed cells reach the
        # kth score, the next one in the order does not.
        if true_kth is not None:
            reach = len(warm.processed)
            assert all(key >= true_kth for key in order.keys[:reach])
            if order.reaches(reach):
                assert order.keys[reach] < true_kth


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
)
def test_bound_below_the_kth_score_is_still_exact(rng, dims, cells):
    churn = Churn(rng, dims, cells)
    function = draw_function(rng, dims)
    order = SweepOrder(churn.grid, function)
    for _ in range(4):
        churn.step()
        k = rng.choice([1, 3])
        cold = compute_top_k(churn.grid, function, k)
        true_kth = kth_score(cold, k)
        too_low = rng.choice(
            [float("-inf")]
            + ([true_kth - rng.random()] if true_kth is not None else [])
        )
        warm = compute_top_k(
            churn.grid, function, k, order=order, at_most=too_low
        )
        assert fingerprint(warm) == fingerprint(cold)
        assert warm.processed == cold.processed


# ----------------------------------------------------------------------
# Influence regions are brute-force threshold sets
# ----------------------------------------------------------------------


def brute_region(grid, function, threshold, region=None, strict=False):
    """``{c : maxscore(c) >= threshold}`` (``>`` if ``strict``) over all
    g^d cells, clipped to ``region``; no threshold means no region."""
    if threshold is None:
        return set()
    cells = set()
    for coords in product(range(grid.cells_per_axis), repeat=grid.dims):
        if region is None:
            bound = grid.maxscore(coords, function)
        else:
            bound = grid.maxscore_in_region(coords, function, region)
            if bound is None:
                continue
        if bound > threshold or (not strict and bound == threshold):
            cells.add(coords)
    return cells


def found_threshold(outcome, k):
    """The kth score a computation found, -inf while underfull."""
    score = kth_score(outcome, k)
    return float("-inf") if score is None else score


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
    constrained=st.booleans(),
)
def test_influence_region_is_the_brute_threshold_set(
    rng, dims, cells, constrained
):
    churn = Churn(rng, dims, cells)
    function = draw_function(rng, dims, linear_only=True)
    if constrained:
        query = ConstrainedTopKQuery(
            function, 3, constraint=draw_region(rng, dims)
        )
    else:
        query = TopKQuery(function, 3)
    # A partner for group sweeps: same directions, nearby weights.
    partner = RegionState(
        TopKQuery(
            LinearFunction(
                [
                    weight + direction * 0.125
                    for weight, direction in zip(
                        function.weights, function.directions
                    )
                ]
            ),
            2,
        )
    )
    state = RegionState(query)
    region = getattr(query, "constraint", None)
    threshold = None  # s at the last computation; None: no region yet
    for _ in range(10):
        churn.step()
        step = rng.choice(["solo", "solo", "group", "k", "trim", "pause"])
        before, partner_before = state.cells, partner.cells
        counters = OpCounters()
        if step == "k":
            query.k = rng.choice([1, 2, 4, 6])
        elif step == "trim":
            if threshold is not None:
                rise = rng.random() * 2 - 0.5
                state.trim_region(churn.grid, rise, counters)
                threshold = max(threshold, rise)
                assert counters.influence_trim_visits == len(before)
        elif step == "pause":  # unregister, then resume with a new state
            state = RegionState(query)
            threshold = None
        else:
            if step == "group" and not constrained:
                outcome, _ = compute_and_install_group(
                    churn.grid, [state, partner], counters
                )
                assert outcome.order is None
            else:
                outcome = compute_and_install(churn.grid, state, counters)
                assert state.order is outcome.order
            threshold = found_threshold(outcome, query.k)
            assert state.cells == set(outcome.processed)
            assert fingerprint(outcome) == fingerprint(
                compute_top_k(churn.grid, function, query.k, region=region)
            )
        assert state.cells == brute_region(
            churn.grid, function, threshold, region
        )
        if step != "pause":
            # The per-cell lists' accounting: entries gained and lost.
            assert counters.influence_list_updates == len(
                before ^ state.cells
            ) + len(partner_before ^ partner.cells)


def pin_regions(algorithm):
    """Every region of ``algorithm`` against brute enumeration: a
    threshold query's is ``{c : maxscore > t}``, an SMA query's is
    ``{c : maxscore >= s}`` for its frozen gate ``s``, and a TMA
    query's is a threshold set covering every cell that reaches its
    current kth score."""
    grid = algorithm.grid
    # The shared-region table holds exactly the live regions.
    assert len(algorithm.regions) == len(
        {state.cells for state in algorithm._states.values()}
    )
    for state in algorithm._threshold_states.values():
        query = state.query
        assert state.cells == brute_region(
            grid, query.function, query.threshold, strict=True
        )
    for state in algorithm._states.values():
        function, region = state.query.function, state.region
        if isinstance(algorithm, SkybandMonitoringAlgorithm):
            assert state.cells == brute_region(
                grid, function, state.gate[0], region
            )
            continue
        least = min(
            (
                grid.maxscore(coords, function)
                if region is None
                else grid.maxscore_in_region(coords, function, region)
                for coords in state.cells
            ),
            default=None,
        )
        assert state.cells == brute_region(grid, function, least, region)
        assert (
            brute_region(grid, function, state.gate_key()[0], region)
            <= state.cells
        )


# ----------------------------------------------------------------------
# Query-major gate ≡ record-major loops
# ----------------------------------------------------------------------


def cell_lists(*tables):
    """The paper's per-cell influence lists, ``coords -> qids``, as
    the record-major loops read them, rebuilt from the regions."""
    lists = {}
    for table in tables:
        for qid, state in table.items():
            for coords in state.cells:
                lists.setdefault(coords, set()).add(qid)
    return lists


class RecordMajorThresholds(MonitorAlgorithm):
    """The threshold path's former arrival loop (grid algorithms)."""

    def _maintain_thresholds(self, arrived, expired):
        arrivals = self.store.records(arrived)
        states = self._threshold_states
        lists = cell_lists(states)
        for record in arrivals:
            coords = self.grid.coords_of(record.attrs)
            for qid in list(lists.get(coords, ())):
                state = states[qid]
                self.counters.influence_checks += 1
                score = state.query.function.score(record.attrs)
                if score > state.query.threshold:
                    self._touch(qid)
                    state.members[record.rid] = ResultEntry(score, record)
        super()._maintain_thresholds([], expired)


class RecordMajorTma(RecordMajorThresholds, TopKMonitoringAlgorithm):
    """TMA with its former ``for record: for qid`` cycle."""

    def _apply_cycle(self, arrived, expired):
        arrivals = self.store.records(arrived)
        expirations = self.store.records(expired)
        states = self._states
        gate_rose = []
        lists = cell_lists(states)
        for record, cell in zip(arrivals, self.grid.insert_many(arrived)):
            admitted = []
            for qid in lists.get(cell.coords, ()):
                state = states[qid]
                self.counters.influence_checks += 1
                if state.region is not None and not state.region.contains(
                    record.attrs
                ):
                    continue
                key = (state.query.function.score(record.attrs), record.rid)
                if key > state.gate_key():
                    self._touch(qid)
                    admitted.append((state, key))
                    self.counters.top_list_updates += 1
            for state, key in admitted:
                full_before = len(state.top) == state.query.k
                state.admit(key, record)
                if (
                    self.eager_cleanup
                    and full_before
                    and state not in gate_rose
                ):
                    gate_rose.append(state)
        for state in gate_rose:
            state.trim_region(self.grid, state.gate_key()[0], self.counters)
        affected = []
        lists = cell_lists(states)
        for record, cell in zip(expirations, self.grid.delete_many(expired)):
            for qid in lists.get(cell.coords, ()):
                state = states[qid]
                self.counters.influence_checks += 1
                if record.rid in state.member_ids and state not in affected:
                    affected.append(state)
        for state in affected:
            self._recompute(state)


class RecordMajorSma(RecordMajorThresholds, SkybandMonitoringAlgorithm):
    """SMA with its former ``for record: for qid`` cycle."""

    def _apply_cycle(self, arrived, expired):
        arrivals = self.store.records(arrived)
        expirations = self.store.records(expired)
        states = self._states
        lists = cell_lists(states)
        for record, cell in zip(arrivals, self.grid.insert_many(arrived)):
            for qid in lists.get(cell.coords, ()):
                state = states[qid]
                self.counters.influence_checks += 1
                if state.region is not None and not state.region.contains(
                    record.attrs
                ):
                    continue
                score = state.query.function.score(record.attrs)
                if (score, record.rid) > state.gate:
                    self._touch(qid)
                    state.skyband.insert(score, record, self.counters)
        refills = []
        for record, cell in zip(expirations, self.grid.delete_many(expired)):
            for qid in lists.get(cell.coords, ()):
                state = states[qid]
                self.counters.influence_checks += 1
                if record.rid in state.skyband:
                    self._touch(qid)
                    state.skyband.remove_by_rid(record.rid)
                    if (
                        len(state.skyband) < state.query.k
                        and state not in refills
                    ):
                        refills.append(state)
        if self.groups is not None and len(refills) > 1:
            self._refill_grouped(refills)
        else:
            for state in refills:
                self._refill(state)


def draw_queries(rng, dims):
    """One table mixing every family and query kind, so the gate's
    pair-stacked (plain linear) and per-query (everything else)
    branches interleave inside one cycle: the first two queries pin
    one of each, the rest are drawn."""
    base = [rng.choice([0.25, 0.5, 1.0]) for _ in range(dims)]
    kinds = ["similar", "similar", "any", "callable", "region", "threshold"]
    queries = []
    for qid in range(rng.randint(2, 7)):
        kind = ("similar", "callable")[qid] if qid < 2 else rng.choice(kinds)
        k = rng.choice([1, 2, 4])
        if kind == "similar":  # groupable with its like
            query = TopKQuery(
                LinearFunction(
                    [weight + rng.choice([0.0, 0.125]) for weight in base]
                ),
                k,
            )
        elif kind == "any":
            query = TopKQuery(draw_function(rng, dims), k)
        elif kind == "callable":
            query = TopKQuery(
                CallableFunction(
                    lambda *attrs: min(attrs), [1] * dims, label="min"
                ),
                k,
            )
        elif kind == "region":
            query = ConstrainedTopKQuery(
                draw_function(rng, dims), k, constraint=draw_region(rng, dims)
            )
        else:
            query = ThresholdQuery(
                rng.choice([LinearFunction(base), draw_function(rng, dims)]),
                rng.random() * sum(base),
            )
        query.qid = qid
        queries.append(query)
    return queries


def clone(query):
    if isinstance(query, ThresholdQuery):
        twin = ThresholdQuery(query.function, query.threshold)
    elif isinstance(query, ConstrainedTopKQuery):
        twin = ConstrainedTopKQuery(
            query.function, query.k, constraint=query.constraint
        )
    else:
        twin = TopKQuery(query.function, query.k)
    twin.qid = query.qid
    return twin


def results_of(algorithm, queries):
    return {
        query.qid: [
            (entry.score.hex(), entry.rid)
            for entry in algorithm.current_result(query.qid)
        ]
        for query in queries
    }


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
    family=st.sampled_from(["tma", "tma-eager", "sma"]),
    grouped=st.booleans(),
)
def test_query_major_gate_matches_record_major_loops(
    rng, dims, cells, family, grouped
):
    if family == "sma":
        options = {"grouped": grouped}
        pair = (SkybandMonitoringAlgorithm, RecordMajorSma)
    else:  # TMA has no grouped mode
        options = {"eager_cleanup": family == "tma-eager"}
        pair = (TopKMonitoringAlgorithm, RecordMajorTma)
    subject, oracle = (cls(dims, cells, **options) for cls in pair)
    queries = draw_queries(rng, dims)
    factory = RecordFactory()
    window = []
    for cycle in range(8):
        if cycle == 2:  # queries join a grid that already holds points
            subject.register_many([clone(query) for query in queries])
            oracle.register_many([clone(query) for query in queries])
        if cycle == 4:  # pause and resume one query
            query = rng.choice(queries)
            for algorithm in (subject, oracle):
                algorithm.unregister(query.qid)
                algorithm.register(clone(query))
        if cycle == 5:  # change one top-k query's k in flight
            query = rng.choice(queries)
            if not isinstance(query, ThresholdQuery):
                k = rng.choice([1, 2, 4, 6])
                for algorithm in (subject, oracle):
                    algorithm.update_query(query.qid, k=k)
        arrivals = [
            factory.make(tuple(rng.choice(LATTICE) for _ in range(dims)))
            for _ in range(rng.randint(0, 10))
        ]
        window.extend(arrivals)
        expirations = []
        while len(window) > 25:
            expirations.append(window.pop(0))
        changed = subject.process_cycle(list(arrivals), list(expirations))
        expected = oracle.process_cycle(list(arrivals), list(expirations))
        assert set(changed) == set(expected)
        if cycle < 2:
            continue
        assert results_of(subject, queries) == results_of(oracle, queries)
        assert influence_map(subject) == influence_map(oracle)
        assert subject.counters.snapshot() == oracle.counters.snapshot()
        pin_regions(subject)


# ----------------------------------------------------------------------
# Both backends
# ----------------------------------------------------------------------


def test_python_backend_subprocess():
    """Everything above again under ``REPRO_BATCH_BACKEND=python``."""
    rerun_under_python_backend(__file__)
