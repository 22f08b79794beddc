"""The four benchmark workloads.

Each workload builds its engine state in :meth:`Workload.setup` (timed:
that is ``setup_s``), then :meth:`Workload.measure` runs a closed loop of
operations for a fixed wall-clock window.  Every operation's result is
checked against an oracle that shares no code with the engine path it
checks; a mismatch or an error counts the operation as failed.
"""

from __future__ import annotations

import time
from collections import defaultdict

import floors
import inputs
from tracer import ROOT_SPAN

from repro import ExecutionConfig, RaSQLContext
from repro.baselines import serial
from repro.core.governor import QueryGovernor
from repro.engine.cluster import Cluster
from repro.queries.library import get_query
from repro.serving import QueryService

#: Simulated workers of every simulated-backend context.
SIM_WORKERS = 4
#: Real worker processes of the process backend.
PROCESS_WORKERS = 2
#: graph-batch times each query's floor FLOOR_REPS times after warm-up,
#: before the measured window, so the window holds engine operations only
#: and the floor sample count does not depend on its length.
FLOOR_REPS = 3


class Recorder:
    """Latency samples per operation kind, plus the failure count."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Wall time of the timed regions (the benchmark's own checks and
        #: floor runs excluded).
        self.busy_s = 0.0

    def record(self, kind: str, seconds: float | None) -> None:
        """One timed operation; ``None`` (it raised) leaves no sample."""
        if seconds is not None:
            self.latencies[kind].append(seconds)
            self.busy_s += seconds

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def _ctx(tables: dict, **kwargs) -> RaSQLContext:
    ctx = RaSQLContext(**kwargs)
    for name, (columns, rows) in tables.items():
        ctx.register_table(name, columns, rows)
    return ctx


def _query_sql(query: str) -> str:
    spec = get_query(query)
    if "{source}" in spec.sql:
        return spec.formatted(source=inputs.SOURCE)
    return spec.sql


def _edge_table(edges: list) -> dict:
    columns = ("Src", "Dst", "Cost") if len(edges[0]) == 3 else ("Src", "Dst")
    return {"edge": (columns, edges)}


def _graph_answer(query: str, rows) -> object:
    """An engine result in the shape its floor returns."""
    if query == "tc":
        return set(rows)
    if query == "cc":
        return rows[0][0] if len(rows) == 1 else None
    if query == "sssp":
        return dict(rows)
    return {row[0] for row in rows}


def _floor(query: str, edges: list):
    if query == "tc":
        return floors.tc(edges)
    if query == "cc":
        return floors.cc(edges)
    if query == "sssp":
        return floors.sssp(edges, inputs.SOURCE)
    return floors.reach(edges, inputs.SOURCE)


class Workload:
    """Base class: subclasses fill in setup, one measured loop, checks."""

    name = ""
    #: Operation kinds, in report order.
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.details: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (idempotent)."""

    def warm(self, rec: Recorder) -> None:
        """Run every operation kind once, untimed, checked."""
        raise NotImplementedError

    def round(self, rec: Recorder, tracer=None) -> None:
        """One round of the closed loop: every kind once (a burst of
        requests on ``serving-mixed``), each inside a root span of
        ``tracer`` when one is given."""
        raise NotImplementedError

    def measure(self, seconds: float, rec: Recorder) -> None:
        """Untraced rounds until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.round(rec)

    def final_check(self, rec: Recorder) -> None:
        """Checks that only make sense once the loop has ended."""

    def clusters(self) -> list:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Summed engine counters over every cluster the workload owns."""
        totals: dict[str, float] = defaultdict(float)
        seen = set()
        for cluster in self.clusters():
            if id(cluster) in seen:
                continue
            seen.add(id(cluster))
            for key, value in cluster.metrics.snapshot().items():
                totals[key] += value
        return totals

    def layer_extras(self, deltas: dict) -> dict[str, float]:
        """Workload-specific per-layer figures from the engine counters'
        ``deltas`` over the traced rounds."""
        return {}


def _timed(tracer, fn, *args):
    """``(result, seconds)``; under a tracer, inside a root span."""
    if tracer is None:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0
    with tracer.span(ROOT_SPAN):
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
    return result, seconds


class GraphBatch(Workload):
    """tc, cc, sssp and reach, round-robin, on warm simulated contexts;
    each query's plain-Python floor is timed after warm-up."""

    name = "graph-batch"
    kinds = ("tc", "cc", "sssp", "reach")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graphs = inputs.graph_inputs(seed)
        self.expected = {q: _floor(q, self.graphs[q]) for q in self.kinds}
        self.sql = {q: _query_sql(q) for q in self.kinds}
        self.floor_latencies: dict[str, list[float]] = defaultdict(list)
        self.ctxs: dict[str, RaSQLContext] = {}
        self.details["inputs"] = {
            q: {"nodes": len({v for e in self.graphs[q] for v in e[:2]}),
                "edges": len(self.graphs[q])} for q in self.kinds}

    def setup(self) -> None:
        self.ctxs = {q: _ctx(_edge_table(self.graphs[q]),
                             num_workers=SIM_WORKERS) for q in self.kinds}

    def clusters(self) -> list:
        return [ctx.cluster for ctx in self.ctxs.values()]

    def _run(self, query: str, rec: Recorder, tracer=None) -> float | None:
        try:
            result, seconds = _timed(tracer, self.ctxs[query].sql,
                                     self.sql[query])
        except Exception as exc:  # a failed operation is a result
            rec.check(False, f"{query}: {exc!r}")
            return None
        rec.check(_graph_answer(query, result.rows) == self.expected[query],
                  f"{query}: result differs from the floor")
        return seconds

    def warm(self, rec: Recorder) -> None:
        for query in self.kinds:
            self._run(query, rec)
        for _ in range(FLOOR_REPS):
            for query in self.kinds:
                t0 = time.perf_counter()
                _floor(query, self.graphs[query])
                self.floor_latencies[query].append(time.perf_counter() - t0)

    def round(self, rec: Recorder, tracer=None) -> None:
        for query in self.kinds:
            rec.record(query, self._run(query, rec, tracer))


class ProcessBackend(GraphBatch):
    """cc, sssp and tc on the graph-batch inputs, on a real 2-process
    worker pool, each result also checked against the simulated run."""

    name = "process-backend"
    kinds = ("tc", "cc", "sssp")
    CONFIG = ExecutionConfig(backend="process")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cluster = None
        self.simulated = {}
        for query in self.kinds:
            ctx = _ctx(_edge_table(self.graphs[query]),
                       num_workers=PROCESS_WORKERS)
            self.simulated[query] = sorted(ctx.sql(self.sql[query]).rows)

    def setup(self) -> None:
        # One pool serves all three contexts: the config is passed at
        # context construction, and the shared cluster carries the backend.
        self.cluster = Cluster(num_workers=PROCESS_WORKERS, backend="process")
        self.cluster.backend.remote_ready()  # spawns the pool
        self.ctxs = {q: _ctx(_edge_table(self.graphs[q]), config=self.CONFIG,
                             cluster=self.cluster) for q in self.kinds}

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None

    def clusters(self) -> list:
        return [self.cluster]

    def _run(self, query: str, rec: Recorder, tracer=None) -> float | None:
        metrics = self.cluster.metrics
        shipped = metrics.get("process_tasks_shipped")
        degraded = metrics.get("process_backend_degradations")
        try:
            result, seconds = _timed(tracer, self.ctxs[query].sql,
                                     self.sql[query])
        except Exception as exc:
            rec.check(False, f"{query}: {exc!r}")
            return None
        rows = result.rows
        checks = (
            (self.cluster.backend.remote_ready(), "pool not remote-ready"),
            (metrics.get("process_tasks_shipped") > shipped,
             "no task shipped to a worker"),
            (metrics.get("process_backend_degradations") == degraded,
             "backend degraded to simulated"),
            (sorted(rows) == self.simulated[query],
             "rows differ from the simulated backend"),
            (_graph_answer(query, rows) == self.expected[query],
             "result differs from the floor"),
        )
        failed = [why for ok, why in checks if not ok]
        rec.check(not failed, f"{query}: {'; '.join(failed)}")
        return seconds

    def warm(self, rec: Recorder) -> None:
        for query in self.kinds:
            self._run(query, rec)


#: The library's small queries, in the order the loop runs them.
LIBRARY = ("cc_labels", "count_paths", "apsp", "same_generation", "bom",
           "bom_stratified", "management", "mlm_bonus", "interval_coalesce",
           "party_attendance", "company_control")


def _library_oracle(query: str, tables: dict):
    """``(expected, normalize)``: the oracle's answer and a function that
    maps engine rows to the same shape."""
    rows = {name: table_rows for name, (_, table_rows) in tables.items()}
    by_key = dict
    if query == "cc_labels":
        return serial.connected_components(rows["edge"]), by_key
    if query == "count_paths":
        counts = serial.count_paths(rows["edge"], inputs.SOURCE)
        return {k: v for k, v in counts.items() if v}, by_key
    if query == "apsp":
        return serial.apsp(rows["edge"]), (
            lambda rs: {(a, b): c for a, b, c in rs})
    if query == "same_generation":
        return floors.same_generation(rows["rel"]), set
    if query in ("bom", "bom_stratified"):
        return serial.bom_waitfor(rows["assbl"], rows["basic"]), by_key
    if query == "management":
        return serial.management_counts(rows["report"]), by_key
    if query == "mlm_bonus":
        return _rounded(serial.mlm_bonus(rows["sales"], rows["sponsor"])), (
            lambda rs: _rounded(dict(rs)))
    if query == "interval_coalesce":
        return serial.coalesce_intervals(rows["inter"]), sorted
    if query == "party_attendance":
        organizers = [row[0] for row in rows["organizer"]]
        return serial.party_attendance(organizers, rows["friend"]), (
            lambda rs: {r[0] for r in rs})
    if query == "company_control":
        return _rounded(serial.company_control(rows["shares"])), (
            lambda rs: _rounded({(a, b): t for a, b, t in rs}))
    raise KeyError(query)


def _rounded(mapping: dict) -> dict:
    """Float sums compared to 9 significant digits: the engine and the
    oracle add the same terms in different orders."""
    return {k: float(f"{v:.9g}") for k, v in mapping.items()}


class LibraryMix(Workload):
    """The 11 small library queries, each a fresh ``ctx.sql`` on its own
    warm context; per-query fixed costs dominate here."""

    name = "library-mix"
    kinds = LIBRARY

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tables = inputs.library_tables(seed)
        self.sql = {q: _query_sql(q) for q in self.kinds}
        self.oracles = {q: _library_oracle(q, self.tables[q])
                        for q in self.kinds}
        self.ctxs: dict[str, RaSQLContext] = {}
        self.details["inputs"] = {
            q: {name: len(rows) for name, (_, rows) in self.tables[q].items()}
            for q in self.kinds}

    def setup(self) -> None:
        self.ctxs = {q: _ctx(self.tables[q], num_workers=SIM_WORKERS)
                     for q in self.kinds}

    def clusters(self) -> list:
        return [ctx.cluster for ctx in self.ctxs.values()]

    def _run(self, query: str, rec: Recorder, tracer=None) -> float | None:
        try:
            result, seconds = _timed(tracer, self.ctxs[query].sql,
                                     self.sql[query])
        except Exception as exc:
            rec.check(False, f"{query}: {exc!r}")
            return None
        expected, normalize = self.oracles[query]
        rec.check(normalize(result.rows) == expected,
                  f"{query}: result differs from the oracle")
        return seconds

    def warm(self, rec: Recorder) -> None:
        for query in self.kinds:
            self._run(query, rec)

    def round(self, rec: Recorder, tracer=None) -> None:
        for query in self.kinds:
            rec.record(query, self._run(query, rec, tracer))


#: Served view and statements of the serving workload.
VIEW = "dist"
HOT_SQL = ("SELECT count(*) FROM edge",
           get_query("reach").formatted(source=inputs.SOURCE),
           get_query("sssp").formatted(source=inputs.SOURCE))
#: Governor capacity: running slots and queue places.  A burst fills both.
MAX_CONCURRENT, MAX_QUEUE = 4, 8


class ServingMixed(Workload):
    """A seeded request stream through the public session API of one
    ``QueryService``: served-view reads, hot and pooled SQL, inserts."""

    name = "serving-mixed"
    kinds = ("view_read", "sql", "insert")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.edges = inputs.rmat(inputs.SERVING_NODES, seed, weighted=True)
        self.ops = inputs.serving_ops(seed, self.edges)
        self.next_op = 0
        self.inserted: list[list[tuple]] = []  # inserts in execution order
        self._expected: dict = {}
        self.service = None
        self.details["inputs"] = {"nodes": inputs.SERVING_NODES,
                                  "edges": len(self.edges),
                                  "ops_generated": len(self.ops)}

    def setup(self) -> None:
        ctx = RaSQLContext(num_workers=SIM_WORKERS)
        ctx.governor = QueryGovernor(max_concurrent=MAX_CONCURRENT,
                                     max_queue=MAX_QUEUE, metrics=ctx.metrics)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], self.edges)
        self.service = QueryService(ctx, scheduler="seeded", seed=self.seed)
        self.service.create_view(VIEW, HOT_SQL[2])
        self.next_op = 0
        self.inserted = []

    def clusters(self) -> list:
        return [self.service.ctx.cluster]

    # -- oracle ---------------------------------------------------------

    def _answer(self, statement, version: int):
        """The oracle's answer to ``statement`` after ``version`` inserts."""
        key = (statement, version)
        if key not in self._expected:
            edges = self.edges + [edge for rows in self.inserted[:version]
                                  for edge in rows]
            plain = [edge[:2] for edge in edges]
            if statement == VIEW or statement == ("hot", 2):
                value = floors.sssp(edges, inputs.SOURCE)
            elif statement == ("hot", 0):
                value = len(edges)
            elif statement == ("hot", 1):
                value = floors.reach(plain, inputs.SOURCE)
            else:
                value = floors.reach(plain, statement[1])
            self._expected[key] = value
        return self._expected[key]

    @staticmethod
    def _shape(statement, rows):
        if statement == VIEW or statement == ("hot", 2):
            return dict(rows)
        if statement == ("hot", 0):
            return rows[0][0]
        return {row[0] for row in rows}

    def _verify(self, kind, payload, future, version: int, rec) -> None:
        if not future.ok:
            rec.check(False, f"{kind}: {future.error!r}")
            return
        if kind == "insert":
            rec.check(future.value == len(payload),
                      "insert: rows not appended")
            return
        statement = VIEW if kind == "view_read" else payload
        got = self._shape(statement, future.value.rows)
        rec.check(got == self._answer(statement, version),
                  f"{kind} {statement}: result differs from the floor")

    # -- the loop -------------------------------------------------------

    def _submit(self, op):
        client, kind, payload = op
        session = self.service.session(client)
        if kind == "view_read":
            return session.read_view(VIEW)
        if kind == "sql":
            tag, arg = payload
            sql = (HOT_SQL[arg] if tag == "hot"
                   else get_query("reach").formatted(source=arg))
            return session.sql(sql)
        return session.insert("edge", payload)

    def _burst(self, rec: Recorder, tracer=None) -> None:
        ops = self.ops[self.next_op:self.next_op + MAX_CONCURRENT + MAX_QUEUE]
        self.next_op += len(ops)
        if not ops:
            raise RuntimeError("serving op stream exhausted")
        submitted, done = {}, {}
        version_at = {}
        applied = 0  # inserts executed so far in this burst

        def run():
            nonlocal applied
            futures = []
            for op in ops:
                t0 = time.perf_counter()
                future = self._submit(op)
                submitted[future.request_id] = t0
                futures.append(future)
                if future.done:  # rejected at admission
                    done[future.request_id] = time.perf_counter()
            while True:
                future = self.service.step()
                if future is None:
                    return futures
                done[future.request_id] = time.perf_counter()
                version_at[future.request_id] = len(self.inserted) + applied
                if future.kind == "insert" and future.ok:
                    applied += 1
                    order.append(future.request_id)

        order: list[int] = []
        futures, took = _timed(tracer, run)
        rec.busy_s += took  # requests overlap: the burst is the busy time
        by_id = {f.request_id: (f, op) for f, op in zip(futures, ops)}
        for request_id in order:
            self.inserted.append(by_id[request_id][1][2])
        for future, (_, kind, payload) in zip(futures, ops):
            rid = future.request_id
            rec.latencies[kind].append(done[rid] - submitted[rid])
            self._verify(kind, payload, future, version_at.get(rid, 0), rec)
        # Later bursts run on newer versions only: keep the oracle's cache
        # from growing (and from slowing the collector) over the run.
        current = len(self.inserted)
        self._expected = {key: value for key, value in self._expected.items()
                          if key[1] >= current}

    def warm(self, rec: Recorder) -> None:
        self._burst(rec)

    round = _burst

    def final_check(self, rec: Recorder) -> None:
        """The served view's final state against a fresh recompute."""
        view_rows = dict(self.service.view(VIEW).read().rows)
        fresh = dict(self.service.ctx.sql(HOT_SQL[2]).rows)
        rec.check(view_rows == fresh == self._answer(VIEW, len(self.inserted)),
                  "served view diverged from a fresh recompute")
        self.details["final_view_rows"] = len(view_rows)
        # Repair iterations per insert show how deep maintenance ran.
        self.details["view"] = self.service.view(VIEW).report()
        self.details["inserts"] = len(self.inserted)
        self.details["inserted_edges"] = sum(map(len, self.inserted))

    def layer_extras(self, deltas: dict) -> dict[str, float]:
        def rate(hits: str, misses: str) -> float:
            h, m = deltas.get(hits, 0), deltas.get(misses, 0)
            return h / (h + m) if h + m else 0.0

        reads = deltas.get("serving_view_reads", 0)
        snaps = deltas.get("serving_view_snapshot_hits", 0)
        return {
            "serving.cache.plan_hit_rate":
                rate("plan_cache_hits", "plan_cache_misses"),
            "serving.cache.result_hit_rate":
                rate("result_cache_hits", "result_cache_misses"),
            "serving.views.snapshot_hit_rate": snaps / reads if reads else 0.0,
        }


WORKLOADS = {cls.name: cls for cls in
             (GraphBatch, LibraryMix, ServingMixed, ProcessBackend)}
