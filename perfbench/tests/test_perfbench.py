"""Self-checks of the benchmark: its oracles, its tracer, its contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import pathlib
import pickle
import random
import shutil
import subprocess
import sys

import pytest

import floors
import inputs
import run as bench
from conftest import BENCH, ROOT
from tracer import LAYERS, Tracer

from repro import RaSQLContext
from repro.baselines import serial
from repro.engine.columnar import ColumnBatch
from repro.queries.library import get_query

SEEDS = (1, 2, 3)


def _small_graphs(seed):
    rng = random.Random(seed)
    yield inputs.random_graph(30, 90, rng)
    yield inputs.random_graph(12, 40, rng, acyclic=True)
    yield [(a, b) for a, b, _ in inputs.rmat(64, seed, weighted=True)]


@pytest.mark.parametrize("seed", SEEDS)
def test_floors_agree_with_serial_baselines(seed):
    for edges in _small_graphs(seed):
        assert floors.tc(edges) == serial.transitive_closure(edges)
        assert floors.cc_labels(edges) == serial.connected_components(edges)
        assert floors.cc(edges) == len(
            set(serial.connected_components(edges).values()))
        source = edges[0][0]
        assert floors.reach(edges, source) == serial.reach(edges, source)
    weighted = inputs.rmat(64, seed, weighted=True)
    assert floors.sssp(weighted, 0) == serial.sssp(weighted, 0)


def test_same_generation_oracle_matches_the_engine():
    rel = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 7)]
    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("rel", ["Parent", "Child"], rel)
    rows = ctx.sql(get_query("same_generation").sql).rows
    assert set(rows) == floors.same_generation(rel)


def test_serving_inserts_shorten_distances_and_add_paths():
    edges = inputs.rmat(inputs.SERVING_NODES, 4, weighted=True)
    inserts = [payload for _, kind, payload in inputs.serving_ops(4, edges)
               if kind == "insert"][:24]
    dist = floors.sssp(edges, inputs.SOURCE)
    for rows in inserts:
        edges = edges + rows
        after = floors.sssp(edges, inputs.SOURCE)
        if len(rows) == 1:  # shortcut: an existing node, one closer
            (_, dst, _), = rows
            assert dst in dist and after[dst] == dist[dst] - 1
        else:  # path: each edge reaches one fresh node
            assert len(rows) == inputs.PATH_EDGES
            assert all(dst not in dist and dst in after
                       for _, dst, _ in rows)
        dist = after
    assert sum(len(rows) == 1 for rows in inserts) == len(inserts) // 2


def _bindings():
    """Every (owner, attribute) the tracer may patch, with its value."""
    found = {}
    modules = {m: importlib.import_module(m) for _, m, _ in LAYERS}
    for _, module_name, path in LAYERS:
        module = modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            found[(cls, attr)] = cls.__dict__[attr]
            continue
        original = getattr(module, path)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for attr, value in vars(mod).items():
                if value is original:
                    found[(mod, attr)] = value
    return found


def _run_queries():
    edges = inputs.rmat(128, 5, weighted=True)
    plain = [(a, b) for a, b, _ in edges]
    out = {}
    for name, table in (("sssp", edges), ("cc", plain), ("tc", plain[:300]),
                        ("reach", plain)):
        ctx = RaSQLContext(num_workers=4)
        columns = ["Src", "Dst", "Cost"] if len(table[0]) == 3 \
            else ["Src", "Dst"]
        ctx.register_table("edge", columns, table)
        spec = get_query(name)
        sql = spec.formatted(source=0) if "{source}" in spec.sql else spec.sql
        out[name] = ctx.sql(sql).rows
    return out


def test_tracer_is_transparent_and_restores_every_original():
    untraced = _run_queries()  # imports every module the queries use
    before = _bindings()
    tracer = Tracer().install()
    try:
        for (owner, attr), value in before.items():
            assert vars(owner)[attr] is not value, (owner, attr)  # wrapped
        traced = _run_queries()
        # ColumnBatch pickles through its (wrapped) classmethod decode.
        batch = ColumnBatch.from_rows([(1, 2.5), (3, 4.5)])
        assert pickle.loads(pickle.dumps(batch)).to_rows() == batch.to_rows()
    finally:
        tracer.remove()
    assert traced == untraced  # bit-exact, row order included
    totals = tracer.layer_totals()
    for layer in ("core.parser", "core.fixpoint", "engine.cluster.run_stage",
                  "engine.serialization.rows_size"):
        assert totals[layer]["calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert _run_queries() == untraced


def test_self_times_partition_the_root_span():
    tracer = Tracer().install()
    try:
        with tracer.span():
            _run_queries()
    finally:
        tracer.remove()
    totals = tracer.layer_totals()
    self_sum = sum(v["self_s"] for k, v in totals.items()
                   if not k.endswith("@thread"))
    assert self_sum == pytest.approx(totals["bench.op"]["wall_s"], rel=1e-9)


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_benchmark_json_names_match_the_code():
    spec, end_to_end, per_layer = _declared()
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert end_to_end == bench.END_TO_END_UNITS
    assert per_layer == bench.layer_metric_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_exactly_the_declared_ones(trace, capsys):
    _, end_to_end, per_layer = _declared()
    assert bench.main(["--workload", "library-mix", "--seed", "3",
                       "--seconds", "0.4", "--trace", str(trace)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    declared = per_layer if trace else end_to_end
    assert {name: m["unit"] for name, m in summary["metrics"].items()} \
        == declared


def test_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "library-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _process_group(pgid):
    """Pids of every process, zombies included, in process group ``pgid``."""
    pids = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[2]) == pgid:
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                    reason="reads the process table from /proc")
def test_process_backend_leaves_no_process_behind():
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload",
             "process-backend", "--seed", "2", "--seconds", "0.5",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True) as proc:
        out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    # The run's own process group: its pool workers and multiprocessing's
    # resource-tracker helper were all started in it.
    assert _process_group(proc.pid) == []
