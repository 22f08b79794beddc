"""Seeded input generators owned by the benchmark.

Everything a workload feeds the engine is derived here from the
``--seed`` argument, so a change to ``repro.datagen`` or
``repro.serving.workload`` cannot change what the benchmark measures.
The same seed always yields the same inputs.
"""

from __future__ import annotations

import heapq
import math
import random

#: R-MAT quadrant probabilities of the paper's GTgraph setup (d = 0.15).
RMAT_A, RMAT_B, RMAT_C = 0.45, 0.25, 0.15
EDGES_PER_NODE = 10
#: Edge weights are uniform integers in [1, MAX_WEIGHT).  Narrow weights
#: keep sssp's iteration count, and so its cost, nearly independent of the
#: seed (with the paper's [0, 100) it ranges 14-18 on 8k nodes).
MAX_WEIGHT = 10

#: Full sizes of the graph workloads: tc on 600 nodes, the other
#: headline queries on 8,000 nodes (about 80k edges).
TC_NODES = 600
GRAPH_NODES = 8_000
#: Source vertex of sssp and reach; R-MAT concentrates edges on low ids,
#: so node 0 reaches nearly the whole graph.
SOURCE = 0


def rmat(nodes: int, seed: int, weighted: bool) -> list[tuple]:
    """``EDGES_PER_NODE * nodes`` directed R-MAT edges, no self loops.

    Parallel edges are kept, as GTgraph keeps them.
    """
    rng = random.Random(seed)
    levels = max(1, (nodes - 1).bit_length())
    ab, abc = RMAT_A + RMAT_B, RMAT_A + RMAT_B + RMAT_C
    edges = []
    target = EDGES_PER_NODE * nodes
    while len(edges) < target:
        src = dst = 0
        for _ in range(levels):
            roll = rng.random()
            src <<= 1
            dst <<= 1
            if roll < RMAT_A:
                pass
            elif roll < ab:
                dst |= 1
            elif roll < abc:
                src |= 1
            else:
                src |= 1
                dst |= 1
        if src >= nodes or dst >= nodes or src == dst:
            continue
        if weighted:
            edges.append((src, dst, rng.randrange(1, MAX_WEIGHT)))
        else:
            edges.append((src, dst))
    return edges


def graph_inputs(seed: int) -> dict:
    """``{"tc": edges, "cc": edges, "sssp": weighted, "reach": edges}``.

    cc and reach share the unweighted projection of the sssp graph, so
    three of the four headline queries run over the same topology.
    """
    weighted = rmat(GRAPH_NODES, seed, weighted=True)
    plain = [(src, dst) for src, dst, _ in weighted]
    return {"tc": rmat(TC_NODES, seed + 1, weighted=False),
            "cc": plain, "sssp": weighted, "reach": plain}


def random_graph(nodes: int, edges: int, rng: random.Random,
                 weighted: bool = False, acyclic: bool = False) -> list:
    """A small uniform random simple graph (no loops, no parallel edges)."""
    pairs = set()
    while len(pairs) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a == b:
            continue
        if acyclic and a > b:
            a, b = b, a
        pairs.add((a, b))
    ordered = sorted(pairs)
    if weighted:
        return [(a, b, rng.randint(1, 10)) for a, b in ordered]
    return ordered


def library_tables(seed: int) -> dict:
    """``query name -> {table: (columns, rows)}`` for the 11 small queries.

    The three graph queries get seeded random graphs; the others run on
    the library's canonical example tables, which are fixed.
    """
    rng = random.Random(seed)
    assbl = [("car", "engine"), ("car", "wheel"), ("car", "frame"),
             ("engine", "piston"), ("engine", "valve"), ("wheel", "rim"),
             ("frame", "beam"), ("beam", "bolt")]
    basic = [("piston", 3), ("valve", 7), ("rim", 2), ("bolt", 4)]
    bom = {"assbl": (("Part", "SPart"), assbl),
           "basic": (("Part", "Days"), basic)}
    return {
        "cc_labels": {"edge": (("Src", "Dst"), random_graph(24, 60, rng))},
        "count_paths": {"edge": (("Src", "Dst"),
                                 random_graph(24, 60, rng, acyclic=True))},
        "apsp": {"edge": (("Src", "Dst", "Cost"),
                          random_graph(12, 30, rng, weighted=True))},
        "same_generation": {"rel": (("Parent", "Child"),
                                    [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6),
                                     (4, 7)])},
        "bom": bom,
        "bom_stratified": bom,
        "management": {"report": (("Emp", "Mgr"),
                                  [(2, 1), (3, 1), (4, 2), (5, 2), (6, 4),
                                   (7, 6), (8, 3)])},
        "mlm_bonus": {
            "sales": (("M", "P"), [(i, 50.0 * (i + 1)) for i in range(1, 9)]),
            "sponsor": (("M1", "M2"), [(1, 2), (1, 3), (2, 4), (2, 5),
                                       (3, 6), (5, 7), (6, 8)])},
        "interval_coalesce": {"inter": (("S", "E"),
                                        [(1, 4), (2, 5), (4, 8), (10, 12),
                                         (11, 15), (20, 21), (21, 25)])},
        "party_attendance": {
            "organizer": (("OrgName",), [("ann",)]),
            "friend": (("Pname", "Fname"),
                       [("ann", "bob"), ("ann", "cat"), ("ann", "dan"),
                        ("bob", "cat"), ("cat", "dan"), ("bob", "eve"),
                        ("cat", "eve"), ("dan", "eve")])},
        "company_control": {"shares": (("By", "Of", "Percent"),
                                       [("a", "b", 60), ("b", "c", 30),
                                        ("a", "c", 30), ("c", "d", 51),
                                        ("b", "e", 20), ("c", "e", 40)])},
    }


#: The serving graph: an R-MAT graph small enough that one SQL request
#: costs milliseconds, so a run sees thousands of requests.
SERVING_NODES = 360
#: Request mix of the serving op stream, as counts per block of 20 ops:
#: 70% view reads, 15% hot SQL (each of the 3 hot statements once), 10%
#: pooled SQL, 5% inserts.  Each block is shuffled; fixing the counts
#: rather than drawing each kind keeps the mix, and so the work per
#: request, the same for every seed.
SERVING_BLOCK = (("view_read", 14), ("hot_sql", 3), ("pooled_sql", 2),
                 ("insert", 1))
#: Distinct reach sources of the pooled statements: twice the service's
#: 128-entry plan cache, so that share of the traffic outruns the cache.
#: They are the nodes with the most out-edges, so that nearly every pooled
#: statement traverses the graph's giant component and costs about the
#: same whatever the seed.
POOLED_SOURCES = 256
#: Inserts alternate between two kinds, both from one of these low
#: (well-connected) nodes.  A *path* insert appends PATH_EDGES edges at
#: once, from the low node through fresh nodes: its repair derives one new
#: row per edge, one semi-naive iteration after another.  A *shortcut*
#: insert appends one edge to an existing node of the graph, weighted to
#: shorten that node's distance from SOURCE by one: its repair improves
#: existing rows and whatever hangs off them.
INSERT_SOURCES = 64
PATH_EDGES = 3
#: Ops generated per run; a run consumes a prefix of the stream.
SERVING_OPS = 40_000


def _settle(adj: dict, dist: dict, heap: list) -> None:
    """Dijkstra from the ``(distance, node)`` entries of ``heap``,
    lowering ``dist`` in place."""
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, weight in adj.get(node, ()):
            if d + weight < dist.get(nxt, math.inf):
                dist[nxt] = d + weight
                heapq.heappush(heap, (d + weight, nxt))


def serving_ops(seed: int, edges: list[tuple]) -> list[tuple]:
    """The serving op stream over the graph ``edges``: ``(client, kind,
    payload)`` tuples.

    ``kind`` is ``view_read`` (payload unused), ``sql`` (payload: a
    ``("hot", i)`` or ``("pooled", source)`` statement key) or ``insert``
    (payload: the list of weighted edges one insert appends; path and
    shortcut inserts alternate).
    """
    rng = random.Random(seed)
    out_degree: dict[int, int] = {}
    adj: dict[int, list] = {}
    for src, dst, weight in edges:
        out_degree[src] = out_degree.get(src, 0) + 1
        adj.setdefault(src, []).append((dst, weight))
    sources = sorted(out_degree, key=lambda n: (-out_degree[n], n))
    sources = sources[:POOLED_SOURCES]
    # Distances from SOURCE over the graph and the shortcuts so far; path
    # inserts lead only to fresh nodes, so they never change these.
    dist = {SOURCE: 0}
    _settle(adj, dist, [(0, SOURCE)])
    low = [n for n in range(INSERT_SOURCES) if n in dist]
    block = [kind for kind, count in SERVING_BLOCK for _ in range(count)]
    ops = []
    next_node = 1 + max(max(edge[:2]) for edge in edges)
    shortcut = False
    while len(ops) < SERVING_OPS:
        rng.shuffle(block)
        hot = [0, 1, 2]
        rng.shuffle(hot)
        for kind in block:
            client = f"c{len(ops) % 64}"
            if kind == "view_read":
                ops.append((client, "view_read", None))
            elif kind == "hot_sql":
                ops.append((client, "sql", ("hot", hot.pop())))
            elif kind == "pooled_sql":
                ops.append((client, "sql", ("pooled", rng.choice(sources))))
            else:
                rows = _shortcut(rng, adj, dist, low) if shortcut else None
                if rows is None:  # a path insert, or no shortcut is left
                    nodes = [rng.choice(low)] + list(
                        range(next_node, next_node + PATH_EDGES))
                    next_node += PATH_EDGES
                    rows = [(a, b, rng.randrange(1, MAX_WEIGHT))
                            for a, b in zip(nodes, nodes[1:])]
                shortcut = not shortcut
                ops.append((client, "insert", rows))
    return ops


def _shortcut(rng: random.Random, adj: dict, dist: dict,
              low: list[int]) -> list[tuple] | None:
    """One edge from a low node to an existing node at least two farther
    from SOURCE, weighted to shorten that node's distance by one;
    ``dist`` and ``adj`` are updated.  ``None`` if no pair is left."""
    for src in rng.sample(low, len(low)):
        far = sorted(n for n, d in dist.items() if d - dist[src] >= 2)
        if far:
            dst = rng.choice(far)
            weight = dist[dst] - dist[src] - 1
            adj.setdefault(src, []).append((dst, weight))
            dist[dst] -= 1
            _settle(adj, dist, [(dist[dst], dst)])
            return [(src, dst, weight)]
    return None
