"""Plain-Python semi-naive floors and oracles for the headline graph queries.

Each function is the textbook semi-naive loop for one query: keep the
facts derived so far, join only the previous iteration's new facts (the
delta) against the edges, and stop when a round derives nothing new.
They share no code with ``repro``, so they serve twice: as the correctness
oracle for every graph-query result the benchmark checks, and as the
*floor* (the cost of the same algorithm with no engine around it) that
``floor_ratio`` divides the engine's latency by.

Semantics follow the library queries exactly:

- ``tc``: all pairs ``(src, dst)`` joined by a directed path of length >= 1.
- ``cc``: min-label propagation along *directed* edges, labels seeded from
  every ``Src`` (the query's base rule); the query returns the number of
  distinct labels.
- ``sssp``: min-cost paths from ``source`` (weights are non-negative).
- ``reach``: nodes reachable from ``source``, ``source`` included.
"""

from __future__ import annotations


def _adjacency(edges):
    adj = {}
    for src, dst in edges:
        adj.setdefault(src, set()).add(dst)
    return adj


def tc(edges):
    """Transitive closure as a set of ``(src, dst)`` pairs."""
    adj = _adjacency(edges)
    closure = {src: set(dsts) for src, dsts in adj.items()}
    delta = {src: set(dsts) for src, dsts in adj.items()}
    empty = frozenset()
    while delta:
        next_delta = {}
        for src, frontier in delta.items():
            derived = set()
            for mid in frontier:
                derived |= adj.get(mid, empty)
            derived -= closure[src]
            if derived:
                closure[src] |= derived
                next_delta[src] = derived
        delta = next_delta
    return {(src, dst) for src, dsts in closure.items() for dst in dsts}


def cc_labels(edges):
    """Node -> component label under the CC query's directed semantics."""
    adj = _adjacency(edges)
    label = {src: src for src in adj}
    delta = dict(label)
    while delta:
        next_delta = {}
        for node, lab in delta.items():
            for nbr in adj.get(node, ()):
                if lab < label.get(nbr, lab + 1):
                    label[nbr] = lab
                    next_delta[nbr] = lab
        delta = next_delta
    return label


def cc(edges):
    """The CC query's answer: the number of distinct component labels."""
    return len(set(cc_labels(edges).values()))


def sssp(edges, source):
    """Node -> shortest-path cost from ``source`` (weighted edges)."""
    adj = {}
    for src, dst, cost in edges:
        adj.setdefault(src, []).append((dst, cost))
    dist = {source: 0}
    delta = {source: 0}
    while delta:
        next_delta = {}
        for node, base in delta.items():
            for nbr, cost in adj.get(node, ()):
                cand = base + cost
                if cand < dist.get(nbr, cand + 1):
                    dist[nbr] = cand
                    next_delta[nbr] = cand
        delta = next_delta
    return dist


def reach(edges, source):
    """The set of nodes reachable from ``source``, ``source`` included."""
    adj = _adjacency(edges)
    seen = {source}
    delta = {source}
    empty = frozenset()
    while delta:
        derived = set()
        for node in delta:
            derived |= adj.get(node, empty)
        delta = derived - seen
        seen |= delta
    return seen


def same_generation(rel):
    """Pairs ``(x, y)``, ``x != y``, at the same depth below a common
    ancestor: siblings, then children of same-generation pairs."""
    children = {}
    for parent, child in rel:
        children.setdefault(parent, set()).add(child)
    pairs = {(a, b) for kids in children.values()
             for a in kids for b in kids if a != b}
    delta = set(pairs)
    while delta:
        derived = {(a, b) for x, y in delta
                   for a in children.get(x, ()) for b in children.get(y, ())}
        delta = derived - pairs
        pairs |= delta
    return pairs
