"""Span tracer installed around condisc from outside the program.

Each traced function is rebound, for the duration of a traced pass, in
every condisc module whose globals hold it (that is where its callers look
it up: ``condisc.conductor.build_cluster_tree`` is what ``analyze`` calls,
``condisc.cluster.validate_ultrametric`` is what ``build_cluster_tree``
calls), and methods are rebound on their classes.  ``uninstall`` restores
the originals.  ``XGraph.neighbors`` runs millions of times on deep chains,
so it gets counters instead of spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (defining module, attribute or Class.method, span name)
TARGETS = (
    ("condisc.instancefile", "load_instance", "instancefile.load_instance"),
    ("condisc.valuation", "Instance.validate", "valuation.validate"),
    ("condisc.valuation", "is_odd_prime", "valuation.is_odd_prime"),
    ("condisc.valuation", "build_matrix", "valuation.build_matrix"),
    ("condisc.valuation", "validate_ultrametric", "valuation.validate_ultrametric"),
    ("condisc.cluster", "build_cluster_tree", "cluster.build_cluster_tree"),
    ("condisc.cluster", "check_tree_invariants", "cluster.check_tree_invariants"),
    ("condisc.cluster", "equation_discriminant", "cluster.equation_discriminant"),
    ("condisc.dualgraph", "build_ty", "dualgraph.build_ty"),
    ("condisc.dualgraph", "build_tx", "dualgraph.build_tx"),
    ("condisc.dualgraph", "artin_conductor", "dualgraph.artin_conductor"),
    ("condisc.dualgraph", "self_intersections", "dualgraph.self_intersections"),
    ("condisc.dualgraph", "genus_check", "dualgraph.genus_check"),
    ("condisc.conductor", "compare_vertex", "conductor.compare_vertex"),
    ("condisc.conductor", "analyze", "conductor.analyze"),
    ("condisc.conductor", "Report.to_json", "render.to_json"),
    ("condisc.conductor", "Report.to_json_line", "render.to_json"),
    ("condisc.conductor", "Report.to_json_dict", "render.to_json"),
    ("condisc.render", "render_text", "render.render_text"),
)


def _sizes(name: str, args, result) -> dict[str, int]:
    """Work counts recorded at a span boundary."""
    if name == "valuation.build_matrix":
        n = args[0].num_roots
        return {"valuation.build_matrix.pairs": n * (n - 1) // 2}
    if name == "valuation.validate_ultrametric":
        n = args[0].n
        return {"valuation.validate_ultrametric.triples": n * (n - 1) * (n - 2) // 6}
    if name == "cluster.build_cluster_tree":
        return {"cluster.tb_vertices": len(result)}
    if name == "dualgraph.build_ty":
        return {"dualgraph.ty_vertices": len(result.vertices)}
    if name == "dualgraph.build_tx":
        return {"dualgraph.tx_components": len(result.components), "dualgraph.tx_edges": len(result.edges)}
    if name == "render.to_json" and isinstance(result, str):
        return {"render.json_bytes": len(result.encode())}
    return {}


class Tracer:
    """Spans are (name, start, end, parent index, operation id, failed),
    kept in memory; counts accumulate in ``counts``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0                     # id of the operation now running
        self.op_keys: list[str] = []    # workload bucket of each operation id
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op, failed)
            counts.update(_sizes(name, args, result))
            return result

        return traced

    def _count_neighbors(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def neighbors(graph, cid):
            # every caller in condisc drains the generator, so each call scans all edges
            counts["dualgraph.neighbors.calls"] += 1
            counts["dualgraph.neighbors.edges_scanned"] += len(graph.edges)
            for item in fn(graph, cid):
                counts["dualgraph.neighbors.yielded"] += 1
                yield item

        return neighbors

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "condisc" or k.startswith("condisc.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        xgraph = sys.modules["condisc.dualgraph"].XGraph
        orig = xgraph.__dict__["neighbors"]
        self._saved.append((xgraph, "neighbors", orig))
        xgraph.neighbors = self._count_neighbors(orig)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, orig = self._saved.pop()
            setattr(obj, key, orig)

    def self_times(self, select=None) -> Counter:
        """Per span name: duration minus the part covered by child spans,
        over the operations `select(op id)` accepts (all by default)."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Counter = Counter()
        for (name, t0, t1, _, op, _), kids in zip(self.spans, covered):
            if select is None or select(op):
                out[name] += (t1 - t0) - kids
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def failures(self) -> Counter:
        return Counter(s[0] for s in self.spans if s[5])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, dumped: dict, op: int) -> None:
        """Append the spans and counts another process dumped, as operation `op`."""
        base = len(self.spans)
        for name, t0, t1, parent, _, failed in dumped["spans"]:
            self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1, op, failed))
        self.counts.update(dumped["counts"])
