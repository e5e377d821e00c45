"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each function named in layers.json with a wrapper
that records a span (name, start, end, parent span) in memory, in every gbsr
module that holds a reference to it, so calls made through a name imported
into another module are caught too.  `uninstall` puts the originals back;
`with tracer:` does both around a block.
Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


def layer_table():
    return json.loads(LAYERS_FILE.read_text())


def metric_names():
    """Per-layer metric names in output order, with units."""
    table = layer_table()
    out = []
    for layer in table["layers"]:
        out.append((layer["metric"], "ms"))
        out.append((layer["metric"] + ".calls", "count"))
    out.extend((c["metric"], c["unit"]) for c in table["counters"])
    return out


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self.tape_nodes = 0
        self._stack = []
        self._patched = []     # (owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return traced

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for layer in layer_table()["layers"]:
            owner, attr = _resolve(layer["wraps"])
            original = owner.__dict__[attr]
            wrapped = self._wrap(layer["metric"], original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # a module function: rebind every gbsr global that names it
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "gbsr":
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        # every op result that carries a backward closure is one tape node
        from gbsr import autodiff
        make = autodiff._make

        def counting_make(data, parents, backward):
            node = make(data, parents, backward)
            if node.requires_grad:
                self.tape_nodes += 1
            return node

        self._patch(autodiff, "_make", counting_make)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self):
        """{name: [calls, inclusive_s, self_s]} over all recorded spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[index]
        return totals

    def write(self, path: Path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start_s": start - t0, "end_s": end - t0}) + "\n")
