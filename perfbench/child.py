"""One timed ``enttime`` invocation in a fresh process.

Usage::

    python3 perfbench/child.py RESULT.json [--import-only] [--trace SPANS.json] -- ARGV...

The process imports ``enttime.cli`` (timed as ``setup_s``), then calls
``enttime.cli.main(ARGV)`` once (timed as ``wall_s`` and ``cpu_s``), and
writes its measurements to RESULT.json. Only the standard library is
imported before the timed import, so ``setup_s`` is the whole cost of
loading numpy, jsonschema and the package.

With ``--trace`` the public functions named in ``LAYERS`` are wrapped from
outside, under every name they are bound to in the loaded ``enttime``
modules, before ``main`` runs. Spans stay in memory and are written to
SPANS.json when the call ends. A function that no longer exists is reported
in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import tracemalloc

# layer name -> (defining module, public function) pairs it wraps
LAYERS = {
    "cli.load": [("enttime.cli", "load_model_file")],
    "timescale.cov": [("enttime.timescale", "entanglement_timescale")],
    "hamiltonian.assemble": [("enttime.hamiltonian", "assemble")],
    "linalg.eig": [("enttime.linalg", "eig_hermitian")],
    "entropy.series": [("enttime.entropy", "entropy_series")],
    "entropy.vn_probe": [("enttime.entropy", "von_neumann_curvature_probe")],
    "entropy.kernels": [
        ("enttime.entropy", "renyi_from_probabilities"),
        ("enttime.entropy", "von_neumann_from_probabilities"),
    ],
    "cli.verify": [("enttime.cli", "cmd_verify")],
    "cli.evolve": [("enttime.cli", "cmd_evolve")],
}

# Layers whose tracemalloc peak is recorded per call.
MEMORY_LAYERS = ("hamiltonian.assemble", "linalg.eig")

# The layer whose calls are counted by matrix dimension.
EIG_LAYER = "linalg.eig"


class Tracer:
    """Spans of the wrapped calls, in call order.

    Each span is ``[layer, parent index, start, end, dim, peak bytes]``;
    the parent is the innermost wrapped call open when it started (-1 for
    none). The program is single-threaded here, so one stack suffices.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, self._stack[-1] if self._stack else -1, 0.0, 0.0, None, None]
            self.spans.append(span)
            if layer == EIG_LAYER and args:
                shape = getattr(args[0], "shape", None)
                span[4] = int(shape[0]) if shape else None
            measure = layer in MEMORY_LAYERS and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if measure:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return traced

    def install(self, layers: dict) -> None:
        """Replace each layer's functions in every loaded ``enttime`` module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "enttime" or n.startswith("enttime.")]
        for layer, targets in layers.items():
            for module_name, attr in targets:
                try:
                    fn = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{layer}:{module_name}.{attr}")
                    continue
                wrapper = self.wrap(layer, fn)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, name, wrapper)

    def summary(self, layers: dict) -> dict:
        """Per-layer calls, inclusive and self seconds, plus eig and memory counts."""
        out = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in layers}
        child_s = [0.0] * len(self.spans)
        for layer, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for k, (layer, parent, start, end, dim, peak) in enumerate(self.spans):
            entry = out[layer]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s[k]
            if not self._inside(k, layer):
                entry["s"] += end - start
            if dim is not None:
                entry["dim_max"] = max(entry.get("dim_max", 0), dim)
                entry["d3_sum"] = entry.get("d3_sum", 0) + dim**3
            if peak is not None:
                entry["peak_mb"] = max(entry.get("peak_mb", 0.0), peak / 2**20)
        return out

    def _inside(self, k: int, layer: str) -> bool:
        """Whether span k is nested in another span of the same layer."""
        parent = self.spans[k][1]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][1]
        return False


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: child.py RESULT.json [--import-only] [--trace SPANS.json] -- ARGV...", file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    start = time.perf_counter()
    import enttime.cli

    result = {"setup_s": time.perf_counter() - start, "module": enttime.cli.__file__}
    if "--import-only" not in opts:
        tracer = None
        if spans_path is not None:
            tracer = Tracer()
            tracer.install(LAYERS)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            code = enttime.cli.main(cli_argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.summary(LAYERS)
            result["absent"] = tracer.absent
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
