"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps braidlab's public functions at runtime.  Every module
attribute that refers to a wrapped function is rebound, so calls through
names imported with ``from .x import y`` (``spectra.apply_generator``,
``spectra.apply_E``, ``cli.shuffle_apply``, ...) are recorded too.  Three
methods are wrapped on their classes (``TensorState.__post_init__`` as
``states.validate``, ``TensorState.add``, ``TransitionMatrix.__post_init__``
as ``automata.transition_matrix``), and ``numpy.linalg.eigh`` is recorded
as ``spectra.eigh`` because only ``spectra`` calls it.

Spans are kept in memory as (name, parent index, start, end, units) and
written out as JSON lines when the run ends; start and end are
``time.perf_counter`` seconds.  A span's self time is its
duration minus the durations of its child spans.
"""

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("states", "hecke", "qalgebra", "spectra", "tableaux", "quandle",
           "automata", "cli")


def _state_amps(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return len(state.amps)


# span name -> units recorded per call: amplitudes in, matrix order, or
# size of the result
_UNITS = {
    "states.validate": _state_amps,
    "hecke.apply_generator": _state_amps,
    "qalgebra.apply_E": _state_amps,
    "qalgebra.apply_F": _state_amps,
    "spectra.eigh": lambda args, kwargs, result: args[0].shape[0],
    "automata.to_dot": lambda args, kwargs, result: len(result),
    "quandle.orbit_automaton": lambda args, kwargs, result: sum(
        len(cyc) for cycles in result.cycles.values() for cyc in cycles),
}


class Recorder:
    """Collects spans while ``active``; a wrapper costs one flag test when not."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        units = _UNITS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, done = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                size = units(args, kwargs, result) if units and done else 0
                spans[index] = (name, parent, start, end, size)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap the package's public functions and rebind every reference."""
        named = {}
        for short in MODULES:
            module = getattr(package, short)
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    named[value] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in named.items()}
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(module, attr, wrappers[value])
        tensor_state = package.states.TensorState
        transition = package.automata.TransitionMatrix
        for owner, attr, name in ((tensor_state, "__post_init__", "states.validate"),
                                  (tensor_state, "add", "states.add"),
                                  (transition, "__post_init__", "automata.transition_matrix"),
                                  (np.linalg, "eigh", "spectra.eigh")):
            self._rebind(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def write_jsonl(path, spans):
    """One span per line: [id, parent id or -1, name, start, end, units]."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, span in enumerate(spans):
            fh.write(json.dumps([index, *span], separators=(",", ":")) + "\n")


class LayerStats:
    """Calls, self seconds and recorded units per span name, for one pass."""

    def __init__(self, spans, stdout_bytes):
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.units = defaultdict(list)
        for index, (name, _, start, end, size) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child[index]
            self.units[name].append(size)
        self.stdout_bytes = stdout_bytes

    def _names(self, names):
        # a name ending in "." selects every span of that module
        return [k for k in list(self.calls) if any(
            k.startswith(n) if n.endswith(".") else k == n for n in names)]

    def count(self, *names):
        return sum(self.calls[n] for n in self._names(names))

    def seconds(self, *names):
        return sum(self.self_s[n] for n in self._names(names))

    def us_per_unit(self, *names):
        total = sum(sum(self.units[n]) for n in self._names(names))
        return 1e6 * self.seconds(*names) / total if total else 0.0

    def unit_values(self, name):
        return self.units.get(name, [])


LADDER = ("qalgebra.apply_E", "qalgebra.apply_F")

# The module -> metric map: (metric, unit, value for one traced pass, the
# end-to-end metric a change in the layer moves, the workloads it moves it
# on).  Every metric reads "lower is better".  trace.overhead_frac, traced
# pass wall time over untraced pass wall time minus one, is added by run.py.
LAYER_METRICS = [
    ("states.validate.calls", "count", lambda s: s.count("states.validate"),
     "wall_s", "sectors_n2 kernels_small"),
    ("states.validate.self_s", "s", lambda s: s.seconds("states.validate"),
     "wall_s", "sectors_n2 kernels_small"),
    ("states.validate.us_per_amp", "us", lambda s: s.us_per_unit("states.validate"),
     "wall_s", "sectors_n2 kernels_small"),
    ("states.add.self_s", "s", lambda s: s.seconds("states.add"),
     "wall_s", "sectors_n2 kernels_small"),
    ("hecke.apply_generator.calls", "count", lambda s: s.count("hecke.apply_generator"),
     "wall_s", "blocks_dense sectors_n2 kernels_small"),
    ("hecke.apply_generator.self_s", "s", lambda s: s.seconds("hecke.apply_generator"),
     "wall_s", "blocks_dense sectors_n2 kernels_small"),
    ("hecke.apply_generator.us_per_amp", "us",
     lambda s: s.us_per_unit("hecke.apply_generator"),
     "wall_s", "blocks_dense sectors_n2 kernels_small"),
    ("hecke.shuffle_apply.self_s", "s", lambda s: s.seconds("hecke.shuffle_apply"),
     "wall_s", "kernels_small"),
    ("hecke.word_sum_operator.self_s", "s", lambda s: s.seconds("hecke.word_sum_operator"),
     "wall_s", "kernels_small"),
    ("qalgebra.ladder.calls", "count", lambda s: s.count(*LADDER),
     "wall_s", "sectors_n2 kernels_small"),
    ("qalgebra.ladder.self_s", "s", lambda s: s.seconds(*LADDER),
     "wall_s", "sectors_n2 kernels_small"),
    ("qalgebra.ladder.us_per_amp", "us", lambda s: s.us_per_unit(*LADDER),
     "wall_s", "sectors_n2 kernels_small"),
    ("qalgebra.q_dicke.self_s", "s", lambda s: s.seconds("qalgebra.q_dicke"),
     "wall_s", "kernels_small"),
    ("spectra.weight_basis.self_s", "s", lambda s: s.seconds("spectra.weight_basis"),
     "wall_s", "blocks_dense sectors_n2"),
    ("spectra.block_matrix.self_s", "s", lambda s: s.seconds("spectra.block_matrix"),
     "wall_s", "blocks_dense sectors_n2"),
    ("spectra.hamiltonian_apply.calls", "count", lambda s: s.count("spectra.hamiltonian_apply"),
     "wall_s", "blocks_dense sectors_n2"),
    ("spectra.hamiltonian_apply.self_s", "s", lambda s: s.seconds("spectra.hamiltonian_apply"),
     "wall_s", "blocks_dense sectors_n2"),
    ("spectra.eigh.calls", "count", lambda s: s.count("spectra.eigh"),
     "wall_s peak_rss_mb", "blocks_dense"),
    ("spectra.eigh.self_s", "s", lambda s: s.seconds("spectra.eigh"),
     "wall_s peak_rss_mb", "blocks_dense"),
    ("spectra.eigh.max_dim", "count", lambda s: max(s.unit_values("spectra.eigh"), default=0),
     "wall_s peak_rss_mb", "blocks_dense"),
    # sum of d^3 over the dense solves, computed from the block orders
    ("spectra.eigh.work_computed", "count",
     lambda s: sum(d ** 3 for d in s.unit_values("spectra.eigh")),
     "wall_s peak_rss_mb", "blocks_dense"),
    # the per-column residual loop and the eigenvalue clustering
    ("spectra.diagonalize.self_s", "s", lambda s: s.seconds("spectra.diagonalize"),
     "wall_s", "blocks_dense"),
    ("spectra.classify_sectors.self_s", "s", lambda s: s.seconds("spectra.classify_sectors"),
     "wall_s", "sectors_n2"),
    ("spectra.verify_decomposition.self_s", "s",
     lambda s: s.seconds("spectra.verify_decomposition"),
     "wall_s", "sectors_n2"),
    ("tableaux.calls", "count", lambda s: s.count("tableaux."),
     "wall_s", "kernels_small"),
    ("tableaux.self_s", "s", lambda s: s.seconds("tableaux."),
     "wall_s", "kernels_small"),
    ("quandle.orbit_automaton.self_s", "s", lambda s: s.seconds("quandle.orbit_automaton"),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("quandle.orbit_automaton.words", "count",
     lambda s: sum(s.unit_values("quandle.orbit_automaton")),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("quandle.orbit_to_automaton.self_s", "s", lambda s: s.seconds("quandle.orbit_to_automaton"),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("quandle.centralizer_residual.self_s", "s",
     lambda s: s.seconds("quandle.centralizer_residual"),
     "wall_s", "orbits_dot"),
    ("automata.transition_matrix.calls", "count",
     lambda s: s.count("automata.transition_matrix"),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("automata.transition_matrix.self_s", "s",
     lambda s: s.seconds("automata.transition_matrix"),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("automata.to_dot.self_s", "s", lambda s: s.seconds("automata.to_dot"),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("automata.to_dot.bytes", "bytes", lambda s: sum(s.unit_values("automata.to_dot")),
     "wall_s peak_rss_mb", "orbits_dot"),
    ("automata.run_word.calls", "count", lambda s: s.count("automata.run_word"),
     "wall_s", "orbits_dot"),
    ("automata.run_word.self_s", "s", lambda s: s.seconds("automata.run_word"),
     "wall_s", "orbits_dot"),
    ("cli.emit.self_s", "s", lambda s: s.seconds("cli.emit"),
     "wall_s", "sectors_n2 orbits_dot"),
    ("cli.stdout_bytes", "bytes", lambda s: s.stdout_bytes,
     "wall_s", "sectors_n2 orbits_dot"),
]
