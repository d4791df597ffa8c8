"""Per-layer spans, recorded from outside the package.

A traced child wraps the public functions of each ``superw`` module in
:class:`Tracer` wrappers.  Every wrapper is one span boundary: it counts the
call, measures its duration and charges that duration to the enclosing span,
so a layer's self time is its span time minus the time of the wrapped spans it
called.  Spans are aggregated by name in memory and reported once, when the
child ends.

Modules import functions by name (``from .linalg import solve``), so a wrapper
replaces the function in the defining module and in every ``superw`` module
that holds the same object.  Names that do not exist are skipped and listed as
missing, so a refactor that removes one shows up as a missing metric.  Hot
inner helpers (``Series.__init__``, ``StarAlgebra._word``, ``_insert``) are
deliberately not wrapped: they run 10^5 or more times per job and the wrapper
would swamp them.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name).  StarAlgebra.star is split by the
# product's hbar mode, because the h2 chart products and the exact unit-mode
# word products are different workloads of the same code.
LAYERS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "expand_filtered", "linalg.expand_filtered"),
    ("supercore", "Series.__mul__", "supercore.Series.mul"),
    ("poisson", "PoissonAlgebra.bracket", "poisson.bracket"),
    ("darboux", "equivariant_darboux", "darboux.equivariant_darboux"),
    ("darboux", "Chart.verify", "darboux.Chart.verify"),
    ("starprod", "StarAlgebra.star", "starprod.star"),
    ("starprod", "quantum_darboux", "starprod.quantum_darboux"),
    ("starprod", "QuantumChart.verify", "starprod.QuantumChart.verify"),
    ("algebras", "load_algebra", "algebras.load_algebra"),
    ("wslice", "slice_setup", "wslice.slice_setup"),
    ("wslice", "whittaker_walgebra", "wslice.whittaker_walgebra"),
    ("wslice", "slice_walgebra", "wslice.slice_walgebra"),
    ("wslice", "compare_realizations", "wslice.compare_realizations"),
    ("wslice", "splitting_check", "wslice.splitting_check"),
    ("cli", "main", "cli.main"),
)


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0


class Tracer:
    """Aggregated spans of one traced child, keyed by span name."""

    def __init__(self):
        self.stats = {}
        # child-time accumulators of the open spans; the bottom one is the root
        self._stack = [0.0]
        self.rref_cells = 0
        self._solve_matrices = set()
        self.solve_distinct = 0
        self.wrapped = []  # "superw.module.path", and where else it was replaced
        self.missing = []  # span names whose function does not exist

    def install(self):
        """Wrap every layer in LAYERS that exists in the loaded package."""
        for module, path, name in LAYERS:
            mod = sys.modules.get("superw." + module)
            owner_name, _, attr = path.rpartition(".")
            owner = mod if not owner_name else getattr(mod, owner_name, None)
            fn = None if owner is None else vars(owner).get(attr)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fn, name)
            setattr(owner, attr, wrapper)
            also = []
            if not owner_name:
                for other_name, other in sorted(sys.modules.items()):
                    if (other_name.startswith("superw.") and other is not mod
                            and vars(other).get(attr) is fn):
                        setattr(other, attr, wrapper)
                        also.append(other_name)
            self.wrapped.append("superw.%s.%s%s" % (
                module, path, " (also in %s)" % ", ".join(also) if also else ""))

    def _note(self, name, args):
        if name == "linalg.rref":
            rows = args[0]
            if rows:
                self.rref_cells += len(rows) * len(rows[0])
        elif name == "linalg.solve":
            key = tuple(tuple(r) for r in args[0])
            if key not in self._solve_matrices:
                self._solve_matrices.add(key)
                self.solve_distinct += 1

    def _wrap(self, fn, name):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        note = self._note
        by_mode = name == "starprod.star"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = ("%s.%s" % (name, getattr(args[0], "hbar_mode", "other"))
                   if by_mode else name)
            st = stats.get(key)
            if st is None:
                st = stats[key] = _Stat()
            note(key, args)
            st.calls += 1
            st.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                st.self_s += dt - inner
                st.active -= 1
                if not st.active:
                    st.incl_s += dt

        return span

    def report(self):
        return {
            "spans": {k: [s.calls, s.self_s, s.incl_s]
                      for k, s in sorted(self.stats.items())},
            "rref_cells": self.rref_cells,
            "solve_distinct": self.solve_distinct,
            "wrapped": self.wrapped,
            "missing": self.missing,
        }
