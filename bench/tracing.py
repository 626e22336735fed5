"""Spans around the calls into each idcalc layer, made from outside.

``instrument`` swaps each public function of the layers for a wrapper
that records a span (name, start, end, parent) and puts the originals
back when undone; nothing in idcalc is edited.  Spans live in flat arrays
until the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable

LEAF = "core.leaf"

# (module, attribute, span name); functions are replaced wherever an idcalc
# module holds a reference to them, so calls between modules are seen too
TARGETS = [
    ("core", "char_exponent", "core.char_exponent"),
    ("core", "validate_spectral", "core.validate_spectral"),
    ("quadrature", "quad_complex", "quadrature.quad_complex"),
    ("quadrature", "tail_quad", "quadrature.tail_quad"),
    ("quadrature", "head_quad", "quadrature.head_quad"),
    ("mappings", "j_beta", "mappings.j_beta"),
    ("mappings", "j_beta_inverse", "mappings.j_beta_inverse"),
    ("mappings", "i_map", "mappings.i_map"),
    ("mappings", "i_of_j_beta", "mappings.i_of_j_beta"),
    ("mappings", "corollary1a_kernel", "mappings.corollary1a_kernel"),
    ("mappings", "smear_spectral", "mappings.smear_spectral"),
    ("mappings", "smear_triplet", "mappings.smear_triplet"),
    ("factorization", "factor_rho", "factorization.factor_rho"),
    ("factorization", "verify_prop1", "factorization.verify_prop1"),
    ("factorization", "verify_lemma1e", "factorization.verify_lemma1e"),
    ("factorization", "verify_cor1b", "factorization.verify_cor1b"),
    ("factorization", "verify_corollary5", "factorization.verify_corollary5"),
    ("factorization", "smeared_interval_mass", "factorization.smeared_interval_mass"),
    ("families", "load_measure", "families.load_measure"),
    ("simulate", "sample_integral", "simulate.sample_integral"),
    ("simulate", "ecf", "simulate.ecf"),
    ("simulate", "cf_distance_test", "simulate.cf_distance_test"),
    ("levyarea", "verify_levy_area", "levyarea.verify_levy_area"),
    ("levyarea", "nu_exponent", "levyarea.nu_exponent"),
    ("levyarea", "sinh_factor_exponent", "levyarea.sinh_factor_exponent"),
    ("verify", "verify_identity", "verify.verify_identity"),
    ("reports", "validate_report", "reports.validate_report"),
    ("cli", "main", "cli.main"),
]
METHODS = [
    ("core", "SpectralMeasure", "interval_mass", "core.interval_mass"),
    ("core", "SpectralMeasure", "mass_above", "core.mass_above"),
]


class Tracer:
    """In-memory span store plus counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end
        name_ids, parents, clock = self.name_id, self.parent, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """name -> (count, total seconds, self seconds)."""
        import numpy as np

        n = len(self.start)
        if n == 0:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=n)
        own = dur - child
        k = len(self.names)
        cnt = np.bincount(nid, minlength=k)
        tot = np.bincount(nid, weights=dur, minlength=k)
        slf = np.bincount(nid, weights=own, minlength=k)
        return {self.names[i]: (int(cnt[i]), float(tot[i]), float(slf[i])) for i in range(k)}

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _idcalc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "idcalc" or name.startswith("idcalc."))]


def instrument(tracer: Tracer, leaf_measures=()) -> Callable[[], None]:
    """Wrap the layers' public functions; returns the function that undoes it.

    ``leaf_measures`` are closed-form seed measures whose exponent is the
    leaf of every composition built on them; their calls become
    ``core.leaf`` spans.  ``char_exponent`` is the leaf of spec measures.
    """
    mods = {name: importlib.import_module(f"idcalc.{name}") for name in
            {t[0] for t in TARGETS} | {m[0] for m in METHODS}}
    swaps: dict[int, tuple] = {}
    for mod, attr, span in TARGETS:
        orig = getattr(mods[mod], attr)
        swaps[id(orig)] = (orig, tracer.wrap(span, orig))

    counts = tracer.counts
    counts.setdefault("quadrature.integrand_evals", 0)
    q_real = mods["quadrature"].quad_real
    q_real_span = tracer.wrap("quadrature.quad_real", q_real)

    def quad_real(f, *args, **kwargs):
        def counted(t):
            counts["quadrature.integrand_evals"] += 1
            return f(t)

        return q_real_span(counted, *args, **kwargs)

    swaps[id(q_real)] = (q_real, quad_real)

    undo = []  # (setter, object, attribute, original)
    for mod in _idcalc_modules():
        for attr, val in list(vars(mod).items()):
            hit = swaps.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((setattr, mod, attr, val))
    for mod, cls, meth, span in METHODS:
        klass = getattr(mods[mod], cls)
        orig = klass.__dict__[meth]
        setattr(klass, meth, tracer.wrap(span, orig))
        undo.append((setattr, klass, meth, orig))
    for mu in leaf_measures:
        # IdMeasure is a frozen dataclass
        orig = mu.exponent
        object.__setattr__(mu, "exponent", tracer.wrap(LEAF, orig))
        undo.append((object.__setattr__, mu, "exponent", orig))

    def restore():
        for setter, obj, attr, val in reversed(undo):
            setter(obj, attr, val)

    return restore
