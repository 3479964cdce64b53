"""Per-layer tracing of qfodc from outside the package.

``Tracer`` replaces the public functions of each layer with wrappers for the
duration of a ``with`` block, then puts the originals back.  It replaces every
binding of a function in the qfodc modules, including the aliases that
``from .x import y`` creates (``fodc.iter_word_states``,
``fodc.eps_word_values``), and patches methods on their classes, so that
``cli.Workspace`` and ``dual.Workspace`` are traced alike.  ``install``
refuses to run if any binding of a wrapped function is left behind.

A span is ``[name, start, end, parent, task]``, kept in memory; ``parent`` is
the index of the enclosing span (-1 for none) and ``task`` the index of the
task within its pass.  A layer's self time is its span time minus the time of
its direct child spans.  A generator (``dual.iter_word_states``) is one span
from its first state to its last, so its self time includes the consumer's
loop body between states.  Scalar and CycElem arithmetic is counted, not
spanned: a task makes up to about a million such calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# functions and methods that get a span, grouped by layer; a name is
# "<module>.<function>" or "<module>.<Class>.<method>"
SPANNED = {
    "linalg": ("linalg.echelon", "linalg.in_row_space", "linalg.mat_inverse"),
    "rmat": ("rmat.build_r", "rmat.spectral_projectors", "rmat.check_minimal_polynomial"),
    "coordalg": ("coordalg.coproduct", "coordalg.quantum_minors"),
    "dual.words": ("dual.iter_word_states", "dual.Functional.word_values"),
    "dual.reps": (
        "dual.conv",
        "dual.conv_power",
        "dual.antipode_rep",
        "dual.Workspace.mrep",
        "dual.Workspace.q_form",
    ),
    "dual.certificates": (
        "dual.Workspace.corep",
        "dual.Workspace.separated_equal",
        "dual.Workspace.antipode_table",
        "dual.Workspace.coideal_check",
        "dual.Workspace.functional_equal",
    ),
    "fodc": (
        "fodc.lie_rows",
        "fodc.QuantumLieAlgebra.certify_dim",
        "fodc.classify",
        "fodc.is_central",
        "fodc.convolution_values",
        "fodc.central_element",
        "fodc.quantum_lie_from_central",
    ),
    "cli": ("cli.main",),
}

# functions and methods whose calls are only counted
COUNTED = (
    "linalg.vec_mat",
    "linalg.mat_mul",
    "coordalg.coproduct_splits",
    "dual.eps_word_values",
    "dual.MatRep.word_matrix",
    "dual.MatRep.entry_on_word",
)


def self_times(spans):
    """Self time per span: its duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


class Tracer:
    """Spans and counters for one traced stretch of work (one pass)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.task = -1
        self._stack = []
        self._undo = []
        self._originals = {}

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        stack = self._stack
        if stack[-1] == idx:
            stack.pop()
        else:  # a generator closed out of order
            stack.remove(idx)

    def _span(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            counts = self.counts

            @functools.wraps(fn)
            def gen(*args, **kwargs):
                idx = self._open(name)
                states = 0
                try:
                    for item in fn(*args, **kwargs):
                        states += 1
                        yield item
                finally:
                    self._close(idx)
                    counts[name + ".states"] += states

            return gen

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._close(idx)

        return span

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _echelon(self, spanned):
        counts = self.counts

        @functools.wraps(spanned)
        def echelon(rows):
            rows = list(rows)
            counts["linalg.echelon.rows_in"] += len(rows)
            counts["linalg.echelon.nnz_in"] += sum(map(len, rows))
            basis = spanned(rows)
            counts["linalg.echelon.rank_out"] += len(basis)
            return basis

        return echelon

    def _in_row_space(self, spanned):
        counts = self.counts

        @functools.wraps(spanned)
        def in_row_space(basis, row):
            hit = spanned(basis, row)
            counts["linalg.in_row_space.hits"] += hit
            return hit

        return in_row_space

    # -- arithmetic counters --------------------------------------------------

    def _arithmetic(self, scalar_mod, cyclotomic_mod):
        Scalar = scalar_mod.Scalar
        CycElem = cyclotomic_mod.CycElem
        counts = self.counts
        unit = {0: 1}
        mul, add, sub, inv = Scalar.__mul__, Scalar.__add__, Scalar.__sub__, Scalar.inverse

        def scalar_mul(a, b):
            if type(b) is Scalar:
                counts["scalar.mul.calls"] += 1
                if a.den != unit or b.den != unit:
                    counts["scalar.mul.fractions"] += 1
            return mul(a, b)

        def scalar_add(a, b):
            if type(b) is Scalar:
                counts["scalar.addsub.calls"] += 1
            return add(a, b)

        def scalar_sub(a, b):
            if type(b) is Scalar:
                counts["scalar.addsub.calls"] += 1
            return sub(a, b)

        self._set(Scalar, "__mul__", scalar_mul)
        self._set(Scalar, "__add__", scalar_add)
        self._set(Scalar, "__sub__", scalar_sub)
        self._set(Scalar, "inverse", self._count("scalar.inverse", inv))
        cmul = CycElem.__dict__["__mul__"]
        self._set(CycElem, "__mul__", self._count("cyclotomic.mul", cmul))
        self._set(CycElem, "__rmul__", self._count("cyclotomic.mul", cmul))
        self._set(CycElem, "inverse", self._count("cyclotomic.inverse", CycElem.inverse))

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        self._originals[id(original)] = original
        setattr(owner, attr, value)

    def _patch(self, modules, name, make):
        """Wrap one function or method; a function is rebound wherever a
        qfodc module (the package included) binds it."""
        short, path = name.split(".", 1)
        mod = modules[short]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, attr, make(name, cls.__dict__[attr]))
            return
        original = getattr(mod, path)
        wrapper = make(name, original)
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper)

    def _special(self, name, fn):
        spanned = self._span(name, fn)
        if name == "linalg.echelon":
            return self._echelon(spanned)
        if name == "linalg.in_row_space":
            return self._in_row_space(spanned)
        return spanned

    def install(self):
        modules = {
            name.partition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name == "qfodc" or name.startswith("qfodc.")
        }
        for names in SPANNED.values():
            for name in names:
                self._patch(modules, name, self._special)
        for name in COUNTED:
            self._patch(modules, name, self._count)
        self._arithmetic(modules["scalar"], modules["cyclotomic"])
        self._check_no_escape(modules)

    def _check_no_escape(self, modules):
        """Every module-level or class-level binding of a wrapped function must
        now point at its wrapper."""
        for short, mod in modules.items():
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for key, value in vars(owner).items():
                    if id(value) in self._originals:
                        self.uninstall()
                        raise RuntimeError(f"untraced binding in qfodc.{short}: {key}")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced so far, keyed by the metric
        names of BENCHMARK.json (without trace.overhead_ratio)."""
        c = self.counts
        out = {f"{name}.calls": c[f"{name}.calls"] for name in COUNTED}
        calls = Counter(s[0] for s in self.spans)
        busy = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            busy[span[0]] += own
        for layer, names in SPANNED.items():
            for name in names:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = busy[name]
            out[f"{layer}.self_s"] = sum(busy[name] for name in names)
        muls = c["scalar.mul.calls"]
        rows = c["linalg.echelon.rows_in"]
        irs = calls["linalg.in_row_space"]
        out.update({
            "scalar.mul.calls": muls,
            "scalar.addsub.calls": c["scalar.addsub.calls"],
            "scalar.inverse.calls": c["scalar.inverse.calls"],
            "scalar.mul.fraction_share": c["scalar.mul.fractions"] / muls if muls else 0.0,
            "cyclotomic.mul.calls": c["cyclotomic.mul.calls"],
            "cyclotomic.inverse.calls": c["cyclotomic.inverse.calls"],
            "linalg.echelon.rows_in": rows,
            "linalg.echelon.nnz_in": c["linalg.echelon.nnz_in"],
            "linalg.echelon.pivot_ratio": c["linalg.echelon.rank_out"] / rows if rows else 0.0,
            "linalg.in_row_space.hit_ratio": c["linalg.in_row_space.hits"] / irs if irs else 0.0,
            "dual.iter_word_states.states": c["dual.iter_word_states.states"],
            "fodc.QuantumLieAlgebra.certify_dim.errors": c["fodc.QuantumLieAlgebra.certify_dim.errors"],
            "cli.tasks": calls["cli.main"],
            "trace.spans": len(self.spans),
        })
        return out
