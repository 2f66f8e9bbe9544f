"""Outside-in tracing of qcatalan's layers, for the benchmark's traced passes.

``install`` replaces library functions with timing wrappers from this file;
the library itself is not edited.  Each wrapper is installed under every
name that resolves to the original function: the defining module, every
module that bound it with ``from .x import y``, and class-level aliases
such as ``CycloElem.__rmul__ = __mul__``.

Coarse calls (chain functions, reductions, inversions, parsing, checks)
are recorded as spans: name, start, end, parent span and the check they
belong to.  High-frequency operators (``Poly`` / ``CycloElem`` arithmetic,
the cached ``CycloField`` inverses, ``cyclotomic_poly``) are not spans:
their calls and time are aggregated under the enclosing span, so a trace of
``verify all`` stays bounded.  An operator re-entered from itself (``Poly``
subtraction calling addition, recursive ``cyclotomic_poly``) counts once.

A layer's self time is its time minus the part covered by wrapped callees.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import qcatalan
from qcatalan import charsum, cli, congruence, cyclotomic, qcomb, qdsl, ring, rootid

from workloads import ENTRY

Poly = ring.Poly
CycloElem = cyclotomic.CycloElem
CycloField = cyclotomic.CycloField

# operators aggregated under their enclosing span: name -> (owner, attributes)
OPERATORS = {
    "ring.Poly.add": (Poly, ("__add__", "__sub__", "__rsub__")),
    "ring.Poly.mul": (Poly, ("__mul__",)),
    "ring.Poly.divmod": (Poly, ("divmod", "__divmod__")),
    "cyclotomic.CycloElem.mul": (CycloElem, ("__mul__",)),
    "cyclotomic.CycloElem.add": (CycloElem, ("__add__", "__sub__", "__rsub__")),
    "cyclotomic.CycloField.inv_one_minus": (CycloField, ("inv_one_minus",)),
    "cyclotomic.CycloField.inv_one_plus": (CycloField, ("inv_one_plus",)),
    "cyclotomic.CycloField.element": (CycloField, ("element",)),
    "cyclotomic.cyclotomic_poly": (cyclotomic, ("cyclotomic_poly",)),
}

# layer boundaries recorded as spans
SPANS = {
    "qcomb.catalan_sum": (qcomb, "catalan_sum"),
    "qcomb.central_sum": (qcomb, "central_sum"),
    "qcomb.q_catalan": (qcomb, "q_catalan"),
    "qcomb.gaussian_binomial": (qcomb, "gaussian_binomial"),
    "cyclotomic.reduce_mod_phi_power": (cyclotomic, "reduce_mod_phi_power"),
    "cyclotomic.poly_xgcd": (cyclotomic, "poly_xgcd"),
    "cyclotomic.CycloElem.inv": (CycloElem, "inv"),
    "charsum.character_group": (charsum, "character_group"),
    "charsum.compute_char_sums": (charsum, "compute_char_sums"),
    "qdsl.parse": (qdsl, "parse"),
    "qdsl.shipped_corpus": (qdsl, "shipped_corpus"),
    "qdsl.eval_poly": (qdsl, "eval_poly"),
    "rootid.compute_auxiliaries": (rootid, "compute_auxiliaries"),
    "cli.execute_task": (cli, "execute_task"),
    "cli.run_verify": (cli, "run_verify"),
}

MODULES = (qcatalan, ring, cyclotomic, qcomb, congruence, rootid, charsum, qdsl, cli)


class Tracer:
    """Span and counter store for one traced pass, kept in memory."""

    def __init__(self):
        # name -> [calls, self seconds, total seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (id, name, start, end, parent id, check id, {operator: [calls, s]})
        self.spans: list[tuple] = []
        self.inv_inputs: set = set()
        self._stack: list[list] = []  # [name, child seconds, span or None]
        self._spans_open: list[list] = []  # [id, ops]
        self._depth: dict[str, int] = defaultdict(int)
        self._check = None
        self._next_id = 0

    def call(self, name, is_span, fn, args, kwargs, counted=True):
        stack = self._stack
        if not is_span and stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0, None]
        if is_span:
            self._next_id += 1
            frame[2] = [self._next_id, {}]
            parent = self._spans_open[-1][0] if self._spans_open else None
            self._spans_open.append(frame[2])
            outer_check = self._check
            if name.startswith("check."):
                self._check = self._next_id
        self._depth[name] += 1
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self._depth[name] -= 1
            st = self.stats[name]
            st[0] += counted
            st[1] += dur - frame[1]
            if self._depth[name] == 0:
                st[2] += dur
            if stack:
                stack[-1][1] += dur
            if is_span:
                self._spans_open.pop()
                span_id, ops = frame[2]
                self.spans.append((span_id, name, start, end, parent, self._check, ops))
                self._check = outer_check
            elif self._spans_open:
                agg = self._spans_open[-1][1].setdefault(name, [0, 0.0])
                agg[0] += counted
                agg[1] += dur

    def wrap(self, fn, name, is_span):
        def wrapper(*args, **kwargs):
            return self.call(name, is_span, fn, args, kwargs)

        return wrapper

    def wrap_generator(self, fn, name):
        """Count one call per generator; time every step of its iteration."""

        def wrapper(*args, **kwargs):
            self.stats[name][0] += 1
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, False, next, (gen,), {}, counted=False)
                except StopIteration:
                    return
                yield item

        return wrapper

    def count_only(self, fn, name):
        def wrapper(*args, **kwargs):
            self.stats[name][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, check, ops in self.spans:
                out.write(json.dumps([span_id, name, start, end, parent, check, ops]) + "\n")


def _replace(orig, wrapper, owners) -> None:
    """Rebind every attribute of the owners that is the original object."""
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer, at every name its callers resolve."""
    for name, (owner, attrs) in OPERATORS.items():
        for attr in attrs:
            orig = vars(owner)[attr]
            _replace(orig, tracer.wrap(orig, name, False), MODULES + (owner,))
    for name, (owner, attr) in SPANS.items():
        orig = vars(owner)[attr]
        inner = orig
        if name == "cyclotomic.CycloElem.inv":
            inner = _recording_inputs(orig, tracer.inv_inputs)
        _replace(orig, tracer.wrap(inner, name, True), MODULES + (owner,))
    gen = cli.generate_tasks
    _replace(gen, tracer.wrap_generator(gen, "cli.generate_tasks"), MODULES)
    run_check = congruence.run_check
    _replace(run_check, tracer.count_only(run_check, "congruence.run_check"), MODULES)
    for suite, (module, attr) in ENTRY.items():
        orig = getattr(module, attr)
        _replace(orig, tracer.wrap(orig, "check." + suite, True), MODULES)


def _recording_inputs(inv, seen: set):
    def recording(self):
        seen.add(self)
        return inv(self)

    return recording
