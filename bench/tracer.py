"""Spans and counters around greenfn's public functions, from outside.

The package imports names with ``from .x import y``, so a function can be
bound in several module namespaces (sometimes under an alias, as
``twovar.one_var_table``).  ``install`` replaces the function at every
greenfn module binding, and methods on their class, so no call site is
missed.  A named function that no longer exists raises ``TraceError``: a
rename must show up as a failed traced run, never as a zero.

Self time of a span is its duration minus the time covered by its child
spans.  The hottest arithmetic (``RatFunc`` construction, ``CycQ`` mul and
add, ``mat_inv_int``) gets counters only, without clock reads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, defining module, qualified name); one prefix may name
# several functions, whose calls and self times are then summed.
SPANS = (
    ("qpoly.gcd", "greenfn.qpoly", "QPoly.gcd"),
    ("qpoly.render", "greenfn.qpoly", "render_poly"),
    ("green.solve", "greenfn.green", "lusztig_shoji_solve"),
    ("green.green_table", "greenfn.green", "green_table"),
    ("green.orthogonality", "greenfn.green", "green_orthogonality"),
    ("characters.character_table", "greenfn.characters", "character_table"),
    ("rootdata.relative_weyl_group", "greenfn.rootdata", "relative_weyl_group"),
    ("linalg.solve_linear", "greenfn.linalg", "solve_linear"),
    ("linalg.mat_inverse", "greenfn.linalg", "mat_inverse"),
    ("springer.build", "greenfn.springer", "gl_springer"),
    ("springer.build", "greenfn.springer", "gl_levi_springer"),
    ("twovar.engine", "greenfn.twovar", "TwoVarEngine.__init__"),
    ("twovar.blocksum", "greenfn.twovar", "TwoVarEngine.blocksum"),
    ("twovar.rmatrix", "greenfn.twovar", "TwoVarEngine.rmatrix"),
    ("twovar.table", "greenfn.twovar", "green_two_var_table"),
    ("gelfand.induced_gg_norm", "greenfn.gelfand", "induced_gg_norm"),
    ("oracle.group_build", "greenfn.oracle", "FiniteGL.__init__"),
    ("oracle.hc_two_var", "greenfn.oracle", "FiniteGL.hc_two_var"),
)

COUNTED = (
    ("qpoly.ratfunc_new", "greenfn.qpoly", "RatFunc.__init__"),
    ("cyclo.mul", "greenfn.cyclo", "CycQ.__mul__"),
    ("cyclo.add", "greenfn.cyclo", "CycQ.__add__"),
    ("rootdata.mat_inv_int", "greenfn.rootdata", "mat_inv_int"),
)


class TraceError(RuntimeError):
    """A traced name has no binding left in the package."""


def _table_key(table, block_id, reverse_ties=False):
    g = table.group
    return (
        g.label, g.simple_roots, g.twist,
        repr(table.classes), repr(table.systems), repr(table.blocks),
        block_id, reverse_ties,
    )


def _coset_key(coset):
    return frozenset(coset.elements), coset.twist


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.rational = Counter()  # CycQ ops with both operands of conductor 1
        self.trivial_gcd = 0
        self.keys = defaultdict(set)  # span prefix -> distinct argument values
        self._stack = []  # child time accumulated under each open span

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls
        if name in ("cyclo.mul", "cyclo.add"):
            rational = self.rational

            @functools.wraps(fn)
            def wrapper(a, b):
                calls[name] += 1
                if a.n == 1 and getattr(b, "n", 1) == 1:
                    rational[name] += 1
                return fn(a, b)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observer(self, name):
        if name == "qpoly.gcd":
            def observe(args, kwargs, result):
                if result.is_one():
                    self.trivial_gcd += 1
            return observe
        if name == "green.solve":
            def observe(args, kwargs, result):
                self.keys[name].add(_table_key(*args, **kwargs))
            return observe
        if name == "characters.character_table":
            def observe(args, kwargs, result):
                self.keys[name].add(_coset_key(*args, **kwargs))
            return observe
        return None

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every named function at all of its bindings.

        The package must already be imported (``greenfn.cli`` imports every
        module), so all ``from .x import y`` bindings exist.
        """
        for name, module, qualname in SPANS:
            _rebind(module, qualname, lambda fn, n=name: self._span(n, fn, self._observer(n)))
        for name, module, qualname in COUNTED:
            _rebind(module, qualname, lambda fn, n=name: self._counter(n, fn))

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Counts, self times and ratios, keyed by per-layer metric name."""
        c = self.calls

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name in sorted({s[0] for s in SPANS}):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _ in COUNTED:
            out[f"{name}.calls"] = c[name]
        out["qpoly.gcd.trivial_ratio"] = ratio(self.trivial_gcd, c["qpoly.gcd"])
        ops = c["cyclo.mul"] + c["cyclo.add"]
        out["cyclo.rational_share"] = ratio(
            self.rational["cyclo.mul"] + self.rational["cyclo.add"], ops
        )
        for name in ("green.solve", "characters.character_table"):
            out[f"{name}.distinct_ratio"] = ratio(len(self.keys[name]), c[name])
        return out


def _rebind(module_name, qualname, make_wrapper):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        fn = vars(owner).get(attr) if isinstance(owner, type) else None
        if not callable(fn):
            raise TraceError(f"{module_name}.{qualname} has no binding left")
        wrapper = make_wrapper(fn)
        # aliases such as CycQ.__radd__ = __add__ are separate bindings
        for key, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, key, wrapper)
        return
    fn = vars(module).get(attr)
    if not callable(fn):
        raise TraceError(f"{module_name}.{qualname} has no binding left")
    wrapper = make_wrapper(fn)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "greenfn" or name.startswith("greenfn.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
