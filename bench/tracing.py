"""Spans recorded from outside the program, and self times computed from them.

``Tracer.install`` replaces each traced orthokit function by a wrapper in
every ``orthokit.*`` namespace that holds it (the defining module and every
module that imported the name), so calls between modules pass through the
wrapper too.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, failed, extra]`` with ``parent`` an
index into the same request's span list (-1 for the request's root).
Spans stay in memory for the request and are folded into totals between
requests, outside the timed region.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Package modules and the layer each belongs to.
LAYERS = {
    "orthokit.matrix": "matrix",
    "orthokit.reflectors": "reflectors",
    "orthokit.qr": "qr",
    "orthokit.projectors": "projectors",
    "orthokit.svd": "svd",
    "orthokit.lstsq": "lstsq",
    "orthokit.apps.digits": "apps",
    "orthokit.apps.fitting": "apps",
    "orthokit.apps.image": "apps",
    "orthokit.apps.pca": "apps",
    "orthokit.apps.text": "apps",
    "orthokit.cli": "cli",
}
LAYER_NAMES = ("matrix", "reflectors", "qr", "projectors", "svd", "lstsq", "apps", "cli")

# Non-public functions that public code calls across modules: the CLI's
# compress command, lstsq's reflector application and the reflector norm.
NON_PUBLIC = {"orthokit.apps.image": ("_compress",),
              "orthokit.reflectors": ("apply_reflector_to_vector", "stable_norm")}

# Scalar helpers called tens of thousands of times per factorization
# (givens_params runs ~42k times in one 150x150 svd): counted, not timed.
COUNT_ONLY = {"reflectors.givens_params", "reflectors.stable_norm"}

# Calls that factor a matrix.  lstsq.factorizations_per_request counts the
# outermost of these in each request that enters the lstsq layer.
FACTORIZATIONS = {"qr.qr_householder", "qr.qr_pivoted", "qr.qr_givens", "qr.qr_hessenberg",
                  "svd.svd", "svd.singular_values", "matrix.cholesky"}


def form_q_flops(args, kwargs, _out) -> float:
    """LAPACK's count for forming Q (xORGQR): an m x c matrix from k
    reflectors costs 4mck - 2(m+c)k^2 + 4k^3/3 flops."""
    reflectors, m = args[0], args[1]
    c = args[2] if len(args) > 2 else kwargs.get("cols")
    c = m if c is None else c
    k = len(reflectors)
    return 4.0 * m * c * k - 2.0 * (m + c) * k * k + 4.0 * k ** 3 / 3.0


def svd_u_cols(_args, _kwargs, out) -> int:
    return out.u.shape[1]


# Data kept on a span, computed from its call's arguments and result.
SPAN_DATA = {"qr.form_q": form_q_flops, "svd.svd": svd_u_cols}


def traced_functions():
    """``{function: metric name}`` for every traced function, e.g.
    ``svd.bidiagonalize``."""
    out = {}
    for modname, layer in LAYERS.items():
        mod = sys.modules[modname]
        names = list(getattr(mod, "__all__", ())) + list(NON_PUBLIC.get(modname, ()))
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == modname:
                out[fn] = f"{layer}.{fn.__name__}"
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack = self.spans, self.stack
        extra = SPAN_DATA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(fn, name)) for fn, name in traced_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "orthokit" and not modname.startswith("orthokit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- requests ------------------------------------------------------

    def begin(self) -> None:
        """Open the root span of one request."""
        self.spans.clear()
        self.counts.clear()
        self.spans.append(["request", perf_counter(), 0.0, -1, False, None])
        self.stack[:] = [0]

    def end(self) -> list[list]:
        self.spans[0][2] = perf_counter()
        self.stack.clear()
        return self.spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged, not double counted)."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[1], sp[2]
        covered = 0.0
        run_s = run_e = None
        for c_s, c_e in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if c_e <= c_s:
                continue
            if run_e is None or c_s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = c_s, c_e
            else:
                run_e = max(run_e, c_e)
        if run_e is not None:
            covered += run_e - run_s
        out.append((end - start) - covered)
    return out


class Totals:
    """Per-layer and per-function sums over many traced requests."""

    def __init__(self):
        self.requests = 0
        self.wall = 0.0         # root span durations
        self.unattributed = 0.0  # root self time: inside a request, outside orthokit
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.form_q_flops = 0.0
        self.lstsq_requests = 0
        self.lstsq_factorizations = 0
        self.k_used = 0
        self.u_cols = 0

    def add(self, spans, counts, k_used: int = 0) -> None:
        selfs = self_times(spans)
        self.requests += 1
        self.wall += spans[0][2] - spans[0][1]
        self.unattributed += selfs[0]
        factorizations = u_cols = 0
        uses_lstsq = False
        for i in range(1, len(spans)):
            name, _, _, parent, failed, extra = spans[i]
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                self.self_s[key] += selfs[i]
                self.calls[key] += 1
                self.errors[key] += failed
            uses_lstsq = uses_lstsq or layer == "lstsq"
            if name in FACTORIZATIONS and _ancestor(spans, parent, FACTORIZATIONS.__contains__) is None:
                factorizations += 1
            if extra is None:  # the call raised
                continue
            if name == "qr.form_q":
                self.form_q_flops += extra
            elif name == "svd.svd" and _ancestor(spans, parent, "svd.svd".__eq__) is None:
                owner = _ancestor(spans, parent, lambda n: not n.startswith(("svd.", "matrix.")))
                if owner is not None and spans[owner][0].startswith("apps."):
                    u_cols += extra
        if uses_lstsq:
            self.lstsq_requests += 1
            self.lstsq_factorizations += factorizations
        if u_cols:
            self.u_cols += u_cols
            self.k_used += k_used
        for name, n in counts.items():
            self.calls[name] += n
            self.calls[name.split(".", 1)[0]] += n


def _ancestor(spans, i, pred):
    """Index of the nearest span at or above ``i`` whose name satisfies
    ``pred`` (the root never does), or None."""
    while i > 0:
        if pred(spans[i][0]):
            return i
        i = spans[i][3]
    return None
