"""Layer spans recorded from outside the package.

A Tracer rebinds public functions of the freshly imported ffzeta modules to
timing wrappers, for the traced run only, and puts the originals back in
`restore`.  A span's self time is its duration minus the time its child
spans cover; the wrappers' own bookkeeping is charged to no span.  Span
names follow the metric names (`linalg.charpoly`, `poly.pow`, ...), so that
a trace recorded inside the program later can reuse them.
"""

import functools
import math
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) pairs it wraps; an attribute of a class
# is written "Class.method"
SPANS = {
    "fq.context": [("fq", "make_field"), ("fq", "make_galois_ring")],
    "fq.vector_kit": [("fq", "FiniteField.vector_kit")],
    "poly.pow": [("poly", "poly_pow")],
    "hyper.basis": [("hyper", "rd_basis"), ("hyper", "rmd_basis")],
    "hyper.assembly": [("hyper", "hyper_matrix_mod_p"),
                       ("hyper", "hyper_matrix_mod_pm")],
    "hyper.series": [("hyper", "zeta_mod_p"), ("hyper", "zeta_mod_pm"),
                     ("hyper", "torus_zeta")],
    "linalg.charpoly": [("linalg", "charpoly_reverse")],
    "linalg.kernel": [("linalg", "kernel_basis")],
    "linalg.matmul": [("linalg", "SquareMatrix.__matmul__")],
    "zerodim.op_matrix": [("zerodim", "op_matrix")],
    "zerodim.profile": [("zerodim", "degree_profile")],
    "factor.split": [("factor", "factorize")],
    "oracle.count": [("oracle", "count_points")],
    "oracle.exact": [("oracle", "zeta_coeffs_exact")],
    "cli": [("cli", "main")],
}


def _points(args, kwargs):
    f = args[0]
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    domain = args[2] if len(args) > 2 else kwargs.get("domain", "affine")
    side = f.ctx.q ** k - (domain == "torus")
    return side ** f.nvars


def _record_size(tracer, name, out, args, kwargs, dur):
    c = tracer.counts
    if name == "poly.pow":
        c["poly.pow_terms"] += len(out.terms)
    elif name == "hyper.basis":
        c["hyper.basis_dim"] += len(out)
    elif name == "hyper.assembly":
        c["hyper.matrix_calls"] += 1
        c["hyper.matrix_nnz"] += int(out.planes.any(axis=0).sum())
    elif name == "linalg.charpoly":
        c["linalg.charpoly_calls"] += 1
        tracer.charpoly_samples.append((args[0].n, dur))
    elif name == "linalg.kernel":
        c["linalg.kernel_calls"] += 1
    elif name == "zerodim.op_matrix":
        c["zerodim.op_matrix_calls"] += 1
    elif name == "oracle.count":
        c["oracle.points"] += _points(args, kwargs)
    elif name == "cli":
        c["cli.commands"] += 1


class Tracer:
    def __init__(self):
        self._undo = []
        self._stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.charpoly_samples = []

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.self_s[name] += dur - frame[0]
                if ok:
                    _record_size(self, name, out, args, kwargs, dur)
                if stack:
                    stack[-1][0] += time.perf_counter() - t0
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, mod, attr, new):
        self._undo.append((mod, attr, mod.__dict__[attr]))
        setattr(mod, attr, new)

    def install(self, package="ffzeta"):
        """Wrap every function named in SPANS wherever the package's modules
        hold a reference to it, plus a call counter on the gcds that
        factorization runs."""
        mods = [m for k, m in list(sys.modules.items())
                if k == package or k.startswith(package + ".")]
        try:
            for name, targets in SPANS.items():
                for modname, attr in targets:
                    home = sys.modules["%s.%s" % (package, modname)]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(home, cls_name)
                        self._rebind(cls, meth,
                                     self._wrap(name, cls.__dict__[meth]))
                        continue
                    orig = getattr(home, attr)
                    new = self._wrap(name, orig)
                    for mod in mods:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                self._rebind(mod, key, new)
            factor = sys.modules[package + ".factor"]
            self._rebind(factor, "dense_gcd",
                         self._count("factor.gcd_calls", factor.dense_gcd))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def charpoly_slope(self):
        """Least-squares slope of log(charpoly time) on log(dimension);
        0 when fewer than two distinct dimensions were seen."""
        pts = [(math.log(n), math.log(t))
               for n, t in self.charpoly_samples if n > 1 and t > 0]
        if len({x for x, _ in pts}) < 2:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        return sxy / sxx

    def layer_metrics(self):
        """Every per-layer figure of one traced round; layers that did not
        run read 0."""
        s = self.self_s
        c = self.counts
        count_s = s["oracle.count"]
        return {
            "fq.context_s": s["fq.context"],
            "fq.vector_kit_s": s["fq.vector_kit"],
            "poly.pow_s": s["poly.pow"],
            "poly.pow_terms": c["poly.pow_terms"],
            "hyper.basis_s": s["hyper.basis"],
            "hyper.basis_dim": c["hyper.basis_dim"],
            "hyper.assembly_s": s["hyper.assembly"],
            "hyper.matrix_calls": c["hyper.matrix_calls"],
            "hyper.matrix_nnz": c["hyper.matrix_nnz"],
            "hyper.series_s": s["hyper.series"],
            "linalg.charpoly_s": s["linalg.charpoly"],
            "linalg.charpoly_calls": c["linalg.charpoly_calls"],
            "linalg.charpoly_slope": self.charpoly_slope(),
            "linalg.kernel_s": s["linalg.kernel"],
            "linalg.kernel_calls": c["linalg.kernel_calls"],
            "linalg.matmul_s": s["linalg.matmul"],
            "zerodim.op_matrix_s": s["zerodim.op_matrix"],
            "zerodim.op_matrix_calls": c["zerodim.op_matrix_calls"],
            "zerodim.profile_s": s["zerodim.profile"],
            "factor.split_s": s["factor.split"],
            "factor.gcd_calls": c["factor.gcd_calls"],
            "oracle.count_s": count_s,
            "oracle.points": c["oracle.points"],
            "oracle.points_per_s":
                c["oracle.points"] / count_s if count_s else 0.0,
            "oracle.exact_s": s["oracle.exact"],
            "cli.self_s": s["cli"],
            "cli.commands": c["cli.commands"],
        }
