"""Layer tracing for the benchmark, done from outside the engine.

The tracer wraps public functions and methods of the engine's modules in
place.  A wrapped call opens a span (name, start, end, parent span); spans
nest on a stack, so a span's self time is its duration minus the time its
child spans cover.  The hot kernels (``AlgebraData.mul``,
``apply_images_leg``, ``RowReducer`` steps, ``SparseMatrix @``) are called
hundreds of thousands of times, so their spans are folded into per-name
totals instead of being kept one by one; every other span is kept in memory
and written out by :meth:`Tracer.dump`.  Scalar arithmetic is only counted:
a span per scalar product would cost more than the product.

Functions that other engine modules import by name are replaced in every
``quasihopf`` module that holds them, so calls through those names are
traced too.  Tracing is switched on once per process and never off; the
untraced end-to-end figures come from separate processes.
"""

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, span name, keep each span)
_SPANS = [
    ("qhspec", "parse", "qhspec.parse", True),
    ("qhspec", "to_algebra", "qhspec.to_algebra", True),
    ("algcore", "AlgebraData.mul", "algcore.mul", False),
    ("algcore", "apply_images_leg", "algcore.apply_images_leg", False),
    ("exactmath", "RowReducer.add_row", "exactmath.rowreducer.add_row", False),
    ("exactmath", "RowReducer._rref", "exactmath.rowreducer.rref", False),
    ("exactmath", "RowReducer.nullspace", "exactmath.rowreducer.nullspace", False),
    ("exactmath", "SparseMatrix.__matmul__", "exactmath.matmul", False),
    ("qha", "check_axioms", "qha.check_axioms", True),
    ("qha", "derive_qp", "qha.derive_qp", True),
    ("qha", "derive_UVu", "qha.derive_UVu", True),
    ("qha", "QuasiHopfAlgebra.coopposite", "qha.coopposite", True),
    ("intcoint", "integrals", "intcoint.integrals", True),
    ("intcoint", "modulus", "intcoint.modulus", True),
    ("intcoint", "cointegrals", "intcoint.cointegrals", True),
    ("intcoint", "symmetrise", "intcoint.symmetrise", True),
    ("modtrace", "from_symmetrised_cointegral",
     "modtrace.from_symmetrised_cointegral", True),
    ("modtrace", "verify_reduction", "modtrace.verify_reduction", True),
    ("modtrace", "evaluate", "modtrace.evaluate", True),
    ("modtrace", "ProjectivePresentation.validate",
     "modtrace.presentation_validate", True),
    ("modtrace", "pairing_nondegeneracy", "modtrace.pairing_nondegeneracy", True),
    ("repcat", "partial_trace", "repcat.partial_trace", True),
    ("repcat", "associator", "repcat.associator", True),
    ("repcat", "associator_inv", "repcat.associator", True),
    ("repcat", "phi_psi", "repcat.phi_psi", True),
    ("repcat", "hom_space", "repcat.hom_space", True),
]


class Tracer:
    def __init__(self):
        self.stack = []       # open: [child s, record id, parent id, start]
        self.records = []     # kept spans: (name, start, end, parent id)
        self.totals = {}      # span name -> [calls, seconds, self seconds]
        self.counts = Counter()
        self.scalar = [0, 0, 0, 0]  # mul, mul with a rational operand, new, inverse

    # -- spans ---------------------------------------------------------------

    def span(self, name):
        """Context manager for a kept span opened by the benchmark itself."""
        return _Span(self, name)

    def _enter(self, keep):
        stack = self.stack
        parent_rid = stack[-1][1] if stack else None
        if keep:
            rid = len(self.records)
            self.records.append(None)
        else:
            rid = parent_rid
        frame = [0.0, rid, parent_rid, perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, name, keep, frame):
        end = perf_counter()
        self.stack.pop()
        start = frame[3]
        dur = end - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        if keep:
            self.records[frame[1]] = (name, start, end, frame[2])

    def reset(self):
        """Zero the totals and counts; kept spans stay for :meth:`dump`."""
        if self.stack:
            raise RuntimeError("reset with open spans")
        self.totals.clear()
        self.counts.clear()
        self.scalar[:] = [0, 0, 0, 0]

    # -- reading -------------------------------------------------------------

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path, extra):
        """Write the kept spans, the per-name totals and the counts."""
        doc = {
            "extra": extra,
            "totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
            "scalar": dict(zip(("mul", "mul_rational", "new", "inverse"),
                               self.scalar)),
            "spans": [{"name": r[0], "start": r[1], "end": r[2], "parent": r[3]}
                      for r in self.records if r is not None],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(True)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.name, True, self.frame)
        return False


def _spanned(tracer, name, keep, fn):
    enter, leave = tracer._enter, tracer._exit

    def wrapper(*args, **kwargs):
        frame = enter(keep)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(name, keep, frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _replace_everywhere(old, new):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "quasihopf" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer):
    """Wrap the engine's layers; call before any algebra is built."""
    for mod_name, path, span_name, keep in _SPANS:
        owner = importlib.import_module(f"quasihopf.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        old = getattr(owner, attr)
        new = _spanned(tracer, span_name, keep, old)
        setattr(owner, attr, new)
        if not cls_path:
            _replace_everywhere(old, new)

    _count_kernels(tracer)


def _count_kernels(tracer):
    from quasihopf import algcore, exactmath

    counts = tracer.counts
    scalar = tracer.scalar
    Scalar = exactmath.Scalar

    mul = Scalar.__mul__

    def scalar_mul(self, other):
        out = mul(self, other)
        if out is not NotImplemented:
            scalar[0] += 1
            if (not any(self.num[1:]) or type(other) is not Scalar
                    or not any(other.num[1:])):
                scalar[1] += 1
        return out

    Scalar.__mul__ = Scalar.__rmul__ = scalar_mul

    init = Scalar.__init__

    def scalar_init(self, n, num, den=1):
        scalar[2] += 1
        init(self, n, num, den)

    Scalar.__init__ = scalar_init

    inverse = Scalar.inverse

    def scalar_inverse(self):
        scalar[3] += 1
        return inverse(self)

    Scalar.inverse = scalar_inverse

    alg_mul = algcore.AlgebraData.mul

    def algebra_mul(self, x, y):
        counts[f"algcore.mul.order{x.order}"] += 1
        return alg_mul(self, x, y)

    algcore.AlgebraData.mul = algebra_mul

    add_row = exactmath.RowReducer.add_row

    def reducer_add_row(self, row):
        grew = add_row(self, row)
        counts["exactmath.rowreducer.rows"] += 1
        if grew:
            counts["exactmath.rowreducer.rank_gains"] += 1
        return grew

    exactmath.RowReducer.add_row = reducer_add_row

    matmul = exactmath.SparseMatrix.__matmul__

    def sparse_matmul(self, other):
        out = matmul(self, other)
        if isinstance(out, exactmath.SparseMatrix):
            counts["exactmath.matmul.nnz_out"] += len(out.entries)
        return out

    exactmath.SparseMatrix.__matmul__ = sparse_matmul


def layer_metrics(tracer, setup):
    """The per-layer metrics of one traced run.

    ``setup`` maps the two set-up span names to their seconds, read before
    :meth:`Tracer.reset`; everything else covers the timed run only.
    """
    t = tracer
    c = t.counts
    muls, rational, new, inverse = t.scalar
    rows = c["exactmath.rowreducer.rows"]
    reducer_self = sum(t.self_seconds(f"exactmath.rowreducer.{k}")
                       for k in ("add_row", "rref", "nullspace"))
    out = {
        "qhspec.parse_s": (setup["qhspec.parse"], "s"),
        "qhspec.to_algebra_s": (setup["qhspec.to_algebra"], "s"),
        "exactmath.scalar_mul.count": (muls, "count"),
        "exactmath.scalar_mul.rational_operand_ratio":
            (rational / muls if muls else 0.0, "ratio"),
        "exactmath.scalar_new.count": (new, "count"),
        "exactmath.scalar_inverse.count": (inverse, "count"),
        "exactmath.rowreducer.rows": (rows, "count"),
        "exactmath.rowreducer.rank_gain_ratio":
            (c["exactmath.rowreducer.rank_gains"] / rows if rows else 0.0,
             "ratio"),
        "exactmath.rowreducer.self_s": (reducer_self, "s"),
        "exactmath.rowreducer.rref_s": (t.seconds("exactmath.rowreducer.rref"),
                                        "s"),
        "exactmath.matmul.count": (t.calls("exactmath.matmul"), "count"),
        "exactmath.matmul.nnz_out": (c["exactmath.matmul.nnz_out"], "count"),
        "exactmath.matmul.self_s": (t.self_seconds("exactmath.matmul"), "s"),
        "algcore.mul.calls.order1": (c["algcore.mul.order1"], "count"),
        "algcore.mul.calls.order2": (c["algcore.mul.order2"], "count"),
        "algcore.mul.calls.order3": (c["algcore.mul.order3"], "count"),
        "algcore.mul.self_s": (t.self_seconds("algcore.mul"), "s"),
        "algcore.apply_images_leg.calls":
            (t.calls("algcore.apply_images_leg"), "count"),
        "algcore.apply_images_leg.self_s":
            (t.self_seconds("algcore.apply_images_leg"), "s"),
        "qha.check_axioms.s": (t.seconds("qha.check_axioms"), "s"),
        "qha.derive_qp.calls": (t.calls("qha.derive_qp"), "count"),
        "qha.derive_UVu.calls": (t.calls("qha.derive_UVu"), "count"),
        "qha.derive_UVu.s": (t.seconds("qha.derive_UVu"), "s"),
        "qha.coopposite.calls": (t.calls("qha.coopposite"), "count"),
        "intcoint.modulus.calls": (t.calls("intcoint.modulus"), "count"),
        "intcoint.modulus.s": (t.seconds("intcoint.modulus"), "s"),
        "intcoint.integrals.calls": (t.calls("intcoint.integrals"), "count"),
        "intcoint.cointegrals.s": (t.seconds("intcoint.cointegrals"), "s"),
        "intcoint.symmetrise.s": (t.seconds("intcoint.symmetrise"), "s"),
        "modtrace.from_symmetrised_cointegral.s":
            (t.seconds("modtrace.from_symmetrised_cointegral"), "s"),
        "modtrace.verify_reduction.right_s":
            (t.seconds("modtrace.verify_reduction.right"), "s"),
        "modtrace.verify_reduction.left_s":
            (t.seconds("modtrace.verify_reduction.left"), "s"),
        "modtrace.evaluate.calls": (t.calls("modtrace.evaluate"), "count"),
        "modtrace.evaluate.s": (t.seconds("modtrace.evaluate"), "s"),
        "modtrace.presentation_validate.calls":
            (t.calls("modtrace.presentation_validate"), "count"),
        "repcat.partial_trace.s": (t.seconds("repcat.partial_trace"), "s"),
        "repcat.associator.calls": (t.calls("repcat.associator"), "count"),
        "repcat.associator.s": (t.seconds("repcat.associator"), "s"),
        "repcat.phi_psi.s": (t.seconds("repcat.phi_psi"), "s"),
        "repcat.hom_space.s": (t.seconds("repcat.hom_space"), "s"),
    }
    return out

