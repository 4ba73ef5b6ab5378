"""The three workloads: what each loads, runs and checks.

Each workload has

* ``specs(seed)``: {file name: spec text}, made before the measured process
  starts;
* ``load(texts, seed)``: the set-up, done as the CLI's ``_load`` does it
  (``qhspec.parse`` + ``qhspec.to_algebra``);
* ``run(loaded, ops, tracer)``: one round of the library calls behind the
  CLI subcommands, each result recorded through ``ops``;
* ``check(loaded, results, seed)``: the list of problems found in the
  results by the computations in ``checks``.

Engine calls go through module attributes (``intcoint.cointegrals``, not a
name imported from it), so that the tracer's wrappers are the ones called.
"""

import sys
import time

import checks
import inputs
from quasihopf import intcoint, modtrace, qha, qhspec, repcat
from quasihopf.algcore import TensorElement
from quasihopf.exactmath import Scalar, SparseMatrix

NAMED = ("x+", "x-", "y+", "y-")


class Ops:
    """A round's operations, run in order, with their results and wall
    times by name.

    After one operation fails, the rest of the round counts as failed, so
    every round attempts the same operations."""

    def __init__(self):
        self.results = {}
        self.seconds = {}
        self.attempted = 0
        self.failed = 0

    def do(self, name, fn, *args, **kwargs):
        self.attempted += 1
        if self.failed:
            self.failed += 1
            return None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            print(f"{name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        self.seconds[name] = time.perf_counter() - t0
        self.results[name] = out
        return out


def _element(H, a):
    """The element sum c_k e_k of H, from {k: int c_k}."""
    return TensorElement(H.n, 1, {(k,): Scalar.from_int(H.n, c)
                                  for k, c in a.items()})


def _load_spec(text):
    doc = qhspec.parse(text)
    return doc, qhspec.to_algebra(doc)


# -- trace-q2 ------------------------------------------------------------------


class TraceQ2:
    """`quasihopf modtrace` on Q(2, beta), for beta^2 = 1 and beta^2 = -1."""

    @staticmethod
    def specs(seed):
        N = inputs.TRACE_N
        return {f"q2-beta{k}.qhs": inputs.spec_text(N, k)
                for k in inputs.beta_powers(N, seed)}

    @staticmethod
    def load(texts, seed):
        loaded = {}
        for k in inputs.beta_powers(inputs.TRACE_N, seed):
            doc, H = _load_spec(texts[f"q2-beta{k}.qhs"])
            loaded[k] = {"H": H, "pin": qhspec.reference_cointegral(doc),
                         "named": qhspec.named_elements(doc),
                         "elements": [_element(H, a) for a in
                                      inputs.trace_elements(seed)]}
        return loaded

    @staticmethod
    def run(loaded, ops, tracer):
        for k, alg in loaded.items():
            H = alg["H"]
            co = ops.do(f"cointegrals@{k}", intcoint.cointegrals, H, "right",
                        pin=alg["pin"])
            sym = ops.do(f"symmetrise@{k}", intcoint.symmetrise, H, co)
            tr = ops.do(f"trace@{k}", modtrace.from_symmetrised_cointegral,
                        H, sym, "right")
            for name in NAMED:
                ops.do(f"{name}@{k}", lambda el: tr.form.evaluate(el),
                       alg["named"][name])
            for i, el in enumerate(alg["elements"]):
                ops.do(f"a{i}@{k}", lambda el: tr.form.evaluate(el), el)

    @staticmethod
    def check(loaded, results, seed):
        problems = []
        elements = inputs.trace_elements(seed)
        for k, alg in loaded.items():
            H = alg["H"]
            tr = results.get(f"trace@{k}")
            if tr is None:
                continue
            t = checks.form_coords(tr.form)
            problems += checks.check_symmetric(H.alg.table, t)
            problems += checks.check_nondegenerate(H.alg.table, t, H.dim)
            got = {name: checks.coords(results[f"{name}@{k}"])
                   for name in NAMED if f"{name}@{k}" in results}
            problems += checks.check_closed_forms(got, inputs.TRACE_N, k)
            values = {i: checks.coords(results[f"a{i}@{k}"])
                      for i in range(len(elements)) if f"a{i}@{k}" in results}
            problems += [f"beta = zeta_8^{k}: {p}" for p in
                         checks.check_element_traces(t, elements, values)]
        return problems


# -- axioms-q2 -----------------------------------------------------------------


class AxiomsQ2:
    """`quasihopf check --budget 128` on Q(2, beta) for beta^2 = 1 and
    beta^2 = -1, and `quasihopf check` on a copy of Q(1, beta) with one
    structure constant's sign flipped."""

    @staticmethod
    def specs(seed):
        N = inputs.AXIOMS_N
        q1 = inputs.spec_text(inputs.MUTANT_N,
                              inputs.beta_power(inputs.MUTANT_N, seed))
        texts = {f"q2-beta{k}.qhs": inputs.spec_text(N, k)
                 for k in inputs.beta_powers(N, seed)}
        texts["q1-mutated.qhs"] = inputs.mutate(q1)
        return texts

    @staticmethod
    def load(texts, seed):
        return {"intact": {k: _load_spec(texts[f"q2-beta{k}.qhs"])[1]
                           for k in inputs.beta_powers(inputs.AXIOMS_N, seed)},
                "mutant": _load_spec(texts["q1-mutated.qhs"])[1],
                "seed": seed}

    @staticmethod
    def run(loaded, ops, tracer):
        for k, H in loaded["intact"].items():
            ops.do(f"intact@{k}", qha.check_axioms, H,
                   pair_budget=inputs.AXIOMS_BUDGET,
                   triple_budget=inputs.AXIOMS_BUDGET, seed=loaded["seed"])
        ops.do("mutated", qha.check_axioms, loaded["mutant"])

    @staticmethod
    def check(loaded, results, seed):
        if "mutated" not in results:
            return []
        problems = []
        for k in loaded["intact"]:
            if f"intact@{k}" in results:
                problems += checks.check_axiom_reports(results[f"intact@{k}"],
                                                       results["mutated"])
        return list(dict.fromkeys(problems))


# -- reduction-q1 --------------------------------------------------------------


def _case_objects(H, a, m):
    n, dim = H.n, H.dim
    a_el = _element(H, a)
    m_mat = SparseMatrix(n, dim, dim)
    for (r, c), v in m.items():
        m_mat.set(r, c, Scalar.from_int(n, v))
    return a_el, m_mat


class ReductionQ1:
    """`quasihopf verify --suite all` on Q(1, beta), then the partial-trace
    property on seeded cases Xi(a (x) m) of End(H (x) H), by two paths."""

    @staticmethod
    def specs(seed):
        return {"q1.qhs": inputs.spec_text(
            inputs.REDUCTION_N, inputs.beta_power(inputs.REDUCTION_N, seed))}

    @staticmethod
    def load(texts, seed):
        return {"H": _load_spec(texts["q1.qhs"])[1],
                "cases": inputs.reduction_cases(seed)}

    @staticmethod
    def run(loaded, ops, tracer):
        H = loaded["H"]
        cases = loaded["cases"]

        def build_trace():
            co = intcoint.cointegrals(H, "right")
            sym = intcoint.symmetrise(H, co)
            return modtrace.from_symmetrised_cointegral(H, sym, "right")

        def verify(side):
            with tracer.span(f"modtrace.verify_reduction.{side}"):
                return modtrace.verify_reduction(H, tr, sample_budget=200,
                                                 seed=0, sides=(side,))

        def pairing():
            reg = repcat.regular_module(H)
            pres = modtrace.trivial_presentation(H, reg)
            return modtrace.pairing_nondegeneracy(
                H, tr, repcat.trivial_module(H, 1), reg, pres)

        tr = ops.do("trace", build_trace)
        ops.do("reduction-right", verify, "right")
        ops.do("reduction-left", verify, "left")
        ops.do("pairing", pairing)

        reg = repcat.regular_module(H)

        def straighten():
            maps = repcat.phi_psi(H, reg)
            return (maps, modtrace.tensor_presentation(H, maps),
                    modtrace.trivial_presentation(H, reg))

        def case(a, m):
            a_el, m_mat = _case_objects(H, a, m)
            f = repcat.xi(H, reg, a_el, m_mat, maps=maps)
            lhs = modtrace.evaluate(tr, pres_hh, f)
            rhs = modtrace.evaluate(tr, pres_h, repcat.partial_trace(f, "right"))
            return lhs, rhs

        maps, pres_hh, pres_h = ops.do("straightening", straighten) or (None,) * 3
        for i, (a, m) in enumerate(cases):
            ops.do(f"case{i}", case, a, m)

    @staticmethod
    def check(loaded, results, seed):
        problems = []
        for name in ("reduction-right", "reduction-left", "pairing"):
            rep = results.get(name)
            if rep is not None and not rep.passed:
                bad = ", ".join(c.name for c in rep.all_failures())
                problems.append(f"{name} report fails: {bad}")
        tr = results.get("trace")
        if tr is None:
            return problems
        t = checks.form_coords(tr.form)
        totals = []
        for i, (a, m) in enumerate(loaded["cases"]):
            got = results.get(f"case{i}")
            if got is None:
                continue
            a_c = {k: checks.rational(c) for k, c in a.items()}
            m_c = {k: checks.rational(c) for k, c in m.items()}
            totals.append((checks.coords(got[0]), checks.coords(got[1]),
                           checks.expected_total(t, a_c, m_c)))
        problems += checks.check_partial_trace(totals)
        problems += checks.check_nonzero_share(totals)
        return problems


WORKLOADS = {"trace-q2": TraceQ2, "axioms-q2": AxiomsQ2,
             "reduction-q1": ReductionQ1}
