"""Line-oriented text format for quasi-Hopf structure-constant data.

The format is data, not a formula language: every line is a keyword, some
basis indices, and one exact scalar token (no internal whitespace; see
quasihopf.exactmath for the scalar syntax, e.g. ``-1/2+z8^3``).  Lines:

    field <n>                        conductor of Q(zeta_n)
    basis <label> <label> ...        fixes dim and the basis order
    unit <i> <scalar>                coordinates of 1
    mul <i> <j> <k> <scalar>         e_i e_j += scalar e_k
    counit <i> <scalar>
    coproduct <i> <j> <k> <scalar>   Delta(e_i) += scalar e_j (x) e_k
    antipode <i> <j> <scalar>        S(e_i) += scalar e_j
    antipode-inv <i> <j> <scalar>
    phi <a> <b> <c> <scalar>         coassociator
    phi-inv <a> <b> <c> <scalar>
    alpha <i> <scalar>
    beta <i> <scalar>
    pivot <i> <scalar>               optional pivotal block
    pivot-inv <i> <scalar>           optional (computed if omitted)
    twist <a> <b> <scalar>           required with pivot
    twist-inv <a> <b> <scalar>
    element <name> <i> <scalar>      optional named elements

Every line after ``basis`` adds its scalar to the coordinate it names, so
a repeated line accumulates: ``mul 0 1 1 1/2`` twice is ``mul 0 1 1 1``.
``#`` starts a comment; blank lines are skipped.  serialize(parse(text))
reproduces canonical documents byte for byte.  Indices and the conductor
are ASCII decimal digits.  ``field`` comes once, before any scalar.

parse reads each distinct scalar token once per document and hands every
later line the same Scalar: a Q(2) spec has thousands of scalar lines but
about twenty distinct tokens.  Sharing is safe because a Scalar is
immutable and a repeated line accumulates into a new one.
"""

from dataclasses import dataclass, field

from quasihopf.algcore import AlgebraData, LinearForm, TensorElement
from quasihopf.exactmath import format_scalar, parse_scalar
from quasihopf.qha import PivotalData, QuasiHopfAlgebra


class SpecSyntaxError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SpecSemanticError(ValueError):
    pass


@dataclass
class SpecDocument:
    conductor: int = None
    labels: list = field(default_factory=list)
    unit: dict = field(default_factory=dict)          # i -> Scalar
    mul: dict = field(default_factory=dict)           # (i, j, k) -> Scalar
    counit: dict = field(default_factory=dict)        # i -> Scalar
    coproduct: dict = field(default_factory=dict)     # (i, j, k) -> Scalar
    antipode: dict = field(default_factory=dict)      # (i, j) -> Scalar
    antipode_inv: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)           # (a, b, c) -> Scalar
    phi_inv: dict = field(default_factory=dict)
    alpha: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)
    pivot: dict = field(default_factory=dict)
    pivot_inv: dict = field(default_factory=dict)
    twist: dict = field(default_factory=dict)         # (a, b) -> Scalar
    twist_inv: dict = field(default_factory=dict)
    cointegral: dict = field(default_factory=dict)    # reference normalization
    elements: dict = field(default_factory=dict)      # name -> {i -> Scalar}

    @property
    def dim(self):
        return len(self.labels)


_INDEXED = {
    "unit": ("unit", 1), "mul": ("mul", 3), "counit": ("counit", 1),
    "coproduct": ("coproduct", 3), "antipode": ("antipode", 2),
    "antipode-inv": ("antipode_inv", 2), "phi": ("phi", 3),
    "phi-inv": ("phi_inv", 3), "alpha": ("alpha", 1), "beta": ("beta", 1),
    "pivot": ("pivot", 1), "pivot-inv": ("pivot_inv", 1),
    "twist": ("twist", 2), "twist-inv": ("twist_inv", 2),
    "cointegral": ("cointegral", 1),
}


def parse(text):
    doc = SpecDocument()
    scalars = {}                # token -> Scalar over doc.conductor
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, args = tokens[0], tokens[1:]
        if key == "field":
            if len(args) != 1 or not _is_decimal(args[0]):
                raise SpecSyntaxError(line_no, "field needs one positive integer")
            if doc.conductor is not None:
                raise SpecSyntaxError(line_no, "field given twice")
            doc.conductor = int(args[0])
        elif key == "basis":
            if not args:
                raise SpecSyntaxError(line_no, "basis needs at least one label")
            doc.labels = list(args)
        elif key == "element":
            if len(args) != 3:
                raise SpecSyntaxError(line_no, "element needs: name, index, scalar")
            name, idx_s, scalar_s = args
            idx = _parse_index(idx_s, line_no)
            val = _parse_scalar_token(scalar_s, doc, line_no, scalars)
            _accumulate(doc.elements.setdefault(name, {}), idx, val)
        elif key in _INDEXED:
            attr, n_idx = _INDEXED[key]
            if len(args) != n_idx + 1:
                raise SpecSyntaxError(
                    line_no, f"{key} needs {n_idx} indices and one scalar")
            idx = tuple(_parse_index(a, line_no) for a in args[:-1])
            val = _parse_scalar_token(args[-1], doc, line_no, scalars)
            _accumulate(getattr(doc, attr), idx[0] if n_idx == 1 else idx, val)
        else:
            raise SpecSyntaxError(line_no, f"unknown keyword {key!r}")
    if doc.conductor is None:
        raise SpecSemanticError("missing 'field' line")
    if not doc.labels:
        raise SpecSemanticError("missing 'basis' line")
    _check_indices(doc)
    return doc


def _accumulate(store, key, val):
    cur = store.get(key)
    store[key] = val if cur is None else cur + val


def _is_decimal(token):
    return token.isascii() and token.isdigit()


def _parse_index(token, line_no):
    if not _is_decimal(token):
        raise SpecSyntaxError(line_no, f"expected a basis index, got {token!r}")
    return int(token)


def _parse_scalar_token(token, doc, line_no, seen):
    val = seen.get(token)
    if val is not None:
        return val
    if doc.conductor is None:
        raise SpecSyntaxError(line_no, "'field' must come before scalar data")
    try:
        val = seen[token] = parse_scalar(token, doc.conductor)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecSyntaxError(line_no, f"bad scalar {token!r}: {exc}") from None
    return val


def _check_indices(doc):
    dim = doc.dim
    for attr, _ in _INDEXED.values():
        for key in getattr(doc, attr):
            idxs = (key,) if isinstance(key, int) else key
            for i in idxs:
                if not 0 <= i < dim:
                    raise SpecSemanticError(
                        f"{attr} index {i} out of range for dimension {dim}")
    for name, coords in doc.elements.items():
        for i in coords:
            if not 0 <= i < dim:
                raise SpecSemanticError(
                    f"element {name!r} index {i} out of range")


def to_algebra(doc):
    """Build and structurally validate the quasi-Hopf algebra of a document.

    Raises SpecSemanticError for missing blocks, a non-invertible
    coassociator, twist or pivot, or an antipode whose stated inverse is
    not one.
    Full axiom verification is the job of qha.check_axioms.
    """
    n = doc.conductor
    dim = doc.dim
    for attr in ("unit", "mul", "counit", "coproduct", "antipode",
                 "antipode_inv", "phi", "phi_inv", "alpha", "beta"):
        if not getattr(doc, attr):
            raise SpecSemanticError(f"missing required block {attr!r}")
    table = {}
    for (i, j, k), c in doc.mul.items():
        if c:
            table.setdefault((i, j), {})[k] = c
    unit = TensorElement(n, 1, {(i,): c for i, c in doc.unit.items()})
    alg = AlgebraData(n, dim, doc.labels, unit, table)

    def images(store, order):
        # image i holds key: c for each (i, *key): c; parse summed repeats
        coeffs = [{} for _ in range(dim)]
        for (i, *key), c in store.items():
            coeffs[i][tuple(key)] = c
        return [TensorElement(n, order, d) for d in coeffs]

    delta = images(doc.coproduct, 2)
    counit = LinearForm(n, 1, {(i,): c for i, c in doc.counit.items()})
    s_imgs = images(doc.antipode, 1)
    si_imgs = images(doc.antipode_inv, 1)
    phi = TensorElement(n, 3, {k: c for k, c in doc.phi.items()})
    psi = TensorElement(n, 3, {k: c for k, c in doc.phi_inv.items()})
    alpha = TensorElement(n, 1, {(i,): c for i, c in doc.alpha.items()})
    beta = TensorElement(n, 1, {(i,): c for i, c in doc.beta.items()})

    pivotal = None
    if doc.pivot or doc.twist:
        if not (doc.pivot and doc.twist and doc.twist_inv):
            raise SpecSemanticError(
                "pivotal data needs pivot, twist and twist-inv together")
        pivot = TensorElement(n, 1, {(i,): c for i, c in doc.pivot.items()})
        twist = TensorElement(n, 2, {k: c for k, c in doc.twist.items()})
        twist_inv = TensorElement(n, 2, {k: c for k, c in doc.twist_inv.items()})
        if alg.mul(twist, twist_inv) != alg.unit_tensor(2):
            raise SpecSemanticError("twist-inv is not the inverse of twist")
        if doc.pivot_inv:
            pivot_inv = TensorElement(n, 1,
                                      {(i,): c for i, c in doc.pivot_inv.items()})
        else:
            pivot_inv = None
        pivotal = (pivot, pivot_inv, twist, twist_inv)

    H = QuasiHopfAlgebra(alg, delta, counit, s_imgs, si_imgs, phi, psi,
                         alpha, beta, pivotal=None)
    if alg.mul(phi, psi) != alg.unit_tensor(3):
        raise SpecSemanticError("phi-inv is not the inverse of phi")
    for i in range(dim):
        b = alg.basis(i)
        if H.S(H.S_inv(b)) != b:
            raise SpecSemanticError(
                f"antipode-inv is not inverse to antipode at {doc.labels[i]}")
    if pivotal is not None:
        pivot, pivot_inv, twist, twist_inv = pivotal
        if pivot_inv is None:
            try:
                pivot_inv = H.invert_element(pivot)
            except ValueError:
                raise SpecSemanticError("pivot is not invertible") from None
        elif alg.mul(pivot, pivot_inv) != alg.unit:
            raise SpecSemanticError("pivot-inv is not the inverse of pivot")
        H.pivotal = PivotalData(pivot, pivot_inv, twist, twist_inv)
    return H


def named_elements(doc):
    n = doc.conductor
    return {name: TensorElement(n, 1, {(i,): c for i, c in coords.items()})
            for name, coords in sorted(doc.elements.items())}


def reference_cointegral(doc):
    """The shipped normalization reference, if the document carries one."""
    if not doc.cointegral:
        return None
    return LinearForm(doc.conductor, 1,
                      {(i,): c for i, c in doc.cointegral.items()})


def from_algebra(H, elements=None, cointegral=None):
    """Document for an algebra; `elements` maps names to TensorElements."""
    doc = SpecDocument(conductor=H.n, labels=list(H.alg.labels))
    doc.unit = {i: c for (i,), c in H.alg.unit.coeffs.items()}
    for (i, j), cell in H.alg.table.items():
        for k, c in cell.items():
            doc.mul[(i, j, k)] = c
    doc.counit = {i: c for (i,), c in H.counit.coeffs.items()}
    for i, img in enumerate(H.delta_images):
        for (j, k), c in img.coeffs.items():
            doc.coproduct[(i, j, k)] = c
    for i, img in enumerate(H.antipode_images):
        for (j,), c in img.coeffs.items():
            doc.antipode[(i, j)] = c
    for i, img in enumerate(H.antipode_inv_images):
        for (j,), c in img.coeffs.items():
            doc.antipode_inv[(i, j)] = c
    doc.phi = dict(H.coassociator.coeffs)
    doc.phi_inv = dict(H.coassociator_inv.coeffs)
    doc.alpha = {i: c for (i,), c in H.alpha.coeffs.items()}
    doc.beta = {i: c for (i,), c in H.beta.coeffs.items()}
    if H.pivotal is not None:
        doc.pivot = {i: c for (i,), c in H.pivotal.pivot.coeffs.items()}
        doc.pivot_inv = {i: c for (i,), c in H.pivotal.pivot_inv.coeffs.items()}
        doc.twist = dict(H.pivotal.twist.coeffs)
        doc.twist_inv = dict(H.pivotal.twist_inv.coeffs)
    if elements:
        for name, el in elements.items():
            doc.elements[name] = {i: c for (i,), c in el.coeffs.items()}
    if cointegral is not None:
        doc.cointegral = {i: c for (i,), c in cointegral.coeffs.items()}
    return doc


def serialize(doc):
    out = [f"field {doc.conductor}", "basis " + " ".join(doc.labels)]

    def emit(keyword, store):
        for key in sorted(store):
            val = store[key]
            if not val:
                continue
            idxs = (key,) if isinstance(key, int) else key
            out.append(f"{keyword} {' '.join(str(i) for i in idxs)} "
                       f"{format_scalar(val)}")

    emit("unit", doc.unit)
    emit("mul", doc.mul)
    emit("counit", doc.counit)
    emit("coproduct", doc.coproduct)
    emit("antipode", doc.antipode)
    emit("antipode-inv", doc.antipode_inv)
    emit("phi", doc.phi)
    emit("phi-inv", doc.phi_inv)
    emit("alpha", doc.alpha)
    emit("beta", doc.beta)
    emit("pivot", doc.pivot)
    emit("pivot-inv", doc.pivot_inv)
    emit("twist", doc.twist)
    emit("twist-inv", doc.twist_inv)
    emit("cointegral", doc.cointegral)
    for name in sorted(doc.elements):
        for i in sorted(doc.elements[name]):
            val = doc.elements[name][i]
            if val:
                out.append(f"element {name} {i} {format_scalar(val)}")
    return "\n".join(out) + "\n"
