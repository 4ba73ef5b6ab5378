"""Finite-dimensional unital algebras given by structure constants.

Elements of tensor powers H^(x k) are sparse coefficient dicts keyed by
index tuples; linear forms on H^(x k) are sparse dual coefficient dicts.
The coproduct, counit and antipode of a quasi-Hopf algebra do not live here
(see quasihopf.qha); this module is the plain algebra layer plus the hook
actions, which take the coproduct as an explicit argument.

All containers are treated as immutable after construction; operations are
pure and deterministic (iteration over stored dicts is sorted wherever the
order is observable).
"""

from quasihopf.exactmath import Scalar, SparseMatrix


class OrderMismatch(ValueError):
    pass


class BadPermutation(ValueError):
    pass


class LegMismatch(ValueError):
    pass


class MissingCoproduct(ValueError):
    pass


class TensorElement:
    """Sparse element of H^(x order); order 0 is a scalar, order 1 an element."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n, order, coeffs=None):
        self.n = n
        self.order = order
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def wrap(cls, n, order, coeffs):
        """Trusting constructor: coeffs already has no zeros."""
        el = cls.__new__(cls)
        el.n = n
        el.order = order
        el.coeffs = coeffs
        return el

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.n, self.order, self.coeffs) == (other.n, other.order, other.coeffs)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TensorElement.wrap(self.n, self.order, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cur = out.get(k)
            s = -v if cur is None else cur - v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TensorElement.wrap(self.n, self.order, out)

    def __neg__(self):
        return TensorElement.wrap(self.n, self.order,
                                  {k: -v for k, v in self.coeffs.items()})

    def scale(self, scalar):
        if not scalar:
            return TensorElement(self.n, self.order)
        return TensorElement.wrap(self.n, self.order,
                                  {k: v * scalar for k, v in self.coeffs.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Scalar)):
            if isinstance(scalar, int):
                scalar = Scalar.from_int(self.n, scalar)
            return self.scale(scalar)
        return NotImplemented

    def tensor(self, other):
        if other.n != self.n:
            raise ValueError("conductor mismatch")
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                out[k1 + k2] = v1 * v2
        return TensorElement.wrap(self.n, self.order + other.order, out)

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def _check(self, other):
        if not isinstance(other, TensorElement) or other.n != self.n:
            raise ValueError("incompatible tensor elements")
        if other.order != self.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __repr__(self):
        terms = ", ".join(f"{k}: {v}" for k, v in self.items_sorted())
        return f"TensorElement(order={self.order}, {{{terms}}})"


def flip(x, perm):
    """Re-index tensor legs: leg j of the result is leg perm[j] of x (1-based).

    flip(a (x) b, (2, 1)) = b (x) a, and flip(x, (3, 2, 1)) realizes the
    subscript-reversal x_321.
    """
    if sorted(perm) != list(range(1, x.order + 1)):
        raise BadPermutation(perm)
    out = {}
    for key, v in x.coeffs.items():
        out[tuple(key[p - 1] for p in perm)] = v
    return TensorElement.wrap(x.n, x.order, out)


class LinearForm:
    """Sparse element of (H^(x order))^*, coefficients on the dual basis."""

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n, order, coeffs=None):
        self.n = n
        self.order = order
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.n, self.order, self.coeffs) == (other.n, other.order, other.coeffs)

    def __add__(self, other):
        if other.order != self.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LinearForm(self.n, self.order, out)

    def scale(self, scalar):
        return LinearForm(self.n, self.order,
                          {k: v * scalar for k, v in self.coeffs.items()})

    def evaluate(self, x):
        if x.order != self.order:
            raise OrderMismatch(f"form order {self.order}, element order {x.order}")
        acc = Scalar.zero(self.n)
        small, big = (self.coeffs, x.coeffs) if len(self.coeffs) <= len(x.coeffs) \
            else (x.coeffs, self.coeffs)
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                acc = acc + v * w
        return acc

    def contract(self, x, legs):
        """Partial evaluation on the given legs of x (0-based positions).

        The form's order must equal len(legs); remaining legs keep their
        original order.  Returns a TensorElement of order x.order - len(legs).
        """
        if len(legs) != self.order:
            raise LegMismatch(f"form of order {self.order} applied to {len(legs)} legs")
        if any(l < 0 or l >= x.order for l in legs):
            raise LegMismatch(f"legs {legs} out of range for order {x.order}")
        keep = [i for i in range(x.order) if i not in set(legs)]
        out = {}
        for key, v in x.coeffs.items():
            fval = self.coeffs.get(tuple(key[l] for l in legs))
            if fval is None:
                continue
            nk = tuple(key[i] for i in keep)
            c = v * fval
            cur = out.get(nk)
            s = c if cur is None else cur + c
            out[nk] = s
        out = {k: v for k, v in out.items() if v}
        return TensorElement.wrap(x.n, len(keep), out)

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        terms = ", ".join(f"{k}: {v}" for k, v in self.items_sorted())
        return f"LinearForm(order={self.order}, {{{terms}}})"


class AlgebraData:
    """Structure-constant presentation of a finite-dimensional unital algebra.

    table[(i, j)] is the sparse coordinate dict of e_i * e_j; absent pairs
    multiply to zero.  The basis order is fixed at construction and is part
    of the data (all reported coordinates use it).
    """

    __slots__ = ("n", "dim", "labels", "unit", "table")

    def __init__(self, n, dim, labels, unit, table):
        self.n = n
        self.dim = dim
        self.labels = list(labels)
        if len(self.labels) != dim:
            raise ValueError("label count does not match dimension")
        self.unit = unit  # TensorElement of order 1
        self.table = table

    def __eq__(self, other):
        if not isinstance(other, AlgebraData):
            return NotImplemented
        return (self.n, self.dim, self.labels, self.unit.coeffs) == \
            (other.n, other.dim, other.labels, other.unit.coeffs) and \
            self.table == other.table

    def basis(self, i):
        return TensorElement.wrap(self.n, 1, {(i,): Scalar.one(self.n)})

    def element(self, coords):
        """Element from {index: Scalar-or-int} coordinates."""
        out = {}
        for i, c in coords.items():
            if isinstance(c, int):
                c = Scalar.from_int(self.n, c)
            if c:
                out[(i,)] = c
        return TensorElement.wrap(self.n, 1, out)

    def unit_tensor(self, order):
        out = TensorElement.wrap(self.n, 0, {(): Scalar.one(self.n)})
        for _ in range(order):
            out = out.tensor(self.unit)
        return out

    def mul(self, x, y):
        """Componentwise product in H^(x k); bilinear, unit^(x k) neutral."""
        if x.order != y.order:
            raise OrderMismatch(f"orders {x.order} and {y.order}")
        table = self.table
        out = {}
        if x.order == 1:
            for (i,), cx in x.coeffs.items():
                for (j,), cy in y.coeffs.items():
                    cell = table.get((i, j))
                    if not cell:
                        continue
                    c = cx * cy
                    for k, ck in cell.items():
                        key = (k,)
                        cur = out.get(key)
                        s = c * ck if cur is None else cur + c * ck
                        out[key] = s
        else:
            for kx, cx in x.coeffs.items():
                for ky, cy in y.coeffs.items():
                    acc = [((), cx * cy)]
                    dead = False
                    for i, j in zip(kx, ky):
                        cell = table.get((i, j))
                        if not cell:
                            dead = True
                            break
                        acc = [(key + (k,), c * ck)
                               for key, c in acc for k, ck in cell.items()]
                    if dead:
                        continue
                    for key, c in acc:
                        cur = out.get(key)
                        s = c if cur is None else cur + c
                        out[key] = s
        out = {k: v for k, v in out.items() if v}
        return TensorElement.wrap(self.n, x.order, out)

    def mul_many(self, *elements):
        it = iter(elements)
        out = next(it)
        for el in it:
            out = self.mul(out, el)
        return out

    def form_on_product(self, form, i, j):
        """form(e_i e_j) = sum_k c_ijk form(e_k), read from the table cell."""
        acc = Scalar.zero(self.n)
        cell = self.table.get((i, j))
        if cell:
            coeffs = form.coeffs
            for k, c in cell.items():
                fv = coeffs.get((k,))
                if fv is not None:
                    acc = acc + c * fv
        return acc

    def left_mult_matrix(self, x):
        """Matrix of a |-> x*a in the fixed basis (x an element)."""
        m = SparseMatrix(self.n, self.dim, self.dim)
        for a in range(self.dim):
            for (i,), c in x.coeffs.items():
                cell = self.table.get((i, a))
                if cell:
                    for k, ck in cell.items():
                        m.add_to(k, a, c * ck)
        return m

    def right_mult_matrix(self, x):
        """Matrix of a |-> a*x in the fixed basis."""
        m = SparseMatrix(self.n, self.dim, self.dim)
        for a in range(self.dim):
            for (j,), c in x.coeffs.items():
                cell = self.table.get((a, j))
                if cell:
                    for k, ck in cell.items():
                        m.add_to(k, a, c * ck)
        return m


def apply_images_leg(images, x, leg):
    """Substitute images[i] (all of one order m) for basis index i on one leg.

    Realizes maps like Delta or S applied to a single tensor factor; the
    result order is x.order - 1 + m.
    """
    out = {}
    for key, c in x.coeffs.items():
        img = images[key[leg]]
        pre, post = key[:leg], key[leg + 1:]
        for ik, ic in img.coeffs.items():
            nk = pre + ik + post
            v = c * ic
            cur = out.get(nk)
            s = v if cur is None else cur + v
            out[nk] = s
    out = {k: v for k, v in out.items() if v}
    order = x.order - 1 + (images[0].order if images else 1)
    return TensorElement.wrap(x.n, order, out)


def sandwiches(A, delta_images, X=None, Y=None):
    """(X Delta(e_h)) Y for every basis h, as one SparseMatrix: row
    x * dim + y, column h holds the coefficient of e_x (x) e_y.  X or Y None
    stands for 1 (x) 1.

    Built leg-wise, never one h at a time: Delta stacked with rows (second
    leg b, h) and columns the first leg a, then two kernel products per
    nontrivial side (_times_legs), whatever its number of terms.  Legs index
    the columns, so no product has more than a few times dim of them.
    """
    n, dim = A.n, A.dim
    stack = SparseMatrix(n, dim * dim, dim, {
        (b * dim + h, a): c for h, d in enumerate(delta_images)
        for (a, b), c in d.coeffs.items()})
    leg = 0  # the leg the columns of stack index
    for Z, left in ((X, True), (Y, False)):
        if Z is not None:
            stack = _times_legs(A, stack, Z, leg, left)
            leg = 1 - leg
    return SparseMatrix(n, dim * dim, dim, {
        (oh // dim * dim + x if leg else x * dim + oh // dim, oh % dim): c
        for (oh, x), c in stack.entries.items()})


def _times_legs(A, stack, Z, leg, left):
    """Z m (left) or m Z for the element m of H (x) H in each row block h
    of stack, whose columns index leg `leg` of m and rows (other leg, h);
    the result has the roles of the legs swapped.

    With Z = sum_z e_z (x) W_z grouped by the factor on `leg`, one product
    applies every e_z side by side, and after one re-key one product applies
    every W_z stacked, which also sums over the groups."""
    n, dim = A.n, A.dim
    groups = {}
    for key, c in Z.coeffs.items():
        groups.setdefault(key[leg], {})[(key[1 - leg],)] = c
    firsts = SparseMatrix(n, dim, len(groups) * dim, {
        (a, g * dim + k): c for g, z in enumerate(groups) for a in range(dim)
        for k, c in A.table.get((z, a) if left else (a, z), {}).items()})
    mult = A.left_mult_matrix if left else A.right_mult_matrix
    seconds = SparseMatrix(n, len(groups) * dim, dim, {
        (g * dim + o, r): c for g, w in enumerate(groups.values())
        for (r, o), c in mult(TensorElement.wrap(n, 1, w)).entries.items()})
    return SparseMatrix(n, dim * dim, len(groups) * dim, {
        (gk % dim * dim + oh % dim, gk // dim * dim + oh // dim): c
        for (oh, gk), c in (stack @ firsts).entries.items()}) @ seconds


# -- hook actions -------------------------------------------------------------
#
# For h, a in H and f in H^*:
#     (h -> f)(a) = f(a h)          form shifted by right multiplication
#     (f <- h)(a) = f(h a)          form shifted by left multiplication
#     f -> h = h_(1) f(h_(2))       element, needs the coproduct
#     h <- f = f(h_(1)) h_(2)       element, needs the coproduct
#
# Only the element actions are functions here; the form shifts are one
# evaluation per basis element where they are used (intcoint.symmetrise).


def hit_elem_right(A, delta_images, f, h):
    """f -> h = h_(1) f(h_(2))."""
    if delta_images is None:
        raise MissingCoproduct("element hook actions need the coproduct")
    dh = apply_images_leg(delta_images, h, 0)
    return f.contract(dh, (1,))


def hit_elem_left(A, delta_images, h, f):
    """h <- f = f(h_(1)) h_(2)."""
    if delta_images is None:
        raise MissingCoproduct("element hook actions need the coproduct")
    dh = apply_images_leg(delta_images, h, 0)
    return f.contract(dh, (0,))
