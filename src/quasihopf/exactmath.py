"""Exact arithmetic over small cyclotomic fields, and exact sparse linear algebra.

A :class:`Scalar` is an element of Q(zeta_n) in the power basis
1, z, z^2, ..., z^(d-1), where d is the degree of the n-th cyclotomic
polynomial.  Internally the coordinates are arbitrary-precision integers over
one common denominator (gcd-reduced after every operation), which keeps the
hot multiply/add paths fast; ``Scalar.coords`` exposes them as Fractions.

Nearly every product the package forms has a rational operand (the tables of
Q(N, beta) hold only +-1 and +-1/2), so ``*`` checks for one first: a factor
in Q scales the other operand's coordinates and multiplies the denominators,
1 returns the other operand itself and -1 negates it.  Only a product of two
genuinely cyclotomic values runs the convolution and the reduction mod Phi_n.
Arithmetic results are built by the module-private ``_canonical``, which
only gcd-reduces; the public constructor keeps its full validation.

:class:`SparseMatrix` products (``@`` and ``apply``) do not go through
``Scalar`` arithmetic per term.  They bring each operand over one common
denominator, sum products of integer numerators (plain ints for rational
entries, coordinate tuples reduced mod Phi_n otherwise) and build one
``Scalar`` per nonzero output entry.

There is no floating point and no tolerance anywhere in this module: equality
of scalars is equality of canonical coordinate vectors, and the linear algebra
(:func:`rank`, :func:`nullspace`, :class:`RowReducer`) is exact Gaussian
elimination over the field.

Conductor n = 1 gives plain Q; n = 4 gives Q(i); the default used by the rest
of the package is n = 8, whose field Q(zeta_8) contains i = zeta_8^2 and all
eighth roots of unity.

All values are immutable after construction and safe to share across threads;
the solver routines are pure functions.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def _poly_divide_exact(num, den):
    """Exact division of integer polynomials (ascending coeffs, den monic)."""
    num = list(num)
    d = len(den) - 1
    out = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        out[i - d] = c
        if c:
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    if any(num[:d]):
        raise ArithmeticError("polynomial division not exact")
    return out


# The reduction table of Q(zeta_n) holds (phi(n) - 1) * phi(n) ints, about
# a million at n = 1000; a larger conductor is refused before it is built.
MAX_CONDUCTOR = 1000


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} exceeds the maximum {MAX_CONDUCTOR}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _field_data(n):
    """(degree d, reduction rows): row j holds the coords of x^(d+j) mod Phi_n."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:d]]  # x^d
    rows.append(tuple(cur))
    for _ in range(d - 2):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            red0 = rows[0]
            cur = [a + top * b for a, b in zip(cur, red0)]
        rows.append(tuple(cur))
    return d, tuple(rows)


def field_degree(n):
    return _field_data(n)[0]


class Scalar:
    """Element of Q(zeta_n), canonical form: gcd(content(num), den) = 1, den > 0."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n, num, den=1):
        d = _field_data(n)[0]
        num = tuple(num)
        if len(num) != d:
            raise ValueError(f"need {d} coordinates for conductor {n}, got {len(num)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = tuple(-a for a in num)
            den = -den
        g = den
        for a in num:
            g = gcd(g, a)
            if g == 1:
                break
        if g > 1:
            num = tuple(a // g for a in num)
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not the guarded
        # slot writes
        return (Scalar, (self.n, self.num, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        z = _ZERO_CACHE.get(n)
        if z is None:
            z = _ZERO_CACHE[n] = cls(n, (0,) * field_degree(n))
        return z

    @classmethod
    def one(cls, n):
        o = _ONE_CACHE.get(n)
        if o is None:
            o = _ONE_CACHE[n] = cls.from_int(n, 1)
        return o

    @classmethod
    def from_int(cls, n, value):
        num = [0] * field_degree(n)
        num[0] = value
        return cls(n, num)

    @classmethod
    def from_fraction(cls, n, frac):
        frac = Fraction(frac)
        num = [0] * field_degree(n)
        num[0] = frac.numerator
        return cls(n, num, frac.denominator)

    @classmethod
    def from_coords(cls, n, coords):
        """Build from a vector of Fractions/ints in the power basis."""
        coords = [Fraction(c) for c in coords]
        den = 1
        for c in coords:
            den = den * c.denominator // gcd(den, c.denominator)
        num = [int(c * den) for c in coords]
        return cls(n, num, den)

    @classmethod
    def zeta(cls, n, power=1):
        d = field_degree(n)
        num = [0] * d
        num[0] = 1
        base = cls(n, num)
        if power % _zeta_order(n) == 0:
            return cls.one(n)
        num = [0] * d
        if d == 1:
            # zeta_1 = 1, zeta_2 = -1
            num[0] = 1 if n == 1 else (-1) ** (power % 2)
            return cls(n, num)
        num[1] = 1
        return cls(n, num) ** (power % _zeta_order(n))

    @property
    def coords(self):
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.n != self.n:
                raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, int):
            return Scalar.from_int(self.n, other)
        if isinstance(other, Fraction):
            return Scalar.from_fraction(self.n, other)
        return None

    def __add__(self, other):
        o = other if type(other) is Scalar and other.n == self.n \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _canonical(self.n, [a + b for a, b in zip(self.num, o.num)],
                              self.den)
        g = gcd(self.den, o.den)
        ma, mb = o.den // g, self.den // g
        return _canonical(self.n, [a * ma + b * mb for a, b in zip(self.num, o.num)],
                          self.den // g * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.n, [-a for a in self.num], self.den)

    def __sub__(self, other):
        o = other if type(other) is Scalar and other.n == self.n \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _canonical(self.n, [a - b for a, b in zip(self.num, o.num)],
                              self.den)
        g = gcd(self.den, o.den)
        ma, mb = o.den // g, self.den // g
        return _canonical(self.n, [a * ma - b * mb for a, b in zip(self.num, o.num)],
                          self.den // g * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is Scalar and other.n == self.n \
            else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        # Rational fast path: nearly every product has an operand in Q.
        if not any(a[1:]):
            return _rational_times(a[0], self.den, o)
        if not any(b[1:]):
            return _rational_times(b[0], o.den, self)
        d, red = _field_data(self.n)
        return _canonical(self.n, _cyclotomic_mul(a, b, d, red),
                          self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: den/num for a rational scalar, else the
        solution y of x y = 1, a d x d linear system over Q whose column j
        holds the coordinates of x zeta^j."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        n = self.n
        d, red = _field_data(n)
        if not any(self.num[1:]):
            return Scalar(n, (self.den,) + (0,) * (d - 1), self.num[0])
        # num zeta^j from num zeta^(j-1): one power up, zeta^d reduced
        cols = [list(self.num)]
        for _ in range(d - 1):
            top, col = cols[-1][-1], [0] + cols[-1][:-1]
            cols.append([a + top * r for a, r in zip(col, red[0])])
        # num y = den as integer rows [coefficients | right side], reduced in
        # place by fraction-free Gauss-Jordan (Bareiss): each division by
        # the previous pivot is exact, and in the end every diagonal entry
        # is the last pivot.  x != 0 in a field, so every column has one.
        rows = [[c[i] for c in cols] + [0] for i in range(d)]
        rows[0][d] = self.den
        prev = 1
        for j in range(d):
            p = next(i for i in range(j, d) if rows[i][j])
            rows[j], rows[p] = rows[p], rows[j]
            pivot = rows[j]
            lead = pivot[j]
            for i in range(d):
                if i != j:
                    f = rows[i][j]
                    rows[i] = [(a * lead - f * b) // prev
                               for a, b in zip(rows[i], pivot)]
            prev = lead
        return Scalar(n, [row[d] for row in rows], prev)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Scalar.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(self.n, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r}, n={self.n})"


_ZERO_CACHE = {}
_ONE_CACHE = {}

_new_scalar = object.__new__
_set_n = Scalar.n.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _canonical(n, num, den):
    """Trusted constructor for arithmetic results.

    The caller guarantees len(num) == field_degree(n) and den > 0, so only
    the gcd reduction of Scalar.__init__ is left; the slots are written
    through their descriptors, past the immutability guard.
    """
    if den != 1:
        g = den
        for a in num:
            g = gcd(g, a)
            if g == 1:
                break
        if g > 1:
            num = [a // g for a in num]
            den //= g
    s = _new_scalar(Scalar)
    _set_n(s, n)
    _set_num(s, tuple(num))
    _set_den(s, den)
    return s


def _rational_times(c, cden, x):
    """(c / cden) * x for canonical c / cden in Q: scale x's coordinates."""
    if cden == 1:
        if c == 1:
            return x  # immutable, so sharing is safe
        if c == -1:
            return _canonical(x.n, [-a for a in x.num], x.den)
    return _canonical(x.n, [c * a for a in x.num], cden * x.den)


def _cyclotomic_mul(a, b, d, red):
    """Integer coordinates of a*b mod Phi_n, for coordinate sequences a, b
    of length d; red is the reduction rows of _field_data(n)."""
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:d]
    for k in range(d, 2 * d - 1):
        ck = conv[k]
        if ck:
            for j, rj in enumerate(red[k - d]):
                if rj:
                    out[j] += ck * rj
    return out


def _zeta_order(n):
    # zeta_n as stored has multiplicative order n (for n=1 order 1)
    return max(n, 1)


# -- string form ------------------------------------------------------------
#
# Canonical serialization: terms by ascending power, no whitespace, rationals
# as p/q, the root of unity written z<n>.  Examples: "0", "-1/2", "z8^2",
# "1/2+3*z8-z8^3".  parse_scalar accepts exactly this shape, with every
# numerator, denominator, root and exponent in ASCII decimal digits (spaces
# are tolerated and stripped).


def format_scalar(s):
    if s.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(s.coords):
        if not c:
            continue
        neg = c < 0
        c = -c if neg else c
        if k == 0:
            body = str(c)
        else:
            z = f"z{s.n}" if k == 1 else f"z{s.n}^{k}"
            body = z if c == 1 else f"{c}*{z}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def parse_scalar(text, n):
    """Parse the canonical scalar syntax into a Scalar over Q(zeta_n)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    d = field_degree(n)
    coords = [Fraction(0)] * d
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i <= len(s):
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        term = s[i:j]
        if not term:
            raise ValueError(f"malformed scalar {text!r}")
        coeff, power = _parse_term(term, n)
        k = power % _zeta_order(n)
        if k >= d:
            zk = Scalar.zeta(n, k)
            for idx, c in enumerate(zk.coords):
                coords[idx] += sign * coeff * c
        else:
            coords[k] += sign * coeff
        if j == len(s):
            break
        sign = -1 if s[j] == "-" else 1
        i = j + 1
    return Scalar.from_coords(n, coords)


def _parse_term(term, n):
    coeff = Fraction(1)
    power = 0
    for factor in term.split("*"):
        if not factor:
            raise ValueError(f"malformed term {term!r}")
        if factor[0] == "z":
            base, caret, exp = factor.partition("^")
            root = _decimal(base[1:])
            if root != n:
                raise ValueError(f"scalar uses z{root} but the field is Q(zeta_{n})")
            power += _decimal(exp) if caret else 1
        else:
            numer, slash, denom = factor.partition("/")
            f = (Fraction(_decimal(numer), _decimal(denom)) if slash
                 else Fraction(_decimal(numer)))
            coeff *= f
    return coeff, power


def _decimal(text):
    """int(text) for ASCII decimal digits only; int() also takes '1_0' and
    non-ASCII digits such as Arabic-Indic ones."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


# -- sparse matrices ---------------------------------------------------------


class SparseMatrix:
    """Sparse matrix over Q(zeta_n): entries maps (row, col) -> nonzero Scalar.

    Instances are treated as frozen once handed out; construction may use
    :meth:`set`.  Iteration orders are deterministic.

    Products (``@`` and :meth:`apply`) run on Python ints.  The left operand
    keeps one column index, built on first use and reset by :meth:`set`: its
    entries as integer numerators over one common denominator D, a plain int
    for a rational entry and the coordinate tuple for a cyclotomic one.  A
    column of the right operand (or the vector) is brought over its own
    common denominator E, the products are summed exactly, and each nonzero
    sum becomes one Scalar over D*E.
    """

    __slots__ = ("n", "rows", "cols", "entries", "_index")

    def __init__(self, n, rows, cols, entries=None):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.entries = dict(entries) if entries else {}
        self._index = None

    @classmethod
    def identity(cls, n, size):
        one = Scalar.one(n)
        return cls(n, size, size, {(i, i): one for i in range(size)})

    def set(self, r, c, value):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        if value:
            self.entries[r, c] = value
        else:
            self.entries.pop((r, c), None)
        self._index = None

    def add_to(self, r, c, value):
        cur = self.entries.get((r, c))
        self.set(r, c, value if cur is None else cur + value)

    def get(self, r, c):
        return self.entries.get((r, c), Scalar.zero(self.n))

    def nnz(self):
        return len(self.entries)

    def row_dicts(self):
        """Rows as a list of {col: Scalar} dicts (zero rows are empty)."""
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def _column_index(self):
        """(D, {col: (rational, cyclotomic)}), each a list of (row, numerator)."""
        if self._index is None:
            den, rat, cyc = _numerators(self.n, self.entries.items())
            cols = {}
            for part, pairs in enumerate((rat, cyc)):
                for (r, c), a in pairs:
                    col = cols.get(c)
                    if col is None:
                        col = cols[c] = ([], [])
                    col[part].append((r, a))
            self._index = (den, cols)
        return self._index

    def transpose(self):
        return SparseMatrix(self.n, self.cols, self.rows,
                            {(c, r): v for (r, c), v in self.entries.items()})

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparseMatrix(self.n, self.rows, self.cols, out)

    def __sub__(self, other):
        return self + other.scale(Scalar.from_int(self.n, -1))

    def scale(self, scalar):
        if not scalar:
            return SparseMatrix(self.n, self.rows, self.cols)
        return SparseMatrix(self.n, self.rows, self.cols,
                            {k: v * scalar for k, v in self.entries.items()})

    def __matmul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.n != other.n:
            raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")
        left = self._column_index()[1]
        by_col = {}
        for (k, j), v in other.entries.items():
            if k not in left:
                continue
            col = by_col.get(j)
            if col is None:
                by_col[j] = [(k, v)]
            else:
                col.append((k, v))
        out = SparseMatrix(self.n, self.rows, other.cols)
        entries = out.entries
        made = {}
        for j, col in by_col.items():
            for i, v in self._times_column(col, made).items():
                entries[i, j] = v
        return out

    def apply(self, vec):
        """Apply to a sparse vector {index: Scalar}; returns the same shape."""
        return self._times_column(vec.items(), {})

    def _times_column(self, items, made):
        """{row: Scalar}, the product with the column given as (index, Scalar)
        pairs; zero sums are dropped.  made maps (numerator, denominator) to
        the Scalar already built for it, so equal entries share one object."""
        n = self.n
        d, red = _field_data(n)
        den, left = self._column_index()
        e, rat, cyc = _numerators(n, items)
        racc = {}  # row -> int sum of rational products
        cacc = {}  # row -> coordinate list of the other products
        get = racc.get
        for k, x in rat:
            col = left.get(k)
            if col is None:
                continue
            for i, a in col[0]:
                racc[i] = get(i, 0) + a * x
            for i, a in col[1]:
                p = [c * x for c in a]
                cur = cacc.get(i)
                cacc[i] = p if cur is None else [s + t for s, t in zip(cur, p)]
        for k, x in cyc:
            col = left.get(k)
            if col is None:
                continue
            for i, a in col[0]:
                p = [a * c for c in x]
                cur = cacc.get(i)
                cacc[i] = p if cur is None else [s + t for s, t in zip(cur, p)]
            for i, a in col[1]:
                p = _cyclotomic_mul(a, x, d, red)
                cur = cacc.get(i)
                cacc[i] = p if cur is None else [s + t for s, t in zip(cur, p)]
        den *= e
        out = {}
        zeros = [0] * (d - 1)
        for i, s in racc.items():
            coords = cacc.get(i)
            if coords is not None:
                coords[0] += s
            elif s:
                v = made.get((s, den))
                if v is None:
                    v = made[s, den] = _canonical(n, [s] + zeros, den)
                out[i] = v
        for i, coords in cacc.items():
            if any(coords):
                key = (tuple(coords), den)
                v = made.get(key)
                if v is None:
                    v = made[key] = _canonical(n, coords, den)
                out[i] = v
        return out

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def items_sorted(self):
        return sorted(self.entries.items())

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def kron_sum(n, shapes, terms):
    """Sum_t c_t M_t1 (x) ... (x) M_tk over terms (c_t, (M_t1, ..., M_tk)),
    k >= 1 and M_ti of shape shapes[i], with row-major indices: row
    (r1, r2, r3) is (r1 * R2 + r2) * R3 + r3, and likewise for columns.
    No terms give the zero matrix of the product shape.

    One kernel product per factor, from the last inward.  acc has one row
    per term and the flattened (row, col) of its product so far as columns,
    starting from the column of the c_t.  The factor's entries, one column
    per term, times acc extend each row by that factor; the first factor's
    rows are not split by term, so that product also sums over t.
    """
    terms = [(c, ms) for c, ms in terms if c]
    acc = SparseMatrix(n, len(terms), 1,
                       {(t, 0): c for t, (c, _) in enumerate(terms)})
    rows = cols = 1
    for i in range(len(shapes) - 1, -1, -1):
        r_i, c_i = shapes[i]
        split = len(terms) if i else 1
        factor = SparseMatrix(n, split * r_i * c_i, len(terms), {
            (((t if i else 0) * r_i + r) * c_i + c, t): v
            for t, (_, ms) in enumerate(terms)
            for (r, c), v in ms[i].entries.items()})
        entries = {}
        for (trc, k), v in (factor @ acc).entries.items():
            t, rc = divmod(trc, r_i * c_i)
            r, c = divmod(rc, c_i)
            rr, cc = divmod(k, cols)
            entries[t, (r * rows + rr) * c_i * cols + c * cols + cc] = v
        rows, cols = rows * r_i, cols * c_i
        acc = SparseMatrix(n, split, rows * cols, entries)
    return SparseMatrix(n, rows, cols,
                        {divmod(k, cols): v for (_, k), v in acc.entries.items()})


def _numerators(n, items):
    """(E, rational, cyclotomic) for (key, Scalar) pairs: E is the common
    denominator, and each value's numerator over E goes with its key into
    rational as an int when the value is in Q, into cyclotomic as its
    coordinate tuple otherwise."""
    items = list(items)
    e = 1
    for _, v in items:
        if v.n != n:
            raise ValueError(f"conductor mismatch: {n} vs {v.n}")
        if e % v.den:
            e = e // gcd(e, v.den) * v.den
    rat, cyc = [], []
    for k, v in items:
        m = e // v.den
        num = v.num
        if any(num[1:]):
            cyc.append((k, tuple(a * m for a in num)))
        else:
            rat.append((k, num[0] * m))
    return e, rat, cyc


class RowReducer:
    """Incremental exact row echelon over Q(zeta_n).

    Rows are fed one at a time ({col: Scalar} dicts); the reducer maintains
    normalized pivot rows.  This streams the elimination of an arbitrarily
    tall stacked system while the unknown count stays small.
    """

    def __init__(self, n, cols):
        self.n = n
        self.cols = cols
        self.pivots = {}  # col -> {col: Scalar}, leading coeff 1
        self._rref_done = False

    def add_row(self, row):
        """Reduce a row against current pivots; returns True if rank grew."""
        row = {c: v for c, v in row.items() if v}
        while row:
            hit = None
            for c in row:
                if c in self.pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                break
            f = row.pop(hit)
            for c, v in self.pivots[hit].items():
                if c == hit:
                    continue
                cur = row.get(c)
                s = -f * v if cur is None else cur - f * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        if not row:
            return False
        lead = min(row)
        inv = row[lead].inverse()
        self.pivots[lead] = {c: v * inv for c, v in row.items()}
        self._rref_done = False
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def _rref(self):
        if self._rref_done:
            return
        for pc in sorted(self.pivots, reverse=True):
            prow = self.pivots[pc]
            for qc, qrow in self.pivots.items():
                if qc != pc and pc in qrow:
                    f = qrow.pop(pc)
                    for c, v in prow.items():
                        if c == pc:
                            continue
                        cur = qrow.get(c)
                        s = -f * v if cur is None else cur - f * v
                        if s:
                            qrow[c] = s
                        else:
                            qrow.pop(c, None)
        self._rref_done = True

    def nullspace(self):
        """Canonical basis of the solution space, as dense Scalar tuples."""
        zero = Scalar.zero(self.n)
        return [tuple(v.get(c, zero) for c in range(self.cols))
                for v in self.null_vectors()]

    def null_vectors(self):
        """The basis of nullspace() as sparse {col: Scalar} dicts, with
        ascending keys: one per free column f, which is 1 at f and -prow[f]
        at each pivot column whose reduced row has an entry at f."""
        self._rref()
        one = Scalar.one(self.n)
        basis = {c: {c: one} for c in range(self.cols)
                 if c not in self.pivots}
        for pc, prow in self.pivots.items():
            for c, v in prow.items():
                if c != pc:
                    basis[c][pc] = -v
        return [dict(sorted(v.items())) for v in basis.values()]


def rank(matrix):
    red = RowReducer(matrix.n, matrix.cols)
    for row in matrix.row_dicts():
        if row:
            red.add_row(row)
    return red.rank


def nullspace(matrix):
    red = RowReducer(matrix.n, matrix.cols)
    for row in matrix.row_dicts():
        if row:
            red.add_row(row)
    return red.nullspace()


def solve_unique(matrix, rhs):
    """Solve M x = rhs for the unique solution; raises if singular.

    rhs is a sparse vector {row: Scalar}; returns {col: Scalar}.
    """
    aug = RowReducer(matrix.n, matrix.cols + 1)
    rows = matrix.row_dicts()
    for r, row in enumerate(rows):
        row = dict(row)
        b = rhs.get(r)
        if b:
            row[matrix.cols] = -b
        if row:
            aug.add_row(row)
    aug._rref()
    if matrix.cols in aug.pivots:
        raise ValueError("inconsistent linear system")
    if aug.rank != matrix.cols:
        raise ValueError("singular system, no unique solution")
    out = {}
    for pc, prow in aug.pivots.items():
        v = prow.get(matrix.cols)
        if v:
            out[pc] = -v
    return out
