"""Sparse multivariate polynomials over a prime field or the rationals.

A polynomial is a dict from exponent tuples to nonzero coefficients, with the
variable count fixed at construction.  Zero coefficients are pruned eagerly so
the invariant "every stored coefficient is nonzero" holds after every
operation.  The textual format is a sum of terms ``c*x1^e1*...*xn^en`` with
``+`` / ``-`` separators; variables are 1-based in the text and 0-based in the
programmatic API.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ArityMismatch, BadInput, FieldMismatch, SchemaError
from .field import FieldSpec, PrimeField, Scalar

NEG_INF = float("-inf")

_TermsLike = Union[Mapping[tuple, Scalar], Iterable[tuple]]


class MultiPoly:
    """Polynomial in ``n_vars`` variables with exact coefficients."""

    __slots__ = ("field", "n_vars", "terms")

    def __init__(self, field: FieldSpec, n_vars: int, terms: _TermsLike = ()):
        if not isinstance(n_vars, int) or isinstance(n_vars, bool) or n_vars < 1:
            raise ArityMismatch(f"n_vars must be a positive integer, got {n_vars!r}")
        clean: dict[tuple[int, ...], Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n_vars:
                raise ArityMismatch(
                    f"exponent vector {exps} has length {len(exps)}, expected {n_vars}"
                )
            for e in exps:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise BadInput(f"exponents must be integers >= 0, got {e!r}")
            c = field.element(coeff)
            if exps in clean:
                c = field.add(clean[exps], c)
            if field.is_zero(c):
                clean.pop(exps, None)
            else:
                clean[exps] = c
        self.field = field
        self.n_vars = n_vars
        self.terms = clean

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, field: FieldSpec, n_vars: int) -> "MultiPoly":
        return cls(field, n_vars)

    @classmethod
    def constant(cls, field: FieldSpec, n_vars: int, value: Scalar) -> "MultiPoly":
        return cls(field, n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, field: FieldSpec, n_vars: int, index: int) -> "MultiPoly":
        """The monomial x_index (0-based index)."""
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < n_vars:
            raise ArityMismatch(
                f"variable index {index!r} out of range for {n_vars} variables"
            )
        exps = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(field, n_vars, {exps: field.one})

    # ------------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field!r} vs {self.field!r}")
            if other.n_vars != self.n_vars:
                raise ArityMismatch(f"{other.n_vars} variables vs {self.n_vars}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return MultiPoly.constant(self.field, self.n_vars, other)
        return NotImplemented

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = fld.add(out.get(exps, fld.zero), c)
            if fld.is_zero(s):
                out.pop(exps, None)
            else:
                out[exps] = s
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        fld = self.field
        return self._raw({e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = fld.add(out.get(e, fld.zero), fld.mul(c1, c2))
                if fld.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        """Repeated squaring; k must be a nonnegative integer."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise BadInput(f"polynomial exponent must be an integer >= 0, got {k!r}")
        result = MultiPoly.constant(self.field, self.n_vars, self.field.one)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: Scalar) -> "MultiPoly":
        fld = self.field
        c = fld.element(c)
        if fld.is_zero(c):
            return MultiPoly.zero(fld, self.n_vars)
        return self._raw({e: fld.mul(v, c) for e, v in self.terms.items()})

    def _raw(self, terms: dict) -> "MultiPoly":
        # internal: terms already canonical (right arity, nonzero, reduced)
        p = MultiPoly.__new__(MultiPoly)
        p.field = self.field
        p.n_vars = self.n_vars
        p.terms = terms
        return p

    # ---------------------------------------------------------------- queries

    def total_degree(self) -> Union[int, float]:
        """Max term degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def coefficient_of(self, exps: Sequence[int]) -> Scalar:
        exps = tuple(exps)
        if len(exps) != self.n_vars:
            raise ArityMismatch(
                f"exponent vector of length {len(exps)}, expected {self.n_vars}"
            )
        return self.terms.get(exps, self.field.zero)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Value at a point, using the 0**0 = 1 convention."""
        if len(point) != self.n_vars:
            raise ArityMismatch(f"point of length {len(point)}, expected {self.n_vars}")
        fld = self.field
        vals = [fld.element(v) for v in point]
        total = fld.zero
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term = fld.mul(term, fld.power(v, e))
            total = fld.add(total, term)
        return total

    def is_restricted(self, d: Sequence[int]) -> bool:
        """True iff no monomial other than x^d itself dominates d coordinatewise."""
        d = tuple(d)
        if len(d) != self.n_vars:
            raise ArityMismatch(f"degree vector of length {len(d)}, expected {self.n_vars}")
        for exps in self.terms:
            if exps == d:
                continue
            if all(k >= di for k, di in zip(exps, d)):
                return False
        return True

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.field!r}, {self.n_vars}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def sorted_terms(f: MultiPoly) -> list[tuple[tuple[int, ...], Scalar]]:
    """Terms in descending graded-lexicographic order (the global ordering)."""
    return [
        (e, f.terms[e]) for e in sorted(f.terms, key=lambda e: (sum(e), e), reverse=True)
    ]


# --------------------------------------------------------------------- text IO

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_poly(text: str, field: FieldSpec, n_vars: int | None = None) -> MultiPoly:
    """Parse the ``c*x1^e1*...*xn^en`` sum-of-terms format.

    Variable indices in the text are 1-based.  When ``n_vars`` is omitted it
    is inferred as the largest index present (at least 1).
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise SchemaError("empty polynomial text")
    chunks: list[str] = []
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-":
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])

    parsed: list[tuple[Scalar, dict[int, int]]] = []
    max_index = 1
    for chunk in chunks:
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise SchemaError(f"dangling sign in polynomial text {text!r}")
        coeff: Scalar = Fraction(sign)
        exps: dict[int, int] = {}
        for factor in body.split("*"):
            m = _VAR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise SchemaError(f"variable indices start at x1, got {factor!r}")
                e = int(m.group(2)) if m.group(2) is not None else 1
                exps[idx] = exps.get(idx, 0) + e
                max_index = max(max_index, idx)
                continue
            m = _NUM_RE.match(factor)
            if m:
                num = int(m.group(1))
                den = int(m.group(2)) if m.group(2) is not None else 1
                if den == 0:
                    raise SchemaError(f"zero denominator in {factor!r}")
                coeff = coeff * Fraction(num, den)
                continue
            raise SchemaError(f"cannot parse factor {factor!r} in {text!r}")
        parsed.append((coeff, exps))

    if n_vars is None:
        n_vars = max_index
    elif max_index > n_vars:
        raise ArityMismatch(
            f"polynomial text uses x{max_index} but only {n_vars} variables declared"
        )
    terms = []
    for coeff, exps in parsed:
        vec = tuple(exps.get(i + 1, 0) for i in range(n_vars))
        terms.append((vec, coeff))
    return MultiPoly(field, n_vars, terms)


def _format_coeff(field: FieldSpec, c: Scalar) -> tuple[str, str]:
    """(sign, magnitude-text); prime-field residues are always nonnegative."""
    if isinstance(field, PrimeField):
        return "+", str(c)
    return ("-", str(-c)) if c < 0 else ("+", str(c))


def format_poly(f: MultiPoly) -> str:
    """Deterministic rendering, graded-lex descending; inverse of parse_poly."""
    if not f.terms:
        return "0"
    pieces: list[tuple[str, str]] = []
    for exps, coeff in sorted_terms(f):
        sign, mag = _format_coeff(f.field, coeff)
        vars_txt = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e > 0
        )
        if not vars_txt:
            pieces.append((sign, mag))
        elif mag == "1":
            pieces.append((sign, vars_txt))
        else:
            pieces.append((sign, f"{mag}*{vars_txt}"))
    head_sign, head = pieces[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
