"""Sparse multivariate polynomials with exact rational coefficients.

A MultiPoly stores a map from exponent vectors to nonzero Rational
coefficients over an ordered tuple of named variables.  Variables are kept
sorted by name and pruned to those actually appearing, so two polynomials
are equal exactly when they are the same polynomial, regardless of how they
were built.

The canonical term order is graded: higher total degree first, ties broken
so that the alphabetically last variable is most significant.  That is the
order used for printing, and it makes `x^2 + x + c + 1` read the usual way.

Text grammar (round-trips with str()):

    poly   := term (('+' | '-') term)*
    term   := [coeff] ('*'? factor)*
    factor := ident ('^' uint)?
    coeff  := ['-'] uint ('/' uint)?
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, reduce
from math import gcd

from .errors import MissingVariable, MixedScalarKinds, ParseError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _term_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), tuple(reversed(exps)))


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        """Build from an ordered variable tuple and an exponent->coefficient map.

        The input is normalized: coefficients become Fractions, zero
        coefficients are dropped, variables are sorted by name, and unused
        variables are pruned.
        """
        variables = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in terms.items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = clean.get(exps, Fraction(0)) + coef
        clean = {e: c for e, c in clean.items() if c != 0}

        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        kept = [variables[i] for i in used]
        order = sorted(range(len(kept)), key=lambda j: kept[j])
        self.variables = tuple(kept[j] for j in order)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.terms = {
            tuple(e[used[j]] for j in order): c for e, c in clean.items()
        }

    @classmethod
    def _normalized(cls, variables: tuple[str, ...], terms: dict) -> "MultiPoly":
        """Build without normalizing, from input that already is normal:
        variables sorted and all used, coefficients nonzero Fractions."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = terms
        return poly

    # ------------------------------------------------------------------ basics

    @staticmethod
    def constant(value) -> "MultiPoly":
        value = Fraction(value)
        return MultiPoly((), {(): value} if value else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if self.variables:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def copy_with_variables(self, variables: tuple[str, ...]) -> dict:
        """Exponent map of self over a larger variable tuple (sorted superset)."""
        pos = {v: i for i, v in enumerate(variables)}
        out = {}
        for e, c in self.terms.items():
            vec = [0] * len(variables)
            for v, ev in zip(self.variables, e):
                vec[pos[v]] = ev
            out[tuple(vec)] = c
        return out

    def degree(self, var: str) -> int:
        """Degree in one variable; zero polynomial and absent variables give -1/0."""
        if var not in self.variables:
            return 0 if self.terms else -1
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_term_key)
        return e, self.terms[e]

    # -------------------------------------------------------------- arithmetic

    def _align(self, other: "MultiPoly"):
        variables = tuple(sorted(set(self.variables) | set(other.variables)))
        return variables, self.copy_with_variables(variables), other.copy_with_variables(variables)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        variables, a, b = self._align(other)
        for e, c in b.items():
            a[e] = a.get(e, Fraction(0)) + c
        return MultiPoly(variables, a)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return MultiPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        variables, a, b = self._align(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return MultiPoly(variables, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ------------------------------------------------------------------ parts

    def coefficient_in(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var^k, as a polynomial in the remaining variables."""
        if var not in self.variables:
            return self if k == 0 else MultiPoly.zero()
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1:]
        terms = {
            e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == k
        }
        return MultiPoly(rest, terms)

    def partial(self, var: str) -> "MultiPoly":
        """Partial derivative with respect to var."""
        if var not in self.variables:
            return MultiPoly.zero()
        i = self.variables.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            key = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms[key] = terms.get(key, Fraction(0)) + c * e[i]
        return MultiPoly(self.variables, terms)

    def rename(self, mapping: dict[str, str]) -> "MultiPoly":
        variables = tuple(mapping.get(v, v) for v in self.variables)
        return MultiPoly(variables, dict(self.terms))

    def substitute(self, var: str, value: "MultiPoly") -> "MultiPoly":
        """Replace var by a polynomial, via Horner's scheme in var."""
        if var not in self.variables:
            return self
        top = self.degree(var)
        acc = MultiPoly.zero()
        for k in range(top, -1, -1):
            acc = acc * value + self.coefficient_in(var, k)
        return acc

    def content(self) -> Fraction:
        """gcd of coefficients: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(0)
        num = reduce(gcd, (abs(c.numerator) for c in self.terms.values()))
        den = reduce(lambda a, b: a * b // gcd(a, b), (c.denominator for c in self.terms.values()))
        return Fraction(num, den)

    # --------------------------------------------------------------- printing

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            factors = []
            for v, ev in zip(self.variables, e):
                if ev == 1:
                    factors.append(v)
                elif ev > 1:
                    factors.append(f"{v}^{ev}")
            coef = abs(c)
            if not factors:
                body = _coef_str(coef)
            elif coef == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_coef_str(coef)] + factors)
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    @staticmethod
    def parse(text: str) -> "MultiPoly":
        return _parse_poly(text)

    # -------------------------------------------------------------- evaluation

    def evaluate(self, assignment: dict):
        """Exact evaluation at a full assignment of scalars.

        All values must be rational, or all must be finite-field elements of
        one context; coefficients are coerced into that field.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise MissingVariable(f"no value for {', '.join(missing)}")
        values = [assignment[v] for v in self.variables]
        probe = values if values else list(assignment.values())
        kinds = {_scalar_kind(v) for v in probe}
        if len(kinds) > 1:
            raise MixedScalarKinds(f"mixed scalar kinds: {sorted(kinds)}")
        kind = kinds.pop() if kinds else "rational"
        if kind == "ff":
            ctxs = {v.context for v in probe}
            if len(ctxs) > 1:
                raise MixedScalarKinds("finite-field values from different contexts")
            coerce = ctxs.pop().from_rational
        else:
            for v in values:
                if not isinstance(v, (int, Fraction)):
                    raise MixedScalarKinds(f"unsupported scalar {type(v).__name__}")
            coerce = Fraction
        return self.horner(coerce)(assignment)

    def horner(self, coerce):
        """This polynomial as a function of an assignment dict, in Horner form.

        The terms are grouped by variable once and each coefficient is
        coerced once, by `coerce` (Fraction, or a field's from_rational);
        the function then evaluates by Horner's rule in the first variable,
        with coefficients that are Horner forms in the remaining ones.
        """
        return partial(_horner_eval, _horner_form(self.variables, self.terms, coerce))


def _scalar_kind(v) -> str:
    if isinstance(v, (int, Fraction)):
        return "rational"
    if hasattr(v, "context") and hasattr(v, "coeffs"):
        return "ff"
    return type(v).__name__


def _horner_form(variables: tuple[str, ...], terms: dict, coerce):
    """(variable, ((coefficient form, exponent drop to the next part), ...)),
    parts in descending exponent, the last drop being its own exponent; a
    constant is (None, coerced value)."""
    if not variables:
        return None, coerce(terms.get((), 0))
    groups: dict[int, dict] = {}
    for exps, coef in terms.items():
        groups.setdefault(exps[0], {})[exps[1:]] = coef
    exps = sorted(groups, reverse=True)
    drops = [a - b for a, b in zip(exps, exps[1:])] + [exps[-1]]
    parts = tuple(
        (_horner_form(variables[1:], groups[e], coerce), drop) for e, drop in zip(exps, drops)
    )
    return variables[0], parts


def _horner_eval(form, values: dict):
    var, parts = form
    if var is None:
        return parts
    x = values[var]
    acc = None
    for sub, drop in parts:
        value = _horner_eval(sub, values)
        acc = value if acc is None else acc + value
        if drop:
            acc = acc * (x if drop == 1 else x**drop)
    return acc


def _coef_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------- parser


def _parse_poly(text: str) -> MultiPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    result = MultiPoly.zero()
    i = 0
    sign = 1
    expecting_term = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            if expecting_term and tok == "-":
                sign = -sign
                i += 1
                continue
            if expecting_term:
                i += 1
                continue
            sign = -1 if tok == "-" else 1
            expecting_term = True
            i += 1
            continue
        term, i = _parse_term(tokens, i)
        result = result + term * sign
        sign = 1
        expecting_term = False
    if expecting_term:
        raise ParseError(f"dangling operator in {text!r}")
    return result


def _parse_term(tokens: list[str], i: int):
    coef = Fraction(1)
    factors: dict[str, int] = {}
    saw_factor = False
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            break
        if tok == "*":
            i += 1
            continue
        if tok.isdigit():
            num = int(tok)
            i += 1
            if i < len(tokens) and tokens[i] == "/":
                if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                    raise ParseError("malformed fraction")
                den = int(tokens[i + 1])
                if den == 0:
                    raise ParseError("zero denominator")
                coef *= Fraction(num, den)
                i += 2
            else:
                coef *= num
            saw_factor = True
            continue
        if _IDENT.fullmatch(tok):
            power = 1
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                    raise ParseError("malformed power")
                power = int(tokens[i + 1])
                i += 2
            factors[tok] = factors.get(tok, 0) + power
            saw_factor = True
            continue
        raise ParseError(f"unexpected token {tok!r}")
    if not saw_factor:
        raise ParseError("empty term")
    variables = tuple(sorted(factors))
    exps = tuple(factors[v] for v in variables)
    return MultiPoly(variables, {exps: coef}), i


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(m.group(0))
            i = m.end()
            continue
        raise ParseError(f"bad character {ch!r} in polynomial")
    return tokens
