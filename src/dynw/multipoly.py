"""Sparse multivariate polynomials with exact rational coefficients.

A MultiPoly stores a map from exponent vectors to nonzero rational
coefficients over an ordered tuple of named variables.  A coefficient is an
int when it is integral and a Fraction with denominator > 1 otherwise, so a
polynomial over Z, such as Phi_n, holds only ints.  Variables are kept
sorted by name and pruned to those actually appearing, so two polynomials
are equal exactly when they are the same polynomial, regardless of how they
were built.

The canonical term order is graded: higher total degree first, ties broken
so that the alphabetically last variable is most significant.  That is the
order used for printing, and it makes `x^2 + x + c + 1` read the usual way.

horner(ring) compiles a polynomial into a Horner-form function of an
assignment over any Ring: RATIONALS, or an FFContext's ring on int codes,
which is the one way polynomials are evaluated over F_q.  evaluate is the
rational case with its input checked.

Text grammar (round-trips with str()):

    poly   := term (('+' | '-') term)*
    term   := (coeff | factor) ('*'? (coeff | factor))*
    factor := ident ('^' uint)?
    coeff  := ['-'] uint ('/' uint)?
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .errors import MissingVariable, MixedScalarKinds, ParseError
from .rational import format_rational

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _term_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), tuple(reversed(exps)))


class Ring(NamedTuple):
    """The scalar operations MultiPoly.horner evaluates with; coerce maps a
    rational coefficient into the ring.  With a modulus, power reduces each
    power mod m as it forms it, the rest runs over Z, and the result is
    reduced once, which is exact: Z -> Z/m is a ring map."""

    coerce: Callable
    add: Callable
    mul: Callable
    power: Callable
    modulus: int | None = None


RATIONALS = Ring(Fraction, operator.add, operator.mul, operator.pow)


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        """Build from an ordered variable tuple and an exponent->coefficient map.

        The input is normalized: coefficients become ints when integral and
        Fractions otherwise, zero coefficients are dropped, variables are
        sorted by name, and unused variables are pruned.
        """
        variables = tuple(variables)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coef in terms.items():
            coef = coef if type(coef) is int else Fraction(coef)
            if not coef:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = clean.get(exps, 0) + coef
        clean = {e: c if c.denominator != 1 else c.numerator for e, c in clean.items() if c}

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
        variables sorted and all used, coefficients nonzero, each an int
        when integral and a Fraction with denominator > 1 otherwise."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = terms
        return poly

    # ------------------------------------------------------------------ basics

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly((), {(): value})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly._normalized((name,), {(1,): 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    def is_zero(self) -> bool:
        return not self.terms

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

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

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
            a[e] = a.get(e, 0) + c
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
            return MultiPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        variables, a, b = self._align(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
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
            terms[key] = terms.get(key, 0) + c * e[i]
        return MultiPoly(self.variables, terms)

    def rename(self, mapping: dict[str, str]) -> "MultiPoly":
        """Rename variables; the exponent vectors are permuted into the sorted
        order of the new names, and the coefficients are kept as they are.
        When the new names keep the order, the terms are shared, since no
        MultiPoly mutates its terms."""
        names = [mapping.get(v, v) for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if names == sorted(names):
            return MultiPoly._normalized(tuple(names), self.terms)
        order = sorted(range(len(names)), key=names.__getitem__)
        terms = {tuple(e[j] for j in order): c for e, c in self.terms.items()}
        return MultiPoly._normalized(tuple(names[j] for j in order), terms)

    def substitute(self, var: str, value: "MultiPoly") -> "MultiPoly":
        """Replace var by a polynomial, via Horner's scheme in var."""
        if var not in self.variables:
            return self
        top = self.degree(var)
        acc = MultiPoly.zero()
        for k in range(top, -1, -1):
            acc = acc * value + self.coefficient_in(var, k)
        return acc

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
                body = format_rational(coef)
            elif coef == 1:
                body = "*".join(factors)
            else:
                body = "*".join([format_rational(coef)] + factors)
            if chunks:
                chunks += ["-" if c < 0 else "+", body]
            else:
                chunks.append("-" + body if c < 0 else body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    @staticmethod
    def parse(text: str) -> "MultiPoly":
        return _parse_poly(text)

    # -------------------------------------------------------------- evaluation

    def evaluate(self, assignment: dict):
        """Exact evaluation at a full assignment of rational scalars (ints or
        Fractions).  Over a finite field, evaluate codes with
        horner(ctx.ring) instead.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise MissingVariable(f"no value for {', '.join(missing)}")
        for v in assignment.values():
            if not isinstance(v, (int, Fraction)):
                raise MixedScalarKinds(f"unsupported scalar {type(v).__name__}")
        return self.horner()(assignment)

    def horner(self, ring: Ring = RATIONALS):
        """This polynomial as a function of an assignment dict, in Horner form.

        The terms are grouped by variable once and each coefficient is
        coerced once, by ring.coerce; the function then evaluates by
        Horner's rule in the first variable that occurs, with coefficients
        that are Horner forms in the later ones, using the ring's add, mul
        and power.
        """
        form = _horner_form(self.variables, self.terms, ring.coerce)
        if type(form) is not tuple:
            return lambda values: form
        evaluate = partial(_horner_eval, form, ring.add, ring.mul, ring.power)
        if ring.modulus is None:
            return evaluate
        modulus = ring.modulus
        return lambda values: evaluate(values) % modulus


def _horner_form(variables: tuple[str, ...], terms: dict, coerce):
    """A coerced constant, or (variable, ((coefficient form, exponent drop
    to the next part), ...)) for the first variable that occurs in terms,
    parts in descending exponent, the last drop being its own exponent."""
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    if not used:
        return coerce(sum(terms.values()))  # the constant term, if any
    first = used[0]
    groups: dict[int, dict] = {}
    for exps, coef in terms.items():
        groups.setdefault(exps[first], {})[exps[first + 1:]] = coef
    exps = sorted(groups, reverse=True)
    drops = [a - b for a, b in zip(exps, exps[1:])] + [exps[-1]]
    rest = variables[first + 1:]
    parts = tuple((_horner_form(rest, groups[e], coerce), drop) for e, drop in zip(exps, drops))
    return variables[first], parts


def _horner_eval(form, add, mul, power, values: dict):
    var, parts = form
    x = values[var]
    acc = None
    for sub, drop in parts:
        if type(sub) is tuple:
            sub = _horner_eval(sub, add, mul, power, values)
        acc = sub if acc is None else add(acc, sub)
        if drop:
            acc = mul(acc, x if drop == 1 else power(x, drop))
    return acc


# ---------------------------------------------------------------------- parser


def _parse_poly(text: str) -> MultiPoly:
    """Collect every term's factors and signed coefficient, then build the
    polynomial once over the union of their variables."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    parsed: list[tuple[dict[str, int], int | Fraction]] = []
    i = 0
    sign = 1
    expecting_term = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            sign = -sign if tok == "-" else sign
            expecting_term = True
            i += 1
            continue
        factors, coef, i = _parse_term(tokens, i)
        parsed.append((factors, coef * sign))
        sign = 1
        expecting_term = False
    if expecting_term:
        raise ParseError(f"dangling operator in {text!r}")
    variables = tuple(sorted({v for factors, _ in parsed for v in factors}))
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for factors, coef in parsed:
        exps = tuple(factors.get(v, 0) for v in variables)
        terms[exps] = terms.get(exps, 0) + coef
    return MultiPoly(variables, terms)


def _parse_term(tokens: list[str], i: int):
    """(factor exponents, coefficient, next token index) of the term at i."""
    coef = 1
    factors: dict[str, int] = {}
    saw_factor = False
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            break
        if tok == "*":
            after = tokens[i + 1] if i + 1 < len(tokens) else ""
            if not saw_factor or not (after.isdigit() or _IDENT.fullmatch(after)):
                raise ParseError("'*' must stand between two factors")
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
    return factors, coef, i


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
