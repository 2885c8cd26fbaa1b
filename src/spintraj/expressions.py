"""Parser for initial/target state expressions.

Grammar: a sum of weighted primitives, where a primitive is one of
Lx(k), Ly(k), Lz(k), T(k, l, m) and a weight is an optional real or
imaginary scalar, e.g. "Lz(0)", "0.5*Lx(0) + 1i*T(0,1,1)", "Lz(0) - Lz(1)".
The result is normalized to unit norm. A lone primitive is rescaled silently
(a spin-1/2 Lz(0) has norm 1/sqrt(2)); a warning is issued only when a
user-weighted expression, one with an explicit coefficient or more than one
term, has a raw norm other than 1.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .engine import StateVector
from .errors import DomainError
from .tensors import ProductBasis

__all__ = ["parse_state"]

_PRIM_RE = re.compile(
    r"^(?:(?P<coef>[^*]+)\*)?\s*(?:"
    r"(?P<cart>L[xyz])\s*\(\s*(?P<spin>\d+)\s*\)"
    r"|T\s*\(\s*(?P<tspin>\d+)\s*,\s*(?P<l>-?\d+)\s*,\s*(?P<m>-?\d+)\s*\)"
    r")$"
)


def _split_terms(text: str) -> list[str]:
    """Split on top-level + and -, keeping signs with the terms."""
    terms = []
    cur = ""
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and cur.strip():
            terms.append(cur.strip())
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur.strip())
    return terms


def _parse_coef(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise DomainError(f"bad scalar coefficient {text!r}") from None


def parse_state(basis: ProductBasis, text: str) -> StateVector:
    """Evaluate a state expression to a unit-norm StateVector."""
    coeffs = np.zeros(basis.dim, dtype=complex)
    terms = _split_terms(text)
    if not terms:
        raise DomainError("empty state expression")
    weighted = len(terms) > 1
    for term in terms:
        sign = 1.0
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].strip()
        match = _PRIM_RE.match(body)
        if not match:
            raise DomainError(f"cannot parse state term {term!r}")
        coef = sign * (_parse_coef(match["coef"]) if match["coef"] else 1.0)
        weighted = weighted or match["coef"] is not None
        try:
            if match["cart"]:
                coeffs += coef * basis.local_coefficients(int(match["spin"]), match["cart"][1])
            else:
                lm = (int(match["l"]), int(match["m"]))
                coeffs += coef * basis.local_coefficients(int(match["tspin"]), lm)
        except DomainError as exc:
            raise DomainError(f"{exc} in {term!r}") from None
    norm = float(np.linalg.norm(coeffs))
    if not 0.0 < norm < np.inf:
        raise DomainError(f"state expression {text!r} has norm {norm}, which cannot be normalized")
    if weighted and abs(norm - 1.0) > 1e-9:
        warnings.warn(
            f"state expression {text!r} has raw norm {norm:.6g}; normalizing to 1",
            stacklevel=2,
        )
    return StateVector(coeffs / norm, basis)
