"""Seeded Bean programs, their inputs, and their known answers.

The benchmark writes its own Bean source text rather than importing the
repository's generators, so a change to those generators cannot change
what is measured.  Every program is a paper family (Table 1) or the
guarded-quotient kernel SafeDiv, written in sequential order, and
``HIGHAM_GRADE`` restates the closed-form backward error bounds the
checker must infer for them (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed.), in units of ε = u/(1-u).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

#: Closed-form grade of each family's linear input, by size n.
HIGHAM_GRADE: Dict[str, Callable[[int], Fraction]] = {
    "DotProd": lambda n: Fraction(n),  # §3.1, error on one vector
    "Sum": lambda n: Fraction(n - 1),  # §4.2, recursive summation
    "Horner": lambda n: Fraction(2 * n),  # §5.1, coefficientwise
    "PolyVal": lambda n: Fraction(n + 1),  # §5.1, term by term
    "MatVecMul": lambda n: Fraction(n),  # §3.5, rowwise inner products
    # fl(x/y) = (x/y)(1+δ) split over both operands, then n-1 additions.
    "SafeDiv": lambda n: Fraction(2 * n - 1, 2),
}

#: The parameter that carries each family's backward error.
LINEAR_PARAM = {
    "DotProd": "x",
    "Sum": "x",
    "Horner": "a",
    "PolyVal": "a",
    "MatVecMul": "M",
}

#: Table 1 of the paper: families and sizes of the cold-audit draw.
TABLE1_SIZES: Dict[str, List[int]] = {
    "DotProd": [20, 50, 100, 500],
    "Horner": [20, 50, 100, 500],
    "PolyVal": [10, 20, 50, 100],
    "MatVecMul": [5, 10, 20, 50],
    "Sum": [50, 100, 500, 1000],
}


def grade_text(coeff: Fraction) -> str:
    """A grade as the audit payload spells it (``0``, ``ε``, ``7ε/2``)."""
    if coeff == 0:
        return "0"
    if coeff == 1:
        return "ε"
    if coeff.denominator == 1:
        return f"{coeff.numerator}ε"
    if coeff.numerator == 1:
        return f"ε/{coeff.denominator}"
    return f"{coeff.numerator}ε/{coeff.denominator}"


def _names(prefix: str, n: int, tag: str) -> List[str]:
    return [f"{prefix}{i}{tag}" for i in range(n)]


def _sum_lets(terms: List[str], tag: str) -> List[str]:
    """Sequential summation of ``terms``; the last line is the result."""
    lines = []
    acc = terms[0]
    for i, term in enumerate(terms[1:], 1):
        if i == len(terms) - 1:
            lines.append(f"add {acc} {term}")
        else:
            lines.append(f"let s{i}{tag} = add {acc} {term} in")
            acc = f"s{i}{tag}"
    return lines


def _tuple(names: List[str]) -> str:
    return "(" + ", ".join(names) + ")"


def sum_source(n: int, tag: str = "") -> str:
    xs = _names("x", n, tag)
    return "\n".join(
        [f"Sum{n}{tag} (x : vec({n})) :=", f"let {_tuple(xs)} = x in"]
        + _sum_lets(xs, tag)
    )


def dot_source(n: int, tag: str = "") -> str:
    xs, ys, ps = _names("x", n, tag), _names("y", n, tag), _names("p", n, tag)
    lines = [
        f"DotProd{n}{tag} (x : vec({n})) (y : !vec({n})) :=",
        f"dlet {_tuple(ys)} = y in",
        f"let {_tuple(xs)} = x in",
    ]
    lines += [f"let {p} = dmul {y} {x} in" for p, x, y in zip(ps, xs, ys)]
    return "\n".join(lines + _sum_lets(ps, tag))


def horner_source(n: int, tag: str = "") -> str:
    a = _names("a", n + 1, tag)
    lines = [
        f"Horner{n}{tag} (a : vec({n + 1})) (z : !num) :=",
        f"let {_tuple(a)} = a in",
    ]
    acc = a[n]
    for i in range(n - 1, -1, -1):
        lines.append(f"let t{i}{tag} = dmul z {acc} in")
        if i == 0:
            lines.append(f"add {a[0]} t0{tag}")
        else:
            lines.append(f"let c{i}{tag} = add {a[i]} t{i}{tag} in")
            acc = f"c{i}{tag}"
    return "\n".join(lines)


def polyval_source(n: int, tag: str = "") -> str:
    a = _names("a", n + 1, tag)
    lines = [
        f"PolyVal{n}{tag} (a : vec({n + 1})) (z : !num) :=",
        f"let {_tuple(a)} = a in",
    ]
    terms = [a[0]]
    for k in range(1, n + 1):
        acc = a[k]
        for j in range(k):
            name = f"m{k}_{j}{tag}"
            lines.append(f"let {name} = dmul z {acc} in")
            acc = name
        terms.append(acc)
    return "\n".join(lines + _sum_lets(terms, tag))


def matvec_source(n: int, tag: str = "") -> str:
    m = [f"m{i}_{j}{tag}" for i in range(n) for j in range(n)]
    zs = _names("z", n, tag)
    lines = [
        f"MatVecMul{n}{tag} (M : vec({n * n})) (z : !vec({n})) :=",
        f"dlet {_tuple(zs)} = z in",
        f"let {_tuple(m)} = M in",
    ]
    outputs = []
    for i in range(n):
        products = []
        for j in range(n):
            p = f"p{i}_{j}{tag}"
            lines.append(f"let {p} = dmul {zs[j]} {m[i * n + j]} in")
            products.append(p)
        row = f"r{i}{tag}"
        sums = _sum_lets(products, f"_{i}{tag}")
        lines += sums[:-1] + [f"let {row} = {sums[-1]} in"]
        outputs.append(row)
    return "\n".join(lines + [_tuple(outputs)])


def safediv_source(n: int, tag: str = "") -> str:
    xs, ys, fs = (_names(p, n, tag) for p in "xyf")
    lines = [
        f"SafeDiv{n}{tag} (x : vec({n})) (y : vec({n})) (f : vec({n})) :=",
        f"let {_tuple(fs)} = f in",
        f"let {_tuple(ys)} = y in",
        f"let {_tuple(xs)} = x in",
    ]
    ws = []
    for i in range(n):
        q, w = f"q{i}{tag}", f"w{i}{tag}"
        lines.append(f"let {q} = div {xs[i]} {ys[i]} in")
        lines.append(
            f"let {w} = case {q} of inl v{i}{tag} => v{i}{tag} "
            f"| inr e{i}{tag} => {fs[i]} in"
        )
        ws.append(w)
    return "\n".join(lines + _sum_lets(ws, tag))


SOURCES: Dict[str, Callable[..., str]] = {
    "Sum": sum_source,
    "DotProd": dot_source,
    "Horner": horner_source,
    "PolyVal": polyval_source,
    "MatVecMul": matvec_source,
    "SafeDiv": safediv_source,
}


def source(family: str, n: int, tag: str = "") -> str:
    """Bean source of ``family`` at size ``n``; ``tag`` renames every
    binder so two requests for the same program send different text."""
    return SOURCES[family](n, tag)


def inputs(
    family: str,
    n: int,
    rows: int,
    rng: np.random.Generator,
    zero_divisor_rows: int = 0,
    zero_divisor_span: int = 0,
) -> Dict[str, np.ndarray]:
    """``rows`` environments for ``family``/``n``, one array per parameter.

    Sum and DotProd draw mixed signs; the other families draw positive
    values (PolyVal/Horner evaluation points in [0.5, 1) keep high
    powers finite).  SafeDiv zeroes one divisor in each of exactly
    ``zero_divisor_rows`` rows, at seeded positions among the first
    ``zero_divisor_span`` rows (default: all), so every prefix at least
    that long sends the same number of rows to the scalar fallback,
    whatever the seed.
    """

    def pos(*shape: int) -> np.ndarray:
        return rng.uniform(0.1, 1.0, shape)

    def mixed(*shape: int) -> np.ndarray:
        return rng.uniform(0.1, 1.0, shape) * rng.choice((-1.0, 1.0), shape)

    if family == "Sum":
        return {"x": mixed(rows, n)}
    if family == "DotProd":
        return {"x": mixed(rows, n), "y": mixed(rows, n)}
    if family in ("Horner", "PolyVal"):
        return {"a": pos(rows, n + 1), "z": rng.uniform(0.5, 1.0, rows)}
    if family == "MatVecMul":
        return {"M": pos(rows, n * n), "z": pos(rows, n)}
    if family == "SafeDiv":
        y = pos(rows, n)
        hit = rng.choice(zero_divisor_span or rows, size=zero_divisor_rows,
                         replace=False)
        y[hit, rng.integers(0, n, size=zero_divisor_rows)] = 0.0
        return {"x": pos(rows, n), "y": y, "f": pos(rows, n)}
    raise ValueError(f"unknown family {family!r}")


def one_row(env: Dict[str, np.ndarray]) -> Dict[str, object]:
    """Row 0 of a batch as a scalar environment (floats / float lists)."""
    out: Dict[str, object] = {}
    for name, column in env.items():
        value = column[0]
        out[name] = float(value) if np.ndim(value) == 0 else value.tolist()
    return out

