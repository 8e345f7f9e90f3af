"""
Exact rational linear programming and convex-hull membership.

The solver is a dense two-phase simplex with Bland's anti-cycling pivot rule,
so every result is an exact rational and repeated runs are bit-identical.  The
tableau holds Python ints: each row is the exact row times a positive factor,
divided by the gcd of its entries after every update, and its entry in its
basic column is its denominator.  Row scaling changes neither the sign tests
nor the ratios rhs/coeff that Bland's rule reads, so the pivots are those of a
rational tableau; only the returned optimum and vertex are
:class:`fractions.Fraction`.  Problem sizes in this package are at most a few
thousand variables, which a dense tableau handles comfortably; there is
deliberately no floating-point path.

All variables are constrained non-negative.  An INFEASIBLE result carries its
proof, ``LpSolution.farkas``: the phase-1 dual y, one entry per eq row and then
per le row, with y . A_j <= 0 for every column j, y_i <= 0 on le rows and
y . b > 0, read off the final phase-1 tableau.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import CapExceeded, InvalidTable

HULL_VERTEX_CAP = 100_000
# Coefficients (vertices x (dimension + 1)) of the hull feasibility LP; the
# exact simplex takes about a second at this size and grows faster than it.
HULL_LP_CAP = 20_000

Row = tuple[tuple[Fraction, ...], Fraction]


def _rows(raw: Sequence[tuple[Sequence, object]]) -> tuple[Row, ...]:
    return tuple(
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in raw
    )


@dataclass(frozen=True)
class LinearProgram:
    """max/min of objective . x subject to eq rows, le rows, and x >= 0."""

    objective: tuple[Fraction, ...]
    maximize: bool = False
    eq: tuple[Row, ...] = ()
    le: tuple[Row, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", tuple(Fraction(c) for c in self.objective))
        object.__setattr__(self, "eq", _rows(self.eq))
        object.__setattr__(self, "le", _rows(self.le))
        n = len(self.objective)
        for coeffs, _ in self.eq + self.le:
            if len(coeffs) != n:
                raise InvalidTable(f"constraint row has {len(coeffs)} coefficients, expected {n}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None  # INFEASIBLE only: see the module docstring


def format_lp(lp: LinearProgram) -> str:
    """Plain-text equation dump for debugging."""

    def term(coeffs: Sequence[Fraction]) -> str:
        parts = [f"{c}*x{j}" for j, c in enumerate(coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"

    lines = [("maximize " if lp.maximize else "minimize ") + term(lp.objective)]
    for coeffs, rhs in lp.eq:
        lines.append(f"  {term(coeffs)} == {rhs}")
    for coeffs, rhs in lp.le:
        lines.append(f"  {term(coeffs)} <= {rhs}")
    lines.append("  x >= 0")
    return "\n".join(lines)


ZERO = Fraction(0)
ONE = Fraction(1)


def _eliminate(row: list[int], pivot_row: list[int], pc: int) -> list[int]:
    """``row`` with column ``pc`` cleared by ``pivot_row``, as a primitive int vector.

    ``pivot_row[pc]`` is positive, so the result is a positive multiple of the
    exact ``row - row[pc] / pivot_row[pc] * pivot_row``.
    """
    p, f = pivot_row[pc], row[pc]
    new = [p * v - f * w for v, w in zip(row, pivot_row)]
    g = gcd(*new)
    return [v // g for v in new] if g > 1 else new


def _pivot(rows: list[list[int]], obj: list[int], pr: int, pc: int) -> None:
    # Only driving an artificial out of the basis can pivot on a negative
    # entry; negating the row keeps its basic entry a positive denominator.
    if rows[pr][pc] < 0:
        rows[pr] = [-v for v in rows[pr]]
    pivot_row = rows[pr]
    for i, row in enumerate(rows):
        if i != pr and row[pc] != 0:
            rows[i] = _eliminate(row, pivot_row, pc)
    if obj[pc] != 0:
        obj[:] = _eliminate(obj, pivot_row, pc)


def _run_simplex(
    rows: list[list[int]], basis: list[int], cost: list[int], ncols: int
) -> LpStatus:
    """Minimize cost over the canonical tableau in place; Bland's rule throughout.

    The reduced-cost row is kept only up to a positive factor: its signs are
    all the entering rule reads.  Ratios rhs/coeff do not depend on a row's
    scale, so the ratio test cross-multiplies the integers.
    """
    obj = cost + [0]
    for row, b in zip(rows, basis):
        if obj[b] != 0:
            obj = _eliminate(obj, row, b)
    while True:
        entering = -1
        for j in range(ncols):
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return LpStatus.OPTIMAL
        leaving, best_rhs, best_coeff = -1, 0, 1
        for i, row in enumerate(rows):
            coeff = row[entering]
            if coeff > 0:
                lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                if leaving < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    best_rhs, best_coeff = row[-1], coeff
                    leaving = i
        if leaving < 0:
            return LpStatus.UNBOUNDED
        _pivot(rows, obj, leaving, entering)
        basis[leaving] = entering


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum and an optimal vertex, or an infeasible/unbounded status."""
    n = lp.n_vars
    n_eq = len(lp.eq)
    n_slack = len(lp.le)
    ncols = n + n_slack
    # Rows without a ready-made basic column (eq rows, le rows with rhs < 0)
    # get an artificial column, in row order.
    n_art = n_eq + sum(1 for _, rhs in lp.le if rhs < 0)

    rows: list[list[int]] = []
    basis: list[int] = []
    next_art = ncols
    for i, (coeffs, rhs) in enumerate(lp.eq + lp.le):
        nums, scale = _scaled(coeffs + (rhs,))
        row = nums[:-1] + [0] * (n_slack + n_art) + nums[-1:]
        if i >= n_eq:
            row[n + i - n_eq] = scale
        if rhs < 0:
            row = [-v for v in row]  # slack coefficient flipped to -1
        if i < n_eq or rhs < 0:
            basis.append(next_art)
            row[next_art] = scale
            next_art += 1
        else:
            basis.append(n + i - n_eq)
        rows.append(row)
    initial = list(basis)

    if n_art:
        status = _run_simplex(rows, basis, [0] * ncols + [1] * n_art, ncols + n_art)
        if status is not LpStatus.OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise AssertionError("phase-1 simplex cannot be unbounded")
        if any(row[-1] != 0 for row, b in zip(rows, basis) if b >= ncols):
            # Farkas ray y = c_B B^-1 (phase 1 costs 1 per artificial): column
            # i of B^-1 is the tableau column of row i's initial basic variable.
            art = [(row, row[b]) for row, b in zip(rows, basis) if b >= ncols]
            y = [sum((Fraction(row[col], den) for row, den in art), start=ZERO) for col in initial]
            signs = [-1 if rhs < 0 else 1 for _, rhs in lp.eq + lp.le]  # rows negated above
            return LpSolution(LpStatus.INFEASIBLE, farkas=tuple(s * v for s, v in zip(signs, y)))
        # Drive remaining artificials out of the basis or drop redundant rows.
        keep: list[int] = []
        for i in range(len(rows)):
            if basis[i] < ncols:
                keep.append(i)
                continue
            pivot_col = next((j for j in range(ncols) if rows[i][j] != 0), -1)
            if pivot_col < 0:
                continue  # redundant constraint
            _pivot(rows, [0] * (ncols + n_art + 1), i, pivot_col)
            basis[i] = pivot_col
            keep.append(i)
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]
        for row in rows:  # phase 2 runs on the original columns only
            del row[ncols:-1]

    cost, _ = _scaled(lp.objective)
    sign = -1 if lp.maximize else 1
    status = _run_simplex(rows, basis, [sign * c for c in cost] + [0] * n_slack, ncols)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED)

    x = [ZERO] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = Fraction(row[-1], row[b])  # a row's basic entry is its denominator
    value = sum((c * v for c, v in zip(lp.objective, x)), start=ZERO)
    return LpSolution(LpStatus.OPTIMAL, value, tuple(x))


@dataclass(frozen=True)
class HullQuery:
    """A rational point and the vertex list it is tested against."""

    point: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", tuple(Fraction(v) for v in self.point))
        object.__setattr__(
            self, "vertices", tuple(tuple(Fraction(v) for v in vert) for vert in self.vertices)
        )
        if not self.vertices:
            raise InvalidTable("hull query needs at least one vertex")
        dim = len(self.point)
        if any(len(v) != dim for v in self.vertices):
            raise InvalidTable("hull vertices must match the point's dimension")


@dataclass(frozen=True)
class HullResult:
    inside: bool
    weights: tuple[Fraction, ...] | None = None
    functional: tuple[Fraction, ...] | None = None  # integer Farkas functional
    separation: Fraction | None = None  # functional . point - max over vertices


def hull_membership(query: HullQuery, cap: int = HULL_VERTEX_CAP) -> HullResult:
    """Exact convex-hull membership by LP feasibility.

    Inside: returns convex weights reproducing the point.  Outside: returns the
    feasibility LP's Farkas functional phi, a primitive integer vector with
    phi . point strictly above phi . v for every vertex (checked exactly before
    returning).  More than ``cap`` vertices, or a feasibility LP above
    ``HULL_LP_CAP`` coefficients, raises :class:`CapExceeded` before any pivot.
    """
    n_verts = len(query.vertices)
    if n_verts > cap:
        raise CapExceeded(f"{n_verts} hull vertices exceed the cap {cap}")
    dim = len(query.point)
    size = n_verts * (dim + 1)
    if size > HULL_LP_CAP:
        raise CapExceeded(
            f"the hull LP has about {size} coefficients ({n_verts} vertices x {dim + 1} rows), "
            f"above the LP size cap {HULL_LP_CAP}"
        )

    eq_rows = []
    for j in range(dim):
        eq_rows.append((tuple(v[j] for v in query.vertices), query.point[j]))
    eq_rows.append((tuple(ONE for _ in range(n_verts)), ONE))
    feasibility = LinearProgram(
        objective=tuple(ZERO for _ in range(n_verts)),
        maximize=False,
        eq=tuple(eq_rows),
    )
    sol = lp_solve(feasibility)
    if sol.status is LpStatus.OPTIMAL:
        return HullResult(inside=True, weights=sol.x)

    # Farkas: y . (v, 1) <= 0 for every vertex v and y . (q, 1) > 0, so the
    # first dim entries of y put q strictly above every vertex.
    nums, _ = _scaled(sol.farkas[:dim])
    g = gcd(*nums)
    phi = tuple(Fraction(v // g) for v in nums)
    at_point = sum((p * q for p, q in zip(phi, query.point)), start=ZERO)
    best_vertex = max(
        sum((p * v for p, v in zip(phi, vert)), start=ZERO) for vert in query.vertices
    )
    if at_point <= best_vertex:  # pragma: no cover - guaranteed by the Farkas dual
        raise AssertionError("separating functional failed its exact strictness check")
    return HullResult(
        inside=False, functional=phi, separation=at_point - best_vertex
    )
