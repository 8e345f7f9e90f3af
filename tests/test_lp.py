import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from causelab import (
    LinearProgram,
    LpStatus,
    hull_membership,
    lp_solve,
)
from causelab import lp as lp_module
from causelab.errors import InvalidTable, SearchSpaceTooLarge
from causelab.games import (
    builtin_gynin,
    builtin_ocb,
    classify,
    gyni_perfect_correlation,
    pc_bound_canonical,
    pr_box_correlation,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def solve_square_system(rows, rhs):
    """Test-local exact Gaussian elimination; returns None on singular systems."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def highs_reference(lp):
    """Status and optimum of ``lp`` from scipy's floating-point HiGHS."""

    def run(objective):
        sign = -1.0 if lp.maximize else 1.0
        res = linprog(
            [sign * float(c) for c in objective],
            A_ub=[[float(c) for c in coeffs] for coeffs, _ in lp.le] or None,
            b_ub=[float(rhs) for _, rhs in lp.le] or None,
            A_eq=[[float(c) for c in coeffs] for coeffs, _ in lp.eq] or None,
            b_eq=[float(rhs) for _, rhs in lp.eq] or None,
            method="highs",
        )
        return res.status, None if res.fun is None else sign * res.fun

    code, value = run(lp.objective)
    # HiGHS reports "unbounded or infeasible" (4), and its presolve can call an
    # unbounded LP infeasible (2), e.g. max x1+x2+x3 s.t. x1+x2-x3 <= 0,
    # x1-x2+x3 <= 1: decide feasibility alone
    if code in (2, 4):
        code = 3 if run([0] * lp.n_vars)[0] == 0 else 2
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    return statuses[code], value


class TestLpSolve:
    @pytest.mark.parametrize("kind", ["eq", "le"])
    def test_row_of_the_wrong_length_rejected(self, kind):
        with pytest.raises(InvalidTable, match="constraint row has 1 coefficients, expected 2"):
            LinearProgram((1, 1), **{kind: (((1,), 1),)})

    def test_simplex_max_on_simplex(self):
        lp = LinearProgram(
            objective=(ONE, ONE),
            maximize=True,
            eq=(((ONE, ONE), ONE),),
        )
        sol = lp_solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == 1

    def test_infeasible(self):
        lp = LinearProgram(
            objective=(ONE,),
            maximize=True,
            le=(((-ONE,), Fraction(-2)), ((ONE,), ONE)),  # x >= 2 and x <= 1
        )
        assert lp_solve(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(objective=(ONE,), maximize=True)
        assert lp_solve(lp).status is LpStatus.UNBOUNDED

    def test_degenerate_redundant_rows(self):
        lp = LinearProgram(
            objective=(ONE, Fraction(2)),
            maximize=True,
            eq=(
                ((ONE, ONE), ONE),
                ((Fraction(2), Fraction(2)), Fraction(2)),  # same hyperplane
            ),
        )
        sol = lp_solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == 2

    def test_agrees_with_vertex_enumeration(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 4)
            n_rows = rng.randint(2, 8)
            objective = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            rows = []
            for _ in range(n_rows):
                coeffs = tuple(Fraction(rng.randint(0, 3)) for _ in range(n))
                rhs = Fraction(rng.randint(1, 6))
                rows.append((coeffs, rhs))
            # box 0 <= x_j <= 5 keeps the polytope bounded
            for j in range(n):
                unit = [ZERO] * n
                unit[j] = ONE
                rows.append((tuple(unit), Fraction(5)))
            lp = LinearProgram(objective=objective, maximize=True, le=tuple(rows))
            sol = lp_solve(lp)
            assert sol.status is LpStatus.OPTIMAL

            # oracle: evaluate the objective at every vertex (feasible basic point)
            all_rows = list(rows) + [
                (tuple(-v for v in unit), ZERO)
                for unit in (tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n))
            ]
            best = None
            for combo in itertools.combinations(range(len(all_rows)), n):
                point = solve_square_system(
                    [all_rows[i][0] for i in combo], [all_rows[i][1] for i in combo]
                )
                if point is None:
                    continue
                feasible = all(v >= 0 for v in point) and all(
                    sum(c * v for c, v in zip(coeffs, point)) <= rhs for coeffs, rhs in rows
                )
                if feasible:
                    value = sum(c * v for c, v in zip(objective, point))
                    best = value if best is None else max(best, value)
            assert best == sol.value

    def test_determinism(self):
        lp = LinearProgram(
            objective=(ONE, Fraction(3), Fraction(-1)),
            maximize=True,
            eq=(((ONE, ONE, ONE), ONE),),
            le=(((ONE, Fraction(2), ZERO), Fraction(3, 2)),),
        )
        first = lp_solve(lp)
        second = lp_solve(lp)
        assert first == second

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_highs(self, data):
        """The exact simplex against scipy's float HiGHS on small random LPs."""
        rational = st.builds(
            Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 4])
        )
        n = data.draw(st.integers(1, 4))
        row = st.tuples(st.tuples(*[rational] * n), rational)
        lp = LinearProgram(
            objective=data.draw(st.tuples(*[rational] * n)),
            maximize=data.draw(st.booleans()),
            eq=tuple(data.draw(st.lists(row, max_size=3))),
            le=tuple(data.draw(st.lists(row, max_size=4))),
        )
        sol = lp_solve(lp)
        status, value = highs_reference(lp)
        assert sol.status is status
        if status is LpStatus.INFEASIBLE:
            # the Farkas ray: y . A_j <= 0 for every column, y <= 0 on le rows, y . b > 0
            y, rows = sol.farkas, lp.eq + lp.le
            assert len(y) == len(rows)
            for j in range(n):
                assert sum(y_i * coeffs[j] for y_i, (coeffs, _) in zip(y, rows)) <= 0
            assert all(y_i <= 0 for y_i in y[len(lp.eq):])
            assert sum(y_i * rhs for y_i, (_, rhs) in zip(y, rows)) > 0
        if status is not LpStatus.OPTIMAL:
            return
        assert abs(float(sol.value) - value) <= 1e-9
        assert all(v >= 0 for v in sol.x)
        for coeffs, rhs in lp.eq:
            assert sum(c * v for c, v in zip(coeffs, sol.x)) == rhs
        for coeffs, rhs in lp.le:
            assert sum(c * v for c, v in zip(coeffs, sol.x)) <= rhs
        assert sum(c * v for c, v in zip(lp.objective, sol.x)) == sol.value


class TestHullMembership:
    def test_vertex_is_inside_with_unit_weight(self):
        verts = ((ONE, ZERO), (ZERO, ONE))
        result = hull_membership((ONE, ZERO), verts)
        assert result.inside
        assert result.weights == (ONE, ZERO)

    def test_midpoint_weights(self):
        verts = ((ONE, ZERO), (ZERO, ONE))
        result = hull_membership((Fraction(1, 2), Fraction(1, 2)), verts)
        assert result.inside
        assert result.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_outside_point_gets_strict_separator(self):
        verts = ((ONE, ZERO), (ZERO, ONE), (ZERO, ZERO))
        point = (ONE, ONE)
        result = hull_membership(point, verts)
        assert not result.inside
        value = sum(p * q for p, q in zip(result.functional, point))
        for vert in verts:
            assert value > sum(p * v for p, v in zip(result.functional, vert))
        assert result.separation > 0

    def test_random_outside_points(self):
        rng = random.Random(29)
        verts = tuple(
            tuple(Fraction(rng.randint(0, 3), 3) for _ in range(3)) for _ in range(6)
        )
        for _ in range(10):
            point = tuple(Fraction(rng.randint(4, 7), 3) for _ in range(3))
            result = hull_membership(point, verts)
            assert not result.inside
            value = sum(p * q for p, q in zip(result.functional, point))
            assert all(
                value > sum(p * v for p, v in zip(result.functional, vert)) for vert in verts
            )

    def test_inside_weights_replay(self):
        rng = random.Random(31)
        verts = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)) for _ in range(5)
        )
        raw = [Fraction(rng.randint(0, 4)) for _ in verts]
        total = sum(raw) or ONE
        weights = [w / total for w in raw]
        point = tuple(
            sum(w * v[j] for w, v in zip(weights, verts)) for j in range(3)
        )
        result = hull_membership(point, verts)
        assert result.inside
        rebuilt = tuple(
            sum(w * v[j] for w, v in zip(result.weights, verts)) for j in range(3)
        )
        assert rebuilt == point

    def test_cap(self, monkeypatch):
        # 3 coefficients per vertex in 2 coordinates: a cap of 12 allows 4 vertices.
        # The size is read before any entry is converted, so rows that are not
        # numbers still meet the cap rather than a conversion error.
        monkeypatch.setattr(lp_module, "HULL_LP_CAP", 12)
        assert hull_membership((0, 0), tuple((i, 0) for i in range(4))).inside
        with pytest.raises(
            SearchSpaceTooLarge, match=r"at least 15 coefficients \(5 vertices x 3 rows\)"
        ):
            hull_membership((0, 0), (("not a number", 0),) * 5)

    def test_empty_or_ragged_vertices_rejected(self):
        with pytest.raises(InvalidTable):
            hull_membership((ZERO, ZERO), ())
        with pytest.raises(InvalidTable):
            hull_membership((ZERO, ZERO), ((1, 0), (0, 1, 0)))


class TestGoldenPivotPath:
    """Pivot counts and certificates pinned to Bland's path through the tableau.

    The benchmark reports ``lp.pivots`` by counting calls to ``lp._pivot``; the
    counts below are that number, one per simplex pivot and per artificial
    driven out of the basis after phase 1.
    """

    @pytest.fixture
    def pivots(self, monkeypatch):
        count = [0]
        pivot = lp_module._pivot

        def counted(*args):
            count[0] += 1
            return pivot(*args)

        monkeypatch.setattr(lp_module, "_pivot", counted)
        return count

    def test_pc_bounds(self, pivots):
        gynin = pc_bound_canonical(builtin_gynin())
        assert pivots[0] == 68
        assert gynin.value == 1
        half = Fraction(1, 2)
        assert [j for j, v in enumerate(gynin.process.table) if v] == [
            0, 7, 10, 13, 19, 20, 25, 30, 33, 38, 43, 44, 50, 53, 56, 63
        ]
        assert set(gynin.process.table) == {ZERO, half}
        pivots[0] = 0
        ocb = pc_bound_canonical(builtin_ocb())
        assert pivots[0] == 36
        assert ocb.value == Fraction(3, 4)
        assert ocb.process.table == tuple(
            ONE if j in (0, 1, 2, 3, 12, 13, 14, 15) else ZERO for j in range(32)
        )

    @pytest.mark.parametrize(
        "corr, count, functional, separation",
        [
            (gyni_perfect_correlation(), 7, (1, -4, -4, 1, -4, -4, 1, 1, -4, 1, -4, 1, -4, 1, 1, 1), 5),
            (pr_box_correlation(), 8, (1, 1, 1, -4, -4, -4, -4, 1, -4, -4, -4, 1, 1, 1, 1, -4), 5),
        ],
        ids=["gyni-perfect", "pr-box"],
    )
    def test_outside_hull_certificates(self, pivots, corr, count, functional, separation):
        # phase 1 of the feasibility LP only: the functional is its Farkas ray
        dc = classify(corr).dc
        assert pivots[0] == count
        assert dc.status == "out"
        assert dc.certificate["separating_functional"] == tuple(map(Fraction, functional))
        assert dc.certificate["separation"] == separation
