"""ILP solver tests: simplex, branch & bound, scipy cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import (
    IntegerProgram,
    SimplexStats,
    solve,
    solve_branch_bound,
    solve_lp,
    solve_scipy,
)


class TestSimplex:
    def test_simple_maximisation(self):
        # max 3x + 2y st x + y <= 4, x <= 2 -> min -3x - 2y
        result = solve_lp(
            np.array([-3.0, -2.0]),
            np.array([[1.0, 1.0], [1.0, 0.0]]),
            np.array([4.0, 2.0]),
            None,
            None,
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-10.0)

    def test_equality_constraint(self):
        result = solve_lp(
            np.array([1.0, 2.0]),
            None,
            None,
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
        )
        assert result.status == "optimal"
        assert result.x[0] == pytest.approx(1.0)

    def test_infeasible_detected(self):
        result = solve_lp(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -3.0]),  # x <= 1 and x >= 3
            None,
            None,
        )
        assert result.status == "infeasible"

    def test_unbounded_detected(self):
        result = solve_lp(
            np.array([-1.0]),
            np.array([[-1.0]]),
            np.array([0.0]),  # x >= 0 only, minimise -x
            None,
            None,
        )
        assert result.status == "unbounded"

    def test_upper_bounds_respected(self):
        result = solve_lp(
            np.array([-1.0, -1.0]),
            None,
            None,
            None,
            None,
            ub=np.array([1.0, 1.0]),
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-2.0)

    def test_iterations_counted(self):
        stats = SimplexStats()
        solve_lp(
            np.array([-3.0, -2.0]),
            np.array([[1.0, 1.0]]),
            np.array([4.0]),
            None,
            None,
            stats=stats,
        )
        assert stats.iterations > 0
        assert stats.solves == 1


def random_program(rng, n_vars=5, n_cons=4):
    prog = IntegerProgram()
    names = [f"x{i}" for i in range(n_vars)]
    for name in names:
        prog.add_objective(name, float(rng.integers(-5, 6)))
    for c in range(n_cons):
        terms = [
            (float(rng.integers(0, 4)), name) for name in names
        ]
        rhs = float(rng.integers(1, 8))
        prog.add_constraint(terms, "<=", rhs)
    return prog


class TestBranchBound:
    def test_binary_knapsack(self):
        prog = IntegerProgram()
        values = {"a": 10, "b": 7, "c": 4}
        weights = {"a": 5, "b": 4, "c": 2}
        for name, value in values.items():
            prog.add_objective(name, -value)
        prog.add_constraint(
            [(float(w), n) for n, w in weights.items()], "<=", 6.0
        )
        result = solve_branch_bound(prog)
        assert result.status == "optimal"
        chosen = {n for n, v in result.values.items() if v}
        assert chosen == {"b", "c"}  # value 11 beats a alone (10)

    def test_fixed_variables_respected(self):
        prog = IntegerProgram()
        prog.add_objective("a", -10.0)
        prog.add_objective("b", -1.0)
        prog.add_constraint([(1.0, "a"), (1.0, "b")], "<=", 1.0)
        prog.fix("a", 0)
        result = solve_branch_bound(prog)
        assert result.values == {"a": 0, "b": 1}

    def test_incumbent_prunes(self):
        prog = IntegerProgram()
        for i in range(8):
            prog.add_objective(f"x{i}", -1.0)
            prog.add_constraint([(1.0, f"x{i}")], "<=", 1.0)
        incumbent = {f"x{i}": 1 for i in range(8)}
        warm = solve_branch_bound(prog, incumbent=incumbent)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(-8.0)

    def test_objective_constant_included(self):
        prog = IntegerProgram()
        prog.objective_constant = 100.0
        prog.add_objective("a", -1.0)
        result = solve_branch_bound(prog)
        assert result.objective == pytest.approx(99.0)

    def test_infeasible_program(self):
        prog = IntegerProgram()
        prog.add_objective("a", 1.0)
        prog.add_constraint([(1.0, "a")], ">=", 2.0)  # binary can't reach 2
        result = solve_branch_bound(prog)
        assert result.status == "infeasible"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_scipy_on_random_programs(self, seed):
        """Our branch & bound and HiGHS agree on random 0/1 programs."""
        rng = np.random.default_rng(seed)
        prog = random_program(rng)
        own = solve_branch_bound(prog)
        ref = solve_scipy(prog)
        assert own.status == ref.status == "optimal"
        assert own.objective == pytest.approx(ref.objective, abs=1e-6)
        assert prog.is_feasible(own.values)

    def test_solution_always_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            prog = random_program(rng, n_vars=6, n_cons=5)
            result = solve_branch_bound(prog)
            assert prog.is_feasible(result.values)


class TestModel:
    def test_variable_deduplication(self):
        prog = IntegerProgram()
        prog.add_objective("a", 1.0)
        prog.add_objective("a", 2.0)
        assert prog.objective["a"] == 3.0
        assert prog.num_variables == 1

    def test_bad_sense_rejected(self):
        prog = IntegerProgram()
        with pytest.raises(ValueError):
            prog.add_constraint([(1.0, "a")], "<", 1.0)

    def test_bad_fix_rejected(self):
        prog = IntegerProgram()
        with pytest.raises(ValueError):
            prog.fix("a", 2)

    def test_render_lp_mentions_everything(self):
        prog = IntegerProgram(name="demo")
        prog.add_objective("a", 1.5)
        prog.add_constraint([(1.0, "a"), (2.0, "b")], "<=", 3.0, name="cap")
        prog.fix("b", 1)
        text = prog.render_lp()
        assert "demo" in text and "cap:" in text and "fix: b = 1;" in text

    def test_evaluate_and_feasibility(self):
        prog = IntegerProgram()
        prog.add_objective("a", 2.0)
        prog.objective_constant = 1.0
        prog.add_constraint([(1.0, "a")], "<=", 1.0)
        assert prog.evaluate({"a": 1}) == 3.0
        assert prog.is_feasible({"a": 1})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            solve(IntegerProgram(), backend="cplex")


class TestScipyOutcomes:
    @pytest.mark.parametrize(
        "milp_status, expected",
        [
            (1, "time-limit"),
            (2, "infeasible"),
            (3, "unbounded"),
            (4, "numerical"),
            (7, "numerical"),  # a code scipy does not document today
        ],
    )
    def test_failed_milp_maps_to_typed_status(
        self, monkeypatch, milp_status, expected
    ):
        """Every failed ``milp`` is reported with its own status, and
        the ILP allocator records that status for the chunk."""
        import scipy.optimize
        from repro.core import Compiler, CompilerOptions, compile_source
        from repro.regalloc import allocate_ucc_ilp
        from repro.workloads import CASES

        def failed_milp(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                success=False,
                status=milp_status,
                x=None,
                fun=None,
                message="stubbed failure",
            )

        monkeypatch.setattr(scipy.optimize, "milp", failed_milp)
        result = solve_scipy(random_program(np.random.default_rng(3)))
        assert result.status == expected
        assert result.values == {}

        case = CASES["6"]
        old = compile_source(case.old_source)
        module = Compiler(CompilerOptions()).front_and_middle(case.new_source)
        fname = "tosh_run_next_task"
        _, report = allocate_ucc_ilp(
            module.functions[fname],
            old.module.functions[fname],
            old.records[fname],
            cache=False,
        )
        solved = [o.status for o in report.chunks if o.stats is not None]
        assert solved and set(solved) == {expected}
