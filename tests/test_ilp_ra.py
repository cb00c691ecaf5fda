"""Tests of the §3.3/§3.4 ILP register-allocation model and MINLP ref."""

import pytest

from repro.core import Compiler, CompilerOptions, compile_source
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.ir import analyze, static_frequencies
from repro.ir.liveness import analyze as analyze_liveness
from repro.ilp import solve
from repro.regalloc import (
    allocate_ucc_greedy,
    allocate_ucc_ilp,
    build_chunk_model,
    build_spec_for_chunk,
    nonlinear_objective,
    solve_chunk_minlp,
    verify_allocation,
)
from repro.regalloc.chunks import changed_indices
from repro.regalloc.ilp_model import THETA, greedy_incumbent
from repro.workloads import CASES
from repro.config import UpdateConfig


def chunk_fixture(case_id="6", fname="tosh_run_next_task", candidates=3):
    case = CASES[case_id]
    old = compile_source(case.old_source)
    module = Compiler(CompilerOptions()).front_and_middle(case.new_source)
    fn = module.functions[fname]
    record, report = allocate_ucc_greedy(
        fn, old.module.functions[fname], old.records[fname]
    )
    info = analyze(fn)
    freqs = static_frequencies(fn)
    changed = changed_indices(fn, report.match)
    chunk = next(c for c in report.chunks if c.changed)
    spec = build_spec_for_chunk(
        fn,
        info,
        record,
        report,
        chunk.start,
        chunk.end,
        changed,
        freqs,
        DEFAULT_ENERGY_MODEL,
        1000.0,
        candidates,
    )
    return fn, record, report, spec


class TestChunkModel:
    def test_model_builds_and_solves(self):
        _, _, _, spec = chunk_fixture()
        model = build_chunk_model(spec)
        assert model.num_variables > 0
        assert model.num_constraints > 0
        result = solve(model, backend="scipy")
        assert result.status == "optimal"

    def test_own_and_scipy_agree(self):
        _, record, _, spec = chunk_fixture()
        model = build_chunk_model(spec)
        assignment = {
            a: (None if record.placements[a].spilled else record.placements[a].sole_register)
            for a in spec.variables()
        }
        incumbent = greedy_incumbent(spec, assignment)
        own = solve(model, backend="own", incumbent=incumbent)
        ref = solve(model, backend="scipy")
        assert own.status == ref.status == "optimal"
        assert own.objective == pytest.approx(ref.objective, rel=1e-9)

    def test_constraints_grow_with_chunk_size(self):
        """Paper Figure 13: constraints ~ linear in instruction count."""
        sizes = []
        for fname in ("tosh_run_next_task", "main"):
            try:
                _, _, _, spec = chunk_fixture(fname=fname)
            except StopIteration:
                continue
            model = build_chunk_model(spec)
            sizes.append((spec.hi - spec.lo, model.num_constraints))
        assert sizes
        for instrs, constraints in sizes:
            assert constraints >= instrs  # at least ~1 constraint per stmt

    def test_incumbent_is_feasible(self):
        _, record, _, spec = chunk_fixture()
        model = build_chunk_model(spec)
        assignment = {
            a: (None if record.placements[a].spilled else record.placements[a].sole_register)
            for a in spec.variables()
        }
        incumbent = greedy_incumbent(spec, assignment)
        assert model.is_feasible(incumbent)

    def test_theta_is_three_quarters(self):
        assert THETA == 0.75


class TestILPAllocator:
    def test_ilp_mode_verifies(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        module = Compiler(CompilerOptions()).front_and_middle(case.new_source)
        for fname, fn in module.functions.items():
            record, report = allocate_ucc_ilp(
                fn, old.module.functions[fname], old.records[fname]
            )
            verify_allocation(record, analyze_liveness(fn))

    def test_ilp_never_worse_than_greedy_on_diff(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        from repro.core import plan_update

        greedy = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        ilp = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc-ilp", da="ucc"))
        assert ilp.diff_inst <= greedy.diff_inst + 2  # ties allowed

    def test_stats_recorded_per_chunk(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        module = Compiler(CompilerOptions()).front_and_middle(case.new_source)
        fn = module.functions["tosh_run_next_task"]
        _, report = allocate_ucc_ilp(
            fn, old.module.functions["tosh_run_next_task"], old.records["tosh_run_next_task"]
        )
        solved = [o for o in report.chunks if o.stats is not None]
        assert solved
        for outcome in solved:
            assert outcome.stats.num_variables > 0


class TestMINLP:
    def test_minlp_matches_ilp_objective(self):
        """Paper §5.6: the linear approximation produces the same
        decisions (and therefore the same true energy) as the MINLP."""
        _, record, _, spec = chunk_fixture(candidates=3)
        model = build_chunk_model(spec)
        ilp = solve(model, backend="scipy")
        assert ilp.status == "optimal"
        minlp = solve_chunk_minlp(spec)
        ilp_true_energy = nonlinear_objective(spec, ilp.values)
        assert ilp_true_energy == pytest.approx(minlp.objective, rel=1e-9)

    def test_minlp_slower_than_ilp(self):
        """§5.6's performance claim, at our scale: enumeration evaluates
        many assignments where the ILP solves once."""
        _, _, _, spec = chunk_fixture(candidates=3)
        minlp = solve_chunk_minlp(spec)
        assert minlp.evaluated > 10

    def test_enumeration_guard(self):
        _, _, _, spec = chunk_fixture(candidates=3)
        with pytest.raises(ValueError):
            solve_chunk_minlp(spec, max_assignments=1)


class TestMidChunkExits:
    """A chunk whose branch leaves it mid-way: ``fn0``'s chunk [52, 58)
    ends block ``cbr %$21.0 .L9 .L10`` at 53, and ``fn0.t0`` is live
    only along the edge to ``.L10`` outside the chunk.  The model used
    to see ``fn0.t0`` dead after 53, let it move off r18 there, and hand
    r18 to ``$21.0`` — while adoption kept ``fn0.t0`` in r18."""

    @staticmethod
    def pair():
        import random

        from repro.fuzz.mutator import mutate
        from repro.fuzz.progen import GenConfig, generate_program

        rng = random.Random("perfbench-fuzz:1:small:0")
        old = generate_program(rng, GenConfig(scheduler_iters=12, max_loop_bound=4))
        new, _ = mutate(old, rng, rng.randint(1, 4))
        return old.render(), new.render()

    def test_exit_points_are_boundary_points(self):
        old_source, new_source = self.pair()
        old = compile_source(old_source)
        module = Compiler(CompilerOptions()).front_and_middle(new_source)
        fn = module.functions["fn0"]
        record, report = allocate_ucc_greedy(fn, old.module.functions["fn0"], old.records["fn0"])
        spec = build_spec_for_chunk(
            fn,
            analyze(fn),
            record,
            report,
            52,
            58,
            changed_indices(fn, report.match),
            static_frequencies(fn),
            DEFAULT_ENERGY_MODEL,
            1000.0,
            4,
        )
        assert spec.boundary_points() == [0, 1, 2, 6]
        model = build_chunk_model(spec)
        assert model.fixed["L.fn0.t0.1.18"] == 1

    def test_ucc_ilp_plans_the_pair(self):
        from repro.analysis import verify_update
        from repro.core import plan_update

        old_source, new_source = self.pair()
        old = compile_source(old_source)
        # ucc and gcc plan it exactly as before the fix; ucc-ilp, which
        # raised AllocationError, now matches the greedy plan.
        expected = {"ucc": (172, 46), "gcc": (160, 37), "ucc-ilp": (172, 46)}
        for ra, (script_bytes, diff_inst) in expected.items():
            result = plan_update(old, new_source, config=UpdateConfig(ra=ra))
            assert (result.script_bytes, result.diff_inst) == (script_bytes, diff_inst), ra
            assert verify_update(result).ok, ra
