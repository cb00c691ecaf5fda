"""The integer-programming formulation of UCC-RA (paper §3.3-3.4).

The paper formalises update-conscious allocation per *changed chunk* as
a 0/1 program over decision variables ``X_def/X_cont/X_use/X_useCont/
X_lastUse/X_mov_in/X_mov_out/X_st/X_ld/X_mem_cont`` with constraints
(1)-(9) and the energy objective (10)-(15).  Following the
Goodwin-Wilken tradition the paper builds on [9], we express the same
decision space through *location* variables, which keeps the model
compact while every paper variable remains a derived quantity:

=====================  ========================================================
paper variable         here
=====================  ========================================================
``X_cont.a.s^Ri``      ``loc[a, p, Ri]`` — a sits in Ri at program point p
``X_mem_cont.a.s``     ``mem[a, p]``
``X_def.a.s^Ri``       ``loc[a, p_after(s), Ri]`` for the defined variable
``X_use/X_useCont``    ``uloc[a, s, Ri]`` — the register a is *read from* at s
``X_lastUse``          ``uloc`` at the statement where liveness ends
``X_mov_in/X_mov_out`` ``moved[a, s, Ri]`` — a enters Ri between points
``X_ld.a.s``           ``loaded[a, s]`` — reload before the use at s
``X_st.a.s``           ``stored[a, s]`` — spill store after the def at s
=====================  ========================================================

Constraints generated (paper's numbering in parentheses):

* location exclusivity: a live variable is in exactly one register or
  in memory at every point ((1), (2) pairing, (4));
* register conflict: one live variable per physical register per point
  (the "each register holds one variable at a time" constraints (8)),
  expanded over register *pairs* for u16 values (9);
* use feasibility: a variable read at s is read from the register it
  occupied at the preceding point, unless it was just loaded or moved
  there ((5)-(7));
* flow consistency between consecutive points with movement/ld/st
  indicators ((2), (3)).

The objective is eqs. (10)-(15): constant changed-instruction energy,
the linearised unchanged-instruction re-encoding term with the paper's
``theta = 3/4`` coefficient, spill energy, and inserted-move energy.
:func:`nonlinear_objective` evaluates the *original* MINLP objective
(with the product term of eq. 12) for §5.6's approximation-quality
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy.model import DEFAULT_ENERGY_MODEL, EnergyModel
from ..fastpath import fastpath_enabled
from ..ilp.model import Constraint, IntegerProgram, LinTerm
from ..ir.function import IRFunction
from ..ir.liveness import LivenessInfo
from ..isa import registers as regs

#: The paper's theta: averaged update cost of a two-operand instruction
#: when preferred registers may be missed (end of §3.4).
THETA = 0.75


@dataclass
class ChunkSpec:
    """Everything needed to model one chunk ``[lo, hi)``.

    ``candidates`` restricts each variable to a small register set (the
    standard ILP-allocator reduction, DESIGN.md §5); ``fixed`` pins
    boundary-crossing variables to already-decided registers;
    ``prefer`` is the preferred-register tag per (variable, IR index);
    ``chg`` marks changed instructions; ``freq`` is the per-statement
    execution-frequency estimate; ``cnt`` the projected execution count.
    """

    fn: IRFunction
    liveness: LivenessInfo
    lo: int
    hi: int
    candidates: dict[str, tuple[int, ...]]
    fixed: dict[str, int] = field(default_factory=dict)
    prefer: dict[tuple[str, int], int] = field(default_factory=dict)
    chg: dict[int, bool] = field(default_factory=dict)
    freq: dict[int, float] = field(default_factory=dict)
    old_spilled: dict[str, bool] = field(default_factory=dict)
    cnt: float = 1000.0
    energy: EnergyModel = DEFAULT_ENERGY_MODEL

    def variables(self) -> list[str]:
        """Variables live anywhere inside the chunk, sorted."""
        names: set[str] = set()
        for index in range(self.lo, self.hi):
            ins = self.fn.instrs[index]
            names.update(r.name for r in ins.vregs())
            names.update(self.liveness.live_in[index])
            names.update(self.liveness.live_out[index])
        return sorted(n for n in names if n in self.candidates)

    def size_of(self, name: str) -> int:
        return self.liveness.intervals[name].vreg.size

    def boundary_points(self) -> list[int]:
        """Points where control enters or leaves the chunk, sorted.

        These are the chunk's two ends plus, for every instruction with
        a CFG edge to or from outside ``[lo, hi)``, the points before
        and after it.  A boundary-crossing variable keeps its decided
        location for the whole chunk (adoption re-decides only the
        internal ones), so it must hold that location at each of them:
        a value live only along a mid-chunk exit edge is otherwise
        invisible at the next point and looks free to move away.
        """
        cfg = self.liveness.cfg
        points = {0, self.hi - self.lo}
        for block in cfg.blocks:
            last = block.end - 1
            for succ in block.successors:
                target = cfg.blocks[succ].start
                if (self.lo <= last < self.hi) != (self.lo <= target < self.hi):
                    for s in (last, target):
                        if self.lo <= s < self.hi:
                            points.update((s - self.lo, s - self.lo + 1))
        return sorted(points)

    def live_at_point(self, point: int) -> set[str]:
        """Variables live at program point ``point`` (before instruction
        ``lo + point``; the last point is the chunk's out-boundary)."""
        index = self.lo + point
        if index < self.hi:
            return set(self.liveness.live_in[index])
        return set(self.liveness.live_out[self.hi - 1]) if self.hi > self.lo else set()


# Variable-name builders (kept short: model size matters).
def _loc(a: str, p: int, r: int) -> str:
    return f"L.{a}.{p}.{r}"


def _mem(a: str, p: int) -> str:
    return f"M.{a}.{p}"


def _uloc(a: str, s: int, r: int) -> str:
    return f"U.{a}.{s}.{r}"


def _moved(a: str, s: int, r: int) -> str:
    return f"V.{a}.{s}.{r}"


def _loaded(a: str, s: int) -> str:
    return f"D.{a}.{s}"


def _stored(a: str, s: int) -> str:
    return f"S.{a}.{s}"


def build_chunk_model(spec: ChunkSpec) -> IntegerProgram:
    """Build the 0/1 program for one chunk.

    Two generators exist (see :mod:`repro.fastpath`): the reference one
    below, kept as the correctness oracle, and a fast one that emits
    the *identical* program — same variable registration order, same
    constraints, same objective — from precomputed liveness/preference
    tables.  ``tests/test_ilp_fastpath.py`` certifies the equivalence.
    """
    if fastpath_enabled():
        return _build_chunk_model_fast(spec)
    return _build_chunk_model_reference(spec)


def _build_chunk_model_reference(spec: ChunkSpec) -> IntegerProgram:
    prog = IntegerProgram(name=f"ucc-ra:{spec.fn.name}[{spec.lo}:{spec.hi})")
    names = spec.variables()
    points = range(spec.hi - spec.lo + 1)

    # -- location exclusivity (1)/(4): one home per live variable ---------
    for a in names:
        for p in points:
            if a not in spec.live_at_point(p):
                continue
            terms = [(1.0, _loc(a, p, r)) for r in spec.candidates[a]]
            terms.append((1.0, _mem(a, p)))
            prog.add_constraint(terms, "=", 1.0, name=f"home.{a}.{p}")

    # -- boundary fixing: crossing variables keep their decided register --
    boundary = spec.boundary_points()
    for a, base in spec.fixed.items():
        if a not in names:
            continue
        for p in boundary:
            if a in spec.live_at_point(p):
                if base in spec.candidates[a]:
                    prog.fix(_loc(a, p, base), 1)
                else:  # decided spilled at the boundary
                    prog.fix(_mem(a, p), 1)

    # -- register conflicts (8) with pair expansion (9) --------------------
    for p in points:
        live = [a for a in names if a in spec.live_at_point(p)]
        unit_users: dict[int, list[tuple[str, int]]] = {}
        for a in live:
            for r in spec.candidates[a]:
                for unit in regs.registers_of(r, spec.size_of(a)):
                    unit_users.setdefault(unit, []).append((a, r))
        for unit, users in unit_users.items():
            if len(users) < 2:
                continue
            prog.add_constraint(
                [(1.0, _loc(a, p, r)) for a, r in users],
                "<=",
                1.0,
                name=f"conflict.{p}.r{unit}",
            )

    # -- per-statement semantics -------------------------------------------
    for s in range(spec.lo, spec.hi):
        ins = spec.fn.instrs[s]
        p_before = s - spec.lo
        p_after = p_before + 1
        used = sorted({r.name for r in ins.uses() if r.name in spec.candidates})
        defined = sorted({r.name for r in ins.defs() if r.name in spec.candidates})

        # uses: read from exactly one register ((5): use/useCont/lastUse)
        for a in used:
            terms = [(1.0, _uloc(a, s, r)) for r in spec.candidates[a]]
            prog.add_constraint(terms, "=", 1.0, name=f"use.{a}.{s}")
            for r in spec.candidates[a]:
                # The read register must hold the value: it was there at
                # the preceding point, or a reload/move brought it in
                # ((6)/(7): ld/mov before the use point).
                prog.add_constraint(
                    [
                        (1.0, _uloc(a, s, r)),
                        (-1.0, _loc(a, p_before, r)),
                        (-1.0, _loaded(a, s)),
                        (-1.0, _moved(a, s, r)),
                    ],
                    "<=",
                    0.0,
                    name=f"usefeas.{a}.{s}.r{r}",
                )
            # A reload is only possible from memory ((7)).
            prog.add_constraint(
                [(1.0, _loaded(a, s)), (-1.0, _mem(a, p_before))],
                "<=",
                0.0,
                name=f"ldmem.{a}.{s}",
            )

        # defs: the defined variable lands where loc says at p_after; a
        # spill store may put it (also) in memory ((3)/(4)).
        for a in defined:
            prog.add_constraint(
                [(1.0, _mem(a, p_after)), (-1.0, _stored(a, s))],
                "<=",
                0.0,
                name=f"defmem.{a}.{s}",
            )

        # flow: a variable live across s (not redefined) stays put unless
        # moved (V) or stored/loaded ((2)/(3)).
        for a in names:
            if a in defined:
                continue
            if a not in spec.live_at_point(p_before) or a not in spec.live_at_point(
                p_after
            ):
                continue
            for r in spec.candidates[a]:
                # entering r needs an explicit move (or a reload into r —
                # modelled as a move from memory with load cost).
                prog.add_constraint(
                    [
                        (1.0, _loc(a, p_after, r)),
                        (-1.0, _loc(a, p_before, r)),
                        (-1.0, _moved(a, s, r)),
                    ],
                    "<=",
                    0.0,
                    name=f"flow.{a}.{s}.r{r}",
                )
            # entering memory needs a store
            prog.add_constraint(
                [
                    (1.0, _mem(a, p_after)),
                    (-1.0, _mem(a, p_before)),
                    (-1.0, _stored(a, s)),
                ],
                "<=",
                0.0,
                name=f"flowmem.{a}.{s}",
            )

    # -- objective (10)-(15) ----------------------------------------------------
    _add_objective(prog, spec)
    return prog


def _add_objective(prog: IntegerProgram, spec: ChunkSpec) -> None:
    energy = spec.energy
    names = set(spec.variables())

    # Epsilon tie-breaks (orders of magnitude below any real energy
    # term): prefer the variable's old register even in *changed*
    # instructions — re-encoding a changed instruction with the old
    # register often reproduces the old bytes verbatim, which the
    # energy model cannot see but the binary differ rewards — and
    # prefer low-numbered registers, matching the deterministic
    # baseline's habit.
    eps = 1e-6
    for a in sorted(names):
        tag = None
        for (name, _), reg in sorted(spec.prefer.items()):
            if name == a:
                tag = reg
                break
        for p in range(spec.hi - spec.lo + 1):
            if a not in spec.live_at_point(p):
                continue
            for r in spec.candidates[a]:
                penalty = eps * (r + 1)
                if tag is not None and r == tag:
                    penalty = 0.0
                prog.add_objective(_loc(a, p, r), penalty)

    # (11) E_changed_IR: constant w.r.t. decisions.
    constant = 0.0
    for s in range(spec.lo, spec.hi):
        if spec.chg.get(s, True):
            constant += spec.freq.get(s, 1.0) * spec.cnt * energy.e_exe
            constant += energy.e_trans
    prog.objective_constant = constant

    for s in range(spec.lo, spec.hi):
        ins = spec.fn.instrs[s]
        freq = spec.freq.get(s, 1.0)
        used = sorted({r.name for r in ins.uses() if r.name in names})
        defined = sorted({r.name for r in ins.defs() if r.name in names})
        occurring = sorted(set(used) | set(defined))

        # (12)/(15) E_unchanged_IR, linearised with theta.
        if not spec.chg.get(s, True):
            prog.objective_constant += freq * spec.cnt * energy.e_exe
            tagged = [
                (a, spec.prefer[(a, s)])
                for a in occurring
                if (a, s) in spec.prefer
            ]
            theta = THETA if len(tagged) >= 2 else 1.0
            for a, pref in tagged:
                # theta * (1 - X_pref) * E_trans.  Defined variables are
                # charged through their post-point location; skip dead
                # defs (their location variable would be unconstrained).
                if pref not in spec.candidates[a]:
                    continue
                if a in used:
                    var = _uloc(a, s, pref)
                else:
                    if a not in spec.live_at_point(s - spec.lo + 1):
                        continue
                    var = _loc(a, s - spec.lo + 1, pref)
                prog.objective_constant += theta * energy.e_trans
                prog.add_objective(var, -theta * energy.e_trans)

        # (13) E_spill: execution + transmission of ld/st.
        for a in used:
            was_spilled = spec.old_spilled.get(a, False)
            cost = freq * spec.cnt * energy.e_exe_mem
            if not was_spilled:
                cost += energy.e_trans  # a *new* reload instruction
            prog.add_objective(_loaded(a, s), cost)
        for a in defined:
            was_spilled = spec.old_spilled.get(a, False)
            cost = freq * spec.cnt * energy.e_exe_mem
            if not was_spilled:
                cost += energy.e_trans
            prog.add_objective(_stored(a, s), cost)

        # (14) E_extra: inserted inter-register moves (only moves the
        # constraints actually declared are priced).
        for a in sorted(names):
            for r in spec.candidates.get(a, ()):
                name = _moved(a, s, r)
                if name in prog._var_index:
                    prog.add_objective(
                        name, freq * spec.cnt * energy.e_exe + energy.e_trans
                    )


def _build_chunk_model_fast(spec: ChunkSpec) -> IntegerProgram:
    """Fast chunk-model generator.

    Emits exactly the constraint/objective stream of
    :func:`_build_chunk_model_reference` — the loops are the same, in
    the same order — but every repeated lookup is hoisted: per-point
    live sets are computed once instead of per (variable, point) probe,
    the preferred-register first-tag scan becomes one sorted pass,
    register-unit expansion is memoised, and constraints are appended
    with the model layer's invariants inlined.
    """
    prog = IntegerProgram(name=f"ucc-ra:{spec.fn.name}[{spec.lo}:{spec.hi})")
    names = spec.variables()
    n_points = spec.hi - spec.lo + 1
    points = range(n_points)
    candidates = spec.candidates
    live_pts = [spec.live_at_point(p) for p in points]

    var_index = prog._var_index
    variables = prog.variables
    constraints = prog.constraints

    def addc(terms: list[tuple[float, str]], sense: str, rhs: float, name: str) -> None:
        # Inlined IntegerProgram.add_constraint: same zero-coefficient
        # filter, same first-use variable registration order.
        lin = []
        for coeff, v in terms:
            if coeff != 0.0:
                if v not in var_index:
                    var_index[v] = len(variables)
                    variables.append(v)
                lin.append(LinTerm(coeff, v))
        constraints.append(Constraint(terms=lin, sense=sense, rhs=rhs, name=name))

    # -- location exclusivity (1)/(4) --------------------------------------
    for a in names:
        cand = candidates[a]
        for p in points:
            if a not in live_pts[p]:
                continue
            terms = [(1.0, f"L.{a}.{p}.{r}") for r in cand]
            terms.append((1.0, f"M.{a}.{p}"))
            addc(terms, "=", 1.0, f"home.{a}.{p}")

    # -- boundary fixing ---------------------------------------------------
    names_set = set(names)
    boundary = spec.boundary_points()
    for a, base in spec.fixed.items():
        if a not in names_set:
            continue
        for p in boundary:
            if a in live_pts[p]:
                if base in candidates[a]:
                    prog.fix(_loc(a, p, base), 1)
                else:
                    prog.fix(_mem(a, p), 1)

    # -- register conflicts (8)/(9) ----------------------------------------
    size_of = {a: spec.size_of(a) for a in names}
    units_of: dict[tuple[int, int], tuple[int, ...]] = {}
    for p in points:
        live_set = live_pts[p]
        unit_users: dict[int, list[tuple[str, int]]] = {}
        for a in names:
            if a not in live_set:
                continue
            sz = size_of[a]
            for r in candidates[a]:
                key = (r, sz)
                units = units_of.get(key)
                if units is None:
                    units = tuple(regs.registers_of(r, sz))
                    units_of[key] = units
                for unit in units:
                    unit_users.setdefault(unit, []).append((a, r))
        for unit, users in unit_users.items():
            if len(users) < 2:
                continue
            addc(
                [(1.0, f"L.{a}.{p}.{r}") for a, r in users],
                "<=",
                1.0,
                f"conflict.{p}.r{unit}",
            )

    # -- per-statement semantics -------------------------------------------
    used_by_s: dict[int, list[str]] = {}
    defined_by_s: dict[int, list[str]] = {}
    for s in range(spec.lo, spec.hi):
        ins = spec.fn.instrs[s]
        p_before = s - spec.lo
        p_after = p_before + 1
        used = sorted({r.name for r in ins.uses() if r.name in candidates})
        defined = sorted({r.name for r in ins.defs() if r.name in candidates})
        used_by_s[s] = used
        defined_by_s[s] = defined

        for a in used:
            cand = candidates[a]
            addc([(1.0, f"U.{a}.{s}.{r}") for r in cand], "=", 1.0, f"use.{a}.{s}")
            for r in cand:
                addc(
                    [
                        (1.0, f"U.{a}.{s}.{r}"),
                        (-1.0, f"L.{a}.{p_before}.{r}"),
                        (-1.0, f"D.{a}.{s}"),
                        (-1.0, f"V.{a}.{s}.{r}"),
                    ],
                    "<=",
                    0.0,
                    f"usefeas.{a}.{s}.r{r}",
                )
            addc(
                [(1.0, f"D.{a}.{s}"), (-1.0, f"M.{a}.{p_before}")],
                "<=",
                0.0,
                f"ldmem.{a}.{s}",
            )

        for a in defined:
            addc(
                [(1.0, f"M.{a}.{p_after}"), (-1.0, f"S.{a}.{s}")],
                "<=",
                0.0,
                f"defmem.{a}.{s}",
            )

        defined_set = set(defined)
        live_before = live_pts[p_before]
        live_after = live_pts[p_after]
        for a in names:
            if a in defined_set:
                continue
            if a not in live_before or a not in live_after:
                continue
            for r in candidates[a]:
                addc(
                    [
                        (1.0, f"L.{a}.{p_after}.{r}"),
                        (-1.0, f"L.{a}.{p_before}.{r}"),
                        (-1.0, f"V.{a}.{s}.{r}"),
                    ],
                    "<=",
                    0.0,
                    f"flow.{a}.{s}.r{r}",
                )
            addc(
                [
                    (1.0, f"M.{a}.{p_after}"),
                    (-1.0, f"M.{a}.{p_before}"),
                    (-1.0, f"S.{a}.{s}"),
                ],
                "<=",
                0.0,
                f"flowmem.{a}.{s}",
            )

    _add_objective_fast(prog, spec, names, live_pts, used_by_s, defined_by_s)
    return prog


def _add_objective_fast(
    prog: IntegerProgram,
    spec: ChunkSpec,
    names: list[str],
    live_pts: list[set[str]],
    used_by_s: dict[int, list[str]],
    defined_by_s: dict[int, list[str]],
) -> None:
    """Objective emission for the fast generator — same stream as
    :func:`_add_objective`, with the first-tag scan and per-statement
    use/def recomputation hoisted."""
    energy = spec.energy

    # One sorted pass replaces the reference's per-variable scan over
    # sorted(prefer): setdefault keeps the first (lowest-key) tag.
    first_tag: dict[str, int] = {}
    for (name, _), reg in sorted(spec.prefer.items()):
        first_tag.setdefault(name, reg)

    eps = 1e-6
    for a in names:  # names is sorted
        tag = first_tag.get(a)
        cand = spec.candidates[a]
        for p in range(spec.hi - spec.lo + 1):
            if a not in live_pts[p]:
                continue
            for r in cand:
                penalty = eps * (r + 1)
                if tag is not None and r == tag:
                    penalty = 0.0
                prog.add_objective(f"L.{a}.{p}.{r}", penalty)

    constant = 0.0
    for s in range(spec.lo, spec.hi):
        if spec.chg.get(s, True):
            constant += spec.freq.get(s, 1.0) * spec.cnt * energy.e_exe
            constant += energy.e_trans
    prog.objective_constant = constant

    var_index = prog._var_index
    for s in range(spec.lo, spec.hi):
        freq = spec.freq.get(s, 1.0)
        used = used_by_s[s]
        defined = defined_by_s[s]
        occurring = sorted(set(used) | set(defined))
        used_set = set(used)

        if not spec.chg.get(s, True):
            prog.objective_constant += freq * spec.cnt * energy.e_exe
            tagged = [
                (a, spec.prefer[(a, s)]) for a in occurring if (a, s) in spec.prefer
            ]
            theta = THETA if len(tagged) >= 2 else 1.0
            for a, pref in tagged:
                if pref not in spec.candidates[a]:
                    continue
                if a in used_set:
                    var = f"U.{a}.{s}.{pref}"
                else:
                    if a not in live_pts[s - spec.lo + 1]:
                        continue
                    var = f"L.{a}.{s - spec.lo + 1}.{pref}"
                prog.objective_constant += theta * energy.e_trans
                prog.add_objective(var, -theta * energy.e_trans)

        for a in used:
            was_spilled = spec.old_spilled.get(a, False)
            cost = freq * spec.cnt * energy.e_exe_mem
            if not was_spilled:
                cost += energy.e_trans
            prog.add_objective(f"D.{a}.{s}", cost)
        for a in defined:
            was_spilled = spec.old_spilled.get(a, False)
            cost = freq * spec.cnt * energy.e_exe_mem
            if not was_spilled:
                cost += energy.e_trans
            prog.add_objective(f"S.{a}.{s}", cost)

        move_cost = freq * spec.cnt * energy.e_exe + energy.e_trans
        for a in names:  # names is sorted
            for r in spec.candidates.get(a, ()):
                name = f"V.{a}.{s}.{r}"
                if name in var_index:
                    prog.add_objective(name, move_cost)


def nonlinear_objective(spec: ChunkSpec, values: dict[str, int]) -> float:
    """Evaluate the *original* MINLP objective (eq. 12's product form)
    on a solved assignment — used by the §5.6 comparison."""
    energy = spec.energy
    total = 0.0
    names = set(spec.variables())
    for s in range(spec.lo, spec.hi):
        ins = spec.fn.instrs[s]
        freq = spec.freq.get(s, 1.0)
        total += freq * spec.cnt * energy.e_exe
        if spec.chg.get(s, True):
            total += energy.e_trans
            continue
        used = {r.name for r in ins.uses() if r.name in names}
        defined = {r.name for r in ins.defs() if r.name in names}
        product = 1
        any_tag = False
        for a in sorted(used | defined):
            if (a, s) not in spec.prefer:
                continue
            any_tag = True
            pref = spec.prefer[(a, s)]
            var = _uloc(a, s, pref) if a in used else _loc(a, s - spec.lo + 1, pref)
            product *= values.get(var, 0)
        if any_tag and product == 0:
            total += energy.e_trans  # the instruction must be re-encoded
        # spill + move costs are linear in both formulations
        for a in sorted(used):
            if values.get(_loaded(a, s), 0):
                total += freq * spec.cnt * energy.e_exe_mem
                if not spec.old_spilled.get(a, False):
                    total += energy.e_trans
        for a in sorted(defined):
            if values.get(_stored(a, s), 0):
                total += freq * spec.cnt * energy.e_exe_mem
                if not spec.old_spilled.get(a, False):
                    total += energy.e_trans
        for a in sorted(names):
            for r in spec.candidates.get(a, ()):
                if values.get(_moved(a, s, r), 0):
                    total += freq * spec.cnt * energy.e_exe + energy.e_trans
    return total


def greedy_incumbent(spec: ChunkSpec, assignment: dict[str, int | None]) -> dict[str, int]:
    """Translate a register assignment (vreg -> base or None for memory)
    into a warm-start solution for the model."""
    values: dict[str, int] = {}
    for a in spec.variables():
        base = assignment.get(a)
        for p in range(spec.hi - spec.lo + 1):
            if a not in spec.live_at_point(p):
                continue
            if base is None:
                values[_mem(a, p)] = 1
            else:
                values[_loc(a, p, base)] = 1
        for s in range(spec.lo, spec.hi):
            ins = spec.fn.instrs[s]
            if any(r.name == a for r in ins.uses()):
                if base is None:
                    values[_loaded(a, s)] = 1
                    # loaded into the first candidate
                    values[_uloc(a, s, spec.candidates[a][0])] = 1
                else:
                    values[_uloc(a, s, base)] = 1
    return values
