"""Conflict-driven solver for mixed OR/XOR/cardinality constraint systems.

The search is CDCL over boolean variables with three native propagators:

- OR clauses with two watched literals; a binary clause is watched
  natively, as its other literal in each literal's watch list,
- XOR constraints as watched parity rows, kept in native form so wide
  parities never get expanded into clauses (a row is re-examined and
  reduced against the current assignment only when a watched variable
  changes),
- cardinality constraints with true/unassigned counters.

Branching is activity-driven with phase saving and seeded random
tie-breaking; restarts follow a Luby schedule.  The budget is counted
in deterministic work units (propagations, plus the kernel probe's
GF(2) row XORs and the vectors its repair step and lightening pass
weigh) derived from the configured time budget, so a given
(system, config) pair always reproduces the same verdict and, when
satisfiable, the same assignment, on any machine and at any speed.

A system with a minimum qubit degree but no stabilizer degree bounds
first takes a kernel-probe candidate (stabsearch.probe), and on a miss
starts the search from a greedy candidate's saved phases; without a
qubit degree the all-inactive coloring is tried.  Each candidate
becomes a total assignment through constraints.consistent_completion.
A probe hit, like the all-inactive coloring, is returned only if it
passes check; a hit that fails it stays only as the search's saved
phases, and the search's model leaves through the same check.

Swapping X and Z, which negates every Pauli variable and exchanges each
edge's x and z indicators, maps every system encode writes onto itself,
unless it balances an odd number of stabilizers.  Where
constraints.flip_variable names stabilizer 0's Pauli variable, every
slice fixes it at its saved phase at level 0 (X under greedy phases, Z
with none), so it searches half the space.  A model still leaves only
through check.  A refutation under the fixed value refutes the whole
system because the flip maps any model onto one with the fixed value;
solve trusts that only once constraints.is_encoded confirms the system
is encode's, and otherwise searches the other half.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from heapq import heapify, heappop, heappush

from .constraints import (ConstraintSystem, Linear, OrClause, XorClause, consistent_completion, flip_variable,
                          gc_paused, is_encoded)
from .probe import greedy_candidate, kernel_candidate

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# Deterministic work-unit calibration: a budget of one second buys this
# many propagations.  Chosen so verdicts are machine-independent while
# staying in the ballpark of wall seconds on commodity hardware.
PROPS_PER_SECOND = 150_000

# Satisfiable instances show heavy-tailed solve times: a branching seed
# either walks almost straight to a model or digs in.  The budget is
# therefore spent in growing slices, each a fresh engine with a rotated
# seed; slice doubling keeps the total overhead bounded while the last
# slice is long enough for genuine unsatisfiability proofs.
_FIRST_SLICE_FRACTION = 1 / 32
_MIN_SLICE = 50_000

# Conflicts between restarts: this many times the next Luby number.
_LUBY_BASE = 128

_VAR_ACT_DECAY = 1.0 / 0.95
_CLA_ACT_DECAY = 1.0 / 0.999
_RANDOM_BRANCH_FREQ = 0.02

_BITS = frozenset((0, 1))  # the values check accepts


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveResult:
    verdict: str
    assignment: tuple[int, ...] | None  # 0/1 per variable id when sat
    stats: SolverStats


@dataclass(frozen=True)
class SolverConfig:
    """Search knobs.  time_budget is in seconds of nominal work."""

    time_budget: float = 60.0
    seed: int = 0

    def __post_init__(self):
        # inf and nan fail too, as would a budget whose work-unit count overflows
        if not (self.time_budget > 0 and math.isfinite(self.time_budget * PROPS_PER_SECOND)):
            raise ValueError(f"time_budget must be positive and finite, got {self.time_budget}")


def check(cs: ConstraintSystem, values: tuple[int, ...]) -> bool:
    """Independent verifier: evaluate every constraint directly.

    Shares no code with the solver's propagators.  Raises on partial or
    ill-typed assignments.
    """
    if len(values) != cs.num_vars:
        raise ValueError(f"assignment covers {len(values)} of {cs.num_vars} variables")
    if not _BITS.issuperset(values):
        raise ValueError("assignment values must all be 0 or 1")
    value = values.__getitem__
    for c in cs.constraints:
        kind = type(c)
        if kind is OrClause:
            for lit in c.lits:  # 2v holds when v is 1, 2v + 1 when v is 0
                if values[lit >> 1] != lit & 1:
                    break
            else:
                return False
        elif kind is XorClause:
            acc = c.parity  # the parity XOR the values: 0 exactly when they match it
            for v in c.vars:
                acc ^= values[v]
            if acc:
                return False
        else:
            total = sum(map(value, c.vars))
            if c.cmp == ">=":
                if total < c.bound:
                    return False
            elif c.cmp == "<=":
                if total > c.bound:
                    return False
            elif total != c.bound:
                return False
    return True


def _luby(x: int) -> int:
    """x-th element (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _Engine:
    """One CDCL search over a compiled constraint system.

    seed drives random branching, phases (None: all zero) are the initial
    saved phases, and the search counts its work into stats, which the
    slices of one solve share.

    Three invariants keep the hot path lean without changing the search:

    - heap_top[v] is the key of v's newest heap entry, or None once that
      entry is popped.  _backtrack pushes v only when its key changed,
      so every unassigned v has the live entry (-var_act[v], v): only
      assigned variables are bumped, and a rescale scales the keys and
      heap_top with the activities.
    - An OR implication's reason is its clause, unless that is an original
      binary clause (below).  An XOR implication's is (0, row_vars) and a
      cardinality implication's is (1, lits), with lits the row's false
      literals at firing time, shared by every literal that firing forces.
      _reason_of builds the clause only when analysis reads it, and
      minimization reads the stored form in place; each of its literals
      precedes v on the trail, so it keeps its value while v stays
      assigned.  reason[v] is read only while v is assigned, so
      _backtrack leaves it stale.
    - An original binary clause (l0, l1) is the int l1 in watches[l0] and
      l0 in watches[l1], and an implication from it has the falsified
      literal (an int) as its reason: _reason_of reads [implied,
      falsified] and a conflict on it is [other, falsified], which is how
      its two-element list would read at every visit.  Learnt binary
      clauses stay lists, since cla_act bumps them.
    """

    def __init__(self, cs: ConstraintSystem, seed: int, phases: tuple[int, ...] | None,
                 stats: SolverStats):
        nv = cs.num_vars
        self.nvars = nv
        self.values = [-1] * nv
        self.level = [0] * nv
        self.reason: list = [None] * nv
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list] = [[] for _ in range(2 * nv)]
        self.num_clauses = 0  # original clauses of width 2 or more
        self.learnts: list[list[int]] = []
        self.cla_act: dict[int, float] = {}
        self.cla_inc = 1.0
        self.var_act = [0.0] * nv
        self.var_inc = 1.0
        self.phase = bytearray(phases or nv)
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(nv)]
        self.heap_top: list[float | None] = [0.0] * nv
        self.rng = random.Random(seed)
        self.stats = stats
        self.ok = True

        # XOR rows [vars, parity, w0, w1], listed under their two watched variables; vars,
        # as in cardinality rows, is the system's own tuple, which the engine never changes
        self.xwatches: list[list] = [[] for _ in range(nv)]
        # cardinality rows [vars, bound, atleast, n_true, n_unassigned], under every variable
        self.locc: list[list] = [[] for _ in range(nv)]

        self._load(cs)

    # ----- loading ---------------------------------------------------

    def _load(self, cs: ConstraintSystem):
        watches = self.watches
        for c in cs.constraints:
            if not self.ok:
                return
            if isinstance(c, OrClause):
                lits = c.lits
                if len(lits) == 1:
                    self.ok = self._enqueue(lits[0], None)
                    continue
                self.num_clauses += 1
                if len(lits) == 2:
                    watches[lits[0]].append(lits[1])
                    watches[lits[1]].append(lits[0])
                else:  # a long clause reorders its literals as its watches move: a copy
                    lits = list(lits)
                    watches[lits[0]].append(lits)
                    watches[lits[1]].append(lits)
            elif isinstance(c, XorClause):
                vs = c.vars
                if len(vs) == 1:
                    self.ok = self._enqueue(2 * vs[0] + (c.parity ^ 1), None)
                    continue
                row = [vs, c.parity, 0, 1]
                self.xwatches[vs[0]].append(row)
                self.xwatches[vs[1]].append(row)
            else:
                self._add_linear(c)

    def _add_linear(self, c: Linear):
        vars_ = c.vars
        values = self.values
        for atleast in (True, False):
            if c.cmp == ("<=" if atleast else ">="):
                continue
            if (c.bound <= 0) if atleast else (c.bound >= len(vars_)):
                continue  # holds under every assignment
            n_true = sum(values[v] == 1 for v in vars_)
            entry = [vars_, c.bound, atleast, n_true, sum(values[v] < 0 for v in vars_)]
            for v in vars_:
                self.locc[v].append(entry)
            if self._fire(entry) is not None:
                self.ok = False
                return

    # ----- assignment plumbing ---------------------------------------

    def _enqueue(self, lit: int, reason) -> bool:
        """Assign lit true; False means it is already false (clash)."""
        v = lit >> 1
        val = (lit & 1) ^ 1
        cur = self.values[v]
        if cur >= 0:
            return cur == val
        self.values[v] = val
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        self.stats.propagations += 1
        for entry in self.locc[v]:
            entry[3] += val
            entry[4] -= 1
        return True

    def _backtrack(self, target_level: int):
        if target_level >= len(self.trail_lim):
            return
        trail = self.trail
        values = self.values
        phase = self.phase
        locc = self.locc
        limit = self.trail_lim[target_level]
        var_act = self.var_act
        heap = self.heap
        heap_top = self.heap_top
        for lit in reversed(trail[limit:]):
            v = lit >> 1
            old = values[v]
            phase[v] = old
            values[v] = -1
            for entry in locc[v]:
                entry[3] -= old
                entry[4] += 1
            key = -var_act[v]
            if heap_top[v] != key:
                heap_top[v] = key
                heappush(heap, (key, v))
        del trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(trail)

    # ----- propagation ------------------------------------------------

    def _fire(self, entry) -> list[int] | None:
        """Enqueue what a cardinality row forces; returns a conflict reason or None.

        The row's false literals (its false variables in an at-least row,
        the negations of its true variables in an at-most row) are the
        conflict, or the shared reason (1, lits) of every literal it forces.
        """
        vars_, bound, atleast, n_true, n_un = entry
        if atleast:
            need = bound - n_true
            if need <= 0 or need < n_un:
                return None
            values = self.values
            reason = [2 * v for v in vars_ if values[v] == 0]
            if need > n_un:
                return reason
        else:
            if n_true < bound or (n_true == bound and not n_un):
                return None
            values = self.values
            reason = [2 * v + 1 for v in vars_ if values[v] == 1]
            if n_true > bound:
                return reason
        want = 0 if atleast else 1
        reason = (1, reason)
        for u in vars_:
            if values[u] < 0:
                self._enqueue(2 * u + want, reason)
        return None

    def _propagate(self):
        """Exhaust the queue; returns a conflict clause (lits) or None.

        Assigns OR and XOR implications inline, as _enqueue would, and
        compacts each watch list in place, keeping its order.
        """
        values = self.values
        level = self.level
        reason = self.reason
        trail = self.trail
        watches = self.watches
        xwatches = self.xwatches
        locc = self.locc
        stats = self.stats
        dl = len(self.trail_lim)
        qhead = self.qhead
        props = 0  # added to stats before _fire and on return
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            v = lit >> 1

            # OR clauses watching the falsified literal: wl[:i] is kept, the
            # next `gone` entries moved away, and the rest not yet read
            flit = lit ^ 1
            wl = watches[flit]
            i = gone = 0
            for clause in wl:
                if type(clause) is int:  # binary: the other literal
                    fval = values[clause >> 1]
                    if fval == ((clause & 1) ^ 1):
                        wl[i] = clause
                        i += 1
                        continue
                    first, why = clause, flit
                else:
                    if clause[0] == flit:
                        clause[0], clause[1] = clause[1], flit
                    first = clause[0]
                    fval = values[first >> 1]
                    if fval == ((first & 1) ^ 1):
                        wl[i] = clause
                        i += 1
                        continue
                    for cl in clause[2:]:
                        if values[cl >> 1] != (cl & 1):
                            clause[clause.index(cl, 2)] = flit
                            clause[1] = cl
                            watches[cl].append(clause)
                            break
                    if clause[1] != flit:  # moved to a new watch
                        gone += 1
                        continue
                    why = clause
                wl[i] = clause
                i += 1
                if fval >= 0:  # first is false
                    del wl[i:i + gone]
                    self.qhead = qhead
                    stats.propagations += props
                    return [first, flit] if type(clause) is int else list(clause)
                u = first >> 1
                fval = (first & 1) ^ 1
                values[u] = fval
                level[u] = dl
                reason[u] = why
                trail.append(first)
                props += 1
                for entry in locc[u]:
                    entry[3] += fval
                    entry[4] -= 1
            if gone:
                del wl[i:]

            # XOR rows watching this variable
            xl = xwatches[v]
            if xl:
                i = gone = 0
                for row in xl:
                    vars_, parity, w0, w1 = row
                    if vars_[w0] == v:
                        slot, other = 2, vars_[w1]
                    else:
                        slot, other = 3, vars_[w0]
                    acc = parity  # XOR the assigned variables' values
                    for k, u in enumerate(vars_):
                        uval = values[u]
                        if uval >= 0:
                            acc ^= uval
                        elif u != other:
                            row[slot] = k
                            xwatches[u].append(row)
                            gone += 1
                            break
                    else:
                        xl[i] = row
                        i += 1
                        if values[other] >= 0:
                            if acc:  # every variable assigned, the parity wrong
                                del xl[i:i + gone]
                                self.qhead = qhead
                                stats.propagations += props
                                return [2 * u + values[u] for u in vars_]
                            continue
                        values[other] = acc
                        level[other] = dl
                        reason[other] = (0, vars_)
                        trail.append(2 * other + (acc ^ 1))
                        props += 1
                        for entry in locc[other]:
                            entry[3] += acc
                            entry[4] -= 1
                if gone:
                    del xl[i:]

            # cardinality rows (counters were updated at assignment time)
            rows = locc[v]
            if rows:
                stats.propagations += props
                props = 0
                for entry in rows:
                    conflict = self._fire(entry)
                    if conflict is not None:
                        self.qhead = qhead
                        return conflict
        self.qhead = qhead
        stats.propagations += props
        return None

    # ----- conflict analysis -------------------------------------------

    def _reason_of(self, v: int) -> list[int] | None:
        """v's reason as a clause: its true literal first, then false literals."""
        r = self.reason[v]
        if r is None or type(r) is list:
            return r
        implied = 2 * v + (self.values[v] ^ 1)
        if type(r) is int:  # binary clause: the falsified literal
            return [implied, r]
        kind, lits = r
        if kind:  # cardinality: the row's false literals at firing time
            return [implied] + lits
        values = self.values  # XOR: every other row variable, assigned before v
        return [implied] + [2 * u + values[u] for u in lits if u != v]

    def _bump_var(self, v: int):
        act = self.var_act[v] + self.var_inc
        if act > 1e100:
            scale = 1e-100
            for i in range(self.nvars):
                self.var_act[i] *= scale
                if self.heap_top[i] is not None:
                    self.heap_top[i] *= scale
            self.heap[:] = [(key * scale, u) for key, u in self.heap]
            heapify(self.heap)
            self.var_inc *= scale
            act = self.var_act[v] + self.var_inc
        self.var_act[v] = act

    def _bump_clause(self, clause: list[int]):
        key = id(clause)
        act = self.cla_act.get(key)
        if act is None:
            return
        act += self.cla_inc
        if act > 1e20:
            scale = 1e-20
            for k in self.cla_act:
                self.cla_act[k] *= scale
            self.cla_inc *= scale
            act = self.cla_act[key] + self.cla_inc
        self.cla_act[key] = act

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and backjump level."""
        level = self.level
        reason = self.reason
        trail = self.trail
        var_act = self.var_act
        var_inc = self.var_inc
        # v stays seen while its own reason is read, which skips v's literal in it;
        # the conflict is read as the reason of a spare variable, nvars
        seen = bytearray(self.nvars + 1)
        learnt: list[int] = [0]  # slot 0 receives the asserting literal
        cur_level = len(self.trail_lim)
        counter = 0
        idx = len(trail) - 1
        reason_lits = conflict
        pv = self.nvars
        while True:
            for q in reason_lits:
                qv = q >> 1
                if not seen[qv] and level[qv] > 0:
                    seen[qv] = 1
                    act = var_act[qv] + var_inc
                    if act > 1e100:
                        self._bump_var(qv)
                        var_inc = self.var_inc
                    else:
                        var_act[qv] = act
                    if level[qv] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            seen[pv] = 0
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            pv = p >> 1
            reason_lits = self._reason_of(pv)  # pv's own literal is seen
            if reason_lits is reason[pv]:  # a stored clause
                self._bump_clause(reason_lits)
        seen[p >> 1] = 0
        learnt[0] = p ^ 1

        # clause minimization: drop literals implied by the rest of the
        # clause through their reasons (antecedents all seen or level 0)
        if len(learnt) > 2:
            for q in learnt[1:]:
                seen[q >> 1] = 1
            kept = [learnt[0]]
            for q in learnt[1:]:  # q's reason read as stored; q's own variable is seen
                r = reason[q >> 1]
                if r is None:
                    kept.append(q)
                    continue
                if type(r) is int:  # binary clause: the falsified literal
                    ov = r >> 1
                    if not seen[ov] and level[ov] > 0:
                        kept.append(q)
                    continue
                if type(r) is list:
                    shift, lits = 1, r
                else:  # an XOR row lists variables (shift 0), a cardinality row literals
                    shift, lits = r
                for other in lits:
                    ov = other >> shift
                    if not seen[ov] and level[ov] > 0:
                        kept.append(q)
                        break
            learnt = kept

        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        max_lvl = level[learnt[1] >> 1]
        for i in range(2, len(learnt)):
            lv = level[learnt[i] >> 1]
            if lv > max_lvl:
                max_lvl = lv
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_lvl

    def _record_learnt(self, learnt: list[int]) -> bool:
        """Attach the learned clause and assert its first literal.

        False signals the asserting literal clashes at level 0, i.e. the
        system is unsatisfiable.
        """
        if len(learnt) == 1:
            return self._enqueue(learnt[0], None)
        self.learnts.append(learnt)
        self.cla_act[id(learnt)] = self.cla_inc
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self.stats.learned += 1
        return self._enqueue(learnt[0], learnt)

    def _reduce_db(self):
        limit = len(self.learnts) // 2
        values = self.values
        reason = self.reason
        by_activity = sorted(self.learnts, key=lambda c: self.cla_act.get(id(c), 0.0))
        removed = set()
        for clause in by_activity:
            if len(removed) >= limit:
                break
            if len(clause) <= 2:
                continue
            v0 = clause[0] >> 1
            if values[v0] >= 0 and reason[v0] is clause:
                continue  # locked: currently justifying an assignment
            removed.add(id(clause))
            del self.cla_act[id(clause)]
        if not removed:
            return
        self.learnts = [c for c in self.learnts if id(c) not in removed]
        for lit in range(2 * self.nvars):
            wl = self.watches[lit]
            if wl:
                self.watches[lit] = [c for c in wl if type(c) is int or id(c) not in removed]

    # ----- branching ----------------------------------------------------

    def _pick_branch_var(self) -> int:
        values = self.values
        if self.rng.random() < _RANDOM_BRANCH_FREQ:
            v = self.rng.randrange(self.nvars)
            for _ in range(self.nvars):
                if values[v] < 0:
                    return v
                v = (v + 1) % self.nvars
            return -1
        heap = self.heap
        heap_top = self.heap_top
        while heap:
            key, v = heappop(heap)
            if heap_top[v] == key:
                heap_top[v] = None
            if values[v] < 0:
                return v
        return -1

    # ----- main loop ------------------------------------------------------

    def search(self, limit: int) -> str:
        """Search until a verdict, or UNKNOWN once stats.propagations passes limit."""
        if not self.ok:
            return UNSAT
        restart_num = 0
        conflict_countdown = _LUBY_BASE * _luby(restart_num + 1)
        max_learnts = max(4000, self.num_clauses // 3)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflict_countdown -= 1
                if not self.trail_lim:
                    return UNSAT
                learnt, bt_level = self._analyze(conflict)
                self._backtrack(bt_level)
                if not self._record_learnt(learnt):
                    return UNSAT
                self.var_inc *= _VAR_ACT_DECAY
                self.cla_inc *= _CLA_ACT_DECAY
                continue

            if self.stats.propagations > limit:
                return UNKNOWN
            if conflict_countdown <= 0:
                self.stats.restarts += 1
                restart_num += 1
                conflict_countdown = _LUBY_BASE * _luby(restart_num + 1)
                self._backtrack(0)
                if len(self.learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.1) + 16
                continue

            v = self._pick_branch_var()
            if v < 0:
                return SAT
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * v + (self.phase[v] ^ 1), None)


@gc_paused
def solve(cs: ConstraintSystem, cfg: SolverConfig | None = None) -> SolveResult:
    """Decide a constraint system: sat with a model, unsat, or unknown.

    Unknown is returned only when the work budget runs out.  Every sat
    verdict is re-validated with the independent checker before being
    returned.  No clock is read: the budget, the probes and the slices
    are all counted in work units, the kernel probe's ahead of slice 1.

    Where flip_variable(cs) names p(0), every slice fixes it at its saved
    phase, one work unit, and a refutation under it is the system's
    unsat only if is_encoded(cs) holds: one encode, on a search-refuted
    unsat alone.  Otherwise the slices go on under the other value with
    the budget left, and their refutation completes the system's.
    """
    cfg = cfg or SolverConfig()
    stats = SolverStats()
    params = cs.params
    g, dq = cs.graph, params.min_qubit_degree
    # The kernel probe runs once, first, unless stabilizer degree bounds make
    # it hopeless (its empty and concentrated rows break them).  Its hit, or
    # on a miss the greedy candidate, is completed once: the model if it
    # passes check, and the saved phases either way.  Slice k gets seed
    # cfg.seed + k and twice the work of slice k - 1, cut at the budget; its
    # limit is taken before the engine loads, so level-0 units enqueued at
    # load count towards it.
    hit = phases = model = None
    if dq:
        if not params.min_stab_degree and params.max_stab_degree is None:
            hit, stats.propagations = kernel_candidate(g, dq, cfg.seed)
        phases = consistent_completion(cs, *(hit or greedy_candidate(g, dq, params.balanced)))
        model = phases if hit else None
    elif not params.min_stab_degree:
        model = consistent_completion(cs, [0] * g.m, [0] * g.m)
    if model is not None and check(cs, model):
        return SolveResult(SAT, model, stats)
    budget = int(cfg.time_budget * PROPS_PER_SECOND)
    work = max(_MIN_SLICE, int(budget * _FIRST_SLICE_FRACTION))
    seed = cfg.seed
    verdict = UNKNOWN
    # the literal that puts p(0) at its saved phase, which every slice enqueues at level 0
    flip = flip_variable(cs)
    fixed = None if flip is None else 2 * flip + ((phases[flip] if phases else 0) ^ 1)
    other_half = fixed is not None  # whether a refutation may still need the other half
    while verdict == UNKNOWN and stats.propagations < budget:
        limit = min(stats.propagations + work, budget)
        engine = _Engine(cs, seed, phases, stats)
        if fixed is not None and engine.ok:
            engine.ok = engine._enqueue(fixed, None)
        verdict = engine.search(limit)
        model = tuple(engine.values)
        work *= 2
        seed += 1
        if verdict == UNSAT and other_half:
            other_half = False
            if not is_encoded(cs):
                fixed ^= 1
                verdict = UNKNOWN

    if verdict != SAT:
        return SolveResult(verdict, None, stats)
    if not check(cs, model):
        raise RuntimeError("internal error: solver produced an invalid model")
    return SolveResult(SAT, model, stats)
