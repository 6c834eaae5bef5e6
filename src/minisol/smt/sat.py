"""A small CDCL SAT solver: two-watched literals, 1-UIP learning,
activity-driven decisions with deterministic tie-breaking, Luby restarts
and phase saving.  Clauses are lists of non-zero ints (DIMACS convention).
"""

from __future__ import annotations

import heapq
import time

DEADLINE_STRIDE = 256            # decisions between clock reads


class SatSolver:
    def __init__(self, nvars):
        self.nvars = nvars
        self.clauses = []
        self.watches = [[] for _ in range(2 * nvars + 2)]
        self.assign = [0] * (nvars + 1)        # 0 unset, 1 true, -1 false
        self.level = [0] * (nvars + 1)
        self.reason = [-1] * (nvars + 1)
        self.phase = [False] * (nvars + 1)
        self.activity = [0.0] * (nvars + 1)
        self.var_inc = 1.0
        # lazy (-activity, var); a sorted list is already a heap
        self.heap = [(0.0, v) for v in range(1, nvars + 1)]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True

    def value(self, lit):
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits):
        """Load a clause.  Gate clauses from the blaster are duplicate- and
        tautology-free by construction, so no per-literal scrubbing here;
        root-level units are propagated when solving starts."""
        if not self.ok:
            return
        if len(lits) == 1:
            if not self.enqueue(lits[0], -1):
                self.ok = False
            return
        if not lits:
            self.ok = False
            return
        self._attach(lits)

    def _attach(self, lits):
        idx = len(self.clauses)
        self.clauses.append(lits)
        a, b = lits[0], lits[1]
        self.watches[2 * a + 1 if a > 0 else -2 * a].append(idx)
        self.watches[2 * b + 1 if b > 0 else -2 * b].append(idx)
        return idx

    def enqueue(self, lit, reason):
        val = self.value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def propagate(self):
        """Returns a conflicting clause index or -1."""
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            wl = watches[2 * lit if lit > 0 else -2 * lit + 1]
            i = j = 0
            conflict = -1
            n = len(wl)
            while i < n:
                cidx = wl[i]
                i += 1
                clause = clauses[cidx]
                # make sure the falsified literal sits in slot 1
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fv = assign[first] if first > 0 else -assign[-first]
                if fv == 1:
                    wl[j] = cidx
                    j += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    ck = clause[k]
                    if (assign[ck] if ck > 0 else -assign[-ck]) != -1:
                        clause[1], clause[k] = ck, clause[1]
                        watches[2 * ck + 1 if ck > 0 else -2 * ck].append(cidx)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = cidx
                j += 1
                if not self.enqueue(first, cidx):
                    conflict = cidx
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
            del wl[j:]
            if conflict >= 0:
                return conflict
        return -1

    def bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.heap, (-self.activity[v], v))

    def analyze(self, confl):
        learnt = []
        seen = [False] * (self.nvars + 1)
        counter = 0
        lit = 0
        idx = len(self.trail) - 1
        backtrack = 0
        while True:
            for q in (self.clauses[confl] if lit == 0
                      else self.clauses[confl][1:]):
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self.bump(v)
                    if self.level[v] == len(self.trail_lim):
                        counter += 1
                    else:
                        learnt.append(q)
                        backtrack = max(backtrack, self.level[v])
            while True:
                lit = self.trail[idx]
                idx -= 1
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[abs(lit)]
        learnt.insert(0, -lit)
        for q in learnt:
            seen[abs(q)] = False
        return learnt, (backtrack if len(learnt) > 1 else 0)

    def cancel_until(self, target):
        while len(self.trail_lim) > target:
            bound = self.trail_lim.pop()
            for lit in self.trail[bound:]:
                v = abs(lit)
                self.phase[v] = lit > 0
                self.assign[v] = 0
                self.reason[v] = -1
                heapq.heappush(self.heap, (-self.activity[v], v))
            del self.trail[bound:]
            self.qhead = min(self.qhead, bound)

    def decide(self):
        while self.heap:
            act, v = heapq.heappop(self.heap)
            if self.assign[v] == 0 and -act == self.activity[v]:
                return v
        for v in range(1, self.nvars + 1):
            if self.assign[v] == 0:
                return v
        return 0

    def solve(self, max_conflicts=None, deadline=None):
        """None if UNSAT, otherwise a model list (index by var, [0] unused).

        Raises SatBudgetExceeded after `max_conflicts` conflicts, or once
        `time.monotonic()` passes `deadline`; the clock is read once per
        conflict and once every DEADLINE_STRIDE decisions."""
        if not self.ok:
            return None
        conflicts = 0
        decisions = 0
        luby_idx = 1
        budget = 64 * _luby(luby_idx)
        while True:
            confl = self.propagate()
            if confl >= 0:
                conflicts += 1
                if len(self.trail_lim) == 0:
                    return None
                learnt, back = self.analyze(confl)
                self.cancel_until(back)
                if len(learnt) == 1:
                    if not self.enqueue(learnt[0], -1):
                        return None
                else:
                    idx = self._attach_learnt(learnt)
                    if not self.enqueue(learnt[0], idx):
                        return None
                self.var_inc /= 0.95
                if max_conflicts is not None and conflicts > max_conflicts:
                    raise SatBudgetExceeded("conflict budget exceeded")
                if deadline is not None and time.monotonic() > deadline:
                    raise SatBudgetExceeded("deadline")
                if conflicts >= budget:
                    luby_idx += 1
                    budget = conflicts + 64 * _luby(luby_idx)
                    self.cancel_until(0)
            else:
                v = self.decide()
                if v == 0:
                    return [False] + [self.assign[u] == 1
                                      for u in range(1, self.nvars + 1)]
                decisions += 1
                if deadline is not None and decisions % DEADLINE_STRIDE == 0 \
                        and time.monotonic() > deadline:
                    raise SatBudgetExceeded("deadline")
                self.trail_lim.append(len(self.trail))
                lit = v if self.phase[v] else -v
                self.enqueue(lit, -1)

    def _attach_learnt(self, lits):
        # slot 1 must hold the highest-level remaining literal for watching
        if len(lits) > 2:
            best = max(range(1, len(lits)), key=lambda i: self.level[abs(lits[i])])
            lits[1], lits[best] = lits[best], lits[1]
        return self._attach(lits)


class SatBudgetExceeded(Exception):
    """The search stopped early; the message says which bound ran out."""


def _luby(i):
    """Luby sequence, 1-indexed: 1 1 2 1 1 2 4 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq
