"""Fault-injection campaign planners and runners.

Three campaign granularities, matching the paper's comparison:

* :func:`plan_exhaustive` — every bit of every register at every cycle
  (the baseline of Table I);
* :func:`plan_inject_on_read` — one injection per bit of each live
  access window (value-level inject-on-read, the paper's "Live in
  values" baseline for Table III);
* :func:`plan_bec` — the pruned plan: one injection per non-masked
  equivalence class per epoch ("Live in bits").

Each returns a :class:`Plan`: a lazy, read-only sequence of
:class:`PlannedRun` in trace-cycle order.  Exhaustive and
inject-on-read plans are arithmetic index maps over the golden trace;
a BEC plan keeps only the emitting cycles of one compiled walk
(:class:`repro.fi.accounting.BecTables`).  A ``PlannedRun`` is built
only when an entry is read, so a plan costs O(trace), not O(plan).
:meth:`Plan.sample` draws a deterministic, cycle-stratified sample —
how a campaign, a sweep cell or a benchmark is capped (statistical
fault injection, Leveugle et al., DATE 2009); the protection
experiment's :func:`repro.harden.evaluate.strided_plan` is an evenly
strided slice instead.

:class:`repro.fi.engine.CampaignEngine` executes a plan against the
machine and classifies each run against the golden trace.
"""

from abc import abstractmethod
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence

from repro.ir.liveness import compute_liveness
from repro.fi.accounting import BecTables
from repro.fi.machine import Injection, Machine
from repro.fi.trace import OUTCOME_OK, OUTCOME_TRAP, TRAP_DETECTED

PlannedRun = namedtuple("PlannedRun", ["injection", "pp", "rep", "epoch"])

#: Classification of one fault-injection run against the golden trace.
EFFECT_MASKED = "masked"          # identical trace
EFFECT_SDC = "sdc"                # silent data corruption (wrong output)
EFFECT_DETECTED = "detected"      # a hardening checker trapped the fault
EFFECT_TRAP = "trap"              # run trapped
EFFECT_TIMEOUT = "timeout"        # run did not terminate in budget
EFFECT_BENIGN = "benign-divergence"  # same outputs, different path

#: Every effect class, in reporting order.  ``effect_counts()`` returns
#: all of them (zero-defaulted) so reporting code can index any class
#: without guarding against missing keys.
EFFECT_CLASSES = (EFFECT_MASKED, EFFECT_SDC, EFFECT_DETECTED, EFFECT_TRAP,
                  EFFECT_TIMEOUT, EFFECT_BENIGN)


class Plan(Sequence):
    """A fault plan: ``len``, indexing, slicing (a :class:`SubPlan`),
    iteration and :meth:`sample`, with entries built on access.

    Subclasses provide ``__len__``, :meth:`row` and :meth:`rows`.
    """

    @abstractmethod
    def row(self, index):
        """The ``(cycle, reg, bit, pp, rep, epoch)`` tuple of the entry
        at the non-negative *index*."""

    @abstractmethod
    def rows(self):
        """Every entry's row, in plan order."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._subset(range(len(self))[index])
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("plan index out of range")
        return _planned(self.row(index))

    def __iter__(self):
        return map(_planned, self.rows())

    def __repr__(self):
        return f"<{type(self).__name__} of {len(self)} runs>"

    def __eq__(self, other):
        """Entry-wise, against any plan, list or tuple of runs."""
        if not isinstance(other, (Plan, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and \
            all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None

    @property
    def sample_fraction(self):
        """Share of the planned population this plan executes."""
        return 1.0

    def _subset(self, indices):
        return SubPlan(self, indices)

    def sample(self, n):
        """A deterministic, cycle-stratified sample of *n* entries.

        The plan is cut into *n* strata of consecutive entries (entries
        are in cycle order, so each stratum is a stretch of the trace)
        and one entry is drawn from each, so every entry has the same
        inclusion probability and the sample spans the whole trace.
        The draw is a fixed integer hash of the stratum number, so a
        sample (and its content address) is the same on every
        interpreter.  With ``n >= len(self)`` the sample is the plan
        itself.
        """
        length = len(self)
        if n >= length:
            return self
        picks = []
        for stratum in range(n):
            low = stratum * length // n
            high = (stratum + 1) * length // n
            picks.append(low + _splitmix64(stratum) % (high - low))
        return self._subset(picks)


_MASK64 = (1 << 64) - 1


def _splitmix64(value):
    """The SplitMix64 output for state *value*: a fixed, well-mixed
    64-bit hash of a non-negative integer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _planned(row):
    cycle, reg, bit, pp, rep, epoch = row
    return PlannedRun(Injection(cycle, reg, bit), pp, rep, epoch)


class SubPlan(Plan):
    """The entries of *parent* at *indices* (a range or a list)."""

    def __init__(self, parent, indices):
        self.parent = parent
        self.indices = indices

    def __len__(self):
        return len(self.indices)

    def row(self, index):
        return self.parent.row(self.indices[index])

    def rows(self):
        return map(self.parent.row, self.indices)

    @property
    def sample_fraction(self):
        population = len(self.parent)
        return len(self) / population if population else 1.0

    def _subset(self, indices):
        return SubPlan(self.parent, [self.indices[index]
                                     for index in indices])


class ExhaustivePlan(Plan):
    """Every (cycle, register, bit) of the register file."""

    def __init__(self, function, trace, registers=None):
        self.executed = trace.executed
        self.registers = tuple(registers or function.registers())
        self.width = function.bit_width
        self._per_cycle = len(self.registers) * self.width

    def __len__(self):
        return len(self.executed) * self._per_cycle

    def row(self, index):
        cycle, offset = divmod(index, self._per_cycle)
        slot, bit = divmod(offset, self.width)
        return (cycle, self.registers[slot], bit, self.executed[cycle],
                None, None)

    def rows(self):
        for cycle, pp in enumerate(self.executed):
            for reg in self.registers:
                for bit in range(self.width):
                    yield (cycle, reg, bit, pp, None, None)


class InjectOnReadPlan(Plan):
    """Every bit of every dynamic live window; one offset per cycle."""

    def __init__(self, function, trace, liveness=None):
        liveness = liveness or compute_liveness(function)
        self.executed = trace.executed
        self.width = function.bit_width
        self.windows = [liveness.live_windows(pp)
                        for pp in range(len(function.instructions))]
        self.starts = [0]       # plan index of each cycle's first entry
        for pp in self.executed:
            self.starts.append(self.starts[-1]
                               + len(self.windows[pp]) * self.width)

    def __len__(self):
        return self.starts[-1]

    def row(self, index):
        cycle = bisect_right(self.starts, index) - 1
        pp = self.executed[cycle]
        slot, bit = divmod(index - self.starts[cycle], self.width)
        return (cycle, self.windows[pp][slot], bit, pp, None, None)

    def rows(self):
        for cycle, pp in enumerate(self.executed):
            for reg in self.windows[pp]:
                for bit in range(self.width):
                    yield (cycle, reg, bit, pp, None, None)


class BecPlan(Plan):
    """The class-leader instances of one compiled BEC walk.

    Only the emitting cycles are kept — their cycle, their
    :class:`repro.fi.accounting.Action` and the plan index of their
    first entry; an entry's epoch (its dynamic group id) is its plan
    index, because groups are numbered as they are emitted.
    """

    def __init__(self, function, trace, bec):
        self.executed = trace.executed
        self.tables = BecTables(function, bec)
        self.cycles = []
        self.actions = []
        self.starts = [0]
        for cycle, _point, action in self.tables.walk(self.executed):
            if action.emits:
                self.cycles.append(cycle)
                self.actions.append(action)
                self.starts.append(self.starts[-1] + len(action.emits))

    def __len__(self):
        return self.starts[-1]

    def row(self, index):
        step = bisect_right(self.starts, index) - 1
        action = self.actions[step]
        reg, bit, rep = action.emits[index - self.starts[step]]
        return (self.cycles[step], reg, bit, action.pp, rep, index)

    def rows(self):
        for cycle, action, start in zip(self.cycles, self.actions,
                                        self.starts):
            for offset, (reg, bit, rep) in enumerate(action.emits):
                yield (cycle, reg, bit, action.pp, rep, start + offset)

    def accounting(self):
        """The Table III row of this plan's walk (see
        :func:`repro.fi.accounting.fault_injection_accounting`)."""
        return self.tables.accounting(self.executed, len(self))


def plan_exhaustive(function, trace, registers=None):
    """Every (cycle, register, bit) of the register file (Table I)."""
    return ExhaustivePlan(function, trace, registers)


def plan_inject_on_read(function, trace, liveness=None):
    """One injection per bit of each dynamic live window."""
    return InjectOnReadPlan(function, trace, liveness)


def plan_bec(function, trace, bec):
    """The BEC-pruned plan: only class-leader instances are injected."""
    return BecPlan(function, trace, bec)


class Aggregates:
    """Incremental campaign aggregates — everything a
    :class:`CampaignResult` reports without touching per-run records.

    Updated once per record as runs retire (O(1) each), so aggregate
    queries never re-scan the run list and a streaming campaign needs
    no per-run retention at all.  The accumulated numbers are
    bit-identical to a scan of the materialized records because they
    are fed the same records in the same (plan) order.
    """

    __slots__ = ("n_runs", "counts", "vulnerable", "_distinct")

    def __init__(self):
        self.n_runs = 0
        self.counts = {}          # effect class -> run count
        self.vulnerable = 0       # runs whose trace differs from golden
        self._distinct = {}       # signature -> archived byte size

    def add(self, effect, signature, byte_size):
        self.n_runs += 1
        self.counts[effect] = self.counts.get(effect, 0) + 1
        if effect != EFFECT_MASKED:
            self.vulnerable += 1
        if signature not in self._distinct:
            self._distinct[signature] = byte_size

    def effect_counts(self):
        counts = dict.fromkeys(EFFECT_CLASSES, 0)
        counts.update(self.counts)
        return counts

    @property
    def distinct_traces(self):
        return len(self._distinct)

    def trace_sizes(self):
        return dict(self._distinct)

    @property
    def archived_bytes(self):
        return sum(self._distinct.values())

    @classmethod
    def restore(cls, counts, vulnerable, sizes, n_runs):
        """Rebuild an accumulator from archived aggregate numbers
        (the store's chunked payloads keep them in the meta row so a
        cached result needs no run scan)."""
        aggregates = cls()
        aggregates.n_runs = n_runs
        aggregates.counts = {effect: count
                             for effect, count in counts.items() if count}
        aggregates.vulnerable = vulnerable
        aggregates._distinct = dict(sizes)
        return aggregates


class CampaignResult:
    """Outcome of a campaign: per-run effects plus aggregate stats.

    A thin facade over two streaming products of the engine: aggregates
    come from an incrementally updated :class:`Aggregates` accumulator,
    and ``runs`` is whatever record sequence the caller supplies — an
    in-memory list (the default, and what :meth:`record` appends to), a
    disk-spool view (:class:`repro.fi.sink.SpooledRuns`) on streamed
    campaigns, or a chunk-reading store view on cached results.  Every
    consumer-facing accessor (``effect_counts()``, ``distinct_traces``,
    ``vulnerable_runs()``, ``archived_bytes``, iteration over ``runs``)
    behaves identically across the three, so downstream code cannot
    tell how the records are held.
    """

    #: True on results decoded from :mod:`repro.store` instead of
    #: being executed (the store's subclass overrides this).
    cached = False

    def __init__(self, golden, runs=None, aggregates=None):
        self.golden = golden
        #: (PlannedRun, effect, signature) per run — list or lazy view.
        self.runs = [] if runs is None else runs
        self.wall_time = 0.0
        self.pruned_runs = 0      # masked without simulation (liveness)
        self.vectorized = False   # lockstep core actually engaged
        self._aggregates = Aggregates() if aggregates is None \
            else aggregates

    def record(self, planned, effect, signature, byte_size):
        self.runs.append((planned, effect, signature))
        self._aggregates.add(effect, signature, byte_size)

    @property
    def distinct_traces(self):
        return self._aggregates.distinct_traces

    def trace_sizes(self):
        """``signature -> archived byte size`` for every
        distinguishable trace (the store serializes this)."""
        return self._aggregates.trace_sizes()

    @property
    def archived_bytes(self):
        """Bytes needed to archive one copy of each distinguishable
        trace (the paper's Table I disk-space column)."""
        return self._aggregates.archived_bytes

    def effect_counts(self):
        """Per-class run counts; every class of :data:`EFFECT_CLASSES`
        is present (zero when no run landed in it).  O(classes) — the
        counts accumulate as runs are recorded, so reporting paths that
        call this repeatedly never re-scan the run list."""
        return self._aggregates.effect_counts()

    def vulnerable_runs(self):
        """Runs whose trace differs from the golden trace (O(1))."""
        return self._aggregates.vulnerable


def classify_effect(golden, injected):
    """Classify an injected trace against the golden one."""
    if injected.same_as(golden):
        return EFFECT_MASKED
    if injected.outcome != OUTCOME_OK:
        if injected.outcome == OUTCOME_TRAP:
            if injected.trap_kind == TRAP_DETECTED:
                return EFFECT_DETECTED
            return EFFECT_TRAP
        return EFFECT_TIMEOUT
    if injected.architectural_key() == golden.architectural_key():
        return EFFECT_BENIGN
    return EFFECT_SDC


def golden_run(function, regs=None, memory_image=None, memory_size=1 << 16,
               max_cycles=None):
    """Convenience: build a machine and produce the golden trace."""
    machine = Machine(function, memory_size=memory_size,
                      memory_image=memory_image)
    kwargs = {}
    if max_cycles is not None:
        kwargs["max_cycles"] = max_cycles
    return machine, machine.run(regs=regs, **kwargs)
