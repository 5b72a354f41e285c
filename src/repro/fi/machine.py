"""ISA-level simulator for the IR (the reproduction's SPIKE).

The machine executes one finalized function with a register file, a flat
byte-addressed memory and a cycle counter (one instruction per cycle).
It supports *single-event-upset* fault injection: a single bit of a
register is flipped after a given dynamic cycle, exactly the model the
paper uses for its campaigns (one fault per run, faults persist until
overwritten).

Three execution cores share the machine's public API and produce
bit-identical traces:

* the **threaded core** (the default): registers live in a dense
  ``list`` indexed by decode-time slot numbers, and every instruction is
  compiled once into a specialized closure by
  :mod:`repro.fi.threaded` — the hot loop is one closure call per
  cycle, with injections, snapshots and convergence checks handled at
  precomputed cycle boundaries between tight runs;
* the **reference core** (``core="reference"``): the original
  tuple-tag interpreter, kept as the differential-testing oracle
  (``tests/fuzz/test_interp_differential.py``) and as the host of
  ``record_registers`` runs, whose per-cycle register dictionaries it
  defines;
* the **batched core** (``core="batched"``): a campaign-level core —
  :class:`repro.fi.engine.CampaignEngine` executes the whole plan with
  NumPy-vectorized lockstep lanes (:mod:`repro.fi.batch`, one lane per
  planned injection along the golden path).  Single runs on a batched
  machine (:meth:`Machine.run`, :meth:`Machine.run_from`) execute on
  the threaded core, which is also where divergent lanes escape to,
  so per-run semantics are by construction identical.

All arithmetic is bit-accurate; the reference core routes it through
:mod:`repro.ir.concrete`, the same definitions the static analyses use,
and the threaded core inlines those semantics at decode time.
"""

from repro.errors import MachineTrap, SimulationError
from repro.fi import threaded
from repro.obs.profile import PROFILER as _PROFILER
from repro.fi.trace import (OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_TRAP,
                            TRAP_DETECTED, Trace)
from repro.ir.concrete import alu, branch_taken, mask, unary
from repro.ir.instructions import Format, Opcode
from repro.ir.registers import ZERO

#: Default dynamic instruction budget per run.
DEFAULT_MAX_CYCLES = 2_000_000


class Injection:
    """A single-event upset: flip *bit* of *reg* right after *cycle*.

    ``cycle`` counts executed instructions; ``cycle=t`` flips the bit
    after the instruction at trace position ``t`` completes, i.e. inside
    the fault window that opens at that access.  ``cycle=-1`` flips the
    bit before execution starts.

    The bit index is validated against the actual register width when
    the injection meets a machine (:meth:`Machine.run`), so a campaign
    plan with out-of-range sites fails loudly instead of silently
    flipping nothing.
    """

    __slots__ = ("cycle", "reg", "bit")

    def __init__(self, cycle, reg, bit):
        if reg == ZERO:
            raise SimulationError("the zero register has no fault sites")
        self.cycle = cycle
        self.reg = reg
        self.bit = bit

    def __repr__(self):
        return f"Injection(cycle={self.cycle}, reg={self.reg!r}, bit={self.bit})"

    # Plans build their entries on access, so two reads of one entry
    # are equal values, not one object.
    def __eq__(self, other):
        return type(other) is Injection and \
            (self.cycle, self.reg, self.bit) == \
            (other.cycle, other.reg, other.bit)

    def __hash__(self):
        return hash((self.cycle, self.reg, self.bit))


class MemoryInjection:
    """A single-event upset in memory: flip bit *bit* of the word at
    *address* right after *cycle* (same cycle convention as
    :class:`Injection`; ``cycle=-1`` flips before execution starts).

    ``bit`` indexes little-endian within the word starting at
    *address*: bit 11 flips bit 3 of the byte at ``address + 1``.
    The paper's model covers this case explicitly — "data points may
    refer to memory cells if data in memory is modeled" (§II).  Targets
    past the machine's memory are rejected when the injection meets a
    machine, not silently ignored.
    """

    __slots__ = ("cycle", "address", "bit")

    def __init__(self, cycle, address, bit):
        if address < 0:
            raise SimulationError("negative memory address")
        if bit < 0:
            raise SimulationError("negative bit index")
        self.cycle = cycle
        self.address = address
        self.bit = bit

    def __repr__(self):
        return (f"MemoryInjection(cycle={self.cycle}, "
                f"address={self.address}, bit={self.bit})")


class Snapshot:
    """Point-in-time image of a machine mid-run (a checkpoint).

    Snapshots are taken during *clean* (injection-free) runs at
    configurable cycle intervals; :meth:`Machine.run_from` restores one
    and executes only the tail, which is what makes exhaustive
    campaigns O(runs × avg-tail) instead of O(runs × trace-length).

    ``registers`` is the raw register file of the core that took the
    snapshot: a slot-indexed list for the threaded core (restore is one
    ``list()`` copy), a dict for the reference core.  Use
    :meth:`register_dict` for core-independent introspection.  The trace
    prefix is not copied eagerly: a snapshot keeps a reference to the
    (immutable once the golden run finishes) golden trace plus the
    prefix lengths, and :meth:`Machine.run_from` slices the prefix per
    resumed run.  ``memory`` is stored as immutable :class:`bytes` so
    each restore is a single copy.
    """

    __slots__ = ("cycle", "pc", "registers", "memory", "trace",
                 "n_executed", "n_outputs", "n_stores", "n_loads",
                 "reg_names")

    def __init__(self, cycle, pc, registers, memory, trace,
                 reg_names=None):
        self.cycle = cycle
        self.pc = pc
        self.registers = registers
        self.memory = memory
        self.trace = trace
        self.reg_names = reg_names
        self.n_executed = len(trace.executed)
        self.n_outputs = len(trace.outputs)
        self.n_stores = len(trace.stores)
        self.n_loads = len(trace.loads)

    def register_dict(self):
        """Register file as a ``{name: value}`` dict, whichever core
        took the snapshot (the zero register is omitted)."""
        if isinstance(self.registers, dict):
            return {reg: value for reg, value in self.registers.items()
                    if reg != ZERO}
        return {name: value
                for name, value in zip(self.reg_names, self.registers)
                if name != ZERO}

    def byte_size(self):
        """Approximate in-memory footprint (for accounting/benchmarks)."""
        return len(self.memory) + 16 * len(self.registers) + 64

    def __repr__(self):
        return (f"<Snapshot cycle={self.cycle} pc={self.pc} "
                f"regs={len(self.registers)}>")


def _apply_upset(upset, registers, memory, value_mask):
    """Flip the bit named by *upset* in a dict register file or memory
    (the reference core's variant; sites are validated up front)."""
    if isinstance(upset, MemoryInjection):
        memory[upset.address + upset.bit // 8] ^= 1 << (upset.bit % 8)
    else:
        registers[upset.reg] = (registers.get(upset.reg, 0)
                                ^ (1 << upset.bit)) & value_mask


def _apply_slot_upset(upset, slot_of, registers, memory):
    """Flip the bit named by *upset* in a slot-indexed register file or
    memory.  Validation guarantees the bit is inside the register width
    and the memory target is in bounds, so no masking is needed."""
    if isinstance(upset, MemoryInjection):
        memory[upset.address + upset.bit // 8] ^= 1 << (upset.bit % 8)
    else:
        registers[slot_of[upset.reg]] ^= 1 << upset.bit


def _sorted_upsets(injection):
    if injection is None:
        return []
    if isinstance(injection, (list, tuple)):
        return sorted(injection, key=lambda upset: upset.cycle)
    return [injection]


def _register_lists_match(current, reference):
    """Slot-file equality, tolerating a file grown (by injections into
    registers the program never names) past the snapshot's length: the
    extra slots must simply still be zero."""
    if len(current) == len(reference):
        return current == reference
    short, grown = ((reference, current)
                    if len(reference) < len(current)
                    else (current, reference))
    return grown[:len(short)] == short and not any(grown[len(short):])


class Machine:
    """Executable image of one function plus a memory.

    ``core`` selects the execution core: ``"threaded"`` (default),
    ``"reference"`` (the retained tuple-tag interpreter) or
    ``"batched"`` (lockstep-vectorized *campaign* execution — single
    runs on such a machine use the threaded core).  All cores produce
    bit-identical traces and campaign aggregates.
    """

    #: Valid ``core`` arguments.
    CORES = ("threaded", "reference", "batched")

    def __init__(self, function, memory_size=1 << 16, memory_image=None,
                 core="threaded"):
        if core not in self.CORES:
            raise SimulationError(f"unknown execution core {core!r}")
        self.function = function
        self.width = function.bit_width
        self.memory_size = memory_size
        self.memory_image = bytes(memory_image or b"")
        self.core = core
        if len(self.memory_image) > memory_size:
            raise SimulationError("memory image larger than memory")
        self._value_mask = mask(self.width)
        self._decode()

    # -- decode ------------------------------------------------------------------

    def _slot(self, reg):
        """Dense slot index of *reg*, growing the slot table on first
        use (injections and inputs may name registers the program never
        touches)."""
        slot = self._slot_of.get(reg)
        if slot is None:
            slot = len(self._reg_of)
            self._slot_of[reg] = slot
            self._reg_of.append(reg)
        return slot

    def _decode(self):
        function = self.function
        self._first_pp = {}
        for block in function.blocks:
            if block.instructions:
                self._first_pp[block.label] = block.instructions[0].pp
        self._slot_of = {ZERO: 0}
        self._reg_of = [ZERO]
        for param in function.params:
            self._slot(param)
        # Each core's program is compiled on first use: a reference
        # machine never pays for the threaded closures and vice versa
        # (record_registers and cross-core snapshots pull in the other
        # core on demand).
        self._ops = None
        self._program = None

    def _threaded_ops(self):
        """The threaded-code program, compiled on first use.

        Must run before sizing any slot register file: compilation may
        grow the slot table with registers the program names but no
        injection or input has touched yet.
        """
        if self._ops is None:
            self._ops = threaded.compile_ops(self.function, self._slot,
                                             self._first_pp,
                                             self.memory_size)
        return self._ops

    def _reference_program(self):
        """The original tuple-tag decode, kept for the reference core
        (compiled on first use)."""
        if self._program is None:
            self._decode_reference()
        return self._program

    def _decode_reference(self):
        function = self.function
        program = []
        total = len(function.instructions)
        for instruction in function.instructions:
            pp = instruction.pp
            opcode = instruction.opcode
            fmt = instruction.format
            next_pp = pp + 1 if pp + 1 < total else None
            if fmt is Format.BRANCH or fmt is Format.BRANCHZ:
                target = self._first_pp[instruction.label]
                program.append(("branch", opcode, instruction.rs1,
                                instruction.rs2, target, next_pp))
            elif fmt is Format.JUMP:
                program.append(("jump", self._first_pp[instruction.label]))
            elif opcode is Opcode.RET:
                program.append(("ret", instruction.rs1))
            elif opcode is Opcode.OUT:
                program.append(("out", instruction.rs1, next_pp))
            elif opcode is Opcode.CHECK:
                program.append(("check", instruction.rs1,
                                instruction.rs2, next_pp))
            elif opcode is Opcode.LI:
                program.append(("li", instruction.rd,
                                instruction.imm & mask(self.width), next_pp))
            elif fmt is Format.RR:
                program.append(("unary", opcode, instruction.rd,
                                instruction.rs1, next_pp))
            elif fmt is Format.RRR:
                program.append(("alu", opcode, instruction.rd,
                                instruction.rs1, instruction.rs2, next_pp))
            elif fmt is Format.RRI:
                program.append(("alui", opcode, instruction.rd,
                                instruction.rs1,
                                instruction.imm & mask(self.width), next_pp))
            elif instruction.is_load:
                program.append(("load", opcode, instruction.rd,
                                instruction.rs1, instruction.imm, next_pp))
            elif instruction.is_store:
                program.append(("store", opcode, instruction.rs2,
                                instruction.rs1, instruction.imm, next_pp))
            elif opcode is Opcode.NOP:
                program.append(("nop", next_pp))
            else:
                raise SimulationError(f"cannot decode {instruction}")
        self._program = program

    # -- fault-site validation ---------------------------------------------------

    def _prepare_upsets(self, injection):
        """Sort the upsets and validate every site against this machine
        (register width, memory bounds) so bad campaign plans fail
        loudly before any simulation happens."""
        upsets = _sorted_upsets(injection)
        for upset in upsets:
            if isinstance(upset, MemoryInjection):
                if upset.address + upset.bit // 8 >= self.memory_size:
                    raise SimulationError(
                        f"memory injection at address {upset.address} "
                        f"bit {upset.bit} is outside the "
                        f"{self.memory_size}-byte memory")
            else:
                if not 0 <= upset.bit < self.width:
                    raise SimulationError(
                        f"injection bit {upset.bit} is outside the "
                        f"{self.width}-bit register {upset.reg!r}")
                self._slot(upset.reg)
        return upsets

    # -- execution ---------------------------------------------------------------

    def run(self, regs=None, injection=None, max_cycles=DEFAULT_MAX_CYCLES,
            record_executed=True, record_registers=False,
            snapshot_interval=None, snapshots=None):
        """Execute from the entry block; returns a :class:`Trace`.

        ``regs`` provides initial register values (parameters).
        ``injection``, if given, is a single :class:`Injection` /
        :class:`MemoryInjection` or a sequence of them — multi-event
        upsets model the double-bit flips that exceed EDAC's correction
        capability (paper §I), each applied at its own cycle.  With
        ``record_registers`` the trace carries one register-file
        snapshot per executed instruction (taken right after it
        completes, before any injection fires) — the oracle the
        bit-value soundness fuzzer compares against; such runs always
        execute on the reference core, whose per-cycle dictionaries
        define ``Trace.register_log``.

        With ``snapshot_interval=N`` (clean runs only — snapshots of a
        faulted run would poison every resumed tail) a :class:`Snapshot`
        is appended to the ``snapshots`` list every N executed
        instructions, starting at cycle 0.
        """
        upsets = self._prepare_upsets(injection)
        if upsets:
            # Never snapshot a faulted run — a pre-execution (cycle=-1)
            # upset would otherwise leave `upsets` empty by the time
            # the interpreter checks, poisoning every resumed tail.
            snapshot_interval = snapshots = None
        if self.core == "reference" or record_registers:
            return self._run_reference(regs, upsets, max_cycles,
                                       record_executed, record_registers,
                                       snapshot_interval, snapshots)
        self._threaded_ops()
        value_mask = self._value_mask
        if regs:
            for reg in regs:
                if reg != ZERO:
                    self._slot(reg)
        registers = [0] * len(self._reg_of)
        if regs:
            for reg, value in regs.items():
                if reg != ZERO:
                    registers[self._slot_of[reg]] = value & value_mask
        memory = bytearray(self.memory_size)
        memory[:len(self.memory_image)] = self.memory_image
        trace = Trace()
        slot_of = self._slot_of
        while upsets and upsets[0].cycle == -1:
            _apply_slot_upset(upsets.pop(0), slot_of, registers, memory)
        return self._execute_threaded(registers, memory, trace, 0, 0,
                                      upsets, max_cycles, record_executed,
                                      snapshot_interval=snapshot_interval,
                                      snapshots=snapshots)

    def _run_reference(self, regs, upsets, max_cycles, record_executed,
                       record_registers, snapshot_interval, snapshots):
        value_mask = self._value_mask
        registers = {}
        if regs:
            for reg, value in regs.items():
                registers[reg] = value & value_mask
        memory = bytearray(self.memory_size)
        memory[:len(self.memory_image)] = self.memory_image
        trace = Trace()
        while upsets and upsets[0].cycle == -1:
            _apply_upset(upsets.pop(0), registers, memory, value_mask)
        return self._execute_reference(registers, memory, trace, 0, 0,
                                       upsets, max_cycles, record_executed,
                                       record_registers,
                                       snapshot_interval=snapshot_interval,
                                       snapshots=snapshots)

    def run_with_snapshots(self, regs=None, interval=64,
                           max_cycles=DEFAULT_MAX_CYCLES):
        """Clean (golden) run that also captures checkpoints.

        Returns ``(trace, snapshots)`` where ``snapshots`` is sorted by
        cycle and starts with the initial (cycle-0) state.
        """
        if interval <= 0:
            raise SimulationError("snapshot interval must be positive")
        snapshots = []
        trace = self.run(regs=regs, max_cycles=max_cycles,
                         snapshot_interval=interval, snapshots=snapshots)
        return trace, snapshots

    def run_from(self, snapshot, injection=None,
                 max_cycles=DEFAULT_MAX_CYCLES, record_executed=True,
                 converge=None):
        """Resume from *snapshot* and execute only the tail.

        Produces a trace bit-identical to a full :meth:`run` with the
        same ``injection``, provided every upset fires at or after the
        snapshot point (``upset.cycle >= snapshot.cycle``; ``cycle=-1``
        pre-execution upsets require the cycle-0 snapshot).  ``cycle``
        and ``max_cycles`` remain absolute, so timeout classification
        matches the full run as well.

        ``converge`` may pass the full snapshot list of the same golden
        run: when the resumed run reaches a later snapshot's cycle with
        exactly that snapshot's machine state (pc, registers, memory),
        its remaining execution is provably identical to the golden
        run's, so the golden suffix is spliced onto the trace instead
        of being re-executed — masked runs then cost
        O(fault-lifetime + interval) instead of O(tail).
        """
        upsets = self._prepare_upsets(injection)
        if upsets and upsets[0].cycle < snapshot.cycle \
                and not (upsets[0].cycle == -1 and snapshot.cycle == 0):
            raise SimulationError(
                f"injection at cycle {upsets[0].cycle} precedes "
                f"snapshot at cycle {snapshot.cycle}")
        memory = bytearray(snapshot.memory)
        trace = Trace()
        source = snapshot.trace
        trace.executed = source.executed[:snapshot.n_executed]
        trace.outputs = source.outputs[:snapshot.n_outputs]
        trace.stores = source.stores[:snapshot.n_stores]
        trace.loads = source.loads[:snapshot.n_loads]
        last_upset = max((upset.cycle for upset in upsets),
                         default=snapshot.cycle)
        converge = [candidate for candidate in converge or ()
                    if candidate.cycle > max(last_upset, snapshot.cycle)]
        if self.core == "reference":
            registers = self._snapshot_register_dict(snapshot)
            while upsets and upsets[0].cycle == -1:
                _apply_upset(upsets.pop(0), registers, memory,
                             self._value_mask)
            return self._execute_reference(registers, memory, trace,
                                           snapshot.pc, snapshot.cycle,
                                           upsets, max_cycles,
                                           record_executed, False,
                                           converge=converge)
        self._threaded_ops()
        registers = self._snapshot_register_list(snapshot)
        slot_of = self._slot_of
        while upsets and upsets[0].cycle == -1:
            _apply_slot_upset(upsets.pop(0), slot_of, registers, memory)
        return self._execute_threaded(registers, memory, trace,
                                      snapshot.pc, snapshot.cycle, upsets,
                                      max_cycles, record_executed,
                                      converge=converge)

    def _snapshot_register_list(self, snapshot):
        """Slot-indexed register file restored from *snapshot* (which
        may have been taken by either core)."""
        source = snapshot.registers
        if isinstance(source, dict):
            for reg in source:
                if reg != ZERO:
                    self._slot(reg)
            registers = [0] * len(self._reg_of)
            for reg, value in source.items():
                if reg != ZERO:
                    registers[self._slot_of[reg]] = value
            return registers
        if snapshot.reg_names is self._reg_of:
            # Taken by this machine: slots line up positionally (the
            # slot table only ever grows, so at worst we pad).
            registers = list(source)
            if len(registers) < len(self._reg_of):
                registers.extend([0] * (len(self._reg_of)
                                        - len(registers)))
            return registers
        # Taken by another machine, whose slot order may differ (slot
        # assignment depends on which injections ran first): remap by
        # register name, never by position.
        for reg in snapshot.reg_names[:len(source)]:
            if reg != ZERO:
                self._slot(reg)
        registers = [0] * len(self._reg_of)
        for reg, value in zip(snapshot.reg_names, source):
            if reg != ZERO:
                registers[self._slot_of[reg]] = value
        return registers

    def _snapshot_register_dict(self, snapshot):
        """Dict register file restored from *snapshot* (which may have
        been taken by either core)."""
        source = snapshot.registers
        if isinstance(source, dict):
            return dict(source)
        return {reg: value
                for reg, value in zip(snapshot.reg_names, source)
                if reg != ZERO}

    @staticmethod
    def _splice_golden_suffix(trace, snapshot, record_executed):
        """State reconverged with the golden run at *snapshot*: the
        remaining trace is the golden suffix, verbatim."""
        source = snapshot.trace
        if record_executed:
            trace.executed.extend(source.executed[snapshot.n_executed:])
        trace.outputs.extend(source.outputs[snapshot.n_outputs:])
        trace.stores.extend(source.stores[snapshot.n_stores:])
        trace.loads.extend(source.loads[snapshot.n_loads:])
        trace.returned = source.returned
        trace.outcome = source.outcome
        trace.trap_kind = source.trap_kind
        trace.cycles = source.cycles
        return trace

    # -- the threaded core -------------------------------------------------------

    def _execute_threaded(self, registers, memory, trace, pc, cycle,
                          upsets, max_cycles, record_executed,
                          snapshot_interval=None, snapshots=None,
                          converge=None):
        """The threaded-code interpreter loop.

        The per-cycle overhead is one closure call.  Everything that is
        *conditional* per cycle in the reference core — injections, the
        cycle budget, snapshot capture, convergence checks — is turned
        into a precomputed stop cycle, and the inner loop runs
        check-free up to it.
        """
        ops = self._ops
        executed_append = trace.executed.append
        slot_of = self._slot_of
        capture = (snapshot_interval is not None and snapshots is not None
                   and not upsets)
        next_capture = cycle if capture else None
        converge_index = 0
        converge_cycle = converge[0].cycle if converge else None
        inject_cycle = upsets[0].cycle if upsets else None
        ended_at = None     # pp of the instruction that ended the run
        try:
            while pc is not None:
                stop = max_cycles
                if inject_cycle is not None and inject_cycle + 1 < stop:
                    stop = inject_cycle + 1
                if next_capture is not None and next_capture < stop:
                    stop = next_capture
                if converge_cycle is not None and converge_cycle < stop:
                    stop = converge_cycle
                if record_executed:
                    while cycle < stop:
                        executed_append(pc)
                        next_pc = ops[pc](registers, memory, trace, cycle)
                        cycle += 1
                        if next_pc is None:
                            ended_at = pc
                            pc = None
                            break
                        pc = next_pc
                else:
                    while cycle < stop:
                        next_pc = ops[pc](registers, memory, trace, cycle)
                        cycle += 1
                        if next_pc is None:
                            ended_at = pc
                            pc = None
                            break
                        pc = next_pc
                if pc is None:
                    break
                # Event order matches the reference core: upsets fire at
                # the tail of the previous cycle, then the budget check,
                # then capture, then convergence — all before the
                # instruction at `cycle` executes.
                while upsets and upsets[0].cycle + 1 == cycle:
                    _apply_slot_upset(upsets.pop(0), slot_of, registers,
                                      memory)
                inject_cycle = upsets[0].cycle if upsets else None
                if cycle >= max_cycles:
                    trace.outcome = OUTCOME_TIMEOUT
                    break
                if next_capture is not None and cycle == next_capture:
                    snapshots.append(Snapshot(cycle, pc, registers[:],
                                              bytes(memory), trace,
                                              reg_names=self._reg_of))
                    next_capture += snapshot_interval
                if converge_cycle is not None and cycle == converge_cycle:
                    candidate = converge[converge_index]
                    creg = candidate.registers
                    # Positional compare is only sound for snapshots of
                    # this machine's own slot table; foreign candidates
                    # conservatively never converge.
                    if pc == candidate.pc and isinstance(creg, list) \
                            and candidate.reg_names is self._reg_of \
                            and _register_lists_match(registers, creg) \
                            and memory == candidate.memory:
                        return self._splice_golden_suffix(
                            trace, candidate, record_executed)
                    converge_index += 1
                    converge_cycle = (converge[converge_index].cycle
                                      if converge_index < len(converge)
                                      else None)
        except MachineTrap as trap:
            trace.outcome = OUTCOME_TRAP
            trace.trap_kind = trap.kind
        trace.cycles = cycle
        if trace.outcome == OUTCOME_OK and cycle >= max_cycles \
                and ended_at is not None \
                and self.function.instruction_at(ended_at).opcode \
                is Opcode.RET:
            # The reference core classifies a `ret` on exactly the last
            # budgeted cycle as a timeout (its loop re-enters the budget
            # check before noticing the return); match it bit-for-bit.
            trace.outcome = OUTCOME_TIMEOUT
        if _PROFILER.enabled and trace.executed:
            # Sampled post-run, so the per-cycle closure loop above
            # stays untouched; zero cost while the profiler is off.
            _PROFILER.observe(self.function, trace.executed)
        return trace

    # -- the reference core ------------------------------------------------------

    def _execute_reference(self, registers, memory, trace, pc, cycle,
                           upsets, max_cycles, record_executed,
                           record_registers, snapshot_interval=None,
                           snapshots=None, converge=None):
        """The original tuple-tag interpreter loop, retained as the
        differential oracle; mutates and returns *trace*."""
        width = self.width
        value_mask = self._value_mask
        program = self._reference_program()
        executed = trace.executed
        outputs = trace.outputs
        stores = trace.stores
        register_log = None
        if record_registers:
            register_log = trace.register_log = []
        capture = (snapshot_interval is not None and snapshots is not None
                   and not upsets)
        converge_index = 0
        converge_cycle = converge[0].cycle if converge else None
        inject_cycle = upsets[0].cycle if upsets else None

        def read(reg):
            if reg == ZERO:
                return 0
            try:
                return registers[reg]
            except KeyError:
                # Reading a never-written register models an unknown
                # power-on value; zero keeps runs deterministic.
                return 0

        memory_size = self.memory_size
        try:
            while pc is not None:
                if cycle >= max_cycles:
                    trace.outcome = OUTCOME_TIMEOUT
                    break
                if capture and cycle % snapshot_interval == 0:
                    snapshots.append(Snapshot(cycle, pc, dict(registers),
                                              bytes(memory), trace))
                if converge_cycle is not None and cycle == converge_cycle:
                    candidate = converge[converge_index]
                    if pc == candidate.pc \
                            and isinstance(candidate.registers, dict) \
                            and registers == candidate.registers \
                            and memory == candidate.memory:
                        return self._splice_golden_suffix(
                            trace, candidate, record_executed)
                    converge_index += 1
                    converge_cycle = (converge[converge_index].cycle
                                      if converge_index < len(converge)
                                      else None)
                decoded = program[pc]
                kind = decoded[0]
                if record_executed:
                    executed.append(pc)
                if kind == "alu":
                    _, opcode, rd, rs1, rs2, next_pp = decoded
                    value = alu(opcode, read(rs1), read(rs2), width)
                    if rd != ZERO:
                        registers[rd] = value
                    pc = next_pp
                elif kind == "alui":
                    _, opcode, rd, rs1, imm, next_pp = decoded
                    value = alu(opcode, read(rs1), imm, width)
                    if rd != ZERO:
                        registers[rd] = value
                    pc = next_pp
                elif kind == "li":
                    _, rd, imm, next_pp = decoded
                    if rd != ZERO:
                        registers[rd] = imm
                    pc = next_pp
                elif kind == "unary":
                    _, opcode, rd, rs1, next_pp = decoded
                    value = unary(opcode, read(rs1), width)
                    if rd != ZERO:
                        registers[rd] = value
                    pc = next_pp
                elif kind == "branch":
                    _, opcode, rs1, rs2, target, next_pp = decoded
                    b = read(rs2) if rs2 is not None else 0
                    if branch_taken(opcode, read(rs1), b, width):
                        pc = target
                    else:
                        pc = next_pp
                elif kind == "jump":
                    pc = decoded[1]
                elif kind == "load":
                    _, opcode, rd, base, offset, next_pp = decoded
                    address = (read(base) + offset) & value_mask
                    value = self._load(memory, memory_size, opcode, address)
                    trace.loads.append(
                        (cycle, pc, address,
                         4 if opcode is Opcode.LW else 1, rd))
                    if rd != ZERO:
                        registers[rd] = value & value_mask
                    pc = next_pp
                elif kind == "store":
                    _, opcode, src, base, offset, next_pp = decoded
                    address = (read(base) + offset) & value_mask
                    value = read(src)
                    self._store(memory, memory_size, opcode, address, value)
                    stores.append((address, value,
                                   4 if opcode is Opcode.SW else 1))
                    pc = next_pp
                elif kind == "out":
                    _, rs, next_pp = decoded
                    outputs.append(read(rs))
                    pc = next_pp
                elif kind == "check":
                    _, rs1, rs2, next_pp = decoded
                    if read(rs1) != read(rs2):
                        raise MachineTrap(TRAP_DETECTED,
                                          f"{rs1} != {rs2}")
                    pc = next_pp
                elif kind == "ret":
                    rs = decoded[1]
                    trace.returned = read(rs) if rs is not None else None
                    cycle += 1
                    if register_log is not None:
                        register_log.append(dict(registers))
                    if inject_cycle is not None and cycle - 1 == inject_cycle:
                        pass  # flip after ret has no observable effect
                    break
                else:  # nop
                    pc = decoded[1]
                if register_log is not None:
                    register_log.append(dict(registers))
                cycle += 1
                while inject_cycle is not None and cycle - 1 == inject_cycle:
                    _apply_upset(upsets.pop(0), registers, memory,
                                 value_mask)
                    inject_cycle = upsets[0].cycle if upsets else None
        except MachineTrap as trap:
            trace.outcome = OUTCOME_TRAP
            trace.trap_kind = trap.kind
        trace.cycles = cycle
        if trace.outcome == OUTCOME_OK and pc is not None \
                and cycle >= max_cycles:
            trace.outcome = OUTCOME_TIMEOUT
        return trace

    def _load(self, memory, size, opcode, address):
        if opcode is Opcode.LW:
            if address + 4 > size:
                raise MachineTrap("load-oob", f"address {address}")
            return int.from_bytes(memory[address:address + 4], "little")
        if address >= size:
            raise MachineTrap("load-oob", f"address {address}")
        byte = memory[address]
        if opcode is Opcode.LB and byte >= 0x80:
            # Sign-extend to the machine's actual width (a hard-coded
            # 32-bit fill would be wrong for any other bit_width).
            return byte | (self._value_mask & ~0xFF)
        return byte

    @staticmethod
    def _store(memory, size, opcode, address, value):
        if opcode is Opcode.SW:
            if address + 4 > size:
                raise MachineTrap("store-oob", f"address {address}")
            memory[address:address + 4] = (value & 0xFFFFFFFF).to_bytes(
                4, "little")
        else:
            if address >= size:
                raise MachineTrap("store-oob", f"address {address}")
            memory[address] = value & 0xFF
