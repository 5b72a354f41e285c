"""Dynamic fault-site accounting (the arithmetic behind Table III).

Everything here works on one *golden* execution trace plus the static
BEC result — no fault is actually injected.  This mirrors the paper: the
"Live in values" / "Live in bits" rows of Table III are derived counts,
an injected campaign is only needed for validation (§V).

Definitions (verified against the worked example in paper Fig. 2):

* a **window instance** is a dynamic occurrence ``(cycle, pp, reg)`` of
  an access window with a live value — the inject-on-read method
  performs one injection per bit of each window instance, giving the
  value-level count ``instances × width``;
* at bit level, one injection per *dynamic equivalence group* is
  enough; masked bits (class ``s0``) need no injection at all.

**Dynamic groups.**  Two sites in one static class are equivalent per
*corresponding* dynamic instances: the fault windows must be linked by
the very def-use chain the coalescing analysis merged along.  Tracking
that chain at runtime is essential — grouping all same-class instances
of, say, one loop iteration together is unsound when control flow can
skip one of the sites (a fault before a conditionally-executed reader
is not equivalent to one after it).  The walker therefore carries each
corruption *chain* through the trace:

* a chain on register bit ``(v, i)`` continues into window ``(q, z, j)``
  when ``q`` is the next access of ``v`` and the local relation
  ``R'_q`` ties ``port(q, v, i)`` to ``window(q, z, j)`` (and the static
  classes agree — which they do exactly when the analysis merged them);
* same-cycle windows of one class (rule-3 bit ties, multi-target
  propagation) share one group;
* anything else starts a new group, which costs one injection
  (``emit=True``).

A further sound pruning — letting a chain whose port is *directly
masked* at ``q`` (the read provably observes nothing) survive into the
next window of the same register — is deliberately not performed: the
paper's accounting opens a fresh fault index per access window, and the
worked Fig. 2 numbers (225 runs) pin that behaviour.

**Compiled tables.**  Whether a window bit emits, and which chain it
joins, depends only on the program point and on *where each register
it reads was last accessed*: a register's open chains are exactly the
non-masked bits of its latest live window.  :class:`BecTables`
therefore compiles, once per program point, the accessed registers,
the class representatives of each live window and the read-port flow
targets, and once per ``(pp, last-access points of its reads)`` an
:class:`Action` listing the bits that open a new group.  A walk of the
trace is then one dictionary lookup per cycle.  The BEC plan
(:func:`repro.fi.campaign.plan_bec`), :func:`iter_bit_instances` and
:func:`fault_injection_accounting` all walk these tables, so they
cannot drift apart.
"""

from collections import Counter, namedtuple

from repro.ir.liveness import compute_liveness
from repro.bec.intra import port_flow

BitInstance = namedtuple(
    "BitInstance",
    ["cycle", "pp", "reg", "bit", "rep", "emit", "epoch"])

#: ``port_flow`` entry of a port that reaches no window.
_NO_FLOW = ((), False)


class Action:
    """What one cycle at a program point does, given where its read
    registers were last accessed.

    ``emits`` lists the ``(reg, bit, rep)`` window bits that open a new
    dynamic group, in walk order.  ``sources`` has one entry per
    accessed register of the point: ``None`` for a killed window,
    otherwise one code per bit — ``-1`` for a masked bit, ``k`` for the
    ``k``-th entry of the cycle's group vector (the open groups of the
    read registers, ``width`` each in read order, followed by the groups
    this cycle opens).
    """

    __slots__ = ("pp", "emits", "sources")

    def __init__(self, pp, emits, sources):
        self.pp = pp
        self.emits = emits
        self.sources = sources


class Point:
    """The compiled tables of one program point."""

    __slots__ = ("pp", "reads", "accesses", "reps", "updates",
                 "live_windows", "masked_bits", "actions", "_flow")

    def __init__(self, tables, pp):
        instruction = tables.function.instruction_at(pp)
        live_after = tables.liveness.live_after(pp)
        width = tables.width
        self.pp = pp
        self.reads = instruction.data_reads()
        self.accesses = instruction.data_accesses()
        #: reg -> class representative per bit, for each live window.
        self.reps = {reg: tuple(tables.bec.class_of(pp, reg, bit)
                                for bit in range(width))
                     for reg in self.accesses if reg in live_after}
        #: (reg, pp or None): the last-access state this point leaves.
        self.updates = tuple((reg, pp if reg in self.reps else None)
                             for reg in self.accesses)
        self.live_windows = len(self.reps)
        self.masked_bits = sum(reps.count(0) for reps in self.reps.values())
        self.actions = {}
        self._flow = None

    def flow(self, tables):
        """The ``port -> (targets, masked)`` map of this point."""
        if self._flow is None:
            bit_values = tables.bec.bit_values
            if bit_values.is_executable(self.pp):
                instruction = tables.function.instruction_at(self.pp)
                before = {reg: bit_values.before(self.pp, reg)
                          for reg in self.reads}
                self._flow = port_flow(instruction, before, tables.width,
                                       rules=tables.rules)
            else:
                self._flow = {}
        return self._flow


class BecTables:
    """Per-program-point tables of the BEC chain walk over one
    function, compiled on first use and shared by every walk."""

    def __init__(self, function, bec, liveness=None):
        self.function = function
        self.width = function.bit_width
        self.bec = bec
        self.liveness = liveness or bec.liveness \
            or compute_liveness(function)
        self.rules = getattr(bec.coalescing, "rules", None)
        self._points = [None] * len(function.instructions)

    def point(self, pp):
        point = self._points[pp]
        if point is None:
            point = self._points[pp] = Point(self, pp)
        return point

    def _compile(self, point, last):
        """The :class:`Action` of *point* when its reads were last
        accessed at the points *last* (``None``: no open chain)."""
        width = self.width
        incoming = {}       # (reg, bit) window -> (chain rep, source)
        for position, (reg, prev) in enumerate(zip(point.reads, last)):
            if prev is None:
                continue
            flow = point.flow(self)
            for bit, rep in enumerate(self.point(prev).reps[reg]):
                if rep:
                    for target in flow.get((reg, bit), _NO_FLOW)[0]:
                        incoming.setdefault(target,
                                            (rep, position * width + bit))
        fresh = len(point.reads) * width
        emits = []
        sources = []
        opened = {}         # rep -> source of its group this cycle
        for reg in point.accesses:
            reps = point.reps.get(reg)
            if reps is None:
                sources.append(None)
                continue
            codes = []
            for bit, rep in enumerate(reps):
                if rep == 0:
                    codes.append(-1)
                    continue
                arrived = incoming.get((reg, bit))
                if arrived is not None and arrived[0] == rep:
                    code = arrived[1]
                elif rep in opened:
                    code = opened[rep]
                else:
                    code = fresh + len(emits)
                    emits.append((reg, bit, rep))
                opened.setdefault(rep, code)
                codes.append(code)
            sources.append(tuple(codes))
        action = Action(point.pp, tuple(emits), tuple(sources))
        point.actions[last] = action
        return action

    def walk(self, executed):
        """Yield ``(cycle, point, action)`` for every executed cycle."""
        points = self._points
        last = {}           # reg -> pp of its latest access if live
        for cycle, pp in enumerate(executed):
            point = points[pp] or self.point(pp)
            state = tuple([last.get(reg) for reg in point.reads])
            action = point.actions.get(state) \
                or self._compile(point, state)
            yield cycle, point, action
            for reg, value in point.updates:
                last[reg] = value

    def accounting(self, executed, live_in_bits):
        """The Table III row of a walked trace whose BEC plan has
        *live_in_bits* entries."""
        live_windows = masked = 0
        for pp, count in Counter(executed).items():
            point = self.point(pp)
            live_windows += count * point.live_windows
            masked += count * point.masked_bits
        live_in_values = live_windows * self.width
        pruned = 0.0
        if live_in_values:
            pruned = 100.0 * (live_in_values - live_in_bits) \
                / live_in_values
        return {
            "live_in_values": live_in_values,
            "live_in_bits": live_in_bits,
            "masked_bits": masked,
            "inferrable_bits": live_in_values - live_in_bits - masked,
            "pruned_percent": pruned,
        }


def iter_bit_instances(function, trace, bec, liveness=None,
                       include_killed=False):
    """Walk the golden *trace* yielding one :class:`BitInstance` per
    dynamic window-bit.

    ``emit`` is True when a bit-level campaign must inject this instance
    (it starts a new dynamic equivalence group); the ``epoch`` field
    carries the group id, unique across the whole trace.  Masked
    instances have ``rep == 0`` and are never emitted.  With
    ``include_killed`` the windows of killed accesses (statically masked
    at initialization) are walked too, which the validation harness uses.
    """
    tables = BecTables(function, bec, liveness)
    width = tables.width
    closed = (None,) * width
    groups = {}         # reg -> group id per bit of its open window
    next_group = 0
    for cycle, point, action in tables.walk(trace.executed):
        vector = []
        for reg in point.reads:
            vector.extend(groups.get(reg, closed))
        opening = len(vector)    # code of the next group to open
        vector.extend(range(next_group, next_group + len(action.emits)))
        next_group += len(action.emits)
        for reg, codes in zip(point.accesses, action.sources):
            if codes is None:
                groups.pop(reg, None)
                if include_killed:
                    for bit in range(width):
                        yield BitInstance(cycle, point.pp, reg, bit, 0,
                                          False, None)
                continue
            reps = point.reps[reg]
            window = []
            for bit, code in enumerate(codes):
                if code < 0:
                    window.append(None)
                    yield BitInstance(cycle, point.pp, reg, bit, 0, False,
                                      None)
                    continue
                emit = code == opening
                opening += emit
                group = vector[code]
                window.append(group)
                yield BitInstance(cycle, point.pp, reg, bit, reps[bit],
                                  emit, group)
            groups[reg] = tuple(window)


def fault_injection_accounting(function, trace, bec):
    """Compute the Table III row for one benchmark trace.

    Returns a dict with the paper's row names:
    ``live_in_values``, ``live_in_bits``, ``masked_bits``,
    ``inferrable_bits`` and ``pruned_percent``.
    """
    tables = BecTables(function, bec)
    live_in_bits = sum(len(action.emits)
                       for _, _, action in tables.walk(trace.executed))
    return tables.accounting(trace.executed, live_in_bits)
