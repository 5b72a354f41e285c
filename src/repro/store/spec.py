"""Declarative sweep-grid specifications (TOML or JSON).

A spec names the axes of a campaign grid; the orchestrator
(:mod:`repro.store.sweep`) expands it into cells, skips the ones whose
content address is already in the store, and executes the rest.  The
canonical shape::

    [grid]
    kernels = ["bitcount", "CRC32"]        # registry names or .mc/.ir paths
    # kernels = [{path = "acc.mc", args = [25]}]   # programs with params
    modes   = ["bec"]                      # fault models: bec | ior | exhaustive
    harden  = ["none", "bec"]              # protection policies
    budgets = [0.3, 0.6]                   # only meaningful for harden = "bec"
    cores   = ["threaded"]                 # execution cores

    [engine]                               # all optional: EngineConfig
    workers = 2                            # processes for cache misses
    checkpoint_interval = 64               # snapshot/resume granularity
    prune = "none"                         # or "liveness"
    max_runs = 200                         # sample each cell's plan
    batch_lanes = 256                      # lockstep lanes (batched core)
    chunk_size = 2048                      # streamed records per chunk
    max_retries = 1                        # re-attempts per failing cell
    max_wall_seconds = 300.0               # per-cell wall-clock deadline

The same structure as JSON (``{"grid": {...}, "engine": {...}}``) is
accepted everywhere TOML is, and is the only format on Python < 3.11
(no ``tomllib``).  Cells whose policy is not ``bec`` carry no budget —
the grid does not multiply ``none``/``full`` by the budget ladder.
"""

import json
import os
from collections import namedtuple
from itertools import product

from repro.fi.config import SPEC_FIELDS, EngineConfig, EngineConfigError
from repro.fi.machine import Machine

try:
    import tomllib
except ImportError:          # Python < 3.11
    tomllib = None

#: Fault models a cell can sweep (campaign planner granularities).
MODES = ("bec", "ior", "exhaustive")

#: Protection policies a cell can sweep.
HARDEN = ("none", "full", "bec")

SweepCell = namedtuple("SweepCell",
                       ["kernel", "mode", "harden", "budget", "core"])

#: A resolved kernel entry: display ``label`` (what cells and reports
#: carry), the registry name or file path, and entry-function args.
KernelRef = namedtuple("KernelRef", ["label", "target", "args"])


class SweepSpecError(ValueError):
    """A malformed sweep specification."""


def _kernel_ref(entry):
    """Normalize one ``grid.kernels`` entry (string or table)."""
    if isinstance(entry, str):
        if not entry:
            raise SweepSpecError("grid.kernels: empty kernel name")
        return KernelRef(entry, entry, ())
    if isinstance(entry, dict):
        unknown = set(entry) - {"path", "args"}
        if unknown:
            raise SweepSpecError(
                f"grid.kernels: unknown kernel keys {sorted(unknown)}")
        target = entry.get("path")
        if not isinstance(target, str) or not target:
            raise SweepSpecError(
                "grid.kernels: a kernel table needs a 'path' string")
        args = entry.get("args", [])
        if not isinstance(args, (list, tuple)) \
                or not all(isinstance(arg, int)
                           and not isinstance(arg, bool) for arg in args):
            raise SweepSpecError(
                f"grid.kernels: args of {target!r} must be a list of "
                f"integers")
        label = target if not args \
            else f"{target}({','.join(str(arg) for arg in args)})"
        return KernelRef(label, target, tuple(args))
    raise SweepSpecError(
        f"grid.kernels: entries are strings or "
        f"{{path=..., args=[...]}} tables, not {type(entry).__name__}")


def _listed(section, key, default, valid=None):
    values = section.get(key, list(default))
    if not isinstance(values, (list, tuple)) or not values:
        raise SweepSpecError(f"grid.{key} must be a non-empty list")
    if valid is not None:
        for value in values:
            if value not in valid:
                raise SweepSpecError(
                    f"grid.{key}: unknown value {value!r} "
                    f"(choose from {list(valid)})")
    return list(values)


class SweepSpec:
    """A validated grid spec; :meth:`cells` expands it and ``engine``
    holds the ``[engine]`` table as a
    :class:`repro.fi.config.EngineConfig`."""

    def __init__(self, data, name="sweep"):
        if not isinstance(data, dict) or "grid" not in data:
            raise SweepSpecError("spec must contain a [grid] section")
        unknown = set(data) - {"grid", "engine"}
        if unknown:
            raise SweepSpecError(
                f"unknown spec sections: {sorted(unknown)}")
        grid = data["grid"]
        unknown = set(grid) - {"kernels", "modes", "harden", "budgets",
                               "cores"}
        if unknown:
            raise SweepSpecError(f"unknown grid keys: {sorted(unknown)}")
        self.name = name
        self.data = data      # decoded source (dist spec serialization)
        refs = [_kernel_ref(entry)
                for entry in _listed(grid, "kernels", ())]
        self.kernel_refs = {ref.label: ref for ref in refs}
        self.kernels = [ref.label for ref in refs]
        self.modes = _listed(grid, "modes", ("bec",), MODES)
        self.harden = _listed(grid, "harden", ("none",), HARDEN)
        self.budgets = [float(b) for b in _listed(grid, "budgets",
                                                  (0.3,))]
        for budget in self.budgets:
            if not 0.0 < budget:
                raise SweepSpecError(
                    f"grid.budgets: budget {budget} must be positive")
        self.cores = _listed(grid, "cores", ("threaded",), Machine.CORES)
        engine = data.get("engine", {})
        unknown = set(engine) - set(SPEC_FIELDS)
        if unknown:
            raise SweepSpecError(
                f"unknown engine keys: {sorted(unknown)}")
        try:
            self.engine = EngineConfig(**engine)
        except EngineConfigError as error:
            raise SweepSpecError(f"engine.{error}") from None

    def cells(self):
        """The expanded grid, in deterministic spec order.

        Non-``bec`` policies carry ``budget=None`` and are emitted once
        regardless of the budget ladder.
        """
        seen = set()
        cells = []
        for kernel, mode, harden, budget, core in product(
                self.kernels, self.modes, self.harden, self.budgets,
                self.cores):
            cell = SweepCell(kernel, mode, harden,
                             budget if harden == "bec" else None, core)
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
        return cells


def parse_spec(data, name="sweep"):
    """Validate a decoded spec dict into a :class:`SweepSpec`."""
    return SweepSpec(data, name=name)


def load_spec(path):
    """Load a spec file — ``.toml`` via :mod:`tomllib` (Python 3.11+),
    anything else as JSON."""
    name = os.path.splitext(os.path.basename(path))[0]
    if path.endswith(".toml"):
        if tomllib is None:
            raise SweepSpecError(
                "TOML specs need Python >= 3.11 (tomllib); use the "
                "JSON form on older interpreters")
        with open(path, "rb") as handle:
            return parse_spec(tomllib.load(handle), name=name)
    with open(path, encoding="utf-8") as handle:
        return parse_spec(json.load(handle), name=name)
