"""Cache-or-execute front end to the campaign engine.

:class:`CachingRunner` is the one integration point every store
consumer shares (``repro sweep``, the experiment harnesses, the CLI's
``campaign --store``): compute the content address of the requested
cell, return the archived result on a hit, otherwise execute the plan
through :class:`repro.fi.engine.CampaignEngine` and archive the
outcome.  Because the key excludes the config's schedule fields
(``workers``, ``checkpoint_interval``, ``batch_lanes``, ``chunk_size``,
...), a result computed serially is a hit for a 16-worker request and
vice versa.

Both directions of the store dataflow stream: a miss attaches a
:class:`repro.fi.sink.StoreWriterSink` so chunks archive as the engine
retires them (rolled back if the campaign fails mid-flight), and a hit
replays the archive as a lazy chunk iterator — neither path holds more
than O(chunk_size) records.
"""

from repro.fi.config import EngineConfig
from repro.fi.engine import CampaignEngine
from repro.fi.sink import StoreWriterSink, TeeSink
from repro.store.keys import campaign_key


class CachingRunner:
    """Runs fault plans through a :class:`repro.store.db.ResultStore`.

    Counters accumulate across calls so orchestrators can report cache
    behaviour: ``hits`` / ``misses`` per cell, and ``simulator_runs`` —
    the number of injections actually simulated (cache hits and
    liveness-pruned entries contribute zero).
    """

    def __init__(self, store, force=False):
        self.store = store
        self.force = force
        self.hits = 0
        self.misses = 0
        self.simulator_runs = 0
        self.last_key = None    # content address of the latest run()

    def key_for(self, machine, plan, regs=None, harden="none",
                budget=None, max_cycles=None, config=EngineConfig()):
        """The content address the cell will be stored under."""
        return campaign_key(
            machine.function, plan, regs=regs,
            memory_image=machine.memory_image,
            memory_size=machine.memory_size, core=machine.core,
            harden=harden, budget=budget, max_cycles=max_cycles,
            config=config)

    def run(self, machine, plan, regs=None, golden=None, max_cycles=None,
            config=EngineConfig(), harden="none", budget=None,
            progress=None, sink=None, commit=True):
        """Cached :class:`repro.fi.campaign.CampaignResult` for the
        cell, executing (and archiving) it under *config* (a
        :class:`repro.fi.config.EngineConfig`) on a miss.

        ``result.cached`` tells the caller which path was taken.
        *sink* joins the engine's fan-out on a miss (a distributed
        worker's local chunk capture, say); ``commit=False`` drops the
        store-writer sink entirely, so the miss executes without
        touching the store — the caller owns archiving (the envelope
        commit path).
        """
        key = self.key_for(machine, plan, regs=regs, harden=harden,
                           budget=budget, max_cycles=max_cycles,
                           config=config)
        self.last_key = key
        if not self.force:
            cached = self.store.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        engine = CampaignEngine(machine, plan, regs=regs, golden=golden,
                                max_cycles=max_cycles)
        sinks = []
        if commit:
            sinks.append(StoreWriterSink(self.store, key))
        if sink is not None:
            sinks.append(sink)
        engine_sink = sinks[0] if len(sinks) == 1 else (
            TeeSink(sinks) if sinks else None)
        try:
            result = engine.run(config, progress=progress,
                                sink=engine_sink)
        except BaseException:
            if engine_sink is not None:
                abort = getattr(engine_sink, "abort", None)
                if abort is not None:
                    abort()
            raise
        self.misses += 1
        self.simulator_runs += len(plan) - result.pruned_runs
        return result
