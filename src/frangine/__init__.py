"""frangine: a seeded Monte-Carlo simulator of a fog-computing RAN.

Modules: geometry (PPP layouts), channel (fading and SINR), mode_select
(adaptive transmission-mode decision tree), caching (FIFO/LRU/LFU edge
caches), coordination (coalitional F-AP clustering, COAC/DRAC D2D
scheduling, S-FFR), metrics_sim (scenario orchestration), cli.
"""

from .metrics_sim import ScenarioConfig, run_scenario, sweep

__all__ = ["ScenarioConfig", "run_scenario", "sweep"]

__version__ = "0.1.0"
