"""frangine: a seeded Monte-Carlo simulator of a fog-computing RAN.

Modules: config (the scenario config, the one source of every run
parameter, its INI format and the link budget), geometry (PPP layouts),
channel (fading), mode_select (adaptive transmission-mode decision tree and
architecture gates), caching (FIFO/LRU/LFU edge caches), coordination
(coalitional F-AP clustering, COAC/DRAC D2D scheduling, S-FFR),
metrics_sim (scenario orchestration and exact link metrics), cli.
"""

from .config import ScenarioConfig
from .metrics_sim import run_scenario, sweep

__all__ = ["ScenarioConfig", "run_scenario", "sweep"]

__version__ = "0.1.0"
