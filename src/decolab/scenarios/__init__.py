"""Worked decoherence situations, each reproducible from a small config."""

from .twoslit import TwoSlitConfig, two_slit_run
from .chiral import ChiralConfig, chiral_run, classify_regime
from .charge import ChargeModel, charge_reduced_density
from .decay import DecayConfig, decay_run, revival_time, golden_rule_rate, survival_peak
from .chain import MeasurementChain, FrequencyRecord, run_chain
from .registry import SCENARIOS, scenario_names

__all__ = [
    "TwoSlitConfig", "two_slit_run",
    "ChiralConfig", "chiral_run", "classify_regime",
    "ChargeModel", "charge_reduced_density",
    "DecayConfig", "decay_run", "revival_time", "golden_rule_rate", "survival_peak",
    "MeasurementChain", "FrequencyRecord", "run_chain",
    "SCENARIOS", "scenario_names",
]
