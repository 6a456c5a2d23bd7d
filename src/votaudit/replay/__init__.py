"""Scenario replay: verify coalition-misreport constructions with exact rationals."""

from .model import (
    AffineChain,
    CatalogError,
    DescentChain,
    MisreportStep,
    PermLink,
    Scenario,
    case_index,
    get_scenario,
    scenario_catalog,
)
from .verify import (
    CheckResult,
    PreconditionViolation,
    ScenarioParams,
    ScenarioReport,
    epsilon_partition,
    sample_params,
    verify_full,
    verify_induction_chain,
    verify_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
