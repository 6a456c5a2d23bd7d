"""Exact-rational election analysis over three alternatives.

Subsystems: `core` (rankings, domains, weighted profiles), `rules` (Borda,
pairwise majority, plurality, scoring family), `axioms` (P/A/N/IIA checkers),
`manipulation` (small-coalition misreport search and domain audits), and
`replay` (verification of a catalog of coalition-misreport scenarios).
"""

from .core import (
    ALTERNATIVES,
    ALL_PERMUTATIONS,
    CYCLE_DOMAIN,
    CandidatePermutation,
    Domain,
    FULL_DOMAIN,
    Profile,
    RANKINGS,
    Ranking,
    format_profile,
    is_rich,
    parse_domain,
    parse_profile,
    parse_ranking,
    permute_profile,
    profile_from,
    ranking,
    transfer_weight,
)
from .rules import (
    BORDA,
    CONDORCET,
    Outcome,
    PLURALITY,
    RuleDescriptor,
    borda_scores,
    condorcet_margins,
    evaluate,
    parse_rule,
    restrict_profile,
    scoring,
)
from .axioms import (
    AxiomReport,
    Verdict,
    check_anonymity_structural,
    check_iia,
    check_neutrality,
    check_pareto,
)
from .manipulation import (
    AuditConfig,
    ManipulationWitness,
    NongenericProfileError,
    audit_wsp,
    find_manipulation,
    format_witness,
    grid_profiles,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
