"""govtree: a governed-execution runtime over lazy interaction trees.

Programs are trees of directive events; the governance wrapper inserts a
boolean check before every effect and models denial as divergence.
Bounded checkers verify safety, capability bounds, and equivalences;
traces map to hash-chained tamper-evident ledgers; the CLI runs program
files and differential-testing campaigns.
"""

from .itree import (
    BoundedVerdict,
    ITree,
    Ret,
    Tau,
    Vis,
    bind,
    eutt_bounded,
    ret,
    spin,
    tau,
    vis,
)
from .directives import (
    Capability,
    DirectiveEvent,
    ResponseSampler,
    capability_for_directive,
    directive_tag,
    encode_directive,
    mock_handler,
)
from .governance import (
    DENYING,
    PERMISSIVE,
    GovernancePolicy,
    GovernedHandler,
    RunOutcome,
    gov_safe_check,
    govern,
    interpret_governed,
    interpret_ungoverned,
    tag_filter,
)
from .trace import GovEntry, IoEntry, well_governed
from .ledger import Ledger, LedgerEntry, ledger_valid, trace_to_ledger

__version__ = "0.1.0"

__all__ = [
    "BoundedVerdict", "ITree", "Ret", "Tau", "Vis", "bind", "eutt_bounded",
    "ret", "spin", "tau", "vis",
    "Capability", "DirectiveEvent", "ResponseSampler",
    "capability_for_directive", "directive_tag", "encode_directive", "mock_handler",
    "DENYING", "PERMISSIVE", "GovernancePolicy", "GovernedHandler",
    "RunOutcome", "gov_safe_check", "govern", "interpret_governed",
    "interpret_ungoverned", "tag_filter",
    "GovEntry", "IoEntry", "well_governed",
    "Ledger", "LedgerEntry", "ledger_valid", "trace_to_ledger",
    "__version__",
]
