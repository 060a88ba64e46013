"""Laboratory for online TSP with known request locations.

Simulates reactive routing policies on semi-line, line, ring, star and
general metric spaces against fixed release schedules or adaptive release
adversaries, and checks each policy's competitive ratio against an exact
offline oracle.
"""

from .metric import EPS, General, Line, MetricSpace, Ring, SemiLine, Star
from .instance import (
    CLOSED,
    COUNT_KNOWN,
    GenParams,
    Instance,
    LOCATIONS_KNOWN,
    MAX_REQUESTS,
    OPEN,
    Request,
    decode,
    encode,
    generate_random,
    validate_instance,
)
from .engine import (
    Adversary,
    Emission,
    MoveTo,
    Observation,
    Outcome,
    PairingError,
    Policy,
    SimulationError,
    Trajectory,
    WaitUntil,
    check_pairing,
    simulate,
    verify_outcome,
)
from .oracle import OptResult, opt_bruteforce, opt_makespan
from .algorithms import KnapsackItem, knapsack_select, make_policy
from .adversaries import AdversaryRun, make_adversary, run_adversary

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
