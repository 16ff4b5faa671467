"""admitsim: force-aware admittance control and contact simulation toolkit."""

from .admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    TickResult,
    compute_damping,
    controller_tick,
)
from .environments import (
    DisturbanceEvent,
    FrictionModel,
    HingedDoor,
    HoleFixture,
    InkGrid,
    PlaneBoard,
    update_ink,
)
from .expert import (
    PhaseLabel,
    SupervisionRecords,
    SupervisionTuple,
    extract_supervision,
    plan_articulated,
    plan_free_motion,
    plan_insertion,
    plan_wiping,
)
from .geometry import Pose
from .harness import (
    RunLog,
    ScenarioConfig,
    run_episode,
    run_suite,
    success_check,
)
from .policy import NoiseSpec, predict
from .tasks import Demo, build_environment, generate_demo
from .verify import (
    NormalDynamicsParams,
    VerificationReport,
    default_grid,
    equivalence_check,
    run_default_verification,
    verify_prop1_grid,
    verify_prop2,
    verify_prop3_grid,
)

__version__ = "0.1.0"
