"""Federated-learning simulation substrate."""

from repro.fl.aggregation import packed_weighted_average, weighted_average_dict
from repro.fl.client import ClientUpdate, local_train, run_client_update_flat
from repro.fl.communication import (
    BYTES_PER_PARAM,
    CommunicationTracker,
    decode_flat_payload,
    encode_flat_payload,
)
from repro.fl.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.config import TrainConfig
from repro.fl.defense import (
    CORRUPTION_KINDS,
    ROBUST_AGG_MODES,
    CorruptionConfig,
    admit_updates,
    maybe_corrupt,
    robust_weighted_average,
)
from repro.fl.eval_flat import (
    CohortEval,
    evaluate_grouped,
    evaluate_packed,
    fused_evaluate,
    group_by_identity,
    mean_local_accuracy_grouped,
)
from repro.fl.evaluation import EvalResult, evaluate_model, mean_local_accuracy
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.parallel import (
    BatchedClientExecutor,
    ProcessClientExecutor,
    SerialClientExecutor,
    UpdateTask,
    make_executor,
)
from repro.fl.rounds import (
    AsyncConfig,
    RoundEngine,
    RoundOutcome,
    RoundStrategy,
    ScenarioConfig,
    aggregation_weights,
)
from repro.fl.sampling import sample_from, uniform_sample
from repro.fl.trace import AvailabilityTrace
from repro.fl.simulation import FederatedEnv
from repro.fl.train_flat import plan_cohort_schedule, supports_batched, train_cohort_flat

__all__ = [
    "packed_weighted_average",
    "weighted_average_dict",
    "ClientUpdate",
    "local_train",
    "run_client_update_flat",
    "BYTES_PER_PARAM",
    "CommunicationTracker",
    "decode_flat_payload",
    "encode_flat_payload",
    "TrainConfig",
    "CORRUPTION_KINDS",
    "ROBUST_AGG_MODES",
    "CheckpointConfig",
    "CheckpointError",
    "CorruptionConfig",
    "admit_updates",
    "load_checkpoint",
    "maybe_corrupt",
    "robust_weighted_average",
    "save_checkpoint",
    "CohortEval",
    "evaluate_grouped",
    "evaluate_packed",
    "fused_evaluate",
    "group_by_identity",
    "mean_local_accuracy_grouped",
    "EvalResult",
    "evaluate_model",
    "mean_local_accuracy",
    "RoundRecord",
    "RunHistory",
    "BatchedClientExecutor",
    "ProcessClientExecutor",
    "SerialClientExecutor",
    "UpdateTask",
    "make_executor",
    "RoundEngine",
    "RoundOutcome",
    "RoundStrategy",
    "ScenarioConfig",
    "AsyncConfig",
    "aggregation_weights",
    "AvailabilityTrace",
    "sample_from",
    "uniform_sample",
    "FederatedEnv",
    "plan_cohort_schedule",
    "supports_batched",
    "train_cohort_flat",
]
