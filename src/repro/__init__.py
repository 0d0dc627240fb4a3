"""TensorLights reproduction: end-host traffic scheduling for distributed DL.

A complete, simulation-based reproduction of *"Green, Yellow, Yield:
End-Host Traffic Scheduling for Distributed Deep Learning with
TensorLights"* (Huang, Chen, Ng — IPDPS 2019).

Quickstart (the stable surface lives in :mod:`repro.api`, see docs/api.md)::

    from repro.api import ExperimentConfig, Policy, Scenario, execute_scenario

    fifo = execute_scenario(Scenario(config=ExperimentConfig(placement_index=1)))
    tls  = execute_scenario(Scenario(config=ExperimentConfig(
        placement_index=1, policy=Policy.TLS_ONE)))
    print(tls.avg_jct / fifo.avg_jct)   # < 1: TensorLights wins

Layered public API:

* :mod:`repro.api` — the stable experiment-pipeline facade,

* :mod:`repro.sim` — discrete-event kernel,
* :mod:`repro.net` — NICs, qdiscs (FIFO/HTB/DRR/netem), switch, transport,
* :mod:`repro.cluster` — hosts, CPUs, placements (Table I), scheduler,
* :mod:`repro.dl` — PS-architecture training workload model,
* :mod:`repro.tensorlights` — the paper's contribution (tc facade, TLs-One,
  TLs-RR),
* :mod:`repro.telemetry` / :mod:`repro.analysis` — measurement & statistics,
* :mod:`repro.experiments` — per-figure/table reproduction harness.
"""

from repro.cluster import Cluster
from repro.cluster.placement import TABLE1_PLACEMENTS, PlacementSpec, placement_by_index
from repro.dl import DLApplication, JobSpec
from repro.dl.model_zoo import MODEL_ZOO, ModelSpec, get_model
from repro.experiments import (
    Campaign,
    ExperimentConfig,
    ExperimentResult,
    ParallelExecutor,
    Policy,
    ResultCache,
    Scenario,
    SerialExecutor,
)
from repro.sim import Simulator
from repro.tensorlights import TensorLights, TLMode

__version__ = "1.17.0"

__all__ = [
    "Campaign",
    "Cluster",
    "DLApplication",
    "ExperimentConfig",
    "ExperimentResult",
    "ParallelExecutor",
    "ResultCache",
    "Scenario",
    "SerialExecutor",
    "JobSpec",
    "MODEL_ZOO",
    "ModelSpec",
    "PlacementSpec",
    "Policy",
    "Simulator",
    "TABLE1_PLACEMENTS",
    "TLMode",
    "TensorLights",
    "get_model",
    "placement_by_index",
    "__version__",
]
