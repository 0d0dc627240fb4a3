"""Distributed deep-learning workload model (parameter-server architecture).

What the network sees from a PS-mode training job is fully determined by:

* the model-update / gradient-update message size (= parameter bytes),
* the per-local-step compute time on each worker,
* the synchronization structure (barrier per iteration, or async),
* the fan-out (number of workers).

This package models exactly that, with per-job metrics (JCT, per-barrier
wait times) matching the paper's instrumentation.
"""

from repro.dl.model_zoo import MODEL_ZOO, ModelSpec
from repro.dl.job import JobSpec
from repro.dl.metrics import BarrierSeries, JobMetrics
from repro.dl.application import Application, DLApplication

__all__ = [
    "Application",
    "BarrierSeries",
    "DLApplication",
    "JobMetrics",
    "JobSpec",
    "MODEL_ZOO",
    "ModelSpec",
]
