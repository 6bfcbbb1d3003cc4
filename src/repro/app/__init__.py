"""Companion-computer applications (the software the simulated SoC runs).

* :mod:`repro.app.perception` — the perception stage: either the
  calibrated behavioural classifier or a real trained CNN over the camera
  pixels, behind one interface.
* :mod:`repro.app.controller` — the DNN trail-navigation controller
  (Equation 2's confidence-scaled targets, or the argmax policy).
* :mod:`repro.app.deadline` — Equations 3-5's collision-deadline model.
* :mod:`repro.app.dynamic` — Section 5.3's dynamic runtime that switches
  between a high-accuracy and a low-latency network by deadline.

Mission sweeps over these applications run through :mod:`repro.sweep`;
:mod:`repro.analysis.figures` builds the paper's experiment axes.
"""

from repro.app.controller import (
    AppStats,
    ControllerGains,
    compute_targets,
    trail_navigation_app,
)
from repro.app.deadline import process_deadline, time_to_collision
from repro.app.dynamic import DynamicRuntimeConfig, dynamic_trail_app
from repro.app.perception import BehavioralPerception, CnnPerception, Perception

__all__ = [
    "AppStats",
    "ControllerGains",
    "compute_targets",
    "trail_navigation_app",
    "time_to_collision",
    "process_deadline",
    "DynamicRuntimeConfig",
    "dynamic_trail_app",
    "Perception",
    "BehavioralPerception",
    "CnnPerception",
]
