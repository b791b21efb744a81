"""Training-data labels: camera-cut clip splitting of a depth sequence,
and dynamic/static classification of point trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadArgument
from .geometry import DepthMap

DEPTH_VALID_MIN = 1e-6       # meters; below this a depth is ignored in splits
DEFAULT_SPLIT_TAU = 0.7


@dataclass
class ClipBoundary:
    """Frame indices where a new clip begins (strictly increasing, in (0, N))."""

    split_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.split_indices, self.split_indices[1:])):
            raise ValueError("split indices must be strictly increasing")


def depth_shift(prev: DepthMap, nxt: DepthMap) -> float | None:
    """Median |log depth ratio| over jointly valid pixels; None if no overlap."""
    joint = prev.valid & nxt.valid \
        & (prev.values >= DEPTH_VALID_MIN) & (nxt.values >= DEPTH_VALID_MIN)
    if not np.any(joint):
        return None
    ratio = np.log(nxt.values[joint]) - np.log(prev.values[joint])
    return float(np.median(np.abs(ratio)))


def split_clips(depths, tau: float = DEFAULT_SPLIT_TAU) -> ClipBoundary:
    """Cut a depth sequence at abrupt depth-distribution shifts.

    A split lands before frame t+1 iff the median absolute log-ratio of
    jointly valid depths between frames t and t+1 exceeds tau. A pair with
    no valid overlap counts as a split. The statistic is invariant to
    global depth scaling.
    """
    if len(depths) < 2:
        raise BadArgument(f"need at least two frames, not {len(depths)}")
    if not tau > 0:  # NaN too
        raise BadArgument(f"tau must be positive, not {tau}")
    splits = []
    for t in range(len(depths) - 1):
        s = depth_shift(depths[t], depths[t + 1])
        if s is None or s > tau:
            splits.append(t + 1)
    return ClipBoundary(split_indices=splits)


def classify_dynamic(traj: np.ndarray, target: int, delta: float):
    """True iff any frame's displacement from the target-frame position
    strictly exceeds delta.

    Accepts one trajectory (N, 3) or a batch (M, N, 3); returns a bool or
    a (M,) bool array accordingly.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    traj = np.asarray(traj, dtype=np.float64)
    single = traj.ndim == 2
    if single:
        traj = traj[None]
    disp = np.linalg.norm(traj - traj[:, target:target + 1, :], axis=2)
    dyn = disp.max(axis=1) > delta
    return bool(dyn[0]) if single else dyn
