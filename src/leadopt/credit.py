"""Credit-assignment numerics: GAE advantages and the clipped policy term.

Values come from outside (the critic is not part of this package); both
functions are pure and exact.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AdvantageInput", "LengthMismatchError", "gae", "ppo_clip_term"]


class LengthMismatchError(ValueError):
    """rewards and values lengths are inconsistent."""


@dataclass(frozen=True)
class AdvantageInput:
    """Dense reward sequence plus bootstrap values (terminal value last)."""

    rewards: tuple[float, ...]
    values: tuple[float, ...]
    gamma: float = 0.99
    lam: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "rewards", tuple(float(r) for r in self.rewards))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.rewards) + 1:
            raise LengthMismatchError(
                f"need len(values) == len(rewards) + 1, got "
                f"{len(self.values)} vs {len(self.rewards)}"
            )
        if not (0.0 <= self.gamma <= 1.0) or not (0.0 <= self.lam <= 1.0):
            raise ValueError("gamma and lambda must lie in [0, 1]")


def gae(inputs: AdvantageInput) -> np.ndarray:
    """Backward recursion A_t = delta_t + gamma * lam * A_{t+1}, A_T = 0,
    with delta_t = r_t + gamma * V_{t+1} - V_t."""
    import numpy as np
    rewards = np.asarray(inputs.rewards, dtype=np.float64)
    values = np.asarray(inputs.values, dtype=np.float64)
    horizon = len(rewards)
    advantages = np.zeros(horizon, dtype=np.float64)
    running = 0.0
    for t in range(horizon - 1, -1, -1):
        delta = rewards[t] + inputs.gamma * values[t + 1] - values[t]
        running = delta + inputs.gamma * inputs.lam * running
        advantages[t] = running
    return advantages


def ppo_clip_term(ratio: float, advantage: float, epsilon: float) -> float:
    """min(ratio * A, clip(ratio, 1 - eps, 1 + eps) * A)."""
    if ratio <= 0:
        raise ValueError("importance ratio must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
    return min(ratio * advantage, clipped * advantage)
