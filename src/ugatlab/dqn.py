"""Deep Q-network agent: epsilon-greedy control, uniform replay, target net."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ugatlab.numnet import (
    AdamState,
    MlpSpec,
    ShapeError,
    adam_step,
    backward,
    clone_model,
    forward,
    init_adam,
    init_model,
    mse_loss,
)


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass(frozen=True)
class DqnConfig:
    state_dim: int = 20
    n_actions: int = 8
    gamma: float = 0.95
    hidden_sizes: tuple[int, ...] = (64, 64)
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 5000
    replay_capacity: int = 10_000
    batch_size: int = 64
    learning_rate: float = 1e-3
    target_sync_period: int = 500  # learn steps between target refreshes
    state_scale: tuple[float, ...] | None = None  # per-dim input multiplier

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1): {self.gamma}")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")
        for name in ("batch_size", "target_sync_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")
        if self.state_scale is not None and len(self.state_scale) != self.state_dim:
            raise ValueError("state_scale length must equal state_dim")


class ReplayBuffer:
    """Fixed-capacity ring with strictly FIFO eviction and seeded sampling."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng
        self._items: list[Transition] = []
        self._write = 0

    def push(self, item: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._write] = item
            self._write = (self._write + 1) % self.capacity

    def sample(self, n: int) -> list[Transition]:
        idx = self._rng.choice(len(self._items), size=n, replace=False)
        return [self._items[i] for i in idx]

    def snapshot(self) -> list[Transition]:
        """Contents in insertion order (oldest first)."""
        return self._items[self._write :] + self._items[: self._write]

    def __len__(self) -> int:
        return len(self._items)


class DqnAgent:
    def __init__(self, config: DqnConfig, rng: np.random.Generator):
        self.config = config
        spec = MlpSpec(layer_sizes=(config.state_dim, *config.hidden_sizes, config.n_actions))
        self.q_model = init_model(spec, rng)
        self.target_model = clone_model(self.q_model)
        self.adam: AdamState = init_adam(self.q_model, learning_rate=config.learning_rate)
        self.learn_steps = 0
        self.decision_steps = 0
        self._scale = (
            np.asarray(config.state_scale, dtype=np.float64)
            if config.state_scale is not None
            else None
        )

    def _featurize(self, states: np.ndarray) -> np.ndarray:
        return states * self._scale if self._scale is not None else states

    def q_values(self, state: np.ndarray) -> np.ndarray:
        out, _ = forward(self.q_model, self._featurize(np.asarray(state, dtype=np.float64)))
        return out

    def epsilon(self) -> float:
        c = self.config
        frac = min(1.0, self.decision_steps / max(1, c.epsilon_decay_steps))
        return c.epsilon_start + (c.epsilon_end - c.epsilon_start) * frac

    def act(self, state: np.ndarray, eps: float, rng: np.random.Generator) -> int:
        """Epsilon-greedy; greedy ties break toward the lowest index."""
        if eps > 0.0 and rng.random() < eps:
            return int(rng.integers(self.config.n_actions))
        return int(np.argmax(self.q_values(state)))

    def learn(self, buffer: ReplayBuffer) -> float | None:
        """One Adam step on MSE(Q(s)[a], r + gamma max_a' Q_target(s')).

        Returns the TD loss, or None as the not-ready signal while the buffer
        holds fewer than batch_size transitions (sampling uses the buffer's
        own seeded rng). The target network is never touched here;
        sync_target() controls it.
        """
        c = self.config
        if len(buffer) < c.batch_size:
            return None
        batch = buffer.sample(c.batch_size)
        states = self._featurize(np.stack([t.state for t in batch]))
        next_states = self._featurize(np.stack([t.next_state for t in batch]))
        actions = np.array([t.action for t in batch], dtype=np.intp)
        rewards = np.array([t.reward for t in batch])
        live = np.array([0.0 if t.terminal else 1.0 for t in batch])

        next_q, _ = forward(self.target_model, next_states)
        targets = rewards + c.gamma * live * next_q.max(axis=1)

        q_all, cache = forward(self.q_model, states)
        rows = np.arange(c.batch_size)
        loss, dpred = mse_loss(q_all[rows, actions], targets)
        grad_out = np.zeros_like(q_all)
        grad_out[rows, actions] = dpred
        grads = backward(self.q_model, cache, grad_out)
        adam_step(self.q_model, grads, self.adam)
        self.learn_steps += 1
        return loss

    def sync_target(self) -> None:
        """Copy online parameters into the target network bit-exactly."""
        if self.target_model.spec != self.q_model.spec:
            raise ShapeError("target/online spec mismatch")
        self.target_model.params[:] = self.q_model.params


@dataclass
class EpisodeRecord:
    episode: int
    return_: float
    mean_td_loss: float
    epsilon: float


def train_policy(
    env_factory,
    episodes: int,
    agent: DqnAgent,
    buffer: ReplayBuffer,
    act_rng: np.random.Generator,
    step_hook=None,
) -> list[EpisodeRecord]:
    """Standard DQN training loop over full episodes.

    env_factory() yields a fresh episode with reset()/step(); one learn step
    runs per decision step once the buffer is warm, and the target network
    refreshes every target_sync_period learn steps. step_hook, when given,
    may transform the action before execution: hook(state, action) ->
    executed action (the replay still stores the policy's action).
    """
    records = []
    for ep in range(episodes):
        env = env_factory()
        state = env.reset()
        total = 0.0
        losses = []
        done = False
        while not done:
            eps = agent.epsilon()
            action = agent.act(state, eps, act_rng)
            executed = action if step_hook is None else step_hook(state, action)
            next_state, reward, done = env.step(executed)
            buffer.push(Transition(state, action, reward, next_state, done))
            agent.decision_steps += 1
            loss = agent.learn(buffer)
            if loss is not None:
                losses.append(loss)
                if agent.learn_steps % agent.config.target_sync_period == 0:
                    agent.sync_target()
            total += reward
            state = next_state
        records.append(
            EpisodeRecord(
                episode=ep,
                return_=total,
                mean_td_loss=float(np.mean(losses)) if losses else 0.0,
                epsilon=agent.epsilon(),
            )
        )
    return records


class FixedCycleController:
    """Baseline: cycles the four paired phases, dwelling a few decisions each."""

    def __init__(self, dwell: int = 3, phases: tuple[int, ...] = (0, 1, 2, 3)):
        self.dwell = dwell
        self.phases = phases
        self._k = 0

    def act(self, state=None) -> int:
        phase = self.phases[(self._k // self.dwell) % len(self.phases)]
        self._k += 1
        return phase

    def reset(self) -> None:
        self._k = 0
