"""Deep Q-network agent: epsilon-greedy control, uniform replay, target net."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
    workspace,
)

# ReplayBuffer's columns, in take()'s order
STATES, ACTIONS, REWARDS, NEXT_STATES, LIVE = range(5)


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
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must be in [0, 1]: {getattr(self, name)}")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")
        for name in ("batch_size", "target_sync_period", "epsilon_decay_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0: {self.learning_rate}")
        if self.replay_capacity < self.batch_size:
            raise ValueError(
                f"replay_capacity must be >= batch_size ({self.batch_size}): {self.replay_capacity}"
            )
        if any(n < 1 for n in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be >= 1 each: {self.hidden_sizes}")
        if self.state_scale is not None and len(self.state_scale) != self.state_dim:
            raise ValueError("state_scale length must equal state_dim")
        if self.state_scale is not None and not all(map(math.isfinite, self.state_scale)):
            raise ValueError(f"state_scale must be finite: {self.state_scale}")


class ReplayBuffer:
    """Fixed-capacity ring with strictly FIFO eviction and seeded sampling.

    Transitions live in five preallocated arrays (states, actions, rewards,
    next states, live flags 1.0/0.0), made on the first push with the state
    shape of that transition. push() copies a transition's fields into its
    slot in place, so the caller may reuse its arrays. The slots fill in the
    order of a list that appends until full and then overwrites the oldest
    entry, and the arrays are float64 (actions intp), so a seeded rng.choice
    over the slots draws a batch with the same bytes as np.stack over the
    same draw from a list of the Transitions.

    One more column holds each filled slot's target value, max_a
    Q_target(s'), as next_values() last computed it. A slot's value goes
    stale when push() writes the slot. Every value goes stale after the
    agent's sync_target(), which gives the target network a new version:
    next_values() is then asked for a version other than the one the
    values were computed for.
    """

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng
        self._arrays: tuple[np.ndarray, ...] = ()
        self._size = 0
        self._write = 0
        self._values = np.empty(capacity)
        self._fresh = np.zeros(capacity, dtype=bool)
        self._values_for: object = None  # the target network's version the fresh values are for

    def push(self, item: Transition) -> None:
        if not self._arrays:
            shape = (self.capacity, *np.shape(item.state))
            self._arrays = (
                np.empty(shape),
                np.empty(self.capacity, dtype=np.intp),
                np.empty(self.capacity),
                np.empty(shape),
                np.empty(self.capacity),
            )
        states, actions, rewards, next_states, live = self._arrays
        if np.shape(item.state) != states.shape[1:] or np.shape(item.next_state) != states.shape[1:]:
            raise ShapeError(f"transition states must have shape {states.shape[1:]}")
        k = self._write
        states[k] = item.state
        actions[k] = item.action
        rewards[k] = item.reward
        next_states[k] = item.next_state
        live[k] = 0.0 if item.terminal else 1.0
        self._fresh[k] = False
        self._write = (k + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def draw(self, n: int) -> np.ndarray:
        """n distinct filled slots, drawn with the buffer's own seeded rng."""
        return self._rng.choice(len(self), size=n, replace=False)

    def take(self, idx: np.ndarray, columns: Sequence[int] = range(5)) -> tuple[np.ndarray, ...]:
        """The columns of slots idx, by default all of (states, actions, rewards, next_states, live)."""
        return tuple(self._arrays[k].take(idx, axis=0) for k in columns)

    def sample(self, n: int) -> tuple[np.ndarray, ...]:
        """take() of n distinct slots."""
        return self.take(self.draw(n))

    def next_values(self, idx: np.ndarray, version: object, target_max) -> np.ndarray:
        """The target values of slots idx, for the target network `version` names.

        target_max(next_states) returns max_a Q_target(s') per row. When any
        slot of idx is stale, every stale slot is recomputed, in calls of
        exactly len(idx) rows, the last one padded with rows of idx. OpenBLAS
        gives each row of a product of 32 to 128 rows the same bytes wherever
        the row sits in it (not so at 16 rows or fewer, or at 256 or more),
        so at the sampled batch's height a value equals what a forward of
        the sampled batch gives; the pinned bench digests check it.
        """
        if self._values_for is not version:
            self._fresh[:] = False
            self._values_for = version
        if not self._fresh[idx].all():
            n = len(idx)
            next_states = self._arrays[NEXT_STATES]
            stale = np.flatnonzero(~self._fresh[: self._size])
            for lo in range(0, len(stale), n):
                slots = stale[lo : lo + n]
                rows = np.concatenate((slots, idx[: n - len(slots)]))
                self._values[slots] = target_max(next_states.take(rows, axis=0))[: len(slots)]
            self._fresh[stale] = True
        return self._values.take(idx)

    def __len__(self) -> int:
        return self._size

    def __reduce__(self):
        # pickle and deepcopy carry the filled slots only; copying the whole
        # ring would write the pages of every slot not yet pushed. The target
        # values travel with their version, which stays the agent's when
        # both are copied in one call and matches no agent otherwise.
        filled = tuple(a[: self._size] for a in (*self._arrays, self._values, self._fresh))
        return ReplayBuffer, (self.capacity, self._rng), (filled, self._write, self._values_for)

    def __setstate__(self, state) -> None:
        filled, self._write, self._values_for = state
        *transitions, values, fresh = filled
        self._size = len(values)
        self._arrays = tuple(np.empty((self.capacity, *a.shape[1:]), dtype=a.dtype) for a in transitions)
        for ring, part in zip((*self._arrays, self._values, self._fresh), filled):
            ring[: self._size] = part


class DqnAgent:
    def __init__(self, config: DqnConfig, rng: np.random.Generator):
        self.config = config
        spec = MlpSpec(layer_sizes=(config.state_dim, *config.hidden_sizes, config.n_actions))
        self.q_model = init_model(spec, rng)
        self.target_model = clone_model(self.q_model)
        self._target_version = object()  # replaced by every sync_target()
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
        out, _ = forward(self.q_model, self._featurize(np.asarray(state, dtype=np.float64))[None])
        return out[0]

    def epsilon(self) -> float:
        c = self.config
        frac = min(1.0, self.decision_steps / c.epsilon_decay_steps)
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
        sync_target() controls it. max_a' Q_target(s') is read from the
        buffer's target-value column, which recomputes a slot only after the
        slot was written or sync_target() ran, so the target network must
        change through sync_target() alone: a direct write to its parameters
        after the first learn() would leave the old values in use. (The
        tests that pin the target's outputs write them before learning.)

        The passes through both networks write into the workspace their
        architecture shares at the batch height, and the TD targets are
        combined in place in the live column take() returns; each in-place
        operation rounds like its allocating form, so the bytes are the same.
        """
        c = self.config
        if len(buffer) < c.batch_size:
            return None
        idx = buffer.draw(c.batch_size)
        states, actions, rewards, live = buffer.take(idx, (STATES, ACTIONS, REWARDS, LIVE))
        # rewards + gamma * live * max_a' Q_target(s'), in place in live
        targets = np.multiply(live, c.gamma, out=live)
        targets *= buffer.next_values(idx, self._target_version, self._target_max)
        targets += rewards

        work = workspace(self.q_model.spec.layer_sizes, c.batch_size)
        q_all, cache = forward(self.q_model, self._featurize(states), work=work)
        rows, grad_out = self._td_work
        loss, dpred = mse_loss(q_all[rows, actions], targets)
        # grad_out is all zeros between learns: scatter, backprop, zero again
        grad_out[rows, actions] = dpred
        grad = backward(self.q_model, cache, grad_out)
        grad_out[rows, actions] = 0.0
        adam_step(self.q_model, grad, self.adam)
        self.learn_steps += 1
        return loss

    @cached_property
    def _td_work(self) -> tuple[np.ndarray, np.ndarray]:
        """learn()'s row index and its (batch_size, n_actions) output gradient, zeroed."""
        c = self.config
        return np.arange(c.batch_size), np.zeros((c.batch_size, c.n_actions))

    def _target_max(self, next_states: np.ndarray) -> np.ndarray:
        work = workspace(self.target_model.spec.layer_sizes, len(next_states))
        next_q, _ = forward(self.target_model, self._featurize(next_states), work=work)
        return next_q.max(axis=1)

    def sync_target(self) -> None:
        """Copy online parameters into the target network bit-exactly.

        This is the one way the target network changes: it gives the network
        a new version, so every buffer's cached target values go stale.
        """
        if self.target_model.spec != self.q_model.spec:
            raise ShapeError("target/online spec mismatch")
        self.target_model.params[:] = self.q_model.params
        self._target_version = object()


@dataclass
class EpisodeRecord:
    episode: int
    return_: float
    mean_td_loss: float
    epsilon: float


def play_episode(env, policy, step_hook=None):
    """The one agent-environment loop of training, rollouts and evaluation.

    Resets env; per decision, policy(state) picks the action, step_hook(state,
    action), when given, picks the one env executes, and env steps. Yields a
    Transition with the policy's action after each step, with env post-step.
    """
    state = env.reset()
    done = False
    while not done:
        action = policy(state)
        executed = action if step_hook is None else step_hook(state, action)
        next_state, reward, done = env.step(executed)
        yield Transition(state, action, reward, next_state, done)
        state = next_state


def train_policy(
    env_factory,
    episodes: int,
    agent: DqnAgent,
    buffer: ReplayBuffer,
    act_rng: np.random.Generator,
    step_hook=None,
) -> list[EpisodeRecord]:
    """Standard DQN training loop over full episodes of play_episode.

    env_factory() yields a fresh episode with reset()/step(); one learn step
    runs per decision step once the buffer is warm, and the target network
    refreshes every target_sync_period learn steps. step_hook, when given,
    may transform the action before execution: hook(state, action) ->
    executed action (the replay still stores the policy's action).
    """
    records = []
    for ep in range(episodes):
        total = 0.0
        losses = []
        for t in play_episode(env_factory(), lambda s: agent.act(s, agent.epsilon(), act_rng), step_hook):
            buffer.push(t)
            agent.decision_steps += 1
            loss = agent.learn(buffer)
            if loss is not None:
                losses.append(loss)
                if agent.learn_steps % agent.config.target_sync_period == 0:
                    agent.sync_target()
            total += t.reward
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
