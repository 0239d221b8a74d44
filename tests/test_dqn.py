import copy
import pickle

import numpy as np
import pytest

from ugatlab import dqn
from ugatlab.dqn import (
    DqnAgent,
    DqnConfig,
    FixedCycleController,
    ReplayBuffer,
    Transition,
    play_episode,
    train_policy,
)
from ugatlab.numnet import ShapeError, adam_step, backward, forward, mse_loss


def make_agent(state_dim=4, n_actions=8, seed=0, **kw):
    config = DqnConfig(state_dim=state_dim, n_actions=n_actions, hidden_sizes=(8,), **kw)
    return DqnAgent(config, np.random.default_rng(seed))


def pin_q_values(agent, online, target=None):
    # zero the final layer weights so Q(s) == bias for every state
    agent.q_model.weights[-1][:] = 0.0
    agent.q_model.biases[-1][:] = online
    agent.target_model.weights[-1][:] = 0.0
    agent.target_model.biases[-1][:] = target if target is not None else online


def tr(s, a, r, s2, terminal=False):
    return Transition(np.asarray(s, float), a, r, np.asarray(s2, float), terminal)


# --- act -------------------------------------------------------------------


def test_greedy_takes_argmax():
    agent = make_agent()
    pin_q_values(agent, [0, 0, 0, 0, 0, 0, 0, 5.0])
    assert agent.act(np.zeros(4), 0.0, np.random.default_rng(0)) == 7


def test_tie_breaks_to_lowest_index():
    agent = make_agent()
    pin_q_values(agent, [0, 0, 5.0, 0, 0, 5.0, 0, 0])
    assert agent.act(np.zeros(4), 0.0, np.random.default_rng(0)) == 2


def test_uniform_exploration_frequencies_within_three_sigma():
    agent = make_agent()
    rng = np.random.default_rng(42)
    n = 100_000
    counts = np.bincount(
        [agent.act(np.zeros(4), 1.0, rng) for _ in range(n)], minlength=8
    )
    p = 1.0 / 8.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 3 * sigma)


def test_greedy_invariant_to_constant_q_shift():
    agent = make_agent(seed=3)
    rng = np.random.default_rng(5)
    states = rng.normal(size=(20, 4))
    before = [agent.act(s, 0.0, rng) for s in states]
    agent.q_model.biases[-1][:] += 123.0
    after = [agent.act(s, 0.0, rng) for s in states]
    assert before == after


# --- replay -----------------------------------------------------------------


def flat(t):
    return (t.state.tolist(), t.action, t.reward, t.next_state.tolist(), t.terminal)


def contents(buf):
    """The ring's filled slots, oldest first, in flat() form."""
    order = np.roll(np.arange(len(buf)), -buf._write)
    return [
        (s.tolist(), int(a), float(r), s2.tolist(), bool(live == 0.0))
        for s, a, r, s2, live in zip(*(arr[: len(buf)][order] for arr in buf._arrays))
    ]


def test_replay_fifo_eviction_preserves_order():
    buf = ReplayBuffer(capacity=5, rng=np.random.default_rng(0))
    items = [tr([i], 0, float(i), [i]) for i in range(8)]
    for item in items:
        buf.push(item)
    assert len(buf) == 5
    assert contents(buf) == [flat(t) for t in items[3:]]


def test_replay_sampling_is_seeded():
    def fill(buf):
        for i in range(50):
            buf.push(tr([i], 0, float(i), [i]))

    a = ReplayBuffer(capacity=100, rng=np.random.default_rng(7))
    b = ReplayBuffer(capacity=100, rng=np.random.default_rng(7))
    fill(a)
    fill(b)
    for x, y in zip(a.sample(10), b.sample(10), strict=True):
        assert np.array_equal(x, y)


class ListReplay:
    """Reference sampler: a list of Transitions, FIFO overwrite, np.stack per draw."""

    def __init__(self, capacity, rng):
        self.capacity, self.rng, self.items, self.write = capacity, rng, [], 0

    def push(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self.write] = item
            self.write = (self.write + 1) % self.capacity

    def sample(self, n):
        batch = [self.items[i] for i in self.rng.choice(len(self.items), size=n, replace=False)]
        return (
            np.stack([t.state for t in batch]),
            np.array([t.action for t in batch], dtype=np.intp),
            np.array([t.reward for t in batch]),
            np.stack([t.next_state for t in batch]),
            np.array([0.0 if t.terminal else 1.0 for t in batch]),
        )


def test_replay_ring_samples_like_the_list_reference():
    ring = ReplayBuffer(capacity=7, rng=np.random.default_rng(3))
    ref = ListReplay(capacity=7, rng=np.random.default_rng(3))
    data = np.random.default_rng(4)
    for i in range(20):
        item = tr(data.normal(size=3), i % 8, data.normal(), data.normal(size=3), terminal=i % 3 == 0)
        ring.push(item)
        ref.push(item)
        if i >= 4:  # draws interleave with pushes, before and after the ring wraps
            for got, want in zip(ring.sample(5), ref.sample(5), strict=True):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
    fifo = ref.items[ref.write :] + ref.items[: ref.write]
    assert contents(ring) == [flat(t) for t in fifo]


def test_replay_push_copies_the_transition():
    buf = ReplayBuffer(capacity=4, rng=np.random.default_rng(0))
    state, next_state = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    buf.push(Transition(state, 1, -1.0, next_state, False))
    state[:] = 0.0
    next_state[:] = 0.0
    states, _, _, next_states, _ = buf.sample(1)
    assert np.array_equal(states, [[1.0, 2.0]])
    assert np.array_equal(next_states, [[3.0, 4.0]])


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))])
@pytest.mark.parametrize("filled", [0, 3, 7, 11])  # empty, partial, exactly full, wrapped
def test_replay_copy_pushes_and_samples_like_the_original(copier, filled):
    data = np.random.default_rng(5)
    items = [
        tr(data.normal(size=3), i % 8, data.normal(), data.normal(size=3), terminal=i % 4 == 0)
        for i in range(filled + 6)
    ]
    original = ReplayBuffer(capacity=7, rng=np.random.default_rng(9))
    for item in items[:filled]:
        original.push(item)
    clone = copier(original)
    assert (clone.capacity, len(clone), clone._write) == (7, len(original), original._write)
    assert [a.shape for a in clone._arrays] == [a.shape for a in original._arrays]
    for item in items[filled:]:  # the clone's later pushes land where the original's do
        original.push(item)
        clone.push(item)
        n = min(2, len(original))
        for got, want in zip(clone.sample(n), original.sample(n), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    assert contents(clone) == contents(original)


def test_replay_copy_is_independent_of_the_original():
    original = ReplayBuffer(capacity=4, rng=np.random.default_rng(2))
    for i in range(5):  # wrapped once
        original.push(tr([i, i], i % 8, float(i), [i + 1, i + 1]))
    before = contents(original)
    rng_state = original._rng.bit_generator.state
    clone = copy.deepcopy(original)
    clone.push(tr([9, 9], 3, 9.0, [9, 9], terminal=True))
    clone.sample(3)
    assert contents(original) == before
    assert original._rng.bit_generator.state == rng_state
    assert original._write == 1 and clone._write == 2


def test_replay_rejects_a_state_of_another_shape():
    buf = ReplayBuffer(capacity=4, rng=np.random.default_rng(0))
    buf.push(tr([0.0, 0.0], 0, 0.0, [0.0, 0.0]))
    with pytest.raises(ShapeError):
        buf.push(tr([0.0], 0, 0.0, [0.0]))


# --- learn -------------------------------------------------------------------


def test_learn_returns_none_until_buffer_is_warm():
    agent = make_agent(batch_size=4)
    buf = ReplayBuffer(capacity=10, rng=np.random.default_rng(0))
    buf.push(tr([0, 0, 0, 0], 0, -1.0, [0, 0, 0, 0]))
    assert agent.learn(buf) is None


def test_q_values_are_fresh_arrays_that_learn_leaves_alone():
    # learn() writes into the workspace shared by its architecture; what
    # q_values() returns is the caller's and aliases nothing
    agent = make_agent(batch_size=4, replay_capacity=16, seed=7)
    buf = ReplayBuffer(capacity=16, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    first, second = agent.q_values(np.ones(4)), agent.q_values(np.zeros(4))
    assert not np.shares_memory(first, second)
    kept = first.tobytes(), second.tobytes()
    for _ in range(8):
        buf.push(tr(rng.normal(size=4), int(rng.integers(8)), rng.normal(), rng.normal(size=4)))
        agent.learn(buf)
    assert agent.learn_steps == 5
    assert (first.tobytes(), second.tobytes()) == kept


def test_td_target_uses_frozen_target_network_only():
    # with zeroed final weights Q == bias, so the loss is exactly
    # (b_online[a] - y)^2 with y = r + gamma max(b_target)
    gamma, r = 0.9, -2.0
    b_target = [0.3, 1.1, -0.4, 0.0, 0.0, 0.0, 0.0, 0.2]
    for online_value in (1.0, 2.0, -3.0):
        agent = make_agent(batch_size=2, gamma=gamma)
        online = np.zeros(8)
        online[4] = online_value
        pin_q_values(agent, online, b_target)
        buf = ReplayBuffer(capacity=8, rng=np.random.default_rng(1))
        for _ in range(2):
            buf.push(tr([1, 0, 0, 0], 4, r, [0, 1, 0, 0]))
        loss = agent.learn(buf)
        y = r + gamma * max(b_target)
        assert loss == pytest.approx((online_value - y) ** 2, rel=1e-12)


def test_terminal_transition_target_is_exactly_reward():
    agent = make_agent(batch_size=2, gamma=0.9)
    pin_q_values(agent, np.zeros(8), np.full(8, 1e6))  # huge next-state values
    buf = ReplayBuffer(capacity=8, rng=np.random.default_rng(1))
    for _ in range(2):
        buf.push(tr([1, 0, 0, 0], 3, -5.0, [0, 1, 0, 0], terminal=True))
    loss = agent.learn(buf)
    assert loss == pytest.approx(25.0, rel=1e-12)  # (0 - (-5))^2, s' ignored


def test_gamma_zero_regression_converges_to_reward():
    agent = make_agent(state_dim=2, n_actions=2, gamma=0.0, batch_size=8, learning_rate=3e-3)
    buf = ReplayBuffer(capacity=16, rng=np.random.default_rng(4))
    for _ in range(8):
        buf.push(tr([1.0, 0.0], 1, -3.0, [0.0, 1.0]))
    for _ in range(3000):
        agent.learn(buf)
    assert agent.q_values(np.array([1.0, 0.0]))[1] == pytest.approx(-3.0, abs=1e-3)


def value_iteration(rewards, nxt, gamma, sweeps=200):
    # rewards[s][a], nxt[s][a] for a deterministic 2-state, 2-action MDP
    v = [0.0, 0.0]
    for _ in range(sweeps):
        v = [max(rewards[s][a] + gamma * v[nxt[s][a]] for a in (0, 1)) for s in (0, 1)]
    return [[rewards[s][a] + gamma * v[nxt[s][a]] for a in (0, 1)] for s in (0, 1)]


def test_two_state_chain_matches_value_iteration_table():
    # A: stay free (0) or pay -1 to enter B; B: staying costs -1, leaving costs -1
    rewards = [[0.0, -1.0], [-1.0, -1.0]]
    nxt = [[0, 1], [1, 0]]
    gamma = 0.9
    table = value_iteration(rewards, nxt, gamma)

    agent = make_agent(
        state_dim=2,
        n_actions=2,
        gamma=gamma,
        batch_size=8,
        learning_rate=3e-3,
        target_sync_period=50,
        seed=9,
    )
    buf = ReplayBuffer(capacity=64, rng=np.random.default_rng(10))
    onehot = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for s in (0, 1):
        for a in (0, 1):
            for _ in range(4):
                buf.push(tr(onehot[s], a, rewards[s][a], onehot[nxt[s][a]]))
    for _ in range(4000):
        agent.learn(buf)
        if agent.learn_steps % agent.config.target_sync_period == 0:
            agent.sync_target()
    for s in (0, 1):
        got = agent.q_values(onehot[s])
        for a in (0, 1):
            assert got[a] == pytest.approx(table[s][a], abs=0.05)


def reference_learn(agent, buffer):
    """learn() with the target network forwarded on every sampled batch."""
    c = agent.config
    if len(buffer) < c.batch_size:
        return None
    states, actions, rewards, next_states, live = buffer.sample(c.batch_size)
    next_q, _ = forward(agent.target_model, agent._featurize(next_states))
    targets = rewards + c.gamma * live * next_q.max(axis=1)
    q_all, cache = forward(agent.q_model, agent._featurize(states))
    rows = np.arange(c.batch_size)
    loss, dpred = mse_loss(q_all[rows, actions], targets)
    grad_out = np.zeros_like(q_all)
    grad_out[rows, actions] = dpred
    adam_step(agent.q_model, backward(cache, grad_out), agent.adam)
    agent.learn_steps += 1
    return loss


@pytest.mark.parametrize(
    "copier",
    [
        copy.deepcopy,
        lambda pair: pickle.loads(pickle.dumps(pair)),
        lambda pair: tuple(map(copy.deepcopy, pair)),  # the buffer's values match no agent's version
    ],
    ids=["deepcopy", "pickle", "apart"],
)
def test_cached_target_values_learn_like_the_per_sample_reference(copier, monkeypatch):
    # the ring wraps (capacity 256) and the target syncs seven times; learn()
    # continues from a copy of (agent, buffer) midway, as run_arms continues a start
    config = DqnConfig(
        batch_size=64, replay_capacity=256, target_sync_period=200, state_scale=tuple(np.linspace(0.5, 2.0, 20))
    )

    def start():
        return DqnAgent(config, np.random.default_rng(31)), ReplayBuffer(256, np.random.default_rng(32))

    (agent, buf), (ref_agent, ref_buf) = start(), start()
    heights = []  # rows of each target-network forward learn() makes

    def counting_forward(model, x, rng=None, **kwargs):
        if model is agent.target_model:
            heights.append(len(x))
        return forward(model, x, rng, **kwargs)

    monkeypatch.setattr(dqn, "forward", counting_forward)
    data = np.random.default_rng(33)
    losses, ref_losses = [], []
    for step in range(1600):
        if step == 800:
            agent, buf = copier((agent, buf))
        t = tr(data.normal(size=20), int(data.integers(8)), data.normal(), data.normal(size=20), data.random() < 0.1)
        for a, b, out, learn in ((agent, buf, losses, DqnAgent.learn), (ref_agent, ref_buf, ref_losses, reference_learn)):
            b.push(t)
            loss = learn(a, b)
            if loss is not None:
                out.append(loss)
                if a.learn_steps % config.target_sync_period == 0:
                    a.sync_target()
        assert np.array_equal(agent.q_model.params, ref_agent.q_model.params)
        assert np.array_equal(agent.target_model.params, ref_agent.target_model.params)
        assert np.array_equal(agent.adam.m, ref_agent.adam.m) and np.array_equal(agent.adam.v, ref_agent.adam.v)
    assert len(losses) == 1600 - 63 >= 1500
    assert np.array_equal(losses, ref_losses)
    assert set(heights) == {config.batch_size}
    assert len(heights) < len(losses) / 2


# --- target sync ---------------------------------------------------------------


def test_sync_makes_outputs_identical_and_is_needed():
    agent = make_agent(batch_size=4, seed=13)
    buf = ReplayBuffer(capacity=16, rng=np.random.default_rng(14))
    rng = np.random.default_rng(15)
    for i in range(8):
        buf.push(tr(rng.normal(size=4), i % 8, -float(i), rng.normal(size=4)))
    for _ in range(5):
        agent.learn(buf)
    # parameters diverged after learning
    assert any(
        not np.array_equal(w, t) for w, t in zip(agent.q_model.weights, agent.target_model.weights)
    )
    agent.sync_target()
    for w, t in zip(agent.q_model.weights, agent.target_model.weights):
        assert np.array_equal(w, t)
    for b, t in zip(agent.q_model.biases, agent.target_model.biases):
        assert np.array_equal(b, t)


# --- train_policy -----------------------------------------------------------------


class ChainEnv:
    """3-step deterministic episode over one-hot states; reward -action."""

    def __init__(self):
        self.t = 0

    def reset(self):
        self.t = 0
        return self._state()

    def _state(self):
        s = np.zeros(4)
        s[self.t % 4] = 1.0
        return s

    def step(self, action):
        self.t += 1
        return self._state(), -float(action), self.t >= 3


def test_zero_episodes_leave_model_unchanged():
    agent = make_agent(n_actions=8)
    before = [w.copy() for w in agent.q_model.weights]
    buf = ReplayBuffer(capacity=8, rng=np.random.default_rng(0))
    result = train_policy(ChainEnv, 0, agent, buf, np.random.default_rng(1))
    assert result == []
    for w, b in zip(agent.q_model.weights, before):
        np.testing.assert_array_equal(w, b)


def test_seeded_training_replays_identically():
    traces = []
    for _ in range(2):
        agent = make_agent(n_actions=8, batch_size=4, seed=21)
        buf = ReplayBuffer(capacity=32, rng=np.random.default_rng(22))
        result = train_policy(ChainEnv, 5, agent, buf, np.random.default_rng(23))
        traces.append([(r.return_, r.mean_td_loss, r.epsilon) for r in result])
    assert traces[0] == traces[1]


class RecordingEnv(ChainEnv):
    """ChainEnv that records every action it executes."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def step(self, action):
        self.executed.append(action)
        return super().step(action)


def test_play_episode_executes_the_hooked_action_and_keeps_the_policys():
    env = RecordingEnv()
    proposed = []

    def hook(state, action):
        proposed.append(action)
        return 7

    transitions = list(play_episode(env, lambda s: int(np.argmax(s)), hook))
    assert env.executed == [7, 7, 7]
    assert [t.action for t in transitions] == proposed == [0, 1, 2]
    assert [t.reward for t in transitions] == [-7.0] * 3  # earned by the executed action
    assert [t.terminal for t in transitions] == [False, False, True]
    for prev, t in zip(transitions, transitions[1:]):
        np.testing.assert_array_equal(t.state, prev.next_state)


def test_train_policy_replays_the_policys_actions_under_a_hook():
    envs = []

    def factory():
        envs.append(RecordingEnv())
        return envs[-1]

    proposed = []

    def hook(state, action):
        proposed.append(action)
        return 7  # outside the agent's 4 actions

    agent = make_agent(n_actions=4, batch_size=4)
    buf = ReplayBuffer(capacity=32, rng=np.random.default_rng(0))
    train_policy(factory, 3, agent, buf, np.random.default_rng(1), step_hook=hook)
    assert [env.executed for env in envs] == [[7, 7, 7]] * 3
    assert agent.decision_steps == len(buf) == len(proposed) == 9
    assert [action for _, action, *_ in contents(buf)] == proposed
    assert set(proposed) <= {0, 1, 2, 3}


def test_fixed_cycle_controller_pattern():
    ctl = FixedCycleController(dwell=2)
    assert [ctl.act() for _ in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
