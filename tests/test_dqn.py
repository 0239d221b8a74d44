import numpy as np
import pytest

from ugatlab.dqn import (
    DqnAgent,
    DqnConfig,
    FixedCycleController,
    ReplayBuffer,
    Transition,
    train_policy,
)


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


def test_replay_fifo_eviction_preserves_order():
    buf = ReplayBuffer(capacity=5, rng=np.random.default_rng(0))
    items = [tr([i], 0, float(i), [i]) for i in range(8)]
    for item in items:
        buf.push(item)
    assert len(buf) == 5
    assert buf.snapshot() == items[3:]


def test_replay_sampling_is_seeded():
    def fill(buf):
        for i in range(50):
            buf.push(tr([i], 0, float(i), [i]))

    a = ReplayBuffer(capacity=100, rng=np.random.default_rng(7))
    b = ReplayBuffer(capacity=100, rng=np.random.default_rng(7))
    fill(a)
    fill(b)
    assert a.sample(10) == b.sample(10)


# --- learn -------------------------------------------------------------------


def test_learn_returns_none_until_buffer_is_warm():
    agent = make_agent(batch_size=4)
    buf = ReplayBuffer(capacity=10, rng=np.random.default_rng(0))
    buf.push(tr([0, 0, 0, 0], 0, -1.0, [0, 0, 0, 0]))
    assert agent.learn(buf) is None


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


def test_fixed_cycle_controller_pattern():
    ctl = FixedCycleController(dwell=2)
    assert [ctl.act() for _ in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
