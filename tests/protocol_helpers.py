"""Scripted stand-ins for the grounder and the agent, and one-arm protocol runs.

tests/test_experiment.py and tests/test_acceptance.py (criterion 5) both
import these, so the scripted Algorithm-1 traces they check come from one
copy.
"""

from unittest import mock

from ugatlab.experiment import protocols, run_arms
from ugatlab.grounding import UncertainAction


class ScriptedGrounder:
    """Returns a fixed grounded action with a scripted uncertainty sequence."""

    def __init__(self, uncertainties, action=5):
        self.uncertainties = list(uncertainties)
        self.action = action
        self.calls = 0
        self.fit_calls = 0

    def fit(self, d_real, d_sim, rng):
        self.fit_calls += 1

    def ground(self, state, action):
        u = self.uncertainties[self.calls]
        self.calls += 1
        return UncertainAction(action=self.action, uncertainty=u)


class ScriptedAgent:
    """Always proposes action 0 and never learns."""

    def __init__(self, config):
        self.config = config
        self.decision_steps = 0
        self.learn_steps = 0

    def epsilon(self):
        return 0.0

    def act(self, state, eps, rng):
        return 0

    def learn(self, buffer):
        return None

    def sync_target(self):
        pass


def run_one(cfg):
    """cfg's report from a one-arm battery: the arm run alone."""
    ((_, report),) = run_arms([(cfg.protocol_label, cfg)])
    return report


def run_scripted(cfg, uncertainties):
    """cfg's one seed run alone with a ScriptedGrounder and ScriptedAgents, and the grounder."""
    grounder = ScriptedGrounder(uncertainties)
    with (
        mock.patch.object(protocols, "Grounder", lambda c, init_rng, head_rng: grounder),
        mock.patch.object(protocols, "DqnAgent", lambda dqn, rng: ScriptedAgent(dqn)),
    ):
        (result,) = run_one(cfg).per_seed
    return result, grounder


def seed_trace(report, i=0):
    """Seed i's audit rows, alpha trace, sim and real means and training curve."""
    sr = report.per_seed[i]
    return (
        [tuple(r) for r in sr.audit_rows],
        sr.alpha_trace,
        sr.sim,
        sr.real,
        [(r.episode, r.return_, r.mean_td_loss) for r in sr.training_curve],
    )
