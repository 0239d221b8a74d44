"""Every name bench/tracing.py wraps is still the one its callers call.

The benchmark's per-layer metrics come from spans that install_spans records
by replacing a module global or class attribute where its caller looks it
up. A caller that binds the function some other way bypasses the wrapper,
and the benchmark then shows that layer as a zero rather than failing. This
runs one tiny compare-uncertainty in-process and one tiny direct-transfer
training under the installed tracer, and requires a span through every
patched site.
"""

import importlib.util
from pathlib import Path

from ugatlab import cli
from ugatlab.dqn import DqnConfig
from ugatlab.experiment import ExperimentConfig, protocols
from ugatlab.sim import SimConfig

ROOT = Path(__file__).resolve().parents[1]

TINY = """
[experiment]
seeds = 1
pretrain_episodes = 1
iterations = 1
epochs_per_iteration = 1
rollout_episodes = 1
eval_episodes = 1

[dqn]
batch_size = 4
replay_capacity = 64
target_sync_period = 2

[grounding]
train_epochs = 1
batch_size = 8

[sim]
episode_length = 60.0
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_records_a_span(tmp_path):
    tracing = load_tracing()

    class SiteTracer(tracing.Tracer):
        """A Tracer whose spans also carry the owner and attribute they were patched at."""

        def __init__(self):
            super().__init__()
            self.sites = []

        def patch(self, owner, attr, name, label=None, note=None):
            self.sites.append((owner, attr, name))
            site = f"{owner.__name__}.{attr}"

            def tagged(args):
                return site, label(args) if label is not None else ""

            super().patch(owner, attr, name, tagged, note)

    tracer = SiteTracer()
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    cfg = ExperimentConfig(
        seeds=(1,),
        direct_episodes=1,
        dqn=DqnConfig(batch_size=4, replay_capacity=64, target_sync_period=2),
        sim=SimConfig(episode_length=60.0),
    )
    try:
        tracing.install_spans(tracer)
        tracer.active = True
        argv = ["compare-uncertainty", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
        assert cli.main(argv) == 0
        train_demand = protocols.generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed)
        protocols.train_direct_policy(cfg, 1, train_demand)
    finally:
        tracer.active = False
        tracer.restore()
    fired = {(tag[0], name) for _sid, _parent, name, tag, *_ in tracer.spans}
    sites = [(f"{owner.__name__}.{attr}", name) for owner, attr, name in tracer.sites]
    assert len(sites) == len(set(sites)) > 0
    assert [site for site in sites if site not in fired] == []
    still_wrapped = [attr for owner, attr, _ in tracer.sites if hasattr(getattr(owner, attr), "__wrapped__")]
    assert still_wrapped == []
