"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that a run reports every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``) named in BENCHMARK.json, each with its unit;
that the layers a workload bypasses read zero; that a pinned digest is
accepted; and that a tampered output counts as a failed pass. Exits non-zero
at the first failed check.
"""

import contextlib
import io
import json
import sys

import run  # first: pins the BLAS threads before numpy is imported
import workloads

SEED = 990001  # no pinned digest: tiny sizes produce other bytes


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest: FAIL: {what}")
    print(f"selftest: ok: {what}")


def shrink() -> None:
    workloads.DirectTrain.subseeds = 1
    workloads.DirectTrain.episodes = 1
    workloads.EvalTransfer.subseeds = 1
    workloads.EvalTransfer.pretrain_episodes = 1
    workloads.CompareHeads.subseeds = 1
    workloads.CompareHeads.sizes = {
        "experiment": {
            "pretrain_episodes": 1,
            "iterations": 1,
            "epochs_per_iteration": 1,
            "rollout_episodes": 1,
            "eval_episodes": 1,
        },
        "sim": {"episode_length": 600.0},
    }


def quiet_run(workload: str, trace: bool) -> tuple[dict, str]:
    """Run in-process; returns the result object and the pass digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, SEED, 0.0, trace)
    env = next(ln for ln in out.getvalue().splitlines() if ln.startswith("env "))
    return result, json.loads(env[4:])["digest"]


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{what}: every declared metric, with its unit")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: correct")


def tamper(owner, attr: str, spoil):
    """Patch owner.attr so that its output is spoiled after the call."""
    original = getattr(owner, attr)

    def spoiled(*args, **kwargs):
        result = original(*args, **kwargs)
        spoil(args, result)
        return result

    setattr(owner, attr, spoiled)
    return lambda: setattr(owner, attr, original)


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shrink()
    digests = {}
    for name in workloads.WORKLOADS:
        result, digests[name] = quiet_run(name, trace=False)
        check_metrics(result, bench["end_to_end"], f"{name} trace 0")
        result, _ = quiet_run(name, trace=True)
        check_metrics(result, bench["per_layer"], f"{name} trace 1")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if name != "compare_heads":
            check(m["grounding.self_s"] == 0.0, f"{name}: no grounding work")
        if name == "eval_transfer":
            check(m["dqn.learn.calls"] == 0.0, f"{name}: no learning")

    run.pinned_digest = lambda workload, seed: digests[workload]
    result, _ = quiet_run("direct_train", trace=False)
    check(result["failed"] == 0, "direct_train: the pinned digest is accepted")

    from ugatlab.experiment import io as run_io, protocols

    def nudge_weights(args, result):
        result[0].q_model.biases[-1][0] += 1e-12

    undo = tamper(protocols, "train_direct_policy", nudge_weights)
    result, _ = quiet_run("direct_train", trace=False)
    undo()
    check(
        result["failed"] == result["attempted"] and not result["correct"],
        "direct_train: a nudged Q-network weight fails the digest check",
    )

    def append_byte(args, path):
        with path.open("a") as fh:
            fh.write(" ")

    undo = tamper(run_io, "write_summary", append_byte)
    result, _ = quiet_run("compare_heads", trace=False)
    undo()
    check(
        result["failed"] == result["attempted"] and not result["correct"],
        "compare_heads: one extra byte in the run tree fails the digest check",
    )


if __name__ == "__main__":
    main()
