"""Tables II and III — the 81-run (α, γ, ε) × fleet learning sweep.

One sweep produces both tables (they report two metrics of the same
runs).  Expected shapes:

- **Table II**: learning time grows with fleet size (the 64-vCPU column
  is the slowest — more VMs means a larger action space per decision);
- **Table III**: simulated makespan degrades monotonically with ε — the
  pattern in the paper's own data (259s at ε = 0.1 up to ~830-930s at
  ε = 1.0 within the γ = 1.0 slice), which identifies ε as the textbook
  exploration probability.  ε = 0.1 rows dominate.

A shape we report as *not* reproducing robustly (see EXPERIMENTS.md):
the paper's strong γ = 1.0 advantage.  In this MDP the workflow state
collapses to a single non-terminal label, so the bootstrap term
``max_a' Q(s', a')`` is common to all candidate actions and cancels in
the argmax — γ can only act through lock-in noise.  Our γ columns are
accordingly flat; the paper's dramatic (γ = 1.0, ε = 0.1) cells are
consistent with single-run luck.
"""

import numpy as np

from repro.experiments import default_episodes, run_paper_sweep

from conftest import save_artifact


def test_tables_2_and_3(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_paper_sweep(episodes=default_episodes(100), seed=1),
        rounds=1, iterations=1,
    )
    save_artifact(results_dir, "table2.txt", result.render_table2())
    save_artifact(results_dir, "table3.txt", result.render_table3())

    # --- Table II shape: learning time grows with fleet size -----------
    # compare per-fleet *minima*: wall-clock means are sensitive to
    # background load on the machine, the minimum of 27 runs is not
    min_time = {
        v: float(np.min([r.learning_time for r in recs]))
        for v, recs in result.records.items()
    }
    assert min_time[16] < min_time[64], (
        f"expected 64-vCPU learning to be slowest, got {min_time}"
    )

    # --- Table III shape: eps=0.1 (mostly exploit) dominates -----------
    for vcpus, recs in result.records.items():
        by_eps = {}
        for r in recs:
            by_eps.setdefault(r.epsilon, []).append(r.simulated_makespan)
        means = {e: float(np.mean(v)) for e, v in by_eps.items()}
        assert means[0.1] < means[1.0], (
            f"{vcpus} vCPUs: eps=0.1 should beat eps=1.0, got {means}"
        )
        # at very small REPRO_EPISODES budgets heavy exploitation hasn't
        # had the exploration to pay off yet, so only check the full
        # ordering at a realistic budget
        if default_episodes(100) >= 50:
            assert means[0.1] <= means[0.5] * 1.02, (
                f"{vcpus} vCPUs: eps=0.1 should not lose to eps=0.5, "
                f"got {means}"
            )

    # --- Table III shape: an eps=0.1 cell is at (or within noise of)
    # the per-fleet optimum ----------------------------------------------
    for vcpus, recs in result.records.items():
        overall_best = min(r.simulated_makespan for r in recs)
        best_eps01 = min(
            r.simulated_makespan for r in recs if r.epsilon == 0.1
        )
        assert best_eps01 <= overall_best * 1.03, (
            f"{vcpus} vCPUs: best eps=0.1 cell ({best_eps01:.1f}s) should be "
            f"near the optimum ({overall_best:.1f}s)"
        )

    # --- learned plans beat fully-random ones (eps=1.0) ----------------
    for vcpus, recs in result.records.items():
        best = min(r.simulated_makespan for r in recs if r.epsilon == 0.1)
        random_mean = float(np.mean(
            [r.simulated_makespan for r in recs if r.epsilon == 1.0]
        ))
        assert best < random_mean, (vcpus, best, random_mean)
