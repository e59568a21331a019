"""Record the values the benchmark's correctness checks compare against.

Run from the root of a checkout at the commit whose outputs are the
reference, then commit the result:

    python3 perfbench/record_reference.py

For each Monte Carlo workload it stores the estimator means of a small
ensemble at ``REFERENCE_SEED`` (checked to ``EXACT_RTOL`` in every run) and
the mean, standard error and sample standard deviation of a large ensemble
at another seed (a run's own-seed means are z-tested against these). For the
oracle it stores the per-step mean and variance of a small ensemble; for the
indicator battery every value, with ``null`` for an evaluation that raised.
"""

import json
import math
import os
import sys

import run

POPULATION_SAMPLES = {"mc_p3_1d": 400, "mc_p3_2d_sparse": 160}
POPULATION_SEED = 1_000_003
EXACT_SAMPLES = {"mc_p3_1d": 2, "mc_p3_2d_sparse": 2, "oracle_pool": 200}


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    run.import_program()
    from workloads import REFERENCE_FILE, REFERENCE_SEED, estimator_table, make_workload

    ref = {}
    for name in ("mc_p3_1d", "mc_p3_2d_sparse"):
        wl = make_workload(name, REFERENCE_SEED)
        wl.workers = 2  # reports are bit-identical at any worker count
        pb = wl.setup()
        exact = estimator_table(wl.ensemble(pb, REFERENCE_SEED, EXACT_SAMPLES[name]))
        pop = estimator_table(wl.ensemble(pb, POPULATION_SEED, POPULATION_SAMPLES[name]))
        ref[name] = {
            "exact": {
                "master_seed": REFERENCE_SEED,
                "n_samples": EXACT_SAMPLES[name],
                "means": {k: m for k, (m, _, _) in exact.items()},
            },
            "population": {
                "master_seed": POPULATION_SEED,
                "n_samples": POPULATION_SAMPLES[name],
                "mean": {k: m for k, (m, _, _) in pop.items()},
                "se": {k: se for k, (_, se, _) in pop.items()},
                "sd": {k: se * math.sqrt(n) for k, (_, se, n) in pop.items()},
            },
        }
        print(f"recorded {name}", file=sys.stderr)

    wl = make_workload("oracle_pool", REFERENCE_SEED)
    extra = wl.ensemble(wl.setup(), REFERENCE_SEED, EXACT_SAMPLES["oracle_pool"], 1)
    ref["oracle_pool"] = {
        "exact": {
            "master_seed": REFERENCE_SEED,
            "n_samples": EXACT_SAMPLES["oracle_pool"],
            "mean": [float(x) for x in extra.mean],
            "variance": [float(x) for x in extra.variance],
        }
    }

    wl = make_workload("indicators_p3_2d", REFERENCE_SEED)
    values = dict(call()[1] for call in wl.phases(wl.setup())["sweep"])
    ref["indicators_p3_2d"] = {
        "values": {k: (None if isinstance(v, Exception) else v) for k, v in sorted(values.items())}
    }

    with open(REFERENCE_FILE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)


if __name__ == "__main__":
    main()
