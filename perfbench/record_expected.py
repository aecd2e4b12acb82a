"""Record the default seed's campaign and fleet outputs in expected.json.

    python3 perfbench/record_expected.py

Run it only when a change to the simulator is meant to change those
outputs; the benchmark's output check compares against this file.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    seed = workloads.DEFAULT_SEED
    campaign = workloads.Campaign(ROOT, seed)
    campaign.make_inputs()
    digests = []
    for index in range(campaign.cycle):
        result = campaign.op(index)
        if not result.ok:
            raise SystemExit("campaign seed %d is not ok" % result.seed)
        digests.append(result.digest)
    fleet = workloads.Fleet(ROOT, seed)
    fleet.make_inputs()
    outcome = fleet.op(0)
    merge = outcome.result.merge
    if not (outcome.result.accounting_ok and merge.ok):
        raise SystemExit("fleet run is not clean")
    expected = {
        "seed": seed,
        "campaign": {"cpus": workloads.CAMPAIGN_CPUS, "digests": digests},
        "fleet": {"machines": fleet.machines, "digest": merge.digest,
                  "trace_sha256": workloads.sha256(outcome.trace_json)},
    }
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print("recorded %s" % workloads.EXPECTED_PATH)


if __name__ == "__main__":
    main()
