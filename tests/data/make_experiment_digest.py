"""Write ``experiment_digest.json``: the experiments' numbers, exactly.

``tests/test_experiment_digest.py`` runs each experiment at its claim
test's scale and compares every reported number with this digest, bit
for bit.  Regenerate it only with the build whose numbers it should pin,
for a change that means to move them::

    PYTHONPATH=<checkout>/src python tests/data/make_experiment_digest.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_experiment_digest import DIGEST, RUNS, digest  # noqa: E402


def main() -> None:
    numbers = {name: digest(name) for name in sorted(RUNS)}
    DIGEST.write_text(json.dumps(numbers, indent=1, sort_keys=True) + "\n")
    count = sum(len(values) for values in numbers.values())
    print(f"wrote {count} numbers from {len(numbers)} experiments "
          f"to {DIGEST}")


if __name__ == "__main__":
    main()
