"""RSS guard: mmap resume never holds two copies of the fleet state.

``Engine.resume`` maps a checkpoint's array members copy-on-write and
adopts them as the session's live columns; the historical failure mode
is an in-memory load that materializes the full state *and* copies it
into freshly allocated columns — 2x resident memory, which at N=1M is
the difference between resuming and OOMing.

This script builds checkpoints at a moderate fleet size, then measures
the peak-RSS delta of a resume in a **fresh subprocess**, via
``/proc/self/status`` ``VmHWM`` — the high-water mark that resets on
``exec``.  (``getrusage``'s ``ru_maxrss`` does *not* reset on exec: a
child forked from a large parent starts with the parent's fork-time RSS
as its high water, silently zeroing every delta.)  Two cases, each with
its own budget over the checkpoint's array payload:

- after 3 slots the history windows are partial, and restoring copies
  them by design: the mmap resume's delta must stay under 1.5x the
  payload;
- after 8 slots every window is full and adopted zero-copy, so the
  delta must stay under 0.5x the payload.  Reading the members through
  the map (to check their CRC-32, say) would fault every page in and
  break this budget.

Each budget adds 32 MB of interpreter noise.  The plain in-memory
resume is measured too, for the report.

Run from the repo root (CI does)::

    PYTHONPATH=src python benchmarks/rss_resume_guard.py

``REPRO_RSS_NODES`` overrides the fleet size (default 200000).
"""

import json
import os
import subprocess
import sys
import tempfile
import zipfile

#: (slots ingested before the checkpoint, budget as a share of the
#: array payload): partial history windows copy, full ones are adopted.
CASES = ((3, 1.5), (8, 0.5))
SLACK_BYTES = 32 * 1024 * 1024  # interpreter noise floor at small N

CHILD = r"""
import json, sys
import numpy as np
from repro.api import Engine


def peak_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status (not Linux?)")


path, mmap = sys.argv[1], sys.argv[2] == "mmap"
engine = Engine.from_config(json.load(open(sys.argv[3])))
before = peak_kb()
session = engine.resume(path, mmap=mmap)
after = peak_kb()
print(json.dumps({
    "delta_kb": after - before,
    "adopted_memmap": isinstance(session.fleet.stored, np.memmap),
}))
"""


def build_checkpoint(workdir, num_nodes, slots):
    import numpy as np

    from repro.api import Engine
    from repro.core.config import PipelineConfig

    # High initial_collection: no model training at this fleet size,
    # the guard is about state bytes, not forecasting.
    config = PipelineConfig.small(
        initial_collection=1000, retrain_interval=1000
    )
    session = Engine(config).session(num_nodes, 4)
    rng = np.random.default_rng(0)
    for _ in range(slots):
        session.ingest(rng.random((num_nodes, 4)))
    path = os.path.join(workdir, "guard.ckpt")
    session.save(path)
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as handle:
        json.dump(config.to_dict(), handle)
    return path, config_path


def array_payload_bytes(path):
    with zipfile.ZipFile(path) as archive:
        return sum(
            info.file_size
            for info in archive.infolist()
            if info.filename.endswith(".npy")
        )


def measure(path, config_path, mode):
    output = subprocess.run(
        [sys.executable, "-c", CHILD, path, mode, config_path],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    ).stdout
    report = json.loads(output.strip().splitlines()[-1])
    return report["delta_kb"] * 1024, report["adopted_memmap"]


def main():
    num_nodes = int(os.environ.get("REPRO_RSS_NODES", "200000"))
    failures = []
    for slots, headroom in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            path, config_path = build_checkpoint(workdir, num_nodes, slots)
            state = array_payload_bytes(path)
            mmap_delta, adopted = measure(path, config_path, "mmap")
            plain_delta, _ = measure(path, config_path, "plain")
        budget = headroom * state + SLACK_BYTES
        print(
            f"rss_resume_guard: N={num_nodes}, {slots} slots, "
            f"state={state / 1e6:.1f} MB, "
            f"mmap resume delta={mmap_delta / 1e6:.1f} MB "
            f"(budget {budget / 1e6:.1f} MB), "
            f"plain resume delta={plain_delta / 1e6:.1f} MB, "
            f"adopted_memmap={adopted}"
        )
        if not adopted:
            failures.append(
                f"{slots} slots: mmap resume did not adopt mapped columns"
            )
        if mmap_delta >= budget:
            failures.append(
                f"{slots} slots: mmap resume held {mmap_delta / 1e6:.1f} MB "
                f"over a {state / 1e6:.1f} MB state — more than "
                f"{headroom}x + slack; zero-copy adoption has regressed"
            )
    if failures:
        raise SystemExit("\n".join(failures))
    print("rss_resume_guard: OK")


if __name__ == "__main__":
    main()
