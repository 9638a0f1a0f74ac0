"""Record the expected stdout of every CLI invocation the cli-acceptance workload can draw.

    python3 perfbench/record_cli.py

Run once, on the commit whose outputs later commits must reproduce byte
for byte.  Writes perfbench/expected_cli.json: for each invocation the
SHA-256 of its stdout (selftest timings blanked).  Every recover output
is also checked to return the skein element that generated its input.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    EXPECTED_CLI,
    RECOVER_SPACES,
    SELFTEST_ARGV,
    TINY_SELFTEST_ARGV,
    CliRunner,
    cli_pool,
    output_digest,
    recover_element,
    write_recover_file,
)
from worker import import_checkout_lenswrt  # noqa: E402


def main() -> int:
    lw = import_checkout_lenswrt()
    for p, q in RECOVER_SPACES:
        for j in range(3):
            write_recover_file(lw, p, q, j)
    runner = CliRunner(traced=False)
    commands = [argv for items in cli_pool().values() for argv in items] + [SELFTEST_ARGV, TINY_SELFTEST_ARGV]
    outputs = {}
    for argv in commands:
        proc = runner(argv)
        if proc.returncode != 0:
            sys.stderr.write(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stderr.decode()}")
            return 1
        if argv[2] == "recover" and argv[1] == "json":
            p, q, j = (int(x) for x in argv[-1].rsplit(".", 1)[0].split("-")[1:])
            a_form = json.loads(proc.stdout)["a_form"]
            want = [sorted([e, v, 1] for e, v in t.items()) for t in recover_element(p, q, j)]
            if a_form is None or [sorted(c) for c in a_form["coeffs"]] != want:
                sys.stderr.write(f"{' '.join(argv)} did not recover its element\n")
                return 1
        outputs[" ".join(argv)] = output_digest(argv, proc.stdout)
    with open(EXPECTED_CLI, "w") as fh:
        json.dump({"outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
