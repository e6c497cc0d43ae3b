"""Quick self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs every workload once at toy size through the same checks a benchmark
run uses and requires them to pass.  Then feeds each deliberately wrong
answer a workload defines (a root moved by 100 tol, a dropped level, a KS
value or eigenvalue nudged, a failed sweep row, ...) through the same checks
and requires each to be rejected, as well as a round whose output differs
from the first.  Exits 0 only if every expectation holds.
"""

import os
import shutil
import sys

import run  # first: fixes the BLAS thread count before numpy loads
from workloads import WORKLOADS


def main():
    pkg = run.import_package()
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    wrong = 0

    def expect(ok, what):
        nonlocal wrong
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    try:
        for name, cls in WORKLOADS.items():
            workload = cls(pkg, seed=1, toy=True, workdir=os.path.join(workdir, name))
            state = workload.setup()
            good = run.run_round(workload.steps(state))
            ref = workload.reference(state)
            problems, summary = run.check_rounds(workload, state, [good], ref)
            expect(not problems and not good["failed"],
                   f"{name}: toy round passes ({summary}; {good['failed']} of "
                   f"{good['attempted']} operations failed)"
                   + "".join("\n     " + p for p in problems))
            for label, mutated, mutated_ref in workload.mutations(good["outputs"], ref):
                bad = {"outputs": mutated, "errors": []}
                found, _ = run.check_rounds(workload, state, [bad], mutated_ref)
                expect(bool(found), f"{name}: rejects {label}: {found[0] if found else 'accepted'}")
                if mutated_ref is ref:
                    found, _ = run.check_rounds(workload, state, [good, bad], ref)
                    expect(any("differs between rounds" in p for p in found),
                           f"{name}: rejects a later round with {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("passed" if not wrong else f"FAILED: {wrong} expectations not met"))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
