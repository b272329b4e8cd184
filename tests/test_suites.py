import gc

from qrframes import cyclic_group
from qrframes.suites import run_checks


def test_exhaustiveness_contexts_follow_the_group():
    # Alternate two groups in one process, dropping each before building the
    # next, so the interpreter may reuse object ids: every report must still
    # be about the group it names.
    seen = {2: set(), 3: set()}
    for k in range(24):
        group = cyclic_group(2 if k % 2 == 0 else 3)
        report = run_checks(group, ("exhaustiveness",), workers=1)
        seen[group.order].add(tuple((c["name"], c["trials"], c["max_deviation"])
                                    for c in report["checks"]))
        del group, report
        gc.collect()
    assert len(seen[2]) == 1 and len(seen[3]) == 1
    assert seen[2] != seen[3]
