#!/usr/bin/env python3
"""Record the reference answers the benchmark checks its runs against.

Run from the root of a checkout::

    python3 perfbench/record_reference.py [CORPUS ...]

For each corpus seed given (default: the default and the held-out
corpus), solves every sign-off query and every first-asked service
question with a plain ``analyze()`` call and stores its couplings,
``estimated_delay`` and exact ``delay`` in ``perfbench/reference.json``
(other corpora already there are kept).  The answers do not depend on
the workload seed, which only orders the questions.  Enumeration
counters are left out on purpose: a faster enumeration may change them
without changing an answer.  Re-record only when a change is meant to
change answers, and say so.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from repro import analyze, make_paper_benchmark  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_CORPUS,
    DEFAULT_SEED,
    HELD_OUT_CORPUS,
    K,
    REFERENCE_PATH,
    answer_of,
    service_stream,
    signoff_queries,
)


def record(corpus: int) -> dict:
    signoff = []
    for query in signoff_queries(DEFAULT_SEED, corpus):
        design = make_paper_benchmark(query.shape, seed=query.gen_seed)
        result = analyze(design, K, mode=query.mode, certify=True)
        signoff.append({"key": query.key, "answer": answer_of(result)})
    service = []
    for job in service_stream(DEFAULT_SEED, corpus):
        if not job.first_ask:
            continue
        spec = job.spec
        result = analyze(spec.build_design(), spec.k, mode=spec.mode, certify=True)
        service.append({"key": job.key, "answer": answer_of(result)})
    return {"signoff": signoff, "service": service}


def main(argv: list) -> int:
    corpora = [int(arg) for arg in argv] or [DEFAULT_CORPUS, HELD_OUT_CORPUS]
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"k": K, "corpora": {}}
    for corpus in corpora:
        data["corpora"][str(corpus)] = record(corpus)
        print(f"recorded corpus {corpus}")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
