"""Inputs, operations and answer checks of the workloads.

Two seeds shape the inputs, and the program only ever sees generated
designs:

* the **corpus seed** derives the generator seed of every design, so it
  fixes which circuits are solved.  A run solves a handful of designs,
  and one design can cost twice another of the same shape, so designs
  drawn afresh for every run would make the run-to-run spread a property
  of the draw rather than of the program.  Corpus 1 is the default;
  corpus 2 is held out for checking a claimed gain on unseen circuits.
* the **workload seed** (``--seed``) derives everything else: the order
  of the sign-off queries, and the order, repeats and store hits of the
  service stream, which together make every ``JobSpec``.

* ``signoff-serial`` runs one list of certified serial ``analyze()``
  calls: k=5, both modes, on i2-, i3- and i4-shaped designs.
* ``service-mixed`` sends a repeat-heavy stream of certified jobs on
  i1-shaped designs through an in-process ``AnalysisService``.

Answers are checked here; timing and tracing live in ``run.py`` and
``layers.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import analyze, make_paper_benchmark
from repro.core.report import TopKResult
from repro.service.protocol import JobSpec

#: The workload seed used when none is given.
DEFAULT_SEED = 1
#: The corpus of designs used when none is given.
DEFAULT_CORPUS = 1
#: A second corpus kept out of tuning, for checking a claimed gain.
HELD_OUT_CORPUS = 2

#: Set size of every timed query.
K = 5
MODES = ("addition", "elimination")
SIGNOFF_SHAPES = ("i2", "i3", "i4")

#: The service stream: three i1-shaped designs solved at k=5 (mode
#: alternating by design), the first two asked again at k=3 (a cold
#: solve that thaws the design's memo), and repeats of questions already
#: asked (store hits).
SERVICE_SHAPE = "i1"
SERVICE_DESIGNS = 3
SERVICE_NEW_K = 3
SERVICE_NEW_K_DESIGNS = 2
#: Store hits after each first ask: 11 hits in a stream of 16 jobs.
SERVICE_HITS_AFTER = (2, 2, 2, 2, 3)
#: How often each question is repeated.  The mix is fixed so that every
#: seed's stream does the same work and holds the same results; the seed
#: only orders it.
SERVICE_REPEATS = (3, 2, 2, 2, 2)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def derive_seed(seed: int, *tags: Any) -> int:
    """A 31-bit seed determined by ``seed`` and the tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# -- answers -------------------------------------------------------------


def answer_of(result: TopKResult) -> Dict[str, Any]:
    """The part of a result the reference pins (no enumeration counters)."""
    return {
        "couplings": sorted(result.couplings),
        "estimated_delay": result.estimated_delay,
        "delay": result.delay,
    }


def result_problems(result: Optional[TopKResult]) -> List[str]:
    """Why a finished operation's result is unacceptable (empty if fine)."""
    if result is None:
        return ["no result"]
    problems = []
    if result.degraded:
        reason = result.degradation.reason if result.degradation else "?"
        problems.append(f"degraded ({reason})")
    if result.certificate is None:
        problems.append("no certificate")
    if not result.delay or result.estimated_delay is None:
        problems.append("missing delay or estimate")
    return problems


def delay_err_pct(answers: List[Dict[str, Any]]) -> float:
    """Mean |estimated_delay - delay| / delay x 100 over the answers."""
    errs = [
        abs(a["estimated_delay"] - a["delay"]) / a["delay"] * 100.0 for a in answers
    ]
    return sum(errs) / len(errs) if errs else 0.0


def load_reference(family: str, corpus: int) -> Optional[Dict[str, Dict[str, Any]]]:
    """Recorded answers of ``family`` on ``corpus`` keyed by question, if any."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    entry = data.get("corpora", {}).get(str(corpus), {}).get(family)
    if entry is None:
        return None
    return {item["key"]: item["answer"] for item in entry}


def reference_problems(
    reference: Optional[Dict[str, Dict[str, Any]]], key: str, answer: Dict[str, Any]
) -> List[str]:
    if reference is None:
        return []
    expected = reference.get(key)
    if expected is None:
        return [f"no reference answer for {key}"]
    return [
        f"{name} {answer[name]!r} != reference {expected[name]!r}"
        for name in ("couplings", "estimated_delay", "delay")
        if answer[name] != expected[name]
    ]


# -- sign-off ------------------------------------------------------------


@dataclass(frozen=True)
class SignoffQuery:
    shape: str
    mode: str
    gen_seed: int

    @property
    def key(self) -> str:
        return f"{self.shape}/{self.mode}/{self.gen_seed}"


def signoff_queries(seed: int, corpus: int) -> List[SignoffQuery]:
    """Every shape in both modes, in an order drawn from the workload seed."""
    queries = [
        SignoffQuery(shape, mode, derive_seed(corpus, "signoff", shape))
        for shape in SIGNOFF_SHAPES
        for mode in MODES
    ]
    random.Random(derive_seed(seed, "signoff-order")).shuffle(queries)
    return queries


def signoff_setup(
    queries: List[SignoffQuery], build: Callable[..., Any] = make_paper_benchmark
) -> List[Any]:
    """Generate every design, then one serial k=1 certified warm-up each.

    Returns the design of each query, in query order.
    """
    designs: Dict[int, Any] = {}
    for query in queries:
        if query.gen_seed not in designs:
            designs[query.gen_seed] = build(query.shape, seed=query.gen_seed)
    for design in designs.values():
        analyze(design, 1, certify=True)
    return [designs[q.gen_seed] for q in queries]


# -- service -------------------------------------------------------------


@dataclass
class Job:
    """One job of the stream and what the stream expects of it."""

    spec: JobSpec
    question: int
    first_ask: bool

    @property
    def key(self) -> str:
        s = self.spec
        return f"{s.benchmark}/{s.mode}/{s.seed}/k{s.k}"


def service_stream(seed: int, corpus: int) -> List[Job]:
    """The job stream of one pass."""
    specs = [
        JobSpec(
            benchmark=SERVICE_SHAPE,
            seed=derive_seed(corpus, "service", j),
            k=k,
            mode=MODES[j % len(MODES)],
            certify=True,
        )
        for j, k in [(j, K) for j in range(SERVICE_DESIGNS)]
        + [(j, SERVICE_NEW_K) for j in range(SERVICE_NEW_K_DESIGNS)]
    ]
    rng = random.Random(derive_seed(seed, "stream"))
    # New designs first, then the new-k questions, each group shuffled.
    order = rng.sample(range(SERVICE_DESIGNS), SERVICE_DESIGNS) + [
        SERVICE_DESIGNS + j
        for j in rng.sample(range(SERVICE_NEW_K_DESIGNS), SERVICE_NEW_K_DESIGNS)
    ]
    # Every question repeats at least twice, so after each first ask
    # there are always enough repeats of questions already asked.
    left = list(SERVICE_REPEATS)
    jobs: List[Job] = []
    for position, (question, hits) in enumerate(zip(order, SERVICE_HITS_AFTER)):
        jobs.append(Job(specs[question], question, True))
        for _ in range(hits):
            asked = order[: position + 1]
            again = rng.choice([q for q in asked for _ in range(left[q])])
            left[again] -= 1
            jobs.append(Job(specs[again], again, False))
    return jobs


def warmup_spec(corpus: int) -> JobSpec:
    """The set-up job: a design outside the stream, never stored."""
    return JobSpec(
        benchmark=SERVICE_SHAPE,
        seed=derive_seed(corpus, "service-warmup"),
        k=1,
        certify=True,
        use_store=False,
    )


@dataclass
class OpRecord:
    """One completed operation of a pass."""

    key: str
    latency_s: float
    answer: Optional[Dict[str, Any]] = None
    problems: List[str] = field(default_factory=list)
    kind: str = "query"
    #: SolveStats of operations that solved (not of store hits).
    stats: Any = None
    view: Any = None
