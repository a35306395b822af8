"""Reference implementations the engine's array code is checked against."""


def dedupe(candidates, keep_best: bool, by_score_desc: bool) -> list:
    """Collapse candidates with identical coupling sets.

    Different construction paths can reach the same coupling set with
    slightly different envelopes (e.g. a pseudo atom vs. an incremental
    merge); we keep the one with the better score — larger in addition mode
    (``by_score_desc=True``), smaller in elimination mode.
    """
    best: dict = {}
    for cand in candidates:
        key = cand.couplings
        cur = best.get(key)
        if cur is None:
            best[key] = cand
        elif keep_best:
            better = (
                cand.score > cur.score if by_score_desc else cand.score < cur.score
            )
            if better:
                best[key] = cand
    return list(best.values())
