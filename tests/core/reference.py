"""Reference implementations the engine's array code is checked against."""

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggressor_set import EnvelopeSet, join_labels
from repro.core.dominance import batch_delay_noise, reduce_irredundant
from repro.core.engine import (
    _NEGATIVE_ENV_TOL,
    _TINY_NS,
    ADDITION,
    TopKEngine,
    _HigherOrder,
    _Pseudo,
    _Primaries,
    _primary_row,
    _PruneChunk,
    _Segment,
    _VictimContext,
)
from repro.perf.memo import readonly
from repro.runtime.errors import WaveformFaultError


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


def reference_primary_build(engine) -> dict:
    """Each victim's grid, bound, input slacks and primary rows, built one
    victim and one primary at a time.

    The engine's context build as it was before it became array passes:
    per-gate input slacks from :func:`driver_arc`, a
    :func:`primary_envelope` per primary for the false-aggressor test,
    the widened envelopes and the shift bump as :class:`NoiseEnvelope`
    objects summed with ``Waveform.sample`` on the probe grid, and the
    primaries sampled one at a time.  Returns ``{net: (grid, ub, inputs,
    [(coupling index, sampled row), ...])}``.
    """
    from repro.core.engine import SINK, _sample_primaries, _shift_bump
    from repro.noise.envelope import NoiseEnvelope, primary_envelope
    from repro.noise.filters import windows_can_interact
    from repro.noise.pulse import pulse_for_coupling
    from repro.timing.delay_models import driver_arc
    from repro.timing.waveform import Grid
    from repro.timing.windows import TimingWindow

    nominal, timing, n = engine.nominal, engine.window_timing, engine.config.grid_points

    def collect(victim):
        primaries = []
        victim_window = timing.window(victim)
        for cc in engine.coupling.aggressors_of(victim):
            aggressor = cc.other(victim)
            window = timing.window(aggressor)
            slew_a = timing.slew_late(aggressor)
            if engine.config.window_filter and not windows_can_interact(
                victim_window, window, slack=slew_a
            ):
                continue
            pulse = pulse_for_coupling(engine.netlist, cc, victim, slew_a)
            if primary_envelope(victim, pulse, window).t_end <= nominal.lat(victim):
                continue
            primaries.append((cc, pulse, window))
        return primaries

    def input_slacks(net):
        gate = engine.netlist.driver_gate(net)
        if gate.is_primary_input:
            return {}
        lat = nominal.lat(net)
        return {
            u: max(0.0, lat - (nominal.lat(u) + driver_arc(engine.netlist, net, nominal.slew_late(u)).delay))
            for u in gate.inputs
        }

    def bound_and_grid(t50, slew, primaries, upstream_ub):
        envs = [
            primary_envelope(
                "*", pulse, TimingWindow(window.eat, max(window.lat, engine.horizon))
            )
            for _, pulse, window in primaries
        ]
        if upstream_ub > 1e-9:
            envs.append(NoiseEnvelope("*", _shift_bump(t50, slew, upstream_ub)))
        t_lo, t_hi = t50 - slew, t50 + slew
        for env in envs:
            t_lo, t_hi = min(t_lo, env.t_start), max(t_hi, env.t_end)
        span = max(t_hi - t_lo, 1e-3)
        probe = Grid(t_lo - 0.02 * span, t_hi + 0.02 * span, n)
        ub = 0.0
        if envs:
            total = np.zeros(n)
            for env in envs:
                total += env.sample(probe)
            ub = float(batch_delay_noise(t50, slew, total[None, :], probe)[0])
        ub = max(ub, upstream_ub)
        g_lo, g_hi = t50 - slew, t50 + ub + 2.0 * slew
        for _, pulse, window in primaries:
            env = primary_envelope("*", pulse, window)
            g_lo, g_hi = min(g_lo, env.t_start), max(g_hi, env.t_end)
        span = max(g_hi - g_lo, 1e-3)
        return ub, Grid(g_lo - 0.02 * span, g_hi + 0.02 * span, n)

    built: dict = {}
    ubs: dict = {}
    for net in list(engine.graph.topo_order) + [SINK]:
        if net == SINK:
            outputs = engine.netlist.primary_outputs
            t50 = nominal.circuit_delay()
            slew = max(nominal.slew_late(po) for po in outputs)
            inputs = {po: t50 - nominal.lat(po) for po in outputs}
            primaries = []
        else:
            t50, slew = nominal.lat(net), nominal.slew_late(net)
            inputs = input_slacks(net)
            primaries = collect(net)
        upstream_ub = max(
            (max(0.0, ubs.get(u, 0.0) - slack) for u, slack in inputs.items()),
            default=0.0,
        )
        ub, grid = bound_and_grid(t50, slew, primaries, upstream_ub)
        ubs[net] = ub
        rows = [
            (
                cc.index,
                _sample_primaries(
                    grid.times, window.eat, window.lat, pulse.lead,
                    pulse.rise, pulse.decay, pulse.peak, 0.0,
                ),
            )
            for cc, pulse, window in primaries
        ]
        built[net] = (grid, ub, inputs, rows)
    return built


# ----------------------------------------------------------------------
# The per-victim sweep
# ----------------------------------------------------------------------

@dataclass(eq=False)
class RefPseudo(_Segment):
    """Pseudo input atoms from one fanin's I-list (Section 3.1).

    ``shifts`` is each row's arrival shift at the victim.  In
    elimination mode ``total`` is the fanin's total shift and ``shifts``
    what remains of it once the row's set is removed.
    """

    fanin: str
    sets: List[EnvelopeSet]
    shifts: List[float]
    total: Optional[float] = None

    def __len__(self) -> int:
        return len(self.sets)

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.sets[r].couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.sets[r].blocked

    def label(self, r: int) -> str:
        return f"pseudo({self.fanin})"

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        own = (ctx.t50, ctx.slew, self.shifts[r])
        return own if self.total is None else own + (self.total,)

    sample = staticmethod(_Pseudo.sample)


@dataclass(eq=False)
class RefHigherOrder(_Segment):
    """Higher-order atoms of one victim: primaries re-sampled with their
    LAT moved by a set on the aggressor's own I-list_{i-1}."""

    sets: List[EnvelopeSet]
    primaries: List[int]  # index into ctx.primary_info per row
    index: List[int]  # the primary's coupling id per row
    widens: List[float]
    narrow: bool

    def __len__(self) -> int:
        return len(self.sets)

    def couplings(self, r: int) -> FrozenSet[int]:
        own = self.sets[r].couplings
        return own if self.narrow else own | {self.index[r]}

    def blocked(self, r: int) -> FrozenSet[int]:
        own = self.sets[r].blocked
        return own | {self.index[r]} if self.narrow else own

    def label(self, r: int) -> str:
        if self.narrow:
            return f"narrow:c{self.index[r]}"
        return f"order{self.sets[r].cardinality + 1}:c{self.index[r]}"

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        info = ctx.primary_info[self.primaries[r]]
        own = (_primary_row(info), self.widens[r])
        return own + (info.sampled,) if self.narrow else own

    sample = staticmethod(_HigherOrder.sample)


@dataclass(eq=False)
class RefMerge(_Segment):
    """Extensions of one I-list_{i-1} base by compatible single atoms
    (paper step 1): each row is ``atom.env + base.env``."""

    base: EnvelopeSet
    atoms: List[EnvelopeSet]

    def __len__(self) -> int:
        return len(self.atoms)

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.base.couplings | self.atoms[r].couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.base.blocked | self.atoms[r].blocked

    def label(self, r: int) -> str:
        return join_labels(self.base.label, self.atoms[r].label)

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        return self.atoms[r].env, self.base.env

    @staticmethod
    def sample(times: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        block = columns[0]
        block += columns[1]
        return block


@dataclass(eq=False)
class RefPool:
    """One victim's candidates of one cardinality, held as arrays."""

    matrix: np.ndarray
    keys: List[FrozenSet[int]]
    segments: List[_Segment]
    starts: List[int]
    scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def build(cls, parts: Sequence[Tuple[_Segment, np.ndarray]], n: int) -> "RefPool":
        segments = [seg for seg, _ in parts]
        starts: List[int] = []
        keys: List[FrozenSet[int]] = []
        for seg in segments:
            starts.append(len(keys))
            keys.extend([seg.couplings(r) for r in range(len(seg))])
        if not parts:
            matrix = np.empty((0, n))
        elif len(parts) == 1:
            matrix = parts[0][1]
        else:
            matrix = np.concatenate([block for _, block in parts])
        return cls(matrix, keys, segments, starts)

    def __len__(self) -> int:
        return len(self.keys)

    def locate(self, p: int) -> Tuple[_Segment, int]:
        s = bisect_right(self.starts, p) - 1
        return self.segments[s], p - self.starts[s]


def dedupe_rows(keys: Sequence[FrozenSet[int]], scores: np.ndarray, maximize: bool) -> List[int]:
    """Rows left after collapsing identical coupling sets (one row per
    set: the first seen, unless a later one scores strictly better)."""
    slot: Dict[FrozenSet[int], int] = {}
    sets = [slot.setdefault(key, len(slot)) for key in keys]
    if len(slot) == len(sets):
        return list(range(len(sets)))
    values = scores.tolist()
    rows = [-1] * len(slot)
    for p, s in enumerate(sets):
        q = rows[s]
        if q < 0 or (values[p] > values[q] if maximize else values[p] < values[q]):
            rows[s] = p
    return rows


class ReferenceEngine(TopKEngine):
    """The engine with its sweep run one victim at a time.

    Everything but the sweep is the engine's own (contexts, ticks, the
    degradation ladder, checkpoints, the prune log).  Each victim builds,
    scores and reduces its own pool, guarding its higher-order rows as
    they are sampled; the level sweep must match it in answers, counters,
    prune logs, certificates and the order of fault and budget events.
    """

    def _runs(self):
        return [[ctx] for ctx in self.contexts.values()]

    def _sweep(self, run, i: int) -> None:
        [ctx] = run
        self._tick(ctx.net, i, phase="sweep")
        with self.tracer.span("sweep", net=ctx.net, i=i) as sweep_span:
            with self._phase("generate"):
                pool = self._generate(ctx, i)
            if not pool:
                ctx.ilists[i] = []
                return
            with self._phase("score"):
                self._score(ctx, i, pool)
            with self._phase("reduce"):
                self._reduce_pool(ctx, i, pool)
            sweep_span.set(candidates=len(pool), kept=len(ctx.ilists[i]))

    def _generate(self, ctx: _VictimContext, i: int) -> RefPool:
        cfg = self.config
        parts: List[Tuple[_Segment, np.ndarray]] = []
        if cfg.use_pseudo:
            parts.extend(self._pseudo_atoms(ctx, i))
        if cfg.use_higher_order and i >= 2:
            parts.extend(self._higher_order_atoms(ctx, i))
        if i == 1:
            if ctx.primaries:
                primaries = _Primaries(list(ctx.primaries))
                parts.append((primaries, np.array([p.env for p in primaries.sets])))
        else:
            bases = ctx.ilists.get(i - 1, [])
            atoms = ctx.atoms1
            if bases and atoms:
                atom_env = np.array([a.env for a in atoms])
            for base in bases:
                which = [ai for ai, atom in enumerate(atoms) if base.compatible(atom)]
                if not which:
                    continue
                block = atom_env[which]
                block += base.env
                parts.append((RefMerge(base, [atoms[ai] for ai in which]), block))
        return RefPool.build(parts, ctx.grid.n)

    def _pool_set(self, pool: RefPool, p: int) -> EnvelopeSet:
        seg, r = pool.locate(p)
        if isinstance(seg, _Primaries):
            return seg.sets[r]
        return EnvelopeSet(
            couplings=pool.keys[p],
            env=pool.matrix[p].copy(),
            blocked=seg.blocked(r),
            score=float(pool.scores[p]),
            label=seg.label(r),
        )

    def _reduce_pool(self, ctx: _VictimContext, i: int, pool: RefPool) -> None:
        cfg = self.config
        atoms: Dict[int, EnvelopeSet] = {}
        if i == 1:
            atoms = {
                p: self._pool_set(pool, p)
                for p in range(pool.starts[-1] if ctx.primaries else len(pool))
                if len(pool.keys[p]) == 1
            }
            for primary, score in zip(
                ctx.primaries, pool.scores[len(pool) - len(ctx.primaries):].tolist()
            ):
                primary.score = score
            ctx.atoms1 = list(ctx.primaries) + list(atoms.values())
        rows = dedupe_rows(pool.keys, pool.scores, self.mode == ADDITION)
        self.stats.candidates += len(rows)
        with self.tracer.span("dominance", net=ctx.net, i=i, candidates=len(rows)):
            kept_rows, pairs = reduce_irredundant(
                pool.matrix,
                pool.scores,
                ctx.interval,
                ctx.grid,
                maximize=self.mode == ADDITION,
                max_sets=self._beam_cap,
                rows=rows,
            )
        self.metrics.observe("reduce.candidates", len(rows))
        self.stats.dominated += len(pairs)
        kept = [atoms[p] if p in atoms else self._pool_set(pool, p) for p in kept_rows]
        if pairs and (cfg.audit_dominance or cfg.certify):
            survivor = dict(zip(kept_rows, kept))
            pruned = np.array([p for _, p in pairs])
            self.prune_log.add_chunk(
                _PruneChunk(
                    ctx=ctx,
                    cardinality=i,
                    segments=pool.segments,
                    starts=pool.starts,
                    rows=pruned,
                    scores=pool.scores[pruned],
                    dominators=[survivor[d] for d, _ in pairs],
                )
            )
        ctx.ilists[i] = kept
        self.monitor.note_frontier(len(kept) * ctx.grid.n * 8)

    def _score(self, ctx: _VictimContext, i: int, pool: RefPool) -> None:
        self._tick(ctx.net, i, phase="score")
        self.metrics.observe("score.rows", len(pool))
        matrix = pool.matrix
        row_bad = ~np.isfinite(matrix).all(axis=1)
        if not row_bad.any():
            row_bad = matrix.min(axis=1) < -_NEGATIVE_ENV_TOL
        if row_bad.any():
            p = int(np.argmax(row_bad))
            seg, r = pool.locate(p)
            raise WaveformFaultError(
                "corrupted candidate envelope reached the scoring kernel",
                net=ctx.net,
                candidate=sorted(pool.keys[p]),
                label=seg.label(r) or None,
                phase="score",
            )
        if self.mode == ADDITION:
            pool.scores = batch_delay_noise(ctx.t50, ctx.slew, matrix, ctx.grid)
        else:
            remaining = np.clip(ctx.total_env[None, :] - matrix, 0.0, None)
            pool.scores = batch_delay_noise(ctx.t50, ctx.slew, remaining, ctx.grid)

    def _pseudo_atoms(self, ctx: _VictimContext, i: int) -> List[Tuple[_Segment, np.ndarray]]:
        parts: List[Tuple[_Segment, np.ndarray]] = []
        for u, slack in ctx.inputs.items():
            uctx = self.contexts.get(u)
            if uctx is None:
                continue
            shifts = [(cand, max(0.0, cand.score - slack)) for cand in uctx.ilists.get(i, [])]
            total: Optional[float] = None
            if self.mode == ADDITION:
                rows = [(cand, s) for cand, s in shifts if s > _TINY_NS]
            else:
                total = max(0.0, uctx.shift_tot - slack)
                rows = [(cand, s) for cand, s in shifts if total - s > _TINY_NS]
            if not rows:
                continue
            seg = RefPseudo(uctx.net, [cand for cand, _ in rows], [s for _, s in rows], total)
            ones = np.ones(len(seg))
            columns = [ctx.t50 * ones, ctx.slew * ones, np.array(seg.shifts)]
            if total is not None:
                columns.append(total * ones)
            parts.append((seg, readonly(RefPseudo.sample(ctx.grid.times, *columns))))
            self.stats.pseudo_atoms += len(seg)
        return parts

    def _higher_order_atoms(
        self, ctx: _VictimContext, i: int
    ) -> List[Tuple[_Segment, np.ndarray]]:
        addition = self.mode == ADDITION
        floor = max(_TINY_NS, 0.5 * ctx.grid.dt)
        which: List[int] = []
        picked: List[EnvelopeSet] = []
        widens: List[float] = []
        for j, info in enumerate(ctx.primary_info):
            actx = self.contexts.get(info.aggressor)
            if actx is None:
                continue
            index = info.coupling.index
            window = info.window
            for cand in actx.ilists.get(i - 1, []):
                if addition:
                    widen = cand.score
                    if widen <= floor or index in cand.couplings:
                        continue
                else:
                    reduction = max(0.0, actx.shift_tot - cand.score)
                    if reduction <= floor or index in cand.couplings:
                        continue
                    widen = max(window.eat, window.lat - reduction) - window.lat
                which.append(j)
                picked.append(cand)
                widens.append(round(widen, 9))
        if not which:
            return []
        seg = RefHigherOrder(
            picked,
            which,
            [ctx.primary_info[j].coupling.index for j in which],
            widens,
            narrow=not addition,
        )
        params = np.array([_primary_row(info) for info in ctx.primary_info])[which]
        block = _HigherOrder.moved(ctx.grid.times, params, np.array(widens))
        self._guard_rows(block, seg.index, net=ctx.net, phase="higher-order")
        if not addition:
            base = np.array([info.sampled for info in ctx.primary_info])[which]
            block = np.clip(base - block, 0.0, None)
            live = (block.max(axis=1, initial=0.0) > 1e-12).tolist()
            if not all(live):
                keep = [r for r, ok in enumerate(live) if ok]
                seg = RefHigherOrder(
                    [picked[r] for r in keep],
                    [which[r] for r in keep],
                    [seg.index[r] for r in keep],
                    [widens[r] for r in keep],
                    narrow=True,
                )
                block = block[keep]
        self.stats.higher_order_atoms += len(seg)
        return [(seg, readonly(block))] if len(seg) else []
