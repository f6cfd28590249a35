"""Batched construction kernels: vectorized neighborhood diversification.

The scalar ND strategies (:mod:`repro.core.diversification`) issue one
:meth:`~repro.core.distances.DistanceComputer.one_to_many` call per examined
candidate — a Python round trip per candidate, which is what makes the build
path per-node where the PR 6 query kernel is per-batch.  This module runs a
whole round of diversifications in **lockstep** (the same move PR 6 makes
for queries): each iteration takes every active request's *current* examined
candidate, scores it against that request's *current* selected prefix with
ONE segmented distance call, then applies all the accept/reject decisions
and advances every cursor.

**Determinism contract.**  Selected ids (and their order), ``PruneCounter``
totals, and ``distance_calls`` are bit-identical to calling the scalar
strategy once per request, at every backend:

* each lockstep segment holds exactly the ids the scalar loop would pass to
  ``one_to_many(candidate, selected[:n_selected])`` — same rows, same GEMV.
  This matters more than it looks: BLAS GEMV results depend on the *row
  count* (blocked accumulation), so a precomputed all-pairs matrix would
  differ from the scalar prefix calls in the last ulp and flip borderline
  accept decisions.  Batching across *requests* keeps every per-request
  computation literally the scalar one;
* accept tests reduce the scalar elementwise predicates exactly:
  ``all(dist_q < alpha * d)  ==  dist_q < min(alpha * d)`` for RRND and
  ``all(cos < cos_theta)  ==  max(cos) < cos_theta`` for MOND, with the
  elementwise operands computed by the very expressions of the scalar loop
  (including MOND's Python-float ``dist_q**2`` and its ``nan_to_num``
  post-processing);
* charging is the segmented call itself: every round charges exactly the
  prefix lengths the scalar loop would have, and MOND's ``dist_q == 0``
  early reject never joins a round (the scalar loop rejects before
  computing anything).

Backends ride the existing ``REPRO_KERNEL`` machinery
(:func:`~repro.core.kernels.resolve_backend`): ``scalar`` runs the
per-request reference strategies unchanged; ``python`` is the lockstep
kernel above.
"""

from __future__ import annotations

import math

import numpy as np

from .distances import DistanceComputer
from .diversification import (
    DIVERSIFIERS,
    PruneCounter,
    _sorted_candidates,
)
from .kernels import resolve_backend

__all__ = [
    "diversify_many",
    "prune_merged_many",
]

_STRATEGY_PARAMS = {
    "nond": (),
    "rnd": (),
    "rrnd": ("alpha",),
    "mond": ("theta_degrees",),
}


def _resolve_strategy(strategy: str, params: dict | None) -> tuple[str, dict]:
    """Validate a strategy name + parameter dict exactly like the scalar path."""
    key = str(strategy).lower()
    if key not in DIVERSIFIERS:
        raise KeyError(
            f"unknown diversifier {strategy!r}; choose from {sorted(DIVERSIFIERS)}"
        )
    params = dict(params or {})
    unexpected = set(params) - set(_STRATEGY_PARAMS[key])
    if unexpected:
        raise TypeError(
            f"{key}() got unexpected diversify parameters {sorted(unexpected)}"
        )
    if key == "rrnd":
        alpha = float(params.get("alpha", 1.3))
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        params["alpha"] = alpha
    elif key == "mond":
        theta = float(params.get("theta_degrees", 60.0))
        if theta < 0 or theta >= 180:
            raise ValueError("theta must be in [0, 180) degrees")
        params["theta_degrees"] = theta
    return key, params


class _Selection:
    """Cursor state of one request inside the lockstep loop."""

    __slots__ = ("idx", "ids", "dists", "dlist", "j", "n_sel", "sel_ids", "sel_dists")

    def __init__(self, idx: int, ids: np.ndarray, dists: np.ndarray, max_degree: int):
        self.idx = idx
        self.ids = ids
        self.dists = dists
        self.dlist = dists.tolist()  # Python floats, like the scalar loop's zip
        self.j = 0
        self.n_sel = 0
        cap = min(max_degree, ids.shape[0])
        self.sel_ids = np.empty(cap, dtype=np.int64)
        self.sel_dists = np.empty(cap, dtype=np.float64)


def _finish_one(computer, st, key, alpha, cos_theta, max_degree, stats):
    """Drive one request's selection to completion, scalar-style.

    Every distance evaluation is a plain ``one_to_many(cand, selected
    prefix)`` — literally the reference strategy's calls, so ids, stats, and
    charges match the scalar loop exactly.
    """
    dlist = st.dlist
    while st.j < len(dlist):
        if st.n_sel >= max_degree:
            break
        dist_q = dlist[st.j]
        if stats is not None:
            stats.examined += 1
        if st.n_sel == 0:
            st.sel_ids[0] = st.ids[st.j]
            st.sel_dists[0] = dist_q
            st.n_sel = 1
            st.j += 1
            continue
        if key == "mond":
            if dist_q == 0.0:
                if stats is not None:
                    stats.rejected += 1
                st.j += 1
                continue
            d_ij = computer.one_to_many(st.ids[st.j], st.sel_ids[: st.n_sel])
            d_qi = st.sel_dists[: st.n_sel]
            denom = 2.0 * d_qi * dist_q
            with np.errstate(divide="ignore", invalid="ignore"):
                cos_angle = (d_qi**2 + dist_q**2 - d_ij**2) / denom
            cos_angle = np.nan_to_num(cos_angle, nan=1.0, posinf=1.0, neginf=-1.0)
            ok = bool((cos_angle < cos_theta).all())
        else:
            to_selected = computer.one_to_many(st.ids[st.j], st.sel_ids[: st.n_sel])
            ok = bool((dist_q < alpha * to_selected).all())
        if ok:
            st.sel_ids[st.n_sel] = st.ids[st.j]
            st.sel_dists[st.n_sel] = dist_q
            st.n_sel += 1
        elif stats is not None:
            stats.rejected += 1
        st.j += 1


def diversify_many(
    computer: DistanceComputer,
    requests: list[tuple[np.ndarray, np.ndarray]],
    max_degree: int,
    strategy: str,
    params: dict | None = None,
    stats: PruneCounter | None = None,
    backend: str | None = None,
) -> list[np.ndarray]:
    """Run one ND strategy over a batch of candidate lists.

    ``requests`` is a sequence of ``(cand_ids, cand_dists)`` pairs.  Returns
    one kept-id array per request (int64, in selection order), with selected
    ids, ``stats`` totals, and ``computer.count`` bit-identical to calling
    the scalar strategy once per request in order.  ``backend`` follows
    ``REPRO_KERNEL`` semantics (see the module docstring).
    """
    key, params = _resolve_strategy(strategy, params)
    if resolve_backend(backend) == "scalar":
        base = DIVERSIFIERS[key]
        return [
            np.asarray(
                base(computer, cand_ids, cand_dists, max_degree, stats=stats, **params),
                dtype=np.int64,
            )
            for cand_ids, cand_dists in requests
        ]

    results: list[np.ndarray | None] = [None] * len(requests)
    states: list[_Selection] = []
    for idx, (cand_ids, cand_dists) in enumerate(requests):
        ids, dists = _sorted_candidates(cand_ids, cand_dists)
        if key == "nond":
            if stats is not None:
                stats.examined += min(len(ids), max_degree)
            results[idx] = np.asarray(ids[:max_degree], dtype=np.int64)
        elif ids.shape[0] <= 1 or max_degree <= 0:
            # zero or one candidate: selection is trivial and charge-free
            kept = ids[: min(max_degree, ids.shape[0])]
            if stats is not None:
                stats.examined += kept.shape[0]
            results[idx] = np.asarray(kept, dtype=np.int64)
        else:
            states.append(_Selection(idx, ids, dists, max_degree))
    if not states:
        return results  # type: ignore[return-value]

    if key == "mond":
        theta = params["theta_degrees"]
        cos_theta = math.cos(math.radians(theta))
        alpha = None
    else:
        alpha = params["alpha"] if key == "rrnd" else 1.0
        cos_theta = None

    while states:
        if len(states) == 1:
            # a lone request gains nothing from lockstep batching; finish it
            # with the scalar loop's own one_to_many calls (bit-identical by
            # definition — they ARE the reference calls)
            st = states[0]
            _finish_one(computer, st, key, alpha, cos_theta, max_degree, stats)
            results[st.idx] = st.sel_ids[: st.n_sel].copy()
            break
        survivors: list[_Selection] = []
        participants: list[_Selection] = []
        for st in states:
            # fast-forward through steps that need no distance computation
            while True:
                if st.n_sel >= max_degree or st.j >= len(st.dlist):
                    results[st.idx] = st.sel_ids[: st.n_sel].copy()
                    break
                if st.n_sel == 0:
                    if stats is not None:
                        stats.examined += 1
                    st.sel_ids[0] = st.ids[st.j]
                    st.sel_dists[0] = st.dlist[st.j]
                    st.n_sel = 1
                    st.j += 1
                    continue
                if key == "mond" and st.dlist[st.j] == 0.0:
                    # the scalar loop rejects before computing any distance
                    if stats is not None:
                        stats.examined += 1
                        stats.rejected += 1
                    st.j += 1
                    continue
                if stats is not None:
                    stats.examined += 1
                participants.append(st)
                break
        if not participants:
            break

        point_ids = np.asarray([st.ids[st.j] for st in participants], dtype=np.int64)
        lens = np.asarray([st.n_sel for st in participants], dtype=np.int64)
        seg_stops = np.cumsum(lens)
        seg_starts = seg_stops - lens
        flat_sel = np.concatenate([st.sel_ids[: st.n_sel] for st in participants])
        dqs = [st.dlist[st.j] for st in participants]
        # the charged call: segment r holds exactly the ids the scalar loop
        # would pass to one_to_many(candidate, selected[:n_selected])
        flat_d = computer.points_to_many_segmented(
            point_ids, flat_sel, seg_starts, seg_stops
        )

        if key == "mond":
            flat_qi = np.concatenate(
                [st.sel_dists[: st.n_sel] for st in participants]
            )
            dq_rep = np.repeat(np.asarray(dqs, dtype=np.float64), lens)
            # dist_q**2 via Python pow, as the scalar loop's float does it
            dqsq_rep = np.repeat(
                np.asarray([dq**2 for dq in dqs], dtype=np.float64), lens
            )
            denom = 2.0 * flat_qi * dq_rep
            with np.errstate(divide="ignore", invalid="ignore"):
                cos_angle = (flat_qi**2 + dqsq_rep - flat_d**2) / denom
            cos_angle = np.nan_to_num(cos_angle, nan=1.0, posinf=1.0, neginf=-1.0)
            # all(cos < cos_theta) == max(cos) < cos_theta (no NaN survives)
            accept = np.maximum.reduceat(cos_angle, seg_starts) < cos_theta
        else:
            scaled = alpha * flat_d
            # all(dist_q < s) == dist_q < min(s) (distances are never NaN)
            accept = np.asarray(dqs, dtype=np.float64) < np.minimum.reduceat(
                scaled, seg_starts
            )

        for st, ok in zip(participants, accept.tolist()):
            if ok:
                st.sel_ids[st.n_sel] = st.ids[st.j]
                st.sel_dists[st.n_sel] = st.dlist[st.j]
                st.n_sel += 1
            elif stats is not None:
                stats.rejected += 1
            st.j += 1
            survivors.append(st)
        states = survivors
    return results  # type: ignore[return-value]


def prune_merged_many(
    computer: DistanceComputer,
    owners: list[int],
    merged_lists: list[np.ndarray],
    max_degree: int,
    strategy: str,
    params: dict | None = None,
    stats: PruneCounter | None = None,
    backend: str | None = None,
) -> list[np.ndarray]:
    """Batched overflow re-prune: ``one_to_many`` + diversify per owner.

    Scalar equivalent, per item: ``dists = computer.one_to_many(owner,
    merged)`` (charged at the raw merged size, duplicates included) followed
    by the strategy on ``(merged, dists)``.  The batch variant computes all
    owner-to-merged distances in one segmented call and feeds
    :func:`diversify_many`; graph rows, stats, and counts are bit-identical.
    """
    if len(owners) != len(merged_lists):
        raise ValueError("owners and merged_lists must align")
    if not owners:
        return []
    backend_resolved = resolve_backend(backend)
    if backend_resolved == "scalar":
        key, params = _resolve_strategy(strategy, params)
        base = DIVERSIFIERS[key]
        out = []
        for owner, merged in zip(owners, merged_lists):
            dists = computer.one_to_many(owner, merged)
            out.append(
                np.asarray(
                    base(computer, merged, dists, max_degree, stats=stats, **params),
                    dtype=np.int64,
                )
            )
        return out
    merged_lists = [np.asarray(m, dtype=np.int64).ravel() for m in merged_lists]
    lens = np.asarray([m.shape[0] for m in merged_lists], dtype=np.int64)
    seg_stops = np.cumsum(lens)
    seg_starts = seg_stops - lens
    flat = np.concatenate(merged_lists) if lens.sum() else np.empty(0, dtype=np.int64)
    dists_flat = computer.points_to_many_segmented(
        np.asarray(owners, dtype=np.int64), flat, seg_starts, seg_stops
    )
    requests = [
        (merged, dists_flat[start:stop])
        for merged, start, stop in zip(merged_lists, seg_starts, seg_stops)
    ]
    return diversify_many(
        computer, requests, max_degree, strategy,
        params=params, stats=stats, backend=backend_resolved,
    )
