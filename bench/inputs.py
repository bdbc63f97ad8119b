"""Seeded workload inputs.

Each generator is a pure function of its arguments and ``seed``: the
same seed gives identical inputs, a different seed different ones, and
:meth:`Inputs.sha256` fingerprints them for the result file. The program
under test only ever receives the generated inputs, never the seed.

Ingest and probe payloads are clones of training papers with fresh ids
and no references or citations, so each one takes the genuine
cold-start path: the model has never seen it and it has no citation
edges into the graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bench import params


@dataclass(frozen=True)
class Request:
    """One unit of generated work.

    ``kind`` is ``fit`` (``train``), ``query``, ``probe`` or ``ingest``.
    ``due`` is the open-loop send time in seconds from the start of the
    run (``None`` in closed loops). ``paper`` carries a probe or ingest
    payload, ``template`` the id of the training paper it was cloned
    from, and ``seed`` a fit's model seed.
    """

    kind: str
    due: float | None = None
    user: str | None = None
    paper: object | None = None
    template: str | None = None
    seed: int | None = None

    def signature(self) -> str:
        due = "-" if self.due is None else format(self.due, ".9f")
        paper = self.paper.id if self.paper is not None else "-"
        seed = "-" if self.seed is None else self.seed
        return (f"{self.kind}:{due}:{self.user or '-'}:{paper}:"
                f"{self.template or '-'}:{seed}")


@dataclass(frozen=True)
class Inputs:
    """The full generated request sequence of one run."""

    workload: str
    seed: int
    requests: tuple[Request, ...]

    def sha256(self) -> str:
        digest = hashlib.sha256(self.workload.encode())
        for request in self.requests:
            digest.update(b"\n")
            digest.update(request.signature().encode())
        return digest.hexdigest()

    def halves(self) -> tuple[tuple[Request, ...], tuple[Request, ...]]:
        """Split for a traced run: untraced first half, traced second.

        Open-loop halves split at half the schedule's span, and the
        second half's send times are shifted to start from zero.
        """
        requests = self.requests
        if not requests or requests[0].due is None:
            middle = len(requests) // 2
            return requests[:middle], requests[middle:]
        cut = requests[-1].due / 2
        first = tuple(r for r in requests if r.due < cut)
        second = tuple(dataclasses.replace(r, due=r.due - cut)
                       for r in requests if r.due >= cut)
        return first, second


def clone_paper(template, kind: str, index: int):
    """A never-seen copy of *template*: fresh id, no citation edges."""
    return dataclasses.replace(template, id=f"bench-{kind}-{index:06d}",
                               references=(), citation_count=0)


def train_inputs(seed: int, seconds: float) -> Inputs:
    """Model seeds for the fits of one ``train`` run."""
    spec = params.TRAIN
    count = max(spec["min_fits"], round(seconds * spec["fits_per_second"]))
    rng = np.random.default_rng(seed)
    seeds = rng.integers(2**31, size=count)
    return Inputs("train", seed, tuple(Request("fit", seed=int(s))
                                       for s in seeds))


def rank_closed_inputs(user_ids: Sequence[str], seed: int,
                       seconds: float) -> Inputs:
    """Round-robin over every user, in a seeded order."""
    count = max(1, round(seconds * params.RANK_CLOSED["queries_per_second"]))
    order = np.random.default_rng(seed).permutation(len(user_ids))
    return Inputs("rank_closed", seed, tuple(
        Request("query", user=str(user_ids[order[i % len(order)]]))
        for i in range(count)))


def serve_open_inputs(user_ids: Sequence[str], activity: Sequence[int],
                      templates: Sequence, seed: int,
                      seconds: float) -> Inputs:
    """An open-loop schedule of exactly ``rate * seconds`` requests,
    split exactly by the frozen mix and sent at a constant pace.

    Equal counts and even spacing keep the offered work the same for
    every seed; the seed decides the order of kinds, the pacing phase,
    the users and the payloads. (Poisson send times made every latency
    above the median swing by 50% or more between seeds at this run
    length: a few dozen slow ingests and probes land together or not.)
    A query picks user ``i`` with probability proportional to
    ``activity[i]``, the number of papers in that user's profile: the
    corpus's own skew decides how often the default LRU sees repeats.
    """
    spec = params.SERVE_OPEN
    rng = np.random.default_rng(seed)
    total = max(1, round(spec["rate"] * seconds))
    counts = {kind: round(total * share)
              for kind, share in spec["mix"].items() if kind != "query"}
    kinds = ["query"] * (total - sum(counts.values()))
    for kind, count in counts.items():
        kinds += [kind] * count
    kinds = [kinds[i] for i in rng.permutation(total)]
    dues = (np.arange(total) + rng.uniform()) * (seconds / total)
    popularity = np.asarray(activity, dtype=float)
    popularity /= popularity.sum()
    requests = []
    for i, (kind, due) in enumerate(zip(kinds, dues)):
        if kind == "query":
            user = str(user_ids[int(rng.choice(len(popularity),
                                               p=popularity))])
            requests.append(Request(kind, due=float(due), user=user))
        else:
            template = templates[int(rng.integers(len(templates)))]
            requests.append(Request(kind, due=float(due), template=template.id,
                                    paper=clone_paper(template, kind, i)))
    return Inputs("serve_open", seed, tuple(requests))


def ingest_bulk_inputs(templates: Sequence, seed: int,
                       seconds: float) -> Inputs:
    """Cold-start payloads cloned from seeded training papers."""
    count = max(2, round(seconds * params.INGEST_BULK["ingests_per_second"]))
    picks = np.random.default_rng(seed).integers(len(templates), size=count)
    return Inputs("ingest_bulk", seed, tuple(
        Request("ingest", template=templates[int(j)].id,
                paper=clone_paper(templates[int(j)], "ingest", i))
        for i, j in enumerate(picks)))
