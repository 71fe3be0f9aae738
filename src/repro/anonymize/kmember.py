"""k-member clustering anonymization (Byun, Kamra, Bertino, Li — DASFAA 2007).

The greedy algorithm the paper uses as DIVA's off-the-shelf Anonymize step:

1. Pick a random record; repeatedly start a new cluster from the record
   furthest from the previously completed cluster's seed.
2. Grow each cluster to exactly k members, always adding the record whose
   inclusion increases the cluster's information loss the least.
3. Distribute the fewer-than-k leftovers to their nearest clusters.

Information loss here matches the suppression model used throughout: adding
a record costs the number of QI attributes it newly breaks (an attribute is
"broken" once the cluster holds two distinct values, since suppression will
star it for the whole cluster).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..data.relation import Relation
from .base import Anonymizer
from .encoding import QIEncoder


class KMemberAnonymizer(Anonymizer):
    """Greedy k-member clustering with vectorized candidate scoring.

    Each cluster gathers the remaining rows once, into a candidate × QI
    mismatch matrix against its seed; its k − 1 picks then only re-sum
    that matrix over the still-uniform attributes.
    """

    name = "k-member"

    def cluster(self, relation: Relation, k: int) -> list[set[int]]:
        with obs.span(obs.SPAN_KMEMBER_CLUSTER):
            return self._cluster(relation, k)

    def _cluster(self, relation: Relation, k: int) -> list[set[int]]:
        self._require_enough_tuples(relation, k)
        enc = QIEncoder(relation)
        n = len(enc)
        matrix = enc.matrix
        width = matrix.shape[1]
        remaining = np.ones(n, dtype=bool)
        n_remaining = n
        clusters_rows: list[list[int]] = []

        current = int(self.rng.integers(0, n))
        while n_remaining >= k:
            candidates = np.flatnonzero(remaining)
            # Furthest-first seeding keeps clusters compact overall.
            dists = enc.distances_to(current, candidates)
            pick = int(np.argmax(dists))
            seed = int(candidates[pick])
            # The cluster's reference profile is the seed's row and never
            # changes, so one gather scores every pick: `mismatch` marks
            # where each candidate differs from the seed, and `broken`
            # marks attributes already carrying more than one value.
            mismatch = matrix[candidates] != matrix[seed]
            taken = np.zeros(len(candidates), dtype=bool)
            taken[pick] = True
            broken = np.zeros(width, dtype=bool)
            members = [seed]
            for _ in range(k - 1):
                # Cost of adding candidate c = number of still-uniform
                # attributes whose value differs from the cluster's; rows
                # already taken cost more than any real candidate, so
                # argmin keeps its first-index tie-break over free rows.
                costs = mismatch[:, ~broken].sum(axis=1)
                costs[taken] = width + 1
                best = int(np.argmin(costs))
                broken |= mismatch[best]
                taken[best] = True
                members.append(int(candidates[best]))
            remaining[candidates[taken]] = False
            n_remaining -= k
            clusters_rows.append(members)
            current = seed

        leftovers = np.flatnonzero(remaining)
        if len(leftovers) and not clusters_rows:
            # len(relation) >= k guarantees at least one cluster exists.
            raise AssertionError("unreachable: no cluster formed")
        if len(leftovers):
            self._assign_leftovers(matrix, clusters_rows, leftovers)
        obs.incr_many(
            {
                obs.KMEMBER_CLUSTERS: len(clusters_rows),
                obs.KMEMBER_LEFTOVERS: int(len(leftovers)),
            }
        )

        tids = enc.tids
        return [set(int(tids[r]) for r in rows) for rows in clusters_rows]

    @staticmethod
    def _assign_leftovers(
        matrix: np.ndarray,
        clusters_rows: list[list[int]],
        leftovers: np.ndarray,
    ) -> None:
        """Distribute the < k leftover rows to their cheapest clusters.

        Each leftover joins the cluster whose uniform profile it disturbs
        least.  Every cluster's uniform mask is computed once up front;
        each assignment then scores all clusters in one broadcasted pass
        and incrementally updates only the chosen cluster's mask (its
        first-member profile never changes, so ``uniform &= ~diffs`` is
        exactly the from-scratch recompute).  Mutates ``clusters_rows``.
        """
        profiles = matrix[[rows[0] for rows in clusters_rows]]
        uniform_masks = np.stack(
            [
                (matrix[rows] == profile).all(axis=0)
                for rows, profile in zip(clusters_rows, profiles)
            ]
        )
        sizes = np.array([len(rows) for rows in clusters_rows])
        for row in leftovers:
            diffs = (profiles != matrix[row]) & uniform_masks
            costs = diffs.sum(axis=1) * (sizes + 1)
            best = int(np.argmin(costs))
            uniform_masks[best] &= ~diffs[best]
            sizes[best] += 1
            clusters_rows[best].append(int(row))
