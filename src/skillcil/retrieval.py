"""State encoding, skill prototypes, and similarity-based retrieval.

The encoder is a fixed seeded linear projection followed by L2
normalization, so cosine similarity reduces to a dot product.  A skill
prototype is a small set of unit basis vectors (k-means centroids of the
skill's state embeddings); retrieval picks the prototype whose best basis
matches the query embedding, with ties broken by insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    NoSkillError,
    NumericFailureError,
    SkillConflictError,
)
from .rngs import rng_for

_EPS = 1e-12


@dataclass(frozen=True)
class StateEncoder:
    projection: np.ndarray  # (d_s, d_in)

    @property
    def in_dim(self):
        return self.projection.shape[1]

    @property
    def out_dim(self):
        return self.projection.shape[0]


def make_encoder(in_dim: int, out_dim: int, seed) -> StateEncoder:
    """Seeded Gaussian projection with orthonormalized rows.

    When out_dim > in_dim orthonormal rows cannot exist; the columns are
    orthonormalized instead, which still preserves inner products of the
    inputs under the (isometric) embedding.
    """
    rng = rng_for(seed, "encoder")
    if out_dim <= in_dim:
        g = rng.standard_normal((in_dim, out_dim))
        q, _ = np.linalg.qr(g)
        proj = q.T[:out_dim]
    else:
        g = rng.standard_normal((out_dim, in_dim))
        q, _ = np.linalg.qr(g)
        proj = q[:, :in_dim]
    return StateEncoder(projection=proj)


def encode(encoder: StateEncoder, x: np.ndarray) -> np.ndarray:
    """Unit-norm embedding of a state (or batch of states)."""
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != encoder.in_dim:
        raise DimensionError(
            f"encoder expects dim {encoder.in_dim}, got {x2.shape[1]}")
    s = x2 @ encoder.projection.T
    norms = np.linalg.norm(s, axis=1)
    if np.any(norms < _EPS):
        raise DegenerateInputError("input projects to the zero vector")
    s = s / norms[:, None]
    return s[0] if single else s


@dataclass
class SkillPrototype:
    skill_id: str
    bases: np.ndarray  # (k, d_s), rows unit-norm
    source_tasks: frozenset = frozenset()
    source_subgoal: int = -1
    source_stage: int = -1


def similarity(prototype: SkillPrototype, s: np.ndarray) -> float:
    """Max over bases of cosine similarity with the unit embedding s."""
    return float(np.max(prototype.bases @ s))


@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia_history: list
    reduced: bool = False


def kmeans(points: np.ndarray, k: int, seed, max_iters: int = 100) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding; centroids unit-normalized.

    If fewer points than k are given, k is reduced to len(points) and the
    reduction is flagged on the result.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        raise ValueError("kmeans needs at least one point")
    reduced = n < k
    k = min(k, n)
    rng = rng_for(seed, "kmeans")

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total < _EPS:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))

    labels = np.zeros(n, dtype=int)
    history = []
    for _ in range(max_iters):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        inertia = float(dist[np.arange(n), new_labels].sum())
        if history and inertia > history[-1] + 1e-9:
            raise NumericFailureError("k-means inertia increased")
        history.append(inertia)
        converged = bool(np.array_equal(new_labels, labels)) and len(history) > 1
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
        if converged:
            break

    norms = np.linalg.norm(centroids, axis=1)
    safe = norms > _EPS
    centroids[safe] = centroids[safe] / norms[safe, None]
    for j in np.where(~safe)[0]:
        # Degenerate centroid (antipodal cluster mean); fall back to a member.
        members = points[labels == j]
        centroids[j] = members[0] if len(members) else points[0]
    return KMeansResult(centroids=centroids, labels=labels,
                        inertia_history=history, reduced=reduced)


def build_prototype(embeddings: np.ndarray, k: int, skill_id: str, seed,
                    source_tasks=frozenset(), source_subgoal: int = -1,
                    source_stage: int = -1) -> SkillPrototype:
    result = kmeans(embeddings, k, seed)
    return SkillPrototype(skill_id=skill_id, bases=result.centroids,
                         source_tasks=frozenset(source_tasks),
                         source_subgoal=source_subgoal,
                         source_stage=source_stage)


class PrototypeMemory:
    """Ordered prototype bank with a one-to-one prototype -> adapter map."""

    def __init__(self):
        self.prototypes: list = []
        self.adapters: dict = {}

    def __len__(self):
        return len(self.prototypes)

    def add(self, prototype: SkillPrototype, adapter):
        if prototype.skill_id in self.adapters:
            raise SkillConflictError(
                f"skill {prototype.skill_id!r} already present")
        self.prototypes.append(prototype)
        self.adapters[prototype.skill_id] = adapter

    def remove(self, predicate):
        """Remove prototype-adapter pairs whose prototype matches predicate.

        Returns the removed (prototype, adapter) pairs; retained entries are
        untouched.
        """
        removed = []
        kept = []
        for proto in self.prototypes:
            if predicate(proto):
                removed.append((proto, self.adapters.pop(proto.skill_id)))
            else:
                kept.append(proto)
        self.prototypes = kept
        return removed

    def get_adapter(self, skill_id: str):
        return self.adapters[skill_id]

    def scores(self, s: np.ndarray) -> np.ndarray:
        """Per-prototype similarity S(chi_z, s) in insertion order."""
        return np.array([similarity(p, s) for p in self.prototypes])

    def retrieve(self, s: np.ndarray):
        """Argmax-by-similarity; earliest-inserted prototype wins ties."""
        if not self.prototypes:
            raise NoSkillError("prototype memory is empty")
        idx = int(np.argmax(self.scores(s)))  # argmax returns first maximum
        proto = self.prototypes[idx]
        return proto.skill_id, self.adapters[proto.skill_id]

    def retrieve_indices(self, embeddings: np.ndarray) -> np.ndarray:
        """Winning prototype index for each embedding row (vectorized)."""
        if not self.prototypes:
            raise NoSkillError("prototype memory is empty")
        stacked = np.vstack([p.bases for p in self.prototypes])
        sims = embeddings @ stacked.T  # (n, total_bases)
        offsets = np.cumsum([0] + [p.bases.shape[0] for p in self.prototypes])
        per_proto = np.stack([
            sims[:, offsets[i]:offsets[i + 1]].max(axis=1)
            for i in range(len(self.prototypes))
        ], axis=1)
        return per_proto.argmax(axis=1)

    def average_score(self, embeddings: np.ndarray) -> dict:
        """skill_id -> mean similarity over the embedding set."""
        if not self.prototypes:
            raise NoSkillError("prototype memory is empty")
        out = {}
        for proto in self.prototypes:
            sims = (embeddings @ proto.bases.T).max(axis=1)
            out[proto.skill_id] = float(sims.mean())
        return out

    def mode_retrieved(self, embeddings: np.ndarray) -> str:
        """Most frequently retrieved skill; ties go to earliest insertion."""
        idx = self.retrieve_indices(embeddings)
        counts = np.bincount(idx, minlength=len(self.prototypes))
        return self.prototypes[int(np.argmax(counts))].skill_id


# --- prototype bank serialization ---

_BANK_VERSION = 1


def bank_to_doc(memory: PrototypeMemory) -> dict:
    return {
        "version": _BANK_VERSION,
        "skills": [
            {
                "skill_id": p.skill_id,
                "bases": p.bases.tolist(),
                "source_tasks": sorted(p.source_tasks),
                "source_subgoal": p.source_subgoal,
                "source_stage": p.source_stage,
                "adapter": _adapter_to_doc(memory.adapters[p.skill_id]),
            }
            for p in memory.prototypes
        ],
    }


def bank_from_doc(doc: dict) -> PrototypeMemory:
    from .nets import LoraAdapter, LoraLayer

    memory = PrototypeMemory()
    for rec in doc["skills"]:
        proto = SkillPrototype(
            skill_id=rec["skill_id"],
            bases=np.array(rec["bases"], dtype=float),
            source_tasks=frozenset(rec["source_tasks"]),
            source_subgoal=rec["source_subgoal"],
            source_stage=rec["source_stage"],
        )
        ad = rec["adapter"]
        adapter = LoraAdapter(
            layers=[LoraLayer(a=np.array(layer["a"], dtype=float),
                              b=np.array(layer["b"], dtype=float))
                    for layer in ad["layers"]],
            rank=ad["rank"], scale=ad["scale"],
        )
        memory.add(proto, adapter)
    return memory


def _adapter_to_doc(adapter) -> dict:
    return {
        "rank": adapter.rank,
        "scale": adapter.scale,
        "layers": [{"a": lo.a.tolist(), "b": lo.b.tolist()}
                   for lo in adapter.layers],
    }
