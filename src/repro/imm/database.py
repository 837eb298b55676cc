"""Image database and the Image Matching (IMM) service.

Database images are SURF-described at registration time; a query image is
described on arrival and its descriptors are matched by ANN search against
the pooled database descriptors.  "The database image with the highest
number of matches is returned" (Section 2.3.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ImageError
from repro.imm.image import Image, SceneGenerator
from repro.imm.matcher import AnnMatcher
from repro.imm.surf import Surf, SurfFeatures
from repro.obs.context import section


@dataclass(frozen=True)
class MatchResult:
    """IMM service output for one query."""

    image_name: str
    votes: int
    total_matches: int
    n_query_keypoints: int


class ImageDatabase:
    """The Mobile-Visual-Search stand-in: registered scenes + ANN matching."""

    def __init__(self, surf: Optional[Surf] = None, ratio: float = 0.8,
                 max_checks: Optional[int] = 64):
        self.surf = surf if surf is not None else Surf()
        self.ratio = ratio
        self.max_checks = max_checks
        self._names: List[str] = []
        self._features: List[SurfFeatures] = []
        self._owner_of_row: List[int] = []
        self._matcher: Optional[AnnMatcher] = None

    # -- registration ------------------------------------------------------------

    def add(self, image: Image) -> int:
        """Register an image; returns its database id."""
        features = self.surf.extract(image)
        if len(features) == 0:
            raise ImageError(f"no keypoints found in {image.name or 'image'}")
        return self.register(image.name or f"image-{len(self._names)}", features)

    def register(self, name: str, features: SurfFeatures) -> int:
        """Register already-extracted features under ``name``; returns the id."""
        image_id = len(self._names)
        self._names.append(name)
        self._features.append(features)
        self._owner_of_row.extend([image_id] * len(features))
        self._matcher = None  # invalidate
        return image_id

    def add_all(self, images) -> None:
        for image in images:
            self.add(image)

    @classmethod
    def with_scenes(cls, n_scenes: int = 10, generator: Optional[SceneGenerator] = None,
                    **kwargs) -> "ImageDatabase":
        generator = generator if generator is not None else SceneGenerator()
        database = cls(**kwargs)
        database.add_all(generator.scenes(n_scenes))
        return database

    # -- matching -----------------------------------------------------------------

    def _ensure_matcher(self) -> AnnMatcher:
        if self._matcher is None:
            if not self._features:
                raise ImageError("image database is empty")
            pooled = np.vstack([f.descriptors for f in self._features])
            self._matcher = AnnMatcher(
                pooled, ratio=self.ratio, max_checks=self.max_checks
            )
        return self._matcher

    def _vote(self, query: Image):
        """(features, matches, votes): the query's descriptor matches and,
        per database image id, how many of them it owns (first-seen order)."""
        features = self.surf.extract(query)
        with section("imm.ann"):
            matches = self._ensure_matcher().match(features.descriptors)
            votes = Counter(self._owner_of_row[m.database_index] for m in matches)
        return features, matches, votes

    def match(self, query: Image) -> MatchResult:
        """Identify the database image with the most descriptor votes."""
        features, matches, votes = self._vote(query)
        if not votes:
            return MatchResult("", 0, 0, len(features))
        best_id, best_votes = votes.most_common(1)[0]
        return MatchResult(
            image_name=self._names[best_id],
            votes=best_votes,
            total_matches=len(matches),
            n_query_keypoints=len(features),
        )

    def top_matches(self, query: Image, k: int = 3) -> List[MatchResult]:
        """The ``k`` database images with the most descriptor votes.

        Deterministic ranking — by descending votes, then image name — so
        shard scatter/gather merges (:mod:`repro.serving.cluster.sharding`)
        are replay-stable however the per-shard candidate lists interleave.
        Returns an empty list when no descriptor matched (unlike
        :meth:`match`, which returns an unmatched sentinel result).
        """
        if k < 1:
            raise ImageError("top_matches needs k >= 1")
        features, matches, votes = self._vote(query)
        ranked = sorted(
            votes.items(), key=lambda item: (-item[1], self._names[item[0]])
        )
        return [
            MatchResult(
                image_name=self._names[image_id],
                votes=image_votes,
                total_matches=len(matches),
                n_query_keypoints=len(features),
            )
            for image_id, image_votes in ranked[:k]
        ]

    @property
    def n_images(self) -> int:
        return len(self._names)
