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

from repro.profiling import Profiler
from repro.errors import ImageError
from repro.imm.image import Image, SceneGenerator
from repro.imm.matcher import AnnMatcher, DescriptorMatch
from repro.imm.surf import Surf, SurfFeatures
from repro.imm.verify import ransac_translation


@dataclass(frozen=True)
class MatchResult:
    """IMM service output for one query."""

    image_name: str
    votes: int
    total_matches: int
    n_query_keypoints: int
    inliers: int = 0  # geometric-verification inliers (0 when not verified)

    @property
    def matched(self) -> bool:
        return self.votes > 0


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
        self._keypoint_of_row: List[int] = []
        self._matcher: Optional[AnnMatcher] = None

    # -- registration ------------------------------------------------------------

    def add(self, image: Image) -> int:
        """Register an image; returns its database id."""
        features = self.surf.extract(image)
        if len(features) == 0:
            raise ImageError(f"no keypoints found in {image.name or 'image'}")
        image_id = len(self._names)
        self._names.append(image.name or f"image-{image_id}")
        self._features.append(features)
        self._owner_of_row.extend([image_id] * len(features))
        self._keypoint_of_row.extend(range(len(features)))
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

    def _vote(self, query: Image, profiler: Profiler):
        """(features, matches, votes): the query's descriptor matches and,
        per database image id, how many of them it owns (first-seen order)."""
        features = self.surf.extract(query, profiler=profiler)
        with profiler.section("imm.ann"):
            matches = self._ensure_matcher().match(features.descriptors)
            votes = Counter(self._owner_of_row[m.database_index] for m in matches)
        return features, matches, votes

    def match(
        self,
        query: Image,
        profiler: Optional[Profiler] = None,
        verify: bool = False,
        verify_top_k: int = 3,
    ) -> MatchResult:
        """Identify the database image best supported by descriptor matches.

        With ``verify=True``, the ``verify_top_k`` images with the most
        descriptor votes are re-ranked by RANSAC translation inliers
        (:mod:`repro.imm.verify`), suppressing geometrically inconsistent
        vote winners.
        """
        profiler = profiler if profiler is not None else Profiler()
        features, matches, votes = self._vote(query, profiler)
        if not votes:
            return MatchResult("", 0, 0, len(features))

        if not verify:
            best_id, best_votes = votes.most_common(1)[0]
            return MatchResult(
                image_name=self._names[best_id],
                votes=best_votes,
                total_matches=len(matches),
                n_query_keypoints=len(features),
            )

        with profiler.section("imm.verify"):
            best_id = -1
            best_inliers = -1
            for image_id, image_votes in votes.most_common(verify_top_k):
                local = [
                    DescriptorMatch(
                        m.query_index,
                        self._keypoint_of_row[m.database_index],
                        m.distance,
                    )
                    for m in matches
                    if self._owner_of_row[m.database_index] == image_id
                ]
                result = ransac_translation(
                    features.keypoints,
                    self._features[image_id].keypoints,
                    local,
                )
                if result.inliers > best_inliers:
                    best_inliers = result.inliers
                    best_id = image_id
        return MatchResult(
            image_name=self._names[best_id],
            votes=votes[best_id],
            total_matches=len(matches),
            n_query_keypoints=len(features),
            inliers=best_inliers,
        )

    def top_matches(
        self,
        query: Image,
        k: int = 3,
        profiler: Optional[Profiler] = None,
    ) -> List[MatchResult]:
        """The ``k`` database images with the most descriptor votes.

        Deterministic ranking — by descending votes, then image name — so
        shard scatter/gather merges (:mod:`repro.serving.cluster.sharding`)
        are replay-stable however the per-shard candidate lists interleave.
        Returns an empty list when no descriptor matched (unlike
        :meth:`match`, which returns an unmatched sentinel result).
        """
        if k < 1:
            raise ImageError("top_matches needs k >= 1")
        features, matches, votes = self._vote(
            query, profiler if profiler is not None else Profiler()
        )
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

    @property
    def n_descriptors(self) -> int:
        return len(self._owner_of_row)

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist names, keypoints, and descriptors to an ``.npz`` file.

        The matcher is rebuilt on load; images themselves are not stored
        (the database only ever needs their features).
        """
        if not self._features:
            raise ImageError("nothing to save: database is empty")
        keypoint_rows = []
        descriptor_blocks = []
        counts = []
        for features in self._features:
            counts.append(len(features))
            descriptor_blocks.append(features.descriptors)
            for kp in features.keypoints:
                keypoint_rows.append([kp.y, kp.x, kp.scale, kp.response, kp.sign])
        np.savez_compressed(
            path,
            names=np.array(self._names),
            counts=np.array(counts, dtype=np.int64),
            keypoints=np.array(keypoint_rows, dtype=float),
            descriptors=np.vstack(descriptor_blocks),
        )

    @classmethod
    def load(cls, path: str, **kwargs) -> "ImageDatabase":
        """Restore a database saved with :meth:`save`."""
        from repro.imm.hessian import Keypoint
        from repro.imm.surf import SurfFeatures

        archive = np.load(path, allow_pickle=False)
        database = cls(**kwargs)
        cursor = 0
        for name, count in zip(archive["names"], archive["counts"]):
            rows = archive["keypoints"][cursor : cursor + count]
            descriptors = archive["descriptors"][cursor : cursor + count]
            keypoints = tuple(
                Keypoint(y=row[0], x=row[1], scale=row[2],
                         response=row[3], sign=int(row[4]))
                for row in rows
            )
            image_id = len(database._names)
            database._names.append(str(name))
            database._features.append(SurfFeatures(keypoints, descriptors))
            database._owner_of_row.extend([image_id] * int(count))
            database._keypoint_of_row.extend(range(int(count)))
            cursor += int(count)
        return database
