"""Image Matching service (OpenCV-SURF replacement).

Pipeline (paper Figure 5): integral image → fast-Hessian scale space →
keypoints (FE) → upright 64-d descriptors (FD, U-SURF: no orientation is
assigned) → ANN match against the image database.  ``suite.fd`` times the
same ``Surf.describe`` call.
"""

from repro.imm.database import ImageDatabase, MatchResult
from repro.imm.descriptor import DESCRIPTOR_SIZE, describe_keypoints
from repro.imm.hessian import FastHessianDetector, Keypoint
from repro.imm.image import Image, SceneGenerator
from repro.imm.integral import integral_image
from repro.imm.kdtree import KDTree
from repro.imm.matcher import AnnMatcher, DescriptorMatch, match_bruteforce
from repro.imm.surf import Surf, SurfFeatures

__all__ = [
    "AnnMatcher",
    "DESCRIPTOR_SIZE",
    "DescriptorMatch",
    "FastHessianDetector",
    "Image",
    "ImageDatabase",
    "KDTree",
    "Keypoint",
    "MatchResult",
    "SceneGenerator",
    "Surf",
    "SurfFeatures",
    "describe_keypoints",
    "integral_image",
    "match_bruteforce",
]
