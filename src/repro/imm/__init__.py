"""Image Matching service (OpenCV-SURF replacement).

Pipeline (paper Figure 5): integral image → fast-Hessian scale space →
keypoints (FE) → Haar-wavelet orientation + 64-d descriptors (FD) → ANN
match against the image database.
"""

from repro.imm.database import ImageDatabase, MatchResult
from repro.imm.descriptor import DESCRIPTOR_SIZE, describe_keypoint, describe_keypoints
from repro.imm.hessian import FastHessianDetector, Keypoint
from repro.imm.image import Image, SceneGenerator
from repro.imm.integral import box_sum, integral_image
from repro.imm.kdtree import KDTree
from repro.imm.lsh import LSHIndex
from repro.imm.matcher import AnnMatcher, DescriptorMatch, match_bruteforce
from repro.imm.surf import Surf, SurfFeatures
from repro.imm.verify import VerificationResult, ransac_translation

__all__ = [
    "AnnMatcher",
    "DESCRIPTOR_SIZE",
    "DescriptorMatch",
    "FastHessianDetector",
    "Image",
    "ImageDatabase",
    "KDTree",
    "Keypoint",
    "LSHIndex",
    "MatchResult",
    "VerificationResult",
    "ransac_translation",
    "SceneGenerator",
    "Surf",
    "SurfFeatures",
    "box_sum",
    "describe_keypoint",
    "describe_keypoints",
    "integral_image",
    "match_bruteforce",
]
