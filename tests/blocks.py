"""Test helper: feature blocks built from Descriptor objects."""

import numpy as np

from longnav.features import DEFAULT_DESCRIPTOR_WIDTH, FeatureBlock


def block_from_descriptors(x, y, descriptors, **state) -> FeatureBlock:
    """A block of len(descriptors) rows; all descriptors share one width."""
    width = descriptors[0].width if descriptors else DEFAULT_DESCRIPTOR_WIDTH
    if any(d.width != width for d in descriptors):
        raise ValueError("descriptor width mismatch within block")
    words = np.array([d.words for d in descriptors], dtype=np.uint64)
    return FeatureBlock(np.asarray(x, dtype=np.float64),
                        np.asarray(y, dtype=np.float64),
                        words.reshape(len(descriptors), (width + 63) // 64),
                        width, **state)
