"""Weighting masks for pixel-level blending of two images.

A mask is an (H, W) float32 array of blend weights in [0, 1], applied
identically to every channel. Weight 1 keeps the first (forgetting) image's
pixel, weight 0 replaces it with the second (remaining) image's pixel.
"""

import numpy as np

from .errors import ValidationError

GRADUAL = "gradual"
CONSTANT = "constant"
CUTMIX_CORNER = "cutmix-corner"

MASK_FAMILIES = (GRADUAL, CONSTANT, CUTMIX_CORNER)


def gradual_base(height: int, width: int) -> np.ndarray:
    """Column-wise ramp: 0 at the edge columns, 1 at the two center columns.

    Column i (1-indexed) carries 2(i-1)/(W-2) up to i = floor(W/2) and
    2(W-i)/(W-2) above it; rows are constant. The first branch is applied at
    the midpoint so every value stays within [0, 1] for even widths (the
    second branch would exceed 1 there); odd widths additionally saturate
    the middle column at 1.
    """
    if width < 3:
        raise ValidationError(f"gradual mask needs width >= 3, got {width}")
    if height < 1:
        raise ValidationError(f"gradual mask needs height >= 1, got {height}")
    cols = np.arange(1, width + 1, dtype=np.float64)
    half = width // 2
    ramp = np.where(cols <= half, 2.0 * (cols - 1), 2.0 * (width - cols)) / (width - 2)
    ramp = np.minimum(ramp, 1.0)
    return np.ascontiguousarray(np.broadcast_to(ramp, (height, width)).astype(np.float32))


def complement(mask: np.ndarray) -> np.ndarray:
    """Elementwise 1 - value (correctly rounded via a wider intermediate)."""
    return (1.0 - mask.astype(np.float64)).astype(np.float32)


def rotate90(mask: np.ndarray) -> np.ndarray:
    """Counter-clockwise quarter turn."""
    return np.ascontiguousarray(np.rot90(mask))


def scale(mask: np.ndarray, delta: float) -> np.ndarray:
    """Shift every weight by delta, clipped back into [0, 1]."""
    if not np.isfinite(delta):
        raise ValidationError(f"mask scale delta must be finite, got {delta}")
    return np.clip(mask.astype(np.float64) + delta, 0.0, 1.0).astype(np.float32)


def four_masks(height: int, width: int, delta: float = 0.0) -> list[np.ndarray]:
    """The four gradual masks: ramp, its complement, and their rotations.

    All four are built first, then shifted by delta.
    """
    m1 = gradual_base(height, width)
    m2 = complement(m1)
    m3 = rotate90(m1)
    m4 = rotate90(m2)
    return [scale(m, delta) for m in (m1, m2, m3, m4)]


def constant_masks(height: int, width: int, delta: float = 0.0) -> list[np.ndarray]:
    """Four identical flat masks at clip(0.5 + delta)."""
    base = np.full((height, width), 0.5, dtype=np.float32)
    return [scale(base, delta) for _ in range(4)]


def cutmix_corner_masks(height: int, width: int, edge_len: int) -> list[np.ndarray]:
    """Four masks, each zeroing an edge_len x edge_len patch in one corner.

    The patch is where the second image shows through. Corner order:
    top-left, top-right, bottom-left, bottom-right.
    """
    if edge_len < 0 or edge_len > min(height, width):
        raise ValidationError(
            f"cutmix edge_len must be in [0, {min(height, width)}], got {edge_len}"
        )
    masks = []
    corners = [(0, 0), (0, width - edge_len), (height - edge_len, 0),
               (height - edge_len, width - edge_len)]
    for top, left in corners:
        mask = np.ones((height, width), dtype=np.float32)
        if edge_len > 0:
            mask[top:top + edge_len, left:left + edge_len] = 0.0
        masks.append(mask)
    return masks


def build_mask_set(family: str, height: int, width: int, delta: float = 0.0,
                   edge_len: int | None = None) -> list[np.ndarray]:
    """Build the four-mask set for a named family; only cutmix-corner takes
    an `edge_len`."""
    if edge_len is not None and family in (GRADUAL, CONSTANT):
        raise ValidationError(f"the {family} mask family takes no edge length, got {edge_len}")
    if family == GRADUAL:
        return four_masks(height, width, delta)
    if family == CONSTANT:
        return constant_masks(height, width, delta)
    if family == CUTMIX_CORNER:
        if edge_len is None:
            edge_len = min(height, width) // 2
        return cutmix_corner_masks(height, width, edge_len)
    raise ValidationError(f"unknown mask family {family!r}; expected one of {MASK_FAMILIES}")


def dump_csv(masks: list[np.ndarray], out_stem: str) -> list[str]:
    """Write one CSV per mask (row-major, 6 decimal places); return the paths."""
    paths = []
    for j, mask in enumerate(masks, start=1):
        path = f"{out_stem}_{j}.csv"
        with open(path, "w", encoding="ascii") as fh:
            for row in mask:
                fh.write(",".join(f"{v:.6f}" for v in row))
                fh.write("\n")
        paths.append(path)
    return paths
