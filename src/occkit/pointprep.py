"""Per-voxel point densification and reduction.

Sparse voxels are padded with uniformly generated synthetic points, dense
voxels are reduced with farthest point sampling, and voxels already in the
target range pass through untouched. The result is the set of 3D reference
points later projected onto the camera images.
"""

from __future__ import annotations

import csv
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import SOURCE_RAW, SOURCE_SYNTHETIC, GridConfig, VoxelPoints, cloud_xyz

_OCFP_MAGIC = b"OCFP"
_OCFP_VERSION = 1


@dataclass(frozen=True)
class PreprocessConfig:
    """Hyperparameters of the point pre-sampling stage.

    Voxels with at most ``tau`` points are padded to exactly ``theta``, and
    voxels with no point to ``empty_fill``; voxels with more than ``theta``
    points are reduced to ``theta`` via farthest point sampling.
    """

    tau: int
    theta: int
    empty_fill: int
    seed: int = 0

    def __post_init__(self):
        if self.theta < 1:
            raise ConfigError("theta must be >= 1")
        if self.tau < 0 or self.tau >= self.theta:
            raise ConfigError("tau must satisfy 0 <= tau < theta")
        if self.empty_fill < 0 or self.empty_fill > self.theta:
            raise ConfigError("empty_fill must satisfy 0 <= empty_fill <= theta")


def voxel_rng(seed: int, index) -> np.random.Generator:
    """Independent generator stream for one voxel, derived from (seed, index)."""
    ix, iy, iz = (int(v) for v in index)
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, ix, iy, iz])


# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_M32 = 0xFFFFFFFF
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(x: int) -> list:
    """``x >= 0`` as little-endian 32-bit words, as SeedSequence splits it."""
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def voxel_uniforms(seed: int, keys, count: int):
    """Yield, ``count`` times, the (V,) vector of every voxel's next draw.

    Draw ``k`` of voxel ``v`` is ``voxel_rng(seed, keys[v]).random(count)[k]``
    bit for bit, made for all voxels at once: the SeedSequence pool mix runs
    on uint32 vectors, PCG64 is seeded from the pool and stepped in uint64
    limbs, and each 64-bit output x becomes ``(x >> 11) * 2**-53``.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    pool = [np.empty(len(keys), dtype=np.uint32) for _ in range(4)]
    # A coordinate of 2**32 or more is two entropy words, so the keys are
    # mixed in batches of one word layout each.
    wide = keys > _M32
    for layout in itertools.product((False, True), repeat=3):
        batch = (wide == layout).all(axis=1)
        if not batch.any():
            continue
        words = [np.full(batch.sum(), w, dtype=np.uint32)
                 for w in _uint32_words(seed & 0xFFFFFFFFFFFFFFFF)]
        for j, two in enumerate(layout):
            col = keys[batch, j]
            words.append((col & _M32).astype(np.uint32))
            if two:
                words.append((col >> 32).astype(np.uint32))
        for dst, mixed in zip(pool, _seed_pool(words)):
            dst[batch] = mixed
    yield from _pcg64_doubles(pool, count)


def _seed_pool(entropy: list) -> list:
    """SeedSequence's 4-word pool from per-voxel uint32 entropy words (at
    least 4 of them: the seed's, then one or two per key coordinate)."""
    const = _HASH_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = (const * _MULT_A) & _M32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_doubles(pool: list, count: int):
    """Yield ``count`` times the next double of PCG64 seeded from each pool."""
    const = _HASH_B
    words = []  # generate_state(4, uint64): 8 uint32 words cycled over the pool
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _M32
        v = v * np.uint32(const)
        words.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    u1, u11, u32, u58, u63, u64 = (np.uint64(b) for b in (1, 11, 32, 58, 63, 64))
    init_hi, init_lo, seq_hi, seq_lo = (words[i] | (words[i + 1] << u32) for i in (0, 2, 4, 6))
    # PCG64 seeding: inc = seq << 1 | 1 and state = inc + init, then one step.
    inc_hi = (seq_hi << u1) | (seq_lo >> u63)
    inc_lo = (seq_lo << u1) | u1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    low32 = np.uint64(_M32)
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
    m0, m1 = m_lo & low32, m_lo >> u32
    for k in range(-1, count):
        # state = state * mult + inc (mod 2**128). The high word of lo * m_lo
        # is summed from 32-bit partial products.
        a0, a1 = lo & low32, lo >> u32
        p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
        mid = (p00 >> u32) + (p01 & low32) + (p10 & low32)
        carry = a1 * m1 + (p01 >> u32) + (p10 >> u32) + (mid >> u32)
        new_lo = lo * m_lo + inc_lo
        hi = carry + hi * m_lo + lo * m_hi + inc_hi + (new_lo < inc_lo)
        lo = new_lo
        if k >= 0:  # XSL-RR output of the stepped state
            x, rot = hi ^ lo, hi >> u58
            x = (x >> rot) | (x << ((u64 - rot) & u63))
            yield (x >> u11).astype(np.float64) * 2.0**-53


def _sq_dist(a, b) -> np.ndarray:
    """``((a - b) ** 2).sum(axis=1)`` of (n, 3) arrays, bit for bit and faster."""
    d = (a - b) ** 2
    return (d[:, 0] + d[:, 1]) + d[:, 2]


def fps_segments(points, offsets, k: int, starts) -> np.ndarray:
    """Greedy farthest point sampling in every CSR segment at once.

    Segment ``s`` is rows ``offsets[s]:offsets[s+1]`` of ``points``, holds at
    least ``k`` of them and starts from its local row ``starts[s]``. Each of
    the k - 1 rounds adds, per segment, the row maximizing the minimum squared
    distance to the selected set, ties broken by the lowest row. Returns the
    (S, k) selected rows of ``points``, ascending within each segment.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    offsets = np.asarray(offsets, dtype=np.int64)
    first, counts = offsets[:-1], np.diff(offsets)
    if k < 1:
        raise ConfigError("k must be >= 1")
    if np.any(counts < k):
        raise ConfigError("every segment must hold at least k points")
    starts = np.asarray(starts, dtype=np.int64)
    if np.any((starts < 0) | (starts >= counts)):
        raise ConfigError("start index out of range")
    selected = np.empty((len(first), k), dtype=np.int64)
    if len(first) == 0:
        return selected
    owner = np.repeat(np.arange(len(first)), counts)
    rows = np.arange(len(pts))
    nxt = first + starts
    d2 = _sq_dist(pts, pts[nxt][owner])
    for i in range(k):
        selected[:, i] = nxt
        d2[nxt] = -1.0  # excludes selected points from the max
        if i + 1 == k:
            break
        top = np.maximum.reduceat(d2, first)
        nxt = np.minimum.reduceat(np.where(d2 == top[owner], rows, len(pts)), first)
        np.minimum(d2, _sq_dist(pts, pts[nxt][owner]), out=d2)
    return np.sort(selected, axis=1)


def preprocess(
    bins: VoxelPoints, cloud, cfg: PreprocessConfig, grid: GridConfig
) -> VoxelPoints:
    """Apply the per-voxel densify/reduce rule to every coarse voxel.

    A voxel with no raw point receives ``empty_fill`` synthetic points and is
    left out when that is 0. A reduced voxel starts its farthest point
    sampling at ``voxel_rng(seed, key).integers(n)``; a padded one draws its
    synthetic points from the start of the same stream (``voxel_uniforms``).
    """
    pts = cloud_xyz(cloud)
    n_raw = bins.counts
    raw_voxels = np.ravel_multi_index(bins.keys.T, grid.coarse_dims)
    n = np.zeros(np.prod(grid.coarse_dims), dtype=np.int64)
    n[raw_voxels] = n_raw
    # Padded and reduced voxels hold theta points, the rest keep their own.
    size = np.where((n <= cfg.tau) | (n > cfg.theta), cfg.theta, n)
    size[n == 0] = cfg.empty_fill
    voxels = np.flatnonzero(size)
    keys = np.stack(np.unravel_index(voxels, grid.coarse_dims), axis=1)
    n, size = n[voxels], size[voxels]
    row = np.searchsorted(voxels, raw_voxels)
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(size, out=offsets[1:])
    raw_index = np.full(offsets[-1], -1, dtype=np.int64)

    # Voxels with at most theta raw points keep all of them, in source order.
    owner = bins.point_voxel
    rank = np.arange(len(owner)) - bins.offsets[owner]
    keep = n_raw[owner] <= cfg.theta
    raw_index[offsets[row[owner[keep]]] + rank[keep]] = bins.raw_index[keep]
    # Denser voxels keep the theta raw points farthest point sampling picks.
    dense = np.flatnonzero(n_raw > cfg.theta)
    idx = bins.raw_index[~keep]
    starts = [int(voxel_rng(cfg.seed, keys[row[b]]).integers(n_raw[b])) for b in dense]
    seg = np.concatenate([[0], np.cumsum(n_raw[dense])])
    picked = idx[fps_segments(pts[idx], seg, cfg.theta, starts)]
    raw_index[offsets[row[dense], None] + np.arange(cfg.theta)] = picked

    raw = raw_index >= 0
    positions = np.empty((len(raw_index), 3))
    positions[raw] = pts[raw_index[raw]]
    # Sparser voxels are padded with uniform points after their raw ones, one
    # coordinate per draw. Ordered by need, the voxels still drawing point j
    # are a prefix of the fill voxels.
    fill = np.flatnonzero(size > n)
    fill = fill[np.argsort(n[fill] - size[fill], kind="stable")]
    need = size[fill] - n[fill]
    first = offsets[fill] + n[fill]
    lo = grid.lo + keys[fill] * grid.coarse_cell
    span = (lo + grid.coarse_cell) - lo
    for k, r in enumerate(voxel_uniforms(cfg.seed, keys[fill], 3 * need.max(initial=0))):
        j, c = divmod(k, 3)
        m = np.count_nonzero(need > j)
        positions[first[:m] + j, c] = lo[:m, c] + r[:m] * span[:m, c]
    source = np.where(raw, SOURCE_RAW, SOURCE_SYNTHETIC).astype(np.uint8)
    return VoxelPoints(keys, offsets, positions, source, raw_index)


def write_ocfp(path, cloud: np.ndarray) -> None:
    """Serialize an (n, 4) cloud of (x, y, z, intensity) as OCFP."""
    pts = np.asarray(cloud, dtype=np.float32).reshape(-1, 4)
    with open(path, "wb") as fh:
        fh.write(_OCFP_MAGIC)
        fh.write(struct.pack("<I", _OCFP_VERSION))
        fh.write(struct.pack("<I", len(pts)))
        fh.write(np.ascontiguousarray(pts, dtype="<f4").tobytes())


def read_ocfp(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise DataError(f"{path}: {len(raw)} bytes, shorter than the 12-byte OCFP header")
    if raw[:4] != _OCFP_MAGIC:
        raise DataError(f"{path}: bad magic, expected OCFP")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _OCFP_VERSION:
        raise DataError(f"{path}: unsupported OCFP version {version}")
    (count,) = struct.unpack_from("<I", raw, 8)
    body = raw[12:]
    if len(body) != count * 16:
        raise DataError(f"{path}: truncated point records")
    return _finite_rows(
        path, np.frombuffer(body, dtype="<f4").reshape(count, 4).astype(np.float64)
    )


def _finite_rows(path, cloud: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(cloud).all(axis=1))
    if len(bad):
        raise DataError(f"{path}: {len(bad)} point rows are not finite (first: row {bad[0]})")
    return cloud


def read_cloud(path) -> np.ndarray:
    """Load a cloud from OCFP or the CSV fallback (header x,y,z,intensity)."""
    path = str(path)
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            try:
                rows = [
                    (float(r["x"]), float(r["y"]), float(r["z"]), float(r["intensity"]))
                    for r in csv.DictReader(fh)
                ]
            except KeyError as exc:
                raise DataError(f"{path}: CSV cloud has no {exc} column") from exc
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed CSV cloud row: {exc}") from exc
        return _finite_rows(path, np.asarray(rows, dtype=np.float64).reshape(-1, 4))
    return read_ocfp(path)
