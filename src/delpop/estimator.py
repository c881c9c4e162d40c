"""Unbiased moment estimators for deletion-channel traces.

Sampled traces, a trace file and an exact trace law all enter as a
`TraceHistogram`, distinct padded rows with weights, and its `estimates`
gives the `MomentEstimates` of a grid: the means of g_1..g_k at every
point, with their covariance or without it.

For a trace x~ (zero-padded) and complex z, g_m(x~, z) averages to
P(z; x)^m over the channel.  It is a sum over ordered compositions
B = (b_1..b_k) of m:

    g_m = sum_B multinom(m; B) * p^(-k) * z^(b_1 + 2 b_2 + ... + k b_k)
              / (w_{B,1} ... w_{B,k}) * f(x~, w_B),

with w_{B,r} = (z^(b_r + ... + b_k) - q) / p and f the gap-weighted chain
sum over increasing index tuples 1 <= i_1 < ... < i_k <= n,

    f(x~, w) = sum x~_{i_1} ... x~_{i_k} w_1^(i_1) w_2^(i_2 - i_1) ... w_k^(i_k - i_(k-1)).

The suffix sums m = s_1 > s_2 > ... > s_k >= 1 (s_{k+1} = 0) determine a
composition, fix its weights w_{B,r} = W(s_r) = (z^(s_r) - q) / p, and,
since sum_r r b_r = sum_r s_r, factor its coefficient as
m! * prod_r phi(s_r, s_(r+1)) with phi(s, t) = z^s / (p W(s) (s - t)!).
So the whole composition sum is one backward sweep over trace positions
with one running state A_t per suffix value t = 1..k_max, scaled by t!
so that the factorials meet as binomials C(s, t) (and A_0 := 1):

    A_t[n]   = 0
    B_s[j]   = x~_j z^s / (p W(s)) sum_{0<=t<s} C(s, t) A_t[j]    for j = n..1
    A_t[j-1] = W(t) (A_t[j] + B_t[j])
    g_m      = A_m[0]                                              for m <= k_max

B_s[j] sums the chains whose first index is j with suffix value s there,
and A_t[j] those starting after j, each weighted by W(t)^(distance from
j).  On the augmented state v = (A_1..A_k, 1) each position is affine:
with M = I + chain, where chain[s, t] = C(s, t) z^s / (p W(s)) for
1 <= t < s, start[s] = z^s / (p W(s)) and D = diag(W(1..k), 1),

    v[j-1] = D v[j]                          if x~_j = 0
    v[j-1] = D [[M, start], [0, 1]] v[j]     if x~_j = 1

and g = v[0] without its last entry.  So CHUNK = 4 positions at a time
are one (k+1)-square transfer matrix T, one per 4-bit pattern.  The sweep
runs in real arithmetic: a state is the 2k+1 reals (Re A_1..A_k, 1, Im
A_1..A_k), the constant having no imaginary part and so no row, and T
acts on it as its real block form [[Re T, -Im T[:, :k]], [Im T[:k], Re
T[:k, :k]]].  T's last row is (0, ..., 0, 1), so the constant stays
exactly 1, and one real matmul (dgemm) per pattern advances every row
through a chunk.  Rows that end in the same chunks share their state up
to there: the sweep runs over the rows' suffix trie, whose level j holds
the distinct (pattern of chunk j, node of level j + 1) pairs; its root is
the zero state v = (0, 1), which a zero-padded partial last chunk and an
all-zero suffix leave as it is.  Every row passes through every level, so
a level has at least as many nodes as the one above it.  A row's leaf is
its node at chunk 0; the weights of the rows that share a leaf are
summed, and `g_moments` takes the means and covariances over the leaves.
Chunks of 4 bits cut the node steps per point of 2 x 10^4 distinct 48-bit
rows from 365k (single bits) to 99k, and their 16 matrices stay cheap to
build; wider chunks spend more on 2^CHUNK matrices per point than they
save on short rows.

The means alone are linear in the row weights, so `g_means` stops the
sweep at bit 8, on a plan whose levels end at chunk 2 and which gives
each row's node there.  It groups the rows by their first byte (a stable
sort of np.packbits(rows[:, :8])), sums their weighted states at bit 8
per group (one gather, one multiply, one reduceat), and carries each sum
to bit 0 through the byte's two chunk matrices, T[hi] (T[lo] sum), all
in the real form; only the (points, k) means become complex.  With n <= 8
no level lies above bit 8, and the means start from the root.  Rows part
most near their start, so the two chunks next to bit 0 hold the trie's
widest levels: for 2 x 10^4 distinct 48-bit rows, 39 898 of the 98 680
node steps per point, which the byte sums replace by 237 groups.  The
means never build those two levels; `g_moments` extends the means' plan
by them, so a histogram builds each level once, whichever runs first.  A
12-bit stop leaves 39 202 node steps but 2 211 prefix groups, and ran at
6.6 ms per point against 5.2 ms on 2 shared vCPUs; its 4 096 possible
prefix products alone, as stacked 6 x 6 products of three chunk
matrices, take 9.4 ms.  The covariance is a weighted sum of outer
products g g^H, not of states, so `g_moments` sweeps to the leaves and
turns their states into complex g once.

A sweep builds the transfer matrices of all its points at once and cuts
its levels into a head and a tail.  The head is the leading levels whose
nodes times the points stay within STACK_ROWS = 2^14, and it is swept
once, every point on a leading stack axis.  The tail runs in stacks of
max(1, STACK_ROWS // nodes of its widest level) points, each from its
slice of the head's states.  A few distinct rows fit the whole trie in
the head and sweep the whole grid in one pass.  The 19 978 distinct
48-bit rows of estimate-n48-l3 sweep the means' five narrow levels (2 to
492 nodes) once for all 13 points, and the rest one point at a time, with
two float64 state buffers of about 1.8 MB; the head's buffers hold at
most 2 x STACK_ROWS x (2k + 1) float64 (2.9 MB at k = 5).

On 2 shared vCPUs OpenBLAS ran the 16 pattern ranges of a level of
20 000 nodes in 408 us as 6-square complex matmuls (zgemm), in 189 us as
their 11-square real blocks, and in 216 us as 12-square blocks that keep
a row for the constant's imaginary part; that 12-row form ran
estimate-n48-l3 at 419k-475k against 468k-503k traces/s.  Two sort-based
`_trie_plan`s were slower than the bitmap of distinct keys, which takes
4.8 ms on the 19 978 distinct 48-bit rows of estimate-n48-l3 (seed 1):
`np.unique(..., return_inverse=True)` per level took 8.4 ms, and
`np.sort` with `searchsorted` 14.3 ms.  Two threads over the points ran
slower than one pass at a time next to OpenBLAS's own two threads (104
against 97 ms for 13 points).  At commit 1a9eb8c (2 shared vCPUs), a
meet-in-the-middle means sweep, the suffix trie down to bit 16 plus a
prefix trie from bit 0 reduced toward the root, cut the node steps per
point of perfbench's estimate-n48-l3 (seed 1) from 58 782 to 31 569,
means equal to 5e-16, but ran at 33.4-33.8 against 30.9-32.2 ms for 13
points: summing 19 978 weighted rows into 8 026 prefixes costs about
0.6 ms per point by reduceat, bincount or cumsum differences alike.
On the complex sweep, splitting the stack only at wide levels was
byte-identical and no faster (37.2 against 36.6 ms per operation); on the
real sweep it pays.  Measured by tools/ab_ops.py (both checkouts in one
process, 100 alternating operations each, seeds 1-3, 2 shared vCPUs),
the head and tail with one transfer build, the bit-8 plan and the CLI's
one parser together ran estimate-n48-l3 1.18-1.20 times as fast as commit
d7dfde7 (medians 36.9-39.1 against 43.4-46.5 ms), byte-identical; without
the head sweep 1.11-1.15 times, without the bit-8 plan 1.10-1.14 times,
and without the one parser 1.13-1.16 times.
STACK_ROWS of 2^15 to 2^18 gave 488k-539k traces/s against 512k, with
peak RSS up to 95.7 MB.  At commit d7dfde7 (2 shared vCPUs) these gained
nothing: a meet-in-the-middle means sweep at bit 12 with grouped
matmuls, whose reduceat over 2 211 groups costs 325 us against 91 us
over 237; a trie plan from one sort (8.6 against 8.4 ms for the bitmap
plan); and a head of up to 4 x STACK_ROWS.  Dropping the constant's row
from the gather saved 5 % of the sweep time and was not adopted.
At commit a4a2dfc (2 shared vCPUs) these were slower or gained nothing:
blocking the sorted histogram path (n > 16) as the counted one is
blocked (10^6 rows of 32 bits in 31.8 against 18.5 ms, of 48 bits in
105 against 45 ms); checking the bits per block instead of per batch
(accept-n8's operation 0.3-0.6 ms slower); two threads over the tail's
point stacks (estimate-n48-l3 at 515k-550k against 577k traces/s, peak
RSS 71.4 against 64.7 MB); two threads over the histogram blocks
(accept-n8 at 198M-244M against 202M-233M traces/s for the blocks alone,
0.3 MB more peak RSS); gathering the parent states of each pattern range
into a small buffer instead of one level-wide gather (570 against
420-465 us per wide level); and stacking all 13 points node-major, as
(nodes, points, 2k + 1) states (23 against 6 ms per wide level).

A point where some |W(s)| < 1e-12, s <= k_max, is singular for the
estimator (the coefficients divide by it) and raises
SingularGridPointError; on the unit circle |W(s)| >= 1, so no grid point is
singular.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import ParameterError

SINGULAR_TOL = 1e-12


class SingularGridPointError(ParameterError):
    """The weight W(s) = (z^s - q) / p vanishes at this z."""

    def __init__(self, z, s):
        super().__init__(f"W(s) = (z^s - q)/p vanishes at z={z} for s={s}")
        self.z = z
        self.s = s


CHUNK = 4  # trace positions per trie level, one transfer matrix per pattern; divides 8
STACK_ROWS = 1 << 14  # grid points times widest-level nodes swept in one pass, 2k + 1 reals each
HIST_ROWS = 1 << 16  # rows keyed and bincounted at once by a histogram of n <= 16 bits


class _TriePlan(NamedTuple):
    """The suffix trie of a set of rows down to chunk `stop`, laid out for
    `_g_sweep`.

    The rows are cut into CHUNK-bit chunks, a partial last chunk read as
    zero-padded, and into at least the two chunks of the first byte.
    Level j's nodes are the distinct pairs (pattern of chunk j, node of
    level j + 1), numbered by pattern first; the last chunk's nodes hang
    from one root, the zero state.  `levels` holds, from the last chunk
    down to chunk `stop`, each level's parent indices and its non-empty
    pattern ranges (pattern, lo, hi).  A level has at least as many nodes
    as the one above it.  `node[i]` is row i's node at chunk `stop`, the
    root when there is no level."""

    levels: list
    node: np.ndarray
    stop: int


def _trie_plan(rows: np.ndarray, stop: int, top: _TriePlan | None = None) -> _TriePlan:
    """The `_TriePlan` of a (U, n) 0/1 array down to chunk `stop`; given
    `top`, the plan of the same rows down to a later chunk, it builds only
    the levels below top's and keeps top's."""
    U, n = rows.shape
    packed = np.packbits(rows, axis=1)  # CHUNK divides 8: no chunk spans two bytes
    if top is None:
        levels, node, first = [], np.zeros(U, dtype=np.int32), max(n - 1, CHUNK) // CHUNK
    else:
        levels, node, first = list(top.levels), top.node, top.stop - 1
    count = len(levels[-1][0]) if levels else 1
    for lo in range(first * CHUNK, stop * CHUNK - 1, -CHUNK):
        pattern = packed[:, lo // 8] >> (8 - CHUNK - lo % 8) & (1 << CHUNK) - 1
        key = pattern.astype(np.intp) * count + node  # (pattern, parent), pattern first
        seen = np.zeros(count << CHUNK, dtype=bool)  # set entries: distinct keys in order, no sort
        seen[key] = True
        keys = np.flatnonzero(seen)
        rank = np.empty(len(seen), dtype=np.int32)
        rank[keys] = np.arange(len(keys))
        node = rank[key]
        bounds = np.cumsum(np.count_nonzero(seen.reshape(-1, count), axis=1)).tolist()
        ranges = [(c, a, b) for c, (a, b) in enumerate(zip([0] + bounds, bounds)) if a < b]
        levels.append(((keys % count).astype(np.int32), ranges))
        count = len(keys)
    return _TriePlan(levels, node, stop)


def _transfer_matrices(zs: np.ndarray, k_max: int, p: float) -> np.ndarray:
    """R[i, c]: the real (2 k_max + 1)-square block form of the matrix T
    that carries the augmented state (A_1..A_k, 1) from the end of a chunk
    with bit pattern c back to its start, at zs[i].  T is the product over
    the chunk of D = diag(W, 1) per 0-bit and D [[M, start], [0, 1]] per
    1-bit; R = [[Re T, -Im T[:, :k]], [Im T[:k], Re T[:k, :k]]] acts on the
    real state (Re A_1..A_k, 1, Im A_1..A_k).  Every such T has the last
    row (0, .., 0, 1), so R keeps the constant exactly 1 and its imaginary
    part, which gets no row, 0, and the blocks multiply as the T do."""
    if k_max < 1:
        raise ParameterError("m must be >= 1")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0,1), got {p!r}")
    q = 1.0 - p
    zpow = zs[:, None] ** np.arange(1, k_max + 1)
    W = (zpow - q) / p
    singular = np.argwhere(np.abs(W) < SINGULAR_TOL)
    if len(singular):
        i, s = singular[0].tolist()
        raise SingularGridPointError(complex(zs[i]), s + 1)
    # binom[s - 1, t] = C(s, t) for 0 <= t < s, and 0 for t >= s
    binom = np.array([[math.comb(s, t) if t < s else 0 for t in range(k_max + 1)]
                      for s in range(1, k_max + 1)])
    phi = (zpow / (p * W))[:, :, None] * binom  # phi[i, s - 1, t] = C(s, t) z^s / (p W(s))
    diag = np.arange(k_max)
    E = np.zeros((len(zs), 2, k_max + 1, k_max + 1), dtype=complex)
    E[:, :, k_max, k_max] = 1
    E[:, 0, diag, diag] = W
    E[:, 1, :k_max, :k_max] = phi[:, :, 1:]  # M = I + chain
    E[:, 1, diag, diag] += 1
    E[:, 1, :k_max, k_max] = phi[:, :, 0]  # start
    E[:, 1, :k_max] *= W[:, :, None]
    # the real blocks of the one-bit matrices; the block form of a product
    # is the product of the blocks, and stacks of small real matmuls ran
    # about 4x faster than complex ones (57 against 262 us, 17 points, k = 3)
    K = 2 * k_max + 1
    R = np.empty((len(zs), 2, K, K))
    R[..., : k_max + 1, : k_max + 1] = E.real
    R[..., : k_max + 1, k_max + 1 :] = -E.imag[..., :k_max]
    R[..., k_max + 1 :, : k_max + 1] = E.imag[..., :k_max, :]
    R[..., k_max + 1 :, k_max + 1 :] = E.real[..., :k_max, :k_max]
    T = R  # T[:, c] for patterns c of one more bit per step, first bit most significant
    for _ in range(CHUNK - 1):
        T = (T[:, :, None] @ R[:, None, :]).reshape(len(zs), 2 * T.shape[1], K, K)
    return T


def _complex_rows(states: np.ndarray, k_max: int) -> np.ndarray:
    """A_1..A_k as complex numbers from real states (Re A_1..A_k, 1, Im
    A_1..A_k) laid out along axis 1."""
    out = states[:, :k_max].astype(complex)
    out.imag = states[:, k_max + 1 :]
    return out


def _g_sweep(levels: list, T: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """The real augmented states (Re A_1..A_k, 1, Im A_1..A_k) of the
    nodes of the last of a plan's `levels` at every point of a stack, as
    the columns of a (points, 2k + 1, nodes) float64 array, by the trie form
    of the backward sweep in the module docstring; T holds the points'
    `_transfer_matrices`.  The sweep starts from `start`, the states of
    the nodes above the first level, or from the root; with no levels it
    returns them.  Its two buffers hold the widest of `levels`.  The A_m are
    g_m when the levels reach chunk 0.  Nodes lie along the last axis, so
    each matmul is a small square matrix times a wide block: with nodes
    along the middle axis (tall blocks) the 16 matmuls of a level of
    20 000 nodes took 294 against 196 us, for a gather 24 us faster, and
    OpenBLAS's threaded path raised the peak RSS of 2 x 10^4 distinct
    48-bit rows by 0.6 MB (complex states)."""
    points, _, K, _ = T.shape
    if start is None:
        start = np.zeros((points, K, 1))
        start[:, K // 2] = 1  # the root: A = 0 and the constant 1 after the last bit
    size = points * K * max((len(parent) for parent, _ in levels), default=0)
    states, parents = np.empty(size), np.empty(size)
    state = start
    # every index is in range; mode="clip" lets take write into `out` unbuffered
    for parent, ranges in levels:
        shape = (points, K, len(parent))
        used = points * K * len(parent)
        gathered = np.take(state, parent, axis=2, out=parents[:used].reshape(shape), mode="clip")
        state = states[:used].reshape(shape)
        for c, a, b in ranges:
            np.matmul(T[:, c], gathered[:, :, a:b], out=state[:, :, a:b])
    return state


def _bit_batches(batches, n: int, limit: int):
    """The first `limit` rows of an iterable of (batch, n) arrays, one int8
    batch at a time, each checked to hold only 0 and 1.  The source is not
    pulled past the batch that reaches `limit`; running out first raises."""
    total = 0
    for batch in batches:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != n:
            raise ParameterError("trace batch must have shape (count, n)")
        batch = batch[: limit - total]
        if batch.dtype != np.int8:
            bits = batch.astype(np.int8)
            if not np.array_equal(bits, batch):  # a value the cast wraps or truncates
                raise ParameterError("trace bits must be 0 or 1")
            batch = bits
        # one pass: read as uint8, every int8 other than 0 and 1 exceeds 1
        if len(batch) and batch.view(np.uint8).max() > 1:
            raise ParameterError("trace bits must be 0 or 1")
        yield batch
        total += len(batch)
        if total >= limit:
            return
    raise ParameterError(f"trace source exhausted after {total} of {limit} traces")


def _merge_counts(parts: list) -> tuple:
    """The distinct keys of a list of (ascending distinct keys, counts)
    parts, ascending, with their summed counts; one part is its own merge."""
    if len(parts) == 1:
        return parts[0]
    keys, inverse = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    return keys, np.bincount(inverse, weights=np.concatenate([c for _, c in parts]))


_GATHER = np.uint64(0x8040201008040201)


def _word_keys(rows: np.ndarray) -> np.ndarray:
    """Integer keys of C-contiguous (U, n) 0/1 rows, 8 <= n <= 16, their
    bits read most significant first: each row is read as two overlapping
    little-endian 8-byte words, its bytes 0..7 and n-8..n-1, and each word
    gives its 8 bits by one multiply and shift."""
    U, n = rows.shape
    keys = np.ndarray((U,), "<u8", rows, 0, (n,)) * _GATHER
    keys >>= 56
    if n > 8:
        low = np.ndarray((U,), "<u8", rows, n - 8, (n,)) * _GATHER
        low >>= 56
        keys <<= n - 8
        keys |= low  # the bits both words hold land on the same key bits
    return keys


@dataclass(frozen=True)
class TraceHistogram:
    """A trace sample reduced to its distinct padded rows.

    g_k depends on a trace only through its padded bits, so the distinct
    rows (a (U, n) int8 array) and their weights (summing to 1) describe a
    sample completely.  `count` is the number of traces N behind the
    weights; an exact trace law has none."""

    rows: np.ndarray
    weights: np.ndarray
    count: int | None = None

    @cached_property
    def _byte_plan(self) -> _TriePlan:
        """The rows' suffix trie down to bit 2 CHUNK, where the means stop."""
        return _trie_plan(self.rows, 2)

    @cached_property
    def _plan(self) -> _TriePlan:
        """The rows' whole suffix trie: `_byte_plan` and its last two levels."""
        return _trie_plan(self.rows, 0, self._byte_plan)

    @cached_property
    def _leaf_weights(self) -> np.ndarray:
        """The summed weight of each leaf of `_plan`."""
        return np.bincount(self._plan.node, self.weights, len(self._plan.levels[-1][0]))

    @cached_property
    def _byte_groups(self) -> tuple:
        """The rows as `g_means` reads them, in a stable sort by their
        first byte: their nodes at bit 2 CHUNK and their weights, the
        first row of each first byte, and that byte.  A row of fewer than 8
        bits reads as zero-padded."""
        first = np.packbits(self.rows[:, :8], axis=1)[:, 0].astype(np.intp)
        order = np.argsort(first, kind="stable")
        first = first[order]
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        return self._byte_plan.node[order], self.weights[order], starts, first[starts]

    @classmethod
    def from_batches(cls, batches, n: int, limit: int) -> "TraceHistogram":
        """Histogram of the first `limit` traces of an iterable of 0/1
        arrays of shape (batch, n).  Rows come out in ascending order of
        their bits read as a big-endian number, so the result does not
        depend on how the traces were ordered or batched.  Batches are
        reduced one at a time and the source is not pulled past the batch
        that reaches `limit`.

        Rows of n <= 16 bits are counted: each row's key is its bits read
        as an unsigned integer, most significant first, and every batch is
        keyed and bincounted into one array of 2^n bins in blocks of
        HIST_ROWS = 2^16 rows, so memory is O(2^n + one batch) and no
        temporary outgrows a core's L2 cache (a block's keys take 512 KB).
        On 10^6 random rows (2 shared vCPUs) the blocks cut the count from
        9.4-9.8 to 8.0-8.2 ms at n = 4, from 3.6-3.7 to 2.7 ms at n = 8,
        from 8.8-9.9 to 5.9-6.5 ms at n = 12 and from 13.1-13.3 to
        12.1-12.2 ms at n = 16, against keying each batch whole.  The key
        reads each row as two overlapping little-endian 8-byte words, its
        first and its last 8 bytes (a row of fewer than 8 bits is first
        right-aligned in 8 bytes).  A word times
        0x8040201008040201 moves byte i's bit to bit 63 - i of the
        product, and no other term reaches those bits, so shifting the
        product right by 56 leaves the word's 8 bits, first byte most
        significant.  Wider rows are sorted: each row's packed bytes (at
        least 3) are right-aligned in the smallest unsigned integer of 4
        or 8 bytes that holds them and read big-endian, so the integer
        keys sort as the bytes do (rows wider than 64 bits keep a raw
        byte-string key).  Each batch's distinct keys and counts wait
        until they outnumber the keys merged so far, and are then merged
        with them by one `np.unique`, so a lone batch is never merged and
        memory is O(distinct rows + one batch)."""
        if limit < 1:
            raise ParameterError(f"the trace count must be >= 1, got {limit}")
        if n <= 16:
            bins = np.zeros(1 << n, dtype=np.int64)
            if n < 8:  # rows right-aligned in 8 bytes; the first 8 - n columns stay zero
                padded = np.zeros((min(limit, HIST_ROWS), 8), dtype=np.int8)
            for batch in _bit_batches(batches, n, limit):
                for start in range(0, len(batch), HIST_ROWS):
                    block = batch[start : start + HIST_ROWS]
                    if n < 8:
                        padded[: len(block), 8 - n :] = block
                        block = padded[: len(block)]
                    elif not block.flags.c_contiguous:  # the word views need contiguous rows
                        block = np.ascontiguousarray(block)
                    bins += np.bincount(_word_keys(block).view(np.int64), minlength=len(bins))
            keys = np.flatnonzero(bins)
            shifts = np.arange(n - 1, -1, -1)
            rows, counts = (keys[:, None] >> shifts) & 1, bins[keys]
        else:
            width = (n + 7) // 8
            size = next((b for b in (4, 8) if b >= width), width)
            wire = np.dtype(f">u{size}") if size <= 8 else np.dtype((np.void, size))
            native = wire.newbyteorder("=")  # sort and concatenate in native byte order
            merged, pending = [], []  # (distinct keys, counts) parts
            for batch in _bit_batches(batches, n, limit):
                packed = np.zeros((len(batch), size), dtype=np.uint8)
                packed[:, size - width :] = np.packbits(batch, axis=1)
                pending.append(np.unique(packed.view(wire).ravel().astype(native), return_counts=True))
                if sum(len(k) for k, _ in pending) > sum(len(k) for k, _ in merged):
                    merged, pending = [_merge_counts(merged + pending)], []
            keys, counts = _merge_counts(merged + pending)
            packed = keys.astype(wire).view(np.uint8).reshape(-1, size)[:, size - width :]
            rows = np.unpackbits(packed, axis=1, count=n)
        total = int(counts.sum())
        return cls(rows.astype(np.int8), counts / total, total)

    def g_moments(self, z, k_max: int, p: float):
        """Weighted means of g_1..g_{k_max} at z, and their Hermitian
        covariance over one trace, C[i, j] = E[(g_{i+1} - b_{i+1})
        conj(g_{j+1} - b_{j+1})].  z is one point or an array of them, and
        the results gain its shape in front."""
        zs = np.asarray(z, dtype=complex)
        means, cov = self._sweep(zs.ravel(), k_max, p, covariance=True)
        return means.reshape(zs.shape + (k_max,)), cov.reshape(zs.shape + (k_max, k_max))

    def g_means(self, z, k_max: int, p: float) -> np.ndarray:
        """The means of `g_moments` alone, with the same shape, from the
        sweep stopped at bit 2 CHUNK that the module docstring gives."""
        zs = np.asarray(z, dtype=complex)
        means, _ = self._sweep(zs.ravel(), k_max, p, covariance=False)
        return means.reshape(zs.shape + (k_max,))

    def _sweep(self, zs: np.ndarray, k_max: int, p: float, covariance: bool) -> tuple:
        """(means, cov) of g_1..g_{k_max} at the points of a 1-D array zs,
        cov None without `covariance`, over `_plan` with it and over
        `_byte_plan` without.  The transfer matrices are built once.  The
        head, the leading levels whose nodes times the points stay within
        STACK_ROWS, is swept once with every point stacked; the tail then
        runs in stacks of max(1, STACK_ROWS // nodes of its widest level)
        points, each from its slice of the head's states."""
        T = _transfer_matrices(zs, k_max, p)
        levels = (self._plan if covariance else self._byte_plan).levels
        # levels widen toward the leaves, so the ones that fit lead
        split = sum(len(parent) * len(zs) <= STACK_ROWS for parent, _ in levels)
        head, tail = levels[:split], levels[split:]
        start = _g_sweep(head, T)
        stack = max(1, STACK_ROWS // len(tail[-1][0]) if tail else len(zs))
        means = np.empty((len(zs), k_max), dtype=complex)
        cov = np.empty((len(zs), k_max, k_max), dtype=complex) if covariance else None
        for i in range(0, len(zs), stack):
            j = i + stack
            if covariance:
                means[i:j], cov[i:j] = self._leaf_moments(_g_sweep(tail, T[i:j], start[i:j]), k_max)
            else:
                means[i:j] = self._byte_means(_g_sweep(tail, T[i:j], start[i:j]), T[i:j], k_max)
        return means, cov

    def _leaf_moments(self, states: np.ndarray, k_max: int) -> tuple:
        """The weighted means and covariances of g over the leaves, from
        their (points, 2k + 1, leaves) real states; the covariance is a sum
        of outer products g g^H, so the states become complex g once."""
        g = _complex_rows(states, k_max)
        del states  # free the sweep's buffer before the weighted copy of D
        weights = self._leaf_weights
        means = g @ weights
        D = np.subtract(g, means[:, :, None], out=g)
        Dw = D * weights
        return means, Dw @ np.conjugate(D, out=D).transpose(0, 2, 1)

    def _byte_means(self, states: np.ndarray, T: np.ndarray, k_max: int) -> np.ndarray:
        """The weighted means of g from the (points, 2k + 1, nodes) real
        states at bit 2 CHUNK: the rows' weighted states are summed per
        first byte, and each sum is carried to bit 0 by the byte's two
        chunk matrices, T[hi] (T[lo] sum); two matrix-vector products per
        byte took a fifth of the time of the products T[hi] @ T[lo] and
        their contraction."""
        columns, weights, starts, prefixes = self._byte_groups
        weighted = np.take(states, columns, axis=2)
        weighted *= weights
        sums = np.add.reduceat(weighted, starts, axis=2)  # (points, 2k + 1, bytes)
        hi, lo = prefixes >> CHUNK, prefixes & (1 << CHUNK) - 1
        carried = np.einsum("pgij,pjg->pgi", T[:, lo], sums)
        return _complex_rows(np.einsum("pgij,pgj->pi", T[:, hi], carried), k_max)

    def estimates(self, grid, k_max: int, p: float, covariance: bool = True) -> MomentEstimates:
        """Means of g_0..g_{k_max} (g_0 := 1) at every grid point, with the
        covariance of (g_1..g_{k_max}) as `g_moments` gives it, or with cov
        None and the means alone as `g_means` gives them when `covariance`
        is False.

        The grid must be conjugate-symmetric in reverse order, as `zgrid`
        builds it: traces and channel parameters are real, so g_k(x~,
        conj(z)) is the conjugate of g_k(x~, z), and only the first half of
        the grid (the Im z <= 0 member of each pair on the roots of unity)
        is swept, its head once and its tail in stacks.  A singular grid
        point raises SingularGridPointError."""
        if k_max < 1:
            raise ParameterError("k_max must be >= 1")
        grid = np.asarray(grid, dtype=complex)
        if grid.ndim != 1 or not np.array_equal(grid, grid[::-1].conj()):
            raise ParameterError("grid must be a conjugate-symmetric array of points")
        P = len(grid)
        half = (P + 1) // 2
        half_means, half_cov = self._sweep(grid[:half], k_max, p, covariance)
        means = np.empty((P, k_max + 1), dtype=complex)
        means[:, 0] = 1.0
        means[:half, 1:] = half_means
        means[half:, 1:] = half_means[: P - half][::-1].conj()
        cov = None
        if covariance:
            cov = np.concatenate([half_cov, half_cov[: P - half][::-1].conj()])
        return MomentEstimates(grid, means, cov, self.count)


@dataclass
class MomentEstimates:
    """Sample means of g_0..g_{k_max} at every grid point (g_0 := 1), with
    the covariance of (g_1..g_{k_max}) over one trace, whose diagonal gives
    the standard errors downstream, or None when only the means were
    taken.  Row i of `means` and `cov` belongs to grid[i]."""

    grid: np.ndarray  # (P,) complex points on the unit circle
    means: np.ndarray  # (P, k_max + 1) complex; column 0 is 1
    cov: np.ndarray | None  # (P, k_max, k_max) complex Hermitian
    count: int | None  # traces behind every mean; None for an exact law

    @property
    def k_max(self) -> int:
        return self.means.shape[1] - 1

    @property
    def stderrs(self) -> np.ndarray:
        """(P, k_max + 1) standard errors of the means; column 0 is 0."""
        if self.cov is None:
            raise ParameterError("these estimates hold means only: no covariance, no standard errors")
        if self.count is None:
            raise ParameterError("an exact trace law has no trace count: no standard errors")
        var = np.diagonal(self.cov, axis1=1, axis2=2).real / self.count
        return np.concatenate([np.zeros((len(var), 1)), np.sqrt(var)], axis=1)

    def point_table(self) -> list:
        """One dict per grid point: z and the standard error of each b_k."""
        stderrs = self.stderrs
        table = []
        for i, z in enumerate(self.grid.tolist()):
            row = {"z_real": z.real, "z_imag": z.imag}
            for k in range(1, self.k_max + 1):
                row[f"stderr_{k}"] = float(stderrs[i, k])
            table.append(row)
        return table

    def to_json(self) -> str:
        recs = []
        for z, row in zip(self.grid.tolist(), self.means):
            for k, mean in enumerate(row):
                recs.append(
                    {
                        "z": [z.real, z.imag],
                        "k": k,
                        "mean": [float(mean.real), float(mean.imag)],
                        "count": self.count,
                    }
                )
        return json.dumps(recs)
