"""The native cycle kernel behind the fused grading engine.

A small C library, compiled lazily with the system C compiler on first
use, that runs the fused engine's per-cycle simulation for every fault
model. It provides these entry points:

``repro_grade``
    A whole grade in one call, for every fault model. Per cycle it
    seeds the newly activated lanes from the golden state, applies the
    injection schedule's flips and force transitions at the lanes'
    packed positions (re-applying a persistent schedule's force planes
    to the held state), runs the cycle — input drive, the 2-input op
    program, output compare, state latch and compare — and records
    fail and vanish cycles by walking the per-word diffs bit by bit.
    Every inner loop is restrict-qualified so ``-O3 -march=native``
    auto-vectorizes it into full-width SIMD (AVX2/AVX-512 where
    available, NEON on arm); the portable ``-O2`` fallback build runs
    the same scalar C. Transient schedules (SEU, MBU) retire lanes at
    their first golden match, squeeze them out of every flop row with a
    PEXT compactor (BMI2 where available) so later cycles stream only
    live lanes, and stop once every fault has been injected and
    vanished. Persistent ones (stuck-at, intermittent) run every lane
    to the end and report the final golden-equal suffix. It returns the
    cycles executed and the repack count.

``repro_grade_cycle``
    One emulation cycle over the column range ``[w_start, w_stop)``,
    through the same column loop; the golden trace calls it once per
    cycle.

Every call runs on the thread that made it, takes no lock and touches
only the buffers its caller passed in, so independent grades run
concurrently (``ctypes`` releases the GIL for the call). Parallelism
comes from grading separate shards at once, not from splitting one
simulation.

No compiler, a failed compile, or ``REPRO_FUSED_NATIVE=0`` in the
environment makes :func:`native_kernel` return ``None``; the fused
engine then hands every grade to the ``bigint`` engine (same results,
slower). The compiled library is cached under ``~/.cache`` keyed by a
hash of the source and the CPU identity, so a machine pays the compile
once. Nothing beyond ``ctypes``, numpy and the toolchain already
present on the host is involved.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

/* ------------------------------------------------------------------ */
/* one emulation cycle over a column range                             */
/* ------------------------------------------------------------------ */

/* `ops` rows are (code, a, b, c, out): codes 0/1/2 = and/or/xor,
 * 3/4/5 = their inverted forms, 6 = mux (a=select, b=d0, c=d1). */
struct gc_args {
    uint64_t *values;
    long width, w_start, w_stop;
    const int32_t *ops;
    long nops;
    const uint64_t *in_mask;
    long n_in;
    const int32_t *out_slots;
    const uint64_t *out_mask;
    long n_out;
    uint64_t *out_diff;
    const int32_t *d_slots;
    const uint64_t *state_mask;
    long n_ff;
    long q_start;
    uint64_t *state_diff;
    uint64_t *dtmp;
};

static void run_range(const struct gc_args *A)
{
    long width = A->width;
    long lo = A->w_start;
    long wl = A->w_stop - lo;
    uint64_t *restrict scr = A->dtmp;
    uint64_t *values = A->values;
    if (wl <= 0) return;

    for (long i = 0; i < A->n_in; i++) {
        uint64_t m = A->in_mask[i];
        uint64_t *restrict r = values + i * width + lo;
        for (long w = 0; w < wl; w++) r[w] = m;
    }
    const int32_t *ops = A->ops;
    for (long o = 0; o < A->nops; o++) {
        const int32_t *p = ops + o * 5;
        const uint64_t *restrict a = values + (long)p[1] * width + lo;
        const uint64_t *restrict b = values + (long)p[2] * width + lo;
        const uint64_t *restrict c = values + (long)p[3] * width + lo;
        uint64_t *restrict out = values + (long)p[4] * width + lo;
        switch (p[0]) {
        case 0: for (long w = 0; w < wl; w++) out[w] = a[w] & b[w]; break;
        case 1: for (long w = 0; w < wl; w++) out[w] = a[w] | b[w]; break;
        case 2: for (long w = 0; w < wl; w++) out[w] = a[w] ^ b[w]; break;
        case 3: for (long w = 0; w < wl; w++) out[w] = ~(a[w] & b[w]); break;
        case 4: for (long w = 0; w < wl; w++) out[w] = ~(a[w] | b[w]); break;
        case 5: for (long w = 0; w < wl; w++) out[w] = ~(a[w] ^ b[w]); break;
        default:
            for (long w = 0; w < wl; w++)
                out[w] = b[w] ^ (a[w] & (b[w] ^ c[w]));
            break;
        }
    }
    uint64_t *restrict od = A->out_diff + lo;
    for (long w = 0; w < wl; w++) od[w] = 0;
    for (long i = 0; i < A->n_out; i++) {
        const uint64_t *restrict r = values + (long)A->out_slots[i] * width + lo;
        uint64_t m = A->out_mask[i];
        for (long w = 0; w < wl; w++) od[w] |= r[w] ^ m;
    }
    /* D values go through scratch first: a flop's D net may alias
     * another flop's Q row, so all reads happen before any Q write. */
    uint64_t *restrict sd = A->state_diff + lo;
    for (long w = 0; w < wl; w++) sd[w] = 0;
    for (long i = 0; i < A->n_ff; i++) {
        const uint64_t *restrict r = values + (long)A->d_slots[i] * width + lo;
        uint64_t *restrict t = scr + i * wl;
        uint64_t m = A->state_mask[i];
        for (long w = 0; w < wl; w++) {
            uint64_t v = r[w];
            t[w] = v;
            sd[w] |= v ^ m;
        }
    }
    for (long i = 0; i < A->n_ff; i++) {
        uint64_t *restrict q = values + (A->q_start + i) * width + lo;
        const uint64_t *restrict t = scr + i * wl;
        for (long w = 0; w < wl; w++) q[w] = t[w];
    }
}

void repro_grade_cycle(
    uint64_t *values, long width, long w_start, long w_stop,
    const int32_t *ops, long nops,
    const uint64_t *in_mask, long n_in,
    const int32_t *out_slots, const uint64_t *out_mask, long n_out,
    uint64_t *out_diff,
    const int32_t *d_slots, const uint64_t *state_mask, long n_ff,
    long q_start, uint64_t *state_diff, uint64_t *dtmp)
{
    struct gc_args A = {
        values, width, w_start, w_stop, ops, nops, in_mask, n_in,
        out_slots, out_mask, n_out, out_diff, d_slots, state_mask,
        n_ff, q_start, state_diff, dtmp,
    };
    run_range(&A);
}

/* ------------------------------------------------------------------ */
/* lane compaction                                                     */
/* ------------------------------------------------------------------ */

static inline uint64_t repro_pext(uint64_t x, uint64_t m)
{
#if defined(__BMI2__)
    return _pext_u64(x, m);
#else
    uint64_t r = 0;
    int k = 0;
    while (m) {
        uint64_t lsb = m & (~m + 1);
        if (x & lsb) r |= (uint64_t)1 << k;
        k++;
        m &= m - 1;
    }
    return r;
#endif
}

/* Squeeze the kept bits of rows [row_start, row_stop) to the front, in
 * place, across word columns [0, n_words). keep[w] selects the bits of
 * column w that survive. In-place is safe: the write cursor never gets
 * ahead of the read cursor. Returns the new word count. */
static long compact_rows(
    uint64_t *values, long width, long row_start, long row_stop,
    const uint64_t *keep, long n_words)
{
    long out_words = 0;
    for (long r = row_start; r < row_stop; r++) {
        uint64_t *restrict row = values + r * width;
        uint64_t acc = 0;
        long nb = 0;
        long j = 0;
        for (long w = 0; w < n_words; w++) {
            uint64_t k = keep[w];
            if (!k) continue;
            long c = __builtin_popcountll(k);
            uint64_t e = repro_pext(row[w], k);
            acc |= e << nb;
            if (nb + c >= 64) {
                row[j++] = acc;
                long used = 64 - nb;
                acc = (used >= 64) ? 0 : (e >> used);
                nb = nb + c - 64;
            } else {
                nb += c;
            }
        }
        if (nb) row[j++] = acc;
        out_words = j;
    }
    return out_words;
}

/* ------------------------------------------------------------------ */
/* a whole grade                                                       */
/* ------------------------------------------------------------------ */

/* Lanes [0, n) of a 64-lane word, n clamped to [0, 64]. */
static inline uint64_t lanes_below(long n)
{
    return n <= 0 ? 0 : n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

/* Apply event rows [e, stop) at their lanes' packed positions (pos_of:
 * fault -> position + 1, 0 for a lane that has not activated: only the
 * post-bench events of a lane activating at num_cycles). FLIP xors the
 * q bit; FORCE0/FORCE1 add the bit to the force planes and RELEASE
 * drops it, as the reference engines do. Transient schedules have no
 * planes. */
static void apply_events(
    uint64_t *values, long width, long q_start, const int64_t *pos_of,
    const int64_t *flop, const int64_t *lane, const uint8_t *op,
    long e, long stop, uint64_t *force_mask, uint64_t *force_set)
{
    for (; e < stop; e++) {
        long p = pos_of[lane[e]] - 1;
        if (p < 0) continue;
        long at = flop[e] * width + (p >> 6);
        uint64_t bit = (uint64_t)1 << (p & 63);
        switch (op[e]) {
        case 0: values[(q_start + flop[e]) * width + (p >> 6)] ^= bit; break;
        case 3:
            if (force_mask) { force_mask[at] &= ~bit; force_set[at] &= ~bit; }
            break;
        default:
            if (force_mask) {
                force_mask[at] |= bit;
                if (op[e] == 2) force_set[at] |= bit;
            }
        }
    }
}

/* A persistent schedule's held state, before `cycle` runs (or after the
 * bench, cycle = num_cycles): force the q bits of columns [0, n_act),
 * then track the final golden-equal suffix of lanes [0, held). A lane
 * that matches golden becomes a candidate with vanish = cycle - 1; a
 * candidate that differs again goes back to -1. not_vanished marks the
 * lanes that are not candidates; diff is scratch. */
static void hold_forced(
    uint64_t *values, long width, long q_start, long n_ff,
    const uint64_t *force_mask, const uint64_t *force_set,
    const uint64_t *golden, long n_act, long held, long cycle,
    uint64_t *diff, uint64_t *not_vanished, const int64_t *lane_map,
    int32_t *vanish)
{
    for (long w = 0; w < n_act; w++) diff[w] = 0;
    for (long f = 0; f < n_ff; f++) {
        uint64_t *restrict q = values + (q_start + f) * width;
        const uint64_t *restrict m = force_mask + f * width;
        const uint64_t *restrict s = force_set + f * width;
        uint64_t g = golden[f];
        for (long w = 0; w < n_act; w++) {
            uint64_t v = (q[w] & ~m[w]) | s[w];
            q[w] = v;
            diff[w] |= v ^ g;
        }
    }
    for (long w = 0; w < n_act; w++) {
        uint64_t active = lanes_below(held - (w << 6));
        uint64_t newly = ~diff[w] & active & not_vanished[w];
        uint64_t lost = diff[w] & active & ~not_vanished[w];
        for (uint64_t b = newly; b; b &= b - 1)
            vanish[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)(cycle - 1);
        for (uint64_t b = lost; b; b &= b - 1)
            vanish[lane_map[(w << 6) + __builtin_ctzll(b)]] = -1;
        not_vanished[w] ^= newly | lost;
    }
}

/* Grade one fault per lane over the whole bench in one call; fail and
 * vanish (fault order) come in filled with -1.
 *
 * Sorted by activation cycle, lanes [bounds[t], bounds[t+1]) of `order`
 * (fault indices) activate at cycle t: they take the next packed
 * positions, seeded with that cycle's golden state, and lane_map
 * (packed position -> fault) records them. Then event rows
 * [ev_at[t], ev_at[t+1]) act on the state held during cycle t; rows
 * [ev_at[num_cycles], ev_at[num_cycles+1]) on the post-bench state.
 *
 * A transient schedule's lane vanishes at its first golden match and
 * retires; once 1/16 of the packed lanes (and at least 64) have, the
 * live bits of every q row are squeezed to the front by the PEXT
 * compactor and lane_map follows (pos_of does not: all of a transient
 * lane's events fall on its activation cycle, before any repack moves
 * it). The loop stops once every lane has activated and retired.
 * A persistent schedule re-applies its force planes to the held state
 * every cycle; its lanes never retire, and vanish is the start of the
 * final golden-equal suffix of the forced state, post-bench included.
 *
 * Mask rows are contiguous, one per cycle (state: one per cycle
 * boundary). Returns the cycles executed, -1 if out of memory. */
long repro_grade(
    uint64_t *values, long width, const uint64_t *in_masks,
    const uint64_t *out_masks, const uint64_t *state_masks,
    const int32_t *ops, long nops, long n_in,
    const int32_t *out_slots, long n_out, const int32_t *d_slots, long n_ff,
    long q_start, long num_cycles, long num_faults,
    const int64_t *bounds, const int64_t *order,
    const int64_t *ev_at, const int64_t *ev_flop, const int64_t *ev_lane,
    const uint8_t *ev_op, long persistent,
    int32_t *fail, int32_t *vanish, long *repacks)
{
    /* out_diff, state_diff, not_failed, not_vanished, lane_map, pos_of,
     * D scratch, then (persistent only) the force mask and set planes */
    long words = width + 1;
    uint64_t *scratch = calloc((132 + (persistent ? 3 : 1) * n_ff) * words, 8);
    if (!scratch) return -1;
    uint64_t *not_failed = scratch + 2 * words;
    uint64_t *not_vanished = scratch + 3 * words;
    int64_t *lane_map = (int64_t *)(scratch + 4 * words);
    int64_t *pos_of = (int64_t *)(scratch + 68 * words);
    uint64_t *force_mask = persistent ? scratch + (132 + n_ff) * words : 0;
    uint64_t *force_set = force_mask ? force_mask + n_ff * words : 0;
    struct gc_args A = {
        values, width, 0, 0, ops, nops, 0, n_in,
        out_slots, 0, n_out, scratch, d_slots, 0,
        n_ff, q_start, scratch + words, scratch + 132 * words,
    };
    long packed = 0;   /* packed positions in use */
    long live = 0;     /* unresolved lanes among them */
    long n_act = 0;    /* active word columns: ceil(packed / 64) */
    long executed = 0;
    *repacks = 0;

    for (long cycle = 0; cycle < num_cycles; cycle++) {
        long held = packed;
        long first = bounds[cycle], last = bounds[cycle + 1];
        if (last > first) {
            /* Seed the new positions with this cycle's golden state,
             * mask-merged: boundary words may hold live lanes. */
            long top = packed + last - first;
            const uint64_t *golden = state_masks + cycle * n_ff;
            n_act = (top + 63) >> 6;
            for (long w = packed >> 6; w < n_act; w++) {
                uint64_t fresh = lanes_below(top - (w << 6)) &
                                 ~lanes_below(packed - (w << 6));
                for (long f = 0; f < n_ff; f++) {
                    uint64_t *q = values + (q_start + f) * width + w;
                    *q = (*q & ~fresh) | (golden[f] & fresh);
                }
                not_failed[w] |= fresh;
                not_vanished[w] |= fresh;
            }
            for (long i = first; i < last; i++, packed++) {
                lane_map[packed] = order[i];
                pos_of[order[i]] = packed + 1;
            }
            live += last - first;
        }
        if (live == 0) {
            if (last == num_faults) {
                executed = cycle;
                break;
            }
            continue;
        }
        executed = cycle + 1;
        apply_events(values, width, q_start, pos_of, ev_flop, ev_lane, ev_op,
                     ev_at[cycle], ev_at[cycle + 1], force_mask, force_set);
        if (persistent)
            hold_forced(values, width, q_start, n_ff, force_mask, force_set,
                        state_masks + cycle * n_ff, n_act, held, cycle,
                        A.state_diff, not_vanished, lane_map, vanish);

        A.w_stop = n_act;
        A.in_mask = in_masks + cycle * n_in;
        A.out_mask = out_masks + cycle * n_out;
        A.state_mask = state_masks + (cycle + 1) * n_ff;
        run_range(&A);

        for (long w = 0; w < n_act; w++) {
            uint64_t failed = A.out_diff[w] & not_failed[w];
            uint64_t vanished =
                persistent ? 0 : ~A.state_diff[w] & not_vanished[w];
            for (uint64_t b = failed; b; b &= b - 1)
                fail[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)cycle;
            for (uint64_t b = vanished; b; b &= b - 1)
                vanish[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)cycle;
            /* A vanished transient lane tracks golden forever, so it can
             * never fail later: clearing it keeps its (now possibly
             * stale) bits inert through skipped cycles and repacks. */
            not_failed[w] &= ~(failed | vanished);
            not_vanished[w] &= ~vanished;
            live -= __builtin_popcountll(vanished);
        }
        if (persistent) continue;
        if (live == 0 && last == num_faults) break;

        long dead = packed - live;
        if (dead >= 64 && dead * 16 >= packed) {
            long kept = 0;
            for (long w = 0; w < n_act; w++)
                for (uint64_t b = not_vanished[w]; b; b &= b - 1)
                    lane_map[kept++] = lane_map[(w << 6) + __builtin_ctzll(b)];
            compact_rows(values, width, q_start, q_start + n_ff,
                         not_vanished, n_act);
            compact_rows(not_failed, n_act, 0, 1, not_vanished, n_act);
            long old_n_act = n_act;
            packed = live;
            n_act = (packed + 63) >> 6;
            for (long w = 0; w < old_n_act; w++) {
                not_vanished[w] = lanes_below(packed - (w << 6));
                if (w >= n_act) not_failed[w] = 0;
            }
            ++*repacks;
        }
    }
    if (persistent && packed) {
        apply_events(values, width, q_start, pos_of, ev_flop, ev_lane, ev_op,
                     ev_at[num_cycles], ev_at[num_cycles + 1],
                     force_mask, force_set);
        hold_forced(values, width, q_start, n_ff, force_mask, force_set,
                    state_masks + num_cycles * n_ff, n_act, packed,
                    num_cycles, A.state_diff, not_vanished, lane_map, vanish);
    }
    free(scratch);
    return executed;
}
"""

#: tri-state: None = not tried yet, False = unavailable, else the kernel
_KERNEL = None


class NativeKernel:
    """ctypes bindings to the compiled kernel."""

    __slots__ = ("grade", "grade_cycle")

    #: threads per call: always the caller's own (benchmark fingerprints
    #: record it)
    threads = 1

    def __init__(self, library: ctypes.CDLL):
        longs = ctypes.c_long
        pointer = ctypes.c_void_p

        self.grade_cycle = library.repro_grade_cycle
        self.grade_cycle.restype = None
        self.grade_cycle.argtypes = [
            pointer, longs, longs, longs,  # values, width, w_start, w_stop
            pointer, longs,  # ops, nops
            pointer, longs,  # in_mask, n_in
            pointer, pointer, longs,  # out_slots, out_mask, n_out
            pointer,  # out_diff
            pointer, pointer, longs,  # d_slots, state_mask, n_ff
            longs, pointer, pointer,  # q_start, state_diff, dtmp
        ]

        # ndpointer checks dtype and contiguity: the loop indexes raw rows
        u64, i64, i32, u8 = (
            np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
            for dtype in (np.uint64, np.int64, np.int32, np.uint8)
        )
        self.grade = library.repro_grade
        self.grade.restype = longs
        self.grade.argtypes = [  # as repro_grade's parameters
            u64, longs, u64, u64, u64, i32, longs, longs, i32, longs,
            i32, longs, longs, longs, longs, i64, i64,
            i64, i64, i64, u8, longs,
            i32, i32, ctypes.POINTER(longs),
        ]


def native_kernel() -> Optional[NativeKernel]:
    """The compiled cycle kernel, or None when unavailable."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load() or False
    return _KERNEL or None


def _cpu_tag() -> str:
    """CPU identity folded into the cache key.

    The kernel is built with ``-march=native``, so a cached binary must
    never be loaded on a CPU with a different instruction set (shared
    home directories, restored CI caches) — that would trade a graceful
    fallback for a SIGILL.
    """
    tag = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    tag += line
                    break
    except OSError:
        tag += platform.processor() or ""
    return tag


def _cache_path() -> str:
    digest = hashlib.sha256((_SOURCE + _cpu_tag()).encode()).hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, f"repro-fused-native-{digest}.so")


def _load():
    if os.environ.get("REPRO_FUSED_NATIVE", "1") == "0":
        return None
    shared_object = _cache_path()
    if os.path.exists(shared_object):
        try:
            return NativeKernel(ctypes.CDLL(shared_object))
        except OSError:
            pass  # stale/foreign-arch cache entry; recompile below
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    try:
        os.makedirs(os.path.dirname(shared_object), exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="repro-native-") as workdir:
            source = os.path.join(workdir, "kernel.c")
            with open(source, "w") as handle:
                handle.write(_SOURCE)
            built = os.path.join(workdir, "kernel.so")
            for flags in (["-O3", "-march=native"], ["-O2"]):
                result = subprocess.run(
                    [compiler, "-shared", "-fPIC", *flags, source, "-o", built],
                    capture_output=True,
                )
                if result.returncode == 0:
                    break
            else:
                return None
            # Atomic publish so concurrent processes never load a torn file.
            temp = shared_object + f".{os.getpid()}.tmp"
            shutil.copy(built, temp)
            os.replace(temp, shared_object)
        return NativeKernel(ctypes.CDLL(shared_object))
    except (OSError, subprocess.SubprocessError):
        return None
