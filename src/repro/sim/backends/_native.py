"""The native cycle kernel behind the fused grading engine.

A small C library, compiled lazily with the system C compiler on first
use, that runs the fused engine's per-cycle simulation for every fault
model. It provides these entry points:

``repro_grade_cycle``
    One full emulation cycle — input drive, the 2-input op program,
    output compare, state latch and compare — over the active column
    range ``[w_start, w_stop)``. Every inner loop is restrict-qualified
    so ``-O3 -march=native`` auto-vectorizes it into full-width SIMD
    (AVX2/AVX-512 where available, NEON on arm); the portable ``-O2``
    fallback build runs the same scalar C. The golden trace and the
    non-SEU fault models call it once per cycle.

``repro_grade_seu``
    A whole plain-SEU grade in one call: per cycle it seeds the newly
    injected lanes from the golden state and flips their bits, runs
    the cycle through the same column loop as ``repro_grade_cycle``,
    records fail and vanish cycles by walking the per-word diffs bit by
    bit, and squeezes re-converged lanes out of every flop row with a
    PEXT compactor (BMI2 where available) so later cycles stream only
    live lanes. It stops once every fault has been injected and
    vanished, and returns the cycles executed and the repack count.

Every call runs on the thread that made it, takes no lock and touches
only the buffers its caller passed in, so independent grades run
concurrently (``ctypes`` releases the GIL for the call). Parallelism
comes from grading separate shards at once, not from splitting one
simulation.

No compiler, a failed compile, or ``REPRO_FUSED_NATIVE=0`` in the
environment makes :func:`native_kernel` return ``None``; the fused
engine then hands every grade to the ``numpy`` engine (same results,
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
/* a whole plain-SEU grade                                             */
/* ------------------------------------------------------------------ */

/* Lanes [0, n) of a 64-lane word, n clamped to [0, 64]. */
static inline uint64_t lanes_below(long n)
{
    return n <= 0 ? 0 : n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

/* Grade single-bit flips, one lane per fault, in one call. Sorted by
 * injection cycle, lanes [bounds[t], bounds[t+1]) flip q row lane_q[i]
 * at cycle t and report into fail/vanish[order[i]] (filled with -1).
 * Lanes take packed positions as they are injected; once 1/16 of them
 * (and at least 64) have re-converged, the live bits of every q row are
 * squeezed to the front, and lane_map (packed position -> fault index)
 * follows. Mask rows are contiguous, one per cycle (state: one per
 * cycle boundary). Returns the cycles executed, -1 if out of memory. */
long repro_grade_seu(
    uint64_t *values, long width, const uint64_t *in_masks,
    const uint64_t *out_masks, const uint64_t *state_masks,
    const int32_t *ops, long nops, long n_in,
    const int32_t *out_slots, long n_out, const int32_t *d_slots, long n_ff,
    long q_start, long num_cycles, long num_faults,
    const int64_t *bounds, const int64_t *lane_q, const int64_t *order,
    int32_t *fail, int32_t *vanish, long *repacks)
{
    /* out_diff, state_diff, not_failed, not_vanished, lane_map, then D
     * scratch */
    long words = width + 1;
    uint64_t *scratch = calloc((68 + n_ff) * words, 8);
    if (!scratch) return -1;
    uint64_t *not_failed = scratch + 2 * words;
    uint64_t *not_vanished = scratch + 3 * words;
    int64_t *lane_map = (int64_t *)(scratch + 4 * words);
    struct gc_args A = {
        values, width, 0, 0, ops, nops, 0, n_in,
        out_slots, 0, n_out, scratch, d_slots, 0,
        n_ff, q_start, scratch + words, scratch + 68 * words,
    };
    long packed = 0;   /* packed positions in use */
    long live = 0;     /* unresolved lanes among them */
    long n_act = 0;    /* active word columns: ceil(packed / 64) */
    long executed = 0;
    *repacks = 0;

    for (long cycle = 0; cycle < num_cycles; cycle++) {
        long first = bounds[cycle], last = bounds[cycle + 1];
        if (last > first) {
            /* Seed the new positions with this cycle's golden state
             * (mask-merged: boundary words may hold live lanes), then
             * flip each injected flop bit. */
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
                values[lane_q[i] * width + (packed >> 6)] ^=
                    (uint64_t)1 << (packed & 63);
                lane_map[packed] = order[i];
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

        A.w_stop = n_act;
        A.in_mask = in_masks + cycle * n_in;
        A.out_mask = out_masks + cycle * n_out;
        A.state_mask = state_masks + (cycle + 1) * n_ff;
        run_range(&A);

        for (long w = 0; w < n_act; w++) {
            uint64_t failed = A.out_diff[w] & not_failed[w];
            uint64_t vanished = ~A.state_diff[w] & not_vanished[w];
            for (uint64_t b = failed; b; b &= b - 1)
                fail[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)cycle;
            for (uint64_t b = vanished; b; b &= b - 1)
                vanish[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)cycle;
            /* A vanished lane tracks golden forever, so it can never
             * fail later: clearing it keeps its (now possibly stale)
             * bits inert through skipped cycles and repacks. */
            not_failed[w] &= ~(failed | vanished);
            not_vanished[w] &= ~vanished;
            live -= __builtin_popcountll(vanished);
        }
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
    free(scratch);
    return executed;
}
"""

#: tri-state: None = not tried yet, False = unavailable, else the kernel
_KERNEL = None


class NativeKernel:
    """ctypes bindings to the compiled kernel."""

    __slots__ = ("grade_cycle", "grade_seu")

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
        u64, i64, i32 = (
            np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
            for dtype in (np.uint64, np.int64, np.int32)
        )
        self.grade_seu = library.repro_grade_seu
        self.grade_seu.restype = longs
        self.grade_seu.argtypes = [  # as repro_grade_seu's parameters
            u64, longs, u64, u64, u64, i32, longs, longs, i32, longs,
            i32, longs, longs, longs, longs, i64, i64, i64,
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
